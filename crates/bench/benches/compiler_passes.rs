//! Compiler-pass cost: Algorithms 1 and 2 end to end, plus dependence
//! analysis and lowering, per workload. The paper-scale cases register
//! what each pass produced as counters, so the gate checks the
//! compiler's decisions exactly next to its wall time.

use bench::Harness;
use ndc::prelude::*;
use ndc_ir::{lower, DependenceGraph, LowerOptions};

fn main() {
    let cfg = ArchConfig::paper_default();
    let cores = cfg.nodes();
    let opts = LowerOptions {
        cores,
        emit_busy: true,
    };
    let prog = by_name("swim").unwrap().build(Scale::Test);
    let mut h = Harness::new("compiler_passes");

    h.bench("dependence_analysis_swim", || {
        for nest in &prog.nests {
            std::hint::black_box(DependenceGraph::analyze(nest));
        }
    });
    h.bench("algorithm1_swim", || {
        compile_algorithm1(&prog, &cfg, cores).1.planned
    });
    h.bench("algorithm2_swim", || {
        compile_algorithm2(&prog, &cfg, cores, Algorithm2Options::default())
            .1
            .planned
    });
    h.bench("lowering_swim", || lower(&prog, &opts, None).total_insts());

    // Paper scale: the sizes `ndc-eval fig4` compiles and lowers.
    let bwaves = by_name("bwaves").unwrap().build(Scale::Paper);
    h.bench("algorithm1_bwaves_paper", || {
        compile_algorithm1(&bwaves, &cfg, cores).1.planned
    });
    h.counter(
        "planned",
        compile_algorithm1(&bwaves, &cfg, cores).1.planned,
    );
    let fused = Algorithm2Options {
        fuse: true,
        ..Algorithm2Options::default()
    };
    h.bench("algorithm2_fused_bwaves_paper", || {
        compile_algorithm2(&bwaves, &cfg, cores, fused).1.planned
    });
    let report = compile_algorithm2(&bwaves, &cfg, cores, fused).1;
    h.counter("planned", report.planned);
    h.counter("fused_chains", report.fused_chains);

    let ocean = by_name("ocean").unwrap().build(Scale::Paper);
    let (sched, _) = compile_algorithm1(&ocean, &cfg, cores);
    h.bench("lowering_ocean_alg1_paper", || {
        lower(&ocean, &opts, Some(&sched)).total_insts()
    });
    h.counter(
        "trace_insts",
        lower(&ocean, &opts, Some(&sched)).total_insts(),
    );

    h.finish();
}
