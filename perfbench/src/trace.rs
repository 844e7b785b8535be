//! The traced run: the same operations as the untraced timed section,
//! made serially through each layer's public functions, with a span
//! around every call. Spans live in memory until the run ends.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ndc::cme::accuracy_against_sim;
use ndc::compiler::{compile_algorithm1, compile_algorithm2, Algorithm2Options, CompilerReport};
use ndc::experiments::figure4_schemes;
use ndc::ir::{lower, DependenceGraph, Program, Schedule};
use ndc::sim::engine::Engine;
use ndc::sim::schemes::{OracleGuide, Scheme, WaitBudget};
use ndc::sim::SimResult;
use ndc::types::Json;
use ndc::workloads::gen;

use crate::workload::{fuse_options, Compiled, ProgramRuns, Setup, Workload, FIG4_SIM_LABELS};

/// One recorded span. `program` is the index of the program the work
/// belongs to (`None` for work that belongs to no single program).
pub struct Span {
    pub name: &'static str,
    pub program: Option<u32>,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans of the root that mirrors the untraced timed section.
pub const MIRROR_ROOT: &str = "program";

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, program: Option<usize>) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            program: program.map(|p| p as u32),
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
    }

    pub fn end(&mut self) {
        let id = self.stack.pop().expect("end matches a begin");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Run `f` inside a span of its own.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        program: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        self.begin(name, program);
        let r = f();
        self.end();
        r
    }

    /// Close every span opened above `depth`, after a panic skipped
    /// their `end` calls.
    pub fn close_to(&mut self, depth: usize) {
        while self.stack.len() > depth {
            self.end();
        }
    }

    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .fold(0.0, |a, b| a + b)
    }

    /// Summed self time (duration minus the time child spans cover) of
    /// every span inside a mirror root, in seconds: the layer time of
    /// the work the untraced section also does.
    pub fn mirror_layer_s(&self) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let in_mirror = |mut i: usize| loop {
            match self.spans[i].parent {
                Some(p) => {
                    if self.spans[p as usize].name == MIRROR_ROOT {
                        return true;
                    }
                    i = p as usize;
                }
                None => return false,
            }
        };
        (0..self.spans.len())
            .filter(|&i| in_mirror(i))
            .map(|i| (self.spans[i].end_ns - self.spans[i].start_ns - child_ns[i]) as f64 / 1e9)
            .sum()
    }

    /// The wall time of the mirrored work: the summed mirror roots.
    pub fn mirror_wall_s(&self) -> f64 {
        self.total_ms(MIRROR_ROOT) / 1e3
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj()
                        .with("id", id as u64)
                        .with("name", s.name)
                        .with(
                            "program",
                            s.program.map_or(Json::Null, |p| Json::UInt(u64::from(p))),
                        )
                        .with(
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::UInt(u64::from(p))),
                        )
                        .with("start_ns", s.start_ns)
                        .with("end_ns", s.end_ns)
                })
                .collect(),
        )
    }
}

/// What the traced pass produced besides its spans.
pub struct TracedPass {
    pub runs: Vec<ProgramRuns>,
    /// Instructions in every trace the pass lowered.
    pub trace_insts: u64,
    /// Share of reference byte counts the reuse analysis proved exact.
    pub reuse_exact_share: f64,
    /// Programs whose traced operations panicked.
    pub panicked: Vec<usize>,
}

/// The traced pass: the mirror of [`crate::workload::run_pass`], then
/// the probes of the layers whose work happens inside another layer's
/// call (dependences, reuse, and the programs' own build).
pub fn traced_pass(s: &Setup, t: &mut Tracer) -> TracedPass {
    let mut trace_insts = 0u64;
    let mut runs = Vec::new();
    let mut panicked = Vec::new();
    for (p, prog) in s.programs.iter().enumerate() {
        let depth = t.depth();
        t.begin(MIRROR_ROOT, Some(p));
        let r = catch_unwind(AssertUnwindSafe(|| match s.workload {
            Workload::Fig4Paper => fig4_program(s, p, t, &mut trace_insts),
            Workload::Mesh16 => mesh_program(s, p, prog, t, &mut trace_insts),
            Workload::CompileCorpus => ProgramRuns {
                sims: Vec::new(),
                compiles: corpus_compiles(s, p, prog, t),
            },
        }));
        t.close_to(depth);
        runs.push(r.unwrap_or_else(|_| {
            panicked.push(p);
            ProgramRuns::default()
        }));
    }
    let reuse_exact_share = probes(s, t);
    TracedPass {
        runs,
        trace_insts,
        reuse_exact_share,
        panicked,
    }
}

/// `evaluate_benchmark`, one call per layer, in its job order.
fn fig4_program(s: &Setup, p: usize, t: &mut Tracer, insts: &mut u64) -> ProgramRuns {
    let (cfg, cores, opts) = (s.cfg, s.cores(), s.lower_opts());
    let at = Some(p);
    let prog = t.time("workloads.build", at, || s.benches[p].build(s.scale));
    let traces = t.time("ir.lower", at, || lower(&prog, &opts, None));
    *insts += traces.total_insts();
    let base = t.time("sim.baseline", at, || {
        Engine::new(cfg, &traces, Scheme::Baseline)
            .with_instrumentation()
            .run()
    });
    t.time("cme.analyze", at, || {
        let cme = ndc::cme::analyze(&prog, &cfg, cores);
        let counters = |m: &ndc::sim::stats::PcCacheCounters| {
            m.iter().map(|(k, v)| (*k, (v.hits, v.misses))).collect()
        };
        black_box(accuracy_against_sim(
            &cme,
            &counters(&base.result.pc_l1),
            &counters(&base.result.pc_l2),
            |k| ndc::ir::pc_of(k.nest_pos, k.stmt_pos, ndc::ir::ROLE_MAIN),
        ));
    });
    let mut sims = vec![("baseline", Some(base.result))];
    for (scheme, label) in figure4_schemes().into_iter().zip(&FIG4_SIM_LABELS[1..8]) {
        let result = match scheme {
            Scheme::Oracle { reuse_aware } => {
                let pass1 = t.time("sim.instrumented", at, || {
                    Engine::new(cfg, &traces, Scheme::Baseline)
                        .with_instrumentation()
                        .run()
                });
                let records = &pass1
                    .instrumentation
                    .as_ref()
                    .expect("instrumented run")
                    .records;
                let guide = t.time("sim.oracle_guide", at, || {
                    OracleGuide::build(records, &traces, cfg.l1.line_bytes, reuse_aware)
                });
                t.time("sim.oracle_pass2", at, || {
                    Engine::new(cfg, &traces, scheme)
                        .with_guide(&guide)
                        .run()
                        .result
                })
            }
            _ => t.time("sim.ndc_all", at, || {
                Engine::new(cfg, &traces, scheme).run().result
            }),
        };
        sims.push((label, Some(result)));
    }
    let mut compiles = Vec::new();
    for (label, span) in [("alg1", "compiler.alg1"), ("alg2", "compiler.alg2")] {
        let (sched, report) = t.time(span, at, || {
            if label == "alg1" {
                compile_algorithm1(&prog, &cfg, cores)
            } else {
                compile_algorithm2(&prog, &cfg, cores, Algorithm2Options::default())
            }
        });
        sims.push((label, Some(compiled_sim(s, &prog, &sched, p, t, insts))));
        compiles.push((label, Some(kept(report, sched))));
    }
    ProgramRuns { sims, compiles }
}

fn kept(report: CompilerReport, schedule: Schedule) -> Compiled {
    Compiled {
        report,
        schedule: Some(schedule),
    }
}

fn compiled_sim(
    s: &Setup,
    prog: &Program,
    sched: &Schedule,
    p: usize,
    t: &mut Tracer,
    insts: &mut u64,
) -> SimResult {
    let traces = t.time("ir.lower", Some(p), || {
        lower(prog, &s.lower_opts(), Some(sched))
    });
    *insts += traces.total_insts();
    t.time("sim.compiled", Some(p), || {
        Engine::new(s.cfg, &traces, Scheme::Compiled).run().result
    })
}

fn mesh_program(
    s: &Setup,
    p: usize,
    prog: &Program,
    t: &mut Tracer,
    insts: &mut u64,
) -> ProgramRuns {
    let at = Some(p);
    let traces = t.time("ir.lower", at, || lower(prog, &s.lower_opts(), None));
    *insts += traces.total_insts();
    let baseline = t.time("sim.baseline", at, || {
        Engine::new(s.cfg, &traces, Scheme::Baseline).run().result
    });
    let last_wait = t.time("sim.ndc_all", at, || {
        let scheme = Scheme::NdcAll {
            budget: WaitBudget::LastWindow,
        };
        Engine::new(s.cfg, &traces, scheme).run().result
    });
    let (sched, report) = t.time("compiler.alg2", at, || {
        compile_algorithm2(prog, &s.cfg, s.cores(), Algorithm2Options::default())
    });
    let alg2 = compiled_sim(s, prog, &sched, p, t, insts);
    ProgramRuns {
        sims: vec![
            ("baseline", Some(baseline)),
            ("last_wait", Some(last_wait)),
            ("alg2", Some(alg2)),
        ],
        compiles: vec![("alg2", Some(kept(report, sched)))],
    }
}

fn corpus_compiles(
    s: &Setup,
    p: usize,
    prog: &Program,
    t: &mut Tracer,
) -> Vec<(&'static str, Option<Compiled>)> {
    let (cfg, cores, at) = (&s.cfg, s.cores(), Some(p));
    let (s1, r1) = t.time("compiler.alg1", at, || compile_algorithm1(prog, cfg, cores));
    let (s2, r2) = t.time("compiler.alg2", at, || {
        compile_algorithm2(prog, cfg, cores, Algorithm2Options::default())
    });
    let (s3, r3) = t.time("compiler.alg2_fuse", at, || {
        compile_algorithm2(prog, cfg, cores, fuse_options())
    });
    vec![
        ("alg1", Some(kept(r1, s1))),
        ("alg2", Some(kept(r2, s2))),
        ("alg2_fuse", Some(kept(r3, s3))),
    ]
}

/// Time the layers the mirror reaches only through other layers' calls.
/// Returns the share of reference DRAM-byte counts proved exact.
fn probes(s: &Setup, t: &mut Tracer) -> f64 {
    let (mut exact, mut refs) = (0u64, 0u64);
    for (p, prog) in s.programs.iter().enumerate() {
        let at = Some(p);
        if s.workload != Workload::Fig4Paper {
            // fig4-paper builds inside its mirror, like evaluate_benchmark.
            t.time("workloads.build", at, || match s.benches.get(p) {
                Some(b) => black_box(b.build(s.scale)),
                None => black_box(gen::generate(s.generated_seed(p)).program),
            });
            t.time("cme.analyze", at, || {
                black_box(ndc::cme::analyze(prog, &s.cfg, s.cores()))
            });
        }
        t.time("ir.deps", at, || {
            for nest in &prog.nests {
                black_box(DependenceGraph::analyze(nest));
            }
        });
        let report = t.time("reuse.analyze", at, || {
            ndc::reuse::analyze_program(prog, s.cfg.l1.line_bytes, s.cfg.l2.line_bytes)
        });
        for f in report.nests.iter().flat_map(|n| &n.refs) {
            refs += 1;
            exact += u64::from(f.dram_bytes.tag == ndc::reuse::Exactness::Exact);
        }
    }
    if refs == 0 {
        0.0
    } else {
        exact as f64 / refs as f64
    }
}
