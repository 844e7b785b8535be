//! The three workloads: their inputs (set-up) and their untraced timed
//! section, which drives the pipeline only through public functions.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ndc::compiler::{compile_algorithm1, compile_algorithm2, Algorithm2Options, CompilerReport};
use ndc::experiments::evaluate_benchmark;
use ndc::ir::{lower, LowerOptions, Program, Schedule};
use ndc::sim::engine::simulate;
use ndc::sim::schemes::{Scheme, WaitBudget};
use ndc::sim::SimResult;
use ndc::types::ArchConfig;
use ndc::workloads::{all_benchmarks, by_name, gen, Benchmark, Scale};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig4Paper,
    Mesh16,
    CompileCorpus,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig4Paper,
        Workload::Mesh16,
        Workload::CompileCorpus,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig4Paper => "fig4-paper",
            Workload::Mesh16 => "mesh-16x16",
            Workload::CompileCorpus => "compile-corpus",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// True for the workloads that run the simulator.
    pub fn simulates(self) -> bool {
        self != Workload::CompileCorpus
    }
}

/// Input size: `Full` is the benchmark proper, `Tiny` the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// One program per `PatternClass`, in the order of the class enum.
pub const FIG4_PROGRAMS: [&str; 6] = ["ocean", "swim", "fma3d", "volrend", "lu", "smith.wa"];
pub const MESH_PROGRAMS: [&str; 2] = ["swim", "fft"];
const CORPUS_GENERATED: usize = 64;
const CORPUS_GENERATED_TINY: usize = 8;

/// Everything a workload needs before its timed section starts.
pub struct Setup {
    pub workload: Workload,
    pub cfg: ArchConfig,
    pub scale: Scale,
    /// The paper benchmarks the workload runs (fig4-paper, mesh-16x16
    /// and the paper half of compile-corpus).
    pub benches: Vec<Benchmark>,
    /// Built programs: one per bench, then (compile-corpus only) the
    /// seeded generated corpus.
    pub programs: Vec<Program>,
    /// The workload seed; generated program `i` uses `seed + i`.
    pub seed: u64,
}

impl Setup {
    pub fn cores(&self) -> usize {
        self.cfg.nodes()
    }

    /// The generator seed of program `p`, which must be a generated one.
    pub fn generated_seed(&self, p: usize) -> u64 {
        self.seed.wrapping_add((p - self.benches.len()) as u64)
    }

    pub fn lower_opts(&self) -> LowerOptions {
        LowerOptions {
            cores: self.cores(),
            emit_busy: true,
        }
    }
}

fn benches(names: &[&str]) -> Vec<Benchmark> {
    names
        .iter()
        .map(|n| by_name(n).expect("benchmark is registered"))
        .collect()
}

/// Build the workload's inputs. Only compile-corpus depends on `seed`;
/// the other two run the paper's fixed programs.
pub fn setup(workload: Workload, size: Size, seed: u64) -> Setup {
    let tiny = size == Size::Tiny;
    let (cfg, scale, benches) = match workload {
        Workload::Fig4Paper => (
            ArchConfig::paper_default(),
            if tiny { Scale::Test } else { Scale::Paper },
            benches(&FIG4_PROGRAMS),
        ),
        Workload::Mesh16 => {
            let cfg = ArchConfig::with_mesh(16, 16);
            let scale = if tiny {
                Scale::Test
            } else {
                Scale::proportional(cfg.nodes())
            };
            (cfg, scale, benches(&MESH_PROGRAMS))
        }
        Workload::CompileCorpus => (
            ArchConfig::paper_default(),
            if tiny { Scale::Test } else { Scale::Paper },
            all_benchmarks(),
        ),
    };
    let mut programs: Vec<Program> = benches.iter().map(|b| b.build(scale)).collect();
    if workload == Workload::CompileCorpus {
        let count = if tiny {
            CORPUS_GENERATED_TINY
        } else {
            CORPUS_GENERATED
        };
        programs.extend(
            gen::generate_batch(seed, count)
                .into_iter()
                .map(|g| g.program),
        );
    }
    Setup {
        workload,
        cfg,
        scale,
        benches,
        programs,
        seed,
    }
}

/// A compile operation's outcome. `schedule` is kept where the timed
/// section had it in hand (evaluate_benchmark returns only the report).
pub struct Compiled {
    pub report: CompilerReport,
    pub schedule: Option<Schedule>,
}

/// One program's results from one pass. Each entry is one operation;
/// `None` marks an operation that panicked.
#[derive(Default)]
pub struct ProgramRuns {
    pub sims: Vec<(&'static str, Option<SimResult>)>,
    pub compiles: Vec<(&'static str, Option<Compiled>)>,
}

impl ProgramRuns {
    pub fn ops(&self) -> usize {
        self.sims.len() + self.compiles.len()
    }

    pub fn sim(&self, label: &str) -> Option<&SimResult> {
        self.sims
            .iter()
            .find(|(l, _)| *l == label)
            .and_then(|(_, r)| r.as_ref())
    }
}

/// Labels of the fig4-paper simulations, in `evaluate_benchmark` order:
/// the baseline, the seven `figure4_schemes`, then both algorithms.
pub const FIG4_SIM_LABELS: [&str; 10] = [
    "baseline",
    "default",
    "oracle",
    "wait5",
    "wait10",
    "wait25",
    "wait50",
    "last_wait",
    "alg1",
    "alg2",
];
pub const CORPUS_COMPILE_LABELS: [&str; 3] = ["alg1", "alg2", "alg2_fuse"];

/// Operations per program in one pass of the workload.
pub fn ops_per_program(workload: Workload) -> usize {
    match workload {
        Workload::Fig4Paper => FIG4_SIM_LABELS.len() + 2,
        Workload::Mesh16 => 4,
        Workload::CompileCorpus => CORPUS_COMPILE_LABELS.len(),
    }
}

fn caught<R>(f: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

pub fn fuse_options() -> Algorithm2Options {
    Algorithm2Options {
        fuse: true,
        ..Algorithm2Options::default()
    }
}

/// The untraced timed section: one pass of the workload.
pub fn run_pass(s: &Setup) -> Vec<ProgramRuns> {
    match s.workload {
        Workload::Fig4Paper => {
            // The programs fan out over ndc-par, as `evaluate_all` does.
            ndc_par::parallel_map(&s.benches, |b| {
                let Some(e) = caught(|| evaluate_benchmark(b, s.cfg, s.scale)) else {
                    return ProgramRuns {
                        sims: FIG4_SIM_LABELS.iter().map(|l| (*l, None)).collect(),
                        compiles: vec![("alg1", None), ("alg2", None)],
                    };
                };
                let mut sims = vec![("baseline", Some(e.baseline))];
                sims.extend(
                    FIG4_SIM_LABELS[1..8]
                        .iter()
                        .copied()
                        .zip(e.scheme_results.into_iter().map(Some)),
                );
                let (a1, r1) = e.alg1;
                let (a2, r2) = e.alg2;
                sims.push(("alg1", Some(a1)));
                sims.push(("alg2", Some(a2)));
                let compiled = |report| {
                    Some(Compiled {
                        report,
                        schedule: None,
                    })
                };
                ProgramRuns {
                    sims,
                    compiles: vec![("alg1", compiled(r1)), ("alg2", compiled(r2))],
                }
            })
        }
        Workload::Mesh16 => s.programs.iter().map(|p| mesh_program(s, p)).collect(),
        Workload::CompileCorpus => s
            .programs
            .iter()
            .map(|p| ProgramRuns {
                sims: Vec::new(),
                compiles: corpus_compiles(s, p),
            })
            .collect(),
    }
}

fn mesh_program(s: &Setup, prog: &Program) -> ProgramRuns {
    let opts = s.lower_opts();
    let traces = caught(|| lower(prog, &opts, None));
    let sim = |scheme| {
        traces
            .as_ref()
            .and_then(|t| caught(|| simulate(s.cfg, t, scheme).result))
    };
    let baseline = sim(Scheme::Baseline);
    let last_wait = sim(Scheme::NdcAll {
        budget: WaitBudget::LastWindow,
    });
    let compiled =
        caught(|| compile_algorithm2(prog, &s.cfg, s.cores(), Algorithm2Options::default()));
    let alg2 = compiled.as_ref().and_then(|(sched, _)| {
        caught(|| simulate(s.cfg, &lower(prog, &opts, Some(sched)), Scheme::Compiled).result)
    });
    ProgramRuns {
        sims: vec![
            ("baseline", baseline),
            ("last_wait", last_wait),
            ("alg2", alg2),
        ],
        compiles: vec![(
            "alg2",
            compiled.map(|(sched, report)| Compiled {
                report,
                schedule: Some(sched),
            }),
        )],
    }
}

fn corpus_compiles(s: &Setup, prog: &Program) -> Vec<(&'static str, Option<Compiled>)> {
    let cores = s.cores();
    let keep = |(sched, report)| Compiled {
        report,
        schedule: Some(sched),
    };
    vec![
        (
            "alg1",
            caught(|| compile_algorithm1(prog, &s.cfg, cores)).map(keep),
        ),
        (
            "alg2",
            caught(|| compile_algorithm2(prog, &s.cfg, cores, Algorithm2Options::default()))
                .map(keep),
        ),
        (
            "alg2_fuse",
            caught(|| compile_algorithm2(prog, &s.cfg, cores, fuse_options())).map(keep),
        ),
    ]
}

/// The simulated counters a run must reproduce exactly, in a fixed
/// order. The per-PC cache maps are left out: they feed only Table 2.
pub fn counters(r: &SimResult) -> Vec<u64> {
    let mut v = vec![
        r.total_cycles,
        r.l1.hits,
        r.l1.misses,
        r.l1.evictions,
        r.l2.hits,
        r.l2.misses,
        r.l2.evictions,
        r.ndc_attempts,
        r.ndc_aborts,
        r.ndc_local_hits,
        r.eligible_computes,
        r.total_computes,
        r.noc_messages,
        r.noc_queueing_cycles,
        r.noc_flit_hops,
        r.issued_insts,
        r.mshr_stall_cycles,
        r.offload_stall_cycles,
    ];
    v.extend(r.per_core_cycles.iter().copied());
    for a in [
        &r.ndc_performed,
        &r.ndc_wait_cycles,
        &r.ndc_offload_cycles,
        &r.ndc_offload_samples,
    ] {
        v.extend(a.iter().copied());
    }
    v.extend(r.ndc_abort_reasons.iter().copied());
    v
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The comparable fingerprint of one pass: every simulation's counters
/// and every compile's report, per program, in operation order.
#[derive(Debug, PartialEq)]
pub struct Fingerprint {
    sims: Vec<Vec<Option<Vec<u64>>>>,
    compiles: Vec<Vec<Option<CompilerReport>>>,
}

impl Fingerprint {
    pub fn of(runs: &[ProgramRuns]) -> Self {
        Fingerprint {
            sims: runs
                .iter()
                .map(|p| {
                    p.sims
                        .iter()
                        .map(|(_, r)| r.as_ref().map(counters))
                        .collect()
                })
                .collect(),
            compiles: runs
                .iter()
                .map(|p| {
                    p.compiles
                        .iter()
                        .map(|(_, c)| c.as_ref().map(|c| c.report.clone()))
                        .collect()
                })
                .collect(),
        }
    }

    /// Operations whose outcome differs between two fingerprints.
    pub fn mismatches(&self, other: &Fingerprint) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (p, (a, b)) in self.sims.iter().zip(&other.sims).enumerate() {
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                if x != y {
                    out.push((p, i));
                }
            }
        }
        for (p, (a, b)) in self.compiles.iter().zip(&other.compiles).enumerate() {
            let base = self.sims.get(p).map_or(0, Vec::len);
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                if x != y {
                    out.push((p, base + i));
                }
            }
        }
        out
    }

    /// A printable 64-bit digest of the whole fingerprint, so runs in
    /// different processes can be compared by eye.
    pub fn digest(&self) -> u64 {
        fnv1a(format!("{self:?}").as_bytes())
    }
}
