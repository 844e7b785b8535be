//! The repository benchmark: drives the NDC pipeline (workload build →
//! lowering → Algorithms 1/2 with lint → simulation) from outside
//! through its public functions, checks the outputs, and prints one
//! JSON result line.
//!
//! ```text
//! perfbench --workload <fig4-paper|mesh-16x16|compile-corpus>
//!           --seed <n> --seconds <n> --trace <0|1> [--size <full|tiny>]
//! ```
//!
//! `--trace 0` repeats the workload's timed section for `--seconds`
//! and reports the end-to-end metrics; `--trace 1` runs it once
//! untraced, once traced through each layer's public functions, and
//! reports the per-layer metrics. See README.md for the design.

mod check;
mod micro;
mod trace;
mod workload;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use ndc::types::{ArchConfig, Json, ALL_NDC_LOCATIONS};

use check::{check_pass, Failures};
use trace::{traced_pass, Tracer};
use workload::{run_pass, setup, Fingerprint, ProgramRuns, Setup, Size, Workload};

/// The set-up is timed in slices: each slice repeats it at least
/// `SETUP_MIN_REPS` times and until `SETUP_SLICE_S` have passed (at most
/// `SETUP_MAX_REPS` times). An untraced run takes a slice before every
/// pass and one after the last, so the host speed it samples is spread
/// over the run like the passes'; `setup_s` is the median repetition.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 100_000;
const SETUP_SLICE_S: f64 = 0.1;

/// Every run label a simulation can carry, for `sim.cycles.<run>`.
const RUN_LABELS: [&str; 10] = [
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

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut size) =
        (None, None, None, None, Size::Full);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err("--size must be full or tiny".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn git_revision() -> String {
    Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn manifest(a: &Args, s: &Setup, threads: usize) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg: &ArchConfig = &s.cfg;
    Json::obj()
        .with("workload", a.workload.name())
        .with("size", format!("{:?}", a.size).to_lowercase())
        .with("seed", a.seed)
        .with("trace", a.trace)
        .with("nproc", nproc as u64)
        .with(
            "ndc_threads_env",
            std::env::var("NDC_THREADS").unwrap_or_else(|_| "unset".into()),
        )
        .with("threads", threads as u64)
        .with("git_revision", git_revision())
        .with("scale", format!("{:?}", s.scale))
        .with("mesh", format!("{}x{}", cfg.noc.width, cfg.noc.height))
        .with(
            "arch_config_hash",
            format!("{:016x}", workload::fnv1a(format!("{cfg:?}").as_bytes())),
        )
        .with("programs", s.programs.len() as u64)
        .with("toolchain", env!("PERFBENCH_RUSTC_VERSION"))
}

/// Host threads a pass of the workload uses: fig4-paper fans its
/// programs out over ndc-par, the others run on one thread.
fn pass_threads(s: &Setup) -> usize {
    match s.workload {
        Workload::Fig4Paper => ndc_par::num_threads().min(s.programs.len()).max(1),
        _ => 1,
    }
}

/// End-to-end results of a pass that need no timing.
struct Outcome {
    /// Simulated instructions, counting both oracle passes.
    issued_insts: u64,
    alg1_speedup: f64,
    alg2_speedup: f64,
}

fn outcome(runs: &[ProgramRuns]) -> Outcome {
    let mut issued = 0u64;
    let (mut log1, mut n1, mut log2, mut n2) = (0.0, 0u32, 0.0, 0u32);
    for r in runs {
        issued += r
            .sims
            .iter()
            .filter_map(|(_, s)| s.as_ref())
            .map(|s| s.issued_insts)
            .sum::<u64>();
        let base = r.sim("baseline");
        if let (Some(_), Some(b)) = (r.sim("oracle"), base) {
            issued += b.issued_insts; // the oracle's instrumented first pass
        }
        let Some(b) = base else { continue };
        if let Some(a) = r.sim("alg1") {
            log1 += (b.total_cycles as f64 / a.total_cycles as f64).ln();
            n1 += 1;
        }
        if let Some(a) = r.sim("alg2") {
            log2 += (b.total_cycles as f64 / a.total_cycles as f64).ln();
            n2 += 1;
        }
    }
    let geomean = |log: f64, n: u32| {
        if n == 0 {
            0.0
        } else {
            (log / f64::from(n)).exp()
        }
    };
    Outcome {
        issued_insts: issued,
        alg1_speedup: geomean(log1, n1),
        alg2_speedup: geomean(log2, n2),
    }
}

/// Metrics in report order: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

fn metric(m: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    m.push((name.into(), value, unit));
}

fn print_metrics(title: &str, m: &Metrics) {
    println!("{title}");
    for (name, value, unit) in m {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
}

fn result_line(correct: bool, attempted: usize, failed: usize, m: &Metrics) -> String {
    let mut metrics = Json::obj();
    for (name, value, unit) in m {
        metrics.set(
            name.clone(),
            Json::obj().with("value", *value).with("unit", *unit),
        );
    }
    Json::obj()
        .with("correct", correct)
        .with("attempted", attempted as u64)
        .with("failed", failed as u64)
        .with("metrics", metrics)
        .render()
}

fn report_failures(f: &Failures) {
    for note in &f.notes {
        println!("FAILED {note}");
    }
}

/// One set-up slice: appends each repetition's duration to `times` and
/// returns the last set-up.
fn setup_slice(a: &Args, times: &mut Vec<f64>) -> Setup {
    let start = Instant::now();
    let mut reps = 0;
    loop {
        let t0 = Instant::now();
        let s = setup(a.workload, a.size, a.seed);
        times.push(t0.elapsed().as_secs_f64());
        reps += 1;
        let enough = reps >= SETUP_MIN_REPS && start.elapsed().as_secs_f64() >= SETUP_SLICE_S;
        if enough || reps >= SETUP_MAX_REPS {
            return s;
        }
    }
}

fn timed_pass(s: &Setup) -> (Vec<ProgramRuns>, f64) {
    let t0 = Instant::now();
    let runs = run_pass(s);
    (runs, t0.elapsed().as_secs_f64())
}

/// Record every operation whose fingerprint differs from the reference.
fn compare(reference: &Fingerprint, runs: &[ProgramRuns], what: &str, f: &mut Failures) {
    for (p, op) in reference.mismatches(&Fingerprint::of(runs)) {
        f.add(
            (p, op),
            format!("program {p} operation {op}: {what} differs"),
        );
    }
}

fn run_untraced(a: &Args) -> (Metrics, usize, usize) {
    let mut setup_times = Vec::new();
    let s = setup_slice(a, &mut setup_times);
    let mut walls = Vec::new();
    let mut first: Option<(Vec<ProgramRuns>, Fingerprint)> = None;
    let mut attempted = 0;
    let mut failed = 0;
    let t0 = Instant::now();
    while walls.is_empty() || t0.elapsed().as_secs_f64() < a.seconds {
        let (runs, wall) = timed_pass(&s);
        walls.push(wall);
        setup_slice(a, &mut setup_times);
        attempted += runs.iter().map(ProgramRuns::ops).sum::<usize>();
        let mut f = Failures::panics(&runs);
        if let Some((_, reference)) = &first {
            compare(reference, &runs, "repeat run", &mut f);
        }
        report_failures(&f);
        failed += f.ops.len();
        if first.is_none() {
            let fingerprint = Fingerprint::of(&runs);
            first = Some((runs, fingerprint));
        }
    }
    let (runs, reference) = first.expect("one pass ran");
    let mut f = Failures::default();
    check_pass(&s, &runs, &mut Tracer::default(), &mut f);
    report_failures(&f);
    // A panicked operation was counted in its pass; do not count it again.
    failed += f.ops.difference(&Failures::panics(&runs).ops).count();

    let wall_s = median(walls.clone());
    let setup_reps = setup_times.len();
    let setup_s = median(setup_times);
    let out = outcome(&runs);
    let rss = peak_rss_mb().expect("/proc/self/status reports VmHWM");
    println!("manifest {}", manifest(a, &s, pass_threads(&s)).render());
    println!(
        "{}: {} passes of {} operations, counters digest {:016x}, pass walls {:?}, \
         set-up median of {setup_reps}",
        a.workload.name(),
        walls.len(),
        attempted / walls.len(),
        reference.digest(),
        walls
    );
    let mut all = Metrics::new();
    metric(&mut all, "wall_s", wall_s, "s");
    if a.workload.simulates() {
        metric(
            &mut all,
            "sim_minsts_per_s",
            out.issued_insts as f64 / 1e6 / wall_s,
            "Minst/s",
        );
        metric(&mut all, "alg2_speedup", out.alg2_speedup, "ratio");
    }
    if a.workload == Workload::Fig4Paper {
        metric(&mut all, "alg1_speedup", out.alg1_speedup, "ratio");
    }
    metric(&mut all, "peak_rss_mb", rss, "MiB");
    metric(&mut all, "setup_s", setup_s, "s");
    metric(
        &mut all,
        "fail_rate",
        failed as f64 / attempted as f64,
        "ratio",
    );
    print_metrics("end-to-end metrics", &all);

    let mut m = Metrics::new();
    metric(&mut m, "wall_s", wall_s, "s");
    metric(&mut m, "peak_rss_mb", rss, "MiB");
    metric(&mut m, "setup_s", setup_s, "s");
    (m, attempted, failed)
}

fn run_traced(a: &Args) -> (Metrics, usize, usize) {
    let mut setup_times = Vec::new();
    let s = setup_slice(a, &mut setup_times);
    let setup_reps = setup_times.len();
    let setup_s = median(setup_times);
    let threads = pass_threads(&s);

    // The untraced reference: the timed section once, as `--trace 0`
    // runs it; then once more on one thread, warm, which is what the
    // serial traced pass is compared against for its overhead.
    let (runs, wall_s) = timed_pass(&s);
    let reference = Fingerprint::of(&runs);
    let panicked = Failures::panics(&runs);
    report_failures(&panicked);
    let mut attempted = runs.iter().map(ProgramRuns::ops).sum::<usize>();
    let mut failed = panicked.ops.len();

    // Safe to set here: no other thread of this process is running.
    let env = std::env::var_os("NDC_THREADS");
    std::env::set_var("NDC_THREADS", "1");
    let (serial, serial_wall_s) = timed_pass(&s);
    match env {
        Some(v) => std::env::set_var("NDC_THREADS", v),
        None => std::env::remove_var("NDC_THREADS"),
    }
    attempted += serial.iter().map(ProgramRuns::ops).sum::<usize>();
    let mut g = Failures::panics(&serial);
    compare(&reference, &serial, "one-thread run", &mut g);
    report_failures(&g);
    failed += g.ops.len();

    let mut t = Tracer::default();
    let traced = traced_pass(&s, &mut t);
    attempted += s.programs.len() * workload::ops_per_program(a.workload);
    let mut g = Failures::default();
    for &p in &traced.panicked {
        g.ops
            .extend((0..workload::ops_per_program(a.workload)).map(|op| (p, op)));
        g.notes.push(format!("program {p}: traced run panicked"));
    }
    compare(&reference, &traced.runs, "traced run", &mut g);
    report_failures(&g);
    failed += g.ops.len();

    let mut f = Failures::default();
    check_pass(&s, &runs, &mut t, &mut f);
    report_failures(&f);
    failed += f.ops.difference(&panicked.ops).count();

    let micro = a
        .workload
        .simulates()
        .then(|| micro::measure(s.cfg, &mut t));
    let spans_path = write_spans(a, &s, &t);

    let out = outcome(&runs);
    let mirror_wall_s = t.mirror_wall_s();
    println!("manifest {}", manifest(a, &s, threads).render());
    println!(
        "{}: untraced {wall_s:.3} s ({threads} threads), untraced one-thread {serial_wall_s:.3} s, \
         traced {mirror_wall_s:.3} s, counters digest {:016x}, {} spans in {spans_path}",
        a.workload.name(),
        reference.digest(),
        t.spans().len(),
    );

    let mut m = Metrics::new();
    metric(
        &mut m,
        "sim_minsts_per_s",
        out.issued_insts as f64 / 1e6 / wall_s,
        "Minst/s",
    );
    metric(&mut m, "alg1_speedup", out.alg1_speedup, "ratio");
    metric(&mut m, "alg2_speedup", out.alg2_speedup, "ratio");
    metric(
        &mut m,
        "trace.overhead",
        mirror_wall_s / serial_wall_s - 1.0,
        "ratio",
    );
    metric(
        &mut m,
        "par.efficiency",
        t.mirror_layer_s() / (wall_s * threads as f64),
        "ratio",
    );
    for name in ["workloads.build", "ir.lower", "ir.deps", "ir.interp"] {
        metric(&mut m, format!("{name}_ms"), t.total_ms(name), "ms");
    }
    metric(&mut m, "ir.trace_insts", traced.trace_insts as f64, "count");
    metric(&mut m, "cme.analyze_ms", t.total_ms("cme.analyze"), "ms");
    metric(
        &mut m,
        "reuse.analyze_ms",
        t.total_ms("reuse.analyze"),
        "ms",
    );
    metric(
        &mut m,
        "reuse.exact_share",
        traced.reuse_exact_share,
        "ratio",
    );
    metric(
        &mut m,
        "lint.schedule_ms",
        t.total_ms("lint.schedule"),
        "ms",
    );
    metric(&mut m, "lint.rejected", f.lint_rejected as f64, "count");
    for name in ["alg1", "alg2", "alg2_fuse"] {
        metric(
            &mut m,
            format!("compiler.{name}_ms"),
            t.total_ms(&format!("compiler.{name}")),
            "ms",
        );
    }
    let reports = traced
        .runs
        .iter()
        .flat_map(|r| &r.compiles)
        .filter_map(|(_, c)| c.as_ref());
    let (planned, fused) = reports.fold((0, 0), |(p, f), c| {
        (p + c.report.planned, f + c.report.fused_chains)
    });
    metric(&mut m, "compiler.planned", planned as f64, "count");
    metric(&mut m, "compiler.fused_chains", fused as f64, "count");
    sim_metrics(&mut m, &traced.runs, &t);
    let (rq, tr, ca, dr) = micro.map_or((0.0, 0.0, 0.0, 0.0), |x| {
        (
            x.ready_queue_ns,
            x.traverse_ns,
            x.cache_access_ns,
            x.dram_request_ns,
        )
    });
    metric(&mut m, "sim.ready_queue_ns", rq, "ns");
    metric(&mut m, "noc.traverse_ns", tr, "ns");
    metric(&mut m, "mem.cache_access_ns", ca, "ns");
    metric(&mut m, "mem.dram_request_ns", dr, "ns");
    println!("set-up {setup_s:.6} s (median of {setup_reps})");
    print_programs(&s, &traced.runs, &t);
    print_metrics("per-layer metrics", &m);
    (m, attempted, failed)
}

/// One line per program of the traced pass: host time per layer span
/// and each run's simulated improvement over the baseline.
fn print_programs(s: &Setup, runs: &[ProgramRuns], t: &Tracer) {
    for (p, r) in runs.iter().enumerate() {
        let mut host: Vec<(&str, f64)> = Vec::new();
        for span in t.spans().iter().filter(|x| x.program == Some(p as u32)) {
            let ms = (span.end_ns - span.start_ns) as f64 / 1e6;
            match host.iter_mut().find(|(n, _)| *n == span.name) {
                Some((_, total)) => *total += ms,
                None => host.push((span.name, ms)),
            }
        }
        let host: Vec<String> = host.iter().map(|(n, ms)| format!("{n}={ms:.1}")).collect();
        let mut line = format!("program {} host ms: {}", s.programs[p].name, host.join(" "));
        if let Some(base) = r.sim("baseline") {
            line += &format!("; cycles baseline={}", base.total_cycles);
            for (label, sim) in r.sims.iter().skip(1) {
                if let Some(sim) = sim {
                    let gain = sim.improvement_over(base);
                    line += &format!(" {label}={} ({gain:+.1}%)", sim.total_cycles);
                }
            }
        }
        println!("{line}");
    }
}

/// Host time and simulated counters of the traced simulations.
fn sim_metrics(m: &mut Metrics, runs: &[ProgramRuns], t: &Tracer) {
    let sims: Vec<(&str, &ndc::sim::SimResult)> = runs
        .iter()
        .flat_map(|r| &r.sims)
        .filter_map(|(l, s)| s.as_ref().map(|s| (*l, s)))
        .collect();
    let insts = |labels: &[&str]| -> u64 {
        sims.iter()
            .filter(|(l, _)| labels.contains(l))
            .map(|(_, s)| s.issued_insts)
            .sum()
    };
    // The oracle's first pass and its guide cover the baseline trace.
    let oracle_base: u64 = runs
        .iter()
        .filter(|r| r.sim("oracle").is_some())
        .filter_map(|r| r.sim("baseline"))
        .map(|s| s.issued_insts)
        .sum();
    let ndc_all = [
        "default",
        "wait5",
        "wait10",
        "wait25",
        "wait50",
        "last_wait",
    ];
    let kinds: [(&str, u64); 6] = [
        ("baseline", insts(&["baseline"])),
        ("instrumented", oracle_base),
        ("oracle_guide", oracle_base),
        ("oracle_pass2", insts(&["oracle"])),
        ("ndc_all", insts(&ndc_all)),
        ("compiled", insts(&["alg1", "alg2"])),
    ];
    for (kind, n) in kinds {
        let ms = t.total_ms(&format!("sim.{kind}"));
        metric(m, format!("sim.{kind}_ms"), ms, "ms");
        let per_inst = if n == 0 { 0.0 } else { ms * 1e6 / n as f64 };
        metric(m, format!("sim.{kind}_ns_per_inst"), per_inst, "ns");
    }
    for label in RUN_LABELS {
        let cycles: u64 = sims
            .iter()
            .filter(|(l, _)| *l == label)
            .map(|(_, s)| s.total_cycles)
            .sum();
        metric(m, format!("sim.cycles.{label}"), cycles as f64, "cycles");
    }
    let sum = |f: &dyn Fn(&ndc::sim::SimResult) -> u64| -> f64 {
        sims.iter().map(|(_, s)| f(s)).sum::<u64>() as f64
    };
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    metric(
        m,
        "sim.issued_insts",
        sum(&|s| s.issued_insts) + oracle_base as f64,
        "count",
    );
    let attempts = sum(&|s| s.ndc_attempts);
    metric(m, "ndc.attempts", attempts, "count");
    for loc in ALL_NDC_LOCATIONS {
        let name = format!("ndc.performed.{}", loc.paper_label().to_lowercase());
        metric(m, name, sum(&|s| s.ndc_performed[loc.index()]), "count");
    }
    metric(
        m,
        "ndc.abort_rate",
        ratio(sum(&|s| s.ndc_aborts), attempts),
        "ratio",
    );
    metric(
        m,
        "ndc.wait_cycles",
        sum(&|s| s.ndc_wait_cycles.iter().sum()),
        "cycles",
    );
    metric(
        m,
        "ndc.offload_cycles",
        sum(&|s| s.ndc_offload_cycles.iter().sum()),
        "cycles",
    );
    metric(
        m,
        "sim.offload_stall_cycles",
        sum(&|s| s.offload_stall_cycles),
        "cycles",
    );
    metric(m, "noc.messages", sum(&|s| s.noc_messages), "count");
    metric(m, "noc.flit_hops", sum(&|s| s.noc_flit_hops), "count");
    metric(
        m,
        "noc.queueing_cycles",
        sum(&|s| s.noc_queueing_cycles),
        "cycles",
    );
    let l1 = (sum(&|s| s.l1.misses), sum(&|s| s.l1.hits + s.l1.misses));
    let l2 = (sum(&|s| s.l2.misses), sum(&|s| s.l2.hits + s.l2.misses));
    metric(m, "mem.l1_miss_rate", ratio(l1.0, l1.1), "ratio");
    metric(m, "mem.l2_miss_rate", ratio(l2.0, l2.1), "ratio");
    metric(
        m,
        "mem.mshr_stall_cycles",
        sum(&|s| s.mshr_stall_cycles),
        "cycles",
    );
}

/// Write the traced run's spans and manifest under `out/` in the
/// benchmark's directory; returns the path written.
fn write_spans(a: &Args, s: &Setup, t: &Tracer) -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.json", a.workload.name(), a.seed));
    let doc = Json::obj()
        .with("manifest", manifest(a, s, pass_threads(s)))
        .with("spans", t.to_json());
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.render()));
    match written {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("(not written: {e})"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fig4-paper|mesh-16x16|compile-corpus> \
                 --seed <n> --seconds <n> --trace <0|1> [--size <full|tiny>]"
            );
            return ExitCode::from(2);
        }
    };
    let (metrics, attempted, failed) = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    println!("fail_rate {failed} / {attempted}");
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
