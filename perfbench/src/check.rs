//! Correctness checks on a pass's outputs, run outside the timed
//! section. Each failing operation is counted once.

use std::collections::BTreeSet;

use ndc::check::check_schedule;
use ndc::compiler::{compile_algorithm1, compile_algorithm2, Algorithm2Options};
use ndc::ir::lower;
use ndc::lint::lint_schedule;

use crate::trace::Tracer;
use crate::workload::{ProgramRuns, Setup};

/// Operations that failed, as `(program, operation)` with simulations
/// numbered first and compiles after them, plus why.
#[derive(Default)]
pub struct Failures {
    pub ops: BTreeSet<(usize, usize)>,
    pub notes: Vec<String>,
    pub lint_rejected: u64,
}

impl Failures {
    pub fn add(&mut self, op: (usize, usize), note: String) {
        self.ops.insert(op);
        self.notes.push(note);
    }

    /// Operations that panicked in the pass.
    pub fn panics(runs: &[ProgramRuns]) -> Self {
        let mut f = Failures::default();
        for (p, r) in runs.iter().enumerate() {
            let sims = r.sims.iter().map(|(l, x)| (*l, x.is_none()));
            let compiles = r.compiles.iter().map(|(l, x)| (*l, x.is_none()));
            for (i, (label, panicked)) in sims.chain(compiles).enumerate() {
                if panicked {
                    f.add((p, i), format!("program {p} {label}: panicked"));
                }
            }
        }
        f
    }
}

/// Check one pass: lint accepts every schedule, the interpreter computes
/// bit-identical arrays under every schedule and in program order, and
/// every simulation issued
/// exactly the instructions of the trace it ran. Where the pass kept no
/// schedule (fig4-paper), the schedule is compiled again and its report
/// must equal the pass's.
///
/// The interpreter check is `ndc-check`'s element-wise bitwise oracle
/// rather than `experiments::semantics_preserved`, which compares
/// `f64`s with `==` and so rejects identical results that hold a NaN
/// (generated stencils can overflow to NaN).
pub fn check_pass(s: &Setup, runs: &[ProgramRuns], t: &mut Tracer, f: &mut Failures) {
    let opts = s.lower_opts();
    for (p, r) in runs.iter().enumerate() {
        let prog = &s.programs[p];
        let name = &prog.name;
        let compiled_labels: Vec<&str> = r.compiles.iter().map(|(l, _)| *l).collect();
        if r.sims.iter().any(|(l, _)| !compiled_labels.contains(l)) {
            let base_insts = lower(prog, &opts, None).total_insts();
            for (i, (label, sim)) in r.sims.iter().enumerate() {
                if let Some(sim) = sim.as_ref().filter(|_| !compiled_labels.contains(label)) {
                    if sim.issued_insts != base_insts {
                        f.add(
                            (p, i),
                            format!(
                                "{name} {label}: issued {} of {base_insts} insts",
                                sim.issued_insts
                            ),
                        );
                    }
                }
            }
        }
        for (j, (label, compiled)) in r.compiles.iter().enumerate() {
            let Some(c) = compiled else { continue };
            let op = (p, r.sims.len() + j);
            let schedule = match &c.schedule {
                Some(sched) => sched.clone(),
                None => {
                    let (sched, report) = match *label {
                        "alg1" => compile_algorithm1(prog, &s.cfg, s.cores()),
                        _ => compile_algorithm2(
                            prog,
                            &s.cfg,
                            s.cores(),
                            Algorithm2Options::default(),
                        ),
                    };
                    if report != c.report {
                        f.add(op, format!("{name} {label}: recompiled report differs"));
                    }
                    sched
                }
            };
            if !t
                .time("lint.schedule", Some(p), || lint_schedule(prog, &schedule))
                .accepted()
            {
                f.lint_rejected += 1;
                f.add(op, format!("{name} {label}: lint rejected the schedule"));
            }
            if let Err(d) = t.time("ir.interp", Some(p), || check_schedule(prog, &schedule)) {
                f.add(op, format!("{name} {label}: interpreter disagrees: {d:?}"));
            }
            if let Some((i, (_, Some(sim)))) =
                r.sims.iter().enumerate().find(|(_, (l, _))| l == label)
            {
                let insts = lower(prog, &opts, Some(&schedule)).total_insts();
                if sim.issued_insts != insts {
                    f.add(
                        (p, i),
                        format!(
                            "{name} {label}: issued {} of {insts} insts",
                            sim.issued_insts
                        ),
                    );
                }
            }
        }
    }
}
