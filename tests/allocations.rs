//! Steady-state heap allocations of the simulator.
//!
//! A simulated access reuses the engine's access paths and walks routes
//! without building them, so once a run has warmed up it should not
//! touch the heap at all. This test counts every allocation the process
//! makes while one simulation runs and divides by the instructions it
//! issued: the few hundred set-up allocations (caches, tables, per-PC
//! counters) must vanish against the run's length.
//!
//! It lives in its own test binary because the counting allocator is
//! process-wide.

use ndc::prelude::*;
use ndc_ir::{lower, LowerOptions};
use ndc_sim::engine::simulate;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator, counting allocations and
/// reallocations.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method passes its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting only bumps an
// atomic and never touches the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allowed heap allocations per issued instruction, set-up included.
const MAX_ALLOCS_PER_INST: f64 = 0.05;

#[test]
fn steady_state_simulation_does_not_allocate() {
    let cfg = ArchConfig::paper_default();
    let opts = LowerOptions {
        cores: cfg.nodes(),
        emit_busy: true,
    };
    // volrend at paper scale issues ~330k instructions: long enough
    // that set-up allocations are noise.
    let bench = ndc::workloads::by_name("volrend").unwrap();
    let prog = bench.build(Scale::Paper);
    let traces = lower(&prog, &opts, None);
    let (sched, report) =
        compile_algorithm2(&prog, &cfg, cfg.nodes(), Algorithm2Options::default());
    assert!(report.planned > 0, "Algorithm 2 planned no offloads");
    let compiled = lower(&prog, &opts, Some(&sched));
    for (traces, scheme) in [
        (&traces, Scheme::Baseline),
        (
            &traces,
            Scheme::NdcAll {
                budget: WaitBudget::Forever,
            },
        ),
        (
            &traces,
            Scheme::NdcAll {
                budget: WaitBudget::LastWindow,
            },
        ),
        (&compiled, Scheme::Compiled),
    ] {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let out = simulate(cfg, traces, scheme);
        let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let insts = out.result.issued_insts;
        if scheme != Scheme::Baseline {
            assert!(out.result.ndc_attempts > 0, "nothing offloaded");
        }
        let per_inst = allocs as f64 / insts as f64;
        assert!(
            per_inst < MAX_ALLOCS_PER_INST,
            "{}: {allocs} allocations over {insts} instructions ({per_inst:.3}/inst)",
            scheme.label()
        );
    }
}
