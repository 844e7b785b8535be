//! Direct timing of the simulator's per-event components: the outside
//! view of the engine's host-time split, on the workload's machine.

use std::hint::black_box;
use std::time::Instant;

use ndc::mem::{MemoryController, SetAssocCache};
use ndc::noc::{Mesh, Network};
use ndc::sim::queue::ReadyQueue;
use ndc::types::{ArchConfig, Coord, SplitMix64};

use crate::trace::Tracer;

const CALLS: u64 = 1 << 19;
const REPS: usize = 5;

/// Nanoseconds per call of each component, medians of [`REPS`] runs.
pub struct Micro {
    pub ready_queue_ns: f64,
    pub traverse_ns: f64,
    pub cache_access_ns: f64,
    pub dram_request_ns: f64,
}

/// Median over [`REPS`] runs of `CALLS` calls of `step`, in ns per call.
/// `step` receives the running call index, which keeps counting across
/// runs so simulated time never goes backwards.
fn per_call_ns(t: &mut Tracer, name: &'static str, mut step: impl FnMut(u64) -> u64) -> f64 {
    let mut k = 0u64;
    let mut runs: Vec<f64> = (0..REPS)
        .map(|_| {
            t.time(name, None, || {
                let t0 = Instant::now();
                for _ in 0..CALLS {
                    black_box(step(black_box(k)));
                    k += 1;
                }
                t0.elapsed().as_nanos() as f64 / CALLS as f64
            })
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[REPS / 2]
}

pub fn measure(cfg: ArchConfig, t: &mut Tracer) -> Micro {
    // One pop and one push per call, over an engine-like stream of time
    // deltas: mostly 0-2 cycles, now and then a memory-latency jump.
    let mut rng = SplitMix64::new(0xbeef);
    let deltas: Vec<u64> = (0..4096)
        .map(|_| match rng.below(8) {
            0..=5 => rng.below(3),
            6 => rng.below(300),
            _ => rng.below(4000),
        })
        .collect();
    let mut queue = ReadyQueue::new();
    for c in 0..cfg.nodes() {
        queue.push(0, c);
    }
    let ready_queue_ns = per_call_ns(t, "micro.ready_queue", |i| {
        let (now, c) = queue.pop().expect("queue never drains");
        queue.push(now + deltas[i as usize % deltas.len()], c);
        now
    });

    // The mesh's longest route, corner to corner, under contention.
    let mesh = Mesh::new(cfg.noc);
    let route = mesh.xy_route(
        Coord::new(0, 0),
        Coord::new(cfg.noc.width - 1, cfg.noc.height - 1),
    );
    let mut net = Network::new(mesh);
    let traverse_ns = per_call_ns(t, "micro.noc_traverse", |i| {
        net.traverse(&route, 2 * i, 64).arrived
    });

    let mut l1 = SetAssocCache::new(cfg.l1);
    let cache_access_ns = per_call_ns(t, "micro.cache_access", |i| {
        u64::from(l1.access((i * 64) % (1 << 20), i, false).is_hit())
    });

    let mut mc = MemoryController::new(cfg);
    let dram_request_ns = per_call_ns(t, "micro.dram_request", |i| {
        mc.request((i * 256) % (1 << 24), 10 * i).latency()
    });

    Micro {
        ready_queue_ns,
        traverse_ns,
        cache_access_ns,
        dram_request_ns,
    }
}
