//! Microbenchmarks of the substrates: cache accesses, DRAM requests,
//! XY routing, whole memory accesses, coherence invalidations,
//! signature selection (5×5 and 16×16 meshes).

use bench::Harness;
use ndc_mem::{MemoryController, SetAssocCache};
use ndc_noc::{best_signature_pair, Mesh, Network};
use ndc_sim::machine::{AccessIntent, AccessPath, Machine};
use ndc_sim::queue::ReadyQueue;
use ndc_types::{ArchConfig, Coord, NodeId, SplitMix64};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

fn main() {
    let cfg = ArchConfig::paper_default();
    let mut h = Harness::new("substrate_micro");

    {
        let mut cache = SetAssocCache::new(cfg.l1);
        let mut addr = 0u64;
        h.bench("cache_access_stream", || {
            addr = addr.wrapping_add(64) % (1 << 20);
            cache.access(addr, 0, false)
        });
    }

    // A 64-way L2 bank under a 1 MiB stream (twice its capacity): every
    // access misses and scans the full set for its victim.
    {
        let mut cache = SetAssocCache::new(cfg.l2);
        let mut addr = 0u64;
        h.bench("l2_cache_access_64way", || {
            addr = addr.wrapping_add(cfg.l2.line_bytes) % (1 << 20);
            cache.access(addr, 0, false)
        });
    }

    // One whole conventional access on the 5×5 mesh that misses L1 and
    // L2: request, MC request, DRAM, refill and reply legs, into a
    // reused path as the engine issues it.
    {
        let mut machine = Machine::new(cfg);
        let mut path = AccessPath::default();
        let mut addr = 0u64;
        let mut t = 0u64;
        h.bench("machine_access_l2_miss_5x5", || {
            addr = addr.wrapping_add(cfg.l2.line_bytes) % (1 << 34);
            t += 40;
            let core = NodeId((t / 40 % 25) as u16);
            machine.access_into(&mut path, core, addr, t, false, AccessIntent::ToCore);
            path.completion
        });
    }

    // A store to a line four other cores share: the readers re-read
    // the line (coherence misses served by its L2 bank), then the
    // writer's L1 hit invalidates their copies.
    for (name, cfg, readers, writer) in [
        ("machine_write_invalidate_5x5", cfg, [0, 6, 18, 24], 12),
        (
            "machine_write_invalidate_16x16",
            ArchConfig::with_mesh(16, 16),
            [3, 70, 140, 201],
            255,
        ),
    ] {
        let round = |machine: &mut Machine, path: &mut AccessPath, t: &mut u64| {
            for r in readers {
                *t += 10;
                let core = NodeId(r);
                machine.access_into(path, core, 0x4_0000, *t, false, AccessIntent::ToCore);
            }
            *t += 10;
            let core = NodeId(writer);
            machine.access_into(path, core, 0x4_0000, *t, true, AccessIntent::ToCore);
            path.completion
        };
        let mut machine = Machine::new(cfg);
        let mut path = AccessPath::default();
        let mut t = 0u64;
        h.bench(name, || round(&mut machine, &mut path, &mut t));
        // What 100 rounds on a fresh machine simulate, gated exactly.
        let mut machine = Machine::new(cfg);
        let mut t = 0u64;
        for _ in 0..100 {
            round(&mut machine, &mut path, &mut t);
        }
        h.counter(
            "invalidations_sent",
            machine.sharers.stats.invalidations_sent,
        );
        h.counter("contended_writes", machine.sharers.stats.contended_writes);
        h.counter("coherence_misses", machine.l1_totals().coherence_misses);
        h.counter("last_completion", path.completion);
    }

    {
        let mut mc = MemoryController::new(cfg);
        let mut addr = 0u64;
        let mut t = 0u64;
        h.bench("dram_request_stream", || {
            addr = addr.wrapping_add(256) % (1 << 24);
            t += 10;
            mc.request(addr, t)
        });
    }

    {
        let mesh = Mesh::new(cfg.noc);
        let mut net = Network::new(mesh.clone());
        let route = mesh.xy_route(Coord::new(0, 0), Coord::new(4, 4));
        let mut t = 0u64;
        h.bench("noc_traverse_contended", || {
            t += 2;
            net.traverse(&route, t, 64).arrived
        });
    }

    // The engine's scheduler hot loop: pop the earliest core, advance
    // it, reinsert — calendar queue vs the binary heap it replaced,
    // over an identical pre-generated engine-like delta stream (mostly
    // 0–2 cycles, occasional memory-latency jumps).
    {
        let mut g = SplitMix64::new(0xbeef);
        let deltas: Vec<u64> = (0..4096)
            .map(|_| match g.below(8) {
                0..=5 => g.below(3),
                6 => g.below(300),
                _ => g.below(4000),
            })
            .collect();

        let mut q = ReadyQueue::new();
        for c in 0..256 {
            q.push(0, c);
        }
        let mut i = 0;
        h.bench("ready_queue_calendar", || {
            let (t, c) = q.pop().expect("queue never drains");
            i = (i + 1) % deltas.len();
            q.push(t + deltas[i], c);
            t
        });

        let mut heap: BinaryHeap<(Reverse<u64>, usize)> =
            (0..256).map(|c| (Reverse(0), c)).collect();
        let mut j = 0;
        h.bench("ready_queue_binary_heap", || {
            let (Reverse(t), c) = heap.pop().expect("heap never drains");
            j = (j + 1) % deltas.len();
            heap.push((Reverse(t + deltas[j]), c));
            t
        });
    }

    {
        let mesh = Mesh::new(cfg.noc);
        h.bench("signature_pair_selection", || {
            best_signature_pair(
                &mesh,
                Coord::new(0, 1),
                Coord::new(3, 2),
                Coord::new(1, 0),
                Coord::new(2, 3),
            )
            .common_links
        });
    }

    // The 16×16 scale-up mesh: two 10-hop operands toward one core
    // (exhaustive enumeration, up to C(10, 5) = 252 routes each), and
    // two corner-to-corner operands (the two-bend staircase family).
    {
        let mesh = Mesh::new(ArchConfig::with_mesh(16, 16).noc);
        h.bench("signature_pair_selection_16x16_10hop", || {
            best_signature_pair(
                &mesh,
                Coord::new(2, 3),
                Coord::new(7, 8),
                Coord::new(3, 2),
                Coord::new(7, 8),
            )
            .common_links
        });
        h.bench("signature_pair_selection_16x16_corner", || {
            best_signature_pair(
                &mesh,
                Coord::new(0, 0),
                Coord::new(15, 15),
                Coord::new(1, 0),
                Coord::new(15, 15),
            )
            .common_links
        });
    }

    h.finish();
}
