//! Per-run simulation results.

use ndc_mem::CacheStats;
use ndc_types::FxHashMap;
use ndc_types::{Cycle, NdcLocation, Pc};

/// Per-static-reference hit/miss counters, keyed by (PC, operand slot).
/// Slot 0 is operand `a` / the single operand; slot 1 is operand `b`;
/// slot 2 is the store target.
pub type PcCacheCounters = FxHashMap<(Pc, u8), HitMiss>;

/// Hit/miss counts for one static reference, with the coherence-miss
/// subset broken out (what the CME estimator cannot predict).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HitMiss {
    pub hits: u64,
    pub misses: u64,
    pub coherence_misses: u64,
}

impl HitMiss {
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    pub fn miss_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.misses as f64 / self.total() as f64
        }
    }
}

/// The outcome of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimResult {
    pub program: String,
    pub scheme: String,
    /// Completion cycle of the slowest core — the execution time.
    pub total_cycles: Cycle,
    pub per_core_cycles: Vec<Cycle>,
    pub l1: CacheStats,
    pub l2: CacheStats,
    /// Near-data computations actually performed, per location index
    /// (Figures 6/13 breakdowns).
    pub ndc_performed: [u64; 4],
    /// Offload attempts (packages injected).
    pub ndc_attempts: u64,
    /// Attempts that fell back to conventional execution (time-out,
    /// no co-location, budget, full table).
    pub ndc_aborts: u64,
    /// Offloads skipped because an operand was in the local L1.
    pub ndc_local_hits: u64,
    /// Two-memory-operand computations executed (the NDC-eligible
    /// population).
    pub eligible_computes: u64,
    /// All computations (denominator of the paper's footnote 6).
    pub total_computes: u64,
    /// Total cycles first-arriving operands waited at each component
    /// (per location index) for performed NDC — the "how long can we
    /// tolerate to wait" quantity of §1.
    pub ndc_wait_cycles: [u64; 4],
    /// Total issue→result-at-core cycles of performed NDC, per location
    /// index — the measured side of the compiler's offload cost model
    /// (`ndc-eval explain`).
    pub ndc_offload_cycles: [u64; 4],
    /// Number of performed NDC contributing to
    /// [`SimResult::ndc_offload_cycles`], per location index.
    pub ndc_offload_samples: [u64; 4],
    /// NoC traffic stats.
    pub noc_messages: u64,
    pub noc_queueing_cycles: u64,
    /// Flit-hops carried by the NoC (occupancy × hops per message) —
    /// the byte-movement side of the attribution ledger's conservation
    /// contract.
    pub noc_flit_hops: u64,
    /// Instructions issued (denominator of issue-slot utilization).
    pub issued_insts: u64,
    /// Cycles cores spent blocked waiting for an MSHR slot to free.
    pub mshr_stall_cycles: u64,
    /// Cycles cores spent blocked on a full LD/ST offload table.
    pub offload_stall_cycles: u64,
    /// NDC fallbacks per abort reason, indexed by
    /// `ndc::AbortReason::index()` (includes local-hit skips).
    pub ndc_abort_reasons: [u64; 6],
    /// Per-static-reference L1 counters (Table 2 accuracy measurement).
    pub pc_l1: PcCacheCounters,
    /// Per-static-reference L2 counters (only accesses that reached
    /// L2).
    pub pc_l2: PcCacheCounters,
}

impl SimResult {
    /// Performance improvement over a baseline run, in percent
    /// (positive = faster, the paper's Figure 4 metric).
    pub fn improvement_over(&self, baseline: &SimResult) -> f64 {
        if baseline.total_cycles == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.total_cycles as f64 / baseline.total_cycles as f64)
    }

    /// Total near-data computations performed.
    pub fn ndc_total(&self) -> u64 {
        self.ndc_performed.iter().sum()
    }

    /// Fraction of all computations executed near data (footnote 6:
    /// ~32% under Algorithm 1).
    pub fn ndc_fraction(&self) -> f64 {
        if self.total_computes == 0 {
            0.0
        } else {
            self.ndc_total() as f64 / self.total_computes as f64
        }
    }

    /// Per-location breakdown of performed NDC, in percent of
    /// [`SimResult::ndc_total`] (the Figures 6/13 bars).
    pub fn ndc_breakdown_pct(&self) -> [f64; 4] {
        let total = self.ndc_total();
        let mut out = [0.0; 4];
        if total == 0 {
            return out;
        }
        for (o, &c) in out.iter_mut().zip(self.ndc_performed.iter()) {
            *o = 100.0 * c as f64 / total as f64;
        }
        out
    }

    pub fn ndc_performed_at(&self, loc: NdcLocation) -> u64 {
        self.ndc_performed[loc.index()]
    }

    /// Mean wait (cycles) endured by the first-arriving operand at a
    /// component, over the NDC actually performed there.
    pub fn mean_wait_at(&self, loc: NdcLocation) -> f64 {
        let n = self.ndc_performed[loc.index()];
        if n == 0 {
            0.0
        } else {
            self.ndc_wait_cycles[loc.index()] as f64 / n as f64
        }
    }

    /// Mean issue→result-at-core latency (cycles) of NDC performed at
    /// a location — the measured quantity the compiler's offload
    /// estimate is checked against.
    pub fn mean_offload_at(&self, loc: NdcLocation) -> f64 {
        let n = self.ndc_offload_samples[loc.index()];
        if n == 0 {
            0.0
        } else {
            self.ndc_offload_cycles[loc.index()] as f64 / n as f64
        }
    }

    /// Record a per-PC L1 outcome.
    pub fn record_l1(&mut self, pc: Pc, slot: u8, hit: bool, coherence: bool) {
        let e = self.pc_l1.entry((pc, slot)).or_default();
        if hit {
            e.hits += 1;
        } else {
            e.misses += 1;
            if coherence {
                e.coherence_misses += 1;
            }
        }
    }

    /// Record a per-PC L2 outcome.
    pub fn record_l2(&mut self, pc: Pc, slot: u8, hit: bool) {
        let e = self.pc_l2.entry((pc, slot)).or_default();
        if hit {
            e.hits += 1;
        } else {
            e.misses += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_math() {
        let base = SimResult {
            total_cycles: 1000,
            ..Default::default()
        };
        let fast = SimResult {
            total_cycles: 750,
            ..Default::default()
        };
        assert!((fast.improvement_over(&base) - 25.0).abs() < 1e-12);
        let slow = SimResult {
            total_cycles: 1200,
            ..Default::default()
        };
        assert!((slow.improvement_over(&base) + 20.0).abs() < 1e-12);
        assert_eq!(slow.improvement_over(&SimResult::default()), 0.0);
    }

    #[test]
    fn breakdown_percentages() {
        let r = SimResult {
            ndc_performed: [30, 50, 15, 5],
            total_computes: 200,
            ..Default::default()
        };
        let pct = r.ndc_breakdown_pct();
        assert!((pct[0] - 30.0).abs() < 1e-12);
        assert!((pct[1] - 50.0).abs() < 1e-12);
        assert_eq!(r.ndc_total(), 100);
        assert!((r.ndc_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(r.ndc_performed_at(NdcLocation::LinkBuffer), 30);
    }

    #[test]
    fn zero_ndc_breakdown_is_zero() {
        let r = SimResult::default();
        assert_eq!(r.ndc_breakdown_pct(), [0.0; 4]);
        assert_eq!(r.ndc_fraction(), 0.0);
    }

    #[test]
    fn mean_wait_is_per_location() {
        let r = SimResult {
            ndc_performed: [4, 0, 2, 0],
            ndc_wait_cycles: [40, 0, 5, 0],
            ..Default::default()
        };
        assert!((r.mean_wait_at(NdcLocation::LinkBuffer) - 10.0).abs() < 1e-12);
        assert!((r.mean_wait_at(NdcLocation::MemoryController) - 2.5).abs() < 1e-12);
        assert_eq!(r.mean_wait_at(NdcLocation::CacheController), 0.0);
    }

    #[test]
    fn mean_offload_is_per_location() {
        let r = SimResult {
            ndc_offload_cycles: [900, 0, 0, 120],
            ndc_offload_samples: [3, 0, 0, 2],
            ..Default::default()
        };
        assert!((r.mean_offload_at(NdcLocation::LinkBuffer) - 300.0).abs() < 1e-12);
        assert!((r.mean_offload_at(NdcLocation::MemoryBank) - 60.0).abs() < 1e-12);
        assert_eq!(r.mean_offload_at(NdcLocation::CacheController), 0.0);
    }

    #[test]
    fn pc_counters_accumulate() {
        let mut r = SimResult::default();
        r.record_l1(7, 0, true, false);
        r.record_l1(7, 0, false, true);
        r.record_l1(7, 1, false, false);
        let e = r.pc_l1[&(7, 0)];
        assert_eq!(e.hits, 1);
        assert_eq!(e.misses, 1);
        assert_eq!(e.coherence_misses, 1);
        assert!((e.miss_rate() - 0.5).abs() < 1e-12);
        assert_eq!(r.pc_l1[&(7, 1)].misses, 1);
        r.record_l2(7, 0, false);
        assert_eq!(r.pc_l2[&(7, 0)].misses, 1);
    }
}
