//! A timed, LRU, set-associative cache.
//!
//! Used for both L1s (32 KB, 64 B lines, 2-way) and NUCA L2 banks
//! (512 KB, 256 B lines, 64-way). Each resident line remembers the cycle
//! it was filled: the simulator uses fill times to compute how long one
//! operand has been L2-resident when the other arrives (the
//! cache-controller arrival window of Figure 2b).

use ndc_types::{Addr, CacheConfig, Cycle, FxHashSet};

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was resident; carries the cycle it was filled.
    Hit { filled_at: Cycle },
    /// The line was not resident. It has been filled (allocated) by this
    /// access; `evicted` names the line address displaced, if any, and
    /// `coherence` is true when the line was absent because of a
    /// directory invalidation (a coherence miss).
    Miss {
        evicted: Option<Addr>,
        coherence: bool,
    },
}

impl AccessOutcome {
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit { .. })
    }
}

/// Hit/miss counters, split by demand kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Misses caused by a directory invalidation having removed the
    /// line (coherence misses). A subset of `misses`.
    pub coherence_misses: u64,
    pub evictions: u64,
    pub invalidations: u64,
}

impl CacheStats {
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    pub fn miss_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Tag of an empty way. Real tags are `addr / line_bytes / sets`, so
/// they never reach it.
const INVALID: u64 = u64::MAX;

/// Address → line index → (set, tag) arithmetic. Every shipped
/// geometry has a power-of-two line size and set count, which split
/// with shifts and a mask; any other geometry divides.
#[derive(Debug, Clone, Copy)]
struct Split {
    line_bytes: u64,
    sets: u64,
    /// `(log2 line_bytes, log2 sets)` when both are powers of two.
    shifts: Option<(u32, u32)>,
}

impl Split {
    fn new(line_bytes: u64, sets: u64) -> Split {
        let pow2 = line_bytes.is_power_of_two() && sets.is_power_of_two();
        Split {
            line_bytes,
            sets,
            shifts: pow2.then(|| (line_bytes.trailing_zeros(), sets.trailing_zeros())),
        }
    }

    #[inline]
    fn line(&self, addr: Addr) -> u64 {
        match self.shifts {
            Some((line_shift, _)) => addr >> line_shift,
            None => addr / self.line_bytes,
        }
    }

    /// `(set, tag)` of a line index.
    #[inline]
    fn set_tag(&self, line: u64) -> (usize, u64) {
        match self.shifts {
            Some((_, set_shift)) => ((line & (self.sets - 1)) as usize, line >> set_shift),
            None => ((line % self.sets) as usize, line / self.sets),
        }
    }
}

/// A set-associative, write-allocate, LRU cache.
///
/// Way state is kept structure-of-arrays: the hit, probe and invalidate
/// paths scan only the dense tag array (64 ways of an L2 set are eight
/// host cache lines), and LRU stamps and fill times are touched only for
/// the way that hit or is being filled.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    sets: u64,
    ways: usize,
    split: Split,
    /// `sets * ways` tags, row-major by set; [`INVALID`] marks an empty
    /// way.
    tags: Vec<u64>,
    /// Monotone LRU stamp per way: larger = more recently used.
    lru: Vec<u64>,
    /// Fill cycle per way.
    filled_at: Vec<Cycle>,
    /// Valid ways per set: a full set skips the search for an empty way.
    valid: Vec<u32>,
    lru_clock: u64,
    /// Lines whose next miss should count as a coherence miss because
    /// an invalidation (not capacity/conflict pressure) removed them.
    invalidated: FxHashSet<Addr>,
    pub stats: CacheStats,
}

impl SetAssocCache {
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets > 0, "cache must have at least one set");
        let ways = cfg.ways as usize;
        let n = (sets as usize) * ways;
        SetAssocCache {
            cfg,
            sets,
            ways,
            split: Split::new(cfg.line_bytes, sets),
            tags: vec![INVALID; n],
            lru: vec![0; n],
            filled_at: vec![0; n],
            valid: vec![0; sets as usize],
            lru_clock: 0,
            invalidated: FxHashSet::default(),
            stats: CacheStats::default(),
        }
    }

    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Line-aligned address of the block containing `addr`.
    pub fn line_addr(&self, addr: Addr) -> Addr {
        self.split.line(addr) * self.cfg.line_bytes
    }

    /// `(set, tag)` of the line holding `addr`.
    #[inline]
    pub fn locate(&self, addr: Addr) -> (usize, u64) {
        self.split.set_tag(self.split.line(addr))
    }

    /// Tags of the valid ways of `set`, in way order.
    #[inline]
    pub fn valid_tags(&self, set: usize) -> impl Iterator<Item = u64> + '_ {
        self.tags[set * self.ways..(set + 1) * self.ways]
            .iter()
            .copied()
            .filter(|&t| t != INVALID)
    }

    /// Way index of `tag` in `set`, if resident.
    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == tag)
            .map(|w| base + w)
    }

    /// Access `addr` at cycle `now`. On a miss the line is allocated
    /// (fills are modelled as instantaneous at `now`; the *latency* of
    /// the fill is the caller's concern — it knows the full path cost).
    /// Reads and writes allocate alike; dirtiness is not modelled.
    pub fn access(&mut self, addr: Addr, now: Cycle, _is_write: bool) -> AccessOutcome {
        let line = self.split.line(addr);
        let (set, tag) = self.split.set_tag(line);
        self.lru_clock += 1;
        let clock = self.lru_clock;

        if let Some(i) = self.find(set, tag) {
            self.lru[i] = clock;
            self.stats.hits += 1;
            return AccessOutcome::Hit {
                filled_at: self.filled_at[i],
            };
        }

        // Miss: allocate into the first empty way, else evict the first
        // least-recently-used one.
        self.stats.misses += 1;
        let coherence =
            !self.invalidated.is_empty() && self.invalidated.remove(&(line * self.cfg.line_bytes));
        if coherence {
            self.stats.coherence_misses += 1;
        }
        let ways = set * self.ways..(set + 1) * self.ways;
        let (victim, evicted) = if (self.valid[set] as usize) < self.ways {
            self.valid[set] += 1;
            let w = self.tags[ways.clone()].iter().position(|&t| t == INVALID);
            (
                ways.start + w.expect("a set below capacity has an empty way"),
                None,
            )
        } else {
            let lru = &self.lru[ways.clone()];
            let (mut victim, mut oldest) = (0, lru[0]);
            for (w, &stamp) in lru.iter().enumerate() {
                if stamp < oldest {
                    (victim, oldest) = (w, stamp);
                }
            }
            let victim = ways.start + victim;
            let line = self.tags[victim] * self.sets + set as u64;
            self.stats.evictions += 1;
            (victim, Some(line * self.cfg.line_bytes))
        };
        self.tags[victim] = tag;
        self.lru[victim] = clock;
        self.filled_at[victim] = now;
        AccessOutcome::Miss { evicted, coherence }
    }

    /// Non-mutating residency probe (the LD/ST unit's "local $ probe"
    /// before offloading, Figure 1).
    pub fn probe(&self, addr: Addr) -> bool {
        let (set, tag) = self.locate(addr);
        self.find(set, tag).is_some()
    }

    /// Fill time of a resident line, if resident.
    pub fn resident_since(&self, addr: Addr) -> Option<Cycle> {
        let (set, tag) = self.locate(addr);
        self.find(set, tag).map(|i| self.filled_at[i])
    }

    /// Remove a line (directory-initiated invalidation). The next demand
    /// miss on this line is counted as a coherence miss. Returns whether
    /// the line was resident.
    pub fn invalidate(&mut self, addr: Addr) -> bool {
        let (set, tag) = self.locate(addr);
        let Some(i) = self.find(set, tag) else {
            return false;
        };
        self.tags[i] = INVALID;
        self.valid[set] -= 1;
        self.stats.invalidations += 1;
        self.invalidated.insert(self.line_addr(addr));
        true
    }

    /// Number of currently-valid lines (tests and occupancy metrics).
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways x 64 B lines = 512 B.
        SetAssocCache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
            latency: 2,
        })
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.sets, 4);
        assert_eq!(c.ways, 2);
        assert_eq!(c.line_addr(130), 128);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0, 10, false).is_hit());
        match c.access(32, 11, false) {
            AccessOutcome::Hit { filled_at } => assert_eq!(filled_at, 10),
            _ => panic!("same line should hit"),
        }
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 holds lines with (line_index % 4 == 0): 0, 256, 512, ...
        c.access(0, 1, false); // A
        c.access(256, 2, false); // B
        c.access(0, 3, false); // touch A -> B is now LRU
        match c.access(512, 4, false) {
            AccessOutcome::Miss { evicted, .. } => assert_eq!(evicted, Some(256)),
            _ => panic!("expected miss"),
        }
        // A must still be resident.
        assert!(c.probe(0));
        assert!(!c.probe(256));
    }

    #[test]
    fn associativity_is_respected() {
        let mut c = tiny();
        c.access(0, 1, false);
        c.access(256, 2, false);
        assert_eq!(c.occupancy(), 2);
        c.access(512, 3, false);
        // Still only 2 lines in set 0.
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut c = tiny();
        c.access(0, 1, false);
        let stats_before = c.stats;
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert_eq!(c.stats, stats_before);
    }

    #[test]
    fn invalidation_counts_coherence_miss() {
        let mut c = tiny();
        c.access(0, 1, false);
        c.invalidate(0);
        assert!(!c.probe(0));
        assert_eq!(c.stats.invalidations, 1);
        match c.access(0, 2, false) {
            AccessOutcome::Miss { coherence, .. } => assert!(coherence),
            _ => panic!("expected miss"),
        }
        assert_eq!(c.stats.coherence_misses, 1);
        // A second miss on the same line (capacity path) is not
        // coherence.
        c.access(256, 3, false);
        c.access(512, 4, false); // evicts line 0's set members
        c.access(0, 5, false);
        assert_eq!(c.stats.coherence_misses, 1);
    }

    #[test]
    fn resident_since_reports_fill_time() {
        let mut c = tiny();
        assert_eq!(c.resident_since(0), None);
        c.access(0, 42, false);
        assert_eq!(c.resident_since(0), Some(42));
        assert_eq!(c.resident_since(32), Some(42));
    }

    #[test]
    fn writes_mark_dirty_and_hit() {
        let mut c = tiny();
        c.access(0, 1, true);
        assert!(c.access(0, 2, true).is_hit());
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn eviction_reconstructs_correct_address() {
        let mut c = tiny();
        // Line at address 64 lives in set 1; its set-mates are 64+256k.
        c.access(64, 1, false);
        c.access(64 + 256, 2, false);
        match c.access(64 + 512, 3, false) {
            AccessOutcome::Miss { evicted, .. } => assert_eq!(evicted, Some(64)),
            _ => panic!("expected miss"),
        }
    }

    /// The array-of-structs cache the dense tag array replaced, kept as
    /// the reference it is diffed against.
    mod reference {
        use super::super::AccessOutcome;
        use ndc_types::{Addr, CacheConfig, Cycle};

        #[derive(Clone, Copy)]
        struct LineEntry {
            tag: u64,
            lru: u64,
            filled_at: Cycle,
            valid: bool,
        }

        pub struct AosCache {
            cfg: CacheConfig,
            sets: u64,
            ways: usize,
            lines: Vec<LineEntry>,
            lru_clock: u64,
            invalidated: std::collections::HashSet<Addr>,
            pub stats: super::CacheStats,
        }

        impl AosCache {
            pub fn new(cfg: CacheConfig) -> Self {
                let sets = cfg.sets();
                let ways = cfg.ways as usize;
                let invalid = LineEntry {
                    tag: 0,
                    lru: 0,
                    filled_at: 0,
                    valid: false,
                };
                AosCache {
                    cfg,
                    sets,
                    ways,
                    lines: vec![invalid; sets as usize * ways],
                    lru_clock: 0,
                    invalidated: Default::default(),
                    stats: Default::default(),
                }
            }

            fn set_tag(&self, addr: Addr) -> (usize, u64) {
                let set = ((addr / self.cfg.line_bytes) % self.sets) as usize;
                (set * self.ways, addr / self.cfg.line_bytes / self.sets)
            }

            pub fn access(&mut self, addr: Addr, now: Cycle) -> AccessOutcome {
                let line_addr = addr / self.cfg.line_bytes * self.cfg.line_bytes;
                let (base, tag) = self.set_tag(addr);
                self.lru_clock += 1;
                let clock = self.lru_clock;
                let set = &mut self.lines[base..base + self.ways];
                if let Some(e) = set.iter_mut().find(|e| e.valid && e.tag == tag) {
                    e.lru = clock;
                    self.stats.hits += 1;
                    return AccessOutcome::Hit {
                        filled_at: e.filled_at,
                    };
                }
                self.stats.misses += 1;
                let coherence = self.invalidated.remove(&line_addr);
                if coherence {
                    self.stats.coherence_misses += 1;
                }
                let mut victim = 0usize;
                let mut victim_lru = u64::MAX;
                let mut found_invalid = false;
                for (i, e) in set.iter().enumerate() {
                    if !e.valid {
                        victim = i;
                        found_invalid = true;
                        break;
                    }
                    if e.lru < victim_lru {
                        victim_lru = e.lru;
                        victim = i;
                    }
                }
                let evicted = (!found_invalid).then(|| {
                    let set_index = (base / self.ways) as u64;
                    (set[victim].tag * self.sets + set_index) * self.cfg.line_bytes
                });
                if evicted.is_some() {
                    self.stats.evictions += 1;
                }
                set[victim] = LineEntry {
                    tag,
                    lru: clock,
                    filled_at: now,
                    valid: true,
                };
                AccessOutcome::Miss { evicted, coherence }
            }

            pub fn probe(&self, addr: Addr) -> bool {
                let (base, tag) = self.set_tag(addr);
                self.lines[base..base + self.ways]
                    .iter()
                    .any(|e| e.valid && e.tag == tag)
            }

            pub fn resident_since(&self, addr: Addr) -> Option<Cycle> {
                let (base, tag) = self.set_tag(addr);
                self.lines[base..base + self.ways]
                    .iter()
                    .find(|e| e.valid && e.tag == tag)
                    .map(|e| e.filled_at)
            }

            pub fn invalidate(&mut self, addr: Addr) {
                let line_addr = addr / self.cfg.line_bytes * self.cfg.line_bytes;
                let (base, tag) = self.set_tag(addr);
                let ways = self.ways;
                if let Some(e) = self.lines[base..base + ways]
                    .iter_mut()
                    .find(|e| e.valid && e.tag == tag)
                {
                    e.valid = false;
                    self.stats.invalidations += 1;
                    self.invalidated.insert(line_addr);
                }
            }

            pub fn occupancy(&self) -> usize {
                self.lines.iter().filter(|e| e.valid).count()
            }
        }
    }

    /// Diff a seeded access/probe/invalidate stream against the
    /// reference. The address pool is a few times the cache's capacity
    /// so sets fill, evict and refill.
    fn diff_against_reference(cfg: CacheConfig, seed: u64, ops: usize) {
        let mut dense = SetAssocCache::new(cfg);
        let mut aos = reference::AosCache::new(cfg);
        let mut g = ndc_types::SplitMix64::new(seed);
        let lines = 3 * cfg.size_bytes / cfg.line_bytes;
        for now in 0..ops as u64 {
            let addr = g.below(lines) * cfg.line_bytes + g.below(cfg.line_bytes);
            match g.below(8) {
                0 => {
                    let resident = aos.probe(addr);
                    assert_eq!(dense.invalidate(addr), resident);
                    aos.invalidate(addr);
                }
                1 => {
                    assert_eq!(dense.probe(addr), aos.probe(addr));
                    assert_eq!(dense.resident_since(addr), aos.resident_since(addr));
                }
                k => assert_eq!(
                    dense.access(addr, now, k == 2),
                    aos.access(addr, now),
                    "op {now} addr {addr:#x}"
                ),
            }
        }
        assert_eq!(dense.stats, aos.stats);
        assert_eq!(dense.occupancy(), aos.occupancy());
        assert!(dense.stats.evictions > 0 && dense.stats.coherence_misses > 0);
    }

    #[test]
    fn dense_tags_match_reference_at_l1_geometry() {
        let l1 = ndc_types::ArchConfig::paper_default().l1;
        assert_eq!(l1.ways, 2);
        for seed in [1, 2, 3] {
            diff_against_reference(l1, seed, 200_000);
        }
    }

    #[test]
    fn dense_tags_match_reference_at_a_non_power_of_two_geometry() {
        // 3 sets x 4 ways: addresses split by division, not shifts.
        let odd = CacheConfig {
            size_bytes: 3 * 4 * 64,
            line_bytes: 64,
            ways: 4,
            latency: 2,
        };
        assert_eq!(odd.sets(), 3);
        diff_against_reference(odd, 6, 50_000);
    }

    #[test]
    fn dense_tags_match_reference_at_l2_geometry() {
        let l2 = ndc_types::ArchConfig::paper_default().l2;
        assert_eq!(l2.ways, 64);
        for seed in [4, 5] {
            diff_against_reference(l2, seed, 100_000);
        }
    }
}
