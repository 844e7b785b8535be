//! L1 sharer tracking read from L1 residency.
//!
//! A line's sharers are exactly the cores whose L1 holds it, so the L1
//! tags already are the sharer list: a write only has to find the other
//! L1s that hold its line. [`SharerFilter`] keeps that search short
//! without a per-line map. It holds one core bitmask per
//! (L1 set, tag mod 64) slot, and a core's bit is set iff its L1 holds a
//! valid line in that set whose tag has that residue. A write visits
//! only the cores marked in its line's slot and confirms each against
//! its L1 tags, so a line that merely shares the residue costs one tag
//! compare and never an invalidation.

use crate::cache::SetAssocCache;
use crate::directory::DirStats;
use ndc_types::{Addr, CacheConfig};

/// Tag residues per L1 set: `tag mod RESIDUES` picks a set's slot.
const RESIDUES: u64 = 64;

/// Candidate sharers of every L1 line, from L1 residency (see the
/// module docs). Sized once from the L1 geometry and the core count.
#[derive(Debug, Clone)]
pub struct SharerFilter {
    /// Mask words per slot: one bit per core.
    words: usize,
    /// `sets × RESIDUES` slots of `words` words each.
    bits: Vec<u64>,
    /// The counters a full-map directory would report for the same
    /// traffic.
    pub stats: DirStats,
}

impl SharerFilter {
    /// An empty filter for `cores` L1 caches of geometry `l1`.
    pub fn new(l1: CacheConfig, cores: usize) -> Self {
        let words = cores.div_ceil(64).max(1);
        SharerFilter {
            words,
            bits: vec![0; l1.sets() as usize * RESIDUES as usize * words],
            stats: DirStats::default(),
        }
    }

    /// A filter with no slots, for a machine whose L1 accesses never
    /// run through it. Any fill panics; a write only counts.
    pub fn empty() -> Self {
        SharerFilter {
            words: 0,
            bits: Vec::new(),
            stats: DirStats::default(),
        }
    }

    /// First mask word of the slot of `(set, tag)`.
    #[inline]
    fn slot(&self, set: usize, tag: u64) -> usize {
        (set * RESIDUES as usize + (tag % RESIDUES) as usize) * self.words
    }

    /// Whether `core` is marked as a candidate holder of the L1 line
    /// `(set, tag)`.
    pub fn marks(&self, core: usize, set: usize, tag: u64) -> bool {
        self.bits[self.slot(set, tag) + core / 64] >> (core % 64) & 1 != 0
    }

    /// Clear `core`'s bit in the slot of `(set, tag)` unless its L1,
    /// `l1`, still holds another line of that set with the same tag
    /// residue.
    #[inline]
    fn unmark_unless_held(&mut self, l1: &SetAssocCache, core: usize, set: usize, tag: u64) {
        let r = tag % RESIDUES;
        if !l1.valid_tags(set).any(|t| t % RESIDUES == r) {
            let i = self.slot(set, tag) + core / 64;
            self.bits[i] &= !(1 << (core % 64));
        }
    }

    /// Record that `core`'s L1, `l1` (as it is after the fill), filled
    /// `line` on a demand miss and displaced `evicted`, if any. A read
    /// fill registers a read copy in the counters.
    #[inline]
    pub fn fill(
        &mut self,
        l1: &SetAssocCache,
        core: usize,
        line: Addr,
        evicted: Option<Addr>,
        write: bool,
    ) {
        if let Some(ev) = evicted {
            let (set, tag) = l1.locate(ev);
            self.unmark_unless_held(l1, core, set, tag);
        }
        let (set, tag) = l1.locate(line);
        let i = self.slot(set, tag) + core / 64;
        self.bits[i] |= 1 << (core % 64);
        if !write {
            self.stats.sharer_adds += 1;
        }
    }

    /// Record a write to `line` by `writer`: invalidate the line in
    /// every other L1 of `l1s` that holds it, in ascending core order.
    #[inline]
    pub fn write_by(&mut self, l1s: &mut [SetAssocCache], line: Addr, writer: usize) {
        let (set, tag) = l1s[writer].locate(line);
        let base = self.slot(set, tag);
        let mut sent = 0;
        for w in 0..self.words {
            let mut cands = self.bits[base + w];
            if w == writer / 64 {
                cands &= !(1 << (writer % 64));
            }
            while cands != 0 {
                let c = w * 64 + cands.trailing_zeros() as usize;
                cands &= cands - 1;
                if l1s[c].invalidate(line) {
                    sent += 1;
                    self.unmark_unless_held(&l1s[c], c, set, tag);
                }
            }
        }
        self.stats.writes += 1;
        if sent > 0 {
            self.stats.contended_writes += 1;
            self.stats.invalidations_sent += sent;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::AccessOutcome;

    /// 4 sets × 2 ways × 64 B lines, so lines `256·k + 64·s` share set
    /// `s` and tag `k`.
    fn tiny() -> CacheConfig {
        CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
            latency: 2,
        }
    }

    /// Fill `addr` into `l1s[core]` the way the machine does.
    fn read(f: &mut SharerFilter, l1s: &mut [SetAssocCache], core: usize, addr: Addr) {
        if let AccessOutcome::Miss { evicted, .. } = l1s[core].access(addr, 0, false) {
            f.fill(&l1s[core], core, addr, evicted, false);
        }
    }

    #[test]
    fn write_invalidates_only_real_holders() {
        let mut l1s: Vec<_> = (0..3).map(|_| SetAssocCache::new(tiny())).collect();
        let mut f = SharerFilter::new(tiny(), 3);
        // Tags 0 and 64 share residue 0 of set 0: core 1 holds the
        // written line, core 2 only a residue twin.
        let (line, twin) = (0, 64 * 256);
        read(&mut f, &mut l1s, 1, line);
        read(&mut f, &mut l1s, 2, twin);
        assert!(f.marks(2, 0, 0));
        f.write_by(&mut l1s, line, 0);
        assert!(!l1s[1].probe(line));
        assert!(l1s[2].probe(twin));
        assert_eq!(f.stats.invalidations_sent, 1);
        assert_eq!(f.stats.contended_writes, 1);
        assert_eq!(f.stats.sharer_adds, 2);
        // Core 1 no longer holds a residue-0 line of set 0; core 2 does.
        assert!(!f.marks(1, 0, 0));
        assert!(f.marks(2, 0, 0));
    }

    #[test]
    fn eviction_keeps_the_bit_of_a_residue_twin() {
        let mut l1s = vec![SetAssocCache::new(tiny())];
        let mut f = SharerFilter::new(tiny(), 1);
        // Set 0 holds tags 0 and 64 (both residue 0), then tag 1
        // evicts tag 0: tag 64 still marks residue 0.
        read(&mut f, &mut l1s, 0, 0);
        read(&mut f, &mut l1s, 0, 64 * 256);
        read(&mut f, &mut l1s, 0, 256);
        assert!(!l1s[0].probe(0));
        assert!(f.marks(0, 0, 0));
        assert!(f.marks(0, 0, 1));
        // Tag 65 (residue 1) evicts tag 64: residue 0 empties.
        read(&mut f, &mut l1s, 0, 65 * 256);
        assert!(!f.marks(0, 0, 0));
        assert!(f.marks(0, 0, 1));
    }

    #[test]
    fn cores_beyond_64_are_candidates() {
        let mut l1s: Vec<_> = (0..256).map(|_| SetAssocCache::new(tiny())).collect();
        let mut f = SharerFilter::new(tiny(), 256);
        for c in [0, 63, 64, 130, 255] {
            read(&mut f, &mut l1s, c, 0x40);
        }
        f.write_by(&mut l1s, 0x40, 130);
        for c in [0, 63, 64, 255] {
            assert!(!l1s[c].probe(0x40));
        }
        assert!(l1s[130].probe(0x40));
        assert_eq!(f.stats.invalidations_sent, 4);
    }
}
