//! Dynamic network state: contended-link message traversal.
//!
//! Each directed link keeps a `busy_until` horizon. A message entering a
//! link waits until the link frees, occupies it for
//! `⌈bytes / link_bytes⌉` cycles (16-byte links, Table 1), and pays the
//! router pipeline (`hop_cycles`, 3 by default) to move to the next
//! router. Every message, whatever its route, takes the one walk in
//! [`Network::send`]. Callers that read per-link entry timestamps pass
//! a buffer for them: the simulator's instrumentation uses them to
//! compute link-buffer arrival windows (two operands co-locate at a
//! router when their messages traverse a common link, and the window is
//! the gap between their entry times).

use crate::mesh::{LinkId, Mesh, Route};
use ndc_types::{Coord, Cycle, NodeId, WindowHistogram};

/// Timestamp record for one link of a traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkTraversal {
    pub link: LinkId,
    /// Cycle at which the message entered the link's buffer (after any
    /// queueing delay).
    pub enter: Cycle,
    /// Cycle at which the message left the downstream router.
    pub exit: Cycle,
    /// The downstream router — where an NDC link-buffer ALU could
    /// operate on the message.
    pub router: NodeId,
}

/// Full record of one message traversal.
#[derive(Debug, Clone, Default)]
pub struct TraversalRecord {
    pub links: Vec<LinkTraversal>,
    pub departed: Cycle,
    pub arrived: Cycle,
    /// Link occupancy paid per hop times hops crossed: the message's
    /// flit-hop cost. Zero for a zero-hop route. Computed by the same
    /// `traverse` that paid the cost, so attribution ledgers charging
    /// from this record can never drift from the network's own total.
    pub flit_hops: u64,
}

impl TraversalRecord {
    /// Total network latency including queueing.
    pub fn latency(&self) -> Cycle {
        self.arrived - self.departed
    }
}

/// What a sender learns about one message without per-hop records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Cycle the head reached the destination router.
    pub arrived: Cycle,
    /// Link occupancy paid per hop times hops crossed (see
    /// [`TraversalRecord::flit_hops`]).
    pub flit_hops: u64,
}

/// Per-directed-link observability: how often the link carried a
/// message, how long it was occupied, and the distribution of queueing
/// delays messages suffered waiting for it.
#[derive(Debug, Clone, Default)]
pub struct LinkObs {
    /// Messages that crossed this link.
    pub traversals: u64,
    /// Cycles the link spent serializing message bodies (occupancy).
    pub busy_cycles: u64,
    /// Distribution of per-message queueing delays at this link, over
    /// the paper's window buckets (0-delay messages land in bucket "1").
    pub queue_delay: WindowHistogram,
}

/// Mutable network state: one busy-horizon per directed link.
#[derive(Debug, Clone)]
pub struct Network {
    mesh: Mesh,
    busy_until: Vec<Cycle>,
    /// Total messages injected (stats).
    pub messages: u64,
    /// Total link-cycles of queueing delay suffered (stats).
    pub queueing_cycles: u64,
    /// Total flit-hops carried (occupancy × hops, summed per message).
    pub flit_hops: u64,
    /// Per-link telemetry; `None` (the default) keeps `traverse` on its
    /// original path apart from one branch.
    obs: Option<Vec<LinkObs>>,
    /// Flit-level occupancy log for the invariant checker: one
    /// `(link, enter, exit)` tuple per hop of every traversal, in
    /// traversal order. `None` (the default) costs one branch.
    check_log: Option<Vec<(LinkId, Cycle, Cycle)>>,
}

impl Network {
    pub fn new(mesh: Mesh) -> Self {
        let n = mesh.num_links();
        Network {
            mesh,
            busy_until: vec![0; n],
            messages: 0,
            queueing_cycles: 0,
            flit_hops: 0,
            obs: None,
            check_log: None,
        }
    }

    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Switch on per-link telemetry (idempotent).
    pub fn enable_obs(&mut self) {
        if self.obs.is_none() {
            self.obs = Some(vec![LinkObs::default(); self.mesh.num_links()]);
        }
    }

    /// Per-link telemetry, if enabled. Indexed by `LinkId::index()`.
    pub fn link_obs(&self) -> Option<&[LinkObs]> {
        self.obs.as_deref()
    }

    /// Switch on the flit-level occupancy log (idempotent). Unlike
    /// [`Network::enable_obs`] this is unbounded — it exists for the
    /// invariant checker, which needs every enter/exit pair to prove
    /// per-link occupancy drains to zero.
    pub fn enable_check_log(&mut self) {
        if self.check_log.is_none() {
            self.check_log = Some(Vec::new());
        }
    }

    /// The flit log, if enabled: `(link, enter, exit)` per hop.
    pub fn check_log(&self) -> Option<&[(LinkId, Cycle, Cycle)]> {
        self.check_log.as_deref()
    }

    /// Drain the flit log (leaves logging enabled).
    pub fn take_check_log(&mut self) -> Vec<(LinkId, Cycle, Cycle)> {
        self.check_log
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Send a message of `bytes` bytes along `links`, starting at cycle
    /// `start`: the one walk every message takes. Each hop waits for
    /// its link to free, occupies it for the message body and pays the
    /// router pipeline. When the caller supplies `hops`, one
    /// [`LinkTraversal`] per hop is appended to it; nothing is recorded
    /// otherwise. A zero-hop message arrives instantly.
    pub fn send(
        &mut self,
        links: impl IntoIterator<Item = LinkId>,
        start: Cycle,
        bytes: u64,
        mut hops: Option<&mut Vec<LinkTraversal>>,
    ) -> Delivery {
        let hop = self.mesh.config().hop_cycles;
        let occupancy = bytes.div_ceil(self.mesh.config().link_bytes).max(1);
        let mut t = start;
        let mut crossed = 0u64;
        for l in links {
            let enter = t.max(self.busy_until[l.index()]);
            self.queueing_cycles += enter - t;
            if let Some(obs) = &mut self.obs {
                let lo = &mut obs[l.index()];
                lo.traversals += 1;
                lo.busy_cycles += occupancy;
                lo.queue_delay.record(Some(enter - t));
            }
            // Serialize the message body over the link.
            self.busy_until[l.index()] = enter + occupancy;
            // The head reaches the next router after the pipeline delay.
            let exit = enter + hop;
            if let Some(log) = &mut self.check_log {
                log.push((l, enter, exit));
            }
            if let Some(rec) = hops.as_deref_mut() {
                rec.push(LinkTraversal {
                    link: l,
                    enter,
                    exit,
                    router: self.mesh.link_router(l),
                });
            }
            t = exit;
            crossed += 1;
        }
        let flit_hops = occupancy * crossed;
        self.messages += 1;
        self.flit_hops += flit_hops;
        Delivery {
            arrived: t,
            flit_hops,
        }
    }

    /// [`Network::send`] along the XY route `src → dst`, each link
    /// computed as the walk reaches it.
    pub fn send_xy(
        &mut self,
        src: Coord,
        dst: Coord,
        start: Cycle,
        bytes: u64,
        hops: Option<&mut Vec<LinkTraversal>>,
    ) -> Delivery {
        let links = self.mesh.xy_links(src, dst);
        self.send(links, start, bytes, hops)
    }

    /// Send a message along `route` and return its full per-link
    /// timing record.
    pub fn traverse(&mut self, route: &Route, start: Cycle, bytes: u64) -> TraversalRecord {
        self.traverse_links(&route.links, start, bytes)
    }

    /// [`Network::traverse`] over a bare link sequence (a route prefix).
    pub fn traverse_links(
        &mut self,
        links: &[LinkId],
        start: Cycle,
        bytes: u64,
    ) -> TraversalRecord {
        let mut hops = Vec::with_capacity(links.len());
        let sent = self.send(links.iter().copied(), start, bytes, Some(&mut hops));
        TraversalRecord {
            links: hops,
            departed: start,
            arrived: sent.arrived,
            flit_hops: sent.flit_hops,
        }
    }

    /// Latency of an uncontended traversal of `hops` hops (used for
    /// static compiler estimates).
    pub fn uncontended_latency(&self, hops: u32) -> Cycle {
        hops as Cycle * self.mesh.config().hop_cycles
    }

    /// Frozen busy-horizon of one directed link, for lane planners that
    /// plan traversals against an epoch-start snapshot (the live vector
    /// is not mutated during a parallel phase, so a shared reference to
    /// the `Network` *is* the snapshot).
    pub fn horizon(&self, l: LinkId) -> Cycle {
        self.busy_until[l.index()]
    }

    /// Max-merge a planned occupancy into the live horizon. Used by
    /// [`crate::lane::LanePlanner::commit`]: the merged horizon is the
    /// max over the frozen value and every lane's overlay, which is
    /// commutative — commit order across lanes cannot change the result.
    pub fn raise_horizon(&mut self, l: LinkId, until: Cycle) {
        let h = &mut self.busy_until[l.index()];
        *h = (*h).max(until);
    }

    /// Fold planned traffic counters in at commit time.
    pub fn add_traffic(&mut self, messages: u64, queueing_cycles: u64, flit_hops: u64) {
        self.messages += messages;
        self.queueing_cycles += queueing_cycles;
        self.flit_hops += flit_hops;
    }

    /// Record one planned per-link telemetry sample (no-op when obs is
    /// disabled; counter sums and histogram bucket increments are
    /// commutative across lanes).
    pub fn record_obs_sample(&mut self, l: LinkId, occupancy: u64, delay: Cycle) {
        if let Some(obs) = &mut self.obs {
            let lo = &mut obs[l.index()];
            lo.traversals += 1;
            lo.busy_cycles += occupancy;
            lo.queue_delay.record(Some(delay));
        }
    }

    /// Append one planned flit tuple to the occupancy log (no-op when
    /// the check log is disabled).
    pub fn log_flit(&mut self, l: LinkId, enter: Cycle, exit: Cycle) {
        if let Some(log) = &mut self.check_log {
            log.push((l, enter, exit));
        }
    }

    /// Whether per-link telemetry is on (planners skip sample capture
    /// otherwise).
    pub fn obs_enabled(&self) -> bool {
        self.obs.is_some()
    }

    /// Whether the flit occupancy log is on.
    pub fn check_log_enabled(&self) -> bool {
        self.check_log.is_some()
    }

    /// Reset all busy horizons (between independent simulations).
    pub fn reset(&mut self) {
        self.busy_until.fill(0);
        self.messages = 0;
        self.queueing_cycles = 0;
        self.flit_hops = 0;
        if let Some(obs) = &mut self.obs {
            obs.fill(LinkObs::default());
        }
        if let Some(log) = &mut self.check_log {
            log.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndc_types::{Coord, NocConfig};

    fn net() -> Network {
        Network::new(Mesh::new(NocConfig {
            width: 5,
            height: 5,
            link_bytes: 16,
            hop_cycles: 3,
        }))
    }

    #[test]
    fn uncontended_latency_is_hops_times_pipeline() {
        let mut n = net();
        let mesh = n.mesh().clone();
        let r = mesh.xy_route(Coord::new(0, 0), Coord::new(3, 0));
        let rec = n.traverse(&r, 100, 16);
        assert_eq!(rec.departed, 100);
        assert_eq!(rec.arrived, 100 + 3 * 3);
        assert_eq!(rec.latency(), 9);
        assert_eq!(rec.links.len(), 3);
        assert_eq!(rec.links[0].enter, 100);
        assert_eq!(rec.links[0].exit, 103);
        assert_eq!(rec.links[2].enter, 106);
    }

    #[test]
    fn zero_hop_route_is_free() {
        let mut n = net();
        let mesh = n.mesh().clone();
        let r = mesh.xy_route(Coord::new(2, 2), Coord::new(2, 2));
        let rec = n.traverse(&r, 42, 64);
        assert_eq!(rec.arrived, 42);
        assert!(rec.links.is_empty());
        assert_eq!(rec.flit_hops, 0);
        assert_eq!(n.flit_hops, 0);
        assert_eq!(n.messages, 1);
    }

    #[test]
    fn contention_serializes_messages() {
        let mut n = net();
        let mesh = n.mesh().clone();
        let r = mesh.xy_route(Coord::new(0, 0), Coord::new(1, 0));
        // A 64-byte message occupies the 16-byte link for 4 cycles.
        let first = n.traverse(&r, 0, 64);
        assert_eq!(first.links[0].enter, 0);
        // A second message at the same cycle must wait for the link.
        let second = n.traverse(&r, 0, 64);
        assert_eq!(second.links[0].enter, 4);
        assert_eq!(second.arrived, 4 + 3);
        assert_eq!(n.queueing_cycles, 4);
        assert_eq!(n.messages, 2);
        // Two 4-cycle occupancies over one link each.
        assert_eq!(first.flit_hops, 4);
        assert_eq!(n.flit_hops, 8);
    }

    #[test]
    fn disjoint_links_do_not_interfere() {
        let mut n = net();
        let mesh = n.mesh().clone();
        let r1 = mesh.xy_route(Coord::new(0, 0), Coord::new(1, 0));
        let r2 = mesh.xy_route(Coord::new(0, 1), Coord::new(1, 1));
        n.traverse(&r1, 0, 64);
        let rec = n.traverse(&r2, 0, 64);
        assert_eq!(rec.links[0].enter, 0);
        assert_eq!(n.queueing_cycles, 0);
    }

    #[test]
    fn reset_clears_state() {
        let mut n = net();
        let mesh = n.mesh().clone();
        let r = mesh.xy_route(Coord::new(0, 0), Coord::new(1, 0));
        n.traverse(&r, 0, 64);
        n.reset();
        let rec = n.traverse(&r, 0, 64);
        assert_eq!(rec.links[0].enter, 0);
        assert_eq!(n.messages, 1);
    }

    #[test]
    fn link_obs_records_occupancy_and_queue_delay() {
        let mut n = net();
        let mesh = n.mesh().clone();
        // Disabled by default: no per-link state allocated.
        assert!(n.link_obs().is_none());
        n.enable_obs();
        let r = mesh.xy_route(Coord::new(0, 0), Coord::new(1, 0));
        n.traverse(&r, 0, 64); // occupies the link 4 cycles
        n.traverse(&r, 0, 64); // queues 4 cycles behind it
        let obs = n.link_obs().unwrap();
        let l = r.links[0].index();
        assert_eq!(obs[l].traversals, 2);
        assert_eq!(obs[l].busy_cycles, 8);
        assert_eq!(obs[l].queue_delay.total(), 2);
        assert_eq!(obs[l].queue_delay.count(0), 1); // 0-cycle delay
        assert_eq!(obs[l].queue_delay.count(1), 1); // 4-cycle delay
                                                    // Untouched links recorded nothing.
        let quiet = obs.iter().filter(|o| o.traversals == 0).count();
        assert_eq!(quiet, obs.len() - 1);
        // Timing is identical with obs on: same result as the
        // contention_serializes_messages test.
        assert_eq!(n.queueing_cycles, 4);
        n.reset();
        assert_eq!(n.link_obs().unwrap()[l].traversals, 0);
    }

    #[test]
    fn check_log_records_every_hop_and_timing_is_unchanged() {
        let mut n = net();
        let mesh = n.mesh().clone();
        assert!(n.check_log().is_none());
        n.enable_check_log();
        let r = mesh.xy_route(Coord::new(0, 0), Coord::new(3, 0));
        let rec = n.traverse(&r, 100, 16);
        // Same timing as the uncontended_latency test: logging is
        // observation-only.
        assert_eq!(rec.arrived, 109);
        let log = n.check_log().unwrap();
        assert_eq!(log.len(), 3);
        for (hop, &(link, enter, exit)) in log.iter().enumerate() {
            assert_eq!(link, rec.links[hop].link);
            assert_eq!(enter, rec.links[hop].enter);
            assert_eq!(exit, rec.links[hop].exit);
            assert!(enter <= exit);
        }
        assert_eq!(n.take_check_log().len(), 3);
        assert_eq!(n.check_log().unwrap().len(), 0);
        n.traverse(&r, 0, 16);
        assert_eq!(n.check_log().unwrap().len(), 3);
        n.reset();
        assert!(n.check_log().unwrap().is_empty());
    }

    #[test]
    fn router_of_each_hop_is_downstream_node() {
        let mut n = net();
        let mesh = n.mesh().clone();
        let r = mesh.xy_route(Coord::new(0, 0), Coord::new(0, 2));
        let rec = n.traverse(&r, 0, 16);
        assert_eq!(rec.links[0].router, NodeId::from_coord(Coord::new(0, 1), 5));
        assert_eq!(rec.links[1].router, NodeId::from_coord(Coord::new(0, 2), 5));
    }

    /// The per-message loop `send` replaced, kept as the reference the
    /// walk is checked against: it builds the record as it charges.
    fn traverse_reference(
        n: &mut Network,
        links: &[LinkId],
        start: Cycle,
        bytes: u64,
    ) -> TraversalRecord {
        let hop = n.mesh.config().hop_cycles;
        let occupancy = bytes.div_ceil(n.mesh.config().link_bytes).max(1);
        let mut t = start;
        let mut rec = TraversalRecord {
            links: Vec::with_capacity(links.len()),
            departed: start,
            arrived: start,
            flit_hops: occupancy * links.len() as u64,
        };
        n.messages += 1;
        n.flit_hops += rec.flit_hops;
        for &l in links {
            let free_at = n.busy_until[l.index()];
            let enter = t.max(free_at);
            n.queueing_cycles += enter - t;
            if let Some(obs) = &mut n.obs {
                let lo = &mut obs[l.index()];
                lo.traversals += 1;
                lo.busy_cycles += occupancy;
                lo.queue_delay.record(Some(enter - t));
            }
            n.busy_until[l.index()] = enter + occupancy;
            let exit = enter + hop;
            if let Some(log) = &mut n.check_log {
                log.push((l, enter, exit));
            }
            rec.links.push(LinkTraversal {
                link: l,
                enter,
                exit,
                router: n.mesh.link_router(l),
            });
            t = exit;
        }
        rec.arrived = t;
        rec
    }

    fn observed(mesh: &Mesh) -> Network {
        let mut n = Network::new(mesh.clone());
        n.enable_obs();
        n.enable_check_log();
        n
    }

    fn assert_same_state(a: &Network, b: &Network) {
        assert_eq!(a.busy_until, b.busy_until);
        assert_eq!(
            (a.messages, a.queueing_cycles, a.flit_hops),
            (b.messages, b.queueing_cycles, b.flit_hops)
        );
        assert_eq!(a.obs.as_ref().unwrap().len(), b.obs.as_ref().unwrap().len());
        for (x, y) in a.obs.iter().flatten().zip(b.obs.iter().flatten()) {
            assert_eq!(
                (x.traversals, x.busy_cycles, &x.queue_delay),
                (y.traversals, y.busy_cycles, &y.queue_delay)
            );
        }
        assert_eq!(a.check_log, b.check_log);
    }

    /// Replays one message stream three ways — the arithmetic XY walk
    /// with a hop buffer, `traverse(&xy_route)`, and the reference loop
    /// — and checks they leave identical records and network state.
    fn check_walk_equivalence(mesh: &Mesh, msgs: &[(Coord, Coord, Cycle, u64)]) {
        let (mut walk, mut routed, mut reference) =
            (observed(mesh), observed(mesh), observed(mesh));
        let mut hops = Vec::new();
        for &(src, dst, start, bytes) in msgs {
            hops.clear();
            let sent = walk.send_xy(src, dst, start, bytes, Some(&mut hops));
            let route = mesh.xy_route(src, dst);
            let rec = routed.traverse(&route, start, bytes);
            let want = traverse_reference(&mut reference, &route.links, start, bytes);
            assert_eq!(hops, want.links);
            assert_eq!(rec.links, want.links);
            assert_eq!(
                (sent.arrived, sent.flit_hops),
                (want.arrived, want.flit_hops)
            );
            assert_eq!((rec.arrived, rec.flit_hops), (want.arrived, want.flit_hops));
        }
        assert_same_state(&walk, &reference);
        assert_same_state(&routed, &reference);
    }

    #[test]
    fn xy_walk_matches_reference_on_every_5x5_pair() {
        let n = net();
        let mesh = n.mesh().clone();
        let mut msgs = Vec::new();
        // Every ordered pair, twice at overlapping start times so later
        // messages queue behind earlier ones, with mixed message sizes.
        for round in 0..2u64 {
            for s in 0..25u16 {
                for d in 0..25u16 {
                    let start = round * 7 + (s as u64 % 5);
                    let bytes = [16, 64, 256][(s as usize + d as usize) % 3];
                    msgs.push((NodeId(s).coord(5), NodeId(d).coord(5), start, bytes));
                }
            }
        }
        check_walk_equivalence(&mesh, &msgs);
    }

    #[test]
    fn xy_walk_matches_reference_on_a_seeded_16x16_sample() {
        let mesh = Mesh::new(NocConfig {
            width: 16,
            height: 16,
            link_bytes: 16,
            hop_cycles: 3,
        });
        let mut g = ndc_types::SplitMix64::new(0x9a1c);
        let msgs: Vec<_> = (0..2000u64)
            .map(|k| {
                let src = NodeId(g.below(256) as u16).coord(16);
                let dst = NodeId(g.below(256) as u16).coord(16);
                (src, dst, k / 4 + g.below(20), 16 << g.below(4))
            })
            .collect();
        check_walk_equivalence(&mesh, &msgs);
    }

    #[test]
    fn send_records_hops_only_into_a_supplied_buffer() {
        let mut n = net();
        let d = n.send_xy(Coord::new(0, 0), Coord::new(3, 2), 10, 64, None);
        assert_eq!(d.arrived, 10 + 5 * 3);
        assert_eq!(d.flit_hops, 4 * 5);
        let mut hops = vec![];
        n.send_xy(Coord::new(0, 0), Coord::new(3, 2), 10, 64, Some(&mut hops));
        assert_eq!(hops.len(), 5);
        // Queued 4 cycles behind the first message on its first link.
        assert_eq!(hops[0].enter, 14);
    }
}
