//! NDC compute-package resolution.
//!
//! Given the two operand journeys of an offloaded computation, decide
//! *where* the operands can meet (link buffer on their data routes, the
//! common home L2 bank, the common memory controller, or the common
//! DRAM bank — Figure 1's ⓐ–ⓓ), *how long* the first operand waits
//! (the arrival window), and whether the attempt aborts (time-out
//! register, full service table, disabled component, disallowed op).
//!
//! The candidate evaluation mirrors the hardware flow of §2: the
//! package travels with the operand requests and computes at the first
//! component where both operands are available; the oracle scheme
//! instead picks the best location, and Figure 14's isolation runs
//! restrict candidates via the control register.

use crate::machine::{AccessPath, Machine};
use ndc_noc::{best_signature_pair, LinkId, XyLinks};
use ndc_types::{Cycle, FxHashMap, NdcLocation, NodeId, Op, ALL_NDC_LOCATIONS};
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Why an NDC attempt did not happen / was abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// An operand was in the local L1; the LD/ST unit skipped the
    /// offload (performed at the core — cheap, not a failure).
    LocalHit,
    /// The operation type is not offloadable (control register /
    /// Figure 17 restriction).
    OpNotAllowed,
    /// The operands never co-locate at any enabled component.
    NoColocation,
    /// The wait at the meeting component exceeded the time-out
    /// register.
    Timeout,
    /// The component's service table was full on arrival (§2: triggers
    /// the time-out mechanism immediately).
    ServiceTableFull,
    /// The scheme's wait budget was smaller than the required wait.
    BudgetExceeded,
}

/// All abort reasons, in [`AbortReason::index`] order.
pub const ALL_ABORT_REASONS: [AbortReason; 6] = [
    AbortReason::LocalHit,
    AbortReason::OpNotAllowed,
    AbortReason::NoColocation,
    AbortReason::Timeout,
    AbortReason::ServiceTableFull,
    AbortReason::BudgetExceeded,
];

impl AbortReason {
    /// Stable dense index for per-reason tallies.
    pub fn index(self) -> usize {
        match self {
            AbortReason::LocalHit => 0,
            AbortReason::OpNotAllowed => 1,
            AbortReason::NoColocation => 2,
            AbortReason::Timeout => 3,
            AbortReason::ServiceTableFull => 4,
            AbortReason::BudgetExceeded => 5,
        }
    }

    /// Short stable name for metrics keys and trace-event labels.
    pub fn label(self) -> &'static str {
        match self {
            AbortReason::LocalHit => "local_hit",
            AbortReason::OpNotAllowed => "op_not_allowed",
            AbortReason::NoColocation => "no_colocation",
            AbortReason::Timeout => "timeout",
            AbortReason::ServiceTableFull => "service_table_full",
            AbortReason::BudgetExceeded => "budget_exceeded",
        }
    }
}

/// One candidate meeting point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Meeting {
    pub loc: NdcLocation,
    /// The node hosting the component (router / L2 bank / MC node; for
    /// DRAM banks, the MC's node).
    pub node: NodeId,
    /// When each operand is available there.
    pub t_a: Cycle,
    pub t_b: Cycle,
}

impl Meeting {
    /// The arrival window: how long the first operand waits for the
    /// second.
    pub fn window(&self) -> Cycle {
        self.t_a.abs_diff(self.t_b)
    }

    pub fn ready(&self) -> Cycle {
        self.t_a.max(self.t_b)
    }
}

/// The candidate meetings of one package, in path order. There is at
/// most one per kind — cache controller, memory side, link buffer — so
/// the list lives inline in a fixed array.
#[derive(Debug, Clone, Copy)]
pub struct Meetings {
    len: usize,
    items: [Meeting; 3],
}

impl Meetings {
    const UNUSED: Meeting = Meeting {
        loc: NdcLocation::CacheController,
        node: NodeId(0),
        t_a: 0,
        t_b: 0,
    };

    pub fn new() -> Meetings {
        Meetings {
            len: 0,
            items: [Self::UNUSED; 3],
        }
    }

    fn push(&mut self, m: Meeting) {
        self.items[self.len] = m;
        self.len += 1;
    }

    /// Keep only the meetings `keep` accepts, preserving order.
    pub fn retain(&mut self, keep: impl Fn(&Meeting) -> bool) {
        let mut kept = 0;
        for i in 0..self.len {
            if keep(&self.items[i]) {
                self.items[kept] = self.items[i];
                kept += 1;
            }
        }
        self.len = kept;
    }
}

impl Default for Meetings {
    fn default() -> Self {
        Meetings::new()
    }
}

impl Deref for Meetings {
    type Target = [Meeting];

    fn deref(&self) -> &[Meeting] {
        &self.items[..self.len]
    }
}

/// Result of resolving an NDC package.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NdcOutcome {
    Performed {
        loc: NdcLocation,
        node: NodeId,
        /// The wait the first-arriving operand endured.
        wait: Cycle,
        /// Cycle the operation completed at the component.
        op_done: Cycle,
        /// Cycle the CPU-feed (result) reached the requesting core.
        result_at_core: Cycle,
    },
    Aborted {
        reason: AbortReason,
        /// When the abort was known at the core (conventional fallback
        /// may start then).
        at: Cycle,
    },
}

impl NdcOutcome {
    pub fn performed(&self) -> bool {
        matches!(self, NdcOutcome::Performed { .. })
    }
}

/// How to choose among feasible meeting points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocationPolicy {
    /// The hardware's general flow: first component along the data
    /// path (link buffer → cache controller → MC → memory bank).
    FirstOnPath,
    /// Oracle: the component minimizing result-at-core time.
    Best,
    /// Restrict to one component (Figure 14 isolation; control
    /// register ⓔ).
    Only(NdcLocation),
}

/// Per-component service tables and in-flight occupancy.
///
/// Entries are (release cycle) lists stored densely: component
/// instances are `(location, node)` pairs with four locations and a
/// bounded node count, so slot `node * 4 + location` in a grow-on-
/// demand `Vec` replaces the former `HashMap<(u8, u32), Vec<Cycle>>`
/// — the table sits on the offload fast path and is probed for every
/// candidate meeting.
#[derive(Debug, Default)]
pub struct ServiceTables {
    entries: Vec<Vec<Cycle>>,
}

impl ServiceTables {
    fn slot(&mut self, loc: NdcLocation, node: NodeId) -> &mut Vec<Cycle> {
        let idx = node.0 as usize * 4 + loc.index();
        // Dense per-(node, location) table: bounded by the widest mesh
        // the directory supports (16×16 = 256 nodes), so a bad NodeId
        // can't silently balloon the vector.
        debug_assert!(
            idx < ndc_mem::MAX_CORES * 4,
            "service-table slot {idx} outside the 16x16 mesh bound"
        );
        if idx >= self.entries.len() {
            self.entries.resize_with(idx + 1, Vec::new);
        }
        &mut self.entries[idx]
    }

    /// Total live entries across all components (occupancy audit).
    pub fn occupancy(&self) -> usize {
        self.entries.iter().map(Vec::len).sum()
    }

    /// Count live entries at `now` (pruning released ones).
    fn live(&mut self, loc: NdcLocation, node: NodeId, now: Cycle) -> usize {
        let v = self.slot(loc, node);
        v.retain(|&r| r > now);
        v.len()
    }

    /// Read-only live-entry count at `now` — the lane engine's frozen
    /// view during a parallel phase (no pruning, no slot allocation).
    pub(crate) fn live_at(&self, loc: NdcLocation, node: NodeId, now: Cycle) -> usize {
        let idx = node.0 as usize * 4 + loc.index();
        self.entries
            .get(idx)
            .map_or(0, |v| v.iter().filter(|&&r| r > now).count())
    }

    pub(crate) fn insert(&mut self, loc: NdcLocation, node: NodeId, release: Cycle) {
        self.slot(loc, node).push(release);
    }

    /// Drop entries released at or before `now` from every slot — the
    /// lane engine's epoch-barrier garbage collection (the serial
    /// engine prunes lazily inside `live`, which the frozen view
    /// cannot).
    pub(crate) fn prune_released(&mut self, now: Cycle) {
        for v in &mut self.entries {
            v.retain(|&r| r > now);
        }
    }

    pub fn clear(&mut self) {
        for v in &mut self.entries {
            v.clear();
        }
    }
}

/// Enumerate the candidate meetings for two operand paths, ordered by
/// where the operands' *data* first co-locates physically:
///
/// 1. the shared home L2 bank (the data converges there — no reply
///    messages exist under NDC, so no link meeting is possible);
/// 2. the shared memory controller / DRAM bank (refills pass through
///    before any reply);
/// 3. a common link of the data-reply routes toward the core — the
///    fallback when no memory-side component is shared, and the place
///    route reshaping (`reshape`) creates overlap (§5.2.1, Figure 11).
pub fn candidate_meetings(
    machine: &Machine,
    core: NodeId,
    a: &AccessPath,
    b: &AccessPath,
    reshape: bool,
) -> Meetings {
    let mut out = Meetings::new();
    let cfg = &machine.cfg;

    // Both operands must actually travel (L1 hits never leave the
    // core, so no meeting is possible anywhere).
    let (Some(l2a), Some(l2b)) = (a.l2, b.l2) else {
        return out;
    };
    let same_bank = l2a.bank == l2b.bank;

    // --- Cache controller: both operands homed at the same L2 bank. ---
    if same_bank {
        out.push(Meeting {
            loc: NdcLocation::CacheController,
            node: l2a.bank,
            t_a: l2a.data_at_bank,
            t_b: l2b.data_at_bank,
        });
    }

    // --- Memory side: both operands L2-missed to the same
    // controller. When they also live in the same DRAM bank, the
    // computation happens *in memory* (§2: "performed in memory if
    // both A and B are currently residing in the same memory bank") —
    // the data is born co-located, so in-array computation is the
    // deepest, cheapest meeting and takes precedence over the queue;
    // the windows gate on the two access commands reaching the device.
    if let (Some(ma), Some(mb)) = (a.mem, b.mem) {
        if ma.mc == mb.mc {
            if ma.dram_bank == mb.dram_bank {
                out.push(Meeting {
                    loc: NdcLocation::MemoryBank,
                    node: ma.mc_node,
                    t_a: ma.queue_enter,
                    t_b: mb.queue_enter,
                });
            } else {
                out.push(Meeting {
                    loc: NdcLocation::MemoryController,
                    node: ma.mc_node,
                    t_a: ma.queue_enter,
                    t_b: mb.queue_enter,
                });
            }
        }
    }

    // --- Link buffer: only reachable when the operands' data actually
    // moves on the network as two separate messages (different home
    // banks): common links of the data routes toward the core, plus
    // any actual refill-leg overlap. ---
    if !same_bank {
        let routes = reply_routes(machine, core, l2a.bank, l2b.bank, reshape);
        let hop = cfg.noc.hop_cycles;
        let mut best_link: Option<Meeting> = None;
        // Entry time of operand X on hop k of its route: data leaves
        // the bank at data_at_bank and pays `hop` per link.
        for (ka, la) in routes.a().enumerate() {
            for (kb, lb) in routes.b().enumerate() {
                if la != lb {
                    continue;
                }
                let t_a = l2a.data_at_bank + hop * ka as Cycle;
                let t_b = l2b.data_at_bank + hop * kb as Cycle;
                let m = Meeting {
                    loc: NdcLocation::LinkBuffer,
                    node: machine.mesh().link_router(la),
                    t_a,
                    t_b,
                };
                if best_link.is_none_or(|cur| m.window() < cur.window()) {
                    best_link = Some(m);
                }
            }
        }
        // Refill legs (MC -> bank) can also overlap — the "second
        // router attempt" on the L2-miss path of the paper's trial
        // order.
        for ta in &a.data_links {
            for tb in &b.data_links {
                if ta.link != tb.link {
                    continue;
                }
                let m = Meeting {
                    loc: NdcLocation::LinkBuffer,
                    node: machine.mesh().link_router(ta.link),
                    t_a: ta.enter,
                    t_b: tb.enter,
                };
                if best_link.is_none_or(|cur| m.window() < cur.window()) {
                    best_link = Some(m);
                }
            }
        }
        if let Some(m) = best_link {
            out.push(m);
        }
    }

    out
}

/// Enumerate the candidate meetings for an n-operand fused gather
/// (one multi-op pre-compute packet): the same physical convergence
/// points as [`candidate_meetings`], but *every* gathered operand must
/// co-locate there. The window generalizes to the full arrival spread
/// (`t_a` = earliest operand, `t_b` = latest), so `Meeting::window`
/// is the wait the first-arriving operand endures for the last.
///
/// Link meetings use the operands' XY reply routes (route reshaping is
/// a pairwise signature optimization; with three or more gathered
/// operands the packet falls back to XY) and require a link common to
/// every route. Refill-leg overlap is not considered for fused
/// packets — with n operands the pairwise leg intersections no longer
/// describe a single component all operands pass through.
pub fn candidate_meetings_fused(
    machine: &Machine,
    core: NodeId,
    paths: &[AccessPath],
    reshape: bool,
) -> Meetings {
    let mut out = Meetings::new();
    let cfg = &machine.cfg;
    // Every operand must actually travel.
    if paths.is_empty() || paths.iter().any(|p| p.l2.is_none()) {
        return out;
    }
    let l2 = |i: usize| paths[i].l2.expect("every operand reached L2");
    let first = l2(0);
    let same_bank = (1..paths.len()).all(|i| l2(i).bank == first.bank);

    // --- Cache controller: all operands homed at the same L2 bank. ---
    if same_bank {
        let at_bank = (0..paths.len()).map(|i| l2(i).data_at_bank);
        out.push(Meeting {
            loc: NdcLocation::CacheController,
            node: first.bank,
            t_a: at_bank.clone().min().unwrap_or(0),
            t_b: at_bank.max().unwrap_or(0),
        });
    }

    // --- Memory side: all operands L2-missed to the same controller
    // (same DRAM bank deepens the meeting to the bank itself). ---
    if let Some(m0) = paths[0].mem {
        if paths.iter().all(|p| p.mem.is_some_and(|m| m.mc == m0.mc)) {
            let mems = paths.iter().filter_map(|p| p.mem);
            let loc = if mems.clone().all(|m| m.dram_bank == m0.dram_bank) {
                NdcLocation::MemoryBank
            } else {
                NdcLocation::MemoryController
            };
            out.push(Meeting {
                loc,
                node: m0.mc_node,
                t_a: mems.clone().map(|m| m.queue_enter).min().unwrap_or(0),
                t_b: mems.map(|m| m.queue_enter).max().unwrap_or(0),
            });
        }
    }

    // --- Link buffer: a link every operand's data-reply route crosses. ---
    if !same_bank {
        let width = cfg.noc.width;
        let cc = core.coord(width);
        let pair = (reshape && paths.len() == 2)
            .then(|| reply_routes(machine, core, first.bank, l2(1).bank, true));
        let route = |i: usize| match &pair {
            Some(p) if i == 0 => p.a(),
            Some(p) => p.b(),
            None => RouteLinks::Xy(machine.mesh().xy_links(l2(i).bank.coord(width), cc)),
        };
        let hop = cfg.noc.hop_cycles;
        let mut best_link: Option<Meeting> = None;
        // Candidate links come from the first route; each must appear
        // on every other route too.
        'links: for (k0, link) in route(0).enumerate() {
            let mut t_min = first.data_at_bank + hop * k0 as Cycle;
            let mut t_max = t_min;
            for i in 1..paths.len() {
                let Some(k) = route(i).position(|l| l == link) else {
                    continue 'links;
                };
                let t = l2(i).data_at_bank + hop * k as Cycle;
                t_min = t_min.min(t);
                t_max = t_max.max(t);
            }
            let m = Meeting {
                loc: NdcLocation::LinkBuffer,
                node: machine.mesh().link_router(link),
                t_a: t_min,
                t_b: t_max,
            };
            if best_link.is_none_or(|cur| m.window() < cur.window()) {
                best_link = Some(m);
            }
        }
        if let Some(m) = best_link {
            out.push(m);
        }
    }

    out
}

/// The decision half of a fused resolution: [`plan_resolution`]
/// generalized to an n-operand gather executing a chain of `ops` at
/// the meeting component. Any locally-cached operand skips the offload
/// (the LD/ST probe covers the whole gather set), and every op of the
/// chain must be offloadable under the control register.
#[allow(clippy::too_many_arguments)]
pub(crate) fn plan_resolution_fused(
    cfg: &ndc_types::ArchConfig,
    return_latency: impl Fn(NodeId) -> Cycle,
    live: impl FnOnce(NdcLocation, NodeId, Cycle) -> usize,
    ops: &[Op],
    paths: &[AccessPath],
    issue: Cycle,
    params: ResolveParams,
    mut cands: Meetings,
) -> ResolvePlan {
    if paths.iter().any(|p| p.l1_hit) {
        return ResolvePlan::Abort {
            reason: AbortReason::LocalHit,
            at: issue,
        };
    }
    if ops.iter().any(|&op| !cfg.ndc.op_class.allows(op)) {
        return ResolvePlan::Abort {
            reason: AbortReason::OpNotAllowed,
            at: issue,
        };
    }

    cands.retain(|m| cfg.ndc.location_enabled(m.loc));
    match params.policy {
        LocationPolicy::Only(loc) => cands.retain(|m| m.loc == loc),
        LocationPolicy::FirstOnPath | LocationPolicy::Best => {}
    }
    if cands.is_empty() {
        let at = paths
            .iter()
            .map(|p| p.completion)
            .max()
            .unwrap_or(issue)
            .max(issue);
        return ResolvePlan::Abort {
            reason: AbortReason::NoColocation,
            at,
        };
    }

    let chosen = match params.policy {
        LocationPolicy::Best => *cands
            .iter()
            .min_by_key(|m| m.ready() + return_latency(m.node))
            .unwrap(),
        _ => cands[0],
    };

    let wait = chosen.window();
    if let Some(budget) = params.budget {
        if wait > budget {
            let first = chosen.t_a.min(chosen.t_b);
            return ResolvePlan::Abort {
                reason: AbortReason::BudgetExceeded,
                at: first + budget,
            };
        }
    }
    if !params.ignore_limits {
        if let Some(tmo) = cfg.ndc.timeout {
            if wait > tmo {
                let first = chosen.t_a.min(chosen.t_b);
                return ResolvePlan::Abort {
                    reason: AbortReason::Timeout,
                    at: first + tmo,
                };
            }
        }
    }
    let arrive = chosen.t_a.min(chosen.t_b);
    if !params.ignore_limits
        && live(chosen.loc, chosen.node, arrive) >= cfg.ndc.service_table_entries
    {
        let wasted = cfg.ndc.timeout.unwrap_or(0);
        return ResolvePlan::Abort {
            reason: AbortReason::ServiceTableFull,
            at: arrive + wasted,
        };
    }
    ResolvePlan::Perform { chosen, wait }
}

/// Resolve a fused multi-op package: one gather of all operands, one
/// chain execution (`ops.len()` cycles at the component), one CPU-feed
/// carrying the final chain value home.
pub fn resolve_fused(
    machine: &mut Machine,
    tables: &mut ServiceTables,
    core: NodeId,
    ops: &[Op],
    paths: &[AccessPath],
    issue: Cycle,
    params: ResolveParams,
) -> NdcOutcome {
    machine.attribute_to(core);
    let cfg = machine.cfg;
    let cands = candidate_meetings_fused(machine, core, paths, params.reshape);
    let plan = plan_resolution_fused(
        &cfg,
        |n| machine.hop_latency(n, core),
        |loc, node, at| tables.live(loc, node, at),
        ops,
        paths,
        issue,
        params,
        cands,
    );
    let (chosen, wait) = match plan {
        ResolvePlan::Abort { reason, at } => return NdcOutcome::Aborted { reason, at },
        ResolvePlan::Perform { chosen, wait } => (chosen, wait),
    };

    // A link-buffer meeting moves each operand's data from its bank to
    // the meeting router.
    if chosen.loc == NdcLocation::LinkBuffer {
        let width = cfg.noc.width;
        let cc = core.coord(width);
        for p in paths {
            let Some(l2) = p.l2 else { continue };
            let route = machine.mesh().xy_links(l2.bank.coord(width), cc);
            if let Some(k) = route
                .clone()
                .position(|l| machine.mesh().link_router(l) == chosen.node)
            {
                machine.send_data_along(route.take(k + 1), l2.data_at_bank, cfg.l1.line_bytes);
            }
        }
    }

    // The chain executes serially at the component: one cycle per op.
    let op_done = chosen.ready() + ops.len() as Cycle;
    tables.insert(chosen.loc, chosen.node, op_done);
    let result_at_core = machine.send_result(chosen.node, core, op_done);
    NdcOutcome::Performed {
        loc: chosen.loc,
        node: chosen.node,
        wait,
        op_done,
        result_at_core,
    }
}

/// The data-reply routes of two operands toward the core.
#[derive(Debug, Clone)]
pub(crate) enum ReplyRoutes {
    /// The baseline XY routes, walked link by link as they are read.
    Xy(XyLinks, XyLinks),
    /// A reshaped pair from the run's [`ReshapeMemo`]: both link lists
    /// in one shared slice, operand a's first.
    Reshaped { links: Arc<[LinkId]>, split: usize },
}

impl ReplyRoutes {
    pub(crate) fn a(&self) -> RouteLinks<'_> {
        match self {
            ReplyRoutes::Xy(a, _) => RouteLinks::Xy(*a),
            ReplyRoutes::Reshaped { links, split } => RouteLinks::Listed(links[..*split].iter()),
        }
    }

    pub(crate) fn b(&self) -> RouteLinks<'_> {
        match self {
            ReplyRoutes::Xy(_, b) => RouteLinks::Xy(*b),
            ReplyRoutes::Reshaped { links, split } => RouteLinks::Listed(links[*split..].iter()),
        }
    }
}

/// The links of one reply route, in order.
#[derive(Debug, Clone)]
pub(crate) enum RouteLinks<'r> {
    Xy(XyLinks),
    Listed(std::slice::Iter<'r, LinkId>),
}

impl Iterator for RouteLinks<'_> {
    type Item = LinkId;

    #[inline]
    fn next(&mut self) -> Option<LinkId> {
        match self {
            RouteLinks::Xy(xy) => xy.next(),
            RouteLinks::Listed(it) => it.next().copied(),
        }
    }
}

/// `(bank_a, bank_b, core)`: the inputs of one reshaped selection.
type ReshapeKey = (NodeId, NodeId, NodeId);

/// Per-run memo of reshaped reply-route pairs.
///
/// Signature selection is a pure function of the mesh and the
/// [`ReshapeKey`], yet one offload asks for it up to three times
/// (candidate enumeration, link charging, instrumentation) and a run
/// repeats the same few thousand keys over and over. The memo lives in
/// the [`Machine`], so it is dropped with the run; the mutex keeps it
/// usable from the lane engine's shared read-only machine.
#[derive(Debug, Default)]
pub(crate) struct ReshapeMemo {
    pairs: Mutex<FxHashMap<ReshapeKey, ReplyRoutes>>,
}

impl ReshapeMemo {
    /// Number of distinct pairs selected so far.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    fn lock(&self) -> MutexGuard<'_, FxHashMap<ReshapeKey, ReplyRoutes>> {
        // Every update is one whole-entry insert, so a guard poisoned by
        // another thread's panic still holds a valid map.
        self.pairs.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The data-reply routes used for link-overlap evaluation: XY, or the
/// signature pair maximizing link overlap (memoized per run).
pub(crate) fn reply_routes(
    machine: &Machine,
    core: NodeId,
    bank_a: NodeId,
    bank_b: NodeId,
    reshape: bool,
) -> ReplyRoutes {
    let width = machine.cfg.noc.width;
    let ca = bank_a.coord(width);
    let cb = bank_b.coord(width);
    let cc = core.coord(width);
    if !reshape {
        let mesh = machine.mesh();
        return ReplyRoutes::Xy(mesh.xy_links(ca, cc), mesh.xy_links(cb, cc));
    }
    let key = (bank_a, bank_b, core);
    if let Some(routes) = machine.reshaped.lock().get(&key) {
        return routes.clone();
    }
    let pair = best_signature_pair(machine.mesh(), ca, cc, cb, cc);
    let split = pair.route_a.links.len();
    let links = pair.route_a.links.into_iter().chain(pair.route_b.links);
    let routes = ReplyRoutes::Reshaped {
        links: links.collect(),
        split,
    };
    machine.reshaped.lock().insert(key, routes.clone());
    routes
}

/// Parameters of one resolution attempt.
#[derive(Debug, Clone, Copy)]
pub struct ResolveParams {
    pub policy: LocationPolicy,
    /// Maximum wait the scheme tolerates at the meeting component
    /// (`None` = wait forever, bounded only by the hardware time-out).
    pub budget: Option<Cycle>,
    /// Use reshaped reply routes for the link-buffer candidate.
    pub reshape: bool,
    /// Oracle mode: skip the time-out register and service-table
    /// capacity (perfect scheduling never trips either).
    pub ignore_limits: bool,
}

/// Resolve an NDC package: pick a meeting, enforce the control
/// register / op class / service tables / time-out, charge the network
/// for the data movement that actually happens, and produce the
/// outcome.
///
/// `issue` is when the LD/ST unit injected the package; aborts resolve
/// at `issue + wasted-wait` and the engine then falls back to
/// conventional execution.
#[allow(clippy::too_many_arguments)]
pub fn resolve(
    machine: &mut Machine,
    tables: &mut ServiceTables,
    core: NodeId,
    op: Op,
    a: &AccessPath,
    b: &AccessPath,
    issue: Cycle,
    params: ResolveParams,
) -> NdcOutcome {
    let cands = candidate_meetings(machine, core, a, b, params.reshape);
    resolve_with_candidates(machine, tables, core, op, a, b, issue, params, cands)
}

/// The pure decision half of a resolution: everything up to (but not
/// including) charging the network and mutating the service tables.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ResolvePlan {
    Abort { reason: AbortReason, at: Cycle },
    Perform { chosen: Meeting, wait: Cycle },
}

/// Decide the outcome of an NDC package without side effects on the
/// network. Shared by the serial engine (which then charges the live
/// [`Machine`]) and the lane engine (which charges its per-core
/// `LanePlanner` and defers the table insert to the epoch barrier).
///
/// `return_latency(n)` is the uncontended one-way latency node → core;
/// `live(loc, node, at)` counts live service-table entries — the
/// serial engine passes the pruning [`ServiceTables::live`], the lane
/// engine a frozen [`ServiceTables::live_at`] plus its own epoch
/// overlay. It is called at most once.
#[allow(clippy::too_many_arguments)]
pub(crate) fn plan_resolution(
    cfg: &ndc_types::ArchConfig,
    return_latency: impl Fn(NodeId) -> Cycle,
    live: impl FnOnce(NdcLocation, NodeId, Cycle) -> usize,
    op: Op,
    a: &AccessPath,
    b: &AccessPath,
    issue: Cycle,
    params: ResolveParams,
    mut cands: Meetings,
) -> ResolvePlan {
    // Local L1 copy: the LD/ST unit skips the offload (handled by the
    // caller for timing; reported here for completeness).
    if a.l1_hit || b.l1_hit {
        return ResolvePlan::Abort {
            reason: AbortReason::LocalHit,
            at: issue,
        };
    }
    if !cfg.ndc.op_class.allows(op) {
        return ResolvePlan::Abort {
            reason: AbortReason::OpNotAllowed,
            at: issue,
        };
    }

    cands.retain(|m| cfg.ndc.location_enabled(m.loc));
    match params.policy {
        LocationPolicy::Only(loc) => cands.retain(|m| m.loc == loc),
        LocationPolicy::FirstOnPath | LocationPolicy::Best => {}
    }
    if cands.is_empty() {
        // The package traveled with the operands to the end of the path
        // and nothing met; the hardware knows once both journeys
        // resolve, and signals the offload table (no time-out wait).
        let at = a.completion.max(b.completion).max(issue);
        return ResolvePlan::Abort {
            reason: AbortReason::NoColocation,
            at,
        };
    }

    let chosen = match params.policy {
        LocationPolicy::Best => *cands
            .iter()
            .min_by_key(|m| m.ready() + return_latency(m.node))
            .unwrap(),
        _ => cands[0],
    };

    let wait = chosen.window();
    // Scheme budget: the first operand leaves after `budget` cycles.
    if let Some(budget) = params.budget {
        if wait > budget {
            let first = chosen.t_a.min(chosen.t_b);
            return ResolvePlan::Abort {
                reason: AbortReason::BudgetExceeded,
                at: first + budget,
            };
        }
    }
    // Hardware time-out register.
    if !params.ignore_limits {
        if let Some(tmo) = cfg.ndc.timeout {
            if wait > tmo {
                let first = chosen.t_a.min(chosen.t_b);
                return ResolvePlan::Abort {
                    reason: AbortReason::Timeout,
                    at: first + tmo,
                };
            }
        }
    }
    // Service table capacity at the component. A full table triggers
    // the time-out mechanism (§2): the request lingers until the
    // time-out expires and is then performed at the original core —
    // the expensive path that makes indiscriminate offloading hurt.
    let arrive = chosen.t_a.min(chosen.t_b);
    if !params.ignore_limits
        && live(chosen.loc, chosen.node, arrive) >= cfg.ndc.service_table_entries
    {
        let wasted = cfg.ndc.timeout.unwrap_or(0);
        return ResolvePlan::Abort {
            reason: AbortReason::ServiceTableFull,
            at: arrive + wasted,
        };
    }
    ResolvePlan::Perform { chosen, wait }
}

/// [`resolve`] with the candidate meetings already computed.
///
/// `candidate_meetings` is a pure function of the two operand paths and
/// the mesh, so the lane engine precomputes candidates for a whole
/// epoch's offloads in parallel (read-only machine) and then resolves
/// them serially in canonical order — only this part reads and writes
/// the shared service tables, link horizons, and predictor state.
/// `cands` must be the unfiltered output of [`candidate_meetings`] for
/// `(core, a, b, params.reshape)`.
#[allow(clippy::too_many_arguments)]
pub fn resolve_with_candidates(
    machine: &mut Machine,
    tables: &mut ServiceTables,
    core: NodeId,
    op: Op,
    a: &AccessPath,
    b: &AccessPath,
    issue: Cycle,
    params: ResolveParams,
    cands: Meetings,
) -> NdcOutcome {
    machine.attribute_to(core);
    let cfg = machine.cfg;
    let plan = plan_resolution(
        &cfg,
        |n| machine.hop_latency(n, core),
        |loc, node, at| tables.live(loc, node, at),
        op,
        a,
        b,
        issue,
        params,
        cands,
    );
    let (chosen, wait) = match plan {
        ResolvePlan::Abort { reason, at } => return NdcOutcome::Aborted { reason, at },
        ResolvePlan::Perform { chosen, wait } => (chosen, wait),
    };

    // Charge the data movement that actually happens for a link-buffer
    // meeting: each operand's data travels from its bank to the meeting
    // router.
    let op_ready = chosen.ready();
    if chosen.loc == NdcLocation::LinkBuffer {
        if let (Some(l2a), Some(l2b)) = (a.l2, b.l2) {
            let routes = reply_routes(machine, core, l2a.bank, l2b.bank, params.reshape);
            let meet =
                |mut r: RouteLinks| r.position(|l| machine.mesh().link_router(l) == chosen.node);
            let (ka, kb) = (meet(routes.a()), meet(routes.b()));
            if let Some(k) = ka {
                machine.send_data_along(
                    routes.a().take(k + 1),
                    l2a.data_at_bank,
                    cfg.l1.line_bytes,
                );
            }
            if let Some(k) = kb {
                machine.send_data_along(
                    routes.b().take(k + 1),
                    l2b.data_at_bank,
                    cfg.l1.line_bytes,
                );
            }
        }
    }

    let op_done = op_ready + 1;
    tables.insert(chosen.loc, chosen.node, op_done);
    // CPU-feed: the result returns to the core.
    let result_at_core = machine.send_result(chosen.node, core, op_done);
    NdcOutcome::Performed {
        loc: chosen.loc,
        node: chosen.node,
        wait,
        op_done,
        result_at_core,
    }
}

/// Measurement helper for the characterization study (Figures 2/3):
/// the per-location windows of a conventional (baseline) computation,
/// derived from its two operands' actual paths. Returns one entry per
/// location, `None` when the operands never co-locate there.
pub fn windows_by_location(
    machine: &Machine,
    core: NodeId,
    a: &AccessPath,
    b: &AccessPath,
    reshape: bool,
) -> [Option<Cycle>; 4] {
    windows_of(&candidate_meetings(machine, core, a, b, reshape))
}

/// [`windows_by_location`] over already-enumerated candidate meetings.
pub fn windows_of(cands: &[Meeting]) -> [Option<Cycle>; 4] {
    let mut out = [None; 4];
    for m in cands {
        let slot = &mut out[m.loc.index()];
        let w = m.window();
        if slot.is_none_or(|cur| w < cur) {
            *slot = Some(w);
        }
    }
    out
}

/// The breakeven point of a computation for each location (§4.1): the
/// largest wait `w` such that performing the op at the location and
/// shipping the result back beats the conventional completion.
///
/// `conv_done` is the conventional completion time (operands at core +
/// 1 op cycle). For a meeting with first-operand availability `t1` at
/// node `n`, NDC completes at `t1 + w + 1 + return(n → core)`;
/// breakeven = `conv_done - t1 - 1 - return`, clamped at 0.
pub fn breakeven_by_location(
    machine: &Machine,
    core: NodeId,
    a: &AccessPath,
    b: &AccessPath,
    conv_done: Cycle,
) -> [Option<Cycle>; 4] {
    breakevens_of(
        machine,
        core,
        &candidate_meetings(machine, core, a, b, false),
        conv_done,
    )
}

/// [`breakeven_by_location`] over already-enumerated (XY-route)
/// candidate meetings.
pub fn breakevens_of(
    machine: &Machine,
    core: NodeId,
    cands: &[Meeting],
    conv_done: Cycle,
) -> [Option<Cycle>; 4] {
    let mut out = [None; 4];
    for m in cands {
        let t1 = m.t_a.min(m.t_b);
        let ret = machine.hop_latency(m.node, core);
        let be = conv_done.saturating_sub(t1 + 1 + ret);
        let slot = &mut out[m.loc.index()];
        if slot.is_none_or(|cur| be > cur) {
            *slot = Some(be);
        }
    }
    out
}

/// All four locations, exported for iteration in reports.
pub fn all_locations() -> [NdcLocation; 4] {
    ALL_NDC_LOCATIONS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::AccessIntent;
    use ndc_types::ArchConfig;

    fn machine() -> Machine {
        Machine::new(ArchConfig::paper_default())
    }

    /// Two addresses with the same L2 home bank but different lines.
    fn same_bank_addrs(cfg: &ArchConfig) -> (u64, u64) {
        let line = cfg.l2.line_bytes;
        let nodes = cfg.nodes() as u64;
        (0, nodes * line) // both home at bank 0
    }

    #[test]
    fn same_bank_operands_meet_at_cache_controller() {
        let mut m = machine();
        let core = NodeId(12);
        let (a_addr, b_addr) = same_bank_addrs(&m.cfg);
        let a = m.access(core, a_addr, 0, false, AccessIntent::NearData);
        let b = m.access(core, b_addr, 0, false, AccessIntent::NearData);
        let cands = candidate_meetings(&m, core, &a, &b, false);
        assert!(cands
            .iter()
            .any(|c| c.loc == NdcLocation::CacheController && c.node == NodeId(0)));
    }

    #[test]
    fn different_banks_no_cache_meeting_but_links_can_meet() {
        let mut m = machine();
        let core = NodeId(12);
        let line = m.cfg.l2.line_bytes;
        // Banks 0 and 1: adjacent nodes; replies toward core 12 share
        // links.
        let a = m.access(core, 0, 0, false, AccessIntent::NearData);
        let b = m.access(core, line, 0, false, AccessIntent::NearData);
        let cands = candidate_meetings(&m, core, &a, &b, false);
        assert!(!cands.iter().any(|c| c.loc == NdcLocation::CacheController));
        // Banks 0=(0,0) and 1=(1,0) routing XY to (2,2): share links
        // from (2,0) down? Route a: e,e,s,s; route b: e,s,s. Common:
        // the south links at column 2.
        assert!(cands.iter().any(|c| c.loc == NdcLocation::LinkBuffer));
    }

    #[test]
    fn l1_hit_operand_aborts_with_local_hit() {
        let mut m = machine();
        let core = NodeId(5);
        m.access(core, 0x1000, 0, false, AccessIntent::ToCore);
        let a = m.access(core, 0x1000, 100, false, AccessIntent::NearData);
        let b = m.access(core, 0x2000, 100, false, AccessIntent::NearData);
        let mut tables = ServiceTables::default();
        let out = resolve(
            &mut m,
            &mut tables,
            core,
            Op::Add,
            &a,
            &b,
            100,
            ResolveParams {
                policy: LocationPolicy::FirstOnPath,
                budget: None,
                reshape: false,
                ignore_limits: false,
            },
        );
        assert_eq!(
            out,
            NdcOutcome::Aborted {
                reason: AbortReason::LocalHit,
                at: 100
            }
        );
    }

    #[test]
    fn op_class_restriction_aborts_mul() {
        let mut m = machine();
        m.cfg.ndc.op_class = ndc_types::OpClass::AddSubOnly;
        let core = NodeId(12);
        let (a_addr, b_addr) = same_bank_addrs(&m.cfg);
        let a = m.access(core, a_addr, 0, false, AccessIntent::NearData);
        let b = m.access(core, b_addr, 0, false, AccessIntent::NearData);
        let mut tables = ServiceTables::default();
        let out = resolve(
            &mut m,
            &mut tables,
            core,
            Op::Mul,
            &a,
            &b,
            0,
            ResolveParams {
                policy: LocationPolicy::FirstOnPath,
                budget: None,
                reshape: false,
                ignore_limits: false,
            },
        );
        assert!(matches!(
            out,
            NdcOutcome::Aborted {
                reason: AbortReason::OpNotAllowed,
                ..
            }
        ));
    }

    #[test]
    fn successful_resolution_at_cache_controller() {
        let mut m = machine();
        // Disable link buffers so the first-on-path is the cache bank.
        m.cfg.ndc.enabled_mask = ndc_types::NdcConfig::only(NdcLocation::CacheController);
        let core = NodeId(12);
        let (a_addr, b_addr) = same_bank_addrs(&m.cfg);
        let a = m.access(core, a_addr, 0, false, AccessIntent::NearData);
        let b = m.access(core, b_addr, 0, false, AccessIntent::NearData);
        let mut tables = ServiceTables::default();
        let out = resolve(
            &mut m,
            &mut tables,
            core,
            Op::Add,
            &a,
            &b,
            0,
            ResolveParams {
                policy: LocationPolicy::FirstOnPath,
                budget: None,
                reshape: false,
                ignore_limits: false,
            },
        );
        match out {
            NdcOutcome::Performed {
                loc,
                node,
                op_done,
                result_at_core,
                ..
            } => {
                assert_eq!(loc, NdcLocation::CacheController);
                assert_eq!(node, NodeId(0));
                assert!(result_at_core > op_done);
            }
            other => panic!("expected success, got {other:?}"),
        }
    }

    #[test]
    fn budget_exceeded_aborts_at_budget() {
        let mut m = machine();
        m.cfg.ndc.enabled_mask = ndc_types::NdcConfig::only(NdcLocation::CacheController);
        let core = NodeId(12);
        let (a_addr, b_addr) = same_bank_addrs(&m.cfg);
        let a = m.access(core, a_addr, 0, false, AccessIntent::NearData);
        // Operand b fetched much later: a big window.
        let b = m.access(core, b_addr, 5000, false, AccessIntent::NearData);
        let mut tables = ServiceTables::default();
        let out = resolve(
            &mut m,
            &mut tables,
            core,
            Op::Add,
            &a,
            &b,
            5000,
            ResolveParams {
                policy: LocationPolicy::FirstOnPath,
                budget: Some(10),
                reshape: false,
                ignore_limits: false,
            },
        );
        match out {
            NdcOutcome::Aborted { reason, at } => {
                assert_eq!(reason, AbortReason::BudgetExceeded);
                let l2a = a.l2.unwrap();
                assert_eq!(at, l2a.data_at_bank + 10);
            }
            other => panic!("expected abort, got {other:?}"),
        }
    }

    #[test]
    fn service_table_fills_up() {
        let mut m = machine();
        m.cfg.ndc.enabled_mask = ndc_types::NdcConfig::only(NdcLocation::CacheController);
        m.cfg.ndc.service_table_entries = 1;
        m.cfg.ndc.timeout = Some(100_000);
        let core = NodeId(12);
        let (a_addr, b_addr) = same_bank_addrs(&m.cfg);
        let mut tables = ServiceTables::default();
        // Fill the single slot with a far-future release.
        tables.insert(NdcLocation::CacheController, NodeId(0), 1_000_000);
        let a = m.access(core, a_addr, 0, false, AccessIntent::NearData);
        let b = m.access(core, b_addr, 0, false, AccessIntent::NearData);
        let out = resolve(
            &mut m,
            &mut tables,
            core,
            Op::Add,
            &a,
            &b,
            0,
            ResolveParams {
                policy: LocationPolicy::FirstOnPath,
                budget: None,
                reshape: false,
                ignore_limits: false,
            },
        );
        assert!(matches!(
            out,
            NdcOutcome::Aborted {
                reason: AbortReason::ServiceTableFull,
                ..
            }
        ));
    }

    #[test]
    fn windows_report_per_location() {
        let mut m = machine();
        let core = NodeId(12);
        // Same L2 home bank (multiple of 25 lines) AND same memory
        // controller (multiple of 4 pages): line 1600 = 409600 bytes.
        let (a_addr, b_addr) = (0u64, 1600 * m.cfg.l2.line_bytes);
        assert_eq!(m.cfg.l2_home(a_addr), m.cfg.l2_home(b_addr));
        assert_eq!(m.cfg.mc_of(a_addr), m.cfg.mc_of(b_addr));
        let a = m.access(core, a_addr, 0, false, AccessIntent::NearData);
        let b = m.access(core, b_addr, 40, false, AccessIntent::NearData);
        let w = windows_by_location(&m, core, &a, &b, false);
        // Same L2 bank: cache-controller window exists.
        assert!(w[NdcLocation::CacheController.index()].is_some());
        // Cold misses to the same MC: the MC window exists too.
        assert!(w[NdcLocation::MemoryController.index()].is_some());
    }

    /// Reshaped offloads on a 16×16 mesh (routes both within and past
    /// the 10-hop exhaustive bound) give the same outcomes and network
    /// counters whether every offload starts on an empty memo or the
    /// memo already holds every pair the run asks for.
    #[test]
    fn reshaped_offloads_match_on_cold_and_warm_memo() {
        let mut cfg = ArchConfig::with_mesh(16, 16);
        cfg.ndc.enabled_mask = ndc_types::NdcConfig::only(NdcLocation::LinkBuffer);
        let run = |memo: ReshapeMemo, cold: bool| {
            let mut m = Machine::new(cfg);
            m.reshaped = memo;
            let mut tables = ServiceTables::default();
            let mut g = ndc_types::SplitMix64::new(0x3e5a);
            let mut outcomes = Vec::new();
            for k in 0..400u64 {
                if cold {
                    m.reshaped = ReshapeMemo::default();
                }
                let core = NodeId(g.below(256) as u16);
                let line = m.cfg.l2.line_bytes;
                // A small address pool so pairs repeat across the run.
                let (a, b) = (g.below(48) * line, g.below(48) * line);
                let t = 40 * k;
                let pa = m.access(core, a, t, false, AccessIntent::NearData);
                let pb = m.access(core, b, t, false, AccessIntent::NearData);
                let params = ResolveParams {
                    policy: LocationPolicy::FirstOnPath,
                    budget: None,
                    reshape: true,
                    ignore_limits: true,
                };
                outcomes.push(resolve(
                    &mut m,
                    &mut tables,
                    core,
                    Op::Add,
                    &pa,
                    &pb,
                    t,
                    params,
                ));
            }
            let net = (m.net.messages, m.net.flit_hops, m.net.queueing_cycles);
            (outcomes, net, std::mem::take(&mut m.reshaped))
        };
        let (cold, cold_net, _) = run(ReshapeMemo::default(), true);
        let (_, _, warmed) = run(ReshapeMemo::default(), false);
        let pairs = warmed.len();
        let (warm, warm_net, after) = run(warmed, false);
        assert_eq!(after.len(), pairs, "the warm run found every pair memoized");
        assert_eq!(cold, warm);
        assert_eq!(cold_net, warm_net);
        let linked = cold
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    NdcOutcome::Performed {
                        loc: NdcLocation::LinkBuffer,
                        ..
                    }
                )
            })
            .count();
        assert!(linked > 0, "no offload met on a reshaped link");
    }

    #[test]
    fn breakeven_shrinks_with_distance() {
        let mut m = machine();
        let (a_addr, b_addr) = same_bank_addrs(&m.cfg);
        // Core far from bank 0 (node 24) vs adjacent core (node 1).
        let far = NodeId(24);
        let a = m.access(far, a_addr, 0, false, AccessIntent::NearData);
        let b = m.access(far, b_addr, 0, false, AccessIntent::NearData);
        let conv_done = 500;
        let be_far = breakeven_by_location(&m, far, &a, &b, conv_done)
            [NdcLocation::CacheController.index()]
        .unwrap();
        let near = NodeId(1);
        let be_near = breakeven_by_location(&m, near, &a, &b, conv_done)
            [NdcLocation::CacheController.index()]
        .unwrap();
        // The far core pays more for the result return, so its
        // breakeven is smaller.
        assert!(be_far < be_near);
    }
}
