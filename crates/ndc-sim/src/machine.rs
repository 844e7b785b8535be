//! The memory system walk.
//!
//! [`Machine::access_into`] models one data access's full journey: L1
//! probe, request over the NoC to the address's static-NUCA home L2
//! bank, on a miss a request to the owning memory controller and its
//! DRAM banks, the refill back to the bank, and (for conventional
//! accesses) the data reply to the requesting core. The filled
//! [`AccessPath`] carries per-location presence timestamps — the raw
//! material both for the paper's arrival-window instrumentation
//! (Figure 2) and for NDC package resolution. The engine reuses its
//! paths from one access to the next, so a steady-state access walks
//! the hierarchy without touching the heap.

use crate::ndc::ReshapeMemo;
use ndc_mem::{AccessOutcome, MemoryController, RowOutcome, SetAssocCache, SharerFilter};
use ndc_noc::{Delivery, LinkId, LinkTraversal, Mesh, Network};
use ndc_obs::ledger::AttributionLedger;
use ndc_obs::span::{Span, SpanSampler, SpanTrace, QUEUE, STALL};
use ndc_obs::{chk, Event};
use ndc_types::{Addr, ArchConfig, Cycle, NodeId};

/// Size in bytes of a request message (address + command).
pub const REQ_BYTES: u64 = 16;
/// Size in bytes of an NDC result / CPU-feed message.
pub const RESULT_BYTES: u64 = 16;

/// The L2 leg of an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Leg {
    /// Home bank (static NUCA, line-interleaved).
    pub bank: NodeId,
    /// When the request reached the bank's controller.
    pub req_arrival: Cycle,
    pub hit: bool,
    /// When the data was available at the bank: `req_arrival + latency`
    /// on a hit, refill arrival on a miss. This is the operand's
    /// "arrival at the cache controller" for window purposes.
    pub data_at_bank: Cycle,
}

/// The memory leg of an access (L2 miss).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemLeg {
    pub mc: u32,
    pub mc_node: NodeId,
    /// Arrival in the controller queue — the operand's "arrival at the
    /// memory controller".
    pub queue_enter: Cycle,
    /// DRAM bank service start — the operand's "arrival at the memory
    /// bank".
    pub service_start: Cycle,
    /// Data leaves the device.
    pub completion: Cycle,
    pub dram_bank: u32,
    /// Row-buffer outcome of the DRAM access.
    pub row: RowOutcome,
}

/// Complete record of one access.
#[derive(Debug, Clone, Default)]
pub struct AccessPath {
    pub addr: Addr,
    pub core: NodeId,
    pub issued: Cycle,
    /// When the data reached its destination (core for conventional
    /// accesses; the L2 bank for NDC operand fetches).
    pub completion: Cycle,
    pub l1_hit: bool,
    /// This access missed L1 because of a prior invalidation.
    pub coherence_miss: bool,
    pub l2: Option<L2Leg>,
    pub mem: Option<MemLeg>,
    /// Data-carrying link traversals (refill + reply legs): where this
    /// operand's *data* was present on the network, for link-buffer
    /// window measurement.
    pub data_links: Vec<LinkTraversal>,
    /// Request-leg link traversals (core → home L2 bank). Recorded only
    /// while span tracing is on, the one reader of request legs.
    pub req_links: Vec<LinkTraversal>,
    /// MC-request-leg link traversals (home bank → memory controller).
    /// Recorded only while span tracing is on.
    pub mc_links: Vec<LinkTraversal>,
    /// How many of `data_links` belong to the refill leg (MC → bank);
    /// the rest are the reply leg (bank → core).
    pub refill_links: usize,
}

impl AccessPath {
    pub fn latency(&self) -> Cycle {
        self.completion - self.issued
    }

    /// Start a fresh record of an access issued at `now`, keeping the
    /// hop buffers' capacity.
    fn reset(&mut self, core: NodeId, addr: Addr, now: Cycle) {
        self.addr = addr;
        self.core = core;
        self.issued = now;
        self.completion = now;
        self.l1_hit = false;
        self.coherence_miss = false;
        self.l2 = None;
        self.mem = None;
        self.data_links.clear();
        self.req_links.clear();
        self.mc_links.clear();
        self.refill_links = 0;
    }
}

/// How far the data should travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessIntent {
    /// Conventional demand access: data comes to the core and fills L1.
    ToCore,
    /// NDC operand fetch: data converges at its home L2 bank (or DRAM);
    /// no L1 fill, no reply to the core.
    NearData,
}

/// Records the request-path half of the check-event contract
/// (`ndc_obs::chk`): each completed [`AccessPath`] becomes one freshly
/// numbered request whose presence timestamps are replayed as
/// `chk:req` events in path order. The invariant checker later asserts
/// each request id retires exactly once with monotonic timestamps.
#[derive(Debug, Default)]
pub struct CheckRecorder {
    events: Vec<Event>,
    next_id: u32,
}

impl CheckRecorder {
    fn push(&mut self, name: &'static str, ts: Cycle, pid: u32, tid: u32) {
        self.events.push(Event {
            name: name.to_string(),
            cat: chk::CAT_REQ,
            ts,
            dur: 0,
            pid,
            tid,
        });
    }

    /// Replay one access's presence timestamps as check events.
    pub fn record_path(&mut self, path: &AccessPath) {
        let id = self.next_id;
        self.next_id += 1;
        let core = path.core.index() as u32;
        self.push(chk::ISSUE, path.issued, id, core);
        if let Some(l2) = &path.l2 {
            self.push(chk::L2_REQ, l2.req_arrival, id, core);
            if let Some(mem) = &path.mem {
                self.push(chk::MEM_QUEUE, mem.queue_enter, id, core);
                self.push(chk::MEM_SERVICE, mem.service_start, id, core);
                self.push(chk::MEM_DONE, mem.completion, id, core);
            }
            self.push(chk::DATA_AT_BANK, l2.data_at_bank, id, core);
        }
        self.push(chk::RETIRE, path.completion, id, core);
    }

    /// Requests recorded so far.
    pub fn requests(&self) -> u32 {
        self.next_id
    }

    pub fn events(&self) -> &[Event] {
        &self.events
    }

    pub fn into_events(self) -> Vec<Event> {
        self.events
    }
}

/// Seed of the span sampler: fixed so the sampled-request set is a
/// property of the run, not of the environment.
pub const SPAN_SEED: u64 = 0x005e_ed0f_5a2a_2021;

/// Builds exact-partition span trees ([`ndc_obs::span`]) from completed
/// [`AccessPath`]s. Requests are numbered in issue order (identical at
/// any thread count — each simulation is single-threaded) and sampled
/// deterministically by id, so the collected traces are byte-identical
/// across `NDC_THREADS`.
#[derive(Debug)]
pub struct SpanRecorder {
    sampler: SpanSampler,
    traces: Vec<SpanTrace>,
    next_id: u64,
    l1_latency: Cycle,
    l2_latency: Cycle,
}

impl SpanRecorder {
    pub fn new(cfg: &ArchConfig, one_in: u32) -> SpanRecorder {
        SpanRecorder {
            sampler: SpanSampler::new(SPAN_SEED, one_in),
            traces: Vec::new(),
            next_id: 0,
            l1_latency: cfg.l1.latency,
            l2_latency: cfg.l2.latency,
        }
    }

    /// Turn one access path into a span tree, if its id is sampled.
    ///
    /// Construction mirrors the timing chain of
    /// [`Machine::access`] exactly — `traverse` guarantees each hop's
    /// entry is at or after the previous hop's exit, and the DRAM
    /// queue-enter equals the MC-request arrival — so every child
    /// level tiles its parent with only labelled `queue`/`stall`
    /// residue (the invariant `ndc-check` asserts).
    pub fn record_path(&mut self, path: &AccessPath) {
        let id = self.next_id;
        self.next_id += 1;
        if !self.sampler.keep(id) {
            return;
        }
        let mut root = Span::new("req", path.issued, path.completion);
        if path.l1_hit {
            root.leaf("l1", path.issued, path.completion);
        } else {
            root.leaf("l1", path.issued, path.issued + self.l1_latency);
            if let Some(l2) = &path.l2 {
                push_noc_span(
                    &mut root,
                    "noc:req",
                    path.issued + self.l1_latency,
                    l2.req_arrival,
                    &path.req_links,
                );
                root.leaf("l2", l2.req_arrival, l2.req_arrival + self.l2_latency);
                if let Some(mem) = &path.mem {
                    push_noc_span(
                        &mut root,
                        "noc:mc_req",
                        l2.req_arrival + self.l2_latency,
                        mem.queue_enter,
                        &path.mc_links,
                    );
                    let mut mc = Span::new("mc", mem.queue_enter, mem.completion);
                    mc.leaf(
                        format!("dram:{}", mem.row.label()),
                        mem.service_start,
                        mem.completion,
                    );
                    mc.fill_residue(QUEUE);
                    root.push(mc);
                    push_noc_span(
                        &mut root,
                        "noc:refill",
                        mem.completion,
                        l2.data_at_bank,
                        &path.data_links[..path.refill_links],
                    );
                }
                if path.completion > l2.data_at_bank {
                    // Conventional reply: bank → core, then the L1 fill.
                    push_noc_span(
                        &mut root,
                        "noc:reply",
                        l2.data_at_bank,
                        path.completion - self.l1_latency,
                        &path.data_links[path.refill_links..],
                    );
                    root.leaf("l1", path.completion - self.l1_latency, path.completion);
                }
            }
        }
        // The chain above is gap-free by construction; any residue an
        // edge case leaves is attributed explicitly, never lost.
        root.fill_residue(STALL);
        self.traces.push(SpanTrace {
            id,
            core: path.core.index() as u32,
            addr: path.addr,
            root,
        });
    }

    /// Record one NDC execution as a pre-built root span (the engine
    /// owns offload timing; the recorder owns ids and sampling). The
    /// span is sampled under the same id space as memory requests.
    pub fn record_span(&mut self, core: u32, root: Span) {
        let id = self.next_id;
        self.next_id += 1;
        if !self.sampler.keep(id) {
            return;
        }
        let mut root = root;
        root.fill_residue(STALL);
        self.traces.push(SpanTrace {
            id,
            core,
            addr: 0,
            root,
        });
    }

    /// Requests considered so far (sampled or not).
    pub fn requests(&self) -> u64 {
        self.next_id
    }

    pub fn traces(&self) -> &[SpanTrace] {
        &self.traces
    }

    pub fn into_traces(self) -> Vec<SpanTrace> {
        self.traces
    }
}

/// Append a `label` span covering `[start, end)` whose children are the
/// given link hops plus explicit `queue` residue. Zero-width legs
/// (zero-hop routes) are skipped entirely.
fn push_noc_span(
    parent: &mut Span,
    label: &str,
    start: Cycle,
    end: Cycle,
    links: &[LinkTraversal],
) {
    if start == end && links.is_empty() {
        return;
    }
    let mut noc = Span::new(label, start, end);
    for l in links {
        noc.leaf(format!("link:{}", l.link.index()), l.enter, l.exit);
    }
    noc.fill_residue(QUEUE);
    parent.push(noc);
}

/// Tenant-attribution state: per-core owners plus the ledger every
/// simulated cost is charged to. Boxed and `None` by default so the
/// hot path pays one branch when attribution is off.
#[derive(Debug)]
pub struct AttrState {
    /// Owning tenant per core, indexed by `NodeId`.
    tenants: Vec<u16>,
    /// Tenant currently on the hook — set from the issuing core at the
    /// top of [`Machine::access`] and by [`Machine::attribute_to`]
    /// before component-side work (NDC resolution).
    current: u16,
    pub ledger: AttributionLedger,
}

/// The simulated machine: caches, coherence, network, controllers.
pub struct Machine {
    pub cfg: ArchConfig,
    pub net: Network,
    pub l1s: Vec<SetAssocCache>,
    pub l2s: Vec<SetAssocCache>,
    /// L1 coherence: which L1s a write must look in, and the directory
    /// counters.
    pub sharers: SharerFilter,
    pub mcs: Vec<MemoryController>,
    /// Check-event recorder; `None` (the default) keeps `access` on its
    /// original path apart from one branch.
    pub chk: Option<CheckRecorder>,
    /// Span-trace recorder; `None` (the default) costs one branch.
    pub spans: Option<SpanRecorder>,
    /// Attribution ledger; `None` (the default) costs one branch per
    /// charge site. Charging never reads simulated time, so enabling it
    /// cannot perturb results.
    pub attr: Option<Box<AttrState>>,
    /// Reshaped reply routes selected so far in this run.
    pub(crate) reshaped: ReshapeMemo,
}

impl Machine {
    pub fn new(cfg: ArchConfig) -> Self {
        Self::with_sharers(cfg, SharerFilter::new(cfg.l1, cfg.nodes()))
    }

    /// A machine for the lane engine, which runs its cores' L1 accesses
    /// on the lanes and tracks their sharers in its own directory: the
    /// sharer filter is left empty, so [`Machine::access`] must not run
    /// a demand L1 access on it.
    pub(crate) fn for_lanes(cfg: ArchConfig) -> Self {
        Self::with_sharers(cfg, SharerFilter::empty())
    }

    fn with_sharers(cfg: ArchConfig, sharers: SharerFilter) -> Self {
        let mesh = Mesh::new(cfg.noc);
        let nodes = cfg.nodes();
        Machine {
            cfg,
            net: Network::new(mesh),
            l1s: (0..nodes).map(|_| SetAssocCache::new(cfg.l1)).collect(),
            l2s: (0..nodes).map(|_| SetAssocCache::new(cfg.l2)).collect(),
            sharers,
            mcs: (0..cfg.mem.num_controllers)
                .map(|_| MemoryController::new(cfg))
                .collect(),
            chk: None,
            spans: None,
            attr: None,
            reshaped: ReshapeMemo::default(),
        }
    }

    /// Switch on check-event recording (idempotent): every access path
    /// is replayed into the `chk:req` stream and the network's flit log
    /// starts collecting `chk:link` pairs.
    pub fn enable_check(&mut self) {
        if self.chk.is_none() {
            self.chk = Some(CheckRecorder::default());
        }
        self.net.enable_check_log();
    }

    /// Switch on span tracing (idempotent): one request in `one_in` is
    /// sampled deterministically by id and its full path recorded as an
    /// exact-partition span tree. Accesses record their request-leg hops
    /// from here on.
    pub fn enable_spans(&mut self, one_in: u32) {
        if self.spans.is_none() {
            self.spans = Some(SpanRecorder::new(&self.cfg, one_in));
        }
    }

    /// Switch on the attribution ledger (idempotent). `tenants[c]` is
    /// the owner of core `c`; missing entries default to tenant 0, so
    /// an empty vector gives the single-tenant world where the ledger's
    /// single row must equal the global counters exactly.
    pub fn enable_ledger(&mut self, mut tenants: Vec<u16>) {
        if self.attr.is_some() {
            return;
        }
        tenants.resize(self.cfg.nodes(), 0);
        let rows = tenants.iter().map(|&t| t as usize + 1).max().unwrap_or(1);
        self.attr = Some(Box::new(AttrState {
            current: tenants.first().copied().unwrap_or(0),
            ledger: AttributionLedger::new(rows),
            tenants,
        }));
    }

    /// Charge subsequent machine work (messages, DRAM) to `core`'s
    /// tenant. Called by NDC resolution before component-side sends;
    /// [`Machine::access`] sets this itself from its own core argument.
    pub fn attribute_to(&mut self, core: NodeId) {
        if let Some(a) = &mut self.attr {
            a.current = a.tenants[core.index()];
        }
    }

    /// Take the finished ledger (leaves attribution disabled).
    pub fn take_ledger(&mut self) -> Option<AttributionLedger> {
        self.attr.take().map(|a| a.ledger)
    }

    #[inline]
    fn charge_traverse(&mut self, flit_hops: u64) {
        if let Some(a) = &mut self.attr {
            a.ledger.charge_traverse(a.current, flit_hops);
        }
    }

    #[inline]
    fn charge_dram(&mut self) {
        let bytes = self.cfg.l2.line_bytes;
        if let Some(a) = &mut self.attr {
            a.ledger.charge_dram(a.current, bytes);
        }
    }

    /// Charge one performed NDC offload to `core`'s tenant, decomposed
    /// into gather/wait/exec/feed (engine-side call, next to the span
    /// recorder's `record_ndc_span`).
    #[allow(clippy::too_many_arguments)]
    pub fn charge_ndc(
        &mut self,
        core: NodeId,
        loc: usize,
        issue: Cycle,
        wait: Cycle,
        op_done: Cycle,
        exec_cycles: Cycle,
        result_at_core: Cycle,
    ) {
        if let Some(a) = &mut self.attr {
            let t = a.tenants[core.index()];
            a.ledger
                .charge_ndc(t, loc, issue, wait, op_done, exec_cycles, result_at_core);
        }
    }

    pub fn mesh(&self) -> &Mesh {
        self.net.mesh()
    }

    /// Walk one access through the hierarchy into a fresh path.
    pub fn access(
        &mut self,
        core: NodeId,
        addr: Addr,
        now: Cycle,
        write: bool,
        intent: AccessIntent,
    ) -> AccessPath {
        let mut path = AccessPath::default();
        self.access_into(&mut path, core, addr, now, write, intent);
        path
    }

    /// Walk one access through the hierarchy, overwriting `path`. Reusing
    /// one path across accesses keeps its hop buffers, so a steady-state
    /// access allocates nothing.
    pub fn access_into(
        &mut self,
        path: &mut AccessPath,
        core: NodeId,
        addr: Addr,
        now: Cycle,
        write: bool,
        intent: AccessIntent,
    ) {
        self.attribute_to(core);
        path.reset(core, addr, now);
        self.walk(path, write, intent);
        if let Some(a) = &mut self.attr {
            let q = path.mem.as_ref().map(|m| m.service_start - m.queue_enter);
            a.ledger.charge_request(a.current, path.latency(), q);
        }
        if let Some(chk) = &mut self.chk {
            chk.record_path(path);
        }
        if let Some(spans) = &mut self.spans {
            spans.record_path(path);
        }
    }

    /// Send one message along the XY route `from → to`, charging the
    /// current tenant; hop records go to `hops` when supplied.
    fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        t: Cycle,
        bytes: u64,
        hops: Option<&mut Vec<LinkTraversal>>,
    ) -> Cycle {
        let width = self.cfg.noc.width;
        let sent = self
            .net
            .send_xy(from.coord(width), to.coord(width), t, bytes, hops);
        self.charge_traverse(sent.flit_hops);
        sent.arrived
    }

    fn walk(&mut self, path: &mut AccessPath, write: bool, intent: AccessIntent) {
        let (core, addr, now) = (path.core, path.addr, path.issued);
        let l1_latency = self.cfg.l1.latency;
        let l1_line = self.l1s[core.index()].line_addr(addr);

        // --- L1 ---
        match intent {
            AccessIntent::ToCore => match self.l1s[core.index()].access(addr, now, write) {
                AccessOutcome::Hit { .. } => {
                    path.l1_hit = true;
                    path.completion = now + l1_latency;
                    if write {
                        self.sharers.write_by(&mut self.l1s, l1_line, core.index());
                    }
                    return;
                }
                AccessOutcome::Miss { evicted, coherence } => {
                    path.coherence_miss = coherence;
                    let l1 = &self.l1s[core.index()];
                    self.sharers.fill(l1, core.index(), l1_line, evicted, write);
                }
            },
            AccessIntent::NearData => {
                // The LD/ST unit probed before offloading; a resident
                // line means the caller should not have offloaded. Treat
                // defensively as a local hit.
                if self.l1s[core.index()].probe(addr) {
                    path.l1_hit = true;
                    path.completion = now + l1_latency;
                    return;
                }
            }
        }

        // Request legs are read only by the span recorder; data legs
        // feed link-buffer meetings too, so they are always recorded.
        let trace_requests = self.spans.is_some();

        // --- Request to the home L2 bank ---
        let home = self.cfg.l2_home(addr);
        let req_hops = trace_requests.then_some(&mut path.req_links);
        let req_arrival = self.send(core, home, now + l1_latency, REQ_BYTES, req_hops);

        // --- L2 bank ---
        let l2_latency = self.cfg.l2.latency;
        let (l2_hit, data_at_bank) = match self.l2s[home.index()].access(addr, req_arrival, write) {
            AccessOutcome::Hit { .. } => (true, req_arrival + l2_latency),
            AccessOutcome::Miss { .. } => {
                // --- Memory controller + DRAM ---
                let mc = self.cfg.mc_of(addr);
                let mc_node = self.cfg.mc_node(mc);
                let mc_hops = trace_requests.then_some(&mut path.mc_links);
                let mc_arrival =
                    self.send(home, mc_node, req_arrival + l2_latency, REQ_BYTES, mc_hops);
                let dram = self.mcs[mc as usize].request(addr, mc_arrival);
                self.charge_dram();
                // Refill back to the bank (carries the L2 line).
                let line = self.cfg.l2.line_bytes;
                let refilled = self.send(
                    mc_node,
                    home,
                    dram.completion,
                    line,
                    Some(&mut path.data_links),
                );
                path.refill_links = path.data_links.len();
                path.mem = Some(MemLeg {
                    mc,
                    mc_node,
                    queue_enter: dram.queue_enter,
                    service_start: dram.service_start,
                    completion: dram.completion,
                    dram_bank: dram.bank,
                    row: dram.row,
                });
                (false, refilled)
            }
        };
        path.l2 = Some(L2Leg {
            bank: home,
            req_arrival,
            hit: l2_hit,
            data_at_bank,
        });

        match intent {
            AccessIntent::NearData => {
                path.completion = data_at_bank;
            }
            AccessIntent::ToCore => {
                // --- Data reply to the core ---
                let line = self.cfg.l1.line_bytes;
                let replied = self.send(home, core, data_at_bank, line, Some(&mut path.data_links));
                path.completion = replied + l1_latency;
                if write {
                    self.sharers.write_by(&mut self.l1s, l1_line, core.index());
                }
            }
        }
    }

    /// Send a small point-to-point message (NDC result / CPU-feed) and
    /// return its arrival time.
    pub fn send_result(&mut self, from: NodeId, to: NodeId, t: Cycle) -> Cycle {
        self.send(from, to, t, RESULT_BYTES, None)
    }

    /// Charge the network for a data message along an explicit route
    /// prefix (NDC meeting at an intermediate router).
    pub fn send_data_along(
        &mut self,
        links: impl IntoIterator<Item = LinkId>,
        t: Cycle,
        bytes: u64,
    ) -> Delivery {
        let sent = self.net.send(links, t, bytes, None);
        self.charge_traverse(sent.flit_hops);
        sent
    }

    /// Uncontended one-way latency between two nodes (static estimates).
    pub fn hop_latency(&self, a: NodeId, b: NodeId) -> Cycle {
        let width = self.cfg.noc.width;
        let hops = a.coord(width).manhattan(b.coord(width));
        self.net.uncontended_latency(hops)
    }

    /// Aggregate L1 statistics over all cores.
    pub fn l1_totals(&self) -> ndc_mem::CacheStats {
        let mut agg = ndc_mem::CacheStats::default();
        for c in &self.l1s {
            agg.hits += c.stats.hits;
            agg.misses += c.stats.misses;
            agg.coherence_misses += c.stats.coherence_misses;
            agg.evictions += c.stats.evictions;
            agg.invalidations += c.stats.invalidations;
        }
        agg
    }

    /// Aggregate L2 statistics over all banks.
    pub fn l2_totals(&self) -> ndc_mem::CacheStats {
        let mut agg = ndc_mem::CacheStats::default();
        for c in &self.l2s {
            agg.hits += c.stats.hits;
            agg.misses += c.stats.misses;
            agg.coherence_misses += c.stats.coherence_misses;
            agg.evictions += c.stats.evictions;
            agg.invalidations += c.stats.invalidations;
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndc_mem::DirStats;

    fn machine() -> Machine {
        Machine::new(ArchConfig::paper_default())
    }

    #[test]
    fn cold_access_walks_full_path() {
        let mut m = machine();
        let core = NodeId(12); // center of the 5x5 mesh
        let p = m.access(core, 0x10000, 0, false, AccessIntent::ToCore);
        assert!(!p.l1_hit);
        let l2 = p.l2.expect("L2 leg");
        assert!(!l2.hit);
        assert!(p.mem.is_some());
        // Completion after DRAM + two network legs + latencies.
        assert!(p.completion > 100, "completion {}", p.completion);
        assert!(!p.data_links.is_empty());
    }

    #[test]
    fn second_access_hits_l1() {
        let mut m = machine();
        let core = NodeId(12);
        let first = m.access(core, 0x10000, 0, false, AccessIntent::ToCore);
        let second = m.access(core, 0x10008, first.completion, false, AccessIntent::ToCore);
        assert!(second.l1_hit);
        assert_eq!(second.latency(), m.cfg.l1.latency);
    }

    #[test]
    fn l2_hit_from_another_core() {
        let mut m = machine();
        let a = m.access(NodeId(0), 0x10000, 0, false, AccessIntent::ToCore);
        // Another core, different L1, same L2 home bank: L2 hit.
        let b = m.access(
            NodeId(24),
            0x10000,
            a.completion,
            false,
            AccessIntent::ToCore,
        );
        assert!(!b.l1_hit);
        let l2 = b.l2.unwrap();
        assert!(l2.hit);
        assert!(b.mem.is_none());
        assert!(b.completion < a.completion + 200);
    }

    #[test]
    fn near_data_intent_stops_at_bank_and_skips_l1_fill() {
        let mut m = machine();
        let core = NodeId(12);
        let addr = 0x20000;
        let p = m.access(core, addr, 0, false, AccessIntent::NearData);
        assert!(!p.l1_hit);
        let l2 = p.l2.unwrap();
        assert_eq!(p.completion, l2.data_at_bank);
        // L1 must NOT hold the line afterwards.
        assert!(!m.l1s[core.index()].probe(addr));
        // But the L2 bank does.
        assert!(m.l2s[l2.bank.index()].probe(addr));
    }

    #[test]
    fn near_data_on_local_line_degenerates_to_l1_hit() {
        let mut m = machine();
        let core = NodeId(3);
        m.access(core, 0x30000, 0, false, AccessIntent::ToCore);
        let p = m.access(core, 0x30000, 1000, false, AccessIntent::NearData);
        assert!(p.l1_hit);
    }

    #[test]
    fn write_invalidates_remote_sharers() {
        let mut m = machine();
        let addr = 0x40000;
        m.access(NodeId(1), addr, 0, false, AccessIntent::ToCore);
        m.access(NodeId(2), addr, 500, false, AccessIntent::ToCore);
        assert!(m.l1s[1].probe(addr));
        assert!(m.l1s[2].probe(addr));
        // Core 3 writes: both readers lose their copies.
        m.access(NodeId(3), addr, 1000, true, AccessIntent::ToCore);
        assert!(!m.l1s[1].probe(addr));
        assert!(!m.l1s[2].probe(addr));
        // Their next access is a coherence miss.
        let p = m.access(NodeId(1), addr, 1500, false, AccessIntent::ToCore);
        assert!(p.coherence_miss);
    }

    /// Drive one seeded stream of reads, writes and near-data fetches
    /// through a machine and check the sharer filter against a full-map
    /// reference directory fed the same fill, eviction and write
    /// events: after every access the directory counters, and after
    /// every write the invalidated cores, must agree, and every filter
    /// bit must be set exactly when its core's L1 holds a line of that
    /// set and residue. Returns the stream's directory counters.
    fn check_sharers_against_directory(cfg: ArchConfig, seed: u64, ops: usize) -> DirStats {
        let mut m = Machine::new(cfg);
        let mut dir = ndc_mem::Directory::new();
        let mut g = ndc_types::SplitMix64::new(seed);
        let nodes = cfg.nodes();
        // Six cores share a small line pool; on the 16×16 mesh they
        // spread past core 63.
        let cores: Vec<usize> = (0..6).map(|_| g.below(nodes as u64) as usize).collect();
        let (line_bytes, sets) = (cfg.l1.line_bytes, cfg.l1.sets());
        // Three L1 sets, and tags whose residues mod 64 collide, so a
        // set can hold two lines of one residue.
        let used_sets = [0, 1, sets - 1];
        let tags = [0, 1, 64, 65, 128, 2];
        let filter_matches_l1s = |m: &Machine, cores: &mut dyn Iterator<Item = usize>| {
            for c in cores {
                for &set in &used_sets {
                    let set = set as usize;
                    for r in 0..64 {
                        let held = m.l1s[c].valid_tags(set).any(|t| t % 64 == r);
                        assert_eq!(
                            m.sharers.marks(c, set, r),
                            held,
                            "core {c} set {set} residue {r}"
                        );
                    }
                }
            }
        };
        for op in 0..ops {
            let core = cores[g.below(cores.len() as u64) as usize];
            let set = used_sets[g.below(3) as usize];
            let tag = tags[g.below(tags.len() as u64) as usize];
            let line = (tag * sets + set) * line_bytes;
            let addr = line + g.below(line_bytes);
            let kind = g.below(8);
            let write = (4..6).contains(&kind);
            let intent = if kind >= 6 {
                AccessIntent::NearData
            } else {
                AccessIntent::ToCore
            };
            let (l1_set, _) = m.l1s[core].locate(line);
            let before: Vec<u64> = m.l1s[core].valid_tags(l1_set).collect();
            let held: Vec<bool> = m.l1s.iter().map(|l1| l1.probe(line)).collect();
            let p = m.access(NodeId(core as u16), addr, 20 * op as Cycle, write, intent);
            if intent == AccessIntent::ToCore {
                if !p.l1_hit {
                    let after: Vec<u64> = m.l1s[core].valid_tags(l1_set).collect();
                    for ev in before.iter().filter(|t| !after.contains(t)) {
                        dir.remove_sharer((ev * sets + l1_set as u64) * line_bytes, core);
                    }
                }
                if write {
                    let expected: Vec<usize> = dir.write_by(line, core).collect();
                    let invalidated: Vec<usize> = (0..nodes)
                        .filter(|&c| held[c] && !m.l1s[c].probe(line))
                        .collect();
                    assert_eq!(invalidated, expected, "seed {seed} op {op}");
                } else if !p.l1_hit {
                    dir.add_sharer(line, core);
                }
            }
            assert_eq!(m.sharers.stats, dir.stats, "seed {seed} op {op}");
            filter_matches_l1s(&m, &mut cores.iter().copied());
        }
        filter_matches_l1s(&m, &mut (0..nodes));
        dir.stats
    }

    #[test]
    fn sharer_filter_matches_reference_directory() {
        let meshes = [ArchConfig::paper_default(), ArchConfig::with_mesh(16, 16)];
        let mut contended = [0; 2];
        for seed in 0..256 {
            let stats = check_sharers_against_directory(meshes[seed % 2], seed as u64, 160);
            contended[seed % 2] += stats.contended_writes;
        }
        // The streams exercised invalidation on both meshes.
        assert!(contended.iter().all(|&n| n > 0), "{contended:?}");
    }

    #[test]
    fn presence_timestamps_are_ordered() {
        let mut m = machine();
        let p = m.access(NodeId(7), 0x50000, 10, false, AccessIntent::ToCore);
        let l2 = p.l2.unwrap();
        let mem = p.mem.unwrap();
        assert!(p.issued <= l2.req_arrival);
        assert!(l2.req_arrival <= mem.queue_enter);
        assert!(mem.queue_enter <= mem.service_start);
        assert!(mem.service_start < mem.completion);
        assert!(mem.completion <= l2.data_at_bank);
        assert!(l2.data_at_bank <= p.completion);
    }

    #[test]
    fn home_bank_matches_config() {
        let mut m = machine();
        let addr = 0x1234_5678;
        let p = m.access(NodeId(0), addr, 0, false, AccessIntent::ToCore);
        assert_eq!(p.l2.unwrap().bank, m.cfg.l2_home(addr));
        let mem = p.mem.unwrap();
        assert_eq!(mem.mc, m.cfg.mc_of(addr));
        assert_eq!(mem.mc_node, m.cfg.mc_node(mem.mc));
    }

    #[test]
    fn send_result_latency_scales_with_distance() {
        let mut m = machine();
        let t_near = m.send_result(NodeId(0), NodeId(1), 0);
        assert_eq!(t_near, 3);
        // Fresh network: an uncontended far send pays hops * pipeline.
        m.net.reset();
        let t_far = m.send_result(NodeId(0), NodeId(24), 0);
        assert_eq!(t_far, 8 * 3);
    }

    #[test]
    fn check_recorder_replays_path_timestamps_in_order() {
        let mut m = machine();
        m.enable_check();
        // Cold miss: full issue→l2→mem→bank→retire chain.
        let p = m.access(NodeId(7), 0x50000, 10, false, AccessIntent::ToCore);
        // Warm L1 hit: just issue→retire.
        m.access(
            NodeId(7),
            0x50000,
            p.completion,
            false,
            AccessIntent::ToCore,
        );
        let rec = m.chk.as_ref().unwrap();
        assert_eq!(rec.requests(), 2);
        let evs = rec.events();
        assert_eq!(evs[0].name, chk::ISSUE);
        assert_eq!(evs[0].pid, 0);
        let retire0 = evs.iter().position(|e| e.name == chk::RETIRE).unwrap();
        // Monotonic along the first request's path.
        for w in evs[..=retire0].windows(2) {
            assert!(w[0].ts <= w[1].ts, "{w:?}");
        }
        // Second request: fresh id, issue then retire only.
        assert_eq!(evs[retire0 + 1].name, chk::ISSUE);
        assert_eq!(evs[retire0 + 1].pid, 1);
        assert_eq!(evs.last().unwrap().name, chk::RETIRE);
        // The network flit log is on too.
        assert!(!m.net.check_log().unwrap().is_empty());
    }

    #[test]
    fn span_recorder_partitions_every_sampled_path_exactly() {
        let mut m = machine();
        m.enable_spans(1); // sample everything
        let cold = m.access(NodeId(7), 0x50000, 10, false, AccessIntent::ToCore);
        m.access(
            NodeId(7),
            0x50000,
            cold.completion,
            false,
            AccessIntent::ToCore,
        ); // L1 hit
        m.access(NodeId(3), 0x60000, 20, false, AccessIntent::NearData);
        let rec = m.spans.as_ref().unwrap();
        assert_eq!(rec.requests(), 3);
        assert_eq!(rec.traces().len(), 3);
        for t in rec.traces() {
            assert_eq!(t.root.partition_violation(), None, "{t:?}");
        }
        // The cold miss went through DRAM: its tree names the full
        // path, ending with the L1 fill.
        let full = &rec.traces()[0];
        assert_eq!(full.root.start, cold.issued);
        assert_eq!(full.root.end, cold.completion);
        let labels: Vec<&str> = full
            .root
            .children
            .iter()
            .map(|c| c.label.as_str())
            .collect();
        assert_eq!(
            labels,
            [
                "l1",
                "noc:req",
                "l2",
                "noc:mc_req",
                "mc",
                "noc:refill",
                "noc:reply",
                "l1"
            ]
        );
        let mc = &full.root.children[4];
        assert!(mc.children.iter().any(|c| c.label.starts_with("dram:")));
        // The L1 hit is one leaf covering the whole request.
        let hit = &rec.traces()[1];
        assert_eq!(hit.root.children.len(), 1);
        assert_eq!(hit.root.children[0].label, "l1");
        // NearData ends at the bank: no reply leg.
        let near = &rec.traces()[2];
        assert!(!near.root.children.iter().any(|c| c.label == "noc:reply"));
    }

    #[test]
    fn span_sampling_thins_but_keeps_ids_stable() {
        let run = |one_in: u32| -> Vec<u64> {
            let mut m = machine();
            m.enable_spans(one_in);
            for i in 0..64u64 {
                m.access(
                    NodeId((i % 25) as u16),
                    0x1000 * i,
                    i * 10,
                    false,
                    AccessIntent::ToCore,
                );
            }
            m.spans
                .unwrap()
                .into_traces()
                .iter()
                .map(|t| t.id)
                .collect()
        };
        let all = run(1);
        assert_eq!(all.len(), 64);
        let sampled = run(4);
        assert!(sampled.len() < 64 && !sampled.is_empty());
        // Sampled ids are a subset of the full id space, stable per run.
        assert_eq!(sampled, run(4));
    }

    #[test]
    fn ledger_conserves_machine_counters() {
        let mut m = machine();
        m.enable_ledger(Vec::new()); // single-tenant default
        for i in 0..12u64 {
            m.access(
                NodeId((i % 25) as u16),
                0x1000 * i,
                i * 50,
                i % 3 == 0,
                AccessIntent::ToCore,
            );
        }
        m.send_result(NodeId(0), NodeId(24), 2500);
        let led = m.take_ledger().unwrap();
        assert_eq!(led.num_tenants(), 1);
        let row = &led.rows()[0];
        assert_eq!(row.noc_messages, m.net.messages);
        assert_eq!(row.noc_flit_hops, m.net.flit_hops);
        let dram: u64 = m.mcs.iter().map(|mc| mc.stats.bytes).sum();
        assert_eq!(row.dram_bytes, dram);
        assert_eq!(row.requests, 12);
        assert_eq!(row.latency.count(), 12);
    }

    #[test]
    fn ledger_splits_by_core_tenant() {
        // Odd cores belong to tenant 1, even to tenant 0.
        let tenants: Vec<u16> = (0..25).map(|c| (c % 2) as u16).collect();
        let mut m = machine();
        m.enable_ledger(tenants);
        m.access(NodeId(0), 0x1000, 0, false, AccessIntent::ToCore);
        m.access(NodeId(1), 0x2000, 0, false, AccessIntent::ToCore);
        m.access(NodeId(1), 0x3000, 10, false, AccessIntent::ToCore);
        let led = m.take_ledger().unwrap();
        assert_eq!(led.num_tenants(), 2);
        assert_eq!(led.rows()[0].requests, 1);
        assert_eq!(led.rows()[1].requests, 2);
        // Column sums still equal the global counters.
        let msgs: u64 = led.rows().iter().map(|r| r.noc_messages).sum();
        assert_eq!(msgs, m.net.messages);
        let hops: u64 = led.rows().iter().map(|r| r.noc_flit_hops).sum();
        assert_eq!(hops, m.net.flit_hops);
    }

    #[test]
    fn stats_aggregate_across_nodes() {
        let mut m = machine();
        m.access(NodeId(0), 0x1000, 0, false, AccessIntent::ToCore);
        m.access(NodeId(5), 0x2000, 0, false, AccessIntent::ToCore);
        let l1 = m.l1_totals();
        assert_eq!(l1.misses, 2);
        assert_eq!(l1.hits, 0);
        let l2 = m.l2_totals();
        assert_eq!(l2.misses, 2);
    }
}
