//! The discrete-event cluster simulator.
//!
//! Each site is a FIFO CPU queue in front of a real
//! [`OrganizingAgent`]; handling a message *actually runs* the agent (so
//! answers are bit-for-bit what the live system produces) while virtual
//! time advances by a [`CostModel`] service time. Throughput and latency
//! therefore reflect queueing and placement — the effects the paper's
//! Figs. 7–10 measure — independent of the host machine's speed.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use irisdns::{AuthoritativeDns, CachingResolver, SiteAddr};
use irisnet_core::{Endpoint, IdPath, Message, OrganizingAgent, Outbound, QueryId, Service};
use irisobs::Recorder;

use crate::cluster::{Cluster, Reply, Target};
use crate::faults::{FaultCounts, FaultPlan, FaultState};

/// Virtual seconds between the poses of [`Cluster::pose_each`]: far more
/// than any query takes, so every query (its retries and late duplicates
/// included) settles before the next is posed, and time-driven policies
/// (cache TTLs, retry ticks) see the same gaps on every run.
const POSE_GAP: f64 = 50.0;

/// [`Cluster::pose_each`] replies come back to endpoints above this one,
/// clear of closed-loop client indices.
const POSE_ENDPOINTS: u64 = 9_999;

/// Service-time model, calibratable against the sharded runtime.
///
/// The cost of handling a message is
/// `msg_overhead + fixed(type) + measured_cpu * cpu_scale`, where
/// `measured_cpu` is the wall time the real handler took on the host. With
/// `cpu_scale = 0` the model is fully deterministic.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// One-way network latency between any two sites (seconds).
    pub net_latency: f64,
    /// Per-message CPU for constructing/deconstructing messages — the
    /// dominant "communication" cost in the paper's Fig. 11.
    pub msg_overhead: f64,
    /// Fixed CPU per query-bearing message (query/subquery/subanswer).
    pub query_cpu: f64,
    /// Fixed CPU per sensor update (the paper's single-OA limit of ~200
    /// updates/s corresponds to 5 ms).
    pub update_cpu: f64,
    /// Multiplier applied to measured host CPU (models the 2 GHz P4 + Java
    /// 1.3 engine relative to this host; 0 = ignore host timing).
    pub cpu_scale: f64,
    /// Extra latency per delegation hop of a cold DNS lookup.
    pub dns_hop_latency: f64,
    /// CPU seconds per 1000 stored document nodes charged to each
    /// query-bearing message. Models engines whose template matching scans
    /// the whole site document (the paper's Xalan/Java prototype); 0 for a
    /// size-independent engine.
    pub doc_scan_cpu: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            net_latency: 0.001,
            msg_overhead: 0.010,
            query_cpu: 0.020,
            update_cpu: 0.005,
            cpu_scale: 0.0,
            dns_hop_latency: 0.005,
            doc_scan_cpu: 0.0,
        }
    }
}

impl CostModel {
    fn service_time(&self, msg: &Message, measured_cpu: f64, doc_nodes: usize) -> f64 {
        let (fixed, scans_doc) = match msg {
            Message::UserQuery { .. } | Message::SubQuery { .. } => (self.query_cpu, true),
            // A batch costs what its member subqueries would have cost; the
            // saving is in per-message wire overhead, not CPU.
            Message::SubQueryBatch { entries, .. } => {
                (self.query_cpu * entries.len() as f64, true)
            }
            // Subquery answers cost message handling plus the measured
            // merge/re-evaluate CPU (the re-run scans the document too).
            Message::SubAnswer { .. } => (0.0, true),
            Message::Update { .. } => (self.update_cpu, false),
            _ => (0.0, false),
        };
        let scan = if scans_doc {
            self.doc_scan_cpu * doc_nodes as f64 / 1000.0
        } else {
            0.0
        };
        self.msg_overhead + fixed + scan + measured_cpu * self.cpu_scale
    }
}

/// One completed user query.
#[derive(Debug, Clone)]
pub struct ReplyRecord {
    pub endpoint: Endpoint,
    pub qid: QueryId,
    pub posed_at: f64,
    pub completed_at: f64,
    pub ok: bool,
    /// True if retries were exhausted for part of the queried subtree and
    /// the answer carries `partial="true"` covering stubs.
    pub partial: bool,
    pub answer_len: usize,
}

/// An answer addressed to an endpoint with no registered closed-loop
/// client (queries injected via [`DesCluster::schedule_message`]), with
/// full delivery metadata.
#[derive(Debug, Clone)]
pub struct UnclaimedReply {
    pub endpoint: Endpoint,
    pub qid: QueryId,
    pub answer_xml: String,
    pub ok: bool,
    pub partial: bool,
    pub completed_at: f64,
}

/// A closed-loop client population: each client poses one query, waits for
/// the answer, thinks, and poses the next.
pub struct ClientLoad {
    pub clients: usize,
    pub think_time: f64,
    /// Generates the next query text; called with a global sequence number.
    pub query_gen: Box<dyn FnMut(u64) -> String>,
}

#[derive(Debug)]
enum Payload {
    /// Deliver a message to a site.
    ToSite(SiteAddr, Message),
    /// A user reply arriving back at the client hub
    /// (endpoint, qid, answer, ok, partial).
    ToClient(Endpoint, QueryId, String, bool, bool),
    /// A closed-loop client (re)starts and poses its next query.
    ClientPose(usize),
    /// A site's retry-timer deadline: run its agent's tick.
    Tick(SiteAddr),
}

struct Event {
    at: f64,
    seq: u64,
    payload: Payload,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at
            .partial_cmp(&other.at)
            .expect("event times are finite")
            .then(self.seq.cmp(&other.seq))
    }
}

struct Site {
    oa: OrganizingAgent,
    busy_until: f64,
    /// CPU-seconds consumed (for utilization reporting).
    busy_time: f64,
}

struct ClientState {
    outstanding: HashMap<QueryId, f64>,
    next_qid: QueryId,
}

/// The simulator.
pub struct DesCluster {
    sites: HashMap<SiteAddr, Site>,
    pub dns: AuthoritativeDns,
    client_resolver: CachingResolver,
    costs: CostModel,
    events: BinaryHeap<Reverse<Event>>,
    seq: u64,
    now: f64,
    clients: Vec<ClientState>,
    load: Option<ClientLoad>,
    replies: Vec<ReplyRecord>,
    /// Events processed (debug/guard).
    pub events_processed: u64,
    /// When set, client queries bypass DNS routing and always go to this
    /// site — the "centralized querying" architectures (i) and (ii) of
    /// Fig. 6, where a central server is the sole repository of the
    /// node-to-site mapping.
    pub route_override: Option<SiteAddr>,
    /// Service-completion times of sensor updates (capacity accounting:
    /// an update scheduled before `t_end` may finish after it).
    pub update_completions: Vec<f64>,
    /// Answers addressed to endpoints with no registered closed-loop
    /// client (queries injected via [`DesCluster::schedule_message`]).
    unclaimed_replies: Vec<UnclaimedReply>,
    /// Active fault injection (None = perfectly reliable network).
    faults: Option<FaultState>,
    /// Earliest queued [`Payload::Tick`] per site (dedup guard).
    tick_scheduled: HashMap<SiteAddr, f64>,
    /// Per-link one-way latencies (symmetric); anything not listed uses
    /// `CostModel::net_latency`. Models wide-area topologies where some
    /// sites are thousands of miles apart (paper §7).
    link_latency: HashMap<(SiteAddr, SiteAddr), f64>,
    /// Observability recorder shared by every site (None = tracing off).
    /// Span timestamps use *virtual* time, so DES traces are structurally
    /// comparable with live ones but deterministically timed.
    recorder: Option<Arc<dyn Recorder>>,
    /// Scrapes issued so far; allocates collision-free qids/endpoints for
    /// [`Cluster::scrape`].
    scrape_seq: u64,
    /// The service of the first site added: names DNS entries and routes
    /// client queries.
    service: Option<Arc<Service>>,
    /// Virtual time of the next [`Cluster::pose_each`] pose.
    pose_clock: f64,
    /// Query id of the next [`Cluster::pose_each`] pose.
    next_pose_qid: QueryId,
}

impl DesCluster {
    /// Creates an empty cluster with the given cost model.
    pub fn new(costs: CostModel) -> DesCluster {
        DesCluster {
            sites: HashMap::new(),
            dns: AuthoritativeDns::new(),
            client_resolver: CachingResolver::new(3600.0),
            costs,
            events: BinaryHeap::new(),
            seq: 0,
            now: 0.0,
            clients: Vec::new(),
            load: None,
            replies: Vec::new(),
            events_processed: 0,
            route_override: None,
            update_completions: Vec::new(),
            unclaimed_replies: Vec::new(),
            faults: None,
            tick_scheduled: HashMap::new(),
            link_latency: HashMap::new(),
            recorder: None,
            scrape_seq: 0,
            service: None,
            pose_clock: 0.0,
            next_pose_qid: 1,
        }
    }

    /// Pushes every site's agent counters into the recorder's registry.
    /// Call once the run is over, before exporting metrics.
    pub fn publish_metrics(&self) {
        for site in self.sites.values() {
            site.oa.publish_metrics();
        }
    }

    /// Adds a site; its address must be unique.
    pub fn add_site(&mut self, mut oa: OrganizingAgent) {
        if let Some(rec) = &self.recorder {
            oa.set_recorder(rec.clone());
        }
        self.service.get_or_insert_with(|| oa.service.clone());
        let addr = oa.addr;
        let prev = self.sites.insert(addr, Site { oa, busy_until: 0.0, busy_time: 0.0 });
        assert!(prev.is_none(), "duplicate site address {addr:?}");
    }

    /// Access a site's agent (e.g. to inspect stats after a run).
    pub fn site(&self, addr: SiteAddr) -> Option<&OrganizingAgent> {
        self.sites.get(&addr).map(|s| &s.oa)
    }

    /// Cluster-wide cache-plane totals (hits, misses, evictions, budget
    /// occupancy), accumulated across all sites.
    pub fn cache_stats_total(&self) -> irisnet_core::CacheStats {
        let mut total = irisnet_core::CacheStats::default();
        for site in self.sites.values() {
            total.accumulate(&site.oa.cache_stats());
        }
        total
    }

    /// Current virtual time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Completed user queries.
    pub fn replies(&self) -> &[ReplyRecord] {
        &self.replies
    }

    /// Drains answers addressed to endpoints without a registered client —
    /// the return channel for queries injected via
    /// [`DesCluster::schedule_message`].
    pub fn take_unclaimed_replies(&mut self) -> Vec<String> {
        std::mem::take(&mut self.unclaimed_replies)
            .into_iter()
            .map(|r| r.answer_xml)
            .collect()
    }

    /// Like [`DesCluster::take_unclaimed_replies`] but keeps the delivery
    /// metadata (endpoint, ok/partial flags, completion time).
    pub fn take_unclaimed_detailed(&mut self) -> Vec<UnclaimedReply> {
        std::mem::take(&mut self.unclaimed_replies)
    }

    /// CPU utilization per site over `[0, horizon]`.
    pub fn utilization(&self, horizon: f64) -> Vec<(SiteAddr, f64)> {
        let mut v: Vec<(SiteAddr, f64)> = self
            .sites
            .iter()
            .map(|(&a, s)| (a, s.busy_time / horizon))
            .collect();
        v.sort_by_key(|(a, _)| *a);
        v
    }

    fn push(&mut self, at: f64, payload: Payload) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Reverse(Event { at, seq, payload }));
    }

    /// Schedules a raw message delivery (admin traffic, SA updates, ...).
    pub fn schedule_message(&mut self, at: f64, to: SiteAddr, msg: Message) {
        self.push(at, Payload::ToSite(to, msg));
    }

    /// Sets the TTL of the *client-side* DNS cache (default: effectively
    /// infinite). Shorter TTLs let clients pick up ownership migrations,
    /// as in §5.4.
    pub fn set_client_dns_ttl(&mut self, ttl_seconds: f64) {
        self.client_resolver = CachingResolver::new(ttl_seconds);
    }

    /// Sets a symmetric one-way latency for the link between two sites
    /// (wide-area topologies); unlisted links use the cost model default.
    pub fn set_link_latency(&mut self, a: SiteAddr, b: SiteAddr, secs: f64) {
        self.link_latency.insert((a, b), secs);
        self.link_latency.insert((b, a), secs);
    }

    fn latency_between(&self, from: SiteAddr, to: SiteAddr) -> f64 {
        self.link_latency
            .get(&(from, to))
            .copied()
            .unwrap_or(self.costs.net_latency)
    }

    /// Installs a closed-loop client population starting at t=0.
    pub fn set_client_load(&mut self, load: ClientLoad) {
        for i in 0..load.clients {
            self.clients.push(ClientState { outstanding: HashMap::new(), next_qid: 1 });
            self.push(0.0, Payload::ClientPose(i));
        }
        self.load = Some(load);
    }

    /// Runs until the event queue drains or virtual time passes `t_end`.
    pub fn run_until(&mut self, t_end: f64) {
        while let Some(Reverse(head)) = self.events.peek() {
            if head.at > t_end {
                break;
            }
            let Some(Reverse(ev)) = self.events.pop() else { break };
            self.now = ev.at;
            self.events_processed += 1;
            match ev.payload {
                Payload::ToSite(addr, msg) => self.deliver(addr, msg),
                Payload::ToClient(endpoint, qid, answer_xml, ok, partial) => {
                    self.on_reply(endpoint, qid, answer_xml, ok, partial);
                }
                Payload::ClientPose(i) => self.client_pose(i),
                Payload::Tick(addr) => self.tick_site(addr),
            }
        }
    }

    fn deliver(&mut self, addr: SiteAddr, msg: Message) {
        // Crash windows: a down site receives nothing (unreachability, not
        // amnesia — its state is intact for the restart).
        if let Some(f) = self.faults.as_mut() {
            if f.site_down(addr, self.now) {
                f.counts.crash_drops += 1;
                return;
            }
        }
        let Some(site) = self.sites.get_mut(&addr) else {
            // A stopped site answers nothing. A user query that was on its
            // way there fails as `site down` when it arrives, as one routed
            // to it after the stop does (`client_pose`).
            if let Message::UserQuery { qid, endpoint, .. } = msg {
                self.reply_site_down(endpoint, qid);
            }
            return;
        };
        let start = self.now.max(site.busy_until);
        let queue_wait = start - self.now;
        if self.recorder.is_some() {
            site.oa.note_queue_wait(queue_wait);
        }
        // Stored nodes, not arena slots: detached garbage awaiting compaction
        // is not scanned. Counting walks the tree, so only when priced.
        let doc_nodes = if self.costs.doc_scan_cpu > 0.0 {
            site.oa.db().doc().reachable_count()
        } else {
            0
        };
        let t0 = Instant::now();
        let outs = site.oa.handle(msg.clone(), &mut self.dns, start);
        let measured = t0.elapsed().as_secs_f64();
        let service = self.costs.service_time(&msg, measured, doc_nodes);
        site.busy_until = start + service;
        site.busy_time += service;
        let done = site.busy_until;
        if let Some(reg) = self.recorder.as_ref().and_then(|r| r.registry()) {
            reg.histogram(addr.0, "des.service_time").observe(service);
            reg.histogram(addr.0, "des.queue_wait").observe(queue_wait);
        }
        if matches!(msg, Message::Update { .. }) {
            self.update_completions.push(done);
        }
        self.route_outs(addr, done, outs);
        self.schedule_site_tick(addr);
    }

    /// Schedules a site's outbound traffic, applying the fault plan to
    /// site-to-site links. Replies to clients are never faulted.
    fn route_outs(&mut self, from: SiteAddr, done: f64, outs: Vec<Outbound>) {
        for o in outs {
            match o {
                Outbound::Send { to, msg } => {
                    let lat = self.latency_between(from, to);
                    match self.faults.as_mut().map(|f| (f.decide(from, to), f.plan().dup_extra_delay)) {
                        Some((d, dup_extra)) => {
                            if d.drop {
                                continue;
                            }
                            let at = done + lat + d.extra_delay;
                            if d.duplicate {
                                self.push(at + dup_extra, Payload::ToSite(to, msg.clone()));
                            }
                            self.push(at, Payload::ToSite(to, msg));
                        }
                        None => self.push(done + lat, Payload::ToSite(to, msg)),
                    }
                }
                Outbound::ReplyUser { endpoint, qid, answer_xml, ok, partial } => {
                    self.push(
                        done + self.costs.net_latency,
                        Payload::ToClient(endpoint, qid, answer_xml, ok, partial),
                    );
                }
            }
        }
    }

    /// Queues a [`Payload::Tick`] for the site's next retry deadline,
    /// unless an earlier-or-equal tick is already queued. With retries
    /// disabled (the default) agents report no deadline and no tick events
    /// exist at all.
    fn schedule_site_tick(&mut self, addr: SiteAddr) {
        let Some(site) = self.sites.get(&addr) else { return };
        let Some(deadline) = site.oa.next_deadline() else { return };
        let at = deadline.max(self.now);
        if self.tick_scheduled.get(&addr).is_some_and(|&t| t <= at) {
            return;
        }
        self.tick_scheduled.insert(addr, at);
        self.push(at, Payload::Tick(addr));
    }

    fn tick_site(&mut self, addr: SiteAddr) {
        if self.tick_scheduled.get(&addr).is_some_and(|&t| t <= self.now) {
            self.tick_scheduled.remove(&addr);
        }
        // A crashed site's timers are frozen until it restarts.
        if let Some(f) = &self.faults {
            if let Some(up) = f.plan().down_until(addr, self.now) {
                if up.is_finite()
                    && !self.tick_scheduled.get(&addr).is_some_and(|&t| t <= up)
                {
                    self.tick_scheduled.insert(addr, up);
                    self.push(up, Payload::Tick(addr));
                }
                return;
            }
        }
        let Some(site) = self.sites.get_mut(&addr) else { return };
        // Ticks are pure bookkeeping (timer scans): charged zero service
        // time, but serialized after any in-progress message handling.
        let start = self.now.max(site.busy_until);
        let outs = site.oa.tick(&mut self.dns, start);
        self.route_outs(addr, start, outs);
        self.schedule_site_tick(addr);
    }

    fn on_reply(
        &mut self,
        endpoint: Endpoint,
        qid: QueryId,
        answer_xml: String,
        ok: bool,
        partial: bool,
    ) {
        let idx = endpoint.0 as usize;
        let unclaimed = |answer_xml: String, now: f64| UnclaimedReply {
            endpoint,
            qid,
            answer_xml,
            ok,
            partial,
            completed_at: now,
        };
        let Some(client) = self.clients.get_mut(idx) else {
            let r = unclaimed(answer_xml, self.now);
            self.unclaimed_replies.push(r);
            return;
        };
        let Some(posed_at) = client.outstanding.remove(&qid) else {
            let r = unclaimed(answer_xml, self.now);
            self.unclaimed_replies.push(r);
            return;
        };
        let answer_len = answer_xml.len();
        self.replies.push(ReplyRecord {
            endpoint,
            qid,
            posed_at,
            completed_at: self.now,
            ok,
            partial,
            answer_len,
        });
        let think = self.load.as_ref().map(|l| l.think_time);
        if let Some(t) = think {
            let next_at = self.now + t;
            self.push(next_at, Payload::ClientPose(idx));
        }
    }

    fn client_pose(&mut self, idx: usize) {
        let Some(load) = self.load.as_mut() else { return };
        let text = (load.query_gen)(self.seq);
        let client = &mut self.clients[idx];
        let qid = client.next_qid;
        client.next_qid += 1;
        client.outstanding.insert(qid, self.now);

        // Self-starting routing: extract the LCA name from the query text,
        // resolve it, and send the query straight to that site.
        let (send_at, target) = match self.route(&text, self.now) {
            Some(x) => x,
            None => {
                // Unroutable query: complete immediately as a failure so
                // the closed loop keeps going.
                self.replies.push(ReplyRecord {
                    endpoint: Endpoint(idx as u64),
                    qid,
                    posed_at: self.now,
                    completed_at: self.now,
                    ok: false,
                    partial: false,
                    answer_len: 0,
                });
                self.clients[idx].outstanding.clear();
                let think = self.load.as_ref().map(|l| l.think_time).unwrap_or(0.0);
                let at = self.now + think;
                self.push(at, Payload::ClientPose(idx));
                return;
            }
        };
        // A stopped site answers nothing: fail the query at once, as a pose
        // to it does, so the client thinks and poses the next one.
        if !self.sites.contains_key(&target) {
            self.reply_site_down(Endpoint(idx as u64), qid);
            return;
        }
        self.push(
            send_at,
            Payload::ToSite(
                target,
                Message::UserQuery { qid, text, endpoint: Endpoint(idx as u64) },
            ),
        );
    }

    /// Completes `(endpoint, qid)` now with [`Reply::site_down`]: a failed,
    /// partial reply that re-arms a closed-loop client after its think
    /// time.
    fn reply_site_down(&mut self, endpoint: Endpoint, qid: QueryId) {
        let down = Reply::site_down();
        self.on_reply(endpoint, qid, down.answer_xml, down.ok, down.partial);
    }

    /// Resolves where a client posing `text` at `now` sends it, and when
    /// the query arrives there.
    fn route(&mut self, text: &str, now: f64) -> Option<(f64, SiteAddr)> {
        if let Some(central) = self.route_override {
            return Some((now + self.costs.net_latency, central));
        }
        let service = self.service.as_ref()?;
        let (_, _, name) = irisnet_core::routing::route_query(text, service).ok()?;
        let outcome = self.client_resolver.resolve(&name, &self.dns, now)?;
        let lookup_latency = outcome.hops as f64 * self.costs.dns_hop_latency;
        Some((now + lookup_latency + self.costs.net_latency, outcome.addr))
    }

    /// One [`Cluster::pose_each`] pose: injected at the pose clock, then
    /// the cluster runs to the next pose slot — longer, a slot at a time,
    /// while the reply is still outstanding and events remain.
    fn pose_one(&mut self, to: Target, text: &str) -> Reply {
        let at = self.pose_clock.max(self.now);
        self.pose_clock = at + POSE_GAP;
        let qid = self.next_pose_qid;
        self.next_pose_qid += 1;
        let endpoint = Endpoint(POSE_ENDPOINTS + qid);
        let (arrive, site) = match to {
            Target::Site(site) => (at, site),
            Target::Routed => match self.route(text, at) {
                Some(x) => x,
                None => return Reply::default(),
            },
        };
        if !self.sites.contains_key(&site) {
            return Reply::site_down();
        }
        let msg = Message::UserQuery { qid, text: text.to_string(), endpoint };
        self.push(arrive, Payload::ToSite(site, msg));
        let mut horizon = self.pose_clock;
        for _ in 0..8 {
            self.run_until(horizon);
            if let Some(r) = self.take_reply(qid, endpoint) {
                return Reply { answer_xml: r.answer_xml, ok: r.ok, partial: r.partial };
            }
            if self.events.is_empty() {
                break;
            }
            horizon += POSE_GAP;
        }
        Reply::default()
    }

    /// Removes and returns the unclaimed reply to `(qid, endpoint)`.
    fn take_reply(&mut self, qid: QueryId, endpoint: Endpoint) -> Option<UnclaimedReply> {
        let mine = |r: &UnclaimedReply| r.qid == qid && r.endpoint == endpoint;
        let pos = self.unclaimed_replies.iter().position(mine)?;
        Some(self.unclaimed_replies.remove(pos))
    }
}

impl Cluster for DesCluster {
    /// Registers in [`DesCluster::dns`], named by the service of the
    /// sites added so far.
    fn register_owner(&mut self, path: &IdPath, addr: SiteAddr) {
        let svc = self.service.as_ref().expect("register_owner before add_site");
        svc.register_owner(&mut self.dns, path, addr);
    }

    fn add_site(&mut self, oa: OrganizingAgent) {
        DesCluster::add_site(self, oa);
    }

    fn start(&mut self) {}

    /// Also installs it on sites already added. Agents emit spans into
    /// it; the cluster adds per-site `des.service_time` / `des.queue_wait`
    /// histograms.
    fn set_recorder(&mut self, rec: Arc<dyn Recorder>) {
        for site in self.sites.values_mut() {
            site.oa.set_recorder(rec.clone());
        }
        self.recorder = Some(rec);
    }

    /// Also makes the authoritative DNS adopt the plan's staleness window.
    fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.dns.set_staleness_window(plan.dns_stale_window);
        self.faults = Some(FaultState::new(plan));
    }

    fn fault_counts(&self) -> FaultCounts {
        self.faults.as_ref().map(|f| f.counts).unwrap_or_default()
    }

    /// Delivers the message now, so it is handled before anything the
    /// caller does next.
    fn send(&mut self, to: SiteAddr, msg: Message) {
        self.schedule_message(self.now, to, msg);
        self.run_until(self.now);
    }

    /// A crash with amnesia unless the agent carried a durability plane.
    /// Events already queued for the address are dropped on delivery.
    fn stop_site(&mut self, addr: SiteAddr) -> Option<OrganizingAgent> {
        self.tick_scheduled.remove(&addr);
        let oa = self.sites.remove(&addr).map(|s| s.oa);
        if oa.is_some() {
            if let Some(tel) = self.recorder.as_ref().and_then(|r| r.telemetry()) {
                tel.set_reachable(addr.0, false);
            }
        }
        oa
    }

    /// The agent's timers are scheduled from now.
    fn restart_site(&mut self, oa: OrganizingAgent) {
        let addr = oa.addr;
        self.add_site(oa);
        self.schedule_site_tick(addr);
        if let Some(tel) = self.recorder.as_ref().and_then(|r| r.telemetry()) {
            tel.set_reachable(addr.0, true);
        }
    }

    /// The request is scheduled like any client message and the
    /// simulation runs forward until the reply lands; `None` means the
    /// site never answered within the probe window (removed or crashed),
    /// the caller's cue to classify it Unreachable
    /// (`HealthState::classify_probe`). Advances virtual time slightly but
    /// sends no spans and perturbs no query state.
    fn scrape(&mut self, site: SiteAddr, what: u8) -> Option<String> {
        self.scrape_seq += 1;
        // High qid/endpoint ranges never collide with workload clients.
        let qid = u64::MAX - self.scrape_seq;
        let endpoint = Endpoint(u64::MAX - self.scrape_seq);
        self.push(
            self.now,
            Payload::ToSite(
                site,
                Message::TelemetryRequest { qid, reply_to: SiteAddr(0), endpoint, what },
            ),
        );
        // Probe window: delivery + service + reply latency, doubled per
        // attempt so a busy site still answers before we give up.
        let mut window = self.costs.net_latency.mul_add(4.0, 1.0);
        for _ in 0..8 {
            self.run_until(self.now + window);
            if let Some(r) = self.take_reply(qid, endpoint) {
                return Some(r.answer_xml);
            }
            window *= 2.0;
        }
        None
    }

    /// Pose `k` goes in [`POSE_GAP`] virtual seconds after pose `k - 1`
    /// (or when that one's reply lands, if later). A pose to a stopped
    /// site fails at once with [`Reply::site_down`], as the sharded
    /// runtime's does.
    fn pose_each(&mut self, to: Target, queries: &[String]) -> Vec<Reply> {
        queries.iter().map(|q| self.pose_one(to, q)).collect()
    }

    fn finish(&mut self) -> Vec<OrganizingAgent> {
        let mut agents: Vec<OrganizingAgent> = self.sites.drain().map(|(_, s)| s.oa).collect();
        agents.sort_by_key(|a| a.addr);
        agents
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irisnet_core::{IdPath, OaConfig, Service};

    fn master() -> sensorxml::Document {
        sensorxml::parse(
            r#"<usRegion id="NE"><state id="PA"><county id="A"><city id="P">
                 <neighborhood id="Oakland">
                   <block id="1"><parkingSpace id="1"><available>yes</available></parkingSpace></block>
                 </neighborhood>
                 <neighborhood id="Shadyside">
                   <block id="1"><parkingSpace id="1"><available>no</available></parkingSpace></block>
                 </neighborhood>
               </city></county></state></usRegion>"#,
        )
        .unwrap()
    }

    fn two_site_cluster() -> DesCluster {
        let svc = Service::parking();
        let mut sim = DesCluster::new(CostModel::default());
        let root = IdPath::from_pairs([("usRegion", "NE")]);
        let pgh = root
            .child("state", "PA")
            .child("county", "A")
            .child("city", "P");
        // Site 1 owns everything except Shadyside, which lives on site 2.
        let oa1 = OrganizingAgent::new(SiteAddr(1), svc.clone(), OaConfig::default());
        oa1.db_mut().bootstrap_owned(&master(), &root, true).unwrap();
        // Carve Shadyside out by delegating at setup time: simplest is to
        // bootstrap site 2 and flip statuses via the migration handshake.
        let oa2 = OrganizingAgent::new(SiteAddr(2), svc.clone(), OaConfig::default());
        oa2.db_mut()
            .bootstrap_owned(&master(), &pgh.child("neighborhood", "Shadyside"), true)
            .unwrap();
        // Site 1 must genuinely lack Shadyside: demote and evict it so
        // only the ID stub remains.
        let shady = pgh.child("neighborhood", "Shadyside");
        oa1.db_mut()
            .set_status_subtree(&shady, irisnet_core::Status::Complete)
            .unwrap();
        oa1.db_mut().evict(&shady).unwrap();
        sim.add_site(oa1);
        sim.add_site(oa2);
        sim.register_owner(&root, SiteAddr(1));
        sim.register_owner(&shady, SiteAddr(2));
        sim
    }

    const Q_BOTH: &str = "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']\
        /neighborhood[@id='Oakland' or @id='Shadyside']/block[@id='1']/parkingSpace";

    #[test]
    fn closed_loop_clients_complete_queries() {
        let mut sim = two_site_cluster();
        sim.set_client_load(ClientLoad {
            clients: 2,
            think_time: 0.0,
            query_gen: Box::new(|_| Q_BOTH.to_string()),
        });
        sim.run_until(10.0);
        assert!(sim.replies().len() > 10, "got {} replies", sim.replies().len());
        assert!(sim.replies().iter().all(|r| r.ok));
        // Latency is sane: positive, bounded by the run.
        for r in sim.replies() {
            assert!(r.completed_at > r.posed_at);
            assert!(r.completed_at - r.posed_at < 5.0);
        }
    }

    #[test]
    fn distributed_query_gathers_across_sites() {
        let mut sim = two_site_cluster();
        sim.set_client_load(ClientLoad {
            clients: 1,
            think_time: 1000.0, // effectively one query
            query_gen: Box::new(|_| Q_BOTH.to_string()),
        });
        sim.run_until(50.0);
        assert_eq!(sim.replies().len(), 1);
        let r = &sim.replies()[0];
        assert!(r.ok);
        // Answer contains both parking spaces (two subtrees).
        assert!(r.answer_len > 0);
        // Site 1 asked site 2 for Shadyside.
        assert!(sim.site(SiteAddr(1)).unwrap().stats.subqueries_sent >= 1);
        assert!(sim.site(SiteAddr(2)).unwrap().stats.subqueries_handled >= 1);
        // The gathering site did the most work: user query + sub-answer on
        // site 1 outweigh the one subquery on site 2.
        let u = sim.utilization(50.0);
        assert!(u[0].1 > u[1].1, "utilization {u:?}");
    }

    #[test]
    fn second_query_hits_cache() {
        let mut sim = two_site_cluster();
        sim.set_client_load(ClientLoad {
            clients: 1,
            think_time: 1.0,
            query_gen: Box::new(|_| Q_BOTH.to_string()),
        });
        sim.run_until(20.0);
        let s1 = sim.site(SiteAddr(1)).unwrap();
        // Shadyside was fetched once, then served from cache: exactly one
        // subquery despite many queries.
        assert!(s1.stats.user_queries > 3);
        assert_eq!(s1.stats.subqueries_sent, 1);
        assert!(s1.stats.answered_locally >= s1.stats.user_queries - 1);
    }

    #[test]
    fn updates_are_charged_update_cpu() {
        let svc = Service::parking();
        let mut sim = DesCluster::new(CostModel::default());
        let root = IdPath::from_pairs([("usRegion", "NE")]);
        let oa = OrganizingAgent::new(SiteAddr(1), svc.clone(), OaConfig::default());
        oa.db_mut().bootstrap_owned(&master(), &root, true).unwrap();
        sim.add_site(oa);
        sim.register_owner(&root, SiteAddr(1));
        let sp = root
            .child("state", "PA")
            .child("county", "A")
            .child("city", "P")
            .child("neighborhood", "Oakland")
            .child("block", "1")
            .child("parkingSpace", "1");
        for i in 0..100 {
            sim.schedule_message(
                i as f64 * 0.001,
                SiteAddr(1),
                Message::Update {
                    path: sp.clone(),
                    fields: vec![("available".into(), "no".into())],
                },
            );
        }
        sim.run_until(100.0);
        let oa = sim.site(SiteAddr(1)).unwrap();
        assert_eq!(oa.stats.updates_applied, 100);
        // 100 updates at (update_cpu + msg_overhead) each.
        let u = sim.utilization(100.0);
        assert!(u[0].1 > 0.014 && u[0].1 < 0.016, "utilization {}", u[0].1);
    }

    #[test]
    fn link_latency_shapes_query_latency() {
        let run = |wan: Option<f64>| {
            let mut sim = two_site_cluster();
            if let Some(l) = wan {
                sim.set_link_latency(SiteAddr(1), SiteAddr(2), l);
            }
            sim.set_client_load(ClientLoad {
                clients: 1,
                think_time: 1000.0,
                query_gen: Box::new(|_| Q_BOTH.to_string()),
            });
            sim.run_until(50.0);
            let r = &sim.replies()[0];
            r.completed_at - r.posed_at
        };
        let lan = run(None);
        let wan = run(Some(0.1));
        // The gather crosses the 1↔2 link at least twice (subquery +
        // answer): the WAN run must be at least ~0.2 s slower.
        assert!(wan > lan + 0.19, "lan {lan}, wan {wan}");
    }

    #[test]
    fn deterministic_with_zero_cpu_scale() {
        let run = || {
            let mut sim = two_site_cluster();
            sim.set_client_load(ClientLoad {
                clients: 3,
                think_time: 0.01,
                query_gen: Box::new(|s| {
                    if s % 2 == 0 {
                        Q_BOTH.to_string()
                    } else {
                        "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']\
                         /neighborhood[@id='Oakland']/block[@id='1']/parkingSpace"
                            .to_string()
                    }
                }),
            });
            sim.run_until(5.0);
            sim.replies()
                .iter()
                .map(|r| (r.endpoint.0, r.qid, r.completed_at.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
