//! The threaded runtime: many sites multiplexed onto shard event loops,
//! with cross-shard messages passing through the length-framed binary
//! [`crate::wire`] codec.
//!
//! The runtime spawns **N shard threads** (default `available cores - 1`),
//! each an event loop owning `sites/N` [`OrganizingAgent`]s. A shard
//! multiplexes its agents' mailboxes over a single MPSC channel and a
//! lazy-invalidation timer heap (for retry ticks), and runs ReadTasks on a
//! *shard-shared* worker pool — so total OS thread count is
//! `shards × (1 + workers_per_shard) + 1` regardless of whether the
//! hierarchy has 9 sites or 10,000. With `shards` equal to the site count
//! every site gets its own loop and its own `workers_per_shard` read
//! workers — one thread (plus pool) per site.
//!
//! ## The wire boundary
//!
//! Sites are assigned to shards by `addr.0 % shards`. A send whose
//! destination lives on a *different* shard — and every client pose, admin
//! send, and fault-delayer re-injection — is encoded into a wire frame and
//! decoded on the receiving shard's loop, exactly the boundary a
//! length-framed TCP transport would impose (the DXQ serialized
//! query/answer discipline), while staying in-process. Same-shard sends
//! take a direct fast path unless [`ShardConfig::force_wire`] is set (the
//! test knob proving the codec is semantically invisible). Per-sender FIFO
//! order is preserved either way: every delivery lands immediately in the
//! destination shard's single channel.
//!
//! The fault plane ([`crate::FaultPlan`]) wraps every site-to-site send in
//! the [`FaultFabric`] (the same per-link decision streams as the DES), and
//! a delayer thread re-injects delayed/duplicated copies (framed, since it
//! is not a shard).

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::cmp::Reverse;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use irisdns::{AuthoritativeDns, CachingResolver, SiteAddr};
use irisnet_core::{
    perform_read, CoreError, Endpoint, IdPath, Message, OrganizingAgent, Outbound,
    QueryId, ReadContext, ReadDone, ReadResult, ReadTask, ReadTaskKind, Service,
};
use irisobs::{Histogram, Recorder};
use parking_lot::Mutex;

use crate::fabric::{FaultFabric, WorkQueue};
use crate::faults::{FaultCounts, FaultPlan};
use crate::wire::{decode_frame, encode_frame};

/// The `(query id, answer XML, ok, partial)` tuples pushed back to clients.
pub type ReplyTuple = (QueryId, String, bool, bool);

/// A completed user query, as seen by the posing client.
#[derive(Debug, Clone)]
pub struct LiveReply {
    pub qid: QueryId,
    pub answer_xml: String,
    pub ok: bool,
    /// True if retries were exhausted for part of the queried subtree and
    /// the answer carries `partial="true"` covering stubs.
    pub partial: bool,
    pub latency: Duration,
}

/// Cluster-wide cache-plane totals over the agents returned by
/// [`ShardedCluster::shutdown`] — the threaded counterpart of
/// [`crate::DesCluster::cache_stats_total`].
pub fn cache_stats_total(agents: &[OrganizingAgent]) -> irisnet_core::CacheStats {
    let mut total = irisnet_core::CacheStats::default();
    for oa in agents {
        total.accumulate(&oa.cache_stats());
    }
    total
}

/// Synthesizes the completion record of a read task abandoned at shutdown:
/// a `SiteDown` error for user finalizes, an empty partial fragment for
/// site finalizes, an exec error otherwise. Feeding these through
/// [`OrganizingAgent::complete_read`] reuses the normal reply routing.
fn site_down_done(task: &ReadTask) -> ReadDone {
    let result = match &task.kind {
        ReadTaskKind::FinalizeUser { endpoint, qid, .. } => ReadResult::UserAnswer {
            endpoint: *endpoint,
            qid: *qid,
            answer_xml: format!("<error>{}</error>", CoreError::SiteDown),
            ok: false,
            partial: true,
        },
        ReadTaskKind::FinalizeSite { addr, qid, .. } => ReadResult::Fragment {
            addr: *addr,
            qid: *qid,
            fragment_xml: String::new(),
            partial: true,
        },
        ReadTaskKind::Execute { .. } => ReadResult::ExecError {
            error_xml: format!("<error>{}</error>", CoreError::SiteDown),
        },
    };
    ReadDone {
        pid: task.pid,
        result,
        time_create: 0.0,
        time_exec: 0.0,
        time_extract: 0.0,
        time_comm: 0.0,
    }
}

/// Sizing knobs for [`ShardedCluster`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shard event loops; `0` means auto:
    /// `max(1, available cores - 1)` (one core reserved for clients).
    pub shards: usize,
    /// Read workers per shard; `0` runs reads inline on the shard loop
    /// (serial semantics, zero extra threads).
    pub workers_per_shard: usize,
    /// Frame *every* send, including same-shard ones. Slower; used by the
    /// equivalence tests to prove the wire codec is semantically invisible.
    pub force_wire: bool,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig { shards: 0, workers_per_shard: 1, force_wire: false }
    }
}

impl ShardConfig {
    fn resolved_shards(&self) -> usize {
        if self.shards > 0 {
            return self.shards;
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        cores.saturating_sub(1).max(1)
    }
}

/// What flows over a shard's mailbox channel.
enum ShardEnvelope {
    /// Same-shard fast path: the message never leaves process memory.
    Msg { to: SiteAddr, msg: Message, sent: Instant },
    /// Cross-shard (or forced-wire) path: a complete wire frame, decoded
    /// by the receiving shard loop.
    Frame { to: SiteAddr, bytes: Vec<u8>, sent: Instant },
    /// A shard worker finished a read task for `site`.
    Done { site: SiteAddr, done: ReadDone },
    /// Install a site on this shard mid-run (the restart half of a
    /// crash/restart cycle). Enqueued *before* the site is routable, so it
    /// is always processed before any message addressed to the site.
    Attach(Box<OrganizingAgent>),
    /// Remove a site from this shard mid-run and hand its agent back.
    /// The site was unrouted first, so no further messages can arrive.
    Detach { site: SiteAddr, reply: Sender<Box<OrganizingAgent>> },
    Stop,
}

/// Routes messages to the shard that owns the destination site. This is
/// the channel abstraction the wire format hides behind: `deliver` is what
/// a TCP session layer would implement with a socket write.
struct Router {
    shard_of: Mutex<HashMap<SiteAddr, usize>>,
    shard_txs: Vec<Sender<ShardEnvelope>>,
    /// Mailbox depth per shard (messages sent minus received).
    depths: Vec<Arc<AtomicU64>>,
    force_wire: bool,
}

impl Router {
    /// Delivers `msg` to the shard owning `to`; returns false if the site
    /// is not registered (stopped or never added). `src_shard` is `None`
    /// for non-shard senders (clients, admin, the fault delayer), which
    /// always cross the wire boundary.
    fn deliver(&self, src_shard: Option<usize>, to: SiteAddr, msg: Message) -> bool {
        let Some(dest) = self.shard_of.lock().get(&to).copied() else {
            return false;
        };
        let framed = self.force_wire || src_shard != Some(dest);
        let env = if framed {
            ShardEnvelope::Frame { to, bytes: encode_frame(&msg), sent: Instant::now() }
        } else {
            ShardEnvelope::Msg { to, msg, sent: Instant::now() }
        };
        self.depths[dest].fetch_add(1, Ordering::Relaxed);
        if self.shard_txs[dest].send(env).is_err() {
            self.depths[dest].fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Unregisters every site owned by `shard`; subsequent poses to those
    /// sites fail fast with `SiteDown`. Returns the unrouted addresses so
    /// the caller can flip their telemetry health FSMs.
    fn unregister_shard(&self, shard: usize) -> Vec<SiteAddr> {
        let mut map = self.shard_of.lock();
        let gone: Vec<SiteAddr> =
            map.iter().filter(|(_, s)| **s == shard).map(|(a, _)| *a).collect();
        map.retain(|_, s| *s != shard);
        gone
    }

    fn unregister_all(&self) -> Vec<SiteAddr> {
        let mut map = self.shard_of.lock();
        let gone: Vec<SiteAddr> = map.keys().copied().collect();
        map.clear();
        gone
    }
}

/// Retry-tick deadlines are `f64` seconds since the cluster epoch; the
/// timer heap needs a total order (deadlines are always finite).
#[derive(Clone, Copy, PartialEq)]
struct F64Ord(f64);
impl Eq for F64Ord {}
impl PartialOrd for F64Ord {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for F64Ord {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

type TimerHeap = BinaryHeap<Reverse<(F64Ord, SiteAddr)>>;

/// A running sharded cluster. Sites are added *before*
/// [`ShardedCluster::start`] spawns the shard threads (channels are
/// created once; assignment itself is `addr.0 % shards`); everything that
/// talks to a site — poses, sends, subscriptions, scrapes — needs the
/// cluster started.
pub struct ShardedCluster {
    service: Arc<Service>,
    dns: Arc<Mutex<AuthoritativeDns>>,
    shards: usize,
    workers_per_shard: usize,
    force_wire: bool,
    pending: Vec<OrganizingAgent>,
    router: Option<Arc<Router>>,
    joins: Vec<Option<JoinHandle<Vec<OrganizingAgent>>>>,
    replies: Arc<Mutex<HashMap<Endpoint, Sender<ReplyTuple>>>>,
    epoch: Instant,
    next_endpoint: Arc<AtomicU64>,
    next_qid: Arc<AtomicU64>,
    client_resolver: CachingResolver,
    faults: Arc<FaultFabric>,
    fault_plan_installed: bool,
    delayer_join: Option<JoinHandle<()>>,
    recorder: Option<Arc<dyn Recorder>>,
}

impl ShardedCluster {
    /// Creates an empty cluster with default sizing (auto shards, one read
    /// worker per shard).
    pub fn new(service: Arc<Service>) -> ShardedCluster {
        ShardedCluster::with_config(service, ShardConfig::default())
    }

    pub fn with_config(service: Arc<Service>, config: ShardConfig) -> ShardedCluster {
        let epoch = Instant::now();
        ShardedCluster {
            service,
            dns: Arc::new(Mutex::new(AuthoritativeDns::new())),
            shards: config.resolved_shards(),
            workers_per_shard: config.workers_per_shard,
            force_wire: config.force_wire,
            pending: Vec::new(),
            router: None,
            joins: Vec::new(),
            replies: Arc::new(Mutex::new(HashMap::new())),
            epoch,
            next_endpoint: Arc::new(AtomicU64::new(0)),
            next_qid: Arc::new(AtomicU64::new(1)),
            client_resolver: CachingResolver::new(3600.0),
            faults: Arc::new(FaultFabric::new(epoch)),
            fault_plan_installed: false,
            delayer_join: None,
            recorder: None,
        }
    }

    /// Number of shard event loops this cluster runs.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The runtime's own OS thread budget: shard loops + shard read
    /// workers + the fault delayer. Independent of site count — that is
    /// the whole point.
    pub fn thread_budget(&self) -> usize {
        self.shards * (1 + self.workers_per_shard) + 1
    }

    /// Installs an observability recorder. Call *before*
    /// [`ShardedCluster::start`]: running shards keep their no-op plane.
    pub fn set_recorder(&mut self, rec: Arc<dyn Recorder>) {
        self.recorder = Some(rec);
    }

    /// Installs a fault plan (same decision streams as the DES; client
    /// reply channels stay reliable). The same seed yields the same
    /// per-link decision streams, though thread interleaving can reorder
    /// which message a decision lands on. The delayer
    /// thread's re-injections cross the wire boundary like any non-shard
    /// sender.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.dns.lock().set_staleness_window(plan.dns_stale_window);
        self.faults.install(plan);
        self.fault_plan_installed = true;
        self.maybe_spawn_delayer();
    }

    /// Observability counters for the active fault plan (zeroes if none).
    pub fn fault_counts(&self) -> FaultCounts {
        self.faults.counts()
    }

    /// The shared authoritative DNS (for registrations during setup).
    pub fn dns(&self) -> &Arc<Mutex<AuthoritativeDns>> {
        &self.dns
    }

    /// Registers `path → addr` in DNS (setup convenience).
    pub fn register_owner(&self, path: &IdPath, addr: SiteAddr) {
        self.service.register_owner(&mut self.dns.lock(), path, addr);
    }

    /// Queues an agent for the shard `addr.0 % shards`. Must be called
    /// before [`ShardedCluster::start`].
    pub fn add_site(&mut self, mut oa: OrganizingAgent) {
        assert!(self.router.is_none(), "add_site after start");
        if let Some(rec) = &self.recorder {
            oa.set_recorder(rec.clone());
        }
        self.pending.push(oa);
    }

    /// Spawns the shard threads and hands every queued agent to its shard.
    pub fn start(&mut self) {
        assert!(self.router.is_none(), "start called twice");
        let n = self.shards;
        let mut txs = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = mpsc::channel::<ShardEnvelope>();
            txs.push(tx);
            rxs.push(rx);
        }
        let depths: Vec<Arc<AtomicU64>> =
            (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
        let router = Arc::new(Router {
            shard_of: Mutex::new(HashMap::new()),
            shard_txs: txs,
            depths: depths.clone(),
            force_wire: self.force_wire,
        });
        let mut per_shard: Vec<Vec<OrganizingAgent>> = (0..n).map(|_| Vec::new()).collect();
        {
            let mut map = router.shard_of.lock();
            for oa in self.pending.drain(..) {
                let s = (oa.addr.0 as usize) % n;
                map.insert(oa.addr, s);
                per_shard[s].push(oa);
            }
        }
        for (i, agents) in per_shard.into_iter().enumerate() {
            let rx = rxs.remove(0);
            let self_tx = router.shard_txs[i].clone();
            let r = router.clone();
            let dns = self.dns.clone();
            let replies = self.replies.clone();
            let epoch = self.epoch;
            let workers = self.workers_per_shard;
            let faults = self.faults.clone();
            let recorder = self.recorder.clone();
            let depth = depths[i].clone();
            let join = std::thread::Builder::new()
                .name(format!("shard-{i}"))
                .spawn(move || {
                    shard_loop(
                        i, agents, rx, self_tx, r, dns, replies, epoch, workers, faults,
                        recorder, depth,
                    )
                })
                .expect("spawn shard thread");
            self.joins.push(Some(join));
        }
        self.router = Some(router);
        if let Some(r) = &self.router {
            for addr in r.shard_of.lock().keys() {
                self.mark_reachable(*addr, true);
            }
        }
        self.maybe_spawn_delayer();
        self.publish_runtime_metrics();
    }

    /// Flips the telemetry health FSM for `addr` when the cluster knows
    /// the site went down or came back (no-op without a telemetry plane).
    fn mark_reachable(&self, addr: SiteAddr, up: bool) {
        if let Some(tel) = self.recorder.as_ref().and_then(|r| r.telemetry()) {
            tel.set_reachable(addr.0, up);
        }
    }

    fn maybe_spawn_delayer(&mut self) {
        if !self.fault_plan_installed || self.delayer_join.is_some() {
            return;
        }
        let Some(router) = self.router.clone() else { return };
        let layer = self.faults.clone();
        self.delayer_join = Some(
            std::thread::Builder::new()
                .name("fault-delayer".into())
                .spawn(move || {
                    layer.delayer_loop(|to, msg| {
                        router.deliver(None, to, msg);
                    })
                })
                .expect("spawn delayer thread"),
        );
    }

    /// Mirrors the runtime's static thread accounting into the metrics
    /// plane (site 0 = cluster-global): `runtime.threads` is the gauge the
    /// ROADMAP acceptance criterion reads — it must stay flat as sites
    /// grow.
    fn publish_runtime_metrics(&self) {
        if let Some(reg) = self.recorder.as_ref().and_then(|r| r.registry()) {
            reg.counter(0, "runtime.threads").set(self.thread_budget() as u64);
            reg.counter(0, "runtime.shards").set(self.shards as u64);
            reg.counter(0, "runtime.workers_per_shard")
                .set(self.workers_per_shard as u64);
        }
    }

    /// A thread-safe client handle for posing queries concurrently.
    pub fn client(&self) -> ShardClient {
        ShardClient {
            service: self.service.clone(),
            dns: self.dns.clone(),
            router: self.router.clone().expect("client() before start"),
            replies: self.replies.clone(),
            epoch: self.epoch,
            next_endpoint: self.next_endpoint.clone(),
            next_qid: self.next_qid.clone(),
            resolver: CachingResolver::new(3600.0),
        }
    }

    /// Sends a raw message to a site (SA updates, admin delegations).
    /// Crosses the wire boundary: admin senders are not shards.
    pub fn send(&self, to: SiteAddr, msg: Message) {
        self.router.as_ref().expect("send before start").deliver(None, to, msg);
    }

    /// Poses a query using self-starting routing (LCA extraction + DNS)
    /// and blocks for the answer.
    pub fn pose_query(&mut self, text: &str, timeout: Duration) -> Option<LiveReply> {
        let (_, _, name) = irisnet_core::routing::route_query(text, &self.service).ok()?;
        let now = self.epoch.elapsed().as_secs_f64();
        let target = {
            let dns = self.dns.lock();
            self.client_resolver.resolve(&name, &dns, now)?.addr
        };
        self.pose_query_at(text, target, timeout)
    }

    /// Poses a query to an explicit site and blocks for the answer.
    pub fn pose_query_at(
        &self,
        text: &str,
        target: SiteAddr,
        timeout: Duration,
    ) -> Option<LiveReply> {
        let router = self.router.as_ref().expect("pose before start");
        pose_routed(
            router,
            &self.replies,
            &self.next_endpoint,
            &self.next_qid,
            text,
            target,
            timeout,
        )
    }

    /// Pulls a telemetry payload (`what` is one of the `irisobs::WHAT_*`
    /// selectors) from a running site and blocks for the reply. The
    /// request crosses the wire boundary like any client message, so the
    /// frames round-trip through the codec. Returns `None` on timeout or
    /// if the site is gone — callers classify that as `Unreachable`.
    pub fn scrape_site(
        &self,
        site: SiteAddr,
        what: u8,
        timeout: Duration,
    ) -> Option<String> {
        let router = self.router.as_ref().expect("scrape before start");
        scrape_routed(
            router,
            &self.replies,
            &self.next_endpoint,
            &self.next_qid,
            site,
            what,
            timeout,
        )
    }

    /// Registers a continuous query at `site` and returns the stream of
    /// pushed answers (§7): the initial snapshot first, then one message
    /// per change. Dropping the receiver simply discards further pushes;
    /// send an `Unsubscribe` to stop them at the source.
    pub fn subscribe(
        &mut self,
        site: SiteAddr,
        text: &str,
    ) -> (QueryId, Receiver<ReplyTuple>) {
        let router = self.router.as_ref().expect("subscribe before start");
        let endpoint = Endpoint(self.next_endpoint.fetch_add(1, Ordering::Relaxed));
        let qid = self.next_qid.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        self.replies.lock().insert(endpoint, tx);
        router.deliver(None, site, Message::Subscribe { qid, text: text.to_string(), endpoint });
        (qid, rx)
    }

    /// Stops one *site* mid-run and returns its agent — the crash half of
    /// a crash/restart cycle. The site is unrouted first, so queries
    /// routed to it from then on fail fast with `SiteDown`; its shard keeps
    /// serving its other sites. The agent comes back with pending queries
    /// failed out loud.
    pub fn stop_site(&mut self, addr: SiteAddr) -> Option<OrganizingAgent> {
        let router = self.router.as_ref()?;
        // Unroute before detaching: once the mapping is gone no new
        // message can be enqueued for the site, so the Detach is the last
        // envelope that references it.
        let shard = router.shard_of.lock().remove(&addr)?;
        self.mark_reachable(addr, false);
        let (rtx, rrx) = mpsc::channel();
        if router.shard_txs[shard]
            .send(ShardEnvelope::Detach { site: addr, reply: rtx })
            .is_err()
        {
            return None;
        }
        rrx.recv().ok().map(|b| *b)
    }

    /// Restarts a site after [`ShardedCluster::stop_site`]: hands `oa` to
    /// its shard (assignment is stable: `addr.0 % shards`) and re-routes
    /// the address. The agent is usually a replacement that recovered its
    /// database via `attach_durability` (crash → restart replays the
    /// snapshot plus WAL tail); a fresh agent models restart-with-amnesia.
    /// The owning shard must still be running.
    pub fn restart_site(&mut self, mut oa: OrganizingAgent) {
        let router = self.router.as_ref().expect("restart_site before start");
        if let Some(rec) = &self.recorder {
            oa.set_recorder(rec.clone());
        }
        let addr = oa.addr;
        let shard = (addr.0 as usize) % self.shards;
        // Route-map lock held across the send: any deliver that finds the
        // mapping observes a channel state where the Attach is already
        // enqueued, so the agent is installed before its first message.
        let mut map = router.shard_of.lock();
        assert!(
            router.shard_txs[shard].send(ShardEnvelope::Attach(Box::new(oa))).is_ok(),
            "restart_site: owning shard is stopped"
        );
        map.insert(addr, shard);
        drop(map);
        self.mark_reachable(addr, true);
    }

    /// Stops one shard mid-run and returns its agents. Its sites are
    /// unregistered first, so queries routed to them from then on fail
    /// fast with `SiteDown`; queued read tasks are drained with `SiteDown`
    /// completions and still-gathering queries are failed out loud (the
    /// PR 3 shutdown discipline, per shard).
    pub fn stop_shard(&mut self, shard: usize) -> Vec<OrganizingAgent> {
        let Some(router) = &self.router else { return Vec::new() };
        let Some(join) = self.joins.get_mut(shard).and_then(|j| j.take()) else {
            return Vec::new();
        };
        for addr in router.unregister_shard(shard) {
            self.mark_reachable(addr, false);
        }
        let _ = router.shard_txs[shard].send(ShardEnvelope::Stop);
        join.join().expect("shard thread panicked")
    }

    /// Stops every shard and returns all agents (with their stats),
    /// sorted by address for deterministic inspection. Sites are
    /// unregistered up front: clients racing the shutdown get immediate
    /// `SiteDown` failures, and every query already queued inside a shard
    /// is answered (possibly with a `SiteDown` error) before its loop
    /// exits — nothing blocks forever.
    pub fn shutdown(mut self) -> Vec<OrganizingAgent> {
        let mut agents: Vec<OrganizingAgent> = Vec::new();
        if let Some(router) = self.router.take() {
            for addr in router.unregister_all() {
                self.mark_reachable(addr, false);
            }
            for (i, j) in self.joins.iter().enumerate() {
                if j.is_some() {
                    let _ = router.shard_txs[i].send(ShardEnvelope::Stop);
                }
            }
            for j in self.joins.iter_mut() {
                if let Some(j) = j.take() {
                    agents.extend(j.join().expect("shard thread panicked"));
                }
            }
        } else {
            agents.append(&mut self.pending);
        }
        self.faults.close();
        if let Some(j) = self.delayer_join.take() {
            let _ = j.join();
        }
        self.publish_runtime_metrics();
        agents.sort_by_key(|a| a.addr);
        agents
    }
}

/// A cloneless per-thread client handle over a running [`ShardedCluster`].
/// Obtain one per client thread via [`ShardedCluster::client`]; endpoint
/// and query id allocation is shared with the cluster, so handles and the
/// cluster can pose queries concurrently without collisions.
pub struct ShardClient {
    service: Arc<Service>,
    dns: Arc<Mutex<AuthoritativeDns>>,
    router: Arc<Router>,
    replies: Arc<Mutex<HashMap<Endpoint, Sender<ReplyTuple>>>>,
    epoch: Instant,
    next_endpoint: Arc<AtomicU64>,
    next_qid: Arc<AtomicU64>,
    resolver: CachingResolver,
}

impl ShardClient {
    /// Poses a query using self-starting routing and blocks for the answer.
    pub fn pose_query(&mut self, text: &str, timeout: Duration) -> Option<LiveReply> {
        let (_, _, name) = irisnet_core::routing::route_query(text, &self.service).ok()?;
        let now = self.epoch.elapsed().as_secs_f64();
        let target = {
            let dns = self.dns.lock();
            self.resolver.resolve(&name, &dns, now)?.addr
        };
        self.pose_query_at(text, target, timeout)
    }

    /// Poses a query to an explicit site and blocks for the answer.
    pub fn pose_query_at(
        &self,
        text: &str,
        target: SiteAddr,
        timeout: Duration,
    ) -> Option<LiveReply> {
        pose_routed(
            &self.router,
            &self.replies,
            &self.next_endpoint,
            &self.next_qid,
            text,
            target,
            timeout,
        )
    }

    /// Client-side telemetry pull: the [`ShardedCluster::scrape_site`]
    /// counterpart for per-thread client handles.
    pub fn scrape_site(
        &self,
        site: SiteAddr,
        what: u8,
        timeout: Duration,
    ) -> Option<String> {
        scrape_routed(
            &self.router,
            &self.replies,
            &self.next_endpoint,
            &self.next_qid,
            site,
            what,
            timeout,
        )
    }
}

/// Shared scrape-and-wait path: frames a `TelemetryRequest` with the
/// client sentinel (`reply_to` 0) across the wire boundary; the payload
/// comes back over the per-request reply channel. `None` means the site is
/// unrouted or never answered within `timeout`.
fn scrape_routed(
    router: &Router,
    replies: &Mutex<HashMap<Endpoint, Sender<ReplyTuple>>>,
    next_endpoint: &AtomicU64,
    next_qid: &AtomicU64,
    site: SiteAddr,
    what: u8,
    timeout: Duration,
) -> Option<String> {
    let endpoint = Endpoint(next_endpoint.fetch_add(1, Ordering::Relaxed));
    let qid = next_qid.fetch_add(1, Ordering::Relaxed);
    let (rtx, rrx) = mpsc::channel();
    replies.lock().insert(endpoint, rtx);
    let sent = router.deliver(
        None,
        site,
        Message::TelemetryRequest { qid, reply_to: SiteAddr(0), endpoint, what },
    );
    if !sent {
        replies.lock().remove(&endpoint);
        return None;
    }
    let got = rrx.recv_timeout(timeout).ok();
    replies.lock().remove(&endpoint);
    got.map(|(_, payload, _, _)| payload)
}

/// Shared pose-and-wait path: frames the `UserQuery` (clients always cross
/// the wire), fails fast with `SiteDown` if the target is unregistered.
fn pose_routed(
    router: &Router,
    replies: &Mutex<HashMap<Endpoint, Sender<ReplyTuple>>>,
    next_endpoint: &AtomicU64,
    next_qid: &AtomicU64,
    text: &str,
    target: SiteAddr,
    timeout: Duration,
) -> Option<LiveReply> {
    let endpoint = Endpoint(next_endpoint.fetch_add(1, Ordering::Relaxed));
    let qid = next_qid.fetch_add(1, Ordering::Relaxed);
    let (rtx, rrx) = mpsc::channel();
    replies.lock().insert(endpoint, rtx);
    let posed = Instant::now();
    let sent = router.deliver(
        None,
        target,
        Message::UserQuery { qid, text: text.to_string(), endpoint },
    );
    if !sent {
        replies.lock().remove(&endpoint);
        return Some(LiveReply {
            qid,
            answer_xml: format!("<error>{}</error>", CoreError::SiteDown),
            ok: false,
            partial: true,
            latency: posed.elapsed(),
        });
    }
    let got = rrx.recv_timeout(timeout).ok();
    replies.lock().remove(&endpoint);
    got.map(|(qid, answer_xml, ok, partial)| LiveReply {
        qid,
        answer_xml,
        ok,
        partial,
        latency: posed.elapsed(),
    })
}

/// Per-shard histogram handles, resolved once at shard start.
struct ShardMetrics {
    mailbox_wait: Option<Arc<Histogram>>,
    mailbox_depth: Option<Arc<Histogram>>,
    read_queue_depth: Option<Arc<Histogram>>,
}

impl ShardMetrics {
    fn new(shard: usize, recorder: &Option<Arc<dyn Recorder>>) -> ShardMetrics {
        let reg = recorder.as_ref().and_then(|r| r.registry());
        let h = |name: &str| reg.map(|r| r.histogram(0, &format!("runtime.shard{shard}.{name}")));
        ShardMetrics {
            mailbox_wait: h("mailbox_wait"),
            mailbox_depth: h("mailbox_depth"),
            read_queue_depth: h("read_queue_depth"),
        }
    }
}

fn observe(h: &Option<Arc<Histogram>>, v: f64) {
    if let Some(h) = h {
        h.observe(v);
    }
}

/// Validates the heap top against the owning agent's *current* deadline
/// (lazy invalidation) and returns the next genuine due time, if any.
fn validated_top(timers: &mut TimerHeap, agents: &HashMap<SiteAddr, OrganizingAgent>) -> Option<f64> {
    while let Some(Reverse((F64Ord(due), site))) = timers.peek().copied() {
        match agents.get(&site).and_then(|oa| oa.next_deadline()) {
            // Agent gone or retries quiesced: stale entry.
            None => {
                timers.pop();
            }
            // Deadline moved later (the ask was answered and a new one
            // armed): discard and re-arm with the real value.
            Some(d) if d > due + 1e-9 => {
                timers.pop();
                timers.push(Reverse((F64Ord(d), site)));
            }
            Some(_) => return Some(due),
        }
    }
    None
}

fn rearm(timers: &mut TimerHeap, oa: &OrganizingAgent) {
    if let Some(d) = oa.next_deadline() {
        timers.push(Reverse((F64Ord(d), oa.addr)));
    }
}

#[allow(clippy::too_many_arguments)]
fn shard_loop(
    shard_idx: usize,
    agents_in: Vec<OrganizingAgent>,
    rx: Receiver<ShardEnvelope>,
    self_tx: Sender<ShardEnvelope>,
    router: Arc<Router>,
    dns: Arc<Mutex<AuthoritativeDns>>,
    replies: Arc<Mutex<HashMap<Endpoint, Sender<ReplyTuple>>>>,
    epoch: Instant,
    workers: usize,
    faults: Arc<FaultFabric>,
    recorder: Option<Arc<dyn Recorder>>,
    depth: Arc<AtomicU64>,
) -> Vec<OrganizingAgent> {
    let metrics = ShardMetrics::new(shard_idx, &recorder);
    let mut agents: HashMap<SiteAddr, OrganizingAgent> =
        agents_in.into_iter().map(|oa| (oa.addr, oa)).collect();
    // Read contexts for the shard-shared worker pool: each worker resolves
    // the site's database/QEG pair per task (sites share workers, not
    // databases).
    let contexts: Arc<Mutex<HashMap<SiteAddr, ReadContext>>> = Arc::new(Mutex::new(
        agents.iter().map(|(a, oa)| (*a, oa.read_context())).collect(),
    ));
    let queue: Arc<WorkQueue<(SiteAddr, ReadTask)>> = Arc::new(WorkQueue::new());
    let mut worker_joins = Vec::with_capacity(workers);
    for w in 0..workers {
        let q = Arc::clone(&queue);
        let ctxs = Arc::clone(&contexts);
        let tx = self_tx.clone();
        let reg = recorder.as_ref().and_then(|r| r.registry());
        let wait_h = reg
            .map(|r| r.histogram(0, &format!("runtime.shard{shard_idx}.read_queue_wait")));
        let join = std::thread::Builder::new()
            .name(format!("shard-{shard_idx}-w{w}"))
            .spawn(move || {
                while let Some(((site, task), wait)) = q.pop() {
                    observe(&wait_h, wait);
                    let ctx = ctxs.lock().get(&site).cloned();
                    let done = match ctx {
                        Some(c) => c.perform(&task),
                        None => site_down_done(&task),
                    };
                    if tx.send(ShardEnvelope::Done { site, done }).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn shard read worker");
        worker_joins.push(join);
    }
    drop(self_tx);

    let route = |from: SiteAddr, outs: Vec<Outbound>| {
        for o in outs {
            match o {
                Outbound::Send { to, msg } => {
                    faults.send_site(from, to, msg, |to, m| {
                        router.deliver(Some(shard_idx), to, m);
                    });
                }
                Outbound::ReplyUser { endpoint, qid, answer_xml, ok, partial } => {
                    if let Some(tx) = replies.lock().get(&endpoint) {
                        let _ = tx.send((qid, answer_xml, ok, partial));
                    }
                }
            }
        }
    };

    // Retry-tick timer heap, seeded from any deadlines armed at handoff.
    let mut timers: TimerHeap = BinaryHeap::new();
    for oa in agents.values() {
        rearm(&mut timers, oa);
    }

    loop {
        let env = match validated_top(&mut timers, &agents) {
            None => match rx.recv() {
                Ok(e) => e,
                Err(_) => break,
            },
            Some(due) => {
                let wait = (due - epoch.elapsed().as_secs_f64()).clamp(0.0, 3600.0);
                match rx.recv_timeout(Duration::from_secs_f64(wait)) {
                    Ok(e) => e,
                    Err(RecvTimeoutError::Timeout) => {
                        // Fire every genuinely-due timer, then go around.
                        let now = epoch.elapsed().as_secs_f64();
                        while let Some(due) = validated_top(&mut timers, &agents) {
                            if due > now + 1e-9 {
                                break;
                            }
                            let Some(Reverse((_, site))) = timers.pop() else { break };
                            let Some(oa) = agents.get_mut(&site) else { continue };
                            let outs = {
                                let mut dns = dns.lock();
                                oa.tick(&mut dns, now)
                            };
                            route(site, outs);
                            rearm(&mut timers, &agents[&site]);
                        }
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        };
        let now = epoch.elapsed().as_secs_f64();
        match env {
            ShardEnvelope::Msg { .. } | ShardEnvelope::Frame { .. } => {
                let (to, msg, sent) = match env {
                    ShardEnvelope::Msg { to, msg, sent } => (to, msg, sent),
                    ShardEnvelope::Frame { to, bytes, sent } => {
                        match decode_frame(&bytes) {
                            Ok(m) => (to, m, sent),
                            Err(e) => {
                                // In-process both ends run the same codec;
                                // a failure here is a bug, not line noise.
                                debug_assert!(false, "wire decode failed: {e}");
                                let left = depth.fetch_sub(1, Ordering::Relaxed) - 1;
                                observe(&metrics.mailbox_depth, left as f64);
                                continue;
                            }
                        }
                    }
                    _ => unreachable!(),
                };
                let left = depth.fetch_sub(1, Ordering::Relaxed) - 1;
                observe(&metrics.mailbox_depth, left as f64);
                observe(&metrics.mailbox_wait, sent.elapsed().as_secs_f64());
                let Some(oa) = agents.get_mut(&to) else { continue };
                if workers == 0 {
                    // Serial path: `handle` runs read tasks inline.
                    let outs = {
                        let mut dns = dns.lock();
                        oa.handle(msg, &mut dns, now)
                    };
                    route(to, outs);
                } else {
                    let oc = {
                        let mut dns = dns.lock();
                        oa.handle_split(msg, &mut dns, now)
                    };
                    route(to, oc.out);
                    for t in oc.tasks {
                        let d = queue.push((to, t));
                        observe(&metrics.read_queue_depth, d as f64);
                    }
                }
                rearm(&mut timers, &agents[&to]);
            }
            ShardEnvelope::Done { site, done } => {
                let Some(oa) = agents.get_mut(&site) else { continue };
                let oc = {
                    let mut dns = dns.lock();
                    oa.complete_read(done, &mut dns, now)
                };
                route(site, oc.out);
                for t in oc.tasks {
                    let d = queue.push((site, t));
                    observe(&metrics.read_queue_depth, d as f64);
                }
                rearm(&mut timers, &agents[&site]);
            }
            ShardEnvelope::Attach(boxed) => {
                let oa = *boxed;
                let addr = oa.addr;
                contexts.lock().insert(addr, oa.read_context());
                rearm(&mut timers, &oa);
                agents.insert(addr, oa);
            }
            ShardEnvelope::Detach { site, reply } => {
                contexts.lock().remove(&site);
                if let Some(mut oa) = agents.remove(&site) {
                    // Queries still gathering can never finish once the
                    // site is gone: fail them out loud, like shutdown does.
                    let outs = oa.fail_pending();
                    route(site, outs);
                    oa.publish_metrics();
                    let _ = reply.send(Box::new(oa));
                }
                // Stale timer-heap entries are lazily invalidated by
                // validated_top; late worker Done envelopes for the site
                // fall through the agents lookup harmlessly.
            }
            ShardEnvelope::Stop => {
                // The PR 3 shutdown discipline, per shard: stop workers
                // after their in-flight task, then complete everything
                // still queued or pending with `SiteDown` results so no
                // client is left blocking on any of this shard's sites.
                let abandoned = queue.close_abandon();
                for j in worker_joins.drain(..) {
                    let _ = j.join();
                }
                let mut dones: VecDeque<(SiteAddr, ReadDone)> = VecDeque::new();
                while let Ok(env2) = rx.try_recv() {
                    if let ShardEnvelope::Done { site, done } = env2 {
                        dones.push_back((site, done));
                    }
                }
                dones.extend(abandoned.iter().map(|(s, t)| (*s, site_down_done(t))));
                let now = epoch.elapsed().as_secs_f64();
                while let Some((site, d)) = dones.pop_front() {
                    let Some(oa) = agents.get_mut(&site) else { continue };
                    let oc = {
                        let mut dns = dns.lock();
                        oa.complete_read(d, &mut dns, now)
                    };
                    route(site, oc.out);
                    // Follow-up tasks run inline (workers are gone).
                    for t in oc.tasks {
                        let done = {
                            let db = oa.db();
                            perform_read(&t, &oa.qeg(), &db)
                        };
                        dones.push_back((site, done));
                    }
                }
                // Queries still gathering remote answers can never finish:
                // fail them out loud, in address order for determinism.
                let mut addrs: Vec<SiteAddr> = agents.keys().copied().collect();
                addrs.sort();
                for a in addrs {
                    let outs = agents.get_mut(&a).expect("listed above").fail_pending();
                    route(a, outs);
                }
                break;
            }
        }
    }
    queue.close_abandon();
    for j in worker_joins {
        let _ = j.join();
    }
    // Final counter export, then hand the agents back sorted.
    let mut out: Vec<OrganizingAgent> = agents.into_values().collect();
    out.sort_by_key(|a| a.addr);
    for oa in &mut out {
        oa.publish_metrics();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use irisnet_core::OaConfig;

    fn master() -> sensorxml::Document {
        sensorxml::parse(
            r#"<usRegion id="NE"><state id="PA"><county id="A"><city id="P">
                 <neighborhood id="Oakland">
                   <block id="1"><parkingSpace id="1"><available>yes</available></parkingSpace>
                               <parkingSpace id="2"><available>no</available></parkingSpace></block>
                 </neighborhood>
                 <neighborhood id="Shadyside">
                   <block id="1"><parkingSpace id="1"><available>yes</available></parkingSpace></block>
                 </neighborhood>
               </city></county></state></usRegion>"#,
        )
        .unwrap()
    }

    fn pgh() -> IdPath {
        IdPath::from_pairs([
            ("usRegion", "NE"),
            ("state", "PA"),
            ("county", "A"),
            ("city", "P"),
        ])
    }

    fn two_site_cluster(config: ShardConfig) -> ShardedCluster {
        let svc = Service::parking();
        let mut cluster = ShardedCluster::with_config(svc.clone(), config);
        let root = IdPath::from_pairs([("usRegion", "NE")]);
        let oa1 = OrganizingAgent::new(SiteAddr(1), svc.clone(), OaConfig::default());
        oa1.db_mut().bootstrap_owned(&master(), &root, true).unwrap();
        let oa2 = OrganizingAgent::new(SiteAddr(2), svc.clone(), OaConfig::default());
        let shady = pgh().child("neighborhood", "Shadyside");
        oa2.db_mut().bootstrap_owned(&master(), &shady, true).unwrap();
        cluster.register_owner(&root, SiteAddr(1));
        cluster.register_owner(&shady, SiteAddr(2));
        // Site 1 must genuinely lack Shadyside: demote and evict it.
        oa1.db_mut()
            .set_status_subtree(&shady, irisnet_core::Status::Complete)
            .unwrap();
        oa1.db_mut().evict(&shady).unwrap();
        cluster.add_site(oa1);
        cluster.add_site(oa2);
        cluster.start();
        cluster
    }

    #[test]
    fn end_to_end_across_shards_over_the_wire() {
        // Two sites on two shards, every send framed: the distributed
        // query crosses the codec in both directions.
        let mut cluster = two_site_cluster(ShardConfig {
            shards: 2,
            workers_per_shard: 1,
            force_wire: true,
        });
        let q = "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']\
                 /neighborhood[@id='Oakland' or @id='Shadyside']/block[@id='1']\
                 /parkingSpace[available='yes']";
        let reply = cluster.pose_query(q, Duration::from_secs(5)).expect("reply");
        assert!(reply.ok, "answer: {}", reply.answer_xml);
        assert_eq!(reply.answer_xml.matches("<parkingSpace").count(), 2);
        let agents = cluster.shutdown();
        assert_eq!(agents.len(), 2);
        let total_sub: u64 = agents.iter().map(|a| a.stats.subqueries_sent).sum();
        assert!(total_sub >= 1);
    }

    #[test]
    fn update_then_query_sees_fresh_value_on_one_shard() {
        // Both sites multiplexed onto one shard, serial reads: the admin
        // update and the query land in the same mailbox in order.
        let cluster = two_site_cluster(ShardConfig {
            shards: 1,
            workers_per_shard: 0,
            force_wire: false,
        });
        let sp = pgh()
            .child("neighborhood", "Oakland")
            .child("block", "1")
            .child("parkingSpace", "2");
        cluster.send(
            SiteAddr(1),
            Message::Update { path: sp, fields: vec![("available".into(), "yes".into())] },
        );
        let q = "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']\
                 /neighborhood[@id='Oakland']/block[@id='1']/parkingSpace[available='yes']";
        let reply = cluster
            .pose_query_at(q, SiteAddr(1), Duration::from_secs(5))
            .expect("reply");
        assert_eq!(reply.answer_xml.matches("<parkingSpace").count(), 2);
        cluster.shutdown();
    }

    #[test]
    fn pose_to_stopped_shard_fails_fast() {
        let mut cluster = two_site_cluster(ShardConfig {
            shards: 2,
            workers_per_shard: 1,
            force_wire: false,
        });
        // Site 1 lives on shard 1 (addr 1 % 2); stop it.
        let stopped = cluster.stop_shard(1);
        assert_eq!(stopped.len(), 1);
        assert_eq!(stopped[0].addr, SiteAddr(1));
        let t0 = Instant::now();
        let r = cluster
            .pose_query_at("/usRegion[@id='NE']", SiteAddr(1), Duration::from_secs(30))
            .expect("fail-fast reply");
        assert!(!r.ok);
        assert!(r.answer_xml.contains("site down"), "got: {}", r.answer_xml);
        assert!(t0.elapsed() < Duration::from_secs(5), "did not fail fast");
        cluster.shutdown();
    }

    /// A message sent before the shards exist has nowhere to go: it must
    /// not vanish silently.
    #[test]
    #[should_panic(expected = "send before start")]
    fn send_before_start_panics() {
        let cluster = ShardedCluster::new(Service::parking());
        cluster.send(
            SiteAddr(1),
            Message::Update { path: pgh(), fields: vec![("available".into(), "yes".into())] },
        );
    }

    #[test]
    #[should_panic(expected = "subscribe before start")]
    fn subscribe_before_start_panics() {
        let mut cluster = ShardedCluster::new(Service::parking());
        let _ = cluster.subscribe(SiteAddr(1), "/usRegion[@id='NE']");
    }
}
