//! Organizing agents and sensing agents.
//!
//! An [`OrganizingAgent`] (OA) is the site manager: it owns a fragment
//! database, answers user queries and subqueries with the QEG machinery,
//! applies sensor updates, caches gathered fragments, and participates in
//! ownership migration. It is written as a **pure message-driven state
//! machine**: [`OrganizingAgent::handle`] consumes one [`Message`] and
//! returns the [`Outbound`] traffic it generates. Both cluster substrates
//! (live threads and the discrete-event simulator) drive the same code.
//!
//! The query path is split into a mutation stage and a read stage so a
//! hot site can use more than one core. The owner loop (whoever calls
//! [`OrganizingAgent::handle_split`]) keeps *exclusive* charge of all
//! mutable state — the pending-query table (`pending`, `asked`,
//! `outstanding`), fragment merges, updates, evictions, and migration —
//! while QEG passes and answer serialization are emitted as [`ReadTask`]s
//! that only need a read-locked [`SiteDatabase`] snapshot and the shared
//! [`QegFactory`]. A substrate
//! can run those tasks on worker threads ([`perform_read`]) and funnel
//! each [`ReadDone`] back into [`OrganizingAgent::complete_read`] on the
//! owner loop; or it can drain them inline ([`OrganizingAgent::handle`]),
//! which reproduces the original strictly serial semantics — the
//! discrete-event simulator does exactly that and doubles as the
//! correctness oracle for the parallel path.
//!
//! A [`SensingAgent`] (SA) is a sensor proxy: it turns raw sensor readings
//! into update messages for the OA owning the relevant node (§1, §5.2).

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use irisdns::{AuthoritativeDns, CachingResolver, SiteAddr};
use irisobs::telemetry::{disabled_payload, TelemetryPlane};
use irisobs::{CacheOutcome, Link, Recorder, SpanKind};
use sensorxpath::Expr;

use crate::continuous::ContinuousRegistry;
use crate::error::{CoreError, CoreResult};
use crate::eviction::{CacheLookup, CacheManager, CacheStats, EvictionPolicy};
use crate::fragment::{SiteDatabase, Status, UnitCost};
use crate::idable::IdPath;
use crate::obs::ObsPlane;
use crate::qeg::{
    extract_user_answer, generalized_subquery, literal_subquery, matched_final_nodes, plan_query,
    Ask, AskKind, NativeWalk, PassEngine, QegFactory, QueryPlan,
};
use crate::routing::lca_id_path;
use crate::service::Service;
use crate::storage::{RecoveredState, RecoveryStats, SiteStore, SiteWal};

/// Query identifier, unique per originating agent.
pub type QueryId = u64;

/// An opaque handle to a user-facing client (a front-end connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Endpoint(pub u64);

/// Messages exchanged between agents. Fragments and answers travel as XML
/// *text*, exactly as they would on a real wire; (de)serialization cost is
/// accounted to communication time. `PartialEq` is the wire-codec
/// roundtrip oracle: a decoded frame must compare equal to the original.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// A user query arriving at this site (already routed via DNS).
    UserQuery { qid: QueryId, text: String, endpoint: Endpoint },
    /// A subquery from another OA gathering missing data.
    SubQuery { qid: QueryId, text: String, reply_to: SiteAddr },
    /// Several subqueries for the same owner coalesced into one wire
    /// message (one gather round frequently asks a single site for many
    /// siblings). Each entry is `(qid, text)` and is answered with its own
    /// [`Message::SubAnswer`].
    SubQueryBatch { entries: Vec<(QueryId, String)>, reply_to: SiteAddr },
    /// A subquery answer: an exported fragment (empty string = no data).
    /// `partial` propagates graceful degradation: the answering site could
    /// not reach some of the data the subquery covered, so the asker must
    /// flag its own answer too.
    SubAnswer { qid: QueryId, fragment_xml: String, partial: bool },
    /// A sensor update from an SA (or forwarded by a previous owner).
    Update { path: IdPath, fields: Vec<(String, String)> },
    /// Administrative: delegate ownership of `path`'s subtree to `to` (§4).
    Delegate { path: IdPath, to: SiteAddr },
    /// Ownership transfer carrying the subtree fragment.
    TakeOwnership { path: IdPath, fragment_xml: String, from: SiteAddr },
    /// New owner's acknowledgement; the old owner demotes and forwards.
    TakeAck { path: IdPath, new_owner: SiteAddr },
    /// Register a continuous query at this site (normally the owner of the
    /// query's LCA); the subscriber receives an initial snapshot and then a
    /// fresh answer whenever a sensor update changes it (§7).
    Subscribe { qid: QueryId, text: String, endpoint: Endpoint },
    /// Cancel a continuous query.
    Unsubscribe { qid: QueryId },
    /// Telemetry scrape: ask this site for its continuous-telemetry
    /// payload (windowed series, flight-recorder dump, health — `what`
    /// selects sections, see `irisobs::telemetry::WHAT_*`). Two reply
    /// modes: `reply_to == SiteAddr(0)` (no real site is 0) answers the
    /// client `endpoint` directly like a query answer; a non-zero
    /// `reply_to` sends a [`Message::TelemetryReply`] to that site, so a
    /// controller site can poll its peers over the same wire.
    TelemetryRequest { qid: QueryId, reply_to: SiteAddr, endpoint: Endpoint, what: u8 },
    /// A peer site's scrape answer: the JSONL telemetry payload. Parked in
    /// the receiving agent's telemetry inbox
    /// ([`OrganizingAgent::take_telemetry_replies`]).
    TelemetryReply { qid: QueryId, payload: String },
}

/// Traffic generated by handling one message.
#[derive(Debug, Clone)]
pub enum Outbound {
    /// Send a message to another site.
    Send { to: SiteAddr, msg: Message },
    /// Deliver a final answer to a user endpoint. `partial = true` means
    /// some covered subtree was unreachable after retries were exhausted:
    /// the answer merges what was gathered, and the unreachable subtrees'
    /// covering nodes appear in the XML stamped `partial="true"`.
    ReplyUser {
        endpoint: Endpoint,
        qid: QueryId,
        answer_xml: String,
        ok: bool,
        partial: bool,
    },
}

/// A read-only unit of query work: everything needed to run one QEG pass
/// or assemble one answer against a [`SiteDatabase`] snapshot, with no
/// access to the owner loop's mutable state.
#[derive(Debug, Clone)]
pub struct ReadTask {
    /// The pending query this task advances.
    pub pid: QueryId,
    /// Query-arrival time (drives `now()` in consistency predicates).
    pub posed_at: f64,
    pub kind: ReadTaskKind,
}

/// What a [`ReadTask`] does.
#[derive(Debug, Clone)]
pub enum ReadTaskKind {
    /// Create the QEG program and run one evaluate pass.
    Execute { plan: Arc<QueryPlan>, ignore_complete: bool },
    /// Extract and serialize the final user answer. `failed` carries the
    /// coalesced covering paths of subtrees whose retries were exhausted;
    /// they are stamped into the answer as `partial="true"` stub nodes.
    FinalizeUser { plan: Arc<QueryPlan>, endpoint: Endpoint, qid: QueryId, failed: Vec<IdPath> },
    /// Export and serialize the subquery answer fragment. `partial` marks
    /// a fragment assembled with unreachable subtrees missing.
    FinalizeSite { plan: Arc<QueryPlan>, addr: SiteAddr, qid: QueryId, partial: bool },
}

/// The completion record of a [`ReadTask`], handed back to the owner loop
/// via [`OrganizingAgent::complete_read`]. Phase timings are carried along
/// so stats stay accurate no matter which thread did the work.
#[derive(Debug)]
pub struct ReadDone {
    pub pid: QueryId,
    pub result: ReadResult,
    pub time_create: f64,
    pub time_exec: f64,
    pub time_extract: f64,
    pub time_comm: f64,
}

/// Outcome payload of a [`ReadTask`].
#[derive(Debug)]
pub enum ReadResult {
    /// One QEG pass completed; these are the extracted asks.
    Executed { asks: Vec<Ask> },
    /// Final user answer ready (`ok = false` carries an `<error>` body).
    UserAnswer { endpoint: Endpoint, qid: QueryId, answer_xml: String, ok: bool, partial: bool },
    /// Subquery answer fragment ready (empty string = no data).
    Fragment { addr: SiteAddr, qid: QueryId, fragment_xml: String, partial: bool },
    /// Program creation or execution failed.
    ExecError { error_xml: String },
}

/// Everything one owner-loop step produces: outbound traffic plus read
/// tasks for the substrate to run (inline or on a worker pool).
#[derive(Debug, Default)]
pub struct HandleOutcome {
    pub out: Vec<Outbound>,
    pub tasks: Vec<ReadTask>,
}

/// Read-locks a site database. Poison is tolerated: a read worker that
/// panicked mid-task left the database as any reader sees it, and the owner
/// loop must keep serving the site.
fn read_db(db: &RwLock<SiteDatabase>) -> RwLockReadGuard<'_, SiteDatabase> {
    db.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks a site database, tolerating poison like [`read_db`].
fn write_db(db: &RwLock<SiteDatabase>) -> RwLockWriteGuard<'_, SiteDatabase> {
    db.write().unwrap_or_else(PoisonError::into_inner)
}

/// Everything a read worker needs to run this site's [`ReadTask`]s,
/// detached from the agent itself: the shared database handle and the QEG
/// factory. A substrate that multiplexes many agents onto shared worker
/// pools (the sharded event-loop runtime) keeps one `ReadContext` per site
/// in a lookup table instead of capturing per-site state in per-site
/// threads — the read path no longer assumes a site owns any thread.
#[derive(Debug, Clone)]
pub struct ReadContext {
    pub db: Arc<RwLock<SiteDatabase>>,
    pub qeg: Arc<QegFactory>,
}

impl ReadContext {
    /// Runs one task against a read-locked snapshot of the site database.
    pub fn perform(&self, task: &ReadTask) -> ReadDone {
        perform_read(task, &self.qeg, &read_db(&self.db))
    }
}

/// Runs one read task against a database snapshot. Pure with respect to
/// the agent: only the shared QEG factory's interior counters/cache move.
/// Substrates call this from worker threads while holding a read lock on
/// the site database.
pub fn perform_read(task: &ReadTask, qeg: &QegFactory, db: &SiteDatabase) -> ReadDone {
    let mut done = ReadDone {
        pid: task.pid,
        result: ReadResult::Executed { asks: Vec::new() },
        time_create: 0.0,
        time_exec: 0.0,
        time_extract: 0.0,
        time_comm: 0.0,
    };
    done.result = match &task.kind {
        ReadTaskKind::Execute { plan, ignore_complete } => {
            match qeg.run(plan, db, task.posed_at, *ignore_complete) {
                Ok(pass) => {
                    done.time_create = pass.create_s;
                    done.time_exec = pass.exec_s;
                    ReadResult::Executed { asks: pass.asks }
                }
                Err(e) => ReadResult::ExecError { error_xml: format!("<error>{e}</error>") },
            }
        }
        ReadTaskKind::FinalizeUser { plan, endpoint, qid, failed } => {
            let t = Instant::now();
            let answer = extract_user_answer(plan, db, task.posed_at);
            done.time_extract = t.elapsed().as_secs_f64();
            match answer {
                Ok(mut doc) => {
                    if let (false, Some(root)) = (failed.is_empty(), doc.root()) {
                        append_partial_stubs(&mut doc, root, failed);
                    }
                    let t2 = Instant::now();
                    let xml = doc
                        .root()
                        .map(|r| sensorxml::serialize(&doc, r))
                        .unwrap_or_default();
                    done.time_comm = t2.elapsed().as_secs_f64();
                    ReadResult::UserAnswer {
                        endpoint: *endpoint,
                        qid: *qid,
                        answer_xml: xml,
                        ok: true,
                        partial: !failed.is_empty(),
                    }
                }
                Err(e) => ReadResult::UserAnswer {
                    endpoint: *endpoint,
                    qid: *qid,
                    answer_xml: format!("<error>{e}</error>"),
                    ok: false,
                    partial: !failed.is_empty(),
                },
            }
        }
        ReadTaskKind::FinalizeSite { plan, addr, qid, partial } => {
            let t = Instant::now();
            let export = matched_final_nodes(plan, db, task.posed_at).and_then(|nodes| {
                if nodes.is_empty() {
                    // Negative evidence: ship the local information of the
                    // deepest stored id-pinned prefix, so the requester
                    // learns which children actually exist (deleted nodes
                    // disappear from caches).
                    deepest_pinned_node(&plan.expr, db.doc())
                        .map(|n| db.plan_local_info_node(n))
                        .transpose()
                } else {
                    // Ship whole cached units where the match covers them
                    // (subsumption, §3.3): the receiver then caches e.g. a
                    // complete block instead of loose parking spaces.
                    let coalesced = db.coalesce_covering_nodes(&nodes);
                    db.plan_export_nodes(&coalesced).map(Some)
                }
            });
            done.time_extract = t.elapsed().as_secs_f64();
            let fragment_xml = match export {
                Ok(Some(export)) => {
                    let t2 = Instant::now();
                    let xml = export.xml();
                    done.time_comm = t2.elapsed().as_secs_f64();
                    xml
                }
                _ => String::new(),
            };
            ReadResult::Fragment { addr: *addr, qid: *qid, fragment_xml, partial: *partial }
        }
    };
    done
}

/// The stored node of the longest prefix of the query's id-pinned steps
/// ([`lca_id_path`]) that resolves here, walked top down.
fn deepest_pinned_node(expr: &Expr, doc: &sensorxml::Document) -> Option<sensorxml::NodeId> {
    let Expr::Path(path) = expr else { return None };
    if !path.absolute {
        return None;
    }
    let mut found = None;
    for (tag, id) in path.steps.iter().map_while(sensorxpath::analysis::id_pinned_step) {
        let next = match found {
            None => doc.root().filter(|&r| doc.name(r) == tag && doc.attr(r, "id") == Some(id)),
            Some(parent) => doc.child_by_name_id(parent, tag, id),
        };
        match next {
            Some(n) => found = Some(n),
            None => break,
        }
    }
    found
}

/// Appends one stub chain per exhausted covering path: the id-path's
/// ancestry as bare `tag/id` elements with the terminal (covering) node
/// stamped `partial="true"` — the analogue of the paper's query-based
/// consistency timestamps, but for reachability instead of freshness.
fn append_partial_stubs(doc: &mut sensorxml::Document, root: sensorxml::NodeId, failed: &[IdPath]) {
    for path in failed {
        let segs = path.segments();
        let mut parent = root;
        for (i, (tag, id)) in segs.iter().enumerate() {
            let e = doc.create_element(tag.clone());
            doc.set_attr(e, "id", id.clone());
            if i + 1 == segs.len() {
                doc.set_attr(e, "partial", "true");
            }
            doc.append_child(parent, e);
            parent = e;
        }
    }
}

/// Caching policy for gathered fragments (§3.3, §5.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Merge every gathered fragment into the site database (the paper's
    /// aggressive default).
    Aggressive,
    /// Never retain gathered data: gather into a per-query scratch overlay
    /// discarded afterwards.
    Off,
}

/// Ask-level retry policy: when a subquery's answer does not arrive within
/// `ask_timeout`, the agent re-resolves the owner through DNS (covering
/// migration races and restarted sites) and resends the subquery with the
/// *same* sub-query id — the receiver may therefore see duplicates, which
/// the ask bookkeeping ignores. Consecutive timeouts back off
/// exponentially (`ask_timeout * backoff^attempt`, capped at
/// `max_backoff`); after `max_retries` resends the ask is abandoned and
/// the query degrades to a `partial` answer instead of hanging.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Seconds to wait for a subquery answer. `f64::INFINITY` disables
    /// retries entirely (the default: the paper's experiments assume a
    /// lossless network, and the fault-free substrates need no timers).
    pub ask_timeout: f64,
    /// Resends after the initial attempt before abandoning the ask.
    pub max_retries: u32,
    /// Multiplier applied to the timeout per consecutive failure.
    pub backoff: f64,
    /// Upper bound on any single backoff interval (seconds).
    pub max_backoff: f64,
}

impl RetryPolicy {
    /// Retries disabled (the default policy).
    pub fn disabled() -> RetryPolicy {
        RetryPolicy { ask_timeout: f64::INFINITY, max_retries: 0, backoff: 2.0, max_backoff: 60.0 }
    }

    /// A bounded policy: timeout, `max_retries` resends, 2× backoff capped
    /// at 8 timeouts.
    pub fn bounded(ask_timeout: f64, max_retries: u32) -> RetryPolicy {
        RetryPolicy { ask_timeout, max_retries, backoff: 2.0, max_backoff: ask_timeout * 8.0 }
    }

    /// Whether timeouts are armed at all.
    pub fn enabled(&self) -> bool {
        self.ask_timeout.is_finite()
    }

    /// The wait interval after `attempts` consecutive timeouts.
    pub fn delay_after(&self, attempts: u32) -> f64 {
        (self.ask_timeout * self.backoff.powi(attempts as i32)).min(self.max_backoff)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::disabled()
    }
}

/// DNS resolver cache TTL (seconds).
const DNS_TTL_S: f64 = 60.0;

/// Maximum gather iterations per query before answering with whatever was
/// assembled.
const MAX_GATHER_ITERATIONS: u32 = 16;

/// Agent configuration.
#[derive(Debug, Clone)]
pub struct OaConfig {
    pub cache: CacheMode,
    /// How QEG passes run: the native walk ([`NativeWalk`], the default),
    /// or another [`PassEngine`] — the XSLT oracle crate's naive and fast
    /// creation are the Fig. 11 arms. Every agent built from this config
    /// shares the one engine.
    pub engine: Arc<dyn PassEngine>,
    /// Probability that a query is allowed to use cached (`complete`) data;
    /// the remainder refresh from owners even when a copy is cached. 1.0
    /// reproduces the paper's aggressive caching, 0.0 its "caching with no
    /// hits" control (Fig. 10).
    pub cache_hit_prob: f64,
    /// Cache eviction policy for gathered fragments (the paper's prototype
    /// uses `KeepForever`).
    pub eviction: EvictionPolicy,
    /// TinyLFU-style admission filter for budgeted eviction policies:
    /// when caching a new unit would overflow the budget, it is admitted
    /// only if its estimated request frequency beats the would-be
    /// victim's, so one-off scans cannot displace hot neighborhoods.
    pub cache_admission: bool,
    /// Generalize subqueries to their id-predicate-only superset (§3.3).
    /// Disabling this is the ablation arm: owners ship exact matches only,
    /// and caches stop serving queries with different value predicates.
    pub generalize_subqueries: bool,
    /// Subquery timeout/retry policy (disabled by default).
    pub retry: RetryPolicy,
}

impl Default for OaConfig {
    fn default() -> Self {
        OaConfig {
            cache: CacheMode::Aggressive,
            engine: Arc::new(NativeWalk),
            cache_hit_prob: 1.0,
            eviction: EvictionPolicy::KeepForever,
            cache_admission: true,
            generalize_subqueries: true,
            retry: RetryPolicy::disabled(),
        }
    }
}

/// Per-agent counters and phase timers (Fig. 11's breakdown).
#[derive(Debug, Clone, Default)]
pub struct OaStats {
    pub user_queries: u64,
    pub subqueries_handled: u64,
    pub subqueries_sent: u64,
    /// Batched subquery messages sent (each carries ≥ 2 subqueries for
    /// one owner site).
    pub subquery_batches_sent: u64,
    pub answers_sent: u64,
    pub answered_locally: u64,
    pub updates_applied: u64,
    pub updates_forwarded: u64,
    pub cache_merges: u64,
    pub dropped_asks: u64,
    pub held_messages: u64,
    pub queries_forwarded: u64,
    /// Subqueries resent after an ask-level timeout.
    pub retries_sent: u64,
    /// Asks abandoned after the retry budget was exhausted (each one turns
    /// an exact answer into a partial one).
    pub asks_abandoned: u64,
    /// Answers (user or site) flagged partial.
    pub partial_answers: u64,
    /// Seconds spent creating (compiling/patching) XSLT programs.
    pub time_create_xslt: f64,
    /// Seconds spent executing XSLT programs.
    pub time_exec_xslt: f64,
    /// Seconds spent extracting answers / exporting fragments.
    pub time_extract: f64,
    /// Seconds spent serializing/parsing wire XML (communication CPU).
    pub time_comm: f64,
}

#[derive(Debug)]
enum Origin {
    User { endpoint: Endpoint, qid: QueryId },
    Site { addr: SiteAddr, qid: QueryId },
}

#[derive(Debug, Clone, Copy)]
struct RetryState {
    /// Resends already performed.
    attempts: u32,
    /// When the current wait expires.
    next_at: f64,
}

#[derive(Debug)]
struct Pending {
    /// Shared with every read task of the query: a pass clones a pointer,
    /// not the plan's expression trees.
    plan: Arc<QueryPlan>,
    /// Whether this query may use cached data (drawn per query from
    /// `cache_hit_prob`).
    use_cache: bool,
    origin: Origin,
    /// Outstanding subqueries: our sub-qid → the ask it serves.
    outstanding: HashMap<QueryId, Ask>,
    /// Retry bookkeeping per outstanding sub-qid (only populated when the
    /// retry policy is enabled).
    retry: HashMap<QueryId, RetryState>,
    /// Ask paths abandoned after retry exhaustion: the covering nodes the
    /// final answer stamps `partial="true"`.
    failed: Vec<IdPath>,
    /// Asks already issued (loop breaker for unsatisfiable/stale-repeat).
    asked: HashSet<(IdPath, AskKind)>,
    iterations: u32,
    /// Gather overlay when caching is off (created lazily on the first
    /// gathered fragment, so purely local queries never pay the clone).
    scratch: Option<SiteDatabase>,
    /// True when gathered fragments must not persist in the site database.
    ephemeral: bool,
    /// Query-arrival time (drives `now()` in consistency predicates).
    posed_at: f64,
    /// Root span id of this query's trace (0 when tracing is off).
    obs_root: u64,
    /// Ask span ids by sub-qid, for parenting retries and sub-answers.
    obs_asks: HashMap<QueryId, u64>,
}

/// The organizing agent: one per site.
#[derive(Debug)]
pub struct OrganizingAgent {
    pub addr: SiteAddr,
    pub service: Arc<Service>,
    /// The site database. Read-path workers hold read locks while
    /// executing QEG programs; every mutation goes through the owner loop
    /// taking the write lock ([`OrganizingAgent::db_mut`]).
    db: Arc<RwLock<SiteDatabase>>,
    pub config: OaConfig,
    pub stats: OaStats,
    /// Shared across read workers.
    qeg: Arc<QegFactory>,
    resolver: CachingResolver,
    pending: HashMap<QueryId, Pending>,
    next_qid: QueryId,
    /// Paths currently being delegated away: traffic for them is held.
    migrating_out: HashSet<IdPath>,
    held: Vec<Message>,
    /// Completed transfers: old owner forwards traffic to the new owner.
    forward: HashMap<IdPath, SiteAddr>,
    /// Continuous-query subscribers (§7).
    continuous: ContinuousRegistry,
    /// Cached-unit tracking for the eviction policy. Bookkeeping happens
    /// on the mutation path (owner loop); the budget sweep runs only at
    /// quiescent points ([`OrganizingAgent::maybe_enforce`]) — never while
    /// a query is in flight, and never on the read path.
    cache_mgr: CacheManager,
    /// Read tasks handed to the substrate and not yet completed. Cache
    /// enforcement waits until this hits zero so in-flight QEG passes and
    /// finalize reads never lose data under them.
    tasks_in_flight: usize,
    /// Observability plane (no-op by default; see
    /// [`OrganizingAgent::set_recorder`]).
    obs: ObsPlane,
    /// Queue-wait hint for the next arrival, set by the substrate just
    /// before dispatch and consumed by the arrival span.
    obs_queue_wait: f64,
    /// Root/arrival span of the message currently being dispatched; the
    /// pending entry created under it inherits this as `obs_root`.
    obs_cur_root: u64,
    /// Root-span context (root span id, partial-stub count) for queries
    /// whose finalize read task is in flight — the pending entry is
    /// already gone by the time the task completes.
    finishing: HashMap<QueryId, (u64, u64)>,
    /// Telemetry payloads received from peer sites (site-to-site scrape
    /// mode), bounded; drained by
    /// [`OrganizingAgent::take_telemetry_replies`].
    telemetry_inbox: Vec<(QueryId, String)>,
}

/// Bound on buffered peer telemetry replies: a controller that never
/// drains its inbox sheds the oldest payloads instead of growing.
const TELEMETRY_INBOX_CAP: usize = 64;

impl OrganizingAgent {
    /// Creates an agent with an empty database.
    pub fn new(addr: SiteAddr, service: Arc<Service>, config: OaConfig) -> OrganizingAgent {
        let mut cache_mgr = CacheManager::new(config.eviction);
        cache_mgr.set_admission(config.cache_admission);
        OrganizingAgent {
            addr,
            service: service.clone(),
            db: Arc::new(RwLock::new(SiteDatabase::new(service))),
            qeg: Arc::new(QegFactory::new(config.engine.clone())),
            resolver: CachingResolver::new(DNS_TTL_S),
            config,
            stats: OaStats::default(),
            pending: HashMap::new(),
            next_qid: 1,
            migrating_out: HashSet::new(),
            held: Vec::new(),
            forward: HashMap::new(),
            continuous: ContinuousRegistry::new(),
            cache_mgr,
            tasks_in_flight: 0,
            obs: ObsPlane::noop(),
            obs_queue_wait: 0.0,
            obs_cur_root: 0,
            finishing: HashMap::new(),
            telemetry_inbox: Vec::new(),
        }
    }

    /// Attaches an observability recorder. When the recorder is enabled,
    /// every message handled from here on records causally-linked spans.
    pub fn set_recorder(&mut self, rec: Arc<dyn Recorder>) {
        self.obs = ObsPlane::new(rec);
    }

    /// Substrate hint: how long the message about to be dispatched waited
    /// in a queue before service. Consumed by the next arrival span.
    pub fn note_queue_wait(&mut self, wait: f64) {
        self.obs_queue_wait = wait;
    }

    /// Publishes the agent's counters into the recorder's registry as
    /// `oa.*` series (call at dump time; values mirror [`OaStats`]).
    pub fn publish_metrics(&self) {
        let Some(reg) = self.obs.registry() else { return };
        let site = self.addr.0;
        let s = &self.stats;
        for (name, v) in [
            ("oa.user_queries", s.user_queries),
            ("oa.subqueries_handled", s.subqueries_handled),
            ("oa.subqueries_sent", s.subqueries_sent),
            ("oa.subquery_batches_sent", s.subquery_batches_sent),
            ("oa.answers_sent", s.answers_sent),
            ("oa.answered_locally", s.answered_locally),
            ("oa.updates_applied", s.updates_applied),
            ("oa.updates_forwarded", s.updates_forwarded),
            ("oa.cache_merges", s.cache_merges),
            ("oa.dropped_asks", s.dropped_asks),
            ("oa.held_messages", s.held_messages),
            ("oa.queries_forwarded", s.queries_forwarded),
            ("oa.retries_sent", s.retries_sent),
            ("oa.asks_abandoned", s.asks_abandoned),
            ("oa.partial_answers", s.partial_answers),
        ] {
            reg.counter(site, name).set(v);
        }
        // The cache plane's counters live in the `CacheManager` (the one
        // irisobs-backed home of eviction accounting); mirror them here.
        let cs = self.cache_mgr.stats();
        for (name, v) in [
            ("cache.hits", cs.hits),
            ("cache.partial_matches", cs.partial_matches),
            ("cache.misses", cs.misses),
            ("cache.evictions", cs.evictions),
            ("cache.admission_rejects", cs.admission_rejects),
            ("cache.sweeps", cs.sweeps),
        ] {
            reg.counter(site, name).set(v);
        }
        // Durability plane: WAL traffic and recovery cost, when attached.
        if let Some(wal) = read_db(&self.db).wal() {
            for (name, v) in [
                ("wal.appends", wal.appends()),
                ("wal.bytes", wal.bytes()),
                ("wal.snapshots", wal.snapshots()),
                ("wal.append_errors", wal.append_errors()),
                ("recovery.replays", wal.replays()),
                ("recovery.records_replayed", wal.replayed_records()),
            ] {
                reg.counter(site, name).set(v);
            }
            for ms in wal.drain_replay_ms() {
                reg.histogram(site, "recovery.replay_ms").observe(ms);
            }
        }
    }

    /// Snapshot of the cache plane's counters and occupancy.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache_mgr.stats()
    }

    // ------------------------------------------------------------------
    // Durability (core::storage)
    // ------------------------------------------------------------------

    /// Attaches a durability plane to this site: `store` becomes the
    /// write-ahead log of every database mutation from here on, and
    /// `recovered` (what [`SiteStore::open`] found on the backend) is
    /// replayed first if non-empty — the database must be empty in that
    /// case (recovery *is* the bootstrap).
    ///
    /// Call after setup-time bootstrapping and before the substrate starts
    /// delivering messages. An initial snapshot is always taken, so the
    /// pre-log state (bootstrap or recovery) is durable immediately and
    /// the replayed WAL tail is sealed rather than replayed twice.
    pub fn attach_durability(
        &mut self,
        store: SiteStore,
        recovered: RecoveredState,
        now: f64,
    ) -> CoreResult<RecoveryStats> {
        let wal = Arc::new(SiteWal::new(store));
        wal.note_time(now);
        let mut db = write_db(&self.db);
        let stats = if recovered.is_empty() {
            RecoveryStats::default()
        } else {
            db.attach_wal(wal.clone()); // restore_from reports through it
            match db.restore_from(&recovered) {
                Ok(stats) => stats,
                Err(e) => {
                    db.detach_wal();
                    return Err(e);
                }
            }
        };
        db.attach_wal(wal.clone());
        wal.snapshot(&db.snapshot_xml(), now);
        Ok(stats)
    }

    /// The site's WAL handle, if a durability plane is attached.
    pub fn wal(&self) -> Option<Arc<SiteWal>> {
        read_db(&self.db).wal().cloned()
    }

    /// Writes a snapshot now if one is due (record cadence elapsed or a
    /// non-WAL-expressible mutation happened). Runs at the same quiescent
    /// points as the cache sweep — never on the read path.
    fn maybe_snapshot(&mut self, now: f64) {
        let due = { read_db(&self.db).wal().is_some_and(|w| w.should_snapshot()) };
        if due {
            let db = write_db(&self.db);
            if let Some(w) = db.wal().cloned() {
                w.snapshot(&db.snapshot_xml(), now);
            }
        }
    }

    /// Runs the budget-triggered cache sweep iff the plane needs it *and*
    /// the agent is quiescent: no pending queries and no read tasks in
    /// flight, so eviction can never yank data from under a QEG pass or a
    /// finalize read. O(1) when there is nothing to do, O(evicted) when
    /// there is — and never on the read path: cache-hit queries reach
    /// their answer before this ever takes the write lock.
    fn maybe_enforce(&mut self, now: f64) {
        if self.tasks_in_flight != 0 || !self.pending.is_empty() {
            return;
        }
        if self.cache_mgr.needs_enforcement(now) {
            let mut db = write_db(&self.db);
            self.cache_mgr.enforce(&mut db, now);
        }
        // The durability plane snapshots at the same quiescent points —
        // and so does telemetry window sampling: both stay entirely off
        // the query path.
        self.maybe_snapshot(now);
        if self.obs.on {
            self.maybe_sample_telemetry(now);
        }
    }

    /// Advances this site's telemetry windows if a full bucket width has
    /// passed since the last sample. Rate-limited so the steady-state cost
    /// at quiescent points is one map lookup; sampling itself only mutates
    /// plane-internal state (no messages, no spans), so answers and trace
    /// digests are byte-identical with telemetry on or off.
    fn maybe_sample_telemetry(&self, now: f64) {
        let Some(tel) = self.obs.recorder().telemetry() else { return };
        if !tel.sample_due(self.addr.0, now) {
            return;
        }
        self.sample_telemetry_into(tel, now);
    }

    fn sample_telemetry_into(&self, tel: &TelemetryPlane, now: f64) {
        self.publish_metrics();
        tel.record_heat(
            self.addr.0,
            now,
            &self.cache_mgr.heat_snapshot(now, tel.config().heat_top),
        );
        if let Some(reg) = self.obs.registry() {
            tel.sample_site(self.addr.0, now, reg);
        }
    }

    /// Renders this site's scrape payload: a fresh sample (scrapes always
    /// see current windows, not the last quiescent point's) followed by
    /// the sections `what` selects. Without a telemetry-carrying recorder
    /// the payload is a minimal `enabled:false` header — a scraper can
    /// always tell "plane off" from "site down".
    pub fn telemetry_payload(&self, what: u8, now: f64) -> String {
        let Some(tel) = self.obs.recorder().telemetry() else {
            return disabled_payload(self.addr.0, now);
        };
        self.sample_telemetry_into(tel, now);
        tel.payload(self.addr.0, what, now)
    }

    /// Drains telemetry payloads received from peer sites (the
    /// site-to-site reply mode of [`Message::TelemetryRequest`]).
    pub fn take_telemetry_replies(&mut self) -> Vec<(QueryId, String)> {
        std::mem::take(&mut self.telemetry_inbox)
    }

    fn fresh_qid(&mut self) -> QueryId {
        let q = self.next_qid;
        self.next_qid += 1;
        q
    }

    /// Read access to the site database (shared with read workers).
    pub fn db(&self) -> RwLockReadGuard<'_, SiteDatabase> {
        read_db(&self.db)
    }

    /// Exclusive access to the site database — owner-loop mutations only.
    pub fn db_mut(&self) -> RwLockWriteGuard<'_, SiteDatabase> {
        write_db(&self.db)
    }

    /// A shared handle to the site database for read-path workers.
    pub fn shared_db(&self) -> Arc<RwLock<SiteDatabase>> {
        self.db.clone()
    }

    /// The shared QEG factory (workers clone the `Arc`).
    pub fn qeg(&self) -> Arc<QegFactory> {
        self.qeg.clone()
    }

    /// The detached read-path handle for shared worker pools (see
    /// [`ReadContext`]).
    pub fn read_context(&self) -> ReadContext {
        ReadContext { db: self.db.clone(), qeg: self.qeg.clone() }
    }

    /// Handles one message, returning generated traffic. `dns` is the
    /// authoritative store (shared by the cluster substrate); `now` is the
    /// current time in seconds.
    ///
    /// This is the strictly serial entry point: read tasks are drained
    /// inline (FIFO) until none remain, exactly reproducing the behavior
    /// of the pre-split single-threaded agent. Substrates that want
    /// parallelism call [`OrganizingAgent::handle_split`] /
    /// [`OrganizingAgent::complete_read`] instead and run
    /// [`perform_read`] on workers.
    pub fn handle(
        &mut self,
        msg: Message,
        dns: &mut AuthoritativeDns,
        now: f64,
    ) -> Vec<Outbound> {
        let oc = self.handle_split(msg, dns, now);
        self.drain_tasks(oc, dns, now)
    }

    /// Handles one message *without* running its read-only work: the
    /// returned [`HandleOutcome`] carries outbound traffic plus the
    /// [`ReadTask`]s the substrate must execute (any thread, read lock)
    /// and feed back through [`OrganizingAgent::complete_read`].
    pub fn handle_split(
        &mut self,
        msg: Message,
        dns: &mut AuthoritativeDns,
        now: f64,
    ) -> HandleOutcome {
        let mut oc = HandleOutcome::default();
        self.dispatch(msg, dns, now, &mut oc);
        self.maybe_enforce(now);
        oc
    }

    /// Applies a completed read task on the owner loop: bookkeeping,
    /// subquery dispatch, and answer emission. May produce follow-up
    /// tasks (the next gather iteration).
    pub fn complete_read(
        &mut self,
        done: ReadDone,
        dns: &mut AuthoritativeDns,
        now: f64,
    ) -> HandleOutcome {
        self.tasks_in_flight = self.tasks_in_flight.saturating_sub(1);
        let mut oc = HandleOutcome::default();
        self.apply_done(done, dns, now, &mut oc);
        self.maybe_enforce(now);
        oc
    }

    fn dispatch(
        &mut self,
        msg: Message,
        dns: &mut AuthoritativeDns,
        now: f64,
        oc: &mut HandleOutcome,
    ) {
        match msg {
            Message::UserQuery { qid, text, endpoint } => {
                if let Some(held) = self.maybe_hold_query(&text, Message::UserQuery {
                    qid,
                    text: text.clone(),
                    endpoint,
                }) {
                    self.held.push(held);
                    self.stats.held_messages += 1;
                    return;
                }
                let qwait = std::mem::take(&mut self.obs_queue_wait);
                if let Some(fwd) = self.forward_target_for_query(&text) {
                    self.stats.queries_forwarded += 1;
                    if self.obs.on {
                        let mut sp = self.obs.span(
                            Link::Root { endpoint: endpoint.0, qid },
                            self.addr.0,
                            SpanKind::Forward,
                            now,
                        );
                        sp.queue_wait = qwait;
                        sp.target = fwd.0;
                        self.obs.record(sp);
                    }
                    oc.out.push(Outbound::Send {
                        to: fwd,
                        msg: Message::UserQuery { qid, text, endpoint },
                    });
                    return;
                }
                self.stats.user_queries += 1;
                self.obs_cur_root = 0;
                if self.obs.on {
                    let mut sp = self.obs.span(
                        Link::Root { endpoint: endpoint.0, qid },
                        self.addr.0,
                        SpanKind::UserQuery,
                        now,
                    );
                    sp.queue_wait = qwait;
                    self.obs_cur_root = sp.id;
                    self.obs.record(sp);
                }
                let origin = Origin::User { endpoint, qid };
                if let Err(e) = self.start_query(&text, origin, dns, now, oc) {
                    oc.out.push(Outbound::ReplyUser {
                        endpoint,
                        qid,
                        answer_xml: format!("<error>{e}</error>"),
                        ok: false,
                        partial: false,
                    });
                }
            }
            Message::SubQuery { qid, text, reply_to } => {
                if let Some(held) = self.maybe_hold_query(&text, Message::SubQuery {
                    qid,
                    text: text.clone(),
                    reply_to,
                }) {
                    self.held.push(held);
                    self.stats.held_messages += 1;
                    return;
                }
                let qwait = std::mem::take(&mut self.obs_queue_wait);
                if let Some(fwd) = self.forward_target_for_query(&text) {
                    self.stats.queries_forwarded += 1;
                    if self.obs.on {
                        let mut sp = self.obs.span(
                            Link::Ask { asker: reply_to.0, sub_qid: qid },
                            self.addr.0,
                            SpanKind::Forward,
                            now,
                        );
                        sp.queue_wait = qwait;
                        sp.target = fwd.0;
                        self.obs.record(sp);
                    }
                    oc.out.push(Outbound::Send {
                        to: fwd,
                        msg: Message::SubQuery { qid, text, reply_to },
                    });
                    return;
                }
                self.stats.subqueries_handled += 1;
                self.obs_cur_root = 0;
                if self.obs.on {
                    let mut sp = self.obs.span(
                        Link::Ask { asker: reply_to.0, sub_qid: qid },
                        self.addr.0,
                        SpanKind::SubQuery,
                        now,
                    );
                    sp.queue_wait = qwait;
                    self.obs_cur_root = sp.id;
                    self.obs.record(sp);
                }
                let origin = Origin::Site { addr: reply_to, qid };
                if let Err(e) = self.start_query(&text, origin, dns, now, oc) {
                    // Malformed subqueries get an empty answer so the asker
                    // can converge; the error is recorded locally.
                    let _ = e;
                    oc.out.push(Outbound::Send {
                        to: reply_to,
                        msg: Message::SubAnswer { qid, fragment_xml: String::new(), partial: false },
                    });
                }
            }
            Message::SubQueryBatch { entries, reply_to } => {
                // A batch is just several subqueries on one wire message:
                // unpack and run each through the full SubQuery path
                // (hold/forward checks included).
                for (qid, text) in entries {
                    self.dispatch(Message::SubQuery { qid, text, reply_to }, dns, now, oc);
                }
            }
            Message::SubAnswer { qid, fragment_xml, partial } => {
                self.on_subanswer(qid, &fragment_xml, partial, dns, now, oc);
            }
            Message::Update { path, fields } => {
                self.on_update(path, fields, now, &mut oc.out);
            }
            Message::Delegate { path, to } => {
                self.on_delegate(path, to, now, &mut oc.out);
            }
            Message::TakeOwnership { path, fragment_xml, from } => {
                self.on_take_ownership(path, &fragment_xml, from, dns, now, &mut oc.out);
            }
            Message::TakeAck { path, new_owner } => {
                self.on_take_ack(path, new_owner, dns, now, oc);
            }
            Message::Subscribe { qid, text, endpoint } => {
                let reg = self.continuous.register(
                    qid,
                    endpoint,
                    &text,
                    &self.service,
                    &read_db(&self.db),
                    now,
                );
                match reg {
                    Ok(n) => oc.out.push(Outbound::ReplyUser {
                        endpoint: n.endpoint,
                        qid: n.qid,
                        answer_xml: n.answer_xml,
                        ok: true,
                        partial: false,
                    }),
                    Err(e) => oc.out.push(Outbound::ReplyUser {
                        endpoint,
                        qid,
                        answer_xml: format!("<error>{e}</error>"),
                        ok: false,
                        partial: false,
                    }),
                }
            }
            Message::Unsubscribe { qid } => {
                self.continuous.cancel(qid);
            }
            // Telemetry handling records no spans on purpose: scraping a
            // cluster must not perturb its trace structure, so the DES
            // equivalence oracle holds with telemetry on or off.
            Message::TelemetryRequest { qid, reply_to, endpoint, what } => {
                let payload = self.telemetry_payload(what, now);
                if reply_to.0 != 0 {
                    oc.out.push(Outbound::Send {
                        to: reply_to,
                        msg: Message::TelemetryReply { qid, payload },
                    });
                } else {
                    oc.out.push(Outbound::ReplyUser {
                        endpoint,
                        qid,
                        answer_xml: payload,
                        ok: true,
                        partial: false,
                    });
                }
            }
            Message::TelemetryReply { qid, payload } => {
                if self.telemetry_inbox.len() >= TELEMETRY_INBOX_CAP {
                    self.telemetry_inbox.remove(0);
                }
                self.telemetry_inbox.push((qid, payload));
            }
        }
    }

    // ------------------------------------------------------------------
    // Query processing
    // ------------------------------------------------------------------

    fn start_query(
        &mut self,
        text: &str,
        origin: Origin,
        dns: &mut AuthoritativeDns,
        now: f64,
        oc: &mut HandleOutcome,
    ) -> CoreResult<()> {
        // A freshly joined site with an empty fragment cannot evaluate
        // anything (no ancestor chains to walk): forward to the service
        // apex owner.
        if read_db(&self.db).doc().root().is_none() {
            let apex = self.service.dns_name(&IdPath::root());
            match self.resolver.resolve(&apex, dns, now).map(|o| o.addr) {
                Some(addr) if addr != self.addr => {
                    self.stats.queries_forwarded += 1;
                    if self.obs.on && self.obs_cur_root != 0 {
                        let mut sp = self.obs.span(
                            Link::ChildOf { parent: self.obs_cur_root },
                            self.addr.0,
                            SpanKind::Forward,
                            now,
                        );
                        sp.target = addr.0;
                        sp.detail = "apex".into();
                        self.obs.record(sp);
                    }
                    match origin {
                        Origin::User { endpoint, qid } => oc.out.push(Outbound::Send {
                            to: addr,
                            msg: Message::UserQuery { qid, text: text.to_string(), endpoint },
                        }),
                        Origin::Site { addr: reply_to, qid } => oc.out.push(Outbound::Send {
                            to: addr,
                            msg: Message::SubQuery { qid, text: text.to_string(), reply_to },
                        }),
                    }
                    return Ok(());
                }
                _ => {
                    return Err(CoreError::Unresolvable(
                        "site has no data and the service apex is unresolvable".into(),
                    ))
                }
            }
        }
        // NOTE: no cache enforcement here. The read path never takes the
        // write lock and never does eviction work; policy sweeps run on
        // the owner loop at quiescent points (`maybe_enforce`). A query
        // may therefore be served by a unit the policy has marked for
        // death — that is a staleness question §3.3's timestamp
        // predicates own, not a correctness question.
        let expr = sensorxpath::parse(text).map_err(CoreError::XPath)?;
        let plan = match plan_query(&expr, &self.service) {
            Ok(p) => p,
            Err(_) => {
                // Fallback for non-path / non-distributable queries: gather
                // everything below the document root, then evaluate the
                // original expression over the assembled fragment.
                let root_q = format!("/{}", self.service.schema.root_tag());
                let root_expr = sensorxpath::parse(&root_q).map_err(CoreError::XPath)?;
                let mut p = plan_query(&root_expr, &self.service)?;
                p.expr = expr.clone();
                p
            }
        };
        let pid = self.fresh_qid();
        // Deterministic per-query draw against cache_hit_prob.
        let use_cache = if self.config.cache_hit_prob >= 1.0 {
            true
        } else if self.config.cache_hit_prob <= 0.0 {
            false
        } else {
            let h = pid
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(17)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            ((h >> 11) as f64 / (1u64 << 53) as f64) < self.config.cache_hit_prob
        };
        self.pending.insert(
            pid,
            Pending {
                plan: Arc::new(plan),
                use_cache,
                origin,
                outstanding: HashMap::new(),
                retry: HashMap::new(),
                failed: Vec::new(),
                asked: HashSet::new(),
                iterations: 0,
                scratch: None,
                ephemeral: self.config.cache == CacheMode::Off,
                posed_at: now,
                obs_root: self.obs_cur_root,
                obs_asks: HashMap::new(),
            },
        );
        self.issue_iteration(pid, dns, now, oc);
        Ok(())
    }

    /// Starts the next QEG pass for a pending query: bumps the iteration
    /// counter, then either emits an [`ReadTaskKind::Execute`] task (shared
    /// database) or runs it inline (scratch-overlay queries — the overlay
    /// is private to the pending entry, so it never leaves the owner
    /// loop). Over-budget queries skip straight to finalization.
    fn issue_iteration(
        &mut self,
        pid: QueryId,
        dns: &mut AuthoritativeDns,
        now: f64,
        oc: &mut HandleOutcome,
    ) {
        let Some(pending) = self.pending.get_mut(&pid) else { return };
        pending.iterations += 1;
        if pending.iterations > MAX_GATHER_ITERATIONS {
            self.issue_finalize(pid, dns, now, oc);
            return;
        }
        let task = ReadTask {
            pid,
            posed_at: pending.posed_at,
            kind: ReadTaskKind::Execute {
                plan: pending.plan.clone(),
                ignore_complete: !pending.use_cache,
            },
        };
        if pending.scratch.is_some() {
            let done = {
                let p = self.pending.get(&pid).expect("still pending");
                perform_read(&task, &self.qeg, p.scratch.as_ref().expect("has scratch"))
            };
            self.apply_done(done, dns, now, oc);
        } else {
            self.tasks_in_flight += 1;
            oc.tasks.push(task);
        }
    }

    /// Owner-loop half of a completed read task (see
    /// [`OrganizingAgent::complete_read`]).
    fn apply_done(
        &mut self,
        done: ReadDone,
        dns: &mut AuthoritativeDns,
        now: f64,
        oc: &mut HandleOutcome,
    ) {
        self.stats.time_create_xslt += done.time_create;
        self.stats.time_exec_xslt += done.time_exec;
        self.stats.time_extract += done.time_extract;
        self.stats.time_comm += done.time_comm;
        match done.result {
            ReadResult::Executed { asks } => {
                // Filter asks: drop anything already asked (unsatisfiable
                // or best-effort-stale), and dedup by path+kind.
                let Some(pending) = self.pending.get_mut(&done.pid) else { return };
                let mut fresh: Vec<Ask> = Vec::new();
                for ask in asks {
                    let key = (ask.path.clone(), ask.kind);
                    if pending.asked.contains(&key) {
                        self.stats.dropped_asks += 1;
                        continue;
                    }
                    pending.asked.insert(key);
                    fresh.push(ask);
                }
                // §3.2 outcome of the cached view, judged from the first
                // pass's fresh asks: nothing to fetch = hit; an ask
                // at/above the query LCA = the cache contributed nothing;
                // asks strictly below = the cached skeleton answered part
                // of the query.
                let lookup = (pending.iterations == 1).then(|| {
                    let lca = lca_id_path(&pending.plan.expr);
                    let outcome = if fresh.is_empty() {
                        CacheLookup::Hit
                    } else if fresh.iter().any(|a| a.path.is_prefix_of(&lca)) {
                        CacheLookup::Miss
                    } else {
                        CacheLookup::PartialMatch
                    };
                    if matches!(pending.origin, Origin::User { .. }) {
                        self.cache_mgr.record_lookup(outcome);
                    }
                    if pending.use_cache && !pending.ephemeral {
                        // O(depth) heat touch of the covering cached unit
                        // plus a demand-sketch bump — no locks, no scans.
                        self.cache_mgr.note_query(&lca, now);
                    }
                    outcome
                });
                if self.obs.on && pending.obs_root != 0 {
                    let mut sp = self.obs.span(
                        Link::ChildOf { parent: pending.obs_root },
                        self.addr.0,
                        SpanKind::Execute,
                        now,
                    );
                    sp.dur = done.time_create + done.time_exec;
                    sp.phases.compile = done.time_create;
                    sp.phases.execute = done.time_exec;
                    sp.detail = format!("iter={}", pending.iterations);
                    sp.cache = lookup.map(|l| match l {
                        CacheLookup::Hit => CacheOutcome::Hit,
                        CacheLookup::PartialMatch => CacheOutcome::PartialMatch,
                        CacheLookup::Miss => CacheOutcome::Miss,
                    });
                    self.obs.record(sp);
                }
                if fresh.is_empty() {
                    self.issue_finalize(done.pid, dns, now, oc);
                    return;
                }
                let dispatched = self.dispatch_subqueries(done.pid, fresh, dns, now, &mut oc.out);
                if dispatched == 0 {
                    self.issue_finalize(done.pid, dns, now, oc);
                }
            }
            ReadResult::UserAnswer { endpoint, qid, answer_xml, ok, partial } => {
                if ok {
                    self.stats.answers_sent += 1;
                }
                if partial {
                    self.stats.partial_answers += 1;
                }
                self.record_finalize(done.pid, done.time_extract + done.time_comm, partial, 0, "user", now);
                oc.out.push(Outbound::ReplyUser { endpoint, qid, answer_xml, ok, partial });
            }
            ReadResult::Fragment { addr, qid, fragment_xml, partial } => {
                self.stats.answers_sent += 1;
                if partial {
                    self.stats.partial_answers += 1;
                }
                self.record_finalize(done.pid, done.time_extract + done.time_comm, partial, addr.0, "site", now);
                oc.out.push(Outbound::Send {
                    to: addr,
                    msg: Message::SubAnswer { qid, fragment_xml, partial },
                });
            }
            ReadResult::ExecError { error_xml } => {
                self.finalize_error(done.pid, &error_xml, now, &mut oc.out);
            }
        }
    }

    /// Sends subqueries for a round of fresh asks. Owner resolution is
    /// memoized per (owner path, round), and asks that resolve to the same
    /// owner site are coalesced into one [`Message::SubQueryBatch`].
    fn dispatch_subqueries(
        &mut self,
        pid: QueryId,
        fresh: Vec<Ask>,
        dns: &mut AuthoritativeDns,
        now: f64,
        out: &mut Vec<Outbound>,
    ) -> usize {
        let plan_snapshot = self.pending[&pid].plan.clone();
        // Per-round owner-resolution memo: sibling asks share owner paths
        // often enough that duplicate resolver work is pure waste.
        let mut owners: HashMap<IdPath, Option<SiteAddr>> = HashMap::new();
        // Per-owner coalescing, insertion-ordered for determinism.
        let mut per_site: Vec<(SiteAddr, Vec<(QueryId, String)>)> = Vec::new();
        let mut site_slot: HashMap<SiteAddr, usize> = HashMap::new();
        let mut dispatched = 0usize;
        for ask in fresh {
            let text = if self.config.generalize_subqueries {
                generalized_subquery(&plan_snapshot, &ask)
            } else {
                literal_subquery(&plan_snapshot, &ask)
            };
            let addr = match owners.get(&ask.path) {
                Some(a) => *a,
                None => {
                    let a = self.resolve_owner(&ask.path, dns, now);
                    owners.insert(ask.path.clone(), a);
                    a
                }
            };
            match addr {
                Some(addr) if addr != self.addr => {
                    let sub_qid = self.fresh_qid();
                    let pending = self.pending.get_mut(&pid).expect("still pending");
                    if self.obs.on && pending.obs_root != 0 {
                        let mut sp = self.obs.span(
                            Link::ChildOf { parent: pending.obs_root },
                            self.addr.0,
                            SpanKind::Ask,
                            now,
                        );
                        sp.corr = sub_qid;
                        sp.target = addr.0;
                        sp.detail = format!("path={} kind={}", ask.path, ask.kind.as_str());
                        pending.obs_asks.insert(sub_qid, sp.id);
                        self.obs.record(sp);
                    }
                    pending.outstanding.insert(sub_qid, ask);
                    if self.config.retry.enabled() {
                        pending.retry.insert(
                            sub_qid,
                            RetryState { attempts: 0, next_at: now + self.config.retry.ask_timeout },
                        );
                    }
                    self.stats.subqueries_sent += 1;
                    dispatched += 1;
                    let slot = *site_slot.entry(addr).or_insert_with(|| {
                        per_site.push((addr, Vec::new()));
                        per_site.len() - 1
                    });
                    per_site[slot].1.push((sub_qid, text));
                }
                _ => {
                    // Either unresolvable or (stale DNS) points at
                    // ourselves: skip; the loop breaker will answer with
                    // what we have.
                    self.stats.dropped_asks += 1;
                }
            }
        }
        for (addr, mut entries) in per_site {
            if entries.len() == 1 {
                let (qid, text) = entries.pop().expect("one entry");
                out.push(Outbound::Send {
                    to: addr,
                    msg: Message::SubQuery { qid, text, reply_to: self.addr },
                });
            } else {
                self.stats.subquery_batches_sent += 1;
                out.push(Outbound::Send {
                    to: addr,
                    msg: Message::SubQueryBatch { entries, reply_to: self.addr },
                });
            }
        }
        dispatched
    }

    /// DNS resolution for the owner of `path`, preferring a forwarding
    /// entry when we migrated the node away ourselves.
    fn resolve_owner(
        &mut self,
        path: &IdPath,
        dns: &mut AuthoritativeDns,
        now: f64,
    ) -> Option<SiteAddr> {
        for (p, addr) in &self.forward {
            if p.is_prefix_of(path) {
                return Some(*addr);
            }
        }
        let name = self.service.dns_name(path);
        self.resolver.resolve(&name, dns, now).map(|o| o.addr)
    }

    /// Like [`OrganizingAgent::resolve_owner`] but bypasses the local DNS
    /// cache (used on retry, where the cached address is suspect).
    fn resolve_owner_fresh(
        &mut self,
        path: &IdPath,
        dns: &mut AuthoritativeDns,
        now: f64,
    ) -> Option<SiteAddr> {
        for (p, addr) in &self.forward {
            if p.is_prefix_of(path) {
                return Some(*addr);
            }
        }
        let name = self.service.dns_name(path);
        self.resolver.resolve_fresh(&name, dns, now).map(|o| o.addr)
    }

    fn on_subanswer(
        &mut self,
        sub_qid: QueryId,
        fragment_xml: &str,
        partial: bool,
        dns: &mut AuthoritativeDns,
        now: f64,
        oc: &mut HandleOutcome,
    ) {
        // Find the pending query owning this sub-qid. A duplicate or late
        // answer (retries, network duplication) finds nothing — the first
        // copy already removed the sub-qid — and is ignored, which is the
        // idempotency the retry path relies on.
        let Some((&pid, _)) = self
            .pending
            .iter()
            .find(|(_, p)| p.outstanding.contains_key(&sub_qid))
        else {
            return; // late answer for a finished query
        };
        let mut merge_secs = 0.0;
        if !fragment_xml.is_empty() {
            let t = Instant::now();
            let parsed = sensorxml::parse(fragment_xml);
            self.stats.time_comm += t.elapsed().as_secs_f64();
            match parsed {
                Ok(frag) => {
                    let pending = self.pending.get_mut(&pid).expect("found above");
                    if pending.ephemeral && pending.scratch.is_none() {
                        pending.scratch = Some(read_db(&self.db).clone());
                    }
                    // Merge into the private overlay when one exists;
                    // otherwise take the write lock on the shared database
                    // (the cache fill of §3.3).
                    let t_m = self.obs.on.then(Instant::now);
                    let merged = match pending.scratch.as_mut() {
                        Some(scratch) => merge_and_compact(scratch, &frag),
                        None => merge_and_compact(&mut write_db(&self.db), &frag),
                    };
                    if let Some(t_m) = t_m {
                        merge_secs = t_m.elapsed().as_secs_f64();
                    }
                    if merged {
                        self.stats.cache_merges += 1;
                    }
                }
                Err(_) => { /* drop malformed fragment */ }
            }
        }
        let pending = self.pending.get_mut(&pid).expect("found above");
        let ask = pending.outstanding.remove(&sub_qid);
        pending.retry.remove(&sub_qid);
        if self.obs.on && pending.obs_root != 0 {
            let parent = pending.obs_asks.remove(&sub_qid).unwrap_or(pending.obs_root);
            if let Some(a) = &ask {
                let mut sp = self.obs.span(
                    Link::ChildOf { parent },
                    self.addr.0,
                    SpanKind::SubAnswer,
                    now,
                );
                sp.partial = partial;
                sp.dur = merge_secs;
                sp.phases.merge = merge_secs;
                sp.detail = format!("path={}", a.path);
                self.obs.record(sp);
            }
        }
        if partial {
            // The answering site itself degraded: our covering node for
            // this ask inherits the partial flag.
            if let Some(a) = &ask {
                pending.failed.push(a.path.clone());
            }
        }
        let track = !pending.ephemeral && !partial;
        if let (true, Some(a)) = (track, ask) {
            // Mutation-path bookkeeping only: size the unit (same order as
            // the merge that just created it) and run the O(1) admission
            // decision. The budget sweep itself is deferred to a quiescent
            // point (`maybe_enforce`) so it can never stall this query's
            // remaining gather iterations.
            let cost = if self.cache_mgr.is_keep_forever() {
                UnitCost::default()
            } else {
                read_db(&self.db).unit_cost(&a.path).unwrap_or_default()
            };
            self.cache_mgr.note_cached(a.path, cost, now);
        }
        let pending = self.pending.get_mut(&pid).expect("found above");
        if pending.outstanding.is_empty() {
            self.issue_iteration(pid, dns, now, oc);
        }
    }

    /// Retires a pending query and issues the read task that assembles
    /// its answer (inline for scratch-overlay queries).
    fn issue_finalize(
        &mut self,
        pid: QueryId,
        dns: &mut AuthoritativeDns,
        now: f64,
        oc: &mut HandleOutcome,
    ) {
        let Some(pending) = self.pending.remove(&pid) else { return };
        if pending.iterations == 1 {
            self.stats.answered_locally += 1;
        }
        let failed = coalesce_covering(pending.failed);
        if self.obs.on && pending.obs_root != 0 {
            // The Finalize read completes after this entry is gone from
            // `pending`, so the trace root (and the stub count, §3.2's
            // partial-answer evidence) is parked until apply_done.
            self.finishing.insert(pid, (pending.obs_root, failed.len() as u64));
        }
        let kind = match pending.origin {
            Origin::User { endpoint, qid } => {
                ReadTaskKind::FinalizeUser { plan: pending.plan, endpoint, qid, failed }
            }
            Origin::Site { addr, qid } => {
                ReadTaskKind::FinalizeSite {
                    plan: pending.plan,
                    addr,
                    qid,
                    partial: !failed.is_empty(),
                }
            }
        };
        let task = ReadTask { pid, posed_at: pending.posed_at, kind };
        match pending.scratch {
            Some(scratch) => {
                let done = perform_read(&task, &self.qeg, &scratch);
                self.apply_done(done, dns, now, oc);
            }
            None => {
                self.tasks_in_flight += 1;
                oc.tasks.push(task);
            }
        }
    }

    /// Migration-side span hook: the migration module lives outside this
    /// file and `obs` is private, so ownership transfers record through
    /// this. All three hops of one transfer share `Link::Transfer{path}`,
    /// which the assembler chains into a single tree per moved node.
    pub(crate) fn record_migration(&self, kind: SpanKind, path: &IdPath, peer: u32, now: f64) {
        if !self.obs.on {
            return;
        }
        let mut sp =
            self.obs.span(Link::Transfer { path: path.to_string() }, self.addr.0, kind, now);
        sp.target = peer;
        self.obs.record(sp);
    }

    /// Emits the terminal span of a query's trace, consuming the root id
    /// parked in `finishing` by [`OrganizingAgent::issue_finalize`].
    fn record_finalize(
        &mut self,
        pid: QueryId,
        gather: f64,
        partial: bool,
        target: u32,
        detail: &str,
        now: f64,
    ) {
        if !self.obs.on {
            return; // `finishing` only gains entries while recording
        }
        let Some((root, stubs)) = self.finishing.remove(&pid) else { return };
        let mut sp = self.obs.span(Link::ChildOf { parent: root }, self.addr.0, SpanKind::Finalize, now);
        sp.dur = gather;
        sp.phases.gather = gather;
        sp.partial = partial;
        sp.corr = stubs;
        sp.target = target;
        sp.detail = detail.to_string();
        self.obs.record(sp);
    }

    fn finalize_error(
        &mut self,
        pid: QueryId,
        error_xml: &str,
        now: f64,
        out: &mut Vec<Outbound>,
    ) {
        let fin_root = self.finishing.remove(&pid).map(|(root, _)| root);
        let pending = self.pending.remove(&pid);
        if self.obs.on {
            let root = fin_root.or_else(|| pending.as_ref().map(|p| p.obs_root)).unwrap_or(0);
            if root != 0 {
                let mut sp = self.obs.span(
                    Link::ChildOf { parent: root },
                    self.addr.0,
                    SpanKind::Finalize,
                    now,
                );
                sp.detail = "error".to_string();
                self.obs.record(sp);
            }
        }
        let Some(pending) = pending else { return };
        match pending.origin {
            Origin::User { endpoint, qid } => out.push(Outbound::ReplyUser {
                endpoint,
                qid,
                answer_xml: error_xml.to_string(),
                ok: false,
                partial: false,
            }),
            Origin::Site { addr, qid } => out.push(Outbound::Send {
                to: addr,
                msg: Message::SubAnswer { qid, fragment_xml: String::new(), partial: false },
            }),
        }
    }

    // ------------------------------------------------------------------
    // Ask-level timeouts and retries
    // ------------------------------------------------------------------

    /// The earliest armed retry deadline across every pending query, or
    /// `None` when no timers are armed. Substrates use this to schedule
    /// the next [`OrganizingAgent::tick`].
    pub fn next_deadline(&self) -> Option<f64> {
        self.pending
            .values()
            .flat_map(|p| p.retry.values().map(|r| r.next_at))
            .min_by(f64::total_cmp)
    }

    /// Timer entry point, serial form: fires every expired ask timeout
    /// (resend or abandon) and drains any follow-up read tasks inline,
    /// mirroring [`OrganizingAgent::handle`].
    pub fn tick(&mut self, dns: &mut AuthoritativeDns, now: f64) -> Vec<Outbound> {
        let oc = self.on_tick(dns, now);
        self.drain_tasks(oc, dns, now)
    }

    /// Timer entry point, split form (see [`OrganizingAgent::handle_split`]).
    /// Expired asks are processed in sorted `(pid, sub_qid)` order so both
    /// substrates replay the same decision sequence.
    pub fn on_tick(&mut self, dns: &mut AuthoritativeDns, now: f64) -> HandleOutcome {
        let mut oc = HandleOutcome::default();
        let mut due: Vec<(QueryId, QueryId)> = self
            .pending
            .iter()
            .flat_map(|(&pid, p)| {
                p.retry
                    .iter()
                    .filter(|(_, r)| r.next_at <= now)
                    .map(move |(&sq, _)| (pid, sq))
            })
            .collect();
        due.sort_unstable();
        for (pid, sub_qid) in due {
            self.retry_or_abandon(pid, sub_qid, dns, now, &mut oc);
        }
        oc
    }

    /// One expired ask: resend through a *fresh* DNS resolution (the owner
    /// may have migrated or restarted elsewhere), or — once the budget is
    /// spent — abandon it and let the answer degrade to partial.
    fn retry_or_abandon(
        &mut self,
        pid: QueryId,
        sub_qid: QueryId,
        dns: &mut AuthoritativeDns,
        now: f64,
        oc: &mut HandleOutcome,
    ) {
        let policy = self.config.retry;
        let resend = {
            let Some(p) = self.pending.get_mut(&pid) else { return };
            let Some(rs) = p.retry.get_mut(&sub_qid) else { return };
            if rs.attempts >= policy.max_retries {
                p.retry.remove(&sub_qid);
                if let Some(ask) = p.outstanding.remove(&sub_qid) {
                    p.failed.push(ask.path);
                    self.stats.asks_abandoned += 1;
                }
                if p.outstanding.is_empty() {
                    self.issue_iteration(pid, dns, now, oc);
                }
                return;
            }
            rs.attempts += 1;
            rs.next_at = now + policy.delay_after(rs.attempts);
            let Some(ask) = p.outstanding.get(&sub_qid) else { return };
            let text = if self.config.generalize_subqueries {
                generalized_subquery(&p.plan, ask)
            } else {
                literal_subquery(&p.plan, ask)
            };
            (ask.path.clone(), text)
        };
        let (path, text) = resend;
        // Re-resolve from the authoritative store: a stale cached address
        // is the likeliest reason the first attempt vanished.
        match self.resolve_owner_fresh(&path, dns, now) {
            Some(addr) if addr != self.addr => {
                self.stats.retries_sent += 1;
                if self.obs.on {
                    if let Some(p) = self.pending.get(&pid) {
                        if p.obs_root != 0 {
                            let parent =
                                p.obs_asks.get(&sub_qid).copied().unwrap_or(p.obs_root);
                            let mut sp = self.obs.span(
                                Link::ChildOf { parent },
                                self.addr.0,
                                SpanKind::Retry,
                                now,
                            );
                            sp.corr = sub_qid;
                            sp.target = addr.0;
                            self.obs.record(sp);
                        }
                    }
                }
                oc.out.push(Outbound::Send {
                    to: addr,
                    msg: Message::SubQuery { qid: sub_qid, text, reply_to: self.addr },
                });
            }
            _ => {
                // Owner currently unresolvable (or ourselves): keep the
                // timer armed; a later tick retries or abandons.
            }
        }
    }

    /// Fails every pending query with [`CoreError::SiteDown`]: user queries
    /// get an error reply, subqueries an empty partial answer. Used when a
    /// site shuts down with work in flight so no caller blocks forever.
    pub fn fail_pending(&mut self) -> Vec<Outbound> {
        let mut out = Vec::new();
        let mut pids: Vec<QueryId> = self.pending.keys().copied().collect();
        pids.sort_unstable();
        for pid in pids {
            let Some(pending) = self.pending.remove(&pid) else { continue };
            match pending.origin {
                Origin::User { endpoint, qid } => out.push(Outbound::ReplyUser {
                    endpoint,
                    qid,
                    answer_xml: format!("<error>{}</error>", CoreError::SiteDown),
                    ok: false,
                    partial: true,
                }),
                Origin::Site { addr, qid } => out.push(Outbound::Send {
                    to: addr,
                    msg: Message::SubAnswer {
                        qid,
                        fragment_xml: String::new(),
                        partial: true,
                    },
                }),
            }
        }
        out
    }

    /// Drains a [`HandleOutcome`]'s read tasks inline (FIFO), as
    /// [`OrganizingAgent::handle`] does.
    fn drain_tasks(
        &mut self,
        mut oc: HandleOutcome,
        dns: &mut AuthoritativeDns,
        now: f64,
    ) -> Vec<Outbound> {
        let mut out = std::mem::take(&mut oc.out);
        let mut queue: VecDeque<ReadTask> = oc.tasks.into();
        while let Some(task) = queue.pop_front() {
            let done = {
                let db = read_db(&self.db);
                perform_read(&task, &self.qeg, &db)
            };
            let mut more = self.complete_read(done, dns, now);
            out.append(&mut more.out);
            queue.extend(more.tasks);
        }
        out
    }

    // ------------------------------------------------------------------
    // Updates
    // ------------------------------------------------------------------

    fn on_update(
        &mut self,
        path: IdPath,
        fields: Vec<(String, String)>,
        now: f64,
        out: &mut Vec<Outbound>,
    ) {
        // Forward if we migrated the node away.
        for (p, addr) in &self.forward {
            if p.is_prefix_of(&path) {
                self.stats.updates_forwarded += 1;
                out.push(Outbound::Send {
                    to: *addr,
                    msg: Message::Update { path, fields },
                });
                return;
            }
        }
        if self.migrating_out.iter().any(|p| p.is_prefix_of(&path)) {
            self.held.push(Message::Update { path, fields });
            self.stats.held_messages += 1;
            return;
        }
        let applied = {
            let mut db = write_db(&self.db);
            db.status_at(&path) == Some(Status::Owned)
                && db.apply_update(&path, &fields, now).is_ok()
        };
        if applied {
            self.stats.updates_applied += 1;
            for n in self.continuous.on_update(&path, &read_db(&self.db), now) {
                out.push(Outbound::ReplyUser {
                    endpoint: n.endpoint,
                    qid: n.qid,
                    answer_xml: n.answer_xml,
                    ok: true,
                    partial: false,
                });
            }
        }
        // Non-owned updates are dropped: SAs are repointed on migration.
    }

    // ------------------------------------------------------------------
    // Migration hooks (protocol bodies live in migration.rs)
    // ------------------------------------------------------------------

    pub(crate) fn hold_set(&mut self) -> &mut HashSet<IdPath> {
        &mut self.migrating_out
    }

    pub(crate) fn forward_map(&mut self) -> &mut HashMap<IdPath, SiteAddr> {
        &mut self.forward
    }

    /// Holds queries targeting a path being migrated away.
    fn maybe_hold_query(&self, text: &str, msg: Message) -> Option<Message> {
        if self.migrating_out.is_empty() {
            return None;
        }
        let target = query_target(text)?;
        if self
            .migrating_out
            .iter()
            .any(|p| p.is_prefix_of(&target) || target.is_prefix_of(p))
        {
            Some(msg)
        } else {
            None
        }
    }

    /// Returns the forwarding destination when the query's target has been
    /// migrated away entirely.
    fn forward_target_for_query(&self, text: &str) -> Option<SiteAddr> {
        if self.forward.is_empty() {
            return None;
        }
        let target = query_target(text)?;
        for (p, addr) in &self.forward {
            if p.is_prefix_of(&target) {
                return Some(*addr);
            }
        }
        None
    }

    /// Replays held messages once a migration completes.
    pub(crate) fn release_held(
        &mut self,
        dns: &mut AuthoritativeDns,
        now: f64,
        oc: &mut HandleOutcome,
    ) {
        let held = std::mem::take(&mut self.held);
        for msg in held {
            self.dispatch(msg, dns, now, oc);
        }
    }

    // Migration message bodies are implemented in `migration.rs`.
}

/// Merges a gathered fragment into `target`, then compacts the arena when
/// garbage dominates (merges replace content and leave dead slots behind).
/// Returns whether the merge succeeded.
fn merge_and_compact(target: &mut SiteDatabase, frag: &sensorxml::Document) -> bool {
    let merged = target.merge_fragment(frag).is_ok();
    if target.doc().arena_len() > 256
        && target.doc().arena_len() > 3 * target.doc().reachable_count()
    {
        target.compact();
    }
    merged
}

/// Sorts, dedups, and prefix-coalesces a set of failed ask paths into
/// covering paths: a path whose ancestor also failed is subsumed by it.
fn coalesce_covering(mut failed: Vec<IdPath>) -> Vec<IdPath> {
    failed.sort();
    failed.dedup();
    let mut out: Vec<IdPath> = Vec::new();
    for p in failed {
        if !out.iter().any(|q| q.is_prefix_of(&p)) {
            out.push(p);
        }
    }
    out
}

/// The id-pinned target of a query text (its LCA path), used for migration
/// holds and forwarding decisions.
fn query_target(text: &str) -> Option<IdPath> {
    let expr: Expr = sensorxpath::parse(text).ok()?;
    let p = lca_id_path(&expr);
    if p.is_empty() {
        None
    } else {
        Some(p)
    }
}

// ---------------------------------------------------------------------
// Sensing agents
// ---------------------------------------------------------------------

/// A sensor proxy: produces timestamped update messages for the nodes it
/// monitors. Reading extraction (image processing on webcam frames in the
/// paper's prototype) is abstracted to a closure over a deterministic RNG,
/// matching the paper's own "fake SAs that produce random data updates"
/// used in every large-scale experiment.
#[derive(Debug)]
pub struct SensingAgent {
    /// Nodes this SA reports on.
    pub targets: Vec<IdPath>,
    /// The OA address updates are sent to (repointed on migration).
    pub report_to: SiteAddr,
    seed: u64,
    counter: u64,
}

impl SensingAgent {
    /// Creates an SA reporting on `targets` to `report_to`.
    pub fn new(targets: Vec<IdPath>, report_to: SiteAddr, seed: u64) -> SensingAgent {
        SensingAgent { targets, report_to, seed, counter: 0 }
    }

    /// Produces the next update message (round-robin over targets, with a
    /// deterministic pseudo-random availability flip).
    pub fn next_update(&mut self) -> Option<(SiteAddr, Message)> {
        if self.targets.is_empty() {
            return None;
        }
        let idx = (self.counter as usize) % self.targets.len();
        self.counter += 1;
        // SplitMix64 keeps the SA dependency-free and deterministic.
        let mut z = self.seed.wrapping_add(self.counter.wrapping_mul(0x9E3779B97F4A7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        let avail = (z ^ (z >> 31)) & 1 == 0;
        let path = self.targets[idx].clone();
        Some((
            self.report_to,
            Message::Update {
                path,
                fields: vec![(
                    "available".to_string(),
                    if avail { "yes" } else { "no" }.to_string(),
                )],
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensing_agent_round_robins_targets() {
        let a = IdPath::from_pairs([("usRegion", "NE")]);
        let b = a.child("state", "PA");
        let mut sa = SensingAgent::new(vec![a.clone(), b.clone()], SiteAddr(1), 42);
        let (_, m1) = sa.next_update().unwrap();
        let (_, m2) = sa.next_update().unwrap();
        let (_, m3) = sa.next_update().unwrap();
        let path_of = |m: &Message| match m {
            Message::Update { path, .. } => path.clone(),
            _ => panic!(),
        };
        assert_eq!(path_of(&m1), a);
        assert_eq!(path_of(&m2), b);
        assert_eq!(path_of(&m3), a);
    }

    #[test]
    fn sensing_agent_is_deterministic() {
        let p = IdPath::from_pairs([("usRegion", "NE")]);
        let mut s1 = SensingAgent::new(vec![p.clone()], SiteAddr(1), 7);
        let mut s2 = SensingAgent::new(vec![p], SiteAddr(1), 7);
        for _ in 0..10 {
            let (_, m1) = s1.next_update().unwrap();
            let (_, m2) = s2.next_update().unwrap();
            let f = |m: &Message| match m {
                Message::Update { fields, .. } => fields.clone(),
                _ => panic!(),
            };
            assert_eq!(f(&m1), f(&m2));
        }
    }

    #[test]
    fn empty_sensing_agent_yields_nothing() {
        let mut sa = SensingAgent::new(vec![], SiteAddr(1), 0);
        assert!(sa.next_update().is_none());
    }
}
