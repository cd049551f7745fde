//! The inline driver: a whole cluster pumped on the calling thread.
//!
//! Every site's `OrganizingAgent` is driven through its public split API
//! (`handle_split` → `ReadContext::perform` → `complete_read`), and every
//! message that crosses a site boundary — the client's pose, subqueries,
//! sub-answers, sensor updates — is encoded with `simnet::wire` and decoded
//! again at its destination, exactly the work a TCP transport would force.
//! There is one runnable thread, one outstanding operation (closed loop),
//! and a virtual clock that advances a fixed step per operation, so message
//! and byte counts repeat exactly for a given seed.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use irisdns::{AuthoritativeDns, CachingResolver, SiteAddr};
use irisnet_core::qeg::plan_query;
use irisnet_core::{
    lca_dns_name, CacheStats, Endpoint, HandleOutcome, IdPath, Message, OaStats, OrganizingAgent,
    Outbound, ReadContext, ReadResult, ReadTaskKind, Service, SiteDatabase,
};
use simnet::{decode_frame, encode_frame};

use crate::store::BackendCounters;
use crate::trace::{Kind, Tracer};

/// Virtual seconds between two user operations.
pub const OP_DT: f64 = 0.001;

/// The single closed-loop client's endpoint.
const CLIENT: Endpoint = Endpoint(1);

/// A user query's answer as the client sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub answer_xml: String,
    pub ok: bool,
    pub partial: bool,
}

/// Exact wide-area traffic counts (messages crossing a site boundary).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Wan {
    /// Framed messages plus user replies.
    pub msgs: u64,
    /// Σ `encode_frame(msg).len()` plus Σ answer byte lengths.
    pub bytes: u64,
    /// Site-to-site frames alone.
    pub frames: u64,
    /// Σ `fragment_xml.len()` of the sub-answers among them.
    pub sub_answer_bytes: u64,
}

/// Driver-level counts per operation class.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriverCounts {
    pub queries: u64,
    pub updates: u64,
    /// Σ over queries of distinct sites that handled a message.
    pub sites_touched: u64,
    /// Σ over queries of the longest causal message chain.
    pub hops: u64,
}

struct Frame {
    to: SiteAddr,
    bytes: Vec<u8>,
    depth: u32,
}

/// Inputs kept so inner work of one agent call can be replayed.
enum Replay {
    None,
    Queries(Vec<String>),
    SubAnswer {
        xml: String,
        scratch: Box<SiteDatabase>,
    },
    Update {
        path: IdPath,
        fields: Vec<(String, String)>,
    },
}

#[derive(Clone, Copy)]
struct Phases {
    create: f64,
    exec: f64,
    extract: f64,
    comm: f64,
}

impl Phases {
    const ZERO: Phases = Phases {
        create: 0.0,
        exec: 0.0,
        extract: 0.0,
        comm: 0.0,
    };

    fn of(s: &OaStats) -> Phases {
        Phases {
            create: s.time_create_xslt,
            exec: s.time_exec_xslt,
            extract: s.time_extract,
            comm: s.time_comm,
        }
    }
}

fn ns(secs: f64) -> u64 {
    (secs.max(0.0) * 1e9) as u64
}

/// Estimates one cost that only some calls of a kind pay (a cache sweep, a
/// snapshot) as the difference between the two groups' mean durations.
#[derive(Debug, Clone, Copy, Default)]
pub struct SplitMean {
    pub with_n: u64,
    pub with_ns: u64,
    pub without_n: u64,
    pub without_ns: u64,
}

impl SplitMean {
    fn add(&mut self, with: bool, ns: u64) {
        if with {
            self.with_n += 1;
            self.with_ns += ns;
        } else {
            self.without_n += 1;
            self.without_ns += ns;
        }
    }

    /// Mean extra nanoseconds of a call that paid the cost.
    pub fn extra_ns(&self) -> f64 {
        if self.with_n == 0 {
            return 0.0;
        }
        let with = self.with_ns as f64 / self.with_n as f64;
        let without = if self.without_n == 0 {
            0.0
        } else {
            self.without_ns as f64 / self.without_n as f64
        };
        (with - without).max(0.0)
    }
}

pub struct InlineCluster {
    service: Arc<Service>,
    pub dns: AuthoritativeDns,
    /// `agents[addr - 1]`: site addresses are dense from 1.
    agents: Vec<OrganizingAgent>,
    contexts: Vec<ReadContext>,
    resolver: CachingResolver,
    queue: VecDeque<Frame>,
    now: f64,
    next_qid: u64,
    reply: Option<Reply>,
    pub wan: Wan,
    pub counts: DriverCounts,
    touched: u64,
    max_depth: u32,
    /// Per-site backend counters when durability is attached.
    backends: Vec<Option<Arc<BackendCounters>>>,
    // ---- tracing ----
    tracing: bool,
    pub tracer: Tracer,
    /// Whether any site runs a budgeted eviction policy (sweeps possible).
    budgeted: bool,
    /// Final `complete_read` calls, split by whether a cache sweep ran.
    pub sweep_calls: SplitMean,
    /// Shadow copies of owner databases that update replays are applied to.
    shadows: Vec<Option<SiteDatabase>>,
    pub parse_bytes: u64,
    pub serialize_bytes: u64,
}

impl InlineCluster {
    /// `agents` must carry addresses `1..=n` in order; `owners` are the DNS
    /// registrations.
    pub fn new(
        service: Arc<Service>,
        agents: Vec<OrganizingAgent>,
        owners: &[(IdPath, SiteAddr)],
    ) -> InlineCluster {
        for (i, a) in agents.iter().enumerate() {
            assert_eq!(
                a.addr.0 as usize,
                i + 1,
                "site addresses must be dense from 1"
            );
        }
        assert!(agents.len() <= 64, "site bitmask holds 64 sites");
        let mut dns = AuthoritativeDns::new();
        for (path, addr) in owners {
            dns.register(&service.dns_name(path), *addr);
        }
        let contexts = agents.iter().map(|a| a.read_context()).collect();
        let budgeted = agents.iter().any(|a| a.config.eviction.budget().is_some());
        let n = agents.len();
        InlineCluster {
            service,
            dns,
            agents,
            contexts,
            resolver: CachingResolver::new(3600.0),
            queue: VecDeque::new(),
            now: 0.0,
            next_qid: 1,
            reply: None,
            wan: Wan::default(),
            counts: DriverCounts::default(),
            touched: 0,
            max_depth: 0,
            backends: (0..n).map(|_| None).collect(),
            tracing: false,
            tracer: Tracer::new(),
            budgeted,
            sweep_calls: SplitMean::default(),
            shadows: (0..n).map(|_| None).collect(),
            parse_bytes: 0,
            serialize_bytes: 0,
        }
    }

    pub fn agents(&self) -> &[OrganizingAgent] {
        &self.agents
    }

    /// Hands the agents back (a "crash" drops them).
    pub fn into_agents(self) -> Vec<OrganizingAgent> {
        self.agents
    }

    pub fn now(&self) -> f64 {
        self.now
    }

    /// Starts the virtual clock at `now` (a recovered cluster continues
    /// after the time its log was written).
    pub fn set_now(&mut self, now: f64) {
        self.now = now;
    }

    pub fn set_backend_counters(&mut self, site: SiteAddr, c: Arc<BackendCounters>) {
        self.backends[site.0 as usize - 1] = Some(c);
    }

    /// The client resolver's `(lookups, hits, authoritative queries)`.
    pub fn resolver_stats(&self) -> (u64, u64, u64) {
        self.resolver.stats()
    }

    /// Cluster-wide agent counters (phase timers summed too).
    pub fn oa_stats_total(&self) -> OaStats {
        let mut t = OaStats::default();
        for a in &self.agents {
            let s = &a.stats;
            t.user_queries += s.user_queries;
            t.subqueries_handled += s.subqueries_handled;
            t.subqueries_sent += s.subqueries_sent;
            t.subquery_batches_sent += s.subquery_batches_sent;
            t.answers_sent += s.answers_sent;
            t.answered_locally += s.answered_locally;
            t.updates_applied += s.updates_applied;
            t.updates_forwarded += s.updates_forwarded;
            t.cache_merges += s.cache_merges;
            t.dropped_asks += s.dropped_asks;
            t.queries_forwarded += s.queries_forwarded;
            t.retries_sent += s.retries_sent;
            t.asks_abandoned += s.asks_abandoned;
            t.partial_answers += s.partial_answers;
        }
        t
    }

    /// Cache-plane totals over the sites for which `pick` holds.
    pub fn cache_stats_where(&self, pick: impl Fn(&OrganizingAgent) -> bool) -> CacheStats {
        let mut t = CacheStats::default();
        for a in self.agents.iter().filter(|a| pick(a)) {
            t.accumulate(&a.cache_stats());
        }
        t
    }

    /// Turns span recording on or off (the traced run alternates slices).
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        for c in self.backends.iter().flatten() {
            c.timing.store(on, Ordering::Relaxed);
        }
    }

    /// Gives update replays their targets: a private copy of the database
    /// of every site with a durability plane (the sites whose updates are
    /// logged).
    pub fn prepare_update_replay(&mut self) {
        for i in 0..self.agents.len() {
            if self.backends[i].is_some() && self.shadows[i].is_none() {
                self.shadows[i] = Some(self.agents[i].db().clone());
            }
        }
    }

    // ------------------------------------------------------------------
    // User operations
    // ------------------------------------------------------------------

    /// Poses one user query with self-starting routing and pumps the
    /// cluster until its answer arrives. `None` = no answer (counted as a
    /// failure by the caller).
    pub fn pose(&mut self, text: &str) -> Option<Reply> {
        self.begin_op(Kind::DriverQuery);
        let target = self.route(text);
        if let Some(target) = target {
            let qid = self.next_qid;
            self.next_qid += 1;
            let msg = Message::UserQuery {
                qid,
                text: text.to_string(),
                endpoint: CLIENT,
            };
            self.send(target, &msg, 1);
            self.pump();
        }
        self.counts.queries += 1;
        self.counts.sites_touched += u64::from(self.touched.count_ones());
        self.counts.hops += u64::from(self.max_depth);
        if self.tracing {
            self.tracer.end_op(Kind::DriverQuery);
        }
        self.reply.take()
    }

    /// Sends one sensor update (a `Message::Update`) to `to`, its owner,
    /// and pumps until quiet.
    pub fn update(&mut self, to: SiteAddr, msg: &Message) {
        self.begin_op(Kind::DriverUpdate);
        self.send(to, msg, 1);
        self.pump();
        self.counts.updates += 1;
        if self.tracing {
            self.tracer.end_op(Kind::DriverUpdate);
        }
    }

    fn begin_op(&mut self, kind: Kind) {
        self.now += OP_DT;
        self.touched = 0;
        self.max_depth = 0;
        self.reply = None;
        if self.tracing {
            self.tracer.begin_op(kind);
        }
    }

    /// What a front-end does for every query (§3.4): parse, extract the
    /// LCA's DNS name, resolve it.
    fn route(&mut self, text: &str) -> Option<SiteAddr> {
        let expr = self
            .timed(Kind::XpathParse, |_| sensorxpath::parse(text))
            .ok()?;
        let name = self.timed(Kind::Route, |c| lca_dns_name(&expr, &c.service));
        let now = self.now;
        self.timed(Kind::Resolve, |c| c.resolver.resolve(&name, &c.dns, now))
            .map(|o| o.addr)
    }

    fn timed<T>(&mut self, kind: Kind, f: impl FnOnce(&mut InlineCluster) -> T) -> T {
        if self.tracing {
            let t0 = Instant::now();
            let r = f(self);
            self.tracer.call(kind, t0);
            r
        } else {
            f(self)
        }
    }

    // ------------------------------------------------------------------
    // The wire boundary and the pump
    // ------------------------------------------------------------------

    fn send(&mut self, to: SiteAddr, msg: &Message, depth: u32) {
        let bytes = self.timed(Kind::WireEncode, |_| encode_frame(msg));
        self.wan.msgs += 1;
        self.wan.frames += 1;
        self.wan.bytes += bytes.len() as u64;
        if let Message::SubAnswer { fragment_xml, .. } = msg {
            self.wan.sub_answer_bytes += fragment_xml.len() as u64;
        }
        self.queue.push_back(Frame { to, bytes, depth });
    }

    fn pump(&mut self) {
        while let Some(frame) = self.queue.pop_front() {
            self.deliver(frame);
        }
    }

    fn deliver(&mut self, frame: Frame) {
        let msg = self
            .timed(Kind::WireDecode, |_| decode_frame(&frame.bytes))
            .expect("a frame this driver encoded decodes");
        let i = frame.to.0 as usize - 1;
        self.touched |= 1 << i;
        self.max_depth = self.max_depth.max(frame.depth);
        let now = self.now;
        if !self.tracing {
            let oc = self.agents[i].handle_split(msg, &mut self.dns, now);
            self.finish(i, oc, frame.depth);
            return;
        }
        let kind = match &msg {
            Message::UserQuery { .. } => Kind::AgentUserQuery,
            Message::SubQuery { .. } | Message::SubQueryBatch { .. } => Kind::AgentSubQuery,
            Message::SubAnswer { .. } => Kind::AgentSubAnswer,
            _ => Kind::AgentUpdate,
        };
        let o0 = Instant::now();
        let replay = self.capture(i, &msg);
        let before = Phases::of(&self.agents[i].stats);
        let storage0 = self.storage_snapshot(i);
        self.tracer.overhead(o0);

        let t0 = Instant::now();
        let oc = self.agents[i].handle_split(msg, &mut self.dns, now);
        self.tracer.call(kind, t0);

        let o1 = Instant::now();
        let replied = oc
            .out
            .iter()
            .any(|o| matches!(o, Outbound::ReplyUser { .. }));
        let comm_ns = self.inner_phases(i, kind, before, Phases::ZERO, replied);
        self.replay(i, kind, replay, storage0, comm_ns);
        self.tracer.overhead(o1);
        self.finish(i, oc, frame.depth);
    }

    /// Runs the read tasks of one owner-loop step inline (FIFO, as
    /// `OrganizingAgent::handle` does), then routes everything it sent.
    fn finish(&mut self, i: usize, oc: HandleOutcome, depth: u32) {
        let mut outs = oc.out;
        let mut tasks: VecDeque<_> = oc.tasks.into();
        let now = self.now;
        while let Some(task) = tasks.pop_front() {
            if !self.tracing {
                let done = self.contexts[i].perform(&task);
                let mut more = self.agents[i].complete_read(done, &mut self.dns, now);
                outs.append(&mut more.out);
                tasks.extend(more.tasks);
                continue;
            }
            let rkind = match task.kind {
                ReadTaskKind::Execute { .. } => Kind::ReadExecute,
                ReadTaskKind::FinalizeUser { .. } => Kind::ReadFinalizeUser,
                ReadTaskKind::FinalizeSite { .. } => Kind::ReadFinalizeSite,
            };
            let t0 = Instant::now();
            let done = self.contexts[i].perform(&task);
            self.tracer.call(rkind, t0);
            let carried = Phases {
                create: done.time_create,
                exec: done.time_exec,
                extract: done.time_extract,
                comm: done.time_comm,
            };
            let (is_final, out_len) = match &done.result {
                ReadResult::UserAnswer { answer_xml, .. } => (true, answer_xml.len()),
                ReadResult::Fragment { fragment_xml, .. } => (true, fragment_xml.len()),
                _ => (false, 0),
            };
            match rkind {
                Kind::ReadExecute => {
                    self.tracer
                        .derived(rkind, Kind::QegCreate, ns(carried.create));
                    self.tracer.derived(rkind, Kind::QegExec, ns(carried.exec));
                }
                Kind::ReadFinalizeUser => {
                    self.tracer
                        .derived(rkind, Kind::QegExtract, ns(carried.extract));
                    self.tracer
                        .derived(rkind, Kind::XmlSerialize, ns(carried.comm));
                    self.serialize_bytes += out_len as u64;
                }
                _ => {
                    self.tracer
                        .derived(rkind, Kind::FragmentExport, ns(carried.extract));
                    self.tracer
                        .derived(rkind, Kind::XmlSerialize, ns(carried.comm));
                    self.serialize_bytes += out_len as u64;
                }
            }
            let before = Phases::of(&self.agents[i].stats);
            let sweeps0 = self.sweeps(i);
            let t1 = Instant::now();
            let mut more = self.agents[i].complete_read(done, &mut self.dns, now);
            let call_ns = t1.elapsed().as_nanos() as u64;
            self.tracer.call(Kind::AgentCompleteRead, t1);
            let replied = more
                .out
                .iter()
                .any(|o| matches!(o, Outbound::ReplyUser { .. }));
            let comm_ns = self.inner_phases(i, Kind::AgentCompleteRead, before, carried, replied);
            if comm_ns > 0 {
                self.tracer
                    .derived(Kind::AgentCompleteRead, Kind::XmlSerialize, comm_ns);
            }
            if is_final && self.budgeted {
                let swept = self.sweeps(i) > sweeps0;
                self.sweep_calls.add(swept, call_ns);
            }
            outs.append(&mut more.out);
            tasks.extend(more.tasks);
        }
        for o in outs {
            match o {
                Outbound::Send { to, msg } => self.send(to, &msg, depth + 1),
                Outbound::ReplyUser {
                    answer_xml,
                    ok,
                    partial,
                    ..
                } => {
                    self.wan.msgs += 1;
                    self.wan.bytes += answer_xml.len() as u64;
                    self.max_depth = self.max_depth.max(depth + 1);
                    self.reply = Some(Reply {
                        answer_xml,
                        ok,
                        partial,
                    });
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Tracing helpers (only reached on traced slices)
    // ------------------------------------------------------------------

    fn sweeps(&self, i: usize) -> u64 {
        if self.budgeted {
            self.agents[i].cache_stats().sweeps
        } else {
            0
        }
    }

    fn storage_snapshot(&self, i: usize) -> (u64, u64, u64) {
        match &self.backends[i] {
            Some(c) => (
                c.append_ns.load(Ordering::Relaxed),
                c.write_ns.load(Ordering::Relaxed),
                c.writes.load(Ordering::Relaxed),
            ),
            None => (0, 0, 0),
        }
    }

    fn capture(&self, i: usize, msg: &Message) -> Replay {
        match msg {
            Message::UserQuery { text, .. } | Message::SubQuery { text, .. } => {
                Replay::Queries(vec![text.clone()])
            }
            Message::SubQueryBatch { entries, .. } => {
                Replay::Queries(entries.iter().map(|(_, t)| t.clone()).collect())
            }
            Message::SubAnswer { fragment_xml, .. } if !fragment_xml.is_empty() => {
                Replay::SubAnswer {
                    xml: fragment_xml.clone(),
                    scratch: Box::new(self.agents[i].db().clone()),
                }
            }
            Message::Update { path, fields } if self.shadows[i].is_some() => Replay::Update {
                path: path.clone(),
                fields: fields.clone(),
            },
            _ => Replay::None,
        }
    }

    /// Work the agent ran inside one call on a private overlay (cache off:
    /// the re-execute and finalize passes never leave the owner loop),
    /// read from the deltas of its public phase timers. `carried` is what
    /// the completed read task itself contributed to those timers. Returns
    /// the `time_comm` delta (fragment parse + inline serialization), which
    /// the caller splits.
    fn inner_phases(
        &mut self,
        i: usize,
        parent: Kind,
        before: Phases,
        carried: Phases,
        replied: bool,
    ) -> u64 {
        let after = Phases::of(&self.agents[i].stats);
        let create = after.create - before.create - carried.create;
        let exec = after.exec - before.exec - carried.exec;
        let extract = after.extract - before.extract - carried.extract;
        let comm = after.comm - before.comm - carried.comm;
        if create > 0.0 {
            self.tracer.derived(parent, Kind::QegCreate, ns(create));
        }
        if exec > 0.0 {
            self.tracer.derived(parent, Kind::QegExec, ns(exec));
        }
        if extract > 0.0 {
            let k = if replied {
                Kind::QegExtract
            } else {
                Kind::FragmentExport
            };
            self.tracer.derived(parent, k, ns(extract));
        }
        ns(comm)
    }

    /// Replays the inputs of one agent call through the layers' public
    /// functions. `comm_ns` is the call's `time_comm` delta: for a
    /// sub-answer it is the agent's own timing of the fragment parse plus
    /// any inline answer serialization, and the parse is priced by replay,
    /// so only the remainder counts as serialization.
    fn replay(
        &mut self,
        i: usize,
        parent: Kind,
        replay: Replay,
        storage0: (u64, u64, u64),
        comm_ns: u64,
    ) {
        let mut serialize_ns = comm_ns;
        match replay {
            Replay::None => {}
            Replay::Queries(texts) => {
                for text in texts {
                    let t0 = Instant::now();
                    let expr = sensorxpath::parse(&text);
                    let parse_ns = t0.elapsed().as_nanos() as u64;
                    self.tracer.derived(parent, Kind::XpathParse, parse_ns);
                    if let Ok(expr) = expr {
                        let t1 = Instant::now();
                        let plan = plan_query(&expr, &self.service);
                        let plan_ns = t1.elapsed().as_nanos() as u64;
                        std::hint::black_box(&plan);
                        self.tracer.derived(parent, Kind::QegPlan, plan_ns);
                    }
                }
            }
            Replay::SubAnswer { xml, mut scratch } => {
                let t0 = Instant::now();
                let frag = sensorxml::parse(&xml);
                let parse_ns = t0.elapsed().as_nanos() as u64;
                self.tracer.derived(parent, Kind::XmlParse, parse_ns);
                self.parse_bytes += xml.len() as u64;
                serialize_ns = comm_ns.saturating_sub(parse_ns);
                if let Ok(frag) = frag {
                    let t1 = Instant::now();
                    let merged = scratch.merge_fragment(&frag);
                    let merge_ns = t1.elapsed().as_nanos() as u64;
                    std::hint::black_box(&merged);
                    self.tracer.derived(parent, Kind::FragmentMerge, merge_ns);
                }
            }
            Replay::Update { path, fields } => {
                let now = self.now;
                if let Some(shadow) = self.shadows[i].as_mut() {
                    let t0 = Instant::now();
                    let r = shadow.apply_update(&path, &fields, now);
                    let apply_ns = t0.elapsed().as_nanos() as u64;
                    std::hint::black_box(&r);
                    self.tracer
                        .derived(parent, Kind::FragmentApplyUpdate, apply_ns);
                }
                let (a0, w0, n0) = storage0;
                let (a1, w1, n1) = self.storage_snapshot(i);
                if a1 > a0 {
                    self.tracer.derived(parent, Kind::StorageAppend, a1 - a0);
                }
                if n1 > n0 {
                    // A snapshot ran inside this call: its cost is the
                    // database serialization (replayed) plus the write.
                    let t0 = Instant::now();
                    let xml = self.agents[i].db().snapshot_xml();
                    let ser_ns = t0.elapsed().as_nanos() as u64;
                    std::hint::black_box(&xml);
                    self.tracer
                        .derived(parent, Kind::StorageSnapshot, ser_ns + (w1 - w0));
                }
            }
        }
        if serialize_ns > 0 {
            self.tracer
                .derived(parent, Kind::XmlSerialize, serialize_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irisnet_bench::{DbParams, ScaleHierarchy};
    use irisnet_core::{CacheMode, OaConfig};

    fn tiny() -> ScaleHierarchy {
        ScaleHierarchy::build(
            DbParams {
                cities: 2,
                neighborhoods_per_city: 2,
                blocks_per_neighborhood: 2,
                spaces_per_block: 2,
            },
            7,
        )
    }

    fn cluster(h: &ScaleHierarchy, cache: CacheMode) -> InlineCluster {
        let cfg = OaConfig {
            cache,
            ..OaConfig::default()
        };
        InlineCluster::new(h.db.service.clone(), h.make_agents(&cfg), &h.owners)
    }

    const T1: &str = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
        /city[@id='Pittsburgh']/neighborhood[@id='n1']/block[@id='1']/parkingSpace";
    const T3: &str = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
        /city[@id='Pittsburgh']/neighborhood[@id='n1' or @id='n2']/block[@id='1']/parkingSpace";

    #[test]
    fn local_query_costs_one_frame_and_one_reply() {
        let h = tiny();
        let mut c = cluster(&h, CacheMode::Off);
        let r = c.pose(T1).expect("answer");
        assert!(r.ok && !r.partial);
        assert_eq!(r.answer_xml.matches("<parkingSpace").count(), 2);
        // Exactly: the framed pose, and the reply's answer bytes.
        let pose = Message::UserQuery {
            qid: 1,
            text: T1.to_string(),
            endpoint: CLIENT,
        };
        assert_eq!(c.wan.msgs, 2);
        assert_eq!(c.wan.frames, 1);
        assert_eq!(
            c.wan.bytes,
            (encode_frame(&pose).len() + r.answer_xml.len()) as u64
        );
        assert_eq!(c.counts.sites_touched, 1);
        assert_eq!(c.counts.hops, 2);
    }

    #[test]
    fn gather_counts_every_frame_against_encode_frame() {
        let h = tiny();
        let mut c = cluster(&h, CacheMode::Off);
        let r = c.pose(T3).expect("answer");
        assert!(r.ok && !r.partial, "{}", r.answer_xml);
        assert_eq!(r.answer_xml.matches("<parkingSpace").count(), 4);
        // City site asks two neighborhood sites: pose + 2 subqueries + 2
        // sub-answers + reply.
        assert_eq!(c.wan.frames, 5);
        assert_eq!(c.wan.msgs, 6);
        assert_eq!(c.counts.sites_touched, 3);
        assert_eq!(c.counts.hops, 4);
        assert!(c.wan.sub_answer_bytes > 0 && c.wan.sub_answer_bytes < c.wan.bytes);
        // Same stream on a second cluster: counts repeat exactly.
        let mut d = cluster(&h, CacheMode::Off);
        d.pose(T3);
        assert_eq!(c.wan, d.wan);
    }

    #[test]
    fn cached_repeat_sends_no_subqueries() {
        let h = tiny();
        let mut c = cluster(&h, CacheMode::Aggressive);
        let first = c.pose(T3).expect("answer");
        let after_first = c.wan;
        let second = c.pose(T3).expect("answer");
        assert_eq!(first, second);
        assert_eq!(
            c.wan.frames - after_first.frames,
            1,
            "only the pose is framed on a hit"
        );
    }

    #[test]
    fn traced_and_untraced_runs_agree_and_conserve() {
        let h = tiny();
        let mut plain = cluster(&h, CacheMode::Off);
        let mut traced = cluster(&h, CacheMode::Off);
        traced.set_tracing(true);
        for q in [T1, T3, T3, T1] {
            assert_eq!(plain.pose(q), traced.pose(q));
        }
        assert_eq!(plain.wan, traced.wan);
        let t = &traced.tracer;
        assert_eq!(t.count(Kind::DriverQuery), 4);
        assert_eq!(t.count(Kind::AgentUserQuery), 4);
        assert_eq!(t.count(Kind::AgentSubAnswer), 4);
        assert!(t.count(Kind::XmlParse) == 4 && t.count(Kind::FragmentMerge) == 4);
        assert!(t.total_ns(Kind::QegExec) > 0);
        let c = t.conservation();
        assert!(c.attributed_ns <= c.root_ns + c.overshoot_ns);
    }

    #[test]
    fn updates_reach_the_owner_and_change_answers() {
        let h = tiny();
        let mut c = cluster(&h, CacheMode::Off);
        let space = h.db.space_path(0, 0, 0, 0);
        let owner = h
            .owners
            .iter()
            .find(|(p, _)| p == &h.db.neighborhood_path(0, 0))
            .unwrap()
            .1;
        let msg = Message::Update {
            path: space,
            fields: vec![("available".to_string(), "maybe".to_string())],
        };
        c.update(owner, &msg);
        assert_eq!(c.counts.updates, 1);
        assert_eq!(c.oa_stats_total().updates_applied, 1);
        let r = c.pose(T1).expect("answer");
        assert!(r.answer_xml.contains("maybe"));
    }
}
