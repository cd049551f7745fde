//! The four fixed workloads: what each stresses, its constants, how its
//! cluster is set up, and its seeded operation stream.
//!
//! Names are fixed; later issues cite them. Every constant that sizes a
//! workload lives here, is the same on both sides of any comparison, and
//! was sized on the 2-vCPU reference host so that one slice is about half a
//! second and one set-up at least half a second.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use irisdns::SiteAddr;
use irisnet_bench::{DbParams, ParkingDb, QueryType, ScaleHierarchy, Workload};
use irisnet_core::{
    CacheBudget, CacheMode, DurabilityConfig, EvictionPolicy, IdPath, Message, OaConfig,
    OrganizingAgent, RecoveryStats, SensingAgent, SiteStore,
};
use irisobs::{NoopRecorder, Recorder, Registry, SpanRecord};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use simnet::{ShardClient, ShardConfig, ShardedCluster};

use crate::inline::{InlineCluster, Reply, Wan};
use crate::store::{BackendCounters, CountingBackend};
use crate::trace::Kind;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    EngineLocal,
    GatherWan,
    CacheZipf,
    UpdateMix,
}

impl Name {
    pub const ALL: [Name; 4] = [
        Name::EngineLocal,
        Name::GatherWan,
        Name::CacheZipf,
        Name::UpdateMix,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::EngineLocal => "engine_local",
            Name::GatherWan => "gather_wan",
            Name::CacheZipf => "cache_zipf",
            Name::UpdateMix => "update_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == s)
    }

    /// One sentence: which layers do the work, which do none.
    pub fn why(self) -> &'static str {
        match self {
            Name::EngineLocal => {
                "one site owns the whole document, so parse/plan/QEG/serialize do all the work and \
                 wire, merge, cache and storage none: an engine gain shows, a communication gain must not"
            }
            Name::GatherWan => {
                "cache off on the nine-site hierarchy over the real sharded runtime, so every query \
                 gathers: subqueries, wire frames, fragment serialize/parse/merge and the runtime dominate"
            }
            Name::CacheZipf => {
                "Zipf-skewed mix with a per-site LRU budget below the working set, so hits, partial \
                 matches, evictions and admission decide throughput and wide-area traffic"
            }
            Name::UpdateMix => {
                "32 logged sensor updates per query on a cluster recovered from its WAL, so the write \
                 path and recovery cost show beside reads"
            }
        }
    }

    pub fn spec(self) -> Spec {
        match self {
            Name::EngineLocal => Spec {
                mix: &QW_MIX,
                slice_queries: 2_400,
                counted_slices: 8,
                warmup_queries: 4_800,
                updates_per_query: 0,
            },
            Name::GatherWan => Spec {
                mix: &GATHER_MIX,
                slice_queries: 240,
                counted_slices: 8,
                warmup_queries: 360,
                updates_per_query: 0,
            },
            Name::CacheZipf => Spec {
                mix: &QW_MIX,
                slice_queries: 1_200,
                // Hits and misses are drawn, so traffic per query needs
                // four times the queries to settle within its 1 % bound.
                counted_slices: 48,
                warmup_queries: 2_400,
                updates_per_query: 0,
            },
            Name::UpdateMix => Spec {
                mix: &QW_MIX,
                slice_queries: 800,
                counted_slices: 8,
                warmup_queries: 400,
                updates_per_query: UPDATES_PER_QUERY,
            },
        }
    }
}

/// QW-Mix (§5.1): 40 % T1, 40 % T2, 15 % T3, 5 % T4, as exact counts per
/// block of 20 queries.
const QW_MIX: [(QueryType, usize); 4] = [
    (QueryType::T1, 8),
    (QueryType::T2, 8),
    (QueryType::T3, 3),
    (QueryType::T4, 1),
];

/// 75 % T3 / 25 % T4: every query gathers from other sites.
const GATHER_MIX: [(QueryType, usize); 2] = [(QueryType::T3, 3), (QueryType::T4, 1)];

/// Sensor updates between two queries of `update_mix`. Sized so the traced
/// run puts update layers at 40-60 % of driver time (see README).
pub const UPDATES_PER_QUERY: usize = 32;

/// Updates pre-loaded (with their interleaved queries) before the crash.
pub const PRELOAD_UPDATES: usize = 20_000;

/// `cache_zipf`: Zipf exponent of neighborhood popularity.
pub const ZIPF_EXPONENT: f64 = 1.1;

/// `cache_zipf`: LRU budget per site in local-information nodes, below the
/// working set of every caching site (top and city sites).
pub const CACHE_BUDGET_NODES: usize = 6_144;

/// `cache_zipf`: warm-up continues in blocks until every caching site has
/// evicted at least once, up to this many queries.
pub const CACHE_WARMUP_CAP: usize = 40_000;

/// Reply timeout of the sharded runtime's client (a timeout is a failure).
pub const POSE_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Exact query-type counts per block; the seed shuffles each block.
    pub mix: &'static [(QueryType, usize)],
    /// User queries per measured slice (a multiple of the block length,
    /// at least 200 so every slice supports its p95).
    pub slice_queries: usize,
    /// The measured phase never ends before this many slices; `wan_*` and
    /// `peak_rss_mb` are read when exactly this many have run, a fixed
    /// operation count whatever the host's speed lets the run add later.
    pub counted_slices: usize,
    /// User queries of the fixed warm-up that ends every set-up.
    pub warmup_queries: usize,
    pub updates_per_query: usize,
}

#[cfg(test)]
impl Spec {
    pub fn block_len(&self) -> usize {
        self.mix.iter().map(|(_, n)| n).sum()
    }
}

/// One user operation.
#[derive(Debug, Clone)]
pub enum Op {
    Query(String),
    /// A sensor update for the owner site `to` (`msg` is a
    /// `Message::Update`, built once so that the driver only frames it).
    Update {
        to: SiteAddr,
        msg: Message,
    },
}

/// The seeded operation stream: the seed is its only input.
///
/// Query *types* follow an exact mix — each block holds the mix's counts in
/// a seed-shuffled order — so every slice carries the same share of
/// expensive queries and slice times differ by host noise, not by the draw.
/// Query *targets* (and, for `update_mix`, sensor readings) are drawn from
/// the seed.
pub struct Stream {
    workload: Workload,
    rng: SmallRng,
    mix: &'static [(QueryType, usize)],
    block: Vec<QueryType>,
    sensors: Vec<SensingAgent>,
    next_sensor: usize,
    updates_per_query: usize,
}

impl Stream {
    pub fn new(name: Name, h: &ScaleHierarchy, seed: u64) -> Stream {
        let spec = name.spec();
        let workload = match name {
            Name::CacheZipf => Workload::qw_mix(&h.db, seed).with_zipf(ZIPF_EXPONENT),
            _ => Workload::qw_mix(&h.db, seed),
        };
        let sensors = if spec.updates_per_query > 0 {
            sensing_agents(h, seed)
        } else {
            Vec::new()
        };
        Stream {
            workload,
            rng: SmallRng::seed_from_u64(seed ^ 0x5EED_B10C),
            mix: spec.mix,
            block: Vec::new(),
            sensors,
            next_sensor: 0,
            updates_per_query: spec.updates_per_query,
        }
    }

    fn next_type(&mut self) -> QueryType {
        if self.block.is_empty() {
            for &(qt, n) in self.mix {
                self.block.extend(std::iter::repeat_n(qt, n));
            }
            // Fisher-Yates with the stream's own generator.
            for i in (1..self.block.len()).rev() {
                let j = self.rng.random_range(0..=i);
                self.block.swap(i, j);
            }
        }
        self.block.pop().expect("block was just filled")
    }

    fn next_update(&mut self) -> Op {
        let i = self.next_sensor;
        self.next_sensor = (i + 1) % self.sensors.len();
        let (to, msg) = self.sensors[i]
            .next_update()
            .expect("sensing agents have targets");
        Op::Update { to, msg }
    }

    /// The next `queries` user queries, each followed by the workload's
    /// fixed number of sensor updates.
    pub fn take(&mut self, queries: usize) -> Vec<Op> {
        let mut ops = Vec::with_capacity(queries * (1 + self.updates_per_query));
        for _ in 0..queries {
            let qt = self.next_type();
            ops.push(Op::Query(self.workload.next_query_of(qt)));
            for _ in 0..self.updates_per_query {
                ops.push(self.next_update());
            }
        }
        ops
    }
}

/// One sensing agent per neighborhood site, reporting on its 400 spaces.
fn sensing_agents(h: &ScaleHierarchy, seed: u64) -> Vec<SensingAgent> {
    let p = h.db.params;
    let mut out = Vec::new();
    for ci in 0..p.cities {
        for ni in 0..p.neighborhoods_per_city {
            let np = h.db.neighborhood_path(ci, ni);
            let owner = h
                .owners
                .iter()
                .find(|(path, _)| *path == np)
                .expect("owner")
                .1;
            let mut targets = Vec::new();
            for bi in 0..p.blocks_per_neighborhood {
                for si in 0..p.spaces_per_block {
                    targets.push(h.db.space_path(ci, ni, bi, si));
                }
            }
            out.push(SensingAgent::new(
                targets,
                owner,
                seed.wrapping_add(owner.0 as u64),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Topologies and configurations
// ---------------------------------------------------------------------

/// The placement a workload runs on: the nine-site Architecture 4
/// hierarchy, or (`engine_local`) the same document on one site.
pub struct Topology {
    pub h: ScaleHierarchy,
    pub owners: Vec<(IdPath, SiteAddr)>,
    single_site: bool,
}

/// Seed of the document every run is set up on. The database is a fixture
/// like the other constants in this file: `--seed` draws the operations
/// run against it (targets, order, sensor readings), not its contents. A
/// redrawn document alone moves `wan_bytes_per_query` by 2 % (how many of
/// its 2 400 spaces happen to be available), twice that metric's bound.
pub const DOCUMENT_SEED: u64 = 1;

impl Topology {
    pub fn build(name: Name) -> Topology {
        let h = ScaleHierarchy::build(DbParams::small(), DOCUMENT_SEED);
        let single_site = name == Name::EngineLocal;
        let owners = if single_site {
            vec![(h.db.root_path(), SiteAddr(1))]
        } else {
            h.owners.clone()
        };
        Topology {
            h,
            owners,
            single_site,
        }
    }

    pub fn db(&self) -> &ParkingDb {
        &self.h.db
    }

    /// A fresh, identically bootstrapped agent set.
    pub fn make_agents(&self, config: &OaConfig) -> Vec<OrganizingAgent> {
        if !self.single_site {
            return self.h.make_agents(config);
        }
        let db = &self.h.db;
        let oa = OrganizingAgent::new(SiteAddr(1), db.service.clone(), config.clone());
        oa.db_mut()
            .bootstrap_owned(&db.master, &db.root_path(), true)
            .expect("bootstrap root");
        vec![oa]
    }

    /// Sites that hold other sites' data only as cache (top and cities).
    pub fn is_caching_site(&self, addr: SiteAddr) -> bool {
        !self.single_site && (addr.0 as usize) <= 1 + self.h.db.params.cities
    }
}

pub fn oa_config(name: Name) -> OaConfig {
    match name {
        Name::EngineLocal | Name::GatherWan => OaConfig {
            cache: CacheMode::Off,
            ..OaConfig::default()
        },
        Name::CacheZipf => OaConfig {
            cache: CacheMode::Aggressive,
            eviction: EvictionPolicy::Lru {
                budget: CacheBudget::nodes(CACHE_BUDGET_NODES),
            },
            cache_admission: true,
            ..OaConfig::default()
        },
        Name::UpdateMix => OaConfig {
            cache: CacheMode::Aggressive,
            eviction: EvictionPolicy::KeepForever,
            ..OaConfig::default()
        },
    }
}

// ---------------------------------------------------------------------
// Targets: what a stream is run against
// ---------------------------------------------------------------------

/// A closed-loop target for one client.
pub trait Target {
    fn pose(&mut self, text: &str) -> Option<Reply>;
    fn update(&mut self, to: SiteAddr, msg: &Message);

    /// Exact traffic so far, if the target counts it.
    fn wan(&self) -> Option<Wan> {
        None
    }

    /// Turns span recording on or off, if the target can trace.
    fn set_tracing(&mut self, _on: bool) {}

    /// Σ root-span nanoseconds recorded so far (net of tracing overhead).
    fn traced_root_ns(&self) -> u64 {
        0
    }

    fn apply(&mut self, op: &Op) -> Option<Option<Reply>> {
        match op {
            Op::Query(text) => Some(self.pose(text)),
            Op::Update { to, msg } => {
                self.update(*to, msg);
                None
            }
        }
    }
}

impl Target for InlineCluster {
    fn pose(&mut self, text: &str) -> Option<Reply> {
        InlineCluster::pose(self, text)
    }

    fn update(&mut self, to: SiteAddr, msg: &Message) {
        InlineCluster::update(self, to, msg);
    }

    fn wan(&self) -> Option<Wan> {
        Some(self.wan)
    }

    fn set_tracing(&mut self, on: bool) {
        InlineCluster::set_tracing(self, on);
    }

    fn traced_root_ns(&self) -> u64 {
        self.tracer.total_ns(Kind::DriverQuery) + self.tracer.total_ns(Kind::DriverUpdate)
    }
}

/// A recorder that keeps a metrics registry but records no spans: the
/// sharded runtime feeds its mailbox-wait histograms into it while agents
/// stay on their no-op plane.
#[derive(Debug, Default)]
pub struct RegistryOnly {
    registry: Registry,
}

impl Recorder for RegistryOnly {
    fn enabled(&self) -> bool {
        false
    }

    fn next_span_id(&self) -> u64 {
        NoopRecorder.next_span_id()
    }

    fn record_span(&self, _span: SpanRecord) {}

    fn registry(&self) -> Option<&Registry> {
        Some(&self.registry)
    }
}

/// The real sharded runtime: one shard loop, reads inline on it, every
/// send framed, one client. Client and shard hand the single query back
/// and forth, so at most one of the two threads is runnable at a time.
pub struct Sharded {
    cluster: Option<ShardedCluster>,
    client: ShardClient,
    pub recorder: Option<Arc<RegistryOnly>>,
}

impl Sharded {
    pub fn start(topo: &Topology, config: &OaConfig, with_registry: bool) -> Sharded {
        let mut cluster = ShardedCluster::with_config(
            topo.db().service.clone(),
            ShardConfig {
                shards: 1,
                workers_per_shard: 0,
                force_wire: true,
            },
        );
        let recorder = with_registry.then(|| Arc::new(RegistryOnly::default()));
        if let Some(r) = &recorder {
            cluster.set_recorder(r.clone());
        }
        for (path, addr) in &topo.owners {
            cluster.register_owner(path, *addr);
        }
        for a in topo.make_agents(config) {
            cluster.add_site(a);
        }
        cluster.start();
        let client = cluster.client();
        Sharded {
            cluster: Some(cluster),
            client,
            recorder,
        }
    }

    /// `(p50, p99)` of the shard loop's mailbox wait in microseconds, from
    /// the runtime's own `runtime.shard0.mailbox_wait` histogram.
    pub fn mailbox_wait_us(&self) -> (f64, f64) {
        match &self.recorder {
            Some(r) => {
                let h = r.registry.histogram(0, "runtime.shard0.mailbox_wait");
                (h.quantile(0.5) * 1e6, h.quantile(0.99) * 1e6)
            }
            None => (0.0, 0.0),
        }
    }
}

/// Dropping the target stops the shard thread and waits for it.
impl Drop for Sharded {
    fn drop(&mut self) {
        if let Some(c) = self.cluster.take() {
            c.shutdown();
        }
    }
}

impl Target for Sharded {
    fn pose(&mut self, text: &str) -> Option<Reply> {
        self.client.pose_query(text, POSE_TIMEOUT).map(|r| Reply {
            answer_xml: r.answer_xml,
            ok: r.ok,
            partial: r.partial,
        })
    }

    fn update(&mut self, to: SiteAddr, msg: &Message) {
        if let Some(c) = &self.cluster {
            c.send(to, msg.clone());
        }
    }
}

// ---------------------------------------------------------------------
// Durability (update_mix)
// ---------------------------------------------------------------------

/// Opens (or re-opens) site `addr`'s store under `root` and attaches it.
/// On a re-open the agent's database must be empty: recovery is the
/// bootstrap.
pub fn attach_store(
    oa: &mut OrganizingAgent,
    root: &Path,
    counters: Arc<BackendCounters>,
    now: f64,
) -> RecoveryStats {
    let dir = root.join(format!("site{}", oa.addr.0));
    let backend = CountingBackend::open(&dir, counters).expect("open site store directory");
    let (store, recovered) =
        SiteStore::open(Box::new(backend), DurabilityConfig::default()).expect("open site store");
    oa.attach_durability(store, recovered, now)
        .expect("attach durability")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_support_p95_and_hold_whole_blocks() {
        for n in Name::ALL {
            let s = n.spec();
            assert!(
                crate::stats::percentile_supported(s.slice_queries, 0.95),
                "{n:?}"
            );
            assert_eq!(s.slice_queries % s.block_len(), 0, "{n:?}");
            assert_eq!(s.warmup_queries % s.block_len(), 0, "{n:?}");
            assert_eq!(Name::parse(n.as_str()), Some(n));
            assert!(
                n.why().len() <= 200,
                "{n:?}: why is one line of at most 200 characters"
            );
        }
    }

    #[test]
    fn stream_is_a_function_of_the_seed_with_an_exact_mix() {
        let topo = Topology::build(Name::UpdateMix);
        let render = |ops: &[Op]| -> Vec<String> { ops.iter().map(|o| format!("{o:?}")).collect() };
        let a = Stream::new(Name::UpdateMix, &topo.h, 3).take(40);
        let b = Stream::new(Name::UpdateMix, &topo.h, 3).take(40);
        let c = Stream::new(Name::UpdateMix, &topo.h, 4).take(40);
        assert_eq!(render(&a), render(&b));
        assert_ne!(render(&a), render(&c));
        assert_eq!(a.len(), 40 * (1 + UPDATES_PER_QUERY));
        // Two blocks of 20: exactly 2 county-level (T4) and 6 city-level
        // (T3) queries, whatever the seed.
        let queries: Vec<&String> = a
            .iter()
            .filter_map(|o| if let Op::Query(q) = o { Some(q) } else { None })
            .collect();
        assert_eq!(queries.len(), 40);
        let lca_is = |q: &str, tag: &str| {
            // The first step with an `or` is the one below the LCA.
            q.split(" or ").next().is_some_and(|head| {
                head.rsplit('/')
                    .next()
                    .is_some_and(|step| step.starts_with(tag))
            })
        };
        assert_eq!(
            queries.iter().filter(|q| lca_is(q, "city[")).count(),
            2,
            "T4 per 40 queries"
        );
        assert_eq!(
            queries
                .iter()
                .filter(|q| lca_is(q, "neighborhood["))
                .count(),
            6,
            "T3 per 40 queries"
        );
        // Updates go round-robin to the six neighborhood owners.
        let owners: Vec<u32> = a
            .iter()
            .filter_map(|o| {
                if let Op::Update { to, .. } = o {
                    Some(to.0)
                } else {
                    None
                }
            })
            .take(6)
            .collect();
        assert_eq!(owners, vec![4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn engine_local_is_one_site_and_the_rest_nine() {
        assert_eq!(Topology::build(Name::EngineLocal).owners.len(), 1);
        let t = Topology::build(Name::GatherWan);
        assert_eq!(t.owners.len(), 9);
        assert!(t.is_caching_site(SiteAddr(1)) && t.is_caching_site(SiteAddr(3)));
        assert!(!t.is_caching_site(SiteAddr(4)));
        assert_eq!(t.make_agents(&oa_config(Name::GatherWan)).len(), 9);
    }
}
