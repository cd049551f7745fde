//! One workload, start to finish: five set-ups, the measured phase in
//! equal-count slices, the oracle check, and the metrics.
//!
//! Closed loop, one client, one outstanding operation. End-to-end metrics
//! are taken with tracing off; a traced run alternates untraced and traced
//! slices, so the tracing overhead is measured inside one run.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use irisnet_core::{CacheStats, OaStats, OrganizingAgent};

use crate::host;
use crate::inline::{InlineCluster, Reply, Wan};
use crate::oracle::{canonical, des_answers};
use crate::report::{metric, Metric, Outcome};
use crate::stats::{median, slice_estimates, Slice};
use crate::store::{dir_bytes, BackendCounters, TempDir};
use crate::trace::Kind;
use crate::workloads::{
    attach_store, oa_config, Name, Op, Sharded, Spec, Stream, Target, Topology, CACHE_WARMUP_CAP,
    PRELOAD_UPDATES,
};

/// Set-ups per run; `setup_s` is their median and the last one is measured.
pub const SETUPS: usize = 5;

/// Measured queries answered again by the oracle.
pub const ORACLE_QUERIES: usize = 1_000;

#[derive(Debug, Clone)]
pub enum Trace {
    Off,
    /// Traced run; spans of the first operations go to the path, if any.
    On(Option<PathBuf>),
}

#[derive(Debug, Clone)]
pub struct Options {
    pub name: Name,
    pub seed: u64,
    pub seconds: f64,
    pub trace: Trace,
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

enum Cluster {
    Inline(Box<InlineCluster>),
    Sharded(Box<Sharded>),
}

/// Recovery cost of the crash inside `update_mix`'s set-up.
#[derive(Debug, Clone, Copy, Default)]
struct Recovery {
    wall_ms: f64,
    records: u64,
    replay_ms: f64,
}

struct Ready {
    topo: Topology,
    cluster: Cluster,
    stream: Stream,
    /// Queries the set-up consumed from the stream (the oracle skips or
    /// replays them).
    setup_queries: usize,
    recovery: Recovery,
    store_root: Option<PathBuf>,
}

fn run_ops<T: Target>(target: &mut T, ops: &[Op]) {
    for op in ops {
        target.apply(op);
    }
}

fn with_stores(
    agents: &mut [OrganizingAgent],
    root: &std::path::Path,
    now: f64,
) -> (Vec<Arc<BackendCounters>>, Recovery) {
    let mut rec = Recovery::default();
    let mut counters = Vec::with_capacity(agents.len());
    let t0 = Instant::now();
    for oa in agents.iter_mut() {
        let c = Arc::new(BackendCounters::default());
        let stats = attach_store(oa, root, c.clone(), now);
        rec.records += stats.records_replayed;
        rec.replay_ms += stats.replay_ms;
        counters.push(c);
    }
    rec.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (counters, rec)
}

/// Builds the workload's cluster from nothing and warms it: generate the
/// document, bootstrap the agents, attach durability, start the runtime,
/// and run the fixed warm-up that fills the QEG skeleton caches, the DNS
/// resolver caches and the fragment caches.
fn set_up(name: Name, seed: u64, tmp: &TempDir, instance: usize, with_registry: bool) -> Ready {
    let spec = name.spec();
    let topo = Topology::build(name);
    let config = oa_config(name);
    let mut stream = Stream::new(name, &topo.h, seed);
    let service = topo.db().service.clone();
    let mut recovery = Recovery::default();
    let mut store_root = None;
    let mut setup_queries = spec.warmup_queries;
    let cluster = match name {
        Name::GatherWan => {
            let mut s = Sharded::start(&topo, &config, with_registry);
            run_ops(&mut s, &stream.take(spec.warmup_queries));
            Cluster::Sharded(Box::new(s))
        }
        Name::EngineLocal => {
            let mut c = InlineCluster::new(service, topo.make_agents(&config), &topo.owners);
            run_ops(&mut c, &stream.take(spec.warmup_queries));
            Cluster::Inline(Box::new(c))
        }
        Name::CacheZipf => {
            let mut c = InlineCluster::new(service, topo.make_agents(&config), &topo.owners);
            run_ops(&mut c, &stream.take(spec.warmup_queries));
            // Until every caching site is at its budget (has had to evict).
            let block = spec.slice_queries / 2;
            while setup_queries < CACHE_WARMUP_CAP
                && c.agents()
                    .iter()
                    .any(|a| topo.is_caching_site(a.addr) && a.cache_stats().evictions == 0)
            {
                run_ops(&mut c, &stream.take(block));
                setup_queries += block;
            }
            Cluster::Inline(Box::new(c))
        }
        Name::UpdateMix => {
            let root = tmp.path().join(format!("setup{instance}"));
            // Pre-load: the measured interleave, logged to every site's
            // WAL (no fsync, snapshot every 256 records).
            let mut agents = topo.make_agents(&config);
            let (counters, _) = with_stores(&mut agents, &root, 0.0);
            let mut c = InlineCluster::new(service.clone(), agents, &topo.owners);
            for (a, k) in (1..).zip(counters) {
                c.set_backend_counters(irisdns::SiteAddr(a), k);
            }
            let preload_queries = PRELOAD_UPDATES / spec.updates_per_query;
            run_ops(&mut c, &stream.take(preload_queries));
            setup_queries += preload_queries;
            let crashed_at = c.now();
            // Crash: every agent and its in-memory database is gone; the
            // files are what survives.
            drop(c.into_agents());
            // Recover: empty agents replay snapshot + WAL tail.
            let mut agents: Vec<OrganizingAgent> = topo
                .owners
                .iter()
                .map(|(_, addr)| OrganizingAgent::new(*addr, service.clone(), config.clone()))
                .collect();
            let (counters, rec) = with_stores(&mut agents, &root, crashed_at);
            recovery = rec;
            let mut c = InlineCluster::new(service, agents, &topo.owners);
            for (a, k) in (1..).zip(counters) {
                c.set_backend_counters(irisdns::SiteAddr(a), k);
            }
            c.set_now(crashed_at);
            run_ops(&mut c, &stream.take(spec.warmup_queries));
            store_root = Some(root);
            Cluster::Inline(Box::new(c))
        }
    };
    Ready {
        topo,
        cluster,
        stream,
        setup_queries,
        recovery,
        store_root,
    }
}

/// Stops what an unmeasured set-up instance started (dropping a sharded
/// cluster joins its shard thread) and removes its store.
fn tear_down(ready: Ready) {
    let Ready {
        cluster,
        store_root,
        ..
    } = ready;
    drop(cluster);
    if let Some(root) = store_root {
        let _ = std::fs::remove_dir_all(root);
    }
}

// ---------------------------------------------------------------------
// The measured phase
// ---------------------------------------------------------------------

struct MeasuredSlice {
    slice: Slice,
    traced: bool,
}

struct Measured {
    slices: Vec<MeasuredSlice>,
    /// Root-span nanoseconds (net of tracing overhead) per traced slice.
    traced_root_ns: Vec<u64>,
    answers: Vec<Option<Reply>>,
    queries: u64,
    updates: u64,
    failed: u64,
    /// Traffic after exactly `Spec::counted_slices` slices, with the query count.
    wan_prefix: Option<(Wan, u64)>,
    /// `VmHWM` at that same point: the process's peak up to a fixed
    /// operation count, whatever the host's speed let the run add later.
    rss_prefix_mib: f64,
    wall_s: f64,
    sched: (host::Sched, host::Sched),
    /// One reference chunk timed before every slice, off its clock (ns).
    reference_ns: Vec<f64>,
}

impl Measured {
    fn untraced(&self) -> impl Iterator<Item = &Slice> + Clone {
        self.slices.iter().filter(|s| !s.traced).map(|s| &s.slice)
    }
}

/// Runs whole slices until `seconds` have passed, and never fewer than
/// `spec.counted_slices` (the driver passes `--seconds`, so the phase is bounded
/// by time and the exact counts are read after a fixed number of slices).
fn measure<T: Target>(
    target: &mut T,
    stream: &mut Stream,
    spec: &Spec,
    seconds: f64,
    traced: bool,
    keep_answers: usize,
    reference: &mut host::Reference,
) -> Measured {
    let mut m = Measured {
        slices: Vec::new(),
        traced_root_ns: Vec::new(),
        answers: Vec::with_capacity(keep_answers),
        queries: 0,
        updates: 0,
        failed: 0,
        wan_prefix: None,
        rss_prefix_mib: 0.0,
        wall_s: 0.0,
        sched: (host::sched(), host::Sched::default()),
        reference_ns: Vec::new(),
    };
    let wan0 = target.wan();
    let started = Instant::now();
    while m.slices.len() < spec.counted_slices || started.elapsed().as_secs_f64() < seconds {
        // Generating the slice's operations is outside its clock.
        let ops = stream.take(spec.slice_queries);
        let trace_this = traced && m.slices.len() % 2 == 1;
        target.set_tracing(trace_this);
        let root0 = target.traced_root_ns();
        let mut latencies_s = Vec::with_capacity(spec.slice_queries);
        m.reference_ns.push(reference.chunk() as f64);
        let t_slice = Instant::now();
        for op in &ops {
            match op {
                Op::Query(text) => {
                    let t0 = Instant::now();
                    let reply = target.pose(text);
                    latencies_s.push(t0.elapsed().as_secs_f64());
                    m.queries += 1;
                    if !matches!(&reply, Some(r) if r.ok && !r.partial) {
                        m.failed += 1;
                    }
                    if m.answers.len() < keep_answers {
                        m.answers.push(reply);
                    }
                }
                Op::Update { to, msg } => {
                    target.update(*to, msg);
                    m.updates += 1;
                }
            }
        }
        let wall_s = t_slice.elapsed().as_secs_f64();
        if trace_this {
            m.traced_root_ns.push(target.traced_root_ns() - root0);
        }
        m.slices.push(MeasuredSlice {
            slice: Slice {
                wall_s,
                latencies_s,
            },
            traced: trace_this,
        });
        if m.slices.len() == spec.counted_slices {
            m.rss_prefix_mib = host::peak_rss_mib();
            if let (Some(a), Some(b)) = (wan0, target.wan()) {
                m.wan_prefix = Some((
                    Wan {
                        msgs: b.msgs - a.msgs,
                        bytes: b.bytes - a.bytes,
                        frames: b.frames - a.frames,
                        sub_answer_bytes: b.sub_answer_bytes - a.sub_answer_bytes,
                    },
                    m.queries,
                ));
            }
        }
    }
    target.set_tracing(false);
    m.wall_s = started.elapsed().as_secs_f64();
    m.sched.1 = host::sched();
    m
}

// ---------------------------------------------------------------------
// Counter snapshots (for per-layer ratios over the measured phase)
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct Counters {
    oa: OaStats,
    cache: CacheStats,
    resolver: (u64, u64, u64),
    skeleton: (u64, u64),
    wan: Wan,
    queries: u64,
    updates: u64,
    sites_touched: u64,
    hops: u64,
    wal_appends: u64,
    wal_bytes: u64,
    wal_snapshots: u64,
    wal_errors: u64,
    parse_bytes: u64,
    serialize_bytes: u64,
}

impl Counters {
    fn of(c: &InlineCluster, topo: &Topology) -> Counters {
        let mut k = Counters {
            oa: c.oa_stats_total(),
            cache: c.cache_stats_where(|a| topo.is_caching_site(a.addr)),
            resolver: c.resolver_stats(),
            wan: c.wan,
            queries: c.counts.queries,
            updates: c.counts.updates,
            sites_touched: c.counts.sites_touched,
            hops: c.counts.hops,
            parse_bytes: c.parse_bytes,
            serialize_bytes: c.serialize_bytes,
            ..Counters::default()
        };
        for a in c.agents() {
            let q = a.qeg();
            k.skeleton.0 += q.skeleton_hits();
            k.skeleton.1 += q.skeleton_misses();
            if let Some(w) = a.wal() {
                k.wal_appends += w.appends();
                k.wal_bytes += w.bytes();
                k.wal_snapshots += w.snapshots();
                k.wal_errors += w.append_errors();
            }
        }
        k
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

/// Runs one workload and prints its report; the caller prints the result
/// line and sets the exit code.
pub fn run(opts: &Options) -> Outcome {
    let name = opts.name;
    let spec = name.spec();
    let traced = matches!(opts.trace, Trace::On(_));
    let tmp = TempDir::create(name.as_str()).expect("create the per-process temp directory");

    // Set-up, five times from scratch; the fifth instance is measured.
    let mut reference = host::Reference::new();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for k in 0..SETUPS {
        if let Some(prev) = ready.take() {
            tear_down(prev);
        }
        let t0 = Instant::now();
        ready = Some(set_up(name, opts.seed, &tmp, k, traced));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Ready {
        topo,
        cluster,
        mut stream,
        setup_queries,
        recovery,
        store_root,
    } = ready.expect("five set-ups ran");
    let config = oa_config(name);

    // Measured phase.
    let mut traced_out: Option<LayerTable> = None;
    let (measured, wan, replay_failed) = match cluster {
        Cluster::Inline(mut c) => {
            if traced {
                c.prepare_update_replay();
            }
            let before = Counters::of(&c, &topo);
            let m = measure(
                &mut *c,
                &mut stream,
                &spec,
                opts.seconds,
                traced,
                ORACLE_QUERIES,
                &mut reference,
            );
            let after = Counters::of(&c, &topo);
            let wan = m.wan_prefix.expect("the inline driver counts traffic");
            if traced {
                let t = layer_table(
                    name,
                    &c,
                    &before,
                    &after,
                    &m,
                    None,
                    store_root.as_deref(),
                    recovery,
                );
                traced_out = Some(t.finish(&c, &opts.trace));
            }
            (m, wan, 0)
        }
        Cluster::Sharded(mut s) => {
            // The runtime carries the end-to-end numbers; an inline replay
            // of the same stream carries the exact traffic counts (cache
            // off makes per-query traffic independent of history) and, in
            // a traced run, the layer table.
            let seconds = if traced {
                opts.seconds / 2.0
            } else {
                opts.seconds
            };
            let m = measure(
                &mut *s,
                &mut stream,
                &spec,
                seconds,
                false,
                ORACLE_QUERIES,
                &mut reference,
            );
            let mailbox = s.mailbox_wait_us();
            drop(s);
            let mut c = InlineCluster::new(
                topo.db().service.clone(),
                topo.make_agents(&config),
                &topo.owners,
            );
            let mut replay_stream = Stream::new(name, &topo.h, opts.seed);
            replay_stream.take(setup_queries);
            let before = Counters::of(&c, &topo);
            // Untraced, the replay is exactly the counted prefix.
            let r = measure(
                &mut c,
                &mut replay_stream,
                &spec,
                if traced { seconds } else { 0.0 },
                traced,
                ORACLE_QUERIES,
                &mut reference,
            );
            let after = Counters::of(&c, &topo);
            // The replay answers the same queries: they must agree.
            let disagree = m
                .answers
                .iter()
                .zip(&r.answers)
                .filter(|(a, b)| {
                    a.as_ref().map(|x| canonical(&x.answer_xml))
                        != b.as_ref().map(|x| canonical(&x.answer_xml))
                })
                .count() as u64;
            let wan = r.wan_prefix.expect("the inline driver counts traffic");
            if traced {
                let runtime = Runtime {
                    sharded: &m,
                    mailbox_us: mailbox,
                };
                let t = layer_table(name, &c, &before, &after, &r, Some(runtime), None, recovery);
                traced_out = Some(t.finish(&c, &opts.trace));
            }
            (m, wan, r.failed + disagree)
        }
    };
    let peak_rss = measured.rss_prefix_mib;

    // Oracle: the first measured queries, answered again by the simulator.
    let oracle_started = Instant::now();
    let checked = measured.answers.len();
    let mut oracle_mismatches = 0u64;
    {
        let mut s = Stream::new(name, &topo.h, opts.seed);
        let history = s.take(setup_queries);
        let prefix = s.take(checked);
        let ops: Vec<Op> = if spec.updates_per_query > 0 {
            history.into_iter().chain(prefix).collect()
        } else {
            // No updates: answers do not depend on what ran before.
            prefix
        };
        let expected = des_answers(&topo, &config, &ops, checked);
        for (got, want) in measured.answers.iter().zip(&expected) {
            let got = got.as_ref().map(|r| canonical(&r.answer_xml));
            if got.is_none() || got != *want {
                oracle_mismatches += 1;
            }
        }
        if name == Name::UpdateMix {
            // Durability invisibility after recovery: the same operations
            // on a cluster that never had a log and never crashed.
            let mut plain = InlineCluster::new(
                topo.db().service.clone(),
                topo.make_agents(&config),
                &topo.owners,
            );
            let mut got = Vec::with_capacity(checked);
            let first = ops.iter().filter(|o| matches!(o, Op::Query(_))).count() - checked;
            let mut q = 0;
            for op in &ops {
                if let Some(reply) = plain.apply(op) {
                    if q >= first {
                        got.push(reply.map(|r| canonical(&r.answer_xml)));
                    }
                    q += 1;
                }
            }
            oracle_mismatches += got.iter().zip(&expected).filter(|(g, w)| g != w).count() as u64;
        }
    }
    let oracle_s = oracle_started.elapsed().as_secs_f64();

    // End-to-end metrics, from untraced slices only.
    let sm = slice_estimates(measured.untraced());
    let (w, wq) = wan;
    let end_to_end = vec![
        metric("qps", sm.qps),
        metric("p50_ms", sm.p50_ms),
        metric("wan_msgs_per_query", w.msgs as f64 / wq as f64),
        metric("wan_bytes_per_query", w.bytes as f64 / wq as f64),
        metric("peak_rss_mb", peak_rss),
        metric("setup_s", median(&setup_s)),
    ];

    // The tail, demoted from the end-to-end list: reported with the layers.
    if let Some(t) = &mut traced_out {
        t.metrics.insert(0, metric("p95_ms", sm.p95_ms));
    }

    let attempted = measured.queries + measured.updates;
    let failed = measured.failed + replay_failed + oracle_mismatches;
    let correct = failed == 0 && traced_out.as_ref().is_none_or(|t| t.checks_ok);

    // Whole-run p99, for information only: it swings 25-45 % run to run.
    let mut all: Vec<f64> = measured
        .untraced()
        .flat_map(|s| s.latencies_s.iter().copied())
        .collect();
    all.sort_by(f64::total_cmp);
    let p99_ms = crate::stats::quantile_sorted(&all, 0.99) * 1e3;

    println!("workload {}: {}", name.as_str(), name.why());
    println!(
        "  closed loop, 1 client, 1 outstanding operation; seed {}; host_cores {}; load threads 1; git {}",
        opts.seed,
        host::cores(),
        host::git_sha()
    );
    println!(
        "  {} slices x {} queries ({} updates/query) in {:.2} s; attempted {} failed {}; oracle checked {} queries in {:.2} s ({} mismatches)",
        measured.slices.len(),
        spec.slice_queries,
        spec.updates_per_query,
        measured.wall_s,
        attempted,
        failed,
        checked,
        oracle_s,
        oracle_mismatches
    );
    println!(
        "  timing metrics are medians over slices of wall-clock time; set-ups {} s (median reported)",
        setup_s.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>().join(" ")
    );
    println!(
        "  for information only: whole-run p99 {:.3} ms; slice qps spread {:.1} %; \
         reference chunk {:.1} us (median over slices)",
        p99_ms,
        sm.qps_spread * 100.0,
        median(&measured.reference_ns) / 1e3
    );
    if name == Name::UpdateMix {
        println!(
            "  flush policy: append without fsync, snapshot every 256 records; recovery replayed {} records in {:.1} ms",
            recovery.records, recovery.wall_ms
        );
    }
    for m in &end_to_end {
        println!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<28} {:>14.4} ms (per-layer list: demoted, its ten-seed spread reaches 16-59 %)",
        "p95_ms", sm.p95_ms
    );
    for l in traced_out.iter().flat_map(|t| &t.lines) {
        println!("{l}");
    }
    drop(tmp);
    Outcome {
        correct,
        attempted,
        failed,
        metrics: traced_out.map_or(end_to_end, |t| t.metrics),
    }
}

// ---------------------------------------------------------------------
// The traced layer table
// ---------------------------------------------------------------------

struct Runtime<'a> {
    sharded: &'a Measured,
    /// `(p50, p99)` of the shard's mailbox wait in microseconds.
    mailbox_us: (f64, f64),
}

struct LayerTable {
    lines: Vec<String>,
    metrics: Vec<Metric>,
    /// Conservation and the workload's design intent both hold.
    checks_ok: bool,
}

impl LayerTable {
    /// Writes the span dump the run was asked for, if any.
    fn finish(mut self, c: &InlineCluster, trace: &Trace) -> LayerTable {
        if let Trace::On(Some(path)) = trace {
            std::fs::write(path, c.tracer.to_jsonl()).expect("write the span dump");
            self.lines.push(format!(
                "spans of the first traced operations written to {}",
                path.display()
            ));
        }
        self
    }
}

/// Which end-to-end metric, on which workload, each layer should move.
const INTERACTIONS: [(&str, &str); 10] = [
    ("sensorxpath / core::routing / irisdns", "p50_ms, qps on engine_local (few % each); flat elsewhere"),
    ("core::qeg (+ sensorxslt in exec)", "qps, p50_ms on engine_local (most of the query) and gather_wan (about half); never wan_*"),
    ("sensorxml", "qps, p95_ms on gather_wan (parse about a fifth of the query), cache_zipf on misses; engine_local only the answer serialize"),
    ("simnet::wire", "wan_bytes_per_query on gather_wan / cache_zipf; time share small, qps only if fragment encoding changes parse cost"),
    ("core::agent", "wan_msgs_per_query, p95_ms on gather_wan (T4 tail); agent.update_us -> qps on update_mix only"),
    ("core::fragment", "qps on gather_wan / cache_zipf (merge) and update_mix (apply): the read-vs-write pair"),
    ("core::eviction", "wan_msgs_per_query, qps, peak_rss_mb on cache_zipf; no work on engine_local, gather_wan"),
    ("core::storage", "qps, p95_ms (snapshot stalls) and setup_s (replay) on update_mix; absent elsewhere"),
    ("simnet::shard", "qps, p50_ms on gather_wan only"),
    ("irisobs / process", "trace overhead and CPU per query: instruments, not targets"),
];

#[allow(clippy::too_many_arguments)]
fn layer_table(
    name: Name,
    c: &InlineCluster,
    before: &Counters,
    after: &Counters,
    m: &Measured,
    runtime: Option<Runtime<'_>>,
    store_root: Option<&std::path::Path>,
    recovery: Recovery,
) -> LayerTable {
    let t = &c.tracer;
    let tq = t.count(Kind::DriverQuery).max(1) as f64; // traced queries
    let tu = t.count(Kind::DriverUpdate).max(1) as f64; // traced updates
    let per_q = |k: Kind| t.self_ns(k) as f64 / tq / 1e3;
    let queries = (after.queries - before.queries).max(1) as f64;
    let updates = (after.updates - before.updates) as f64;
    let cons = t.conservation();
    let root_ns = cons.root_ns.max(1) as f64;

    // A cache sweep runs inside the final `complete_read` of some queries;
    // its cost is the difference between calls with and without one.
    let sweeps = c.sweep_calls.with_n as f64;
    let enforce_total_ns = c.sweep_calls.extra_ns() * sweeps;
    let complete_read_self =
        (t.self_ns(Kind::AgentCompleteRead) as f64 - enforce_total_ns).max(0.0);

    // Layer shares of all root time.
    let mut shares: Vec<(&str, f64)> = Vec::new();
    let mut add = |layer: &'static str, ns: f64| match shares.iter_mut().find(|(l, _)| *l == layer)
    {
        Some((_, v)) => *v += ns,
        None => shares.push((layer, ns)),
    };
    for k in Kind::ALL {
        if k.is_root() {
            continue;
        }
        let ns = if k == Kind::AgentCompleteRead {
            complete_read_self
        } else {
            t.self_ns(k) as f64
        };
        add(k.names().0, ns);
    }
    add("core::eviction", enforce_total_ns);
    add(
        "driver",
        (cons.root_ns as f64 - cons.attributed_ns as f64).max(0.0),
    );

    let share_of = |layers: &[&str]| -> f64 {
        100.0
            * shares
                .iter()
                .filter(|(l, _)| layers.contains(l))
                .map(|(_, v)| v)
                .sum::<f64>()
            / root_ns
    };
    let update_ns: f64 = [
        Kind::AgentUpdate,
        Kind::FragmentApplyUpdate,
        Kind::StorageAppend,
        Kind::StorageSnapshot,
    ]
    .iter()
    .map(|k| t.self_ns(*k) as f64)
    .sum();
    // Work that exists only because the data is at another site. The
    // export of the fragment a sub-answer ships and the handling of the
    // subquery that asks for it are part of it: neither runs at all on
    // `engine_local`.
    let comm_ns: f64 = [
        Kind::AgentSubQuery,
        Kind::FragmentExport,
        Kind::XmlSerialize,
        Kind::XmlParse,
        Kind::WireEncode,
        Kind::WireDecode,
        Kind::FragmentMerge,
        Kind::AgentSubAnswer,
    ]
    .iter()
    .map(|k| t.self_ns(*k) as f64)
    .sum();
    let engine_share = share_of(&[
        "sensorxpath",
        "core::routing",
        "irisdns",
        "core::qeg",
        "sensorxml",
    ]);
    let comm_share = 100.0 * comm_ns / root_ns;
    let update_share = 100.0 * update_ns / root_ns;

    // Tracing overhead: traced against untraced slices of the same run.
    let per_query_untraced: Vec<f64> = m
        .slices
        .iter()
        .filter(|s| !s.traced)
        .map(|s| s.slice.wall_s * 1e6 / s.slice.latencies_s.len() as f64)
        .collect();
    let per_query_traced: Vec<f64> = m
        .traced_root_ns
        .iter()
        .zip(m.slices.iter().filter(|s| s.traced))
        .map(|(ns, s)| *ns as f64 / 1e3 / s.slice.latencies_s.len() as f64)
        .collect();
    let untraced_us = median(&per_query_untraced);
    let traced_us = if per_query_traced.is_empty() {
        untraced_us
    } else {
        median(&per_query_traced)
    };
    let overhead_pct = 100.0 * (traced_us - untraced_us) / untraced_us;

    let cache_d = |f: fn(&CacheStats) -> u64| (f(&after.cache) - f(&before.cache)) as f64;
    let lookups = cache_d(|s| s.hits) + cache_d(|s| s.partial_matches) + cache_d(|s| s.misses);
    let hit_ratio = ratio(cache_d(|s| s.hits), lookups);
    let oa_d = |f: fn(&OaStats) -> u64| (f(&after.oa) - f(&before.oa)) as f64;
    let wan_d = Wan {
        msgs: after.wan.msgs - before.wan.msgs,
        bytes: after.wan.bytes - before.wan.bytes,
        frames: after.wan.frames - before.wan.frames,
        sub_answer_bytes: after.wan.sub_answer_bytes - before.wan.sub_answer_bytes,
    };
    let parse_kib = (after.parse_bytes - before.parse_bytes) as f64 / 1024.0;
    let serialize_kib = (after.serialize_bytes - before.serialize_bytes) as f64 / 1024.0;
    let wal_appends = (after.wal_appends - before.wal_appends) as f64;
    let wal_snapshots = (after.wal_snapshots - before.wal_snapshots) as f64;
    // Bytes on disk per byte of live database, where there is a store.
    let dir_per_live = store_root.map_or(0.0, |r| {
        let (dir, live) = c.agents().iter().fold((0u64, 0usize), |(d, l), a| {
            let site_dir = r.join(format!("site{}", a.addr.0));
            (d + dir_bytes(&site_dir), l + a.db().snapshot_xml().len())
        });
        ratio(dir as f64, live as f64)
    });
    let sched_cpu = (m.sched.1.cpu_ns - m.sched.0.cpu_ns) as f64;
    let sched_wait = (m.sched.1.runqueue_wait_ns - m.sched.0.runqueue_wait_ns) as f64;
    let m_queries = m.queries.max(1) as f64;
    let inline = slice_estimates(m.untraced());
    let spread_pct = 100.0 * inline.qps_spread;

    let (runtime_us, mailbox, threads, cpu_us, wait_pct) = match &runtime {
        Some(r) => {
            let qps = slice_estimates(r.sharded.untraced()).qps;
            let cpu = (r.sharded.sched.1.cpu_ns - r.sharded.sched.0.cpu_ns) as f64;
            let wait =
                (r.sharded.sched.1.runqueue_wait_ns - r.sharded.sched.0.runqueue_wait_ns) as f64;
            (
                // the same estimator on both sides of the difference
                1e6 / qps - 1e6 / inline.qps,
                r.mailbox_us,
                r.sharded.sched.1.threads as f64,
                cpu / 1e3 / r.sharded.queries.max(1) as f64,
                100.0 * wait / (r.sharded.wall_s * 1e9),
            )
        }
        None => (
            0.0,
            (0.0, 0.0),
            0.0,
            sched_cpu / 1e3 / m_queries,
            100.0 * sched_wait / (m.wall_s * 1e9),
        ),
    };

    let metrics = vec![
        metric(
            "driver.query_us",
            t.total_ns(Kind::DriverQuery) as f64 / tq / 1e3,
        ),
        metric(
            "driver.update_us",
            t.total_ns(Kind::DriverUpdate) as f64 / tu / 1e3,
        ),
        metric("driver.unattributed_pct", cons.unattributed_pct()),
        metric(
            "driver.sites_per_query",
            ratio((after.sites_touched - before.sites_touched) as f64, queries),
        ),
        metric(
            "driver.hops_per_query",
            ratio((after.hops - before.hops) as f64, queries),
        ),
        metric("host.slice_spread_pct", spread_pct),
        metric("host.runqueue_wait_pct", wait_pct),
        metric("host.reference_chunk_us", median(&m.reference_ns) / 1e3),
        metric("sensorxpath.parse_us", per_q(Kind::XpathParse)),
        metric("qeg.plan_us", per_q(Kind::QegPlan)),
        metric("routing.route_us", per_q(Kind::Route)),
        metric("irisdns.resolve_us", per_q(Kind::Resolve)),
        metric(
            "irisdns.cache_hit_ratio",
            ratio(
                (after.resolver.1 - before.resolver.1) as f64,
                (after.resolver.0 - before.resolver.0) as f64,
            ),
        ),
        metric("qeg.create_us", per_q(Kind::QegCreate)),
        metric("qeg.exec_us", per_q(Kind::QegExec)),
        metric("qeg.extract_us", per_q(Kind::QegExtract)),
        metric(
            "qeg.skeleton_hit_ratio",
            ratio(
                (after.skeleton.0 - before.skeleton.0) as f64,
                (after.skeleton.0 - before.skeleton.0 + after.skeleton.1 - before.skeleton.1)
                    as f64,
            ),
        ),
        metric("read.execute_us", per_q(Kind::ReadExecute)),
        metric("read.finalize_user_us", per_q(Kind::ReadFinalizeUser)),
        metric("read.finalize_site_us", per_q(Kind::ReadFinalizeSite)),
        metric("sensorxml.serialize_us", per_q(Kind::XmlSerialize)),
        metric("sensorxml.parse_us", per_q(Kind::XmlParse)),
        metric(
            "sensorxml.parse_us_per_kb",
            ratio(t.total_ns(Kind::XmlParse) as f64 / 1e3, parse_kib),
        ),
        metric(
            "sensorxml.serialize_us_per_kb",
            ratio(t.total_ns(Kind::XmlSerialize) as f64 / 1e3, serialize_kib),
        ),
        metric("wire.encode_us", per_q(Kind::WireEncode)),
        metric("wire.decode_us", per_q(Kind::WireDecode)),
        metric("wire.frames_per_query", wan_d.frames as f64 / queries),
        metric("wire.bytes_per_query", wan_d.bytes as f64 / queries),
        metric(
            "wire.sub_answer_bytes_per_query",
            wan_d.sub_answer_bytes as f64 / queries,
        ),
        metric("agent.user_query_us", per_q(Kind::AgentUserQuery)),
        metric("agent.sub_query_us", per_q(Kind::AgentSubQuery)),
        metric("agent.sub_answer_us", per_q(Kind::AgentSubAnswer)),
        metric("agent.complete_read_us", complete_read_self / tq / 1e3),
        metric(
            "agent.update_us",
            t.self_ns(Kind::AgentUpdate) as f64 / tu / 1e3,
        ),
        metric(
            "agent.subqueries_per_query",
            oa_d(|s| s.subqueries_sent) / queries,
        ),
        metric(
            "agent.batches_per_query",
            oa_d(|s| s.subquery_batches_sent) / queries,
        ),
        metric(
            "agent.forwards_per_query",
            oa_d(|s| s.queries_forwarded) / queries,
        ),
        metric(
            "agent.cache_merges_per_query",
            oa_d(|s| s.cache_merges) / queries,
        ),
        metric("agent.partial_answers", oa_d(|s| s.partial_answers)),
        metric("agent.retries", oa_d(|s| s.retries_sent)),
        metric("fragment.merge_us", per_q(Kind::FragmentMerge)),
        metric("fragment.export_us", per_q(Kind::FragmentExport)),
        metric(
            "fragment.apply_update_us",
            t.self_ns(Kind::FragmentApplyUpdate) as f64 / tu / 1e3,
        ),
        metric("eviction.hit_ratio", hit_ratio),
        metric(
            "eviction.partial_ratio",
            ratio(cache_d(|s| s.partial_matches), lookups),
        ),
        metric(
            "eviction.evictions_per_kq",
            1e3 * cache_d(|s| s.evictions) / queries,
        ),
        metric(
            "eviction.admission_rejects_per_kq",
            1e3 * cache_d(|s| s.admission_rejects) / queries,
        ),
        metric("eviction.enforce_us", c.sweep_calls.extra_ns() / 1e3),
        metric("eviction.cached_nodes", after.cache.cached_nodes as f64),
        metric(
            "storage.append_us",
            t.self_ns(Kind::StorageAppend) as f64 / tu / 1e3,
        ),
        metric(
            "storage.snapshot_us",
            ratio(
                t.total_ns(Kind::StorageSnapshot) as f64 / 1e3,
                t.count(Kind::StorageSnapshot) as f64,
            ),
        ),
        metric(
            "storage.wal_bytes_per_update",
            ratio((after.wal_bytes - before.wal_bytes) as f64, updates),
        ),
        metric(
            "storage.wal_appends_per_update",
            ratio(wal_appends, updates),
        ),
        metric(
            "storage.snapshots_per_kupdate",
            ratio(1e3 * wal_snapshots, updates),
        ),
        metric(
            "storage.append_errors",
            (after.wal_errors - before.wal_errors) as f64,
        ),
        metric("storage.dir_bytes_per_live_byte", dir_per_live),
        metric("storage.recovery_ms", recovery.wall_ms),
        metric(
            "storage.replay_records_per_s",
            ratio(recovery.records as f64, recovery.replay_ms / 1e3),
        ),
        metric("shard.runtime_us_per_query", runtime_us),
        metric("shard.mailbox_wait_p50_us", mailbox.0),
        metric("shard.mailbox_wait_p99_us", mailbox.1),
        metric("shard.threads", threads),
        metric("irisobs.spans_per_query", t.spans_recorded() as f64 / tq),
        metric("irisobs.trace_overhead_pct", overhead_pct),
        metric("process.cpu_us_per_query", cpu_us),
        metric("share.engine_pct", engine_share),
        metric("share.communication_pct", comm_share),
        metric("share.update_pct", update_share),
    ];

    let mut lines = vec![format!(
        "  layer table ({} traced queries, {} traced updates; self time = span minus its children):",
        t.count(Kind::DriverQuery),
        t.count(Kind::DriverUpdate)
    )];
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (layer, ns) in &shares {
        lines.push(format!(
            "    {:<16} {:>9.1} us/query {:>6.1} %",
            layer,
            ns / tq / 1e3,
            100.0 * ns / root_ns
        ));
    }
    lines.push(format!(
        "    conservation: layer self-times sum to {:.1} % of driver time (unattributed {:.2} %, replay overshoot {:.2} %) -> {}",
        100.0 * cons.attributed_ns as f64 / root_ns,
        cons.unattributed_pct(),
        100.0 * cons.overshoot_ns as f64 / root_ns,
        if cons.holds() { "holds" } else { "VIOLATED" }
    ));
    // What the workload was built to stress; a run outside the range is
    // not measuring what its name says, and is reported as incorrect.
    let (intent, intent_ok) = match name {
        Name::EngineLocal => (
            format!("engine layers {engine_share:.1} % (intent: at least 80)"),
            engine_share >= 80.0,
        ),
        Name::GatherWan => (
            format!(
                "subquery+export+serialize+wire+parse+merge+sub-answer {comm_share:.1} % (intent: at least 35)"
            ),
            comm_share >= 35.0,
        ),
        Name::CacheZipf => (
            format!("caching-site hit ratio {hit_ratio:.3} (intent: strictly between 0.2 and 0.95)"),
            hit_ratio > 0.2 && hit_ratio < 0.95,
        ),
        Name::UpdateMix => (
            format!("update layers {update_share:.1} % (intent: 40 to 60)"),
            (40.0..=60.0).contains(&update_share),
        ),
    };
    lines.push(format!(
        "    design intent: {intent} -> {}",
        if intent_ok { "holds" } else { "VIOLATED" }
    ));
    lines.push(format!(
        "    tracing overhead {overhead_pct:.1} % ({traced_us:.1} us traced vs {untraced_us:.1} us untraced per query, alternating slices)"
    ));
    lines.push("  which end-to-end metric each layer should move:".to_string());
    for (layer, moves) in INTERACTIONS {
        lines.push(format!("    {layer:<38} -> {moves}"));
    }
    for mtr in &metrics {
        lines.push(format!(
            "  {:<34} {:>14.4} {}",
            mtr.name, mtr.value, mtr.unit
        ));
    }
    LayerTable {
        lines,
        metrics,
        checks_ok: cons.holds() && intent_ok,
    }
}
