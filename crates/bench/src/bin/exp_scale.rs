//! PR 7 — sharded-runtime scale experiment: a 10,000-site hierarchy on
//! one host, threads ∝ cores, answers byte-identical to a DES replay.
//!
//! Two parts, both over [`ScaleHierarchy`] (one site per neighborhood,
//! one per city, one for the region top) under a Zipf-skewed QW-Mix:
//!
//! 1. **Headline arm** (default 10,000 sites, auto shards): poses a fixed
//!    query sequence sequentially and byte-compares the canonical answers
//!    to a DES replay of the same sequence on identically bootstrapped
//!    agents; then drives closed-loop client threads while sampling
//!    `/proc/self/status` for the process's peak OS thread count — which
//!    must stay within the runtime's `thread_budget()` plus the clients
//!    and harness threads, i.e. *not* grow with the 10,000 sites.
//! 2. **Sweep**: qps and p50/p99 latency vs shard count × site count.
//!
//! Emits a JSON report (shaped like `results/history/BENCH_PR7.json`) to
//! the path after `--out` (stdout otherwise).
//! Env knobs (for `scale_smoke.sh`): `SCALE_HEADLINE_SITES`,
//! `SCALE_SITES`, `SCALE_SHARDS`, `SCALE_CLIENTS`, `SCALE_QUERIES`,
//! `SCALE_ZIPF`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use irisnet_bench::ScaleHierarchy;
use irisnet_core::OaConfig;
use irisobs::{latency_percentiles, Percentiles};
use simnet::{Cluster, CostModel, DesCluster, ShardConfig, ShardedCluster, Target};

const EQUIVALENCE_QUERIES: usize = 24;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn env_list(name: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(name) {
        Ok(v) => v
            .split(',')
            .map(|s| s.trim().parse().expect("numeric list entry"))
            .collect(),
        Err(_) => default.to_vec(),
    }
}

/// Current OS thread count of this process (`Threads:` in
/// `/proc/self/status`); 0 where procfs is unavailable.
fn os_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

fn canon(xml: &str) -> String {
    let doc = sensorxml::parse(xml).expect("answer parses");
    sensorxml::canonical_string(&doc, doc.root().unwrap())
}

/// Adds every site of `h` to `cluster`, registers its owners and starts it.
fn boot(cluster: &mut dyn Cluster, h: &ScaleHierarchy) {
    for a in h.make_agents(&OaConfig::default()) {
        cluster.add_site(a);
    }
    for (path, addr) in &h.owners {
        cluster.register_owner(path, *addr);
    }
    cluster.start();
}

fn start_cluster(h: &ScaleHierarchy, shards: usize) -> ShardedCluster {
    let mut cluster = ShardedCluster::with_config(
        h.db.service.clone(),
        ShardConfig { shards, workers_per_shard: 1, force_wire: false },
    );
    boot(&mut cluster, h);
    cluster
}

/// Poses `sequence` one query at a time through self-starting routing and
/// returns the canonical answers; every query must succeed.
fn answers(cluster: &mut dyn Cluster, sequence: &[String]) -> Vec<String> {
    let replies = cluster.pose_each(Target::Routed, sequence);
    replies
        .iter()
        .zip(sequence)
        .map(|(r, q)| {
            assert!(r.ok, "equivalence query failed: {q}: {}", r.answer_xml);
            canon(&r.answer_xml)
        })
        .collect()
}

/// Closed-loop client phase: `clients` threads, `queries` poses each.
/// Returns (qps over the phase, per-query latency percentiles in ms).
fn drive_clients(
    cluster: &ShardedCluster,
    h: &ScaleHierarchy,
    clients: usize,
    queries: usize,
    zipf: f64,
) -> (f64, Percentiles) {
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let mut client = cluster.client();
            let mut w = h.workload(1000 + c as u64, zipf);
            std::thread::spawn(move || {
                let mut lat_ms = Vec::with_capacity(queries);
                for _ in 0..queries {
                    let q = w.next_query();
                    let r = client
                        .pose_query(&q, Duration::from_secs(60))
                        .expect("scale query timed out");
                    assert!(r.ok, "scale query failed: {q}: {}", r.answer_xml);
                    lat_ms.push(r.latency.as_secs_f64() * 1e3);
                }
                lat_ms
            })
        })
        .collect();
    let mut lat_ms: Vec<f64> = handles
        .into_iter()
        .flat_map(|jh| jh.join().expect("client thread"))
        .collect();
    let qps = lat_ms.len() as f64 / started.elapsed().as_secs_f64();
    lat_ms.sort_by(f64::total_cmp);
    (qps, latency_percentiles(&lat_ms))
}

/// The headline arm. Returns a JSON object string.
fn headline(sites: usize, clients: usize, queries: usize, zipf: f64) -> String {
    eprintln!("== headline: building {sites}-site hierarchy ==");
    let h = ScaleHierarchy::with_sites(sites, 1);
    let mut cluster = start_cluster(&h, 0);
    let shards = cluster.shard_count();
    let budget = cluster.thread_budget();

    // Fixed query sequence for the DES byte-comparison, posed while the
    // caches are cold so the replay sees the same states.
    let mut wq = h.workload(77, zipf);
    let sequence: Vec<String> = (0..EQUIVALENCE_QUERIES).map(|_| wq.next_query()).collect();
    let sharded = answers(&mut cluster, &sequence);

    // Throughput phase under a thread-count watch.
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut peak = os_threads();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(20));
                peak = peak.max(os_threads());
            }
            peak
        })
    };
    let (qps, lat) = drive_clients(&cluster, &h, clients, queries, zipf);
    stop.store(true, Ordering::Relaxed);
    let threads_observed = sampler.join().expect("sampler");
    cluster.shutdown();

    // DES replay: fresh agents from the same hierarchy, same sequence.
    eprintln!("== headline: DES replay of {EQUIVALENCE_QUERIES} queries ==");
    let mut sim = DesCluster::new(CostModel::default());
    boot(&mut sim, &h);
    let des = answers(&mut sim, &sequence);
    let des_equivalent = sharded == des;
    assert!(des_equivalent, "sharded answers diverged from the DES replay");

    eprintln!(
        "headline: {sites} sites, {shards} shards, budget {budget} threads, \
         observed {threads_observed}, {qps:.1} qps"
    );
    format!(
        concat!(
            "{{\"sites\": {}, \"shards\": {}, \"workers_per_shard\": 1, ",
            "\"thread_budget\": {}, \"threads_observed\": {}, \"clients\": {}, ",
            "\"des_equivalent\": {}, \"equivalence_queries\": {}, ",
            "\"qps\": {:.1}, \"p50_ms\": {:.2}, \"p99_ms\": {:.2}}}"
        ),
        sites,
        shards,
        budget,
        threads_observed,
        clients,
        des_equivalent,
        EQUIVALENCE_QUERIES,
        qps,
        lat.p50,
        lat.p99,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str());

    let headline_sites = env_usize("SCALE_HEADLINE_SITES", 10_000);
    let sweep_sites = env_list("SCALE_SITES", &[111, 1021]);
    let sweep_shards = env_list("SCALE_SHARDS", &[1, 2, 4]);
    let clients = env_usize("SCALE_CLIENTS", 4);
    let queries = env_usize("SCALE_QUERIES", 40);
    let zipf = env_f64("SCALE_ZIPF", 1.1);
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let head = headline(headline_sites, clients, queries, zipf);

    println!(
        "\n{:>7} {:>7} {:>8} {:>9} {:>9}",
        "sites", "shards", "qps", "p50_ms", "p99_ms"
    );
    println!("{}", "-".repeat(46));
    let mut rows = Vec::new();
    for &sites in &sweep_sites {
        let h = ScaleHierarchy::with_sites(sites, 1);
        for &shards in &sweep_shards {
            let cluster = start_cluster(&h, shards);
            let budget = cluster.thread_budget();
            let (qps, lat) = drive_clients(&cluster, &h, clients, queries, zipf);
            cluster.shutdown();
            println!(
                "{:>7} {:>7} {:>8.1} {:>9.2} {:>9.2}",
                sites, shards, qps, lat.p50, lat.p99
            );
            rows.push(format!(
                concat!(
                    "    {{\"sites\": {}, \"shards\": {}, \"thread_budget\": {}, ",
                    "\"qps\": {:.1}, \"p50_ms\": {:.2}, \"p99_ms\": {:.2}}}"
                ),
                sites, shards, budget, qps, lat.p50, lat.p99,
            ));
        }
    }

    let json = format!(
        concat!(
            "{{\n  \"generated_by\": \"exp_scale\",\n",
            "  \"workload\": \"QW-Mix, {} closed-loop clients x {} queries, ",
            "zipf s={} over (city,neighborhood) ranks\",\n",
            "  \"host_cores\": {},\n",
            "  \"headline\": {},\n",
            "  \"results\": [\n{}\n  ]\n}}\n"
        ),
        clients,
        queries,
        zipf,
        host_cores,
        head,
        rows.join(",\n")
    );
    if let Some(path) = out {
        std::fs::write(path, &json).expect("write scale json");
        println!("\nwrote {path}");
    } else {
        println!("\n{json}");
    }
}
