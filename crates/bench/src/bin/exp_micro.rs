//! Fig. 11 — Micro-benchmarks: where query processing time goes (§5.6).
//!
//! A type 1 query (one block) is artificially routed to the site owning
//! (i) the county, (ii) the city, (iii) the neighborhood — the
//! neighborhood is the owner of the data, so (iii) is what self-starting
//! routing does. The paper's three settings, plus the repo's default
//! engine:
//!
//! * small database, naive XSLT creation;
//! * small database, fast (precompiled-skeleton) XSLT creation;
//! * small database, native executor (plan-driven walk, no program);
//! * large (8×) database, fast creation.
//!
//! Reported: per-query breakdown across creating the QEG program,
//! executing it, communication CPU (wire (de)serialization), and rest —
//! on the **sharded runtime** at one shard per site (real threads, real
//! engine, wall-clock time). One run of a cell swings by tens of percent
//! on a shared host, so every cell is [`REPS`] runs, each on a fresh
//! cluster with a fresh engine: each column is the median over the runs,
//! and the spread (min–max) of their totals is printed beside it.
//!
//! Expected shape (paper): routing to the owner cuts total time by >50%;
//! naive creation dominates the total (fast creation halves it); the 8×
//! database adds <20% per node.

use std::sync::Arc;
use std::time::Duration;

use irisdns::SiteAddr;
use irisnet_bench::{DbParams, ParkingDb};
use irisnet_core::{CacheMode, NativeWalk, OaConfig, OrganizingAgent, PassEngine};
use irisnet_xslt_oracle::{Creation, XsltQeg};
use simnet::{ShardConfig, ShardedCluster};

struct Built {
    cluster: ShardedCluster,
    county_site: SiteAddr,
    city_site: SiteAddr,
    nbhd_site: SiteAddr,
}

/// Hierarchical (Architecture 4) placement, one shard event loop per site.
fn build(db: &ParkingDb, engine: Arc<dyn PassEngine>) -> Built {
    // Caching is disabled so that every query pays its true routing cost
    // (the paper's micro-benchmark measures the gathering path, not the
    // cache).
    let config = OaConfig { engine, cache: CacheMode::Off, ..OaConfig::default() };
    let sites = 1 + db.params.cities * (1 + db.params.neighborhoods_per_city);
    let mut cluster = ShardedCluster::with_config(
        db.service.clone(),
        ShardConfig { shards: sites, workers_per_shard: 0, force_wire: false },
    );

    let top = OrganizingAgent::new(SiteAddr(1), db.service.clone(), config.clone());
    top.db_mut().bootstrap_owned(&db.master, &db.root_path(), false).unwrap();
    top.db_mut()
        .bootstrap_owned(&db.master, &db.root_path().child("state", "PA"), false)
        .unwrap();
    top.db_mut().bootstrap_owned(&db.master, &db.county_path(), false).unwrap();
    cluster.register_owner(&db.root_path(), SiteAddr(1));
    cluster.add_site(top);

    let mut next = 2u32;
    let mut city_site = SiteAddr(0);
    for ci in 0..db.params.cities {
        let addr = SiteAddr(next);
        next += 1;
        let a = OrganizingAgent::new(addr, db.service.clone(), config.clone());
        a.db_mut().bootstrap_owned(&db.master, &db.city_path(ci), false).unwrap();
        cluster.register_owner(&db.city_path(ci), addr);
        cluster.add_site(a);
        if ci == 0 {
            city_site = addr;
        }
    }
    let mut nbhd_site = SiteAddr(0);
    for ci in 0..db.params.cities {
        for ni in 0..db.params.neighborhoods_per_city {
            let addr = SiteAddr(next);
            next += 1;
            let a = OrganizingAgent::new(addr, db.service.clone(), config.clone());
            a.db_mut()
                .bootstrap_owned(&db.master, &db.neighborhood_path(ci, ni), true)
                .unwrap();
            cluster.register_owner(&db.neighborhood_path(ci, ni), addr);
            cluster.add_site(a);
            if ci == 0 && ni == 0 {
                nbhd_site = addr;
            }
        }
    }
    cluster.start();
    Built { cluster, county_site: SiteAddr(1), city_site, nbhd_site }
}

/// Fresh-cluster runs per cell.
const REPS: usize = 5;

struct Breakdown {
    total_ms: f64,
    create_ms: f64,
    exec_ms: f64,
    comm_ms: f64,
    rest_ms: f64,
}

fn measure(db: &ParkingDb, engine: Arc<dyn PassEngine>, level: usize, n: u64) -> Breakdown {
    let built = build(db, engine);
    let cluster = built.cluster;
    let target = [built.county_site, built.city_site, built.nbhd_site][level];
    let q = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
             /city[@id='Pittsburgh']/neighborhood[@id='n1']/block[@id='7']\
             /parkingSpace[available='yes']";
    // Short warmup (fast-path skeletons, allocator); the per-phase timers
    // are later rescaled by the total query count so warmup contamination
    // averages out.
    for _ in 0..3 {
        cluster.pose_query_at(q, target, Duration::from_secs(10)).expect("warmup reply");
    }
    let mut total = Duration::ZERO;
    for _ in 0..n {
        let r = cluster
            .pose_query_at(q, target, Duration::from_secs(10))
            .expect("reply");
        assert!(r.ok);
        total += r.latency;
    }
    let agents = cluster.shutdown();
    // Phase timers include the warmup queries; subtract proportionally by
    // counting all handled user queries.
    let queries: u64 = agents.iter().map(|a| a.stats.user_queries).sum();
    let scale = n as f64 / queries.max(1) as f64;
    let create: f64 = agents.iter().map(|a| a.stats.time_create_xslt).sum::<f64>() * scale;
    let exec: f64 = agents.iter().map(|a| a.stats.time_exec_xslt).sum::<f64>() * scale;
    let extract: f64 = agents.iter().map(|a| a.stats.time_extract).sum::<f64>() * scale;
    let comm: f64 = agents.iter().map(|a| a.stats.time_comm).sum::<f64>() * scale;
    let total_ms = total.as_secs_f64() * 1000.0 / n as f64;
    let create_ms = create * 1000.0 / n as f64;
    let exec_ms = (exec + extract) * 1000.0 / n as f64;
    let comm_ms = comm * 1000.0 / n as f64;
    Breakdown {
        total_ms,
        create_ms,
        exec_ms,
        comm_ms,
        rest_ms: (total_ms - create_ms - exec_ms - comm_ms).max(0.0),
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

fn main() {
    println!("== Fig. 11: micro-benchmarks — query time breakdown (ms/query) ==");
    println!("(type 1 query injected at (i) county, (ii) city, (iii) neighborhood site)\n");
    let n = 200;
    // `None` is the native executor.
    let settings: Vec<(&str, DbParams, Option<Creation>)> = vec![
        ("Small DB, naive XSLT creation", DbParams::small(), Some(Creation::Naive)),
        ("Small DB, fast XSLT creation", DbParams::small(), Some(Creation::Fast)),
        ("Small DB, native executor", DbParams::small(), None),
        ("Large DB (8x), fast XSLT creation", DbParams::large(), Some(Creation::Fast)),
    ];
    println!(
        "{:<36} {:>6} {:>9} {:>9} {:>9} {:>7} {:>8} {:>13}",
        "Setting", "level", "create", "exec", "comm", "rest", "total", "total spread"
    );
    println!("{}", "-".repeat(104));
    for (label, params, creation) in settings {
        let db = ParkingDb::generate(params, 1);
        for (li, lname) in ["(i)", "(ii)", "(iii)"].iter().enumerate() {
            // A fresh engine per run, so every run starts with an empty
            // skeleton cache; the run's sites share it.
            let runs: Vec<Breakdown> = (0..REPS)
                .map(|_| {
                    let engine: Arc<dyn PassEngine> = match creation {
                        Some(c) => Arc::new(XsltQeg::new(c)),
                        None => Arc::new(NativeWalk),
                    };
                    measure(&db, engine, li, n)
                })
                .collect();
            let col = |f: fn(&Breakdown) -> f64| median(runs.iter().map(f).collect());
            let totals = runs.iter().map(|b| b.total_ms);
            let (lo, hi) = totals.fold((f64::MAX, 0.0f64), |(lo, hi), t| (lo.min(t), hi.max(t)));
            println!(
                "{:<36} {:>6} {:>8.2}m {:>8.2}m {:>8.2}m {:>6.2}m {:>7.2}m {:>6.2}–{:.2}m",
                if li == 0 { label } else { "" },
                lname,
                col(|b| b.create_ms),
                col(|b| b.exec_ms),
                col(|b| b.comm_ms),
                col(|b| b.rest_ms),
                col(|b| b.total_ms),
                lo,
                hi
            );
        }
    }
    println!(
        "\n(sharded runtime, one shard per site, wall-clock; each column the median of {REPS} \
         fresh-cluster runs"
    );
    println!(" of {n} queries, so columns need not sum; spread = min–max of the runs' totals;");
    println!(" exec includes answer extraction; comm is wire XML (de)serialization CPU)");
}
