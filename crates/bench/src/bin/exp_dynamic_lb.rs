//! Fig. 9 — Dynamic load balancing (§5.4).
//!
//! Clients pose type 1 queries, 90% of them against one fixed neighborhood
//! X. Starting at t=206s, the overloaded site delegates X's blocks to the
//! other sites one at a time (evenly until t=373s), while the system keeps
//! answering queries. Paper: average throughput roughly triples, with no
//! downtime.

use irisnet_bench::runner::{run_throughput, throughput_series};
use irisnet_bench::{build_cluster, Arch, DbParams, ParkingDb, QueryType, Workload};
use irisnet_core::{Message, OaConfig};
use simnet::{ClientLoad, CostModel};

const DURATION: f64 = 600.0;
const MIGRATE_START: f64 = 206.0;
const MIGRATE_END: f64 = 373.0;

fn costs() -> CostModel {
    irisnet_bench::runner::paper_costs()
}

fn main() {
    println!("== Fig. 9: dynamic load balancing (throughput over time) ==\n");
    let db = ParkingDb::generate(DbParams::small(), 1);
    let mut built = build_cluster(Arch::Hierarchical, &db, costs(), OaConfig::default(), 9);
    // Clients re-resolve names every 30 s, so they pick up the new owners
    // (until then the old owner forwards, per §4).
    built.sim.set_client_dns_ttl(30.0);

    // The hot neighborhood (0,0) lives on one site; find it.
    let hot_site = built.block_owner[&db.block_path(0, 0, 0)];

    // Schedule the delegations: one block at a time, at even intervals,
    // round-robin over the *other* sites.
    let others: Vec<_> = built
        .sites
        .iter()
        .copied()
        .filter(|&s| s != hot_site)
        .collect();
    let blocks = db.params.blocks_per_neighborhood;
    let interval = (MIGRATE_END - MIGRATE_START) / blocks as f64;
    for bi in 0..blocks {
        let at = MIGRATE_START + bi as f64 * interval;
        let to = others[bi % others.len()];
        built.sim.schedule_message(
            at,
            hot_site,
            Message::Delegate { path: db.block_path(0, 0, bi), to },
        );
    }

    let mut w = Workload::uniform(&db, QueryType::T1, 31).with_skew(0, 0, 0.9);
    built.sim.set_client_load(ClientLoad {
        clients: 48,
        think_time: 0.02,
        query_gen: Box::new(move |_| w.next_query()),
    });
    let res = run_throughput(&mut built.sim, DURATION, 0.0);
    assert!(res.error_rate < 0.01, "error rate {}", res.error_rate);

    // The paper plots "queries finished in the preceding 5 sec".
    let completions: Vec<f64> = built.sim.replies().iter().map(|r| r.completed_at).collect();
    let series = throughput_series(&completions, 5.0, DURATION);
    println!("{:>8} {:>12}", "time (s)", "q/s (5s win)");
    for (t, qps) in series.iter().step_by(4) {
        let marker = if (MIGRATE_START..MIGRATE_END).contains(t) {
            "  <- migrating"
        } else {
            ""
        };
        println!("{t:>8.0} {qps:>12.1}{marker}");
    }

    let before: f64 = mean_qps(&series, 50.0, MIGRATE_START);
    let after: f64 = mean_qps(&series, MIGRATE_END + 20.0, DURATION);
    println!("\nsteady state before migration: {before:.1} q/s");
    println!("steady state after  migration: {after:.1} q/s");
    println!("speedup: {:.2}x  (paper: ~3x, queries answered throughout)", after / before);
    let min_during = series
        .iter()
        .filter(|(t, _)| (MIGRATE_START..MIGRATE_END).contains(t))
        .map(|&(_, q)| q)
        .fold(f64::INFINITY, f64::min);
    println!("minimum throughput during migration: {min_during:.1} q/s (no downtime)");
}

fn mean_qps(series: &[(f64, f64)], from: f64, to: f64) -> f64 {
    let vals: Vec<f64> = series
        .iter()
        .filter(|(t, _)| *t >= from && *t < to)
        .map(|&(_, q)| q)
        .collect();
    vals.iter().sum::<f64>() / vals.len().max(1) as f64
}
