//! The paper's motivating application: a Parking Space Finder (§1).
//!
//! Run with: `cargo run --release --example parking_finder`
//!
//! A driver heads to a destination in Oakland. Far away, she tolerates
//! minutes-old availability data (fast, cache-friendly queries); as she
//! approaches, the service insists on fresh data (query-based consistency,
//! §4). Meanwhile sensing agents keep flipping spot availability, and an
//! administrator migrates a hot block to another site mid-drive without
//! dropping a single query.

use std::time::Duration;

use irisnet::core::{
    CacheMode, IdPath, Message, OaConfig, OrganizingAgent, SensingAgent, Service,
};
use irisnet::dns::SiteAddr;
use irisnet::net::{ShardConfig, ShardedCluster};
use irisnet_bench::{DbParams, ParkingDb};

fn main() {
    // A city-scale database: 2 cities x 3 neighborhoods x 20 blocks x 20
    // spaces (the paper's 2400-space evaluation database).
    let db = ParkingDb::generate(DbParams::small(), 7);
    let service: std::sync::Arc<Service> = db.service.clone();

    // Hierarchical IrisNet placement: top of the hierarchy on site 1,
    // cities on 2-3, neighborhoods (with their blocks) on 4-9 — one shard
    // event loop per site.
    let sites = 1 + db.params.cities * (1 + db.params.neighborhoods_per_city);
    let mut cluster = ShardedCluster::with_config(
        service.clone(),
        ShardConfig { shards: sites, workers_per_shard: 0, force_wire: false },
    );
    let cfg = OaConfig { cache: CacheMode::Aggressive, ..OaConfig::default() };

    let top = OrganizingAgent::new(SiteAddr(1), service.clone(), cfg.clone());
    top.db_mut().bootstrap_owned(&db.master, &db.root_path(), false).unwrap();
    top.db_mut()
        .bootstrap_owned(&db.master, &db.root_path().child("state", "PA"), false)
        .unwrap();
    top.db_mut().bootstrap_owned(&db.master, &db.county_path(), false).unwrap();
    cluster.register_owner(&db.root_path(), SiteAddr(1));
    cluster.add_site(top);

    let mut next = 2u32;
    for ci in 0..db.params.cities {
        let a = OrganizingAgent::new(SiteAddr(next), service.clone(), cfg.clone());
        a.db_mut().bootstrap_owned(&db.master, &db.city_path(ci), false).unwrap();
        cluster.register_owner(&db.city_path(ci), SiteAddr(next));
        cluster.add_site(a);
        next += 1;
    }
    let mut nbhd_sites = Vec::new();
    for ci in 0..db.params.cities {
        for ni in 0..db.params.neighborhoods_per_city {
            let a = OrganizingAgent::new(SiteAddr(next), service.clone(), cfg.clone());
            a.db_mut().bootstrap_owned(&db.master, &db.neighborhood_path(ci, ni), true)
                .unwrap();
            cluster.register_owner(&db.neighborhood_path(ci, ni), SiteAddr(next));
            cluster.add_site(a);
            nbhd_sites.push(((ci, ni), SiteAddr(next)));
            next += 1;
        }
    }
    cluster.start();

    // Webcam proxies (sensing agents) report on the Oakland-analogue
    // neighborhood (Pittsburgh, n1): one SA per block, reporting to the
    // owning site.
    let oakland_site = nbhd_sites[0].1;
    let mut sas: Vec<SensingAgent> = (0..db.params.blocks_per_neighborhood)
        .map(|bi| {
            let spaces: Vec<IdPath> = (0..db.params.spaces_per_block)
                .map(|si| db.space_path(0, 0, bi, si))
                .collect();
            SensingAgent::new(spaces, oakland_site, bi as u64)
        })
        .collect();
    for sa in &mut sas {
        for _ in 0..10 {
            if let Some((to, msg)) = sa.next_update() {
                cluster.send(to, msg);
            }
        }
    }
    std::thread::sleep(Duration::from_millis(100));

    // Phase 1: miles away — tolerate stale data (60 s freshness window).
    let relaxed = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
                   /city[@id='Pittsburgh']/neighborhood[@id='n1']\
                   /block[@id='7' or @id='8']\
                   /parkingSpace[available='yes'][@timestamp > now() - 60]";
    let r1 = cluster.pose_query(relaxed, Duration::from_secs(5)).expect("reply");
    println!(
        "[far away]  {} candidate spaces near blocks 7-8 (latency {:?})",
        r1.answer_xml.matches("<parkingSpace").count(),
        r1.latency
    );

    // The administrator rebalances: block 7 migrates to the city site
    // while queries keep flowing.
    let block7 = db.block_path(0, 0, 6);
    cluster.send(oakland_site, Message::Delegate { path: block7.clone(), to: SiteAddr(2) });

    // Phase 2: approaching — demand fresh data (2 s window). The owner
    // always answers with its freshest copy.
    for _ in 0..5 {
        for sa in &mut sas {
            if let Some((to, msg)) = sa.next_update() {
                cluster.send(to, msg);
            }
        }
    }
    std::thread::sleep(Duration::from_millis(100));
    let strict = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
                  /city[@id='Pittsburgh']/neighborhood[@id='n1']/block[@id='7']\
                  /parkingSpace[available='yes'][@timestamp > now() - 2]";
    let r2 = cluster.pose_query(strict, Duration::from_secs(5)).expect("reply");
    println!(
        "[arriving]  {} spaces free in block 7 right now (latency {:?})",
        r2.answer_xml.matches("<parkingSpace").count(),
        r2.latency
    );

    // Phase 3: a city-wide sweep uses cached partial matches (§3.3): the
    // earlier per-block queries cached data at the city site, and the
    // wildcard query reuses whatever is fresh enough.
    let sweep = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
                 /city[@id='Pittsburgh']/neighborhood[@id='n1']/block\
                 /parkingSpace[available='yes'][price='0']";
    let r3 = cluster.pose_query(sweep, Duration::from_secs(10)).expect("reply");
    println!(
        "[sweep]     {} free no-cost spaces across all of n1 (latency {:?})",
        r3.answer_xml.matches("<parkingSpace").count(),
        r3.latency
    );

    let agents = cluster.shutdown();
    let stats: (u64, u64, u64) = agents.iter().fold((0, 0, 0), |acc, a| {
        (
            acc.0 + a.stats.updates_applied + a.stats.updates_forwarded,
            acc.1 + a.stats.subqueries_sent,
            acc.2 + a.stats.cache_merges,
        )
    });
    println!(
        "\ncluster totals: {} sensor updates, {} subqueries, {} cache fills",
        stats.0, stats.1, stats.2
    );
}
