//! The four sensor-database architectures of Fig. 6.
//!
//! All use the same 2400-space database and (for ii–iv) the same nine
//! sites; they differ in data placement and in how queries find data:
//!
//! * **i. Centralized** — one server owns everything; queries and updates
//!   all go there.
//! * **ii. Centralized querying, distributed update** — blocks spread over
//!   sites 2–9, hierarchy (root..neighborhoods) on the central site 1,
//!   which is also the sole repository of the block→site mapping, so every
//!   query enters through it.
//! * **iii. Distributed querying, two-level** — same placement, but the
//!   block→site mapping lives in DNS, so type 1 queries jump straight to
//!   block sites; everything else still funnels through the central site.
//! * **iv. Hierarchical (IrisNet)** — neighborhoods (with their blocks) on
//!   six sites, cities on two, the rest on one; DNS holds every ownership
//!   root and self-starting queries jump to the LCA owner.

use std::collections::HashMap;

use irisdns::SiteAddr;
use irisnet_core::{IdPath, OaConfig, OrganizingAgent};
use simnet::{CostModel, DesCluster};

use crate::parkingdb::ParkingDb;

/// Architecture selector (Fig. 6 i–iv).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    Centralized,
    CentralQueryDistUpdate,
    TwoLevelDns,
    Hierarchical,
}

impl Arch {
    pub const ALL: [Arch; 4] = [
        Arch::Centralized,
        Arch::CentralQueryDistUpdate,
        Arch::TwoLevelDns,
        Arch::Hierarchical,
    ];

    /// Display label ("Architecture 1" ... "Architecture 4").
    pub fn label(self) -> &'static str {
        match self {
            Arch::Centralized => "Architecture 1 (centralized)",
            Arch::CentralQueryDistUpdate => "Architecture 2 (central query, dist. update)",
            Arch::TwoLevelDns => "Architecture 3 (two-level DNS)",
            Arch::Hierarchical => "Architecture 4 (hierarchical)",
        }
    }
}

/// A cluster ready to run, with the placement map the update streams need.
pub struct BuiltCluster {
    pub sim: DesCluster,
    /// Owner site of each block (where its sensors report).
    pub block_owner: HashMap<IdPath, SiteAddr>,
    /// All site addresses in use.
    pub sites: Vec<SiteAddr>,
}

/// Builds a cluster in the given architecture. `sites` is the machine
/// budget (the paper uses 9).
pub fn build_cluster(
    arch: Arch,
    db: &ParkingDb,
    costs: CostModel,
    config: OaConfig,
    sites: usize,
) -> BuiltCluster {
    assert!(sites >= 2, "need at least a central site plus one worker");
    match arch {
        Arch::Centralized => build_centralized(db, costs, config),
        Arch::CentralQueryDistUpdate => build_central_query(db, costs, config, sites, false),
        Arch::TwoLevelDns => build_central_query(db, costs, config, sites, true),
        Arch::Hierarchical => build_hierarchical(db, costs, config, sites),
    }
}

fn oa(addr: u32, db: &ParkingDb, config: &OaConfig) -> OrganizingAgent {
    OrganizingAgent::new(SiteAddr(addr), db.service.clone(), config.clone())
}

fn build_centralized(db: &ParkingDb, costs: CostModel, config: OaConfig) -> BuiltCluster {
    let mut sim = DesCluster::new(costs);
    let central = oa(1, db, &config);
    central
        .db_mut()
        .bootstrap_owned(&db.master, &db.root_path(), true)
        .expect("bootstrap centralized");
    db.service.register_owner(&mut sim.dns, &db.root_path(), SiteAddr(1));
    sim.add_site(central);
    sim.route_override = Some(SiteAddr(1));
    let block_owner = db
        .all_block_paths()
        .into_iter()
        .map(|p| (p, SiteAddr(1)))
        .collect();
    BuiltCluster { sim, block_owner, sites: vec![SiteAddr(1)] }
}

/// Architectures ii and iii share their placement; `dns_blocks` controls
/// whether clients can see the block mapping (iii) or not (ii).
fn build_central_query(
    db: &ParkingDb,
    costs: CostModel,
    config: OaConfig,
    sites: usize,
    dns_blocks: bool,
) -> BuiltCluster {
    let mut sim = DesCluster::new(costs);
    let central = oa(1, db, &config);
    // Central owns the hierarchy down to the neighborhoods (nodes only —
    // block content lives on the worker sites).
    central
        .db_mut()
        .bootstrap_owned(&db.master, &db.root_path(), false)
        .expect("root");
    let mut chain = db.root_path().child("state", "PA");
    central.db_mut().bootstrap_owned(&db.master, &chain, false).expect("state");
    chain = chain.child("county", "Allegheny");
    central.db_mut().bootstrap_owned(&db.master, &chain, false).expect("county");
    for ci in 0..db.params.cities {
        central
            .db_mut()
            .bootstrap_owned(&db.master, &db.city_path(ci), false)
            .expect("city");
        for ni in 0..db.params.neighborhoods_per_city {
            central
                .db_mut()
                .bootstrap_owned(&db.master, &db.neighborhood_path(ci, ni), false)
                .expect("neighborhood");
        }
    }
    db.service.register_owner(&mut sim.dns, &db.root_path(), SiteAddr(1));

    // Blocks round-robin over the worker sites.
    let workers: Vec<SiteAddr> = (2..=sites as u32).map(SiteAddr).collect();
    let mut agents: HashMap<SiteAddr, OrganizingAgent> = workers
        .iter()
        .map(|&a| (a, oa(a.0, db, &config)))
        .collect();
    let mut block_owner = HashMap::new();
    for (i, bp) in db.all_block_paths().into_iter().enumerate() {
        let site = workers[i % workers.len()];
        agents
            .get_mut(&site)
            .expect("worker exists")
            .db_mut()
            .bootstrap_owned(&db.master, &bp, true)
            .expect("block");
        // The mapping is always in the authoritative store (the OAs need
        // it to dispatch subqueries); architecture ii merely withholds it
        // from *clients* via route_override.
        db.service.register_owner(&mut sim.dns, &bp, site);
        block_owner.insert(bp, site);
    }
    sim.add_site(central);
    let mut all_sites = vec![SiteAddr(1)];
    for (addr, agent) in agents {
        sim.add_site(agent);
        all_sites.push(addr);
    }
    all_sites.sort();
    if !dns_blocks {
        // Architecture ii: clients cannot resolve blocks; everything
        // enters through the central site.
        sim.route_override = Some(SiteAddr(1));
    }
    BuiltCluster { sim, block_owner, sites: all_sites }
}

fn build_hierarchical(
    db: &ParkingDb,
    costs: CostModel,
    config: OaConfig,
    sites: usize,
) -> BuiltCluster {
    let mut sim = DesCluster::new(costs);
    let nbhd_total = db.params.cities * db.params.neighborhoods_per_city;
    let needed = 1 + db.params.cities + nbhd_total;
    assert!(
        sites >= needed.min(9),
        "hierarchical placement needs {needed} sites, have {sites}"
    );

    // Site 1: the rest of the hierarchy (root, state, county).
    let top = oa(1, db, &config);
    top.db_mut()
        .bootstrap_owned(&db.master, &db.root_path(), false)
        .expect("root");
    let state = db.root_path().child("state", "PA");
    top.db_mut().bootstrap_owned(&db.master, &state, false).expect("state");
    top.db_mut()
        .bootstrap_owned(&db.master, &db.county_path(), false)
        .expect("county");
    db.service.register_owner(&mut sim.dns, &db.root_path(), SiteAddr(1));
    sim.add_site(top);
    let mut all_sites = vec![SiteAddr(1)];

    // Cities on the next sites.
    let mut next = 2u32;
    for ci in 0..db.params.cities {
        let addr = SiteAddr(next);
        next += 1;
        let a = oa(addr.0, db, &config);
        a.db_mut().bootstrap_owned(&db.master, &db.city_path(ci), false)
            .expect("city");
        db.service.register_owner(&mut sim.dns, &db.city_path(ci), addr);
        sim.add_site(a);
        all_sites.push(addr);
    }

    // Neighborhood subtrees on the remaining sites.
    let mut block_owner = HashMap::new();
    for ci in 0..db.params.cities {
        for ni in 0..db.params.neighborhoods_per_city {
            let addr = SiteAddr(next);
            next += 1;
            let a = oa(addr.0, db, &config);
            let np = db.neighborhood_path(ci, ni);
            a.db_mut().bootstrap_owned(&db.master, &np, true).expect("neighborhood");
            db.service.register_owner(&mut sim.dns, &np, addr);
            sim.add_site(a);
            all_sites.push(addr);
            for bi in 0..db.params.blocks_per_neighborhood {
                block_owner.insert(db.block_path(ci, ni, bi), addr);
            }
        }
    }
    BuiltCluster { sim, block_owner, sites: all_sites }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parkingdb::DbParams;
    use crate::workload::{QueryType, Workload};
    use simnet::ClientLoad;

    fn small_db() -> ParkingDb {
        // A reduced database keeps the test fast while exercising every
        // placement branch.
        ParkingDb::generate(
            DbParams {
                cities: 2,
                neighborhoods_per_city: 3,
                blocks_per_neighborhood: 4,
                spaces_per_block: 3,
            },
            1,
        )
    }

    fn run_queries(built: &mut BuiltCluster, db: &ParkingDb, n_expected: usize) {
        let mut w = Workload::qw_mix(db, 42);
        built.sim.set_client_load(ClientLoad {
            clients: 4,
            think_time: 0.01,
            query_gen: Box::new(move |_| w.next_query()),
        });
        built.sim.run_until(20.0);
        let ok = built.sim.replies().iter().filter(|r| r.ok).count();
        assert!(ok >= n_expected, "only {ok} ok replies");
        assert!(built.sim.replies().iter().all(|r| r.ok));
    }

    #[test]
    fn centralized_answers_queries() {
        let db = small_db();
        let mut built = build_cluster(
            Arch::Centralized,
            &db,
            CostModel::default(),
            OaConfig::default(),
            9,
        );
        run_queries(&mut built, &db, 20);
    }

    #[test]
    fn central_query_dist_update_answers_queries() {
        let db = small_db();
        let mut built = build_cluster(
            Arch::CentralQueryDistUpdate,
            &db,
            CostModel::default(),
            OaConfig::default(),
            9,
        );
        run_queries(&mut built, &db, 20);
        // All queries entered through the central site.
        assert!(built.sim.site(SiteAddr(1)).unwrap().stats.user_queries > 0);
    }

    #[test]
    fn two_level_dns_routes_type1_to_blocks() {
        let db = small_db();
        let mut built = build_cluster(
            Arch::TwoLevelDns,
            &db,
            CostModel::default(),
            OaConfig::default(),
            9,
        );
        let mut w = Workload::uniform(&db, QueryType::T1, 5);
        built.sim.set_client_load(ClientLoad {
            clients: 2,
            think_time: 0.01,
            query_gen: Box::new(move |_| w.next_query()),
        });
        built.sim.run_until(10.0);
        assert!(built.sim.replies().iter().all(|r| r.ok));
        // Type 1 queries land on worker sites, not the central one.
        let central_queries = built.sim.site(SiteAddr(1)).unwrap().stats.user_queries;
        let worker_queries: u64 = (2..=9)
            .filter_map(|a| built.sim.site(SiteAddr(a)).map(|s| s.stats.user_queries))
            .sum();
        assert!(worker_queries > 0);
        assert_eq!(central_queries, 0);
    }

    #[test]
    fn hierarchical_distributes_queries() {
        let db = small_db();
        let mut built = build_cluster(
            Arch::Hierarchical,
            &db,
            CostModel::default(),
            OaConfig::default(),
            9,
        );
        run_queries(&mut built, &db, 20);
        // Neighborhood sites (4..9) saw type 1/2 queries directly.
        let nbhd_queries: u64 = (4..=9)
            .filter_map(|a| built.sim.site(SiteAddr(a)).map(|s| s.stats.user_queries))
            .sum();
        assert!(nbhd_queries > 0);
    }

    #[test]
    fn block_owner_map_covers_all_blocks() {
        let db = small_db();
        for arch in Arch::ALL {
            let built = build_cluster(arch, &db, CostModel::default(), OaConfig::default(), 9);
            assert_eq!(
                built.block_owner.len(),
                db.all_block_paths().len(),
                "{arch:?}"
            );
        }
    }
}
