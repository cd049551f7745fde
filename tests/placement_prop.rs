//! Placement-independence property: for ANY assignment of blocks to sites
//! and ANY workload query, the distributed answer equals direct evaluation
//! on the master document. This is the paper's core correctness claim —
//! "our query processing algorithms must ensure correct answers in the
//! presence of any such partitionings" (§3.2).

use proptest::prelude::*;

use irisdns::SiteAddr;
use irisnet_bench::{DbParams, ParkingDb, QueryType, Workload};
use irisnet_core::{Endpoint, Message, OaConfig, OrganizingAgent};
use simnet::{CostModel, DesCluster};

fn params() -> DbParams {
    DbParams {
        cities: 2,
        neighborhoods_per_city: 2,
        blocks_per_neighborhood: 3,
        spaces_per_block: 2,
    }
}

/// Builds a cluster where block i lives on site `placement[i] + 2`, the
/// hierarchy nodes (root..neighborhoods) on site 1.
fn build(db: &ParkingDb, placement: &[u8], sites: u8) -> DesCluster {
    let svc = db.service.clone();
    let mut sim = DesCluster::new(CostModel::default());
    let cfg = OaConfig::default();

    let agents: Vec<OrganizingAgent> = (1..=u32::from(sites) + 1)
        .map(|a| OrganizingAgent::new(SiteAddr(a), svc.clone(), cfg.clone()))
        .collect();
    // Site 1: hierarchy nodes only.
    agents[0].db_mut().bootstrap_owned(&db.master, &db.root_path(), false).unwrap();
    agents[0]
        .db_mut()
        .bootstrap_owned(&db.master, &db.root_path().child("state", "PA"), false)
        .unwrap();
    agents[0].db_mut().bootstrap_owned(&db.master, &db.county_path(), false).unwrap();
    for ci in 0..db.params.cities {
        agents[0].db_mut().bootstrap_owned(&db.master, &db.city_path(ci), false).unwrap();
        for ni in 0..db.params.neighborhoods_per_city {
            agents[0]
                .db_mut()
                .bootstrap_owned(&db.master, &db.neighborhood_path(ci, ni), false)
                .unwrap();
        }
    }
    svc.register_owner(&mut sim.dns, &db.root_path(), SiteAddr(1));
    // Blocks by placement.
    for (i, bp) in db.all_block_paths().into_iter().enumerate() {
        let site_idx = 1 + (placement[i % placement.len()] as usize % sites as usize);
        agents[site_idx].db_mut().bootstrap_owned(&db.master, &bp, true).unwrap();
        svc.register_owner(&mut sim.dns, &bp, SiteAddr(site_idx as u32 + 1));
    }
    for a in agents {
        sim.add_site(a);
    }
    sim
}

fn oracle(db: &ParkingDb, q: &str) -> Vec<String> {
    let expr = sensorxpath::parse(q).unwrap();
    let v = sensorxpath::evaluate_at(
        &expr,
        &db.master,
        sensorxpath::XNode::Node(db.master.root().unwrap()),
    )
    .unwrap();
    let mut out: Vec<String> = v
        .as_nodes()
        .unwrap()
        .iter()
        .filter_map(|n| match n {
            sensorxpath::XNode::Node(id) => {
                Some(sensorxml::canonical_string(&db.master, *id))
            }
            _ => None,
        })
        .collect();
    out.sort();
    out
}

fn answer_set(xml: &str) -> Vec<String> {
    let doc = sensorxml::parse(xml).unwrap();
    let root = doc.root().unwrap();
    let mut out: Vec<String> = doc
        .child_elements(root)
        .map(|c| sensorxml::canonical_string(&doc, c))
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_placement_any_query_matches_oracle(
        placement in proptest::collection::vec(0u8..6, 12),
        sites in 2u8..6,
        qseed in 0u64..10_000,
        qcount in 1usize..6,
    ) {
        let db = ParkingDb::generate(params(), 77);
        let mut sim = build(&db, &placement, sites);
        let mut w = Workload::qw_mix(&db, qseed);
        let mut t = 0.0;
        let mut queries = Vec::new();
        for k in 0..qcount {
            // Mix in each type deterministically to guarantee coverage.
            let q = match k % 5 {
                0 => w.next_query_of(QueryType::T1),
                1 => w.next_query_of(QueryType::T2),
                2 => w.next_query_of(QueryType::T3),
                3 => w.next_query_of(QueryType::T4),
                _ => w.next_query(),
            };
            // Route like a client: LCA name, longest-prefix DNS.
            let (_, _, name) =
                irisnet_core::routing::route_query(&q, &db.service).unwrap();
            let entry = sim.dns.lookup(&name).unwrap().addr;
            t += 10.0;
            sim.schedule_message(
                t,
                entry,
                Message::UserQuery {
                    qid: k as u64 + 1,
                    text: q.clone(),
                    endpoint: Endpoint(99),
                },
            );
            queries.push(q);
        }
        sim.run_until(t + 10_000.0);
        let answers = sim.take_unclaimed_replies();
        prop_assert_eq!(answers.len(), queries.len(), "all queries answered");
        // Answers arrive in completion order; with 10 s spacing and LAN
        // costs they complete in posing order.
        for (q, a) in queries.iter().zip(&answers) {
            prop_assert_eq!(
                answer_set(a),
                oracle(&db, q),
                "mismatch for {} under placement {:?}",
                q,
                &placement
            );
        }
    }
}
