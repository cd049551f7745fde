//! The scenario pieces the substrate-equivalence suites share: the carved
//! two-site parking topology, its database, the t1/t3 query mixes, answer
//! canonicalisation, and the runtime rows a scenario runs on. Every
//! runtime is driven through [`simnet::Cluster`] only.

// Each suite uses a subset.
#![allow(dead_code)]

use std::sync::Arc;

use irisdns::SiteAddr;
use irisnet_bench::{DbParams, ParkingDb, QueryType, Workload};
use irisnet_core::{IdPath, OaConfig, OrganizingAgent, Service, Status};
use irisobs::Recorder;
use simnet::{Cluster, CostModel, DesCluster, Reply, ShardConfig, ShardedCluster};

/// A one-city database with two neighborhoods of `n` blocks × `n` spaces,
/// generated from seed 42.
pub fn parking_db(n: usize) -> ParkingDb {
    let params = DbParams {
        cities: 1,
        neighborhoods_per_city: 2,
        blocks_per_neighborhood: n,
        spaces_per_block: n,
    };
    ParkingDb::generate(params, 42)
}

/// The neighborhood site 2 owns.
pub fn carved(db: &ParkingDb) -> IdPath {
    db.neighborhood_path(0, 1)
}

/// Site 1 (`cfg1`) owns the region except the carved neighborhood, which
/// it holds only as an evicted ID stub; site 2 (`cfg2`) owns the carved
/// neighborhood. A query crossing into it costs a subquery round trip.
pub fn carve(db: &ParkingDb, cfg1: OaConfig, cfg2: OaConfig) -> [OrganizingAgent; 2] {
    let carved = carved(db);
    let oa1 = OrganizingAgent::new(SiteAddr(1), db.service.clone(), cfg1);
    oa1.db_mut()
        .bootstrap_owned(&db.master, &db.root_path(), true)
        .unwrap();
    oa1.db_mut()
        .set_status_subtree(&carved, Status::Complete)
        .unwrap();
    oa1.db_mut().evict(&carved).unwrap();
    let oa2 = OrganizingAgent::new(SiteAddr(2), db.service.clone(), cfg2);
    oa2.db_mut()
        .bootstrap_owned(&db.master, &carved, true)
        .unwrap();
    [oa1, oa2]
}

/// Boots `sites` (from [`carve`]) on `rt`, with `rec` observing every
/// site, ownership registered and the cluster started.
pub fn boot(
    rt: Runtime,
    db: &ParkingDb,
    sites: [OrganizingAgent; 2],
    rec: Option<Arc<dyn Recorder>>,
) -> Box<dyn Cluster> {
    let mut cluster = rt.cluster(db.service.clone());
    if let Some(rec) = rec {
        cluster.set_recorder(rec);
    }
    for oa in sites {
        cluster.add_site(oa);
    }
    cluster.register_owner(&db.root_path(), SiteAddr(1));
    cluster.register_owner(&carved(db), SiteAddr(2));
    cluster.start();
    cluster
}

/// `n` queries: a t3 (seed 11; it spans both neighborhoods, so it crosses
/// into the carved one) at every index divisible by `t3_every`, a t1
/// (seed 7) otherwise.
pub fn mix(db: &ParkingDb, n: usize, t3_every: usize) -> Vec<String> {
    let mut t1 = Workload::uniform(db, QueryType::T1, 7);
    let mut t3 = Workload::uniform(db, QueryType::T3, 11);
    (0..n)
        .map(|i| {
            if i % t3_every == 0 {
                t3.next_query()
            } else {
                t1.next_query()
            }
        })
        .collect()
}

/// The first t3 query of [`mix`].
pub fn t3(db: &ParkingDb) -> String {
    Workload::uniform(db, QueryType::T3, 11).next_query()
}

/// An answer in canonical form: equal strings mean equal answers.
pub fn canon(xml: &str) -> String {
    let doc = sensorxml::parse(xml).expect("answer parses");
    sensorxml::canonical_string(&doc, doc.root().unwrap())
}

/// Each reply as `(canonical answer, ok, partial)`; panics on a query
/// that got no reply at all.
pub fn flagged(replies: &[Reply]) -> Vec<(String, bool, bool)> {
    replies
        .iter()
        .enumerate()
        .map(|(i, r)| {
            assert_ne!(*r, Reply::default(), "query {i} hung instead of completing");
            (canon(&r.answer_xml), r.ok, r.partial)
        })
        .collect()
}

/// One row of a suite's runtime matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// The discrete-event simulator with the default cost model.
    Des,
    /// The sharded runtime: shard loops, read workers per shard, and
    /// whether even same-shard sends cross the wire codec.
    Sharded {
        shards: usize,
        workers: usize,
        wire: bool,
    },
}

pub const DES: Runtime = Runtime::Des;

pub const fn sharded(shards: usize, workers: usize, wire: bool) -> Runtime {
    Runtime::Sharded {
        shards,
        workers,
        wire,
    }
}

impl Runtime {
    /// An empty cluster of this kind.
    pub fn cluster(self, service: Arc<Service>) -> Box<dyn Cluster> {
        match self {
            Runtime::Des => Box::new(DesCluster::new(CostModel::default())),
            Runtime::Sharded {
                shards,
                workers,
                wire,
            } => Box::new(ShardedCluster::with_config(
                service,
                ShardConfig {
                    shards,
                    workers_per_shard: workers,
                    force_wire: wire,
                },
            )),
        }
    }
}
