//! The `Cluster` contract, checked on both implementations over the
//! quickstart topology (site 1 owns the region but Shadyside, site 2 owns
//! Shadyside): replies come back in posing order with equal answers and
//! flags, a pose to a stopped site fails fast as `site down`, and
//! `finish` hands the agents back sorted by address. The DES's closed-loop
//! client load keeps going when a site it routes to is stopped.

use irisdns::SiteAddr;
use irisnet_core::{IdPath, OaConfig, OrganizingAgent, Service, Status};
use simnet::{
    ClientLoad, Cluster, CostModel, DesCluster, Reply, ShardConfig, ShardedCluster, Target,
};

const CITY: &str = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
                    /city[@id='Pittsburgh']";

fn master() -> sensorxml::Document {
    sensorxml::parse(
        r#"<usRegion id="NE"><state id="PA"><county id="Allegheny"><city id="Pittsburgh">
             <neighborhood id="Oakland">
               <block id="1">
                 <parkingSpace id="1"><available>yes</available><price>25</price></parkingSpace>
                 <parkingSpace id="2"><available>no</available><price>0</price></parkingSpace>
               </block>
             </neighborhood>
             <neighborhood id="Shadyside">
               <block id="1">
                 <parkingSpace id="1"><available>yes</available><price>50</price></parkingSpace>
               </block>
             </neighborhood>
           </city></county></state></usRegion>"#,
    )
    .expect("valid master document")
}

fn shadyside() -> IdPath {
    IdPath::from_pairs([
        ("usRegion", "NE"),
        ("state", "PA"),
        ("county", "Allegheny"),
        ("city", "Pittsburgh"),
        ("neighborhood", "Shadyside"),
    ])
}

/// The quickstart sites on `cluster`, added in descending address order.
fn boot(cluster: &mut dyn Cluster) {
    let svc = Service::parking();
    let root = IdPath::from_pairs([("usRegion", "NE")]);
    let oa1 = OrganizingAgent::new(SiteAddr(1), svc.clone(), OaConfig::default());
    oa1.db_mut()
        .bootstrap_owned(&master(), &root, true)
        .unwrap();
    oa1.db_mut()
        .set_status_subtree(&shadyside(), Status::Complete)
        .unwrap();
    oa1.db_mut().evict(&shadyside()).unwrap();
    let oa2 = OrganizingAgent::new(SiteAddr(2), svc, OaConfig::default());
    oa2.db_mut()
        .bootstrap_owned(&master(), &shadyside(), true)
        .unwrap();
    cluster.add_site(oa2);
    cluster.add_site(oa1);
    cluster.register_owner(&root, SiteAddr(1));
    cluster.register_owner(&shadyside(), SiteAddr(2));
    cluster.start();
}

fn query(neighborhoods: &str) -> String {
    format!("{CITY}/neighborhood[{neighborhoods}]/block[@id='1']/parkingSpace")
}

fn canon(xml: &str) -> String {
    let doc = sensorxml::parse(xml).expect("answer parses");
    sensorxml::canonical_string(&doc, doc.root().unwrap())
}

/// Runs the contract on `cluster`; returns the mixed poses' replies
/// canonicalised, for comparison across implementations.
fn contract(mut cluster: Box<dyn Cluster>) -> Vec<(String, bool, bool)> {
    boot(&mut *cluster);
    let queries = [
        query("@id='Oakland' or @id='Shadyside'"),
        query("@id='Oakland'"),
        query("@id='Shadyside'"),
        query("@id='Oakland'"),
    ];
    let mut replies = cluster.pose_each(Target::Routed, &queries);
    replies.extend(cluster.pose_each(Target::Site(SiteAddr(1)), &queries[..2]));
    assert_eq!(replies.len(), 6);
    let posed = queries.iter().chain(&queries[..2]);
    for (r, q) in replies.iter().zip(posed) {
        assert!(r.ok && !r.partial, "{q}: {}", r.answer_xml);
        // Posing order: each answer holds the spaces of exactly the
        // neighborhoods its query names (told apart by price).
        for (hood, price) in [("Oakland", "<price>25<"), ("Shadyside", "<price>50<")] {
            assert_eq!(
                r.answer_xml.contains(price),
                q.contains(hood),
                "{q}: {}",
                r.answer_xml
            );
        }
    }

    let stopped = cluster.stop_site(SiteAddr(2)).expect("site 2 running");
    assert!(cluster.stop_site(SiteAddr(2)).is_none(), "stopped twice");
    let down = [query("@id='Shadyside'")];
    for to in [Target::Site(SiteAddr(2)), Target::Routed] {
        let r = cluster.pose_each(to, &down).remove(0);
        assert_eq!(r, Reply::site_down(), "pose {to:?} to a stopped site");
        assert_eq!(r.answer_xml, "<error>site down</error>");
    }

    cluster.restart_site(stopped);
    let addrs: Vec<SiteAddr> = cluster.finish().iter().map(|a| a.addr).collect();
    assert_eq!(
        addrs,
        [SiteAddr(1), SiteAddr(2)],
        "finish must sort agents by address"
    );
    replies
        .iter()
        .map(|r| (canon(&r.answer_xml), r.ok, r.partial))
        .collect()
}

#[test]
fn des_and_sharded_keep_the_cluster_contract_alike() {
    let des = contract(Box::new(DesCluster::new(CostModel::default())));
    let sharded = contract(Box::new(ShardedCluster::with_config(
        Service::parking(),
        ShardConfig {
            shards: 2,
            workers_per_shard: 0,
            force_wire: false,
        },
    )));
    assert_eq!(des, sharded, "the two implementations answered differently");
}

/// Stopping a site under a DES client load: every client keeps getting
/// replies. Queries routed to the stopped site fail at once as `site down`
/// (failed and partial), the others still succeed, and after the restart
/// the stopped site answers again.
#[test]
fn des_client_load_keeps_going_past_a_stopped_site() {
    const CLIENTS: u64 = 3;
    let mut des = DesCluster::new(CostModel::default());
    boot(&mut des);
    let mut posed = 0u64;
    des.set_client_load(ClientLoad {
        clients: CLIENTS as usize,
        think_time: 0.05,
        query_gen: Box::new(move |_| {
            posed += 1;
            if posed.is_multiple_of(2) {
                query("@id='Shadyside'")
            } else {
                query("@id='Oakland'")
            }
        }),
    });
    let phase = |des: &mut DesCluster, until: f64| {
        let from = des.replies().len();
        des.run_until(until);
        des.replies()[from..].to_vec()
    };
    let up = phase(&mut des, 5.0);
    assert!(!up.is_empty() && up.iter().all(|r| r.ok && !r.partial));

    let stopped = des.stop_site(SiteAddr(2)).expect("site 2 running");
    let down = phase(&mut des, 10.0);
    for c in 0..CLIENTS {
        let mine: Vec<_> = down.iter().filter(|r| r.endpoint.0 == c).collect();
        assert!(
            mine.last().is_some_and(|r| r.completed_at > 9.0),
            "client {c} stopped getting replies: {mine:?}"
        );
    }
    let failed: Vec<_> = down.iter().filter(|r| !r.ok).collect();
    assert!(!failed.is_empty() && down.iter().any(|r| r.ok));
    let site_down = Reply::site_down();
    for r in &failed {
        assert!(r.partial, "{r:?}");
        assert_eq!(r.answer_len, site_down.answer_xml.len(), "{r:?}");
    }

    des.restart_site(stopped);
    let back = phase(&mut des, 15.0);
    assert!(back.iter().rev().take(2 * CLIENTS as usize).all(|r| r.ok && !r.partial));
}
