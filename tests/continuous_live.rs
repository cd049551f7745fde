//! Continuous queries end to end on the sharded runtime: a subscriber
//! registers at the owner site and receives pushed answers as sensor
//! updates change the result (§1's "directions are automatically updated",
//! §7).

use std::time::Duration;

use irisdns::SiteAddr;
use irisnet_core::{EvictionPolicy, IdPath, Message, OaConfig, OrganizingAgent, Service};
use simnet::{ShardConfig, ShardedCluster};

fn master() -> sensorxml::Document {
    sensorxml::parse(
        r#"<usRegion id="NE"><state id="PA"><county id="A"><city id="P">
             <neighborhood id="Oakland">
               <block id="1">
                 <parkingSpace id="1"><available>no</available></parkingSpace>
                 <parkingSpace id="2"><available>no</available></parkingSpace>
               </block>
             </neighborhood>
           </city></county></state></usRegion>"#,
    )
    .unwrap()
}

fn block_path() -> IdPath {
    IdPath::from_pairs([
        ("usRegion", "NE"),
        ("state", "PA"),
        ("county", "A"),
        ("city", "P"),
        ("neighborhood", "Oakland"),
        ("block", "1"),
    ])
}

const CQ: &str = "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']\
    /neighborhood[@id='Oakland']/block[@id='1']/parkingSpace[available='yes']";

#[test]
fn subscriber_receives_initial_snapshot_and_pushes() {
    let service = Service::parking();
    let mut cluster = ShardedCluster::with_config(
        service.clone(),
        ShardConfig { shards: 1, workers_per_shard: 0, force_wire: false },
    );
    let root = IdPath::from_pairs([("usRegion", "NE")]);
    let oa = OrganizingAgent::new(SiteAddr(1), service.clone(), OaConfig::default());
    oa.db_mut().bootstrap_owned(&master(), &root, true).unwrap();
    cluster.register_owner(&root, SiteAddr(1));
    cluster.add_site(oa);
    cluster.start();

    let (_, feed) = cluster.subscribe(SiteAddr(1), CQ);
    // Three updates: two real changes, one no-op repeat.
    let sp1 = block_path().child("parkingSpace", "1");
    for value in ["yes", "yes", "no"] {
        cluster.send(
            SiteAddr(1),
            Message::Update {
                path: sp1.clone(),
                fields: vec![("available".into(), value.into())],
            },
        );
    }
    // A trailing blocking query on the same mailbox guarantees every
    // update (and hence every push) was processed.
    let r = cluster
        .pose_query(CQ, Duration::from_secs(5))
        .expect("final query answered");
    assert_eq!(r.answer_xml, "<result/>"); // back to "no"

    let agents = cluster.shutdown();
    assert_eq!(agents[0].stats.updates_applied, 3);
    // Initial snapshot + 2 change pushes; the repeated "yes" must not push.
    let pushed: Vec<String> = feed.try_iter().map(|(_, xml, _, _)| xml).collect();
    assert_eq!(pushed.len(), 3, "pushes: {pushed:?}");
    assert_eq!(pushed[0], "<result/>");
    assert_eq!(pushed[1].matches("<parkingSpace").count(), 1);
    assert_eq!(pushed[2], "<result/>");
}

#[test]
fn pushes_observed_through_des() {
    use simnet::{CostModel, DesCluster};
    let service = Service::parking();
    let mut sim = DesCluster::new(CostModel::default());
    let root = IdPath::from_pairs([("usRegion", "NE")]);
    let oa = OrganizingAgent::new(SiteAddr(1), service.clone(), OaConfig::default());
    oa.db_mut().bootstrap_owned(&master(), &root, true).unwrap();
    service.register_owner(&mut sim.dns, &root, SiteAddr(1));
    sim.add_site(oa);

    sim.schedule_message(
        0.0,
        SiteAddr(1),
        Message::Subscribe { qid: 5, text: CQ.to_string(), endpoint: irisnet_core::Endpoint(1) },
    );
    let sp1 = block_path().child("parkingSpace", "1");
    let sp2 = block_path().child("parkingSpace", "2");
    for (t, path, v) in [
        (1.0, &sp1, "yes"),
        (2.0, &sp1, "yes"), // no change: no push
        (3.0, &sp2, "yes"),
        (4.0, &sp1, "no"),
    ] {
        sim.schedule_message(
            t,
            SiteAddr(1),
            Message::Update { path: path.clone(), fields: vec![("available".into(), v.into())] },
        );
    }
    sim.run_until(10.0);
    let replies = sim.take_unclaimed_replies();
    // initial snapshot + 3 changes.
    assert_eq!(replies.len(), 4, "replies: {replies:?}");
    assert_eq!(replies[0], "<result/>");
    assert_eq!(replies[1].matches("<parkingSpace").count(), 1);
    assert_eq!(replies[2].matches("<parkingSpace").count(), 2);
    assert_eq!(replies[3].matches("<parkingSpace").count(), 1);

    // Unsubscribe stops the stream.
    sim.schedule_message(11.0, SiteAddr(1), Message::Unsubscribe { qid: 5 });
    sim.schedule_message(
        12.0,
        SiteAddr(1),
        Message::Update { path: sp1.clone(), fields: vec![("available".into(), "yes".into())] },
    );
    sim.run_until(20.0);
    assert!(sim.take_unclaimed_replies().is_empty());
}

#[test]
fn ttl_eviction_causes_refetch_after_expiry() {
    use simnet::{CostModel, DesCluster};
    let service = Service::parking();
    let mut sim = DesCluster::new(CostModel::default());
    let root = IdPath::from_pairs([("usRegion", "NE")]);
    // Owner holds everything but the block lives on site 2.
    let oa1 = OrganizingAgent::new(
        SiteAddr(1),
        service.clone(),
        OaConfig { eviction: EvictionPolicy::Ttl { max_age: 30.0 }, ..OaConfig::default() },
    );
    oa1.db_mut().bootstrap_owned(&master(), &root, true).unwrap();
    let bp = block_path();
    oa1.db_mut().set_status_subtree(&bp, irisnet_core::Status::Complete).unwrap();
    oa1.db_mut().evict(&bp).unwrap();
    let oa2 = OrganizingAgent::new(SiteAddr(2), service.clone(), OaConfig::default());
    oa2.db_mut().bootstrap_owned(&master(), &bp, true).unwrap();
    service.register_owner(&mut sim.dns, &root, SiteAddr(1));
    service.register_owner(&mut sim.dns, &bp, SiteAddr(2));
    sim.add_site(oa1);
    sim.add_site(oa2);

    let q = format!("{}/parkingSpace", bp.to_xpath());
    let pose = |sim: &mut DesCluster, t: f64, qid| {
        sim.schedule_message(
            t,
            SiteAddr(1),
            Message::UserQuery { qid, text: q.clone(), endpoint: irisnet_core::Endpoint(3) },
        );
    };
    pose(&mut sim, 0.0, 1); // gathers and caches
    pose(&mut sim, 5.0, 2); // cache hit
    // TTL has expired on the merge-time stamp by t=100. Enforcement is
    // off the hot path: query 3 is still answered from the (stale) cache,
    // and the expired unit is demoted by the post-query sweep. Query 4
    // then misses and re-gathers.
    pose(&mut sim, 100.0, 3);
    pose(&mut sim, 110.0, 4);
    sim.run_until(200.0);
    assert_eq!(sim.take_unclaimed_replies().len(), 4);
    let s1 = sim.site(SiteAddr(1)).unwrap();
    assert_eq!(s1.stats.subqueries_sent, 2, "gather, hit, stale hit + evict, re-gather");
    assert_eq!(s1.cache_stats().evictions, 1, "exactly the expired block is demoted");
}
