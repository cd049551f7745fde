//! Continuous queries: the driver's live parking feed (§1: "If the space
//! is taken before she arrives, the directions are automatically updated"),
//! built on the §7 continuous-query extension.
//!
//! Run with: `cargo run --example continuous_alerts`
//!
//! A subscriber registers a standing query at the owner site; sensing
//! agents flip availability; every change to the answer is pushed to the
//! subscriber without re-polling. A TTL eviction policy keeps the site's
//! cache bounded at the same time.

use std::time::Duration;

use irisnet::core::{
    EvictionPolicy, IdPath, Message, OaConfig, OrganizingAgent, Service,
};
use irisnet::dns::SiteAddr;
use irisnet::net::{ShardConfig, ShardedCluster};

fn main() {
    let master = irisnet::xml::parse(
        r#"<usRegion id="NE"><state id="PA"><county id="Allegheny"><city id="Pittsburgh">
             <neighborhood id="Oakland">
               <block id="1">
                 <parkingSpace id="1"><available>no</available></parkingSpace>
                 <parkingSpace id="2"><available>no</available></parkingSpace>
                 <parkingSpace id="3"><available>no</available></parkingSpace>
               </block>
             </neighborhood>
           </city></county></state></usRegion>"#,
    )
    .expect("valid master");
    let service = Service::parking();

    let root = IdPath::from_pairs([("usRegion", "NE")]);
    let oa = OrganizingAgent::new(
        SiteAddr(1),
        service.clone(),
        OaConfig {
            eviction: EvictionPolicy::Ttl { max_age: 300.0 },
            ..OaConfig::default()
        },
    );
    oa.db_mut().bootstrap_owned(&master, &root, true).expect("bootstrap");

    let mut cluster = ShardedCluster::with_config(
        service.clone(),
        ShardConfig { shards: 1, workers_per_shard: 0, force_wire: false },
    );
    cluster.register_owner(&root, SiteAddr(1));
    cluster.add_site(oa);
    cluster.start();

    // The standing query: available spaces in the block the driver is
    // heading to.
    let cq = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
              /city[@id='Pittsburgh']/neighborhood[@id='Oakland']\
              /block[@id='1']/parkingSpace[available='yes']";
    let (qid, feed) = cluster.subscribe(SiteAddr(1), cq);
    let (_, snapshot, _, _) = feed.recv_timeout(Duration::from_secs(5)).expect("snapshot");
    println!("initial snapshot: {snapshot}");

    // The street changes: spaces free up and fill again.
    let block = root
        .child("state", "PA")
        .child("county", "Allegheny")
        .child("city", "Pittsburgh")
        .child("neighborhood", "Oakland")
        .child("block", "1");
    let updates = [
        ("1", "yes"),
        ("2", "yes"),
        ("1", "no"),
        ("3", "yes"),
        ("3", "yes"), // repeat: no change, no push
        ("2", "no"),
    ];
    for (space, value) in updates {
        cluster.send(
            SiteAddr(1),
            Message::Update {
                path: block.child("parkingSpace", space),
                fields: vec![("available".into(), value.into())],
            },
        );
    }

    // Five of the six updates change the answer → five pushes.
    for i in 1..=5 {
        let (_, xml, ok, _) = feed.recv_timeout(Duration::from_secs(5)).expect("push");
        assert!(ok);
        println!("push {i}: {xml}");
    }
    assert!(
        feed.recv_timeout(Duration::from_millis(200)).is_err(),
        "the repeated update must not push"
    );

    // Unsubscribe; further changes stay quiet.
    cluster.send(SiteAddr(1), Message::Unsubscribe { qid });
    cluster.send(
        SiteAddr(1),
        Message::Update {
            path: block.child("parkingSpace", "1"),
            fields: vec![("available".into(), "yes".into())],
        },
    );
    assert!(feed.recv_timeout(Duration::from_millis(200)).is_err());
    println!("unsubscribed; feed is quiet.");

    cluster.shutdown();
}
