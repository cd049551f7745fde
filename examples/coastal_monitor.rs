//! A second service on the same platform: coastal monitoring (§1 mentions
//! deploying IrisNet along the Oregon coastline with oceanographers).
//!
//! Run with: `cargo run --example coastal_monitor`
//!
//! Demonstrates that nothing in the stack is parking-specific: a different
//! IDable hierarchy (coast → region → station → instrument), a different
//! DNS suffix, schemaless per-station readings, and the same distributed
//! query machinery — including a nesting-depth-1 query ("stations whose
//! wave height exceeds the regional maximum alert level") that triggers
//! the §4 subtree pre-fetch.

use std::sync::Arc;
use std::time::Duration;

use irisnet::core::{IdPath, Message, OaConfig, OrganizingAgent, Schema, Service, Status};
use irisnet::dns::SiteAddr;
use irisnet::net::{ShardConfig, ShardedCluster};

fn main() {
    let schema = Schema::chain(["coast", "region", "station", "instrument"]);
    let service = Arc::new(Service::new("coastwatch", "coast.intel-iris.net", schema));

    let master = irisnet::xml::parse(
        r#"<coast id="Oregon">
             <region id="North" alertLevel="4">
               <station id="CapeMeares">
                 <instrument id="waveGauge"><waveHeight>2.5</waveHeight></instrument>
                 <instrument id="thermometer"><waterTemp>11.8</waterTemp></instrument>
               </station>
               <station id="Tillamook">
                 <instrument id="waveGauge"><waveHeight>5.1</waveHeight></instrument>
               </station>
             </region>
             <region id="South" alertLevel="3">
               <station id="CapeBlanco">
                 <instrument id="waveGauge"><waveHeight>3.4</waveHeight></instrument>
                 <instrument id="currentMeter"><ripCurrent>strong</ripCurrent></instrument>
               </station>
             </region>
           </coast>"#,
    )
    .expect("valid master");

    // North region on site 1, South on site 2, the coast root on site 3.
    let north = IdPath::from_pairs([("coast", "Oregon"), ("region", "North")]);
    let south = IdPath::from_pairs([("coast", "Oregon"), ("region", "South")]);
    let root = IdPath::from_pairs([("coast", "Oregon")]);

    let oa1 = OrganizingAgent::new(SiteAddr(1), service.clone(), OaConfig::default());
    oa1.db_mut().bootstrap_owned(&master, &north, true).unwrap();
    let oa2 = OrganizingAgent::new(SiteAddr(2), service.clone(), OaConfig::default());
    oa2.db_mut().bootstrap_owned(&master, &south, true).unwrap();
    let oa3 = OrganizingAgent::new(SiteAddr(3), service.clone(), OaConfig::default());
    oa3.db_mut().bootstrap_owned(&master, &root, false).unwrap();

    let mut cluster = ShardedCluster::with_config(
        service.clone(),
        ShardConfig { shards: 3, workers_per_shard: 0, force_wire: false },
    );
    cluster.register_owner(&root, SiteAddr(3));
    cluster.register_owner(&north, SiteAddr(1));
    cluster.register_owner(&south, SiteAddr(2));
    cluster.add_site(oa1);
    cluster.add_site(oa2);
    cluster.add_site(oa3);
    cluster.start();

    // Buoy proxies push readings to the owners.
    cluster.send(
        SiteAddr(1),
        Message::Update {
            path: north.child("station", "Tillamook").child("instrument", "waveGauge"),
            fields: vec![("waveHeight".into(), "6.2".into())],
        },
    );

    // 1. A region-local query: self-starting routing goes straight to the
    //    North site (north.oregon.coastwatch... is derived from the text).
    let q1 = "/coast[@id='Oregon']/region[@id='North']/station/instrument[@id='waveGauge']";
    let r1 = cluster.pose_query(q1, Duration::from_secs(5)).expect("reply");
    println!("wave gauges in the North region:\n  {}", r1.answer_xml);

    // 2. A coast-wide descendant query gathers from both regions through
    //    the root site and caches the result there.
    let q2 = "/coast[@id='Oregon']//instrument[waveHeight > 5]";
    let r2 = cluster.pose_query(q2, Duration::from_secs(5)).expect("reply");
    println!("\ninstruments reporting waves above 5m:\n  {}", r2.answer_xml);
    assert_eq!(r2.answer_xml.matches("<instrument").count(), 1);

    // 3. Nesting depth 1 (§4): stations whose gauge exceeds the *station's
    //    own* maximum reading elsewhere would need sibling data; here we
    //    ask for stations with more than one instrument — a predicate over
    //    IDable children, forcing the subtree pre-fetch at the station.
    let q3 = "/coast[@id='Oregon']/region[@id='South']/station[count(instrument) > 1]";
    let r3 = cluster.pose_query(q3, Duration::from_secs(5)).expect("reply");
    println!("\nSouth stations with multiple instruments:\n  {}", r3.answer_xml);
    assert_eq!(r3.answer_xml.matches("<station").count(), 1);

    // The root site now holds cached copies — the sweep repeated is local.
    let r4 = cluster.pose_query(q2, Duration::from_secs(5)).expect("reply");
    println!("\nrepeat sweep latency: {:?} (first was {:?})", r4.latency, r2.latency);

    let agents = cluster.shutdown();
    for a in &agents {
        if a.addr == SiteAddr(3) {
            let cached = a.db().status_at(&north.child("station", "Tillamook"));
            println!(
                "root site's copy of Tillamook after the sweep: {:?}",
                cached.map(Status::as_str)
            );
        }
    }
}
