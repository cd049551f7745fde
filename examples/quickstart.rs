//! Quickstart: a two-site wide area sensor database in ~60 lines.
//!
//! Run with: `cargo run --example quickstart`
//!
//! Site 1 owns the Oakland neighborhood, site 2 owns Shadyside. A single
//! XPATH query spanning both is routed to the Pittsburgh LCA (site 1 also
//! caches the city's ID skeleton), gathers the missing Shadyside data over
//! the network, caches it, and answers.

use std::time::Duration;

use irisnet::core::{IdPath, Message, OaConfig, OrganizingAgent, Service};
use irisnet::dns::SiteAddr;
use irisnet::net::{ShardConfig, ShardedCluster};

fn main() {
    // The single logical document of the service.
    let master = irisnet::xml::parse(
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
    .expect("valid master document");

    let service = Service::parking();
    let pgh = IdPath::from_pairs([
        ("usRegion", "NE"),
        ("state", "PA"),
        ("county", "Allegheny"),
        ("city", "Pittsburgh"),
    ]);

    // Site 1: everything except Shadyside. Site 2: Shadyside.
    let oa1 = OrganizingAgent::new(SiteAddr(1), service.clone(), OaConfig::default());
    oa1.db_mut().bootstrap_owned(&master, &IdPath::from_pairs([("usRegion", "NE")]), true)
        .unwrap();
    let shadyside = pgh.child("neighborhood", "Shadyside");
    oa1.db_mut().set_status_subtree(&shadyside, irisnet::core::Status::Complete).unwrap();
    oa1.db_mut().evict(&shadyside).unwrap();

    let oa2 = OrganizingAgent::new(SiteAddr(2), service.clone(), OaConfig::default());
    oa2.db_mut().bootstrap_owned(&master, &shadyside, true).unwrap();

    // A threaded cluster: one shard event loop per site, shared DNS.
    let mut cluster = ShardedCluster::with_config(
        service.clone(),
        ShardConfig { shards: 2, workers_per_shard: 0, force_wire: false },
    );
    cluster.register_owner(&IdPath::from_pairs([("usRegion", "NE")]), SiteAddr(1));
    cluster.register_owner(&shadyside, SiteAddr(2));
    cluster.add_site(oa1);
    cluster.add_site(oa2);
    cluster.start();

    // A sensor update lands at the owner.
    cluster.send(
        SiteAddr(2),
        Message::Update {
            path: shadyside.child("block", "1").child("parkingSpace", "1"),
            fields: vec![("available".into(), "yes".into())],
        },
    );

    // The paper's example query: all available spaces in Oakland block 1
    // or Shadyside block 1. Routing is *self-starting*: the DNS name
    // pittsburgh.allegheny.pa.ne.parking.intel-iris.net is derived from
    // the query text alone.
    let query = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
                 /city[@id='Pittsburgh']\
                 /neighborhood[@id='Oakland' or @id='Shadyside']\
                 /block[@id='1']/parkingSpace[available='yes']";
    let reply = cluster
        .pose_query(query, Duration::from_secs(5))
        .expect("query answered");

    println!("query : {query}");
    println!("answer: {}", reply.answer_xml);
    println!("took  : {:?}", reply.latency);

    let agents = cluster.shutdown();
    let gathered: u64 = agents.iter().map(|a| a.stats.subqueries_sent).sum();
    println!("subqueries sent across the cluster: {gathered}");
    assert!(reply.answer_xml.matches("<parkingSpace").count() == 2);
}
