//! The XSLT engines driven through an organizing agent: every pass creates
//! a program, and the agent's statistics time that creation.

use std::sync::Arc;

use irisdns::{AuthoritativeDns, SiteAddr};
use irisnet_core::{Endpoint, IdPath, Message, OaConfig, OrganizingAgent, Service};
use irisnet_xslt_oracle::{Creation, XsltQeg};

fn master() -> sensorxml::Document {
    sensorxml::parse(
        r#"<usRegion id="NE"><state id="PA"><county id="A"><city id="P">
             <neighborhood id="n1">
               <block id="1"><parkingSpace id="1"><available>yes</available></parkingSpace></block>
             </neighborhood>
           </city></county></state></usRegion>"#,
    )
    .unwrap()
}

#[test]
fn stats_track_xslt_creation() {
    for creation in [Creation::Fast, Creation::Naive] {
        let engine = Arc::new(XsltQeg::new(creation));
        let svc = Service::parking();
        let root = IdPath::from_pairs([("usRegion", "NE")]);
        let config = OaConfig { engine: engine.clone(), ..OaConfig::default() };
        let mut oa = OrganizingAgent::new(SiteAddr(1), svc.clone(), config);
        oa.db_mut().bootstrap_owned(&master(), &root, true).unwrap();
        let mut dns = AuthoritativeDns::new();
        svc.register_owner(&mut dns, &root, SiteAddr(1));
        let q = "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']\
                 /neighborhood[@id='n1']/block[@id='1']/parkingSpace";
        for i in 0..5 {
            let out = oa.handle(
                Message::UserQuery { qid: i, text: q.into(), endpoint: Endpoint(1) },
                &mut dns,
                i as f64,
            );
            assert_eq!(out.len(), 1);
        }
        assert_eq!(oa.stats.user_queries, 5);
        assert_eq!(oa.stats.answers_sent, 5);
        assert_eq!(oa.stats.answered_locally, 5);
        assert!(oa.stats.time_create_xslt > 0.0, "{creation:?}");
        assert!(oa.stats.time_exec_xslt > 0.0);
        assert!(oa.stats.time_extract > 0.0);
        assert!(engine.created() > 0, "{creation:?}");
    }
}
