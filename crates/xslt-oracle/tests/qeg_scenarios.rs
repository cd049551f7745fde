//! The XSLT QEG program over the wider scenario document: skeletons of
//! different query shapes stay apart in the fast-creation cache.

use irisnet_core::qeg::plan_query;
use irisnet_core::{IdPath, Service, SiteDatabase};
use irisnet_xslt_oracle::{Creation, XsltQeg};

fn master() -> sensorxml::Document {
    sensorxml::parse(
        r#"<usRegion id="NE"><state id="PA"><county id="A">
             <city id="P">
               <neighborhood id="n1">
                 <block id="1">
                   <parkingSpace id="1"><available>yes</available><price>0</price></parkingSpace>
                   <parkingSpace id="2"><available>no</available><price>25</price></parkingSpace>
                 </block>
                 <block id="2">
                   <parkingSpace id="1"><available>yes</available><price>50</price></parkingSpace>
                 </block>
               </neighborhood>
               <neighborhood id="n2">
                 <block id="1">
                   <parkingSpace id="1"><available>yes</available><price>0</price></parkingSpace>
                 </block>
               </neighborhood>
             </city>
             <city id="Q">
               <neighborhood id="n1">
                 <block id="1">
                   <parkingSpace id="1"><available>no</available><price>0</price></parkingSpace>
                 </block>
               </neighborhood>
             </city>
           </county></state></usRegion>"#,
    )
    .unwrap()
}

#[test]
fn qeg_factory_shapes_do_not_collide_across_queries() {
    let svc = Service::parking();
    let f = XsltQeg::new(Creation::Fast);
    let queries = [
        "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']",
        "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']/neighborhood[@id='n1']",
        "/usRegion[@id='NE']//parkingSpace",
        "/usRegion[@id='NE']/*/county[@id='A']",
        "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']/neighborhood[zipcode='1']",
    ];
    let m = master();
    let mut db = SiteDatabase::new(svc.clone());
    db.bootstrap_owned(&m, &IdPath::from_pairs([("usRegion", "NE")]), true)
        .unwrap();
    for q in queries {
        let e = sensorxpath::parse(q).unwrap();
        let plan = plan_query(&e, &svc).unwrap();
        let prog = f.create(&plan).unwrap();
        // All programs run cleanly on the full fragment (no asks).
        let out = prog.execute(&db, 0.0).unwrap();
        assert!(out.is_complete(), "asks for {q}: {:?}", out.asks);
    }
    // Re-creating the same queries hits the skeleton cache each time.
    let before = f.skeleton_hits();
    for q in queries {
        let e = sensorxpath::parse(q).unwrap();
        let plan = plan_query(&e, &svc).unwrap();
        f.create(&plan).unwrap();
    }
    assert_eq!(f.skeleton_hits(), before + queries.len() as u64);
}
