//! Calibration probe: measures real `OrganizingAgent::handle` CPU for the
//! message patterns the cost model charges, so `CostModel::cpu_scale` can
//! be chosen deliberately (see `runner::paper_costs`).

use std::time::Instant;

use irisdns::{AuthoritativeDns, SiteAddr};
use irisnet_bench::{DbParams, ParkingDb, QueryType, Workload};
use irisnet_core::{CacheMode, Endpoint, Message, OaConfig, OrganizingAgent, Outbound};

fn main() {
    let db = ParkingDb::generate(DbParams::small(), 1);
    let mut dns = AuthoritativeDns::new();

    // --- T1 local answer at a neighborhood site (400 spaces) ---
    let mut oa = OrganizingAgent::new(SiteAddr(1), db.service.clone(), OaConfig::default());
    let np = db.neighborhood_path(0, 0);
    oa.db_mut().bootstrap_owned(&db.master, &np, true).unwrap();
    db.service.register_owner(&mut dns, &np, SiteAddr(1));
    let q = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']/city[@id='Pittsburgh']/neighborhood[@id='n1']/block[@id='3']/parkingSpace[available='yes']";
    for i in 0..5 {
        oa.handle(Message::UserQuery { qid: i, text: q.into(), endpoint: Endpoint(0) }, &mut dns, 0.0);
    }
    let n = 200;
    let t = Instant::now();
    for i in 0..n {
        oa.handle(Message::UserQuery { qid: 100 + i, text: q.into(), endpoint: Endpoint(0) }, &mut dns, 0.0);
    }
    println!("T1 local answer (nbhd site, 400 spaces): {:.3} ms", ms(t, n));

    // --- forwarded query at a previous owner ---
    let mut fw = OrganizingAgent::new(SiteAddr(2), db.service.clone(), OaConfig::default());
    fw.db_mut().bootstrap_owned(&db.master, &np, true).unwrap();
    let bp = db.block_path(0, 0, 2);
    let out = fw.handle(Message::Delegate { path: bp.clone(), to: SiteAddr(3) }, &mut dns, 0.0);
    let mut oa3 = OrganizingAgent::new(SiteAddr(3), db.service.clone(), OaConfig::default());
    if let Outbound::Send { msg, .. } = &out[0] {
        let out2 = oa3.handle(msg.clone(), &mut dns, 0.0);
        if let Outbound::Send { msg, .. } = &out2[0] {
            fw.handle(msg.clone(), &mut dns, 0.0);
        }
    }
    let t = Instant::now();
    for i in 0..n {
        fw.handle(Message::UserQuery { qid: 500 + i, text: q.into(), endpoint: Endpoint(0) }, &mut dns, 0.0);
    }
    println!("T1 forwarded query:                      {:.4} ms", ms(t, n));

    // --- T3 at a warmed city site: cache-served vs always-refresh ---
    for (label, hit_prob) in [("100% hits", 1.0), ("0% hits (refresh)", 0.0)] {
        // Fresh name store: earlier probes registered conflicting owners.
        let mut dns = AuthoritativeDns::new();
        let mut city = OrganizingAgent::new(
            SiteAddr(10),
            db.service.clone(),
            OaConfig { cache: CacheMode::Aggressive, cache_hit_prob: hit_prob, ..OaConfig::default() },
        );
        city.db_mut()
            .bootstrap_owned(&db.master, &db.city_path(0), false)
            .unwrap();
        db.service.register_owner(&mut dns, &db.city_path(0), SiteAddr(10));
        let mut nbhds: Vec<OrganizingAgent> = Vec::new();
        for ni in 0..db.params.neighborhoods_per_city {
            let a = OrganizingAgent::new(
                SiteAddr(11 + ni as u32),
                db.service.clone(),
                OaConfig::default(),
            );
            a.db_mut().bootstrap_owned(&db.master, &db.neighborhood_path(0, ni), true)
                .unwrap();
            db.service.register_owner(&mut dns, &db.neighborhood_path(0, ni), a.addr);
            nbhds.push(a);
        }
        let mut w = Workload::uniform(&db, QueryType::T3, 77);
        // Warm the cache through real message exchange, then measure the
        // city's own CPU per fresh query (including SubAnswer handling).
        let mut city_time = 0.0f64;
        let mut measure = false;
        let run_query = |city: &mut OrganizingAgent,
                             nbhds: &mut Vec<OrganizingAgent>,
                             dns: &mut AuthoritativeDns,
                             qid: u64,
                             text: String,
                             city_time: &mut f64,
                             measure: bool| {
            let mut inbox = vec![(
                SiteAddr(10),
                Message::UserQuery { qid, text, endpoint: Endpoint(0) },
            )];
            while let Some((to, m)) = inbox.pop() {
                let outs = if to == SiteAddr(10) {
                    let t0 = Instant::now();
                    let outs = city.handle(m, dns, 0.0);
                    if measure {
                        *city_time += t0.elapsed().as_secs_f64();
                    }
                    outs
                } else {
                    nbhds[(to.0 - 11) as usize].handle(m, dns, 0.0)
                };
                for o in outs {
                    if let Outbound::Send { to, msg } = o {
                        inbox.push((to, msg));
                    }
                }
            }
        };
        for i in 0..300u64 {
            let q = w.next_query_of(QueryType::T3);
            run_query(&mut city, &mut nbhds, &mut dns, 1000 + i, q, &mut city_time, measure);
        }
        measure = true;
        let m = 200u64;
        for i in 0..m {
            let q = w.next_query_of(QueryType::T3);
            run_query(&mut city, &mut nbhds, &mut dns, 5000 + i, q, &mut city_time, measure);
        }
        println!(
            "T3 warmed city CPU per query, {label:<18}: {:.3} ms",
            city_time * 1000.0 / m as f64
        );
        println!(
            "    city stats: subq_sent={} merges={} create={:.1}ms exec={:.1}ms extract={:.1}ms comm={:.1}ms arena={}",
            city.stats.subqueries_sent,
            city.stats.cache_merges,
            city.stats.time_create_xslt * 1000.0 / 500.0,
            city.stats.time_exec_xslt * 1000.0 / 500.0,
            city.stats.time_extract * 1000.0 / 500.0,
            city.stats.time_comm * 1000.0 / 500.0,
            city.db().doc().arena_len(),
        );
    }
}

fn ms(t: Instant, n: u64) -> f64 {
    t.elapsed().as_secs_f64() * 1000.0 / n as f64
}
