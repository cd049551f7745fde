//! End-to-end demonstration of the observability plane: runs the two-site
//! cache-fill-then-hit scenario in the DES with a recorder attached, dumps
//! the trace + metrics as JSONL, round-trips the dump through the parser,
//! and prints the `query explain` report for every user query.
//!
//! Usage: exp_explain [out.jsonl]
//!
//! `scripts/obs_smoke.sh` drives this and validates the JSONL output.

use irisdns::SiteAddr;
use irisnet_bench::{DbParams, ParkingDb, QueryType, Workload};
use irisnet_core::{Endpoint, Message, OaConfig, OrganizingAgent, Status};
use irisobs::{check_well_formed, dump_jsonl, parse_spans, render_explain, MemRecorder};
use simnet::{Cluster, CostModel, DesCluster};

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "obs_trace.jsonl".into());

    let db = ParkingDb::generate(
        DbParams {
            cities: 1,
            neighborhoods_per_city: 2,
            blocks_per_neighborhood: 2,
            spaces_per_block: 2,
        },
        42,
    );
    let svc = db.service.clone();
    let carved = db.neighborhood_path(0, 1);

    let mut sim = DesCluster::new(CostModel::default());
    let rec = MemRecorder::new();
    sim.set_recorder(rec.clone());

    let oa1 = OrganizingAgent::new(SiteAddr(1), svc.clone(), OaConfig::default());
    oa1.db_mut().bootstrap_owned(&db.master, &db.root_path(), true).unwrap();
    oa1.db_mut().set_status_subtree(&carved, Status::Complete).unwrap();
    oa1.db_mut().evict(&carved).unwrap();
    let oa2 = OrganizingAgent::new(SiteAddr(2), svc.clone(), OaConfig::default());
    oa2.db_mut().bootstrap_owned(&db.master, &carved, true).unwrap();
    svc.register_owner(&mut sim.dns, &db.root_path(), SiteAddr(1));
    svc.register_owner(&mut sim.dns, &carved, SiteAddr(2));
    sim.add_site(oa1);
    sim.add_site(oa2);

    // The same spanning query twice (fill, then hit), plus one narrow query.
    let t3 = Workload::uniform(&db, QueryType::T3, 11).next_query();
    let t1 = Workload::uniform(&db, QueryType::T1, 7).next_query();
    for (i, q) in [t3.clone(), t3, t1].iter().enumerate() {
        sim.schedule_message(
            i as f64 * 50.0,
            SiteAddr(1),
            Message::UserQuery {
                qid: i as u64 + 1,
                text: q.clone(),
                endpoint: Endpoint(10_000 + i as u64),
            },
        );
    }
    sim.run_until(300.0);
    let replies = sim.take_unclaimed_detailed();
    assert_eq!(replies.len(), 3, "expected 3 replies, got {}", replies.len());

    // Export: spans + the metrics registry (agent counters published first).
    sim.publish_metrics();
    let spans = rec.take_spans();
    let dump = dump_jsonl(&spans, &rec.metrics().snapshot());
    std::fs::write(&out_path, &dump).expect("write JSONL dump");

    // Round-trip: the file we just wrote parses back into the same spans
    // and still passes every structural invariant.
    let reread = std::fs::read_to_string(&out_path).expect("re-read dump");
    let parsed = parse_spans(&reread).expect("parse dumped spans");
    assert_eq!(parsed.len(), spans.len(), "span count changed in round-trip");
    assert_eq!(parsed, spans, "spans changed in round-trip");
    let forest = check_well_formed(&parsed).expect("round-tripped forest well-formed");
    println!(
        "roundtrip ok: {} spans, {} query traces, {} transfer traces -> {}",
        spans.len(),
        forest.queries.len(),
        forest.transfers.len(),
        out_path
    );
    println!();

    for tree in &forest.queries {
        println!("{}", render_explain(tree));
        println!();
    }
}
