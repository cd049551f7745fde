//! The correctness gate: the same operation prefix answered again by the
//! repository's discrete-event simulator (`cpu_scale = 0`, the serial
//! reference every equivalence suite in the repository compares against),
//! built from the same topology and configuration. Canonical answers must
//! be byte-equal. Oracle time is outside every metric.

use irisnet_core::routing::route_query;
use irisnet_core::{Endpoint, Message, OaConfig};
use simnet::{CostModel, DesCluster};

use crate::workloads::{Op, Topology};

/// Virtual seconds between two scheduled operations: far more than any
/// operation's simulated duration, so the simulator handles them strictly
/// one after another, as the closed-loop driver does.
const SPACING: f64 = 1.0;

/// Operations handed to the simulator per batch (bounds its event heap).
const BATCH: usize = 4_096;

/// The canonical form answers are compared in: attribute and sibling order
/// do not matter, content does. An unparsable answer compares as itself.
pub fn canonical(xml: &str) -> String {
    match sensorxml::parse(xml) {
        Ok(doc) => match doc.root() {
            Some(root) => sensorxml::canonical_string(&doc, root),
            None => String::new(),
        },
        Err(_) => xml.to_string(),
    }
}

/// Runs `ops` through a fresh simulator and returns, for each of the last
/// `keep` queries, its canonical answer — or `None` if the simulator did
/// not answer it exactly (`ok` and not `partial`).
pub fn des_answers(
    topo: &Topology,
    config: &OaConfig,
    ops: &[Op],
    keep: usize,
) -> Vec<Option<String>> {
    let service = topo.db().service.clone();
    let mut sim = DesCluster::new(CostModel {
        cpu_scale: 0.0,
        ..CostModel::default()
    });
    for (path, addr) in &topo.owners {
        sim.dns.register(&service.dns_name(path), *addr);
    }
    for a in topo.make_agents(config) {
        sim.add_site(a);
    }
    let total_queries = ops.iter().filter(|o| matches!(o, Op::Query(_))).count();
    let first_kept = total_queries.saturating_sub(keep);
    let mut answers: Vec<Option<String>> = vec![None; total_queries - first_kept];
    let mut qid = 0u64;
    let mut t = 0.0;
    for batch in ops.chunks(BATCH) {
        for op in batch {
            t += SPACING;
            match op {
                Op::Query(text) => {
                    // The front-end's self-starting routing (§3.4) against
                    // the authoritative store.
                    let target = route_query(text, &service)
                        .ok()
                        .and_then(|(_, _, name)| sim.dns.lookup(&name))
                        .map(|a| a.addr);
                    if let Some(target) = target {
                        sim.schedule_message(
                            t,
                            target,
                            Message::UserQuery {
                                qid,
                                text: text.clone(),
                                endpoint: Endpoint(1 << 40),
                            },
                        );
                    }
                    qid += 1;
                }
                Op::Update { to, msg } => sim.schedule_message(t, *to, msg.clone()),
            }
        }
        t += SPACING;
        sim.run_until(t);
        for r in sim.take_unclaimed_detailed() {
            let idx = r.qid as usize;
            if idx >= first_kept && r.ok && !r.partial {
                answers[idx - first_kept] = Some(canonical(&r.answer_xml));
            }
        }
    }
    answers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inline::InlineCluster;
    use crate::workloads::{oa_config, Name, Stream, Target};

    #[test]
    fn canonical_ignores_sibling_order_only() {
        let a = canonical("<r><b id=\"2\">x</b><b id=\"1\">y</b></r>");
        let b = canonical("<r><b id=\"1\">y</b><b id=\"2\">x</b></r>");
        let c = canonical("<r><b id=\"1\">z</b><b id=\"2\">x</b></r>");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(canonical("not xml <"), "not xml <");
    }

    #[test]
    fn simulator_and_inline_driver_agree_with_updates_interleaved() {
        let name = Name::UpdateMix;
        let topo = Topology::build(name);
        let cfg = oa_config(name);
        let ops = Stream::new(name, &topo.h, 5).take(60);
        let expected = des_answers(&topo, &cfg, &ops, 40);
        assert_eq!(expected.len(), 40);
        let mut inline = InlineCluster::new(
            topo.db().service.clone(),
            topo.make_agents(&cfg),
            &topo.owners,
        );
        let mut got = Vec::new();
        for op in &ops {
            if let Some(reply) = inline.apply(op) {
                let r = reply.expect("inline answer");
                assert!(r.ok && !r.partial);
                got.push(canonical(&r.answer_xml));
            }
        }
        let got = &got[20..];
        for (i, (e, g)) in expected.iter().zip(got).enumerate() {
            assert_eq!(
                e.as_deref(),
                Some(g.as_str()),
                "query {i} of the kept suffix differs"
            );
        }
        // The check has teeth: a different stream does not match.
        let other = des_answers(&topo, &cfg, &Stream::new(name, &topo.h, 6).take(60), 40);
        assert_ne!(other, expected);
    }
}
