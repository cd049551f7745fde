//! Metric names, units and directions — the one list `BENCHMARK.json`, the
//! README and the printed output share — and the result line.

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// `(name, unit, better, bound)`: what a user of the system sees. `bound`
/// is the share of the parent's median by which the metric may worsen, and
/// by which two sets of runs of the same code may differ (`--check-repeat`
/// holds the benchmark to it). The wall-clock timings have the widest bound
/// the driver's contract allows: it wants a bound three times the ten-seed
/// spread, and on the shared host that spread is 2-6 % on a calm day and
/// reached 11 % on `qps` in the driver's own check (README, noise study).
/// `p95_ms` cannot hold even that (16-59 %) and is in the per-layer list.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("qps", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("wan_msgs_per_query", "count", "lower", 0.01),
    ("wan_bytes_per_query", "bytes", "lower", 0.01),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)`: single layers, from the traced run.
pub const PER_LAYER: [(&str, &str, &str); 69] = [
    ("p95_ms", "ms", "lower"),
    ("driver.query_us", "us", "lower"),
    ("driver.unattributed_pct", "%", "lower"),
    ("driver.sites_per_query", "count", "lower"),
    ("driver.hops_per_query", "count", "lower"),
    ("host.slice_spread_pct", "%", "lower"),
    ("host.runqueue_wait_pct", "%", "lower"),
    ("host.reference_chunk_us", "us", "lower"),
    ("sensorxpath.parse_us", "us", "lower"),
    ("qeg.plan_us", "us", "lower"),
    ("routing.route_us", "us", "lower"),
    ("irisdns.resolve_us", "us", "lower"),
    ("irisdns.cache_hit_ratio", "ratio", "higher"),
    ("qeg.create_us", "us", "lower"),
    ("qeg.exec_us", "us", "lower"),
    ("qeg.extract_us", "us", "lower"),
    ("qeg.skeleton_hit_ratio", "ratio", "higher"),
    ("read.execute_us", "us", "lower"),
    ("read.finalize_user_us", "us", "lower"),
    ("read.finalize_site_us", "us", "lower"),
    ("sensorxml.serialize_us", "us", "lower"),
    ("sensorxml.parse_us", "us", "lower"),
    ("sensorxml.parse_us_per_kb", "us/KiB", "lower"),
    ("sensorxml.serialize_us_per_kb", "us/KiB", "lower"),
    ("wire.encode_us", "us", "lower"),
    ("wire.decode_us", "us", "lower"),
    ("wire.frames_per_query", "count", "lower"),
    ("wire.bytes_per_query", "bytes", "lower"),
    ("wire.sub_answer_bytes_per_query", "bytes", "lower"),
    ("agent.user_query_us", "us", "lower"),
    ("agent.sub_query_us", "us", "lower"),
    ("agent.sub_answer_us", "us", "lower"),
    ("agent.complete_read_us", "us", "lower"),
    ("agent.update_us", "us", "lower"),
    ("agent.subqueries_per_query", "count", "lower"),
    ("agent.batches_per_query", "count", "lower"),
    ("agent.forwards_per_query", "count", "lower"),
    ("agent.cache_merges_per_query", "count", "lower"),
    ("agent.partial_answers", "count", "lower"),
    ("agent.retries", "count", "lower"),
    ("fragment.merge_us", "us", "lower"),
    ("fragment.export_us", "us", "lower"),
    ("fragment.apply_update_us", "us", "lower"),
    ("eviction.hit_ratio", "ratio", "higher"),
    ("eviction.partial_ratio", "ratio", "higher"),
    ("eviction.evictions_per_kq", "count", "lower"),
    ("eviction.admission_rejects_per_kq", "count", "lower"),
    ("eviction.enforce_us", "us", "lower"),
    ("eviction.cached_nodes", "count", "lower"),
    ("storage.append_us", "us", "lower"),
    ("storage.snapshot_us", "us", "lower"),
    ("storage.wal_bytes_per_update", "bytes", "lower"),
    ("storage.wal_appends_per_update", "count", "lower"),
    ("storage.snapshots_per_kupdate", "count", "lower"),
    ("storage.append_errors", "count", "lower"),
    ("storage.dir_bytes_per_live_byte", "ratio", "lower"),
    ("storage.recovery_ms", "ms", "lower"),
    ("storage.replay_records_per_s", "1/s", "higher"),
    ("shard.runtime_us_per_query", "us", "lower"),
    ("shard.mailbox_wait_p50_us", "us", "lower"),
    ("shard.mailbox_wait_p99_us", "us", "lower"),
    ("shard.threads", "count", "lower"),
    ("irisobs.spans_per_query", "count", "lower"),
    ("irisobs.trace_overhead_pct", "%", "lower"),
    ("process.cpu_us_per_query", "us", "lower"),
    ("driver.update_us", "us", "lower"),
    ("share.engine_pct", "%", "lower"),
    ("share.communication_pct", "%", "lower"),
    ("share.update_pct", "%", "lower"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|(n, u, _, _)| (*n, *u))
        .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's list"))
}

/// Builds a metric, taking its unit from the list (an unlisted name is a
/// bug in the benchmark).
pub fn metric(name: &'static str, value: f64) -> Metric {
    Metric {
        name,
        value,
        unit: unit_of(name),
    }
}

/// What one workload run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn number(v: f64) -> String {
    // All digits, never NaN/inf (not JSON): a non-finite value is a bug
    // upstream, reported as such.
    assert!(v.is_finite(), "non-finite metric value");
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

impl Outcome {
    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A result line read back by the parent of a child-process-per-workload
/// run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

pub fn parse_result_line(line: &str) -> Option<ResultLine> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim())
    };
    let correct = field("correct")? == "true";
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let mut metrics = Vec::new();
    let mut rest = &line[line.find("\"metrics\": {")? + 12..];
    while let Some(q) = rest.find('"') {
        let after = &rest[q + 1..];
        let name_end = after.find('"')?;
        let name = &after[..name_end];
        let Some(v) = after[name_end + 1..].strip_prefix(": {\"value\": ") else {
            break;
        };
        let v_end = v.find(',')?;
        metrics.push((name.to_string(), v[..v_end].trim().parse().ok()?));
        rest = &v[v.find('}')? + 1..];
    }
    Some(ResultLine {
        correct,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for name in names {
            assert!(name.len() <= 64);
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        for (_, unit, _) in PER_LAYER {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"name\": ").count(),
            4 + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn result_line_round_trips() {
        let o = Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                metric("qps", 4312.25),
                metric("setup_s", 1.0),
                metric("p50_ms", 2.5e-3),
            ],
        };
        let line = o.to_json();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.0, \"unit\": \"s\"}"));
        let r = parse_result_line(&line).unwrap();
        assert!(r.correct && r.attempted == 1000 && r.failed == 0);
        assert_eq!(
            r.metrics,
            vec![
                ("qps".to_string(), 4312.25),
                ("setup_s".to_string(), 1.0),
                ("p50_ms".to_string(), 0.0025)
            ]
        );
    }
}
