//! Experiment harness helpers: throughput runs, throughput windows and
//! table formatting.

use irisobs::{latency_percentiles, Percentiles};
use simnet::{CostModel, DesCluster};

/// The calibrated cost model used by all throughput experiments.
///
/// Engine CPU is *measured from the real handler* and scaled by
/// `cpu_scale = 220`, preserving the real relative costs of forwarding vs
/// answering vs gathering. With the native QEG executor a type-1 local
/// answer measures ~0.036 ms, i.e. ~8 ms scaled (`calibrate`); under the
/// XSLT engine it was ~30 ms, the ballpark of the paper's 2 GHz P4 +
/// Java 1.3 prototype (Fig. 11). The scale is kept, so faster engines
/// rescale every DES figure. Fixed costs cover message (de)construction
/// and update application (5 ms ⇒ the paper's 200 updates/s per OA).
pub fn paper_costs() -> CostModel {
    CostModel {
        net_latency: 0.001,
        msg_overhead: 0.003,
        query_cpu: 0.002,
        update_cpu: 0.005,
        cpu_scale: 220.0,
        dns_hop_latency: 0.002,
        doc_scan_cpu: 0.0,
    }
}

/// Results of one throughput run.
#[derive(Debug, Clone)]
pub struct ThroughputResult {
    /// Steady-state queries per second (completions after warmup).
    pub qps: f64,
    /// Latency percentiles over the measured window.
    pub latency: Percentiles,
    /// Total completed queries (including warmup).
    pub completed: usize,
    /// Fraction of failed queries.
    pub error_rate: f64,
}

/// Runs the simulator to `duration` (virtual seconds) and reports
/// steady-state throughput over `[warmup, duration]`.
pub fn run_throughput(sim: &mut DesCluster, duration: f64, warmup: f64) -> ThroughputResult {
    assert!(warmup < duration);
    sim.run_until(duration);
    let replies = sim.replies();
    let measured: Vec<_> = replies
        .iter()
        .filter(|r| r.completed_at >= warmup && r.completed_at <= duration)
        .collect();
    let errors = replies.iter().filter(|r| !r.ok).count();
    let lat: Vec<f64> = measured
        .iter()
        .map(|r| r.completed_at - r.posed_at)
        .collect();
    ThroughputResult {
        qps: measured.len() as f64 / (duration - warmup),
        latency: latency_percentiles(&lat),
        completed: replies.len(),
        error_rate: if replies.is_empty() {
            0.0
        } else {
            errors as f64 / replies.len() as f64
        },
    }
}

/// Buckets completion timestamps into `window`-second bins, returning
/// `(window start, completions per second)` pairs covering `[0, horizon)`.
pub fn throughput_series(completions: &[f64], window: f64, horizon: f64) -> Vec<(f64, f64)> {
    assert!(window > 0.0, "window must be positive");
    let bins = (horizon / window).ceil() as usize;
    let mut counts = vec![0u64; bins.max(1)];
    for &t in completions {
        if t >= 0.0 && t < horizon {
            counts[(t / window) as usize] += 1;
        }
    }
    counts
        .iter()
        .enumerate()
        .map(|(i, &c)| (i as f64 * window, c as f64 / window))
        .collect()
}

/// Formats one row of a fixed-width results table.
pub fn table_row(label: &str, values: &[f64]) -> String {
    let mut s = format!("{label:<50}");
    for v in values {
        s.push_str(&format!(" {v:>10.1}"));
    }
    s
}

/// Prints a table header plus separator.
pub fn table_header(label: &str, columns: &[&str]) -> String {
    let mut s = format!("{label:<50}");
    for c in columns {
        s.push_str(&format!(" {c:>10}"));
    }
    let len = s.len();
    s.push('\n');
    s.push_str(&"-".repeat(len));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formatting() {
        let h = table_header("Workload", &["QW-1", "QW-2"]);
        assert!(h.contains("QW-1"));
        assert!(h.contains("---"));
        let r = table_row("Architecture 4", &[61.25, 43.0]);
        assert!(r.contains("61.2") || r.contains("61.3"));
    }

    #[test]
    fn throughput_bins() {
        let completions = vec![0.1, 0.2, 1.5, 2.9];
        let series = throughput_series(&completions, 1.0, 3.0);
        assert_eq!(series.len(), 3);
        assert_eq!(series[0], (0.0, 2.0));
        assert_eq!(series[1], (1.0, 1.0));
        assert_eq!(series[2], (2.0, 1.0));
    }

    #[test]
    fn throughput_ignores_out_of_horizon() {
        let series = throughput_series(&[5.0, -1.0, 0.5], 1.0, 2.0);
        assert_eq!(series[0].1, 1.0);
        assert_eq!(series[1].1, 0.0);
    }
}
