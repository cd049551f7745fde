//! Child-process-per-workload runs: the all-workloads command and the
//! `--check-repeat` self-test (two interleaved sets of the same binary).

use std::process::{Command, ExitCode, Stdio};

use crate::report::{parse_result_line, ResultLine, END_TO_END};
use crate::run::Trace;
use crate::stats::Spread;
use crate::workloads::Name;

/// Rounds per set in `--check-repeat` (A B A B A B).
const ROUNDS: usize = 3;

/// Runs one workload in a child process of this executable (so peak RSS
/// and allocator state never leak between workloads), echoing its report.
fn run_child(name: Name, seed: u64, seconds: f64, trace: &str, echo: bool) -> Option<ResultLine> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args(["--workload", name.as_str(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", trace])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop()?;
    if echo {
        for l in &lines {
            println!("{l}");
        }
    }
    let mut result = parse_result_line(last)?;
    result.correct &= out.status.success();
    Some(result)
}

/// Every workload once, each in its own child process.
pub fn run_all(seed: u64, seconds: f64, trace: &Trace) -> ExitCode {
    let mut ok = true;
    for name in Name::ALL {
        let trace_arg = match trace {
            Trace::Off => "0".to_string(),
            Trace::On(None) => "1".to_string(),
            Trace::On(Some(p)) => format!("{}.{}", p.display(), name.as_str()),
        };
        match run_child(name, seed, seconds, &trace_arg, true) {
            Some(r) => {
                println!(
                    "  => {}: correct {} attempted {} failed {}\n",
                    name.as_str(),
                    r.correct,
                    r.attempted,
                    r.failed
                );
                ok &= r.correct;
            }
            None => {
                println!("  => {}: no result line\n", name.as_str());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Two interleaved sets (A B A B A B) of all workloads on the same binary.
/// Fails if any end-to-end metric's set medians differ by more than its
/// bound, or any `wan_*` value differs at all.
pub fn check_repeat(seed: u64, seconds: f64) -> ExitCode {
    let mut ok = true;
    // values[workload][metric][set] -> the set's values
    let mut values = vec![vec![[Vec::new(), Vec::new()]; END_TO_END.len()]; Name::ALL.len()];
    for round in 0..ROUNDS {
        for set in 0..2 {
            for (w, name) in Name::ALL.into_iter().enumerate() {
                eprintln!(
                    "check-repeat: round {} set {} {}",
                    round + 1,
                    ["A", "B"][set],
                    name.as_str()
                );
                let Some(r) = run_child(name, seed, seconds, "0", false) else {
                    println!("{}: no result line", name.as_str());
                    return ExitCode::FAILURE;
                };
                ok &= r.correct;
                for (m, (metric, ..)) in END_TO_END.iter().enumerate() {
                    let v = r.metrics.iter().find(|(n, _)| n == metric).map(|(_, v)| *v);
                    values[w][m][set].push(v.unwrap_or(f64::NAN));
                }
            }
        }
    }
    println!(
        "{:<13} {:<20} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "diff %", "IQR %", "bound %"
    );
    for (w, name) in Name::ALL.into_iter().enumerate() {
        for (m, (metric, _, better, bound)) in END_TO_END.iter().enumerate() {
            let [a, b] = &values[w][m];
            let (sa, sb) = (Spread::of(a), Spread::of(b));
            let all: Vec<f64> = a.iter().chain(b).copied().collect();
            let spread = Spread::of(&all);
            // How much worse the second set reads than the first.
            let worse = if *better == "higher" {
                (sa.median - sb.median) / sa.median
            } else {
                (sb.median - sa.median) / sa.median
            };
            let exact = metric.starts_with("wan_");
            let pass = if exact {
                all.iter().all(|v| *v == all[0])
            } else {
                worse.abs() <= *bound
            };
            ok &= pass;
            println!(
                "{:<13} {:<20} {:>12.4} {:>12.4} {:>8.2} {:>8.2} {:>7.1}  {} (q1 {:.4} q3 {:.4})",
                name.as_str(),
                metric,
                sa.median,
                sb.median,
                worse * 100.0,
                spread.iqr_share() * 100.0,
                bound * 100.0,
                if pass { "ok" } else { "FAIL" },
                spread.q1,
                spread.q3
            );
        }
    }
    if ok {
        println!("check-repeat: two sets of the same binary agree within the benchmark's bounds");
        ExitCode::SUCCESS
    } else {
        println!("check-repeat: FAILED");
        ExitCode::FAILURE
    }
}
