//! The repository's benchmark. See `benchmark/README.md`.
//!
//! `irisnet-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1|path>`
//! runs one workload in this process and prints its result line last.
//! Without `--workload` every workload runs, each in a child process of its
//! own; `--check-repeat` runs two interleaved sets of those and compares
//! them against the benchmark's own bounds.

mod host;
mod inline;
mod oracle;
mod repeat;
mod report;
mod run;
mod stats;
mod store;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use run::{Options, Trace};
use workloads::Name;

const USAGE: &str =
    "usage: irisnet-benchmark [--workload engine_local|gather_wan|cache_zipf|update_mix] \
[--seed N] [--seconds S] [--trace 0|1|PATH] [--check-repeat]";

struct Args {
    workload: Option<Name>,
    seed: u64,
    seconds: f64,
    trace: Trace,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 24.0,
        trace: Trace::Off,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let v = value("a workload name")?;
                a.workload = Some(Name::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                a.trace = match value("0, 1 or a path")?.as_str() {
                    "0" => Trace::Off,
                    "1" => Trace::On(None),
                    path => Trace::On(Some(PathBuf::from(path))),
                }
            }
            "--check-repeat" => a.check_repeat = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.check_repeat {
        return repeat::check_repeat(args.seed, args.seconds);
    }
    match args.workload {
        Some(name) => {
            let outcome = run::run(&Options {
                name,
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
            });
            println!("{}", outcome.to_json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        None => repeat::run_all(args.seed, args.seconds, &args.trace),
    }
}
