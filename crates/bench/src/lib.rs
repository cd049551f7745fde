//! # irisnet-bench
//!
//! Workload generators, the four sensor-database architectures of the
//! paper's Fig. 6, and the experiment harness reproducing every table and
//! figure of the evaluation (§5). The experiment binaries live in
//! `src/bin/exp_*.rs`; `exp_micro` is the Fig. 11 query-time breakdown.

pub mod arch;
pub mod parkingdb;
pub mod runner;
pub mod workload;

pub use arch::{build_cluster, Arch, BuiltCluster};
pub use parkingdb::{DbParams, ParkingDb};
pub use runner::{run_throughput, table_row, ThroughputResult};
pub use workload::{QueryType, ScaleHierarchy, Workload};
