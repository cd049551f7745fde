//! # simnet
//!
//! Cluster substrates for the wide area sensor database. Both drive the
//! same [`irisnet_core::OrganizingAgent`] state machine:
//!
//! * [`shard`] — the **threaded runtime**: sites multiplex onto N shard
//!   event loops with shard-shared read worker pools, a shared
//!   authoritative DNS and wall-clock time; cross-shard messages pass
//!   through the length-framed binary [`wire`] codec exactly as a TCP
//!   transport would. N defaults to the core count (10,000-site
//!   hierarchies on one host); N = site count gives every site its own
//!   loop. Used by the examples, `exp_micro` (real engine latencies,
//!   Fig. 11) and the repository benchmark.
//! * [`des`] — a **discrete-event simulator**: virtual clock, per-site FIFO
//!   CPU queues with a calibratable [`des::CostModel`], deterministic
//!   message ordering. Used by the throughput/load-balancing/caching
//!   experiments (Figs. 7–10), where the quantity of interest is queueing
//!   and placement, not raw engine speed.
//!
//! Both implement [`Cluster`], the one interface a scenario drives them
//! through (see [`cluster`]).

pub mod cluster;
pub mod des;
pub(crate) mod fabric;
pub mod faults;
pub mod shard;
pub mod wire;

use std::sync::{Mutex, MutexGuard, PoisonError};

pub use cluster::{Cluster, Reply, Target};
pub use des::{ClientLoad, CostModel, DesCluster, ReplyRecord, UnclaimedReply};
pub use faults::{CrashWindow, FaultCounts, FaultPlan, FaultState};
pub use shard::{cache_stats_total, LiveReply, ShardClient, ShardConfig, ShardedCluster};
pub use wire::{decode_frame, encode_frame, split_frame, WireError, WIRE_VERSION};

/// Locks `m`, tolerating poison: a thread that panicked while holding a
/// runtime table leaves it consistent, and shutdown must still drain it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
