//! # irisnet-core
//!
//! The core of the Cache-and-Query system (SIGMOD 2003): distributed XPATH
//! query processing over a single logical XML document fragmented across
//! sites, with query-driven caching, partial-match reuse, query-based
//! consistency and dynamic ownership migration.
//!
//! Layering (bottom-up):
//!
//! * [`service`] — service schemas (IDable hierarchy, DNS suffix);
//! * [`idable`] — ID paths and local (ID) information (Defs. 3.1/3.2);
//! * [`fragment`] — per-site databases, statuses, invariants I1/I2,
//!   merging under C1/C2, eviction ([`fragment::SiteDatabase`]);
//! * [`qeg`] — query-evaluate-gather: query plans, the native plan-driven
//!   walk, and the paper's XPATH → XSLT compilation (naive and fast) kept
//!   as its oracle, subquery generation (§3.5, §4);
//! * [`routing`] — self-starting distributed queries via DNS names derived
//!   from the query text (§3.4);
//! * [`agent`] — the organizing agent state machine (queries, subqueries,
//!   updates, caching policy, consistency) and sensing agents;
//! * [`migration`] — atomic ownership transfer and load balancing (§4).

pub mod agent;
pub mod continuous;
pub mod error;
pub mod eviction;
pub mod fragment;
pub mod idable;
pub mod migration;
pub mod obs;
pub mod qeg;
pub mod routing;
pub mod schema_change;
pub mod service;
pub mod storage;

pub use agent::{
    perform_read, CacheMode, Endpoint, HandleOutcome, Message, OaConfig, OaStats,
    OrganizingAgent, Outbound, QueryId, ReadContext, ReadDone, ReadResult, ReadTask,
    ReadTaskKind, RetryPolicy, SensingAgent,
};
pub use continuous::{ContinuousRegistry, Notification};
pub use error::{CoreError, CoreResult};
pub use eviction::{
    CacheBudget, CacheLookup, CacheManager, CacheStats, EvictionPolicy, HEAT_HALF_LIFE,
};
pub use fragment::{FragmentStats, SiteDatabase, Status, UnitCost};
pub use idable::IdPath;
pub use obs::ObsPlane;
pub use qeg::{QegEngine, QegFactory, QegOutcome, QegPass};
pub use routing::lca_dns_name;
pub use service::{Schema, Service};
pub use storage::{
    DurabilityConfig, FileBackend, MemoryBackend, RecoveredState, RecoveryStats,
    SiteStore, SiteWal, StorageBackend, StorageError, WalRecord,
};
