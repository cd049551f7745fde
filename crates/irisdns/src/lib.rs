//! # irisdns
//!
//! A simulated hierarchical DNS, sufficient for IrisNet's *self-starting
//! distributed queries* (paper §3.4):
//!
//! * every IDable node that can own data gets a DNS-style name built from
//!   the ids on its root path (`pittsburgh.allegheny.pa.ne.parking.intel-iris.net`);
//! * an [`AuthoritativeDns`] maps names to site addresses and is updated
//!   when ownership migrates (§4);
//! * each client uses a [`CachingResolver`] with per-entry TTLs — cached
//!   entries answer "nearby" (zero extra hops), misses walk the zone
//!   hierarchy; after a migration, caches may serve **stale** addresses,
//!   which the query layer tolerates because the old owner forwards.
//!
//! Time is always passed in explicitly (seconds as `f64`), so the module is
//! deterministic and works under both the sharded runtime and the
//! discrete-event simulator.

pub mod name;
pub mod resolver;
pub mod server;

pub use name::DnsName;
pub use resolver::{CachingResolver, ResolveOutcome};
pub use server::{AuthoritativeDns, SiteAddr};
