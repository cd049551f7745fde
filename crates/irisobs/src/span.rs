//! The span model: one causally-linked record per unit of query work.
//!
//! A *span* is the atom of a distributed query trace. Every site-side
//! action taken on behalf of a user query — arrival, QEG execution pass,
//! outbound ask, retry, sub-answer merge, finalize, ownership-migration
//! hop — records exactly one span. Spans are causally parented through
//! [`Link`]: the resulting forest has one tree per user query (plus one
//! per ownership transfer), assembled by [`crate::explain`].
//!
//! The same shapes are recorded by the discrete-event simulator (virtual
//! time) and the sharded runtime (wall time); only the clock differs. That
//! is the point: the DES stays the *oracle for trace structure*, so a
//! sharded-runtime trace can be validated against a DES trace of the same
//! workload by comparing structure digests (see
//! [`crate::explain::structure_digest`]).

/// What kind of work a span covers. Ordered so canonical child sorting is
/// stable and meaningful (arrival → execution → asks → answers → finalize).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// A user query arriving at a site (client → site hop).
    UserQuery,
    /// A user query forwarded to the owning site after a migration.
    Forward,
    /// A sub-query arriving at a remote site (site → site hop).
    SubQuery,
    /// One QEG pass: compile/execute/gather phases, cache outcome.
    Execute,
    /// An outbound ask to a remote owner (one logical sub-query sent).
    Ask,
    /// A timed-out ask being resent.
    Retry,
    /// A sub-answer arriving back at the asking site (merge into QEG).
    SubAnswer,
    /// Final answer assembly and reply (to the user or the asking site).
    Finalize,
    /// Ownership migration: the delegating site handing a subtree off.
    MigrateOut,
    /// Ownership migration: the receiving site absorbing the subtree.
    MigrateIn,
    /// Ownership migration: the delegator demoting itself on ack.
    MigrateAck,
}

impl SpanKind {
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::UserQuery => "user-query",
            SpanKind::Forward => "forward",
            SpanKind::SubQuery => "sub-query",
            SpanKind::Execute => "execute",
            SpanKind::Ask => "ask",
            SpanKind::Retry => "retry",
            SpanKind::SubAnswer => "sub-answer",
            SpanKind::Finalize => "finalize",
            SpanKind::MigrateOut => "migrate-out",
            SpanKind::MigrateIn => "migrate-in",
            SpanKind::MigrateAck => "migrate-ack",
        }
    }

    pub fn parse(s: &str) -> Option<SpanKind> {
        Some(match s {
            "user-query" => SpanKind::UserQuery,
            "forward" => SpanKind::Forward,
            "sub-query" => SpanKind::SubQuery,
            "execute" => SpanKind::Execute,
            "ask" => SpanKind::Ask,
            "retry" => SpanKind::Retry,
            "sub-answer" => SpanKind::SubAnswer,
            "finalize" => SpanKind::Finalize,
            "migrate-out" => SpanKind::MigrateOut,
            "migrate-in" => SpanKind::MigrateIn,
            "migrate-ack" => SpanKind::MigrateAck,
            _ => return None,
        })
    }
}

/// How a query's cached view answered one QEG pass (paper §3.2).
///
/// Derived from the *first* execution pass of a query at a site: no fresh
/// asks means the cache covered the whole query (`Hit`); an ask at or above
/// the query's LCA means the cache contributed nothing (`Miss`); asks
/// strictly below the LCA mean the cached skeleton answered part of the
/// query and only sub-regions were fetched (`PartialMatch`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CacheOutcome {
    Hit,
    PartialMatch,
    Miss,
}

impl CacheOutcome {
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::PartialMatch => "partial-match",
            CacheOutcome::Miss => "miss",
        }
    }

    pub fn parse(s: &str) -> Option<CacheOutcome> {
        Some(match s {
            "hit" => CacheOutcome::Hit,
            "partial-match" => CacheOutcome::PartialMatch,
            "miss" => CacheOutcome::Miss,
            _ => return None,
        })
    }
}

/// Causal parentage. Cross-site edges carry no new wire fields: the asking
/// site's sub-query id already travels inside `SubQuery`/`SubAnswer`
/// messages, so a remote span links back via `(asker, sub_qid)` and the
/// assembler stitches the edge at explain time.
#[derive(Debug, Clone, PartialEq)]
pub enum Link {
    /// A trace root: the arrival of user query `qid` from `endpoint`.
    /// If several spans claim the same root key (a forwarded query, or a
    /// fault-duplicated delivery), the earliest is the root and later ones
    /// chain beneath it.
    Root { endpoint: u64, qid: u64 },
    /// Same-site parent, by span id.
    ChildOf { parent: u64 },
    /// Cross-site parent: the `Ask` span at site `asker` whose correlation
    /// id is `sub_qid`.
    Ask { asker: u32, sub_qid: u64 },
    /// An ownership-transfer trace, keyed by the migrating subtree's path.
    /// The `MigrateOut` span roots it; `MigrateIn`/`MigrateAck` chain on.
    Transfer { path: String },
}

/// QEG phase timings for one span, in seconds of the recording substrate's
/// clock. Zero when a phase did not run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Phases {
    /// Query-evaluation-graph construction (plan compile / skeleton fetch).
    pub compile: f64,
    /// XPath execution against the site database.
    pub execute: f64,
    /// Fragment extraction and answer serialization.
    pub gather: f64,
    /// Merging a remote fragment into the waiting QEG.
    pub merge: f64,
}

impl Phases {
    pub fn is_zero(&self) -> bool {
        self.compile == 0.0 && self.execute == 0.0 && self.gather == 0.0 && self.merge == 0.0
    }

    pub fn total(&self) -> f64 {
        self.compile + self.execute + self.gather + self.merge
    }

    pub fn add(&mut self, other: &Phases) {
        self.compile += other.compile;
        self.execute += other.execute;
        self.gather += other.gather;
        self.merge += other.merge;
    }
}

/// One recorded span. Identical shape in both substrates; `t0`/`dur`/
/// `queue_wait` are virtual seconds under the DES and wall seconds live.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Recorder-unique id (never 0; 0 is the "no parent" sentinel).
    pub id: u64,
    pub link: Link,
    /// Site that recorded the span.
    pub site: u32,
    pub kind: SpanKind,
    /// Start time (seconds on the recording substrate's clock).
    pub t0: f64,
    /// Duration of the work the span covers (seconds; 0 for point events).
    pub dur: f64,
    /// Time the triggering message spent queued before service began.
    pub queue_wait: f64,
    /// Correlation id: on `Ask`/`Retry` spans, the sub-query id the remote
    /// site will echo back; on `Finalize` spans, the number of partial
    /// stubs patched into the answer. 0 otherwise.
    pub corr: u64,
    /// Destination site for `Ask`/`Retry`/`Forward`/`MigrateOut` (0 = none).
    pub target: u32,
    /// Cache outcome, set on the first `Execute` span of a query at a site.
    pub cache: Option<CacheOutcome>,
    /// True when the span's answer was degraded (partial stub present).
    pub partial: bool,
    pub phases: Phases,
    /// Human-oriented context: query text class, ask path + kind, iteration
    /// number. Stable across substrates (no clocks, no ids).
    pub detail: String,
}

impl SpanRecord {
    /// A span with all optional fields zeroed; callers fill what applies.
    pub fn new(id: u64, link: Link, site: u32, kind: SpanKind, t0: f64) -> SpanRecord {
        SpanRecord {
            id,
            link,
            site,
            kind,
            t0,
            dur: 0.0,
            queue_wait: 0.0,
            corr: 0,
            target: 0,
            cache: None,
            partial: false,
            phases: Phases::default(),
            detail: String::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_round_trip() {
        for k in [
            SpanKind::UserQuery,
            SpanKind::Forward,
            SpanKind::SubQuery,
            SpanKind::Execute,
            SpanKind::Ask,
            SpanKind::Retry,
            SpanKind::SubAnswer,
            SpanKind::Finalize,
            SpanKind::MigrateOut,
            SpanKind::MigrateIn,
            SpanKind::MigrateAck,
        ] {
            assert_eq!(SpanKind::parse(k.label()), Some(k));
        }
        assert_eq!(SpanKind::parse("nope"), None);
    }

    #[test]
    fn cache_labels_round_trip() {
        for c in [CacheOutcome::Hit, CacheOutcome::PartialMatch, CacheOutcome::Miss] {
            assert_eq!(CacheOutcome::parse(c.label()), Some(c));
        }
    }

    #[test]
    fn phases_arithmetic() {
        let mut a = Phases { compile: 1.0, execute: 2.0, gather: 3.0, merge: 0.5 };
        assert!(!a.is_zero());
        assert_eq!(a.total(), 6.5);
        a.add(&Phases { compile: 0.5, ..Phases::default() });
        assert_eq!(a.compile, 1.5);
        assert!(Phases::default().is_zero());
    }
}
