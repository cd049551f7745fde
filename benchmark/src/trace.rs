//! Driver-side tracing: a span around every call the inline driver makes
//! into a layer's public functions, aggregated per span kind, with self
//! times (a span's duration minus what its children cover) and the
//! conservation check the layer table rests on.
//!
//! Spans are recorded from the benchmark's own files only (choosing-metrics
//! §4). Work that happens *inside* one agent call is priced three ways, all
//! from public surface: the phase fields `ReadDone` carries, the deltas of
//! the agent's public `OaStats` phase timers across the call, and — for
//! XML parse, fragment merge, XPATH parse, planning and update
//! application — a replay of the same input through the layer's public
//! function right after the call. Replay time is bookkept as tracing
//! overhead and taken out of the enclosing query span.

use std::time::Instant;

/// Every span kind the driver records. `Driver*` are roots (one per user
/// operation); the `Agent*`, `Read*`, wire, routing and resolver kinds are
/// timed calls directly under a root; the rest are derived children of an
/// `Agent*` / `Read*` span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Kind {
    DriverQuery,
    DriverUpdate,
    XpathParse,
    Route,
    Resolve,
    WireEncode,
    WireDecode,
    AgentUserQuery,
    AgentSubQuery,
    AgentSubAnswer,
    AgentUpdate,
    AgentCompleteRead,
    ReadExecute,
    ReadFinalizeUser,
    ReadFinalizeSite,
    QegPlan,
    QegCreate,
    QegExec,
    QegExtract,
    FragmentExport,
    XmlSerialize,
    XmlParse,
    FragmentMerge,
    FragmentApplyUpdate,
    StorageAppend,
    StorageSnapshot,
    EvictionEnforce,
}

pub const KINDS: usize = Kind::EvictionEnforce as usize + 1;

impl Kind {
    pub const ALL: [Kind; KINDS] = [
        Kind::DriverQuery,
        Kind::DriverUpdate,
        Kind::XpathParse,
        Kind::Route,
        Kind::Resolve,
        Kind::WireEncode,
        Kind::WireDecode,
        Kind::AgentUserQuery,
        Kind::AgentSubQuery,
        Kind::AgentSubAnswer,
        Kind::AgentUpdate,
        Kind::AgentCompleteRead,
        Kind::ReadExecute,
        Kind::ReadFinalizeUser,
        Kind::ReadFinalizeSite,
        Kind::QegPlan,
        Kind::QegCreate,
        Kind::QegExec,
        Kind::QegExtract,
        Kind::FragmentExport,
        Kind::XmlSerialize,
        Kind::XmlParse,
        Kind::FragmentMerge,
        Kind::FragmentApplyUpdate,
        Kind::StorageAppend,
        Kind::StorageSnapshot,
        Kind::EvictionEnforce,
    ];

    /// `(layer = repository module, span name)`.
    pub fn names(self) -> (&'static str, &'static str) {
        match self {
            Kind::DriverQuery => ("driver", "driver.query"),
            Kind::DriverUpdate => ("driver", "driver.update"),
            Kind::XpathParse => ("sensorxpath", "sensorxpath.parse"),
            Kind::Route => ("core::routing", "routing.route"),
            Kind::Resolve => ("irisdns", "irisdns.resolve"),
            Kind::WireEncode => ("simnet::wire", "wire.encode"),
            Kind::WireDecode => ("simnet::wire", "wire.decode"),
            Kind::AgentUserQuery => ("core::agent", "agent.user_query"),
            Kind::AgentSubQuery => ("core::agent", "agent.sub_query"),
            Kind::AgentSubAnswer => ("core::agent", "agent.sub_answer"),
            Kind::AgentUpdate => ("core::agent", "agent.update"),
            Kind::AgentCompleteRead => ("core::agent", "agent.complete_read"),
            Kind::ReadExecute => ("core::qeg", "read.execute"),
            Kind::ReadFinalizeUser => ("core::qeg", "read.finalize_user"),
            Kind::ReadFinalizeSite => ("core::qeg", "read.finalize_site"),
            Kind::QegPlan => ("core::qeg", "qeg.plan"),
            Kind::QegCreate => ("core::qeg", "qeg.create"),
            Kind::QegExec => ("core::qeg", "qeg.exec"),
            Kind::QegExtract => ("core::qeg", "qeg.extract"),
            Kind::FragmentExport => ("core::fragment", "fragment.export"),
            Kind::XmlSerialize => ("sensorxml", "sensorxml.serialize"),
            Kind::XmlParse => ("sensorxml", "sensorxml.parse"),
            Kind::FragmentMerge => ("core::fragment", "fragment.merge"),
            Kind::FragmentApplyUpdate => ("core::fragment", "fragment.apply_update"),
            Kind::StorageAppend => ("core::storage", "storage.append"),
            Kind::StorageSnapshot => ("core::storage", "storage.snapshot"),
            Kind::EvictionEnforce => ("core::eviction", "eviction.enforce"),
        }
    }

    pub fn is_root(self) -> bool {
        matches!(self, Kind::DriverQuery | Kind::DriverUpdate)
    }
}

/// One raw span, kept for the first [`RAW_OPERATIONS`] traced operations
/// and written as JSONL on request.
#[derive(Debug, Clone)]
pub struct RawSpan {
    pub kind: Kind,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the dump, `None` for a root.
    pub parent: Option<usize>,
    /// The user operation (query or update) this span belongs to.
    pub op: u64,
    /// False for a timed call, true for a duration taken from phase
    /// fields or a replay (placed at its parent's start).
    pub derived: bool,
}

/// Raw spans are kept for this many operations; aggregates cover all.
pub const RAW_OPERATIONS: u64 = 2_000;

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    total_ns: [u64; KINDS],
    child_ns: [u64; KINDS],
    count: [u64; KINDS],
    /// Time spent on replays and their inputs inside the open root span.
    overhead_in_op_ns: u64,
    raw: Vec<RawSpan>,
    op: u64,
    root_idx: Option<usize>,
    root_started: Option<Instant>,
    /// Index in `raw` of the latest timed call (parent of derived spans).
    last_call_idx: Option<usize>,
    last_call_start_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            total_ns: [0; KINDS],
            child_ns: [0; KINDS],
            count: [0; KINDS],
            overhead_in_op_ns: 0,
            raw: Vec::new(),
            op: 0,
            root_idx: None,
            root_started: None,
            last_call_idx: None,
            last_call_start_ns: 0,
        }
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn keep_raw(&self) -> bool {
        self.op <= RAW_OPERATIONS
    }

    /// Opens the root span of one user operation.
    pub fn begin_op(&mut self, kind: Kind) {
        debug_assert!(kind.is_root());
        self.op += 1;
        self.overhead_in_op_ns = 0;
        let now = Instant::now();
        self.root_started = Some(now);
        self.root_idx = None;
        if self.keep_raw() {
            let start = self.since_epoch(now);
            self.root_idx = Some(self.raw.len());
            self.raw.push(RawSpan {
                kind,
                start_ns: start,
                end_ns: start,
                parent: None,
                op: self.op,
                derived: false,
            });
        }
    }

    /// Closes the root span; returns its duration net of tracing overhead.
    pub fn end_op(&mut self, kind: Kind) -> u64 {
        let now = Instant::now();
        let started = self.root_started.take().expect("end_op without begin_op");
        let gross = now.duration_since(started).as_nanos() as u64;
        let net = gross.saturating_sub(self.overhead_in_op_ns);
        self.total_ns[kind as usize] += net;
        self.count[kind as usize] += 1;
        if let Some(i) = self.root_idx.take() {
            self.raw[i].end_ns = self.since_epoch(now);
        }
        net
    }

    /// Records a timed call directly under the open root.
    pub fn call(&mut self, kind: Kind, started: Instant) {
        let now = Instant::now();
        let ns = now.duration_since(started).as_nanos() as u64;
        self.total_ns[kind as usize] += ns;
        self.count[kind as usize] += 1;
        self.last_call_idx = None;
        if self.keep_raw() {
            let start_ns = self.since_epoch(started);
            self.last_call_start_ns = start_ns;
            self.last_call_idx = Some(self.raw.len());
            self.raw.push(RawSpan {
                kind,
                start_ns,
                end_ns: start_ns + ns,
                parent: self.root_idx,
                op: self.op,
                derived: false,
            });
        }
    }

    /// Records `ns` of `kind` as a child of the latest call of kind
    /// `parent` (phase fields, stats deltas, replays).
    pub fn derived(&mut self, parent: Kind, kind: Kind, ns: u64) {
        self.total_ns[kind as usize] += ns;
        self.count[kind as usize] += 1;
        self.child_ns[parent as usize] += ns;
        if self.keep_raw() {
            if let Some(p) = self.last_call_idx {
                self.raw.push(RawSpan {
                    kind,
                    start_ns: self.last_call_start_ns,
                    end_ns: self.last_call_start_ns + ns,
                    parent: Some(p),
                    op: self.op,
                    derived: true,
                });
            }
        }
    }

    /// Books time the tracer itself spent inside the open root (replays,
    /// cloning replay inputs); it is removed from the root's duration.
    pub fn overhead(&mut self, started: Instant) {
        let ns = started.elapsed().as_nanos() as u64;
        self.overhead_in_op_ns += ns;
    }

    pub fn total_ns(&self, kind: Kind) -> u64 {
        self.total_ns[kind as usize]
    }

    pub fn count(&self, kind: Kind) -> u64 {
        self.count[kind as usize]
    }

    /// A span kind's total minus what its derived children cover, clamped
    /// at zero (the clamped part is reported as overshoot).
    pub fn self_ns(&self, kind: Kind) -> u64 {
        self.total_ns[kind as usize].saturating_sub(self.child_ns[kind as usize])
    }

    pub fn spans_recorded(&self) -> u64 {
        self.count.iter().sum()
    }

    /// The layer table's conservation figures over all root spans.
    pub fn conservation(&self) -> Conservation {
        let root_ns = self.total_ns(Kind::DriverQuery) + self.total_ns(Kind::DriverUpdate);
        let mut attributed = 0u64;
        let mut overshoot = 0u64;
        for k in Kind::ALL {
            if k.is_root() {
                continue;
            }
            attributed += self.self_ns(k);
            overshoot += self.child_ns[k as usize].saturating_sub(self.total_ns[k as usize]);
        }
        Conservation {
            root_ns,
            attributed_ns: attributed,
            overshoot_ns: overshoot,
        }
    }

    /// The raw spans as JSONL: name, start, end, parent, operation id.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(self.raw.len() * 96);
        for (i, sp) in self.raw.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            s.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"derived\":{}}}\n",
                sp.kind.names().1,
                sp.start_ns,
                sp.end_ns,
                sp.op,
                sp.derived
            ));
        }
        s
    }
}

/// Σ layer self-times against Σ root durations.
#[derive(Debug, Clone, Copy)]
pub struct Conservation {
    pub root_ns: u64,
    /// Σ self-times of every non-root span kind.
    pub attributed_ns: u64,
    /// Derived time that exceeded its enclosing span (replay noise).
    pub overshoot_ns: u64,
}

impl Conservation {
    /// Share of root time no layer call accounts for, in percent. Negative
    /// when replays priced inner work above the enclosing span.
    pub fn unattributed_pct(&self) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        100.0 * (self.root_ns as f64 - self.attributed_ns as f64) / self.root_ns as f64
    }

    /// The asserted check: layer self-times sum to within 5 % of the root.
    pub fn holds(&self) -> bool {
        self.unattributed_pct().abs() <= 5.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn kind_table_is_dense_and_ordered() {
        for (i, k) in Kind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
        let mut names: Vec<&str> = Kind::ALL.iter().map(|k| k.names().1).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), KINDS, "span names are unique");
    }

    #[test]
    fn self_time_subtracts_children_and_conserves() {
        let mut t = Tracer::new();
        t.begin_op(Kind::DriverQuery);
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(4));
        t.call(Kind::AgentSubAnswer, t0);
        t.derived(Kind::AgentSubAnswer, Kind::XmlParse, 1_000_000);
        t.derived(Kind::AgentSubAnswer, Kind::FragmentMerge, 500_000);
        let root = t.end_op(Kind::DriverQuery);
        let call = t.total_ns(Kind::AgentSubAnswer);
        assert!(call >= 4_000_000 && root >= call);
        assert_eq!(t.self_ns(Kind::AgentSubAnswer), call - 1_500_000);
        let c = t.conservation();
        assert_eq!(c.root_ns, root);
        assert_eq!(c.attributed_ns, call);
        assert!(c.holds(), "unattributed {}", c.unattributed_pct());
        assert_eq!(t.spans_recorded(), 4);
    }

    #[test]
    fn overhead_is_removed_from_the_root() {
        let mut t = Tracer::new();
        t.begin_op(Kind::DriverQuery);
        let r0 = Instant::now();
        std::thread::sleep(Duration::from_millis(5));
        t.overhead(r0);
        let root = t.end_op(Kind::DriverQuery);
        assert!(root < 2_000_000, "root kept replay time: {root} ns");
    }

    #[test]
    fn jsonl_links_children_to_parents() {
        let mut t = Tracer::new();
        t.begin_op(Kind::DriverUpdate);
        let t0 = Instant::now();
        t.call(Kind::AgentUpdate, t0);
        t.derived(Kind::AgentUpdate, Kind::StorageAppend, 10);
        t.end_op(Kind::DriverUpdate);
        let dump = t.to_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(
            lines[0].contains("\"name\":\"driver.update\"") && lines[0].contains("\"parent\":null")
        );
        assert!(
            lines[1].contains("\"name\":\"agent.update\"") && lines[1].contains("\"parent\":0")
        );
        assert!(
            lines[2].contains("\"name\":\"storage.append\"") && lines[2].contains("\"parent\":1")
        );
    }
}
