//! irisobs — the observability plane for the irisnet workspace.
//!
//! One crate, four concerns, zero dependencies:
//!
//! - [`span`] / [`recorder`]: causally-linked distributed query traces
//!   behind a [`Recorder`] trait whose no-op default costs one branch per
//!   message. The same span shapes are recorded by the discrete-event
//!   simulator (virtual time) and the sharded runtime (wall time), so the DES
//!   remains the oracle for trace *structure*.
//! - [`metrics`]: per-site named series — lock-free counters and
//!   log2-bucket histograms.
//! - [`explain`]: trace assembly, structural invariants (single root per
//!   query, parent precedes child, no orphans), the `query explain`
//!   report, and the timing-free structure digest used for DES-vs-live
//!   equivalence checks.
//! - [`export`] / [`quantile`]: flat JSONL dump/parse and exact
//!   linear-interpolation percentiles.
//! - [`telemetry`]: the *continuous* plane — windowed rate/percentile
//!   series with order-insensitive mergeable deltas, per-fragment decayed
//!   heat series, a tail-sampled flight recorder of complete span trees,
//!   and the per-site health state machine; all of it scrapeable over the
//!   wire via `Message::TelemetryRequest/TelemetryReply`.

pub mod explain;
pub mod export;
pub mod metrics;
pub mod quantile;
pub mod recorder;
pub mod span;
pub mod telemetry;

pub use explain::{
    assemble, check_well_formed, explain_tree, render_explain, structure_digest, CacheCounts,
    ExplainReport, Forest, TraceNode, TraceTree,
};
pub use export::{dump_jsonl, metrics_to_jsonl, parse_spans, span_from_jsonl, span_to_jsonl};
pub use metrics::{
    Counter, CounterSnapshot, Histogram, HistogramSnapshot, MetricsSnapshot, Registry,
};
pub use quantile::{latency_percentiles, quantile_sorted, Percentiles};
pub use recorder::{MemRecorder, NoopRecorder, Recorder};
pub use span::{CacheOutcome, Link, Phases, SpanKind, SpanRecord};
pub use telemetry::{
    disabled_payload, parse_payload, FlightRing, FlightTrace, HealthState, ParsedPayload,
    ParsedTrace, TelemetryConfig, TelemetryPlane, TelemetryRecorder, WindowDelta, WHAT_ALL,
    WHAT_FLIGHT, WHAT_HEALTH, WHAT_METRICS,
};
