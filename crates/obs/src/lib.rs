//! `aiac-obs` — the observability plane of the AIAC workspace.
//!
//! The paper's whole argument is made by *observing* runtime behaviour, so
//! this crate gives every layer of the reproduction — the threaded runtime,
//! the simulated runtime over netsim hosts, and the multi-tenant service —
//! one shared vocabulary for what happened and when:
//!
//! * [`event::Event`] — a fixed-size trace record (span begin/end/complete,
//!   instant, counter) whose name is a `&'static str` by construction, so
//!   emitting one never allocates;
//! * [`ring::EventRing`] — a bounded ring that keeps the *newest* events and
//!   counts overwrites exactly;
//! * [`tracer::Tracer`] — hands out per-worker [`tracer::TrackRecorder`]s
//!   that own their ring outright (no lock on the hot path) and collects
//!   them into a [`tracer::TraceSnapshot`] when the run ends. When tracing
//!   is disabled the emit path is a single relaxed load and a branch;
//! * [`metrics::MetricsRegistry`] — named counters / gauges / log2-bucket
//!   histograms with one snapshot API, the single source of truth the bench
//!   harness derives its gateable metric lists from;
//! * [`chrome`] — a deterministic Chrome trace-event JSON exporter (open the
//!   file in Perfetto or `chrome://tracing`) plus the in-repo schema checker
//!   CI validates exported traces against;
//! * [`summary`] — deterministic text renderings of a snapshot: a summary
//!   with log2-bucket latency histograms per span name, and an ASCII
//!   timeline per track (the simulator's Figures 1–2), which reports every
//!   truncated track.
//!
//! The crate is dependency-free apart from the workspace's vendored serde
//! shims, and contains no `unsafe` at all.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod metrics;
pub mod ring;
pub mod summary;
pub mod tracer;

pub use chrome::{to_chrome_json, validate_chrome_trace, ChromeTraceStats};
pub use event::{Event, EventKind};
pub use metrics::{Log2Histogram, MetricDirection, MetricEntry, MetricKind, MetricsRegistry};
pub use ring::EventRing;
pub use summary::{text_summary, text_timeline};
pub use tracer::{Layer, TraceConfig, TraceSnapshot, Tracer, Track, TrackRecorder};
