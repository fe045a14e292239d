//! The tracer: per-worker recorders feeding one collected snapshot.
//!
//! Ownership is the whole design. A [`TrackRecorder`] *owns* its
//! [`EventRing`] outright, so the emit hot path is: one relaxed load of the
//! shared enabled flag, one branch, one write into worker-local memory — no
//! lock, no allocation, no sharing. When a recorder is dropped (worker
//! exit) its ring moves into the tracer's collected list behind a mutex
//! that is touched once per worker *lifetime*, not once per event.
//!
//! Real runtimes stamp events with the tracer's monotonic clock
//! ([`TrackRecorder::now_ns`]); virtual-clock runtimes (the simulated
//! runtime, the service's virtual replay) pass explicit timestamps through
//! the `*_at` methods, which is what makes their exported traces
//! bit-identical across runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::event::{Event, EventKind};
use crate::ring::EventRing;

/// Default per-track ring capacity, in events.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// Tracing knobs carried by `RunConfig` / `ServiceConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Master switch. Off means every emit is a relaxed load and a branch.
    pub enabled: bool,
    /// Per-track ring capacity, in events (newest win on overflow).
    pub ring_capacity: usize,
}

impl TraceConfig {
    /// Tracing disabled — the zero-cost default.
    pub const fn off() -> Self {
        TraceConfig {
            enabled: false,
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }

    /// Tracing enabled at the default ring capacity.
    pub const fn on() -> Self {
        TraceConfig {
            enabled: true,
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }

    /// The same config with a different per-track ring capacity.
    pub const fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::off()
    }
}

/// Which layer of the system a track belongs to. Becomes the Chrome trace
/// process (`pid`) so Perfetto groups worker, host and tenant timelines
/// separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The threaded runtime's OS workers.
    Runtime,
    /// Simulated netsim hosts on the virtual clock.
    Netsim,
    /// The multi-tenant service (tenants, service workers).
    Service,
}

impl Layer {
    /// Every layer, in export order.
    pub const ALL: [Layer; 3] = [Layer::Runtime, Layer::Netsim, Layer::Service];

    /// The Chrome trace process id this layer exports under.
    pub fn pid(self) -> u64 {
        match self {
            Layer::Runtime => 1,
            Layer::Netsim => 2,
            Layer::Service => 3,
        }
    }

    /// The Chrome trace category string, also used by the schema checker to
    /// assert which layers a trace covers.
    pub fn cat(self) -> &'static str {
        match self {
            Layer::Runtime => "runtime",
            Layer::Netsim => "netsim",
            Layer::Service => "service",
        }
    }
}

/// One finished track: a named timeline of events within a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Track {
    /// The layer (Chrome process) this timeline belongs to.
    pub layer: Layer,
    /// Human-readable track name (`worker-3`, `host-17`, `tenant-0`).
    pub name: String,
    /// Chrome thread id within the layer; also the track sort key.
    pub tid: u64,
    /// The recorded events.
    pub ring: EventRing,
}

impl Track {
    /// The `(start_ns, end_ns)` of every retained complete span named
    /// `name`, oldest first.
    pub fn spans<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (u64, u64)> + 'a {
        self.ring
            .iter_in_order()
            .filter(move |e| e.kind == EventKind::Complete && e.name == name)
            .map(|e| (e.time_ns, e.extra))
    }

    /// Total nanoseconds covered by the retained complete spans named
    /// `name` — e.g. a host's busy time is `span_ns("compute")`.
    pub fn span_ns(&self, name: &str) -> u64 {
        self.spans(name).map(|(s, e)| e.saturating_sub(s)).sum()
    }
}

/// Everything recorders share.
struct SharedState {
    enabled: AtomicBool,
    ring_capacity: usize,
    origin: Instant,
    collected: Mutex<Vec<Track>>,
}

/// The tracing front end: hands out recorders, collects their rings.
/// Cloning is cheap (an `Arc` bump) and all clones feed one snapshot.
#[derive(Clone)]
pub struct Tracer {
    shared: Arc<SharedState>,
}

impl Tracer {
    /// A tracer configured by `config`.
    pub fn new(config: TraceConfig) -> Self {
        Tracer {
            shared: Arc::new(SharedState {
                enabled: AtomicBool::new(config.enabled),
                ring_capacity: if config.enabled {
                    config.ring_capacity
                } else {
                    0
                },
                origin: Instant::now(),
                collected: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A disabled tracer: recorders exist, emits are a load and a branch,
    /// nothing is retained.
    pub fn disabled() -> Self {
        Tracer::new(TraceConfig::off())
    }

    /// Whether emits currently record anything.
    pub fn is_enabled(&self) -> bool {
        // ord: stat-style flag — readers only need to eventually observe
        // the setup-time value; no data is published through this load.
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Creates an owned recorder for one track. `tid` orders tracks within
    /// the layer in the export.
    pub fn recorder(&self, layer: Layer, name: impl Into<String>, tid: u64) -> TrackRecorder {
        TrackRecorder {
            shared: Arc::clone(&self.shared),
            layer,
            name: name.into(),
            tid,
            ring: EventRing::new(self.shared.ring_capacity),
        }
    }

    /// Nanoseconds since the tracer was created (monotonic clock).
    pub fn now_ns(&self) -> u64 {
        self.shared.origin.elapsed().as_nanos() as u64
    }

    /// The collected tracks so far, sorted by (layer, tid, name) — every
    /// recorder dropped or finished up to this point contributes. Tracks
    /// that never recorded an event are omitted.
    pub fn snapshot(&self) -> TraceSnapshot {
        let collected = self
            .shared
            .collected
            .lock()
            .expect("tracer collection mutex poisoned");
        let mut tracks: Vec<Track> = collected
            .iter()
            .filter(|t| t.ring.total_pushed() > 0)
            .cloned()
            .collect();
        drop(collected);
        tracks.sort_by(|a, b| (a.layer, a.tid, &a.name).cmp(&(b.layer, b.tid, &b.name)));
        TraceSnapshot { tracks }
    }
}

/// An owned, single-writer event recorder for one track.
///
/// Not `Sync` by design: a recorder belongs to exactly one worker, which is
/// what guarantees records are never torn or interleaved. Control-plane
/// code that genuinely shares a track (the service's tenant timelines)
/// wraps a recorder in the mutex it already holds.
pub struct TrackRecorder {
    shared: Arc<SharedState>,
    layer: Layer,
    name: String,
    tid: u64,
    ring: EventRing,
}

impl TrackRecorder {
    /// Whether emits currently record anything — one relaxed load. Callers
    /// use this to skip argument computation entirely on the off path.
    #[inline]
    pub fn enabled(&self) -> bool {
        // ord: stat-style flag — see Tracer::is_enabled.
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the owning tracer was created (monotonic clock).
    /// Returns 0 when disabled so the off path never reads the clock.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        if !self.enabled() {
            return 0;
        }
        self.shared.origin.elapsed().as_nanos() as u64
    }

    #[inline]
    fn emit(&mut self, kind: EventKind, name: &'static str, time_ns: u64, extra: u64, arg: u64) {
        if !self.enabled() {
            return;
        }
        self.ring.push(Event::new(kind, name, time_ns, extra, arg));
    }

    /// Opens a span now.
    #[inline]
    pub fn span_begin(&mut self, name: &'static str, arg: u64) {
        let t = self.now_ns();
        self.emit(EventKind::Begin, name, t, 0, arg);
    }

    /// Opens a span at an explicit (virtual) timestamp.
    #[inline]
    pub fn span_begin_at(&mut self, name: &'static str, time_ns: u64, arg: u64) {
        self.emit(EventKind::Begin, name, time_ns, 0, arg);
    }

    /// Closes the innermost span of `name` now.
    #[inline]
    pub fn span_end(&mut self, name: &'static str, arg: u64) {
        let t = self.now_ns();
        self.emit(EventKind::End, name, t, 0, arg);
    }

    /// Closes the innermost span of `name` at an explicit timestamp.
    #[inline]
    pub fn span_end_at(&mut self, name: &'static str, time_ns: u64, arg: u64) {
        self.emit(EventKind::End, name, time_ns, 0, arg);
    }

    /// Records a whole span in one push — the hot-path shape: capture
    /// `start = now_ns()` before the work, call this after.
    #[inline]
    pub fn span_complete(&mut self, name: &'static str, start_ns: u64, end_ns: u64, arg: u64) {
        self.emit(EventKind::Complete, name, start_ns, end_ns, arg);
    }

    /// Records a point-in-time marker now.
    #[inline]
    pub fn instant(&mut self, name: &'static str, arg: u64) {
        let t = self.now_ns();
        self.emit(EventKind::Instant, name, t, 0, arg);
    }

    /// Records a point-in-time marker at an explicit timestamp.
    #[inline]
    pub fn instant_at(&mut self, name: &'static str, time_ns: u64, arg: u64) {
        self.emit(EventKind::Instant, name, time_ns, 0, arg);
    }

    /// Samples a counter now.
    #[inline]
    pub fn counter(&mut self, name: &'static str, value: u64) {
        let t = self.now_ns();
        self.emit(EventKind::Counter, name, t, value, 0);
    }

    /// Samples a counter at an explicit timestamp.
    #[inline]
    pub fn counter_at(&mut self, name: &'static str, time_ns: u64, value: u64) {
        self.emit(EventKind::Counter, name, time_ns, value, 0);
    }

    /// Hands the ring back to the tracer explicitly (Drop does the same).
    pub fn finish(self) {}
}

impl Drop for TrackRecorder {
    fn drop(&mut self) {
        if self.ring.total_pushed() == 0 {
            return;
        }
        let track = Track {
            layer: self.layer,
            name: std::mem::take(&mut self.name),
            tid: self.tid,
            ring: std::mem::replace(&mut self.ring, EventRing::new(0)),
        };
        if let Ok(mut collected) = self.shared.collected.lock() {
            collected.push(track);
        }
    }
}

/// Every collected track of a finished (or quiescent) run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSnapshot {
    /// Tracks sorted by (layer, tid, name).
    pub tracks: Vec<Track>,
}

impl TraceSnapshot {
    /// True when no track recorded anything.
    pub fn is_empty(&self) -> bool {
        self.tracks.is_empty()
    }

    /// Total events retained across all tracks.
    pub fn total_events(&self) -> u64 {
        self.tracks.iter().map(|t| t.ring.len() as u64).sum()
    }

    /// Total events overwritten (or discarded) across all tracks.
    pub fn total_dropped(&self) -> u64 {
        self.tracks.iter().map(|t| t.ring.dropped()).sum()
    }

    /// The layers that contributed at least one track.
    pub fn layers(&self) -> Vec<Layer> {
        let mut layers: Vec<Layer> = self.tracks.iter().map(|t| t.layer).collect();
        layers.sort();
        layers.dedup();
        layers
    }

    /// Folds another snapshot in, re-sorting tracks into canonical order.
    /// Used by `trace_dump` to combine the three layers' runs in one file.
    pub fn merge(&mut self, other: TraceSnapshot) {
        self.tracks.extend(other.tracks);
        self.tracks
            .sort_by(|a, b| (a.layer, a.tid, &a.name).cmp(&(b.layer, b.tid, &b.name)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let mut rec = tracer.recorder(Layer::Runtime, "worker-0", 0);
        assert!(!rec.enabled());
        rec.span_begin("iterate", 1);
        rec.instant("publish", 2);
        rec.counter("steals", 3);
        rec.span_end("iterate", 1);
        rec.finish();
        let snap = tracer.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.total_events(), 0);
    }

    #[test]
    fn recorders_collect_into_a_sorted_snapshot() {
        let tracer = Tracer::new(TraceConfig::on());
        let mut svc = tracer.recorder(Layer::Service, "tenant-0", 0);
        svc.instant_at("admit", 5, 0);
        svc.finish();
        let mut w1 = tracer.recorder(Layer::Runtime, "worker-1", 1);
        w1.span_complete("iterate", 10, 20, 7);
        w1.finish();
        let mut w0 = tracer.recorder(Layer::Runtime, "worker-0", 0);
        w0.span_complete("iterate", 0, 5, 3);
        w0.finish();

        let snap = tracer.snapshot();
        let names: Vec<&str> = snap.tracks.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["worker-0", "worker-1", "tenant-0"]);
        assert_eq!(snap.layers(), vec![Layer::Runtime, Layer::Service]);
        assert_eq!(snap.total_events(), 3);
    }

    #[test]
    fn empty_recorders_leave_no_track_behind() {
        let tracer = Tracer::new(TraceConfig::on());
        tracer.recorder(Layer::Netsim, "host-0", 0).finish();
        assert!(tracer.snapshot().is_empty());
    }

    #[test]
    fn merge_resorts_tracks_into_canonical_order() {
        let tracer_a = Tracer::new(TraceConfig::on());
        let mut t = tracer_a.recorder(Layer::Service, "tenant-1", 1);
        t.instant_at("admit", 1, 0);
        t.finish();
        let tracer_b = Tracer::new(TraceConfig::on());
        let mut w = tracer_b.recorder(Layer::Runtime, "worker-0", 0);
        w.instant_at("steal", 1, 0);
        w.finish();

        let mut snap = tracer_a.snapshot();
        snap.merge(tracer_b.snapshot());
        assert_eq!(snap.tracks[0].layer, Layer::Runtime);
        assert_eq!(snap.tracks[1].layer, Layer::Service);
    }

    #[test]
    fn monotonic_now_never_goes_backwards() {
        let tracer = Tracer::new(TraceConfig::on());
        let rec = tracer.recorder(Layer::Runtime, "worker-0", 0);
        let mut last = 0;
        for _ in 0..1000 {
            let t = rec.now_ns();
            assert!(t >= last);
            last = t;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Seeded multi-worker run: every worker's track holds exactly the
        /// records that worker emitted, in emission order, with per-track
        /// monotone timestamps — no torn or interleaved records, however
        /// the threads raced.
        #[test]
        fn concurrent_recorders_never_tear_or_interleave(
            workers in 2usize..6,
            events_per_worker in 1usize..200,
            capacity in 8usize..256,
        ) {
            let tracer = Tracer::new(TraceConfig::on().with_ring_capacity(capacity));
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let mut rec =
                        tracer.recorder(Layer::Runtime, format!("worker-{w}"), w as u64);
                    scope.spawn(move || {
                        for i in 0..events_per_worker {
                            // Encode (worker, seq) into the record so a torn
                            // or cross-thread write is detectable below.
                            rec.span_complete(
                                "iterate",
                                i as u64,
                                i as u64 + 1,
                                (w as u64) << 32 | i as u64,
                            );
                        }
                    });
                }
            });

            let snap = tracer.snapshot();
            prop_assert_eq!(snap.tracks.len(), workers);
            for track in &snap.tracks {
                let w = track.tid;
                let retained = track.ring.len() as u64;
                let dropped = track.ring.dropped();
                prop_assert_eq!(retained + dropped, events_per_worker as u64);
                let mut last_time = None;
                let first_seq =
                    (events_per_worker as u64).saturating_sub(capacity as u64).max(dropped);
                for (expect_seq, ev) in (first_seq..).zip(track.ring.iter_in_order()) {
                    // Untorn: both halves of the encoded arg agree with the
                    // owning track and the running sequence.
                    prop_assert_eq!(ev.arg >> 32, w);
                    prop_assert_eq!(ev.arg & 0xffff_ffff, expect_seq);
                    prop_assert_eq!(ev.time_ns, expect_seq);
                    if let Some(last) = last_time {
                        prop_assert!(ev.time_ns >= last, "timestamps regress within a track");
                    }
                    last_time = Some(ev.time_ns);
                }
            }
        }
    }
}
