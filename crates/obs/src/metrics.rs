//! The unified metrics registry.
//!
//! Every layer used to hand-plumb its counters field by field into the
//! bench harness; the registry replaces that with one vocabulary: a named
//! entry is a counter, a gauge or a log2-bucket histogram, and carries the
//! two facts the harness needs to build its gateable metric list — whether
//! the value is deterministic (virtual-clock or structural) and which
//! direction is better. `RunReport` and `LoadReport` build their registry
//! in one place and the harness renders *every* entry from the snapshot,
//! so a new counter becomes a bench metric by existing.

use std::collections::BTreeMap;

/// What kind of value a registry entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonically accumulated count.
    Counter,
    /// A sampled level or ratio.
    Gauge,
    /// A log2-bucket distribution summary (entry value = observation count).
    Histogram,
}

/// Which direction of drift the perf gate should flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricDirection {
    /// Growth beyond tolerance is a regression.
    LowerIsBetter,
    /// Shrinkage beyond tolerance is a regression.
    HigherIsBetter,
    /// Context only; never gated.
    Informational,
}

/// One named value in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEntry {
    /// Stable metric name — these are the names committed in bench
    /// baselines, so they change only deliberately.
    pub name: &'static str,
    /// The value (counts are exact in f64 far beyond any run length).
    pub value: f64,
    /// Counter, gauge or histogram.
    pub kind: MetricKind,
    /// True when the value is a pure function of the config (virtual clock
    /// or structural invariant) — the precondition for gating it in CI.
    pub deterministic: bool,
    /// Which way regressions point.
    pub direction: MetricDirection,
}

/// An insertion-ordered registry of named metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    entries: Vec<MetricEntry>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers a counter.
    pub fn counter(
        &mut self,
        name: &'static str,
        value: u64,
        deterministic: bool,
        direction: MetricDirection,
    ) {
        self.push(
            name,
            value as f64,
            MetricKind::Counter,
            deterministic,
            direction,
        );
    }

    /// Registers a gauge.
    pub fn gauge(
        &mut self,
        name: &'static str,
        value: f64,
        deterministic: bool,
        direction: MetricDirection,
    ) {
        self.push(name, value, MetricKind::Gauge, deterministic, direction);
    }

    /// Registers a histogram's observation count as an entry (the buckets
    /// themselves live in the [`Log2Histogram`], which renders through the
    /// summary exporter).
    pub fn histogram(&mut self, name: &'static str, histogram: &Log2Histogram) {
        self.push(
            name,
            histogram.count() as f64,
            MetricKind::Histogram,
            false,
            MetricDirection::Informational,
        );
    }

    fn push(
        &mut self,
        name: &'static str,
        value: f64,
        kind: MetricKind,
        deterministic: bool,
        direction: MetricDirection,
    ) {
        debug_assert!(
            !self.entries.iter().any(|e| e.name == name),
            "duplicate metric name {name:?}"
        );
        self.entries.push(MetricEntry {
            name,
            value,
            kind,
            deterministic,
            direction,
        });
    }

    /// The entries, in registration order — the one source of truth the
    /// bench harness renders metric samples from.
    pub fn snapshot(&self) -> &[MetricEntry] {
        &self.entries
    }

    /// Looks an entry up by name.
    pub fn get(&self, name: &str) -> Option<&MetricEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Number of registered entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A power-of-two-bucket histogram of nanosecond (or any integer-scaled)
/// observations: bucket `i` counts values in `[2^(i-1), 2^i)`, bucket 0
/// counts zeros. Fixed 64 slots, no allocation after construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Log2Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    max: u64,
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Index of the bucket `value` falls in (the top two magnitudes share
    /// bucket 63 so the fixed array covers the full u64 range).
    fn bucket_of(value: u64) -> usize {
        ((64 - value.leading_zeros()) as usize).min(63)
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation seen.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The non-empty buckets as `(bucket_upper_bound, count)` pairs in
    /// ascending order. Bucket 0's bound is 0; bucket `i`'s is `2^i - 1`.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| {
                let bound = if i == 0 { 0 } else { (1u64 << i.min(63)) - 1 };
                (bound, *c)
            })
            .collect()
    }

    /// Smallest value `v` such that at least `q` (0..=1) of the
    /// observations fall in buckets up to `v`'s — a log2-granular quantile
    /// bound.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let need = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= need.max(1) {
                return if i == 0 { 0 } else { (1u64 << i.min(63)) - 1 };
            }
        }
        self.max
    }
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram::new()
    }
}

/// Renders the registry's entries for humans: name, kind, value, flags —
/// one line each, in registration order.
pub fn render_registry(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    for e in registry.snapshot() {
        let kind = match e.kind {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        };
        let det = if e.deterministic { "det" } else { "wall" };
        let dir = match e.direction {
            MetricDirection::LowerIsBetter => "lower-is-better",
            MetricDirection::HigherIsBetter => "higher-is-better",
            MetricDirection::Informational => "info",
        };
        out.push_str(&format!(
            "{:<32} {kind:<9} {:>18.6} [{det}, {dir}]\n",
            e.name, e.value
        ));
    }
    out
}

/// Groups entries by kind, preserving order — used by the text summary.
pub fn entries_by_kind(registry: &MetricsRegistry) -> BTreeMap<&'static str, Vec<&MetricEntry>> {
    let mut grouped: BTreeMap<&'static str, Vec<&MetricEntry>> = BTreeMap::new();
    for e in registry.snapshot() {
        let key = match e.kind {
            MetricKind::Counter => "counters",
            MetricKind::Gauge => "gauges",
            MetricKind::Histogram => "histograms",
        };
        grouped.entry(key).or_default().push(e);
    }
    grouped
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_snapshot_preserves_registration_order_and_flags() {
        let mut reg = MetricsRegistry::new();
        reg.counter("data_messages", 42, false, MetricDirection::LowerIsBetter);
        reg.gauge(
            "cache_hit_rate",
            0.75,
            true,
            MetricDirection::HigherIsBetter,
        );
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].name, "data_messages");
        assert_eq!(snap[0].kind, MetricKind::Counter);
        assert!(!snap[0].deterministic);
        assert_eq!(snap[1].name, "cache_hit_rate");
        assert!(snap[1].deterministic);
        assert_eq!(reg.get("cache_hit_rate").unwrap().value, 0.75);
        assert!(reg.get("missing").is_none());
    }

    // The check is a `debug_assert`, so a release build has nothing to test.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "duplicate metric name")]
    fn duplicate_names_are_rejected_in_debug_builds() {
        let mut reg = MetricsRegistry::new();
        reg.counter("steals", 1, true, MetricDirection::Informational);
        reg.counter("steals", 2, true, MetricDirection::Informational);
    }

    #[test]
    fn log2_buckets_land_where_expected() {
        let mut h = Log2Histogram::new();
        for v in [0, 1, 2, 3, 4, 1000, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), u64::MAX);
        let buckets = h.nonzero_buckets();
        // 0 -> bucket 0; 1 -> (0,1]; 2,3 -> (1,3]; 4 -> (3,7]; 1000 -> (511,1023].
        assert_eq!(buckets[0], (0, 1));
        assert_eq!(buckets[1], (1, 1));
        assert_eq!(buckets[2], (3, 2));
        assert_eq!(buckets[3], (7, 1));
        assert_eq!(buckets[4], (1023, 1));
    }

    #[test]
    fn quantile_bounds_are_monotone_and_cover_the_range() {
        let mut h = Log2Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let p50 = h.quantile_bound(0.5);
        let p99 = h.quantile_bound(0.99);
        assert!(p50 <= p99);
        assert!(
            (511..=1023).contains(&p50),
            "median of 1..=1000 rounds up to {p50}"
        );
        assert_eq!(h.quantile_bound(1.0), 1023);
        assert_eq!(Log2Histogram::new().quantile_bound(0.5), 0);
    }

    #[test]
    fn rendering_is_deterministic_text() {
        let mut reg = MetricsRegistry::new();
        reg.counter("steals", 7, false, MetricDirection::Informational);
        let text = render_registry(&reg);
        assert!(text.contains("steals"));
        assert!(text.contains("counter"));
        assert!(text.contains("[wall, info]"));
        assert_eq!(text, render_registry(&reg));
    }
}
