//! Deterministic text renderings of a trace snapshot.
//!
//! The summary is the grep-able counterpart of the Chrome export: per
//! layer and track it lists event counts and drops, and per span name a
//! log2-bucket duration histogram. The timeline draws each track as one
//! ASCII row, the execution-flow pictures of the paper's Figures 1 and 2.
//! Output order is fully determined by the snapshot (sorted tracks, sorted
//! names), so two identical runs produce identical text — CI can diff it.

use std::collections::BTreeMap;

use crate::event::EventKind;
use crate::metrics::Log2Histogram;
use crate::tracer::TraceSnapshot;

/// Renders every track of `snapshot` as an ASCII row of `width` cells
/// spanning `[0, end_ns)`; spans are clipped to that window.
///
/// `glyphs` maps span names to the character drawn where such a span
/// covers a cell; when spans share a cell the one listed first wins.
/// Cells no listed span touches print `.` (idle). Every track whose ring
/// overwrote events adds a `trace truncated: N events dropped on track T`
/// line, so a partial timeline is never mistaken for a whole one.
pub fn text_timeline(
    snapshot: &TraceSnapshot,
    end_ns: u64,
    width: usize,
    glyphs: &[(&str, char)],
) -> String {
    let label_width = snapshot
        .tracks
        .iter()
        .map(|t| t.name.len())
        .max()
        .unwrap_or(0);
    let (w, end) = (width as u128, u128::from(end_ns.max(1)));
    let mut out = String::new();
    for track in &snapshot.tracks {
        // Per cell, the position in `glyphs` of the winning span so far.
        let mut rank = vec![usize::MAX; width];
        for ev in track.ring.iter_in_order() {
            let listed = glyphs.iter().position(|&(name, _)| name == ev.name);
            let (Some(r), EventKind::Complete) = (listed, ev.kind) else {
                continue;
            };
            let first = (u128::from(ev.time_ns) * w / end).min(w) as usize;
            let last = (u128::from(ev.extra) * w).div_ceil(end).min(w) as usize;
            for cell in &mut rank[first..last.max(first)] {
                *cell = (*cell).min(r);
            }
        }
        let row: String = rank
            .iter()
            .map(|&r| glyphs.get(r).map_or('.', |&(_, g)| g))
            .collect();
        out.push_str(&format!("{:<label_width$} |{row}|\n", track.name));
    }
    for track in snapshot.tracks.iter().filter(|t| t.ring.dropped() > 0) {
        out.push_str(&format!(
            "trace truncated: {} events dropped on track {}\n",
            track.ring.dropped(),
            track.name
        ));
    }
    out
}

/// Renders `snapshot` as deterministic text.
pub fn text_summary(snapshot: &TraceSnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "trace summary: {} events retained, {} dropped, {} tracks\n",
        snapshot.total_events(),
        snapshot.total_dropped(),
        snapshot.tracks.len()
    ));
    for track in &snapshot.tracks {
        out.push_str(&format!(
            "[{}] {} — {} events ({} dropped)\n",
            track.layer.cat(),
            track.name,
            track.ring.len(),
            track.ring.dropped()
        ));
        let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut durations: BTreeMap<&'static str, Log2Histogram> = BTreeMap::new();
        for ev in track.ring.iter_in_order() {
            *counts.entry(ev.name).or_default() += 1;
            if ev.kind == EventKind::Complete {
                durations
                    .entry(ev.name)
                    .or_default()
                    .observe(ev.duration_ns());
            }
        }
        for (name, count) in &counts {
            out.push_str(&format!("  {name:<24} x{count}\n"));
            if let Some(h) = durations.get(name) {
                out.push_str(&format!(
                    "    duration ns: mean {:.0}, max {}, p50<={}, p99<={}\n",
                    h.mean(),
                    h.max(),
                    h.quantile_bound(0.50),
                    h.quantile_bound(0.99)
                ));
                for (bound, n) in h.nonzero_buckets() {
                    out.push_str(&format!("    <= {bound:>12} ns : {n}\n"));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{Layer, TraceConfig, Tracer};

    #[test]
    fn summaries_are_deterministic_and_cover_every_track() {
        let tracer = Tracer::new(TraceConfig::on());
        let mut w = tracer.recorder(Layer::Runtime, "worker-0", 0);
        w.span_complete("iterate", 0, 1_000, 1);
        w.span_complete("iterate", 1_000, 1_600, 2);
        w.instant_at("publish", 1_600, 2);
        w.finish();
        let mut h = tracer.recorder(Layer::Netsim, "host-3", 3);
        h.instant_at("msg_arrive", 10, 0);
        h.finish();
        let snap = tracer.snapshot();

        let text = text_summary(&snap);
        assert_eq!(text, text_summary(&snap), "rendering must be deterministic");
        assert!(text.contains("4 events retained"));
        assert!(text.contains("[runtime] worker-0"));
        assert!(text.contains("[netsim] host-3"));
        assert!(text.contains("iterate"));
        assert!(text.contains("duration ns"));
        assert!(text.contains("msg_arrive"));
    }

    /// Two hosts on a 100 ns clock: host-0 computes over [0, 40) in two
    /// spans, sends over [30, 60), waits for a core over [60, 70) and stops
    /// (five events); host-1 computes over [50, 100) and sees one message.
    fn two_hosts(ring_capacity: usize) -> TraceSnapshot {
        let tracer = Tracer::new(TraceConfig::on().with_ring_capacity(ring_capacity));
        let mut h0 = tracer.recorder(Layer::Netsim, "host-0", 0);
        h0.span_complete("compute", 0, 20, 0);
        h0.span_complete("compute", 20, 40, 0);
        h0.span_complete("send", 30, 60, 1);
        h0.span_complete("cpu_wait", 60, 70, 0);
        h0.instant_at("stop", 70, 0);
        h0.finish();
        let mut h1 = tracer.recorder(Layer::Netsim, "host-1", 1);
        h1.span_complete("compute", 50, 100, 1);
        h1.instant_at("msg_arrive", 20, 0);
        h1.finish();
        tracer.snapshot()
    }

    #[test]
    fn timelines_draw_one_row_per_track_and_the_first_listed_span_wins() {
        let snap = two_hosts(64);
        let figure = [("compute", '#'), ("send", '>')];
        assert_eq!(
            text_timeline(&snap, 100, 10, &figure),
            "host-0 |####>>....|\nhost-1 |.....#####|\n",
            "compute beats send in cell 3; cpu_wait and instants are idle"
        );
        let send_first = [("send", '>'), ("compute", '#')];
        assert!(text_timeline(&snap, 100, 10, &send_first).starts_with("host-0 |###>>>....|"));
        assert!(
            text_timeline(&snap, 50, 5, &figure).ends_with("host-1 |.....|\n"),
            "spans are clipped to [0, end_ns)"
        );
        let (h0, h1) = (&snap.tracks[0], &snap.tracks[1]);
        assert_eq!(
            ["compute", "send", "cpu_wait"].map(|n| h0.span_ns(n)),
            [40, 30, 10]
        );
        assert_eq!(h1.span_ns("msg_arrive"), 0, "instants cover no time");
        assert_eq!(h1.spans("compute").collect::<Vec<_>>(), vec![(50, 100)]);
    }

    #[test]
    fn a_truncated_track_is_reported_under_the_timeline() {
        let snap = two_hosts(4);
        assert_eq!(
            text_timeline(&snap, 100, 10, &[("compute", '#'), ("send", '>')]),
            "host-0 |..##>>....|\n\
             host-1 |.....#####|\n\
             trace truncated: 1 events dropped on track host-0\n",
            "host-0's oldest span was overwritten; host-1 lost nothing"
        );
        assert_eq!(snap.tracks[0].span_ns("compute"), 20);
    }
}
