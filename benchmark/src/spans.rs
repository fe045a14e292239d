//! The benchmark's own span recorder.
//!
//! Spans are recorded around the calls into each layer, kept in memory, and
//! written out when the workload ends. This is not `aiac-obs`, which is a
//! layer under test. A layer's self time is its span's duration minus the
//! part of that interval its child spans cover.

use std::io::Write;
use std::time::Instant;

use crate::adapter::KernelSpan;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    /// Which runtime call (or rate step) of the workload the span belongs to.
    pub run: u32,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Shared by the spans of one request (the service's job id).
    pub id: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(workload: &str, origin: Instant) -> Self {
        Recorder {
            workload: workload.to_string(),
            origin,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn add(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Opens a span on the calling thread now; [`Recorder::close`] ends it.
    pub fn open(
        &mut self,
        name: &'static str,
        layer: &'static str,
        run: u32,
        parent: Option<u32>,
    ) -> u32 {
        let now = self.now_ns();
        self.add(Span {
            name,
            layer,
            run,
            parent,
            thread: 0,
            start_ns: now,
            end_ns: now,
            id: None,
        })
    }

    pub fn close(&mut self, index: u32) {
        self.spans[index as usize].end_ns = self.now_ns();
    }

    /// Records one runtime call (`run`, whose `id` is its update count) and
    /// the kernel updates timed inside it as its children (layer `solvers`,
    /// `id` = block).
    pub fn add_run(&mut self, run: Span, updates: &[KernelSpan]) -> u32 {
        let index = run.run;
        let parent = self.add(run);
        for k in updates {
            self.add(Span {
                name: "update",
                layer: "solvers",
                run: index,
                parent: Some(parent),
                thread: k.thread,
                start_ns: k.start_ns,
                end_ns: k.end_ns,
                id: Some(k.block as u64),
            });
        }
        parent
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds of span `index` covered by at least one of its children.
    pub fn covered_ns(&self, index: u32) -> u64 {
        let parent = &self.spans[index as usize];
        let mut intervals: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
            .filter(|(start, end)| end > start)
            .collect();
        intervals.sort_unstable();
        let mut covered = 0;
        let mut reach = 0;
        for (start, end) in intervals {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        covered
    }

    /// The span's duration minus what its children cover.
    pub fn self_ns(&self, index: u32) -> u64 {
        self.spans[index as usize].duration_ns() - self.covered_ns(index)
    }

    /// Writes the spans as one JSON document.
    pub fn write_json(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "{{\"workload\": \"{}\", \"spans\": [", self.workload)?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let id = s.id.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"layer\": \"{}\", \"workload\": \"{}\", \"run\": {}, \
                 \"parent\": {parent}, \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}, \"id\": {id}}}{comma}",
                s.name, s.layer, self.workload, s.run, s.thread, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, thread: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            layer: "test",
            run: 0,
            parent,
            thread,
            start_ns,
            end_ns,
            id: None,
        }
    }

    /// workload 0..1000
    ///   run 100..900
    ///     kernel 100..300 (thread 1)
    ///     kernel 250..500 (thread 2, overlaps the first)
    ///     kernel 600..700 (thread 1)
    ///     kernel 850..950 (thread 2, sticks out of the run)
    fn tree() -> Recorder {
        let mut r = Recorder::new("t", Instant::now());
        let w = r.add(span(None, 0, 0, 1000));
        let run = r.add(span(Some(w), 0, 100, 900));
        r.add(span(Some(run), 1, 100, 300));
        r.add(span(Some(run), 2, 250, 500));
        r.add(span(Some(run), 1, 600, 700));
        r.add(span(Some(run), 2, 850, 950));
        r
    }

    #[test]
    fn self_time_subtracts_the_union_of_the_children() {
        let r = tree();
        // The run's children cover 100..500, 600..700 and 850..900.
        assert_eq!(r.covered_ns(1), 400 + 100 + 50);
        assert_eq!(r.self_ns(1), 800 - 550);
        // The workload's only child is the run.
        assert_eq!(r.covered_ns(0), 800);
        assert_eq!(r.self_ns(0), 200);
        // A leaf keeps its whole duration.
        assert_eq!(r.self_ns(2), 200);
    }

    #[test]
    fn self_times_add_up_to_the_root_when_children_do_not_overlap() {
        let mut r = Recorder::new("t", Instant::now());
        let w = r.add(span(None, 0, 0, 100));
        let a = r.add(span(Some(w), 0, 10, 40));
        let b = r.add(span(Some(w), 0, 40, 90));
        r.add(span(Some(a), 0, 15, 25));
        r.add(span(Some(b), 0, 50, 60));
        let total: u64 = (0..r.spans().len() as u32).map(|i| r.self_ns(i)).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn open_and_close_bracket_the_call() {
        let mut r = Recorder::new("t", Instant::now());
        let s = r.open("call", "core", 3, None);
        std::hint::black_box((0..1000).sum::<u64>());
        r.close(s);
        let span = &r.spans()[s as usize];
        assert!(span.end_ns >= span.start_ns);
        assert_eq!(span.run, 3);
    }

    #[test]
    fn the_export_is_valid_json_with_every_field() {
        let mut text = Vec::new();
        tree().write_json(&mut text).unwrap();
        let value: serde::Value =
            serde_json::from_str(std::str::from_utf8(&text).unwrap()).unwrap();
        let map = value.as_map().unwrap();
        let spans = serde::Value::lookup(map, "spans")
            .unwrap()
            .as_seq()
            .unwrap();
        assert_eq!(spans.len(), 6);
        let first = spans[1].as_map().unwrap();
        for key in [
            "name", "layer", "workload", "run", "parent", "thread", "start_ns", "end_ns",
        ] {
            assert!(serde::Value::lookup(first, key).is_some(), "{key}");
        }
        assert_eq!(
            serde::Value::lookup(first, "parent").unwrap().as_u64(),
            Some(0)
        );
    }
}
