//! In-memory spans around the benchmark's calls into each layer, their
//! self times, and the Chrome trace-event export.
//!
//! Spans are recorded from the benchmark's own files, so a layer that runs
//! *inside* another public call (`compile_source` inside `Vm::boot` inside
//! `Executor::new`) cannot be timed where it really executes. Such a child
//! is timed by a separate call on the same input and then *placed* inside
//! its parent, starting where the parent starts (or where the previous
//! sibling ends): durations are measured, child offsets are not. Spans
//! inside the program itself are a later issue.

use htm_gil_core::Json;

/// One timed call. Times are on-CPU nanoseconds of the measuring thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one traced repetition share an identifier.
    pub run_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span store for one traced pass; written out when the pass ends.
#[derive(Debug, Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
    run_id: u32,
}

impl Tracer {
    /// Start the next traced repetition.
    pub fn next_run(&mut self) {
        self.run_id += 1;
    }

    pub fn run_id(&self) -> u32 {
        self.run_id
    }

    /// Record a span at its measured position.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        assert!(end_ns >= start_ns, "span {name} ends before it starts");
        self.spans.push(Span { name, start_ns, end_ns, parent, run_id: self.run_id });
        self.spans.len() - 1
    }

    /// Place a separately timed child of `duration_ns` inside `parent`,
    /// starting at `start_ns`; returns the child and where it ends (the
    /// next sibling's start).
    pub fn place(
        &mut self,
        name: &'static str,
        parent: usize,
        start_ns: u64,
        duration_ns: u64,
    ) -> (usize, u64) {
        let end = start_ns + duration_ns;
        (self.push(name, start_ns, end, Some(parent)), end)
    }

    /// `(name, total ns, self ns)` of the spans of repetition `run_id`,
    /// summed by name in first-seen order.
    pub fn ns_by_name(&self, run_id: u32) -> Vec<(&'static str, u64, u64)> {
        let selfs = self_times(&self.spans);
        let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            if s.run_id != run_id {
                continue;
            }
            match out.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some((_, total, own)) => {
                    *total += s.duration_ns();
                    *own += self_ns;
                }
                None => out.push((s.name, s.duration_ns(), self_ns)),
            }
        }
        out
    }

    /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing):
    /// one complete ("X") event per span, all on one track so nesting
    /// shows as a flame graph; `args` carries parent, run id and self time.
    pub fn to_chrome_json(&self) -> Json {
        let selfs = self_times(&self.spans);
        let origin = self.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let events = self
            .spans
            .iter()
            .zip(selfs)
            .map(|(s, self_ns)| {
                let mut args = Json::obj()
                    .field("run_id", u64::from(s.run_id))
                    .field("self_us", self_ns as f64 / 1e3);
                if let Some(p) = s.parent {
                    args = args.field("parent", self.spans[p].name);
                }
                Json::obj()
                    .field("name", s.name)
                    .field("cat", "layer")
                    .field("ph", "X")
                    .field("ts", (s.start_ns - origin) as f64 / 1e3)
                    .field("dur", s.duration_ns() as f64 / 1e3)
                    .field("pid", 1u64)
                    .field("tid", 1u64)
                    .field("args", args)
            })
            .collect::<Vec<Json>>();
        Json::obj().field("displayTimeUnit", "ns").field("traceEvents", events)
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover (children clipped to the parent, overlapping
/// children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, run_id: 1 }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // a[0,100] ⊃ b[10,60] ⊃ c[20,30]; a ⊃ d[70,90]
        let spans = vec![
            span("a", 0, 100, None),
            span("b", 10, 60, Some(0)),
            span("c", 20, 30, Some(1)),
            span("d", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 20, 50 - 10, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        // children [10,50] and [30,70] overlap on [30,50]; [90,130] sticks
        // out of the parent by 30; [200,210] lies wholly outside.
        let spans = vec![
            span("p", 0, 100, None),
            span("x", 10, 50, Some(0)),
            span("y", 30, 70, Some(0)),
            span("z", 90, 130, Some(0)),
            span("w", 200, 210, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 60 - 10);
        assert_eq!(&selfs[1..], &[40, 40, 40, 10]);
    }

    #[test]
    fn child_covering_the_whole_parent_leaves_zero_self_time() {
        let spans = vec![span("p", 5, 10, None), span("c", 0, 20, Some(0))];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn tracer_places_children_end_to_end_and_sums_self_time_by_name() {
        let mut t = Tracer::default();
        t.next_run();
        let root = t.push("root", 1_000, 2_000, None);
        let (_, next) = t.place("kid", root, 1_000, 300);
        let (_, next) = t.place("kid", root, next, 200);
        assert_eq!(next, 1_500);
        t.next_run();
        t.push("root", 3_000, 3_100, None);
        assert_eq!(t.ns_by_name(1), vec![("root", 1_000, 500), ("kid", 500, 500)]);
        assert_eq!(t.ns_by_name(2), vec![("root", 100, 100)]);
        let doc = t.to_chrome_json();
        let events = doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents");
        assert_eq!(events.len(), 4);
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[1].get("ts").and_then(Json::as_f64), Some(0.0));
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(0.3));
        let args = events[1].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(Json::as_str), Some("root"));
    }
}
