//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The library is measured from outside, so a span here brackets one
//! call of a `pub` function (`SecuritySim::new`, one `advance_until`
//! chunk, one batch of `run_window`s, one `UdpHost::drive`, one probe
//! batch). Every timing the benchmark reports is taken by the same two
//! `Instant::now()` calls whether or not tracing is on; tracing only
//! adds the `Vec::push` that keeps the span. Spans stay in memory and
//! are written out once, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json;

/// One recorded interval.
pub struct Span {
    /// `layer.function` of the call the span brackets.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

/// An interval that has started and not yet ended.
pub struct Open {
    start: Instant,
    index: Option<usize>,
}

/// Per-name totals: how often, how long, and how long excluding the
/// spans nested inside.
pub struct SelfTime {
    /// Span name.
    pub name: &'static str,
    /// Spans of that name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus their children's.
    pub self_ns: u64,
}

/// Span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; with `on == false` it times but keeps nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are kept.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Spans kept so far.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Start an interval that other spans may nest in.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.on.then(|| {
            self.spans.push(Span {
                name,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { start, index }
    }

    /// End an interval; returns its length in seconds.
    ///
    /// # Panics
    /// If intervals are closed out of order.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = open.index {
            assert_eq!(self.open.pop(), Some(i), "spans closed out of order");
            self.spans[i].end_ns = (end - self.epoch).as_nanos() as u64;
        }
        (end - open.start).as_secs_f64()
    }

    /// Run `f` inside a span; returns its result and how long it took,
    /// in seconds.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.enter(name);
        let r = f();
        (r, self.exit(open))
    }

    /// Totals per span name, self time being a span's duration minus
    /// the part its children cover.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_insert(SelfTime {
                name: s.name,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(children);
        }
        by_name.into_values().collect()
    }

    /// The span file: stamp, every span, and the self-time table.
    pub fn to_json(&self, workload: &str, stamp: &[(&'static str, String)]) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                json::object(&[
                    ("name", json::quote(s.name)),
                    ("start_ns", s.start_ns.to_string()),
                    ("end_ns", s.end_ns.to_string()),
                    (
                        "parent",
                        s.parent.map_or("null".to_owned(), |p| p.to_string()),
                    ),
                    ("workload", json::quote(workload)),
                ])
            })
            .collect();
        let selfs: Vec<String> = self
            .self_times()
            .iter()
            .map(|t| {
                json::object(&[
                    ("name", json::quote(t.name)),
                    ("count", t.count.to_string()),
                    ("total_ns", t.total_ns.to_string()),
                    ("self_ns", t.self_ns.to_string()),
                ])
            })
            .collect();
        format!(
            "{{\"stamp\": {},\n \"workload\": {},\n \"self_time\": [\n  {}\n ],\n \"spans\": [\n  {}\n ]}}\n",
            json::object(stamp),
            json::quote(workload),
            selfs.join(",\n  "),
            spans.join(",\n  ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        t.timed("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.timed("inner", || ());
        t.exit(outer);
        assert_eq!(t.span_count(), 3);
        let times = t.self_times();
        let inner = times.iter().find(|s| s.name == "inner").expect("inner");
        let outer = times.iter().find(|s| s.name == "outer").expect("outer");
        assert_eq!(inner.count, 2);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(inner.total_ns >= 5_000_000);
        let parsed = json::parse(&t.to_json("w", &[("seed", "1".to_owned())])).expect("valid JSON");
        assert_eq!(
            parsed
                .get("spans")
                .and_then(json::Value::arr)
                .map(<[_]>::len),
            Some(3)
        );
    }

    #[test]
    fn off_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let ((), secs) = t.timed("x", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(secs >= 0.002);
        assert_eq!(t.span_count(), 0);
    }
}
