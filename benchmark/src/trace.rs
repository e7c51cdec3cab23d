//! Spans recorded by the harness around its calls into each layer.
//!
//! Spans are kept in memory and written once, when the run ends, as
//! Chrome trace-event JSON (load it in `chrome://tracing` or Perfetto).
//! A span's self time is its duration minus the part its children cover.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One timed interval; `parent` indexes the span that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder for one workload's traced run.
pub struct Tracer {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as a child of the span currently open (if any). Returns
    /// `f`'s value and the measured seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        let value = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        (value, self.spans[idx].seconds())
    }

    /// Lay out durations a layer *reported* (e.g. per-level seconds in a
    /// `Hierarchy`) as consecutive children of the span just closed, so
    /// the trace shows them without the harness re-implementing the loop
    /// they were measured in. They are clamped into the parent interval.
    pub fn reported_children(&mut self, parent: usize, parts: &[(String, f64)]) {
        let (mut at, end) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        for (name, seconds) in parts {
            let stop = (at + (seconds * 1e9) as u64).min(end);
            self.spans.push(Span {
                name: name.clone(),
                start_ns: at,
                end_ns: stop,
                parent: Some(parent),
            });
            at = stop;
        }
    }

    /// Index of the most recently closed span named `name`.
    pub fn last_index(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds of `idx` not covered by its direct children.
    pub fn self_seconds(&self, idx: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::seconds)
            .sum();
        (self.spans[idx].seconds() - children).max(0.0)
    }

    /// Share of `idx`'s duration its direct children cover.
    pub fn child_coverage(&self, idx: usize) -> f64 {
        let total = self.spans[idx].seconds();
        if total == 0.0 {
            1.0
        } else {
            1.0 - self.self_seconds(idx) / total
        }
    }

    /// Every child lies inside its parent's interval.
    pub fn nests(&self) -> bool {
        self.spans.iter().all(|s| match s.parent {
            Some(p) => {
                let parent = &self.spans[p];
                s.start_ns >= parent.start_ns && s.end_ns <= parent.end_ns
            }
            None => true,
        })
    }

    /// Render as Chrome trace-event JSON ("X" complete events, µs).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = match s.parent {
                Some(p) => format!("\"{}\"", self.spans[p].name),
                None => String::from("null"),
            };
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"workload\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
                s.name,
                self.workload,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                self.workload,
                s.start_ns,
                s.end_ns,
                parent,
                self.self_seconds(i) * 1e6,
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        out
    }

    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new("w");
        t.span("outer", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
            t.span("b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
        });
        assert!(t.nests());
        let outer = t.last_index("outer").unwrap();
        assert_eq!(t.spans()[outer].parent, None);
        assert_eq!(t.spans()[t.last_index("a").unwrap()].parent, Some(outer));
        assert!(t.child_coverage(outer) > 0.9);
        assert!(t.self_seconds(outer) < t.spans()[outer].seconds());
        let json = t.to_chrome_json();
        assert!(json.contains("\"name\":\"outer\"") && json.contains("\"parent\":\"outer\""));
    }

    #[test]
    fn reported_children_are_clamped_into_the_parent() {
        let mut t = Tracer::new("w");
        t.span("p", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let p = t.last_index("p").unwrap();
        t.reported_children(p, &[("p/x".into(), 0.001), ("p/y".into(), 10.0)]);
        assert!(t.nests());
        assert!(t.child_coverage(p) > 0.999);
    }
}
