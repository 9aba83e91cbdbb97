//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (name, start, end, parent, trace id), kept in memory while the run is
//! measured, and written out as JSON lines when it ends. Nothing is
//! recorded when no [`Trace`] is armed, so the untraced run executes the
//! same calls with no recording at all.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the trace was armed.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Spans of one repetition (or one extra probe) share this id.
    pub trace_id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// The span store. Shared by reference with worker threads.
pub struct Trace {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&self, name: &'static str, trace_id: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking recorder");
        spans.push(Span {
            name,
            trace_id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        spans.len() - 1
    }

    fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")[id]
            .end_ns = end_ns;
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .clone()
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }
}

/// Where a span goes: the store (if tracing is armed), the trace id and
/// the parent span.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    pub trace: Option<&'a Trace>,
    pub trace_id: u64,
    pub parent: Option<usize>,
}

impl<'a> Ctx<'a> {
    pub fn off() -> Self {
        Ctx {
            trace: None,
            trace_id: 0,
            parent: None,
        }
    }

    pub fn root(trace: Option<&'a Trace>, trace_id: u64) -> Self {
        Ctx {
            trace,
            trace_id,
            parent: None,
        }
    }

    /// Runs `f` inside a span called `name`; `f` gets the context its own
    /// child spans should use.
    pub fn span<R>(self, name: &'static str, f: impl FnOnce(Ctx<'a>) -> R) -> R {
        let Some(trace) = self.trace else {
            return f(self);
        };
        let id = trace.open(name, self.trace_id, self.parent);
        let out = f(Ctx {
            parent: Some(id),
            ..self
        });
        trace.close(id);
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (children may overlap when they
/// ran on parallel workers).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered) as f64 * 1e-9
        })
        .collect()
}

/// JSON lines, one per span, with its self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (i, (s, self_s)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"trace\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_s\":{self_s}}}",
            s.name, s.trace_id, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            trace_id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 50),
            span(Some(0), 30, 70),
            span(Some(0), 90, 120),
        ];
        let selfs = self_times(&spans);
        // Children cover 10..70 and 90..100 inside the parent: 70 ns.
        assert!((selfs[0] - 30e-9).abs() < 1e-15);
        assert!((selfs[1] - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn untraced_context_records_nothing_and_traced_nests() {
        assert_eq!(Ctx::off().span("x", |c| c.span("y", |_| 7)), 7);
        let trace = Trace::new();
        Ctx::root(Some(&trace), 3).span("outer", |c| c.span("inner", |_| ()));
        let spans = trace.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].trace_id, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
