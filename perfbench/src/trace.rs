//! Host-time spans recorded from the benchmark's own side of each library
//! call, kept in memory and written out once as Chrome `trace_event` JSON.
//!
//! A disabled [`Tracer`] only runs the closure, so untraced runs pay one
//! branch per call. Spans nest by call order: a span opened inside another
//! names it as its parent. Every span carries the id of the timed unit it
//! belongs to, so one unit's spans can be picked out of the trace.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.prune.iprune`.
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// Id of the timed unit the span belongs to.
    pub run: u32,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
pub struct Tracer {
    on: Cell<bool>,
    origin: Instant,
    run: Cell<u32>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records only while [`set_enabled`](Self::set_enabled)
    /// is on.
    pub fn new() -> Self {
        Self {
            on: Cell::new(false),
            origin: Instant::now(),
            run: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_enabled(&self, on: bool) {
        self.on.set(on);
    }

    /// Sets the unit id stamped on the spans that follow.
    pub fn set_run(&self, run: u32) {
        self.run.set(run);
    }

    /// Runs `f`, recording it as a span named `name` when enabled.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.on.get() {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            let now = self.now_ns();
            spans.push(Span {
                name: name.to_string(),
                start_ns: now,
                end_ns: now,
                parent,
                run: self.run.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// All closed spans, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover. Children of one parent run one after
/// another on the calling thread, so they never overlap.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur_ns();
        }
    }
    spans.iter().zip(&covered).map(|(s, c)| s.dur_ns().saturating_sub(*c)).collect()
}

/// Per span name: (count, total ns, self ns), sorted by name.
pub fn summarize(spans: &[Span]) -> BTreeMap<String, (u64, u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += self_ns;
    }
    out
}

/// Total duration in seconds of the spans named `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns()).sum::<u64>() as f64 * 1e-9
}

/// Chrome `trace_event` JSON: one complete (`"X"`) event per span, with
/// microsecond timestamps as `iprune_obs::export` writes them for
/// simulated time; `args` carry the unit id, the parent's name and the
/// self time.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
         \"args\":{\"name\":\"benchmark (host time)\"}}",
    );
    for (s, self_ns) in spans.iter().zip(selfs) {
        let parent = s.parent.map(|p| spans[p].name.as_str()).unwrap_or("");
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":1,\"args\":{{\"run\":{},\"parent\":\"{}\",\"self_us\":{}}}}}",
            s.name,
            s.start_ns as f64 * 1e-3,
            s.dur_ns() as f64 * 1e-3,
            s.run,
            parent,
            self_ns as f64 * 1e-3
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span { name: "a".into(), start_ns: 0, end_ns: 100, parent: None, run: 0 },
            Span { name: "b".into(), start_ns: 10, end_ns: 40, parent: Some(0), run: 0 },
            Span { name: "c".into(), start_ns: 50, end_ns: 70, parent: Some(0), run: 0 },
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 30, 20]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        assert_eq!(t.span("x", || 3), 3);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        t.span("outer", || t.span("inner", || ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
    }
}
