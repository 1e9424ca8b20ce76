//! Tracing from the benchmark's side of each layer boundary: in-memory
//! spans around the calls the benchmark makes, and a timing adapter for
//! the closed-loop traffic sources the simulator calls back into.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use keddah_netsim::{FlowId, FlowResult, FlowSpec, TrafficSource};

use crate::arith::self_time_ns;

/// One timed interval: a stage or a call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Position in the recorder, unique within a run.
    pub id: usize,
    /// The span that was open when this one began.
    pub parent: Option<usize>,
    /// Layer-qualified name (`"netsim.replay"`, `"stage.fit"`).
    pub name: String,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created (0 while open).
    pub end_ns: u64,
}

/// Records nested spans in memory. Spans nest by call order: `begin`
/// parents the new span under the innermost open one.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn begin(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its length
    /// in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's length in seconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let out = f();
        (out, self.end(id))
    }

    /// Every span as JSON lines (`id`, `parent`, `name`, `start_ns`,
    /// `end_ns`, and `self_ns`: the span minus what its children cover).
    pub fn to_jsonl(&self) -> String {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let self_ns = self_time_ns((s.start_ns, s.end_ns), &children[s.id]);
            writeln!(
                out,
                r#"{{"id":{},"parent":{parent},"name":"{}","start_ns":{},"end_ns":{},"self_ns":{self_ns}}}"#,
                s.id, s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// Wraps a traffic source and times every simulator callback into it,
/// so a replay's wall time splits into source time and simulator time.
pub struct TimedSource<'a> {
    inner: &'a mut dyn TrafficSource,
    /// Callbacks made (start, completions and aborts).
    pub calls: u64,
    /// Time spent inside the wrapped source.
    pub busy: Duration,
}

impl<'a> TimedSource<'a> {
    pub fn new(inner: &'a mut dyn TrafficSource) -> TimedSource<'a> {
        TimedSource {
            inner,
            calls: 0,
            busy: Duration::ZERO,
        }
    }

    fn timed(&mut self, f: impl FnOnce(&mut dyn TrafficSource) -> Vec<FlowSpec>) -> Vec<FlowSpec> {
        let t = Instant::now();
        let out = f(&mut *self.inner);
        self.busy += t.elapsed();
        self.calls += 1;
        out
    }
}

impl TrafficSource for TimedSource<'_> {
    fn on_start(&mut self) -> Vec<FlowSpec> {
        self.timed(|s| s.on_start())
    }

    fn on_flow_complete(&mut self, id: FlowId, result: &FlowResult) -> Vec<FlowSpec> {
        self.timed(|s| s.on_flow_complete(id, result))
    }

    fn on_flow_aborted(&mut self, id: FlowId, result: &FlowResult, lost: u64) -> Vec<FlowSpec> {
        self.timed(|s| s.on_flow_aborted(id, result, lost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_call_order() {
        let mut spans = Spans::new();
        let outer = spans.begin("stage.fit");
        let ((), _) = spans.time("core.fitting", || {});
        spans.end(outer);
        let text = spans.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""parent":null,"name":"stage.fit""#));
        assert!(lines[1].contains(r#""parent":0,"name":"core.fitting""#));
    }
}
