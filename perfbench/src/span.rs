//! Wall-clock spans recorded around the benchmark's calls into each
//! workspace layer. Spans stay in memory and are written once, when the
//! run ends; nothing here reaches `elk-obs`, whose timelines are
//! simulated-time only.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` since the tracer was created,
/// and the index of the span that was open when it began.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Wall time spent in one span name over some range of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub calls: u64,
    pub total_s: f64,
    /// Total minus the time covered by direct child spans.
    pub self_s: f64,
}

/// Records spans when enabled; when disabled `span` only calls through.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` (a no-op wrapper when off).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let parent = self.open.borrow().last().copied();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
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

    /// Number of spans recorded so far (a marker for [`Self::layers_since`]).
    pub fn mark(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Calls, total and self time per span name over spans `from..`.
    pub fn layers_since(&self, from: usize) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans[from..] {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate().skip(from) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_s += s.dur_ns() as f64 * 1e-9;
            t.self_s += s.dur_ns().saturating_sub(child_ns[i]) as f64 * 1e-9;
        }
        out
    }

    /// All spans as a JSON document:
    /// `{"spans": [{"name", "start_ns", "end_ns", "parent"}, ...]}`.
    pub fn to_json(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let layers = t.layers_since(0);
        let outer = layers["outer"];
        let inner = layers["inner"];
        assert_eq!(outer.calls, 1);
        assert!(outer.total_s >= inner.total_s + 0.004);
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-9);
        assert!(t.to_json().contains("\"parent\": 0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert_eq!(t.mark(), 0);
    }
}
