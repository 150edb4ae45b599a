//! In-memory spans around the benchmark's calls into each layer.
//!
//! The load generator is one thread, so the tracer is a `RefCell` stack:
//! a span opened while another is open becomes its child. Spans of one
//! timed iteration share that iteration's id. When tracing is off,
//! [`Tracer::span`] only calls the closure. The spans are written out
//! once, when the benchmark ends ([`Tracer::write_json`]).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub iter: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    enabled: Cell<bool>,
    iter: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: Cell::new(false),
            iter: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Turn recording on or off for the spans opened from now on.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Tag the spans opened from now on with iteration `iter`.
    pub fn set_iter(&self, iter: u64) {
        self.iter.set(iter);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                name,
                parent: self.open.borrow().last().copied(),
                iter: self.iter.get(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Per span name: `(count, total ns, self ns)`, where a span's self
    /// time is its duration minus the time its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in spans.iter() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(child_ns[s.id]);
        }
        out
    }

    /// The spans and their per-name self times as one JSON document.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\": [\n");
        let spans = self.spans.borrow();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {}, \"name\": \"{}\", \"parent\": {}, \"iter\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                s.id,
                s.name,
                parent,
                s.iter,
                s.start_ns,
                s.end_ns,
                if i + 1 < spans.len() { "," } else { "" }
            ));
        }
        out.push_str("],\n\"self_times\": {\n");
        let times = self.self_times();
        for (i, (name, (count, total, own))) in times.iter().enumerate() {
            out.push_str(&format!(
                "  \"{name}\": {{\"count\": {count}, \"total_ns\": {total}, \"self_ns\": {own}}}{}\n",
                if i + 1 < times.len() { "," } else { "" }
            ));
        }
        out.push_str("}}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_time_is_subtracted_from_parent_self_time() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.span("outer", || {
            tr.span("inner", || {
                std::hint::black_box((0..10_000u64).sum::<u64>())
            });
        });
        tr.set_enabled(false);
        tr.span("ignored", || ());
        let times = tr.self_times();
        let (n_outer, total_outer, self_outer) = times["outer"];
        let (_, total_inner, _) = times["inner"];
        assert_eq!(n_outer, 1);
        assert_eq!(self_outer, total_outer - total_inner);
        assert!(!times.contains_key("ignored"));
        assert_eq!(tr.spans.borrow()[1].parent, Some(0));
    }
}
