//! The traced run's recorders, all owned by the benchmark: a
//! [`Timed`] wrapper that times every `OnlineAdmission::on_request`
//! call, per-call log2 histograms, and an in-memory span tree written
//! out when the run ends. Nothing here is linked into the untraced
//! run's arms.

use crate::stats::Log2Hist;
use acmr_core::{OnlineAdmission, Outcome, Request, RequestId};
use std::fmt::Write as _;
use std::time::Instant;

/// What one algorithm arm did, call by call.
#[derive(Clone, Debug, Default)]
pub struct AlgTrace {
    /// Per-call `on_request` durations.
    pub decide: Log2Hist,
    /// Per-call `Session::push` durations (referee + decide).
    pub push: Log2Hist,
    pub decide_ns: u64,
    pub push_ns: u64,
    /// `on_request` nanoseconds per quarter of the arrivals.
    pub quarter_ns: [u64; 4],
    pub quarter_calls: [u64; 4],
    pub accepts: u64,
    pub preempted: u64,
    /// Largest live (currently accepted) set seen after any arrival.
    pub live_max: usize,
    pub arrivals: usize,
}

impl AlgTrace {
    /// ns/decision in the last quarter of arrivals over the second:
    /// above 1 when per-decision cost grows with history.
    pub fn age_slowdown(&self) -> f64 {
        let per = |q: usize| self.quarter_ns[q] as f64 / self.quarter_calls[q].max(1) as f64;
        per(3) / per(1).max(1.0)
    }
}

/// Times every decision of the wrapped algorithm into an [`AlgTrace`].
pub struct Timed<'a, A> {
    pub alg: A,
    pub trace: &'a mut AlgTrace,
    /// Arrivals the arm will feed, for the quarter split.
    pub expected: usize,
}

impl<A: OnlineAdmission> OnlineAdmission for Timed<'_, A> {
    fn name(&self) -> &'static str {
        self.alg.name()
    }

    fn on_request(&mut self, id: RequestId, request: &Request) -> Outcome {
        let t = Instant::now();
        let out = self.alg.on_request(id, request);
        let ns = t.elapsed().as_nanos() as u64;
        let tr = &mut *self.trace;
        tr.decide.record(ns);
        tr.decide_ns += ns;
        let q = (id.index() * 4 / self.expected.max(1)).min(3);
        tr.quarter_ns[q] += ns;
        tr.quarter_calls[q] += 1;
        tr.accepts += u64::from(out.accepted);
        tr.preempted += out.preempted.len() as u64;
        out
    }

    fn buyback_factor(&self) -> f64 {
        self.alg.buyback_factor()
    }
}

/// One timed interval at a layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span tree: `enter`/`exit` nest, and self time is a span's
/// duration minus what its direct children cover.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one); returns its seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 * 1e-9
    }

    /// Time `f` as a span named `name`; returns its result and seconds.
    pub fn time<R>(
        &mut self,
        name: impl Into<String>,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> (R, f64) {
        let id = self.enter(name);
        let r = f(self);
        let s = self.exit(id);
        (r, s)
    }

    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// The span tree as JSON lines-friendly text: one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":{:?},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(i)
            );
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::default();
        let (_, outer) = spans.time("outer", |s| {
            s.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        assert!(outer >= 0.005);
        assert!(spans.self_ns(0) < spans.spans[1].end_ns - spans.spans[1].start_ns);
        assert_eq!(spans.spans[1].parent, Some(0));
    }
}
