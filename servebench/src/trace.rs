//! In-memory spans recorded by the benchmark around each call it makes
//! into a layer's public API. Spans inside the program are out of scope;
//! a layer's span here covers everything below that call.

use std::fmt::Write as _;
use std::time::Instant;

/// The repository module a span's call enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own code (request generation, bookkeeping).
    Bench,
    /// `nfv-serve`: engine, registry, cache, queue, workers.
    Serve,
    /// `nfv-xai`: the explainers.
    Xai,
    /// `nfv-ml`: SoA forest packing and evaluation.
    Ml,
    /// `nfv-net`: codec, client, shard server, router.
    Net,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 5] = [
        Layer::Bench,
        Layer::Serve,
        Layer::Xai,
        Layer::Ml,
        Layer::Net,
    ];

    /// The module name the layer is reported under.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Serve => "nfv-serve",
            Layer::Xai => "nfv-xai",
            Layer::Ml => "nfv-ml",
            Layer::Net => "nfv-net",
        }
    }
}

/// How a request ended, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Not a request span.
    None,
    /// Answered from the cache (exact or quantized tier).
    Hit,
    /// Computed by the workers.
    Miss,
    /// Answered coarse by the anytime path.
    Degraded,
    /// Rejected, or failed in transport.
    Failed,
}

impl Outcome {
    /// Short label for reports and the span file.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::None => "-",
            Outcome::Hit => "hit",
            Outcome::Miss => "miss",
            Outcome::Degraded => "degraded",
            Outcome::Failed => "failed",
        }
    }
}

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The public function called, e.g. `Engine::explain`.
    pub name: &'static str,
    /// The module it belongs to.
    pub layer: Layer,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Request (or probe item) the span belongs to.
    pub rid: u64,
    /// Request outcome, for spans that carry one.
    pub outcome: Outcome,
}

impl Span {
    /// Span length in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder owned by one thread. Threads' recorders share an epoch
/// and are merged when the run ends.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder timing from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn begin(
        &mut self,
        name: &'static str,
        layer: Layer,
        rid: u64,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            rid,
            outcome: Outcome::None,
        });
        self.spans.len() - 1
    }

    /// Closes span `i`.
    pub fn end(&mut self, i: usize, outcome: Outcome) {
        let now = self.now_ns();
        let s = &mut self.spans[i];
        s.end_ns = now;
        s.outcome = outcome;
    }

    /// Runs `f` inside a span with no parent.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: Layer,
        rid: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let i = self.begin(name, layer, rid, None);
        let out = f();
        self.end(i, Outcome::None);
        out
    }

    /// Appends another recorder's spans, rebasing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of the spans named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Durations in microseconds of the spans named `name` that ended
    /// with `outcome`.
    pub fn durations_us_of(&self, name: &str, outcome: Outcome) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.outcome == outcome)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Self time per layer in milliseconds: each span's length minus the
    /// part of it its child spans cover, summed per layer.
    pub fn self_ms(&self) -> [(Layer, f64); 5] {
        // Children are recorded after their parent and nest inside it, so
        // the sum of child lengths is the covered part unless children
        // overlap, which one thread's spans never do.
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        Layer::ALL.map(|layer| {
            let ns: u64 = self
                .spans
                .iter()
                .zip(&child_ns)
                .filter(|(s, _)| s.layer == layer)
                .map(|(s, &c)| s.dur_ns().saturating_sub(c))
                .sum();
            (layer, ns as f64 / 1e6)
        })
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"rid\":{},\"outcome\":\"{}\"}}",
                s.name,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.rid,
                s.outcome.name()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.span("x", Layer::Ml, 0, || ());
        let mut b = Tracer::new(epoch);
        let root = b.begin("request", Layer::Bench, 1, None);
        let child = b.begin("Engine::explain", Layer::Serve, 1, Some(root));
        std::thread::sleep(std::time::Duration::from_millis(2));
        b.end(child, Outcome::Hit);
        b.end(root, Outcome::Hit);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let self_ms = a.self_ms();
        let serve = self_ms.iter().find(|(l, _)| *l == Layer::Serve).unwrap().1;
        let bench = self_ms.iter().find(|(l, _)| *l == Layer::Bench).unwrap().1;
        assert!(serve >= 2.0, "child keeps its own time: {serve}");
        assert!(bench < serve, "parent loses the child's time: {bench}");
        assert_eq!(a.to_jsonl().lines().count(), 3);
    }
}
