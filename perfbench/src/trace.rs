//! Layer spans for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer: a `window` span around each simulated control
//! window the benchmark drives, and `routing`/`placement` spans from
//! [`TracedRouting`] and [`TracedPlacement`], wrappers that forward
//! every trait method to the real implementation. Spans stay in memory
//! while the pass runs, are written as JSON Lines when the run ends,
//! and every per-layer time is derived from that file by
//! [`attribute`].

use cloudqc::circuit::Circuit;
use cloudqc::cloud::{Cloud, CloudStatus};
use cloudqc::core::placement::{Placement, PlacementAlgorithm};
use cloudqc::core::runtime::{RouteContext, RoutingPolicy};
use cloudqc::core::workload::WorkloadJob;
use cloudqc::core::PlacementError;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The layer a span times. Names follow the repository's modules.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One simulated control window driven through the public API.
    Window,
    /// One `RoutingPolicy::route` call.
    Routing,
    /// One `PlacementAlgorithm::place` call (a cold place: cache hits
    /// never reach the algorithm).
    Placement,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Window => "window",
            Layer::Routing => "routing",
            Layer::Placement => "placement",
        }
    }

    fn parse(name: &str) -> Option<Layer> {
        [Layer::Window, Layer::Routing, Layer::Placement]
            .into_iter()
            .find(|layer| layer.name() == name)
    }
}

/// One recorded span. `id` is the span's index within its pass;
/// `parent` is the span that was open when it started; `window` is the
/// enclosing window's number (for a window span, its own).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub window: Option<u32>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<u32>,
    windows: u32,
}

/// The in-memory span store of one traced pass. `Sync` because
/// `PlacementAlgorithm` requires it of the wrapper that holds it.
pub struct Recorder {
    origin: Instant,
    state: Mutex<State>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }
}

impl Recorder {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("no thread panics while holding the span store")
    }

    /// Opens a span nested in the innermost open span.
    pub fn enter(&self, layer: Layer) -> u32 {
        let mut state = self.lock();
        let id = u32::try_from(state.spans.len()).expect("fewer than 2^32 spans per pass");
        let window = if layer == Layer::Window {
            state.windows += 1;
            Some(state.windows - 1)
        } else {
            state
                .open
                .first()
                .and_then(|&outer| state.spans[outer as usize].window)
        };
        let parent = state.open.last().copied();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        state.spans.push(Span {
            id,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            window,
        });
        state.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&self, id: u32) {
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let mut state = self.lock();
        assert_eq!(state.open.pop(), Some(id), "spans close innermost first");
        state.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span of `layer`.
    pub fn within<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let id = self.enter(layer);
        let result = f();
        self.exit(id);
        result
    }

    /// The recorded spans, leaving the store empty.
    pub fn take(&self) -> Vec<Span> {
        let mut state = self.lock();
        assert!(
            state.open.is_empty(),
            "every span is closed before the pass ends"
        );
        state.windows = 0;
        std::mem::take(&mut state.spans)
    }
}

/// A placement algorithm whose `place` calls are recorded as
/// `placement` spans.
pub struct TracedPlacement<P> {
    inner: P,
    recorder: Arc<Recorder>,
}

impl<P> TracedPlacement<P> {
    pub fn new(inner: P, recorder: Arc<Recorder>) -> Self {
        TracedPlacement { inner, recorder }
    }
}

impl<P: PlacementAlgorithm> PlacementAlgorithm for TracedPlacement<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(
        &self,
        circuit: &Circuit,
        cloud: &Cloud,
        status: &CloudStatus,
        seed: u64,
    ) -> Result<Placement, PlacementError> {
        self.recorder.within(Layer::Placement, || {
            self.inner.place(circuit, cloud, status, seed)
        })
    }
}

/// A routing policy whose `route` calls are recorded as `routing`
/// spans (with the probes' cold places nested inside them).
pub struct TracedRouting<R> {
    inner: R,
    recorder: Arc<Recorder>,
}

impl<R> TracedRouting<R> {
    pub fn new(inner: R, recorder: Arc<Recorder>) -> Self {
        TracedRouting { inner, recorder }
    }
}

impl<R: RoutingPolicy> RoutingPolicy for TracedRouting<R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, job: &WorkloadJob, ctx: &mut RouteContext<'_, '_>) -> usize {
        self.recorder
            .within(Layer::Routing, || self.inner.route(job, ctx))
    }
}

/// Writes the spans of every traced pass as JSON Lines, one span per
/// line, tagged with its pass number.
pub fn to_jsonl(passes: &[Vec<Span>]) -> String {
    let mut out = String::new();
    for (pass, spans) in passes.iter().enumerate() {
        for span in spans {
            let opt = |v: Option<u32>| v.map_or("null".to_owned(), |v| v.to_string());
            writeln!(
                out,
                "{{\"pass\":{pass},\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"window\":{}}}",
                span.id,
                span.layer.name(),
                span.start_ns,
                span.end_ns,
                opt(span.parent),
                opt(span.window),
            )
            .expect("writing to a String cannot fail");
        }
    }
    out
}

/// Reads back what [`to_jsonl`] wrote, grouped by pass.
pub fn from_jsonl(text: &str) -> Result<Vec<Vec<Span>>, String> {
    let mut passes: Vec<Vec<Span>> = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let bad = |what: &str| format!("span file line {}: {what}", n + 1);
        let body = line
            .strip_prefix('{')
            .and_then(|l| l.strip_suffix('}'))
            .ok_or_else(|| bad("not an object"))?;
        let field = |key: &str| -> Result<&str, String> {
            body.split(',')
                .filter_map(|kv| kv.split_once(':'))
                .find(|(k, _)| k.trim_matches('"') == key)
                .map(|(_, v)| v)
                .ok_or_else(|| bad(&format!("no `{key}`")))
        };
        let int = |key: &str| -> Result<u64, String> {
            field(key)?
                .parse()
                .map_err(|_| bad(&format!("`{key}` is not an integer")))
        };
        let opt = |key: &str| -> Result<Option<u32>, String> {
            match field(key)? {
                "null" => Ok(None),
                v => v
                    .parse()
                    .map(Some)
                    .map_err(|_| bad(&format!("bad `{key}`"))),
            }
        };
        let pass = usize::try_from(int("pass")?).map_err(|_| bad("`pass` is too large"))?;
        let layer =
            Layer::parse(field("name")?.trim_matches('"')).ok_or_else(|| bad("unknown layer"))?;
        let span = Span {
            id: u32::try_from(int("id")?).map_err(|_| bad("`id` is too large"))?,
            layer,
            start_ns: int("start_ns")?,
            end_ns: int("end_ns")?,
            parent: opt("parent")?,
            window: opt("window")?,
        };
        if pass >= passes.len() {
            passes.resize_with(pass + 1, Vec::new);
        }
        if span.id as usize != passes[pass].len() || span.end_ns < span.start_ns {
            return Err(bad(
                "span ids must count up from 0 and spans end after they start",
            ));
        }
        passes[pass].push(span);
    }
    Ok(passes)
}

/// Host time of one traced pass split by layer. Self time is a span's
/// duration minus the part its child spans cover.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    /// Summed duration of every window span.
    pub window_ns: u64,
    pub routing_busy_ns: u64,
    pub routing_self_ns: u64,
    /// Per-call `route` durations, in call order.
    pub routing_call_ns: Vec<u64>,
    pub placement_busy_ns: u64,
    /// Per-call `place` durations, in call order.
    pub placement_call_ns: Vec<u64>,
    /// The windows' self time: everything the window spent outside a
    /// `route` or `place` call (executor event loop, admission, cache
    /// lookups, scheduler calls, submissions).
    pub residual_ns: u64,
}

impl Attribution {
    /// How far the layers' parts miss the summed window time, as a
    /// share of it.
    pub fn closure_error(&self) -> f64 {
        let parts = self.routing_self_ns + self.placement_busy_ns + self.residual_ns;
        (parts as f64 - self.window_ns as f64).abs() / self.window_ns.max(1) as f64
    }
}

/// Splits one pass's spans by layer. Every span must sit inside a
/// window, or its time would be missing from the window total.
pub fn attribute(spans: &[Span]) -> Result<Attribution, String> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        match span.parent {
            Some(parent) => {
                let parent = spans
                    .get(parent as usize)
                    .filter(|p| p.start_ns <= span.start_ns && span.end_ns <= p.end_ns)
                    .ok_or_else(|| format!("span {} lies outside its parent", span.id))?;
                child_ns[parent.id as usize] += span.duration_ns();
            }
            None if span.layer != Layer::Window => {
                return Err(format!(
                    "{} span {} is outside every window",
                    span.layer.name(),
                    span.id
                ));
            }
            None => {}
        }
    }
    let mut a = Attribution::default();
    for span in spans {
        let dur = span.duration_ns();
        let own = dur
            .checked_sub(child_ns[span.id as usize])
            .ok_or_else(|| format!("the children of span {} overlap", span.id))?;
        match span.layer {
            Layer::Window => {
                a.window_ns += dur;
                a.residual_ns += own;
            }
            Layer::Routing => {
                a.routing_busy_ns += dur;
                a.routing_self_ns += own;
                a.routing_call_ns.push(dur);
            }
            Layer::Placement => {
                a.placement_busy_ns += dur;
                a.placement_call_ns.push(dur);
            }
        }
    }
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_round_trip_and_add_up() {
        let recorder = Recorder::default();
        recorder.within(Layer::Window, || {
            recorder.within(Layer::Routing, || {
                recorder.within(Layer::Placement, || std::hint::black_box(0u64))
            });
            recorder.within(Layer::Placement, || std::hint::black_box(1u64));
        });
        recorder.within(Layer::Window, || {});
        let spans = recorder.take();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].window, Some(0));
        assert_eq!(spans[4].window, Some(1));
        let back = from_jsonl(&to_jsonl(std::slice::from_ref(&spans))).unwrap();
        assert_eq!(back, vec![spans.clone()]);
        let a = attribute(&spans).unwrap();
        assert_eq!((a.routing_call_ns.len(), a.placement_call_ns.len()), (1, 2));
        assert_eq!(a.closure_error(), 0.0);
    }

    #[test]
    fn a_span_outside_every_window_is_refused() {
        let recorder = Recorder::default();
        recorder.within(Layer::Placement, || {});
        assert!(attribute(&recorder.take()).is_err());
    }
}
