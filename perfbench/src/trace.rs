//! Tracing from the benchmark's own files: in-memory spans with parent
//! links, and a timing [`Pass`] that wraps each pass of the engine's
//! pipeline while forwarding its `name()` and `signature()`, so cache
//! keys and circuits stay exactly those of the unwrapped pipeline.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use paulihedral::CompileError;
use ph_engine::json::Json;
use ph_engine::{CompileUnit, Pass, PassContext, Pipeline, Target};

use crate::stats::ratio;
use crate::Outcome;
use qcircuit::Gate;

/// One finished (or open, `end_ns == 0`) span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Span name (`workload`, `program`, `compile`, a pass name, …).
    pub name: String,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Which thread ran it (`ph_telemetry::thread_id`).
    pub thread: u64,
}

impl SpanRec {
    /// The span's wall time in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-pass counts, recorded at the same boundary as the pass spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Layers produced by the scheduling pass.
    pub schedule_layers: u64,
    /// Gates the synthesis pass produced.
    pub synthesis_gates_out: u64,
    /// SWAPs among them.
    pub synthesis_swaps: u64,
    /// Gates entering the peephole pass.
    pub peephole_gates_in: u64,
    /// Gates leaving it.
    pub peephole_gates_out: u64,
}

thread_local! {
    /// Open spans of this thread (indices into the tracer's span list).
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans and tallies in memory; written out when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
    tally: Mutex<Tally>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    index: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans[self.index].end_ns = end;
        }
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.index) {
                s.pop();
            }
        });
    }
}

impl Tracer {
    /// An empty tracer; its creation is time zero.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            tally: Mutex::new(Tally::default()),
        })
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open span of this thread.
    pub fn span(&self, name: impl Into<String>) -> SpanGuard<'_> {
        let thread = ph_telemetry::thread_id();
        let parent = STACK.with(|s| s.borrow().last().copied());
        let start = self.now_ns();
        let index = {
            let mut spans = self.spans.lock().expect("tracer lock poisoned");
            spans.push(SpanRec {
                name: name.into(),
                start_ns: start,
                end_ns: 0,
                parent,
                thread,
            });
            spans.len() - 1
        };
        STACK.with(|s| s.borrow_mut().push(index));
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }

    /// The per-pass counts recorded so far.
    pub fn tally(&self) -> Tally {
        *self.tally.lock().expect("tracer lock poisoned")
    }

    /// Total wall time of the spans named `name`.
    pub fn busy_ns(&self, name: &str) -> u64 {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::dur_ns)
            .sum()
    }

    /// Total self time (wall minus the wall of direct children) of the
    /// spans named `name`.
    pub fn self_ns(&self, name: &str) -> u64 {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.dur_ns().saturating_sub(child_ns[i]))
            .sum()
    }

    /// The spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`,
    /// `thread`), one per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans().iter().enumerate() {
            let line = Json::obj([
                ("id", Json::U64(i as u64)),
                ("name", Json::str(&s.name)),
                ("start_ns", Json::U64(s.start_ns)),
                ("end_ns", Json::U64(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                ),
                ("thread", Json::U64(s.thread)),
            ]);
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        out
    }
}

/// A pass that times the pass it wraps. `name()` and `signature()` are the
/// wrapped pass's, so the pipeline's cache keys do not change.
pub struct TimedPass {
    inner: Arc<dyn Pass>,
    tracer: Arc<Tracer>,
}

/// The span name of a pass run: `synthesis` is split by target kind.
fn span_name(pass: &str, target: &Target) -> String {
    match (pass, target) {
        ("synthesis", Target::FaultTolerant) => "synthesis.ft".into(),
        ("synthesis", Target::Superconducting { .. }) => "synthesis.sc".into(),
        (other, _) => other.into(),
    }
}

impl Pass for TimedPass {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn signature(&self, ctx: &PassContext<'_>) -> String {
        self.inner.signature(ctx)
    }

    fn run(&self, unit: &mut CompileUnit, ctx: &PassContext<'_>) -> Result<String, CompileError> {
        let gates_in = unit.circuit.as_ref().map_or(0, |c| c.len()) as u64;
        let note = {
            let _span = self.tracer.span(span_name(self.inner.name(), ctx.target));
            self.inner.run(unit, ctx)?
        };
        // Counting is tracing work, not engine work: its own span keeps it
        // out of the enclosing compile span's self time.
        let _span = self.tracer.span("trace.tally");
        let circuit = unit.circuit.as_ref();
        let gates_out = circuit.map_or(0, |c| c.len()) as u64;
        let mut t = self.tracer.tally.lock().expect("tracer lock poisoned");
        match self.inner.name() {
            "schedule" => t.schedule_layers += unit.layers.as_ref().map_or(0, Vec::len) as u64,
            "synthesis" => {
                t.synthesis_gates_out += gates_out;
                if let (Target::Superconducting { .. }, Some(c)) = (ctx.target, circuit) {
                    t.synthesis_swaps +=
                        c.iter().filter(|g| matches!(g, Gate::Swap(..))).count() as u64;
                }
            }
            "peephole" => {
                t.peephole_gates_in += gates_in;
                t.peephole_gates_out += gates_out;
            }
            _ => {}
        }
        Ok(note)
    }
}

/// `pipeline` with every pass wrapped in a [`TimedPass`] on `tracer`.
pub fn timed_pipeline(pipeline: &Pipeline, tracer: &Arc<Tracer>) -> Pipeline {
    pipeline
        .passes()
        .iter()
        .fold(Pipeline::builder(), |b, p| {
            b.pass(TimedPass {
                inner: Arc::clone(p),
                tracer: Arc::clone(tracer),
            })
        })
        .build()
}

/// The per-pass layer metrics (`schedule.*`, `synthesis.*`, `peephole.*`)
/// of everything `tracer` saw, divided by `per` (the number of passes
/// over the program list, or 1 for totals).
pub fn pass_metrics(out: &mut Outcome, tracer: &Tracer, per: f64) {
    let busy_s = |name: &str| tracer.busy_ns(name) as f64 * 1e-9 / per;
    let t = tracer.tally();
    let gates_in = t.peephole_gates_in as f64 / per;
    let removed = t.peephole_gates_in.saturating_sub(t.peephole_gates_out) as f64 / per;
    out.metric("peephole.busy_s", busy_s("peephole"), "s");
    out.metric("peephole.gates_in", gates_in, "count");
    out.metric("peephole.gates_removed", removed, "count");
    out.metric("peephole.removed_frac", ratio(removed, gates_in), "ratio");
    out.metric(
        "peephole.ns_per_gate_in",
        ratio(
            tracer.busy_ns("peephole") as f64,
            t.peephole_gates_in as f64,
        ),
        "ns",
    );
    out.metric("synthesis.sc.busy_s", busy_s("synthesis.sc"), "s");
    out.metric("synthesis.ft.busy_s", busy_s("synthesis.ft"), "s");
    out.metric(
        "synthesis.gates_out",
        t.synthesis_gates_out as f64 / per,
        "count",
    );
    out.metric("synthesis.swaps", t.synthesis_swaps as f64 / per, "count");
    out.metric("schedule.busy_s", busy_s("schedule"), "s");
    out.metric("schedule.layers", t.schedule_layers as f64 / per, "count");
}
