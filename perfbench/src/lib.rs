//! The benchmark of the `ph_engine` compile path: the `table1`, `scale`
//! and `serve-sweep` workloads, their output check and their trace.
//! `README.md` maps every metric to its layer.

pub mod check;
pub mod compile_loop;
pub mod inputs;
pub mod serve_sweep;
pub mod stats;
pub mod trace;

use paulihedral::Compiled;
use qcircuit::Gate;

/// Set-ups timed before the measured work starts, and again after it ends.
const SETUP_BURST: usize = 3;

/// Set-up times sampled through a run: a burst of [`SETUP_BURST`] before
/// the measured work, one between each of its passes or rounds (outside
/// the measured time), and a burst after it. A shared virtual machine can
/// switch between a fast and a slow speed every few seconds, so set-ups
/// timed back to back all land in one of the two; spread through the run
/// they land in both in the proportion the run did.
pub struct Setup<F> {
    make: F,
    times: Vec<f64>,
}

impl<T, F: FnMut() -> T> Setup<F> {
    /// Runs `make` [`SETUP_BURST`] times and returns the last result.
    /// A repeat's result is dropped outside the timed region.
    pub fn start(make: F) -> (Setup<F>, T) {
        let mut setup = Setup {
            make,
            times: Vec::new(),
        };
        let mut last = setup.sample();
        for _ in 1..SETUP_BURST {
            drop(last);
            last = setup.sample();
        }
        (setup, last)
    }

    /// Times one more set-up and returns its result.
    pub fn sample(&mut self) -> T {
        let t0 = std::time::Instant::now();
        let value = (self.make)();
        self.times.push(t0.elapsed().as_secs_f64());
        value
    }

    /// Times one more set-up and drops its result.
    pub fn again(&mut self) {
        drop(self.sample());
    }

    /// Drops `current`, then times one more set-up and returns it in its
    /// place, so that only one set-up's data is alive at a time and peak
    /// memory stays that of the measured work.
    pub fn renew(&mut self, current: T) -> T {
        drop(current);
        self.sample()
    }

    /// Times the closing burst; `setup_s`, the trimmed mean of all set-ups.
    pub fn finish(mut self) -> f64 {
        for _ in 0..SETUP_BURST {
            self.again();
        }
        stats::trimmed_mean(&self.times)
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one program compiled to: everything the determinism guard
/// requires to repeat exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fixed {
    /// Row label.
    pub label: String,
    /// The engine's cache key.
    pub key: u64,
    /// SWAP-decomposed CNOT count.
    pub cnot: usize,
    /// Single-qubit gate count.
    pub single: usize,
    /// Depth.
    pub depth: usize,
    /// [`digest`] of the whole output.
    pub digest: u64,
}

impl Fixed {
    /// The record of one output.
    pub fn new(label: &str, key: u64, compiled: &Compiled) -> Fixed {
        let stats = compiled.circuit.mapped_stats();
        Fixed {
            label: label.to_string(),
            key,
            cnot: stats.cnot,
            single: stats.single,
            depth: stats.depth,
            digest: digest(compiled),
        }
    }
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (compiles or requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or failed the output check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable per-program rows.
    pub rows: Vec<String>,
    /// Per-program outputs that must repeat across runs.
    pub fixed: Vec<Fixed>,
    /// The trace as JSON lines (traced runs only).
    pub trace_jsonl: Option<String>,
}

impl Outcome {
    /// Records one operation; `Err` counts it as failed.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(msg);
            }
        }
    }

    /// Appends a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Appends the metrics every workload reports the same way: the exact
    /// counts summed over [`Outcome::fixed`], peak memory, and `ok_frac`.
    pub fn output_metrics(&mut self) {
        let sum = |f: fn(&Fixed) -> usize| self.fixed.iter().map(f).sum::<usize>() as f64;
        let (cnot, single, depth) = (sum(|f| f.cnot), sum(|f| f.single), sum(|f| f.depth));
        self.metric("cnot", cnot, "count");
        self.metric("single", single, "count");
        self.metric("depth", depth, "count");
        self.metric("peak_rss_mb", stats::peak_rss_mb(), "MB");
        let ok = stats::ratio((self.attempted - self.failed) as f64, self.attempted as f64);
        self.metric("ok_frac", ok, "ratio");
    }
}

/// FNV-1a digest of everything a compiled kernel carries: gates (with
/// exact angles), emitted terms, and layouts. Equal digests mean
/// gate-identical outputs.
pub fn digest(c: &Compiled) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(c.circuit.num_qubits() as u64);
    for g in c.circuit.gates() {
        let (tag, angle) = match *g {
            Gate::H(_) => (0, 0.0),
            Gate::X(_) => (1, 0.0),
            Gate::S(_) => (2, 0.0),
            Gate::Sdg(_) => (3, 0.0),
            Gate::Rz(_, t) => (4, t),
            Gate::Rx(_, t) => (5, t),
            Gate::Ry(_, t) => (6, t),
            Gate::Cx(..) => (7, 0.0),
            Gate::Swap(..) => (8, 0.0),
        };
        let (a, b) = g.qubits();
        eat(tag);
        eat(a as u64);
        eat(b.map_or(u64::MAX, |b| b as u64));
        eat(angle.to_bits());
    }
    for (p, theta) in &c.emitted {
        p.x_words().iter().chain(p.z_words()).for_each(|w| eat(*w));
        eat(theta.to_bits());
    }
    for layout in [&c.initial_l2p, &c.final_l2p] {
        for &q in layout.iter().flatten() {
            eat(q as u64);
        }
        eat(u64::MAX);
    }
    h
}
