//! `table1` and `scale`: passes over a program list, each program compiled
//! through a fresh memory-cached [`Engine`], as `phc` does: once per pass,
//! or a few times when it is cheap.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ph_engine::{CacheStats, Engine, EngineOutput, Pipeline};

use crate::check;
use crate::inputs::Program;
use crate::stats::{geomean, median, quantile, ratio, trimmed_mean};
use crate::trace::{pass_metrics, timed_pipeline, Tracer};
use crate::{Fixed, Outcome, Setup};

/// Fewest passes per run, so every program has two samples or more.
const MIN_PASSES: usize = 2;
/// A program that compiles faster than this is cheap. In a plain pass its
/// first compile only warms it up and is not timed: it runs right after
/// another program, which may have freed hundreds of MB, and takes up to
/// twice as long as the next one. It then compiles again, up to
/// [`CHEAP_REPEATS`] times, until the timed compiles have taken this long,
/// so cheap programs get enough samples for a steady mean.
const CHEAP_BUDGET_S: f64 = 0.05;
/// See [`CHEAP_BUDGET_S`].
const CHEAP_REPEATS: usize = 5;

/// Per-program compile walls of one kind of pass (plain or timed).
struct Passes {
    walls: Vec<Vec<f64>>,
    cache: CacheStats,
    count: usize,
}

impl Passes {
    fn new(n: usize) -> Passes {
        Passes {
            walls: vec![Vec::new(); n],
            cache: CacheStats::default(),
            count: 0,
        }
    }

    /// Each program's trimmed mean wall time: unlike a median, it also
    /// averages over the machine's speed changes within a run.
    fn typicals(&self) -> Vec<f64> {
        self.walls.iter().map(|w| trimmed_mean(w)).collect()
    }

    /// `compile_s`: the per-program trimmed means summed over the program
    /// list, i.e. the typical time of one pass.
    fn compile_s(&self) -> f64 {
        self.typicals().iter().sum()
    }
}

/// Runs `table1` or `scale` for about `seconds`: set-up (`make`, sampled
/// by [`Setup`]), then passes until the time is spent. An untraced run
/// stops at its deadline, within a pass once [`MIN_PASSES`] are done. With
/// `traced`, passes alternate between the plain pipeline and the timed
/// one, always complete, and only per-layer metrics are reported.
pub fn run(make: impl Fn() -> Vec<Program>, seconds: f64, traced: bool) -> Outcome {
    let (mut setup, mut programs) = Setup::start(make);

    let mut out = Outcome::default();
    let tracer = Tracer::new();
    let plain = Pipeline::auto();
    let timed = timed_pipeline(&plain, &tracer);
    let mut runs = [Passes::new(programs.len()), Passes::new(programs.len())];
    // Shared by both kinds, so the timed pipeline must repeat the plain
    // one's outputs exactly.
    let mut firsts: Vec<Option<Fixed>> = programs.iter().map(|_| None).collect();
    let budget = Duration::from_secs_f64(seconds);
    let mut measured = Duration::ZERO;
    let mut pass = 0;
    'passes: while pass < MIN_PASSES || measured < budget {
        let pass_start = Instant::now();
        let kind = usize::from(traced && pass % 2 == 1);
        let pipeline = if kind == 1 { &timed } else { &plain };
        let _pass_span = (kind == 1).then(|| tracer.span("pass"));
        for (i, p) in programs.iter().enumerate() {
            if !traced && pass >= MIN_PASSES && measured + pass_start.elapsed() >= budget {
                break 'passes;
            }
            let mut spent = 0.0;
            // Timed passes compile each program once, so their per-layer
            // figures are per pass over the program list.
            let repeats = if kind == 1 { 1 } else { 1 + CHEAP_REPEATS };
            for repeat in 0..repeats {
                let _program_span = (kind == 1).then(|| tracer.span("program"));
                let engine = Engine::new(pipeline.clone(), p.target.clone());
                let t0 = Instant::now();
                let result = {
                    let _compile_span = (kind == 1).then(|| tracer.span("compile"));
                    engine.compile(&p.ir)
                };
                let wall = t0.elapsed().as_secs_f64();
                let warm_up = kind == 0 && repeat == 0 && wall < CHEAP_BUDGET_S;
                if !warm_up {
                    spent += wall;
                }
                let stats = engine.cache_stats();
                let acc = &mut runs[kind];
                acc.cache.hits += stats.hits;
                acc.cache.misses += stats.misses;
                acc.cache.coalesced += stats.coalesced;
                let verdict = result
                    .map_err(|e| format!("{}: {e}", p.label))
                    .and_then(|o| {
                        if !warm_up {
                            acc.walls[i].push(wall);
                        }
                        verify(p, &o, &mut firsts[i])
                    });
                out.op(verdict);
                if spent >= CHEAP_BUDGET_S {
                    break;
                }
            }
        }
        runs[kind].count += 1;
        pass += 1;
        measured += pass_start.elapsed();
        programs = setup.renew(programs);
    }
    let [plain_runs, traced_runs] = runs;

    if traced {
        layer_metrics(&mut out, &tracer, &plain_runs, &traced_runs);
        out.trace_jsonl = Some(tracer.to_jsonl());
        return out;
    }

    let typicals = plain_runs.typicals();
    for (p, (m, first)) in programs.iter().zip(typicals.iter().zip(&firsts)) {
        if let Some(f) = first {
            out.rows.push(format!(
                "{:<24} {:>12.3} {:>10} {:>10} {:>8}",
                p.label,
                m * 1e3,
                f.cnot,
                f.single,
                f.depth
            ));
            out.fixed.push(f.clone());
        }
    }
    let geo_ms = geomean(&typicals) * 1e3;
    let count = programs.len();
    drop(programs);
    out.rows.push(format!(
        "{:<24} {:>12.3}   ({} programs, {} passes)",
        "geomean", geo_ms, count, plain_runs.count
    ));
    out.metric("setup_s", setup.finish(), "s");
    out.metric("compile_s", plain_runs.compile_s(), "s");
    out.metric("compile_geomean_ms", geo_ms, "ms");
    // Raw samples come in one cluster per program and would put the
    // median in the gap between two programs: take the per-program figures.
    out.metric("req_p50_ms", median(&typicals) * 1e3, "ms");
    out.metric("req_p99_ms", quantile(&typicals, 0.99) * 1e3, "ms");
    // Programs per second of a typical pass: counting every compile call
    // would weigh the cheap programs' repeats.
    out.metric("req_per_s", count as f64 / plain_runs.compile_s(), "1/s");
    out.output_metrics();
    out
}

/// The output check plus the across-passes determinism guard.
fn verify(p: &Program, o: &EngineOutput, first: &mut Option<Fixed>) -> Result<(), String> {
    check::check(&p.reference, &o.compiled, p.device.as_deref())
        .map_err(|e| format!("{}: {e}", p.label))?;
    let now = Fixed::new(&p.label, o.report.key, &o.compiled);
    match first {
        None => {
            *first = Some(now);
            Ok(())
        }
        Some(f) if *f == now => Ok(()),
        Some(_) => Err(format!("{}: output differs between passes", p.label)),
    }
}

/// Per-layer metrics of the traced passes, per pass over the program list.
fn layer_metrics(out: &mut Outcome, tracer: &Arc<Tracer>, plain: &Passes, traced: &Passes) {
    let n = traced.count.max(1) as f64;
    pass_metrics(out, tracer, n);
    out.metric(
        "engine.self_s",
        tracer.self_ns("compile") as f64 * 1e-9 / n,
        "s",
    );
    let c = traced.cache;
    out.metric("cache.hits", c.hits as f64 / n, "count");
    out.metric("cache.misses", c.misses as f64 / n, "count");
    out.metric("cache.coalesced", c.coalesced as f64 / n, "count");
    let lookups = (c.hits + c.misses) as f64;
    out.metric("cache.hit_frac", ratio(c.hits as f64, lookups), "ratio");
    // The wire layers do not run in an in-process compile loop.
    for name in [
        "serve.queue_wait_ms",
        "serve.job_wall_ms",
        "serve.rest_ms",
        "serve.reply_bytes",
        "client.parse_ms",
    ] {
        out.metric(
            name,
            0.0,
            if name.ends_with("bytes") {
                "bytes"
            } else {
                "ms"
            },
        );
    }
    out.metric(
        "trace.overhead_frac",
        ratio(traced.compile_s(), plain.compile_s()),
        "ratio",
    );
}
