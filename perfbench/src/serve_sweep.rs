//! `serve-sweep`: a VQA-style parameter sweep against an in-process
//! compile service.
//!
//! Two clients (one per CPU of the reference machine) each run a closed
//! loop over their own connection: send a compile request with
//! `artifact: true`, wait for the report, send the next. Four in five
//! requests repeat one of the client's recent (program, parameter point)s,
//! which the service answers from its cache; every fifth is a fresh point
//! with all block values redrawn, which compiles and fills the cache.
//! Repeats go round the recent points in turn, so every point gets the
//! same number of them and every program the same share of the traffic,
//! whatever the seed; the seed sets the order of the programs and the
//! values. The service is a [`Server`] over a 2-worker [`BatchEngine`] with
//! a memory cache bounded at 64 entries, so its memory stays flat however
//! many requests a run completes.
//!
//! Replies are checked after each measured round (the output check on the
//! decoded artifact, the reply's counts against the artifact's, and the
//! determinism guard), outside the measured time. A round ends once the
//! buffered replies reach 24 MB, which bounds the client's own memory.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use paulihedral::parse::parse_program;
use ph_engine::cache::CacheConfig;
use ph_engine::json::Json;
use ph_engine::proto::{self, CompileRequest};
use ph_engine::{
    persist, BatchEngine, Connection, Pipeline, Request, ServeConfig, ServeStats, Server,
    ServerHandle, Target,
};

use crate::check::{self, Reference};
use crate::inputs::{self, Program, Rng, SERVE_NAMES};
use crate::stats::{geomean, mean, median, quantile, ratio, trimmed_mean};
use crate::trace::{pass_metrics, timed_pipeline, Tracer};
use crate::{Fixed, Outcome, Setup};

/// Concurrent clients, each with one request in flight.
const CLIENTS: usize = 2;
/// Service worker threads.
const WORKERS: usize = 2;
/// Memory-cache entry budget of the service.
const CACHE_ENTRIES: usize = 64;
/// Every `FRESH_EVERY`-th request of a client is a fresh point.
const FRESH_EVERY: u64 = 5;
/// Distinct points a client repeats from (its most recent fresh ones).
/// Both clients' windows fit the cache many times over, so a repeat is a
/// hit.
const WINDOW: usize = 12;
/// Reply bytes buffered before a round ends and its replies are checked.
const ROUND_BYTES: usize = 24 << 20;

/// A parameter point: program index and point id (0 = the program's own
/// values).
type Point = (usize, u64);

/// The sweep's programs and the seed its parameter points are drawn from.
struct Sweep {
    programs: Vec<Program>,
    seed: u64,
}

impl Sweep {
    fn new(seed: u64) -> Sweep {
        let programs = SERVE_NAMES
            .iter()
            .map(|name| inputs::table1_program(name))
            .collect();
        Sweep { programs, seed }
    }

    /// The program text of a point: the program's own parameter values
    /// for point 0, otherwise every block value redrawn in `[−π, π)`.
    fn text(&self, (prog, id): Point) -> String {
        let p = &self.programs[prog];
        let mut rng = Rng::new(self.seed ^ id.wrapping_mul(0x9e37_79b9) ^ prog as u64);
        let mut out = String::new();
        for block in p.ir.blocks() {
            out.push('{');
            for t in &block.terms {
                out.push_str(&format!("({}, {}), ", t.string, t.weight));
            }
            let value = if id == 0 {
                block.parameter.value
            } else {
                rng.uniform(-std::f64::consts::PI, std::f64::consts::PI)
            };
            out.push_str(&format!("{value}}};\n"));
        }
        out
    }

    /// The compile request of a point.
    fn request(&self, point: Point) -> Arc<Request> {
        let p = &self.programs[point.0];
        Arc::new(Request::Compile(CompileRequest {
            id: point.1,
            name: Some(p.label.clone()),
            ir: self.text(point),
            backend: Some(p.backend.to_string()),
            scheduler: None,
            deadline_ms: None,
            artifact: true,
        }))
    }
}

/// One client's deterministic request stream.
struct Stream {
    client: usize,
    rng: Rng,
    warm: VecDeque<usize>,
    /// The client's [`WINDOW`] most recent fresh points, as a ring.
    window: Vec<(Point, Arc<Request>)>,
    /// Points put into the window so far.
    added: usize,
    /// The window slot the last repeat came from.
    cursor: usize,
    sent: u64,
    fresh: u64,
    order: Vec<usize>,
}

impl Stream {
    fn new(client: usize, sweep: &Sweep) -> Stream {
        let mut rng = Rng::new(sweep.seed.wrapping_add(client as u64 + 1));
        let mut order: Vec<usize> = (0..sweep.programs.len()).collect();
        rng.shuffle(&mut order);
        // Each client first sends the base points of its share of programs.
        let warm = order
            .iter()
            .copied()
            .filter(|p| p % CLIENTS == client)
            .collect();
        Stream {
            client,
            rng,
            warm,
            window: Vec::new(),
            added: 0,
            cursor: 0,
            sent: 0,
            fresh: 0,
            order,
        }
    }

    fn next(&mut self, sweep: &Sweep) -> (Point, Arc<Request>) {
        self.sent += 1;
        let point = if let Some(prog) = self.warm.pop_front() {
            (prog, 0)
        } else if self.sent.is_multiple_of(FRESH_EVERY) || self.window.is_empty() {
            // Each cycle over the programs comes in a new order, so which
            // compiles overlap the other client's varies within a run.
            let cycle = self.fresh as usize % self.order.len();
            if cycle == 0 {
                self.rng.shuffle(&mut self.order);
            }
            let prog = self.order[cycle];
            self.fresh += 1;
            (prog, ((self.client as u64 + 1) << 40) | self.fresh)
        } else {
            // Once the window is full, each point stays in it for WINDOW
            // fresh points, during which the cursor goes round it
            // FRESH_EVERY - 1 times: each point is repeated that often.
            self.cursor = (self.cursor + 1) % self.window.len();
            return self.window[self.cursor].clone();
        };
        let entry = (point, sweep.request(point));
        if self.window.len() < WINDOW {
            self.window.push(entry.clone());
        } else {
            self.window[self.added % WINDOW] = entry.clone();
        }
        self.added += 1;
        entry
    }
}

/// One reply as the client saw it.
struct Reply {
    point: Point,
    latency_s: f64,
    parse_s: f64,
    bytes: usize,
    json: Result<Json, String>,
}

/// A running service and its client connections. Dropping it drains the
/// service and waits for it to exit.
struct Service {
    handle: ServerHandle,
    join: Option<JoinHandle<ServeStats>>,
    conns: Vec<Connection>,
}

impl Service {
    fn start(pipeline: Pipeline) -> std::io::Result<Service> {
        let batch = BatchEngine::new(pipeline, Target::FaultTolerant)
            .with_threads(WORKERS)
            .with_cache_config(CacheConfig {
                max_entries: Some(CACHE_ENTRIES),
                ..CacheConfig::unbounded()
            });
        let server = Server::bind("127.0.0.1:0", batch, ServeConfig::default())?;
        let addr: SocketAddr = server.local_addr();
        let mut service = Service {
            handle: server.handle(),
            join: Some(thread::spawn(move || server.run())),
            conns: Vec::new(),
        };
        for _ in 0..CLIENTS {
            service.conns.push(Connection::connect(addr)?);
        }
        Ok(service)
    }

    /// The service's cache counters, from the wire `stats` request.
    fn cache_stats(&mut self) -> Option<Json> {
        let conn = self.conns.first_mut()?;
        conn.send(&Request::Stats).ok()?;
        conn.recv().ok()??.get("cache").cloned()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        for conn in &mut self.conns {
            let _ = conn.finish();
            while let Ok(Some(_)) = conn.recv_line() {}
        }
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// What a measured phase produced.
#[derive(Default)]
struct Phase {
    measured_s: f64,
    latency_s: Vec<f64>,
    parse_s: Vec<f64>,
    bytes: Vec<f64>,
    queue_ms: Vec<f64>,
    job_ms: Vec<f64>,
    /// Per program: job walls of the requests that compiled.
    miss_ms: Vec<Vec<f64>>,
    cache: Option<Json>,
}

/// Runs `serve-sweep` for about `seconds`. With `traced`, the first half
/// runs the plain pipeline and the second half the timed one, and only
/// per-layer metrics are reported.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let (mut setup, ready) = Setup::start(|| {
        let sweep = Sweep::new(seed);
        Service::start(Pipeline::auto()).map(|service| (sweep, service))
    });
    let (sweep, service) = match ready {
        Ok(ready) => ready,
        Err(e) => {
            out.op(Err(format!("service did not start: {e}")));
            return out;
        }
    };
    // First reply of each point, which every repeat must match.
    let mut seen: HashMap<Point, Fixed> = HashMap::new();

    if !traced {
        let between = &mut || setup.again();
        let phase = measure(&sweep, service, seconds, &mut seen, &mut out, None, between);
        report(&mut out, &sweep, &phase, &seen, setup.finish());
        return out;
    }

    let idle = &mut || {};
    let plain = measure(
        &sweep,
        service,
        seconds / 2.0,
        &mut seen,
        &mut out,
        None,
        idle,
    );
    let tracer = Tracer::new();
    let timed = match Service::start(timed_pipeline(&Pipeline::auto(), &tracer)) {
        Ok(s) => measure(
            &sweep,
            s,
            seconds / 2.0,
            &mut seen,
            &mut out,
            Some(&tracer),
            idle,
        ),
        Err(e) => {
            out.op(Err(format!("service did not start: {e}")));
            return out;
        }
    };
    pass_metrics(&mut out, &tracer, 1.0);
    let pass_ns: u64 = [
        "schedule",
        "synthesis.ft",
        "synthesis.sc",
        "peephole",
        "trace.tally",
    ]
    .iter()
    .map(|n| tracer.busy_ns(n))
    .sum();
    let job_s: f64 = timed.job_ms.iter().sum::<f64>() / 1e3;
    out.metric(
        "engine.self_s",
        (job_s - pass_ns as f64 * 1e-9).max(0.0),
        "s",
    );
    let counter = |k: &str| {
        timed
            .cache
            .as_ref()
            .and_then(|c| c.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    let (hits, misses) = (counter("hits"), counter("misses"));
    out.metric("cache.hits", hits, "count");
    out.metric("cache.misses", misses, "count");
    out.metric("cache.coalesced", counter("coalesced"), "count");
    out.metric("cache.hit_frac", ratio(hits, hits + misses), "ratio");
    let rest: Vec<f64> = (0..timed.latency_s.len())
        .map(|i| timed.latency_s[i] * 1e3 - timed.queue_ms[i] - timed.job_ms[i])
        .collect();
    out.metric("serve.queue_wait_ms", mean(&timed.queue_ms), "ms");
    out.metric("serve.job_wall_ms", mean(&timed.job_ms), "ms");
    out.metric("serve.rest_ms", mean(&rest), "ms");
    out.metric("serve.reply_bytes", mean(&timed.bytes), "bytes");
    out.metric("client.parse_ms", mean(&timed.parse_s) * 1e3, "ms");
    out.metric(
        "trace.overhead_frac",
        ratio(median(&timed.latency_s), median(&plain.latency_s)),
        "ratio",
    );
    out.trace_jsonl = Some(tracer.to_jsonl());
    out
}

/// Drives the closed loops for `seconds` of measured time, checking each
/// round's replies and calling `between` between rounds, then stops the
/// service.
fn measure(
    sweep: &Sweep,
    mut service: Service,
    seconds: f64,
    seen: &mut HashMap<Point, Fixed>,
    out: &mut Outcome,
    tracer: Option<&Tracer>,
    between: &mut dyn FnMut(),
) -> Phase {
    let mut phase = Phase {
        miss_ms: vec![Vec::new(); sweep.programs.len()],
        ..Phase::default()
    };
    let mut streams: Vec<Stream> = (0..CLIENTS).map(|c| Stream::new(c, sweep)).collect();
    let budget = Duration::from_secs_f64(seconds);
    let mut measured = Duration::ZERO;
    let mut broken = false;
    while measured < budget && !broken {
        let bytes = AtomicUsize::new(0);
        let round_start = Instant::now();
        let deadline = round_start + (budget - measured);
        let rounds: Vec<(Vec<Reply>, bool)> = thread::scope(|s| {
            let workers: Vec<_> = service
                .conns
                .iter_mut()
                .zip(streams.iter_mut())
                .map(|(conn, stream)| {
                    let bytes = &bytes;
                    s.spawn(move || client_round(sweep, conn, stream, bytes, deadline, tracer))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread panicked"))
                .collect()
        });
        measured += round_start.elapsed();
        for (replies, ok) in rounds {
            broken |= !ok;
            for reply in replies {
                let verdict = check_reply(sweep, &reply, seen, &mut phase);
                out.op(verdict);
            }
        }
        between();
    }
    if broken {
        out.op(Err("a connection broke".into()));
    }
    phase.measured_s = measured.as_secs_f64();
    phase.cache = service.cache_stats();
    drop(service);
    phase
}

/// One client's share of a round: requests until the deadline or the
/// round's byte budget. Returns the replies and whether the connection
/// stayed usable.
fn client_round(
    sweep: &Sweep,
    conn: &mut Connection,
    stream: &mut Stream,
    bytes: &AtomicUsize,
    deadline: Instant,
    tracer: Option<&Tracer>,
) -> (Vec<Reply>, bool) {
    let mut replies = Vec::new();
    while Instant::now() < deadline && bytes.load(Ordering::Relaxed) < ROUND_BYTES {
        let (point, request) = stream.next(sweep);
        let _request_span = tracer.map(|t| t.span("request"));
        let t0 = Instant::now();
        if conn.send(&request).is_err() {
            return (replies, false);
        }
        let Ok(Some(text)) = conn.recv_line() else {
            return (replies, false);
        };
        let t1 = Instant::now();
        let json = {
            let _parse_span = tracer.map(|t| t.span("client.parse"));
            Json::parse(&text).map_err(|e| e.to_string())
        };
        let t2 = Instant::now();
        bytes.fetch_add(text.len(), Ordering::Relaxed);
        replies.push(Reply {
            point,
            latency_s: (t2 - t0).as_secs_f64(),
            parse_s: (t2 - t1).as_secs_f64(),
            bytes: text.len(),
            json,
        });
    }
    (replies, true)
}

/// Checks one reply and books its figures into `phase`.
fn check_reply(
    sweep: &Sweep,
    reply: &Reply,
    seen: &mut HashMap<Point, Fixed>,
    phase: &mut Phase,
) -> Result<(), String> {
    let program = &sweep.programs[reply.point.0];
    let label = &program.label;
    let json = reply.json.as_ref().map_err(|e| format!("{label}: {e}"))?;
    if json.get("ok").and_then(Json::as_bool) != Some(true) {
        let kind = json.get("error_kind").and_then(Json::as_str).unwrap_or("?");
        return Err(format!("{label}: request failed ({kind})"));
    }
    let field = |k: &str| {
        json.get(k)
            .ok_or_else(|| format!("{label}: reply lacks `{k}`"))
    };
    let num = |k: &str| field(k).and_then(|v| v.as_f64().ok_or(format!("{label}: bad `{k}`")));
    let queue_ms = num("queue_wait_ms")?;
    let job_ms = num("wall_ms")?;
    phase.latency_s.push(reply.latency_s);
    phase.parse_s.push(reply.parse_s);
    phase.bytes.push(reply.bytes as f64);
    phase.queue_ms.push(queue_ms);
    phase.job_ms.push(job_ms);
    if field("cache_hit")?.as_bool() == Some(false) {
        phase.miss_ms[reply.point.0].push(job_ms);
    }

    let hex = field("artifact")?
        .as_str()
        .ok_or("artifact is not a string")?;
    let bytes = proto::hex_decode(hex).ok_or_else(|| format!("{label}: artifact is not hex"))?;
    let entry = persist::decode_entry(&bytes).map_err(|e| format!("{label}: {e:?}"))?;
    let key_hex = field("key")?.as_str().unwrap_or_default();
    let key = u64::from_str_radix(key_hex, 16).map_err(|_| format!("{label}: bad key"))?;
    if key != entry.report.key {
        return Err(format!("{label}: reply key differs from the artifact's"));
    }
    let now = Fixed::new(label, key, &entry.compiled);
    for (k, want) in [
        ("cnot", now.cnot),
        ("single", now.single),
        ("depth", now.depth),
    ] {
        if num(k)? != want as f64 {
            return Err(format!("{label}: reply `{k}` differs from the artifact's"));
        }
    }
    match seen.get(&reply.point) {
        Some(first) if *first == now => Ok(()),
        Some(_) => Err(format!("{label}: a repeated point compiled differently")),
        None => {
            let reference = if reply.point.1 == 0 {
                None
            } else {
                let ir = parse_program(&sweep.text(reply.point)).map_err(|e| e.to_string())?;
                Some(Reference::new(&ir))
            };
            let reference = reference.as_ref().unwrap_or(&program.reference);
            check::check(reference, &entry.compiled, program.device.as_deref())
                .map_err(|e| format!("{label}: {e}"))?;
            seen.insert(reply.point, now);
            Ok(())
        }
    }
}

/// The end-to-end metrics and per-program rows of a plain run.
fn report(
    out: &mut Outcome,
    sweep: &Sweep,
    phase: &Phase,
    seen: &HashMap<Point, Fixed>,
    setup_s: f64,
) {
    let typicals: Vec<f64> = phase.miss_ms.iter().map(|m| trimmed_mean(m)).collect();
    for (i, p) in sweep.programs.iter().enumerate() {
        let Some(base) = seen.get(&(i, 0)) else {
            continue;
        };
        out.rows.push(format!(
            "{:<24} {:>12.3} {:>10} {:>10} {:>8}   ({} compiles)",
            p.label,
            typicals[i],
            base.cnot,
            base.single,
            base.depth,
            phase.miss_ms[i].len()
        ));
        out.fixed.push(base.clone());
    }
    let geo_ms = geomean(&typicals);
    out.rows.push(format!(
        "{:<24} {:>12.3}   ({} requests in {:.3} s)",
        "geomean",
        geo_ms,
        phase.latency_s.len(),
        phase.measured_s
    ));
    out.metric("setup_s", setup_s, "s");
    out.metric("compile_s", typicals.iter().sum::<f64>() / 1e3, "s");
    out.metric("compile_geomean_ms", geo_ms, "ms");
    out.metric("req_p50_ms", median(&phase.latency_s) * 1e3, "ms");
    out.metric("req_p99_ms", quantile(&phase.latency_s, 0.99) * 1e3, "ms");
    out.metric(
        "req_per_s",
        phase.latency_s.len() as f64 / phase.measured_s,
        "1/s",
    );
    out.output_metrics();
}
