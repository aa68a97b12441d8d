//! Cross-crate acceptance tests for the two-tier compilation cache: the
//! persistent disk tier must warm-start a fresh engine bit-identically on
//! the full Table 1 suite, corrupt cache files must degrade to misses (not
//! errors), concurrent duplicate jobs must compile exactly once, and the
//! bounded memory tier must evict without ever changing results.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::thread;

use ph_engine::cache::{CacheEntry, CompileCache};
use ph_engine::{
    BatchEngine, CacheConfig, Collector, CompileJob, Engine, Pipeline, Target, Telemetry,
};
use workloads::suite;

/// A unique, self-cleaning cache directory under the system temp dir.
struct CacheDir(PathBuf);

impl CacheDir {
    fn new(tag: &str) -> CacheDir {
        let dir =
            std::env::temp_dir().join(format!("ph-engine-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        CacheDir(dir)
    }

    fn config(&self) -> CacheConfig {
        CacheConfig {
            disk_dir: Some(self.0.clone()),
            ..CacheConfig::default()
        }
    }

    fn files(&self) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = fs::read_dir(&self.0)
            .expect("cache dir exists after a cold run")
            .map(|e| e.expect("readable dir entry").path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "phc"))
            .collect();
        files.sort();
        files
    }
}

impl Drop for CacheDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn ft_engine(config: CacheConfig) -> BatchEngine {
    BatchEngine::new(Pipeline::auto(), Target::FaultTolerant).with_cache_config(config)
}

/// Every fault-tolerant Table 1 benchmark as a batch job. (The FT subset
/// keeps the default target, so jobs stay self-contained.)
fn ft_jobs() -> Vec<CompileJob> {
    suite::all_names()
        .iter()
        .filter(|&&name| {
            suite::generate(name).class == workloads::suite::BackendClass::FaultTolerant
        })
        .map(|&name| CompileJob::named(name, suite::generate(name).ir))
        .collect()
}

#[test]
fn disk_tier_warm_starts_a_fresh_engine_bit_identically() {
    let dir = CacheDir::new("roundtrip");

    let cold_trace = Arc::new(Collector::new());
    let cold = ft_engine(dir.config()).with_telemetry(Telemetry::attached(Arc::clone(&cold_trace)));
    let cold_results = cold.compile_all(ft_jobs());
    let n = cold_results.len() as u64;
    let cs = cold.engine().cache_stats();
    assert_eq!((cs.misses, cs.disk_hits), (n, 0), "cold run compiles all");
    assert_eq!(dir.files().len() as u64, n, "one cache file per program");
    // The telemetry counters mirror the cache counters, and every request
    // lands in the compile latency histogram.
    let cm = cold_trace.metrics();
    assert_eq!(cm.counter("cache.miss"), n);
    assert_eq!(cm.counter("cache.disk_write"), n);
    let h = cm
        .histogram("compile.total_ns")
        .expect("compile latency histogram present");
    assert_eq!(h.count, n);
    assert!(h.p50 <= h.p90 && h.p90 <= h.p99);

    // A fresh engine (empty memory tier) must serve everything from disk.
    let warm_trace = Arc::new(Collector::new());
    let warm = ft_engine(dir.config()).with_telemetry(Telemetry::attached(Arc::clone(&warm_trace)));
    let warm_results = warm.compile_all(ft_jobs());
    let ws = warm.engine().cache_stats();
    assert_eq!((ws.misses, ws.disk_hits), (0, n), "warm run never compiles");
    let wm = warm_trace.metrics();
    assert_eq!(wm.counter("cache.disk_read"), n);
    assert_eq!(wm.counter("cache.miss"), 0);

    for (c, w) in cold_results.iter().zip(&warm_results) {
        let cold_out = c.outcome.as_ref().expect("suite benchmarks compile");
        let warm_out = w.outcome.as_ref().expect("deserialized entry is valid");
        assert!(warm_out.report.cache_hit, "{}: expected a disk hit", w.name);
        assert_eq!(
            cold_out.compiled.circuit, warm_out.compiled.circuit,
            "{}: disk round-trip changed the circuit",
            w.name
        );
        assert_eq!(cold_out.compiled.emitted, warm_out.compiled.emitted);
        assert_eq!(cold_out.compiled.initial_l2p, warm_out.compiled.initial_l2p);
        assert_eq!(cold_out.compiled.final_l2p, warm_out.compiled.final_l2p);
    }
}

#[test]
fn corrupt_cache_files_degrade_to_misses() {
    let dir = CacheDir::new("corrupt");
    let jobs = || {
        vec![
            CompileJob::named("a", suite::generate("Ising-1D").ir),
            CompileJob::named("b", suite::generate("Heisen-1D").ir),
        ]
    };

    let cold = ft_engine(dir.config());
    let reference = cold.compile_all(jobs());
    let files = dir.files();
    assert_eq!(files.len(), 2);

    // Flip bytes in the middle of one entry and truncate the header of the
    // other: both classes of damage must read as "not cached".
    let mut bytes = fs::read(&files[0]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&files[0], bytes).unwrap();
    fs::write(&files[1], b"PH").unwrap();

    let warm = ft_engine(dir.config());
    let recompiled = warm.compile_all(jobs());
    let ws = warm.engine().cache_stats();
    assert_eq!(
        (ws.misses, ws.disk_hits),
        (2, 0),
        "corrupt files must count as misses, not hits or errors"
    );
    for (r, c) in recompiled.iter().zip(&reference) {
        assert_eq!(
            r.outcome.as_ref().unwrap().compiled.circuit,
            c.outcome.as_ref().unwrap().compiled.circuit,
            "{}: recompile after corruption diverged",
            r.name
        );
    }

    // The recompile rewrote valid entries; a third engine hits both.
    let healed = ft_engine(dir.config());
    healed.compile_all(jobs());
    assert_eq!(healed.engine().cache_stats().disk_hits, 2);
}

#[test]
fn concurrent_duplicate_jobs_compile_exactly_once() {
    let ir = suite::generate("Heisen-2D").ir;
    let jobs: Vec<CompileJob> = (0..8)
        .map(|i| CompileJob::named(format!("step-{i}"), ir.clone()))
        .collect();

    let engine = BatchEngine::new(Pipeline::auto(), Target::FaultTolerant).with_threads(4);
    let outputs: Vec<_> = engine
        .compile_all(jobs)
        .into_iter()
        .map(|r| r.outcome.expect("valid program"))
        .collect();

    let stats = engine.engine().cache_stats();
    assert_eq!(stats.misses, 1, "racing workers must compile once");
    assert_eq!(
        stats.hits + stats.coalesced,
        7,
        "every duplicate is either a hit or a coalesced wait"
    );
    assert_eq!(stats.entries, 1);
    for o in &outputs[1..] {
        assert!(
            Arc::ptr_eq(&o.compiled, &outputs[0].compiled),
            "duplicates must share one allocation"
        );
    }
}

#[test]
fn bounded_cache_evicts_without_changing_results() {
    let a = suite::generate("Ising-1D").ir;
    let b = suite::generate("Heisen-1D").ir;
    // Alternating workload against a one-entry cache: every lookup evicts
    // the other program, so nothing is ever served stale.
    let jobs: Vec<CompileJob> = (0..6)
        .map(|i| {
            let ir = if i % 2 == 0 { a.clone() } else { b.clone() };
            CompileJob::named(format!("job-{i}"), ir)
        })
        .collect();

    let engine = ft_engine(CacheConfig {
        max_entries: Some(1),
        ..CacheConfig::default()
    })
    .with_threads(1);
    let results = engine.compile_all(jobs);
    let stats = engine.engine().cache_stats();
    assert_eq!(stats.misses, 6, "thrashing workload recompiles every step");
    assert_eq!(stats.evictions, 5, "each insert after the first evicts");
    assert_eq!(stats.entries, 1, "budget is enforced");

    let ra = results[0].outcome.as_ref().unwrap();
    let rb = results[1].outcome.as_ref().unwrap();
    for (i, r) in results.iter().enumerate() {
        let out = r.outcome.as_ref().unwrap();
        let want = if i % 2 == 0 { ra } else { rb };
        assert_eq!(out.compiled.circuit, want.compiled.circuit, "job-{i}");
    }
}

/// A real cache entry (compiled artifact + report) for direct
/// [`CompileCache`] tests that bypass the engine.
fn real_entry(name: &str) -> CacheEntry {
    let ir = suite::generate(name).ir;
    let out = Engine::new(Pipeline::auto(), Target::FaultTolerant)
        .compile(&ir)
        .expect("suite benchmark compiles");
    CacheEntry {
        compiled: out.compiled,
        report: out.report,
    }
}

#[test]
fn concurrent_opens_sweep_orphaned_tmp_files_exactly_once() {
    let dir = CacheDir::new("tmp-sweep");
    fs::create_dir_all(&dir.0).unwrap();
    const ORPHANS: usize = 5;
    for i in 0..ORPHANS {
        fs::write(dir.0.join(format!("dead-writer-{i}.tmp")), b"partial").unwrap();
    }
    // A non-tmp bystander must survive the sweep.
    fs::write(dir.0.join("0123456789abcdef.phc"), b"PH").unwrap();

    // Two engines open the same cache dir at the same instant: each tmp
    // file is removed by exactly one of them (remove_file is the atomic
    // arbiter), so the counts sum to ORPHANS — no double-count, no race.
    let barrier = Arc::new(Barrier::new(2));
    let counts: Vec<u64> = [dir.config(), dir.config()]
        .into_iter()
        .map(|config| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                CompileCache::with_config(config).stats().tmp_swept
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("sweeping thread must not panic"))
        .collect();

    assert_eq!(
        counts.iter().sum::<u64>(),
        ORPHANS as u64,
        "every orphan swept exactly once (per-open counts: {counts:?})"
    );
    let leftover: Vec<_> = fs::read_dir(&dir.0).unwrap().flatten().collect();
    assert_eq!(leftover.len(), 1, "only the .phc bystander survives");
    assert_eq!(leftover[0].file_name(), "0123456789abcdef.phc");
}

#[test]
fn panicking_leader_does_not_wedge_or_poison_the_cache() {
    let cache = Arc::new(CompileCache::new());
    const KEY: u64 = 0x0dd_ba11;

    // A waiter coalesces onto the in-flight compute while the leader
    // panics mid-closure; the waiter must take over, not hang or die.
    let in_compute = Arc::new(Barrier::new(2));
    let waiter = {
        let cache = Arc::clone(&cache);
        let in_compute = Arc::clone(&in_compute);
        thread::spawn(move || {
            in_compute.wait();
            cache.get_or_compute::<()>(KEY, || Ok(real_entry("Ising-1D")))
        })
    };

    let unwound = catch_unwind(AssertUnwindSafe(|| {
        let _ = cache.get_or_compute::<()>(KEY, || -> Result<CacheEntry, ()> {
            in_compute.wait();
            // Give the waiter a moment to register as a coalescer so the
            // takeover path (not just a fresh lead) is exercised.
            thread::sleep(std::time::Duration::from_millis(20));
            panic!("injected fault: leader panic");
        });
    }));
    assert!(unwound.is_err(), "leader panic propagates to its caller");

    let (entry, _) = waiter
        .join()
        .expect("waiter survives the leader's panic")
        .expect("waiter recomputes successfully");

    // Locks stayed usable: stats, hits on the published entry, and a
    // fresh compute under a different key all work after the panic.
    let stats = cache.stats();
    assert_eq!(stats.entries, 1, "exactly the waiter's entry is resident");
    assert!(stats.misses >= 1);
    let (again, _) = cache
        .get_or_compute::<()>(KEY, || panic!("must be served from cache"))
        .unwrap();
    assert!(
        Arc::ptr_eq(&entry.compiled, &again.compiled),
        "post-panic lookups share the published allocation"
    );
    cache
        .get_or_compute::<()>(KEY + 1, || Ok(real_entry("Heisen-1D")))
        .expect("unrelated keys still compute after a panic");
    assert_eq!(cache.stats().entries, 2);
}

/// A cache that keeps nothing is a bound, not a separate path: every
/// request is fingerprinted, compiled, and evicted, and none hits.
#[test]
fn zero_entry_cache_compiles_every_request_and_never_hits() {
    let ir = suite::generate("Ising-1D").ir;
    let jobs: Vec<CompileJob> = (0..3)
        .map(|i| CompileJob::named(format!("step-{i}"), ir.clone()))
        .collect();

    let engine = ft_engine(CacheConfig {
        max_entries: Some(0),
        ..CacheConfig::unbounded()
    })
    .with_threads(1);
    let outputs: Vec<_> = engine
        .compile_all(jobs)
        .into_iter()
        .map(|r| r.outcome.expect("valid program"))
        .collect();
    for o in &outputs {
        assert!(!o.report.cache_hit);
        assert_ne!(o.report.key, 0, "every request is fingerprinted");
        assert_eq!(o.report.key, outputs[0].report.key);
        assert_eq!(o.compiled.circuit, outputs[0].compiled.circuit);
    }
    let stats = engine.engine().cache_stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.entries, stats.evictions),
        (0, 3, 0, 3)
    );
}
