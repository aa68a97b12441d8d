//! Cross-crate acceptance tests for the `ph_engine` subsystem: the batch
//! engine must be a *transparent* driver — bit-identical output to the
//! sequential one-shot `paulihedral::compile` on every Table 1 benchmark —
//! and its cache must serve repeated programs without changing results.

use paulihedral::{try_compile, Backend, CompileOptions, Scheduler};
use ph_engine::{BatchEngine, CompileJob, Engine, Pipeline, Target};
use qdevice::{devices, NoiseModel};
use workloads::suite::{self, BackendClass};

/// The paper's evaluation configuration: SC benchmarks use depth-oriented
/// scheduling on the Manhattan-65 model, FT benchmarks use the adaptive
/// (§7) choice.
fn suite_scheduler(class: BackendClass) -> Scheduler {
    match class {
        BackendClass::Superconducting => Scheduler::Depth,
        BackendClass::FaultTolerant => Scheduler::Auto,
    }
}

#[test]
fn batch_engine_is_bit_identical_to_sequential_compile_on_all_31_benchmarks() {
    let device = devices::manhattan_65();
    let sc_target = Target::superconducting(device.clone());

    let names = suite::all_names();
    let mut classes = Vec::new();
    let jobs: Vec<CompileJob> = names
        .iter()
        .map(|&name| {
            let b = suite::generate(name);
            classes.push(b.class);
            let job = CompileJob::named(name, b.ir).with_scheduler(suite_scheduler(b.class));
            match b.class {
                BackendClass::Superconducting => job.on_target(sc_target.clone()),
                BackendClass::FaultTolerant => job,
            }
        })
        .collect();

    let engine = BatchEngine::new(Pipeline::auto(), Target::FaultTolerant);
    let results = engine.compile_all(jobs);
    assert_eq!(results.len(), 31);

    for (result, class) in results.into_iter().zip(classes) {
        let name = result.name.clone();
        let batch = result
            .outcome
            .unwrap_or_else(|e| panic!("{name} failed in batch: {e}"));

        // Sequential reference through the original one-shot entry point.
        let b = suite::generate(&name);
        let backend = match class {
            BackendClass::Superconducting => Backend::Superconducting {
                device: &device,
                noise: None,
            },
            BackendClass::FaultTolerant => Backend::FaultTolerant,
        };
        let sequential = try_compile(
            &b.ir,
            &CompileOptions {
                intra_threads: 1,
                scheduler: suite_scheduler(class),
                backend,
            },
        )
        .unwrap_or_else(|e| panic!("{name} failed sequentially: {e}"));

        assert_eq!(
            sequential.circuit, batch.compiled.circuit,
            "{name}: batch circuit differs from sequential compile"
        );
        assert_eq!(
            sequential.emitted, batch.compiled.emitted,
            "{name}: emission order differs"
        );
        assert_eq!(
            sequential.initial_l2p, batch.compiled.initial_l2p,
            "{name}: initial layout differs"
        );
        assert_eq!(
            sequential.final_l2p, batch.compiled.final_l2p,
            "{name}: final layout differs"
        );

        // Per-pass instrumentation covers scheduling, synthesis, peephole.
        let pass_names: Vec<&str> = batch
            .report
            .passes
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(pass_names, ["schedule", "synthesis", "peephole"], "{name}");
        let synth = &batch.report.passes[1];
        assert!(synth.after.total > 0, "{name}: synthesis recorded no gates");
        let peep = &batch.report.passes[2];
        assert!(
            peep.cnot_delta() <= 0 && peep.single_delta() <= 0,
            "{name}: peephole should never add gates"
        );
        // The recorded deltas must reconstruct the final stats.
        let s = batch.report.final_stats();
        assert_eq!(s.cnot, batch.compiled.circuit.stats().cnot, "{name}");
    }
}

#[test]
fn noisy_sc_engine_is_bit_identical_to_try_compile() {
    // The noise model steers SC routing; it must reach synthesis the same
    // way through the engine's target as through `CompileOptions`.
    let device = devices::manhattan_65();
    let noise = NoiseModel::synthetic(&device, 65);
    let engine = Engine::new(
        Pipeline::standard(Scheduler::Depth),
        Target::superconducting_noisy(device.clone(), noise.clone()),
    );
    let mut steered = 0;
    for name in ["UCCSD-8", "UCCSD-12", "REG-20-4", "TSP-4"] {
        let ir = suite::generate(name).ir;
        let noisy = |noise| {
            try_compile(
                &ir,
                &CompileOptions::new(
                    Scheduler::Depth,
                    Backend::Superconducting {
                        device: &device,
                        noise,
                    },
                ),
            )
            .unwrap_or_else(|e| panic!("{name} failed sequentially: {e}"))
        };
        let sequential = noisy(Some(&noise));
        let out = engine
            .compile(&ir)
            .unwrap_or_else(|e| panic!("{name} failed in the engine: {e}"));
        assert_eq!(
            sequential.circuit, out.compiled.circuit,
            "{name}: engine circuit differs from try_compile"
        );
        assert_eq!(
            sequential.emitted, out.compiled.emitted,
            "{name}: emission order differs"
        );
        assert_eq!(
            sequential.initial_l2p, out.compiled.initial_l2p,
            "{name}: initial layout differs"
        );
        assert_eq!(
            sequential.final_l2p, out.compiled.final_l2p,
            "{name}: final layout differs"
        );
        if noisy(None).circuit != sequential.circuit {
            steered += 1;
        }
    }
    assert!(steered > 0, "the noise model never changed a circuit");
}

#[test]
fn repeated_programs_hit_the_cache_with_identical_circuits() {
    // Five Trotter steps of the same kernel: one miss, four hits.
    let ir = suite::generate("Heisen-1D").ir;
    let jobs: Vec<CompileJob> = (0..5)
        .map(|i| CompileJob::named(format!("step-{i}"), ir.clone()))
        .collect();
    // Single worker → deterministic hit pattern.
    let engine = BatchEngine::new(Pipeline::auto(), Target::FaultTolerant).with_threads(1);
    let results = engine.compile_all(jobs);

    let outputs: Vec<_> = results
        .into_iter()
        .map(|r| r.outcome.expect("valid program"))
        .collect();
    assert!(!outputs[0].report.cache_hit);
    for o in &outputs[1..] {
        assert!(o.report.cache_hit, "repeat compile missed the cache");
        assert_eq!(o.compiled.circuit, outputs[0].compiled.circuit);
        // Hits share the original allocation rather than copying it.
        assert!(std::sync::Arc::ptr_eq(&o.compiled, &outputs[0].compiled));
    }
    let stats = engine.engine().cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (4, 1, 1));
}

#[test]
fn cache_distinguishes_pipeline_and_target_configuration() {
    let ir = suite::generate("Ising-2D").ir;
    let engine = BatchEngine::new(Pipeline::auto(), Target::FaultTolerant).with_threads(1);
    let results = engine.compile_all(vec![
        CompileJob::named("gco", ir.clone()).with_scheduler(Scheduler::GateCount),
        CompileJob::named("do", ir.clone()).with_scheduler(Scheduler::Depth),
        CompileJob::named("sc", ir.clone())
            .on_target(Target::superconducting(devices::manhattan_65()))
            .with_scheduler(Scheduler::Depth),
    ]);
    let keys: Vec<u64> = results
        .iter()
        .map(|r| r.outcome.as_ref().unwrap().report.key)
        .collect();
    assert_ne!(keys[0], keys[1], "scheduler must change the cache key");
    assert_ne!(keys[1], keys[2], "target must change the cache key");
    assert_eq!(engine.engine().cache_stats().hits, 0);
}

#[test]
fn with_threads_zero_clamps_to_one_worker() {
    let engine = BatchEngine::new(Pipeline::auto(), Target::FaultTolerant).with_threads(0);
    assert_eq!(engine.threads(), 1);
    // And the clamped pool still compiles.
    let results = engine.compile_all(vec![CompileJob::named(
        "job",
        suite::generate("Ising-1D").ir,
    )]);
    assert!(results[0].outcome.is_ok());
}

#[test]
fn worker_count_never_exceeds_the_job_count() {
    let engine = BatchEngine::new(Pipeline::auto(), Target::FaultTolerant).with_threads(8);
    assert_eq!(engine.threads(), 8);
    assert_eq!(
        engine.worker_count(3),
        3,
        "threads > jobs spawns jobs.len()"
    );
    assert_eq!(engine.worker_count(8), 8);
    assert_eq!(engine.worker_count(100), 8, "jobs > threads keeps the pool");
    assert_eq!(engine.worker_count(0), 0, "empty batch spawns nothing");

    // 8 threads, 2 jobs: both jobs still complete (and in order).
    let ir = suite::generate("Ising-1D").ir;
    let results = engine.compile_all(vec![
        CompileJob::named("a", ir.clone()),
        CompileJob::named("b", ir),
    ]);
    assert_eq!(results.len(), 2);
    assert_eq!(results[0].name, "a");
    assert_eq!(results[1].name, "b");
    assert!(results.iter().all(|r| r.outcome.is_ok()));
}

#[test]
fn queue_wait_is_measured_and_consistent_with_batch_wall_time() {
    let ir = suite::generate("Heisen-1D").ir;
    let jobs: Vec<CompileJob> = (0..6)
        .map(|i| CompileJob::named(format!("job-{i}"), ir.clone()))
        .collect();
    // One worker serializes the jobs, so later jobs must have queued at
    // least as long as all earlier jobs took to run.
    let engine = BatchEngine::new(Pipeline::auto(), Target::FaultTolerant).with_threads(1);
    let t0 = std::time::Instant::now();
    let results = engine.compile_all(jobs);
    let batch_elapsed = t0.elapsed();

    let mut prev_wait = std::time::Duration::ZERO;
    for r in &results {
        assert!(r.outcome.is_ok());
        // A single worker picks jobs up in order: queue waits are
        // monotonically non-decreasing, and every job finished within the
        // batch wall (wait measured from batch start + in-worker wall).
        assert!(
            r.queue_wait >= prev_wait,
            "{}: queue_wait {:?} < previous {:?}",
            r.name,
            r.queue_wait,
            prev_wait
        );
        assert!(
            r.queue_wait + r.wall <= batch_elapsed,
            "{}: wait {:?} + wall {:?} exceeds batch elapsed {:?}",
            r.name,
            r.queue_wait,
            r.wall,
            batch_elapsed
        );
        prev_wait = r.queue_wait;
    }
    // The last job's wait dominates: it queued behind the other five.
    assert!(results[5].queue_wait >= results[0].wall);
}

#[test]
fn batch_reports_per_job_errors_without_failing_the_batch() {
    let good = suite::generate("Ising-1D").ir;
    let empty = paulihedral::ir::PauliIR::new(4);
    let engine = BatchEngine::new(Pipeline::auto(), Target::FaultTolerant);
    let results = engine.compile_all(vec![
        CompileJob::named("good", good),
        CompileJob::named("empty", empty.clone()),
        CompileJob::named("undersized", suite::generate("Ising-1D").ir)
            .on_target(Target::superconducting(devices::linear(5))),
    ]);
    assert!(results[0].outcome.is_ok());
    assert_eq!(
        results[1].outcome.as_ref().unwrap_err(),
        &paulihedral::CompileError::EmptyProgram
    );
    assert!(matches!(
        results[2].outcome.as_ref().unwrap_err(),
        paulihedral::CompileError::DeviceTooSmall {
            device: 5,
            program: 30
        }
    ));
}
