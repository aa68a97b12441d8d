//! Criterion bench: wire-DAG peephole cancellation throughput on naive
//! gadget circuits of increasing size, and on one FT-synthesized Table 1
//! program (N2: ~73k gates, 18 fixpoint rounds), the regime where the
//! cancellations the block-wise synthesis sets up are realized.

use baselines::naive;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paulihedral::synth::par::Intra;
use paulihedral::{run_scheduler, run_synthesis, Backend, Scheduler};
use qcircuit::{peephole, Circuit};
use workloads::suite;

/// `name` scheduled and synthesized for the FT backend, before the peephole.
fn ft_synthesized(name: &str) -> Circuit {
    let b = suite::generate(name);
    let layers = run_scheduler(&b.ir, Scheduler::Auto);
    run_synthesis(
        b.ir.num_qubits(),
        &layers,
        &Backend::FaultTolerant,
        Intra::sequential(),
    )
    .circuit
}

fn bench_peephole(c: &mut Criterion) {
    let mut group = c.benchmark_group("peephole");
    group.sample_size(10);
    let naive_inputs = ["Heisen-1D", "UCCSD-8", "UCCSD-12"]
        .map(|name| (name, naive::synthesize(&suite::generate(name).ir).circuit));
    let inputs = naive_inputs
        .into_iter()
        .chain([("N2-ft", ft_synthesized("N2"))]);
    for (name, circuit) in inputs {
        group.bench_with_input(
            BenchmarkId::new("optimize", name),
            &circuit,
            |bench, circ| {
                bench.iter(|| {
                    let mut c = circ.clone();
                    peephole::optimize(&mut c)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_peephole);
criterion_main!(benches);
