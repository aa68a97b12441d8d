//! Criterion bench: FT (Alg. 2) and SC (Alg. 3) block-wise synthesis
//! alone, sequential. The peephole clean-up that follows it in a compile
//! is timed by the `peephole` bench.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paulihedral::schedule::schedule_depth;
use paulihedral::synth::par::Intra;
use paulihedral::synth::{ft, sc};
use qdevice::devices;
use workloads::suite;

fn bench_synthesis(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthesis");
    group.sample_size(10);
    let device = devices::manhattan_65();
    for name in ["UCCSD-8", "UCCSD-12", "REG-20-8"] {
        let b = suite::generate(name);
        let layers = schedule_depth(&b.ir);
        let n = b.ir.num_qubits();
        group.bench_with_input(BenchmarkId::new("ft", name), &layers, |bench, layers| {
            bench.iter(|| ft::synthesize(n, layers, Intra::sequential()));
        });
        group.bench_with_input(BenchmarkId::new("sc", name), &layers, |bench, layers| {
            bench.iter(|| sc::synthesize(n, layers, &device, None, Intra::sequential()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_synthesis);
criterion_main!(benches);
