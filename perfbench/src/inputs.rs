//! The benchmark's inputs: which programs each workload compiles, on
//! which target, and the seeded draws (program order, parameter points).
//! The compiler only ever sees the generated programs.

use std::sync::Arc;

use paulihedral::ir::PauliIR;
use ph_engine::Target;
use qdevice::CouplingMap;
use workloads::suite::{self, BackendClass};

use crate::check::Reference;

/// Table 1 rows left out of `table1`: together about 28 s per pass, with
/// no code path that NaCl and Rand-50 do not already exercise.
pub const TABLE1_EXCLUDED: [&str; 3] = ["Rand-60", "Rand-70", "Rand-80"];

/// `scale`: the 1000-qubit direction, as `(workloads::scale name, backend)`.
pub const SCALE_ROWS: [(&str, &str); 4] = [
    ("Heisen-1000", "ft"),
    ("Heisen-32x32", "ft"),
    ("Ising-32x32", "grid:32x32"),
    ("Heisen-32x32", "grid:32x32"),
];

/// `serve-sweep`: the mid-size Table 1 programs a parameter sweep sends.
pub const SERVE_NAMES: [&str; 15] = [
    "UCCSD-8",
    "UCCSD-12",
    "UCCSD-16",
    "N2",
    "H2S",
    "Heisen-1D",
    "Heisen-2D",
    "Heisen-3D",
    "REG-20-4",
    "REG-20-8",
    "REG-20-12",
    "TSP-4",
    "Rand-20-0.1",
    "Rand-20-0.3",
    "Rand-20-0.5",
];

/// One program of a workload, with everything its output check needs.
pub struct Program {
    /// Row label (`<name>@<backend>`).
    pub label: String,
    /// The program.
    pub ir: PauliIR,
    /// The backend spec (`ft`, `manhattan`, `grid:RxC`).
    pub backend: &'static str,
    /// The compile target.
    pub target: Target,
    /// The SC device, for the output check.
    pub device: Option<Arc<CouplingMap>>,
    /// What the output must implement.
    pub reference: Reference,
}

impl Program {
    fn new(name: &str, ir: PauliIR, backend: &'static str) -> Program {
        let target = Target::parse_spec(backend, ir.num_qubits()).expect("known backend spec");
        let device = match &target {
            Target::FaultTolerant => None,
            Target::Superconducting { device, .. } => Some(Arc::clone(device)),
        };
        Program {
            label: format!("{name}@{backend}"),
            reference: Reference::new(&ir),
            ir,
            backend,
            target,
            device,
        }
    }
}

/// The paper target of a Table 1 program: Manhattan for SC rows, FT else.
fn paper_backend(class: BackendClass) -> &'static str {
    match class {
        BackendClass::Superconducting => "manhattan",
        BackendClass::FaultTolerant => "ft",
    }
}

/// A Table 1 program on its paper target.
pub fn table1_program(name: &str) -> Program {
    let b = suite::generate(name);
    Program::new(name, b.ir, paper_backend(b.class))
}

/// `table1`'s programs in seed order.
pub fn table1(seed: u64) -> Vec<Program> {
    let mut names: Vec<&str> = suite::all_names()
        .into_iter()
        .filter(|n| !TABLE1_EXCLUDED.contains(n))
        .collect();
    Rng::new(seed).shuffle(&mut names);
    names.into_iter().map(table1_program).collect()
}

/// `scale`'s programs in seed order.
pub fn scale(seed: u64) -> Vec<Program> {
    let mut rows = SCALE_ROWS.to_vec();
    Rng::new(seed).shuffle(&mut rows);
    rows.into_iter()
        .map(|(name, backend)| {
            let ir = workloads::scale::named_scale_ir(name).expect("preset scale name");
            Program::new(name, ir, backend)
        })
        .collect()
}

/// SplitMix64: a tiny seeded generator, so the inputs depend on the seed
/// and nothing else.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator from a seed.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5151_7eed_0bad_cafe)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
