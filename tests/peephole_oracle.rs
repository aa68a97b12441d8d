//! Differential test of the peephole pass against the whole-circuit scan
//! it replaced: `qcircuit::peephole::optimize` must return the same gates
//! and the same `PeepholeReport` (round count included) as [`oracle`], a
//! copy of the earlier round-based pass that scans forward from every gate
//! across the rest of the circuit.
//!
//! Inputs: every Table 1 program synthesized on its paper target
//! (Manhattan-65 for SC rows, FT otherwise), and random circuits over the
//! full gate alphabet with angles k·π/4, so that merges reach 0 (mod 2π)
//! and the zero-rotation path runs. Table 1 programs above ~150k gates take
//! the quadratic oracle up to tens of seconds each; they are `#[ignore]`d
//! here and run by
//! `cargo test --release --test peephole_oracle -- --ignored`.

use std::f64::consts::{FRAC_PI_4, TAU};

use paulihedral::synth::par::Intra;
use paulihedral::{run_scheduler, run_synthesis, Backend, Scheduler};
use proptest::prelude::*;
use qcircuit::peephole::{self, commutes, PeepholeReport};
use qcircuit::{Circuit, Gate};
use qdevice::devices;
use workloads::suite::{self, BackendClass};

/// Table 1 programs whose synthesized circuits exceed ~150k gates, up to
/// ~1M: about 20 s of oracle time together.
const LARGE: [&str; 9] = [
    "UCCSD-20", "UCCSD-24", "UCCSD-28", "MgO", "CO2", "NaCl", "Rand-30", "Rand-40", "Rand-50",
];

/// The three largest Table 1 programs (1.8M–4.3M gates): about 45 s of
/// oracle time together.
const HUGE: [&str; 3] = ["Rand-60", "Rand-70", "Rand-80"];

fn is_zero_angle(theta: f64) -> bool {
    let r = theta.rem_euclid(TAU);
    r < 1e-12 || TAU - r < 1e-12
}

/// One scan round of the earlier pass. Returns `(cancelled, merged, zeroed)`.
fn round(gates: &mut [Option<Gate>]) -> (usize, usize, usize) {
    let (mut cancelled, mut merged, mut zeroed) = (0usize, 0usize, 0usize);
    for i in 0..gates.len() {
        let Some(gi) = gates[i] else { continue };
        if let Gate::Rz(_, t) | Gate::Rx(_, t) | Gate::Ry(_, t) = gi {
            if is_zero_angle(t) {
                gates[i] = None;
                zeroed += 1;
                continue;
            }
        }
        let (a0, a1) = gi.qubits();
        for j in i + 1..gates.len() {
            let Some(gj) = gates[j] else { continue };
            let (b0, b1) = gj.qubits();
            let overlap = [Some(a0), a1]
                .into_iter()
                .flatten()
                .any(|q| q == b0 || Some(q) == b1);
            if !overlap {
                continue;
            }
            if gi.cancels_with(&gj) {
                gates[i] = None;
                gates[j] = None;
                cancelled += 2;
                break;
            }
            let merged_gate = match (gi, gj) {
                (Gate::Rz(q1, t1), Gate::Rz(q2, t2)) if q1 == q2 => Some(Gate::Rz(q1, t1 + t2)),
                (Gate::Rx(q1, t1), Gate::Rx(q2, t2)) if q1 == q2 => Some(Gate::Rx(q1, t1 + t2)),
                (Gate::Ry(q1, t1), Gate::Ry(q2, t2)) if q1 == q2 => Some(Gate::Ry(q1, t1 + t2)),
                _ => None,
            };
            if let Some(g) = merged_gate {
                gates[i] = Some(g);
                gates[j] = None;
                merged += 1;
                break;
            }
            if !commutes(&gi, &gj) {
                break;
            }
        }
    }
    (cancelled, merged, zeroed)
}

/// The earlier pass: whole-circuit rounds to a fixpoint.
fn oracle(circuit: &mut Circuit) -> PeepholeReport {
    let mut gates: Vec<Option<Gate>> = circuit.gates().iter().copied().map(Some).collect();
    let mut report = PeepholeReport::default();
    loop {
        let (c, m, z) = round(&mut gates);
        report.rounds += 1;
        report.cancelled += c;
        report.merged += m;
        report.zero_rotations += z;
        if c + m + z == 0 {
            break;
        }
    }
    circuit.set_gates(gates.into_iter().flatten().collect());
    report
}

/// Asserts that `optimize` and the oracle agree on `circuit`.
fn assert_matches_oracle(label: &str, circuit: &Circuit) {
    let mut expected = circuit.clone();
    let expected_report = oracle(&mut expected);
    let mut actual = circuit.clone();
    let actual_report = peephole::optimize(&mut actual);
    assert_eq!(actual_report, expected_report, "{label}: report differs");
    assert!(
        actual.gates() == expected.gates(),
        "{label}: gates differ ({} vs {} gates)",
        actual.len(),
        expected.len()
    );
}

/// A Table 1 program, scheduled and synthesized on its paper target, before
/// the peephole.
fn synthesized(name: &str) -> Circuit {
    let b = suite::generate(name);
    let n = b.ir.num_qubits();
    let layers = run_scheduler(&b.ir, Scheduler::Auto);
    let device = devices::manhattan_65();
    let backend = match b.class {
        BackendClass::Superconducting => Backend::Superconducting {
            device: &device,
            noise: None,
        },
        BackendClass::FaultTolerant => Backend::FaultTolerant,
    };
    run_synthesis(n, &layers, &backend, Intra::sequential()).circuit
}

fn check_programs(names: &[&str]) {
    for name in names {
        assert_matches_oracle(name, &synthesized(name));
    }
}

#[test]
fn matches_oracle_on_table1_programs() {
    let names: Vec<&str> = suite::all_names()
        .into_iter()
        .filter(|n| !LARGE.contains(n) && !HUGE.contains(n))
        .collect();
    assert_eq!(names.len(), 19);
    check_programs(&names);
}

#[test]
#[ignore = "about 20 s of oracle time; run with --ignored"]
fn matches_oracle_on_large_table1_programs() {
    check_programs(&LARGE);
}

#[test]
#[ignore = "about 45 s of oracle time; run with --ignored"]
fn matches_oracle_on_huge_table1_programs() {
    check_programs(&HUGE);
}

/// One gate over the full alphabet, from raw draws; angles are k·π/4.
fn gate(n: usize, (kind, a, b, k): (u8, usize, usize, i32)) -> Gate {
    let (a, b) = (a % n, b % n);
    let b = if a == b { (b + 1) % n } else { b };
    let theta = f64::from(k) * FRAC_PI_4;
    match kind {
        0 => Gate::H(a),
        1 => Gate::X(a),
        2 => Gate::S(a),
        3 => Gate::Sdg(a),
        4 => Gate::Rz(a, theta),
        5 => Gate::Rx(a, theta),
        6 => Gate::Ry(a, theta),
        7 => Gate::Cx(a, b),
        _ => Gate::Swap(a, b),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matches_oracle_on_random_circuits(
        n in 2usize..9,
        raw in proptest::collection::vec((0u8..9, 0usize..8, 0usize..8, -8i32..9), 0..301),
    ) {
        let mut c = Circuit::new(n);
        for r in raw {
            c.push(gate(n, r));
        }
        assert_matches_oracle("random circuit", &c);
    }
}
