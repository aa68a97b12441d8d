//! Property-based invariants on the substrates: the peephole optimizer and
//! single-qubit fusion never change a circuit's operator; scheduling never
//! drops, duplicates or splits blocks; the IR parser round-trips.

use std::f64::consts::FRAC_PI_4;

use pauli::{Pauli, PauliString, PauliTerm};
use paulihedral::ir::{Parameter, PauliBlock, PauliIR};
use paulihedral::parse::{parse_program, print_program};
use paulihedral::schedule::{schedule_depth, schedule_gco, Layer};
use proptest::prelude::*;
use qcircuit::{fusion, peephole, Circuit, Gate};
use qsim::unitary::{circuit_unitary, equal_up_to_phase};

fn arb_gate(n: usize) -> impl Strategy<Value = Gate> {
    arb_gate_with(n, -2.0f64..2.0)
}

/// Gates whose rotation angles are k·π/4, so that merged rotations often
/// land on 0 (mod 2π) and are dropped.
fn arb_quarter_turn_gate(n: usize) -> impl Strategy<Value = Gate> {
    arb_gate_with(n, (-8i32..9).prop_map(|k| f64::from(k) * FRAC_PI_4))
}

fn arb_gate_with(n: usize, angle: impl Strategy<Value = f64>) -> impl Strategy<Value = Gate> {
    (0u8..9, 0..n, 0..n, angle).prop_map(move |(kind, a, b, theta)| {
        let b = if a == b { (b + 1) % n } else { b };
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
    })
}

fn arb_circuit(n: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    circuit_of(n, max_len, arb_gate(n))
}

fn circuit_of(
    n: usize,
    max_len: usize,
    gate: impl Strategy<Value = Gate>,
) -> impl Strategy<Value = Circuit> {
    proptest::collection::vec(gate, 0..max_len).prop_map(move |gates| {
        let mut c = Circuit::new(n);
        for g in gates {
            c.push(g);
        }
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn peephole_preserves_the_operator(c in arb_circuit(4, 24)) {
        let reference = circuit_unitary(&c);
        let mut optimized = c.clone();
        peephole::optimize(&mut optimized);
        prop_assert!(optimized.len() <= c.len());
        prop_assert!(
            equal_up_to_phase(&circuit_unitary(&optimized), &reference, 1e-8),
            "peephole changed the operator of:\n{c}"
        );
    }

    #[test]
    fn peephole_preserves_the_operator_at_quarter_turns(
        c in circuit_of(4, 24, arb_quarter_turn_gate(4)),
    ) {
        let reference = circuit_unitary(&c);
        let mut optimized = c.clone();
        peephole::optimize(&mut optimized);
        prop_assert!(optimized.len() <= c.len());
        prop_assert!(
            equal_up_to_phase(&circuit_unitary(&optimized), &reference, 1e-8),
            "peephole changed the operator of:\n{c}"
        );
    }

    #[test]
    fn fusion_preserves_the_operator(c in arb_circuit(3, 20)) {
        let reference = circuit_unitary(&c);
        let mut fused = c.clone();
        fusion::fuse_single_qubit_runs(&mut fused);
        prop_assert!(fused.len() <= c.len());
        prop_assert!(
            equal_up_to_phase(&circuit_unitary(&fused), &reference, 1e-8),
            "fusion changed the operator of:\n{c}"
        );
    }

    #[test]
    fn stats_invariants_hold(c in arb_circuit(5, 40)) {
        let s = c.stats();
        prop_assert_eq!(s.total, s.cnot + s.single + s.swap);
        prop_assert!(s.depth <= s.total);
        let d = c.decompose_swaps().stats();
        prop_assert_eq!(d.swap, 0);
        prop_assert_eq!(d.cnot, s.cnot + 3 * s.swap);
    }
}

fn arb_small_program() -> impl Strategy<Value = PauliIR> {
    let string = proptest::collection::vec(0u8..4, 5).prop_map(|ops| {
        let mut s = PauliString::identity(5);
        let mut any = false;
        for (q, &o) in ops.iter().enumerate() {
            if o != 0 {
                any = true;
                s.set(q, [Pauli::X, Pauli::Y, Pauli::Z][(o - 1) as usize]);
            }
        }
        if !any {
            s.set(2, Pauli::X);
        }
        s
    });
    proptest::collection::vec(
        proptest::collection::vec((string, -1.0f64..1.0), 1..4),
        1..6,
    )
    .prop_map(|blocks| {
        let mut ir = PauliIR::new(5);
        for (bi, terms) in blocks.into_iter().enumerate() {
            ir.push_block(PauliBlock::new(
                terms
                    .into_iter()
                    .map(|(s, w)| PauliTerm::new(s, if w == 0.0 { 0.5 } else { w }))
                    .collect(),
                Parameter::named(format!("p{bi}"), 0.1 + bi as f64 * 0.05),
            ));
        }
        ir
    })
}

/// Multiset of (string, weight-bits) over all blocks, for exact comparison.
fn string_multiset(layers: &[Layer]) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = layers
        .iter()
        .flat_map(|l| &l.blocks)
        .flat_map(|b| &b.terms)
        .map(|t| (t.string.to_string(), t.weight.to_bits()))
        .collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scheduling_preserves_blocks_and_strings(ir in arb_small_program()) {
        for layers in [schedule_gco(&ir), schedule_depth(&ir)] {
            // Same number of blocks, same multiset of strings.
            let blocks: usize = layers.iter().map(|l| l.blocks.len()).sum();
            prop_assert_eq!(blocks, ir.num_blocks());
            let mut original: Vec<(String, u64)> = ir
                .blocks()
                .iter()
                .flat_map(|b| &b.terms)
                .map(|t| (t.string.to_string(), t.weight.to_bits()))
                .collect();
            original.sort();
            prop_assert_eq!(string_multiset(&layers), original);
            // Block atomicity: every scheduled block matches an input block
            // as a multiset of strings.
            for b in layers.iter().flat_map(|l| &l.blocks) {
                let mut b_strings: Vec<String> =
                    b.terms.iter().map(|t| t.string.to_string()).collect();
                b_strings.sort();
                let found = ir.blocks().iter().any(|ob| {
                    let mut o: Vec<String> =
                        ob.terms.iter().map(|t| t.string.to_string()).collect();
                    o.sort();
                    o == b_strings && ob.parameter.value == b.parameter.value
                });
                prop_assert!(found, "scheduled block not found in input");
            }
        }
    }

    #[test]
    fn depth_layers_pad_disjointly(ir in arb_small_program()) {
        for layer in schedule_depth(&ir) {
            for (i, a) in layer.blocks.iter().enumerate() {
                for b in &layer.blocks[i + 1..] {
                    prop_assert!(a.disjoint_with(b), "padded blocks overlap");
                }
            }
        }
    }

    #[test]
    fn parser_round_trips(ir in arb_small_program()) {
        let text = print_program(&ir);
        let reparsed = parse_program(&text).unwrap();
        prop_assert_eq!(reparsed.num_blocks(), ir.num_blocks());
        for (a, b) in ir.blocks().iter().zip(reparsed.blocks()) {
            prop_assert_eq!(&a.terms, &b.terms);
        }
    }
}
