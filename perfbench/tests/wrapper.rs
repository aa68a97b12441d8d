//! The timed pipeline must be invisible to the compiler (same cache keys,
//! pass names and gate-identical circuits as `Pipeline::auto()`), and the
//! output check must accept compiled programs and reject broken ones.

use paulihedral::Compiled;
use perfbench::check::check;
use perfbench::digest;
use perfbench::inputs::{table1_program, Program};
use perfbench::trace::{timed_pipeline, Tracer};
use ph_engine::{Engine, EngineOutput, Pipeline};
use qcircuit::Gate;

/// A few SC and FT rows, small enough for a test build.
const PROGRAMS: [&str; 5] = ["UCCSD-8", "REG-20-4", "TSP-4", "Heisen-2D", "N2"];

fn compile(p: &Program, pipeline: Pipeline) -> EngineOutput {
    Engine::new(pipeline, p.target.clone())
        .compile(&p.ir)
        .expect("suite programs compile")
}

#[test]
fn timed_pipeline_is_invisible_to_the_compiler() {
    let tracer = Tracer::new();
    let timed = timed_pipeline(&Pipeline::auto(), &tracer);
    for name in PROGRAMS {
        let p = table1_program(name);
        let plain = compile(&p, Pipeline::auto());
        let wrapped = compile(&p, timed.clone());
        assert_eq!(plain.report.key, wrapped.report.key, "{name}");
        let names = |o: &EngineOutput| -> Vec<String> {
            o.report.passes.iter().map(|r| r.name.clone()).collect()
        };
        assert_eq!(names(&plain), names(&wrapped), "{name}");
        assert_eq!(plain.compiled.circuit, wrapped.compiled.circuit, "{name}");
        assert_eq!(digest(&plain.compiled), digest(&wrapped.compiled), "{name}");
    }
    // Each wrapped pass ran once per program, inside its own span.
    assert_eq!(
        tracer
            .spans()
            .iter()
            .filter(|s| s.name == "peephole")
            .count(),
        5
    );
    assert!(tracer.tally().peephole_gates_in >= tracer.tally().peephole_gates_out);
}

fn expect_rejected(p: &Program, compiled: &Compiled, what: &str) {
    assert!(
        check(&p.reference, compiled, p.device.as_deref()).is_err(),
        "{}: {what} passed the check",
        p.label
    );
}

#[test]
fn check_accepts_outputs_and_rejects_broken_ones() {
    for name in PROGRAMS {
        let p = table1_program(name);
        let out = compile(&p, Pipeline::auto());
        let good: &Compiled = &out.compiled;
        check(&p.reference, good, p.device.as_deref()).expect(name);

        let mut gates = good.circuit.gates().to_vec();
        let rz = gates
            .iter()
            .position(|g| matches!(g, Gate::Rz(..)))
            .expect("a rotation");
        if let Gate::Rz(q, t) = gates[rz] {
            gates[rz] = Gate::Rz(q, t + 0.25);
        }
        let mut bad = Compiled::clone(good);
        bad.circuit.set_gates(gates);
        expect_rejected(&p, &bad, "a changed angle");

        let mut gates = good.circuit.gates().to_vec();
        let cx = gates
            .iter()
            .position(|g| matches!(g, Gate::Cx(..)))
            .expect("a CNOT");
        gates.remove(cx);
        let mut bad = Compiled::clone(good);
        bad.circuit.set_gates(gates);
        expect_rejected(&p, &bad, "a dropped CNOT");

        let mut bad = Compiled::clone(good);
        bad.emitted.pop();
        expect_rejected(&p, &bad, "a missing emitted term");

        if let Some(l2p) = &good.final_l2p {
            let mut bad = Compiled::clone(good);
            let mut l2p = l2p.clone();
            l2p.swap(0, 1);
            bad.final_l2p = Some(l2p);
            expect_rejected(&p, &bad, "a wrong final layout");
        }
    }
}
