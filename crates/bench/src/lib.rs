//! Shared experiment harness for regenerating the paper's tables/figures.
//!
//! Each `table*`/`fig11` binary composes the pieces here: the two-stage
//! compilation flows (Paulihedral or a baseline first stage, then a generic
//! second stage), timing, and tabular output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use baselines::generic::{self, Mapping};
use baselines::tk;
use paulihedral::ir::PauliIR;
use paulihedral::Scheduler;
use ph_engine::{CompileReport, Engine, Pipeline, Target};
use qcircuit::{Circuit, CircuitStats};
use qdevice::CouplingMap;
use workloads::suite::BackendClass;

/// Which generic second-stage pipeline to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SecondStage {
    /// The Qiskit-level-3-like pipeline.
    QiskitL3,
    /// The tket-O2-like pipeline.
    TketO2,
}

impl SecondStage {
    /// Human-readable label matching the paper's column headers.
    pub fn label(self) -> &'static str {
        match self {
            SecondStage::QiskitL3 => "Qiskit_L3",
            SecondStage::TketO2 => "tket_O2",
        }
    }

    fn run(self, circuit: &Circuit, mapping: Mapping<'_>) -> Circuit {
        match self {
            SecondStage::QiskitL3 => generic::qiskit_l3_like(circuit, mapping).circuit,
            SecondStage::TketO2 => generic::tket_o2_like(circuit, mapping).circuit,
        }
    }
}

/// The outcome of one two-stage flow.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// Metrics of the final circuit (SWAPs decomposed).
    pub stats: CircuitStats,
    /// First-stage (PH or baseline) wall time.
    pub stage1: Duration,
    /// Second-stage (generic pipeline) wall time.
    pub stage2: Duration,
    /// Per-pass instrumentation of the first stage (PH flows only; empty
    /// for baseline flows).
    pub report: CompileReport,
}

/// The engine target for a benchmark's backend class.
fn class_target(class: BackendClass, device: &CouplingMap) -> Target {
    match class {
        BackendClass::Superconducting => Target::superconducting(device.clone()),
        BackendClass::FaultTolerant => Target::FaultTolerant,
    }
}

/// Runs the Paulihedral flow: schedule + block-wise synthesis through the
/// `ph_engine` pass manager, then a generic clean-up stage (the paper's
/// `PH+Qiskit_L3` / `PH+tket_O2`). Each call builds a fresh engine, so
/// its cache is empty and `stage1` is a real compile-time measurement.
pub fn ph_flow(
    ir: &PauliIR,
    class: BackendClass,
    scheduler: Scheduler,
    device: &CouplingMap,
    second: SecondStage,
) -> FlowResult {
    // Engine and target setup (including the device clone) stays outside
    // the stage-1 timer: it is driver overhead, not compile time, and the
    // pre-engine flow never measured it.
    let engine = Engine::new(Pipeline::standard(scheduler), class_target(class, device));
    let t0 = Instant::now();
    let out = engine
        .compile(ir)
        .expect("benchmark programs are valid compile requests");
    let stage1 = t0.elapsed();
    let t1 = Instant::now();
    let mapping = match class {
        BackendClass::Superconducting => Mapping::AlreadyMapped,
        BackendClass::FaultTolerant => Mapping::None,
    };
    let final_circuit = second.run(&out.compiled.circuit, mapping);
    let stage2 = t1.elapsed();
    FlowResult {
        stats: final_circuit.stats(),
        stage1,
        stage2,
        report: out.report,
    }
}

/// Runs the TK baseline flow: simultaneous diagonalization, then a generic
/// stage that also routes on the SC backend (`TK+Qiskit_L3` / `TK+tket_O2`).
pub fn tk_flow(
    ir: &PauliIR,
    class: BackendClass,
    device: &CouplingMap,
    second: SecondStage,
) -> FlowResult {
    let t0 = Instant::now();
    let r = tk::compile_tk(ir);
    let stage1 = t0.elapsed();
    let t1 = Instant::now();
    let mapping = match class {
        BackendClass::Superconducting => Mapping::Route(device),
        BackendClass::FaultTolerant => Mapping::None,
    };
    let final_circuit = second.run(&r.circuit, mapping);
    let stage2 = t1.elapsed();
    FlowResult {
        stats: final_circuit.stats(),
        stage1,
        stage2,
        report: CompileReport::default(),
    }
}

/// Naive-synthesis flow with Paulihedral *scheduling* but naive chains
/// (isolates the block-wise-compilation effect for Table 4's BC column).
pub fn scheduled_naive_flow(
    ir: &PauliIR,
    class: BackendClass,
    scheduler: Scheduler,
    device: &CouplingMap,
    second: SecondStage,
) -> FlowResult {
    use paulihedral::synth::chain::emit_gadget;
    let t0 = Instant::now();
    let layers = paulihedral::run_scheduler(ir, scheduler);
    let mut logical = Circuit::new(ir.num_qubits());
    for layer in &layers {
        for block in &layer.blocks {
            for (i, term) in block.terms.iter().enumerate() {
                if term.string.is_identity() {
                    continue;
                }
                let order = term.string.support();
                emit_gadget(&mut logical, &term.string, block.theta(i), &order);
            }
        }
    }
    let stage1 = t0.elapsed();
    let t1 = Instant::now();
    let mapping = match class {
        BackendClass::Superconducting => Mapping::Route(device),
        BackendClass::FaultTolerant => Mapping::None,
    };
    let final_circuit = second.run(&logical, mapping);
    let stage2 = t1.elapsed();
    FlowResult {
        stats: final_circuit.stats(),
        stage1,
        stage2,
        report: CompileReport::default(),
    }
}

/// Formats a duration as seconds with sensible precision.
pub fn fmt_secs(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 0.095 {
        format!("{s:.3}")
    } else if s < 10.0 {
        format!("{s:.2}")
    } else {
        format!("{s:.1}")
    }
}

/// Signed percentage change from `base` to `new` (negative = reduction).
pub fn pct_change(base: usize, new: usize) -> f64 {
    if base == 0 {
        return 0.0;
    }
    (new as f64 - base as f64) / base as f64 * 100.0
}

/// Prints a row of fixed-width columns.
pub fn print_row(widths: &[usize], cells: &[String]) {
    let mut line = String::new();
    for (w, c) in widths.iter().zip(cells) {
        line.push_str(&format!("{c:>w$} ", w = w));
    }
    println!("{}", line.trim_end());
}

/// The benchmark subset used by `--quick` runs (one representative per
/// family; random Hamiltonians capped at 40 qubits).
pub fn quick_subset() -> Vec<&'static str> {
    vec![
        "UCCSD-8",
        "UCCSD-12",
        "REG-20-4",
        "Rand-20-0.3",
        "TSP-4",
        "Ising-1D",
        "Ising-2D",
        "Heisen-1D",
        "Heisen-2D",
        "N2",
        "Rand-30",
    ]
}

/// Parses `--flag value`-style options from `args`.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Whether a bare `--flag` is present.
pub fn arg_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_engine::{BatchEngine, CompileJob};
    use qdevice::devices;
    use workloads::suite;

    #[test]
    fn ph_flow_runs_on_both_classes() {
        let device = devices::manhattan_65();
        let sc = suite::generate("REG-20-4");
        let r = ph_flow(
            &sc.ir,
            sc.class,
            Scheduler::Depth,
            &device,
            SecondStage::QiskitL3,
        );
        assert!(r.stats.cnot > 0);
        assert_eq!(r.stats.swap, 0, "final stats must be swap-free");
        let ft = suite::generate("Ising-1D");
        let r = ph_flow(
            &ft.ir,
            ft.class,
            Scheduler::Depth,
            &device,
            SecondStage::TketO2,
        );
        assert_eq!(r.stats.cnot, 58);
    }

    #[test]
    fn tk_flow_routes_sc_benchmarks() {
        let device = devices::manhattan_65();
        let b = suite::generate("Rand-20-0.1");
        let r = tk_flow(&b.ir, b.class, &device, SecondStage::QiskitL3);
        assert!(r.stats.cnot > 0);
    }

    #[test]
    fn ph_beats_scheduled_naive_on_uccsd() {
        let device = devices::manhattan_65();
        let b = suite::generate("UCCSD-8");
        let ph = ph_flow(
            &b.ir,
            b.class,
            Scheduler::Depth,
            &device,
            SecondStage::QiskitL3,
        );
        let naive = scheduled_naive_flow(
            &b.ir,
            b.class,
            Scheduler::Depth,
            &device,
            SecondStage::QiskitL3,
        );
        assert!(
            ph.stats.cnot < naive.stats.cnot,
            "PH {} vs naive {}",
            ph.stats.cnot,
            naive.stats.cnot
        );
    }

    #[test]
    fn ph_flow_stage1_matches_a_batch_compile() {
        let device = devices::manhattan_65();
        let ir = suite::generate("REG-20-4").ir;
        let flow = ph_flow(
            &ir,
            BackendClass::Superconducting,
            Scheduler::Depth,
            &device,
            SecondStage::QiskitL3,
        );
        // The same request through the batch driver: same stage-1 circuit
        // metrics as the single-shot flow's engine compile.
        let job = CompileJob::named("REG-20-4", ir)
            .on_target(Target::superconducting(device))
            .with_scheduler(Scheduler::Depth);
        let batch =
            BatchEngine::new(Pipeline::auto(), Target::FaultTolerant).compile_all(vec![job]);
        let out = batch[0].outcome.as_ref().expect("valid program");
        assert_eq!(out.report.final_stats(), flow.report.final_stats());
    }

    #[test]
    fn helpers_behave() {
        assert_eq!(pct_change(100, 50), -50.0);
        assert_eq!(pct_change(0, 10), 0.0);
        let args: Vec<String> = ["x", "--shots", "512", "--quick"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--shots").as_deref(), Some("512"));
        assert!(arg_flag(&args, "--quick"));
        assert!(!arg_flag(&args, "--full"));
    }
}
