//! Paulihedral: a block-wise compiler optimization framework for quantum
//! simulation kernels (reproduction of Li et al., ASPLOS 2022).
//!
//! A *quantum simulation kernel* implements `exp(iHt)` for a Hamiltonian
//! expanded in the Pauli basis. Paulihedral keeps such kernels in a
//! dedicated [Pauli IR](ir) — lists of [`ir::PauliBlock`]s whose semantics
//! is commutative matrix addition — and optimizes them *before* lowering to
//! gates:
//!
//! 1. **Instruction scheduling** (technology-independent, [`schedule`]):
//!    gate-count-oriented lexicographic ordering or depth-oriented layer
//!    packing (Alg. 1).
//! 2. **Block-wise synthesis** (technology-dependent, [`synth`]): the
//!    fault-tolerant backend maximizes gate cancellation via adaptive CNOT
//!    chains (Alg. 2); the superconducting backend embeds CNOT trees into
//!    the device coupling map to co-optimize synthesis and qubit routing
//!    (Alg. 3).
//!
//! The one-call entry point is [`compile`]:
//!
//! ```
//! use paulihedral::{compile, Backend, CompileOptions, Scheduler};
//! use paulihedral::parse::parse_program;
//!
//! let ir = parse_program("{(ZZY, 0.5), 1.0}; {(ZZI, 0.3), 1.0};")?;
//! let out = compile(&ir, &CompileOptions::new(Scheduler::GateCount, Backend::FaultTolerant));
//! assert!(out.circuit.stats().cnot <= 8);
//! # Ok::<(), paulihedral::parse::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod ir;
pub mod parse;
pub mod schedule;
pub mod synth;
pub mod trotter;

use pauli::PauliString;
use qcircuit::Circuit;
use qdevice::{CouplingMap, NoiseModel};

use ir::PauliIR;
use schedule::Layer;
use synth::par::Intra;

/// Which technology-independent scheduling pass to run (paper §4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheduler {
    /// Gate-count-oriented lexicographic scheduling (§4.1, "GCO").
    GateCount,
    /// Depth-oriented layer packing (Alg. 1, "DO").
    Depth,
    /// Adaptive pass management (§7): pick GCO or DO per program via
    /// [`choose_scheduler`].
    Auto,
}

impl Scheduler {
    /// Resolves [`Scheduler::Auto`] against a concrete program; the two
    /// concrete variants return themselves.
    pub fn resolve(self, ir: &PauliIR) -> Scheduler {
        match self {
            Scheduler::Auto => choose_scheduler(ir),
            concrete => concrete,
        }
    }
}

/// Which technology-dependent backend pass to run (paper §5).
#[derive(Clone, Copy, Debug)]
pub enum Backend<'a> {
    /// Fault-tolerant backend: mapping is free, maximize cancellation.
    FaultTolerant,
    /// Near-term superconducting backend: coupling-constrained synthesis.
    Superconducting {
        /// The device coupling map.
        device: &'a CouplingMap,
        /// Optional calibration for error-aware routing decisions.
        noise: Option<&'a NoiseModel>,
    },
}

/// Options for [`compile`].
#[derive(Clone, Copy, Debug)]
pub struct CompileOptions<'a> {
    /// Scheduling pass.
    pub scheduler: Scheduler,
    /// Backend pass.
    pub backend: Backend<'a>,
    /// Intra-compile worker budget for the synthesis passes: `1` (the
    /// default) keeps synthesis sequential, `0` uses one worker per
    /// available CPU, any other value is taken literally. The compiled
    /// artifact is bit-identical for every setting — parallel shards
    /// replicate the sequential tie-breaking exactly — so this is purely
    /// a wall-clock knob and is excluded from compilation cache keys.
    pub intra_threads: usize,
}

impl<'a> CompileOptions<'a> {
    /// Options with the given passes and sequential synthesis
    /// (`intra_threads = 1`).
    pub fn new(scheduler: Scheduler, backend: Backend<'a>) -> CompileOptions<'a> {
        CompileOptions {
            scheduler,
            backend,
            intra_threads: 1,
        }
    }

    /// Sets the intra-compile worker budget (builder-style).
    #[must_use]
    pub fn with_intra_threads(mut self, intra_threads: usize) -> CompileOptions<'a> {
        self.intra_threads = intra_threads;
        self
    }
}

/// Why a compilation request was rejected up front.
///
/// Produced by [`try_compile`] (and the `ph_engine` pass manager built on
/// top of it) instead of the panics [`compile`] raises.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The program has no blocks — there is nothing to schedule.
    EmptyProgram,
    /// The SC device has fewer physical qubits than the program needs.
    DeviceTooSmall {
        /// Physical qubits on the device.
        device: usize,
        /// Logical qubits the program needs.
        program: usize,
    },
    /// The SC device coupling map is disconnected, so qubits cannot be
    /// routed together.
    DeviceDisconnected,
    /// The compilation panicked. Produced by callers that isolate
    /// panics (the batch driver, the compile service) so one bad job
    /// cannot tear down its worker; carries the panic payload text.
    Panicked(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::EmptyProgram => write!(f, "program has no pauli blocks"),
            CompileError::DeviceTooSmall { device, program } => write!(
                f,
                "program needs {program} qubits, device has only {device}"
            ),
            CompileError::DeviceDisconnected => {
                write!(f, "device coupling map is disconnected")
            }
            CompileError::Panicked(msg) => write!(f, "compilation panicked: {msg}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// A compiled simulation kernel.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The output circuit: logical for the FT backend, physical (device
    /// width, connectivity-conformant) for the SC backend.
    pub circuit: Circuit,
    /// The `(string, θ)` sequence in emission order; the circuit implements
    /// `Π exp(iθP)` in exactly this order (the Pauli IR semantics licenses
    /// the reordering).
    pub emitted: Vec<(PauliString, f64)>,
    /// Initial logical→physical layout (SC backend only).
    pub initial_l2p: Option<Vec<usize>>,
    /// Final logical→physical layout (SC backend only).
    pub final_l2p: Option<Vec<usize>>,
}

/// Runs the selected scheduling pass ([`Scheduler::Auto`] resolves through
/// [`choose_scheduler`] first).
pub fn run_scheduler(ir: &PauliIR, scheduler: Scheduler) -> Vec<Layer> {
    match scheduler.resolve(ir) {
        Scheduler::GateCount => schedule::schedule_gco(ir),
        Scheduler::Depth => schedule::schedule_depth(ir),
        Scheduler::Auto => unreachable!("resolve() returns a concrete scheduler"),
    }
}

/// Runs the selected block-wise synthesis pass on `n`-qubit scheduled
/// layers: [`synth::ft::synthesize`] or [`synth::sc::synthesize`]. The
/// circuit is not yet peephole-optimized.
///
/// # Panics
///
/// Panics on an SC device that is disconnected or smaller than the
/// program; [`validate`] rejects such requests up front.
pub fn run_synthesis(
    n: usize,
    layers: &[Layer],
    backend: &Backend<'_>,
    intra: Intra<'_>,
) -> Compiled {
    match *backend {
        Backend::FaultTolerant => synth::ft::synthesize(n, layers, intra),
        Backend::Superconducting { device, noise } => {
            synth::sc::synthesize(n, layers, device, noise, intra)
        }
    }
}

/// Picks a scheduler from the program's Pauli-string pattern — the
/// adaptive pass management the paper sketches in §7, based on its own
/// §6.3 analysis:
///
/// * *second-category* kernels (every string at most 2-local — Ising,
///   Heisenberg, QAOA) benefit hugely from depth-oriented layer packing
///   and lose nothing on gate count → [`Scheduler::Depth`];
/// * *first-category* kernels (molecules, UCCSD, random Hamiltonians with
///   long strings) cancel more gates under lexicographic ordering →
///   [`Scheduler::GateCount`].
pub fn choose_scheduler(ir: &PauliIR) -> Scheduler {
    let two_local = ir
        .blocks()
        .iter()
        .flat_map(|b| &b.terms)
        .all(|t| t.string.weight() <= 2);
    if two_local {
        Scheduler::Depth
    } else {
        Scheduler::GateCount
    }
}

/// Checks a compilation request without running it: non-empty program,
/// and (for the SC backend) a connected device at least as wide as the
/// program.
///
/// # Errors
///
/// Returns the [`CompileError`] that [`try_compile`] would return.
pub fn validate(ir: &PauliIR, backend: &Backend<'_>) -> Result<(), CompileError> {
    if ir.num_blocks() == 0 {
        return Err(CompileError::EmptyProgram);
    }
    if let Backend::Superconducting { device, .. } = backend {
        if device.num_qubits() < ir.num_qubits() {
            return Err(CompileError::DeviceTooSmall {
                device: device.num_qubits(),
                program: ir.num_qubits(),
            });
        }
        if !device.is_connected() {
            return Err(CompileError::DeviceDisconnected);
        }
    }
    Ok(())
}

/// Compiles a Pauli IR program: [`validate`], then the three stages
/// [`run_scheduler`] → [`run_synthesis`] → [`qcircuit::peephole::optimize`].
/// The `ph_engine` standard pipeline runs exactly these functions.
///
/// # Errors
///
/// Returns a [`CompileError`] for an empty program or for an SC device
/// that is disconnected or smaller than the program.
pub fn try_compile(ir: &PauliIR, options: &CompileOptions<'_>) -> Result<Compiled, CompileError> {
    validate(ir, &options.backend)?;
    let layers = run_scheduler(ir, options.scheduler);
    let intra = Intra::new(options.intra_threads);
    let mut compiled = run_synthesis(ir.num_qubits(), &layers, &options.backend, intra);
    qcircuit::peephole::optimize(&mut compiled.circuit);
    Ok(compiled)
}

/// Compiles a Pauli IR program, panicking on invalid input. Thin wrapper
/// over [`try_compile`] for callers that treat bad input as a bug.
///
/// # Panics
///
/// Panics on an empty program or if the SC device is disconnected or
/// smaller than the program.
pub fn compile(ir: &PauliIR, options: &CompileOptions<'_>) -> Compiled {
    match try_compile(ir, options) {
        Ok(compiled) => compiled,
        Err(e) => panic!("compile: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::{Parameter, PauliBlock};
    use pauli::PauliTerm;
    use qdevice::devices;

    fn small_ir() -> PauliIR {
        let mut prog = PauliIR::new(3);
        for (s, w) in [("ZZI", 0.5), ("IZZ", 0.25), ("XXI", -0.5)] {
            prog.push_block(PauliBlock::new(
                vec![PauliTerm::new(s.parse().unwrap(), w)],
                Parameter::time(0.2),
            ));
        }
        prog
    }

    #[test]
    fn ft_compile_produces_logical_circuit() {
        let out = compile(
            &small_ir(),
            &CompileOptions {
                intra_threads: 1,
                scheduler: Scheduler::GateCount,
                backend: Backend::FaultTolerant,
            },
        );
        assert_eq!(out.circuit.num_qubits(), 3);
        assert!(out.initial_l2p.is_none());
        assert_eq!(out.emitted.len(), 3);
    }

    #[test]
    fn sc_compile_produces_conformant_physical_circuit() {
        let device = devices::linear(5);
        let out = compile(
            &small_ir(),
            &CompileOptions {
                intra_threads: 1,
                scheduler: Scheduler::Depth,
                backend: Backend::Superconducting {
                    device: &device,
                    noise: None,
                },
            },
        );
        assert_eq!(out.circuit.num_qubits(), 5);
        assert!(out
            .circuit
            .respects_connectivity(|a, b| device.has_edge(a, b)));
        assert_eq!(out.initial_l2p.as_ref().unwrap().len(), 3);
    }

    #[test]
    fn both_schedulers_emit_every_string() {
        for s in [Scheduler::GateCount, Scheduler::Depth] {
            let out = compile(
                &small_ir(),
                &CompileOptions {
                    intra_threads: 1,
                    scheduler: s,
                    backend: Backend::FaultTolerant,
                },
            );
            assert_eq!(out.emitted.len(), 3);
        }
    }

    #[test]
    fn try_compile_rejects_empty_programs() {
        let empty = PauliIR::new(3);
        let err = try_compile(
            &empty,
            &CompileOptions {
                intra_threads: 1,
                scheduler: Scheduler::Auto,
                backend: Backend::FaultTolerant,
            },
        )
        .unwrap_err();
        assert_eq!(err, CompileError::EmptyProgram);
    }

    #[test]
    fn try_compile_rejects_undersized_devices() {
        let device = devices::linear(2);
        let err = try_compile(
            &small_ir(),
            &CompileOptions {
                intra_threads: 1,
                scheduler: Scheduler::Depth,
                backend: Backend::Superconducting {
                    device: &device,
                    noise: None,
                },
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            CompileError::DeviceTooSmall {
                device: 2,
                program: 3
            }
        );
    }

    #[test]
    fn try_compile_rejects_disconnected_devices() {
        let device = qdevice::CouplingMap::new(4, &[(0, 1), (2, 3)]);
        let err = try_compile(
            &small_ir(),
            &CompileOptions {
                intra_threads: 1,
                scheduler: Scheduler::Depth,
                backend: Backend::Superconducting {
                    device: &device,
                    noise: None,
                },
            },
        )
        .unwrap_err();
        assert_eq!(err, CompileError::DeviceDisconnected);
    }

    #[test]
    #[should_panic(expected = "program has no pauli blocks")]
    fn compile_panics_where_try_compile_errors() {
        compile(
            &PauliIR::new(2),
            &CompileOptions {
                intra_threads: 1,
                scheduler: Scheduler::GateCount,
                backend: Backend::FaultTolerant,
            },
        );
    }

    #[test]
    fn auto_scheduler_matches_the_resolved_choice() {
        // small_ir is 2-local → Auto resolves to Depth.
        assert_eq!(Scheduler::Auto.resolve(&small_ir()), Scheduler::Depth);
        let auto = compile(
            &small_ir(),
            &CompileOptions {
                intra_threads: 1,
                scheduler: Scheduler::Auto,
                backend: Backend::FaultTolerant,
            },
        );
        let manual = compile(
            &small_ir(),
            &CompileOptions {
                intra_threads: 1,
                scheduler: Scheduler::Depth,
                backend: Backend::FaultTolerant,
            },
        );
        assert_eq!(auto.circuit, manual.circuit);
        assert_eq!(auto.emitted, manual.emitted);
    }

    #[test]
    fn scheduler_choice_follows_string_pattern() {
        // 2-local program → Depth.
        assert_eq!(choose_scheduler(&small_ir()), Scheduler::Depth);
        // One long string flips it to GateCount.
        let mut ir = small_ir();
        ir.push_block(PauliBlock::single(
            "ZZZ".parse().unwrap(),
            1.0,
            Parameter::time(0.1),
        ));
        assert_eq!(choose_scheduler(&ir), Scheduler::GateCount);
    }
}
