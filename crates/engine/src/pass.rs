//! The [`Pass`] trait and the concrete passes wrapping the core crate's
//! scheduling, synthesis, and circuit clean-up machinery.

use std::sync::Arc;

use paulihedral::synth::par::Intra;
use paulihedral::{Backend, CompileError, Scheduler};
use qcircuit::{fusion, peephole};
use qdevice::{CouplingMap, NoiseModel};

use crate::cache::Fingerprint;
use crate::unit::CompileUnit;

/// The technology target of a compilation — the owned counterpart of the
/// core crate's borrowed [`Backend`], so it can be shared across worker
/// threads and hashed into cache keys.
#[derive(Clone, Debug)]
pub enum Target {
    /// Fault-tolerant backend: mapping is free, maximize cancellation.
    FaultTolerant,
    /// Near-term superconducting backend: coupling-constrained synthesis.
    Superconducting {
        /// The device coupling map.
        device: Arc<CouplingMap>,
        /// Optional calibration for error-aware routing decisions.
        noise: Option<Arc<NoiseModel>>,
    },
}

impl Target {
    /// A superconducting target without calibration data.
    pub fn superconducting(device: CouplingMap) -> Target {
        Target::Superconducting {
            device: Arc::new(device),
            noise: None,
        }
    }

    /// A superconducting target with a noise model for error-aware routing.
    pub fn superconducting_noisy(device: CouplingMap, noise: NoiseModel) -> Target {
        Target::Superconducting {
            device: Arc::new(device),
            noise: Some(Arc::new(noise)),
        }
    }

    /// Parses a backend spec as used by the `phc` CLI and the compile
    /// service wire protocol: `ft`, `manhattan`, `melbourne`, `linear:N`,
    /// or `grid:RxC`. A `linear:` device is widened to at least
    /// `n_program` qubits so a program never fails for want of a wire.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for an unknown or malformed spec.
    pub fn parse_spec(spec: &str, n_program: usize) -> Result<Target, String> {
        match spec {
            "ft" => Ok(Target::FaultTolerant),
            "manhattan" => Ok(Target::superconducting(qdevice::devices::manhattan_65())),
            "melbourne" => Ok(Target::superconducting(qdevice::devices::melbourne_16())),
            other => {
                if let Some(n) = other.strip_prefix("linear:") {
                    let n: usize = n.parse().map_err(|_| format!("bad linear size `{n}`"))?;
                    return Ok(Target::superconducting(qdevice::devices::linear(
                        n.max(n_program),
                    )));
                }
                if let Some(dims) = other.strip_prefix("grid:") {
                    let (r, c) = dims
                        .split_once('x')
                        .ok_or_else(|| format!("bad grid spec `{dims}`, expected RxC"))?;
                    let r: usize = r.parse().map_err(|_| format!("bad grid rows `{r}`"))?;
                    let c: usize = c.parse().map_err(|_| format!("bad grid cols `{c}`"))?;
                    return Ok(Target::superconducting(qdevice::devices::grid(r, c)));
                }
                Err(format!(
                    "unknown backend `{other}` (ft|manhattan|melbourne|linear:N|grid:RxC)"
                ))
            }
        }
    }

    /// A borrowed [`Backend`] view for the core crate's entry points.
    pub fn as_backend(&self) -> Backend<'_> {
        match self {
            Target::FaultTolerant => Backend::FaultTolerant,
            Target::Superconducting { device, noise } => Backend::Superconducting {
                device,
                noise: noise.as_deref(),
            },
        }
    }

    /// Feeds the target's full configuration into a cache fingerprint:
    /// device size, every coupling edge, and (when present) the per-edge /
    /// per-qubit noise figures that steer SC routing.
    pub(crate) fn fingerprint(&self, h: &mut Fingerprint) {
        match self {
            Target::FaultTolerant => h.write_str("ft"),
            Target::Superconducting { device, noise } => {
                h.write_str("sc");
                h.write_usize(device.num_qubits());
                for &(a, b) in device.edges() {
                    h.write_usize(a);
                    h.write_usize(b);
                }
                match noise {
                    None => h.write_str("noiseless"),
                    Some(nm) => {
                        h.write_str("noise");
                        for &(a, b) in device.edges() {
                            h.write_f64(nm.cx_error(a, b));
                        }
                        for q in 0..device.num_qubits() {
                            h.write_f64(nm.sq_error(q));
                            h.write_f64(nm.readout_error(q));
                        }
                    }
                }
            }
        }
    }
}

/// Read-only context every pass receives: the target plus an optional
/// per-job scheduler override (used by the batch driver to steer one
/// pipeline across heterogeneous jobs).
#[derive(Clone, Debug)]
pub struct PassContext<'a> {
    /// The technology target.
    pub target: &'a Target,
    /// Overrides the scheduling pass's configured scheduler, if set.
    pub scheduler_override: Option<Scheduler>,
    /// Intra-compile parallelism context for the synthesis pass. Purely a
    /// wall-clock knob — the artifact is bit-identical for every worker
    /// budget — so it MUST NOT feed any pass [`Pass::signature`].
    pub intra: Intra<'a>,
}

/// One step of a [`crate::Pipeline`].
///
/// Passes must be `Send + Sync`: one pipeline instance drives all batch
/// worker threads.
pub trait Pass: Send + Sync {
    /// Display name (report tables, progress output).
    fn name(&self) -> &'static str;

    /// Configuration tag folded into the compilation cache key. Two
    /// pipelines with the same signature sequence must produce identical
    /// output for identical input.
    fn signature(&self, ctx: &PassContext<'_>) -> String;

    /// Transforms the unit in place. On success returns a one-line note
    /// describing what the pass did (recorded into the
    /// [`crate::PassRecord`]; may be empty).
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] when the unit cannot be compiled (the
    /// same conditions [`paulihedral::try_compile`] rejects).
    fn run(&self, unit: &mut CompileUnit, ctx: &PassContext<'_>) -> Result<String, CompileError>;
}

/// Technology-independent scheduling (paper §4): wraps
/// [`paulihedral::run_scheduler`], resolving [`Scheduler::Auto`] through
/// the §7 adaptive heuristic.
#[derive(Clone, Copy, Debug)]
pub struct SchedulePass {
    /// The configured scheduler ([`PassContext::scheduler_override`] wins).
    pub scheduler: Scheduler,
}

impl SchedulePass {
    fn effective(&self, ctx: &PassContext<'_>) -> Scheduler {
        ctx.scheduler_override.unwrap_or(self.scheduler)
    }
}

fn scheduler_tag(s: Scheduler) -> &'static str {
    match s {
        Scheduler::GateCount => "gco",
        Scheduler::Depth => "do",
        Scheduler::Auto => "auto",
    }
}

impl Pass for SchedulePass {
    fn name(&self) -> &'static str {
        "schedule"
    }

    fn signature(&self, ctx: &PassContext<'_>) -> String {
        // `auto` is a sound cache tag: it resolves as a pure function of
        // the IR, which is hashed alongside this signature.
        format!("schedule:{}", scheduler_tag(self.effective(ctx)))
    }

    fn run(&self, unit: &mut CompileUnit, ctx: &PassContext<'_>) -> Result<String, CompileError> {
        let resolved = self.effective(ctx).resolve(&unit.ir);
        unit.layers = Some(paulihedral::run_scheduler(&unit.ir, resolved));
        unit.scheduler_used = Some(resolved);
        Ok(format!(
            "{} -> {} layers",
            scheduler_tag(resolved),
            unit.layers.as_ref().map_or(0, Vec::len)
        ))
    }
}

/// Technology-dependent block-wise synthesis (paper §5): Alg. 2 on the FT
/// target, Alg. 3 on the SC target, through [`paulihedral::run_synthesis`].
/// Produces the raw circuit; the clean-up is [`PeepholePass`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SynthesisPass;

impl Pass for SynthesisPass {
    fn name(&self) -> &'static str {
        "synthesis"
    }

    fn signature(&self, _ctx: &PassContext<'_>) -> String {
        "synthesis".into()
    }

    fn run(&self, unit: &mut CompileUnit, ctx: &PassContext<'_>) -> Result<String, CompileError> {
        let layers = unit
            .layers
            .as_ref()
            .expect("SynthesisPass needs scheduled layers — add a SchedulePass first");
        let out = paulihedral::run_synthesis(
            unit.ir.num_qubits(),
            layers,
            &ctx.target.as_backend(),
            ctx.intra,
        );
        unit.circuit = Some(out.circuit);
        unit.emitted = out.emitted;
        unit.initial_l2p = out.initial_l2p;
        unit.final_l2p = out.final_l2p;
        Ok(format!("{} strings emitted", unit.emitted.len()))
    }
}

/// Commutation-aware peephole cancellation ([`qcircuit::peephole::optimize`]),
/// the third stage of [`paulihedral::try_compile`], run as its own pass so
/// the report shows what it cancelled. Each gate walks only its own wires'
/// linked gate lists, and each fixpoint round re-examines only the gates
/// whose walk may have changed, so the pass is near-linear in the gate
/// count; the report's round count is that of whole-circuit rounds.
#[derive(Clone, Copy, Debug, Default)]
pub struct PeepholePass;

impl Pass for PeepholePass {
    fn name(&self) -> &'static str {
        "peephole"
    }

    fn signature(&self, _ctx: &PassContext<'_>) -> String {
        "peephole".into()
    }

    fn run(&self, unit: &mut CompileUnit, _ctx: &PassContext<'_>) -> Result<String, CompileError> {
        let circuit = unit
            .circuit
            .as_mut()
            .expect("PeepholePass needs a circuit — add a SynthesisPass first");
        let r = peephole::optimize(circuit);
        Ok(format!(
            "cancelled {}, merged {}, zeroed {}, {} rounds",
            r.cancelled, r.merged, r.zero_rotations, r.rounds
        ))
    }
}

/// Single-qubit gate-run fusion ([`qcircuit::fusion`]). Not part of the
/// standard pipeline — [`paulihedral::compile`] does not run it — but
/// available for pipelines that trade a little compile time for shorter
/// single-qubit runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct FusionPass;

impl Pass for FusionPass {
    fn name(&self) -> &'static str {
        "fusion"
    }

    fn signature(&self, _ctx: &PassContext<'_>) -> String {
        "fusion".into()
    }

    fn run(&self, unit: &mut CompileUnit, _ctx: &PassContext<'_>) -> Result<String, CompileError> {
        let circuit = unit
            .circuit
            .as_mut()
            .expect("FusionPass needs a circuit — add a SynthesisPass first");
        let removed = fusion::fuse_single_qubit_runs(circuit);
        Ok(format!("fused away {removed} gates"))
    }
}
