//! The output check: decides whether a compiled kernel implements its
//! program without trusting anything the compiler's passes computed.
//!
//! A compiled circuit is swept gate by gate while the Clifford gates are
//! pushed to the end (a Heisenberg-picture frame over bit-packed Pauli
//! rows). Each rotation is thereby rewritten as a rotation about a Pauli
//! axis of the input frame, and what is left at the end is one Clifford.
//! The kernel passes when
//!
//! - `emitted` is, as a multiset, exactly the program's `(string, θ)` terms;
//! - on a device, every two-qubit gate lies on a coupling edge and both
//!   layouts are injective maps into the device;
//! - the leftover Clifford is the identity (FT) or the permutation that
//!   takes each logical qubit from its initial to its final physical qubit
//!   (SC);
//! - per distinct Pauli axis, the recovered rotation angles sum to the
//!   program's, modulo 2π.
//!
//! The synthesis emits every Pauli rotation as an `Rz`, and uses `H` and
//! `Rx(±π/2)` as basis changes. The sweep therefore treats `Rx`/`Ry` at a
//! multiple of π/2 as Cliffords and every other rotation, `Rz` included,
//! as a rotation; both readings are exact, so the choice only decides how
//! a rotation is booked, never whether a wrong circuit passes.

use std::collections::HashMap;
use std::f64::consts::{FRAC_PI_2, TAU};

use pauli::PauliString;
use paulihedral::ir::PauliIR;
use paulihedral::Compiled;
use qcircuit::{Circuit, Gate};
use qdevice::CouplingMap;

/// Largest difference, in radians of rotation angle, accepted between the
/// recovered and the expected angle sum of one axis.
const ANGLE_TOL: f64 = 1e-6;

/// The Clifford frame `P ↦ C† P C` of the Cliffords swept so far, stored
/// as the images of `X_q` (rows `0..n`) and `Z_q` (rows `n..2n`).
///
/// Each row is a Hermitian Pauli `i^phase · X^x Z^z` with `x = z = 1`
/// read as `Y`; `phase` is 0 or 2 for every stored row.
struct Frame {
    n: usize,
    words: usize,
    x: Vec<u64>,
    z: Vec<u64>,
    phase: Vec<u8>,
}

/// A signed Pauli axis read out of the frame.
struct Axis {
    x: Vec<u64>,
    z: Vec<u64>,
    negative: bool,
}

impl Frame {
    /// The identity frame on `n` qubits.
    fn identity(n: usize) -> Frame {
        let words = n.div_ceil(64).max(1);
        let mut f = Frame {
            n,
            words,
            x: vec![0; 2 * n * words],
            z: vec![0; 2 * n * words],
            phase: vec![0; 2 * n],
        };
        for q in 0..n {
            f.x[q * words + q / 64] |= 1 << (q % 64);
            f.z[(n + q) * words + q / 64] |= 1 << (q % 64);
        }
        f
    }

    fn xr(&self, q: usize) -> usize {
        q
    }

    fn zr(&self, q: usize) -> usize {
        self.n + q
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        let w = self.words;
        for i in 0..w {
            self.x.swap(a * w + i, b * w + i);
            self.z.swap(a * w + i, b * w + i);
        }
        self.phase.swap(a, b);
    }

    fn add_phase(&mut self, row: usize, k: u8) {
        self.phase[row] = (self.phase[row] + k) % 4;
    }

    /// `row ← row · src`, tracking the phase of the product.
    fn mul_row(&mut self, row: usize, src: usize) {
        let w = self.words;
        let mut k = 0u32;
        for i in 0..w {
            let (x1, z1) = (self.x[row * w + i], self.z[row * w + i]);
            let (x2, z2) = (self.x[src * w + i], self.z[src * w + i]);
            k += product_phase(x1, z1, x2, z2);
            self.x[row * w + i] = x1 ^ x2;
            self.z[row * w + i] = z1 ^ z2;
        }
        self.add_phase(row, ((k + u32::from(self.phase[src])) % 4) as u8);
    }

    /// Conjugates the frame by one Clifford gate appended to the circuit.
    /// Returns `false` for a gate that is not a Clifford.
    fn apply_clifford(&mut self, g: &Gate) -> bool {
        match *g {
            Gate::H(a) => self.swap_rows(self.xr(a), self.zr(a)),
            Gate::X(a) => self.add_phase(self.zr(a), 2),
            // S†XS = −Y = −i·XZ and S XS† = Y = i·XZ; Z is fixed.
            Gate::S(a) => {
                self.mul_row(self.xr(a), self.zr(a));
                self.add_phase(self.xr(a), 3);
            }
            Gate::Sdg(a) => {
                self.mul_row(self.xr(a), self.zr(a));
                self.add_phase(self.xr(a), 1);
            }
            Gate::Cx(c, t) => {
                self.mul_row(self.xr(c), self.xr(t));
                self.mul_row(self.zr(t), self.zr(c));
            }
            Gate::Swap(a, b) => {
                self.swap_rows(self.xr(a), self.xr(b));
                self.swap_rows(self.zr(a), self.zr(b));
            }
            Gate::Rx(a, t) => match quarter_turns(t) {
                Some(0) => {}
                // Rx(π/2): Z → Y = i·XZ = −i·ZX.
                Some(1) => {
                    self.mul_row(self.zr(a), self.xr(a));
                    self.add_phase(self.zr(a), 3);
                }
                Some(2) => self.add_phase(self.zr(a), 2),
                // Rx(−π/2): Z → −Y = i·ZX.
                Some(3) => {
                    self.mul_row(self.zr(a), self.xr(a));
                    self.add_phase(self.zr(a), 1);
                }
                _ => return false,
            },
            Gate::Ry(a, t) => match quarter_turns(t) {
                Some(0) => {}
                // Ry(π/2): X → Z, Z → −X.
                Some(1) => {
                    self.swap_rows(self.xr(a), self.zr(a));
                    self.add_phase(self.zr(a), 2);
                }
                Some(2) => {
                    self.add_phase(self.xr(a), 2);
                    self.add_phase(self.zr(a), 2);
                }
                // Ry(−π/2): X → −Z, Z → X.
                Some(3) => {
                    self.swap_rows(self.xr(a), self.zr(a));
                    self.add_phase(self.xr(a), 2);
                }
                _ => return false,
            },
            Gate::Rz(..) => return false,
        }
        true
    }

    /// The input-frame axis of a rotation gate applied now: `C† P C` for
    /// the gate's own Pauli `P`.
    fn rotation_axis(&mut self, g: &Gate) -> (Axis, f64) {
        let w = self.words;
        let (row, angle, y) = match *g {
            Gate::Rz(a, t) => (self.zr(a), t, false),
            Gate::Rx(a, t) => (self.xr(a), t, false),
            Gate::Ry(a, t) => (self.xr(a), t, true),
            _ => unreachable!("only rotations have an axis"),
        };
        let mut x = self.x[row * w..(row + 1) * w].to_vec();
        let mut z = self.z[row * w..(row + 1) * w].to_vec();
        let mut phase = self.phase[row];
        if y {
            // Y = i·XZ: multiply the X image by the Z image into a scratch row.
            let zrow = row + self.n;
            let mut k = 1 + u32::from(phase) + u32::from(self.phase[zrow]);
            for i in 0..w {
                let (x2, z2) = (self.x[zrow * w + i], self.z[zrow * w + i]);
                k += product_phase(x[i], z[i], x2, z2);
                x[i] ^= x2;
                z[i] ^= z2;
            }
            phase = (k % 4) as u8;
        }
        debug_assert!(phase.is_multiple_of(2), "a Hermitian image has a real sign");
        (
            Axis {
                x,
                z,
                negative: phase == 2,
            },
            angle,
        )
    }

    /// Whether row `row` is `+P` for the single-qubit Pauli with bits
    /// `(xbit, zbit)` on qubit `q` and identity elsewhere.
    fn row_is(&self, row: usize, q: usize, xbit: bool, zbit: bool) -> bool {
        let w = self.words;
        if self.phase[row] != 0 {
            return false;
        }
        (0..w).all(|i| {
            let bit = |on: bool| {
                if on && i == q / 64 {
                    1u64 << (q % 64)
                } else {
                    0
                }
            };
            self.x[row * w + i] == bit(xbit) && self.z[row * w + i] == bit(zbit)
        })
    }

    /// The qubit a single-qubit `+X` row sits on, if the row is one.
    fn single_x_qubit(&self, row: usize) -> Option<usize> {
        let w = self.words;
        let xs = &self.x[row * w..(row + 1) * w];
        let (i, word) = xs.iter().enumerate().find(|(_, v)| **v != 0)?;
        let q = i * 64 + word.trailing_zeros() as usize;
        (q < self.n && self.row_is(row, q, true, false)).then_some(q)
    }

    /// `Some(σ)` when the frame is the qubit permutation taking `X_p` to
    /// `X_σ(p)` and `Z_p` to `Z_σ(p)` with no signs; `σ` is the
    /// identity for an identity frame.
    fn as_permutation(&self) -> Option<Vec<usize>> {
        let mut sigma = Vec::with_capacity(self.n);
        let mut used = vec![false; self.n];
        for p in 0..self.n {
            let q = self.single_x_qubit(self.xr(p))?;
            if used[q] || !self.row_is(self.zr(p), q, false, true) {
                return None;
            }
            used[q] = true;
            sigma.push(q);
        }
        Some(sigma)
    }
}

/// The power of `i` (mod 4) that 64 qubit-wise products `P1·P2` of one
/// word contribute: `X·Y = iZ`, `Y·Z = iX`, `Z·X = iY`, and `−i` for the
/// reversed pairs.
fn product_phase(x1: u64, z1: u64, x2: u64, z2: u64) -> u32 {
    let plus = (x1 & !z1 & x2 & z2) | (x1 & z1 & !x2 & z2) | (!x1 & z1 & x2 & !z2);
    let minus = (x1 & !z1 & !x2 & z2) | (x1 & z1 & x2 & !z2) | (!x1 & z1 & x2 & z2);
    plus.count_ones() + 3 * minus.count_ones()
}

/// `Some(k)` (k in 0..4) when `t` is `k·π/2` modulo 2π.
fn quarter_turns(t: f64) -> Option<u8> {
    let q = t / FRAC_PI_2;
    let k = q.round();
    ((q - k).abs() < 1e-9).then(|| k.rem_euclid(4.0) as u8)
}

/// Wraps an angle into `(−π, π]`.
fn wrap(t: f64) -> f64 {
    let r = t.rem_euclid(TAU);
    if r > TAU / 2.0 {
        r - TAU
    } else {
        r
    }
}

type AxisKey = (Vec<u64>, Vec<u64>);

fn string_key(p: &PauliString) -> AxisKey {
    (p.x_words().to_vec(), p.z_words().to_vec())
}

/// What a program must compile to, derived from the program alone: its
/// term multiset and, per non-identity Pauli axis, the summed rotation
/// angle (`Rz` convention, `−2θ` for a term `exp(iθP)`).
pub struct Reference {
    n: usize,
    terms: Vec<(AxisKey, u64)>,
    angles: HashMap<AxisKey, f64>,
}

impl Reference {
    /// Builds the reference of a program.
    pub fn new(ir: &PauliIR) -> Reference {
        let mut terms = Vec::with_capacity(ir.total_strings());
        let mut angles: HashMap<AxisKey, f64> = HashMap::new();
        for block in ir.blocks() {
            for (i, term) in block.terms.iter().enumerate() {
                let theta = block.theta(i);
                let key = string_key(&term.string);
                terms.push((key.clone(), theta.to_bits()));
                if !term.string.is_identity() {
                    *angles.entry(key).or_insert(0.0) += -2.0 * theta;
                }
            }
        }
        terms.sort_unstable();
        Reference {
            n: ir.num_qubits(),
            terms,
            angles,
        }
    }
}

/// Checks one compiled kernel against its program's reference. `device`
/// is the coupling map of an SC target (`None` on FT).
///
/// # Errors
///
/// A one-line description of the first violated property.
pub fn check(
    reference: &Reference,
    compiled: &Compiled,
    device: Option<&CouplingMap>,
) -> Result<(), String> {
    let mut emitted: Vec<(AxisKey, u64)> = compiled
        .emitted
        .iter()
        .map(|(p, t)| (string_key(p), t.to_bits()))
        .collect();
    emitted.sort_unstable();
    if emitted != reference.terms {
        return Err(format!(
            "emitted {} terms, not the program's {} (string, θ) multiset",
            emitted.len(),
            reference.terms.len()
        ));
    }

    let circuit = &compiled.circuit;
    let width = circuit.num_qubits();
    // Logical qubit of each physical wire that holds one.
    let mut logical_of = vec![None; width];
    let mut expected_sigma: Vec<Option<usize>> = vec![None; width];
    match device {
        None => {
            if width != reference.n {
                return Err(format!("FT circuit is {width} wide for {}", reference.n));
            }
            for (q, slot) in logical_of.iter_mut().enumerate() {
                *slot = Some(q);
                expected_sigma[q] = Some(q);
            }
        }
        Some(dev) => {
            if width != dev.num_qubits() {
                return Err(format!(
                    "SC circuit is {width} wide, device {}",
                    dev.num_qubits()
                ));
            }
            for g in circuit.gates() {
                if let (a, Some(b)) = g.qubits() {
                    if !dev.has_edge(a, b) {
                        return Err(format!("gate {g} is not on a device edge"));
                    }
                }
            }
            let (Some(init), Some(fin)) = (&compiled.initial_l2p, &compiled.final_l2p) else {
                return Err("SC artifact without layouts".into());
            };
            let is_injection = |l2p: &Vec<usize>| {
                let mut seen = vec![false; width];
                l2p.len() == reference.n
                    && l2p
                        .iter()
                        .all(|&p| p < width && !std::mem::replace(&mut seen[p], true))
            };
            if !is_injection(init) || !is_injection(fin) {
                return Err("a layout is not an injection into the device".into());
            }
            for (l, (&pi, &pf)) in init.iter().zip(fin).enumerate() {
                logical_of[pi] = Some(l);
                expected_sigma[pf] = Some(pi);
            }
        }
    }

    let mut angles: HashMap<AxisKey, f64> = HashMap::new();
    let frame = sweep(circuit, |g, axis, angle| {
        let key = logical_axis(&axis, &logical_of, reference.n)
            .ok_or_else(|| format!("rotation {g} acts outside the program's qubits"))?;
        let signed = if axis.negative { -angle } else { angle };
        *angles.entry(key).or_insert(0.0) += signed;
        Ok(())
    })?;

    let sigma = frame
        .as_permutation()
        .ok_or("the Clifford part is not a qubit permutation")?;
    for (p, want) in expected_sigma.iter().enumerate() {
        if want.is_some_and(|w| sigma[p] != w) {
            return Err(format!(
                "the Clifford part moves qubit {p} to the wrong place"
            ));
        }
    }

    for (key, want) in &reference.angles {
        let got = angles.remove(key).unwrap_or(0.0);
        if wrap(got - want).abs() > ANGLE_TOL {
            return Err(format!("an axis has angle {got}, expected {want} (mod 2π)"));
        }
    }
    if let Some(extra) = angles.values().find(|a| wrap(**a).abs() > ANGLE_TOL) {
        return Err(format!(
            "a rotation of {extra} about an axis the program lacks"
        ));
    }
    Ok(())
}

/// Sweeps `circuit` from the first gate: Cliffords are folded into the
/// returned frame, and each rotation is handed to `on_rotation` with its
/// input-frame axis and its angle (`gate = exp(−i·angle/2·P)`).
fn sweep(
    circuit: &Circuit,
    mut on_rotation: impl FnMut(&Gate, Axis, f64) -> Result<(), String>,
) -> Result<Frame, String> {
    let mut frame = Frame::identity(circuit.num_qubits());
    for g in circuit.gates() {
        if !frame.apply_clifford(g) {
            let (axis, angle) = frame.rotation_axis(g);
            on_rotation(g, axis, angle)?;
        }
    }
    Ok(frame)
}

/// Maps a physical-frame axis to logical qubits (identity on FT);
/// `None` if it touches a wire that holds no logical qubit.
fn logical_axis(axis: &Axis, logical_of: &[Option<usize>], n: usize) -> Option<AxisKey> {
    let words = n.div_ceil(64).max(1);
    let (mut x, mut z) = (vec![0u64; words], vec![0u64; words]);
    for (i, (&xw, &zw)) in axis.x.iter().zip(&axis.z).enumerate() {
        let mut bits = xw | zw;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let l = (*logical_of.get(i * 64 + b)?)?;
            if xw >> b & 1 == 1 {
                x[l / 64] |= 1 << (l % 64);
            }
            if zw >> b & 1 == 1 {
                z[l / 64] |= 1 << (l % 64);
            }
        }
    }
    // Match `PauliString`'s planes: a 0-qubit string has no words.
    x.truncate(n.div_ceil(64));
    z.truncate(n.div_ceil(64));
    Some((x, z))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Rng;
    use qcircuit::math::C64;
    use qsim::unitary::{circuit_unitary, equal_up_to_phase, identity, matmul, Columns};

    /// `exp(−i·angle/2·Q)` for a signed Pauli axis, densely.
    fn dense_rotation(n: usize, axis: &Axis, angle: f64) -> Columns {
        let (c, s) = ((angle / 2.0).cos(), (angle / 2.0).sin());
        let (x, z) = (axis.x[0] as usize, axis.z[0] as usize);
        (0..1usize << n)
            .map(|j| {
                let mut col = vec![C64::ZERO; 1 << n];
                col[j] = C64::new(c, 0.0);
                // Q|j⟩ = ±i^{#Y} (−1)^{popcount(j & z)} |j ⊕ x⟩.
                let mut coef = C64::ONE;
                for _ in 0..(x & z).count_ones() {
                    coef *= C64::I;
                }
                if (j & z).count_ones() % 2 == 1 {
                    coef = coef * -1.0;
                }
                if axis.negative {
                    coef = coef * -1.0;
                }
                col[j ^ x] += coef * C64::new(0.0, -s);
                col
            })
            .collect()
    }

    fn random_gate(rng: &mut Rng, n: usize) -> Gate {
        let a = rng.below(n);
        let b = (a + 1 + rng.below(n - 1)) % n;
        let angle = |rng: &mut Rng| {
            if rng.below(2) == 0 {
                (rng.below(7) as f64 - 3.0) * FRAC_PI_2
            } else {
                rng.uniform(-3.0, 3.0)
            }
        };
        match rng.below(9) {
            0 => Gate::H(a),
            1 => Gate::X(a),
            2 => Gate::S(a),
            3 => Gate::Sdg(a),
            4 => Gate::Rz(a, angle(rng)),
            5 => Gate::Rx(a, angle(rng)),
            6 => Gate::Ry(a, angle(rng)),
            7 => Gate::Cx(a, b),
            _ => Gate::Swap(a, b),
        }
    }

    // The sweep's account of a circuit, Cliffords undone at the end, must be
    // the circuit's unitary: Π exp(−iα/2·Q) over the recovered rotations.
    #[test]
    fn sweep_reproduces_dense_unitaries() {
        let n = 3;
        let mut rng = Rng::new(7);
        for _ in 0..200 {
            let mut c = Circuit::new(n);
            for _ in 0..12 {
                c.push(random_gate(&mut rng, n));
            }
            let cliffords: Vec<Gate> = c
                .gates()
                .iter()
                .filter(|g| Frame::identity(n).apply_clifford(g))
                .copied()
                .collect();
            for g in cliffords.iter().rev() {
                c.push(g.inverse());
            }
            let mut product = identity(1 << n);
            let frame = sweep(&c, |_, axis, angle| {
                product = matmul(&dense_rotation(n, &axis, angle), &product);
                Ok(())
            })
            .unwrap();
            assert_eq!(frame.as_permutation(), Some((0..n).collect()), "{c}");
            assert!(
                equal_up_to_phase(&circuit_unitary(&c), &product, 1e-9),
                "{c}"
            );
        }
    }

    #[test]
    fn swaps_compose_to_their_permutation() {
        let mut c = Circuit::new(3);
        c.push(Gate::Swap(0, 1));
        c.push(Gate::Swap(1, 2));
        let frame = sweep(&c, |_, _, _| Ok(())).unwrap();
        // After the swaps the qubit that started on 0 sits on 2, so the
        // frame maps X_2 back to X_0.
        assert_eq!(frame.as_permutation(), Some(vec![1, 2, 0]));
        let mut signed = Circuit::new(1);
        signed.push(Gate::X(0));
        assert_eq!(
            sweep(&signed, |_, _, _| Ok(())).unwrap().as_permutation(),
            None
        );
    }
}
