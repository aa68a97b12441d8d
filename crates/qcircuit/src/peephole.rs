//! Commutation-aware peephole cancellation.
//!
//! The Paulihedral scheduling and synthesis passes *create* cancellation
//! opportunities (matching CNOT-tree prefixes, matching basis-change gates
//! between adjacent Pauli gadgets); this pass *realizes* them. It is also
//! the core of the emulated generic compilers' `CommutativeCancellation` /
//! `CXCancellation` stages.
//!
//! # The rule
//!
//! [`optimize`] runs rounds until one changes nothing. A round visits the
//! live gates in circuit order. A visited rotation whose angle is ≡ 0
//! (mod 2π) is dropped. Any other visited gate `g` *walks* forward over
//! the later live gates that share a qubit with it, in circuit order: an
//! inverse partner cancels with `g`, a same-axis rotation on the same wire
//! merges into `g`, a gate that [`commutes`] with `g` is slid past, and
//! anything else blocks the walk. A walk ends at its first action or
//! blocker.
//!
//! # The wire DAG
//!
//! Each gate has one slot per qubit, and each slot carries `u32` `next` /
//! `prev` links to the neighbouring live slots on its wire, so the wires
//! form doubly linked lists in circuit order. A walk merges the successor
//! lists of its gate's one or two wires in index order, which visits
//! exactly the live overlapping gates a scan over the whole remaining
//! circuit would, in the same order, and never touches a gate on another
//! wire. A removed gate is unlinked in O(1). The pass works on the
//! circuit's own gate vector with a liveness bitset and compacts it in
//! place at the end.
//!
//! # The worklist
//!
//! A round visits only *dirty* gates; in the first round every gate is.
//! A gate becomes dirty for the next round when it merges (its value
//! changed) or when the gate that blocked its last walk is removed. This
//! is exact. A gate's decision depends only on its own value and on the
//! kind and qubits of the gates its walk meets (never on their angles);
//! gates are never inserted, and only the walking gate's value ever
//! changes. So a gate that did nothing at its last look, whose value is
//! unchanged and whose blocker is still live, meets the same gates minus
//! some it slid past, reaches the same blocker (or the end of its wires)
//! and again does nothing. Skipping it leaves every round's result, and so
//! the output gates and the [`PeepholeReport`] (`rounds` included),
//! identical to visiting it.
//!
//! Next round is always soon enough: a visit removes only the visiting
//! gate and perhaps its partner. The partner has the visiting gate's wires
//! and commutes with every gate the walk slid past to reach it, so it
//! blocks no gate after the visiting gate; every gate either of them
//! blocked precedes the visiting gate and was visited earlier this round.
//!
//! Blocked gates are found without watcher lists. Each gate records where
//! its last walk stopped, and each slot counts the recorded walks that
//! slid past its gate on that wire (a gate withdraws its counts when it
//! walks again or is removed). A gate blocked by `j` precedes `j` on one
//! of `j`'s wires and slid past every gate between them there, so the
//! search back from `j` along each of its wires ends at the first gate no
//! recorded walk slid past.

use std::f64::consts::TAU;

use crate::{Circuit, Gate};

/// Summary of what one [`optimize`] run did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeepholeReport {
    /// Gates removed by pairwise cancellation.
    pub cancelled: usize,
    /// Rotation gates merged into a predecessor.
    pub merged: usize,
    /// Rotations removed because their angle was ≡ 0 (mod 2π).
    pub zero_rotations: usize,
    /// Fixpoint iterations executed.
    pub rounds: usize,
}

/// Whether `a` and `b` commute, by conservative structural rules.
///
/// Only sound rules are used (shared-control / shared-target CNOTs,
/// Z-diagonal gates through controls, X-diagonal gates through targets,
/// same-axis single-qubit gates); `false` is always safe.
pub fn commutes(a: &Gate, b: &Gate) -> bool {
    let (a0, a1) = a.qubits();
    let (b0, b1) = b.qubits();
    let overlap = [Some(a0), a1]
        .into_iter()
        .flatten()
        .any(|q| q == b0 || Some(q) == b1);
    if !overlap {
        return true;
    }
    match (a, b) {
        (Gate::Swap(..), _) | (_, Gate::Swap(..)) => false,
        (Gate::Cx(c1, t1), Gate::Cx(c2, t2)) => {
            // Share a control or share a target: commute. A control hitting
            // the other's target (or vice versa): not in general.
            (c1 == c2 && t1 == t2) || ((c1 == c2 || t1 == t2) && t1 != c2 && c1 != t2)
        }
        (g, Gate::Cx(c, t)) | (Gate::Cx(c, t), g) => {
            let q = g.qubits().0;
            (q == *c && g.is_z_diagonal()) || (q == *t && g.is_x_diagonal())
        }
        (g1, g2) => {
            // Single-qubit gates on the same wire.
            (g1.is_z_diagonal() && g2.is_z_diagonal()) || (g1.is_x_diagonal() && g2.is_x_diagonal())
        }
    }
}

/// Whether a rotation angle is ≡ 0 (mod 2π), i.e. the gate is the identity
/// up to a global phase.
fn is_zero_angle(theta: f64) -> bool {
    let r = theta.rem_euclid(TAU);
    r < 1e-12 || TAU - r < 1e-12
}

/// Slot value meaning "no slot": the end of a wire.
const NIL: u32 = u32::MAX;

/// [`WireDag::stop`] of a gate that has no walk on record.
const UNWALKED: u32 = 0;

/// [`WireDag::passes`] value that no longer counts down.
const SATURATED: u8 = u8::MAX;

/// A bitset over gate indices.
struct Bits(Vec<u64>);

impl Bits {
    fn zeros(len: usize) -> Bits {
        Bits(vec![0; len.div_ceil(64)])
    }

    fn ones(len: usize) -> Bits {
        let words = len.div_ceil(64);
        let mut bits = vec![u64::MAX; words];
        if let Some(last) = bits.last_mut() {
            *last >>= words * 64 - len;
        }
        Bits(bits)
    }

    fn get(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }
}

/// A forward walk from one gate: the next unvisited slot on each of its
/// wires ([`NIL`] when a wire is exhausted or absent).
struct Walk(u32, u32);

impl Walk {
    fn new(dag: &WireDag<'_>, i: usize) -> Walk {
        let two = dag.gates[i].is_two_qubit();
        Walk(dag.next[2 * i], if two { dag.next[2 * i + 1] } else { NIL })
    }

    /// The next gate in index order, as its slot on a wire it shares with
    /// the walking gate, or `None` at the end of both wires.
    fn step(&mut self, next: &[u32]) -> Option<u32> {
        let (c0, c1) = (self.0, self.1);
        if c0 == NIL && c1 == NIL {
            return None;
        }
        // NIL >> 1 exceeds every gate index, so an exhausted wire never wins.
        let j = (c0 >> 1).min(c1 >> 1);
        if c1 >> 1 == j {
            self.1 = next[c1 as usize];
        }
        if c0 >> 1 != j {
            return Some(c1);
        }
        self.0 = next[c0 as usize];
        Some(c0)
    }
}

/// Per-wire doubly linked gate lists over a gate vector, plus the worklist
/// state (see the module docs).
struct WireDag<'a> {
    gates: &'a mut [Gate],
    live: Bits,
    /// Per slot `2 * gate + k` (`k` = 0 for the first qubit, 1 for the
    /// second), the next / previous live slot on the same wire, or [`NIL`].
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Per gate, where its last walk ended: the index of the gate it
    /// stopped at, [`NIL`] if it walked off the end of its wires, or
    /// [`UNWALKED`] if no walk is on record.
    stop: Vec<u32>,
    /// Per slot, how many recorded walks slid past the gate on that wire;
    /// sticks at [`SATURATED`].
    passes: Vec<u8>,
    /// Gates to visit in the current round, and in the next one.
    dirty: Bits,
    again: Bits,
    /// The gate the current round is visiting, for a debug check.
    cursor: usize,
    report: PeepholeReport,
}

impl<'a> WireDag<'a> {
    fn new(num_qubits: usize, gates: &'a mut [Gate]) -> WireDag<'a> {
        let n = gates.len();
        assert!(
            n < (NIL / 2) as usize,
            "peephole supports fewer than 2^31 - 1 gates"
        );
        let mut next = vec![NIL; 2 * n];
        let mut prev = vec![NIL; 2 * n];
        let mut tail = vec![NIL; num_qubits];
        for (i, g) in gates.iter().enumerate() {
            let (a0, a1) = g.qubits();
            for (k, q) in [Some(a0), a1].into_iter().enumerate() {
                let Some(q) = q else { continue };
                let s = (2 * i + k) as u32;
                prev[s as usize] = tail[q];
                if tail[q] != NIL {
                    next[tail[q] as usize] = s;
                }
                tail[q] = s;
            }
        }
        WireDag {
            gates,
            live: Bits::ones(n),
            next,
            prev,
            stop: vec![UNWALKED; n],
            passes: vec![0; 2 * n],
            dirty: Bits::ones(n),
            again: Bits::zeros(n),
            cursor: 0,
            report: PeepholeReport::default(),
        }
    }

    /// Runs one round over the dirty gates. Returns whether anything changed.
    fn round(&mut self) -> bool {
        let before = self.report;
        for w in 0..self.dirty.0.len() {
            let mut bits = std::mem::take(&mut self.dirty.0[w]);
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.live.get(i) {
                    self.cursor = i;
                    self.visit(i);
                }
            }
        }
        std::mem::swap(&mut self.dirty, &mut self.again);
        self.report.rounds += 1;
        let r = self.report;
        (r.cancelled, r.merged, r.zero_rotations)
            != (before.cancelled, before.merged, before.zero_rotations)
    }

    /// Visits live gate `i`: drops it if it is an identity rotation,
    /// otherwise walks it forward to its first action or blocker.
    fn visit(&mut self, i: usize) {
        self.record(i, self.stop[i], false);
        self.stop[i] = UNWALKED;
        let gi = self.gates[i];
        if let Gate::Rz(_, t) | Gate::Rx(_, t) | Gate::Ry(_, t) = gi {
            if is_zero_angle(t) {
                self.remove(i);
                self.report.zero_rotations += 1;
                return;
            }
        }
        let mut walk = Walk::new(self, i);
        let mut end = NIL;
        while let Some(s) = walk.step(&self.next) {
            let j = (s >> 1) as usize;
            let gj = self.gates[j];
            if gi.cancels_with(&gj) {
                self.remove(i);
                self.remove(j);
                self.report.cancelled += 2;
                return;
            }
            let merged = match (gi, gj) {
                (Gate::Rz(q1, t1), Gate::Rz(q2, t2)) if q1 == q2 => Some(Gate::Rz(q1, t1 + t2)),
                (Gate::Rx(q1, t1), Gate::Rx(q2, t2)) if q1 == q2 => Some(Gate::Rx(q1, t1 + t2)),
                (Gate::Ry(q1, t1), Gate::Ry(q2, t2)) if q1 == q2 => Some(Gate::Ry(q1, t1 + t2)),
                _ => None,
            };
            if let Some(g) = merged {
                self.gates[i] = g;
                self.again.set(i);
                self.remove(j);
                self.report.merged += 1;
                return;
            }
            if !commutes(&gi, &gj) {
                end = j as u32;
                break;
            }
        }
        self.stop[i] = end;
        self.record(i, end, true);
    }

    /// Adds (or, with `add == false`, withdraws) one pass on every live
    /// gate `i`'s walk slides past before index `end`.
    fn record(&mut self, i: usize, end: u32, add: bool) {
        let mut walk = Walk::new(self, i);
        while let Some(s) = walk.step(&self.next) {
            if s >> 1 >= end {
                break;
            }
            let p = &mut self.passes[s as usize];
            if *p != SATURATED {
                *p = if add { *p + 1 } else { *p - 1 };
            }
        }
    }

    /// Withdraws gate `j`'s walk, unlinks it, and marks the gates whose
    /// walk it blocked.
    fn remove(&mut self, j: usize) {
        self.record(j, self.stop[j], false);
        self.live.clear(j);
        let arity = if self.gates[j].is_two_qubit() { 2 } else { 1 };
        for s in 2 * j..2 * j + arity {
            let (p, nx) = (self.prev[s], self.next[s]);
            if p != NIL {
                self.next[p as usize] = nx;
            }
            if nx != NIL {
                self.prev[nx as usize] = p;
            }
            self.mark_blocked(p, j as u32);
        }
    }

    /// Marks for the next round the gates whose recorded walk stopped at
    /// removed gate `j`, searching back from slot `s`, `j`'s predecessor on
    /// one of its wires. Such a gate slid past every gate between itself
    /// and `j` on that wire, so the search ends at the first gate no
    /// recorded walk slid past.
    fn mark_blocked(&mut self, mut s: u32, j: u32) {
        while s != NIL {
            let k = (s >> 1) as usize;
            if self.stop[k] == j {
                debug_assert!(
                    k < self.cursor,
                    "gate {k}, after visiting gate {}, lost its blocker",
                    self.cursor
                );
                self.again.set(k);
            }
            if self.passes[s as usize] == 0 {
                return;
            }
            s = self.prev[s as usize];
        }
    }
}

/// Runs cancellation/merging to a fixpoint, in place.
///
/// # Example
///
/// ```
/// use qcircuit::{Circuit, Gate};
/// use qcircuit::peephole::optimize;
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::Cx(0, 1));
/// c.push(Gate::Rz(0, 0.5)); // commutes through the control
/// c.push(Gate::Cx(0, 1));
/// let report = optimize(&mut c);
/// assert_eq!(report.cancelled, 2);
/// assert_eq!(c.len(), 1); // only the Rz survives
/// ```
pub fn optimize(circuit: &mut Circuit) -> PeepholeReport {
    let num_qubits = circuit.num_qubits();
    let gates = circuit.gates_mut();
    let mut dag = WireDag::new(num_qubits, gates);
    while dag.round() {}
    let (report, live) = (dag.report, dag.live);
    let mut i = 0;
    gates.retain(|_| {
        i += 1;
        live.get(i - 1)
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_inverse_pairs_cancel() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::H(0));
        c.push(Gate::Cx(0, 1));
        c.push(Gate::Cx(0, 1));
        let r = optimize(&mut c);
        assert_eq!(r.cancelled, 4);
        assert!(c.is_empty());
    }

    #[test]
    fn cancellation_through_commuting_gates() {
        // Rz on the control sits between two identical CNOTs: they cancel.
        let mut c = Circuit::new(2);
        c.push(Gate::Cx(0, 1));
        c.push(Gate::Rz(0, 0.7));
        c.push(Gate::Cx(0, 1));
        optimize(&mut c);
        assert_eq!(c.gates(), &[Gate::Rz(0, 0.7)]);
    }

    #[test]
    fn rx_commutes_through_target() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx(0, 1));
        c.push(Gate::Rx(1, 0.7));
        c.push(Gate::Cx(0, 1));
        optimize(&mut c);
        assert_eq!(c.gates(), &[Gate::Rx(1, 0.7)]);
    }

    #[test]
    fn h_blocks_cancellation() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx(0, 1));
        c.push(Gate::H(0));
        c.push(Gate::Cx(0, 1));
        optimize(&mut c);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn rz_through_shared_control_chain() {
        // CNOTs sharing a control commute, so the outer pair cancels.
        let mut c = Circuit::new(3);
        c.push(Gate::Cx(0, 1));
        c.push(Gate::Cx(0, 2));
        c.push(Gate::Cx(0, 1));
        optimize(&mut c);
        assert_eq!(c.gates(), &[Gate::Cx(0, 2)]);
    }

    #[test]
    fn shared_target_cnots_commute() {
        let mut c = Circuit::new(3);
        c.push(Gate::Cx(0, 2));
        c.push(Gate::Cx(1, 2));
        c.push(Gate::Cx(0, 2));
        optimize(&mut c);
        assert_eq!(c.gates(), &[Gate::Cx(1, 2)]);
    }

    #[test]
    fn control_target_collision_blocks() {
        // CX(0,1) then CX(1,2): 1 is target of the first, control of the
        // second — they do not commute, nothing cancels.
        let mut c = Circuit::new(3);
        c.push(Gate::Cx(0, 1));
        c.push(Gate::Cx(1, 2));
        c.push(Gate::Cx(0, 1));
        optimize(&mut c);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn rotations_merge_and_vanish() {
        let mut c = Circuit::new(1);
        c.push(Gate::Rz(0, 0.5));
        c.push(Gate::Rz(0, -0.5));
        let r = optimize(&mut c);
        assert!(c.is_empty());
        assert_eq!(r.merged, 1);
        assert_eq!(r.zero_rotations, 1);
    }

    #[test]
    fn rotations_merge_across_commuting_cnot() {
        let mut c = Circuit::new(2);
        c.push(Gate::Rz(0, 0.25));
        c.push(Gate::Cx(0, 1));
        c.push(Gate::Rz(0, 0.5));
        optimize(&mut c);
        assert_eq!(c.gates(), &[Gate::Rz(0, 0.75), Gate::Cx(0, 1)]);
    }

    #[test]
    fn s_sdg_pair_cancels() {
        let mut c = Circuit::new(1);
        c.push(Gate::S(0));
        c.push(Gate::Sdg(0));
        optimize(&mut c);
        assert!(c.is_empty());
    }

    #[test]
    fn swap_blocks_everything() {
        let mut c = Circuit::new(2);
        c.push(Gate::Rz(0, 0.5));
        c.push(Gate::Swap(0, 1));
        c.push(Gate::Rz(0, 0.5));
        optimize(&mut c);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn full_gadget_junction_cancels() {
        // Two adjacent ZZ gadgets exp(iθZZ) on the same pair collapse into
        // one gadget with merged rotation — the Fig. 4(a)-style win.
        let mut c = Circuit::new(2);
        for theta in [0.3, 0.4] {
            c.push(Gate::Cx(0, 1));
            c.push(Gate::Rz(1, theta));
            c.push(Gate::Cx(0, 1));
        }
        optimize(&mut c);
        assert_eq!(c.stats().cnot, 2);
        assert_eq!(c.stats().single, 1);
    }

    #[test]
    fn commutes_is_symmetric_on_rules() {
        let pairs = [
            (Gate::Rz(0, 0.1), Gate::Cx(0, 1)),
            (Gate::Rx(1, 0.1), Gate::Cx(0, 1)),
            (Gate::H(0), Gate::Cx(0, 1)),
            (Gate::Cx(0, 1), Gate::Cx(0, 2)),
            (Gate::Cx(0, 1), Gate::Cx(2, 1)),
            (Gate::Cx(0, 1), Gate::Cx(1, 2)),
        ];
        for (a, b) in pairs {
            assert_eq!(commutes(&a, &b), commutes(&b, &a), "{a} vs {b}");
        }
    }
}
