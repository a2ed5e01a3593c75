//! Boolean circuit intermediate representation.
//!
//! Gates operate on wire ids; inputs are split between the garbler's and
//! the evaluator's words. The representation keeps only {XOR, AND, INV}:
//! XOR and INV are free under free-XOR garbling, AND costs two
//! ciphertexts (half-gates).
//!
//! A [`Circuit`] is a **unit template**: one gate list (the unit) run
//! `repeat` times over disjoint slices of the input planes. A protocol
//! step is one element or one row repeated — GELU over `n·d_ff` elements
//! is one element's gates run `n·d_ff` times — so the gate list, the
//! label array and the builder's work are the size of the unit, not of
//! the step. A circuit straight from [`CircuitBuilder::build`] is the
//! `repeat = 1` case of the same thing.
//!
//! [`CircuitBuilder::build`]: crate::builder::CircuitBuilder::build

/// Wire identifier.
pub type WireId = u32;

/// A gate: `out` is implicit (gates are stored in topological order and
/// gate `k` drives wire `unit_inputs + k`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// `out = a ⊕ b` (free).
    Xor(WireId, WireId),
    /// `out = a ∧ b` (2 ciphertexts).
    And(WireId, WireId),
    /// `out = ¬a` (free).
    Inv(WireId),
}

impl Gate {
    fn operands(self) -> (WireId, WireId) {
        match self {
            Gate::Xor(a, b) | Gate::And(a, b) => (a, b),
            Gate::Inv(a) => (a, a),
        }
    }

    fn map_wires(self, f: impl Fn(WireId) -> WireId) -> Self {
        match self {
            Gate::Xor(a, b) => Gate::Xor(f(a), f(b)),
            Gate::And(a, b) => Gate::And(f(a), f(b)),
            Gate::Inv(a) => Gate::Inv(f(a)),
        }
    }
}

/// An output bit: either a wire or a constant folded at build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutBit {
    /// Output driven by a wire.
    Wire(WireId),
    /// Output is a build-time constant.
    Const(bool),
}

/// Gate counts of a unit as its author wrote it, before structural
/// hashing and dead-gate removal (reporting only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WrittenCounts {
    /// Gates requested.
    pub gates: usize,
    /// AND gates among them.
    pub ands: usize,
}

/// A boolean circuit: a unit gate list run `repeat` times.
///
/// Global inputs are laid out in *planes*: garbler plane `j` holds, back
/// to back, the `garbler_planes[j]` bits each instance takes from it, so
/// instance `r` reads `[r·s, (r+1)·s)` of every plane (`s` the plane's
/// per-instance width). A step circuit's planes are
/// `[share_c | res_c | masks]` and `[share_s | res_s]`. Outputs are
/// instance-major: instance `r` drives outputs
/// `[r·unit_outputs, (r+1)·unit_outputs)`.
#[derive(Debug, Clone)]
pub struct Circuit {
    /// Number of garbler input wires, over all instances.
    pub garbler_inputs: u32,
    /// Number of evaluator input wires, over all instances.
    pub evaluator_inputs: u32,
    /// The unit's gates in topological order. Unit wires are numbered
    /// garbler inputs, evaluator inputs, then one per gate.
    gates: Vec<Gate>,
    /// The unit's output bits.
    outputs: Vec<OutBit>,
    /// AND gates in the unit.
    unit_ands: usize,
    written: WrittenCounts,
    repeat: usize,
    /// Per-instance width of each garbler plane; sums to the unit's
    /// garbler inputs.
    garbler_planes: Vec<u32>,
    /// Per-instance width of each evaluator plane.
    evaluator_planes: Vec<u32>,
}

/// Copies instance `r`'s slice of every plane of `global` into `unit`.
fn gather<T: Copy>(planes: &[u32], repeat: usize, r: usize, global: &[T], unit: &mut [T]) {
    let mut base = 0;
    for &s in planes {
        let s = s as usize;
        let at = base * repeat + r * s;
        unit[base..base + s].copy_from_slice(&global[at..at + s]);
        base += s;
    }
}

impl Circuit {
    /// A `repeat = 1` circuit over the gate list exactly as given — no
    /// gate is dropped or renumbered ([`Self::compact`] does that, and
    /// [`CircuitBuilder::build`] calls it).
    ///
    /// # Panics
    ///
    /// Panics if a gate reads a wire at or after its own, or an output
    /// names a wire that does not exist.
    ///
    /// [`CircuitBuilder::build`]: crate::builder::CircuitBuilder::build
    pub fn from_gates(
        garbler_inputs: u32,
        evaluator_inputs: u32,
        gates: Vec<Gate>,
        outputs: Vec<OutBit>,
    ) -> Self {
        let first = garbler_inputs + evaluator_inputs;
        let mut unit_ands = 0;
        for (k, g) in gates.iter().enumerate() {
            let (a, b) = g.operands();
            assert!(a.max(b) < first + k as u32, "gate {k} reads a wire not yet driven");
            unit_ands += usize::from(matches!(g, Gate::And(_, _)));
        }
        let wires = first as usize + gates.len();
        for o in &outputs {
            if let OutBit::Wire(w) = *o {
                assert!((w as usize) < wires, "output names wire {w} of {wires}");
            }
        }
        Self {
            garbler_inputs,
            evaluator_inputs,
            written: WrittenCounts { gates: gates.len(), ands: unit_ands },
            gates,
            outputs,
            unit_ands,
            repeat: 1,
            garbler_planes: vec![garbler_inputs],
            evaluator_planes: vec![evaluator_inputs],
        }
    }

    /// Marks the unit's gates some output depends on.
    fn live_gates(&self) -> Vec<bool> {
        let first = self.unit_inputs();
        let mut live = vec![false; self.gates.len()];
        let mark = |live: &mut [bool], w: WireId| {
            if let Some(k) = (w as usize).checked_sub(first) {
                live[k] = true;
            }
        };
        for o in &self.outputs {
            if let OutBit::Wire(w) = *o {
                mark(&mut live, w);
            }
        }
        // Topological order: a gate's readers all come after it, so one
        // backward sweep settles every mark.
        for k in (0..self.gates.len()).rev() {
            if live[k] {
                let (a, b) = self.gates[k].operands();
                mark(&mut live, a);
                mark(&mut live, b);
            }
        }
        live
    }

    /// Unit gates no output depends on — zero after [`Self::compact`].
    pub fn unreachable_gates(&self) -> usize {
        self.live_gates().iter().filter(|&&l| !l).count()
    }

    /// Drops the unit's gates that reach no output and renumbers the
    /// rest, keeping their order. Input wires are never dropped, so the
    /// input counts (and with them label and OT counts) stay as they are.
    pub fn compact(mut self) -> Self {
        let first = self.unit_inputs();
        let live = self.live_gates();
        let mut new_id = vec![0 as WireId; self.gates.len()];
        let mut kept = Vec::with_capacity(live.iter().filter(|&&l| l).count());
        self.unit_ands = 0;
        for (k, g) in self.gates.iter().enumerate() {
            if live[k] {
                new_id[k] = (first + kept.len()) as WireId;
                self.unit_ands += usize::from(matches!(g, Gate::And(_, _)));
                kept.push(g.map_wires(|w| match (w as usize).checked_sub(first) {
                    Some(j) => new_id[j],
                    None => w,
                }));
            }
        }
        for o in &mut self.outputs {
            if let OutBit::Wire(w) = o {
                if let Some(j) = (*w as usize).checked_sub(first) {
                    *w = new_id[j];
                }
            }
        }
        self.gates = kept;
        self
    }

    /// Records what the builder was asked for before it merged and
    /// dropped gates.
    pub(crate) fn with_written(mut self, written: WrittenCounts) -> Self {
        self.written = written;
        self
    }

    /// Turns a single-instance circuit into `repeat` instances of itself.
    /// `garbler_planes` / `evaluator_planes` split the unit's inputs, in
    /// declaration order, into the per-instance widths of the global
    /// planes (see the type's docs).
    ///
    /// # Panics
    ///
    /// Panics if the circuit is already repeated or the plane widths do
    /// not sum to the unit's input counts.
    pub fn repeated(
        mut self,
        repeat: usize,
        garbler_planes: &[usize],
        evaluator_planes: &[usize],
    ) -> Self {
        assert_eq!(self.repeat, 1, "circuit is already a repeated unit");
        let widths = |planes: &[usize], inputs: u32, who: &str| -> Vec<u32> {
            assert_eq!(planes.iter().sum::<usize>(), inputs as usize, "{who} plane widths");
            planes.iter().map(|&s| s as u32).collect()
        };
        self.garbler_planes = widths(garbler_planes, self.garbler_inputs, "garbler");
        self.evaluator_planes = widths(evaluator_planes, self.evaluator_inputs, "evaluator");
        let total = |inputs: u32| {
            u32::try_from(inputs as usize * repeat).expect("input wires fit a wire id")
        };
        self.garbler_inputs = total(self.garbler_inputs);
        self.evaluator_inputs = total(self.evaluator_inputs);
        self.repeat = repeat;
        self
    }

    /// How many times the unit runs.
    #[inline]
    pub fn repeat(&self) -> usize {
        self.repeat
    }

    /// The unit's gates.
    #[inline]
    pub fn unit_gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The unit's output bits.
    #[inline]
    pub fn unit_outputs(&self) -> &[OutBit] {
        &self.outputs
    }

    /// Input wires of one instance (the id of the unit's first gate wire).
    #[inline]
    pub fn unit_inputs(&self) -> usize {
        self.unit_garbler_inputs() + self.evaluator_planes.iter().sum::<u32>() as usize
    }

    #[inline]
    fn unit_garbler_inputs(&self) -> usize {
        self.garbler_planes.iter().sum::<u32>() as usize
    }

    /// Wires of one instance — the size of the label / bit array an
    /// execution holds.
    #[inline]
    pub fn unit_wires(&self) -> usize {
        self.unit_inputs() + self.gates.len()
    }

    /// AND gates in the unit.
    #[inline]
    pub fn unit_and_count(&self) -> usize {
        self.unit_ands
    }

    /// The unit's gate counts as written, before structural hashing and
    /// dead-gate removal.
    pub fn unit_written(&self) -> WrittenCounts {
        self.written
    }

    /// Output bits over all instances.
    #[inline]
    pub fn num_outputs(&self) -> usize {
        self.outputs.len() * self.repeat
    }

    /// Number of AND gates over all instances (the garbling cost driver).
    #[inline]
    pub fn and_count(&self) -> usize {
        self.unit_ands * self.repeat
    }

    /// Number of XOR gates over all instances (free).
    pub fn xor_count(&self) -> usize {
        self.gates.iter().filter(|g| matches!(g, Gate::Xor(_, _))).count() * self.repeat
    }

    /// Garbled-table wire size: 2 ciphertexts of 16 bytes per AND gate.
    pub fn garbled_size_bytes(&self) -> usize {
        self.and_count() * 32
    }

    /// Bytes this circuit keeps resident: the unit's gates and outputs
    /// and the plane widths.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(self.gates.as_slice())
            + std::mem::size_of_val(self.outputs.as_slice())
            + std::mem::size_of_val(self.garbler_planes.as_slice())
            + std::mem::size_of_val(self.evaluator_planes.as_slice())
    }

    /// Fills the input prefix of a unit-sized wire array with instance
    /// `r`'s slice of the global inputs.
    pub(crate) fn gather_inputs<T: Copy>(
        &self,
        r: usize,
        garbler: &[T],
        evaluator: &[T],
        unit: &mut [T],
    ) {
        let (g, e) = unit[..self.unit_inputs()].split_at_mut(self.unit_garbler_inputs());
        gather(&self.garbler_planes, self.repeat, r, garbler, g);
        gather(&self.evaluator_planes, self.repeat, r, evaluator, e);
    }

    /// Evaluates the circuit in the clear (test oracle for garbling and
    /// for checking builder gadgets against reference algorithms).
    ///
    /// # Panics
    ///
    /// Panics if the input slices have the wrong lengths.
    pub fn eval_plain(&self, garbler_in: &[bool], evaluator_in: &[bool]) -> Vec<bool> {
        assert_eq!(garbler_in.len(), self.garbler_inputs as usize, "garbler input len");
        assert_eq!(evaluator_in.len(), self.evaluator_inputs as usize, "evaluator input len");
        let first = self.unit_inputs();
        let mut wires = vec![false; self.unit_wires()];
        let mut out = Vec::with_capacity(self.num_outputs());
        for r in 0..self.repeat {
            self.gather_inputs(r, garbler_in, evaluator_in, &mut wires);
            for (k, g) in self.gates.iter().enumerate() {
                wires[first + k] = match *g {
                    Gate::Xor(a, b) => wires[a as usize] ^ wires[b as usize],
                    Gate::And(a, b) => wires[a as usize] & wires[b as usize],
                    Gate::Inv(a) => !wires[a as usize],
                };
            }
            out.extend(self.outputs.iter().map(|o| match *o {
                OutBit::Wire(w) => wires[w as usize],
                OutBit::Const(c) => c,
            }));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built 1-bit adder: inputs a (garbler), b (evaluator);
    /// outputs (sum, carry).
    fn adder() -> Circuit {
        Circuit::from_gates(
            1,
            1,
            vec![Gate::Xor(0, 1), Gate::And(0, 1)],
            vec![OutBit::Wire(2), OutBit::Wire(3)],
        )
    }

    #[test]
    fn truth_table() {
        let c = adder();
        assert_eq!(c.eval_plain(&[false], &[false]), vec![false, false]);
        assert_eq!(c.eval_plain(&[true], &[false]), vec![true, false]);
        assert_eq!(c.eval_plain(&[false], &[true]), vec![true, false]);
        assert_eq!(c.eval_plain(&[true], &[true]), vec![false, true]);
    }

    #[test]
    fn counts() {
        let c = adder();
        assert_eq!(c.and_count(), 1);
        assert_eq!(c.xor_count(), 1);
        assert_eq!(c.garbled_size_bytes(), 32);
        let c = c.repeated(3, &[1], &[1]);
        assert_eq!((c.and_count(), c.xor_count(), c.num_outputs()), (3, 3, 6));
        assert_eq!((c.garbler_inputs, c.evaluator_inputs, c.unit_wires()), (3, 3, 4));
    }

    /// Instance `r` of a repeated unit reads slice `r` of every plane and
    /// writes slice `r` of the outputs.
    #[test]
    fn repeated_unit_reads_its_slice_of_each_plane() {
        // Unit: garbler planes [x (1 bit) | m (1 bit)], evaluator [y];
        // outputs (x ∧ y, x ⊕ m).
        let unit = Circuit::from_gates(
            2,
            1,
            vec![Gate::And(0, 2), Gate::Xor(0, 1)],
            vec![OutBit::Wire(3), OutBit::Wire(4)],
        );
        let c = unit.repeated(3, &[1, 1], &[1]);
        let x = [true, false, true];
        let m = [false, false, true];
        let y = [true, true, false];
        let garbler: Vec<bool> = x.iter().chain(&m).copied().collect();
        let out = c.eval_plain(&garbler, &y);
        let want: Vec<bool> = (0..3).flat_map(|r| [x[r] & y[r], x[r] ^ m[r]]).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn compact_drops_exactly_the_unreachable_gates() {
        // Gate wires 2..6; only wire 5 (which reads 2) is an output.
        let c = Circuit::from_gates(
            1,
            1,
            vec![Gate::Xor(0, 1), Gate::And(0, 1), Gate::Inv(3), Gate::And(2, 1)],
            vec![OutBit::Wire(5), OutBit::Const(true), OutBit::Wire(0)],
        );
        assert_eq!(c.unreachable_gates(), 2);
        let small = c.clone().compact();
        assert_eq!(small.unit_gates(), [Gate::Xor(0, 1), Gate::And(2, 1)]);
        assert_eq!(small.unit_outputs(), [OutBit::Wire(3), OutBit::Const(true), OutBit::Wire(0)]);
        assert_eq!((small.unreachable_gates(), small.and_count()), (0, 1));
        assert_eq!((small.garbler_inputs, small.evaluator_inputs), (1, 1));
        for bits in 0..4 {
            let (g, e) = ([bits & 1 != 0], [bits & 2 != 0]);
            assert_eq!(small.eval_plain(&g, &e), c.eval_plain(&g, &e));
        }
    }

    #[test]
    #[should_panic(expected = "reads a wire not yet driven")]
    fn from_gates_refuses_a_forward_reference() {
        Circuit::from_gates(1, 1, vec![Gate::Xor(0, 2)], vec![]);
    }
}
