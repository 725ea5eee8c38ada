//! Cut-based LUT-K technology mapping.
//!
//! The mapper enumerates K-feasible cuts for every logic node (priority
//! cuts with dominance pruning), selects a representative cut per node
//! (depth-oriented or area-oriented), and covers the netlist from its
//! outputs. Each selected cut becomes one K-input LUT whose truth table is
//! extracted by simulating the cut's cone.
//!
//! A mapped network is evaluated by lowering it to a dense LUT program
//! ([`LutProgram`]): LUTs in topological order reading `u32` slot indices
//! of a flat word buffer, each evaluated over all lanes at once by a
//! word-level Shannon expansion of its truth table.

// lint-allow-file(no-silent-truncation): cut leaves and program slots
// are u32; leaves round-trip a `SignalId(u32)` index through usize and
// slots number the inputs, two constants and the LUTs of one mapping,
// so every value always fits.

use crate::ir::{Gate, Netlist, SignalId};
use crate::NetlistError;
use std::collections::BTreeMap;

/// Maximum number of cuts kept per node (priority cuts).
const MAX_CUTS: usize = 12;

/// Largest LUT (and cut) size the mapper and the evaluator support.
const MAX_LUT_INPUTS: usize = 6;

/// Cut selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MapStrategy {
    /// Minimize mapped depth first, then cut size. Mirrors a
    /// performance-directed FPGA flow.
    #[default]
    Depth,
    /// Minimize LUT count greedily (smallest cuts first), then depth.
    Area,
}

/// A single mapped LUT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappedLut {
    /// The signal (in the source netlist) this LUT produces.
    pub root: SignalId,
    /// Cut leaves (signals in the source netlist), at most K of them.
    pub inputs: Vec<SignalId>,
    /// Truth table over the inputs: bit `i` gives the output when input
    /// `j` takes bit `j` of the index `i`.
    pub truth: u64,
}

/// Result of technology mapping: a LUT network equivalent to the source
/// netlist.
#[derive(Debug, Clone)]
pub struct MappedNetlist {
    /// LUT size the mapping was performed for.
    pub k: usize,
    /// Mapped LUTs in topological order.
    pub luts: Vec<MappedLut>,
    /// Primary inputs of the source netlist.
    pub inputs: Vec<SignalId>,
    /// Primary outputs (name, signal) of the source netlist.
    pub outputs: Vec<(String, SignalId)>,
    /// Constant signals of the source netlist and their values (outputs
    /// may be tied to them directly). Ordered: [`MappedNetlist::to_netlist`]
    /// iterates this map while creating gates, and the rebuilt netlist's
    /// content digest must not depend on per-process hash seeds.
    pub constants: BTreeMap<SignalId, bool>,
    /// Depth of the LUT network in levels.
    pub depth: u32,
}

impl MappedNetlist {
    /// Number of LUTs.
    pub fn lut_count(&self) -> usize {
        self.luts.len()
    }

    /// Lowers the LUT network to a dense [`LutProgram`].
    ///
    /// Signals are defined in order: primary inputs, constants, then each
    /// LUT root; a later definition of the same signal shadows an earlier
    /// one for every reader after it.
    ///
    /// # Errors
    ///
    /// - [`NetlistError::LutTooWide`] if a LUT has more than six inputs;
    /// - [`NetlistError::UndefinedLutInput`] if a LUT reads a signal that
    ///   no input, constant or earlier LUT defines;
    /// - [`NetlistError::UnknownOutput`] if an output names a signal the
    ///   network does not define.
    pub(crate) fn program(&self) -> crate::Result<LutProgram> {
        let defined = self
            .inputs
            .iter()
            .chain(self.constants.keys())
            .chain(self.luts.iter().map(|l| &l.root))
            .map(|s| s.index() + 1)
            .max()
            .unwrap_or(0);
        // Signal index -> slot; `u32::MAX` marks an undefined signal.
        let mut slot_of = vec![u32::MAX; defined];
        let lookup = |slot_of: &[u32], s: SignalId| {
            slot_of.get(s.index()).copied().filter(|&v| v != u32::MAX)
        };
        for (i, s) in self.inputs.iter().enumerate() {
            slot_of[s.index()] = i as u32;
        }
        let n_in = self.inputs.len();
        for (s, &c) in &self.constants {
            slot_of[s.index()] = (n_in + usize::from(c)) as u32;
        }
        let mut luts = Vec::with_capacity(self.luts.len());
        for (i, lut) in self.luts.iter().enumerate() {
            if lut.inputs.len() > MAX_LUT_INPUTS {
                return Err(NetlistError::LutTooWide {
                    root: lut.root,
                    inputs: lut.inputs.len(),
                });
            }
            let mut fanin = [0u32; MAX_LUT_INPUTS];
            for (f, &input) in fanin.iter_mut().zip(&lut.inputs) {
                *f = lookup(&slot_of, input).ok_or(NetlistError::UndefinedLutInput {
                    root: lut.root,
                    input,
                })?;
            }
            luts.push(DenseLut {
                fanin,
                arity: lut.inputs.len(),
                truth: lut.truth,
            });
            slot_of[lut.root.index()] = (n_in + 2 + i) as u32;
        }
        let outputs = self
            .outputs
            .iter()
            .map(|(name, s)| {
                lookup(&slot_of, *s).ok_or_else(|| NetlistError::UnknownOutput {
                    name: name.clone(),
                    signal: *s,
                })
            })
            .collect::<crate::Result<Vec<u32>>>()?;
        Ok(LutProgram {
            inputs: n_in,
            luts,
            outputs,
        })
    }

    /// Rebuilds the LUT network as a gate-level [`Netlist`] (each LUT
    /// becomes a mux tree over its truth table), e.g. for re-synthesis
    /// or formal equivalence checking against the original.
    pub fn to_netlist(&self, name: &str) -> Netlist {
        let mut n = Netlist::new(name);
        let mut map: BTreeMap<SignalId, SignalId> = BTreeMap::new();
        for (i, &orig) in self.inputs.iter().enumerate() {
            let id = n.input(format!("pi{i}"));
            map.insert(orig, id);
        }
        for (&orig, &c) in &self.constants {
            let id = n.constant(c);
            map.insert(orig, id);
        }
        for lut in &self.luts {
            let ins: Vec<SignalId> = lut
                .inputs
                .iter()
                .map(|s| *map.get(s).expect("inputs precede the LUT"))
                .collect();
            // Shannon expansion: recursively mux the truth table.
            let id = build_truth(&mut n, &ins, lut.truth, lut.inputs.len());
            map.insert(lut.root, id);
        }
        for (name, sig) in &self.outputs {
            n.output(name.clone(), *map.get(sig).expect("outputs are mapped"));
        }
        n
    }

    /// Evaluates the primary outputs for 64 parallel lanes.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputCountMismatch`] on input arity
    /// mismatch, and the lowering errors of a malformed network (see
    /// [`NetlistError::LutTooWide`], [`NetlistError::UndefinedLutInput`]
    /// and [`NetlistError::UnknownOutput`]).
    pub fn simulate_words(&self, input_words: &[u64]) -> crate::Result<Vec<u64>> {
        if input_words.len() != self.inputs.len() {
            return Err(NetlistError::InputCountMismatch {
                expected: self.inputs.len(),
                found: input_words.len(),
            });
        }
        let program = self.program()?;
        let mut buf = vec![[0u64; 1]; program.slots()];
        for (slot, &w) in buf.iter_mut().zip(input_words) {
            *slot = [w];
        }
        program.run(&mut buf);
        Ok(program
            .outputs
            .iter()
            .map(|&s| buf[s as usize][0])
            .collect())
    }
}

/// One LUT of a [`LutProgram`].
#[derive(Debug)]
pub(crate) struct DenseLut {
    /// Slots of the LUT inputs; the first `arity` are used.
    pub(crate) fanin: [u32; MAX_LUT_INPUTS],
    /// Number of LUT inputs (0..=6).
    pub(crate) arity: usize,
    /// Truth table; bits at and above `1 << arity` are ignored.
    pub(crate) truth: u64,
}

/// A mapped netlist lowered for word-parallel evaluation.
///
/// Values live in a flat buffer of `[u64; W]` slots (64·W lanes each):
/// slots `0..inputs` hold the primary inputs, the next two the constants
/// 0 and 1, and LUT `i` writes slot `inputs + 2 + i`. LUTs are stored in
/// topological order and read only earlier slots.
#[derive(Debug)]
pub(crate) struct LutProgram {
    /// Number of primary inputs.
    pub(crate) inputs: usize,
    /// LUTs in evaluation order.
    pub(crate) luts: Vec<DenseLut>,
    /// Slot of each primary output.
    pub(crate) outputs: Vec<u32>,
}

impl LutProgram {
    /// Number of buffer slots [`LutProgram::run`] uses.
    pub(crate) fn slots(&self) -> usize {
        self.lut_base() + self.luts.len()
    }

    /// Slot of the first LUT output.
    pub(crate) fn lut_base(&self) -> usize {
        self.inputs + 2
    }

    /// Evaluates every LUT over all 64·W lanes. `buf` must hold
    /// [`LutProgram::slots`] slots with the primary inputs already in
    /// `buf[..inputs]`; the constant and LUT slots are overwritten.
    pub(crate) fn run<const W: usize>(&self, buf: &mut [[u64; W]]) {
        let base = self.lut_base();
        buf[self.inputs] = [0; W];
        buf[self.inputs + 1] = [u64::MAX; W];
        // Cofactor scratch: a LUT6's first Shannon level has 32 entries.
        let mut scratch = [[0u64; W]; 1 << (MAX_LUT_INPUTS - 1)];
        for (i, lut) in self.luts.iter().enumerate() {
            buf[base + i] = eval_lut(lut, buf, &mut scratch);
        }
    }
}

/// Evaluates one LUT by Shannon expansion of its truth table, one input
/// at a time from input 0: each level muxes adjacent cofactor pairs as
/// `f ^ ((f ^ t) & x)`, `2^arity - 1` word muxes in total.
fn eval_lut<const W: usize>(
    lut: &DenseLut,
    buf: &[[u64; W]],
    s: &mut [[u64; W]; 1 << (MAX_LUT_INPUTS - 1)],
) -> [u64; W] {
    let n = lut.arity;
    let bit = |i: usize| 0u64.wrapping_sub((lut.truth >> i) & 1);
    if n == 0 {
        return [bit(0); W];
    }
    let x = &buf[lut.fanin[0] as usize];
    for i in 0..1 << (n - 1) {
        let f = bit(2 * i);
        let d = f ^ bit(2 * i + 1);
        for w in 0..W {
            s[i][w] = f ^ (d & x[w]);
        }
    }
    for j in 1..n {
        let x = &buf[lut.fanin[j] as usize];
        for i in 0..1 << (n - 1 - j) {
            let mut o = [0u64; W];
            for w in 0..W {
                let f = s[2 * i][w];
                o[w] = f ^ ((f ^ s[2 * i + 1][w]) & x[w]);
            }
            s[i] = o;
        }
    }
    s[0]
}

/// A cut of at most six leaves, sorted ascending and zero-padded, with a
/// 64-bit leaf signature (bit `leaf % 64` per leaf) for cheap rejects.
#[derive(Debug, Clone, Copy)]
struct Cut {
    leaves: [u32; MAX_LUT_INPUTS],
    len: usize,
    sig: u64,
}

impl Cut {
    const EMPTY: Cut = Cut {
        leaves: [0; MAX_LUT_INPUTS],
        len: 0,
        sig: 0,
    };

    fn trivial(leaf: u32) -> Cut {
        let mut c = Cut::EMPTY;
        c.leaves[0] = leaf;
        c.len = 1;
        c.sig = 1 << (leaf % 64);
        c
    }

    fn leaves(&self) -> &[u32] {
        &self.leaves[..self.len]
    }

    /// The sorted union of two cuts, or `None` if it has more than `k`
    /// leaves.
    fn union(&self, other: &Cut, k: usize) -> Option<Cut> {
        let sig = self.sig | other.sig;
        // Distinct leaves set distinct-or-shared bits: the union has at
        // least as many leaves as the signature has bits.
        if sig.count_ones() as usize > k {
            return None;
        }
        let (a, b) = (self.leaves(), other.leaves());
        let mut out = Cut { sig, ..Cut::EMPTY };
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let leaf = if j == b.len() || (i < a.len() && a[i] < b[j]) {
                i += 1;
                a[i - 1]
            } else if i == a.len() || b[j] < a[i] {
                j += 1;
                b[j - 1]
            } else {
                i += 1;
                j += 1;
                a[i - 1]
            };
            if out.len == k {
                return None;
            }
            out.leaves[out.len] = leaf;
            out.len += 1;
        }
        Some(out)
    }

    /// Whether every leaf of `other` is a leaf of `self`.
    fn contains(&self, other: &Cut) -> bool {
        other.sig & !self.sig == 0
            && other
                .leaves()
                .iter()
                .all(|l| self.leaves().binary_search(l).is_ok())
    }
}

/// Maps `netlist` onto K-input LUTs.
///
/// The netlist should be [`crate::optimize`]d first so cones contain no
/// constants or buffers; [`crate::synthesize`] does this automatically.
///
/// # Errors
///
/// Returns [`NetlistError::Unmappable`] if a node has more than K
/// structural fanins that cannot be decomposed (cannot happen for the
/// gate library in this crate as long as `k >= 3`).
///
/// # Panics
///
/// Panics if `k` is not in `2..=6`.
pub fn map_luts(netlist: &Netlist, k: usize, strategy: MapStrategy) -> crate::Result<MappedNetlist> {
    assert!((2..=MAX_LUT_INPUTS).contains(&k), "LUT size must be between 2 and 6");
    let n = netlist.len();

    // Leaves of the cut graph: primary inputs and constants.
    let is_ci = |g: &Gate| matches!(g, Gate::Input { .. } | Gate::Const(_));

    // Cut enumeration in topological order. Node `i`'s cuts are
    // `pool[cut_range[i].0..cut_range[i].1]`.
    let mut pool: Vec<Cut> = Vec::new();
    let mut cut_range: Vec<(usize, usize)> = vec![(0, 0); n];
    let mut best_depth: Vec<u32> = vec![0; n];
    // Area flow of each node's best cut per fanout (0 for inputs,
    // constants and buffers).
    let mut af_share: Vec<f64> = vec![0.0; n];
    let mut best_cut: Vec<Option<Cut>> = vec![None; n];
    let fanout: Vec<u32> = netlist.fanout_counts();
    // Per-node scratch, reused across nodes.
    let mut merged: Vec<Cut> = Vec::new();
    let mut next: Vec<Cut> = Vec::new();
    let mut ranked: Vec<(u32, f64, Cut)> = Vec::new();

    for (idx, gate) in netlist.gates().iter().enumerate() {
        let start = pool.len();
        if is_ci(gate) {
            pool.push(Cut::trivial(idx as u32));
            cut_range[idx] = (start, pool.len());
            continue;
        }
        if let Gate::Buf(a) = gate {
            // Buffers are transparent: reuse the fanin's cuts.
            let (s, e) = cut_range[a.index()];
            pool.extend_from_within(s..e);
            // Ensure the trivial cut names this node so fanouts can stop here.
            pool.push(Cut::trivial(idx as u32));
            cut_range[idx] = (start, pool.len());
            best_depth[idx] = best_depth[a.index()];
            best_cut[idx] = best_cut[a.index()].or(Some(Cut::trivial(a.index() as u32)));
            continue;
        }
        // Cuts of the node: unions of one cut per fanin, reduced after
        // each fanin to the minimal ones (a superset of another candidate
        // only yields supersets downstream).
        let mut fanins = gate.fanins();
        merged.clear();
        match fanins.next() {
            // A fanin's cut list is already minimal.
            Some(f) => {
                let (s, e) = cut_range[f.index()];
                merged.extend_from_slice(&pool[s..e]);
            }
            None => merged.push(Cut::EMPTY),
        }
        for f in fanins {
            let (s, e) = cut_range[f.index()];
            next.clear();
            for partial in &merged {
                for fcut in &pool[s..e] {
                    if let Some(union) = partial.union(fcut, k) {
                        next.push(union);
                    }
                }
            }
            keep_minimal(&next, &mut merged, k);
            if merged.is_empty() {
                break;
            }
        }
        // Rank by (depth, area flow, size) keys computed once per cut.
        // Area flow: estimated LUTs per fanout path through this cut.
        ranked.clear();
        ranked.extend(merged.iter().map(|cut| {
            let depth = cut
                .leaves()
                .iter()
                .map(|&l| best_depth[l as usize])
                .max()
                .unwrap_or(0)
                + 1;
            let af = 1.0
                + cut
                    .leaves()
                    .iter()
                    .map(|&l| af_share[l as usize])
                    .sum::<f64>();
            (depth, af, *cut)
        }));
        // Total order: the keys, then size, then the leaves
        // lexicographically. `f64::total_cmp` so a NaN area flow can
        // never panic or produce an inconsistent sort.
        let tie = |a: &Cut, b: &Cut| a.len.cmp(&b.len).then_with(|| a.leaves().cmp(b.leaves()));
        match strategy {
            MapStrategy::Depth => ranked.sort_unstable_by(|a, b| {
                a.0.cmp(&b.0)
                    .then(a.1.total_cmp(&b.1))
                    .then_with(|| tie(&a.2, &b.2))
            }),
            MapStrategy::Area => ranked.sort_unstable_by(|a, b| {
                a.1.total_cmp(&b.1)
                    .then(a.0.cmp(&b.0))
                    .then_with(|| tie(&a.2, &b.2))
            }),
        }
        ranked.truncate(MAX_CUTS);
        let Some(&(depth, af, cut)) = ranked.first() else {
            return Err(NetlistError::Unmappable {
                node: SignalId(idx as u32),
            });
        };
        best_depth[idx] = depth;
        af_share[idx] = af / f64::from(fanout[idx].max(1));
        best_cut[idx] = Some(cut);
        pool.extend(ranked.iter().map(|r| r.2));
        // Expose the trivial cut to fanouts.
        pool.push(Cut::trivial(idx as u32));
        cut_range[idx] = (start, pool.len());
    }

    // Covering: walk back from outputs, instantiating LUTs for required
    // logic nodes.
    let mut required: Vec<u32> = Vec::new();
    let mut seen = vec![false; n];
    for (_, sig) in netlist.outputs() {
        let root = resolve_buf(netlist, *sig);
        if !is_ci(netlist.gate(root)) && !std::mem::replace(&mut seen[root.index()], true) {
            required.push(root.0);
        }
    }
    let mut cone = ConeEval::new(n);
    let mut luts: Vec<MappedLut> = Vec::new();
    while let Some(node) = required.pop() {
        let cut = best_cut[node as usize].ok_or(NetlistError::Unmappable {
            node: SignalId(node),
        })?;
        luts.push(MappedLut {
            root: SignalId(node),
            inputs: cut.leaves().iter().map(|&l| SignalId(l)).collect(),
            truth: cone.truth_table(netlist, SignalId(node), cut.leaves()),
        });
        for &leaf in cut.leaves() {
            if !is_ci(netlist.gate(SignalId(leaf)))
                && !std::mem::replace(&mut seen[leaf as usize], true)
            {
                required.push(leaf);
            }
        }
    }

    // Ordered by root id, which is the source netlist's creation order —
    // already topological. Each root is covered once.
    luts.sort_unstable_by_key(|l| l.root);

    // Collect constants referenced by outputs or LUT inputs.
    let mut constants = BTreeMap::new();
    for (idx, gate) in netlist.gates().iter().enumerate() {
        if let Gate::Const(v) = gate {
            constants.insert(SignalId(idx as u32), *v);
        }
    }

    // Outputs may point at buffers; resolve them to their mapped source.
    let outputs: Vec<(String, SignalId)> = netlist
        .outputs()
        .iter()
        .map(|(name, s)| (name.clone(), resolve_buf(netlist, *s)))
        .collect();

    // LUT-network depth; inputs and constants are level 0.
    let mut level = vec![0u32; n];
    for lut in &luts {
        level[lut.root.index()] = lut
            .inputs
            .iter()
            .map(|i| level[i.index()])
            .max()
            .unwrap_or(0)
            + 1;
    }
    let depth = outputs
        .iter()
        .map(|(_, s)| level[s.index()])
        .max()
        .unwrap_or(0);

    Ok(MappedNetlist {
        k,
        luts,
        inputs: netlist.inputs().to_vec(),
        outputs,
        constants,
        depth,
    })
}

/// Builds the gate tree of a `k`-input truth table by Shannon expansion
/// on the highest input.
fn build_truth(n: &mut Netlist, ins: &[SignalId], truth: u64, k: usize) -> SignalId {
    if k == 0 {
        return n.constant(truth & 1 == 1);
    }
    let half = 1u64 << (k - 1);
    let mask = if half == 64 { u64::MAX } else { (1u64 << half) - 1 };
    let lo = truth & mask;
    let hi = (truth >> half) & mask;
    if lo == hi {
        return build_truth(n, ins, lo, k - 1);
    }
    let f = build_truth(n, ins, lo, k - 1);
    let t = build_truth(n, ins, hi, k - 1);
    n.mux(ins[k - 1], t, f)
}

/// Sets `kept` to the minimal cuts among `cands`, by size and then in
/// candidate order: duplicates and strict supersets of a kept cut are
/// dropped. The resulting set does not depend on the candidate order.
fn keep_minimal(cands: &[Cut], kept: &mut Vec<Cut>, k: usize) {
    kept.clear();
    for len in 0..=k {
        for cut in cands.iter().filter(|c| c.len == len) {
            if !kept.iter().any(|small| cut.contains(small)) {
                kept.push(*cut);
            }
        }
    }
}

fn resolve_buf(netlist: &Netlist, mut sig: SignalId) -> SignalId {
    while let Gate::Buf(a) = netlist.gate(sig) {
        sig = *a;
    }
    sig
}

/// Truth-table extraction by simulating a cut's cone with the canonical
/// input patterns. Values are memoized per signal; a value is current
/// when its stamp equals the extraction's epoch, so the tables are
/// allocated once per mapping.
struct ConeEval {
    vals: Vec<u64>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl ConeEval {
    fn new(n: usize) -> ConeEval {
        ConeEval {
            vals: vec![0; n],
            stamp: vec![0; n],
            epoch: 0,
        }
    }

    /// The truth table of `root`'s cone over the cut `leaves`.
    fn truth_table(&mut self, netlist: &Netlist, root: SignalId, leaves: &[u32]) -> u64 {
        debug_assert!(leaves.len() <= MAX_LUT_INPUTS);
        // Canonical variable patterns: var j toggles with period 2^(j+1).
        const PATTERNS: [u64; 6] = [
            0xAAAA_AAAA_AAAA_AAAA,
            0xCCCC_CCCC_CCCC_CCCC,
            0xF0F0_F0F0_F0F0_F0F0,
            0xFF00_FF00_FF00_FF00,
            0xFFFF_0000_FFFF_0000,
            0xFFFF_FFFF_0000_0000,
        ];
        self.epoch += 1;
        for (&leaf, &pattern) in leaves.iter().zip(&PATTERNS) {
            self.vals[leaf as usize] = pattern;
            self.stamp[leaf as usize] = self.epoch;
        }
        let word = self.eval(netlist, root);
        let bits = 1usize << leaves.len();
        let mask = if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        word & mask
    }

    fn eval(&mut self, netlist: &Netlist, sig: SignalId) -> u64 {
        if self.stamp[sig.index()] == self.epoch {
            return self.vals[sig.index()];
        }
        let Some([v]) = netlist.gate(sig).eval_block(|s| [self.eval(netlist, s)]) else {
            unreachable!("cut leaves cover all primary inputs of the cone")
        };
        self.vals[sig.index()] = v;
        self.stamp[sig.index()] = self.epoch;
        v
    }
}

/// Verifies that a mapping is functionally equivalent to its source
/// netlist on `rounds * 64` random vectors.
///
/// # Errors
///
/// Returns [`NetlistError::MappingMismatch`] when a counterexample is
/// found, or propagates simulation errors.
pub(crate) fn verify_mapping(
    netlist: &Netlist,
    mapped: &MappedNetlist,
    rounds: usize,
    seed: u64,
) -> crate::Result<()> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    for _ in 0..rounds {
        let words: Vec<u64> = (0..netlist.inputs().len()).map(|_| rng.gen()).collect();
        let want = netlist.simulate_words(&words)?;
        let got = mapped.simulate_words(&words)?;
        if want != got {
            return Err(NetlistError::MappingMismatch);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bus, optimize, Netlist};

    fn map_and_verify(n: &Netlist, k: usize, strategy: MapStrategy) -> MappedNetlist {
        let opt = optimize(n);
        let mapped = map_luts(&opt, k, strategy).expect("mapping succeeds");
        verify_mapping(&opt, &mapped, 16, 42).expect("mapping is equivalent");
        mapped
    }

    #[test]
    fn maps_simple_gate() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let x = n.and(a, b);
        n.output("x", x);
        let mapped = map_and_verify(&n, 6, MapStrategy::Depth);
        assert_eq!(mapped.lut_count(), 1);
        assert_eq!(mapped.depth, 1);
    }

    #[test]
    fn maps_adder_and_is_equivalent() {
        let mut n = Netlist::new("add8");
        let a = n.input_bus("a", 8);
        let b = n.input_bus("b", 8);
        let (s, c) = bus::ripple_carry_add(&mut n, &a, &b, None);
        n.output_bus("s", &s);
        n.output("c", c);
        let mapped = map_and_verify(&n, 6, MapStrategy::Depth);
        // A LUT6 mapping of an 8-bit RCA needs far fewer LUTs than gates.
        assert!(mapped.lut_count() <= 20, "lut count {}", mapped.lut_count());
        assert!(mapped.depth <= 8);
    }

    #[test]
    fn maps_multiplier_and_is_equivalent() {
        let mut n = Netlist::new("mul6");
        let a = n.input_bus("a", 6);
        let b = n.input_bus("b", 6);
        let p = bus::baugh_wooley_mul(&mut n, &a, &b);
        n.output_bus("p", &p);
        let mapped = map_and_verify(&n, 6, MapStrategy::Depth);
        assert!(mapped.lut_count() > 10);
    }

    #[test]
    fn area_mode_never_uses_more_luts_on_trees() {
        let mut n = Netlist::new("tree");
        let xs = n.input_bus("x", 16);
        let y = n.or_reduce(&xs);
        n.output("y", y);
        let area = map_and_verify(&n, 6, MapStrategy::Area);
        let depth = map_and_verify(&n, 6, MapStrategy::Depth);
        // A 16-input OR fits in ceil(16/6)-ish LUTs either way.
        assert!(area.lut_count() <= 5);
        assert!(depth.lut_count() <= 5);
    }

    #[test]
    fn lut4_mapping_works() {
        let mut n = Netlist::new("add4");
        let a = n.input_bus("a", 4);
        let b = n.input_bus("b", 4);
        let (s, _) = bus::ripple_carry_add(&mut n, &a, &b, None);
        n.output_bus("s", &s);
        let mapped = map_and_verify(&n, 4, MapStrategy::Depth);
        assert!(mapped.luts.iter().all(|l| l.inputs.len() <= 4));
    }

    #[test]
    fn output_tied_to_input_needs_no_lut() {
        let mut n = Netlist::new("wire");
        let a = n.input("a");
        n.output("y", a);
        let mapped = map_and_verify(&n, 6, MapStrategy::Depth);
        assert_eq!(mapped.lut_count(), 0);
        assert_eq!(mapped.depth, 0);
    }

    #[test]
    fn constant_output_is_preserved() {
        let mut n = Netlist::new("konst");
        let _a = n.input("a");
        let c = n.constant(true);
        n.output("y", c);
        let mapped = map_and_verify(&n, 6, MapStrategy::Depth);
        assert_eq!(mapped.lut_count(), 0);
        let out = mapped.simulate_words(&[0]).unwrap();
        assert_eq!(out[0], u64::MAX);
    }

    #[test]
    fn to_netlist_gate_order_is_deterministic() {
        // `to_netlist` iterates `constants` while creating gates; with an
        // ordered map the rebuilt netlist (and hence its content digest)
        // is identical however the mapping was produced. A circuit with
        // both constant polarities exercises the multi-entry case.
        let mut n = Netlist::new("k2");
        let a = n.input("a");
        let c0 = n.constant(false);
        let c1 = n.constant(true);
        let x = n.and(a, c1);
        n.output("x", x);
        n.output("z", c0);
        n.output("o", c1);
        let mapped = map_luts(&n, 4, MapStrategy::Depth).unwrap();
        let r1 = mapped.to_netlist("r");
        let r2 = mapped.clone().to_netlist("r");
        assert_eq!(r1, r2);
        assert_eq!(r1.content_digest(), r2.content_digest());
    }

    /// A two-input AND mapped to one LUT: inputs 0 and 1, LUT root 2.
    fn and_mapping() -> MappedNetlist {
        let mut n = Netlist::new("and");
        let a = n.input("a");
        let b = n.input("b");
        let x = n.and(a, b);
        n.output("x", x);
        map_luts(&n, 6, MapStrategy::Depth).unwrap()
    }

    #[test]
    fn lut_input_used_before_definition_is_an_error() {
        let mut m = and_mapping();
        let undefined = SignalId(99);
        m.luts[0].inputs[1] = undefined;
        let root = m.luts[0].root;
        let want = NetlistError::UndefinedLutInput {
            root,
            input: undefined,
        };
        assert_eq!(m.simulate_words(&[0, 0]), Err(want.clone()));
        assert_eq!(
            crate::estimate_power(&m, &crate::PowerModel::default()),
            Err(want)
        );
    }

    #[test]
    fn lut_with_more_than_six_inputs_is_an_error() {
        let mut m = and_mapping();
        let a = m.inputs[0];
        m.luts[0].inputs = vec![a; 7];
        let root = m.luts[0].root;
        assert_eq!(
            m.simulate_words(&[0, 0]),
            Err(NetlistError::LutTooWide { root, inputs: 7 })
        );
    }

    #[test]
    fn output_naming_an_unknown_signal_is_an_error() {
        let mut m = and_mapping();
        m.outputs[0].1 = SignalId(42);
        assert_eq!(
            m.simulate_words(&[0, 0]),
            Err(NetlistError::UnknownOutput {
                name: "x".to_string(),
                signal: SignalId(42),
            })
        );
    }

    #[test]
    fn dense_program_evaluates_every_lane() {
        // A 6-input LUT with a random truth table, checked lane by lane
        // against direct truth-table indexing at 64·4 lanes.
        let truth = 0x9E37_79B9_7F4A_7C15u64;
        let program = LutProgram {
            inputs: 6,
            luts: vec![DenseLut {
                fanin: [0, 1, 2, 3, 4, 5],
                arity: 6,
                truth,
            }],
            outputs: vec![8],
        };
        let mut buf = vec![[0u64; 4]; program.slots()];
        for (i, slot) in buf[..6].iter_mut().enumerate() {
            for (w, word) in slot.iter_mut().enumerate() {
                *word = (i as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ (w as u64) << 7;
            }
        }
        program.run(&mut buf);
        for w in 0..4 {
            for lane in 0..64 {
                let idx = (0..6).fold(0, |acc, i| acc | (((buf[i][w] >> lane) & 1) << i));
                assert_eq!(
                    (buf[8][w] >> lane) & 1,
                    (truth >> idx) & 1,
                    "word {w} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn depth_mode_is_no_deeper_than_area_mode() {
        let mut n = Netlist::new("mul");
        let a = n.input_bus("a", 8);
        let b = n.input_bus("b", 8);
        let p = bus::baugh_wooley_mul(&mut n, &a, &b);
        n.output_bus("p", &p);
        let d = map_and_verify(&n, 6, MapStrategy::Depth);
        let ar = map_and_verify(&n, 6, MapStrategy::Area);
        assert!(d.depth <= ar.depth, "depth {} vs area-mode depth {}", d.depth, ar.depth);
    }
}
