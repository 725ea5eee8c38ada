//! Bit-parallel netlist simulation: one kernel over lane blocks.
//!
//! Every signal is a *block* of `W` words (`[u64; W]`, const-generic over
//! `W`): bit *i* of word *w* is the signal's value in lane `64·w + i`, so
//! one pass over the gate list evaluates `W × 64` input vectors. The
//! 64-lane API ([`Netlist::eval_words`], [`Netlist::simulate_words`] and
//! their faulted variants) is the `W = 1` case of the same kernel; wide
//! passes drive exhaustive operator tables, fault campaigns and streamed
//! frames. The per-gate kernels are straight-line loops over the block
//! words — exactly the shape the autovectorizer turns into SIMD (`W = 4`
//! maps a gate onto one AVX2 op) — and the per-gate dispatch (match,
//! bounds checks, fault-mask probe) amortizes over `W` words.
//!
//! A gate's word-level semantics are written once, in
//! `Gate::eval_block`; the LUT mapper's truth-table extraction calls the
//! same function at `W = 1`.
//!
//! Padding lanes of a partial final block are driven with zeros; their
//! outputs are well-defined but meaningless, and callers mask them out
//! (see [`unpack_bus_samples_blocks`] and the fault-campaign lane
//! masks).

use crate::fault::FaultSet;
use crate::ir::{Gate, Netlist, SignalId};
use crate::NetlistError;

/// Applies a unary word operation across a block.
#[inline(always)]
fn un<const W: usize>(a: [u64; W], f: impl Fn(u64) -> u64) -> [u64; W] {
    let mut out = [0u64; W];
    for i in 0..W {
        out[i] = f(a[i]);
    }
    out
}

/// Applies a binary word operation across a block.
#[inline(always)]
fn bin<const W: usize>(a: [u64; W], b: [u64; W], f: impl Fn(u64, u64) -> u64) -> [u64; W] {
    let mut out = [0u64; W];
    for i in 0..W {
        out[i] = f(a[i], b[i]);
    }
    out
}

/// Applies a ternary word operation across a block.
#[inline(always)]
fn tri<const W: usize>(
    a: [u64; W],
    b: [u64; W],
    c: [u64; W],
    f: impl Fn(u64, u64, u64) -> u64,
) -> [u64; W] {
    let mut out = [0u64; W];
    for i in 0..W {
        out[i] = f(a[i], b[i], c[i]);
    }
    out
}

impl Gate {
    /// The gate's value over one lane block, reading each fanin's block
    /// through `fanin`; `None` for a primary input, whose value is not a
    /// function of fanins. This is the one definition of gate semantics
    /// that every simulation path evaluates.
    #[inline(always)]
    pub(crate) fn eval_block<const W: usize>(
        &self,
        mut fanin: impl FnMut(SignalId) -> [u64; W],
    ) -> Option<[u64; W]> {
        Some(match *self {
            Gate::Input { .. } => return None,
            Gate::Const(c) => [if c { u64::MAX } else { 0 }; W],
            Gate::Buf(a) => fanin(a),
            Gate::Not(a) => un(fanin(a), |x| !x),
            Gate::And(a, b) => bin(fanin(a), fanin(b), |x, y| x & y),
            Gate::Or(a, b) => bin(fanin(a), fanin(b), |x, y| x | y),
            Gate::Xor(a, b) => bin(fanin(a), fanin(b), |x, y| x ^ y),
            Gate::Nand(a, b) => bin(fanin(a), fanin(b), |x, y| !(x & y)),
            Gate::Nor(a, b) => bin(fanin(a), fanin(b), |x, y| !(x | y)),
            Gate::Xnor(a, b) => bin(fanin(a), fanin(b), |x, y| !(x ^ y)),
            Gate::Mux { sel, t, f } => {
                tri(fanin(sel), fanin(t), fanin(f), |s, t, f| (s & t) | (!s & f))
            }
            Gate::Maj(a, b, c) => {
                tri(fanin(a), fanin(b), fanin(c), |x, y, z| (x & y) | (x & z) | (y & z))
            }
        })
    }
}

impl Netlist {
    /// Evaluates every signal for 64 parallel input lanes: the `W = 1`
    /// case of [`Netlist::eval_blocks`].
    ///
    /// `input_words[k]` supplies the 64 lane values of the k-th primary
    /// input (in [`Netlist::inputs`] order).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputCountMismatch`] if the number of words
    /// differs from the number of primary inputs.
    pub fn eval_words(&self, input_words: &[u64]) -> crate::Result<Vec<u64>> {
        Ok(self.eval_blocks::<1>(input_words.as_chunks().0)?.into_flattened())
    }

    /// Evaluates the primary outputs for 64 parallel lanes.
    ///
    /// # Errors
    ///
    /// See [`Netlist::eval_words`].
    pub fn simulate_words(&self, input_words: &[u64]) -> crate::Result<Vec<u64>> {
        Ok(self.simulate_blocks::<1>(input_words.as_chunks().0)?.into_flattened())
    }

    /// [`Netlist::eval_words`] with a set of injected faults.
    ///
    /// The fault masks are applied to each net's value immediately after
    /// it is computed, so downstream gates see the faulted value —
    /// exactly the semantics of a defective physical net. An empty fault
    /// set yields bit-identical results to the fault-free evaluator.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidFaultSite`] if a fault references
    /// a signal outside this netlist, and
    /// [`NetlistError::InputCountMismatch`] if the number of words
    /// differs from the number of primary inputs.
    pub fn eval_words_with_faults(
        &self,
        input_words: &[u64],
        faults: &FaultSet,
    ) -> crate::Result<Vec<u64>> {
        Ok(self.eval_blocks_with_faults::<1>(input_words.as_chunks().0, faults)?.into_flattened())
    }

    /// Primary outputs under injected faults, 64 lanes at a time.
    ///
    /// # Errors
    ///
    /// See [`Netlist::eval_words_with_faults`].
    pub fn simulate_words_with_faults(
        &self,
        input_words: &[u64],
        faults: &FaultSet,
    ) -> crate::Result<Vec<u64>> {
        Ok(self
            .simulate_blocks_with_faults::<1>(input_words.as_chunks().0, faults)?
            .into_flattened())
    }

    /// Evaluates the primary outputs for a single boolean input vector.
    ///
    /// # Errors
    ///
    /// See [`Netlist::eval_words`].
    pub fn simulate_bool(&self, inputs: &[bool]) -> crate::Result<Vec<bool>> {
        let words: Vec<u64> = inputs.iter().map(|&b| u64::from(b)).collect();
        let outs = self.simulate_words(&words)?;
        Ok(outs.iter().map(|&w| w & 1 == 1).collect())
    }

    /// Evaluates an output *bus* for up to 64 integer samples at once.
    ///
    /// The netlist's inputs are an `a_width`-bit bus followed by a
    /// `b_width`-bit bus; `pairs` holds the integer values to drive on
    /// them (LSB-first, two's complement for negative values). The
    /// outputs are read back as one bus, sign-extended when
    /// `out_signed` is set.
    ///
    /// This is a convenience wrapper for operator-style netlists with
    /// exactly two input buses; see `clapped-axops` for typical usage.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputCountMismatch`] if the netlist does
    /// not have exactly `a_width + b_width` inputs.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 pairs are supplied.
    pub fn simulate_binary_op(
        &self,
        a_width: usize,
        b_width: usize,
        pairs: &[(i64, i64)],
        out_signed: bool,
    ) -> crate::Result<Vec<i64>> {
        assert!(pairs.len() <= 64, "at most 64 samples per call");
        let a_vals: Vec<i64> = pairs.iter().map(|p| p.0).collect();
        let b_vals: Vec<i64> = pairs.iter().map(|p| p.1).collect();
        let mut words = pack_bus_samples(&a_vals, a_width);
        words.extend(pack_bus_samples(&b_vals, b_width));
        let outs = self.simulate_words(&words)?;
        Ok(unpack_bus_samples(&outs, pairs.len(), out_signed))
    }

    /// Evaluates every signal for `W × 64` parallel input lanes.
    ///
    /// `input_blocks[k]` supplies the lane blocks of the k-th primary
    /// input (in [`Netlist::inputs`] order). Word *w* of every result
    /// block equals what `W = 1` evaluation of word *w* of the inputs
    /// gives.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputCountMismatch`] if the number of
    /// blocks differs from the number of primary inputs.
    pub fn eval_blocks<const W: usize>(
        &self,
        input_blocks: &[[u64; W]],
    ) -> crate::Result<Vec<[u64; W]>> {
        let mut vals = Vec::new();
        self.eval_blocks_masked(input_blocks, &[], &mut vals)?;
        Ok(vals)
    }

    /// Evaluates the primary outputs for `W × 64` parallel lanes.
    ///
    /// # Errors
    ///
    /// See [`Netlist::eval_blocks`].
    pub fn simulate_blocks<const W: usize>(
        &self,
        input_blocks: &[[u64; W]],
    ) -> crate::Result<Vec<[u64; W]>> {
        let vals = self.eval_blocks(input_blocks)?;
        Ok(self.outputs().iter().map(|(_, s)| vals[s.index()]).collect())
    }

    /// [`Netlist::simulate_blocks`] with injected faults. The fault
    /// masks broadcast across the `W` words of each block, so the result
    /// is bit-identical to faulting each word separately with
    /// [`Netlist::simulate_words_with_faults`].
    ///
    /// # Errors
    ///
    /// See [`Netlist::eval_words_with_faults`].
    pub fn simulate_blocks_with_faults<const W: usize>(
        &self,
        input_blocks: &[[u64; W]],
        faults: &FaultSet,
    ) -> crate::Result<Vec<[u64; W]>> {
        let vals = self.eval_blocks_with_faults(input_blocks, faults)?;
        Ok(self.outputs().iter().map(|(_, s)| vals[s.index()]).collect())
    }

    /// Every signal's blocks under injected faults.
    fn eval_blocks_with_faults<const W: usize>(
        &self,
        input_blocks: &[[u64; W]],
        faults: &FaultSet,
    ) -> crate::Result<Vec<[u64; W]>> {
        if let Some(max) = faults.max_index() {
            if max >= self.len() {
                return Err(NetlistError::InvalidFaultSite { index: max, signals: self.len() });
            }
        }
        let mut masks = faults.entries().to_vec();
        masks.sort_unstable_by_key(|e| e.0);
        let mut vals = Vec::new();
        self.eval_blocks_masked(input_blocks, &masks, &mut vals)?;
        Ok(vals)
    }

    /// Zero-allocation streaming variant: evaluates the primary outputs
    /// into `outputs`, reusing `scratch` for the per-signal values.
    /// Repeated calls with the same buffers never reallocate — this is
    /// the inner loop of table derivation and frame simulation.
    ///
    /// # Errors
    ///
    /// See [`Netlist::eval_blocks`].
    pub fn simulate_blocks_into<const W: usize>(
        &self,
        input_blocks: &[[u64; W]],
        scratch: &mut Vec<[u64; W]>,
        outputs: &mut Vec<[u64; W]>,
    ) -> crate::Result<()> {
        self.eval_blocks_masked(input_blocks, &[], scratch)?;
        outputs.clear();
        outputs.extend(self.outputs().iter().map(|(_, s)| scratch[s.index()]));
        Ok(())
    }

    /// The simulation kernel: one pass over the gate list with `masks` —
    /// `(signal index, and, or, xor)` entries **sorted by signal index**
    /// — applied as each masked signal is computed, so downstream gates
    /// see the faulted value. An empty mask list costs one predictable
    /// compare per gate.
    pub(crate) fn eval_blocks_masked<const W: usize>(
        &self,
        input_blocks: &[[u64; W]],
        masks: &[(usize, u64, u64, u64)],
        vals: &mut Vec<[u64; W]>,
    ) -> crate::Result<()> {
        if input_blocks.len() != self.inputs().len() {
            return Err(NetlistError::InputCountMismatch {
                expected: self.inputs().len(),
                found: input_blocks.len(),
            });
        }
        vals.clear();
        vals.resize(self.len(), [0u64; W]);
        let mut next_input = 0;
        let mut next_mask = 0;
        for (i, gate) in self.gates().iter().enumerate() {
            let mut v = match gate.eval_block(|s| vals[s.index()]) {
                Some(v) => v,
                None => {
                    let b = input_blocks[next_input];
                    next_input += 1;
                    b
                }
            };
            if next_mask < masks.len() && masks[next_mask].0 == i {
                let (_, and_mask, or_mask, xor_mask) = masks[next_mask];
                for w in 0..W {
                    v[w] = ((v[w] & and_mask) | or_mask) ^ xor_mask;
                }
                next_mask += 1;
            }
            vals[i] = v;
        }
        Ok(())
    }
}

/// Transposes a u64 viewed as an 8×8 bit matrix: bit `8r + c` of the
/// input becomes bit `8c + r` of the output (byte *r* holds row *r*,
/// bit *c* within the byte holds column *c*). The function is an
/// involution, so the same call converts both ways between
/// byte-per-lane form (byte *l* = an 8-bit value for lane *l*) and
/// bitplane form (byte *k* = bit *k* of all eight lanes).
///
/// This is the hot pack/unpack primitive of the wide-word pipelines:
/// eight lanes move between bytes and bitplanes in ~18 word ops instead
/// of 64 per-bit shift/or pairs.
///
/// # Examples
///
/// ```
/// // A matrix with only row 3 set maps to every byte having bit 3 set.
/// let x = 0xffu64 << (8 * 3);
/// assert_eq!(clapped_netlist::transpose8x8(x), 0x0808_0808_0808_0808);
/// assert_eq!(clapped_netlist::transpose8x8(clapped_netlist::transpose8x8(x)), x);
/// ```
#[inline(always)]
#[must_use]
pub fn transpose8x8(x: u64) -> u64 {
    // Three delta-swap rounds (Hacker's Delight §7-3): exchange 1×1,
    // 2×2, then 4×4 sub-blocks across the diagonal.
    let t = (x ^ (x >> 7)) & 0x00aa_00aa_00aa_00aa;
    let x = x ^ t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_cccc_0000_cccc;
    let x = x ^ t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_f0f0_f0f0;
    x ^ t ^ (t << 28)
}

/// Packs up to 64 integer samples into per-bit simulation words: the
/// `W = 1` case of [`pack_bus_samples_blocks`].
///
/// Word *k* of the result carries bit *k* of every sample: bit *i* of word
/// *k* equals bit *k* of `samples[i]`. Negative values are packed in two's
/// complement.
///
/// # Panics
///
/// Panics if more than 64 samples are supplied.
///
/// # Examples
///
/// ```
/// let words = clapped_netlist::pack_bus_samples(&[0b10, 0b01], 2);
/// assert_eq!(words[0] & 0b11, 0b10); // LSBs of samples 0 and 1
/// assert_eq!(words[1] & 0b11, 0b01);
/// ```
pub fn pack_bus_samples(samples: &[i64], width: usize) -> Vec<u64> {
    pack_bus_samples_blocks::<1>(samples, width).into_flattened()
}

/// Unpacks per-bit output words back into `count` integer samples: the
/// `W = 1` case of [`unpack_bus_samples_blocks`].
///
/// When `signed` is set the most significant supplied word is treated as a
/// sign bit and the result is sign-extended.
///
/// # Panics
///
/// Panics if `count` exceeds 64.
pub fn unpack_bus_samples(words: &[u64], count: usize, signed: bool) -> Vec<i64> {
    unpack_bus_samples_blocks::<1>(words.as_chunks().0, count, signed)
}

/// Packs up to `W × 64` integer samples into per-bit lane blocks: block
/// *k* carries bit *k* of every sample, with sample *i* in word
/// `i / 64`, bit `i % 64`. Negative values pack in two's complement.
///
/// # Panics
///
/// Panics if more than `W × 64` samples are supplied.
pub fn pack_bus_samples_blocks<const W: usize>(samples: &[i64], width: usize) -> Vec<[u64; W]> {
    assert!(samples.len() <= W * 64, "at most W*64 samples per block");
    let mut blocks = vec![[0u64; W]; width];
    for (lane, &v) in samples.iter().enumerate() {
        let (word, bit) = (lane / 64, lane % 64);
        let bits = v as u64;
        for (k, block) in blocks.iter_mut().enumerate() {
            block[word] |= ((bits >> k) & 1) << bit;
        }
    }
    blocks
}

/// Unpacks per-bit output blocks back into `count` integer samples
/// (sign-extending from the top block when `signed` is set).
///
/// # Panics
///
/// Panics if `count` exceeds `W × 64`.
pub fn unpack_bus_samples_blocks<const W: usize>(
    blocks: &[[u64; W]],
    count: usize,
    signed: bool,
) -> Vec<i64> {
    assert!(count <= W * 64, "at most W*64 samples per block");
    let width = blocks.len();
    (0..count)
        .map(|lane| {
            let (word, bit) = (lane / 64, lane % 64);
            let mut v: u64 = 0;
            for (k, block) in blocks.iter().enumerate() {
                v |= ((block[word] >> bit) & 1) << k;
            }
            if signed && width > 0 && width < 64 && (v >> (width - 1)) & 1 == 1 {
                // Sign-extend.
                (v | (!0u64 << width)) as i64
            } else {
                v as i64
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultKind, Netlist};

    #[test]
    fn gate_semantics() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let gates = [
            n.and(a, b),
            n.or(a, b),
            n.xor(a, b),
            n.nand(a, b),
            n.nor(a, b),
            n.xnor(a, b),
            n.mux(c, a, b),
            n.maj(a, b, c),
            n.not(a),
        ];
        for (i, g) in gates.into_iter().enumerate() {
            n.output(format!("o{i}"), g);
        }
        // Exhaustive 3-input truth check against Rust semantics.
        for bits in 0..8u8 {
            let (a, b, c) = (bits & 1 == 1, bits & 2 == 2, bits & 4 == 4);
            let out = n.simulate_bool(&[a, b, c]).unwrap();
            assert_eq!(out[0], a & b);
            assert_eq!(out[1], a | b);
            assert_eq!(out[2], a ^ b);
            assert_eq!(out[3], !(a & b));
            assert_eq!(out[4], !(a | b));
            assert_eq!(out[5], !(a ^ b));
            assert_eq!(out[6], if c { a } else { b });
            assert_eq!(out[7], (a & b) | (a & c) | (b & c));
            assert_eq!(out[8], !a);
        }
    }

    #[test]
    fn pack_unpack_roundtrip_unsigned() {
        let samples = [0i64, 1, 5, 12, 15];
        let words = pack_bus_samples(&samples, 4);
        let back = unpack_bus_samples(&words, samples.len(), false);
        assert_eq!(back, samples);
    }

    #[test]
    fn pack_unpack_roundtrip_signed() {
        let samples = [-8i64, -1, 0, 3, 7];
        let words = pack_bus_samples(&samples, 4);
        let back = unpack_bus_samples(&words, samples.len(), true);
        assert_eq!(back, samples);
    }

    #[test]
    fn input_count_mismatch_is_error() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        n.output("y", a);
        assert!(n.simulate_bool(&[]).is_err());
    }

    #[test]
    fn binary_op_with_wrong_arity_is_error() {
        let mut n = Netlist::new("t");
        let a = n.input_bus("a", 2);
        let b = n.input_bus("b", 2);
        let y = n.and(a[0], b[0]);
        n.output("y", y);
        assert_eq!(
            n.simulate_binary_op(2, 3, &[(1, 1)], false),
            Err(NetlistError::InputCountMismatch { expected: 4, found: 5 })
        );
        assert_eq!(n.simulate_binary_op(2, 2, &[(1, 1), (1, 2)], false), Ok(vec![1, 0]));
    }

    #[test]
    fn parallel_lanes_agree_with_scalar() {
        let mut n = Netlist::new("t");
        let a = n.input_bus("a", 2);
        let b = n.input_bus("b", 2);
        let x = n.xor(a[0], b[1]);
        let y = n.and(a[1], b[0]);
        n.output("x", x);
        n.output("y", y);
        // Drive all 16 combinations in parallel lanes.
        let mut pairs = Vec::new();
        for av in 0..4i64 {
            for bv in 0..4i64 {
                pairs.push((av, bv));
            }
        }
        let a_words = pack_bus_samples(&pairs.iter().map(|p| p.0).collect::<Vec<_>>(), 2);
        let b_words = pack_bus_samples(&pairs.iter().map(|p| p.1).collect::<Vec<_>>(), 2);
        let mut words = a_words;
        words.extend(b_words);
        let outs = n.simulate_words(&words).unwrap();
        for (lane, &(av, bv)) in pairs.iter().enumerate() {
            let expect_x = ((av & 1) ^ ((bv >> 1) & 1)) == 1;
            let expect_y = (((av >> 1) & 1) & (bv & 1)) == 1;
            assert_eq!((outs[0] >> lane) & 1 == 1, expect_x);
            assert_eq!((outs[1] >> lane) & 1 == 1, expect_y);
        }
    }

    fn sample_netlist() -> Netlist {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let x = n.xor(a, b);
        let y = n.maj(a, b, c);
        let z = n.mux(c, x, y);
        n.output("x", x);
        n.output("y", y);
        n.output("z", z);
        n
    }

    #[test]
    fn blocks_agree_with_words_lane_by_lane() {
        let n = sample_netlist();
        let inputs: [[u64; 4]; 3] = [
            [0x0123_4567_89ab_cdef, 1, !0, 0xdead_beef],
            [0xfedc_ba98_7654_3210, 2, 0, 0xbeef_dead],
            [0xaaaa_aaaa_5555_5555, 3, !0, 7],
        ];
        let wide = n.simulate_blocks(&inputs).unwrap();
        for w in 0..4 {
            let words: Vec<u64> = inputs.iter().map(|b| b[w]).collect();
            let narrow = n.simulate_words(&words).unwrap();
            for (k, &word) in narrow.iter().enumerate() {
                assert_eq!(wide[k][w], word, "output {k} word {w}");
            }
        }
    }

    #[test]
    fn w1_blocks_equal_words_exactly() {
        let n = sample_netlist();
        let words = [0x1234u64, 0x5678, 0x9abc];
        let blocks: Vec<[u64; 1]> = words.iter().map(|&w| [w]).collect();
        let wide = n.simulate_blocks(&blocks).unwrap();
        let narrow = n.simulate_words(&words).unwrap();
        assert_eq!(narrow, wide.iter().map(|b| b[0]).collect::<Vec<_>>());
    }

    #[test]
    fn faulted_blocks_broadcast_masks_per_word() {
        let n = sample_netlist();
        let inputs: [[u64; 2]; 3] = [[0xff00, 3], [0x0ff0, 5], [0x00ff, 9]];
        let faults = FaultSet::empty()
            .stuck_at(SignalId::from_index(3), FaultKind::StuckAt1)
            .transient(SignalId::from_index(4), 0b1010);
        let wide = n.simulate_blocks_with_faults(&inputs, &faults).unwrap();
        for w in 0..2 {
            let words: Vec<u64> = inputs.iter().map(|b| b[w]).collect();
            let narrow = n.simulate_words_with_faults(&words, &faults).unwrap();
            for (k, &word) in narrow.iter().enumerate() {
                assert_eq!(wide[k][w], word, "output {k} word {w}");
            }
        }
    }

    #[test]
    fn invalid_fault_site_is_reported() {
        let n = sample_netlist();
        let faults = FaultSet::empty().stuck_at(SignalId::from_index(99), FaultKind::StuckAt0);
        let err = n.simulate_blocks_with_faults(&[[0u64; 2]; 3], &faults).unwrap_err();
        assert!(matches!(err, NetlistError::InvalidFaultSite { index: 99, .. }));
    }

    #[test]
    fn block_input_count_mismatch_is_error() {
        let n = sample_netlist();
        assert!(n.simulate_blocks(&[[0u64; 4]; 2]).is_err());
    }

    #[test]
    fn streaming_variant_reuses_buffers() {
        let n = sample_netlist();
        let inputs = [[1u64; 4], [2u64; 4], [4u64; 4]];
        let mut scratch = Vec::new();
        let mut outs = Vec::new();
        n.simulate_blocks_into(&inputs, &mut scratch, &mut outs).unwrap();
        let expect = n.simulate_blocks(&inputs).unwrap();
        assert_eq!(outs, expect);
        let (sp, op) = (scratch.as_ptr(), outs.as_ptr());
        n.simulate_blocks_into(&inputs, &mut scratch, &mut outs).unwrap();
        assert_eq!(outs, expect);
        assert_eq!((sp, op), (scratch.as_ptr(), outs.as_ptr()), "no reallocation");
    }

    #[test]
    fn transpose8x8_matches_naive_bit_transpose() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let x = state;
            let y = transpose8x8(x);
            for r in 0..8 {
                for c in 0..8 {
                    assert_eq!(
                        (y >> (8 * c + r)) & 1,
                        (x >> (8 * r + c)) & 1,
                        "x={x:#018x} r={r} c={c}"
                    );
                }
            }
            assert_eq!(transpose8x8(y), x, "involution");
        }
    }

    #[test]
    fn block_pack_unpack_roundtrip() {
        let samples: Vec<i64> = (0..130).map(|i| (i * 37) % 256 - 128).collect();
        let blocks = pack_bus_samples_blocks::<4>(&samples, 9);
        let back = unpack_bus_samples_blocks::<4>(&blocks, samples.len(), true);
        assert_eq!(back, samples);
        // The first 64 lanes match the narrow packer word for word.
        let narrow = crate::pack_bus_samples(&samples[..64], 9);
        for (k, b) in blocks.iter().enumerate() {
            assert_eq!(b[0], narrow[k]);
        }
    }
}
