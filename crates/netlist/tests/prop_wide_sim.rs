//! Property tests pinning the block simulator to the retained 64-lane
//! gate evaluator (`tests/support`) on random logic for
//! W ∈ {1, 2, 4, 8, 16}: plain evaluation, fault-mask application
//! (including partial final blocks and several faults at once), and the
//! sharded stuck-at campaign against its serial reference. `W = 1` is
//! the production 64-lane path.

mod support;

use clapped_netlist::{FaultKind, FaultSet, Netlist, SignalId};
use proptest::prelude::*;
use support::{eval_words_with_faults_ref, simulate_words_with_faults_ref, RefFault};

/// Builds a random DAG of gates over `n_inputs` inputs from an opcode
/// stream (same construction as `prop_netlist.rs`).
fn random_netlist(n_inputs: usize, ops: &[u8]) -> Netlist {
    let mut n = Netlist::new("rand");
    let mut sigs: Vec<_> = (0..n_inputs).map(|i| n.input(format!("i{i}"))).collect();
    for (k, &op) in ops.iter().enumerate() {
        let a = sigs[(k * 7 + 1) % sigs.len()];
        let b = sigs[(k * 13 + 3) % sigs.len()];
        let c = sigs[(k * 5 + 2) % sigs.len()];
        let s = match op % 9 {
            0 => n.and(a, b),
            1 => n.or(a, b),
            2 => n.xor(a, b),
            3 => n.nand(a, b),
            4 => n.nor(a, b),
            5 => n.xnor(a, b),
            6 => n.not(a),
            7 => n.mux(a, b, c),
            _ => n.maj(a, b, c),
        };
        sigs.push(s);
    }
    for (i, &s) in sigs.iter().rev().take(4).enumerate() {
        n.output(format!("o{i}"), s);
    }
    n
}

/// Turns fault codes (site in the low byte, kind in the next) and
/// per-fault flip lanes into oracle faults and the equivalent
/// `FaultSet`, built in the same order.
fn faults_of(n: &Netlist, codes: &[u64], flip_lanes: &[u64]) -> (Vec<RefFault>, FaultSet) {
    let mut set = FaultSet::empty();
    let mut faults = Vec::new();
    for (&code, &lanes) in codes.iter().zip(flip_lanes) {
        let sig = SignalId::from_index((code & 0xff) as usize % n.len());
        match (code >> 8) % 3 {
            0 => {
                set = set.stuck_at(sig, FaultKind::StuckAt0);
                faults.push(RefFault::StuckAt(sig, false));
            }
            1 => {
                set = set.stuck_at(sig, FaultKind::StuckAt1);
                faults.push(RefFault::StuckAt(sig, true));
            }
            _ => {
                set = set.transient(sig, lanes);
                faults.push(RefFault::Flip(sig, lanes));
            }
        }
    }
    (faults, set)
}

/// Packs up to `W` word batches into blocks: lane word `w` of every
/// input block carries batch `w` (missing batches stay zero — a partial
/// final block).
fn to_blocks<const W: usize>(word_batches: &[Vec<u64>], n_inputs: usize) -> Vec<[u64; W]> {
    assert!(word_batches.len() <= W);
    (0..n_inputs)
        .map(|k| {
            let mut block = [0u64; W];
            for (w, batch) in word_batches.iter().enumerate() {
                block[w] = batch[k];
            }
            block
        })
        .collect()
}

/// Asserts `simulate_blocks_with_faults::<W>` equals the oracle on the
/// meaningful words of every block, driving the batches `W` at a time;
/// without faults, `simulate_blocks::<W>` must agree as well.
fn assert_blocks_match_oracle<const W: usize>(
    n: &Netlist,
    word_batches: &[Vec<u64>],
    faults: &[RefFault],
    set: &FaultSet,
) -> std::result::Result<(), String> {
    for chunk in word_batches.chunks(W) {
        let blocks = to_blocks::<W>(chunk, n.inputs().len());
        let wide = n.simulate_blocks_with_faults::<W>(&blocks, set).expect("wide simulates");
        if faults.is_empty() {
            prop_assert_eq!(&wide, &n.simulate_blocks::<W>(&blocks).expect("wide simulates"));
        }
        for (w, batch) in chunk.iter().enumerate() {
            let want = simulate_words_with_faults_ref(n, batch, faults);
            for (k, out) in wide.iter().enumerate() {
                prop_assert_eq!(out[w], want[k], "W={} word={} output={}", W, w, k);
            }
        }
    }
    Ok(())
}

/// Asserts the 64-lane API (`W = 1` of the kernel) equals the oracle on
/// every signal and every output.
fn assert_words_match_oracle(
    n: &Netlist,
    word_batches: &[Vec<u64>],
    faults: &[RefFault],
    set: &FaultSet,
) -> std::result::Result<(), String> {
    for batch in word_batches {
        let want = eval_words_with_faults_ref(n, batch, faults);
        prop_assert_eq!(&n.eval_words_with_faults(batch, set).expect("evaluates"), &want);
        prop_assert_eq!(
            n.simulate_words_with_faults(batch, set).expect("simulates"),
            simulate_words_with_faults_ref(n, batch, faults)
        );
        if faults.is_empty() {
            prop_assert_eq!(&n.eval_words(batch).expect("evaluates"), &want);
        }
    }
    Ok(())
}

fn assert_all_widths_match_oracle(
    n: &Netlist,
    word_batches: &[Vec<u64>],
    faults: &[RefFault],
    set: &FaultSet,
) -> std::result::Result<(), String> {
    assert_words_match_oracle(n, word_batches, faults, set)?;
    assert_blocks_match_oracle::<1>(n, word_batches, faults, set)?;
    assert_blocks_match_oracle::<2>(n, word_batches, faults, set)?;
    assert_blocks_match_oracle::<4>(n, word_batches, faults, set)?;
    assert_blocks_match_oracle::<8>(n, word_batches, faults, set)?;
    assert_blocks_match_oracle::<16>(n, word_batches, faults, set)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Plain evaluation at every width matches the 64-lane oracle, full
    /// and partial blocks alike.
    #[test]
    fn wide_blocks_match_oracle(
        ops in proptest::collection::vec(any::<u8>(), 4..60),
        lanes in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 4), 1..=20),
    ) {
        let n = random_netlist(4, &ops);
        assert_all_widths_match_oracle(&n, &lanes, &[], &FaultSet::empty())?;
    }

    /// Fault masks broadcast across every word of a block, including the
    /// padding words of a partial final block, and compose on shared
    /// nets exactly as the oracle's stuck-at/flip semantics say.
    #[test]
    fn wide_fault_masks_match_oracle(
        ops in proptest::collection::vec(any::<u8>(), 4..60),
        lanes in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 4), 1..=20),
        codes in proptest::collection::vec(any::<u64>(), 1..=4),
        flip_lanes in proptest::collection::vec(any::<u64>(), 4),
    ) {
        let n = random_netlist(4, &ops);
        let (faults, set) = faults_of(&n, &codes, &flip_lanes);
        assert_all_widths_match_oracle(&n, &lanes, &faults, &set)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The wide sharded stuck-at campaign is bit-identical to the serial
    /// 64-way reference — every rate, every weighted error, at any
    /// thread count, for batch counts that leave partial final blocks
    /// and for partial lane masks.
    #[test]
    fn sharded_campaign_matches_reference(
        ops in proptest::collection::vec(any::<u8>(), 4..50),
        batches in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 4), 1..=10),
        lanes_per_batch in 1usize..=64,
    ) {
        let n = random_netlist(4, &ops);
        let sites = n.fault_sites();
        let reference = n
            .stuck_at_campaign_ref(&sites, &batches, lanes_per_batch)
            .expect("reference campaign runs");
        for jobs in [1, 3] {
            let engine = clapped_exec::Engine::new(clapped_exec::ExecConfig::with_jobs(jobs));
            let wide = n
                .stuck_at_campaign_with(&sites, &batches, lanes_per_batch, &engine)
                .expect("wide campaign runs");
            prop_assert_eq!(&reference.sites, &wide.sites, "jobs={}", jobs);
            prop_assert_eq!(reference.samples, wide.samples);
            prop_assert_eq!(reference.ranked_sites(), wide.ranked_sites());
        }
    }
}
