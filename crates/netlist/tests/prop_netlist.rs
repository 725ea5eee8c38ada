//! Property tests for the synthesis substrate: random netlists must
//! survive optimize → map → verify with function preserved, and the BDD
//! backend must agree with simulation.

mod support;

use clapped_netlist::bdd::{check_equivalence, BddManager, Equivalence};
use clapped_netlist::{
    bus, estimate_power, lint_netlist, map_luts, optimize, FaultKind, FaultSet, MapStrategy,
    MappedNetlist, Netlist, PowerModel, PowerReport, SignalId,
};
use proptest::prelude::*;

/// Builds a random DAG of gates over `n_inputs` inputs from an opcode
/// stream.
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
    // Expose the last few signals as outputs.
    for (i, &s) in sigs.iter().rev().take(4).enumerate() {
        n.output(format!("o{i}"), s);
    }
    n
}

/// Adds outputs tied straight to the first input and to both constants.
fn tie_outputs(n: &mut Netlist) {
    let i0 = n.inputs()[0];
    n.output("pi", i0);
    let zero = n.constant(false);
    n.output("zero", zero);
    let one = n.constant(true);
    n.output("one", one);
}

fn power_bits(p: &PowerReport) -> [u64; 4] {
    [
        p.logic_mw.to_bits(),
        p.signal_mw.to_bits(),
        p.static_mw.to_bits(),
        p.mean_activity.to_bits(),
    ]
}

/// Round counts around the evaluator's 16-word pass, plus one pass and
/// a bit.
const ORACLE_ROUNDS: [usize; 5] = [1, 15, 16, 17, 33];

/// Outputs and every power-report field of `mapped` agree bit for bit
/// with the per-lane oracle.
fn check_against_oracle(mapped: &MappedNetlist, words: &[u64], seed: u64) {
    assert_eq!(
        mapped.simulate_words(words).expect("simulates"),
        support::simulate_words_per_lane(mapped, words)
    );
    for rounds in ORACLE_ROUNDS {
        let model = PowerModel {
            rounds,
            seed,
            ..PowerModel::default()
        };
        let got = estimate_power(mapped, &model).expect("power");
        let want = support::estimate_power_per_lane(mapped, &model);
        assert_eq!(power_bits(&got), power_bits(&want), "rounds {rounds}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// optimize + map preserve function on random logic for both
    /// strategies and several LUT sizes.
    #[test]
    fn mapping_preserves_function(
        ops in proptest::collection::vec(any::<u8>(), 4..60),
        k in 3usize..=6,
        words in proptest::collection::vec(any::<u64>(), 4),
    ) {
        let n = random_netlist(4, &ops);
        let opt = optimize(&n);
        for strategy in [MapStrategy::Depth, MapStrategy::Area] {
            let mapped = map_luts(&opt, k, strategy).expect("mappable");
            let want = n.simulate_words(&words).expect("simulates");
            let got = mapped.simulate_words(&words).expect("simulates");
            prop_assert_eq!(&want, &got);
            // The LUT network reconverted to gates agrees as well.
            let back = mapped.to_netlist("back");
            prop_assert_eq!(&want, &back.simulate_words(&words).expect("simulates"));
        }
    }

    /// The dense LUT program agrees bit for bit with the per-lane oracle
    /// on random logic for every LUT size: outputs, and power for round
    /// counts that are and are not multiples of the pass width. Some
    /// outputs are tied straight to an input or a constant.
    #[test]
    fn dense_evaluator_matches_per_lane_oracle(
        ops in proptest::collection::vec(any::<u8>(), 4..60),
        k in 2usize..=6,
        words in proptest::collection::vec(any::<u64>(), 4),
        seed: u64,
    ) {
        // LUT2 cannot cover the 3-input mux and majority gates.
        let ops: Vec<u8> = if k == 2 { ops.iter().map(|op| op % 7).collect() } else { ops };
        let mut n = random_netlist(4, &ops);
        tie_outputs(&mut n);
        let opt = optimize(&n);
        for strategy in [MapStrategy::Depth, MapStrategy::Area] {
            let mapped = map_luts(&opt, k, strategy).expect("mappable");
            check_against_oracle(&mapped, &words, seed);
        }
    }

    /// The formal checker proves optimize() correct on random logic and
    /// its verdict matches exhaustive simulation.
    #[test]
    fn bdd_agrees_with_exhaustive_simulation(
        ops in proptest::collection::vec(any::<u8>(), 4..40),
    ) {
        let n = random_netlist(4, &ops);
        let opt = optimize(&n);
        let verdict = check_equivalence(&n, &opt, 100_000).expect("small cones fit");
        prop_assert_eq!(verdict, Equivalence::Equal);
    }

    /// BDD evaluation equals netlist simulation on every input pattern
    /// (4 inputs, exhaustive).
    #[test]
    fn bdd_truth_matches_simulation(
        ops in proptest::collection::vec(any::<u8>(), 4..30),
    ) {
        let n = random_netlist(4, &ops);
        let mut mgr = BddManager::new(4, 100_000);
        let outs = mgr.build_outputs(&n).expect("fits");
        for pattern in 0..16u64 {
            let inputs: Vec<bool> = (0..4).map(|b| (pattern >> b) & 1 == 1).collect();
            let sim = n.simulate_bool(&inputs).expect("simulates");
            for (oi, &f) in outs.iter().enumerate() {
                // Evaluate the BDD by restriction: walk with the inputs.
                let val = mgr.eval(f, &inputs);
                prop_assert_eq!(sim[oi], val, "output {} pattern {}", oi, pattern);
            }
        }
    }

    /// Structural lint gate on the optimizer: whatever random logic
    /// goes in, `optimize` output carries no structural errors and no
    /// dead gates — the lint's cone-of-influence and the optimizer's
    /// DCE agree on liveness. (No gate-count bound is asserted: folding
    /// legally decomposes Nand/Nor/Xnor into base gate + Not.)
    #[test]
    fn optimize_output_passes_structural_lints(
        ops in proptest::collection::vec(any::<u8>(), 4..60),
    ) {
        let n = random_netlist(4, &ops);
        let raw = lint_netlist(&n);
        prop_assert!(raw.errors().next().is_none(), "{:?}", raw.findings);
        let report = lint_netlist(&optimize(&n));
        prop_assert!(report.errors().next().is_none(), "{:?}", report.findings);
        prop_assert_eq!(report.stats.dead_gates, 0, "DCE left dead gates");
    }

    /// Adders of random widths are exact through the whole flow.
    #[test]
    fn random_width_adders_are_exact(w in 2usize..10, a in 0u64..1024, b in 0u64..1024) {
        let mask = (1u64 << w) - 1;
        let (av, bv) = (a & mask, b & mask);
        let mut n = Netlist::new("add");
        let xa = n.input_bus("a", w);
        let xb = n.input_bus("b", w);
        let (s, c) = bus::ripple_carry_add(&mut n, &xa, &xb, None);
        n.output_bus("s", &s);
        n.output("c", c);
        let mapped = map_luts(&optimize(&n), 6, MapStrategy::Depth).expect("mappable");
        let out = {
            let mut words = clapped_netlist::pack_bus_samples(&[av as i64], w);
            words.extend(clapped_netlist::pack_bus_samples(&[bv as i64], w));
            let outs = mapped.simulate_words(&words).expect("simulates");
            let mut v = 0u64;
            for (k, &word) in outs.iter().enumerate() {
                if word & 1 == 1 {
                    v |= 1 << k;
                }
            }
            v
        };
        prop_assert_eq!(out, av + bv);
    }
}


/// A mapping without LUTs, every output tied to an input or a constant,
/// evaluates and estimates power exactly as the per-lane oracle does.
#[test]
fn lut_free_mapping_matches_per_lane_oracle() {
    let mut n = Netlist::new("wires");
    let a = n.input("a");
    let _b = n.input("b");
    n.output("a", a);
    tie_outputs(&mut n);
    let mapped = map_luts(&optimize(&n), 6, MapStrategy::Depth).expect("mappable");
    assert_eq!(mapped.lut_count(), 0);
    check_against_oracle(&mapped, &[0x0123_4567_89AB_CDEF, !0x0F0F], 11);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fault-injection evaluator with an empty fault set is
    /// bit-identical to the fault-free simulator on random logic and
    /// random stimulus — injection masks must be pure overlays.
    #[test]
    fn zero_fault_campaign_is_bit_identical(
        ops in proptest::collection::vec(any::<u8>(), 4..60),
        words in proptest::collection::vec(any::<u64>(), 4),
    ) {
        let n = random_netlist(4, &ops);
        let plain = n.eval_words(&words).expect("evaluates");
        let faulted = n
            .eval_words_with_faults(&words, &FaultSet::empty())
            .expect("evaluates");
        prop_assert_eq!(plain, faulted);
        let out_plain = n.simulate_words(&words).expect("simulates");
        let out_faulted = n
            .simulate_words_with_faults(&words, &FaultSet::empty())
            .expect("simulates");
        prop_assert_eq!(out_plain, out_faulted);
    }

    /// A transient bit-flip applied twice on the same lanes cancels out:
    /// XOR masks compose within a fault set.
    #[test]
    fn double_transient_flip_is_identity(
        ops in proptest::collection::vec(any::<u8>(), 4..40),
        words in proptest::collection::vec(any::<u64>(), 4),
        target in any::<u8>(),
        lanes in any::<u64>(),
    ) {
        let n = random_netlist(4, &ops);
        let sig = SignalId::from_index(target as usize % n.len());
        let twice = FaultSet::empty().transient(sig, lanes).transient(sig, lanes);
        let plain = n.eval_words(&words).expect("evaluates");
        let faulted = n.eval_words_with_faults(&words, &twice).expect("evaluates");
        prop_assert_eq!(plain, faulted);
    }

    /// A stuck-at fault on net s forces s to the stuck value in every
    /// lane, regardless of the surrounding logic.
    #[test]
    fn stuck_at_forces_value_on_random_logic(
        ops in proptest::collection::vec(any::<u8>(), 4..40),
        words in proptest::collection::vec(any::<u64>(), 4),
        target in any::<u8>(),
        polarity in any::<bool>(),
    ) {
        let n = random_netlist(4, &ops);
        let idx = target as usize % n.len();
        let kind = if polarity { FaultKind::StuckAt1 } else { FaultKind::StuckAt0 };
        let set = FaultSet::empty().stuck_at(SignalId::from_index(idx), kind);
        let vals = n.eval_words_with_faults(&words, &set).expect("evaluates");
        let expected = if polarity { !0u64 } else { 0u64 };
        prop_assert_eq!(vals[idx], expected);
    }
}
