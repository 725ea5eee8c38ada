//! Reference oracles for the LUT-network evaluator.
//!
//! The per-lane interpreter below is the original `MappedNetlist`
//! evaluator: every LUT is evaluated one lane at a time by building its
//! truth-table index from the input bits, with signal values kept in a
//! map. Power is recomputed on top of it with the original per-round
//! floating-point accumulation. The production path (a dense word-parallel
//! LUT program) must match both bit for bit.

use clapped_netlist::{MappedNetlist, PowerModel, PowerReport, SignalId};
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Values of every signal the mapping defines (primary inputs, constants
/// and LUT roots) for 64 lanes, evaluated lane by lane.
pub fn eval_words_per_lane(mapped: &MappedNetlist, input_words: &[u64]) -> BTreeMap<SignalId, u64> {
    assert_eq!(input_words.len(), mapped.inputs.len(), "input arity");
    let mut vals: BTreeMap<SignalId, u64> = BTreeMap::new();
    for (&sig, &w) in mapped.inputs.iter().zip(input_words) {
        vals.insert(sig, w);
    }
    for (&sig, &c) in &mapped.constants {
        vals.insert(sig, if c { u64::MAX } else { 0 });
    }
    for lut in &mapped.luts {
        let mut out = 0u64;
        for lane in 0..64 {
            let mut idx = 0usize;
            for (j, inp) in lut.inputs.iter().enumerate() {
                if (vals[inp] >> lane) & 1 == 1 {
                    idx |= 1 << j;
                }
            }
            if (lut.truth >> idx) & 1 == 1 {
                out |= 1 << lane;
            }
        }
        vals.insert(lut.root, out);
    }
    vals
}

/// The primary outputs for 64 lanes, through [`eval_words_per_lane`].
pub fn simulate_words_per_lane(mapped: &MappedNetlist, input_words: &[u64]) -> Vec<u64> {
    let vals = eval_words_per_lane(mapped, input_words);
    mapped.outputs.iter().map(|(_, s)| vals[s]).collect()
}

/// Switching-activity power through [`eval_words_per_lane`], one
/// 64-vector round at a time with `f64` toggle accumulators.
pub fn estimate_power_per_lane(mapped: &MappedNetlist, model: &PowerModel) -> PowerReport {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(model.seed);
    let mut fanout: BTreeMap<SignalId, f64> = BTreeMap::new();
    for lut in &mapped.luts {
        for inp in &lut.inputs {
            *fanout.entry(*inp).or_insert(0.0) += 1.0;
        }
    }
    for (_, out) in &mapped.outputs {
        *fanout.entry(*out).or_insert(0.0) += 1.0;
    }
    let roots: Vec<SignalId> = mapped.luts.iter().map(|l| l.root).collect();
    let mut nets: Vec<SignalId> = mapped.inputs.clone();
    nets.extend(roots.iter().copied());

    let (mut toggles_logic, mut toggles_signal) = (0.0f64, 0.0f64);
    let (mut transitions, mut toggle_events) = (0.0f64, 0.0f64);
    for _ in 0..model.rounds.max(1) {
        let words: Vec<u64> = (0..mapped.inputs.len()).map(|_| rng.gen()).collect();
        let vals = eval_words_per_lane(mapped, &words);
        for sig in &nets {
            let v = vals[sig];
            let x = v ^ (v >> 1);
            let flips = f64::from(x.count_ones() - ((v >> 63) & 1) as u32);
            transitions += 63.0;
            toggle_events += flips;
            if roots.binary_search(sig).is_ok() {
                toggles_logic += flips;
            }
            if let Some(&fo) = fanout.get(sig) {
                toggles_signal += flips * fo;
            }
        }
    }
    let total_slots = (model.rounds.max(1) * 63) as f64;
    let logic_mw = toggles_logic / total_slots * model.logic_energy_pj * model.clock_mhz / 1000.0;
    let signal_mw =
        toggles_signal / total_slots * model.signal_energy_pj * model.clock_mhz / 1000.0;
    let static_mw =
        model.static_base_mw + model.static_uw_per_lut * mapped.lut_count() as f64 / 1000.0;
    let mean_activity = if transitions > 0.0 {
        toggle_events / transitions
    } else {
        0.0
    };
    PowerReport {
        logic_mw,
        signal_mw,
        static_mw,
        mean_activity,
    }
}
