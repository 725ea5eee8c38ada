//! Reference oracles for the netlist evaluators.
//!
//! The gate-level oracle is the original 64-lane evaluator with fault
//! masks: its own gate-by-gate match, one `u64` per signal, and faults
//! given in the terms of the `FaultSet` builder. The production
//! simulator (one kernel over `[u64; W]` blocks, whose `W = 1` case is
//! the 64-lane API) must match it word for word.
//!
//! The LUT-network oracle is the original per-lane `MappedNetlist`
//! evaluator: every LUT is evaluated one lane at a time by building its
//! truth-table index from the input bits, with signal values kept in a
//! map. Power is recomputed on top of it with the original per-round
//! floating-point accumulation. The production path (a dense word-parallel
//! LUT program) must match both bit for bit.

// Each test binary uses only some of the oracles.
#![allow(dead_code)]

use clapped_netlist::{Gate, MappedNetlist, Netlist, PowerModel, PowerReport, SignalId};
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// One fault for [`eval_words_with_faults_ref`], as the `FaultSet`
/// builder states it.
#[derive(Debug, Clone, Copy)]
pub enum RefFault {
    /// `FaultSet::stuck_at`: the net reads `value` in every lane. The
    /// last stuck-at on a net wins.
    StuckAt(SignalId, bool),
    /// `FaultSet::transient`: the net reads inverted in `lanes`. Flips
    /// on one net accumulate, and apply after any stuck-at.
    Flip(SignalId, u64),
}

/// Values of every signal for 64 lanes with `faults` injected, each
/// faulted net's value replaced as soon as it is computed so that
/// downstream gates see it.
pub fn eval_words_with_faults_ref(n: &Netlist, input_words: &[u64], faults: &[RefFault]) -> Vec<u64> {
    assert_eq!(input_words.len(), n.inputs().len(), "input arity");
    let mut stuck: Vec<Option<bool>> = vec![None; n.len()];
    let mut flip = vec![0u64; n.len()];
    for &f in faults {
        match f {
            RefFault::StuckAt(s, value) => stuck[s.index()] = Some(value),
            RefFault::Flip(s, lanes) => flip[s.index()] ^= lanes,
        }
    }
    let mut vals = vec![0u64; n.len()];
    let mut next_input = 0;
    for (i, gate) in n.gates().iter().enumerate() {
        let v = match *gate {
            Gate::Input { .. } => {
                let w = input_words[next_input];
                next_input += 1;
                w
            }
            Gate::Const(c) => {
                if c {
                    u64::MAX
                } else {
                    0
                }
            }
            Gate::Buf(a) => vals[a.index()],
            Gate::Not(a) => !vals[a.index()],
            Gate::And(a, b) => vals[a.index()] & vals[b.index()],
            Gate::Or(a, b) => vals[a.index()] | vals[b.index()],
            Gate::Xor(a, b) => vals[a.index()] ^ vals[b.index()],
            Gate::Nand(a, b) => !(vals[a.index()] & vals[b.index()]),
            Gate::Nor(a, b) => !(vals[a.index()] | vals[b.index()]),
            Gate::Xnor(a, b) => !(vals[a.index()] ^ vals[b.index()]),
            Gate::Mux { sel, t, f } => {
                let s = vals[sel.index()];
                (s & vals[t.index()]) | (!s & vals[f.index()])
            }
            Gate::Maj(a, b, c) => {
                let (x, y, z) = (vals[a.index()], vals[b.index()], vals[c.index()]);
                (x & y) | (x & z) | (y & z)
            }
        };
        let v = match stuck[i] {
            Some(true) => u64::MAX,
            Some(false) => 0,
            None => v,
        };
        vals[i] = v ^ flip[i];
    }
    vals
}

/// The primary outputs for 64 lanes, through [`eval_words_with_faults_ref`].
pub fn simulate_words_with_faults_ref(n: &Netlist, input_words: &[u64], faults: &[RefFault]) -> Vec<u64> {
    let vals = eval_words_with_faults_ref(n, input_words, faults);
    n.outputs().iter().map(|(_, s)| vals[s.index()]).collect()
}

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
