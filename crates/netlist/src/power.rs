//! Switching-activity power estimation for mapped LUT networks.
//!
//! Dynamic power is estimated from per-net toggle rates measured by
//! simulating random input vectors (a vectored analogue of Vivado's
//! default 12.5% toggle-rate assumption, but derived from the actual
//! logic). Power is split into *logic* power (consumed inside LUTs) and
//! *signal* power (consumed charging routed nets, which scales with
//! fanout) — the same decomposition the paper's Table I uses as MLP
//! features — plus a static component proportional to utilized resources.

use crate::map::MappedNetlist;
use rand::{Rng, SeedableRng};

/// Power model parameters for the target fabric at a given clock.
///
/// The default constants produce milliwatt-scale dynamic power for
/// hundreds of LUTs at hundreds of MHz, in line with small accelerator
/// datapaths on a Zynq UltraScale+ device. As with [`crate::TimingModel`]
/// the goal is faithful *ranking*, not silicon-calibrated wattage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Energy per LUT output toggle attributed to logic, in picojoules.
    pub logic_energy_pj: f64,
    /// Energy per net toggle per fanout attributed to routing, in
    /// picojoules.
    pub signal_energy_pj: f64,
    /// Static power per utilized LUT, in microwatts.
    pub static_uw_per_lut: f64,
    /// Device base static power, in milliwatts.
    pub static_base_mw: f64,
    /// Clock frequency used to convert energy/toggle into power, in MHz.
    pub clock_mhz: f64,
    /// Number of 64-vector simulation rounds for activity extraction.
    pub rounds: usize,
    /// RNG seed for the random stimulus.
    pub seed: u64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            logic_energy_pj: 0.9,
            signal_energy_pj: 0.35,
            static_uw_per_lut: 1.5,
            static_base_mw: 18.0,
            clock_mhz: 250.0,
            rounds: 16,
            seed: 0xC1A9_9ED5,
        }
    }
}

/// Power estimation result, in milliwatts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerReport {
    /// Dynamic power dissipated in LUT logic.
    pub logic_mw: f64,
    /// Dynamic power dissipated in routed signals.
    pub signal_mw: f64,
    /// Static power.
    pub static_mw: f64,
    /// Mean toggle rate over all nets (toggles per cycle, 0..=1).
    pub mean_activity: f64,
}

impl PowerReport {
    /// Total power in milliwatts.
    pub fn total_mw(&self) -> f64 {
        self.logic_mw + self.signal_mw + self.static_mw
    }

    /// Dynamic (logic + signal) power in milliwatts.
    pub fn dynamic_mw(&self) -> f64 {
        self.logic_mw + self.signal_mw
    }
}

/// Words evaluated per pass of the dense LUT program: 16 words,
/// i.e. 16 rounds of 64 vectors.
const PASS_WORDS: usize = 16;

/// Estimates the power of a mapped netlist under random stimulus.
///
/// Round `r` drives input `i` with the ChaCha word drawn `r·inputs + i`-th
/// from `model.seed`; the rounds are evaluated 16 at a time.
/// Toggle counts are exact integers, so the report does not depend on how
/// rounds are grouped into passes.
///
/// # Errors
///
/// Propagates the lowering errors of a malformed network
/// ([`crate::NetlistError::LutTooWide`],
/// [`crate::NetlistError::UndefinedLutInput`] and
/// [`crate::NetlistError::UnknownOutput`]).
pub fn estimate_power(mapped: &MappedNetlist, model: &PowerModel) -> crate::Result<PowerReport> {
    let program = mapped.program()?;
    let rounds = model.rounds.max(1);
    let n_in = program.inputs;
    let base = program.lut_base();
    // Fanout of each net = number of LUTs (plus outputs) reading it.
    let mut fanout = vec![0u64; program.slots()];
    for lut in &program.luts {
        for &s in &lut.fanin[..lut.arity] {
            fanout[s as usize] += 1;
        }
    }
    for &s in &program.outputs {
        fanout[s as usize] += 1;
    }

    // Nets: primary inputs and LUT outputs; constants are not nets.
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(model.seed);
    let mut buf = vec![[0u64; PASS_WORDS]; program.slots()];
    let mut flips = vec![0u64; program.slots()];
    let nets = (0..n_in).chain(base..program.slots());
    let mut done = 0;
    while done < rounds {
        let words = (rounds - done).min(PASS_WORDS);
        for w in 0..words {
            for slot in &mut buf[..n_in] {
                slot[w] = rng.gen();
            }
        }
        program.run(&mut buf);
        // Adjacent lanes model consecutive random input patterns: count
        // bit flips between lane i and lane i+1 (63 valid pairs per word;
        // bit 63 of v ^ (v >> 1) compares lane 63 against zero fill and is
        // excluded).
        for net in nets.clone() {
            for &v in &buf[net][..words] {
                flips[net] += u64::from((v ^ (v >> 1)).count_ones()) - (v >> 63);
            }
        }
        done += words;
    }

    let (mut toggle_events, mut toggles_logic, mut toggles_signal) = (0u64, 0u64, 0u64);
    for net in nets {
        let f = flips[net];
        toggle_events += f;
        toggles_signal += f * fanout[net];
        if net >= base {
            toggles_logic += f;
        }
    }
    // The integer-to-f64 conversions are exact: every count stays far
    // below 2^53.
    let transitions = (63 * rounds * (n_in + program.luts.len())) as f64;
    let total_slots = (rounds * 63) as f64;
    // Energy per cycle = toggles/cycle * energy/toggle. Convert pJ * MHz
    // -> microwatts; divide by 1000 for milliwatts.
    let logic_rate = toggles_logic as f64 / total_slots;
    let signal_rate = toggles_signal as f64 / total_slots;
    let logic_mw = logic_rate * model.logic_energy_pj * model.clock_mhz / 1000.0;
    let signal_mw = signal_rate * model.signal_energy_pj * model.clock_mhz / 1000.0;
    let static_mw =
        model.static_base_mw + model.static_uw_per_lut * mapped.lut_count() as f64 / 1000.0;
    let mean_activity = if transitions > 0.0 {
        toggle_events as f64 / transitions
    } else {
        0.0
    };
    Ok(PowerReport {
        logic_mw,
        signal_mw,
        static_mw,
        mean_activity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bus, map_luts, optimize, MapStrategy, Netlist};

    fn mapped_adder(w: usize) -> MappedNetlist {
        let mut n = Netlist::new("add");
        let a = n.input_bus("a", w);
        let b = n.input_bus("b", w);
        let (s, c) = bus::ripple_carry_add(&mut n, &a, &b, None);
        n.output_bus("s", &s);
        n.output("c", c);
        map_luts(&optimize(&n), 6, MapStrategy::Depth).unwrap()
    }

    #[test]
    fn power_is_positive_and_repeatable() {
        let m = mapped_adder(8);
        let model = PowerModel::default();
        let p1 = estimate_power(&m, &model).unwrap();
        let p2 = estimate_power(&m, &model).unwrap();
        assert!(p1.total_mw() > 0.0);
        assert_eq!(p1, p2, "same seed must give identical results");
    }

    #[test]
    fn bigger_circuits_burn_more_power() {
        let small = estimate_power(&mapped_adder(4), &PowerModel::default()).unwrap();
        let large = estimate_power(&mapped_adder(32), &PowerModel::default()).unwrap();
        assert!(large.dynamic_mw() > small.dynamic_mw());
        assert!(large.static_mw > small.static_mw);
    }

    #[test]
    fn activity_of_random_logic_is_reasonable() {
        let m = mapped_adder(8);
        let p = estimate_power(&m, &PowerModel::default()).unwrap();
        assert!(p.mean_activity > 0.1 && p.mean_activity < 0.9, "{}", p.mean_activity);
    }

    #[test]
    fn higher_clock_means_more_dynamic_power() {
        let m = mapped_adder(8);
        let slow = estimate_power(
            &m,
            &PowerModel {
                clock_mhz: 100.0,
                ..PowerModel::default()
            },
        )
        .unwrap();
        let fast = estimate_power(
            &m,
            &PowerModel {
                clock_mhz: 400.0,
                ..PowerModel::default()
            },
        )
        .unwrap();
        assert!(fast.dynamic_mw() > slow.dynamic_mw());
        assert_eq!(fast.static_mw, slow.static_mw);
    }
}
