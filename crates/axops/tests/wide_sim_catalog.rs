//! Wide-word equivalence over the whole operator catalog: for every
//! standard multiplier netlist, `simulate_blocks::<W>` must be
//! bit-identical to lane-by-lane `simulate_words` for
//! W ∈ {1, 2, 4, 8, 16} (partial final blocks included), the wide
//! exhaustive table builder must reproduce the 64-lane reference table
//! exactly, the sharded stuck-at campaign must report every site exactly
//! as the serial reference does, and a faulted table must equal the
//! reference table of the netlist with the stuck net tied to a constant.

use clapped_axops::{
    build_mul_table, build_mul_table_ref64, build_mul_table_with_faults, Catalog, Mul8s,
};
use clapped_exec::{Engine, ExecConfig};
use clapped_netlist::{live_cone, FaultKind, FaultSet, Gate, Netlist, SignalId};

/// Deterministic xorshift stimulus — no RNG crates in test inputs.
struct Stim(u64);

impl Stim {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn assert_blocks_match_words<const W: usize>(n: &Netlist, name: &str, stim: &mut Stim) {
    let n_inputs = n.inputs().len();
    // One partial and one full block per width.
    for batches in [1, W] {
        let word_batches: Vec<Vec<u64>> =
            (0..batches).map(|_| (0..n_inputs).map(|_| stim.next()).collect()).collect();
        let blocks: Vec<[u64; W]> = (0..n_inputs)
            .map(|k| {
                let mut block = [0u64; W];
                for (w, batch) in word_batches.iter().enumerate() {
                    block[w] = batch[k];
                }
                block
            })
            .collect();
        let wide = n.simulate_blocks::<W>(&blocks).expect("wide simulates");
        for (w, batch) in word_batches.iter().enumerate() {
            let narrow = n.simulate_words(batch).expect("narrow simulates");
            for (k, out) in wide.iter().enumerate() {
                assert_eq!(out[w], narrow[k], "{name}: W={W} word={w} output={k}");
            }
        }
    }
}

#[test]
fn catalog_wide_blocks_match_words_for_all_widths() {
    let cat = Catalog::standard();
    assert!(cat.len() >= 24, "standard catalog shrank unexpectedly");
    let mut stim = Stim(0x9E3779B97F4A7C15);
    for m in cat.iter() {
        let name = Mul8s::name(&**m).to_string();
        let n = m.netlist();
        assert_blocks_match_words::<1>(n, &name, &mut stim);
        assert_blocks_match_words::<2>(n, &name, &mut stim);
        assert_blocks_match_words::<4>(n, &name, &mut stim);
        // The production widths: campaigns and streamsim run W = 8,
        // table derivation runs W = 16.
        assert_blocks_match_words::<8>(n, &name, &mut stim);
        assert_blocks_match_words::<16>(n, &name, &mut stim);
    }
}

#[test]
fn catalog_wide_tables_match_ref64_tables() {
    let cat = Catalog::standard();
    for m in cat.iter() {
        let name = Mul8s::name(&**m).to_string();
        let n = m.netlist();
        assert_eq!(
            build_mul_table(n),
            build_mul_table_ref64(n),
            "{name}: wide table diverges from 64-lane reference"
        );
    }
}

#[test]
fn catalog_campaigns_match_reference() {
    let engine = Engine::new(ExecConfig::with_jobs(2));
    let mut stim = Stim(0xD1B5_4A32_D192_ED03);
    for m in Catalog::standard().iter() {
        let name = Mul8s::name(&**m).to_string();
        let n = m.netlist();
        let batches: Vec<Vec<u64>> =
            (0..3).map(|_| (0..n.inputs().len()).map(|_| stim.next()).collect()).collect();
        let sites = n.fault_sites();
        let wide = n.stuck_at_campaign_with(&sites, &batches, 64, &engine).expect("campaign runs");
        let reference = n.stuck_at_campaign_ref(&sites, &batches, 64).expect("reference runs");
        assert_eq!(wide.sites, reference.sites, "{name}: site reports diverge from the reference");
        assert_eq!(wide.samples, reference.samples, "{name}");
        assert_eq!(wide.ranked_sites(), reference.ranked_sites(), "{name}");
    }
}

/// `n` with the gate driving `site` replaced by the constant `value`:
/// a structural stuck-at that shares no code with the fault masks.
fn tie_to_constant(n: &Netlist, site: SignalId, value: bool) -> Netlist {
    let mut gates = n.gates().to_vec();
    gates[site.index()] = Gate::Const(value);
    Netlist::from_parts(n.name(), gates, n.inputs().to_vec(), n.outputs().to_vec())
}

#[test]
fn catalog_faulted_tables_match_tied_netlists() {
    let mut stim = Stim(0x2545_F491_4F6C_DD1D);
    for m in Catalog::standard().iter() {
        let name = Mul8s::name(&**m).to_string();
        let n = m.netlist();
        let healthy = build_mul_table(n);
        // One logic net inside the output cone, picked by the stimulus.
        let live = live_cone(n);
        let logic: Vec<SignalId> = (0..n.len())
            .filter(|&i| live[i] && !matches!(n.gates()[i], Gate::Input { .. } | Gate::Const(_)))
            .map(SignalId::from_index)
            .collect();
        let site = logic[(stim.next() % logic.len() as u64) as usize];
        let mut corrupted = false;
        for (kind, value) in [(FaultKind::StuckAt0, false), (FaultKind::StuckAt1, true)] {
            let faulted = build_mul_table_with_faults(n, &FaultSet::empty().stuck_at(site, kind))
                .expect("valid fault site");
            let tied = build_mul_table_ref64(&tie_to_constant(n, site, value));
            assert_eq!(faulted, tied, "{name}: net {} {kind:?}", site.index());
            corrupted |= faulted != healthy;
        }
        assert!(corrupted, "{name}: no stuck-at on live net {} changes the table", site.index());
    }
}
