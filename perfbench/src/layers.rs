//! Traced replays of the synthesis path, built only from the layers'
//! public calls, and the per-layer metrics derived from their spans.

use crate::report::{Report, STAGE_POINTS};
use crate::stats::median;
use crate::trace::{attributed_frac, layer_totals, SpanRec, Tracer};
use clapped::accel::{build_datapath, AcceleratorSpec, CharacterizeConfig};
use clapped::axops::{Catalog, Mul8s};
use clapped::core::Clapped;
use clapped::dse::Configuration;
use clapped::imgproc::ConvMode;
use clapped::netlist::{estimate_power, map_luts, optimize, Netlist, PowerReport, SynthConfig};
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Work counted at the layer boundaries during a traced replay.
#[derive(Default)]
pub struct Counts {
    /// LUTs produced by every `map_luts` call.
    pub luts_mapped: AtomicU64,
    /// LUT evaluations performed by `estimate_power` (LUTs × 64 lanes ×
    /// rounds).
    pub power_lut_evals: AtomicU64,
    /// True hardware characterizations of a configuration.
    pub characterize_calls: AtomicU64,
    /// Characterizations of a configuration digest already seen in the
    /// same job.
    pub characterize_repeats: AtomicU64,
    /// Exhaustive operator tables built.
    pub tables_built: AtomicU64,
    /// Application-model runs.
    pub app_evals: AtomicU64,
    /// `step_batched` calls.
    pub dse_steps: AtomicU64,
    seen: Mutex<HashSet<u64>>,
}

impl Counts {
    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one application-model run.
    pub fn app_eval(&self) {
        Counts::add(&self.app_evals, 1);
    }

    /// Counts one exhaustive table.
    pub fn table(&self) {
        Counts::add(&self.tables_built, 1);
    }

    /// Counts one MBO step.
    pub fn step(&self) {
        Counts::add(&self.dse_steps, 1);
    }

    /// A counter's current value.
    pub fn load(counter: &AtomicU64) -> f64 {
        counter.load(Ordering::Relaxed) as f64
    }
}

/// What the replayed synthesis flow produced: the fields of the
/// program's `SynthReport` that its callers read.
#[derive(Debug, Clone)]
pub struct SynthOut {
    /// Mapped LUTs.
    pub lut_count: usize,
    /// Critical-path delay.
    pub cpd_ns: f64,
    /// Power report.
    pub power: PowerReport,
}

/// `clapped::netlist::synthesize`, replayed stage by stage: optimize,
/// LUT mapping, random-vector mapping verification, timing and power.
///
/// # Errors
///
/// A stage failure, or a configuration asking for formal verification
/// (not part of the replayed flow).
pub fn synthesize_traced(
    tr: &Tracer,
    counts: &Counts,
    netlist: &Netlist,
    cfg: &SynthConfig,
) -> Result<SynthOut, String> {
    if cfg.formal_verify_limit.is_some() {
        return Err("formal verification is not replayed".to_string());
    }
    let opt = tr.span("netlist.optimize", || optimize(netlist));
    let mapped = tr
        .span("netlist.map", || map_luts(&opt, cfg.k, cfg.strategy))
        .map_err(|e| e.to_string())?;
    Counts::add(&counts.luts_mapped, mapped.lut_count() as u64);
    if cfg.verify_rounds > 0 {
        tr.span("netlist.verify", || -> Result<(), String> {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(cfg.seed);
            for _ in 0..cfg.verify_rounds {
                let words: Vec<u64> = (0..opt.inputs().len()).map(|_| rng.gen()).collect();
                let want = opt.simulate_words(&words).map_err(|e| e.to_string())?;
                let got = mapped.simulate_words(&words).map_err(|e| e.to_string())?;
                if want != got {
                    return Err("mapped netlist differs from the optimized netlist".to_string());
                }
            }
            Ok(())
        })?;
    }
    let cpd_ns = tr.span("netlist.timing", || {
        std::hint::black_box(cfg.timing.fmax_mhz(&mapped));
        cfg.timing.critical_path_ns(&mapped)
    });
    let power = tr
        .span("netlist.power", || estimate_power(&mapped, &cfg.power))
        .map_err(|e| e.to_string())?;
    Counts::add(
        &counts.power_lut_evals,
        power_lut_evals(mapped.lut_count(), cfg),
    );
    Ok(SynthOut {
        lut_count: mapped.lut_count(),
        cpd_ns,
        power,
    })
}

fn power_lut_evals(luts: usize, cfg: &SynthConfig) -> u64 {
    (luts * 64 * cfg.power.rounds.max(1)) as u64
}

/// `Clapped::characterize_hw`, replayed: the accelerator spec, the
/// datapath build and the synthesis stages. Returns the LUT count, the
/// only field the exploration reads.
///
/// # Errors
///
/// Datapath or synthesis failures.
pub fn characterize_traced(
    tr: &Tracer,
    counts: &Counts,
    fw: &Clapped,
    config: &Configuration,
) -> Result<usize, String> {
    Counts::add(&counts.characterize_calls, 1);
    let fresh = counts
        .seen
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(fw.config_digest(config));
    if !fresh {
        Counts::add(&counts.characterize_repeats, 1);
    }
    tr.span("accel.characterize", || {
        let spec = fw.accel_spec(config);
        let cfg = fw.characterization();
        let datapath = tr
            .span("accel.build_datapath", || build_datapath(&spec, cfg.shift))
            .map_err(|e| e.to_string())?;
        synthesize_traced(tr, counts, &datapath, &cfg.synth).map(|s| s.lut_count)
    })
}

/// Whether a span name belongs to a program layer rather than to the
/// benchmark's own glue.
pub fn is_layer(name: &str) -> bool {
    !name.starts_with("bench.")
}

/// Fills the span-derived per-layer metrics of `report`.
pub fn layer_metrics(report: &mut Report, spans: &[SpanRec], counts: &Counts) {
    let totals = layer_totals(spans);
    let self_s = |name: &str| totals.get(name).map_or(0.0, |t| t.0);
    for (metric, span) in [
        ("netlist.optimize_s", "netlist.optimize"),
        ("netlist.map_s", "netlist.map"),
        ("netlist.verify_s", "netlist.verify"),
        ("netlist.timing_s", "netlist.timing"),
        ("netlist.power_s", "netlist.power"),
        ("netlist.lint_s", "netlist.lint"),
        ("netlist.errbound_s", "netlist.errbound"),
        ("accel.build_datapath_s", "accel.build_datapath"),
        ("axops.build_netlist_s", "axops.build_netlist"),
        ("axops.table_s", "axops.table"),
        ("imgproc.app_eval_s", "imgproc.app_eval"),
        ("mlp.train_s", "mlp.train"),
        ("mlp.predict_s", "mlp.predict"),
        ("core.instantiate_s", "core.instantiate"),
        ("core.op_library_s", "core.op_library"),
        ("core.encode_s", "core.encode"),
        ("dse.step_self_s", "dse.step"),
        ("exec.lookup_s", "exec.lookup"),
    ] {
        report.set(metric, self_s(span));
    }
    let power_s = self_s("netlist.power");
    let evals = Counts::load(&counts.power_lut_evals);
    report.set(
        "netlist.power_lut_evals_per_s",
        if power_s > 0.0 { evals / power_s } else { 0.0 },
    );
    report.set("netlist.luts_mapped", Counts::load(&counts.luts_mapped));
    let calls = Counts::load(&counts.characterize_calls);
    report.set("accel.characterize_calls", calls);
    let repeats = Counts::load(&counts.characterize_repeats);
    report.set(
        "accel.repeat_frac",
        if calls > 0.0 { repeats / calls } else { 0.0 },
    );
    report.set("axops.tables_built", Counts::load(&counts.tables_built));
    report.set("imgproc.app_evals", Counts::load(&counts.app_evals));
    report.set("dse.steps", Counts::load(&counts.dse_steps));
    report.set(
        "bench.attributed_frac",
        attributed_frac(spans, "bench.job", is_layer),
    );
}

/// The self-time ledger of a traced run, largest first, for the log.
pub fn ledger_table(spans: &[SpanRec]) -> String {
    let mut rows: Vec<(&str, f64, u64)> = layer_totals(spans)
        .into_iter()
        .map(|(n, (s, c))| (n, s, c))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut out = String::from("  self time by span (thread-seconds; engine threads summed)\n");
    for (name, s, count) in rows {
        out.push_str(&format!("  {name:<28} {s:>12.4} s {count:>9} spans\n"));
    }
    out
}

/// The netlist stage table: optimize / map / power times and power
/// LUT-evals/s on three fixed design points — one exact 8×8 operator,
/// the all-exact 3×3 separable datapath and the all-exact 3×3 2-D
/// datapath (the largest in the space). Each stage is timed `reps`
/// times and the median kept.
pub fn stage_table(report: &mut Report, reps: usize) -> Result<String, String> {
    let catalog = Catalog::standard();
    let exact = catalog.at(0).ok_or("empty catalog")?;
    let cfg = CharacterizeConfig::default();
    let separable = AcceleratorSpec {
        image_size: 32,
        window: 3,
        stride: 1,
        downsample: false,
        mode: ConvMode::Separable,
        muls: vec![exact.clone(); 6],
    };
    let netlists = [
        exact.netlist().clone(),
        build_datapath(&separable, cfg.shift).map_err(|e| e.to_string())?,
        build_datapath(&AcceleratorSpec::uniform_2d(32, 3, &exact), cfg.shift)
            .map_err(|e| e.to_string())?,
    ];
    let synth = &cfg.synth;
    let mut out = format!(
        "  netlist stage table ({} = {}; median of {reps})\n  {:<6} {:>6} {:>12} {:>12} {:>12} {:>16}\n",
        "mul8",
        Mul8s::name(exact.as_ref()),
        "point",
        "LUTs",
        "optimize s",
        "map s",
        "power s",
        "LUT-evals/s"
    );
    for (point, netlist) in STAGE_POINTS.iter().zip(&netlists) {
        let (mut t_opt, mut t_map, mut t_pow) = (Vec::new(), Vec::new(), Vec::new());
        let mut luts = 0;
        for _ in 0..reps {
            let t = Instant::now();
            let opt = optimize(netlist);
            t_opt.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let mapped = map_luts(&opt, synth.k, synth.strategy).map_err(|e| e.to_string())?;
            t_map.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            std::hint::black_box(estimate_power(&mapped, &synth.power).map_err(|e| e.to_string())?);
            t_pow.push(t.elapsed().as_secs_f64());
            luts = mapped.lut_count();
        }
        let (o, m, p) = (median(&t_opt), median(&t_map), median(&t_pow));
        let rate = power_lut_evals(luts, synth) as f64 / p;
        report.set(&format!("stage.{point}.optimize_s"), o);
        report.set(&format!("stage.{point}.map_s"), m);
        report.set(&format!("stage.{point}.power_s"), p);
        report.set(&format!("stage.{point}.power_lut_evals_per_s"), rate);
        out.push_str(&format!(
            "  {point:<6} {luts:>6} {o:>12.6} {m:>12.6} {p:>12.6} {rate:>16.0}\n"
        ));
    }
    Ok(out)
}
