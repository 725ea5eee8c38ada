//! `cold_dse`: the `dse_pareto` recipe, with fewer training labels and
//! no re-evaluation of the front, as cold `explore` calls on fresh
//! frameworks.
//!
//! The framework (image 32, noise 12, framework seed 5) is built fresh
//! with an empty cache; ML surrogates for error and LUTs are trained on
//! 40 true labels (`dse_pareto` uses 120) and MBO runs 20 + 6 × 10
//! evaluations over 50 candidates. The benchmark seed is the MBO search
//! seed. The training configurations come from the framework seed, so
//! every seed synthesizes the same 40 netlists: the job's cost does not
//! depend on the seed. Re-evaluating the front with the true estimators
//! (as `dse_pareto` does) would add a seed-dependent number of
//! syntheses of seed-dependent size.
//!
//! An untraced run runs one job after another, each in a fresh process
//! so that no job finds the process-wide memos of an earlier one warm,
//! until `--seconds` is spent, and reports medians over its jobs. A job
//! takes about a quarter of the `dse_pareto` job, so a run holds
//! several and a slow stretch of a shared host moves the median little.

use crate::catalog;
use crate::layers::{characterize_traced, layer_metrics, ledger_table, stage_table, Counts};
use crate::report::{JobResult, Report};
use crate::stats::{median, Fnv};
use crate::sys;
use crate::trace::Tracer;
use crate::{Args, ENGINE_JOBS};
use clapped::core::{
    explore, Clapped, EstimationMode, ExecConfig, ExploreOptions, ExploreResult, MulRepr,
};
use clapped::dse::{hypervolume, BatchOutcome, Configuration, MboConfig, MboState, SearchResult};
use clapped::mlp::Regressor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// The seed whose outputs are pinned by goldens (`dse_pareto`'s MBO
/// seed).
pub const DEFAULT_SEED: u64 = 11;
const FRAMEWORK_SEED: u64 = 5;
const REFERENCE: [f64; 2] = [30.0, 4000.0];
/// True labels each surrogate is trained on.
const TRAINING_SAMPLES: usize = 40;
/// Digest of the default seed's front (configurations plus objective
/// bits).
const GOLDEN_FRONT_DIGEST: u64 = 0x8ef6_668c_45a4_c545;
/// Hypervolume of the default seed's front.
const GOLDEN_FRONT_HV: f64 = 105473.49318595203;

fn options(seed: u64) -> ExploreOptions {
    ExploreOptions {
        error_mode: EstimationMode::Ml,
        hw_mode: EstimationMode::Ml,
        repr: MulRepr::Coeffs(4),
        training_samples: TRAINING_SAMPLES,
        mbo: MboConfig {
            initial_samples: 20,
            iterations: 6,
            batch: 10,
            candidates: 50,
            reference: REFERENCE.to_vec(),
            kappa: 1.0,
            explore_fraction: 0.1,
            seed,
        },
        actual_eval: false,
        ..ExploreOptions::default()
    }
}

/// Builds the framework and characterizes its operator library: the
/// set-up a user pays before `explore`.
pub fn setup(tr: Option<&Tracer>) -> Result<Clapped, String> {
    let build = || {
        Clapped::builder()
            .image_size(32)
            .noise_sigma(12.0)
            .seed(FRAMEWORK_SEED)
            .exec(ExecConfig::with_jobs(ENGINE_JOBS))
            .build()
    };
    let fw = match tr {
        Some(tr) => tr.span("core.instantiate", build),
        None => build(),
    }
    .map_err(|e| e.to_string())?;
    match tr {
        Some(tr) => tr.span("core.op_library", || fw.op_library().map(|_| ())),
        None => fw.op_library().map(|_| ()),
    }
    .map_err(|e| e.to_string())?;
    Ok(fw)
}

/// The delivered Pareto points: configuration and searched objectives.
type Front = Vec<(Configuration, [f64; 2])>;

fn front_of(result: &ExploreResult) -> Front {
    result
        .pareto
        .iter()
        .map(|p| (p.config.clone(), p.searched))
        .collect()
}

fn front_digest(front: &Front) -> u64 {
    let mut h = Fnv::default();
    for (c, objs) in front {
        h.bytes(format!("{c:?}").as_bytes());
        for v in objs {
            h.f64(*v);
        }
    }
    h.finish()
}

fn front_hv(front: &Front) -> f64 {
    let objs: Vec<Vec<f64>> = front.iter().map(|(_, o)| o.to_vec()).collect();
    hypervolume(&objs, &REFERENCE)
}

/// Output checks every run makes on an `explore` result.
fn check_result(report: &mut Report, seed: u64, result: &ExploreResult, opts: &ExploreOptions) {
    let front = front_of(result);
    let planned = opts.mbo.initial_samples + opts.mbo.iterations * opts.mbo.batch;
    for (_, objs) in &result.search.evaluated {
        report
            .ledger
            .record(objs.iter().all(|v| *v < f64::MAX / 8.0));
    }
    report.check(result.search.evaluated.len() == planned, || {
        format!(
            "{} evaluations, planned {planned}",
            result.search.evaluated.len()
        )
    });
    report.check(
        !front.is_empty() && front.iter().all(|(_, o)| o.iter().all(|v| v.is_finite())),
        || "front is empty or has a non-finite objective".to_string(),
    );
    if seed == DEFAULT_SEED {
        let digest = front_digest(&front);
        report.check(digest == GOLDEN_FRONT_DIGEST, || {
            format!("front digest {digest:#018x}, golden {GOLDEN_FRONT_DIGEST:#018x}")
        });
        let hv = front_hv(&front);
        report.check(hv.to_bits() == GOLDEN_FRONT_HV.to_bits(), || {
            format!("front hypervolume {hv:?}, golden {GOLDEN_FRONT_HV:?}")
        });
    }
}

/// Digest of everything a search delivers: every evaluated
/// configuration with its objective bits, then the front.
fn output_digest(evaluated: &[(Configuration, Vec<f64>)], front: &Front) -> u64 {
    let mut h = Fnv::default();
    for (c, objs) in evaluated {
        h.bytes(format!("{c:?}").as_bytes());
        for v in objs {
            h.f64(*v);
        }
    }
    h.u64(front_digest(front));
    h.finish()
}

/// The untraced run: cold jobs in fresh processes, one after another,
/// while the next one is expected to end within `--seconds` (at least
/// one). Every job runs the same inputs, so all must deliver the same
/// search and front.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::new();
    let t0 = Instant::now();
    let mut setups = Vec::new();
    let mut jobs: Vec<JobResult> = Vec::new();
    loop {
        let child = sys::fresh_job("cold_dse", args.seed)?;
        setups.push(child.setup_s);
        jobs.push(report.absorb_job(&child.lines)?);
        let spent = t0.elapsed().as_secs_f64();
        if spent + spent / jobs.len() as f64 > args.seconds {
            break;
        }
    }
    let first = jobs[0];
    for (k, j) in jobs.iter().enumerate().skip(1) {
        report.check(
            j.digest == first.digest && j.hv.to_bits() == first.hv.to_bits(),
            || format!("job {k} delivered another search or front than job 0"),
        );
    }
    let job_times: Vec<f64> = jobs.iter().map(|j| j.job_s).collect();
    let rss: Vec<f64> = jobs.iter().map(|j| j.peak_rss_mb).collect();
    println!(
        "  {} cold jobs in fresh processes, job_s {job_times:.3?}",
        jobs.len()
    );
    report.set_serial_job_metrics(median(&setups), median(&job_times), first.hv, median(&rss));
    Ok(report)
}

/// The `--job cold_dse <seed>` mode: set-up in this fresh process, then
/// `ready()`, then one untraced `explore` with every output check,
/// printed as [`Report::job_lines`].
pub fn job(seed: u64, ready: impl FnOnce()) -> Result<String, String> {
    let opts = options(seed);
    let mut report = Report::new();
    let fw = setup(None)?;
    ready();
    let (cpu0, t) = (sys::self_cpu_s(), Instant::now());
    let result = explore(&fw, &opts);
    let job_s = t.elapsed().as_secs_f64();
    let busy = (sys::self_cpu_s() - cpu0) / (job_s * sys::nproc() as f64);
    let (digest, hv) = match result {
        Ok(result) => {
            check_result(&mut report, seed, &result, &opts);
            let front = front_of(&result);
            (
                output_digest(&result.search.evaluated, &front),
                front_hv(&front),
            )
        }
        Err(e) => {
            report.check(false, || format!("explore failed: {e}"));
            (0, 0.0)
        }
    };
    Ok(report.job_lines(&JobResult {
        job_s,
        busy,
        digest,
        hv,
        peak_rss_mb: sys::peak_rss_mb(None),
    }))
}

/// `explore`, replayed through the layers' public calls with a span
/// around each; mirrors the ML/ML path of `clapped::core::explore`.
fn replay_explore(
    tr: &Tracer,
    counts: &Counts,
    fw: &Clapped,
    opts: &ExploreOptions,
) -> Result<(SearchResult<Configuration>, Front), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    // Behavioural training set.
    let mut rng = ChaCha8Rng::seed_from_u64(fw.seed() ^ 0x7777);
    let configs: Vec<Configuration> = (0..opts.training_samples)
        .map(|_| fw.space().sample(&mut rng))
        .collect();
    let labels = tr.span("bench.batch", || {
        let ctx = tr.ctx();
        fw.engine().evaluate_many(&configs, |_, c| {
            counts.app_eval();
            tr.span_under(ctx, "imgproc.app_eval", || fw.evaluate_error(c))
        })
    });
    let mut ys = Vec::with_capacity(labels.len());
    for r in labels {
        ys.push(r.map_err(|e| err(&e))?.error_percent);
    }
    let xs: Vec<Vec<f64>> = configs
        .iter()
        .map(|c| tr.span("core.encode", || fw.encode(c, opts.repr)))
        .collect();
    let err_model = tr
        .span("mlp.train", || {
            Regressor::fit(&xs, &ys, &[32, 16], &opts.train)
        })
        .map_err(|e| err(&e))?;
    // Hardware training set: true synthesis of the same configurations.
    let mut lut_ys = Vec::with_capacity(configs.len());
    let mut hw_xs = Vec::with_capacity(configs.len());
    for c in &configs {
        lut_ys.push(characterize_traced(tr, counts, fw, c)? as f64);
        hw_xs.push(
            tr.span("core.encode", || fw.encode_hw(c))
                .map_err(|e| err(&e))?,
        );
    }
    let lut_model = tr
        .span("mlp.train", || {
            Regressor::fit(&hw_xs, &lut_ys, &[32, 16], &opts.train)
        })
        .map_err(|e| err(&e))?;

    let objective = |c: &Configuration| -> Vec<f64> {
        let x = tr.span("core.encode", || fw.encode(c, opts.repr));
        let e = tr.span("mlp.predict", || err_model.predict(&x));
        let luts = match tr.span("core.encode", || fw.encode_hw(c)) {
            Ok(x) => tr.span("mlp.predict", || lut_model.predict(&x)),
            Err(_) => f64::MAX / 4.0,
        };
        vec![e.max(0.0), luts.max(0.0)]
    };
    let hw_ready = fw.op_library().is_ok();
    let surrogate_features = |c: &Configuration| -> Vec<f64> {
        tr.span("core.encode", || {
            let mut v = fw.encode(c, opts.repr);
            if hw_ready {
                if let Ok(h) = fw.encode_hw(c) {
                    v.extend(h);
                }
            }
            v
        })
    };
    let space = fw.space().clone();
    let mut sample = move |rng: &mut ChaCha8Rng| space.sample(rng);
    let mut evaluate_batch = |cs: &[Configuration]| -> Vec<BatchOutcome> {
        tr.span("bench.batch", || {
            let ctx = tr.ctx();
            fw.engine().evaluate_many(cs, |_, c| {
                tr.span_under(ctx, "bench.objective", || BatchOutcome::Value {
                    objectives: objective(c),
                    digest: fw.config_digest(c),
                })
            })
        })
    };
    let mut state = MboState::new(&opts.mbo).map_err(|e| err(&e))?;
    while !state.is_complete() {
        counts.step();
        tr.span("dse.step", || {
            state.step_batched(&mut sample, &surrogate_features, &mut evaluate_batch)
        })
        .map_err(|e| err(&e))?;
    }
    let search = state.into_result();

    let front = search
        .pareto_indices()
        .into_iter()
        .map(|idx| {
            let (config, obj) = &search.evaluated[idx];
            (config.clone(), [obj[0], obj[1]])
        })
        .collect();
    Ok((search, front))
}

/// The traced run: a traced set-up and replay in this fresh process,
/// checked against the untraced program run of a fresh `--job`
/// process, whose job time is the base of `bench.trace_overhead_frac`.
pub fn run_traced(args: &Args, tr: &Tracer) -> Result<Report, String> {
    let opts = options(args.seed);
    let mut report = Report::new();
    let counts = Counts::default();
    let fw = tr.job(0, "bench.setup", || setup(Some(tr)))?;
    let t = Instant::now();
    let replay = tr.job(1, "bench.job", || replay_explore(tr, &counts, &fw, &opts));
    let traced_s = t.elapsed().as_secs_f64();
    drop(fw);
    let child = sys::fresh_job("cold_dse", args.seed)?;
    let untraced = report.absorb_job(&child.lines)?;
    match replay {
        Ok((search, front)) => report.check(
            output_digest(&search.evaluated, &front) == untraced.digest,
            || "replayed search or front differs from explore".to_string(),
        ),
        Err(e) => report.check(false, || format!("replay failed: {e}")),
    }
    let spans = tr.spans();
    layer_metrics(&mut report, &spans, &counts);
    report.set("process.cpu_busy_frac", untraced.busy);
    report.set("bench.trace_overhead_frac", traced_s / untraced.job_s - 1.0);
    println!("{}", ledger_table(&spans));
    let witness = catalog::witness(&mut report, tr);
    println!("  quick catalog witness\n{}", ledger_table(&witness));
    println!("{}", stage_table(&mut report, 5)?);
    Ok(report)
}
