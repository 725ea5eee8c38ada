//! The generative-catalog witness of the traced `cold_dse` run.
//!
//! `explore` barely touches the operator layers: netlist generation,
//! exhaustive tables, lint and static error bounds. The traced
//! `cold_dse` run therefore also replays a cold
//! `GenerativeCatalog::build` of `GenSpace::quick()` through those
//! layers' public calls (as its own job, so its spans stay out of the
//! exploration's figures) and checks the replay against the program's
//! own build of the same space.

use crate::layers::{synthesize_traced, Counts};
use crate::report::Report;
use crate::stats::Fnv;
use crate::trace::{layer_totals, SpanRec, Tracer};
use crate::ENGINE_JOBS;
use clapped::axops::{
    build_mul_table, gen_cache_in_memory, spec_digest, table_digest, GenFeatures, GenRecord,
    GenSpace, GenSpec, GenerativeCatalog, MulArch,
};
use clapped::exec::{Engine, ExecConfig, ResultCache};
use clapped::netlist::{analyze_error_bounds, lint_netlist, ErrBoundConfig, SynthConfig};
use std::collections::BTreeSet;

/// Job id of the witness's spans.
pub const WITNESS_JOB: u64 = 2;
/// Record-cache capacity: room for every spec of the quick space.
const CACHE_CAPACITY: usize = 1024;
/// Distinct operators of the quick space.
const GOLDEN_DISTINCT: usize = 89;
/// Digest of the deduplicated entries (name, architecture, behaviour
/// digest and every feature bit, in catalog order).
const GOLDEN_DIGEST: u64 = 0x7c63_4506_cccc_3aec;

/// The catalog's output as the checks see it: (name, behaviour digest,
/// features) per distinct entry, in catalog order.
type Entries = Vec<(String, u64, Vec<f64>)>;

fn entries_of(cat: &GenerativeCatalog) -> Entries {
    cat.entries()
        .iter()
        .map(|e| {
            (
                format!("{}|{:?}", e.name, e.arch),
                e.behaviour_digest,
                e.features.to_vec(),
            )
        })
        .collect()
}

fn digest(entries: &Entries) -> u64 {
    let mut h = Fnv::default();
    for (name, d, f) in entries {
        h.bytes(name.as_bytes()).u64(*d);
        for v in f {
            h.f64(*v);
        }
    }
    h.finish()
}

/// The witness: a traced replay of the quick catalog build, then the
/// program's untraced build, which the replay must equal. Sets the
/// operator-layer metrics from the replay's spans and returns those
/// spans.
pub fn witness(report: &mut Report, tr: &Tracer) -> Vec<SpanRec> {
    let space = GenSpace::quick();
    let engine = Engine::new(ExecConfig::with_jobs(ENGINE_JOBS));
    let counts = Counts::default();
    let replay = tr.job(WITNESS_JOB, "bench.catalog", || {
        replay_build(
            tr,
            &counts,
            &space,
            &engine,
            &gen_cache_in_memory(CACHE_CAPACITY),
        )
    });
    let cat = GenerativeCatalog::build(&space, &engine, &gen_cache_in_memory(CACHE_CAPACITY));
    let stats = cat.stats();
    report.check(
        stats.raw_specs == space.len() && stats.lint_rejects + stats.synth_rejects == 0,
        || format!("quick catalog build counters: {stats:?}"),
    );
    let program = entries_of(&cat);
    let d = digest(&program);
    report.check(
        program.len() == GOLDEN_DISTINCT && d == GOLDEN_DIGEST,
        || {
            format!(
                "quick catalog: {} distinct, digest {d:#018x}; golden {GOLDEN_DISTINCT}, {GOLDEN_DIGEST:#018x}",
                program.len()
            )
        },
    );
    report.check(digest(&replay) == d, || {
        format!(
            "replayed quick catalog ({} entries) differs from the program's ({})",
            replay.len(),
            program.len()
        )
    });
    let spans: Vec<SpanRec> = tr
        .spans()
        .into_iter()
        .filter(|s| s.job == WITNESS_JOB)
        .collect();
    let totals = layer_totals(&spans);
    let self_s = |name: &str| totals.get(name).map_or(0.0, |t| t.0);
    for (metric, span) in [
        ("axops.build_netlist_s", "axops.build_netlist"),
        ("axops.table_s", "axops.table"),
        ("netlist.lint_s", "netlist.lint"),
        ("netlist.errbound_s", "netlist.errbound"),
    ] {
        report.set(metric, self_s(span));
    }
    report.set("axops.tables_built", Counts::load(&counts.tables_built));
    spans
}

fn table_err(table: &[i16], idx: usize) -> f64 {
    let a = (idx >> 8) as u8 as i8;
    let b = (idx & 0xff) as u8 as i8;
    f64::from(i32::from(table[idx]) - i32::from(a) * i32::from(b))
}

/// The table statistics of a [`GenFeatures`] record, as the catalog
/// computes them.
fn table_stats(table: &[i16]) -> [f64; 5] {
    let n = table.len() as f64;
    let errs = || (0..table.len()).map(|i| table_err(table, i));
    [
        errs().map(f64::abs).sum::<f64>() / n,
        (errs().map(|e| e.powi(2)).sum::<f64>() / n).sqrt(),
        errs().filter(|&e| e != 0.0).count() as f64 / n,
        errs().map(f64::abs).fold(0.0, f64::max),
        errs().sum::<f64>() / n,
    ]
}

/// One spec of `GenerativeCatalog::build`, replayed through public
/// calls.
fn replay_spec(
    tr: &Tracer,
    counts: &Counts,
    cache: &ResultCache<GenRecord>,
    exact_ref: &clapped::netlist::Netlist,
    spec: &GenSpec,
) -> Option<GenRecord> {
    let key = spec_digest(&spec.arch);
    if let Some(rec) = tr.span("exec.lookup", || cache.get(key)) {
        return Some(rec);
    }
    let synth_cfg = SynthConfig {
        verify_rounds: 0,
        formal_verify_limit: None,
        ..SynthConfig::default()
    };
    let errbound_cfg = ErrBoundConfig {
        bdd_node_limit: 0,
        signed_outputs: true,
    };
    let netlist = tr.span("axops.build_netlist", || spec.arch.build_netlist());
    let lint = tr.span("netlist.lint", || lint_netlist(&netlist));
    if !lint.is_clean() {
        return None;
    }
    let table = tr.span("axops.table", || build_mul_table(&netlist));
    counts.table();
    let synth = synthesize_traced(tr, counts, &netlist, &synth_cfg).ok()?;
    let bounds = tr.span("netlist.errbound", || {
        analyze_error_bounds(&netlist, exact_ref, &errbound_cfg)
    });
    let (proved_wce, proved_error_rate) = match &bounds {
        Ok(b) => (b.best_wce() as f64, b.proved_error_rate()),
        Err(_) => (f64::from(u16::MAX), 1.0),
    };
    let rec = tr.span("axops.table_stats", || {
        let [mae, rms, error_prob, max_abs_error, mean_error] = table_stats(&table);
        let stats = &lint.stats;
        let power_mw = synth.power.total_mw();
        GenRecord {
            behaviour_digest: table_digest(&table),
            features: GenFeatures {
                mae,
                rms,
                error_prob,
                max_abs_error,
                mean_error,
                logic_gates: stats.logic_gates as f64,
                depth: f64::from(stats.depth),
                max_fanout: f64::from(stats.max_fanout),
                mean_fanout: stats.mean_fanout,
                luts: synth.lut_count as f64,
                delay_ns: synth.cpd_ns,
                power_mw,
                pdp_pj: power_mw * synth.cpd_ns,
                proved_wce,
                proved_error_rate,
            },
        }
    });
    tr.span("exec.lookup", || cache.insert(key, rec.clone()));
    Some(rec)
}

/// `GenerativeCatalog::build`, replayed: the same per-spec flow on the
/// same engine, then the same first-wins deduplication.
fn replay_build(
    tr: &Tracer,
    counts: &Counts,
    space: &GenSpace,
    engine: &Engine,
    cache: &ResultCache<GenRecord>,
) -> Entries {
    let exact_ref = tr.span("axops.build_netlist", || MulArch::Exact.build_netlist());
    let records = tr.span("bench.batch", || {
        let ctx = tr.ctx();
        engine.evaluate_many(space.specs(), |_, spec| {
            tr.span_under(ctx, "bench.spec", || {
                replay_spec(tr, counts, cache, &exact_ref, spec)
            })
        })
    });
    let mut seen = BTreeSet::new();
    let mut entries = Vec::new();
    for (spec, rec) in space.specs().iter().zip(records) {
        let Some(rec) = rec else { continue };
        if seen.insert(rec.behaviour_digest) {
            entries.push((
                format!("{}|{:?}", spec.name, spec.arch),
                rec.behaviour_digest,
                rec.features.to_vec(),
            ));
        }
    }
    entries
}
