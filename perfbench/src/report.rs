//! Metric names, units and the result line.

use crate::stats::Ledger;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_s", "s"),
    ("job_p50_s", "s"),
    ("max_jobs_per_s", "1/s"),
    ("front_hv", "hv"),
    ("peak_rss_mb", "MB"),
];

/// The three fixed design points of the netlist stage table.
pub const STAGE_POINTS: &[&str] = &["mul8", "sep3", "twod3"];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.optimize_s", "s"),
    ("netlist.map_s", "s"),
    ("netlist.verify_s", "s"),
    ("netlist.timing_s", "s"),
    ("netlist.power_s", "s"),
    ("netlist.power_lut_evals_per_s", "1/s"),
    ("netlist.luts_mapped", "count"),
    ("netlist.lint_s", "s"),
    ("netlist.errbound_s", "s"),
    ("accel.build_datapath_s", "s"),
    ("accel.characterize_calls", "count"),
    ("accel.repeat_frac", "ratio"),
    ("axops.build_netlist_s", "s"),
    ("axops.table_s", "s"),
    ("axops.tables_built", "count"),
    ("imgproc.app_eval_s", "s"),
    ("imgproc.app_evals", "count"),
    ("mlp.train_s", "s"),
    ("mlp.predict_s", "s"),
    ("core.instantiate_s", "s"),
    ("core.op_library_s", "s"),
    ("core.encode_s", "s"),
    ("dse.step_self_s", "s"),
    ("dse.steps", "count"),
    ("exec.lookup_s", "s"),
    ("exec.cache_hit_ratio", "ratio"),
    ("serve.requests_per_job", "count"),
    ("serve.rpc_p50_s", "s"),
    ("serve.queue_wait_p50_s", "s"),
    ("serve.job_p95_s", "s"),
    ("process.cpu_busy_frac", "ratio"),
    ("bench.generator_lag_p95_s", "s"),
    ("bench.attributed_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("stage.mul8.optimize_s", "s"),
    ("stage.mul8.map_s", "s"),
    ("stage.mul8.power_s", "s"),
    ("stage.mul8.power_lut_evals_per_s", "1/s"),
    ("stage.sep3.optimize_s", "s"),
    ("stage.sep3.map_s", "s"),
    ("stage.sep3.power_s", "s"),
    ("stage.sep3.power_lut_evals_per_s", "1/s"),
    ("stage.twod3.optimize_s", "s"),
    ("stage.twod3.map_s", "s"),
    ("stage.twod3.power_s", "s"),
    ("stage.twod3.power_lut_evals_per_s", "1/s"),
];

/// What one job in a fresh `--job` process measured and delivered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobResult {
    /// Wall-clock of the job.
    pub job_s: f64,
    /// Process CPU time over (wall-clock × cores) during the job.
    pub busy: f64,
    /// Digest of everything the job delivered.
    pub digest: u64,
    /// Hypervolume of the delivered front.
    pub hv: f64,
    /// Peak resident memory of the process.
    pub peak_rss_mb: f64,
}

/// What one run measured and whether its outputs checked out.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Failed against attempted operations.
    pub ledger: Ledger,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
    /// Output-check failures, for the log.
    pub mismatches: Vec<String>,
}

impl Report {
    /// A report with no values and no failures yet.
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// The end-to-end metrics of a workload that runs cold jobs one
    /// after another (`cold_dse`), from the medians over its jobs: a job
    /// is due when its set-up ends, so its latency from the due time is
    /// its wall-clock, and one job at a time completes `1 / job_s` jobs
    /// per second.
    pub fn set_serial_job_metrics(&mut self, setup_s: f64, job_s: f64, hv: f64, rss: f64) {
        self.set("setup_s", setup_s);
        self.set("job_s", job_s);
        self.set("job_p50_s", job_s);
        self.set("max_jobs_per_s", 1.0 / job_s);
        self.set("front_hv", hv);
        self.set("peak_rss_mb", rss);
    }

    /// What a `--job` process prints after its job: the measurements,
    /// then its own check results.
    pub fn job_lines(&self, r: &JobResult) -> String {
        let mut out = format!(
            "job {:?} {:?} {} {:?} {:?} {} {}\n",
            r.job_s,
            r.busy,
            r.digest,
            r.hv,
            r.peak_rss_mb,
            self.ledger.attempted,
            self.ledger.failed
        );
        for m in &self.mismatches {
            out.push_str(&format!("mismatch {m}\n"));
        }
        out
    }

    /// Takes over the check results of a `--job` process's output and
    /// returns what it measured.
    pub fn absorb_job(&mut self, lines: &[String]) -> Result<JobResult, String> {
        let head = lines
            .iter()
            .find_map(|l| l.strip_prefix("job "))
            .ok_or("the job process printed no result")?;
        let f: Vec<&str> = head.split_whitespace().collect();
        let bad = || format!("unreadable job line {head:?}");
        let [job_s, busy, digest, hv, rss, attempted, failed] = f[..] else {
            return Err(bad());
        };
        let num = |v: &str| v.parse::<f64>().map_err(|_| bad());
        let int = |v: &str| v.parse::<u64>().map_err(|_| bad());
        self.ledger.add(Ledger {
            attempted: int(attempted)?,
            failed: int(failed)?,
        });
        for m in lines.iter().filter_map(|l| l.strip_prefix("mismatch ")) {
            self.correct = false;
            self.mismatches.push(format!("job process: {m}"));
        }
        Ok(JobResult {
            job_s: num(job_s)?,
            busy: num(busy)?,
            digest: int(digest)?,
            hv: num(hv)?,
            peak_rss_mb: num(rss)?,
        })
    }

    /// Records one output check; a failed check counts in the ledger
    /// and marks the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ledger.record(ok);
        if !ok {
            self.correct = false;
            self.mismatches.push(what());
        }
    }

    /// The result line: exactly the metrics of `list`, each with its
    /// unit. A metric the run did not set reads 0.
    pub fn json_line(&self, list: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(*name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.ledger.attempted.max(1),
            self.ledger.failed,
            metrics.join(", ")
        )
    }

    /// A human-readable table of the metrics of `list`.
    pub fn table(&self, list: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for (name, unit) in list {
            let v = self.values.get(*name).copied().unwrap_or(0.0);
            out.push_str(&format!("  {name:<36} {v:>16.6} {unit}\n"));
        }
        out
    }
}

/// JSON has no infinities or NaN; a non-finite value (a phase where
/// every job failed) is written as a huge finite number so the failure
/// still reads as a regression.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "1e300".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(json: &str, section: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("list closes");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("name value").to_string())
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        let layer: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        assert_eq!(names_in(&json, "per_layer"), layer);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&needle), "{name} with unit {unit}");
        }
    }

    #[test]
    fn result_line_lists_exactly_the_requested_metrics() {
        let mut r = Report::new();
        r.set("job_s", 1.25);
        r.set("not_listed", 3.0);
        r.check(true, String::new);
        let line = r.json_line(&[("job_s", "s"), ("setup_s", "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"job_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
        r.check(false, || "front digest".to_string());
        assert!(!r.correct);
        assert_eq!((r.ledger.attempted, r.ledger.failed), (2, 1));
        assert_eq!(json_number(f64::INFINITY), "1e300");
    }

    #[test]
    fn job_lines_round_trip() {
        let mut child = Report::new();
        child.check(true, String::new);
        child.check(false, || "front digest".to_string());
        let r = JobResult {
            job_s: 21.5,
            busy: 0.49,
            digest: u64::MAX,
            hv: 92074.68239379085,
            peak_rss_mb: 11.5,
        };
        let lines: Vec<String> = child.job_lines(&r).lines().map(String::from).collect();
        let mut parent = Report::new();
        assert_eq!(parent.absorb_job(&lines).unwrap(), r);
        assert!(!parent.correct);
        assert_eq!((parent.ledger.attempted, parent.ledger.failed), (2, 1));
        assert!(parent.absorb_job(&["job 1 2".to_string()]).is_err());
    }
}
