//! End-to-end and per-layer benchmark of the CLAppED reproduction.
//!
//! ```text
//! perfbench --workload <cold_dse|warm_serve> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the run calls the program's real entry points and
//! prints every end-to-end metric; with `--trace 1` it replays the same
//! job through each layer's public calls, with spans recorded by this
//! benchmark, and prints every per-layer metric. Both check the
//! program's outputs. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. The exit code
//! is 0 only when every output check passed. Spans of a traced run are
//! written to `.bench_work/trace-<workload>-<seed>.jsonl`.
//!
//! The binary also has two internal modes it starts as fresh child
//! processes of itself: `--daemon` (the serving daemon of `warm_serve`)
//! and `--job <workload> <seed>` (one set-up, timed from outside, then
//! one untraced program job; `cold_dse` runs its jobs this way, and a
//! traced run is checked against one).

mod catalog;
mod cold_dse;
mod layers;
mod report;
mod stats;
mod sys;
mod trace;
mod warm_serve;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// Engine threads of in-process jobs, sized for a two-core machine.
pub const ENGINE_JOBS: usize = 2;

/// Share of a job's wall-clock the layer spans should account for.
const ATTRIBUTED_TARGET: f64 = 0.95;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: cold_dse::DEFAULT_SEED,
        seconds: 45.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Report, String> {
    let tracer = trace::Tracer::new();
    let report = match (args.workload.as_str(), args.trace) {
        ("cold_dse", false) => cold_dse::run(args),
        ("cold_dse", true) => cold_dse::run_traced(args, &tracer),
        ("warm_serve", false) => warm_serve::run(args),
        ("warm_serve", true) => warm_serve::run_traced(args, &tracer),
        (other, _) => Err(format!("unknown workload {other}")),
    }?;
    if args.trace {
        let path = PathBuf::from(".bench_work")
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    Ok(report)
}

/// The `--job <workload> <seed>` mode: set-up, `ready` on standard
/// output, then one job, printed as [`report::Report::job_lines`].
fn job_main(args: &[String]) -> Result<(), String> {
    let [workload, seed] = args else {
        return Err("usage: --job WORKLOAD SEED".to_string());
    };
    let seed: u64 = seed.parse().map_err(|_| "SEED must be an integer")?;
    let ready = || {
        use std::io::Write as _;
        let mut out = std::io::stdout();
        let _ = writeln!(out, "ready");
        let _ = out.flush();
    };
    let lines = match workload.as_str() {
        "cold_dse" => cold_dse::job(seed, ready)?,
        other => return Err(format!("no fresh-process job for {other}")),
    };
    print!("{lines}");
    Ok(())
}

fn child_exit(mode: &str, result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench {mode}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--daemon") => return child_exit("daemon", warm_serve::daemon_main(&argv[1..])),
        Some("--job") => return child_exit("job", job_main(&argv[1..])),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{} seed {} ({})",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    print!("{}", report.table(list));
    println!(
        "  error_rate {:.6} ({} failed of {} attempted)",
        report.ledger.error_rate(),
        report.ledger.failed,
        report.ledger.attempted
    );
    if args.trace {
        let f = report
            .values
            .get("bench.attributed_frac")
            .copied()
            .unwrap_or(0.0);
        let verdict = if f >= ATTRIBUTED_TARGET {
            "meets"
        } else {
            "misses"
        };
        println!("  attributed {f:.4} of job wall-clock: {verdict} the {ATTRIBUTED_TARGET} target");
    }
    for m in &report.mismatches {
        println!("  OUTPUT CHECK FAILED: {m}");
    }
    println!("{}", report.json_line(list));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload cold_dse --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("cold_dse", 3, 10.0, true)
        );
        assert!(parse_args(&argv("--seed 3")).is_err());
        assert!(parse_args(&argv("--workload x --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --bogus")).is_err());
    }
}
