//! `warm_serve`: the serving daemon in its own process on a Unix
//! socket, with fresh state and cache directories.
//!
//! Set-up starts the daemon and runs a small pool of `dse_pareto`-shaped
//! jobs cold, which warms the result cache. Measurement then has two
//! phases. In the open loop, jobs from a few tenants arrive at one fixed
//! offered rate and each job's latency is timed from its due time. In
//! the closed loop, two clients submit back to back. Every measured job
//! replays a pool spec, so every true evaluation is a cache hit and each
//! result must be bit-identical to the cold run of its spec.

use crate::layers::{layer_metrics, ledger_table, stage_table, Counts};
use crate::report::Report;
use crate::stats::{
    beyond, median, open_loop, percentile, supports_tail, Ledger, OpenLoopJob, Outcome,
};
use crate::sys;
use crate::trace::{Ctx, Tracer};
use crate::Args;
use clapped::core::{Clapped, ExecConfig, MulRepr};
use clapped::dse::{Configuration, MboConfig, MboState};
use clapped::obs::Deadline;
use clapped::serve::{Client, JobSpec, JobState, Listen, ParetoEntry, ServerStats};
use rand_chacha::ChaCha8Rng;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Daemon worker threads.
const WORKERS: usize = 2;
/// Engine threads per daemon job.
const EXEC_JOBS: usize = 1;
/// Distinct job specs, each run cold during set-up: one per worker, so
/// the cold pool takes about one cold job's time.
const POOL: usize = WORKERS;
/// Tenants the open-loop jobs are spread over: more tenants than
/// workers, so the daemon's per-tenant round-robin queue always has a
/// choice to make, and coprime with `POOL`, so every tenant submits
/// every pool spec.
const TENANTS: usize = 3;
/// Open-loop offered rate, jobs per second: 25–45 % of the saturation
/// throughput of the two-client closed loop on a two-core machine
/// (22–39 jobs/s as the host's speed changed). At that load each worker
/// is busy a quarter to a half of the time and most jobs start without
/// waiting, so `job_p50_s` tracks the per-job service time; and the
/// queue stays bounded while the host runs up to 2× slower.
const RATE: f64 = 10.0;
/// Blocks the measured time is cut into, alternately open loop and
/// closed loop, so that each phase samples the whole run rather than
/// one half of it: a shared host's speed drifts over tens of seconds.
/// At 45 s the open-loop blocks offer 224 jobs, eleven beyond p95.
const BLOCKS: usize = 8;
/// Client status-polling interval (as `Client::wait` is used).
const POLL: Duration = Duration::from_millis(5);
/// A job without its result this long after it was due is late.
const JOB_LIMIT_S: f64 = 10.0;
/// How long the cold pool may take.
const WARMUP_LIMIT: Duration = Duration::from_secs(150);
/// Framework recipe shared by the pool, so the daemon pools one
/// framework and one cache for all of them.
const FRAMEWORK_SEED: u64 = 5;
/// In-process replays of pool jobs in the traced run.
const REPLAYS: usize = 8;

fn pool_spec(seed: u64, k: usize) -> JobSpec {
    JobSpec {
        image_size: 32,
        noise_sigma: 12.0,
        seed: FRAMEWORK_SEED,
        mbo: MboConfig {
            initial_samples: 20,
            iterations: 6,
            batch: 10,
            candidates: 50,
            reference: vec![30.0, 4000.0],
            kappa: 1.0,
            explore_fraction: 0.1,
            seed: seed.wrapping_mul(POOL as u64).wrapping_add(k as u64),
        },
        max_error_percent: None,
        max_evaluations: None,
        deadline_ms: None,
        ..JobSpec::default()
    }
}

/// The cold result of one pool spec: the reference every warm run of
/// the spec must reproduce bit for bit.
struct Reference {
    pareto: Vec<ParetoEntry>,
    hypervolume: f64,
}

impl Reference {
    /// Whether a warm run reproduced this cold result bit for bit.
    fn matches(&self, hypervolume: f64, pareto: &[ParetoEntry]) -> bool {
        hypervolume.to_bits() == self.hypervolume.to_bits()
            && pareto.len() == self.pareto.len()
            && pareto.iter().zip(&self.pareto).all(|(x, y)| {
                x.config == y.config
                    && x.error_percent.to_bits() == y.error_percent.to_bits()
                    && x.luts.to_bits() == y.luts.to_bits()
                    && x.feasible == y.feasible
            })
    }
}

/// The daemon child process; stopped and reaped on drop.
struct Daemon {
    child: Child,
    listen: Listen,
    dir: PathBuf,
}

impl Daemon {
    fn start(dir: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let sock = dir.join("serve.sock");
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("--daemon")
            .arg(&sock)
            .arg(dir.join("state"))
            .arg(dir.join("cache"))
            .arg(WORKERS.to_string())
            .arg(EXEC_JOBS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let mut line = String::new();
        if let Some(out) = child.stdout.take() {
            let _ = BufReader::new(out).read_line(&mut line);
        }
        let daemon = Daemon {
            child,
            listen: Listen::Uds(sock),
            dir: dir.to_path_buf(),
        };
        if !line.starts_with("listening on") {
            return Err(format!("daemon did not come up: {line:?}"));
        }
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect(&self.listen).map_err(|e| e.to_string())
    }

    fn stats(&self) -> Result<ServerStats, String> {
        self.client()?.stats().map_err(|e| e.to_string())
    }

    /// Drains the daemon and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let asked = self
            .client()
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return match (asked, status.success()) {
                    (Ok(()), true) => Ok(()),
                    (a, _) => Err(format!("daemon exit {status}, shutdown {a:?}")),
                };
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("daemon did not exit after shutdown".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Runs the daemon in this process (the `--daemon` mode of the
/// benchmark binary): the same start-up as the `clapped_serve` binary.
pub fn daemon_main(args: &[String]) -> Result<(), String> {
    use clapped::serve::{Server, ServerConfig};
    let [sock, state, cache, workers, exec_jobs] = args else {
        return Err("usage: --daemon SOCKET STATE_DIR CACHE_DIR WORKERS EXEC_JOBS".to_string());
    };
    let mut config = ServerConfig::new(Listen::Uds(PathBuf::from(sock)), PathBuf::from(state));
    config.cache_dir = Some(PathBuf::from(cache));
    config.workers = workers.parse().map_err(|_| "WORKERS must be an integer")?;
    config.exec_jobs = exec_jobs
        .parse()
        .map_err(|_| "EXEC_JOBS must be an integer")?;
    let server = Server::start(config).map_err(|e| format!("start failed: {e}"))?;
    {
        use std::io::Write as _;
        let mut out = std::io::stdout();
        let _ = writeln!(out, "listening on uds {sock}");
        let _ = out.flush();
    }
    server.join();
    Ok(())
}

/// Runs the pool cold and keeps each spec's result as its reference.
fn warm_up(
    daemon: &Daemon,
    pool: &[JobSpec],
    report: &mut Report,
) -> Result<Vec<Reference>, String> {
    let mut client = daemon.client()?;
    let ids: Vec<String> = pool
        .iter()
        .map(|s| {
            client
                .submit("warmup", s.clone())
                .map_err(|e| format!("warm-up submit: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let mut refs = Vec::new();
    for id in &ids {
        let status = client
            .wait(id, POLL, Deadline::after(WARMUP_LIMIT))
            .map_err(|e| format!("warm-up job {id}: {e}"))?;
        report.check(status.state == JobState::Done, || {
            format!("warm-up job {id}: {:?}", status.error)
        });
        let (status, pareto) = client.result(id).map_err(|e| e.to_string())?;
        refs.push(Reference {
            pareto,
            hypervolume: status.hypervolume,
        });
    }
    Ok(refs)
}

/// A job the generator submitted, handed to the poller.
struct Submitted {
    idx: usize,
    id: String,
    spec: usize,
    replied: f64,
}

/// What the open loop measured.
#[derive(Default)]
struct OpenPhase {
    jobs: Vec<OpenLoopJob>,
    queue_waits: Vec<f64>,
    hvs: Vec<f64>,
    mismatches: Vec<String>,
}

/// How the poller saw one job end.
struct Finished {
    idx: usize,
    done: Option<f64>,
    outcome: Outcome,
    queue_wait: Option<f64>,
    hypervolume: Option<f64>,
    mismatch: Option<String>,
}

impl Finished {
    fn failed(idx: usize, outcome: Outcome, mismatch: Option<String>) -> Finished {
        Finished {
            idx,
            done: None,
            outcome,
            queue_wait: None,
            hypervolume: None,
            mismatch,
        }
    }
}

/// Wraps a client call in a `serve.rpc` span when tracing.
fn rpc<R>(tr: Option<&Tracer>, job: u64, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(tr) => tr.span_under(Ctx { span: 0, job }, "serve.rpc", f),
        None => f(),
    }
}

/// Open loop: `n` jobs due every `1 / RATE` seconds, submitted by this
/// thread on one connection and polled by one more thread on another.
fn open_phase(
    daemon: &Daemon,
    refs: &[Reference],
    pool: &[JobSpec],
    offset: usize,
    n: usize,
    tr: Option<&Tracer>,
) -> Result<OpenPhase, String> {
    let mut submitter = daemon.client()?;
    let mut poller = daemon.client()?;
    let t0 = Instant::now();
    let now = move || t0.elapsed().as_secs_f64();
    let mut jobs: Vec<OpenLoopJob> = (0..n)
        .map(|i| {
            let due = i as f64 / RATE;
            OpenLoopJob {
                due,
                sent: due,
                done: None,
                outcome: Outcome::TimedOut,
            }
        })
        .collect();
    let (tx, rx) = mpsc::channel::<Submitted>();
    let polled = std::thread::scope(|scope| {
        let handle = scope.spawn(move || {
            struct Flight {
                sub: Submitted,
                last_queued: f64,
                started: Option<f64>,
            }
            let mut flights: Vec<Flight> = Vec::new();
            let mut finished: Vec<Finished> = Vec::new();
            let mut generator_done = false;
            loop {
                loop {
                    match rx.try_recv() {
                        Ok(sub) => flights.push(Flight {
                            last_queued: sub.replied,
                            started: None,
                            sub,
                        }),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            generator_done = true;
                            break;
                        }
                    }
                }
                if generator_done && flights.is_empty() {
                    break;
                }
                let mut still = Vec::with_capacity(flights.len());
                for mut f in flights {
                    let job = f.sub.idx as u64 + 1;
                    let due = f.sub.idx as f64 / RATE;
                    let status = rpc(tr, job, || poller.status(&f.sub.id));
                    let at = now();
                    let state = match status {
                        Ok(s) => s.state,
                        Err(e) => {
                            let msg = Some(format!("status of {}: {e}", f.sub.id));
                            finished.push(Finished::failed(f.sub.idx, Outcome::Failed, msg));
                            continue;
                        }
                    };
                    if state == JobState::Queued {
                        f.last_queued = at;
                    } else if f.started.is_none() {
                        f.started = Some(at);
                    }
                    if state.is_terminal() {
                        // The job left the queue between the last poll
                        // that saw it queued and the first that did not.
                        let left = 0.5 * (f.last_queued + f.started.unwrap_or(at));
                        let queue_wait = Some(left - f.sub.replied);
                        let result = rpc(tr, job, || poller.result(&f.sub.id));
                        let done = now();
                        let (outcome, hypervolume, mismatch) = match result {
                            Ok((st, pareto)) if st.state == JobState::Done => {
                                if refs[f.sub.spec].matches(st.hypervolume, &pareto) {
                                    (Outcome::Done, Some(st.hypervolume), None)
                                } else {
                                    let m = format!("job {} differs from its cold run", f.sub.id);
                                    (Outcome::Failed, None, Some(m))
                                }
                            }
                            Ok((st, _)) => (
                                Outcome::Failed,
                                None,
                                Some(format!("job {}: {:?}", f.sub.id, st.error)),
                            ),
                            Err(e) => (
                                Outcome::Failed,
                                None,
                                Some(format!("result of {}: {e}", f.sub.id)),
                            ),
                        };
                        finished.push(Finished {
                            idx: f.sub.idx,
                            done: Some(done),
                            outcome,
                            queue_wait,
                            hypervolume,
                            mismatch,
                        });
                    } else if at - due > JOB_LIMIT_S {
                        finished.push(Finished::failed(f.sub.idx, Outcome::TimedOut, None));
                    } else {
                        still.push(f);
                    }
                }
                flights = still;
                std::thread::sleep(POLL);
            }
            finished
        });
        for (i, job) in jobs.iter_mut().enumerate() {
            let due = job.due;
            let ahead = due - now();
            if ahead > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(ahead));
            }
            job.sent = now();
            let k = (offset + i) % pool.len();
            let tenant = format!("tenant{}", i % TENANTS);
            match rpc(tr, i as u64 + 1, || {
                submitter.submit(&tenant, pool[k].clone())
            }) {
                Ok(id) => {
                    let _ = tx.send(Submitted {
                        idx: i,
                        id,
                        spec: k,
                        replied: now(),
                    });
                }
                Err(_) => job.outcome = Outcome::Refused,
            }
        }
        drop(tx);
        handle
            .join()
            .map_err(|_| "poller thread panicked".to_string())
    })?;
    let mut phase = OpenPhase::default();
    for f in polled {
        jobs[f.idx].done = f.done;
        jobs[f.idx].outcome = f.outcome;
        phase.queue_waits.extend(f.queue_wait);
        phase.hvs.extend(f.hypervolume);
        phase.mismatches.extend(f.mismatch);
    }
    phase.jobs = jobs;
    Ok(phase)
}

/// One closed-loop client's jobs: latency, end time since the phase
/// began, and the job's hypervolume or why it failed.
type ClientJobs = Vec<(f64, f64, Result<f64, String>)>;

/// What the closed loop measured.
#[derive(Default)]
struct ClosedPhase {
    latencies: Vec<f64>,
    ok: usize,
    /// Seconds from the phase's start until its last job ended.
    wall: f64,
    failed: usize,
    hvs: Vec<f64>,
    mismatches: Vec<String>,
}

impl OpenPhase {
    /// Appends another block's jobs; each job keeps its own due time.
    fn absorb(&mut self, other: OpenPhase) {
        self.jobs.extend(other.jobs);
        self.queue_waits.extend(other.queue_waits);
        self.hvs.extend(other.hvs);
        self.mismatches.extend(other.mismatches);
    }
}

impl ClosedPhase {
    /// Appends another block's jobs and time.
    fn absorb(&mut self, other: ClosedPhase) {
        self.latencies.extend(other.latencies);
        self.ok += other.ok;
        self.wall += other.wall;
        self.failed += other.failed;
        self.hvs.extend(other.hvs);
        self.mismatches.extend(other.mismatches);
    }
}

/// Closed loop: two clients, each submitting its next job when the
/// previous result is in hand, for `secs` seconds.
fn closed_phase(
    daemon: &Daemon,
    refs: &[Reference],
    pool: &[JobSpec],
    offset: usize,
    secs: f64,
) -> Result<ClosedPhase, String> {
    let t0 = Instant::now();
    let per_client = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                scope.spawn(move || -> Result<ClientJobs, String> {
                    let mut client = daemon.client()?;
                    let mut out = Vec::new();
                    let mut j = 0usize;
                    while t0.elapsed().as_secs_f64() < secs {
                        let k = (offset + c + 2 * j) % pool.len();
                        j += 1;
                        let start = Instant::now();
                        let outcome = (|| -> Result<f64, String> {
                            let id = client
                                .submit(&format!("closed{c}"), pool[k].clone())
                                .map_err(|e| e.to_string())?;
                            let limit = Deadline::after(Duration::from_secs_f64(JOB_LIMIT_S));
                            client.wait(&id, POLL, limit).map_err(|e| e.to_string())?;
                            let (st, pareto) = client.result(&id).map_err(|e| e.to_string())?;
                            if st.state != JobState::Done {
                                return Err(format!("job {id}: {:?}", st.error));
                            }
                            if !refs[k].matches(st.hypervolume, &pareto) {
                                return Err(format!("job {id} differs from its cold run"));
                            }
                            Ok(st.hypervolume)
                        })();
                        out.push((
                            start.elapsed().as_secs_f64(),
                            t0.elapsed().as_secs_f64(),
                            outcome,
                        ));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut phase = ClosedPhase::default();
    for (latency, end, outcome) in per_client.into_iter().flatten() {
        phase.wall = phase.wall.max(end);
        match outcome {
            Ok(hv) => {
                phase.ok += 1;
                phase.latencies.push(latency);
                phase.hvs.push(hv);
            }
            Err(m) => {
                phase.failed += 1;
                phase.latencies.push(f64::INFINITY);
                phase.mismatches.push(m);
            }
        }
    }
    Ok(phase)
}

fn work_dir(seed: u64) -> PathBuf {
    PathBuf::from(".bench_work").join(format!("warm_serve-{}-{seed}", std::process::id()))
}

/// Jobs an open loop of `seconds` offers.
fn open_jobs(seconds: f64) -> usize {
    ((seconds * RATE).round() as usize).max(1)
}

/// Starts the daemon and runs the cold pool: the set-up.
fn setup(
    args: &Args,
    report: &mut Report,
) -> Result<(Daemon, Vec<JobSpec>, Vec<Reference>, f64), String> {
    let pool: Vec<JobSpec> = (0..POOL).map(|k| pool_spec(args.seed, k)).collect();
    let t = Instant::now();
    let daemon = Daemon::start(&work_dir(args.seed))?;
    let refs = warm_up(&daemon, &pool, report)?;
    Ok((daemon, pool, refs, t.elapsed().as_secs_f64()))
}

fn record_open(report: &mut Report, phase: &OpenPhase) -> (f64, f64) {
    let summary = open_loop(&phase.jobs, JOB_LIMIT_S);
    report.ledger.add(Ledger {
        attempted: summary.attempted,
        failed: summary.failed,
    });
    for m in &phase.mismatches {
        report.correct = false;
        report.mismatches.push(m.clone());
    }
    let n = summary.latencies.len();
    if !supports_tail(n, 0.95) {
        println!("  note: {n} open-loop jobs leave fewer than ten beyond p95");
    }
    let (p50, p95) = (
        percentile(&summary.latencies, 0.5),
        percentile(&summary.latencies, 0.95),
    );
    println!(
        "  open loop: {n} jobs at {RATE}/s, p50 {p50:.6} s, p95 {p95:.6} s ({} beyond p95)",
        beyond(n, 0.95)
    );
    (p50, p95)
}

/// The untraced run.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::new();
    let (daemon, pool, refs, setup_s) = setup(args, &mut report)?;
    let offset = args.seed as usize % POOL;
    let block_s = args.seconds / BLOCKS as f64;
    let (mut open, mut closed) = (OpenPhase::default(), ClosedPhase::default());
    for b in 0..BLOCKS {
        if b % 2 == 0 {
            let n = open_jobs(block_s);
            open.absorb(open_phase(&daemon, &refs, &pool, offset + b, n, None)?);
        } else {
            closed.absorb(closed_phase(&daemon, &refs, &pool, offset + b, block_s)?);
        }
    }
    let (p50, _) = record_open(&mut report, &open);
    report.ledger.add(Ledger {
        attempted: (closed.ok + closed.failed) as u64,
        failed: closed.failed as u64,
    });
    for m in closed.mismatches {
        report.correct = false;
        report.mismatches.push(m);
    }
    let peak = sys::peak_rss_mb(Some(daemon.pid()));
    daemon.stop()?;
    let hvs: Vec<f64> = open.hvs.iter().chain(&closed.hvs).copied().collect();
    report.set("setup_s", setup_s);
    report.set("job_s", median(&closed.latencies));
    report.set("job_p50_s", p50);
    report.set("max_jobs_per_s", closed.ok as f64 / closed.wall.max(1e-9));
    report.set(
        "front_hv",
        hvs.iter().sum::<f64>() / hvs.len().max(1) as f64,
    );
    report.set("peak_rss_mb", peak);
    Ok(report)
}

/// One pool job replayed in process through `MboState::step_batched`,
/// with the session's callbacks timed: surrogate features and cached
/// true evaluations.
fn replay_job(
    tr: &Tracer,
    counts: &Counts,
    fw: &Clapped,
    spec: &JobSpec,
) -> Result<Vec<(Configuration, f64, f64)>, String> {
    let mut state: MboState<Configuration> = MboState::new(&spec.mbo).map_err(|e| e.to_string())?;
    let repr = MulRepr::Coeffs(4);
    let hw_ready = fw.op_library().is_ok();
    let surrogate = |c: &Configuration| -> Vec<f64> {
        tr.span("core.encode", || {
            let mut v = fw.encode(c, repr);
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
    let mut evaluate =
        |cs: &[Configuration]| tr.span("exec.lookup", || fw.true_outcomes_cached(cs));
    while !state.is_complete() {
        counts.step();
        tr.span("dse.step", || {
            state.step_batched(&mut sample, &surrogate, &mut evaluate)
        })
        .map_err(|e| e.to_string())?;
    }
    let evaluated = state.evaluated();
    Ok(state
        .pareto_indices()
        .into_iter()
        .map(|i| (evaluated[i].0.clone(), evaluated[i].1[0], evaluated[i].1[1]))
        .collect())
}

fn replay_matches(replay: &[(Configuration, f64, f64)], reference: &[ParetoEntry]) -> bool {
    replay.len() == reference.len()
        && replay.iter().zip(reference).all(|((c, e, l), r)| {
            *c == r.config
                && e.to_bits() == r.error_percent.to_bits()
                && l.to_bits() == r.luts.to_bits()
        })
}

/// The traced run: the open loop untraced (overhead base) and traced
/// (client calls as `serve.rpc` spans), then pool jobs replayed in
/// process against the warm on-disk cache.
pub fn run_traced(args: &Args, tr: &Tracer) -> Result<Report, String> {
    let mut report = Report::new();
    let (daemon, pool, refs, _) = setup(args, &mut report)?;
    let offset = args.seed as usize % POOL;
    let n = open_jobs(args.seconds / 2.0);
    let base = open_phase(&daemon, &refs, &pool, offset, n, None)?;
    let (base_p50, base_p95) = record_open(&mut report, &base);
    report.set("serve.job_p95_s", base_p95);
    let before = daemon.stats()?;
    let (cpu0, t) = (sys::proc_cpu_s(daemon.pid()), Instant::now());
    let traced = open_phase(&daemon, &refs, &pool, offset, n, Some(tr))?;
    let wall = t.elapsed().as_secs_f64();
    let busy = (sys::proc_cpu_s(daemon.pid()) - cpu0) / (wall * sys::nproc() as f64);
    let after = daemon.stats()?;
    let (traced_p50, _) = record_open(&mut report, &traced);
    let cache_dir = daemon.dir.join("cache");
    let jobs = traced.jobs.len() as f64;
    report.set(
        "serve.requests_per_job",
        (after.requests - before.requests) as f64 / jobs,
    );
    let mut delta = after.cache;
    delta.hits -= before.cache.hits;
    delta.disk_hits -= before.cache.disk_hits;
    delta.misses -= before.cache.misses;
    report.set("exec.cache_hit_ratio", delta.hit_ratio());
    report.set("serve.queue_wait_p50_s", median(&traced.queue_waits));
    let summary = open_loop(&traced.jobs, JOB_LIMIT_S);
    report.set("bench.generator_lag_p95_s", percentile(&summary.lags, 0.95));
    report.set("process.cpu_busy_frac", busy);
    report.set("bench.trace_overhead_frac", traced_p50 / base_p50 - 1.0);

    // In-process replay against the daemon's warm on-disk cache.
    let counts = Counts::default();
    let fw = tr.job(0, "bench.setup", || -> Result<Clapped, String> {
        let fw = tr
            .span("core.instantiate", || {
                Clapped::builder()
                    .image_size(32)
                    .noise_sigma(12.0)
                    .seed(FRAMEWORK_SEED)
                    .exec(ExecConfig::with_jobs(EXEC_JOBS))
                    .disk_cache(cache_dir.clone())
                    .build()
            })
            .map_err(|e| e.to_string())?;
        tr.span("core.op_library", || fw.op_library().map(|_| ()))
            .map_err(|e| e.to_string())?;
        Ok(fw)
    })?;
    // One untraced pass over the pool loads its entries from disk into
    // memory, as the daemon's pooled framework holds them.
    for spec in &pool {
        replay_job(&Tracer::new(), &Counts::default(), &fw, spec)?;
    }
    let rpc_spans: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "serve.rpc")
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .collect();
    for r in 0..REPLAYS {
        let k = (offset + r) % POOL;
        let replay = tr.job(r as u64 + 1, "bench.job", || {
            replay_job(tr, &counts, &fw, &pool[k])
        });
        match replay {
            Ok(front) => report.check(replay_matches(&front, &refs[k].pareto), || {
                format!("in-process replay of pool spec {k} differs from the daemon's result")
            }),
            Err(e) => report.check(false, || format!("replay failed: {e}")),
        }
    }
    daemon.stop()?;
    let spans: Vec<_> = tr
        .spans()
        .into_iter()
        .filter(|s| s.name != "serve.rpc")
        .collect();
    layer_metrics(&mut report, &spans, &counts);
    report.set("serve.rpc_p50_s", median(&rpc_spans));
    println!("{}", ledger_table(&spans));
    println!("{}", stage_table(&mut report, 5)?);
    Ok(report)
}
