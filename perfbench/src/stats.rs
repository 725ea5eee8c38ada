//! The benchmark's own arithmetic: percentiles, open-loop latency and
//! the failure ledger.

/// How many samples a reported tail percentile must leave beyond it.
pub const TAIL_SUPPORT: usize = 10;

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile of unsorted samples: the smallest sample
/// with at least `p · n` samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// Whether `n` samples support reporting the `p` percentile, i.e.
/// leave at least [`TAIL_SUPPORT`] samples beyond it.
pub fn supports_tail(n: usize, p: f64) -> bool {
    beyond(n, p) >= TAIL_SUPPORT
}

/// How one job of a load phase ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Finished with a result that passed its output check.
    Done,
    /// Finished, but failed, or its output check failed.
    Failed,
    /// The server refused the submission.
    Refused,
    /// No terminal state before the job's limit.
    TimedOut,
}

/// One open-loop job as the generator saw it. Times are seconds from
/// the start of the phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopJob {
    /// When the schedule said to submit it.
    pub due: f64,
    /// When the generator actually sent it.
    pub sent: f64,
    /// When its result was in hand (`None` if never).
    pub done: Option<f64>,
    /// How it ended.
    pub outcome: Outcome,
}

/// Summary of an open-loop phase.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopSummary {
    /// Per-job latency from the due time; infinite for jobs that did not
    /// finish successfully within `limit`, so they miss every latency
    /// limit.
    pub latencies: Vec<f64>,
    /// Per-job generator lag (sent − due).
    pub lags: Vec<f64>,
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs refused, failed, timed out or finished later than `limit`.
    pub failed: u64,
}

/// Latency from the due time, generator lag and failures of an
/// open-loop phase. A job is late, and counts as failed, when its
/// latency exceeds `limit` seconds.
pub fn open_loop(jobs: &[OpenLoopJob], limit: f64) -> OpenLoopSummary {
    let mut s = OpenLoopSummary {
        latencies: Vec::with_capacity(jobs.len()),
        lags: Vec::with_capacity(jobs.len()),
        attempted: jobs.len() as u64,
        failed: 0,
    };
    for j in jobs {
        s.lags.push((j.sent - j.due).max(0.0));
        let latency = match (j.outcome, j.done) {
            (Outcome::Done, Some(done)) if done - j.due <= limit => done - j.due,
            _ => {
                s.failed += 1;
                f64::INFINITY
            }
        };
        s.latencies.push(latency);
    }
    s
}

/// Failed operations against attempted ones, for every workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Operations attempted (evaluations, jobs, specs, output checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Ledger {
    /// Records one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds another ledger's counts.
    pub fn add(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// FNV-1a over bytes: the digest the output checks compare.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Absorbs bytes.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Absorbs a float's exact bits.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.bytes(&v.to_bits().to_le_bytes())
    }

    /// Absorbs an integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&[3.0], 0.95), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(200, 0.95), 10);
        assert!(supports_tail(200, 0.95));
        assert!(!supports_tail(199, 0.95));
        assert!(supports_tail(20, 0.5));
        assert!(!supports_tail(1, 0.5));
        assert_eq!(beyond(0, 0.95), 0);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // The generator stalled: job 2 was due at 1.0 but sent at 1.5.
        let jobs = [
            OpenLoopJob {
                due: 0.0,
                sent: 0.0,
                done: Some(0.1),
                outcome: Outcome::Done,
            },
            OpenLoopJob {
                due: 1.0,
                sent: 1.5,
                done: Some(1.6),
                outcome: Outcome::Done,
            },
        ];
        let s = open_loop(&jobs, 10.0);
        assert!((s.latencies[0] - 0.1).abs() < 1e-12);
        assert!(
            (s.latencies[1] - 0.6).abs() < 1e-12,
            "stall is charged to the job"
        );
        assert!((s.lags[1] - 0.5).abs() < 1e-12);
        assert_eq!((s.attempted, s.failed), (2, 0));
    }

    #[test]
    fn refused_and_late_jobs_are_failures_that_miss_every_limit() {
        let jobs = [
            OpenLoopJob {
                due: 0.0,
                sent: 0.0,
                done: Some(0.2),
                outcome: Outcome::Done,
            },
            OpenLoopJob {
                due: 0.1,
                sent: 0.1,
                done: None,
                outcome: Outcome::Refused,
            },
            OpenLoopJob {
                due: 0.2,
                sent: 0.2,
                done: Some(9.0),
                outcome: Outcome::Done,
            },
            OpenLoopJob {
                due: 0.3,
                sent: 0.3,
                done: Some(0.4),
                outcome: Outcome::Failed,
            },
            OpenLoopJob {
                due: 0.4,
                sent: 0.4,
                done: None,
                outcome: Outcome::TimedOut,
            },
        ];
        let s = open_loop(&jobs, 5.0);
        assert_eq!((s.attempted, s.failed), (5, 4));
        assert_eq!(s.latencies.iter().filter(|l| l.is_infinite()).count(), 4);
        assert!(percentile(&s.latencies, 0.5).is_infinite());
        let mut ledger = Ledger::default();
        ledger.add(Ledger {
            attempted: s.attempted,
            failed: s.failed,
        });
        ledger.record(true);
        assert_eq!(ledger.error_rate(), 4.0 / 6.0);
        assert_eq!(Ledger::default().error_rate(), 0.0);
    }

    #[test]
    fn digest_is_bit_exact() {
        let a = Fnv::default().f64(0.1).u64(3).finish();
        let b = Fnv::default().f64(1.0 / 10.0).u64(3).finish();
        let c = Fnv::default()
            .f64(f64::from_bits(0.1f64.to_bits() + 1))
            .u64(3)
            .finish();
        assert_eq!(a, b, "same bits, same digest");
        assert_ne!(a, c);
    }
}
