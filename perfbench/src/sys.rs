//! Process-level measurements taken from outside the program: CPU time,
//! peak resident memory, and runs of this benchmark in fresh processes.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
}

const RUSAGE_SELF: i32 = 0;
const SC_CLK_TCK: i32 = 2;

/// User plus system CPU seconds of this process, from `getrusage`.
pub fn self_cpu_s() -> f64 {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a properly sized, writable `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if rc != 0 {
        return f64::NAN;
    }
    let t = |tv: &Timeval| tv.sec as f64 + tv.usec as f64 * 1e-6;
    t(&ru.utime) + t(&ru.stime)
}

fn proc_dir(pid: Option<u32>) -> PathBuf {
    match pid {
        Some(p) => PathBuf::from(format!("/proc/{p}")),
        None => PathBuf::from("/proc/self"),
    }
}

/// User plus system CPU seconds of another process, from
/// `/proc/<pid>/stat` (clock-tick resolution).
pub fn proc_cpu_s(pid: u32) -> f64 {
    let Ok(stat) = std::fs::read_to_string(proc_dir(Some(pid)).join("stat")) else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    // SAFETY: sysconf has no memory-safety preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) } as f64;
    (ticks(11) + ticks(12)) / hz
}

/// Peak resident set size in MiB (`VmHWM`) of `pid`, or of this process.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let Ok(status) = std::fs::read_to_string(proc_dir(pid).join("status")) else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// One job run in a fresh process of this benchmark binary.
pub struct FreshJob {
    /// Wall-clock from spawning the process until it reported its
    /// set-up done: the set-up a user pays before the job.
    pub setup_s: f64,
    /// Standard output after the `ready` line.
    pub lines: Vec<String>,
}

/// Runs this benchmark binary again with `--job <workload> <seed>`.
/// The child starts with cold process-wide memos, sets up, prints
/// `ready`, runs one job and prints its result. An exit other than 0
/// is an error.
pub fn fresh_job(workload: &str, seed: u64) -> Result<FreshJob, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t = Instant::now();
    let mut child = Command::new(exe)
        .args(["--job", workload, &seed.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start a {workload} job process: {e}"))?;
    let mut ready = String::new();
    let mut lines = Vec::new();
    let mut setup_s = f64::NAN;
    if let Some(out) = child.stdout.take() {
        let mut out = BufReader::new(out);
        let _ = out.read_line(&mut ready);
        setup_s = t.elapsed().as_secs_f64();
        lines = out.lines().map_while(Result::ok).collect();
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    if ready.trim() != "ready" || !status.success() {
        return Err(format!("{workload} job process: {status}, {ready:?}"));
    }
    Ok(FreshJob { setup_s, lines })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurements_are_live() {
        let before = self_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(self_cpu_s() > before);
        assert!(peak_rss_mb(None) > 0.0);
        let me = std::process::id();
        assert!(proc_cpu_s(me) >= 0.0);
        assert!(peak_rss_mb(Some(me)) > 0.0);
    }
}
