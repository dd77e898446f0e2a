//! What every result records about the machine and build it came from.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::json::Object;

/// The host and build a result was measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// CPU model name, as `/proc/cpuinfo` reports it.
    pub cpu_model: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// The commit checked out in the working directory, when it is a git
    /// work tree; `None` for an exported source tree.
    pub commit: Option<String>,
}

impl Fingerprint {
    /// Probes the current host; `root` is the source tree the benchmark
    /// runs from.
    pub fn probe(root: &Path) -> Self {
        Fingerprint {
            nproc: nproc(),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            commit: git_commit(root),
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> Object {
        let mut out = Object::new();
        out.int("nproc", self.nproc as u64);
        out.str("cpu_model", &self.cpu_model);
        out.str("rustc", &self.rustc);
        match &self.commit {
            Some(commit) => out.str("commit", commit),
            None => out.raw("commit", "null"),
        }
        out
    }
}

/// Hardware threads available to this process (at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|line| line.starts_with("model name"))
        .and_then(|line| line.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
}

/// Reads `.git/HEAD` under `root` (and the ref it names) without running
/// git, so nothing outside `root` is consulted.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(git.join(reference)) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (commit, name) = line.split_once(' ')?;
        (name == reference).then(|| commit.to_string())
    })
}

/// CPU time the hypervisor ran other guests on this machine's CPUs (the
/// `steal` column of `/proc/stat`), in seconds; `None` where the platform
/// does not report it. A run whose steal grew was measured on a contended
/// host.
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: u64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    // /proc/stat counts in USER_HZ, which Linux fixes at 100 per second.
    Some(ticks as f64 / 100.0)
}

/// Share of a call's available CPU time (wall × `nproc`) the hypervisor
/// may steal before the call counts as contended.
pub const CONTENDED_STEAL_SHARE: f64 = 0.02;

/// Runs `f` and returns its result with the CPU time the calling thread
/// spent in it.
///
/// The thread CPU clock advances only while the thread runs. Linux's
/// paravirtual steal accounting keeps time the hypervisor gave the CPU to
/// other guests out of it, so on a shared host it measures the call's own
/// work where wall time also measures the neighbours. It suits calls that
/// run on the calling thread alone. Where the clock is missing, wall time
/// stands in.
pub fn on_cpu<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let wall = Instant::now();
    let cpu = thread_cpu();
    let out = f();
    let spent = match (cpu, thread_cpu()) {
        (Some(start), Some(end)) => end.saturating_sub(start),
        _ => wall.elapsed(),
    };
    (out, spent)
}

/// The wall time of a call that runs threads of its own, and the CPU time
/// the hypervisor stole from this machine meanwhile.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Walled {
    /// Wall time of the call.
    pub wall: Duration,
    /// Steal accrued on all CPUs during the call, in seconds.
    pub steal_s: f64,
}

impl Walled {
    /// `true` if steal took more than [`CONTENDED_STEAL_SHARE`] of the
    /// CPU time the call had: its wall then measures the host as much as
    /// the program.
    pub fn contended(&self) -> bool {
        self.steal_s > CONTENDED_STEAL_SHARE * self.wall.as_secs_f64() * nproc() as f64
    }

    /// The wall time less the steal during it, in seconds, but at least
    /// wall ÷ `nproc`. Steal delays a call at most by its own length, so
    /// this errs towards the faster; it stands in for wall only where
    /// every sample was contended.
    pub fn less_steal_s(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        (wall - self.steal_s).max(wall / nproc() as f64)
    }
}

/// Runs `f` and returns its result with its [`Walled`] time.
pub fn on_wall<T>(f: impl FnOnce() -> T) -> (T, Walled) {
    let steal = steal_s();
    let wall = Instant::now();
    let out = f();
    let wall = wall.elapsed();
    let steal_s = match (steal, steal_s()) {
        (Some(start), Some(end)) => (end - start).max(0.0),
        _ => 0.0,
    };
    (out, Walled { wall, steal_s })
}

/// CPU time the calling thread has run (`CLOCK_THREAD_CPUTIME_ID`).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu() -> Option<Duration> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux) through a pointer to a live, writable value
    // of that layout, and keeps no reference to it.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut now) };
    (status == 0).then(|| Duration::new(now.tv_sec as u64, now.tv_nsec as u32))
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu() -> Option<Duration> {
    None
}

/// Resets this process's peak resident set size to its current size
/// (Linux `clear_refs` mode 5), so the next [`peak_rss_mb`] covers only
/// what runs in between; `false` where the platform does not support it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
