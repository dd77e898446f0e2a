//! Sample statistics and failure accounting.
//!
//! Timings are reported as a median plus the highest percentile that still
//! has at least [`TAIL_MIN_BEYOND`] samples beyond it, always with the
//! sample count, so a tail figure is never read off a handful of points.

/// Percentiles a tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The median of `samples` (the mean of the middle two for an even count),
/// or `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The arithmetic mean of `samples`, or `None` for no samples.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// A timing distribution as the benchmark reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples the summary was computed from.
    pub count: usize,
    /// The median.
    pub p50: f64,
    /// The highest percentile of [`TAIL_LADDER`] with at least
    /// [`TAIL_MIN_BEYOND`] samples beyond it, and its nearest-rank value;
    /// `None` when too few samples were taken for any.
    pub tail: Option<(f64, f64)>,
}

/// Summarises `samples`; `None` for no samples.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let p50 = median(samples)?;
    let sorted = sorted(samples);
    let n = sorted.len();
    let tail = TAIL_LADDER.iter().rev().find_map(|&pct| {
        let rank = nearest_rank(pct, n);
        (n - rank >= TAIL_MIN_BEYOND).then(|| (pct, sorted[rank - 1]))
    });
    Some(Summary {
        count: n,
        p50,
        tail,
    })
}

/// The 1-based nearest rank of percentile `pct` among `n` samples:
/// `ceil(pct / 100 × n)`, at least 1.
fn nearest_rank(pct: f64, n: usize) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Operations attempted and failed; a failed check is never dropped, only
/// counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Attempted operations whose output check failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The share of attempted operations that failed (0 when none were
    /// attempted).
    pub fn failure_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// `true` when at least one operation ran and none failed.
    pub fn all_passed(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}
