//! Simulated time for trace timestamps.
//!
//! Ocasta's deployed trace infrastructure recorded configuration-store
//! accesses with one-second precision, which the paper identifies as a source
//! of oversized clusters (§VI-A). This module keeps timestamps at millisecond
//! precision internally and provides explicit quantisation so both regimes
//! can be studied.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Milliseconds since the start of a trace (the *trace epoch*).
///
/// `Timestamp` is a simulated clock value, not wall-clock time: traces define
/// their own epoch and every component in this workspace (TTKV, clustering,
/// repair search) only ever compares or subtracts timestamps from the same
/// trace.
///
/// # Examples
///
/// ```
/// use ocasta_ttkv::{Timestamp, TimeDelta};
///
/// let t = Timestamp::from_secs(10) + TimeDelta::from_millis(250);
/// assert_eq!(t.as_millis(), 10_250);
/// assert_eq!(t.quantize_secs().as_millis(), 10_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The trace epoch (time zero).
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Creates a timestamp from milliseconds since the trace epoch.
    pub const fn from_millis(millis: u64) -> Self {
        Timestamp(millis)
    }

    /// Creates a timestamp from whole seconds since the trace epoch.
    ///
    /// Saturates at the representable maximum instead of wrapping: a trace
    /// cannot outlive the clock, and CLI inputs are validated before they
    /// get here, so saturation only shields against absurd programmatic
    /// values.
    pub const fn from_secs(secs: u64) -> Self {
        Timestamp(secs.saturating_mul(1000))
    }

    /// Creates a timestamp from whole days since the trace epoch
    /// (saturating, like [`Timestamp::from_secs`]).
    pub const fn from_days(days: u64) -> Self {
        Timestamp(days.saturating_mul(86_400_000))
    }

    /// Milliseconds since the trace epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since the trace epoch (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// Fractional days since the trace epoch.
    pub fn as_days(self) -> f64 {
        self.0 as f64 / 86_400_000.0
    }

    /// Rounds the timestamp down to whole-second precision, mirroring the
    /// paper's trace-collection infrastructure.
    pub const fn quantize_secs(self) -> Self {
        Timestamp(self.0 / 1000 * 1000)
    }

    /// Saturating difference between two timestamps.
    pub const fn delta_since(self, earlier: Timestamp) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(earlier.0))
    }

    /// The timestamp `delta` earlier than `self`, saturating at the epoch.
    pub const fn saturating_sub(self, delta: TimeDelta) -> Timestamp {
        Timestamp(self.0.saturating_sub(delta.0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0 % 1000;
        let s = self.0 / 1000;
        let (d, s) = (s / 86_400, s % 86_400);
        let (h, s) = (s / 3600, s % 3600);
        let (m, s) = (s / 60, s % 60);
        if ms == 0 {
            write!(f, "{d}d{h:02}:{m:02}:{s:02}")
        } else {
            write!(f, "{d}d{h:02}:{m:02}:{s:02}.{ms:03}")
        }
    }
}

impl Add<TimeDelta> for Timestamp {
    type Output = Timestamp;

    fn add(self, rhs: TimeDelta) -> Timestamp {
        Timestamp(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<TimeDelta> for Timestamp {
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = TimeDelta;

    fn sub(self, rhs: Timestamp) -> TimeDelta {
        self.delta_since(rhs)
    }
}

/// A span of simulated time, in milliseconds.
///
/// Used for sliding-window sizes, search bounds and the repair-time cost
/// model.
///
/// # Examples
///
/// ```
/// use ocasta_ttkv::TimeDelta;
///
/// assert_eq!(TimeDelta::from_secs(1).as_millis(), 1000);
/// assert!(TimeDelta::from_days(1) > TimeDelta::from_secs(600));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeDelta(u64);

impl TimeDelta {
    /// A zero-length span (window size 0 ⇒ identical timestamps only).
    pub const ZERO: TimeDelta = TimeDelta(0);

    /// Creates a span from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        TimeDelta(millis)
    }

    /// Creates a span from whole seconds (saturating, like
    /// [`Timestamp::from_secs`]).
    pub const fn from_secs(secs: u64) -> Self {
        TimeDelta(secs.saturating_mul(1000))
    }

    /// Creates a span from whole minutes (saturating).
    pub const fn from_mins(mins: u64) -> Self {
        TimeDelta(mins.saturating_mul(60_000))
    }

    /// Creates a span from whole days (saturating).
    pub const fn from_days(days: u64) -> Self {
        TimeDelta(days.saturating_mul(86_400_000))
    }

    /// The span in milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// The span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Sum of two spans.
    pub const fn saturating_add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.saturating_add(rhs.0))
    }

    /// Scales the span by an integer factor (saturating).
    pub const fn scale(self, factor: u64) -> TimeDelta {
        TimeDelta(self.0.saturating_mul(factor))
    }

    /// Formats as `mm:ss` (rounding to the nearest second), the shape used by
    /// the paper's Table IV.
    pub fn as_mmss(self) -> String {
        let secs = (self.0 + 500) / 1000;
        format!("{}:{:02}", secs / 60, secs % 60)
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;

    fn add(self, rhs: TimeDelta) -> TimeDelta {
        self.saturating_add(rhs)
    }
}

impl AddAssign for TimeDelta {
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1000) {
            write!(f, "{}s", self.0 / 1000)
        } else {
            write!(f, "{}ms", self.0)
        }
    }
}

/// Timestamp precision used when interpreting a trace.
///
/// The paper's deployed loggers recorded at [`TimePrecision::Seconds`];
/// [`TimePrecision::Milliseconds`] models the finer-grained infrastructure
/// the authors suggest would eliminate most oversized clusters (§VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TimePrecision {
    /// Quantise timestamps to whole seconds (paper default).
    #[default]
    Seconds,
    /// Keep full millisecond precision.
    Milliseconds,
}

impl TimePrecision {
    /// Applies this precision to a timestamp.
    pub fn apply(self, t: Timestamp) -> Timestamp {
        match self {
            TimePrecision::Seconds => t.quantize_secs(),
            TimePrecision::Milliseconds => t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_constructors_agree() {
        assert_eq!(Timestamp::from_secs(2), Timestamp::from_millis(2000));
        assert_eq!(Timestamp::from_days(1), Timestamp::from_secs(86_400));
    }

    #[test]
    fn quantize_drops_subsecond_part() {
        let t = Timestamp::from_millis(1999);
        assert_eq!(t.quantize_secs(), Timestamp::from_secs(1));
        assert_eq!(t.quantize_secs().quantize_secs(), t.quantize_secs());
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = Timestamp::from_secs(100);
        let d = TimeDelta::from_millis(1500);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).saturating_sub(d), t);
    }

    #[test]
    fn delta_since_saturates() {
        let early = Timestamp::from_secs(1);
        let late = Timestamp::from_secs(5);
        assert_eq!(early.delta_since(late), TimeDelta::ZERO);
        assert_eq!(late.delta_since(early), TimeDelta::from_secs(4));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Timestamp::from_secs(90_061).to_string(), "1d01:01:01");
        assert_eq!(Timestamp::from_millis(1250).to_string(), "0d00:00:01.250");
        assert_eq!(TimeDelta::from_secs(30).to_string(), "30s");
        assert_eq!(TimeDelta::from_millis(1250).to_string(), "1250ms");
    }

    #[test]
    fn mmss_rounds_to_nearest_second() {
        assert_eq!(TimeDelta::from_millis(29_499).as_mmss(), "0:29");
        assert_eq!(TimeDelta::from_millis(29_500).as_mmss(), "0:30");
        assert_eq!(TimeDelta::from_secs(3661).as_mmss(), "61:01");
    }

    #[test]
    fn absurd_inputs_saturate_instead_of_wrapping() {
        // Regression: these used to use unchecked multiplication, so an
        // absurd day count panicked in debug builds and silently wrapped
        // in release builds.
        let max = Timestamp::from_millis(u64::MAX);
        assert_eq!(Timestamp::from_days(u64::MAX), max);
        assert_eq!(Timestamp::from_secs(u64::MAX), max);
        assert_eq!(TimeDelta::from_days(u64::MAX).as_millis(), u64::MAX);
        assert_eq!(TimeDelta::from_mins(u64::MAX).as_millis(), u64::MAX);
        assert_eq!(
            TimeDelta::from_secs(2).scale(u64::MAX).as_millis(),
            u64::MAX
        );
        assert_eq!(max + TimeDelta::from_days(u64::MAX), max);
        let mut t = max;
        t += TimeDelta::from_secs(1);
        assert_eq!(t, max);
    }

    #[test]
    fn precision_modes() {
        let t = Timestamp::from_millis(1234);
        assert_eq!(TimePrecision::Seconds.apply(t), Timestamp::from_secs(1));
        assert_eq!(TimePrecision::Milliseconds.apply(t), t);
    }
}
