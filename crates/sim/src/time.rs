//! Simulated time: a monotonically increasing nanosecond counter.
//!
//! All protocol timers in the reproduction (OSPF hello/dead intervals,
//! LLDP probe periods, VM boot delays, video frame pacing) are
//! expressed as [`std::time::Duration`] offsets from the current
//! [`Time`], so experiment results are independent of wall-clock speed
//! and host load — unlike the paper's testbed measurements.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An absolute instant in simulated time, in nanoseconds since the
/// start of the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The simulation epoch (t = 0).
    pub const ZERO: Time = Time(0);

    /// Largest representable instant; used as an "infinite" deadline.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Time(s * 1_000_000_000)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Time(ms * 1_000_000)
    }

    /// Raw nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since the epoch (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since the epoch as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`. Saturates at zero if `earlier`
    /// is in the future.
    pub fn since(self, earlier: Time) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Saturating add of a duration.
    pub fn saturating_add(self, d: Duration) -> Time {
        // In u64 throughout: `Duration::as_nanos` returns u128, and the
        // 128-bit multiply showed up in profiles of the hot path (every
        // schedule and every link-busy update lands here). A duration
        // whose seconds alone overflow u64 nanoseconds saturates, which
        // is what the u128 path produced too.
        let d_nanos = match d.as_secs().checked_mul(1_000_000_000) {
            Some(s) => s.saturating_add(u64::from(d.subsec_nanos())),
            None => u64::MAX,
        };
        Time(self.0.saturating_add(d_nanos))
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        self.saturating_add(rhs)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        self.since(rhs)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.0 / 1_000_000_000;
        let millis = (self.0 % 1_000_000_000) / 1_000_000;
        write!(f, "{secs}.{millis:03}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrip() {
        assert_eq!(Time::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(Time::from_millis(1500).as_secs_f64(), 1.5);
        assert_eq!(Time::from_nanos(42).as_nanos(), 42);
    }

    #[test]
    fn add_duration() {
        let t = Time::from_secs(1) + Duration::from_millis(250);
        assert_eq!(t.as_millis(), 1250);
    }

    #[test]
    fn since_saturates() {
        let a = Time::from_secs(1);
        let b = Time::from_secs(5);
        assert_eq!(b.since(a), Duration::from_secs(4));
        assert_eq!(a.since(b), Duration::ZERO);
    }

    #[test]
    fn sub_is_since() {
        let a = Time::from_millis(100);
        let b = Time::from_millis(350);
        assert_eq!(b - a, Duration::from_millis(250));
    }

    #[test]
    fn saturating_add_caps_at_max() {
        let t = Time::MAX.saturating_add(Duration::from_secs(10));
        assert_eq!(t, Time::MAX);
    }

    #[test]
    fn display_format() {
        assert_eq!(Time::from_millis(12345).to_string(), "12.345s");
        assert_eq!(Time::ZERO.to_string(), "0.000s");
    }

    #[test]
    fn ordering() {
        assert!(Time::from_secs(1) < Time::from_secs(2));
        assert!(Time::ZERO < Time::MAX);
    }
}
