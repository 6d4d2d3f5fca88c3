//! Simulated time: nanosecond-resolution instants and durations.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant on the simulated wall clock, in nanoseconds since start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The zero instant (simulation start).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `s` seconds after start, saturating at
    /// [`SimTime::MAX`] — untrusted inputs (e.g. a `.scn` file's
    /// `duration 99999999999s`) must not be able to overflow-panic a debug
    /// build.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s.saturating_mul(1_000_000_000))
    }

    /// Creates an instant `ms` milliseconds after start (saturating).
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms.saturating_mul(1_000_000))
    }

    /// Creates an instant `us` microseconds after start (saturating).
    pub fn from_micros(us: u64) -> Self {
        SimTime(us.saturating_mul(1_000))
    }

    /// Returns the instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference between two instants.
    pub fn saturating_sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Difference between two instants, or `None` when `other` is later —
    /// for call sites where "the other event has not happened yet" is a
    /// representable state rather than a logic error.
    pub fn checked_sub(self, other: SimTime) -> Option<SimDuration> {
        Some(SimDuration(self.0.checked_sub(other.0)?))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `s` seconds, saturating at the largest
    /// representable duration (see [`SimTime::from_secs`]).
    pub fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(1_000_000_000))
    }

    /// Creates a duration of `ms` milliseconds (saturating).
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000_000))
    }

    /// Creates a duration of `us` microseconds (saturating).
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us.saturating_mul(1_000))
    }

    /// Creates a duration of `ns` nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from fractional seconds, rounding to nanoseconds.
    ///
    /// Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((s * 1e9).round() as u64)
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference between two durations.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Difference between two durations, or `None` on underflow.
    pub fn checked_sub(self, other: SimDuration) -> Option<SimDuration> {
        Some(SimDuration(self.0.checked_sub(other.0)?))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

/// Plain subtraction panics on underflow in debug builds. Use it only
/// where an earlier-minus-later difference is a genuine logic error; where
/// "not yet" is representable (convergence times, scheduling deltas),
/// reach for [`SimTime::saturating_sub`] or [`SimTime::checked_sub`].
impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

/// Duration subtraction saturates at zero: "no time left" is the natural
/// floor for every scheduling computation in the workspace.
impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(2).0, 2_000_000_000);
        assert_eq!(SimTime::from_millis(3).0, 3_000_000);
        assert_eq!(SimTime::from_micros(5).0, 5_000);
        assert_eq!(SimDuration::from_secs(1).as_secs_f64(), 1.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
        assert_eq!(t - SimTime::from_millis(10), SimDuration::from_millis(5));
        assert_eq!(SimDuration::from_millis(4) * 3, SimDuration::from_millis(12));
        assert_eq!(SimDuration::from_millis(12) / 4, SimDuration::from_millis(3));
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(
            SimTime::from_millis(1).saturating_sub(SimTime::from_millis(5)),
            SimDuration::ZERO
        );
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
        assert_eq!(
            SimDuration::from_millis(1) - SimDuration::from_millis(2),
            SimDuration::ZERO
        );
    }

    /// Constructors saturate instead of overflowing — with overflow checks
    /// on (debug builds / the debug-profile CI job), `u64::MAX` seconds
    /// must produce `MAX`, not a panic.
    #[test]
    fn constructors_saturate_on_overflow() {
        assert_eq!(SimTime::from_secs(u64::MAX), SimTime::MAX);
        assert_eq!(SimTime::from_millis(u64::MAX), SimTime::MAX);
        assert_eq!(SimTime::from_micros(u64::MAX), SimTime::MAX);
        assert_eq!(SimDuration::from_secs(u64::MAX).0, u64::MAX);
        assert_eq!(SimDuration::from_millis(u64::MAX).0, u64::MAX);
        assert_eq!(SimDuration::from_micros(u64::MAX).0, u64::MAX);
        // In-range values are exact, not merely clamped.
        assert_eq!(SimTime::from_secs(3).0, 3_000_000_000);
    }

    #[test]
    fn checked_sub_reports_underflow() {
        let a = SimTime::from_millis(5);
        let b = SimTime::from_millis(9);
        assert_eq!(b.checked_sub(a), Some(SimDuration::from_millis(4)));
        assert_eq!(a.checked_sub(b), None);
        let d = SimDuration::from_millis(5);
        let e = SimDuration::from_millis(9);
        assert_eq!(e.checked_sub(d), Some(SimDuration::from_millis(4)));
        assert_eq!(d.checked_sub(e), None);
        assert_eq!(d.saturating_sub(e), SimDuration::ZERO);
    }

    #[test]
    fn from_secs_f64_clamps_and_rounds() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(0.001), SimDuration::from_millis(1));
    }
}
