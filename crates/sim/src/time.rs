//! Simulation clock types.
//!
//! The kernel keeps time in **integer picoseconds** so that event ordering is
//! exact and runs are bit-reproducible. Picosecond resolution comfortably
//! covers both a 1 GHz accelerator cycle (1000 ps) and multi-second training
//! iterations (`u64` picoseconds span ~213 days).

use std::fmt;

use serde::{Deserialize, Serialize};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, measured in picoseconds since simulation start.
///
/// # Examples
///
/// ```
/// use mcdla_sim::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_us(3);
/// assert_eq!(t.as_ps(), 3_000_000);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span of simulated time, measured in picoseconds.
///
/// # Examples
///
/// ```
/// use mcdla_sim::SimDuration;
///
/// let d = SimDuration::from_ns(5) * 4;
/// assert_eq!(d.as_secs_f64(), 20e-9);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(u64);

const PS_PER_NS: u64 = 1_000;
const PS_PER_US: u64 = 1_000_000;
const PS_PER_MS: u64 = 1_000_000_000;
const PS_PER_SEC: u64 = 1_000_000_000_000;

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The latest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `ps` picoseconds after simulation start.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates an instant `ns` nanoseconds after simulation start.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }

    /// Creates an instant `us` microseconds after simulation start.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }

    /// Returns the raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the instant as fractional seconds since simulation start.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`, or zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration; used as an "infinite" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration of `ps` picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a duration of `ns` nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }

    /// Creates a duration of `us` microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }

    /// Creates a duration of `ms` milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * PS_PER_MS)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// picosecond. Negative, NaN, or non-finite inputs saturate to zero or
    /// [`SimDuration::MAX`] respectively.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            if secs.is_infinite() && secs > 0.0 {
                return SimDuration::MAX;
            }
            return SimDuration::ZERO;
        }
        let ps = secs * PS_PER_SEC as f64;
        if ps >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(ps.round() as u64)
        }
    }

    /// Returns the raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Returns the duration as fractional milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }

    /// True when the duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Duration minus `other`, saturating at zero.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Returns the larger of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two durations.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Ratio of `self` to `total`, as a fraction in `[0, 1]` when
    /// `self <= total`. Returns 0 when `total` is zero.
    #[inline]
    pub fn fraction_of(self, total: SimDuration) -> f64 {
        if total.0 == 0 {
            0.0
        } else {
            self.0 as f64 / total.0 as f64
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    #[inline]
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({})", format_ps(self.0))
    }
}

impl fmt::Display for SimTime {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_ps(self.0))
    }
}

impl fmt::Debug for SimDuration {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({})", format_ps(self.0))
    }
}

impl fmt::Display for SimDuration {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_ps(self.0))
    }
}

fn format_ps(ps: u64) -> String {
    if ps == u64::MAX {
        return "inf".to_owned();
    }
    if ps >= PS_PER_SEC {
        format!("{:.6}s", ps as f64 / PS_PER_SEC as f64)
    } else if ps >= PS_PER_MS {
        format!("{:.3}ms", ps as f64 / PS_PER_MS as f64)
    } else if ps >= PS_PER_US {
        format!("{:.3}us", ps as f64 / PS_PER_US as f64)
    } else if ps >= PS_PER_NS {
        format!("{:.3}ns", ps as f64 / PS_PER_NS as f64)
    } else {
        format!("{ps}ps")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimDuration::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimDuration::from_us(1).as_ps(), 1_000_000);
        assert_eq!(SimDuration::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(SimDuration::from_secs_f64(1.0).as_ps(), PS_PER_SEC);
        assert!((SimDuration::from_ps(1_500).as_secs_f64() - 1.5e-9).abs() < 1e-18);
    }

    #[test]
    fn from_secs_f64_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
        assert_eq!(SimDuration::from_secs_f64(1e30), SimDuration::MAX);
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::from_ns(10);
        let t1 = t0 + SimDuration::from_ns(5);
        assert_eq!(t1 - t0, SimDuration::from_ns(5));
        assert_eq!(t1.saturating_since(SimTime::from_us(1)), SimDuration::ZERO);
        assert_eq!(t0.max(t1), t1);
        assert_eq!(t0.min(t1), t0);
    }

    #[test]
    fn duration_arithmetic_saturates() {
        let d = SimDuration::MAX;
        assert_eq!(d + SimDuration::from_ns(1), SimDuration::MAX);
        assert_eq!(SimTime::MAX + d, SimTime::MAX);
        assert_eq!(d * 2, SimDuration::MAX);
    }

    #[test]
    fn fraction_of_total() {
        let d = SimDuration::from_us(25);
        assert!((d.fraction_of(SimDuration::from_us(100)) - 0.25).abs() < 1e-12);
        assert_eq!(d.fraction_of(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_ps(12).to_string(), "12ps");
        assert_eq!(SimDuration::from_ns(12).to_string(), "12.000ns");
        assert_eq!(SimDuration::from_us(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_ms(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs_f64(1.25).to_string(), "1.250000s");
        assert_eq!(SimDuration::MAX.to_string(), "inf");
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![
            SimTime::from_us(3),
            SimTime::ZERO,
            SimTime::from_ns(10),
            SimTime::MAX,
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::ZERO,
                SimTime::from_ns(10),
                SimTime::from_us(3),
                SimTime::MAX
            ]
        );
    }
}
