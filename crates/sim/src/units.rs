//! Data-size and bandwidth quantities.
//!
//! The paper mixes decimal units for link bandwidth (e.g. "25 GB/sec per
//! NVLINK") with binary units for memory sizes (e.g. "16 GB HBM"). Both are
//! provided; decimal constructors are `kb`/`mb`/`gb`, binary ones are
//! `kib`/`mib`/`gib`.

use std::fmt;

use serde::{Deserialize, Serialize};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use crate::time::SimDuration;

/// A number of bytes.
///
/// # Examples
///
/// ```
/// use mcdla_sim::Bytes;
///
/// let fmap = Bytes::from_mib(64);
/// assert_eq!(fmap.as_u64(), 64 * 1024 * 1024);
/// assert_eq!((fmap * 2).as_mib(), 128.0);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a byte count.
    #[inline]
    pub const fn new(bytes: u64) -> Self {
        Bytes(bytes)
    }

    /// Decimal kilobytes (1 KB = 1000 B).
    #[inline]
    pub const fn from_kb(kb: u64) -> Self {
        Bytes(kb * 1_000)
    }

    /// Decimal megabytes (1 MB = 10^6 B).
    #[inline]
    pub const fn from_mb(mb: u64) -> Self {
        Bytes(mb * 1_000_000)
    }

    /// Decimal gigabytes (1 GB = 10^9 B).
    #[inline]
    pub const fn from_gb(gb: u64) -> Self {
        Bytes(gb * 1_000_000_000)
    }

    /// Binary kibibytes (1 KiB = 1024 B).
    #[inline]
    pub const fn from_kib(kib: u64) -> Self {
        Bytes(kib * 1024)
    }

    /// Binary mebibytes.
    #[inline]
    pub const fn from_mib(mib: u64) -> Self {
        Bytes(mib * 1024 * 1024)
    }

    /// Binary gibibytes.
    #[inline]
    pub const fn from_gib(gib: u64) -> Self {
        Bytes(gib * 1024 * 1024 * 1024)
    }

    /// Raw byte count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Byte count as `f64`, for rate arithmetic.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Fractional mebibytes.
    #[inline]
    pub fn as_mib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Fractional gibibytes.
    #[inline]
    pub fn as_gib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// Fractional decimal gigabytes.
    #[inline]
    pub fn as_gb(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True when zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Subtraction saturating at zero.
    #[inline]
    pub fn saturating_sub(self, other: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(other.0))
    }

    /// Division rounding up; returns 0 chunks only for zero bytes.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero bytes.
    #[inline]
    pub fn div_ceil(self, chunk: Bytes) -> u64 {
        assert!(chunk.0 > 0, "chunk size must be non-zero");
        self.0.div_ceil(chunk.0)
    }

    /// Returns the larger of two sizes.
    #[inline]
    pub fn max(self, other: Bytes) -> Bytes {
        Bytes(self.0.max(other.0))
    }

    /// Returns the smaller of two sizes.
    #[inline]
    pub fn min(self, other: Bytes) -> Bytes {
        Bytes(self.0.min(other.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        *self = *self + rhs;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        debug_assert!(self.0 >= rhs.0, "Bytes subtraction underflow");
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Bytes {
    type Output = Bytes;
    #[inline]
    fn div(self, rhs: u64) -> Bytes {
        Bytes(self.0 / rhs)
    }
}

impl Sum for Bytes {
    #[inline]
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, Add::add)
    }
}

impl fmt::Debug for Bytes {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({self})")
    }
}

impl fmt::Display for Bytes {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1024 * 1024 * 1024 {
            write!(f, "{:.2}GiB", self.as_gib())
        } else if b >= 1024 * 1024 {
            write!(f, "{:.2}MiB", self.as_mib())
        } else if b >= 1024 {
            write!(f, "{:.2}KiB", b as f64 / 1024.0)
        } else {
            write!(f, "{b}B")
        }
    }
}

/// A data rate in bytes per second.
///
/// # Examples
///
/// ```
/// use mcdla_sim::{Bandwidth, Bytes};
///
/// // One NVLINK-class link from the paper: 25 GB/s uni-directional.
/// let link = Bandwidth::gb_per_sec(25.0);
/// let t = link.transfer_time(Bytes::from_gb(50));
/// assert!((t.as_secs_f64() - 2.0).abs() < 1e-9);
/// ```
#[derive(Copy, Clone, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Zero bandwidth (a disconnected channel).
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// Creates a bandwidth from raw bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is negative or NaN.
    #[inline]
    pub fn bytes_per_sec(bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec >= 0.0,
            "bandwidth must be a finite non-negative number"
        );
        Bandwidth(bytes_per_sec)
    }

    /// Decimal gigabytes per second (the unit used throughout the paper).
    #[inline]
    pub fn gb_per_sec(gb: f64) -> Self {
        Bandwidth::bytes_per_sec(gb * 1e9)
    }

    /// Raw bytes per second.
    #[inline]
    pub fn as_bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Decimal gigabytes per second.
    #[inline]
    pub fn as_gb_per_sec(self) -> f64 {
        self.0 / 1e9
    }

    /// True when zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Time to move `bytes` at this rate; [`SimDuration::MAX`] at zero rate
    /// (unless `bytes` is also zero, which takes no time).
    #[inline]
    pub fn transfer_time(self, bytes: Bytes) -> SimDuration {
        if bytes.is_zero() {
            SimDuration::ZERO
        } else if self.0 == 0.0 {
            SimDuration::MAX
        } else {
            SimDuration::from_secs_f64(bytes.as_f64() / self.0)
        }
    }

    /// Returns the smaller of two bandwidths.
    #[inline]
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(other.0))
    }

    /// Returns the larger of two bandwidths.
    #[inline]
    pub fn max(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.max(other.0))
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    #[inline]
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl Mul<f64> for Bandwidth {
    type Output = Bandwidth;
    #[inline]
    fn mul(self, rhs: f64) -> Bandwidth {
        Bandwidth::bytes_per_sec(self.0 * rhs)
    }
}

impl Div<f64> for Bandwidth {
    type Output = Bandwidth;
    #[inline]
    fn div(self, rhs: f64) -> Bandwidth {
        Bandwidth::bytes_per_sec(self.0 / rhs)
    }
}

impl Sum for Bandwidth {
    #[inline]
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        iter.fold(Bandwidth::ZERO, Add::add)
    }
}

impl fmt::Debug for Bandwidth {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bandwidth({self})")
    }
}

impl fmt::Display for Bandwidth {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}GB/s", self.as_gb_per_sec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_constructors() {
        assert_eq!(Bytes::from_kb(2).as_u64(), 2_000);
        assert_eq!(Bytes::from_kib(2).as_u64(), 2_048);
        assert_eq!(Bytes::from_gb(1).as_u64(), 1_000_000_000);
        assert_eq!(Bytes::from_gib(1).as_u64(), 1 << 30);
    }

    #[test]
    fn byte_display() {
        assert_eq!(Bytes::new(17).to_string(), "17B");
        assert_eq!(Bytes::from_kib(4).to_string(), "4.00KiB");
        assert_eq!(Bytes::from_mib(8).to_string(), "8.00MiB");
        assert_eq!(Bytes::from_gib(2).to_string(), "2.00GiB");
    }

    #[test]
    fn div_ceil_rounds_up() {
        assert_eq!(Bytes::new(10).div_ceil(Bytes::new(4)), 3);
        assert_eq!(Bytes::ZERO.div_ceil(Bytes::new(4)), 0);
    }

    #[test]
    #[should_panic(expected = "chunk size must be non-zero")]
    fn div_ceil_zero_chunk_panics() {
        let _ = Bytes::new(1).div_ceil(Bytes::ZERO);
    }

    #[test]
    fn transfer_time_basic() {
        let bw = Bandwidth::gb_per_sec(25.0);
        let t = bw.transfer_time(Bytes::from_gb(25));
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
        assert_eq!(bw.transfer_time(Bytes::ZERO), SimDuration::ZERO);
        assert_eq!(
            Bandwidth::ZERO.transfer_time(Bytes::new(1)),
            SimDuration::MAX
        );
        assert_eq!(
            Bandwidth::ZERO.transfer_time(Bytes::ZERO),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn negative_bandwidth_panics() {
        let _ = Bandwidth::bytes_per_sec(-1.0);
    }

    #[test]
    fn bandwidth_arithmetic() {
        let a = Bandwidth::gb_per_sec(10.0) + Bandwidth::gb_per_sec(15.0);
        assert!((a.as_gb_per_sec() - 25.0).abs() < 1e-12);
        assert!(((a / 5.0).as_gb_per_sec() - 5.0).abs() < 1e-12);
        assert!(((a * 2.0).as_gb_per_sec() - 50.0).abs() < 1e-12);
    }
}
