//! Virtual time: nanosecond-precision instants and durations.
//!
//! All device and protocol models in the workspace express their costs as
//! [`SimDuration`]s and advance [`SimTime`] instants. Using integers (not
//! floats) keeps simulations exactly reproducible across runs and platforms.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant in virtual time, measured in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Elapsed duration since `earlier`; saturates to zero if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    #[inline]
    pub const fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    #[inline]
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    #[inline]
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    #[inline]
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000_000)
    }

    /// Time to move `bytes` at `bytes_per_sec` (rounded up to whole ns).
    pub fn for_transfer(bytes: u64, bytes_per_sec: u64) -> SimDuration {
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        // ns = bytes * 1e9 / bw, computed in u128 to avoid overflow.
        let ns = (bytes as u128 * 1_000_000_000u128).div_ceil(bytes_per_sec as u128);
        SimDuration(ns as u64)
    }

    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.2}us", self.as_micros_f64())
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.2}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_round_trips() {
        let t = SimTime::ZERO + SimDuration::from_micros(5);
        assert_eq!(t.as_nanos(), 5_000);
        let t2 = t + SimDuration::from_millis(1);
        assert_eq!((t2 - t).as_micros_f64(), 1_000.0);
        assert_eq!(t2.since(t), SimDuration::from_millis(1));
        // saturating: since() of an earlier instant is zero
        assert_eq!(t.since(t2), SimDuration::ZERO);
    }

    #[test]
    fn transfer_time_matches_bandwidth() {
        // 56 Gbps = 7 GB/s: an 8 KiB page takes ~1.17 us on the wire.
        let d = SimDuration::for_transfer(8192, 7_000_000_000);
        assert!(d.as_micros_f64() > 1.0 && d.as_micros_f64() < 1.3, "{d}");
        // Zero bytes transfer instantly.
        assert_eq!(SimDuration::for_transfer(0, 1), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        let _ = SimDuration::for_transfer(1, 0);
    }

    #[test]
    fn transfer_time_rounds_up() {
        // 1 byte at 3 bytes/sec needs ceil(1e9/3) ns.
        let d = SimDuration::for_transfer(1, 3);
        assert_eq!(d.as_nanos(), 333_333_334);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(50)), "50.00us");
        assert_eq!(format!("{}", SimDuration::from_millis(8)), "8.00ms");
        assert_eq!(format!("{}", SimDuration::from_secs(3)), "3.000s");
    }

    #[test]
    fn scalar_ops() {
        let d = SimDuration::from_micros(10);
        assert_eq!(d * 3, SimDuration::from_micros(30));
        assert_eq!(d / 2, SimDuration::from_micros(5));
        assert_eq!(
            d.max(SimDuration::from_micros(12)),
            SimDuration::from_micros(12)
        );
    }
}
