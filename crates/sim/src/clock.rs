//! Per-worker virtual clocks, and the one sanctioned host-time stopwatch.

use std::time::Instant;

use crate::time::{SimDuration, SimTime};

/// A worker's private virtual clock.
///
/// Each logical worker (a database scheduler, a benchmark thread, a memory
/// server's proxy) owns one `Clock`. Resource acquisitions advance it past
/// queueing and service delays; pure CPU work advances it directly via
/// [`Clock::advance`].
#[derive(Debug, Clone)]
pub struct Clock {
    now: SimTime,
}

impl Clock {
    /// A clock starting at simulation time zero.
    pub fn new() -> Clock {
        Clock { now: SimTime::ZERO }
    }

    /// A clock starting at an arbitrary instant (used when a worker joins an
    /// already-running simulation, e.g. a newly elected primary).
    pub fn starting_at(t: SimTime) -> Clock {
        Clock { now: t }
    }

    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Spend `d` of this worker's virtual time (CPU work, spinning, sleeping).
    #[inline]
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// Jump forward to `t`. No-op if `t` is in the past — virtual time never
    /// runs backwards for a worker.
    #[inline]
    pub fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

/// A wall-clock stopwatch for host-cost reporting. Lives in `remem-sim` (the
/// one crate exempt from the wall-clock audit rule) so benchmark binaries
/// can measure host time without touching `std::time` themselves. Wall
/// times must never enter fingerprinted report data — route them through
/// `Report::volatile_note`.
#[derive(Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    #[allow(clippy::new_without_default)]
    // audit: allow(det-taint, sanctioned wall-clock boundary: stopwatch output is volatile reporting only and never enters fingerprints)
    pub fn start() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    /// Elapsed host milliseconds since `start`.
    pub fn elapsed_ms(&self) -> f64 {
        self.0.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_monotonically() {
        let mut c = Clock::new();
        c.advance(SimDuration::from_micros(3));
        assert_eq!(c.now().as_nanos(), 3_000);
        c.advance_to(SimTime(10_000));
        assert_eq!(c.now().as_nanos(), 10_000);
        // advancing to the past is a no-op
        c.advance_to(SimTime(5));
        assert_eq!(c.now().as_nanos(), 10_000);
    }

    #[test]
    fn starting_at_offsets_the_origin() {
        let c = Clock::starting_at(SimTime(42));
        assert_eq!(c.now(), SimTime(42));
    }

    #[test]
    fn stopwatch_measures_host_time() {
        let sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(sw.elapsed_ms() >= 4.0);
    }
}
