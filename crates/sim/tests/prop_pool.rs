//! Property test pinning [`PoolResource`] to the selection rule it was
//! written with.
//!
//! The pool used to keep one `(backlog, watermark)` pair per server and, for
//! every request, walk all of them twice: drain each to the request's time,
//! then take the first minimum backlog. The heaps that replaced the walk must
//! hand out the same `Grant` for every request of any stream — arrivals
//! behind the watermark and zero-length services included — and report the
//! same utilization.

use proptest::prelude::*;
use remem_sim::{PoolResource, SimDuration, SimTime};

/// The two-pass scan, one fluid queue per server.
struct ScanPool {
    /// `(backlog, watermark)` per server, in nanoseconds.
    servers: Vec<(u64, u64)>,
    total_service: u64,
}

impl ScanPool {
    fn new(k: usize) -> ScanPool {
        ScanPool {
            servers: vec![(0, 0); k],
            total_service: 0,
        }
    }

    /// Returns the granted `(start, end)`.
    fn acquire(&mut self, now: u64, service: u64) -> (u64, u64) {
        self.total_service += service;
        for (backlog, watermark) in self.servers.iter_mut() {
            if now > *watermark {
                *backlog = backlog.saturating_sub(now - *watermark);
                *watermark = now;
            }
        }
        // `min_by_key` keeps the first of equal minima: lowest index wins
        let (backlog, _) = self
            .servers
            .iter_mut()
            .min_by_key(|(backlog, _)| *backlog)
            .expect("pool is non-empty");
        let start = now + *backlog;
        *backlog += service;
        (start, start + service)
    }

    fn utilization(&self, horizon: u64) -> f64 {
        (self.total_service as f64 / (horizon as f64 * self.servers.len() as f64)).min(1.0)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random request streams: arrival times wander forwards *and*
    /// backwards, a fifth of the services are zero-length, and the service
    /// scale spans "pool mostly idle" to "every server backlogged".
    #[test]
    fn grants_match_the_two_pass_scan(
        k in prop_oneof![Just(1usize), Just(2), Just(8), Just(1024)],
        scale in prop_oneof![Just(1u64), Just(40), Just(4_000)],
        reqs in prop::collection::vec((0u64..300, 0u64..120, 0u64..5), 1..400),
    ) {
        let pool = PoolResource::new(k);
        let mut scan = ScanPool::new(k);
        let mut now = 1_000u64;
        let mut horizon = 1u64;
        for (step, (jump, service, zero)) in reqs.into_iter().enumerate() {
            // jumps below 100 step the clock back: an out-of-order arrival
            now = (now + jump).saturating_sub(100);
            let service = if zero == 0 { 0 } else { service * scale };
            let g = pool.acquire(SimTime(now), SimDuration(service));
            let want = scan.acquire(now, service);
            prop_assert_eq!((g.start.0, g.end.0), want, "request {} at {} for {}", step, now, service);
            horizon = horizon.max(g.end.0);
        }
        for h in [horizon / 2 + 1, horizon, horizon * 2] {
            prop_assert_eq!(pool.utilization(SimTime(h)), scan.utilization(h), "horizon {}", h);
        }
    }
}
