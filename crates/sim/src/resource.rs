//! Shared contention points, modelled by *reservation in virtual time*.
//!
//! A resource remembers when it next becomes free. A request arriving at
//! worker time `t` with service demand `s` is granted the interval
//! `[max(t, free), max(t, free) + s)` and the resource's free time moves to
//! the end of that interval. Under light load `free <= t` and the caller sees
//! only its service time; once the resource saturates, `free` races ahead of
//! the workers' clocks and the queueing delay `free - t` grows — which is the
//! saturation behaviour measured in the paper (Figs. 5, 6, 25).
//!
//! All resources are internally synchronized: the devices built on them
//! are shared as `Arc<dyn Device>` and must stay `Sync`. Determinism comes
//! from the caller — [`crate::driver`] calls from one thread in
//! min-`(clock, worker)` order, so every grant is a pure function of the
//! request sequence.

use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::time::{SimDuration, SimTime};

/// Result of acquiring a resource: when service started and when it completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When the resource began serving this request (>= request time).
    pub start: SimTime,
    /// When the request completed; callers advance their clocks to this.
    pub end: SimTime,
}

impl Grant {
    /// Total latency experienced by a request issued at `issued`.
    pub fn latency(&self, issued: SimTime) -> SimDuration {
        self.end.since(issued)
    }
}

/// A single-server FIFO resource (one disk arm, one NIC DMA engine, one lock),
/// modelled as a **fluid queue**: the resource carries a work backlog that
/// drains at rate 1 as virtual time advances; a request arriving at `now`
/// waits for the current backlog, then is served.
///
/// Why fluid rather than a single `free_at` frontier: synchronous callers
/// execute whole multi-operation tasks atomically in virtual time, so a
/// frontier model would let one task reserve the resource far into the
/// future and head-of-line-block every concurrent task — inflating latency
/// well beyond what a real pipelined NIC or controller does. The fluid model
/// keeps FIFO delay equal to outstanding work, drains when idle, and still
/// saturates correctly: when offered load exceeds capacity, the backlog (and
/// hence latency) grows while throughput caps at capacity — the behaviour of
/// Figs. 5/6/25.
#[derive(Debug)]
pub struct FifoResource {
    state: Mutex<Fluid>,
    /// Total service time ever reserved (for true utilization accounting).
    total_service: AtomicU64,
}

#[derive(Debug, Default)]
struct Fluid {
    /// Outstanding work (ns) as of `watermark`.
    backlog: u64,
    /// Latest request time observed (ns).
    watermark: u64,
}

impl Fluid {
    fn grant(&mut self, now: SimTime, service: SimDuration) -> Grant {
        if now.0 > self.watermark {
            let drained = now.0 - self.watermark;
            self.backlog = self.backlog.saturating_sub(drained);
            self.watermark = now.0;
        }
        // A request is delayed by the current backlog from its own clock.
        // Callers arrive in near-nondecreasing time order under the
        // min-clock driver; the residual out-of-order skew makes this a
        // slightly optimistic FIFO approximation, never a pessimistic one.
        let start = now.0 + self.backlog;
        let end = start + service.0;
        self.backlog += service.0;
        Grant {
            start: SimTime(start),
            end: SimTime(end),
        }
    }

    fn free_at(&self) -> SimTime {
        SimTime(self.watermark + self.backlog)
    }
}

impl FifoResource {
    pub fn new() -> FifoResource {
        FifoResource {
            state: Mutex::new(Fluid::default()),
            total_service: AtomicU64::new(0),
        }
    }

    /// Queue `service` of work behind the current backlog.
    pub fn acquire(&self, now: SimTime, service: SimDuration) -> Grant {
        self.total_service.fetch_add(service.0, Ordering::Relaxed);
        self.state.lock().grant(now, service)
    }

    /// When the current backlog would drain (diagnostic).
    pub fn free_at(&self) -> SimTime {
        self.state.lock().free_at()
    }

    /// True utilization over `[0, horizon]`: reserved service time divided
    /// by the horizon (capped at 1).
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon.0 == 0 {
            return 0.0;
        }
        (self.total_service.load(Ordering::Relaxed) as f64 / horizon.0 as f64).min(1.0)
    }
}

impl Default for FifoResource {
    fn default() -> Self {
        FifoResource::new()
    }
}

/// A pool of `k` identical servers (CPU cores, SSD channels, staging slots).
/// Each server is a fluid queue (see [`FifoResource`]); a request goes to the
/// least-backlogged server, the lowest-numbered one on a tie.
///
/// Every request drains *all* servers to its arrival time before choosing,
/// so the servers share one watermark and a server is fully described by the
/// absolute instant its backlog drains. "Least backlogged" is then "lowest-
/// numbered idle server, else the one that drains first", which two heaps
/// answer in O(log k) — a pool of 1 024 staging slots costs the same per
/// request as a pool of two.
#[derive(Debug)]
pub struct PoolResource {
    servers: usize,
    state: Mutex<PoolQueues>,
    total_service: AtomicU64,
}

/// The pool's `k` fluid queues behind their shared watermark.
#[derive(Debug)]
struct PoolQueues {
    /// Latest request time observed (ns); every backlog is as of this instant.
    watermark: u64,
    /// Servers with outstanding work, keyed by the instant it drains
    /// (always `> watermark`): earliest first, lowest index on a tie.
    busy: BinaryHeap<Reverse<(u64, u32)>>,
    /// Servers with no backlog as of `watermark`, lowest index first.
    idle: BinaryHeap<Reverse<u32>>,
}

impl PoolQueues {
    fn new(k: usize) -> PoolQueues {
        PoolQueues {
            watermark: 0,
            busy: BinaryHeap::new(),
            idle: (0..k as u32).map(Reverse).collect(),
        }
    }

    fn grant(&mut self, now: u64, service: u64) -> Grant {
        self.watermark = self.watermark.max(now);
        while let Some(&Reverse((drains_at, server))) = self.busy.peek() {
            if drains_at > self.watermark {
                break;
            }
            self.busy.pop();
            self.idle.push(Reverse(server));
        }
        let (server, backlog) = match self.idle.pop() {
            Some(Reverse(server)) => (server, 0),
            None => {
                let Reverse((drains_at, server)) = self.busy.pop().expect("pool is non-empty");
                (server, drains_at - self.watermark)
            }
        };
        // As for `Fluid::grant`: the backlog (measured at the watermark)
        // delays the request from its own clock, which may be behind it.
        let start = now + backlog;
        let backlog = backlog + service;
        if backlog == 0 {
            self.idle.push(Reverse(server));
        } else {
            self.busy.push(Reverse((self.watermark + backlog, server)));
        }
        Grant {
            start: SimTime(start),
            end: SimTime(start + service),
        }
    }
}

impl PoolResource {
    pub fn new(k: usize) -> PoolResource {
        assert!(k > 0, "pool must have at least one server");
        assert!(u32::try_from(k).is_ok(), "pool servers are indexed by u32");
        PoolResource {
            servers: k,
            state: Mutex::new(PoolQueues::new(k)),
            total_service: AtomicU64::new(0),
        }
    }

    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Queue `service` on the least-backlogged server.
    pub fn acquire(&self, now: SimTime, service: SimDuration) -> Grant {
        self.total_service.fetch_add(service.0, Ordering::Relaxed);
        self.state.lock().grant(now.0, service.0)
    }

    /// True utilization across servers over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon.0 == 0 {
            return 0.0;
        }
        let capacity = horizon.0 as f64 * self.servers as f64;
        (self.total_service.load(Ordering::Relaxed) as f64 / capacity).min(1.0)
    }
}

/// A bandwidth-limited pipe (a NIC port, a RAID controller bus).
///
/// Serialization time `bytes / bandwidth` occupies the pipe; a fixed
/// propagation latency is added to the completion but does not occupy the
/// pipe, so many small transfers can be in flight back-to-back.
#[derive(Debug)]
pub struct LinkResource {
    pipe: FifoResource,
    bytes_per_sec: u64,
    propagation: SimDuration,
}

impl LinkResource {
    pub fn new(bytes_per_sec: u64, propagation: SimDuration) -> LinkResource {
        assert!(bytes_per_sec > 0);
        LinkResource {
            pipe: FifoResource::new(),
            bytes_per_sec,
            propagation,
        }
    }

    pub fn bandwidth(&self) -> u64 {
        self.bytes_per_sec
    }

    /// Send `bytes` through the pipe starting no earlier than `now`.
    pub fn transfer(&self, now: SimTime, bytes: u64) -> Grant {
        let ser = SimDuration::for_transfer(bytes, self.bytes_per_sec);
        let g = self.pipe.acquire(now, ser);
        Grant {
            start: g.start,
            end: g.end + self.propagation,
        }
    }

    /// Fraction of `[0, horizon]` during which the pipe was busy.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.pipe.utilization(horizon)
    }
}

/// A pool of CPU cores. Query processing charges its compute here so that
/// CPU-bound workloads saturate (Fig. 11b: RangeScan on remote memory is
/// CPU-bound at ~100 % while HDD+SSD idles at ~20 %).
#[derive(Debug)]
pub struct CpuPool {
    cores: PoolResource,
}

impl CpuPool {
    pub fn new(cores: usize) -> CpuPool {
        CpuPool {
            cores: PoolResource::new(cores),
        }
    }

    pub fn cores(&self) -> usize {
        self.cores.servers()
    }

    /// Execute `work` of CPU time on the earliest-free core.
    pub fn execute(&self, now: SimTime, work: SimDuration) -> Grant {
        self.cores.acquire(now, work)
    }

    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.cores.utilization(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_serializes_requests() {
        let r = FifoResource::new();
        let s = SimDuration::from_micros(10);
        let g1 = r.acquire(SimTime::ZERO, s);
        let g2 = r.acquire(SimTime::ZERO, s);
        assert_eq!(g1.start, SimTime::ZERO);
        assert_eq!(g1.end.as_nanos(), 10_000);
        // second request queues behind the first
        assert_eq!(g2.start.as_nanos(), 10_000);
        assert_eq!(g2.end.as_nanos(), 20_000);
        assert_eq!(g2.latency(SimTime::ZERO), SimDuration::from_micros(20));
    }

    #[test]
    fn fifo_idle_gap_is_not_reclaimed() {
        let r = FifoResource::new();
        let s = SimDuration::from_micros(1);
        let _ = r.acquire(SimTime::ZERO, s);
        // a later arrival starts at its own time, not at the resource's past free time
        let g = r.acquire(SimTime(1_000_000), s);
        assert_eq!(g.start.as_nanos(), 1_000_000);
    }

    #[test]
    fn pool_runs_k_requests_in_parallel() {
        let p = PoolResource::new(4);
        let s = SimDuration::from_micros(10);
        let grants: Vec<_> = (0..4).map(|_| p.acquire(SimTime::ZERO, s)).collect();
        assert!(grants.iter().all(|g| g.start == SimTime::ZERO));
        // fifth request waits for a server
        let g5 = p.acquire(SimTime::ZERO, s);
        assert_eq!(g5.start.as_nanos(), 10_000);
    }

    #[test]
    fn link_overlaps_propagation_with_serialization() {
        // 1 GB/s link, 10 us propagation.
        let l = LinkResource::new(1_000_000_000, SimDuration::from_micros(10));
        let g1 = l.transfer(SimTime::ZERO, 1_000_000); // 1 ms serialization
        assert_eq!(g1.end.as_nanos(), 1_000_000 + 10_000);
        // next transfer starts when the pipe frees (1 ms), not when g1 lands
        let g2 = l.transfer(SimTime::ZERO, 1_000_000);
        assert_eq!(g2.start.as_nanos(), 1_000_000);
    }

    #[test]
    fn saturation_grows_queueing_delay() {
        // Demonstrate the Fig. 6 shape: before saturation latency is flat,
        // after saturation it grows with offered load.
        let l = LinkResource::new(7_000_000_000, SimDuration::from_micros(3));
        let page = 8192u64;
        let mut last_latency = SimDuration::ZERO;
        for burst in [1u64, 10, 100, 1000] {
            let l2 = LinkResource::new(7_000_000_000, SimDuration::from_micros(3));
            let mut end = SimTime::ZERO;
            for _ in 0..burst {
                end = l2.transfer(SimTime::ZERO, page).end;
            }
            let lat = end.since(SimTime::ZERO);
            assert!(lat >= last_latency);
            last_latency = lat;
        }
        let _ = l;
    }

    #[test]
    fn utilization_reports_busy_fraction() {
        let r = FifoResource::new();
        r.acquire(SimTime::ZERO, SimDuration::from_micros(50));
        assert!((r.utilization(SimTime(100_000)) - 0.5).abs() < 1e-9);
        let c = CpuPool::new(2);
        c.execute(SimTime::ZERO, SimDuration::from_micros(100));
        assert!((c.utilization(SimTime(100_000)) - 0.5).abs() < 1e-9);
    }
}
