//! Deterministic closed-loop multi-worker driver.
//!
//! The paper's experiments are closed-loop: N concurrent workers each issue a
//! query, wait for completion, and immediately issue the next, for a fixed
//! virtual-time horizon. Rather than racing OS threads (non-deterministic),
//! the driver keeps one [`Clock`] per logical worker and always advances the
//! worker whose clock is smallest — a conservative discrete-event order that
//! makes every run exactly reproducible while still modelling contention
//! (workers share the same virtual-time resources).

use crate::arena::EventQueue;
use crate::clock::Clock;
use crate::metrics::Histogram;
use crate::time::SimTime;

/// Exact closed-loop accounting for one driver run.
///
/// The closed-loop contract: an operation **starts** iff its worker's clock
/// is strictly below the horizon, and every started operation runs to
/// completion (its latency is recorded) even if it finishes past the
/// horizon. `started` is therefore the historical `run()` return value;
/// `completed_in_horizon` excludes the boundary-straddling ops, which is
/// the right numerator for a fixed-window throughput; `makespan` is the
/// largest clock after the run (≥ horizon whenever any op straddled it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Ops whose start time was strictly before the horizon.
    pub started: u64,
    /// Of those, ops that also finished at or before the horizon.
    pub completed_in_horizon: u64,
    /// Largest worker clock when the run ended.
    pub makespan: SimTime,
}

impl RunOutcome {
    /// `completed_in_horizon` per virtual second of `horizon`.
    #[cfg(test)]
    pub(crate) fn clamped_throughput_per_sec(&self, horizon: SimTime) -> f64 {
        if horizon.0 == 0 {
            return 0.0;
        }
        self.completed_in_horizon as f64 / horizon.as_secs_f64()
    }
}

/// Drives `workers` closed-loop operations until every worker's clock passes
/// `horizon`.
pub struct ClosedLoopDriver {
    clocks: Vec<Clock>,
    horizon: SimTime,
}

impl ClosedLoopDriver {
    pub fn new(workers: usize, horizon: SimTime) -> ClosedLoopDriver {
        assert!(workers > 0);
        ClosedLoopDriver {
            clocks: vec![Clock::new(); workers],
            horizon,
        }
    }

    /// Start all workers at `t` instead of zero (e.g. after a warm-up phase).
    pub fn starting_at(mut self, t: SimTime) -> ClosedLoopDriver {
        for c in &mut self.clocks {
            *c = Clock::starting_at(t);
        }
        self
    }

    pub fn workers(&self) -> usize {
        self.clocks.len()
    }

    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Run until the horizon. `op` is called with `(worker_id, &mut Clock)`
    /// and must advance the clock by the operation's virtual duration.
    /// Per-operation latency is recorded into `latencies`.
    ///
    /// Returns the number of *started* operations (see [`RunOutcome`] for
    /// the exact horizon semantics); use [`ClosedLoopDriver::run_outcome`]
    /// when the completed-within-horizon count matters.
    pub fn run<F>(&mut self, latencies: &Histogram, op: F) -> u64
    where
        F: FnMut(usize, &mut Clock),
    {
        self.run_outcome(latencies, op).started
    }

    /// Like [`ClosedLoopDriver::run`], but returns full accounting: started
    /// ops, ops completed within the horizon, and the virtual makespan.
    pub fn run_outcome<F>(&mut self, latencies: &Histogram, mut op: F) -> RunOutcome
    where
        F: FnMut(usize, &mut Clock),
    {
        let mut started = 0u64;
        let mut completed = 0u64;
        let horizon = self.horizon;
        // The scheduling contract is a pinned one: always run the worker
        // with the smallest (clock, worker-id) pair — every committed
        // fingerprint relies on it. The queue's total order is
        // exactly that pair, so the pop sequence reproduces the historical
        // min-scan byte for byte while costing O(log n) instead of O(n)
        // per event, with one up-front allocation for the whole run.
        let mut queue = EventQueue::with_capacity(self.clocks.len());
        for (i, c) in self.clocks.iter().enumerate() {
            queue.push(c.now(), i as u32);
        }
        while let Some((now, w)) = queue.pop() {
            if now >= horizon.0 {
                // The popped event is the global minimum: every other
                // worker's clock is at or past the horizon too.
                break;
            }
            let idx = w as usize;
            let mut before = SimTime(now);
            loop {
                op(idx, &mut self.clocks[idx]);
                let after = self.clocks[idx].now();
                assert!(after > before, "operation must advance virtual time");
                latencies.record(after.since(before));
                started += 1;
                if after <= horizon {
                    completed += 1;
                }
                if after >= horizon {
                    // This worker can start no further ops; drop it from
                    // the schedule (its clock still feeds the makespan).
                    break;
                }
                // Batched clock advancement: while this worker remains the
                // canonical minimum it would be popped right back, so keep
                // running it without touching the heap at all. The strict
                // (time, worker) comparison reproduces the tie-break: at an
                // equal clock the lower worker id goes first.
                match queue.peek() {
                    Some(next) if (after.0, w) > next => {
                        queue.push(after, w);
                        break;
                    }
                    _ => before = after,
                }
            }
        }
        RunOutcome {
            started,
            completed_in_horizon: completed,
            makespan: self.makespan(),
        }
    }

    /// Largest clock across workers — the virtual makespan of the run.
    pub fn makespan(&self) -> SimTime {
        self.clocks
            .iter()
            .map(Clock::now)
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::FifoResource;
    use crate::time::SimDuration;

    #[test]
    fn runs_until_horizon_and_counts_ops() {
        let mut d = ClosedLoopDriver::new(2, SimTime(1_000_000)); // 1 ms
        let h = Histogram::new();
        let ops = d.run(&h, |_, clock| clock.advance(SimDuration::from_micros(100)));
        // each worker completes 10 ops of 100us in 1ms
        assert_eq!(ops, 20);
        assert_eq!(h.len(), 20);
        assert_eq!(h.mean(), SimDuration::from_micros(100));
    }

    #[test]
    fn contention_on_shared_resource_slows_workers() {
        // 4 workers sharing a single-server resource: aggregate throughput
        // equals the resource's, and per-op latency is ~4x the service time.
        let r = FifoResource::new();
        let mut d = ClosedLoopDriver::new(4, SimTime(1_000_000));
        let h = Histogram::new();
        let ops = d.run(&h, |_, clock| {
            let g = r.acquire(clock.now(), SimDuration::from_micros(10));
            clock.advance_to(g.end);
        });
        // the resource can serve 100 ops in 1 ms regardless of worker count
        assert!((95..=105).contains(&ops), "ops={ops}");
        assert!(
            h.mean() >= SimDuration::from_micros(30),
            "mean={}",
            h.mean()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let r = FifoResource::new();
            let mut d = ClosedLoopDriver::new(3, SimTime(500_000));
            let h = Histogram::new();
            let ops = d.run(&h, |i, clock| {
                let g = r.acquire(clock.now(), SimDuration::from_micros(7 + i as u64));
                clock.advance_to(g.end);
            });
            (ops, h.mean(), d.makespan())
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "must advance virtual time")]
    fn zero_time_op_panics() {
        let mut d = ClosedLoopDriver::new(1, SimTime(1000));
        let h = Histogram::new();
        d.run(&h, |_, _| {});
    }

    #[test]
    fn outcome_separates_started_from_completed() {
        // 1 worker, 1 ms horizon, 300 us ops: starts at 0/300/600/900 us
        // (4 started), but the 900 us op finishes at 1.2 ms — outside the
        // horizon — so only 3 complete in-window and makespan overshoots.
        let mut d = ClosedLoopDriver::new(1, SimTime(1_000_000));
        let h = Histogram::new();
        let out = d.run_outcome(&h, |_, c| c.advance(SimDuration::from_micros(300)));
        assert_eq!(out.started, 4);
        assert_eq!(out.completed_in_horizon, 3);
        assert_eq!(out.makespan, SimTime(1_200_000));
        assert_eq!(h.len(), 4, "straddling op latency is still recorded");
        assert!((out.clamped_throughput_per_sec(SimTime(1_000_000)) - 3000.0).abs() < 1e-9);
        // run() keeps the historical started-count contract
        let mut d2 = ClosedLoopDriver::new(1, SimTime(1_000_000));
        assert_eq!(
            d2.run(&Histogram::new(), |_, c| c
                .advance(SimDuration::from_micros(300))),
            4
        );
    }

    #[test]
    fn op_completing_exactly_at_horizon_counts_as_completed() {
        let mut d = ClosedLoopDriver::new(2, SimTime(1_000_000));
        let h = Histogram::new();
        let out = d.run_outcome(&h, |_, c| c.advance(SimDuration::from_micros(100)));
        // 100 us ops tile the window exactly: nothing straddles
        assert_eq!(out.started, 20);
        assert_eq!(out.completed_in_horizon, 20);
        assert_eq!(out.makespan, SimTime(1_000_000));
    }

    #[test]
    fn equal_clocks_tie_break_by_lowest_worker_id() {
        // All three workers advance by the same amount every op, so every
        // scheduling decision is a three-way clock collision. The pinned
        // contract: ties resolve to the lowest worker id, giving the exact
        // interleaving 0,1,2,0,1,2,….
        let mut d = ClosedLoopDriver::new(3, SimTime(1_000));
        let h = Histogram::new();
        let mut order = Vec::new();
        d.run(&h, |w, c| {
            order.push(w);
            c.advance(SimDuration::from_nanos(250));
        });
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn starting_at_offsets_all_workers() {
        let mut d = ClosedLoopDriver::new(2, SimTime(2_000)).starting_at(SimTime(1_000));
        let h = Histogram::new();
        let ops = d.run(&h, |_, c| c.advance(SimDuration::from_nanos(500)));
        assert_eq!(ops, 4); // each worker: 1000→1500→2000
    }
}
