//! Simulation-kernel throughput bench and determinism gate.
//!
//! Drives a synthetic high-event-rate closed-loop workload (1024 workers,
//! mixed resource contention) through two kernels:
//!
//! 1. a **naive min-scan reference** — the pre-arena `ClosedLoopDriver`
//!    algorithm (O(workers) scan per event), embedded here verbatim as the
//!    scheduling oracle;
//! 2. the production [`ClosedLoopDriver`] (arena event queue + batched
//!    clock advancement).
//!
//! The **gated** claim is pure determinism: the arena kernel must produce
//! byte-identical output to the min-scan oracle. Wall-clock events/sec is
//! host-dependent, so it is reported only as volatile notes — one of them
//! in the machine-parseable form `throughput events_per_sec=<n>` that
//! `remem-bench --throughput` compares against the committed floor in
//! `results/baselines/sim_throughput_floor.json` (see EXPERIMENTS.md for
//! the refresh procedure).

use remem_bench::Report;
use remem_sim::rng::SimRng;
use remem_sim::{
    Clock, ClosedLoopDriver, Counter, CpuPool, FifoResource, Histogram, SimDuration, SimTime,
    Stopwatch,
};

const WORKERS: usize = 1024;
const HORIZON: SimTime = SimTime(20_000_000); // 20 ms of virtual time

/// Everything a closed-loop run produces that the kernel must not change.
#[derive(Debug, PartialEq)]
struct Outputs {
    started: u64,
    completed: u64,
    makespan_ns: u64,
    latency_fp: u64,
    ops: u64,
    acquires: u64,
}

fn fnv_u64s(vals: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in vals {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Fresh per-run workload state; both kernels must see identical inputs.
struct Workload {
    rngs: Vec<SimRng>,
    fifo: FifoResource,
    cpu: CpuPool,
    ops: Counter,
    acquires: Counter,
}

impl Workload {
    fn new() -> Workload {
        Workload {
            rngs: (0..WORKERS)
                .map(|w| SimRng::for_worker(7, w as u64))
                .collect(),
            fifo: FifoResource::new(),
            cpu: CpuPool::new(64),
            ops: Counter::new(),
            acquires: Counter::new(),
        }
    }

    /// One closed-loop operation: mostly pure clock advancement (the
    /// event-rate stressor), with a slice of shared-resource contention so
    /// the schedule stays coupled across workers.
    fn op(&mut self, w: usize, clock: &mut Clock) {
        let service = SimDuration::from_nanos(self.rngs[w].uniform(300, 4_000));
        match self.rngs[w].uniform(0, 64) {
            0 => {
                let g = self.fifo.acquire(clock.now(), service);
                clock.advance_to(g.end);
                self.acquires.add(1);
            }
            1 => {
                let g = self.cpu.execute(clock.now(), service);
                clock.advance_to(g.end);
                self.acquires.add(1);
            }
            _ => clock.advance(service),
        }
        self.ops.add(1);
    }
}

/// The pre-arena `ClosedLoopDriver::run_outcome`: a linear min-scan per
/// event (ties → lowest worker id). Kept verbatim as the scheduling oracle
/// the arena kernel must reproduce byte for byte.
fn run_minscan_reference(
    latencies: &Histogram,
    mut op: impl FnMut(usize, &mut Clock),
) -> (u64, u64, SimTime) {
    let mut clocks = vec![Clock::new(); WORKERS];
    let mut started = 0u64;
    let mut completed = 0u64;
    loop {
        let mut idx = 0usize;
        let mut now = clocks[0].now();
        for (i, c) in clocks.iter().enumerate().skip(1) {
            let t = c.now();
            if t < now {
                idx = i;
                now = t;
            }
        }
        if now >= HORIZON {
            break;
        }
        let before = now;
        op(idx, &mut clocks[idx]);
        let after = clocks[idx].now();
        assert!(after > before, "operation must advance virtual time");
        latencies.record(after.since(before));
        started += 1;
        if after <= HORIZON {
            completed += 1;
        }
    }
    let makespan = clocks.iter().map(Clock::now).max().unwrap_or(SimTime::ZERO);
    (started, completed, makespan)
}

fn collect(
    started: u64,
    completed: u64,
    makespan: SimTime,
    lat: &Histogram,
    wl: &Workload,
) -> Outputs {
    Outputs {
        started,
        completed,
        makespan_ns: makespan.as_nanos(),
        latency_fp: fnv_u64s(&lat.raw_samples()),
        ops: wl.ops.get(),
        acquires: wl.acquires.get(),
    }
}

fn run_arena() -> (Outputs, f64) {
    let mut wl = Workload::new();
    let lat = Histogram::new();
    let wall = Stopwatch::start();
    let out = ClosedLoopDriver::new(WORKERS, HORIZON).run_outcome(&lat, |w, clock| wl.op(w, clock));
    let ms = wall.elapsed_ms();
    (
        collect(
            out.started,
            out.completed_in_horizon,
            out.makespan,
            &lat,
            &wl,
        ),
        ms,
    )
}

fn run_naive() -> (Outputs, f64) {
    let mut wl = Workload::new();
    let lat = Histogram::new();
    let wall = Stopwatch::start();
    let (started, completed, makespan) = run_minscan_reference(&lat, |w, clock| wl.op(w, clock));
    let ms = wall.elapsed_ms();
    (collect(started, completed, makespan, &lat, &wl), ms)
}

fn events_per_sec(events: u64, ms: f64) -> f64 {
    events as f64 / (ms.max(1e-6) / 1000.0)
}

fn main() {
    let mut report = Report::new(
        "repro_sim_throughput",
        "Sim kernel",
        "event throughput and determinism of the simulation kernel",
    );
    report.note(format!(
        "synthetic closed loop: {WORKERS} workers, {} ms virtual horizon, mixed contention",
        HORIZON.as_nanos() / 1_000_000
    ));

    let (naive, naive_ms) = run_naive();
    let (arena, arena_ms) = run_arena();

    report.table(
        "sequential kernels (identical schedule, different data structures):",
        &[
            "kernel",
            "events",
            "completed",
            "makespan ns",
            "latency fingerprint",
        ],
        vec![
            vec![
                "min-scan reference".into(),
                naive.started.to_string(),
                naive.completed.to_string(),
                naive.makespan_ns.to_string(),
                format!("{:#018x}", naive.latency_fp),
            ],
            vec![
                "arena queue".into(),
                arena.started.to_string(),
                arena.completed.to_string(),
                arena.makespan_ns.to_string(),
                format!("{:#018x}", arena.latency_fp),
            ],
        ],
    );

    report.check_assert(
        "arena_matches_minscan_reference",
        "arena kernel output is byte-identical to the pre-arena min-scan oracle",
        arena == naive,
    );
    report.check_assert(
        "workload_is_event_heavy",
        "the synthetic workload produces a high event rate with real contention",
        arena.started > 500_000 && arena.acquires > 10_000,
    );
    report.gauge("events_started", arena.started as f64, 0.0);
    report.gauge("events_completed", arena.completed as f64, 0.0);

    // Wall-clock throughput is host-dependent: volatile only, never gated
    // by the fingerprint. The events_per_sec line below is the one the
    // `remem-bench --throughput` CI floor parses.
    let arena_eps = events_per_sec(arena.started, arena_ms);
    let naive_eps = events_per_sec(naive.started, naive_ms);
    report.volatile_note(format!("throughput events_per_sec={:.0}", arena_eps));
    report.volatile_note(format!(
        "arena kernel: {arena_ms:.1} ms wall, {arena_eps:.0} events/sec"
    ));
    report.volatile_note(format!(
        "min-scan reference: {naive_ms:.1} ms wall, {naive_eps:.0} events/sec"
    ));
    report.volatile_note(format!(
        "kernel speedup vs min-scan reference: {:.2}x",
        arena_eps / naive_eps.max(1e-9)
    ));
    report.finish();
}

#[cfg(test)]
mod tests {
    use super::fnv_u64s;

    #[test]
    fn fnv_is_order_sensitive() {
        assert_ne!(fnv_u64s(&[1, 2]), fnv_u64s(&[2, 1]));
        assert_eq!(fnv_u64s(&[1, 2]), fnv_u64s(&[1, 2]));
    }
}
