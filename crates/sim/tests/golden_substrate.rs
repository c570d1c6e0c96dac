//! Golden oracle for the substrate under the closed-loop driver.
//!
//! One seeded 16-worker [`ClosedLoopDriver`] run contends on a
//! [`FifoResource`], a four-server [`PoolResource`] and a [`LinkResource`],
//! and records into every order-sensitive sink the kernel has: a registry
//! counter, gauge, histogram, time series and nested spans, the driver's own
//! latency histogram, and a [`FaultLog`]. The pins were captured before the
//! windowed driver and its deferred-effect queues were deleted from these
//! types: they assert that the driver hands out the same schedule, every
//! resource the same `Grant` for every request, and every sink the same
//! contents in the same order — not similar ones.

use remem_sim::resource::Grant;
use remem_sim::rng::SimRng;
use remem_sim::{
    ClosedLoopDriver, FaultLog, FaultOrigin, FifoResource, Histogram, LinkResource,
    MetricsRegistry, PoolResource, SimDuration, SimTime,
};

const WORKERS: usize = 16;
const SEED: u64 = 0x5eed_5ab5;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Every `Grant` handed out, in order.
struct Grants {
    fnv: Fnv,
    n: u64,
}

impl Grants {
    fn pin(&mut self, g: Grant) -> Grant {
        self.fnv.eat(g.start.0);
        self.fnv.eat(g.end.0);
        self.n += 1;
        g
    }
}

/// Everything the run leaves behind, one line per pinned quantity.
fn run() -> String {
    let fifo = FifoResource::new();
    let pool = PoolResource::new(4);
    let link = LinkResource::new(16_000_000_000, SimDuration::from_micros(2));
    let reg = MetricsRegistry::new();
    let ops = reg.counter("sub.ops");
    let last_done = reg.gauge("sub.last_done_us");
    let waits = reg.histogram("sub.pool.wait");
    let bytes = reg.time_series("sub.link.bytes", SimDuration::from_micros(100));
    let (op_span, fifo_span, pool_span) = (
        reg.span("sub.op"),
        reg.span("sub.fifo"),
        reg.span("sub.pool"),
    );
    let faults = FaultLog::with_capacity(64);
    let latencies = Histogram::new();
    let mut rngs: Vec<SimRng> = (0..WORKERS)
        .map(|w| SimRng::for_worker(SEED, w as u64))
        .collect();
    let mut grants = Grants {
        fnv: Fnv::new(),
        n: 0,
    };

    let mut driver = ClosedLoopDriver::new(WORKERS, SimTime(2_000_000));
    let outcome = driver.run_outcome(&latencies, |w, clock| {
        let rng = &mut rngs[w];
        let outer = reg.span_enter_id(op_span, clock.now());
        // a zero-length service one time in eight: the pool's idle path
        let service = SimDuration::from_nanos(match rng.uniform(0, 8) {
            0 => 0,
            _ => rng.uniform(300, 9_000),
        });
        let inner = reg.span_enter_id(fifo_span, clock.now());
        let g = grants.pin(fifo.acquire(clock.now(), SimDuration::from_nanos(400)));
        clock.advance_to(g.end);
        grants.fnv.eat(fifo.free_at().0);
        reg.span_exit(inner, clock.now());
        if rng.chance(0.7) {
            let inner = reg.span_enter_id(pool_span, clock.now());
            let issued = clock.now();
            let g = grants.pin(pool.acquire(issued, service));
            waits.record(g.start.since(issued));
            clock.advance_to(g.end);
            reg.span_exit(inner, clock.now());
        }
        let len = rng.uniform(64, 32 << 10);
        let g = grants.pin(link.transfer(clock.now(), len));
        clock.advance_to(g.end);
        bytes.record(clock.now(), len as f64);
        last_done.set(g.end.0 as f64 / 1e3);
        ops.incr();
        if rng.chance(0.05) {
            let origin = match rng.uniform(0, 3) {
                0 => FaultOrigin::Injected,
                1 => FaultOrigin::Observed,
                _ => FaultOrigin::Recovery,
            };
            faults.record(clock.now(), origin, "sub.blip", format!("w{w} len={len}"));
        }
        reg.span_exit(outer, clock.now());
    });

    let mut samples = Fnv::new();
    let raw = latencies.raw_samples();
    for &s in &raw {
        samples.eat(s);
    }
    let snap = reg.snapshot();
    let mut series = Fnv::new();
    for (_, s) in &snap.series {
        series.eat(s.bucket_ns);
        for &v in &s.sums {
            series.eat(v.to_bits());
        }
    }
    [
        format!("outcome={outcome:?}"),
        format!("grants={} fnv={:016x}", grants.n, grants.fnv.0),
        format!(
            "latencies={} fnv={:016x} mean={} p99={}",
            raw.len(),
            samples.0,
            latencies.mean().0,
            latencies.percentile(99.0).0
        ),
        format!(
            "fifo_free_at={} util={:.6}/{:.6}/{:.6}",
            fifo.free_at().0,
            fifo.utilization(outcome.makespan),
            pool.utilization(outcome.makespan),
            link.utilization(outcome.makespan)
        ),
        format!("counters={:?}", snap.counters),
        format!("gauges={:?}", snap.gauges),
        format!("histograms={:?}", snap.histograms),
        format!(
            "series={} fnv={:016x}",
            snap.series[0].1.sums.len(),
            series.0
        ),
        format!("spans={:?}", snap.spans),
        format!(
            "faults={} kept={} fnv={:016x}",
            faults.count_kind("sub.blip"),
            faults.events().len(),
            faults.fingerprint()
        ),
    ]
    .join("\n")
}

const GOLDEN: &str = r#"outcome=RunOutcome { started: 1934, completed_in_horizon: 1918, makespan: SimTime(2011958) }
grants=5218 fnv=6907f168f83a3086
latencies=1934 fnv=ea82281e2d8cbc95 mean=16603 p99=24388
fifo_free_at=2000095 util=0.384501/0.674089/0.993407
counters=[("sub.ops", 1934)]
gauges=[("sub.last_done_us", 2011.059)]
histograms=[("sub.pool.wait", HistogramSummary { count: 1350, mean_ns: 662, p50_ns: 0, p95_ns: 3730, p99_ns: 7369, max_ns: 10254 })]
series=21 fnv=9b536391ad367273
spans=[("sub.fifo", SpanSummary { count: 1934, total_ns: 989241, self_ns: 989241 }), ("sub.op", SpanSummary { count: 1934, total_ns: 32110911, self_ns: 24802310 }), ("sub.pool", SpanSummary { count: 1350, total_ns: 6319360, self_ns: 6319360 })]
faults=94 kept=64 fnv=0e4f3e62ef9b6b4a"#;

#[test]
fn golden_substrate_run() {
    let got = run();
    assert_eq!(got, GOLDEN, "\n--- got ---\n{got}\n");
}
