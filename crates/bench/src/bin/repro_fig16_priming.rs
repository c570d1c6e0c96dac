//! Figure 16: buffer-pool priming for planned primary-secondary swaps.
//!
//! (a) time to warm the pool through the workload vs. scan+serialize at S1
//!     vs. transfer+load at S2, across buffer-pool sizes;
//! (b) p95 latency of the workload during the warm-up window, cold vs
//!     primed.
//!
//! Paper: priming is ~two orders of magnitude faster than warming through
//! the workload, and primed pools cut warm-up tail latencies 4-10×.

use remem::{DbOptions, Design, RFileConfig};
use remem_bench::Report;
use remem_engine::priming;
use remem_sim::{Clock, SimDuration, SimTime};
use remem_workloads::rangescan::{load_customer, run_rangescan, KeyDistribution, RangeScanParams};

const ROWS: u64 = 800_000; // ~200 MiB of data: positioning seeks don't scale down,
                           // so pools must stay large for the warm-up/prime gap
const HOTSPOT: KeyDistribution = KeyDistribution::Hotspot {
    frac: 0.2,
    prob: 0.99,
};

fn opts(pool_mb: u64) -> DbOptions {
    DbOptions {
        pool_bytes: pool_mb << 20,
        bpext_bytes: 16 << 20,
        tempdb_bytes: 8 << 20,
        data_bytes: 512 << 20,
        ..DbOptions::small()
    }
}

/// Virtual time for the workload to warm a cold pool, measured the way an
/// operator would: run in 100 ms slices until the buffer-pool miss rate
/// decays to a steady residue of its cold-start value (the hot set has been
/// faulted in from disk and performance has stabilized).
fn warmup_time(db: &remem::Database, t: remem::TableId, start: SimTime) -> SimDuration {
    let mut at = start;
    let mut slice = 0u64;
    let mut first_misses = 0u64;
    loop {
        slice += 1;
        db.buffer_pool().reset_stats();
        run_rangescan(
            db,
            t,
            &RangeScanParams {
                workers: 20,
                distribution: HOTSPOT,
                duration: SimDuration::from_millis(100),
                seed: slice, // fresh keys each slice: one continuous workload
                ..Default::default()
            },
            at,
        );
        at += SimDuration::from_millis(100);
        let misses = db.bp_stats().misses;
        if slice == 1 {
            first_misses = misses.max(1);
            continue;
        }
        if misses * 4 < first_misses || at.since(start) > SimDuration::from_secs(60) {
            return at.since(start);
        }
    }
}

fn main() {
    let mut report = Report::new(
        "repro_fig16_priming",
        "Fig 16",
        "priming the buffer pool: costs (a) and tail latencies (b)",
    );
    let runs = report.arms(
        &[50u64, 100],
        |pool_mb| format!("{pool_mb} MiB pool"),
        |&pool_mb, arm| {
            // S1: old primary, warmed through the workload
            let cluster = arm
                .cluster()
                .memory_servers(2)
                .memory_per_server(128 << 20)
                .build();
            let mut s1_clock = Clock::new();
            let s1 = Design::Custom
                .build(&cluster, &mut s1_clock, &opts(pool_mb))
                .expect("S1");
            let t1 = arm.load(|| load_customer(&s1, &mut s1_clock, ROWS));
            let warm = warmup_time(&s1, t1, s1_clock.now());
            s1_clock.advance(warm);

            // scan + serialize at S1
            let t0 = s1_clock.now();
            let image = {
                let mut ctx = s1.exec_ctx(&mut s1_clock);
                priming::serialize_pool(&mut ctx, s1.buffer_pool())
            };
            let serialize = s1_clock.now().since(t0);

            // transfer into S2's pool over the in-memory file
            let s2_server = cluster.add_db_server("S2", 20);
            let mut s2_clock = Clock::starting_at(s1_clock.now());
            let s2 = Design::Custom
                .build_for(&cluster, &mut s2_clock, s2_server, &opts(pool_mb))
                .expect("S2");
            let t2 = arm.load(|| load_customer(&s2, &mut s2_clock, ROWS));
            let file = cluster
                .remote_file(
                    &mut s1_clock,
                    cluster.db_server,
                    (image.len() as u64).max(4096),
                    RFileConfig::custom(),
                )
                .expect("transfer file");
            let t1x = s2_clock.now().max(s1_clock.now());
            s2_clock.advance_to(t1x);
            let pulled =
                priming::transfer_image(&mut s1_clock, &mut s2_clock, file.as_ref(), &image)
                    .unwrap();
            {
                let mut ctx = s2.exec_ctx(&mut s2_clock);
                priming::deserialize_into_pool(&mut ctx, s2.buffer_pool(), &pulled);
            }
            let transfer = s2_clock.now().since(t1x);

            // Fig 16b: p95 during the warm-up window, primed vs cold
            // a short window right after the swap: this is where cold pools hurt
            let window = RangeScanParams {
                workers: 20,
                distribution: HOTSPOT,
                duration: SimDuration::from_millis(150),
                ..Default::default()
            };
            let primed = run_rangescan(&s2, t2, &window, s2_clock.now());

            let cluster2 = arm
                .cluster()
                .memory_servers(2)
                .memory_per_server(128 << 20)
                .build();
            let mut cold_clock = Clock::new();
            let cold_db = Design::Custom
                .build(&cluster2, &mut cold_clock, &opts(pool_mb))
                .expect("cold");
            let t3 = arm.load(|| load_customer(&cold_db, &mut cold_clock, ROWS));
            // a fresh process: the pool holds only the load tail, the hot set
            // is on disk; measure the same window from cold
            let cold = run_rangescan(&cold_db, t3, &window, cold_clock.now());
            (
                warm,
                serialize,
                transfer,
                cold.p95_latency_us,
                primed.p95_latency_us,
            )
        },
    );
    let mut a_rows = Vec::new();
    let mut b_rows = Vec::new();
    let mut speedup_prime = Vec::new(); // warm-up time / (serialize + transfer)
    let mut p95_gain = Vec::new(); // cold p95 / primed p95
    for (pool_mb, (warm, serialize, transfer, cold_p95, primed_p95)) in
        [50u64, 100].iter().zip(runs)
    {
        a_rows.push(vec![
            format!("{pool_mb}"),
            format!("{:.2}", warm.as_secs_f64()),
            format!("{:.3}", serialize.as_secs_f64()),
            format!("{:.3}", transfer.as_secs_f64()),
        ]);
        speedup_prime.push((
            format!("{pool_mb}MiB"),
            warm.as_secs_f64() / (serialize.as_secs_f64() + transfer.as_secs_f64()).max(1e-9),
        ));
        b_rows.push(vec![
            format!("{pool_mb}"),
            format!("{:.1}", cold_p95 / 1000.0),
            format!("{:.1}", primed_p95 / 1000.0),
            format!("{:.1}x", cold_p95 / primed_p95.max(0.001)),
        ]);
        p95_gain.push((format!("{pool_mb}MiB"), cold_p95 / primed_p95.max(0.001)));
    }
    report.table(
        "Fig 16a — warm-up vs priming time (virtual seconds, pool size in MiB):",
        &[
            "pool MiB",
            "workload warm-up s",
            "scan+serialize s",
            "transfer+load s",
        ],
        a_rows,
    );
    report.table(
        "Fig 16b — p95 latency during the warm-up window (ms):",
        &["pool MiB", "cold p95 ms", "primed p95 ms", "improvement"],
        b_rows,
    );
    report.series("priming_speedup", &speedup_prime);
    report.series("p95_cold_over_primed", &p95_gain);
    report.blank();
    let min_speedup = speedup_prime
        .iter()
        .map(|(_, v)| *v)
        .fold(f64::INFINITY, f64::min);
    let min_gain = p95_gain
        .iter()
        .map(|(_, v)| *v)
        .fold(f64::INFINITY, f64::min);
    report.check_ratio_ge(
        "priming_orders_faster",
        "priming beats workload warm-up by >= 4x at every pool size (paper: ~100x; \
         seeks don't scale down, see EXPERIMENTS.md deviation 2)",
        ("min priming speedup", min_speedup),
        ("4x floor", 4.0),
        1.0,
    );
    report.check_ratio_ge(
        "primed_tail_better",
        "primed p95 is >= 3x better than cold during the warm-up window",
        ("min p95 gain", min_gain),
        ("3x floor", 3.0),
        1.0,
    );
    report.gauge("priming_speedup_min", min_speedup, 30.0);
    report.gauge("p95_gain_min", min_gain, 30.0);
    report.finish();
}
