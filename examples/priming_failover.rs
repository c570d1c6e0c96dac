//! Buffer-pool priming scenario (§3.4 / §6.5): before a planned
//! primary-secondary swap, the old primary serializes its warm buffer pool
//! into an in-memory file and the new primary pulls it at RDMA speed —
//! instead of warming up from disk for minutes.
//!
//! Run with: `cargo run --release -p remem --example priming_failover`

use remem::{Cluster, DbOptions, Design, RFileConfig};
use remem_engine::priming;
use remem_sim::{Clock, SimDuration, SimTime};
use remem_workloads::rangescan::{load_customer, run_rangescan, KeyDistribution, RangeScanParams};

fn main() {
    let opts = DbOptions {
        pool_bytes: 8 << 20,
        bpext_bytes: 16 << 20,
        tempdb_bytes: 8 << 20,
        data_bytes: 128 << 20,
        ..DbOptions::small()
    };
    let rows = 40_000u64;
    let hotspot = KeyDistribution::Hotspot {
        frac: 0.2,
        prob: 0.99,
    };

    // ---- the old primary S1 runs the workload and warms its pool --------
    let cluster = Cluster::builder()
        .memory_servers(2)
        .memory_per_server(64 << 20)
        .build();
    let mut s1_clock = Clock::new();
    let s1 = Design::Custom
        .build(&cluster, &mut s1_clock, &opts)
        .expect("S1");
    let table = load_customer(&s1, &mut s1_clock, rows);
    let warmup = run_rangescan(
        &s1,
        table,
        &RangeScanParams {
            workers: 20,
            distribution: hotspot,
            duration: SimDuration::from_secs(2),
            ..Default::default()
        },
        s1_clock.now(),
    );
    println!(
        "S1 warm: {} queries, {} warm pages",
        warmup.ops,
        s1.buffer_pool().resident_pages()
    );

    // ---- planned swap: serialize S1's pool, push via in-memory file -----
    let t0 = s1_clock.now();
    let image = {
        let mut ctx = s1.exec_ctx(&mut s1_clock);
        priming::serialize_pool(&mut ctx, s1.buffer_pool())
    };
    let serialize_time = s1_clock.now().since(t0);
    let transfer_file = cluster
        .remote_file(
            &mut s1_clock,
            cluster.db_server,
            (image.len() as u64).max(1),
            RFileConfig::custom(),
        )
        .expect("in-memory transfer file");

    // S2: a physically identical replica, elected primary with a cold pool
    let s2_server = cluster.add_db_server("DB2-new-primary", 20);
    let mut s2_clock = Clock::starting_at(s1_clock.now());
    let s2 = Design::Custom
        .build_for(&cluster, &mut s2_clock, s2_server, &opts)
        .expect("S2");
    let table2 = load_customer(&s2, &mut s2_clock, rows);

    let t1 = s2_clock.now();
    let pulled =
        priming::transfer_image(&mut s1_clock, &mut s2_clock, transfer_file.as_ref(), &image)
            .expect("pull image");
    let primed = {
        let mut ctx = s2.exec_ctx(&mut s2_clock);
        priming::deserialize_into_pool(&mut ctx, s2.buffer_pool(), &pulled)
    };
    let prime_time = s2_clock.now().since(t1);
    println!(
        "priming: serialized {} pages in {serialize_time}, transferred + loaded in {prime_time}",
        primed
    );

    // ---- compare tail latency: cold start vs primed start ---------------
    let run_tail = |db: &remem::Database, table, start: SimTime| {
        run_rangescan(
            db,
            table,
            &RangeScanParams {
                workers: 20,
                distribution: hotspot,
                duration: SimDuration::from_secs(1),
                ..Default::default()
            },
            start,
        )
    };
    // primed S2
    let primed_summary = run_tail(&s2, table2, s2_clock.now());
    // a cold S2 for comparison (fresh build, nothing primed)
    let cluster2 = Cluster::builder()
        .memory_servers(2)
        .memory_per_server(64 << 20)
        .build();
    let mut cold_clock = Clock::new();
    let cold = Design::Custom
        .build(&cluster2, &mut cold_clock, &opts)
        .expect("cold S2");
    let cold_table = load_customer(&cold, &mut cold_clock, rows);
    cold.buffer_pool().reset_stats();
    // NOTE: the cold pool still holds load-time pages; evict by churning? A
    // fresh database's pool holds the tail of the load, approximating a
    // restarted process reading from disk.
    let cold_summary = run_tail(&cold, cold_table, cold_clock.now());

    println!(
        "p95 latency during warm-up window: cold {:.2} ms vs primed {:.2} ms ({:.1}x)",
        cold_summary.p95_latency_us / 1000.0,
        primed_summary.p95_latency_us / 1000.0,
        cold_summary.p95_latency_us / primed_summary.p95_latency_us.max(0.001),
    );
    println!("(the paper's Fig. 16b reports 4-10x lower tail latencies after priming)");
}
