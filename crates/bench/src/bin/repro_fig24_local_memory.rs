//! Figure 24: varying the *local* memory available to the database server,
//! with the BPExt on remote memory (Custom) vs local SSD (HDD+SSD).
//!
//! Paper: Custom's advantage shrinks as local memory grows, and the two
//! designs converge once the database fits entirely in local memory.

use remem::{Cluster, DbOptions, Design};
use remem_bench::Report;
use remem_sim::{Clock, SimDuration};
use remem_workloads::rangescan::{load_customer, run_rangescan, RangeScanParams};

const ROWS: u64 = 100_000; // ~26 MiB of data

fn run(design: Design, pool_mb: u64) -> (f64, f64) {
    let cluster = Cluster::builder()
        .memory_servers(2)
        .memory_per_server(96 << 20)
        .build();
    let opts = DbOptions {
        pool_bytes: pool_mb << 20,
        bpext_bytes: 32 << 20, // fixed remote memory, fits the working set
        tempdb_bytes: 4 << 20,
        data_bytes: 256 << 20,
        spindles: 20,
        oltp: true,
        workspace_bytes: None,
        replicas: 1,
        fault_log: None,
        metrics: None,
        remote_wal: false,
        wal_ring_bytes: 8 << 20,
    };
    let mut clock = Clock::new();
    let db = design.build(&cluster, &mut clock, &opts).expect("build");
    let t = load_customer(&db, &mut clock, ROWS);
    let s = run_rangescan(
        &db,
        t,
        &RangeScanParams {
            workers: 80,
            duration: SimDuration::from_millis(400),
            ..Default::default()
        },
        clock.now(),
    );
    (s.throughput_per_sec, s.mean_latency_us / 1000.0)
}

fn main() {
    let mut report = Report::new(
        "repro_fig24_local_memory",
        "Fig 24",
        "varying local memory: Custom vs HDD+SSD (RangeScan read-only)",
    );
    let mut rows = Vec::new();
    let mut advantage = Vec::new();
    let mut custom_tput = Vec::new();
    for pool_mb in [2u64, 4, 8, 16, 24, 32] {
        let (ct, cl) = run(Design::Custom, pool_mb);
        let (ht, hl) = run(Design::HddSsd, pool_mb);
        rows.push(vec![
            format!("{pool_mb}"),
            format!("{ht:.0}"),
            format!("{hl:.1}"),
            format!("{ct:.0}"),
            format!("{cl:.1}"),
            format!("{:.1}x", ct / ht.max(1.0)),
        ]);
        advantage.push((format!("{pool_mb}MiB"), ct / ht.max(1.0)));
        custom_tput.push((format!("{pool_mb}MiB"), ct));
    }
    report.table(
        "throughput and latency vs local memory (20 spindles):",
        &[
            "local MiB",
            "HDD+SSD q/s",
            "HDD+SSD ms",
            "Custom q/s",
            "Custom ms",
            "advantage",
        ],
        rows,
    );
    report.series("custom_advantage", &advantage);
    report.series("custom_tput_qps", &custom_tput);
    report.blank();
    report.check_order_desc(
        "advantage_shrinks_with_memory",
        "Custom's advantage over HDD+SSD shrinks as local memory grows",
        &advantage,
        5.0,
    );
    report.check_ratio_ge(
        "memory_starved_gap",
        "at the smallest pool Custom is >= 2x HDD+SSD",
        ("advantage at 2MiB", advantage[0].1),
        ("2x floor", 2.0),
        1.0,
    );
    report.check_assert(
        "designs_converge_when_resident",
        "once the database fits in local memory the advantage is near 1x",
        advantage
            .last()
            .map(|(_, v)| *v <= 1.3 && *v >= 0.8)
            .unwrap_or(false),
    );
    report.gauge("advantage_2mib", advantage[0].1, 15.0);
    report.gauge(
        "advantage_32mib",
        advantage.last().map(|(_, v)| *v).unwrap_or(0.0),
        15.0,
    );
    report.finish();
}
