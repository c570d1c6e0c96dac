//! Buffer-pool extension scenario (§3.1 / §6.2): the RangeScan workload
//! against every Table 5 design alternative.
//!
//! When the working set exceeds local memory, caching evicted pages in
//! remote memory beats re-reading them from disk by an order of magnitude.
//!
//! Run with: `cargo run --release -p remem --example bpext_rangescan`

use remem::{Cluster, DbOptions, Design};
use remem_sim::{Clock, SimDuration};
use remem_workloads::rangescan::{load_customer, run_rangescan, RangeScanParams};

fn main() {
    let opts = DbOptions {
        pool_bytes: 2 << 20, // local memory far smaller than the data
        bpext_bytes: 24 << 20,
        tempdb_bytes: 8 << 20,
        data_bytes: 128 << 20,
        ..DbOptions::small()
    };
    let rows = 60_000; // ~15 MiB of 245-byte customer rows
    let params = RangeScanParams {
        workers: 40,
        duration: SimDuration::from_secs(2),
        ..Default::default()
    };

    println!(
        "RangeScan (read-only, uniform): {rows} rows, pool {} MiB",
        opts.pool_bytes >> 20
    );
    println!(
        "{:<22} {:>14} {:>12} {:>12}",
        "design", "queries/sec", "mean ms", "p99 ms"
    );
    for design in Design::ALL {
        // fresh cluster per design: virtual-time device state is stateful
        let cluster = Cluster::builder()
            .memory_servers(2)
            .memory_per_server(32 << 20)
            .build();
        let mut clock = Clock::new();
        let db = design
            .build(&cluster, &mut clock, &opts)
            .expect("build design");
        let t = load_customer(&db, &mut clock, rows);
        db.buffer_pool().reset_stats();
        let s = run_rangescan(&db, t, &params, clock.now());
        println!(
            "{:<22} {:>14.0} {:>12.2} {:>12.2}",
            design.label(),
            s.throughput_per_sec,
            s.mean_latency_us / 1000.0,
            s.p99_latency_us / 1000.0,
        );
    }
    println!("\n(the paper's Figs. 9-10: Custom ≈ Local Memory, both ≫ HDD+SSD ≫ HDD)");
}
