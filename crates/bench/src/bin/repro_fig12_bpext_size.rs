//! Figure 12: impact of the BPExt size on RangeScan, with the remote memory
//! on (a) one donor vs (b) spread over multiple donors (16 "GB" each).
//!
//! Paper: throughput rises / latency falls as the extension approaches the
//! data size, identically whether the memory comes from one server or many.

use remem::{Cluster, DbOptions, Design, PlacementPolicy};
use remem_bench::Report;
use remem_sim::{Clock, SimDuration};
use remem_workloads::rangescan::{load_customer, run_rangescan, RangeScanParams};

const ROWS: u64 = 110_000; // ~28 MiB of customer rows ("110 GB" scaled)
const PER_DONOR: u64 = 16 << 20;

fn run(ext_mb: u64, spread: bool) -> (f64, f64) {
    let donors = if spread {
        (ext_mb >> 4).max(1) as usize + 1
    } else {
        2
    };
    let per_donor = if spread { PER_DONOR } else { 192 << 20 };
    let cluster = Cluster::builder()
        .memory_servers(donors)
        .memory_per_server(per_donor)
        .placement(if spread {
            PlacementPolicy::Spread
        } else {
            PlacementPolicy::Pack
        })
        .build();
    let opts = DbOptions {
        pool_bytes: 4 << 20,
        bpext_bytes: ext_mb << 20,
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
    let db = Design::Custom
        .build(&cluster, &mut clock, &opts)
        .expect("build");
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
        "repro_fig12_bpext_size",
        "Fig 12",
        "RangeScan vs BPExt size: one donor vs memory pooled from many",
    );
    let sizes = [4u64, 8, 12, 16, 24, 32];
    let mut rows = Vec::new();
    let mut one_donor = Vec::new();
    let mut n_donor = Vec::new();
    for &mb in &sizes {
        let (t1, l1) = run(mb, false);
        let (tn, ln) = run(mb, true);
        rows.push(vec![
            format!("{mb}"),
            format!("{t1:.0}"),
            format!("{l1:.1}"),
            format!("{tn:.0}"),
            format!("{ln:.1}"),
        ]);
        one_donor.push((mb.to_string(), t1));
        n_donor.push((mb.to_string(), tn));
    }
    report.table(
        "",
        &[
            "BPExt MiB",
            "1-donor q/s",
            "1-donor ms",
            "N-donor q/s",
            "N-donor ms",
        ],
        rows,
    );
    report.series("tput_one_donor", &one_donor);
    report.series("tput_n_donors", &n_donor);
    report.blank();
    report.check_order_asc(
        "tput_grows_with_ext",
        "throughput climbs as the extension approaches the data size",
        &one_donor,
        5.0,
    );
    report.check_ratio_ge(
        "big_ext_pays_off",
        "largest extension beats the smallest by >= 2x",
        ("32 MiB", one_donor.last().expect("sizes non-empty").1),
        ("4 MiB", one_donor[0].1),
        2.0,
    );
    // donor spread must not matter: compare the two columns point-wise
    let mut worst_gap_pct: f64 = 0.0;
    for (a, b) in one_donor.iter().zip(&n_donor) {
        let gap = (a.1 - b.1).abs() / a.1.max(1e-9) * 100.0;
        worst_gap_pct = worst_gap_pct.max(gap);
    }
    report.check_assert(
        "spread_matches_pack",
        "1-donor and N-donor throughput agree within 10% at every size",
        worst_gap_pct <= 10.0,
    );
    report.gauge(
        "tput_32mb_one_donor",
        one_donor.last().expect("sizes non-empty").1,
        10.0,
    );
    report.gauge("worst_spread_gap_pct", worst_gap_pct, 100.0);
    report.finish();
}
