//! Figure 12: impact of the BPExt size on RangeScan, with the remote memory
//! on (a) one donor vs (b) spread over multiple donors (16 "GB" each).
//!
//! Paper: throughput rises / latency falls as the extension approaches the
//! data size, identically whether the memory comes from one server or many.

use remem::{DbOptions, Design, PlacementPolicy};
use remem_bench::{rangescan_arm, Arm, Report};

const ROWS: u64 = 110_000; // ~28 MiB of customer rows ("110 GB" scaled)
const PER_DONOR: u64 = 16 << 20;

fn run(ext_mb: u64, spread: bool, arm: &mut Arm) -> (f64, f64) {
    let (donors, per_donor, placement) = if spread {
        (
            (ext_mb >> 4).max(1) as usize + 1,
            PER_DONOR,
            PlacementPolicy::Spread,
        )
    } else {
        (2, 192 << 20, PlacementPolicy::Pack)
    };
    let cluster = arm
        .cluster()
        .memory_servers(donors)
        .memory_per_server(per_donor)
        .placement(placement);
    let opts = DbOptions {
        pool_bytes: 4 << 20,
        bpext_bytes: ext_mb << 20,
        tempdb_bytes: 4 << 20,
        ..DbOptions::small()
    };
    let s = rangescan_arm(arm, cluster, Design::Custom, &opts, ROWS, 0.0);
    (s.throughput_per_sec, s.mean_latency_us / 1000.0)
}

fn main() {
    let mut report = Report::new(
        "repro_fig12_bpext_size",
        "Fig 12",
        "RangeScan vs BPExt size: one donor vs memory pooled from many",
    );
    let sizes = [4u64, 8, 12, 16, 24, 32];
    let arms: Vec<(u64, bool)> = sizes
        .iter()
        .flat_map(|&mb| [(mb, false), (mb, true)])
        .collect();
    let runs = report.arms(
        &arms,
        |&(mb, spread)| format!("{mb} MiB {}", if spread { "N-donor" } else { "1-donor" }),
        |&(mb, spread), arm| run(mb, spread, arm),
    );
    let mut rows = Vec::new();
    let mut one_donor = Vec::new();
    let mut n_donor = Vec::new();
    for (mb, pair) in sizes.iter().zip(runs.chunks(2)) {
        let [(t1, l1), (tn, ln)] = [pair[0], pair[1]];
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
