//! Figures 9 & 10: read-only RangeScan — throughput and latency per design
//! at 4 / 8 / 20 spindles.
//!
//! Paper: without updates the transaction log is idle, so the HDD designs
//! improve with spindle count (data reads) while everything cached in
//! (local or remote) memory is flat across spindle counts.

use remem::Design;
use remem_bench::{design_arms, rangescan_arm, rangescan_opts, Report};

const ROWS: u64 = 60_000;
const SPINDLES: [usize; 3] = [4, 8, 20];

fn main() {
    let mut report = Report::new(
        "repro_fig9_10_rangescan_readonly",
        "Fig 9/10",
        "RangeScan (read-only): throughput & latency x design x spindles",
    );
    let arms = design_arms(&SPINDLES);
    let stats = report.arms(
        &arms,
        |(d, s)| format!("{} {s} spin", d.label()),
        |&(design, spindles), arm| {
            let cluster = arm.cluster().memory_servers(2).memory_per_server(96 << 20);
            let opts = rangescan_opts(spindles);
            rangescan_arm(arm, cluster, design, &opts, ROWS, 0.0)
        },
    );
    let mut tput_rows = Vec::new();
    let mut lat_rows = Vec::new();
    let mut tput20 = Vec::new(); // 20-spindle throughput per design
    let mut per_design_tputs: Vec<(String, Vec<(String, f64)>)> = Vec::new();
    for (design, runs) in Design::ALL.iter().zip(stats.chunks(SPINDLES.len())) {
        let mut tput = vec![design.label().to_string()];
        let mut lat = vec![design.label().to_string()];
        let mut spindle_pts = Vec::new();
        for (spindles, s) in SPINDLES.iter().zip(runs) {
            tput.push(format!("{:.0}", s.throughput_per_sec));
            lat.push(format!("{:.1}", s.mean_latency_us / 1000.0));
            spindle_pts.push((spindles.to_string(), s.throughput_per_sec));
        }
        tput20.push((design.label().to_string(), spindle_pts[2].1));
        per_design_tputs.push((design.label().to_string(), spindle_pts));
        tput_rows.push(tput);
        lat_rows.push(lat);
    }
    report.table(
        "Throughput (queries/sec) — Fig 9:",
        &["design", "4 spindles", "8 spindles", "20 spindles"],
        tput_rows,
    );
    report.table(
        "Mean latency (ms) — Fig 10:",
        &["design", "4 spindles", "8 spindles", "20 spindles"],
        lat_rows,
    );
    report.series("tput_20spindles", &tput20);
    for (design, pts) in &per_design_tputs {
        report.series(&format!("tput_by_spindles/{design}"), pts);
    }
    report.blank();
    let find = |label: &str| -> f64 {
        tput20
            .iter()
            .find(|(l, _)| l == label)
            .expect("design present")
            .1
    };
    let memory_backed = per_design_tputs
        .iter()
        .find(|(d, _)| d == "Custom")
        .expect("custom")
        .1
        .clone();
    report.check_flat(
        "custom_flat_spindles",
        "Custom throughput flat across spindle counts (data is in memory)",
        &memory_backed,
        10.0,
    );
    let hdd = &per_design_tputs
        .iter()
        .find(|(d, _)| d == "HDD")
        .expect("hdd")
        .1;
    report.check_order_asc(
        "hdd_scales_spindles",
        "HDD throughput grows with spindle count",
        hdd,
        2.0,
    );
    report.check_order_desc(
        "remote_protocol_order",
        "Custom >= SMBDirect >= SMB at 20 spindles",
        &[
            ("Custom", find("Custom")),
            ("SMBDirect+RamDrive", find("SMBDirect+RamDrive")),
            ("SMB+RamDrive", find("SMB+RamDrive")),
        ],
        2.0,
    );
    report.check_ratio_ge(
        "custom_near_local",
        "Custom within 25% of the Local Memory upper bound",
        ("Custom", find("Custom")),
        ("Local Memory", find("Local Memory") * 0.75),
        1.0,
    );
    report.check_ratio_ge(
        "custom_beats_hdd",
        "Custom at least 2x the 20-spindle HDD design",
        ("Custom", find("Custom")),
        ("HDD", find("HDD")),
        2.0,
    );
    report.gauge("custom_tput_20spindles", find("Custom"), 10.0);
    report.gauge("hdd_tput_20spindles", find("HDD"), 10.0);
    report.finish();
}
