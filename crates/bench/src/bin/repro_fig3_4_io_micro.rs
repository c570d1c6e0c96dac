//! Figures 3 & 4: raw I/O micro-benchmark — throughput (GB/s) and latency
//! (µs) for 8 K random and 512 K sequential reads across HDD(4/8/20), SSD
//! and the three remote-memory protocols.
//!
//! Paper reference values (Figs. 3-4):
//!   8K random  GB/s: HDD(4) .007 | HDD(8) .015 | HDD(20) .04 | SSD .24 |
//!              SMB .64 | SMBDirect 1.36 | Custom 4.27
//!   512K seq   GB/s: HDD(4) .36 | HDD(8) .76 | HDD(20) 1.76 | SSD .39 |
//!              SMB 3.36 | SMBDirect 5.09 | Custom 5.1

use std::sync::Arc;

use remem::{Device, HddArray, HddConfig, RFileConfig, Ssd, SsdConfig};
use remem_bench::{Arm, Report};
use remem_sim::{Clock, SimTime};
use remem_storage::{Metered, Observed};
use remem_workloads::sqlio::{run_sqlio, SqlioParams};

const CAPACITY: u64 = 192 << 20;
const HORIZON: SimTime = SimTime(200_000_000); // 200 ms
const DEVICES: [&str; 7] = [
    "HDD(4)",
    "HDD(8)",
    "HDD(20)",
    "SSD",
    "SMB+RamDrive",
    "SMBDirect+RamDrive",
    "Custom",
];

/// A fresh device `label` names (virtual-time occupancy is stateful),
/// metered into the arm's registry as a data file.
fn device(label: &str, arm: &Arm) -> Arc<dyn Device> {
    let remote = |cfg| {
        let cluster = arm
            .cluster()
            .memory_servers(2)
            .memory_per_server(128 << 20)
            .build();
        let file = cluster.remote_file(&mut Clock::new(), cluster.db_server, CAPACITY, cfg);
        file.expect("remote file") as Arc<dyn Device>
    };
    let hdd = |spindles| Arc::new(HddArray::new(HddConfig::with_spindles(spindles, CAPACITY)));
    let inner: Arc<dyn Device> = match label {
        "HDD(4)" => hdd(4),
        "HDD(8)" => hdd(8),
        "HDD(20)" => hdd(20),
        "SSD" => Arc::new(Ssd::new(SsdConfig::with_capacity(CAPACITY))),
        "SMB+RamDrive" => remote(RFileConfig::smb_tcp()),
        "SMBDirect+RamDrive" => remote(RFileConfig::smb_direct()),
        _ => remote(RFileConfig::custom()),
    };
    Arc::new(Observed::new(
        inner,
        Metered::new(arm.registry(), "storage.data"),
    ))
}

fn main() {
    let mut report = Report::new(
        "repro_fig3_4_io_micro",
        "Fig 3/4",
        "I/O micro-benchmark: throughput and latency per device",
    );
    let patterns = [
        ("8K-rand", SqlioParams::random_8k(HORIZON)),
        ("512K-seq", SqlioParams::sequential_512k(HORIZON)),
    ];
    let arms: Vec<(&str, usize)> = DEVICES.iter().flat_map(|&d| [(d, 0), (d, 1)]).collect();
    let runs = report.arms(
        &arms,
        |&(d, p)| format!("{d} {}", patterns[p].0),
        |&(d, p), arm| run_sqlio(device(d, arm).as_ref(), &patterns[p].1),
    );
    let mut rows = Vec::new();
    let mut rand_gbps = Vec::new();
    let mut seq_gbps = Vec::new();
    for (label, pair) in DEVICES.iter().zip(runs.chunks(2)) {
        let (rand, seq) = (&pair[0], &pair[1]);
        rows.push(vec![
            label.to_string(),
            format!("{:.3}", rand.throughput_gbps),
            format!("{:.0}", rand.mean_latency_us),
            format!("{:.3}", seq.throughput_gbps),
            format!("{:.0}", seq.mean_latency_us),
        ]);
        rand_gbps.push((*label, rand.throughput_gbps));
        seq_gbps.push((*label, seq.throughput_gbps));
    }
    report.table(
        "",
        &[
            "device",
            "8K-rand GB/s",
            "8K-rand us",
            "512K-seq GB/s",
            "512K-seq us",
        ],
        rows,
    );
    report.series("rand_8k_gbps", &rand_gbps);
    report.series("seq_512k_gbps", &seq_gbps);
    let find = |data: &[(&str, f64)], label: &str| {
        data.iter().find(|(d, _)| *d == label).expect("label").1
    };
    let by = |labels: &[&str], data: &[(&str, f64)]| -> Vec<(String, f64)> {
        labels
            .iter()
            .map(|l| (l.to_string(), find(data, l)))
            .collect()
    };
    report.blank();
    report.check_order_desc(
        "rand_remote_order",
        "random reads: Custom >= SMBDirect >= SMB >= SSD >= HDD(20)",
        &by(
            &[
                "Custom",
                "SMBDirect+RamDrive",
                "SMB+RamDrive",
                "SSD",
                "HDD(20)",
            ],
            &rand_gbps,
        ),
        2.0,
    );
    report.check_order_asc(
        "rand_hdd_spindles",
        "random reads scale with HDD spindle count",
        &by(&["HDD(4)", "HDD(8)", "HDD(20)"], &rand_gbps),
        0.0,
    );
    report.check_ratio_ge(
        "seq_hdd20_beats_ssd",
        "sequential: striped HDD(20) outruns one SSD (Fig 3's surprise)",
        ("HDD(20)", find(&seq_gbps, "HDD(20)")),
        ("SSD", find(&seq_gbps, "SSD")),
        1.0,
    );
    report.check_ratio_ge(
        "rand_ssd_beats_hdd",
        "random: SSD far outruns even 20 spindles",
        ("SSD", find(&rand_gbps, "SSD")),
        ("HDD(20)", find(&rand_gbps, "HDD(20)")),
        2.0,
    );
    report.gauge("custom_rand_gbps", find(&rand_gbps, "Custom"), 10.0);
    report.gauge("custom_seq_gbps", find(&seq_gbps, "Custom"), 10.0);
    report.finish();
}
