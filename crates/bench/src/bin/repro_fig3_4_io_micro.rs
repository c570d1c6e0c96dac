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

use remem::{Cluster, Device, HddArray, HddConfig, RFileConfig, Ssd, SsdConfig};
use remem_bench::Report;
use remem_sim::{Clock, MetricsRegistry, SimTime};
use remem_workloads::sqlio::{run_sqlio, SqlioParams};

const CAPACITY: u64 = 192 << 20;
const HORIZON: SimTime = SimTime(200_000_000); // 200 ms

fn remote_device(cfg: RFileConfig, registry: Arc<MetricsRegistry>) -> Arc<dyn Device> {
    let cluster = Cluster::builder()
        .memory_servers(2)
        .memory_per_server(128 << 20)
        .metrics(registry)
        .build();
    let mut clock = Clock::new();
    cluster
        .remote_file(&mut clock, cluster.db_server, CAPACITY, cfg)
        .expect("remote file")
}

type DeviceFactory = Box<dyn Fn(Arc<MetricsRegistry>) -> Arc<dyn Device>>;

fn main() {
    let mut report = Report::new(
        "repro_fig3_4_io_micro",
        "Fig 3/4",
        "I/O micro-benchmark: throughput and latency per device",
    );
    let configs: Vec<(&str, DeviceFactory)> = vec![
        (
            "HDD(4)",
            Box::new(|_| Arc::new(HddArray::new(HddConfig::with_spindles(4, CAPACITY)))),
        ),
        (
            "HDD(8)",
            Box::new(|_| Arc::new(HddArray::new(HddConfig::with_spindles(8, CAPACITY)))),
        ),
        (
            "HDD(20)",
            Box::new(|_| Arc::new(HddArray::new(HddConfig::with_spindles(20, CAPACITY)))),
        ),
        (
            "SSD",
            Box::new(|_| Arc::new(Ssd::new(SsdConfig::with_capacity(CAPACITY)))),
        ),
        (
            "SMB+RamDrive",
            Box::new(|r| remote_device(RFileConfig::smb_tcp(), r)),
        ),
        (
            "SMBDirect+RamDrive",
            Box::new(|r| remote_device(RFileConfig::smb_direct(), r)),
        ),
        (
            "Custom",
            Box::new(|r| remote_device(RFileConfig::custom(), r)),
        ),
    ];
    let mut rows = Vec::new();
    let mut rand_gbps = Vec::new();
    let mut seq_gbps = Vec::new();
    for (label, make) in &configs {
        // fresh device per pattern: virtual-time occupancy is stateful
        let rand = run_sqlio(
            make(report.registry()).as_ref(),
            &SqlioParams::random_8k(HORIZON),
        );
        let seq = run_sqlio(
            make(report.registry()).as_ref(),
            &SqlioParams::sequential_512k(HORIZON),
        );
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
    let by = |labels: &[&str], data: &[(&str, f64)]| -> Vec<(String, f64)> {
        labels
            .iter()
            .map(|l| {
                (
                    l.to_string(),
                    data.iter().find(|(d, _)| d == l).expect("label").1,
                )
            })
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
        (
            "HDD(20)",
            seq_gbps
                .iter()
                .find(|(l, _)| *l == "HDD(20)")
                .expect("hdd20")
                .1,
        ),
        (
            "SSD",
            seq_gbps.iter().find(|(l, _)| *l == "SSD").expect("ssd").1,
        ),
        1.0,
    );
    report.check_ratio_ge(
        "rand_ssd_beats_hdd",
        "random: SSD far outruns even 20 spindles",
        (
            "SSD",
            rand_gbps.iter().find(|(l, _)| *l == "SSD").expect("ssd").1,
        ),
        (
            "HDD(20)",
            rand_gbps
                .iter()
                .find(|(l, _)| *l == "HDD(20)")
                .expect("hdd20")
                .1,
        ),
        2.0,
    );
    let custom_rand = rand_gbps
        .iter()
        .find(|(l, _)| *l == "Custom")
        .expect("custom")
        .1;
    let custom_seq = seq_gbps
        .iter()
        .find(|(l, _)| *l == "Custom")
        .expect("custom")
        .1;
    report.gauge("custom_rand_gbps", custom_rand, 10.0);
    report.gauge("custom_seq_gbps", custom_seq, 10.0);
    report.finish();
}
