//! Figures 22 & 23: TPC-C — throughput and latency per design for the
//! default transaction mix and the read-mostly (90 % StockLevel) mix.
//!
//! Paper: the default mix has a small, moving working set and barely
//! benefits from remote memory; the read-mostly mix revisits old data,
//! creating real memory demand, so remote-memory designs pull ahead. Their
//! latencies can exceed HDD+SSD's because higher throughput raises
//! contention.

use remem::{Cluster, Design};
use remem_bench::{tpcc_opts, Report};
use remem_sim::{Clock, SimDuration, Stopwatch};
use remem_workloads::tpcc::{self, Mix, TpccParams};

fn main() {
    let mut report = Report::new(
        "repro_fig22_23_tpcc",
        "Fig 22/23",
        "TPC-C default vs read-mostly mix: throughput & latency per design",
    );
    // scaled so the read-mostly working set exceeds the 4 MiB local pool
    let params = TpccParams {
        warehouses: 24,
        districts_per_wh: 10,
        customers_per_district: 60,
        items: 5_000,
        seed: 31,
    };
    let mut tput_rows = Vec::new();
    let mut lat_rows = Vec::new();
    let mut default_tput = Vec::new();
    let mut readmostly_tput = Vec::new();
    let mut wall = Vec::new();
    for design in Design::ALL {
        let mut tput = vec![design.label().to_string()];
        let mut lat = vec![design.label().to_string()];
        for (i, mix) in [Mix::default_mix(), Mix::read_mostly()]
            .into_iter()
            .enumerate()
        {
            let cluster = Cluster::builder()
                .memory_servers(2)
                .memory_per_server(128 << 20)
                .metrics(report.registry())
                .build();
            let mut clock = Clock::new();
            let db = design
                .build(&cluster, &mut clock, &tpcc_opts(20))
                .expect("build");
            let load_wall = Stopwatch::start();
            let t = tpcc::load(&db, &mut clock, &params);
            let load_ms = load_wall.elapsed_ms();
            let run_wall = Stopwatch::start();
            let s = tpcc::run_mix(
                &db,
                &t,
                &mix,
                300, // scaled from the paper's 2000 clients
                clock.now(),
                SimDuration::from_millis(400),
                9,
            );
            let mix_label = if i == 0 { "default" } else { "read-mostly" };
            wall.push((
                format!("{} {mix_label}", design.label()),
                load_ms,
                run_wall.elapsed_ms(),
            ));
            tput.push(format!("{:.0}", s.throughput_per_sec));
            lat.push(format!("{:.1}", s.mean_latency_us / 1000.0));
            if i == 0 {
                default_tput.push((design.label().to_string(), s.throughput_per_sec));
            } else {
                readmostly_tput.push((design.label().to_string(), s.throughput_per_sec));
            }
        }
        tput_rows.push(tput);
        lat_rows.push(lat);
    }
    report.table(
        "Fig 22 — throughput (transactions/sec):",
        &["design", "Default TPC-C", "Read-Mostly TPC-C"],
        tput_rows,
    );
    report.table(
        "Fig 23 — mean latency (ms):",
        &["design", "Default TPC-C", "Read-Mostly TPC-C"],
        lat_rows,
    );
    report.wall_clock_notes(&wall);
    report.series("default_mix_tps", &default_tput);
    report.series("read_mostly_tps", &readmostly_tput);
    report.blank();
    let find = |set: &[(String, f64)], label: &str| {
        set.iter().find(|(l, _)| l == label).expect("design").1
    };
    report.check_order_desc(
        "default_mix_protocol_order",
        "Default mix: Custom >= SMBDirect >= SMB >= HDD+SSD >= HDD",
        &[
            ("Custom", find(&default_tput, "Custom")),
            (
                "SMBDirect+RamDrive",
                find(&default_tput, "SMBDirect+RamDrive"),
            ),
            ("SMB+RamDrive", find(&default_tput, "SMB+RamDrive")),
            ("HDD+SSD", find(&default_tput, "HDD+SSD")),
            ("HDD", find(&default_tput, "HDD")),
        ],
        3.0,
    );
    report.check_ratio_ge(
        "local_memory_dominates",
        "Local Memory >= 3x Custom on the read-mostly mix (real memory demand)",
        ("Local Memory", find(&readmostly_tput, "Local Memory")),
        ("Custom", find(&readmostly_tput, "Custom")),
        3.0,
    );
    report.check_ratio_ge(
        "read_mostly_rewards_memory",
        "Read-Mostly: Custom >= 1.5x HDD+SSD (real memory demand)",
        ("Custom", find(&readmostly_tput, "Custom")),
        ("HDD+SSD", find(&readmostly_tput, "HDD+SSD")),
        1.5,
    );
    report.check_order_desc(
        "read_mostly_protocol_order",
        "Read-Mostly: Custom >= SMBDirect >= SMB",
        &[
            ("Custom", find(&readmostly_tput, "Custom")),
            (
                "SMBDirect+RamDrive",
                find(&readmostly_tput, "SMBDirect+RamDrive"),
            ),
            ("SMB+RamDrive", find(&readmostly_tput, "SMB+RamDrive")),
        ],
        3.0,
    );
    report.gauge(
        "custom_read_mostly_tps",
        find(&readmostly_tput, "Custom"),
        10.0,
    );
    report.gauge("custom_default_tps", find(&default_tput, "Custom"), 10.0);
    report.finish();
}
