//! Figure 11: drill-down of the read-only RangeScan — per-second I/O
//! throughput, CPU utilization and BPExt I/O latency for HDD+SSD,
//! SMBDirect+RamDrive and Custom.
//!
//! Paper: Custom moves ~900 MB/s of pages and is CPU-bound (~100 %), while
//! HDD+SSD idles at ~20 % CPU; Custom page reads take ~13 µs vs ~272 µs on
//! SMBDirect (async I/O handling + SMB overheads).

use std::sync::Arc;

use remem::{Design, Device};
use remem_bench::{rangescan_opts, windowed_util, Report};
use remem_engine::{Database, DbConfig, DeviceSet};
use remem_rfile::RFileConfig;
use remem_sim::{Clock, SimDuration};
use remem_storage::{HddArray, HddConfig, Ssd, SsdConfig};
use remem_workloads::rangescan::{load_customer, run_rangescan, RangeScanParams};

const ROWS: u64 = 60_000;
const WINDOWS: usize = 10;
const WINDOW: SimDuration = SimDuration::from_millis(100);

fn main() {
    let mut report = Report::new(
        "repro_fig11_rangescan_drilldown",
        "Fig 11",
        "RangeScan drill-down: I/O MB/s, CPU %, BPExt I/O latency",
    );
    let designs = [Design::HddSsd, Design::SmbDirectRamDrive, Design::Custom];
    let runs = report.arms(
        &designs,
        |d| d.label().to_string(),
        |&design, arm| {
            let opts = rangescan_opts(20);
            let cluster = arm
                .cluster()
                .memory_servers(2)
                .memory_per_server(96 << 20)
                .build();
            let mut clock = Clock::new();
            // build the design manually: the other roles stay fixed local
            // devices whatever the BPExt is
            let mut remote = |cfg| {
                let size = opts.bpext_bytes;
                cluster
                    .remote_file(&mut clock, cluster.db_server, size, cfg)
                    .unwrap()
            };
            let ext: Arc<dyn Device> = match design {
                Design::HddSsd => Arc::new(Ssd::new(SsdConfig::with_capacity(opts.bpext_bytes))),
                Design::SmbDirectRamDrive => remote(RFileConfig::smb_direct()),
                _ => remote(RFileConfig::custom()),
            };
            // the engine meters every role; the figure reads the BPExt
            let mut cfg = DbConfig::with_pool(opts.pool_bytes);
            cfg.metrics = cluster.metrics();
            let db = Database::new(
                cfg,
                cluster
                    .fabric
                    .server(cluster.db_server)
                    .unwrap()
                    .cpu_handle(),
                DeviceSet {
                    data: Arc::new(HddArray::new(HddConfig::with_spindles(20, opts.data_bytes))),
                    log: Arc::new(HddArray::new(HddConfig::with_spindles(20, 64 << 20))),
                    tempdb: Arc::new(Ssd::new(SsdConfig::with_capacity(opts.tempdb_bytes))),
                    bpext: Some(ext),
                    wal_ring: None,
                },
            );
            let t = arm.load(|| load_customer(&db, &mut clock, ROWS));
            let registry = arm.registry();
            let bytes = [
                registry.counter("storage.bpext.read.bytes"),
                registry.counter("storage.bpext.write.bytes"),
            ];
            let moved = || bytes.iter().map(|c| c.get()).sum::<u64>();
            let read_lat = registry.histogram("storage.bpext.read.lat");
            let cpu = db.cpu();
            let mut start = clock.now();
            let mut rows = Vec::new();
            let mut last = (0.0, 0.0, 0.0); // MB/s, CPU %, read latency us
            for w in 0..WINDOWS {
                let (moved0, reads0) = (moved(), read_lat.len());
                let u0 = cpu.utilization(start);
                run_rangescan(
                    &db,
                    t,
                    &RangeScanParams {
                        workers: 80,
                        duration: WINDOW,
                        ..Default::default()
                    },
                    start,
                );
                let end = start + WINDOW;
                let u1 = cpu.utilization(end);
                let lat = &read_lat.raw_samples()[reads0..];
                let mean_ns = lat.iter().sum::<u64>() / lat.len().max(1) as u64;
                last = (
                    (moved() - moved0) as f64 / WINDOW.as_secs_f64() / 1e6,
                    windowed_util(u1, end, u0, start) * 100.0,
                    SimDuration::from_nanos(mean_ns).as_micros_f64(),
                );
                rows.push(vec![
                    format!("{:.1}", (w as f64 + 1.0) * WINDOW.as_secs_f64()),
                    format!("{:.0}", last.0),
                    format!("{:.0}", last.1),
                    format!("{:.0}", last.2),
                ]);
                start = end;
            }
            (rows, last)
        },
    );
    // steady-state (last window) numbers per design, for checks and gauges
    let mut steady_mbs = Vec::new();
    let mut steady_cpu = Vec::new();
    let mut steady_lat = Vec::new();
    for (design, (rows, (mbs, cpu, lat))) in designs.iter().zip(runs) {
        report.table(
            &format!("--- {} ---", design.label()),
            &["t (s)", "BPExt MB/s", "CPU %", "read latency us"],
            rows,
        );
        steady_mbs.push((design.label().to_string(), mbs));
        steady_cpu.push((design.label().to_string(), cpu));
        steady_lat.push((design.label().to_string(), lat));
    }
    report.series("steady_bpext_mbs", &steady_mbs);
    report.series("steady_cpu_pct", &steady_cpu);
    report.series("steady_read_lat_us", &steady_lat);
    report.blank();
    let pick = |set: &[(String, f64)], label: &str| {
        set.iter().find(|(l, _)| l == label).expect("design").1
    };
    report.check_order_desc(
        "custom_moves_most_bytes",
        "Custom sustains the highest BPExt MB/s, then SMBDirect, then SSD",
        &[
            ("Custom", pick(&steady_mbs, "Custom")),
            (
                "SMBDirect+RamDrive",
                pick(&steady_mbs, "SMBDirect+RamDrive"),
            ),
            ("HDD+SSD", pick(&steady_mbs, "HDD+SSD")),
        ],
        2.0,
    );
    report.check_ratio_ge(
        "custom_cpu_bound",
        "Custom burns at least 3x the CPU of the disk-bound HDD+SSD design",
        ("Custom CPU%", pick(&steady_cpu, "Custom")),
        ("HDD+SSD CPU%", pick(&steady_cpu, "HDD+SSD")),
        3.0,
    );
    report.check_ratio_ge(
        "smbdirect_lat_penalty",
        "SMBDirect page reads pay >= 3x Custom's latency (async I/O + SMB)",
        ("SMBDirect us", pick(&steady_lat, "SMBDirect+RamDrive")),
        ("Custom us", pick(&steady_lat, "Custom")),
        3.0,
    );
    report.gauge("custom_steady_mbs", pick(&steady_mbs, "Custom"), 10.0);
    report.gauge("custom_read_lat_us", pick(&steady_lat, "Custom"), 15.0);
    report.finish();
}
