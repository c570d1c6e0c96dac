//! Figure 14: the Hash+Sort query — total latency per design (14a) and the
//! TempDB I/O drill-down (14b) with CPU utilization (14c).
//!
//! Paper: HDD+SSD ≈ 5× slower than Custom; plain HDD *beats* HDD+SSD
//! because spills are sequential and the striped array out-streams the SSD;
//! SMBDirect ≈ Custom (large sequential transfers amortize its overheads).
//!
//! This figure runs at ~1/300 of the paper's data size (instead of the
//! repository default of 1/1000): positioning seeks are physical constants
//! that do not scale down with the data, so spill runs must stay tens of
//! megabytes for the paper's seek-amortized sequential behaviour to hold.

use std::sync::Arc;

use remem::{Cluster, Design, Device};
use remem_bench::{windowed_util, Report};
use remem_engine::{Database, DbConfig, DeviceSet};
use remem_rfile::RFileConfig;
use remem_sim::metrics::TimeSeries;
use remem_sim::{Clock, SimDuration, SpanToken, Stopwatch};
use remem_storage::{HddArray, HddConfig, Io, IoKind, IoObserver, Observed, Ssd, SsdConfig};
use remem_workloads::hashsort::{load_tables, run_hash_sort, HashSortParams};

/// TempDB read / write bytes bucketed by the virtual instant each call
/// completes (Fig. 14b).
struct Series {
    reads: TimeSeries,
    writes: TimeSeries,
}

impl IoObserver for Series {
    fn after(&self, _: Option<SpanToken>, io: &Io<'_>) {
        let series = match io.kind {
            IoKind::Read => &self.reads,
            IoKind::Write => &self.writes,
            IoKind::Force => return,
        };
        let bytes: usize = io.requests().map(|(len, _)| len).sum();
        series.record(io.done, bytes as f64);
    }
}

/// `inner` with its reads and writes bucketed in 100 ms windows.
fn series_device(inner: Arc<dyn Device>) -> Arc<Observed<Series>> {
    let width = SimDuration::from_millis(100);
    let series = Series {
        reads: TimeSeries::new(width),
        writes: TimeSeries::new(width),
    };
    Arc::new(Observed::new(inner, series))
}

fn main() {
    let mut report = Report::new(
        "repro_fig14_hash_sort",
        "Fig 14",
        "Hash+Sort: latency per design + TempDB I/O and CPU drill-down",
    );
    let params = HashSortParams {
        orders: 450_000,
        lineitems_per_order: 4,
        top_n: 300,
        seed: 7,
    };
    let tempdb_bytes: u64 = 3 << 30;
    let mut rows = Vec::new();
    let mut drilldowns = Vec::new();
    let mut totals = Vec::new();
    let mut cpus = Vec::new();
    let mut wall = Vec::new();
    let mut high_water = Vec::new();
    for design in Design::ALL {
        let cluster = Cluster::builder()
            .memory_servers(2)
            .memory_per_server(1 << 31)
            .mr_bytes(16 << 20)
            .build();
        let mut clock = Clock::new();
        // build manually so TempDB is wrapped in the time-series recorder
        let tempdb_inner: Arc<dyn Device> = match design {
            Design::Hdd => Arc::new(HddArray::new(HddConfig::with_spindles(20, tempdb_bytes))),
            Design::HddSsd | Design::LocalMemory => {
                Arc::new(Ssd::new(SsdConfig::with_capacity(tempdb_bytes)))
            }
            Design::SmbRamDrive => cluster
                .remote_file(
                    &mut clock,
                    cluster.db_server,
                    tempdb_bytes / 2,
                    RFileConfig::smb_tcp(),
                )
                .unwrap(),
            Design::SmbDirectRamDrive => cluster
                .remote_file(
                    &mut clock,
                    cluster.db_server,
                    tempdb_bytes / 2,
                    RFileConfig::smb_direct(),
                )
                .unwrap(),
            Design::Custom => cluster
                .remote_file(
                    &mut clock,
                    cluster.db_server,
                    tempdb_bytes / 2,
                    RFileConfig::custom(),
                )
                .unwrap(),
        };
        let tempdb = series_device(tempdb_inner);
        let pool = match design {
            Design::LocalMemory => (1u64 << 30) + (512 << 20), // remote budget added locally
            _ => 1 << 30,
        };
        let mut cfg = DbConfig::with_pool(pool);
        cfg.workspace_bytes = 192 << 20; // grants capped at 48 MiB
        let db = Database::new(
            cfg,
            cluster
                .fabric
                .server(cluster.db_server)
                .unwrap()
                .cpu_handle(),
            DeviceSet {
                data: Arc::new(HddArray::new(HddConfig::with_spindles(20, 2 << 30))),
                log: Arc::new(HddArray::new(HddConfig::with_spindles(20, 256 << 20))),
                tempdb: Arc::clone(&tempdb) as Arc<dyn Device>,
                bpext: None,
                wal_ring: None,
            },
        );
        let load_wall = Stopwatch::start();
        let tables = load_tables(&db, &mut clock, &params);
        let load_ms = load_wall.elapsed_ms();
        let t0 = clock.now();
        let u0 = db.cpu().utilization(t0);
        let run_wall = Stopwatch::start();
        let r = run_hash_sort(&db, &mut clock, tables, params.top_n);
        wall.push((design.label().to_string(), load_ms, run_wall.elapsed_ms()));
        high_water.push((design.label(), db.tempdb().high_water_bytes()));
        let t1 = clock.now();
        let u1 = db.cpu().utilization(t1);
        let cpu_pct = windowed_util(u1, t1, u0, t0) * 100.0;
        rows.push(vec![
            design.label().to_string(),
            format!("{:.2}", r.total.as_secs_f64()),
            format!("{:.2}", r.build_phase.as_secs_f64()),
            format!("{:.2}", r.probe_sort_phase.as_secs_f64()),
            format!("{:.0}", r.tempdb_bytes as f64 / 1e6),
            format!("{cpu_pct:.0}"),
        ]);
        totals.push((design.label().to_string(), r.total.as_secs_f64()));
        cpus.push((design.label().to_string(), cpu_pct));
        if matches!(design, Design::HddSsd | Design::Custom) {
            let reads = tempdb.observer().reads.rates_per_sec();
            let writes = tempdb.observer().writes.rates_per_sec();
            drilldowns.push((design.label(), t0, reads, writes));
        }
    }
    report.table(
        "Fig 14a — query latency (virtual seconds):",
        &[
            "design",
            "total s",
            "build s",
            "probe+sort s",
            "spill MB",
            "CPU %",
        ],
        rows,
    );
    for (label, t0, reads, writes) in drilldowns {
        let first = (t0.as_nanos() / 100_000_000) as usize;
        let mut series = Vec::new();
        for i in first..reads.len().max(writes.len()) {
            let r = reads.get(i).copied().unwrap_or(0.0) / 1e6;
            let w = writes.get(i).copied().unwrap_or(0.0) / 1e6;
            series.push(vec![
                format!("{:.1}", (i - first) as f64 * 0.1),
                format!("{r:.0}"),
                format!("{w:.0}"),
            ]);
        }
        report.table(
            &format!("Fig 14b — TempDB I/O during {label} (MB/s per 100 ms bucket):"),
            &["t (s)", "read MB/s", "write MB/s"],
            series,
        );
    }
    // how much TempDB (for Custom: leased remote memory) the query held at
    // its peak; the sort runs reuse the pages the join partitions gave back
    for (label, bytes) in &high_water {
        report.note(format!(
            "TempDB high water {label}: {:.0} MiB",
            *bytes as f64 / (1 << 20) as f64
        ));
    }
    // host time per arm and phase: the load is rebuilt identically for every
    // arm, the run is the spill pipeline's own cost
    report.wall_clock_notes(&wall);
    report.series("total_latency_s", &totals);
    report.series("cpu_pct", &cpus);
    report.blank();
    let find = |set: &[(String, f64)], label: &str| {
        set.iter().find(|(l, _)| l == label).expect("design").1
    };
    report.check_ratio_ge(
        "hddssd_slowest_io_design",
        "HDD+SSD clearly slower than Custom (paper: ~5x; sim: ~2x)",
        ("HDD+SSD s", find(&totals, "HDD+SSD")),
        ("Custom s", find(&totals, "Custom")),
        1.5,
    );
    report.check_assert(
        "hdd_beats_hddssd",
        "plain HDD beats HDD+SSD (sequential spills out-stream one SSD)",
        find(&totals, "HDD") < find(&totals, "HDD+SSD"),
    );
    report.check_assert(
        "smbdirect_near_custom",
        "SMBDirect within 25% of Custom (large transfers amortize overheads)",
        find(&totals, "SMBDirect+RamDrive") <= find(&totals, "Custom") * 1.25,
    );
    report.check_assert(
        "custom_cpu_highest",
        "Custom's CPU utilization is the highest of the I/O-bound designs",
        find(&cpus, "Custom") >= find(&cpus, "HDD+SSD")
            && find(&cpus, "Custom") >= find(&cpus, "HDD"),
    );
    report.gauge("custom_total_s", find(&totals, "Custom"), 10.0);
    report.gauge("hddssd_total_s", find(&totals, "HDD+SSD"), 10.0);
    report.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use remem::StorageError;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A device that counts `force` calls and reports one lost range.
    #[derive(Default)]
    struct Inner {
        forces: AtomicU64,
    }

    impl Device for Inner {
        fn read(&self, _: &mut Clock, _: u64, _: &mut [u8]) -> Result<(), StorageError> {
            Ok(())
        }

        fn write(&self, _: &mut Clock, _: u64, _: &[u8]) -> Result<(), StorageError> {
            Ok(())
        }

        fn force(&self, _: &mut Clock) -> Result<(), StorageError> {
            self.forces.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }

        fn capacity(&self) -> u64 {
            1 << 20
        }

        fn label(&self) -> String {
            "Inner".into()
        }

        fn drain_lost_ranges(&self) -> Vec<(u64, u64)> {
            vec![(0, 8192)]
        }
    }

    #[test]
    fn series_device_forwards_force_and_lost_ranges() {
        let inner = Arc::new(Inner::default());
        let dev = series_device(Arc::clone(&inner) as Arc<dyn Device>);
        dev.force(&mut Clock::new()).unwrap();
        assert_eq!(inner.forces.load(Ordering::Relaxed), 1);
        assert_eq!(dev.drain_lost_ranges(), vec![(0, 8192)]);
        // a vectored TempDB flush is recorded once, as one batch
        let page = [0u8; 8192];
        dev.write_vectored(&mut Clock::new(), &[(0, &page[..]), (8192, &page[..])]);
        assert_eq!(dev.observer().writes.sums(), [16384.0]);
    }
}
