//! # remem-bench — harness shared by the `repro_*` figure binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` for the index, `EXPERIMENTS.md` for measured output).
//! This library holds the shared scaffolding: the figures' `DbOptions`
//! presets, the multi-stream runner, windowed CPU utilization, aligned-table
//! printing, and the JSON report every binary writes.

pub mod check;
pub mod json;
pub mod report;

pub use report::{Arm, Report};

use remem::{ClusterBuilder, DbOptions, Design};
use remem_sim::metrics::RunSummary;
use remem_sim::{Clock, SimDuration, SimTime};
use remem_workloads::rangescan::{load_customer, run_rangescan, RangeScanParams};

/// Windowed utilization of a cumulative-utilization resource: the busy
/// fraction within `[t0, t1]` given cumulative utilizations at both
/// instants.
pub fn windowed_util(u1: f64, t1: SimTime, u0: f64, t0: SimTime) -> f64 {
    let span = (t1.as_nanos() - t0.as_nanos()) as f64;
    if span <= 0.0 {
        return 0.0;
    }
    ((u1 * t1.as_nanos() as f64 - u0 * t0.as_nanos() as f64) / span).clamp(0.0, 1.0)
}

/// Run `tasks` across `streams` concurrent workers (the paper's TPC runs
/// use 5 streams, Table 4), dealing tasks round-robin and always advancing
/// the worker with the smallest clock. Returns the makespan and each task's
/// measured latency.
pub fn run_streams(
    start: SimTime,
    streams: usize,
    tasks: &[usize],
    mut run: impl FnMut(&mut Clock, usize),
) -> (SimDuration, Vec<(usize, SimDuration)>) {
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); streams];
    for (i, &t) in tasks.iter().enumerate() {
        queues[i % streams].push(t);
    }
    for q in &mut queues {
        q.reverse(); // pop() runs them in deal order
    }
    let mut clocks: Vec<Clock> = (0..streams).map(|_| Clock::starting_at(start)).collect();
    let mut latencies = Vec::with_capacity(tasks.len());
    loop {
        let next = clocks
            .iter()
            .enumerate()
            .filter(|(i, _)| !queues[*i].is_empty())
            .min_by_key(|(i, c)| (c.now(), *i))
            .map(|(i, _)| i);
        let Some(w) = next else { break };
        let task = queues[w].pop().expect("non-empty queue");
        let t0 = clocks[w].now();
        run(&mut clocks[w], task);
        latencies.push((task, clocks[w].now().since(t0)));
    }
    let makespan = clocks
        .iter()
        .map(|c| c.now())
        .max()
        .unwrap_or(start)
        .since(start);
    (makespan, latencies)
}

/// Every design crossed with every knob, design-major: the arm list of a
/// figure that sweeps one knob per design.
pub fn design_arms<K: Copy>(knobs: &[K]) -> Vec<(Design, K)> {
    Design::ALL
        .into_iter()
        .flat_map(|d| knobs.iter().map(move |&k| (d, k)))
        .collect()
}

/// Print the standard experiment header (scale note included, since all
/// data sizes are the paper's divided by 1000).
pub fn header(figure: &str, what: &str) {
    println!("==============================================================");
    println!("{figure}: {what}");
    println!(
        "scale = paper sizes / {}, device constants unchanged",
        remem_workloads::SCALE_DENOMINATOR
    );
    println!("==============================================================");
}

/// RangeScan sizing for Figs 7/8, 9/10 and 11: 2 MiB pool / 32 MiB BPExt /
/// 8 MiB TempDB. Not a scaled Table 4 row (that is
/// [`DbOptions::rangescan`], 32 / 128 / 8 MiB): the pool is shrunk so the
/// figures' 60 000-row customer table (~15 MiB) overflows local memory
/// many times over while fitting the BPExt whole.
pub fn rangescan_opts(spindles: usize) -> DbOptions {
    DbOptions {
        pool_bytes: 2 << 20,
        bpext_bytes: 32 << 20,
        tempdb_bytes: 8 << 20,
        spindles,
        ..DbOptions::small()
    }
}

/// One RangeScan arm (Figs 7-10, 12 and 24): `design` with `opts` on the
/// cluster `cluster` builds, `rows` customers loaded, then 80 workers for
/// 400 ms of virtual time with `update_fraction` of the queries updating.
pub fn rangescan_arm(
    arm: &mut Arm,
    cluster: ClusterBuilder,
    design: Design,
    opts: &DbOptions,
    rows: u64,
    update_fraction: f64,
) -> RunSummary {
    let cluster = cluster.build();
    let mut clock = Clock::new();
    let db = design
        .build(&cluster, &mut clock, opts)
        .expect("build design");
    let t = arm.load(|| load_customer(&db, &mut clock, rows));
    let p = RangeScanParams {
        workers: 80,
        update_fraction,
        duration: SimDuration::from_millis(400),
        ..Default::default()
    };
    run_rangescan(&db, t, &p, clock.now())
}

/// Decision-support sizing for Figs 15a, 15b, 18/19 and 20/21: 16 MiB pool /
/// 64 MiB BPExt / 64 MiB TempDB on a 512 MiB data file, analytics (no SSD
/// BPExt in HDD+SSD) and a 2 MiB query workspace so joins and sorts spill.
/// Figs 15b, 18/19 and 20/21 shrink the pool to 2 MiB for memory pressure
/// (18/19 and 20/21: "64 GB local vs 840 / 900 GB data", scaled).
pub fn dss_opts(spindles: usize) -> DbOptions {
    DbOptions {
        pool_bytes: 16 << 20,
        bpext_bytes: 64 << 20,
        tempdb_bytes: 64 << 20,
        data_bytes: 512 << 20,
        spindles,
        oltp: false,
        workspace_bytes: Some(2 << 20),
        ..DbOptions::small()
    }
}

/// OLTP sizing for Figs 22/23: 4 MiB pool / 16 MiB BPExt / 8 MiB TempDB,
/// so the read-mostly mix's working set exceeds local memory.
pub fn tpcc_opts(spindles: usize) -> DbOptions {
    DbOptions {
        pool_bytes: 4 << 20,
        bpext_bytes: 16 << 20,
        tempdb_bytes: 8 << 20,
        spindles,
        ..DbOptions::small()
    }
}

/// Print an aligned table with a left-justified first column.
pub(crate) fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if i == 0 {
                    format!("{c:<w$}", w = widths[0])
                } else {
                    format!("{c:>w$}", w = widths[i])
                }
            })
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for r in rows {
        println!("{}", fmt_row(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remem::{Device, StorageError};
    use remem_sim::MetricsRegistry;
    use remem_storage::{Metered, Observed};
    use std::sync::{Arc, Mutex};

    #[test]
    fn presets_build() {
        let c = remem::Cluster::builder()
            .memory_servers(2)
            .memory_per_server(192 << 20)
            .build();
        for opts in [rangescan_opts(8), dss_opts(8), tpcc_opts(8)] {
            assert_eq!(opts.spindles, 8);
            let mut clock = Clock::new();
            remem::Design::Custom.build(&c, &mut clock, &opts).unwrap();
        }
        assert!(rangescan_opts(20).oltp);
        assert!(dss_opts(20).workspace_bytes.is_some());
        assert!(tpcc_opts(20).oltp);
    }

    #[test]
    fn table_renders_aligned() {
        // smoke: must not panic on ragged content
        print_table(
            &["design", "value"],
            &[
                vec!["Custom".into(), "42".into()],
                vec!["HDD".into(), "1".into()],
            ],
        );
    }

    /// Records which `Device` methods were called, in order.
    #[derive(Default)]
    struct CallLog(Mutex<Vec<&'static str>>);

    impl CallLog {
        fn hit(&self, method: &'static str) {
            self.0.lock().unwrap().push(method);
        }
    }

    impl Device for CallLog {
        fn read(&self, _: &mut Clock, _: u64, _: &mut [u8]) -> Result<(), StorageError> {
            self.hit("read");
            Ok(())
        }

        fn write(&self, _: &mut Clock, _: u64, _: &[u8]) -> Result<(), StorageError> {
            self.hit("write");
            Ok(())
        }

        fn read_vectored(
            &self,
            _: &mut Clock,
            reqs: &mut [(u64, &mut [u8])],
        ) -> Vec<Result<(), StorageError>> {
            self.hit("read_vectored");
            reqs.iter().map(|_| Ok(())).collect()
        }

        fn write_vectored(
            &self,
            _: &mut Clock,
            reqs: &[(u64, &[u8])],
        ) -> Vec<Result<(), StorageError>> {
            self.hit("write_vectored");
            reqs.iter().map(|_| Ok(())).collect()
        }

        fn force(&self, _: &mut Clock) -> Result<(), StorageError> {
            self.hit("force");
            Ok(())
        }

        fn capacity(&self) -> u64 {
            self.hit("capacity");
            1 << 20
        }

        fn label(&self) -> String {
            self.hit("label");
            "CallLog".into()
        }

        fn drain_lost_ranges(&self) -> Vec<(u64, u64)> {
            self.hit("drain_lost_ranges");
            vec![(0, 8192)]
        }
    }

    /// The BPExt as Fig 11 instruments it: the engine's registry observer
    /// under `storage.bpext`.
    #[test]
    fn instrumented_device_forwards_every_device_method() {
        let inner = Arc::new(CallLog::default());
        let registry = MetricsRegistry::shared();
        let metered = Metered::new(Arc::clone(&registry), "storage.bpext");
        let dev = Observed::new(Arc::clone(&inner) as Arc<dyn Device>, metered);
        let mut clock = Clock::new();
        let mut buf = [0u8; 64];
        dev.read(&mut clock, 0, &mut buf).unwrap();
        dev.write(&mut clock, 0, &buf).unwrap();
        dev.read_vectored(&mut clock, &mut [(0, &mut buf[..])]);
        dev.write_vectored(&mut clock, &[(0, &buf[..])]);
        dev.force(&mut clock).unwrap();
        assert_eq!(dev.capacity(), 1 << 20);
        assert_eq!(dev.label(), "CallLog");
        assert_eq!(dev.drain_lost_ranges(), vec![(0, 8192)]);
        // one inner call each: a vectored call must not decay into scalar
        // ones, and `force` / `drain_lost_ranges` must not hit the trait's
        // free defaults
        assert_eq!(
            *inner.0.lock().unwrap(),
            [
                "read",
                "write",
                "read_vectored",
                "write_vectored",
                "force",
                "capacity",
                "label",
                "drain_lost_ranges"
            ]
        );
        // what Fig 11 reads per window: bytes moved and read latency
        assert_eq!(registry.counter("storage.bpext.read.bytes").get(), 128);
        assert_eq!(registry.counter("storage.bpext.write.bytes").get(), 128);
        assert_eq!(registry.histogram("storage.bpext.read.lat").len(), 2);
    }
}
