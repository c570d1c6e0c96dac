//! # remem-bench — harness shared by the `repro_*` figure binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` for the index, `EXPERIMENTS.md` for measured output).
//! This library holds the shared scaffolding: standard cluster/option
//! presets and aligned-table printing.

pub mod check;
pub mod json;
pub mod report;

pub use report::Report;

use std::sync::Arc;

use remem::{Cluster, DbOptions, Device, StorageError};
use remem_sim::metrics::Counter;
use remem_sim::{Clock, Histogram, SimDuration, SimTime};

/// A [`Device`] wrapper recording per-operation latency and byte counts —
/// used by the drill-down harnesses (Figs. 11 and 14b/c).
pub struct InstrumentedDevice {
    inner: Arc<dyn Device>,
    pub reads: Histogram,
    pub writes: Histogram,
    pub bytes_read: Counter,
    pub bytes_written: Counter,
}

impl InstrumentedDevice {
    pub fn new(inner: Arc<dyn Device>) -> Arc<InstrumentedDevice> {
        Arc::new(InstrumentedDevice {
            inner,
            reads: Histogram::new(),
            writes: Histogram::new(),
            bytes_read: Counter::new(),
            bytes_written: Counter::new(),
        })
    }

    pub fn reset(&self) {
        self.reads.reset();
        self.writes.reset();
        self.bytes_read.reset();
        self.bytes_written.reset();
    }

    pub fn total_bytes(&self) -> u64 {
        self.bytes_read.get() + self.bytes_written.get()
    }
}

impl Device for InstrumentedDevice {
    fn read(&self, clock: &mut Clock, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        let t0 = clock.now();
        let r = self.inner.read(clock, offset, buf);
        self.reads.record(clock.now().since(t0));
        self.bytes_read.add(buf.len() as u64);
        r
    }

    fn write(&self, clock: &mut Clock, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        let t0 = clock.now();
        let r = self.inner.write(clock, offset, data);
        self.writes.record(clock.now().since(t0));
        self.bytes_written.add(data.len() as u64);
        r
    }

    // must forward: the default would replay a batch through `read` /
    // `write` one request at a time and serialize a pipelined device. One
    // latency sample per call, bytes per request.
    fn read_vectored(
        &self,
        clock: &mut Clock,
        reqs: &mut [(u64, &mut [u8])],
    ) -> Vec<Result<(), StorageError>> {
        let t0 = clock.now();
        let r = self.inner.read_vectored(clock, reqs);
        self.reads.record(clock.now().since(t0));
        for (_, buf) in reqs.iter() {
            self.bytes_read.add(buf.len() as u64);
        }
        r
    }

    fn write_vectored(
        &self,
        clock: &mut Clock,
        reqs: &[(u64, &[u8])],
    ) -> Vec<Result<(), StorageError>> {
        let t0 = clock.now();
        let r = self.inner.write_vectored(clock, reqs);
        self.writes.record(clock.now().since(t0));
        for (_, data) in reqs {
            self.bytes_written.add(data.len() as u64);
        }
        r
    }

    fn force(&self, clock: &mut Clock) -> Result<(), StorageError> {
        // must forward: the default is a free no-op, so a log device behind
        // this wrapper would commit with no durability charge
        self.inner.force(clock)
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn drain_lost_ranges(&self) -> Vec<(u64, u64)> {
        // must forward: swallowing these would let a cache above serve
        // pages whose backing stripes a self-heal replaced with zeros
        self.inner.drain_lost_ranges()
    }
}

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

/// Format a `SimDuration` as fractional milliseconds.
pub fn ms(d: SimDuration) -> String {
    format!("{:.2}", d.as_millis_f64())
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

/// A fresh two-donor cluster with enough memory for the standard presets.
pub fn standard_cluster() -> Cluster {
    Cluster::builder()
        .memory_servers(2)
        .memory_per_server(192 << 20)
        .build()
}

/// A cluster with `n` donors of `bytes` each, spread placement.
pub fn spread_cluster(n: usize, bytes: u64) -> Cluster {
    Cluster::builder()
        .memory_servers(n)
        .memory_per_server(bytes)
        .placement(remem::PlacementPolicy::Spread)
        .build()
}

/// RangeScan-shaped sizing (Table 4 row 1, scaled).
pub fn rangescan_opts(spindles: usize) -> DbOptions {
    DbOptions {
        pool_bytes: 2 << 20,
        bpext_bytes: 32 << 20,
        tempdb_bytes: 8 << 20,
        data_bytes: 256 << 20,
        spindles,
        oltp: true,
        workspace_bytes: None,
        replicas: 1,
        fault_log: None,
        metrics: None,
        remote_wal: false,
        wal_ring_bytes: 8 << 20,
    }
}

/// Hash+Sort-shaped sizing (Table 4 row 2, scaled): scans cached, grants
/// capped so both operators spill.
pub fn hashsort_opts(spindles: usize) -> DbOptions {
    DbOptions {
        pool_bytes: 64 << 20,
        bpext_bytes: 8 << 20,
        tempdb_bytes: 128 << 20,
        data_bytes: 256 << 20,
        spindles,
        oltp: false,
        workspace_bytes: Some(1 << 20),
        replicas: 1,
        fault_log: None,
        metrics: None,
        remote_wal: false,
        wal_ring_bytes: 8 << 20,
    }
}

/// Decision-support sizing (TPC-H / TPC-DS rows of Table 4, scaled).
pub fn dss_opts(spindles: usize) -> DbOptions {
    DbOptions {
        pool_bytes: 16 << 20,
        bpext_bytes: 64 << 20,
        tempdb_bytes: 64 << 20,
        data_bytes: 512 << 20,
        spindles,
        oltp: false,
        workspace_bytes: Some(2 << 20),
        replicas: 1,
        fault_log: None,
        metrics: None,
        remote_wal: false,
        wal_ring_bytes: 8 << 20,
    }
}

/// OLTP sizing (TPC-C row of Table 4, scaled).
pub fn tpcc_opts(spindles: usize) -> DbOptions {
    DbOptions {
        pool_bytes: 4 << 20,
        bpext_bytes: 16 << 20,
        tempdb_bytes: 8 << 20,
        data_bytes: 256 << 20,
        spindles,
        oltp: true,
        workspace_bytes: None,
        replicas: 1,
        fault_log: None,
        metrics: None,
        remote_wal: false,
        wal_ring_bytes: 8 << 20,
    }
}

/// Render one aligned table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Print an aligned table with a left-justified first column.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
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

    #[test]
    fn presets_build() {
        let c = standard_cluster();
        assert_eq!(c.memory_servers.len(), 2);
        assert!(rangescan_opts(20).oltp);
        assert!(!hashsort_opts(20).oltp);
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
    struct CallLog(parking_lot::Mutex<Vec<&'static str>>);

    impl CallLog {
        fn hit(&self, method: &'static str) {
            self.0.lock().push(method);
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

    #[test]
    fn instrumented_device_forwards_every_device_method() {
        let inner = Arc::new(CallLog::default());
        let dev = InstrumentedDevice::new(Arc::clone(&inner) as Arc<dyn Device>);
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
            *inner.0.lock(),
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
    }
}
