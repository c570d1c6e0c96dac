//! A [`Device`] decorator that publishes per-operation telemetry into a
//! [`MetricsRegistry`].
//!
//! The engine wraps each device role (data file, buffer-pool extension,
//! TempDB, log) in one of these when telemetry is attached, so the bench
//! harness can attribute virtual time between the storage tier and the
//! network tier. Metric names are derived from the role prefix:
//! `storage.bpext.read.lat`, `storage.tempdb.write.bytes`, and so on, and
//! each operation runs under a `<prefix>.read` / `<prefix>.write` span so
//! nested costs (an rfile-backed device issuing network verbs) show up as
//! child time rather than self time.

use std::sync::Arc;

use remem_sim::{Clock, Counter, Histogram, MetricsRegistry, SpanId};

use crate::device::Device;
use crate::error::StorageError;

/// Wraps any [`Device`] and records latency/byte/op/error telemetry under a
/// caller-chosen name prefix.
pub struct MeteredDevice {
    inner: Arc<dyn Device>,
    registry: Arc<MetricsRegistry>,
    // resolved once here so the per-op span enter is a string-free index
    read_span: SpanId,
    write_span: SpanId,
    read_ops: Arc<Counter>,
    write_ops: Arc<Counter>,
    read_bytes: Arc<Counter>,
    write_bytes: Arc<Counter>,
    read_errors: Arc<Counter>,
    write_errors: Arc<Counter>,
    force_ops: Arc<Counter>,
    read_lat: Arc<Histogram>,
    write_lat: Arc<Histogram>,
}

impl MeteredDevice {
    /// Wrap `inner`, publishing metrics under `prefix` (e.g. `storage.data`).
    pub fn new(
        inner: Arc<dyn Device>,
        registry: Arc<MetricsRegistry>,
        prefix: &str,
    ) -> MeteredDevice {
        MeteredDevice {
            read_span: registry.span(&format!("{prefix}.read")),
            write_span: registry.span(&format!("{prefix}.write")),
            read_ops: registry.counter(&format!("{prefix}.read.ops")),
            write_ops: registry.counter(&format!("{prefix}.write.ops")),
            read_bytes: registry.counter(&format!("{prefix}.read.bytes")),
            write_bytes: registry.counter(&format!("{prefix}.write.bytes")),
            read_errors: registry.counter(&format!("{prefix}.read.errors")),
            write_errors: registry.counter(&format!("{prefix}.write.errors")),
            force_ops: registry.counter(&format!("{prefix}.force.ops")),
            read_lat: registry.histogram(&format!("{prefix}.read.lat")),
            write_lat: registry.histogram(&format!("{prefix}.write.lat")),
            inner,
            registry,
        }
    }
}

/// Count a vectored call's requests one by one, as the scalar arms count a
/// call; returns whether any request succeeded.
fn count_batch(
    ops: &Counter,
    bytes: &Counter,
    errors: &Counter,
    lens: impl Iterator<Item = usize>,
    results: &[Result<(), StorageError>],
) -> bool {
    let mut any_ok = false;
    for (len, res) in lens.zip(results) {
        if res.is_ok() {
            ops.incr();
            bytes.add(len as u64);
            any_ok = true;
        } else {
            errors.incr();
        }
    }
    any_ok
}

impl Device for MeteredDevice {
    fn read(&self, clock: &mut Clock, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        let t0 = clock.now();
        let span = self.registry.span_enter_id(self.read_span, t0);
        let res = self.inner.read(clock, offset, buf);
        self.registry.span_exit(span, clock.now());
        if res.is_ok() {
            self.read_ops.incr();
            self.read_bytes.add(buf.len() as u64);
            self.read_lat.record(clock.now().since(t0));
        } else {
            self.read_errors.incr();
        }
        res
    }

    fn write(&self, clock: &mut Clock, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        let t0 = clock.now();
        let span = self.registry.span_enter_id(self.write_span, t0);
        let res = self.inner.write(clock, offset, data);
        self.registry.span_exit(span, clock.now());
        if res.is_ok() {
            self.write_ops.incr();
            self.write_bytes.add(data.len() as u64);
            self.write_lat.record(clock.now().since(t0));
        } else {
            self.write_errors.incr();
        }
        res
    }

    // Forwarding the vectored calls is load-bearing: the default would run
    // them through `self.read` / `self.write` one request at a time, which
    // turns a pipelined device (the remote file) serial and changes virtual
    // time the moment telemetry is attached. One span and one latency sample
    // per call; ops, bytes and errors per request, as the scalar arms count.
    fn read_vectored(
        &self,
        clock: &mut Clock,
        reqs: &mut [(u64, &mut [u8])],
    ) -> Vec<Result<(), StorageError>> {
        let t0 = clock.now();
        let span = self.registry.span_enter_id(self.read_span, t0);
        let results = self.inner.read_vectored(clock, reqs);
        self.registry.span_exit(span, clock.now());
        let lens = reqs.iter().map(|(_, buf)| buf.len());
        if count_batch(
            &self.read_ops,
            &self.read_bytes,
            &self.read_errors,
            lens,
            &results,
        ) {
            self.read_lat.record(clock.now().since(t0));
        }
        results
    }

    fn write_vectored(
        &self,
        clock: &mut Clock,
        reqs: &[(u64, &[u8])],
    ) -> Vec<Result<(), StorageError>> {
        let t0 = clock.now();
        let span = self.registry.span_enter_id(self.write_span, t0);
        let results = self.inner.write_vectored(clock, reqs);
        self.registry.span_exit(span, clock.now());
        let lens = reqs.iter().map(|(_, data)| data.len());
        if count_batch(
            &self.write_ops,
            &self.write_bytes,
            &self.write_errors,
            lens,
            &results,
        ) {
            self.write_lat.record(clock.now().since(t0));
        }
        results
    }

    fn force(&self, clock: &mut Clock) -> Result<(), StorageError> {
        let res = self.inner.force(clock);
        if res.is_ok() {
            self.force_ops.incr();
        }
        res
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    // Forwarding this is load-bearing: the engine's device-level repair scan
    // must see lost ranges from the wrapped device, not the default empty
    // answer.
    fn drain_lost_ranges(&self) -> Vec<(u64, u64)> {
        self.inner.drain_lost_ranges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ramdisk::RamDisk;

    #[test]
    fn records_ops_bytes_latency_and_spans() {
        let registry = MetricsRegistry::shared();
        let disk: Arc<dyn Device> = Arc::new(RamDisk::new(1 << 20));
        let dev = MeteredDevice::new(disk, Arc::clone(&registry), "storage.data");
        let mut clock = Clock::new();
        let data = vec![7u8; 4096];
        dev.write(&mut clock, 0, &data).unwrap();
        let mut out = vec![0u8; 4096];
        dev.read(&mut clock, 0, &mut out).unwrap();
        assert_eq!(out, data);

        assert_eq!(registry.counter("storage.data.read.ops").get(), 1);
        assert_eq!(registry.counter("storage.data.write.ops").get(), 1);
        assert_eq!(registry.counter("storage.data.read.bytes").get(), 4096);
        assert_eq!(registry.counter("storage.data.write.bytes").get(), 4096);
        assert_eq!(registry.span_stats("storage.data.read").count, 1);
        assert_eq!(registry.span_stats("storage.data.write").count, 1);
    }

    /// A device whose vectored calls cost one fixed step whatever the batch
    /// size, while its scalar calls cost one step each — the remote file's
    /// pipelining, reduced to what a wrapper can break.
    struct Pipelined(RamDisk);

    const STEP: remem_sim::SimDuration = remem_sim::SimDuration::from_micros(10);

    impl Device for Pipelined {
        fn read(&self, clock: &mut Clock, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
            clock.advance(STEP);
            self.0.read(clock, offset, buf)
        }

        fn write(&self, clock: &mut Clock, offset: u64, data: &[u8]) -> Result<(), StorageError> {
            clock.advance(STEP);
            self.0.write(clock, offset, data)
        }

        fn read_vectored(
            &self,
            clock: &mut Clock,
            reqs: &mut [(u64, &mut [u8])],
        ) -> Vec<Result<(), StorageError>> {
            clock.advance(STEP);
            reqs.iter_mut()
                .map(|(offset, buf)| self.0.read(clock, *offset, buf))
                .collect()
        }

        fn write_vectored(
            &self,
            clock: &mut Clock,
            reqs: &[(u64, &[u8])],
        ) -> Vec<Result<(), StorageError>> {
            clock.advance(STEP);
            reqs.iter()
                .map(|(offset, data)| self.0.write(clock, *offset, data))
                .collect()
        }

        fn capacity(&self) -> u64 {
            self.0.capacity()
        }

        fn label(&self) -> String {
            "Pipelined".into()
        }
    }

    #[test]
    fn vectored_calls_stay_vectored_under_telemetry() {
        let registry = MetricsRegistry::shared();
        let bare = Pipelined(RamDisk::new(1 << 20));
        let dev = MeteredDevice::new(
            Arc::new(Pipelined(RamDisk::new(1 << 20))),
            Arc::clone(&registry),
            "storage.tempdb",
        );
        let a = vec![1u8; 4096];
        let b = vec![2u8; 8192];
        // the third request runs off the end of the device
        let writes: [(u64, &[u8]); 3] = [(0, &a), (4096, &b), ((1 << 20) - 16, &a)];
        let (mut t_bare, mut t_dev) = (Clock::new(), Clock::new());
        let want = bare.write_vectored(&mut t_bare, &writes);
        assert_eq!(dev.write_vectored(&mut t_dev, &writes), want);
        assert!(want[0].is_ok() && want[1].is_ok() && want[2].is_err());

        let (mut ra, mut rb) = (vec![0u8; 4096], vec![0u8; 8192]);
        let mut reads: [(u64, &mut [u8]); 2] = [(0, &mut ra), (4096, &mut rb)];
        bare.read_vectored(&mut t_bare, &mut reads);
        let (mut ra, mut rb) = (vec![0u8; 4096], vec![0u8; 8192]);
        let mut reads: [(u64, &mut [u8]); 2] = [(0, &mut ra), (4096, &mut rb)];
        assert!(dev
            .read_vectored(&mut t_dev, &mut reads)
            .iter()
            .all(Result::is_ok));
        assert_eq!((&ra, &rb), (&a, &b));

        // same virtual time as the bare device, which the request-by-request
        // default would exceed by a step per extra request
        assert_eq!(t_dev.now(), t_bare.now());
        let mut t_serial = Clock::new();
        for (offset, data) in &writes[..2] {
            bare.write(&mut t_serial, *offset, data).unwrap();
        }
        for (offset, len) in [(0, 4096), (4096, 8192)] {
            bare.read(&mut t_serial, offset, &mut vec![0u8; len])
                .unwrap();
        }
        assert!(t_serial.now() >= t_bare.now() + STEP * 2);
        // requests are counted one by one, the call once
        assert_eq!(registry.counter("storage.tempdb.write.ops").get(), 2);
        assert_eq!(registry.counter("storage.tempdb.write.bytes").get(), 12288);
        assert_eq!(registry.counter("storage.tempdb.write.errors").get(), 1);
        assert_eq!(registry.counter("storage.tempdb.read.ops").get(), 2);
        assert_eq!(registry.counter("storage.tempdb.read.bytes").get(), 12288);
        assert_eq!(registry.span_stats("storage.tempdb.write").count, 1);
        assert_eq!(registry.span_stats("storage.tempdb.read").count, 1);
    }

    #[test]
    fn errors_count_without_polluting_latency() {
        let registry = MetricsRegistry::shared();
        let disk: Arc<dyn Device> = Arc::new(RamDisk::new(1024));
        let dev = MeteredDevice::new(disk, Arc::clone(&registry), "storage.log");
        let mut clock = Clock::new();
        let mut buf = vec![0u8; 64];
        assert!(dev.read(&mut clock, 1000, &mut buf).is_err());
        assert_eq!(registry.counter("storage.log.read.errors").get(), 1);
        assert_eq!(registry.counter("storage.log.read.ops").get(), 0);
    }

    #[test]
    fn forwards_capacity_and_label() {
        let registry = MetricsRegistry::shared();
        let disk: Arc<dyn Device> = Arc::new(RamDisk::new(2048));
        let dev = MeteredDevice::new(disk, registry, "storage.bpext");
        assert_eq!(dev.capacity(), 2048);
        assert_eq!(dev.label(), "RamDisk");
    }
}
