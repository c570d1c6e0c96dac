//! Golden oracle for the TempDB spill pipeline.
//!
//! Seeded spilling operators — a raw spill stream, a grace hash join and an
//! external sort with and without `limit` — run on a `RamDisk` and on a
//! remote-memory TempDB, and each pins the final virtual time, the bytes
//! spilled and read back, the device calls by kind and an FNV of the output
//! rows in order. The pins were captured before the pipeline was made
//! copy-free: they assert that the rewrite charges the same CPU, issues the
//! same device calls over the same extent layout and emits the same rows in
//! the same order — not similar ones.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use remem_broker::{BrokerConfig, MemoryBroker, MemoryProxy, MetaStore, PlacementPolicy};
use remem_engine::exec::ExecCtx;
use remem_engine::hashjoin::hash_join;
use remem_engine::pagestore::{FileId, PagedFile};
use remem_engine::row::{Row, Value};
use remem_engine::sort::external_sort;
use remem_engine::tempdb::TempDb;
use remem_engine::CpuCosts;
use remem_net::{Fabric, NetConfig};
use remem_rfile::{RFileConfig, RemoteFile};
use remem_sim::rng::SimRng;
use remem_sim::{Clock, CpuPool};
use remem_storage::{Device, RamDisk, StorageError};

const MIB: u64 = 1 << 20;
const TEMPDB_BYTES: u64 = 192 * MIB;

/// Counts device calls by kind and forwards every one unchanged — the
/// vectored calls included, so a pipelined device stays pipelined.
struct CountingDevice {
    inner: Arc<dyn Device>,
    reads: AtomicU64,
    writes: AtomicU64,
    vectored_reads: AtomicU64,
    vectored_writes: AtomicU64,
}

impl CountingDevice {
    fn new(inner: Arc<dyn Device>) -> Arc<CountingDevice> {
        Arc::new(CountingDevice {
            inner,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            vectored_reads: AtomicU64::new(0),
            vectored_writes: AtomicU64::new(0),
        })
    }

    fn calls(&self) -> String {
        format!(
            "r{}/w{}/rv{}/wv{}",
            self.reads.load(Ordering::Relaxed),
            self.writes.load(Ordering::Relaxed),
            self.vectored_reads.load(Ordering::Relaxed),
            self.vectored_writes.load(Ordering::Relaxed),
        )
    }
}

impl Device for CountingDevice {
    fn read(&self, clock: &mut Clock, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read(clock, offset, buf)
    }

    fn write(&self, clock: &mut Clock, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.write(clock, offset, data)
    }

    fn read_vectored(
        &self,
        clock: &mut Clock,
        reqs: &mut [(u64, &mut [u8])],
    ) -> Vec<Result<(), StorageError>> {
        self.vectored_reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read_vectored(clock, reqs)
    }

    fn write_vectored(
        &self,
        clock: &mut Clock,
        reqs: &[(u64, &[u8])],
    ) -> Vec<Result<(), StorageError>> {
        self.vectored_writes.fetch_add(1, Ordering::Relaxed);
        self.inner.write_vectored(clock, reqs)
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

#[derive(Clone, Copy)]
enum Backing {
    Ram,
    /// A single-copy remote file striped over three donors, as
    /// `Design::Custom` mounts TempDB.
    Remote,
}

struct Rig {
    device: Arc<CountingDevice>,
    tempdb: TempDb,
    clock: Clock,
    cpu: CpuPool,
    costs: CpuCosts,
}

fn rig(backing: Backing) -> Rig {
    let mut clock = Clock::new();
    let inner: Arc<dyn Device> = match backing {
        Backing::Ram => Arc::new(RamDisk::new(TEMPDB_BYTES)),
        Backing::Remote => {
            let fabric = Arc::new(Fabric::new(NetConfig::default()));
            let db = fabric.add_server("DB", 8);
            let broker = Arc::new(MemoryBroker::new(
                BrokerConfig {
                    placement: PlacementPolicy::Spread,
                    ..Default::default()
                },
                MetaStore::new(),
            ));
            for i in 0..3 {
                let m = fabric.add_server(format!("M{i}"), 8);
                MemoryProxy::new(m, MIB)
                    .donate(
                        &mut Clock::new(),
                        &fabric,
                        &broker,
                        TEMPDB_BYTES / 3 + 8 * MIB,
                    )
                    .unwrap();
            }
            Arc::new(
                RemoteFile::create_open(
                    &mut clock,
                    fabric,
                    broker,
                    db,
                    TEMPDB_BYTES,
                    RFileConfig::custom(),
                )
                .unwrap(),
            )
        }
    };
    let device = CountingDevice::new(inner);
    let file = PagedFile::new(FileId(9), Arc::clone(&device) as Arc<dyn Device>);
    Rig {
        device,
        tempdb: TempDb::new(Arc::new(file)),
        clock,
        cpu: CpuPool::new(4),
        costs: CpuCosts::default(),
    }
}

impl Rig {
    /// Run `op` at full DOP, as `Database::{join_hash, sort_rows}` do, and
    /// format the pins around the rows it returns.
    fn pin(
        mut self,
        op: impl FnOnce(&mut ExecCtx<'_>, &TempDb) -> Result<Vec<Row>, StorageError>,
    ) -> String {
        let rows = {
            let mut ctx = ExecCtx::new(&mut self.clock, &self.cpu, &self.costs).parallel();
            op(&mut ctx, &self.tempdb).unwrap()
        };
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut buf = Vec::new();
        for r in &rows {
            buf.clear();
            r.encode(&mut buf);
            for &b in &buf {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        format!(
            "t={} spilled={} read_back={} calls={} rows={} fnv={:016x}",
            self.clock.now().0,
            self.tempdb.bytes_spilled(),
            self.tempdb.bytes_read_back(),
            self.device.calls(),
            rows.len(),
            h,
        )
    }
}

/// `(key, price, seq, pad)` with a pad of 0..=96 bytes: empty strings and
/// every row length in between, so page fill varies from page to page.
fn row(rng: &mut SimRng, key: i64, seq: i64) -> Row {
    Row::new(vec![
        Value::Int(key),
        Value::Float((rng.uniform(0, 5_000) as f64) * 0.25),
        Value::Int(seq),
        Value::Str("p".repeat(rng.uniform(0, 97) as usize)),
    ])
}

/// One long stream: five full extents and a tail, across three reservations
/// (256, 256 and 1 024 pages) and two pipelined flushes; read back whole.
fn stream(backing: Backing) -> String {
    let mut rng = SimRng::seeded(41);
    let rows: Vec<Row> = (0..130_000).map(|i| row(&mut rng, i % 977, i)).collect();
    rig(backing).pin(|ctx, tempdb| {
        let mut w = tempdb.writer();
        for r in &rows {
            w.push(ctx, r)?;
        }
        let spill = w.finish(ctx)?;
        assert!(spill.pages() > 5 * 256, "five full extents");
        tempdb.read_all(ctx, &spill)
    })
}

/// A grace join over four partitions: build keys repeat four times, probe
/// keys are drawn with repeats and one in seven misses the build side; each
/// probe partition is a full extent and a tail.
fn join(backing: Backing) -> String {
    let mut rng = SimRng::seeded(42);
    let build: Vec<Row> = (0..24_000).map(|i| row(&mut rng, i % 6_000, i)).collect();
    let probe: Vec<Row> = (0..150_000)
        .map(|i| {
            let key = rng.uniform(0, 7_000) as i64;
            row(&mut rng, key, i)
        })
        .collect();
    rig(backing).pin(|ctx, tempdb| {
        hash_join(
            ctx,
            tempdb,
            build,
            probe,
            |r| r.int(0),
            |r| r.int(0),
            900 << 10,
            |b, p| {
                let mut v = p.0.clone();
                v.push(b.0[2].clone());
                Row::new(v)
            },
        )
    })
}

/// An external sort into six runs of a full extent and a tail each, on a key
/// with many ties (5 000 distinct prices over 220 000 rows), so the pinned
/// order also pins the tie-break: stable within a run, lowest run first
/// across runs. With a limit the merge stops inside each run's first extent.
fn sort(backing: Backing, limit: Option<usize>) -> String {
    let mut rng = SimRng::seeded(43);
    let rows: Vec<Row> = (0..220_000)
        .map(|i| {
            let key = rng.uniform(0, 1 << 40) as i64;
            row(&mut rng, key, i)
        })
        .collect();
    rig(backing).pin(|ctx, tempdb| external_sort(ctx, tempdb, rows, |r| r.float(1), 4 * MIB, limit))
}

#[test]
fn golden_stream_ramdisk() {
    assert_eq!(stream(Backing::Ram), "t=74070700 spilled=11264000 read_back=11264000 calls=r6/w0/rv0/wv2 rows=130000 fnv=5ff1e33744d49045");
}

#[test]
fn golden_stream_remote() {
    assert_eq!(stream(Backing::Remote), "t=80249513 spilled=11264000 read_back=11264000 calls=r6/w0/rv0/wv2 rows=130000 fnv=5ff1e33744d49045");
}

#[test]
fn golden_join_ramdisk() {
    assert_eq!(join(Backing::Ram), "t=293925828 spilled=15097856 read_back=15097856 calls=r12/w0/rv0/wv8 rows=514136 fnv=7de5abe3344d2e32");
}

#[test]
fn golden_join_remote() {
    assert_eq!(join(Backing::Remote), "t=301641984 spilled=15097856 read_back=15097856 calls=r12/w0/rv0/wv8 rows=514136 fnv=7de5abe3344d2e32");
}

#[test]
fn golden_sort_ramdisk() {
    assert_eq!(sort(Backing::Ram, None), "t=257344696 spilled=19054592 read_back=19054592 calls=r12/w0/rv0/wv6 rows=220000 fnv=f304275d57ff2a52");
}

#[test]
fn golden_sort_remote() {
    assert_eq!(sort(Backing::Remote, None), "t=266530068 spilled=19054592 read_back=19054592 calls=r12/w0/rv0/wv6 rows=220000 fnv=f304275d57ff2a52");
}

#[test]
fn golden_sort_limit_ramdisk() {
    assert_eq!(sort(Backing::Ram, Some(500)), "t=99172426 spilled=19054592 read_back=12582912 calls=r6/w0/rv0/wv6 rows=500 fnv=b08f459b1a96672e");
}

#[test]
fn golden_sort_limit_remote() {
    assert_eq!(sort(Backing::Remote, Some(500)), "t=107098121 spilled=19054592 read_back=12582912 calls=r6/w0/rv0/wv6 rows=500 fnv=b08f459b1a96672e");
}
