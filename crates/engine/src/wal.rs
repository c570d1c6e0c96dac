//! Write-ahead log with REDO replay — on a sequential device, or shipped
//! to replicated remote memory.
//!
//! Every data modification appends a record to the log. The classic
//! backend is a sequential log device (the HDD array in the paper's
//! setups — which is why RangeScan-with-updates throughput rises with
//! spindle count, Figs. 7-8), where a commit waits for the spindle.
//!
//! The **remote** backend instead appends commit groups into a k ≥ 2
//! replicated remote **ring** ([`RemoteRing`]): one quorum write over the
//! fabric is the durability point, so commit latency drops from a device
//! force to a round trip and a half ("The End of Slow Networks"; SafarDB's
//! replicated commit path keeps the replica appends coordination-free the
//! same way). The ring is finite, so a lazy **archiver** drains whole
//! records to a backing device when space runs short — off the commit
//! path — and truncates the ring at a record boundary. Recovery replays
//! REDO from the surviving ring image first (one chunked remote read —
//! the Fig. 26 / Appendix B.4 improvement) and falls back to the archive
//! device only for the truncated prefix.
//!
//! Both backends share the record format and the torn-tail contract: a
//! truncated final record (partial length prefix or short body, as a
//! crash mid-append produces) ends replay cleanly at the last whole
//! record instead of failing the whole recovery.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use remem_rfile::RemoteRing;
use remem_sim::{Clock, FaultLog, FaultOrigin};
use remem_storage::{Device, StorageError};

use crate::row::Row;

/// Log sequence number.
pub type Lsn = u64;

/// Smallest legal record body: lsn (8) + table (4) + op (1) + key (8) +
/// row-present flag (1). A length prefix below this is torn or corrupt.
const MIN_BODY: usize = 22;

/// Bytes the archiver moves per ring read while draining (grows when a
/// single record is larger).
const ARCHIVE_CHUNK: u64 = 64 << 10;

/// The logged operation. Its byte in a record is its position here (and
/// in `WAL_OPS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp {
    Insert,
    Update,
    Delete,
}

const WAL_OPS: [WalOp; 3] = [WalOp::Insert, WalOp::Update, WalOp::Delete];

/// One log record.
#[derive(Debug, Clone)]
pub struct WalRecord {
    pub lsn: Lsn,
    pub table: u32,
    pub op: WalOp,
    pub key: i64,
    /// The after-image row for Insert/Update; `None` for Delete.
    pub row: Option<Row>,
}

/// Encode one length-prefixed frame directly into `out`: the 4-byte LE
/// length is reserved up front and backfilled once the body is in place —
/// one buffer, no intermediate copy. The group-commit path calls this in a
/// loop over the WAL's reused scratch buffer.
fn encode_frame(out: &mut Vec<u8>, lsn: Lsn, table: u32, op: WalOp, key: i64, row: Option<&Row>) {
    let len_at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    let body_at = out.len();
    out.extend_from_slice(&lsn.to_le_bytes());
    out.extend_from_slice(&table.to_le_bytes());
    out.push(op as u8);
    out.extend_from_slice(&key.to_le_bytes());
    match row {
        Some(row) => {
            out.push(1);
            row.encode(out);
        }
        None => out.push(0),
    }
    let body_len = (out.len() - body_at) as u32;
    out[len_at..len_at + 4].copy_from_slice(&body_len.to_le_bytes());
}

impl WalRecord {
    /// Append this record's length-prefixed frame to `out` (see
    /// [`encode_frame`]'s in-place backfill — no intermediate body buffer).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_frame(
            out,
            self.lsn,
            self.table,
            self.op,
            self.key,
            self.row.as_ref(),
        );
    }

    /// One-off frame encoding (allocates; hot paths use
    /// [`WalRecord::encode_into`] with a reused buffer).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Decode a record body (the bytes after the length prefix). `None`
    /// when the body is short, its op byte is corrupt, or its row does not
    /// decode or does not end exactly at the body's end — replay treats
    /// that as the torn tail of the log.
    pub fn decode(body: &[u8]) -> Option<WalRecord> {
        if body.len() < MIN_BODY {
            return None;
        }
        let lsn = u64::from_le_bytes(*body.first_chunk()?);
        let table = u32::from_le_bytes(*body[8..].first_chunk()?);
        let op = *WAL_OPS.get(body[12] as usize)?;
        let key = i64::from_le_bytes(*body[13..].first_chunk()?);
        let row = match body[21] {
            0 => None,
            1 => match Row::decode(&body[MIN_BODY..]) {
                Ok((row, used)) if MIN_BODY + used == body.len() => Some(row),
                _ => return None,
            },
            _ => return None,
        };
        Some(WalRecord {
            lsn,
            table,
            op,
            key,
            row,
        })
    }

    /// Parse the first complete frame of `buf`, returning the record and
    /// the bytes consumed. `None` when no whole valid record is present —
    /// a partial length prefix, a body extending past the buffer, or a
    /// corrupt body — which is exactly where a torn-tail replay stops.
    pub fn parse_frame(buf: &[u8]) -> Option<(WalRecord, usize)> {
        let len = u32::from_le_bytes(*buf.first_chunk()?) as usize;
        if len < MIN_BODY || buf.len() < 4 + len {
            return None;
        }
        let rec = WalRecord::decode(&buf[4..4 + len])?;
        Some((rec, 4 + len))
    }
}

/// One entry of a commit group handed to [`Wal::append_group`]: the record
/// fields by reference, so grouping N transactions clones no rows.
#[derive(Debug, Clone, Copy)]
pub struct WalEntry<'a> {
    pub table: u32,
    pub op: WalOp,
    pub key: i64,
    pub row: Option<&'a Row>,
}

/// Monotonic WAL counters (snapshot via [`Wal::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Flushed commit groups (one backend write each).
    pub groups: u64,
    /// Records appended across all groups.
    pub records: u64,
    /// Frame bytes appended.
    pub append_bytes: u64,
    /// Replay bytes served from the remote ring image.
    pub replay_ring_bytes: u64,
    /// Replay bytes served from the archive device (truncated prefix).
    pub replay_archive_bytes: u64,
    /// Bytes the lazy archiver has drained to the archive device.
    pub archived_bytes: u64,
}

#[derive(Default)]
struct WalCounters {
    groups: AtomicU64,
    records: AtomicU64,
    append_bytes: AtomicU64,
    replay_ring_bytes: AtomicU64,
    replay_archive_bytes: AtomicU64,
}

enum Backend {
    /// Sequential log device; one write per flushed group.
    Device(Arc<dyn Device>),
    /// Replicated remote ring + device-backed lazy archiver.
    Remote {
        ring: Arc<RemoteRing>,
        archive: Arc<dyn Device>,
    },
}

struct WalState {
    next_lsn: Lsn,
    /// Logical end of log: total frame bytes ever appended.
    tail: u64,
    /// Reused group-commit encode buffer.
    scratch: Vec<u8>,
    /// Remote backend: logical prefix `[0, archived)` already drained to
    /// the archive device. Always a record boundary.
    archived: u64,
}

/// The write-ahead log over one of the two [`Backend`]s.
pub struct Wal {
    backend: Backend,
    state: Mutex<WalState>,
    fault_log: Mutex<Option<Arc<FaultLog>>>,
    counters: WalCounters,
    /// Last-seen [`RemoteRing::donor_epoch`]; a move between two appends
    /// (or during replay) is a failover the WAL must surface even when the
    /// lease refresh absorbed it without an IO error.
    ring_epoch: AtomicU64,
}

impl Wal {
    /// A WAL on a sequential log device (the classic design).
    pub fn new(device: Arc<dyn Device>) -> Wal {
        Wal::with_backend(Backend::Device(device), 0)
    }

    /// Mount an existing log **device** image whose physical extent is
    /// `extent_bytes` (from the control file). Replay tolerates a torn
    /// final record inside that extent; appends continue after the last
    /// whole record only once `replay` has established it — this
    /// constructor is for recovery paths and tests.
    pub fn recover(device: Arc<dyn Device>, extent_bytes: u64) -> Wal {
        Wal::with_backend(Backend::Device(device), extent_bytes)
    }

    /// A WAL shipped to a replicated remote ring, with `archive` as the
    /// device the lazy archiver drains truncated records to. The archive
    /// must be at least as large as the total log volume (it holds the
    /// whole history at matching logical offsets).
    pub fn new_remote(ring: Arc<RemoteRing>, archive: Arc<dyn Device>) -> Wal {
        Wal::with_backend(Backend::Remote { ring, archive }, 0)
    }

    fn with_backend(backend: Backend, tail: u64) -> Wal {
        let ring_epoch = match &backend {
            Backend::Remote { ring, .. } => ring.donor_epoch(),
            Backend::Device(_) => 0,
        };
        Wal {
            backend,
            state: Mutex::new(WalState {
                next_lsn: 1,
                tail,
                scratch: Vec::with_capacity(4 << 10),
                archived: 0,
            }),
            fault_log: Mutex::new(None),
            counters: WalCounters::default(),
            ring_epoch: AtomicU64::new(ring_epoch),
        }
    }

    /// Chaos-audit log for `wal.failover` events: ring failovers absorbed
    /// by appends (Recovery) or observed during replay (Observed).
    pub fn set_fault_log(&self, log: Option<Arc<FaultLog>>) {
        *self.fault_log.lock() = log;
    }

    /// The backing ring of a remote WAL (None for the device backend).
    pub fn ring(&self) -> Option<&Arc<RemoteRing>> {
        match &self.backend {
            Backend::Remote { ring, .. } => Some(ring),
            Backend::Device(_) => None,
        }
    }

    /// Current end-of-log LSN (the next record will receive this).
    pub fn current_lsn(&self) -> Lsn {
        self.state.lock().next_lsn
    }

    pub fn tail_bytes(&self) -> u64 {
        self.state.lock().tail
    }

    /// Snapshot of the monotonic counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            groups: self.counters.groups.load(Ordering::Relaxed),
            records: self.counters.records.load(Ordering::Relaxed),
            append_bytes: self.counters.append_bytes.load(Ordering::Relaxed),
            replay_ring_bytes: self.counters.replay_ring_bytes.load(Ordering::Relaxed),
            replay_archive_bytes: self.counters.replay_archive_bytes.load(Ordering::Relaxed),
            archived_bytes: self.state.lock().archived,
        }
    }

    fn note_failover(
        &self,
        clock: &Clock,
        ring: &RemoteRing,
        before: u64,
        origin: FaultOrigin,
        what: &str,
    ) {
        let after = ring.failovers();
        let epoch = ring.donor_epoch();
        let prev = self.ring_epoch.swap(epoch, Ordering::Relaxed);
        if after == before && prev == epoch {
            return;
        }
        if let Some(log) = self.fault_log.lock().as_ref() {
            let detail = if after > before {
                format!("{what} absorbed {} ring failover(s)", after - before)
            } else {
                format!("{what} adopted a moved ring replica set")
            };
            log.record(clock.now(), origin, "wal.failover", detail);
        }
    }

    /// Append a single record — a commit group of one. Byte layout and
    /// clock charge are identical to the pre-group-commit WAL: one backend
    /// write per call.
    pub fn append(
        &self,
        clock: &mut Clock,
        table: u32,
        op: WalOp,
        key: i64,
        row: Option<&Row>,
    ) -> Result<Lsn, StorageError> {
        self.append_group(
            clock,
            &[WalEntry {
                table,
                op,
                key,
                row,
            }],
        )
    }

    /// Append a commit group: all records are encoded into the reused
    /// scratch buffer and flushed with **one** backend write, so the clock
    /// is charged per flushed group, not per record — the ring and the
    /// device backend agree on this accounting. Returns the first LSN of
    /// the group (LSNs are dense across it); an empty group writes, forces
    /// and charges nothing and returns the next LSN.
    pub fn append_group(
        &self,
        clock: &mut Clock,
        entries: &[WalEntry],
    ) -> Result<Lsn, StorageError> {
        let mut guard = self.state.lock();
        if entries.is_empty() {
            return Ok(guard.next_lsn);
        }
        let st = &mut *guard;
        let first = st.next_lsn;
        st.scratch.clear();
        for (i, e) in entries.iter().enumerate() {
            encode_frame(
                &mut st.scratch,
                first + i as u64,
                e.table,
                e.op,
                e.key,
                e.row,
            );
        }
        let len = st.scratch.len() as u64;
        match &self.backend {
            Backend::Device(device) => {
                if st.tail + len > device.capacity() {
                    return Err(StorageError::OutOfBounds {
                        offset: st.tail,
                        len,
                        capacity: device.capacity(),
                    });
                }
                device.write(clock, st.tail, &st.scratch)?;
                // one durability barrier per flushed group, not per record:
                // group commit amortizes the force, and the clock charge
                // must say so on both backends (the remote arm's quorum ack
                // below is already its durability point)
                device.force(clock)?;
            }
            Backend::Remote { ring, archive } => {
                if ring.free() < len {
                    // lazy archiver: drain whole records to the device and
                    // truncate the ring at a record boundary — the only time
                    // the commit path touches the archive
                    Self::archive_until(clock, st, ring, archive, Some(len))?;
                }
                let before = ring.failovers();
                let (at, q) = ring.append(clock, &st.scratch)?;
                debug_assert_eq!(at, st.tail, "ring tail and WAL tail move together");
                ring.file().fabric().note_wal_append(len, q.straggler_lag);
                self.note_failover(clock, ring, before, FaultOrigin::Recovery, "append");
            }
        }
        st.tail += len;
        st.next_lsn += entries.len() as u64;
        self.counters.groups.fetch_add(1, Ordering::Relaxed);
        self.counters
            .records
            .fetch_add(entries.len() as u64, Ordering::Relaxed);
        self.counters.append_bytes.fetch_add(len, Ordering::Relaxed);
        Ok(first)
    }

    /// Drain records `[st.archived, st.tail)` to the archive device until
    /// either the ring has `need` free bytes (after truncation) or — with
    /// `need == None` — everything resident is archived. Chunked: one ring
    /// read covers many records, whole frames are rewritten to the archive
    /// at matching logical offsets in one device write, and the ring is
    /// truncated only at frame boundaries.
    fn archive_until(
        clock: &mut Clock,
        st: &mut WalState,
        ring: &RemoteRing,
        archive: &Arc<dyn Device>,
        need: Option<u64>,
    ) -> Result<(), StorageError> {
        let mut chunk = ARCHIVE_CHUNK;
        loop {
            ring.truncate_to(st.archived);
            match need {
                Some(n) if ring.free() >= n => return Ok(()),
                Some(n) if st.archived == st.tail => {
                    return Err(StorageError::OutOfBounds {
                        offset: st.tail,
                        len: n,
                        capacity: ring.capacity(),
                    });
                }
                None if st.archived == st.tail => return Ok(()),
                _ => {}
            }
            let span = (st.tail - st.archived).min(chunk);
            let mut buf = vec![0u8; span as usize];
            ring.read_at(clock, st.archived, &mut buf)?;
            // walk whole frames; the ring only ever holds complete records,
            // so an empty walk means one record outgrew the chunk
            let mut consumed = 0usize;
            while let Some((_, used)) = WalRecord::parse_frame(&buf[consumed..]) {
                consumed += used;
            }
            if consumed == 0 {
                if span < st.tail - st.archived {
                    chunk = chunk.saturating_mul(2);
                    continue;
                }
                return Err(StorageError::Unavailable(
                    "corrupt ring image: no whole record at the archive cursor".into(),
                ));
            }
            if st.archived + consumed as u64 > archive.capacity() {
                return Err(StorageError::OutOfBounds {
                    offset: st.archived,
                    len: consumed as u64,
                    capacity: archive.capacity(),
                });
            }
            archive.write(clock, st.archived, &buf[..consumed])?;
            st.archived += consumed as u64;
        }
    }

    /// Force the archiver to drain everything resident (checkpointing, or
    /// benches that want a truncated-prefix recovery). Returns the bytes
    /// archived over the WAL's lifetime. No-op on the device backend.
    pub fn archive_now(&self, clock: &mut Clock) -> Result<u64, StorageError> {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        if let Backend::Remote { ring, archive } = &self.backend {
            Self::archive_until(clock, st, ring, archive, None)?;
        }
        Ok(st.archived)
    }

    /// REDO scan: visit every whole record with `lsn >= from`, in order.
    ///
    /// * Device backend: sequential per-record reads from the head, as a
    ///   real REDO pass does after locating the checkpoint.
    /// * Remote backend: the truncated prefix `[0, head)` replays from the
    ///   archive device; the surviving ring image `[head, tail)` replays
    ///   from remote memory in one chunked read — zero device I/O when
    ///   nothing was ever truncated.
    ///
    /// Both paths stop cleanly at a torn tail: a partial length prefix,
    /// a short body, or a corrupt record ends the scan at the last whole
    /// record instead of erroring the recovery.
    pub fn replay(
        &self,
        clock: &mut Clock,
        from: Lsn,
        mut visit: impl FnMut(&WalRecord),
    ) -> Result<u64, StorageError> {
        match &self.backend {
            Backend::Device(device) => {
                let tail = self.state.lock().tail;
                self.replay_frames_device(clock, device, tail, from, &mut visit)
            }
            Backend::Remote { ring, archive } => {
                let head = ring.head();
                let tail = ring.tail();
                let mut seen = self.replay_frames_device(clock, archive, head, from, &mut visit)?;
                let mut buf = vec![0u8; (tail - head) as usize];
                let before = ring.failovers();
                ring.read_at(clock, head, &mut buf)?;
                self.note_failover(clock, ring, before, FaultOrigin::Observed, "replay");
                let mut pos = 0usize;
                while let Some((rec, used)) = WalRecord::parse_frame(&buf[pos..]) {
                    if rec.lsn >= from {
                        visit(&rec);
                        seen += 1;
                    }
                    pos += used;
                }
                self.counters
                    .replay_ring_bytes
                    .fetch_add(pos as u64, Ordering::Relaxed);
                Ok(seen)
            }
        }
    }

    /// The per-record device scan shared by the device backend (whole log)
    /// and the remote backend's archive prefix. Stops at `extent` or the
    /// first torn/corrupt frame.
    fn replay_frames_device(
        &self,
        clock: &mut Clock,
        device: &Arc<dyn Device>,
        extent: u64,
        from: Lsn,
        visit: &mut impl FnMut(&WalRecord),
    ) -> Result<u64, StorageError> {
        let mut off = 0u64;
        let mut seen = 0u64;
        let mut len_buf = [0u8; 4];
        while off + 4 <= extent {
            device.read(clock, off, &mut len_buf)?;
            let len = u32::from_le_bytes(len_buf) as u64;
            if (len as usize) < MIN_BODY || off + 4 + len > extent {
                break; // torn tail: partial prefix or short body
            }
            let mut body = vec![0u8; len as usize];
            device.read(clock, off + 4, &mut body)?;
            let Some(rec) = WalRecord::decode(&body) else {
                break; // corrupt body: stop at the last whole record
            };
            if rec.lsn >= from {
                visit(&rec);
                seen += 1;
            }
            off += 4 + len;
            self.counters
                .replay_archive_bytes
                .fetch_add(4 + len, Ordering::Relaxed);
        }
        Ok(seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::int_row;
    use remem_storage::RamDisk;

    fn wal() -> (Wal, Clock) {
        (Wal::new(Arc::new(RamDisk::new(4 << 20))), Clock::new())
    }

    /// A WAL on a k = 2 remote ring over two donors, archiving to a RamDisk.
    fn remote_wal() -> (Wal, Clock) {
        use remem_broker::{BrokerConfig, MemoryBroker, MemoryProxy, MetaStore};
        use remem_net::{Fabric, NetConfig};
        use remem_rfile::{RFileConfig, RemoteFile, RemoteRing};
        let fabric = Arc::new(Fabric::new(NetConfig::default()));
        let db = fabric.add_server("DB", 4);
        let broker = Arc::new(MemoryBroker::new(BrokerConfig::default(), MetaStore::new()));
        for i in 0..2 {
            let m = fabric.add_server(format!("M{i}"), 4);
            MemoryProxy::new(m, 1 << 20)
                .donate(&mut Clock::new(), &fabric, &broker, 2 << 20)
                .unwrap();
        }
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            replicas: 2,
            self_heal: false,
            ..RFileConfig::custom()
        };
        let file = RemoteFile::create_open(&mut clock, fabric, broker, db, 1 << 20, cfg).unwrap();
        let ring = Arc::new(RemoteRing::new(Arc::new(file)));
        (
            Wal::new_remote(ring, Arc::new(RamDisk::new(4 << 20))),
            clock,
        )
    }

    #[test]
    fn append_and_replay_all() {
        let (wal, mut clock) = wal();
        for i in 0..100i64 {
            let op = if i % 3 == 0 {
                WalOp::Insert
            } else {
                WalOp::Update
            };
            wal.append(&mut clock, 7, op, i, Some(&int_row(&[i, i * 2])))
                .unwrap();
        }
        wal.append(&mut clock, 7, WalOp::Delete, 5, None).unwrap();
        let mut seen = Vec::new();
        let n = wal.replay(&mut clock, 0, |r| seen.push(r.clone())).unwrap();
        assert_eq!(n, 101);
        assert_eq!(seen[0].lsn, 1);
        assert_eq!(seen[0].op, WalOp::Insert);
        assert_eq!(seen[0].row.as_ref().unwrap().int(1), 0);
        assert_eq!(seen[100].op, WalOp::Delete);
        assert!(seen[100].row.is_none());
        // LSNs are dense and increasing
        assert!(seen.windows(2).all(|w| w[1].lsn == w[0].lsn + 1));
    }

    #[test]
    fn replay_from_checkpoint_skips_old_records() {
        let (wal, mut clock) = wal();
        for i in 0..50i64 {
            wal.append(&mut clock, 1, WalOp::Insert, i, Some(&int_row(&[i])))
                .unwrap();
        }
        let checkpoint = wal.current_lsn();
        for i in 50..80i64 {
            wal.append(&mut clock, 1, WalOp::Insert, i, Some(&int_row(&[i])))
                .unwrap();
        }
        let mut keys = Vec::new();
        let n = wal
            .replay(&mut clock, checkpoint, |r| keys.push(r.key))
            .unwrap();
        assert_eq!(n, 30);
        assert_eq!(keys, (50..80).collect::<Vec<_>>());
    }

    #[test]
    fn replay_time_scales_with_dirty_data() {
        // the Fig. 26 shape: recovery time ≈ linear in trailing log volume
        let (wal, mut clock) = wal();
        let row = int_row(&[1, 2, 3, 4, 5]);
        for i in 0..2000i64 {
            wal.append(&mut clock, 1, WalOp::Insert, i, Some(&row))
                .unwrap();
        }
        let mut c_small = Clock::new();
        wal.replay(&mut c_small, 1950, |_| {}).unwrap();
        let mut c_full = Clock::new();
        wal.replay(&mut c_full, 0, |_| {}).unwrap();
        // both scan the same log bytes; the visit volume differs, but replay
        // I/O dominates and must be comparable — what differs in Fig. 26 is
        // the *amount of log present*, tested below.
        let (short_wal, mut clock2) = super::tests::wal();
        for i in 0..200i64 {
            short_wal
                .append(&mut clock2, 1, WalOp::Insert, i, Some(&row))
                .unwrap();
        }
        let mut c_short = Clock::new();
        short_wal.replay(&mut c_short, 0, |_| {}).unwrap();
        assert!(
            c_full.now().as_nanos() > 5 * c_short.now().as_nanos(),
            "10x the log should take >5x the replay time"
        );
    }

    #[test]
    fn full_log_errors_cleanly() {
        let wal = Wal::new(Arc::new(RamDisk::new(256)));
        let mut clock = Clock::new();
        let mut failed = false;
        for i in 0..100i64 {
            if wal
                .append(&mut clock, 1, WalOp::Insert, i, Some(&int_row(&[i])))
                .is_err()
            {
                failed = true;
                break;
            }
        }
        assert!(failed, "a full log device must error, not wrap");
    }

    #[test]
    fn empty_group_writes_nothing_on_either_backend() {
        for (wal, mut clock) in [wal(), remote_wal()] {
            wal.append(&mut clock, 1, WalOp::Insert, 1, Some(&int_row(&[1])))
                .unwrap();
            let before = (wal.current_lsn(), wal.tail_bytes(), wal.stats());
            let now = clock.now();
            assert_eq!(wal.append_group(&mut clock, &[]).unwrap(), before.0);
            assert_eq!(clock.now(), now, "no write, no force");
            assert_eq!((wal.current_lsn(), wal.tail_bytes(), wal.stats()), before);
        }
    }

    #[test]
    fn group_commit_charges_one_write_and_replays_every_record() {
        let dev = Arc::new(RamDisk::new(4 << 20));
        let grouped = Wal::new(dev.clone() as Arc<dyn Device>);
        let mut c_grouped = Clock::new();
        let rows: Vec<Row> = (0..64i64).map(|i| int_row(&[i, i * 3])).collect();
        let entries: Vec<WalEntry> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| WalEntry {
                table: 3,
                op: WalOp::Insert,
                key: i as i64,
                row: Some(r),
            })
            .collect();
        let first = grouped.append_group(&mut c_grouped, &entries).unwrap();
        assert_eq!(first, 1);
        assert_eq!(grouped.stats().groups, 1);
        assert_eq!(grouped.stats().records, 64);

        // the same records appended one-by-one charge one write each; the
        // group pays one — its virtual commit time must be well below
        let single = Wal::new(Arc::new(RamDisk::new(4 << 20)));
        let mut c_single = Clock::new();
        for (i, r) in rows.iter().enumerate() {
            single
                .append(&mut c_single, 3, WalOp::Insert, i as i64, Some(r))
                .unwrap();
        }
        assert!(
            c_grouped.now().as_nanos() * 4 < c_single.now().as_nanos(),
            "64 records in one group must cost far less than 64 appends: \
             group {} vs single {}",
            c_grouped.now().as_nanos(),
            c_single.now().as_nanos()
        );
        // byte layout identical either way
        assert_eq!(grouped.tail_bytes(), single.tail_bytes());
        let mut seen = Vec::new();
        let mut clock = Clock::new();
        grouped
            .replay(&mut clock, 0, |r| seen.push((r.lsn, r.key)))
            .unwrap();
        assert_eq!(seen.len(), 64);
        assert!(seen.windows(2).all(|w| w[1].0 == w[0].0 + 1));
    }

    #[test]
    fn torn_tail_ends_device_replay_at_last_whole_record() {
        // build a clean 10-record image, then mount progressively torn
        // copies of it: replay must stop cleanly at the last whole record
        let dev = Arc::new(RamDisk::new(1 << 20));
        let wal = Wal::new(dev.clone() as Arc<dyn Device>);
        let mut clock = Clock::new();
        let mut bounds = vec![0u64];
        for i in 0..10i64 {
            wal.append(&mut clock, 1, WalOp::Insert, i, Some(&int_row(&[i, i])))
                .unwrap();
            bounds.push(wal.tail_bytes());
        }
        let full = wal.tail_bytes();
        for torn in [
            full - 1,                            // short body: one byte of the tail lost
            bounds[9] + 2,                       // partial length prefix
            bounds[9] + 4,                       // prefix intact, body entirely missing
            bounds[9] + 4 + MIN_BODY as u64 - 1, // body one byte short of minimal
        ] {
            let mounted = Wal::recover(dev.clone() as Arc<dyn Device>, torn);
            let mut keys = Vec::new();
            let n = mounted
                .replay(&mut Clock::new(), 0, |r| keys.push(r.key))
                .unwrap();
            assert_eq!(n, 9, "torn at {torn}: nine whole records survive");
            assert_eq!(keys, (0..9).collect::<Vec<_>>());
        }
        // and an untorn mount still sees all ten
        let mounted = Wal::recover(dev as Arc<dyn Device>, full);
        assert_eq!(mounted.replay(&mut Clock::new(), 0, |_| {}).unwrap(), 10);
    }

    #[test]
    fn corrupt_op_byte_ends_replay_cleanly() {
        let dev = Arc::new(RamDisk::new(1 << 20));
        let wal = Wal::new(dev.clone() as Arc<dyn Device>);
        let mut clock = Clock::new();
        for i in 0..5i64 {
            wal.append(&mut clock, 1, WalOp::Insert, i, Some(&int_row(&[i])))
                .unwrap();
        }
        let third_end = {
            // find frame boundaries by re-parsing the raw image
            let mut img = vec![0u8; wal.tail_bytes() as usize];
            dev.read(&mut Clock::new(), 0, &mut img).unwrap();
            let mut off = 0u64;
            let mut ends = Vec::new();
            while let Some((_, used)) = WalRecord::parse_frame(&img[off as usize..]) {
                off += used as u64;
                ends.push(off);
            }
            ends[2]
        };
        // smash the op byte of record 4 (offset 12 into its body)
        dev.write(&mut Clock::new(), third_end + 4 + 12, &[0xEE])
            .unwrap();
        let mut keys = Vec::new();
        let n = wal
            .replay(&mut Clock::new(), 0, |r| keys.push(r.key))
            .unwrap();
        assert_eq!(n, 3, "replay stops before the corrupt record");
        assert_eq!(keys, vec![0, 1, 2]);
    }

    #[test]
    fn corrupt_row_ends_replay_cleanly_on_both_backends() {
        // body byte 23 is the high byte of the row's value count, 24 the
        // tag of its first value
        for (at, byte) in [(23, 0xFF), (24, 0xEE)] {
            for (wal, mut clock) in [wal(), remote_wal()] {
                for i in 0..5i64 {
                    wal.append(&mut clock, 1, WalOp::Insert, i, Some(&int_row(&[i])))
                        .unwrap();
                }
                // five equal frames, the log not wrapped: record 4's body
                // starts one length prefix after three frames
                let off = 3 * (wal.tail_bytes() / 5) + 4 + at;
                match &wal.backend {
                    Backend::Device(device) => device.write(&mut clock, off, &[byte]),
                    Backend::Remote { ring, .. } => ring.file().write(&mut clock, off, &[byte]),
                }
                .unwrap();
                let mut keys = Vec::new();
                let n = wal.replay(&mut clock, 0, |r| keys.push(r.key)).unwrap();
                assert_eq!((n, keys), (3, vec![0, 1, 2]), "body byte {at} = {byte:#x}");
            }
        }
    }

    #[test]
    fn parse_frame_roundtrips_and_rejects_any_truncation() {
        let rec = WalRecord {
            lsn: 42,
            table: 9,
            op: WalOp::Update,
            key: -7,
            row: Some(int_row(&[1, 2, 3])),
        };
        let buf = rec.encode();
        let (back, used) = WalRecord::parse_frame(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!((back.lsn, back.table, back.key), (42, 9, -7));
        assert_eq!(back.op, WalOp::Update);
        for cut in 0..buf.len() {
            assert!(
                WalRecord::parse_frame(&buf[..cut]).is_none(),
                "a {cut}-byte prefix of a {}-byte frame must not parse",
                buf.len()
            );
        }
    }
}
