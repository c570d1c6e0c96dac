//! A replicated remote **ring** for the write-ahead log.
//!
//! The WAL is an append-only stream with a truncatable prefix; a fixed-size
//! [`RemoteFile`] (k ≥ 2 replicated, quorum-written) is recycled underneath
//! it as a circular buffer. Offsets handed to callers are **logical**: they
//! grow monotonically for the life of the ring and map onto the physical
//! file as `logical % capacity`, so an append near the end of the file
//! wraps around and a record may straddle the physical seam. The resident
//! window `[head, tail)` is what survives a crash — everything before
//! `head` has been archived (or discarded) by the layer above, which calls
//! [`RemoteRing::truncate_to`] to release the space.
//!
//! Failover, epoch fencing, and heal are inherited wholesale from the
//! backing [`RemoteFile`]: a donor crash mid-append re-points at the
//! surviving replica under the same rotate/refresh machinery the buffer
//! pool extension uses, and the quorum accounting of every append is
//! surfaced via [`QuorumAppend`] so the WAL can publish `wal.quorum.*`
//! telemetry and log `wal.failover` fault events.

use std::sync::Arc;

use parking_lot::Mutex;
use remem_sim::Clock;
use remem_storage::StorageError;

use crate::file::{QuorumAppend, RemoteFile};

/// Logical monotonic cursors of the ring. One lock: head and tail move
/// together during truncation checks and the free-space math reads both.
struct RingState {
    /// Logical offset of the oldest resident byte (the truncation point).
    head: u64,
    /// Logical offset one past the newest appended byte.
    tail: u64,
}

/// A circular, replicated remote-memory log extent over a [`RemoteFile`].
///
/// See the module docs for the offset model. All methods take `&self`; the
/// cursor lock is never held across fabric I/O, so a reader replaying
/// `[head, tail)` and an appender never deadlock (single-writer append is
/// assumed, as the WAL serializes groups under its own state lock).
pub struct RemoteRing {
    file: Arc<RemoteFile>,
    capacity: u64,
    state: Mutex<RingState>,
}

impl RemoteRing {
    /// Wrap an already-open [`RemoteFile`] as a ring. The file's whole
    /// extent is ring space; the WAL's durability story requires it to be
    /// replicated (k ≥ 2) so an acked append survives a donor crash —
    /// asserted here rather than silently degraded.
    pub fn new(file: Arc<RemoteFile>) -> RemoteRing {
        assert!(
            file.replicated(),
            "a WAL ring must be k >= 2 replicated: a single-copy ring \
             turns every donor crash into committed-transaction loss"
        );
        let capacity = file.size();
        RemoteRing {
            file,
            capacity,
            state: Mutex::new(RingState { head: 0, tail: 0 }),
        }
    }

    /// Ring capacity in bytes (the backing file's size).
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Logical offset of the oldest resident byte.
    pub fn head(&self) -> u64 {
        self.state.lock().head
    }

    /// Logical offset one past the newest appended byte.
    pub fn tail(&self) -> u64 {
        self.state.lock().tail
    }

    /// Bytes currently resident in the ring.
    pub fn resident(&self) -> u64 {
        let st = self.state.lock();
        st.tail - st.head
    }

    /// Bytes that can be appended before the ring is full.
    pub fn free(&self) -> u64 {
        self.capacity - self.resident()
    }

    /// Preferred-replica failovers the backing file has performed.
    pub fn failovers(&self) -> u64 {
        self.file.failovers()
    }

    /// Stripe repairs / re-leases the backing file has performed.
    pub fn repairs(&self) -> u64 {
        self.file.repairs()
    }

    /// FNV fingerprint of the current donor set. Changes exactly when the
    /// backing replica set moves — an explicit epoch-fence failover mid-IO,
    /// or the silent lease refresh that drops a fenced-out donor before the
    /// next append even sees an error. The WAL watches this to surface
    /// `wal.failover` events for both shapes.
    pub fn donor_epoch(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for s in self.file.donors() {
            h ^= s.0 as u64 + 1;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The backing file (for wiring fault logs / metrics above).
    pub fn file(&self) -> &Arc<RemoteFile> {
        &self.file
    }

    /// Append `data` at the tail with one quorum write (two when the bytes
    /// straddle the physical seam). Returns the **logical** offset the
    /// bytes landed at plus the folded quorum accounting.
    ///
    /// Fails with [`StorageError::Unavailable`] when `data` does not fit in
    /// the free window — the caller must archive-and-truncate first; the
    /// ring never silently overwrites unarchived records. A record larger
    /// than the whole ring can never fit: [`StorageError::RecordTooLarge`].
    /// Neither failure writes anything.
    pub fn append(
        &self,
        clock: &mut Clock,
        data: &[u8],
    ) -> Result<(u64, QuorumAppend), StorageError> {
        let len = data.len() as u64;
        if len > self.capacity {
            return Err(StorageError::RecordTooLarge {
                len: data.len(),
                max: self.capacity as usize,
            });
        }
        let at = {
            let st = self.state.lock();
            if len > self.capacity - (st.tail - st.head) {
                return Err(StorageError::Unavailable(format!(
                    "ring full: {len} bytes into {} free (head {}, tail {})",
                    self.capacity - (st.tail - st.head),
                    st.head,
                    st.tail
                )));
            }
            st.tail
        };
        let phys = at % self.capacity;
        let mut acc = QuorumAppend::default();
        if phys + len <= self.capacity {
            acc = self.file.write_tracked(clock, phys, data)?;
        } else {
            // straddles the seam: two quorum writes, folded as one append
            let first = (self.capacity - phys) as usize;
            let a = self.file.write_tracked(clock, phys, &data[..first])?;
            let b = self.file.write_tracked(clock, 0, &data[first..])?;
            acc.chunks = a.chunks + b.chunks;
            acc.acks = a.acks + b.acks;
            acc.quorum = a.quorum.max(b.quorum);
            acc.straggler_lag = a.straggler_lag.max(b.straggler_lag);
        }
        // publish the new tail only after the quorum ack: a crashed append
        // leaves the cursor untouched and the torn bytes unreachable
        self.state.lock().tail = at + len;
        Ok((at, acc))
    }

    /// Read `buf.len()` bytes at **logical** offset `logical`. The whole
    /// span must be resident (`head <= logical && logical + len <= tail`).
    pub fn read_at(
        &self,
        clock: &mut Clock,
        logical: u64,
        buf: &mut [u8],
    ) -> Result<(), StorageError> {
        let len = buf.len() as u64;
        {
            let st = self.state.lock();
            if logical < st.head || logical + len > st.tail {
                return Err(StorageError::OutOfBounds {
                    offset: logical,
                    len,
                    capacity: st.tail,
                });
            }
        }
        let phys = logical % self.capacity;
        if phys + len <= self.capacity {
            self.file.read(clock, phys, buf)
        } else {
            let first = (self.capacity - phys) as usize;
            let (a, b) = buf.split_at_mut(first);
            self.file.read(clock, phys, a)?;
            self.file.read(clock, 0, b)
        }
    }

    /// Advance the head to logical offset `to`, releasing `[head, to)` for
    /// reuse. The caller (the WAL archiver) guarantees `to` is a record
    /// boundary it has already archived past.
    pub fn truncate_to(&self, to: u64) {
        let mut st = self.state.lock();
        assert!(
            st.head <= to && to <= st.tail,
            "truncate_to({to}) outside resident window [{}, {}]",
            st.head,
            st.tail
        );
        st.head = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RFileConfig;
    use remem_broker::{BrokerConfig, MemoryBroker, MemoryProxy, MetaStore, PlacementPolicy};
    use remem_net::{Fabric, NetConfig};

    const MR: u64 = 64 * 1024;

    fn ring(capacity: u64) -> (Arc<Fabric>, Arc<MemoryBroker>, RemoteRing, Clock) {
        let fabric = Arc::new(Fabric::new(NetConfig::default()));
        let db = fabric.add_server("DB1", 20);
        let broker = Arc::new(MemoryBroker::new(
            BrokerConfig {
                placement: PlacementPolicy::Spread,
                ..Default::default()
            },
            MetaStore::new(),
        ));
        for i in 0..3 {
            let m = fabric.add_server(format!("M{i}"), 20);
            let mut pc = Clock::new();
            MemoryProxy::new(m, MR)
                .donate(&mut pc, &fabric, &broker, 8 * MR)
                .unwrap();
        }
        let mut clock = Clock::new();
        let f = RemoteFile::create_open(
            &mut clock,
            Arc::clone(&fabric),
            Arc::clone(&broker),
            db,
            capacity,
            RFileConfig {
                replicas: 2,
                self_heal: false,
                ..RFileConfig::custom()
            },
        )
        .unwrap();
        let r = RemoteRing::new(Arc::new(f));
        (fabric, broker, r, clock)
    }

    #[test]
    fn append_read_wraps_across_the_seam() {
        let (_f, _b, r, mut clock) = ring(MR);
        // fill most of the ring, truncate, then wrap
        let first: Vec<u8> = (0..(MR - 100) as usize).map(|i| (i % 251) as u8).collect();
        let (at, q) = r.append(&mut clock, &first).unwrap();
        assert_eq!(at, 0);
        assert!(q.chunks >= 1 && q.quorum == 2, "{q:?}");
        r.truncate_to(MR - 100);
        let wrap: Vec<u8> = (0..300).map(|i| (i % 13) as u8).collect();
        let (at, _) = r.append(&mut clock, &wrap).unwrap();
        assert_eq!(at, MR - 100, "logical offsets keep growing");
        let mut out = vec![0u8; 300];
        r.read_at(&mut clock, at, &mut out).unwrap();
        assert_eq!(out, wrap, "bytes straddling the seam read back intact");
    }

    #[test]
    fn full_ring_refuses_instead_of_overwriting() {
        let (_f, _b, r, mut clock) = ring(MR);
        let data = vec![7u8; MR as usize];
        r.append(&mut clock, &data).unwrap();
        assert!(matches!(
            r.append(&mut clock, &[1, 2, 3]),
            Err(StorageError::Unavailable(_))
        ));
        r.truncate_to(3);
        r.append(&mut clock, &[1, 2, 3]).unwrap();
        assert_eq!(r.resident(), MR);
    }

    #[test]
    fn record_larger_than_the_ring_is_a_typed_error() {
        let (_f, _b, r, mut clock) = ring(MR);
        r.append(&mut clock, &[5u8; 64]).unwrap();
        let before = clock.now();
        let huge = vec![1u8; MR as usize + 1];
        assert!(matches!(
            r.append(&mut clock, &huge),
            Err(StorageError::RecordTooLarge { len, max })
                if len == MR as usize + 1 && max == MR as usize
        ));
        // nothing written: no fabric time charged, cursors untouched
        assert_eq!(clock.now(), before);
        assert_eq!((r.head(), r.tail()), (0, 64));
        let mut buf = [0u8; 64];
        r.read_at(&mut clock, 0, &mut buf).unwrap();
        assert_eq!(buf, [5u8; 64]);
    }

    #[test]
    fn reads_outside_the_resident_window_are_rejected() {
        let (_f, _b, r, mut clock) = ring(MR);
        r.append(&mut clock, &[9u8; 512]).unwrap();
        r.truncate_to(128);
        let mut buf = [0u8; 64];
        assert!(r.read_at(&mut clock, 0, &mut buf).is_err(), "before head");
        assert!(r.read_at(&mut clock, 500, &mut buf).is_err(), "past tail");
        r.read_at(&mut clock, 128, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 9));
    }
}
