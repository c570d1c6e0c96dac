//! Queue-pair verbs: the Appendix A machinery underneath [`crate::Fabric`].
//!
//! RDMA communication is based on queues (Appendix A): a **send queue** and
//! **receive queue** — together a *queue pair* (QP) — carry work requests,
//! and a **completion queue** (CQ) notifies the application when a transfer
//! finishes. The NIC implements the protocol, flow control and reliability
//! in hardware; network failures surface as terminated connections.
//!
//! [`crate::Fabric::read`]/[`write`](crate::Fabric::write) are convenience
//! wrappers that post a work request and synchronously drain the CQ; this
//! module exposes the underlying queue discipline for callers that want to
//! keep multiple requests in flight explicitly (the staging-buffer design of
//! §4.2 sustains up to 128 pending transfers per scheduler this way).

use std::collections::VecDeque;
use std::sync::Arc;

use remem_sim::{Clock, Gauge, SimTime};

use crate::error::NetError;
use crate::fabric::{Fabric, Protocol};
use crate::mr::{MemoryRegion, MrHandle};
use crate::server::ServerId;

/// Default per-QP limit on work requests rung in one doorbell chain — the
/// "up to 128 pending transfers per scheduler" of §4.2.
pub const DEFAULT_MAX_OUTSTANDING: usize = 128;

/// One scatter element of a vectored read: a contiguous span of a remote MR
/// landing in a local buffer segment.
#[derive(Debug)]
pub struct ReadSge<'a> {
    pub mr: MrHandle,
    pub offset: u64,
    pub buf: &'a mut [u8],
}

/// One gather element of a vectored write: a local buffer segment headed
/// for a contiguous span of a remote MR.
#[derive(Debug)]
pub struct WriteSge<'a> {
    pub mr: MrHandle,
    pub offset: u64,
    pub data: &'a [u8],
}

/// A vectored work request: one verb with a scatter/gather list. Like a
/// real WQE, all elements of one WR should target MRs of a single remote
/// server (each WR travels one queue pair); the cost model attributes the
/// WR's op overhead to the first element's server.
#[derive(Debug)]
pub enum WorkRequest<'a> {
    Read(Vec<ReadSge<'a>>),
    Write(Vec<WriteSge<'a>>),
}

impl WorkRequest<'_> {
    pub fn verb(&self) -> Verb {
        match self {
            WorkRequest::Read(_) => Verb::Read,
            WorkRequest::Write(_) => Verb::Write,
        }
    }

    /// Total bytes this WR moves across all its elements.
    pub fn bytes(&self) -> u64 {
        match self {
            WorkRequest::Read(sges) => sges.iter().map(|s| s.buf.len() as u64).sum(),
            WorkRequest::Write(sges) => sges.iter().map(|s| s.data.len() as u64).sum(),
        }
    }

    /// Scatter/gather elements this WR carries.
    pub fn sge_count(&self) -> usize {
        match self {
            WorkRequest::Read(sges) => sges.len(),
            WorkRequest::Write(sges) => sges.len(),
        }
    }

    /// (server, first offset) of the WR's first element — the address the
    /// fault schedule and op-overhead accounting key on.
    pub(crate) fn target(&self) -> Option<(ServerId, u64)> {
        match self {
            WorkRequest::Read(sges) => sges.first().map(|s| (s.mr.server, s.offset)),
            WorkRequest::Write(sges) => sges.first().map(|s| (s.mr.server, s.offset)),
        }
    }

    /// Iterate `(handle, offset, len)` per element, for validation.
    pub(crate) fn sges(&self) -> Vec<(MrHandle, u64, u64)> {
        match self {
            WorkRequest::Read(sges) => sges
                .iter()
                .map(|s| (s.mr, s.offset, s.buf.len() as u64))
                .collect(),
            WorkRequest::Write(sges) => sges
                .iter()
                .map(|s| (s.mr, s.offset, s.data.len() as u64))
                .collect(),
        }
    }

    /// Move the bytes through the validated regions (parallel to the SGE
    /// list). Time has already been charged by the doorbell.
    pub(crate) fn execute(&mut self, regions: &[MemoryRegion]) {
        match self {
            WorkRequest::Read(sges) => {
                for (sge, region) in sges.iter_mut().zip(regions) {
                    region.read_into(sge.offset, sge.buf);
                }
            }
            WorkRequest::Write(sges) => {
                for (sge, region) in sges.iter().zip(regions) {
                    region.write_from(sge.offset, sge.data);
                }
            }
        }
    }
}

/// Identifier of a posted work request, unique within its queue pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkRequestId(pub u64);

/// The verb a work request performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// One-sided read from remote memory into a local buffer.
    Read,
    /// One-sided write of a local buffer into remote memory.
    Write,
}

/// A completion-queue entry.
#[derive(Debug, Clone)]
pub struct Completion {
    pub wr_id: WorkRequestId,
    pub verb: Verb,
    /// Virtual instant the transfer finished on the wire.
    pub completed_at: SimTime,
    /// Bytes moved.
    pub bytes: u64,
    /// Failure, if the connection terminated mid-request.
    pub error: Option<NetError>,
}

impl Completion {
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// A reliable connected queue pair between two servers.
///
/// Work requests execute eagerly in virtual time when posted (the NIC DMA
/// engine model inside the fabric serializes them); completions accumulate
/// in the CQ until polled, so callers can pipeline any number of requests
/// and process completions in order — the send-queue/completion-queue
/// discipline of Appendix A.
pub struct QueuePair<'a> {
    fabric: &'a Fabric,
    protocol: Protocol,
    local: ServerId,
    remote: ServerId,
    next_wr: u64,
    cq: VecDeque<Completion>,
    /// Send-queue depth: at most this many WRs ring in one doorbell chain.
    max_outstanding: usize,
    /// `qp.<local>-<remote>.outstanding` — completions posted but not yet
    /// polled. Resolved once at connect so posting never does name lookups.
    outstanding: Option<Arc<Gauge>>,
}

impl<'a> QueuePair<'a> {
    /// Connect a queue pair (charges the QP setup handshake).
    pub fn connect(
        fabric: &'a Fabric,
        clock: &mut Clock,
        protocol: Protocol,
        local: ServerId,
        remote: ServerId,
    ) -> Result<QueuePair<'a>, NetError> {
        fabric.connect(clock, local, remote)?;
        let outstanding = fabric
            .metrics_registry()
            .map(|r| r.gauge(&format!("qp.{}-{}.outstanding", local.0, remote.0)));
        Ok(QueuePair {
            fabric,
            protocol,
            local,
            remote,
            next_wr: 1,
            cq: VecDeque::new(),
            max_outstanding: DEFAULT_MAX_OUTSTANDING,
            outstanding,
        })
    }

    pub fn remote(&self) -> ServerId {
        self.remote
    }

    /// Cap the number of WRs rung per doorbell chain (≥ 1).
    pub fn set_max_outstanding(&mut self, n: usize) {
        self.max_outstanding = n.max(1);
    }

    pub fn max_outstanding(&self) -> usize {
        self.max_outstanding
    }

    fn publish_outstanding(&self) {
        if let Some(g) = &self.outstanding {
            g.set(self.cq.len() as f64);
        }
    }

    /// Post a chain of vectored work requests, ringing one doorbell per
    /// `max_outstanding`-sized chunk ([`Fabric::execute_batch`]). Returns
    /// the WR ids in post order; completions — including per-WR failures —
    /// land in the CQ in the same order.
    pub fn post_batch(
        &mut self,
        clock: &mut Clock,
        wrs: &mut [WorkRequest<'_>],
    ) -> Vec<WorkRequestId> {
        let mut ids = Vec::with_capacity(wrs.len());
        for chunk in wrs.chunks_mut(self.max_outstanding) {
            let completions = self
                .fabric
                .execute_batch(clock, self.protocol, self.local, chunk);
            for (wr, c) in chunk.iter().zip(completions) {
                let id = self.alloc_wr();
                ids.push(id);
                self.cq.push_back(Completion {
                    wr_id: id,
                    verb: wr.verb(),
                    completed_at: c.completed_at,
                    bytes: c.bytes,
                    error: c.result.err(),
                });
            }
        }
        self.publish_outstanding();
        ids
    }

    /// Post an RDMA read: remote `[offset, offset+buf.len())` → `buf`.
    /// Returns the work-request id; the completion lands in the CQ.
    pub fn post_read(
        &mut self,
        clock: &mut Clock,
        mr: MrHandle,
        offset: u64,
        buf: &mut [u8],
    ) -> WorkRequestId {
        let wr_id = self.alloc_wr();
        let t0 = clock.now();
        let result = self
            .fabric
            .read(clock, self.protocol, self.local, mr, offset, buf);
        self.complete(
            wr_id,
            Verb::Read,
            clock.now().max(t0),
            buf.len() as u64,
            result,
        );
        wr_id
    }

    /// Post an RDMA write: `data` → remote `[offset, offset+data.len())`.
    pub fn post_write(
        &mut self,
        clock: &mut Clock,
        mr: MrHandle,
        offset: u64,
        data: &[u8],
    ) -> WorkRequestId {
        let wr_id = self.alloc_wr();
        let t0 = clock.now();
        let result = self
            .fabric
            .write(clock, self.protocol, self.local, mr, offset, data);
        self.complete(
            wr_id,
            Verb::Write,
            clock.now().max(t0),
            data.len() as u64,
            result,
        );
        wr_id
    }

    fn alloc_wr(&mut self) -> WorkRequestId {
        let id = WorkRequestId(self.next_wr);
        self.next_wr += 1;
        id
    }

    fn complete(
        &mut self,
        wr_id: WorkRequestId,
        verb: Verb,
        at: SimTime,
        bytes: u64,
        result: Result<(), NetError>,
    ) {
        self.cq.push_back(Completion {
            wr_id,
            verb,
            completed_at: at,
            bytes,
            error: result.err(),
        });
        self.publish_outstanding();
    }

    /// Poll one completion, if any (non-blocking, like `ibv_poll_cq`).
    pub fn poll_cq(&mut self) -> Option<Completion> {
        let c = self.cq.pop_front();
        self.publish_outstanding();
        c
    }

    /// Completions pending in the CQ.
    pub fn cq_depth(&self) -> usize {
        self.cq.len()
    }

    /// Drain the CQ, spinning the clock forward to the latest completion —
    /// the synchronous completion model of §4.1.3.
    pub fn drain_cq(&mut self, clock: &mut Clock) -> Vec<Completion> {
        let mut out: Vec<Completion> = Vec::with_capacity(self.cq.len());
        while let Some(c) = self.cq.pop_front() {
            clock.advance_to(c.completed_at);
            out.push(c);
        }
        self.publish_outstanding();
        out
    }

    /// Tear the connection down ("Close" in Table 2). Pending completions
    /// are dropped, as on a real QP transition to error state.
    pub fn disconnect(mut self) {
        self.cq.clear();
        self.fabric.disconnect(self.local, self.remote);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;
    use remem_sim::Clock;

    fn setup() -> (Fabric, ServerId, ServerId, MrHandle) {
        let fabric = Fabric::new(NetConfig::default());
        let db = fabric.add_server("DB", 8);
        let mem = fabric.add_server("M", 8);
        let mut pc = Clock::new();
        let mr = fabric.register_mr(&mut pc, mem, 1 << 20).unwrap();
        (fabric, db, mem, mr)
    }

    #[test]
    fn pipelined_requests_complete_in_order() {
        let (fabric, db, mem, mr) = setup();
        let mut clock = Clock::new();
        let mut qp = QueuePair::connect(&fabric, &mut clock, Protocol::Custom, db, mem).unwrap();
        let w1 = qp.post_write(&mut clock, mr, 0, b"first");
        let w2 = qp.post_write(&mut clock, mr, 100, b"second");
        let mut buf = vec![0u8; 5];
        let r1 = qp.post_read(&mut clock, mr, 0, &mut buf);
        assert_eq!(&buf, b"first");
        assert_eq!(qp.cq_depth(), 3);
        let completions = qp.drain_cq(&mut clock);
        assert_eq!(
            completions.iter().map(|c| c.wr_id).collect::<Vec<_>>(),
            vec![w1, w2, r1]
        );
        assert!(completions.iter().all(Completion::is_ok));
        assert!(completions
            .windows(2)
            .all(|w| w[0].completed_at <= w[1].completed_at));
        assert_eq!(qp.cq_depth(), 0);
    }

    #[test]
    fn failures_surface_as_errored_completions() {
        let (fabric, db, mem, mr) = setup();
        let mut clock = Clock::new();
        let mut qp = QueuePair::connect(&fabric, &mut clock, Protocol::Custom, db, mem).unwrap();
        fabric.server(mem).unwrap().fail();
        let mut buf = vec![0u8; 8];
        qp.post_read(&mut clock, mr, 0, &mut buf);
        let c = qp.poll_cq().unwrap();
        assert!(!c.is_ok());
        assert_eq!(c.error, Some(NetError::ServerDown(mem)));
    }

    #[test]
    fn disconnect_tears_down_the_connection() {
        let (fabric, db, mem, _mr) = setup();
        let mut clock = Clock::new();
        let qp = QueuePair::connect(&fabric, &mut clock, Protocol::Custom, db, mem).unwrap();
        assert!(fabric.is_connected(db, mem));
        qp.disconnect();
        assert!(!fabric.is_connected(db, mem));
    }

    #[test]
    fn batched_reads_cost_one_doorbell() {
        // 16 pages via one post_batch must beat 16 scalar posts: the chain
        // pays op_overhead + fixed_latency once instead of 16 times.
        let n = 16usize;
        let (fabric, db, mem, mr) = setup();
        let mut scalar_clock = Clock::new();
        let mut qp = QueuePair::connect(&fabric, &mut scalar_clock, Protocol::Custom, db, mem)
            .expect("connect");
        let mut buf = vec![0u8; 8192];
        for i in 0..n {
            qp.post_read(&mut scalar_clock, mr, (i * 8192) as u64, &mut buf);
        }
        qp.drain_cq(&mut scalar_clock);
        qp.disconnect();

        let (fabric2, db2, mem2, mr2) = setup();
        let mut clock = Clock::new();
        let mut qp2 =
            QueuePair::connect(&fabric2, &mut clock, Protocol::Custom, db2, mem2).expect("connect");
        let mut bufs = vec![vec![0u8; 8192]; n];
        let mut wrs: Vec<WorkRequest<'_>> = bufs
            .iter_mut()
            .enumerate()
            .map(|(i, b)| {
                WorkRequest::Read(vec![ReadSge {
                    mr: mr2,
                    offset: (i * 8192) as u64,
                    buf: b,
                }])
            })
            .collect();
        let ids = qp2.post_batch(&mut clock, &mut wrs);
        assert_eq!(ids.len(), n);
        let completions = qp2.drain_cq(&mut clock);
        assert!(completions.iter().all(Completion::is_ok));
        assert!(completions
            .windows(2)
            .all(|w| w[0].completed_at <= w[1].completed_at));
        qp2.disconnect();
        assert!(
            clock.now() < scalar_clock.now(),
            "batched {:?} must beat scalar {:?}",
            clock.now(),
            scalar_clock.now()
        );
    }

    #[test]
    fn batch_moves_bytes_and_gathers_sges() {
        let (fabric, db, mem, mr) = setup();
        let mut clock = Clock::new();
        let mut qp =
            QueuePair::connect(&fabric, &mut clock, Protocol::Custom, db, mem).expect("connect");
        // one gather-write WR with two SGEs, then a scatter-read back
        let (a, b) = (*b"hello ", *b"world!");
        let mut wrs = vec![WorkRequest::Write(vec![
            WriteSge {
                mr,
                offset: 64,
                data: &a,
            },
            WriteSge {
                mr,
                offset: 70,
                data: &b,
            },
        ])];
        qp.post_batch(&mut clock, &mut wrs);
        let mut lo = [0u8; 4];
        let mut hi = [0u8; 8];
        let mut reads = vec![WorkRequest::Read(vec![
            ReadSge {
                mr,
                offset: 64,
                buf: &mut lo,
            },
            ReadSge {
                mr,
                offset: 68,
                buf: &mut hi,
            },
        ])];
        qp.post_batch(&mut clock, &mut reads);
        drop(reads);
        assert_eq!(&lo, b"hell");
        assert_eq!(&hi, b"o world!");
        assert!(qp.drain_cq(&mut clock).iter().all(Completion::is_ok));
    }

    #[test]
    fn batch_partial_failure_surfaces_per_wr_errors() {
        let (fabric, db, mem, mr) = setup();
        let mut clock = Clock::new();
        let mut qp =
            QueuePair::connect(&fabric, &mut clock, Protocol::Custom, db, mem).expect("connect");
        let mut good1 = [0u8; 128];
        let mut bad = [0u8; 128];
        let mut good2 = [0u8; 128];
        let mut wrs = vec![
            WorkRequest::Read(vec![ReadSge {
                mr,
                offset: 0,
                buf: &mut good1,
            }]),
            // out of bounds: fails validation, must not poison the chain
            WorkRequest::Read(vec![ReadSge {
                mr,
                offset: mr.len - 16,
                buf: &mut bad,
            }]),
            WorkRequest::Read(vec![ReadSge {
                mr,
                offset: 8192,
                buf: &mut good2,
            }]),
        ];
        qp.post_batch(&mut clock, &mut wrs);
        drop(wrs);
        let completions = qp.drain_cq(&mut clock);
        assert_eq!(completions.len(), 3);
        assert!(completions[0].is_ok());
        assert!(matches!(
            completions[1].error,
            Some(NetError::OutOfBounds { .. })
        ));
        assert!(completions[2].is_ok());
    }

    #[test]
    fn max_outstanding_chunks_the_chain() {
        let (fabric, db, mem, mr) = setup();
        let registry = remem_sim::MetricsRegistry::shared();
        fabric.set_metrics(Some(std::sync::Arc::clone(&registry)));
        let mut clock = Clock::new();
        let mut qp =
            QueuePair::connect(&fabric, &mut clock, Protocol::Custom, db, mem).expect("connect");
        qp.set_max_outstanding(4);
        let mut bufs = vec![vec![0u8; 512]; 10];
        let mut wrs: Vec<WorkRequest<'_>> = bufs
            .iter_mut()
            .enumerate()
            .map(|(i, b)| {
                WorkRequest::Read(vec![ReadSge {
                    mr,
                    offset: (i * 512) as u64,
                    buf: b,
                }])
            })
            .collect();
        qp.post_batch(&mut clock, &mut wrs);
        drop(wrs);
        // 10 WRs at depth 4 → doorbells of 4 + 4 + 2
        assert_eq!(registry.counter("fabric.batch.doorbells").get(), 3);
        assert_eq!(
            registry
                .gauge(&format!("qp.{}-{}.outstanding", db.0, mem.0))
                .get(),
            10.0
        );
        qp.drain_cq(&mut clock);
        assert_eq!(
            registry
                .gauge(&format!("qp.{}-{}.outstanding", db.0, mem.0))
                .get(),
            0.0
        );
    }

    #[test]
    fn wr_ids_are_monotone_and_unique() {
        let (fabric, db, mem, mr) = setup();
        let mut clock = Clock::new();
        let mut qp = QueuePair::connect(&fabric, &mut clock, Protocol::Custom, db, mem).unwrap();
        let ids: Vec<u64> = (0..10)
            .map(|i| qp.post_write(&mut clock, mr, i * 8, &[0u8; 8]).0)
            .collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }
}
