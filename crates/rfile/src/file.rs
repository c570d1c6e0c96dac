//! The remote file: Table 2's five operations over leased MRs.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use remem_broker::{Lease, MemoryBroker};
use remem_net::{Fabric, MrHandle, Protocol, ServerId};
use remem_sim::metrics::Counter;
use remem_sim::{Clock, FaultOrigin, MetricsRegistry, SimDuration, SimTime};
use remem_storage::{Device, PartialAgg, PushdownProgram, StorageError, EVAL_PAGE_SIZE};

use crate::config::{RFileConfig, RegistrationMode};
use crate::engine::{self, Batched};
use crate::staging::StagingBuffers;

/// Any lower-layer failure that leaves the file unusable for now.
pub(crate) fn unavailable(e: impl std::fmt::Display) -> StorageError {
    StorageError::Unavailable(e.to_string())
}

/// One verb's telemetry: its span, and the op/byte counters and latency
/// histogram it publishes into (a vectored verb shares its scalar twin's).
struct VerbMetrics {
    span: remem_sim::SpanId,
    ops: Arc<Counter>,
    bytes: Arc<Counter>,
    lat: Arc<remem_sim::Histogram>,
}

/// Cached handles into an attached [`MetricsRegistry`]; resolved once at
/// create time so per-I/O publishing is lock-free.
struct RfMetrics {
    registry: Arc<MetricsRegistry>,
    read: VerbMetrics,
    write: VerbMetrics,
    read_vectored: VerbMetrics,
    write_vectored: VerbMetrics,
    /// `bytes` counts the reply payload streamed back by pushdown scans.
    pushdown: VerbMetrics,
    /// Chunks that fell back to one-sided read + client eval because the
    /// donor's compute budget was exhausted.
    pushdown_fallbacks: Arc<Counter>,
}

impl RfMetrics {
    fn new(registry: Arc<MetricsRegistry>) -> RfMetrics {
        let verb = |span: &str, stem: &str| VerbMetrics {
            span: registry.span(span),
            ops: registry.counter(&format!("{stem}.ops")),
            bytes: registry.counter(&format!("{stem}.bytes")),
            lat: registry.histogram(&format!("{stem}.lat")),
        };
        RfMetrics {
            read: verb("rfile.read", "rfile.read"),
            write: verb("rfile.write", "rfile.write"),
            read_vectored: verb("rfile.read_vectored", "rfile.read"),
            write_vectored: verb("rfile.write_vectored", "rfile.write"),
            pushdown: verb("rfile.pushdown", "rfile.pushdown"),
            pushdown_fallbacks: registry.counter("rfile.pushdown.fallbacks"),
            registry,
        }
    }
}

/// A recovery counter: kept locally for the file's accessors and mirrored
/// into the attached registry's `name` (a private sink when none is).
pub(crate) struct Tally {
    local: Counter,
    mirror: Arc<Counter>,
}

impl Tally {
    fn new(registry: Option<&Arc<MetricsRegistry>>, name: &str) -> Tally {
        Tally {
            local: Counter::new(),
            mirror: registry.map(|r| r.counter(name)).unwrap_or_default(),
        }
    }

    pub(crate) fn incr(&self) {
        self.local.incr();
        self.mirror.incr();
    }
}

/// A verb's telemetry span between [`RemoteFile::begin`] and
/// [`RemoteFile::finish`]; `open` is `None` without an attached registry.
struct OpenSpan<'f> {
    t0: SimTime,
    open: Option<(&'f RfMetrics, &'f VerbMetrics, remem_sim::SpanToken)>,
}

/// What one verb call completed, for [`RemoteFile::finish`] to publish.
struct Done {
    ops: u64,
    bytes: u64,
    /// Whether the call's latency is recorded: a scalar verb's only when it
    /// succeeded, a vectored batch's always.
    timed: bool,
}

impl Done {
    /// One request, which moved `bytes` if it succeeded.
    fn one<T>(res: &Result<T, StorageError>, bytes: u64) -> Done {
        let ok = res.is_ok();
        Done {
            ops: ok as u64,
            bytes: if ok { bytes } else { 0 },
            timed: ok,
        }
    }

    /// A batch of requests of `lens` bytes each.
    fn batch(results: &[Result<(), StorageError>], lens: impl Iterator<Item = usize>) -> Done {
        let ok = results.iter().zip(lens).filter(|(r, _)| r.is_ok());
        let (ops, bytes) = ok.fold((0, 0), |(n, sum), (_, len)| (n + 1, sum + len as u64));
        Done {
            ops,
            bytes,
            timed: true,
        }
    }
}

/// One contiguous run of file bytes and the MR region backing it.
///
/// `(start, len)` boundaries are fixed for the life of the file; repair
/// swaps `mr`/`mr_off` (or splits the run into several sub-extents covering
/// the same range) when a stripe is re-leased from a different donor.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Extent {
    /// File offset this extent starts at.
    pub(crate) start: u64,
    /// Bytes of file space it covers.
    pub(crate) len: u64,
    pub(crate) mr: MrHandle,
    /// Offset within `mr` where this extent's bytes begin.
    pub(crate) mr_off: u64,
}

/// Mutable file state behind one lock: the extent map and lease evolve
/// together during repair, so they share a guard.
pub(crate) struct FileState {
    pub(crate) extents: Vec<Extent>,
    pub(crate) lease: Lease,
    /// Replica groups of a `k ≥ 2` file, one per extent slot in file order:
    /// `groups[i][0]` is the preferred (read) replica backing `extents[i]`.
    /// Empty for unreplicated files.
    pub(crate) groups: Vec<Vec<MrHandle>>,
    /// Fencing epoch of `groups`, mirrored from the broker. A mismatch
    /// against the broker's epoch means membership changed and the extent
    /// map must be re-pointed before trusting any cached handle.
    pub(crate) epoch: u64,
    /// Byte ranges whose contents were lost and replaced with zeroed
    /// storage, awaiting collection via `Device::drain_lost_ranges`.
    pub(crate) lost_ranges: Vec<(u64, u64)>,
    /// Ranges already in `lost_ranges` and not yet drained: a stripe lost
    /// *again* while its heal is still awaiting collection must not be
    /// reported twice, or the cache above double-counts the invalidation.
    pub(crate) pending_heal: BTreeSet<(u64, u64)>,
    /// Earliest virtual time the next self-heal attempt is allowed.
    pub(crate) next_repair: SimTime,
    pub(crate) repair_backoff: SimDuration,
    /// Scratch for one quorum write's target list, reused across chunks.
    pub(crate) targets: Vec<(MrHandle, u64)>,
}

impl FileState {
    /// Record a lost stripe, clipped to the file's `size`, for
    /// `Device::drain_lost_ranges`, suppressing duplicate reports of a range
    /// whose previous loss is still undrained.
    pub(crate) fn report_lost(&mut self, start: u64, len: u64, size: u64) {
        let len = (start + len).min(size).saturating_sub(start);
        if len > 0 && self.pending_heal.insert((start, len)) {
            self.lost_ranges.push((start, len));
        }
    }
}

/// Outcome of [`RemoteFile::read_pushdown`]: the compacted payload plus the
/// accounting the planner and broker care about.
#[derive(Debug, Clone, Default)]
pub struct PushdownScan {
    /// Replies streamed in extent order: concatenated row encodings, or —
    /// when the program carries an aggregate — exactly one merged
    /// `PartialAgg` encoding covering the whole span.
    pub payload: Vec<u8>,
    /// Rows the memory servers' eval engines visited.
    pub rows_scanned: u64,
    /// Rows that survived predicates (and projection).
    pub rows_matched: u64,
    /// Memory-server CPU charged across all chunks (broker-debited).
    pub server_cpu: SimDuration,
    /// Chunks evaluated on the *client* after a one-sided read because the
    /// donor's compute budget was exhausted.
    pub fallback_chunks: u64,
}

impl PushdownScan {
    /// Fold per-chunk scans, given in file order, into one.
    fn fold<'a>(
        chunks: impl Iterator<Item = &'a PushdownScan>,
        program: &PushdownProgram,
    ) -> PushdownScan {
        let mut scan = PushdownScan::default();
        let mut agg: Option<PartialAgg> = None;
        for out in chunks {
            scan.rows_scanned += out.rows_scanned;
            scan.rows_matched += out.rows_matched;
            scan.server_cpu += out.server_cpu;
            scan.fallback_chunks += out.fallback_chunks;
            if program.aggregate.is_some() {
                // merge partials in extent order — deterministic floats
                if let Some(part) = PartialAgg::decode(&out.payload) {
                    match &mut agg {
                        Some(a) => a.merge(&part),
                        None => agg = Some(part),
                    }
                }
            } else {
                scan.payload.extend_from_slice(&out.payload);
            }
        }
        if let Some(a) = agg {
            a.encode(&mut scan.payload);
        }
        scan
    }
}

/// Folded quorum accounting for one [`RemoteFile::write_tracked`] call:
/// the per-chunk [`remem_net::QuorumWrite`] outcomes summed/maxed into the
/// numbers the WAL append path publishes. Retried chunks (failover, heal)
/// count each quorum write actually issued.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuorumAppend {
    /// Extent chunks the write was split into (quorum writes issued).
    pub chunks: u64,
    /// Total replica acks across all chunks.
    pub acks: u64,
    /// Largest quorum gate seen across chunks (0 on an unreplicated file).
    pub quorum: usize,
    /// Worst straggler lag across chunks: the longest a slow replica's NIC
    /// stayed busy past the commit ack.
    pub straggler_lag: SimDuration,
}

impl QuorumAppend {
    pub(crate) fn fold(&mut self, q: &remem_net::QuorumWrite) {
        self.chunks += 1;
        self.acks += q.acks as u64;
        self.quorum = self.quorum.max(q.quorum);
        self.straggler_lag = self.straggler_lag.max(q.straggler_lag);
    }
}

/// A file whose bytes live in remote memory, accessed via RDMA.
///
/// | File operation (Table 2) | Implementation                     |
/// |--------------------------|------------------------------------|
/// | Create (size)            | [`RemoteFile::create`] — lease MRs |
/// | Open                     | [`RemoteFile::open`] — connect QPs |
/// | Read/Write (offset,size) | [`RemoteFile::read`] / [`write`](RemoteFile::write) — RDMA verbs |
/// | Close                    | [`RemoteFile::close`] — disconnect |
/// | Delete                   | [`RemoteFile::delete`] — release lease |
///
/// Offsets are translated to `(MR, offset-within-MR)` through a prefix
/// table; operations spanning MR boundaries are split transparently.
///
/// # Failure semantics
///
/// Every verb runs through one chunk engine, so all of them fail — and
/// recover — the same way, chunk by chunk:
///
/// * An offset or length outside the file is [`StorageError::OutOfBounds`];
///   a closed file is [`StorageError::Unavailable`]. Neither costs virtual
///   time.
/// * **Transient** verb failures (flaky links, brief partitions) are retried
///   with exponential backoff charged to virtual time, up to
///   `cfg.max_retries` per chunk; exhausted retries surface as
///   [`StorageError::Transient`]. Quorum writes absorb a transient as a late
///   ack and never retry.
/// * **Fatal** failures (donor crash, lease loss) surface as
///   [`StorageError::Unavailable`] on a single-copy file — unless
///   `cfg.self_heal` is on, in which case the file *repairs itself*: dead
///   stripes are re-leased from surviving donors (their contents lost,
///   reported through [`Device::drain_lost_ranges`]), donors signalling
///   memory pressure are migrated off during the revocation grace window
///   (no data loss), and a fully lost lease is re-acquired from scratch.
///   A replicated file (`cfg.replicas ≥ 2`) first fails over: to the
///   broker's newer replica epoch if there is one, else to a peer replica.
///   Repair attempts are bounded per call and gated by an exponential
///   backoff between calls.
/// * Vectored verbs report per request: one request failing never poisons
///   its neighbours.
pub struct RemoteFile {
    pub(crate) fabric: Arc<Fabric>,
    pub(crate) broker: Arc<MemoryBroker>,
    pub(crate) local: ServerId,
    pub(crate) cfg: RFileConfig,
    pub(crate) size: u64,
    pub(crate) state: Mutex<FileState>,
    pub(crate) staging: StagingBuffers,
    pub(crate) is_open: AtomicBool,
    bytes_read: Counter,
    bytes_written: Counter,
    pub(crate) retries: Tally,
    pub(crate) repairs: Tally,
    pub(crate) migrations: Tally,
    pub(crate) failovers: Tally,
    metrics: Option<RfMetrics>,
}

impl RemoteFile {
    /// **Create**: obtain a lease on MRs covering `size` bytes. Does not yet
    /// connect; call [`RemoteFile::open`] (or use [`RemoteFile::create_open`]).
    pub fn create(
        clock: &mut Clock,
        fabric: Arc<Fabric>,
        broker: Arc<MemoryBroker>,
        local: ServerId,
        size: u64,
        cfg: RFileConfig,
    ) -> Result<RemoteFile, StorageError> {
        assert!(size > 0, "cannot create an empty remote file");
        let state = FileState::acquire(clock, &broker, local, size, &cfg, unavailable)?;
        let staging = StagingBuffers::new(cfg.schedulers, cfg.staging_bytes, 8192);
        let registry = cfg.metrics.as_ref();
        Ok(RemoteFile {
            fabric,
            broker,
            local,
            size,
            state: Mutex::new(state),
            staging,
            is_open: AtomicBool::new(false),
            bytes_read: Counter::new(),
            bytes_written: Counter::new(),
            retries: Tally::new(registry, "rfile.retries"),
            repairs: Tally::new(registry, "rfile.repairs"),
            migrations: Tally::new(registry, "rfile.migrations"),
            failovers: Tally::new(registry, "rfile.failovers"),
            metrics: cfg.metrics.clone().map(RfMetrics::new),
            cfg,
        })
    }

    /// Whether this file's stripes are k-way replicated (`cfg.replicas ≥ 2`).
    pub fn replicated(&self) -> bool {
        self.cfg.replicas > 1
    }

    /// **Open**: connect a queue pair to every donor server and register the
    /// staging buffers with the local NIC (pre-registration, paid once).
    pub fn open(&self, clock: &mut Clock) -> Result<(), StorageError> {
        if self.is_open.swap(true, Ordering::AcqRel) {
            return Ok(());
        }
        let servers = self.state.lock().lease.servers();
        self.connect_all(clock, servers)?;
        if self.cfg.registration == RegistrationMode::Staged {
            let staging_total = self.cfg.staging_bytes * self.cfg.schedulers as u64;
            clock.advance(self.fabric.config().registration_cost(staging_total));
        }
        Ok(())
    }

    /// Connect a queue pair to each of `servers` (idempotent per server).
    pub(crate) fn connect_all(
        &self,
        clock: &mut Clock,
        servers: impl IntoIterator<Item = ServerId>,
    ) -> Result<(), StorageError> {
        for server in servers {
            self.fabric
                .connect(clock, self.local, server)
                .map_err(unavailable)?;
        }
        Ok(())
    }

    /// Create and open in one call — the common path in the engine.
    pub fn create_open(
        clock: &mut Clock,
        fabric: Arc<Fabric>,
        broker: Arc<MemoryBroker>,
        local: ServerId,
        size: u64,
        cfg: RFileConfig,
    ) -> Result<RemoteFile, StorageError> {
        let f = RemoteFile::create(clock, fabric, broker, local, size, cfg)?;
        f.open(clock)?;
        Ok(f)
    }

    /// **Close**: tear down queue pairs. The lease remains held.
    pub fn close(&self, _clock: &mut Clock) {
        if self.is_open.swap(false, Ordering::AcqRel) {
            for server in self.state.lock().lease.servers() {
                self.fabric.disconnect(self.local, server);
            }
        }
    }

    /// **Delete**: close and relinquish the lease, returning the MRs to the
    /// cluster pool.
    pub fn delete(&self, clock: &mut Clock) -> Result<(), StorageError> {
        self.close(clock);
        let id = self.state.lock().lease.id;
        self.broker.release(clock, id).map_err(unavailable)
    }

    pub fn size(&self) -> u64 {
        self.size
    }

    pub fn protocol(&self) -> Protocol {
        self.cfg.protocol
    }

    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.get()
    }

    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.get()
    }

    /// Transient-fault retries performed (successful or not).
    pub fn retries(&self) -> u64 {
        self.retries.local.get()
    }

    /// Stripe re-leases + full lease re-acquisitions performed.
    pub fn repairs(&self) -> u64 {
        self.repairs.local.get()
    }

    /// Grace-window migrations off pressured donors performed.
    pub fn migrations(&self) -> u64 {
        self.migrations.local.get()
    }

    /// Preferred-replica failovers performed: reads (or quorum writes) that
    /// hit a dead replica and were re-pointed at a survivor after an epoch
    /// fence, without any repair or data loss.
    pub fn failovers(&self) -> u64 {
        self.failovers.local.get()
    }

    /// The current replica-fencing epoch (0 for unreplicated files).
    pub fn replica_epoch(&self) -> u64 {
        self.state.lock().epoch
    }

    /// Donor servers currently backing this file.
    pub fn donors(&self) -> Vec<ServerId> {
        self.state.lock().lease.servers()
    }

    /// The broker lease currently backing this file.
    pub fn lease_id(&self) -> remem_broker::LeaseId {
        self.state.lock().lease.id
    }

    /// The fabric this file's verbs run on (for callers that attribute
    /// extra telemetry to traffic they drive through the file).
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    pub(crate) fn note(
        &self,
        at: SimTime,
        origin: FaultOrigin,
        kind: &'static str,
        detail: String,
    ) {
        if let Some(log) = &self.cfg.fault_log {
            log.record(at, origin, kind, detail);
        }
    }

    // ─── the verbs: thin wrappers over the chunk engine ──────────────────

    /// Open `verb`'s telemetry span at `at`.
    fn begin(&self, at: SimTime, verb: fn(&RfMetrics) -> &VerbMetrics) -> OpenSpan<'_> {
        let open = self.metrics.as_ref().map(|m| {
            let v = verb(m);
            (m, v, m.registry.span_enter_id(v.span, at))
        });
        OpenSpan { t0: at, open }
    }

    /// Close the span at `at` and publish what the verb reports done into
    /// its counters and into `moved`, the file's own byte count.
    fn finish(&self, span: OpenSpan<'_>, at: SimTime, moved: &Counter, done: Done) {
        moved.add(done.bytes);
        if let Some((m, v, token)) = span.open {
            m.registry.span_exit(token, at);
            v.ops.add(done.ops);
            v.bytes.add(done.bytes);
            if done.timed {
                v.lat.record(at.since(span.t0));
            }
        }
    }

    /// **Read** `buf.len()` bytes at `offset` via RDMA.
    pub fn read(&self, clock: &mut Clock, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        let len = buf.len() as u64;
        let span = self.begin(clock.now(), |m| &m.read);
        let res = engine::run_one(self, clock, (offset, buf), true, |clock, c| {
            self.read_chunk(clock, c)
        });
        self.finish(span, clock.now(), &self.bytes_read, Done::one(&res, len));
        res
    }

    /// **Pushdown read**: run `program` over the whole-page span
    /// `[offset, offset + len)` *near the memory* and stream back only the
    /// compacted replies, in extent order.
    ///
    /// One RPC per extent chunk, routed to the preferred replica member and
    /// failed over on an epoch bump exactly like [`RemoteFile::read`]
    /// (transient faults are retried with backoff, fatal ones re-point or
    /// re-lease). Each successful chunk debits the donor's broker compute
    /// account; a donor whose budget is exhausted is skipped — that chunk
    /// falls back to a one-sided read with the same eval run on the
    /// client's own core, so results are identical either way.
    pub fn read_pushdown(
        &self,
        clock: &mut Clock,
        offset: u64,
        len: u64,
        program: &PushdownProgram,
    ) -> Result<PushdownScan, StorageError> {
        let page = EVAL_PAGE_SIZE as u64;
        if len == 0 || !offset.is_multiple_of(page) || !len.is_multiple_of(page) {
            return Err(StorageError::Unavailable(format!(
                "pushdown span [{offset}, {}) is not whole 8 KiB pages",
                offset.saturating_add(len)
            )));
        }
        let span = self.begin(clock.now(), |m| &m.pushdown);
        // keyed by file offset: a retried chunk overwrites its own slot
        // instead of duplicating, and the fold runs in file order
        let mut chunks = std::collections::BTreeMap::new();
        let res = engine::run_one(self, clock, (offset, len), false, |clock, c| {
            let reply = self.pushdown_chunk(clock, c, program)?;
            chunks.insert(c.chunk.file_off, reply);
            Ok(())
        });
        let scan = res.map(|()| PushdownScan::fold(chunks.values(), program));
        if let (Some(m), Ok(scan)) = (&self.metrics, &scan) {
            m.pushdown_fallbacks.add(scan.fallback_chunks);
        }
        let bytes = scan.as_ref().map_or(0, |s| s.payload.len() as u64);
        self.finish(span, clock.now(), &self.bytes_read, Done::one(&scan, bytes));
        scan
    }

    /// **Write** `data` at `offset` via RDMA.
    pub fn write(&self, clock: &mut Clock, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        self.write_tracked(clock, offset, data).map(|_| ())
    }

    /// **Write** `data` at `offset` and return the folded quorum accounting.
    ///
    /// Same data path and cost model as [`RemoteFile::write`]; the extra
    /// return value carries the per-chunk [`QuorumWrite`] outcomes folded
    /// into one [`QuorumAppend`], which the WAL append path feeds into its
    /// `wal.quorum.*` telemetry. On an unreplicated file the accounting is
    /// all-zero (chunks still count).
    ///
    /// [`QuorumWrite`]: remem_net::QuorumWrite
    pub fn write_tracked(
        &self,
        clock: &mut Clock,
        offset: u64,
        data: &[u8],
    ) -> Result<QuorumAppend, StorageError> {
        let mut track = QuorumAppend::default();
        let span = self.begin(clock.now(), |m| &m.write);
        let res = engine::run_one(self, clock, (offset, data), true, |clock, c| {
            self.write_chunk(clock, c, &mut track)
        });
        let done = Done::one(&res, data.len() as u64);
        self.finish(span, clock.now(), &self.bytes_written, done);
        res.map(|()| track)
    }

    /// **Vectored read**: fan the request list out across stripes and donor
    /// servers in waves of up to `cfg.queue_depth` chunks, one doorbell per
    /// wave. Chunks landing in the same MR at adjacent offsets coalesce into
    /// a single multi-SGE work request (one op overhead for the run), and a
    /// chunk backing off after a transient fault only costs wall time when
    /// nothing else is ready to issue — retries overlap other in-flight work.
    /// Results come back per request; one request failing never poisons its
    /// neighbours.
    pub fn read_vectored(
        &self,
        clock: &mut Clock,
        reqs: &mut [(u64, &mut [u8])],
    ) -> Vec<Result<(), StorageError>> {
        let span = self.begin(clock.now(), |m| &m.read_vectored);
        let mut results = vec![Ok(()); reqs.len()];
        let mut verb = Batched::new(self.cfg.queue_depth);
        let chunks = reqs.iter_mut().map(|(off, buf)| (*off, &mut **buf));
        engine::run(self, clock, &mut verb, chunks, &mut results);
        let done = Done::batch(&results, reqs.iter().map(|(_, buf)| buf.len()));
        self.finish(span, clock.now(), &self.bytes_read, done);
        results
    }

    /// **Vectored write**: the gather-side twin of
    /// [`RemoteFile::read_vectored`] — same engine, with adjacent dirty
    /// ranges coalesced into single multi-SGE work requests.
    pub fn write_vectored(
        &self,
        clock: &mut Clock,
        reqs: &[(u64, &[u8])],
    ) -> Vec<Result<(), StorageError>> {
        if self.replicated() {
            // every chunk of a replicated file must reach a write quorum of
            // its replica group, and a quorum write is a serial verb: one
            // scalar write per request
            return reqs
                .iter()
                .map(|(off, data)| self.write(clock, *off, data))
                .collect();
        }
        let span = self.begin(clock.now(), |m| &m.write_vectored);
        let mut results = vec![Ok(()); reqs.len()];
        let mut verb = Batched::new(self.cfg.queue_depth);
        engine::run(self, clock, &mut verb, reqs.iter().copied(), &mut results);
        let done = Done::batch(&results, reqs.iter().map(|(_, data)| data.len()));
        self.finish(span, clock.now(), &self.bytes_written, done);
        results
    }
}

impl Device for RemoteFile {
    fn read(&self, clock: &mut Clock, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        RemoteFile::read(self, clock, offset, buf)
    }

    fn write(&self, clock: &mut Clock, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        RemoteFile::write(self, clock, offset, data)
    }

    fn read_vectored(
        &self,
        clock: &mut Clock,
        reqs: &mut [(u64, &mut [u8])],
    ) -> Vec<Result<(), StorageError>> {
        RemoteFile::read_vectored(self, clock, reqs)
    }

    fn write_vectored(
        &self,
        clock: &mut Clock,
        reqs: &[(u64, &[u8])],
    ) -> Vec<Result<(), StorageError>> {
        RemoteFile::write_vectored(self, clock, reqs)
    }

    fn capacity(&self) -> u64 {
        self.size
    }

    fn label(&self) -> String {
        format!("RemoteMemory[{}]", self.cfg.protocol.label())
    }

    fn drain_lost_ranges(&self) -> Vec<(u64, u64)> {
        let mut st = self.state.lock();
        st.pending_heal.clear();
        std::mem::take(&mut st.lost_ranges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AccessMode;
    use remem_broker::{BrokerConfig, MetaStore, PlacementPolicy};
    use remem_net::{FaultInjector, NetConfig};

    const MR: u64 = 64 * 1024;

    struct Cluster {
        fabric: Arc<Fabric>,
        broker: Arc<MemoryBroker>,
        db: ServerId,
        donors: Vec<ServerId>,
    }

    fn cluster(donors: usize, mrs_each: usize, placement: PlacementPolicy) -> Cluster {
        let fabric = Arc::new(Fabric::new(NetConfig::default()));
        let db = fabric.add_server("DB1", 20);
        let broker = Arc::new(MemoryBroker::new(
            BrokerConfig {
                placement,
                ..Default::default()
            },
            MetaStore::new(),
        ));
        let mut ids = Vec::new();
        for i in 0..donors {
            let m = fabric.add_server(format!("M{i}"), 20);
            let mut pc = Clock::new();
            remem_broker::MemoryProxy::new(m, MR)
                .donate(&mut pc, &fabric, &broker, mrs_each as u64 * MR)
                .unwrap();
            ids.push(m);
        }
        Cluster {
            fabric,
            broker,
            db,
            donors: ids,
        }
    }

    fn mk_file(c: &Cluster, size: u64, cfg: RFileConfig, clock: &mut Clock) -> RemoteFile {
        RemoteFile::create_open(
            clock,
            Arc::clone(&c.fabric),
            Arc::clone(&c.broker),
            c.db,
            size,
            cfg,
        )
        .unwrap()
    }

    #[test]
    fn round_trip_spanning_mr_boundaries() {
        let c = cluster(2, 4, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let f = mk_file(&c, 4 * MR, RFileConfig::custom(), &mut clock);
        assert!(
            f.donors().len() >= 2,
            "spread placement should use both donors"
        );
        // write a pattern crossing three MR boundaries
        let data: Vec<u8> = (0..(3 * MR) as usize).map(|i| (i % 255) as u8).collect();
        let offset = MR / 2;
        f.write(&mut clock, offset, &data).unwrap();
        let mut out = vec![0u8; data.len()];
        f.read(&mut clock, offset, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(f.bytes_written(), 3 * MR);
        assert_eq!(f.bytes_read(), 3 * MR);
    }

    #[test]
    fn reads_of_unwritten_space_are_zero() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let f = mk_file(&c, MR, RFileConfig::custom(), &mut clock);
        let mut buf = vec![1u8; 512];
        f.read(&mut clock, 100, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let f = mk_file(&c, MR, RFileConfig::custom(), &mut clock);
        let mut buf = vec![0u8; 64];
        assert!(matches!(
            f.read(&mut clock, MR - 32, &mut buf),
            Err(StorageError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn closed_file_rejects_io_and_reopen_works() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let f = mk_file(&c, MR, RFileConfig::custom(), &mut clock);
        f.close(&mut clock);
        let mut buf = [0u8; 8];
        assert!(matches!(
            f.read(&mut clock, 0, &mut buf),
            Err(StorageError::Unavailable(_))
        ));
        f.open(&mut clock).unwrap();
        assert!(f.read(&mut clock, 0, &mut buf).is_ok());
    }

    #[test]
    fn delete_returns_memory_to_the_pool() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let f = mk_file(&c, 2 * MR, RFileConfig::custom(), &mut clock);
        assert_eq!(c.broker.store().available_bytes(), 0);
        f.delete(&mut clock).unwrap();
        assert_eq!(c.broker.store().available_bytes(), 2 * MR);
    }

    #[test]
    fn donor_failure_surfaces_as_unavailable() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let f = mk_file(&c, MR, RFileConfig::custom(), &mut clock);
        c.fabric.server(c.donors[0]).unwrap().fail();
        let mut buf = [0u8; 8];
        assert!(matches!(
            f.read(&mut clock, 0, &mut buf),
            Err(StorageError::Unavailable(_))
        ));
    }

    #[test]
    fn lease_revocation_surfaces_as_unavailable() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let f = mk_file(&c, 2 * MR, RFileConfig::custom(), &mut clock);
        // donor comes under memory pressure and reclaims everything
        c.broker.reclaim(&c.fabric, c.donors[0], 2 * MR);
        let mut buf = [0u8; 8];
        assert!(matches!(
            f.read(&mut clock, 0, &mut buf),
            Err(StorageError::Unavailable(_))
        ));
    }

    #[test]
    fn auto_renew_keeps_long_lived_files_alive() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let f = mk_file(&c, MR, RFileConfig::custom(), &mut clock);
        let lease_dur = c.broker.config().lease_duration;
        let mut buf = [0u8; 8];
        // access the file over 10 lease windows; auto-renew must keep it valid
        for _ in 0..100 {
            clock.advance(lease_dur / 10 * 9 / 10);
            f.read(&mut clock, 0, &mut buf).unwrap();
        }
    }

    #[test]
    fn without_auto_renew_the_lease_expires() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            auto_renew: false,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, MR, cfg, &mut clock);
        clock.advance(c.broker.config().lease_duration * 2);
        let mut buf = [0u8; 8];
        assert!(matches!(
            f.read(&mut clock, 0, &mut buf),
            Err(StorageError::Unavailable(_))
        ));
    }

    #[test]
    fn staged_is_cheaper_than_dynamic_for_page_io() {
        let page = vec![0u8; 8192];
        let mut staged_t = SimDuration::ZERO;
        let mut dynamic_t = SimDuration::ZERO;
        for (mode, out) in [
            (RegistrationMode::Staged, &mut staged_t),
            (RegistrationMode::Dynamic, &mut dynamic_t),
        ] {
            let c = cluster(1, 4, PlacementPolicy::Pack);
            let mut clock = Clock::new();
            let cfg = RFileConfig {
                registration: mode,
                ..RFileConfig::custom()
            };
            let f = mk_file(&c, 2 * MR, cfg, &mut clock);
            let t0 = clock.now();
            for i in 0..16u64 {
                f.write(&mut clock, i * 8192, &page).unwrap();
            }
            *out = clock.now().since(t0);
        }
        // §4.1.4: staging (memcpy 2us) beats dynamic registration (50us)
        assert!(
            dynamic_t.as_nanos() > staged_t.as_nanos() * 2,
            "dynamic {dynamic_t} should be >2x staged {staged_t}"
        );
    }

    #[test]
    fn sync_spin_beats_async_for_custom() {
        let mut lat = Vec::new();
        for access in [AccessMode::SyncSpin, AccessMode::Async] {
            let c = cluster(1, 4, PlacementPolicy::Pack);
            let mut clock = Clock::new();
            let cfg = RFileConfig {
                access,
                ..RFileConfig::custom()
            };
            let f = mk_file(&c, MR, cfg, &mut clock);
            let t0 = clock.now();
            let mut buf = vec![0u8; 8192];
            f.read(&mut clock, 0, &mut buf).unwrap();
            lat.push(clock.now().since(t0));
        }
        // §4.1.3: the async penalty is comparable to the access itself
        assert!(
            lat[1].as_nanos() > lat[0].as_nanos() * 3,
            "async {} vs sync {}",
            lat[1],
            lat[0]
        );
    }

    #[test]
    fn adaptive_mode_is_sync_for_pages_async_for_bulk() {
        // §4.1.3's proposed adaptive strategy: spin for small transfers,
        // yield for large ones
        let measure = |access: AccessMode, bytes: usize| -> SimDuration {
            let c = cluster(2, 64, PlacementPolicy::Pack);
            let mut clock = Clock::new();
            let cfg = RFileConfig {
                access,
                ..RFileConfig::custom()
            };
            let f = mk_file(&c, 32 * MR, cfg, &mut clock);
            let data = vec![0u8; bytes];
            let t0 = clock.now();
            f.write(&mut clock, 0, &data).unwrap();
            clock.now().since(t0)
        };
        // 8K page: adaptive == sync (completes inside the spin budget)
        let sync_small = measure(AccessMode::SyncSpin, 8192);
        let adaptive_small = measure(AccessMode::adaptive(), 8192);
        assert_eq!(adaptive_small, sync_small);
        // a 64 KiB chunk (one MR) takes ~19 us on the wire: with a tight
        // 10 us budget the adaptive path yields and pays the async penalty
        let tight = AccessMode::Adaptive {
            spin_budget: SimDuration::from_micros(10),
        };
        let sync_big = measure(AccessMode::SyncSpin, 64 << 10);
        let adaptive_big = measure(tight, 64 << 10);
        let async_big = measure(AccessMode::Async, 64 << 10);
        assert!(
            adaptive_big > sync_big,
            "transfers beyond the budget must yield"
        );
        assert_eq!(adaptive_big, async_big);
    }

    #[test]
    fn device_trait_object_works() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let f = mk_file(&c, MR, RFileConfig::custom(), &mut clock);
        let dev: &dyn Device = &f;
        dev.write(&mut clock, 0, b"via-trait").unwrap();
        let mut out = vec![0u8; 9];
        dev.read(&mut clock, 0, &mut out).unwrap();
        assert_eq!(&out, b"via-trait");
        assert_eq!(dev.capacity(), MR);
        assert!(dev.label().contains("Custom"));
    }

    #[test]
    fn transient_faults_are_retried_through() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            max_retries: 8,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, MR, cfg, &mut clock);
        f.write(&mut clock, 0, b"survives flakiness").unwrap();
        // a flaky window: ~40% of verbs to the donor fail; retries (each at
        // a later virtual instant) must push every access through
        c.fabric
            .set_fault_injector(Some(Arc::new(FaultInjector::new(11).flaky_window(
                c.donors[0],
                SimTime::ZERO,
                SimTime(1 << 40),
                0.4,
            ))));
        let mut buf = vec![0u8; 18];
        for _ in 0..50 {
            f.read(&mut clock, 0, &mut buf).unwrap();
            assert_eq!(&buf, b"survives flakiness");
        }
        assert!(
            f.retries() > 0,
            "a p=0.4 window over 50 reads must trigger retries"
        );
    }

    #[test]
    fn exhausted_retries_surface_as_transient_not_unavailable() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            retry_backoff: SimDuration::ZERO,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, MR, cfg, &mut clock);
        // p=1.0: every attempt fails, retries can't save it. Zero backoff
        // keeps the clock inside the window for all attempts.
        c.fabric
            .set_fault_injector(Some(Arc::new(FaultInjector::new(5).flaky_window(
                c.donors[0],
                SimTime::ZERO,
                SimTime(1 << 40),
                1.0,
            ))));
        let mut buf = [0u8; 8];
        assert!(matches!(
            f.read(&mut clock, 0, &mut buf),
            Err(StorageError::Transient(_))
        ));
    }

    #[test]
    fn self_heal_releases_dead_stripes_and_reports_lost_ranges() {
        let c = cluster(3, 2, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            self_heal: true,
            ..RFileConfig::custom()
        };
        // 4 MR file across 3 donors (spread), 2 MR spare capacity
        let f = mk_file(&c, 4 * MR, cfg, &mut clock);
        let data: Vec<u8> = (0..(4 * MR) as usize).map(|i| (i % 253) as u8).collect();
        f.write(&mut clock, 0, &data).unwrap();
        // one donor crashes: its memory is wiped and the broker degrades
        let dead = c.donors[0];
        c.fabric.server(dead).unwrap().fail();
        c.fabric.server(dead).unwrap().nic().deregister_all();
        c.broker.server_failed(dead);
        c.fabric.server(dead).unwrap().restart();
        // reads succeed again via per-stripe repair; lost stripes read zero,
        // surviving stripes keep their bytes
        let mut out = vec![0u8; (4 * MR) as usize];
        f.read(&mut clock, 0, &mut out).unwrap();
        assert!(f.repairs() >= 1, "expected a stripe repair");
        let lost = f.drain_lost_ranges();
        assert!(!lost.is_empty(), "repair must report the zeroed ranges");
        assert!(f.drain_lost_ranges().is_empty(), "drain clears");
        let in_lost = |off: u64| lost.iter().any(|&(s, l)| off >= s && off < s + l);
        for (i, &b) in out.iter().enumerate() {
            let expect = if in_lost(i as u64) { 0 } else { data[i] };
            assert_eq!(b, expect, "byte {i} wrong after repair");
        }
        // and the file keeps working for writes over the repaired stripes
        f.write(&mut clock, 0, &data).unwrap();
        let mut again = vec![0u8; (4 * MR) as usize];
        f.read(&mut clock, 0, &mut again).unwrap();
        assert_eq!(again, data);
    }

    #[test]
    fn self_heal_migrates_off_a_pressured_donor_without_data_loss() {
        let c = cluster(2, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            self_heal: true,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, 2 * MR, cfg, &mut clock);
        let data: Vec<u8> = (0..(2 * MR) as usize).map(|i| (i % 241) as u8).collect();
        f.write(&mut clock, 0, &data).unwrap();
        let donor = f.donors()[0];
        // two-phase reclaim: the donor asks for its memory back
        let (_, notified) = c
            .broker
            .request_reclaim(clock.now(), &c.fabric, donor, 2 * MR);
        assert_eq!(notified.len(), 1);
        // next access migrates to the other donor inside the grace window
        let mut out = vec![0u8; (2 * MR) as usize];
        f.read(&mut clock, 0, &mut out).unwrap();
        assert_eq!(out, data, "migration must not lose bytes");
        assert_eq!(f.migrations(), 1);
        assert!(!f.donors().contains(&donor));
        assert!(f.drain_lost_ranges().is_empty(), "migration loses nothing");
        // the grace deadline passes: nothing left for the broker to take
        clock.advance(c.broker.config().grace_period * 2);
        assert_eq!(c.broker.finalize_revocations(&c.fabric, clock.now()), 0);
        f.read(&mut clock, 0, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn self_heal_reacquires_a_revoked_lease() {
        let c = cluster(2, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            self_heal: true,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, 2 * MR, cfg, &mut clock);
        f.write(&mut clock, 0, b"gone after revoke").unwrap();
        // hard revocation (legacy immediate reclaim — no grace window)
        c.broker.reclaim(&c.fabric, f.donors()[0], 2 * MR);
        let mut buf = vec![1u8; 17];
        f.read(&mut clock, 0, &mut buf).unwrap();
        assert_eq!(buf, vec![0u8; 17], "re-leased file starts zeroed");
        let lost = f.drain_lost_ranges();
        assert_eq!(lost, vec![(0, 2 * MR)], "whole file reported lost");
        assert!(f.repairs() >= 1);
    }

    #[test]
    fn telemetry_nests_network_time_under_rfile_spans() {
        let registry = MetricsRegistry::shared();
        let c = cluster(1, 4, PlacementPolicy::Pack);
        c.fabric.set_metrics(Some(Arc::clone(&registry)));
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            metrics: Some(Arc::clone(&registry)),
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, 2 * MR, cfg, &mut clock);
        let data = vec![3u8; 8192];
        f.write(&mut clock, 0, &data).unwrap();
        let mut out = vec![0u8; 8192];
        f.read(&mut clock, 0, &mut out).unwrap();

        assert_eq!(registry.counter("rfile.read.ops").get(), 1);
        assert_eq!(registry.counter("rfile.write.bytes").get(), 8192);
        let rf = registry.span_stats("rfile.read");
        let net = registry.span_stats("net.read");
        assert_eq!(rf.count, 1);
        assert!(net.count >= 1);
        // network verb time is charged to the child span, so the rfile span's
        // self time excludes it
        assert!(
            rf.self_time < rf.total,
            "net child time must be attributed: {rf:?}"
        );
        assert!(net.total <= rf.total);
    }

    #[test]
    fn vectored_read_matches_scalar_across_stripe_boundaries() {
        let c = cluster(2, 4, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let f = mk_file(&c, 4 * MR, RFileConfig::custom(), &mut clock);
        let data: Vec<u8> = (0..(4 * MR) as usize).map(|i| (i % 251) as u8).collect();
        f.write(&mut clock, 0, &data).unwrap();
        // request list straddling MR boundaries, unsorted, including the tail
        let spec: Vec<(u64, u64)> = vec![
            (MR - 100, 300),
            (0, 8192),
            (3 * MR + 100, MR - 100), // runs to the file tail
            (2 * MR - 1, 2),
        ];
        let mut bufs: Vec<Vec<u8>> = spec.iter().map(|&(_, l)| vec![0u8; l as usize]).collect();
        let mut reqs: Vec<(u64, &mut [u8])> = spec
            .iter()
            .zip(bufs.iter_mut())
            .map(|(&(o, _), b)| (o, b.as_mut_slice()))
            .collect();
        let results = f.read_vectored(&mut clock, &mut reqs);
        assert!(results.iter().all(|r| r.is_ok()));
        for (&(o, l), buf) in spec.iter().zip(&bufs) {
            assert_eq!(buf[..], data[o as usize..(o + l) as usize], "req at {o}");
        }
        let expect: u64 = spec.iter().map(|&(_, l)| l).sum();
        assert_eq!(f.bytes_read(), expect);
    }

    #[test]
    fn vectored_write_round_trips_and_coalesces() {
        let c = cluster(1, 4, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let f = mk_file(&c, 4 * MR, RFileConfig::custom(), &mut clock);
        // adjacent dirty ranges — the engine should gather them, but the
        // observable contract is byte identity with the scalar sequence
        let pages: Vec<(u64, Vec<u8>)> = (0..16u64)
            .map(|i| (i * 8192, vec![(i + 1) as u8; 8192]))
            .collect();
        let reqs: Vec<(u64, &[u8])> = pages.iter().map(|(o, d)| (*o, d.as_slice())).collect();
        let results = f.write_vectored(&mut clock, &reqs);
        assert!(results.iter().all(|r| r.is_ok()));
        let mut out = vec![0u8; 16 * 8192];
        f.read(&mut clock, 0, &mut out).unwrap();
        for (i, chunk) in out.chunks(8192).enumerate() {
            assert!(chunk.iter().all(|&b| b == (i + 1) as u8), "page {i}");
        }
        assert_eq!(f.bytes_written(), 16 * 8192);
    }

    #[test]
    fn pipelined_reads_beat_serial_at_equal_bytes() {
        let mk = |qd: usize| -> (SimDuration, Vec<u8>) {
            let c = cluster(2, 8, PlacementPolicy::Spread);
            let mut clock = Clock::new();
            let cfg = RFileConfig {
                queue_depth: qd,
                ..RFileConfig::custom()
            };
            let f = mk_file(&c, 8 * MR, cfg, &mut clock);
            let data: Vec<u8> = (0..(8 * MR) as usize).map(|i| (i % 241) as u8).collect();
            f.write(&mut clock, 0, &data).unwrap();
            let mut bufs: Vec<Vec<u8>> = (0..64).map(|_| vec![0u8; 8192]).collect();
            let t0 = clock.now();
            let mut reqs: Vec<(u64, &mut [u8])> = bufs
                .iter_mut()
                .enumerate()
                .map(|(i, b)| (i as u64 * 8192, b.as_mut_slice()))
                .collect();
            let results = f.read_vectored(&mut clock, &mut reqs);
            assert!(results.iter().all(|r| r.is_ok()));
            (clock.now().since(t0), bufs.concat())
        };
        let (deep, deep_bytes) = mk(32);
        let (scalar, scalar_bytes) = mk(1);
        assert_eq!(deep_bytes, scalar_bytes, "bytes must not depend on depth");
        assert!(
            deep.as_nanos() * 2 < scalar.as_nanos(),
            "qd=32 ({deep}) should be far cheaper than qd=1 ({scalar})"
        );
    }

    #[test]
    fn vectored_errors_are_isolated_per_request() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let f = mk_file(&c, MR, RFileConfig::custom(), &mut clock);
        f.write(&mut clock, 0, &vec![9u8; 1024]).unwrap();
        let mut good = vec![0u8; 512];
        let mut oob = vec![0u8; 512];
        let mut good2 = vec![0u8; 512];
        let mut reqs: Vec<(u64, &mut [u8])> = vec![
            (0, good.as_mut_slice()),
            (MR - 100, oob.as_mut_slice()), // runs past the file end
            (512, good2.as_mut_slice()),
        ];
        let results = f.read_vectored(&mut clock, &mut reqs);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(StorageError::OutOfBounds { .. })));
        assert!(results[2].is_ok());
        assert!(good.iter().all(|&b| b == 9));
        assert!(good2.iter().all(|&b| b == 9));
    }

    #[test]
    fn vectored_reads_retry_through_transient_faults() {
        let c = cluster(1, 4, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            max_retries: 10,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, 4 * MR, cfg, &mut clock);
        let data: Vec<u8> = (0..(4 * MR) as usize).map(|i| (i % 239) as u8).collect();
        f.write(&mut clock, 0, &data).unwrap();
        c.fabric
            .set_fault_injector(Some(Arc::new(FaultInjector::new(77).flaky_window(
                c.donors[0],
                SimTime::ZERO,
                SimTime(1 << 40),
                0.3,
            ))));
        let mut bufs: Vec<Vec<u8>> = (0..32).map(|_| vec![0u8; 8192]).collect();
        let mut reqs: Vec<(u64, &mut [u8])> = bufs
            .iter_mut()
            .enumerate()
            .map(|(i, b)| (i as u64 * 8192, b.as_mut_slice()))
            .collect();
        let results = f.read_vectored(&mut clock, &mut reqs);
        assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
        for (i, b) in bufs.iter().enumerate() {
            assert_eq!(b[..], data[i * 8192..(i + 1) * 8192], "page {i}");
        }
        assert!(f.retries() > 0, "p=0.3 over 32 pages must hit retries");
    }

    #[test]
    fn repair_backs_off_while_capacity_is_short() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            self_heal: true,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, 2 * MR, cfg, &mut clock);
        // the only donor dies: repair has nowhere to go
        let dead = c.donors[0];
        c.fabric.server(dead).unwrap().fail();
        c.fabric.server(dead).unwrap().nic().deregister_all();
        c.broker.server_failed(dead);
        let mut buf = [0u8; 8];
        assert!(f.read(&mut clock, 0, &mut buf).is_err());
        // immediately after, the gate holds (no broker hammering)
        assert!(matches!(
            f.read(&mut clock, 0, &mut buf),
            Err(StorageError::Unavailable(_))
        ));
        // donor comes back with fresh memory
        c.fabric.server(dead).unwrap().restart();
        c.broker.server_recovered(dead);
        let mut pc = Clock::new();
        remem_broker::MemoryProxy::new(dead, MR)
            .donate(&mut pc, &c.fabric, &c.broker, 2 * MR)
            .unwrap();
        // past the backoff, the next access repairs and succeeds
        clock.advance(SimDuration::from_secs(6));
        f.read(&mut clock, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        assert!(f.repairs() >= 1);
    }

    // ─── replication ─────────────────────────────────────────────────────

    fn crash(c: &Cluster, s: ServerId) {
        c.fabric.server(s).unwrap().fail();
        c.fabric.server(s).unwrap().nic().deregister_all();
        c.broker.server_failed(s);
        c.fabric.server(s).unwrap().restart();
    }

    #[test]
    fn replicated_write_lands_on_every_group_member() {
        let c = cluster(3, 2, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            replicas: 2,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, 2 * MR, cfg, &mut clock);
        let data: Vec<u8> = (0..(2 * MR) as usize).map(|i| (i % 239) as u8).collect();
        f.write(&mut clock, 0, &data).unwrap();
        let mut out = vec![0u8; data.len()];
        f.read(&mut clock, 0, &mut out).unwrap();
        assert_eq!(out, data);
        // verify the bytes on every member of every group directly
        assert_eq!(c.broker.store().active_leases(), 1);
        let (_, groups) = c.broker.replica_view(remem_broker::LeaseId(0)).unwrap();
        assert_eq!(groups.len(), 2);
        let mut off = 0usize;
        for g in &groups {
            assert_eq!(g.len(), 2, "every slot holds k=2 members");
            assert_ne!(g[0].server, g[1].server, "anti-affinity");
            for m in g {
                let mut got = vec![0u8; m.len as usize];
                c.fabric
                    .read(&mut clock, Protocol::Custom, c.db, *m, 0, &mut got)
                    .unwrap();
                assert_eq!(
                    got,
                    &data[off..off + m.len as usize],
                    "replica on {:?} diverged",
                    m.server
                );
            }
            off += g[0].len as usize;
        }
    }

    #[test]
    fn replicated_file_survives_donor_crash_without_data_loss() {
        let c = cluster(3, 3, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            replicas: 2,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, 2 * MR, cfg, &mut clock);
        let data: Vec<u8> = (0..(2 * MR) as usize).map(|i| (i % 233) as u8).collect();
        f.write(&mut clock, 0, &data).unwrap();
        let epoch0 = f.replica_epoch();
        let dead = f.donors()[0];
        crash(&c, dead);
        // the next read fails over to the survivors and heals: no zeroed
        // ranges, no wrong bytes, full redundancy restored
        let mut out = vec![0u8; data.len()];
        f.read(&mut clock, 0, &mut out).unwrap();
        assert_eq!(out, data, "crash must not lose replicated bytes");
        assert!(f.drain_lost_ranges().is_empty(), "no range was lost");
        assert!(f.replica_epoch() > epoch0, "membership change fences epoch");
        let id = remem_broker::LeaseId(0);
        assert_eq!(c.broker.replication_deficit(id), 0, "healed back to k");
        assert!(f.repairs() >= 1, "re-replication counts as a repair");
        // and writes keep reaching a quorum afterwards
        f.write(&mut clock, 0, &data).unwrap();
        f.read(&mut clock, 0, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn replicated_spill_survives_crash_with_self_heal_off() {
        // the tentpole claim: k >= 2 lifts the must-not-zero-fill
        // restriction — a spill file (self_heal: false) survives a donor
        // crash with its bytes intact
        let c = cluster(3, 3, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            replicas: 2,
            self_heal: false,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, 2 * MR, cfg, &mut clock);
        let data: Vec<u8> = (0..(2 * MR) as usize).map(|i| (i % 229) as u8).collect();
        f.write(&mut clock, 0, &data).unwrap();
        crash(&c, f.donors()[0]);
        let mut out = vec![0u8; data.len()];
        f.read(&mut clock, 0, &mut out).unwrap();
        assert_eq!(out, data, "spill bytes must survive the crash");
        assert!(f.drain_lost_ranges().is_empty(), "nothing zero-filled");
    }

    #[test]
    fn losing_every_copy_of_a_slot_fails_a_spill_loudly() {
        let c = cluster(3, 3, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            replicas: 2,
            self_heal: false,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, MR, cfg, &mut clock);
        f.write(&mut clock, 0, &vec![7u8; MR as usize]).unwrap();
        // kill both members of the (single) slot's group
        let (_, groups) = c.broker.replica_view(remem_broker::LeaseId(0)).unwrap();
        for m in &groups[0] {
            crash(&c, m.server);
        }
        let mut out = vec![0u8; MR as usize];
        assert!(
            matches!(
                f.read(&mut clock, 0, &mut out),
                Err(StorageError::Unavailable(_))
            ),
            "a spill slot with every copy dead must fail, not read zeros"
        );
        assert!(
            f.drain_lost_ranges().is_empty(),
            "no silent zero-fill for spill semantics"
        );
    }

    #[test]
    fn replicated_read_rotates_through_a_blackout() {
        // the broker never learns of the fault here: one-sided reads fail
        // over locally to the peer replica
        let log = Arc::new(remem_sim::FaultLog::new());
        let c = cluster(2, 2, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            replicas: 2,
            fault_log: Some(Arc::clone(&log)),
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, MR, cfg, &mut clock);
        let data: Vec<u8> = (0..MR as usize).map(|i| (i % 227) as u8).collect();
        f.write(&mut clock, 0, &data).unwrap();
        let preferred = f.donors()[0];
        let inj = remem_net::FaultInjector::new(11).blackout(
            preferred,
            clock.now(),
            clock.now() + SimDuration::from_secs(3600),
        );
        c.fabric.set_fault_injector(Some(Arc::new(inj)));
        let mut out = vec![0u8; data.len()];
        f.read(&mut clock, 0, &mut out).unwrap();
        assert_eq!(out, data, "blackout failover must serve correct bytes");
        assert!(f.failovers() >= 1, "rotation counts as a failover");
        assert!(log.count("rfile.failover", FaultOrigin::Recovery) >= 1);
        c.fabric.set_fault_injector(None);
    }

    #[test]
    fn replicated_file_sheds_pressured_replicas_without_data_loss() {
        let c = cluster(3, 3, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            replicas: 2,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, 2 * MR, cfg, &mut clock);
        let data: Vec<u8> = (0..(2 * MR) as usize).map(|i| (i % 223) as u8).collect();
        f.write(&mut clock, 0, &data).unwrap();
        let pressured = f.donors()[0];
        let (_, notified) = c
            .broker
            .request_reclaim(clock.now(), &c.fabric, pressured, 3 * MR);
        assert_eq!(notified.len(), 1);
        let mut out = vec![0u8; data.len()];
        f.read(&mut clock, 0, &mut out).unwrap();
        assert_eq!(out, data, "shedding must not lose bytes");
        assert!(f.migrations() >= 1, "shed counts as a migration");
        assert!(f.drain_lost_ranges().is_empty());
        // after the grace window the broker finds nothing left to revoke
        clock.advance(c.broker.config().grace_period * 2);
        assert_eq!(c.broker.finalize_revocations(&c.fabric, clock.now()), 0);
        f.read(&mut clock, 0, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn an_epoch_fenced_between_two_ios_is_adopted_by_the_very_next_one() {
        // the per-op health check compares epochs before it copies anything:
        // whichever way the broker fenced the groups since the last I/O, the
        // next one must re-point *before* it issues, never by faulting on a
        // member that is gone
        let c = cluster(4, 4, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            replicas: 2,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, 2 * MR, cfg, &mut clock);
        let id = f.lease_id();
        let data: Vec<u8> = (0..(2 * MR) as usize).map(|i| (i % 227) as u8).collect();
        f.write(&mut clock, 0, &data).unwrap();
        let mut out = vec![0u8; data.len()];
        let mut check = |clock: &mut Clock, fence: &str, before: u64| {
            let fenced = c.broker.replica_epoch(id).unwrap();
            assert!(fenced > before, "{fence}: the broker fenced a new epoch");
            assert_eq!(f.replica_epoch(), before, "{fence}: file not yet told");
            f.read(clock, 0, &mut out).unwrap();
            assert_eq!(out, data, "{fence}: bytes intact");
            assert_eq!(
                f.failovers(),
                0,
                "{fence}: adopted up front, not by faulting"
            );
            // the same op may also have healed, which fences once more
            let now = c.broker.replica_epoch(id).unwrap();
            assert_eq!(f.replica_epoch(), now, "{fence}: file is current");
            assert_eq!(c.broker.replication_deficit(id), 0, "{fence}: back to k");
            now
        };
        // a donor crash: the broker prunes the dead members
        crash(&c, f.donors()[0]);
        let e1 = check(&mut clock, "server_failed", 0);
        // a third party re-replicates behind the file's back: crash without
        // letting the file heal, then grow the groups at the broker
        crash(&c, f.donors()[0]);
        c.broker.re_replicate(&mut clock, id).unwrap();
        let e2 = check(&mut clock, "re_replicate", e1);
        // nobody seeded those new members; a full rewrite brings them level
        f.write(&mut clock, 0, &data).unwrap();
        // the members on one donor are surrendered (what a shed does)
        c.broker
            .surrender_mrs(&mut clock, id, f.donors()[0], &c.fabric)
            .unwrap();
        let e3 = check(&mut clock, "shed", e2);
        // and with nothing fenced the epoch stays put
        f.write(&mut clock, 0, &data).unwrap();
        assert_eq!(f.replica_epoch(), e3);
    }

    #[test]
    fn repeated_stripe_loss_reports_each_range_once_per_drain() {
        // satellite: a stripe lost again while the previous loss is still
        // awaiting collection must not be double-reported
        let c = cluster(3, 1, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            self_heal: true,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, MR, cfg, &mut clock);
        f.write(&mut clock, 0, &vec![9u8; MR as usize]).unwrap();
        let mut buf = vec![0u8; 64];
        // first donor dies; repair re-leases and reports (0, MR) lost
        crash(&c, f.donors()[0]);
        f.read(&mut clock, 0, &mut buf).unwrap();
        // the replacement donor dies too, before anyone drained the report
        crash(&c, f.donors()[0]);
        f.read(&mut clock, 0, &mut buf).unwrap();
        assert!(f.repairs() >= 2, "two distinct repairs ran");
        let lost = f.drain_lost_ranges();
        assert_eq!(lost, vec![(0, MR)], "one report per undrained range");
        // after a drain the same range may be reported again — but the
        // repair needs fresh capacity: the first casualty re-donates
        let m0 = c.donors[0];
        c.broker.server_recovered(m0);
        let mut pc = Clock::new();
        remem_broker::MemoryProxy::new(m0, MR)
            .donate(&mut pc, &c.fabric, &c.broker, MR)
            .unwrap();
        crash(&c, f.donors()[0]);
        f.read(&mut clock, 0, &mut buf).unwrap();
        assert_eq!(f.drain_lost_ranges(), vec![(0, MR)]);
    }

    /// Build `npages` engine-format slotted pages of `(key, key*1.5, pad)`
    /// rows, `rpp` rows per page, keys dense from 0.
    fn table_pages(npages: usize, rpp: usize) -> Vec<u8> {
        let mut data = Vec::with_capacity(npages * EVAL_PAGE_SIZE);
        for p in 0..npages {
            let mut page = vec![0u8; EVAL_PAGE_SIZE];
            let mut free = EVAL_PAGE_SIZE;
            for j in 0..rpp {
                let k = (p * rpp + j) as i64;
                let mut rec = Vec::new();
                rec.extend_from_slice(&3u16.to_le_bytes());
                rec.push(0);
                rec.extend_from_slice(&k.to_le_bytes());
                rec.push(1);
                rec.extend_from_slice(&(k as f64 * 1.5).to_le_bytes());
                rec.push(2);
                rec.extend_from_slice(&4u32.to_le_bytes());
                rec.extend_from_slice(b"padx");
                free -= rec.len();
                page[free..free + rec.len()].copy_from_slice(&rec);
                let base = 4 + j * 4;
                page[base..base + 2].copy_from_slice(&(free as u16).to_le_bytes());
                page[base + 2..base + 4].copy_from_slice(&(rec.len() as u16).to_le_bytes());
            }
            page[0..2].copy_from_slice(&(rpp as u16).to_le_bytes());
            page[2..4].copy_from_slice(&(free as u16).to_le_bytes());
            data.extend_from_slice(&page);
        }
        data
    }

    fn key_lt(v: i64) -> PushdownProgram {
        PushdownProgram {
            predicates: vec![remem_storage::Predicate {
                col: 0,
                op: remem_storage::CmpOp::Lt,
                value: remem_storage::EvalValue::Int(v),
            }],
            ..Default::default()
        }
    }

    #[test]
    fn pushdown_scan_matches_client_side_oracle() {
        let c = cluster(2, 4, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let f = mk_file(&c, 4 * MR, RFileConfig::custom(), &mut clock);
        let npages = (4 * MR) as usize / EVAL_PAGE_SIZE;
        let data = table_pages(npages, 16);
        f.write(&mut clock, 0, &data).unwrap();
        let prog = key_lt(40);
        let scan = f.read_pushdown(&mut clock, 0, 4 * MR, &prog).unwrap();
        // oracle: fetch every page, eval on the client
        let mut full = vec![0u8; data.len()];
        f.read(&mut clock, 0, &mut full).unwrap();
        let mut expect = Vec::new();
        let stats = remem_storage::eval_pages(&full, &prog, &mut expect).unwrap();
        assert_eq!(scan.payload, expect);
        assert_eq!(scan.rows_scanned, stats.rows_scanned);
        assert_eq!(scan.rows_matched, 40);
        assert_eq!(scan.fallback_chunks, 0);
        assert!(scan.server_cpu > SimDuration::ZERO);
        // both donors were debited (Spread stripes across them)
        for d in &c.donors {
            assert!(c.broker.compute_account(*d).ops > 0, "{d:?} not debited");
        }
    }

    #[test]
    fn pushdown_aggregate_merges_partials_across_extents() {
        let c = cluster(2, 2, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let f = mk_file(&c, 2 * MR, RFileConfig::custom(), &mut clock);
        let npages = (2 * MR) as usize / EVAL_PAGE_SIZE;
        let data = table_pages(npages, 16);
        f.write(&mut clock, 0, &data).unwrap();
        let mut prog = key_lt(100);
        prog.aggregate = Some(remem_storage::Aggregate::Sum(0));
        let scan = f.read_pushdown(&mut clock, 0, 2 * MR, &prog).unwrap();
        assert_eq!(scan.payload.len(), remem_storage::PARTIAL_AGG_BYTES);
        let agg = PartialAgg::decode(&scan.payload).unwrap();
        assert_eq!(agg.rows, 100);
        // sum of integer keys 0..100 is exact regardless of chunking
        assert_eq!(agg.sum_int, (0..100i64).sum::<i64>());
    }

    #[test]
    fn pushdown_retries_through_transient_faults() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            max_retries: 8,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, MR, cfg, &mut clock);
        let npages = MR as usize / EVAL_PAGE_SIZE;
        let data = table_pages(npages, 8);
        f.write(&mut clock, 0, &data).unwrap();
        let mut expect = Vec::new();
        remem_storage::eval_pages(&data, &key_lt(5), &mut expect).unwrap();
        c.fabric
            .set_fault_injector(Some(Arc::new(FaultInjector::new(11).flaky_window(
                c.donors[0],
                SimTime::ZERO,
                SimTime(1 << 40),
                0.4,
            ))));
        for _ in 0..25 {
            let scan = f.read_pushdown(&mut clock, 0, MR, &key_lt(5)).unwrap();
            assert_eq!(scan.payload, expect);
        }
        assert!(f.retries() > 0, "p=0.4 over 25 scans must trigger retries");
    }

    #[test]
    fn pushdown_fails_over_to_surviving_replica() {
        let c = cluster(3, 3, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            replicas: 2,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, 2 * MR, cfg, &mut clock);
        let npages = (2 * MR) as usize / EVAL_PAGE_SIZE;
        let data = table_pages(npages, 8);
        f.write(&mut clock, 0, &data).unwrap();
        let mut expect = Vec::new();
        remem_storage::eval_pages(&data, &key_lt(30), &mut expect).unwrap();
        let epoch0 = f.replica_epoch();
        crash(&c, f.donors()[0]);
        // the scan re-points at survivors via the fenced epoch, like reads
        let scan = f.read_pushdown(&mut clock, 0, 2 * MR, &key_lt(30)).unwrap();
        assert_eq!(scan.payload, expect, "failover must not corrupt the scan");
        assert!(f.replica_epoch() > epoch0, "membership change fences epoch");
        // and the scan path keeps working at the new epoch
        let scan = f.read_pushdown(&mut clock, 0, 2 * MR, &key_lt(30)).unwrap();
        assert_eq!(scan.payload, expect);
    }

    #[test]
    fn pushdown_falls_back_when_compute_budget_exhausted() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let f = mk_file(&c, MR, RFileConfig::custom(), &mut clock);
        let npages = MR as usize / EVAL_PAGE_SIZE;
        let data = table_pages(npages, 8);
        f.write(&mut clock, 0, &data).unwrap();
        let prog = key_lt(10);
        let mut expect = Vec::new();
        remem_storage::eval_pages(&data, &prog, &mut expect).unwrap();
        // no compute for tenants on this donor
        c.broker
            .set_compute_budget(c.donors[0], Some(SimDuration::ZERO));
        let scan = f.read_pushdown(&mut clock, 0, MR, &prog).unwrap();
        assert_eq!(
            scan.payload, expect,
            "fallback must produce identical bytes"
        );
        assert!(scan.fallback_chunks > 0);
        assert_eq!(scan.server_cpu, SimDuration::ZERO, "no server CPU burned");
        assert_eq!(c.broker.compute_account(c.donors[0]).ops, 0);
        assert!(c.broker.compute_account(c.donors[0]).denied > 0);
    }

    #[test]
    fn pushdown_rejects_partial_page_spans() {
        let c = cluster(1, 1, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let f = mk_file(&c, MR, RFileConfig::custom(), &mut clock);
        assert!(f.read_pushdown(&mut clock, 0, 100, &key_lt(1)).is_err());
        assert!(f.read_pushdown(&mut clock, 17, 8192, &key_lt(1)).is_err());
        assert!(f.read_pushdown(&mut clock, 0, 0, &key_lt(1)).is_err());
    }
}
