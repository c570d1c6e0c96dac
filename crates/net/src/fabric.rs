//! The cluster fabric: servers wired by an Infiniband switch, and the three
//! remote-memory access protocols of Table 5.

use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use remem_audit::Auditor;
use remem_sim::resource::Grant;
use remem_sim::{
    Clock, Counter, Histogram, MetricsRegistry, SimDuration, SimTime, SpanId, SpanToken,
};
use std::collections::{BTreeMap, BTreeSet};
use std::iter::once;

use crate::config::NetConfig;
use crate::error::NetError;
use crate::fault::FaultInjector;
use crate::mr::{MemoryRegion, MrHandle};
use crate::server::{Server, ServerId};
use crate::verbs::WorkRequest;
use remem_storage::eval::PushdownProgram;

/// The protocol used to reach remote memory (Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// The paper's implementation: one-sided NDSPI RDMA verbs, synchronous
    /// spin completion, no remote CPU involvement.
    Custom,
    /// SMB 3.0 + SMB Direct to a RamDrive: RDMA transfers, but behind a full
    /// file-system + network-file protocol, treated as asynchronous I/O.
    SmbDirect,
    /// SMB over TCP/IP to a RamDrive: kernel network stack at both ends,
    /// remote CPU fully involved in every transfer.
    SmbTcp,
}

impl Protocol {
    pub const ALL: [Protocol; 3] = [Protocol::Custom, Protocol::SmbDirect, Protocol::SmbTcp];

    pub fn label(self) -> &'static str {
        match self {
            Protocol::Custom => "Custom",
            Protocol::SmbDirect => "SMBDirect+RamDrive",
            Protocol::SmbTcp => "SMB+RamDrive",
        }
    }
}

/// One data-moving verb's handles: its `net.<verb>` span, `nic.<verb>.ops`
/// and `.lat`, and `fabric.<verb>.bytes` and `.errors`.
struct VerbMetrics {
    span: SpanId,
    ops: Arc<Counter>,
    lat: Arc<Histogram>,
    bytes: Arc<Counter>,
    errors: Arc<Counter>,
}

impl VerbMetrics {
    fn new(registry: &MetricsRegistry, verb: &str) -> VerbMetrics {
        VerbMetrics {
            span: registry.span(&format!("net.{verb}")),
            ops: registry.counter(&format!("nic.{verb}.ops")),
            lat: registry.histogram(&format!("nic.{verb}.lat")),
            bytes: registry.counter(&format!("fabric.{verb}.bytes")),
            errors: registry.counter(&format!("fabric.{verb}.errors")),
        }
    }

    /// Publish one outcome: `(ops, bytes, latency)` moved, or one error.
    fn record(&self, done: Option<(u64, u64, SimDuration)>) {
        match done {
            Some((ops, bytes, lat)) => {
                self.ops.add(ops);
                self.bytes.add(bytes);
                self.lat.record(lat);
            }
            None => self.errors.incr(),
        }
    }
}

/// Cached handles into an attached [`MetricsRegistry`], resolved once at
/// [`Fabric::set_metrics`] so the per-verb hot path never does a name
/// lookup. Spans still go through the registry (they carry the nesting
/// stack that attributes rfile time to network verbs).
struct FabricMetrics {
    registry: Arc<MetricsRegistry>,
    /// Scalar reads and every read WR of a batch.
    read: VerbMetrics,
    /// Scalar writes, every write WR of a batch and every acked replica of
    /// a quorum write.
    write: VerbMetrics,
    /// Wire bytes a pushdown actually moved (request program + reply).
    pushdown: VerbMetrics,
    /// Rows that survived the server-side predicates.
    pushdown_rows: Arc<Counter>,
    /// Fabric bytes a full-page fetch of the same span would have moved
    /// minus what pushdown moved — the verb's whole reason to exist.
    pushdown_bytes_saved: Arc<Counter>,
    quorum_span: SpanId,
    quorum_writes: Arc<Counter>,
    /// Gap between the quorum ack (when the client unblocks) and the
    /// slowest replica's completion; that tail stays on the straggler's
    /// NIC pipe and is paid by whoever touches it next.
    quorum_straggler_lag: Arc<Histogram>,
    batch_span: SpanId,
    batch_doorbells: Arc<Counter>,
    /// Work requests per doorbell. Histograms are duration-typed; batch
    /// sizes are recorded as unitless nanoseconds (1 WR = 1 ns).
    batch_size: Arc<Histogram>,
    /// WAL append-path slice of the quorum traffic: group commits the
    /// engine shipped to the replicated log ring. A subset of
    /// `fabric.quorum.*`, split out so commit latency diagnostics don't
    /// have to untangle log appends from page re-replication.
    wal_appends: Arc<Counter>,
    wal_bytes: Arc<Counter>,
    wal_straggler_lag: Arc<Histogram>,
    mr_registrations: Arc<Counter>,
    mr_bytes: Arc<Counter>,
    connects: Arc<Counter>,
}

impl FabricMetrics {
    fn new(registry: Arc<MetricsRegistry>) -> FabricMetrics {
        let r = &registry;
        FabricMetrics {
            read: VerbMetrics::new(r, "read"),
            write: VerbMetrics::new(r, "write"),
            pushdown: VerbMetrics::new(r, "pushdown"),
            pushdown_rows: r.counter("fabric.pushdown.rows"),
            pushdown_bytes_saved: r.counter("fabric.pushdown.bytes_saved"),
            quorum_span: r.span("net.quorum_write"),
            quorum_writes: r.counter("fabric.quorum.writes"),
            quorum_straggler_lag: r.histogram("fabric.quorum.straggler_lag"),
            batch_span: r.span("net.batch"),
            batch_doorbells: r.counter("fabric.batch.doorbells"),
            batch_size: r.histogram("fabric.batch.size"),
            wal_appends: r.counter("wal.quorum.appends"),
            wal_bytes: r.counter("wal.quorum.bytes"),
            wal_straggler_lag: r.histogram("wal.quorum.straggler_lag"),
            mr_registrations: r.counter("fabric.mr.registrations"),
            mr_bytes: r.counter("fabric.mr.bytes"),
            connects: r.counter("fabric.connects"),
            registry,
        }
    }

    /// The read or the write verb's handles.
    fn dir(&self, read: bool) -> &VerbMetrics {
        if read {
            &self.read
        } else {
            &self.write
        }
    }
}

/// Outcome of one work request inside a doorbell batch
/// ([`Fabric::execute_batch`]).
#[derive(Debug)]
pub struct BatchCompletion {
    /// Virtual instant this WR's bytes finished serializing (monotone in
    /// post order; the last WR lands at the doorbell's completion).
    pub completed_at: remem_sim::SimTime,
    /// Bytes this WR asked to move.
    pub bytes: u64,
    /// Per-WR outcome; failed WRs move no bytes and are not charged.
    pub result: Result<(), NetError>,
}

/// Outcome of a replicated fan-out write ([`Fabric::write_quorum`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuorumWrite {
    /// Replicas targeted (the group size `n`).
    pub replicas: usize,
    /// Replicas that received the bytes and will complete (live ones).
    pub acks: usize,
    /// Acks the client waited for: `⌈(n+1)/2⌉`.
    pub quorum: usize,
    /// Lag between the quorum ack and the slowest replica's completion.
    /// That tail is clock-charged to the straggler's NIC pipe, not the
    /// caller: the next verb touching that NIC pays the catch-up.
    pub straggler_lag: SimDuration,
}

/// One near-memory eval request ([`Fabric::pushdown`]): run `program` over
/// the whole-page span `[offset, offset + len)` of `handle` on the memory
/// server that owns it.
#[derive(Debug, Clone)]
pub struct PushdownRequest<'a> {
    pub handle: MrHandle,
    pub offset: u64,
    pub len: u64,
    pub program: &'a PushdownProgram,
}

/// Outcome of one pushdown RPC: the compacted payload (filtered/projected
/// row encodings, or one `PartialAgg` encoding) plus the eval accounting
/// callers use for compute-capacity bookkeeping.
#[derive(Debug, Clone)]
pub struct PushdownReply {
    pub payload: Vec<u8>,
    /// Rows the server's eval engine visited (charged per row).
    pub rows_scanned: u64,
    /// Rows that survived the predicates (and projection).
    pub rows_matched: u64,
    /// Page bytes streamed through the server's eval engine (`len`).
    pub bytes_scanned: u64,
    /// CPU charged on the memory server's cores for this eval — what
    /// brokers debit against a server's compute capacity.
    pub server_cpu: SimDuration,
}

/// Per-protocol cost parameters resolved from [`NetConfig`].
struct ProtocolCosts {
    bandwidth: u64,
    op_overhead: SimDuration,
    fixed_latency: SimDuration,
    remote_cpu_per_op: SimDuration,
    remote_cpu_per_kib: SimDuration,
}

impl ProtocolCosts {
    /// CPU the target spends on `ops` requests moving `bytes`. TCP involves
    /// the remote CPU per transfer; RDMA bypasses it. This is the entire
    /// mechanism behind Fig. 13, and batching doorbells does not hide it.
    fn remote_cpu(&self, ops: u64, bytes: u64) -> SimDuration {
        self.remote_cpu_per_op * ops
            + SimDuration::from_nanos(self.remote_cpu_per_kib.as_nanos() * bytes.div_ceil(1024))
    }

    /// A chain leg of `ops` requests moving `bytes` to `to`, with the CPU
    /// the target spends on them.
    fn leg<'s>(&self, to: &'s Server, ops: u64, bytes: u64) -> Leg<'s> {
        let cpu = self.remote_cpu(ops, bytes);
        Leg { to, bytes, cpu }
    }

    /// Post one doorbell chain from `from` at `at`: `from`'s pipe is
    /// reserved once for every leg's bytes behind one op overhead, then,
    /// leg by leg, the target's pipe from that grant's start (the transfer
    /// is pipelined through both, so the busier pipe gates it) and the
    /// target's CPU. Returns the local grant and each leg's end. Every NIC
    /// reservation in the fabric is made here.
    fn fan_out(&self, from: &Server, at: SimTime, legs: &[Leg<'_>]) -> (Grant, Vec<SimTime>) {
        let total = legs.iter().map(|l| l.bytes).sum();
        let local = from
            .nic()
            .reserve(at, total, self.bandwidth, self.op_overhead);
        let ends = legs
            .iter()
            .map(|l| {
                let nic = l.to.nic();
                let end = nic
                    .reserve(local.start, l.bytes, self.bandwidth, self.op_overhead)
                    .end;
                if l.cpu.is_zero() {
                    end
                } else {
                    l.to.cpu().execute(end, l.cpu).end
                }
            })
            .collect();
        (local, ends)
    }

    /// Complete a chain the caller spins on: the later of the local pipe
    /// and every leg, plus the fixed latency, then the injected delay.
    fn settle(&self, clock: &mut Clock, (local, ends): (Grant, Vec<SimTime>), extra: SimDuration) {
        let end = ends.into_iter().fold(local.end, SimTime::max);
        clock.advance_to(end + self.fixed_latency);
        clock.advance(extra);
    }
}

/// One target of a doorbell chain: `bytes` through `to`'s pipe, then `cpu`
/// on its cores.
struct Leg<'s> {
    to: &'s Server,
    bytes: u64,
    cpu: SimDuration,
}

/// The local end of a one-sided verb.
enum Dir<'b> {
    Read(&'b mut [u8]),
    Write(&'b [u8]),
}

/// One verb in flight ([`Fabric::begin`]): its span is open and one WR is
/// posted to the ledger of each server pair it touches.
struct VerbScope<'f> {
    fabric: &'f Fabric,
    pairs: Vec<(ServerId, ServerId)>,
    metrics: Option<(Arc<FabricMetrics>, SpanToken)>,
    t0: SimTime,
}

impl VerbScope<'_> {
    /// Add one to the field `pick` selects of every pair's ledger.
    fn tally(&self, pick: fn(&mut (u64, u64)) -> &mut u64) {
        let mut stats = self.fabric.wr_stats.lock();
        for &pair in &self.pairs {
            *pick(stats.entry(pair).or_default()) += 1;
        }
    }

    /// Close the verb at `now`: complete its WRs, exit its span, and hand
    /// its outcome and latency to `publish`.
    fn end<T>(self, now: SimTime, out: &T, publish: impl FnOnce(&FabricMetrics, &T, SimDuration)) {
        self.tally(|(_, completed)| completed);
        if let Some((fm, token)) = self.metrics {
            fm.registry.span_exit(token, now);
            publish(&fm, out, now.since(self.t0));
        }
    }
}

/// The cluster: a set of servers connected by a non-blocking switch.
///
/// All remote-memory data movement goes through [`Fabric::read`] /
/// [`Fabric::write`], which move real bytes and charge virtual time on both
/// NICs (and, for TCP, the remote CPU — reproducing Fig. 13).
pub struct Fabric {
    cfg: NetConfig,
    servers: RwLock<Vec<Arc<Server>>>,
    // ordered set: connection teardown sweeps iterate it, and hash order
    // would leak into replay
    connections: Mutex<BTreeSet<(ServerId, ServerId)>>,
    injector: RwLock<Option<Arc<FaultInjector>>>,
    auditor: RwLock<Option<Arc<Auditor>>>,
    metrics: RwLock<Option<Arc<FabricMetrics>>>,
    /// Lifetime (posted, completed) work requests per ordered server pair:
    /// the auditor's no-leaked-WR invariant is `posted == completed` at
    /// teardown. Ordered: the teardown audit sweep iterates it.
    wr_stats: Mutex<BTreeMap<(ServerId, ServerId), (u64, u64)>>,
}

impl Fabric {
    pub fn new(cfg: NetConfig) -> Fabric {
        Fabric {
            cfg,
            servers: RwLock::new(Vec::new()),
            connections: Mutex::new(BTreeSet::new()),
            injector: RwLock::new(None),
            auditor: RwLock::new(None),
            metrics: RwLock::new(None),
            wr_stats: Mutex::new(BTreeMap::new()),
        }
    }

    /// Attach (or detach) a telemetry registry. Verbs, MR registration and
    /// connection setup then publish counters/histograms under `nic.*` /
    /// `fabric.*` and wrap data movement in `net.read` / `net.write` spans.
    pub fn set_metrics(&self, registry: Option<Arc<MetricsRegistry>>) {
        *self.metrics.write() = registry.map(|r| Arc::new(FabricMetrics::new(r)));
    }

    /// Attach (or detach) a runtime invariant auditor to every NIC in the
    /// fabric — including servers added later.
    pub fn set_auditor(&self, auditor: Option<Arc<Auditor>>) {
        for s in self.servers.read().iter() {
            s.nic().set_auditor(auditor.clone());
        }
        *self.auditor.write() = auditor;
    }

    /// Attach (or detach, with `None`) a fault schedule. Every subsequent
    /// verb consults it.
    pub fn set_fault_injector(&self, injector: Option<Arc<FaultInjector>>) {
        *self.injector.write() = injector;
    }

    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Add a server (Table 3 hardware by default has 20 cores).
    pub fn add_server(&self, name: impl Into<String>, cores: usize) -> ServerId {
        let mut servers = self.servers.write();
        let id = ServerId(servers.len());
        let server = Arc::new(Server::new(id, name, cores, &self.cfg));
        if let Some(a) = self.auditor.read().as_ref() {
            server.nic().set_auditor(Some(Arc::clone(a)));
        }
        servers.push(server);
        id
    }

    pub fn server(&self, id: ServerId) -> Result<Arc<Server>, NetError> {
        self.servers
            .read()
            .get(id.0)
            .cloned()
            .ok_or(NetError::NoSuchServer(id))
    }

    pub fn server_count(&self) -> usize {
        self.servers.read().len()
    }

    /// Server `id` out of the table, provided it exists and is up.
    fn live(servers: &[Arc<Server>], id: ServerId) -> Result<&Arc<Server>, NetError> {
        let s = servers.get(id.0).ok_or(NetError::NoSuchServer(id))?;
        if !s.is_alive() {
            return Err(NetError::ServerDown(id));
        }
        Ok(s)
    }

    /// Set up a queue pair between two servers ("Open" in Table 2). Charges
    /// the connection setup time to `clock`. Idempotent.
    pub fn connect(&self, clock: &mut Clock, from: ServerId, to: ServerId) -> Result<(), NetError> {
        Self::live(&self.servers.read(), from)?;
        Self::live(&self.servers.read(), to)?;
        // verbs hold the metrics guard and then look the pair up here, so
        // this lock must be released before the metrics are touched
        let fresh = self.connections.lock().insert(ordered(from, to));
        if fresh {
            clock.advance(self.cfg.connect_time);
            if let Some(m) = self.metrics.read().as_ref() {
                m.connects.incr();
            }
        }
        Ok(())
    }

    /// Tear down the queue pair ("Close" in Table 2). If an auditor is
    /// attached, the pair's work-request ledger is checked: every WR ever
    /// posted between the two servers must have produced a completion
    /// (successful or errored) — a real QP transitioning to error state
    /// flushes its queues the same way.
    pub fn disconnect(&self, from: ServerId, to: ServerId) {
        self.connections.lock().remove(&ordered(from, to));
        self.verify_wr_balance(from, to);
    }

    /// Lifetime (posted, completed) work-request counts between two servers.
    pub(crate) fn wr_counts(&self, a: ServerId, b: ServerId) -> (u64, u64) {
        let stats = self.wr_stats.lock();
        stats.get(&ordered(a, b)).copied().unwrap_or_default()
    }

    /// Audit the WR ledger of one pair: posts == completions (no WR leaked
    /// in flight). Registration happens at teardown, so violations are
    /// stamped `SimTime::ZERO` like the NIC's registration invariants.
    fn verify_wr_balance(&self, a: ServerId, b: ServerId) {
        let guard = self.auditor.read();
        let Some(aud) = guard.as_ref() else { return };
        let (posted, completed) = self.wr_counts(a, b);
        aud.check_balance(
            remem_sim::SimTime::ZERO,
            "qp",
            "wr-conservation",
            ("posted", posted as i128),
            &[("completed", completed as i128)],
        );
    }

    /// Attribute an already-costed quorum write to the WAL append path.
    ///
    /// Pure telemetry: the caller (the engine's remote WAL, via the ring)
    /// has already paid the clock inside [`Fabric::write_quorum`]; this
    /// just files the group commit under `wal.quorum.*` so log traffic is
    /// separable from page re-replication in the same registry.
    pub fn note_wal_append(&self, bytes: u64, straggler_lag: SimDuration) {
        if let Some(fm) = self.metrics.read().as_ref() {
            fm.wal_appends.incr();
            fm.wal_bytes.add(bytes);
            fm.wal_straggler_lag.record(straggler_lag);
        }
    }

    pub(crate) fn is_connected(&self, a: ServerId, b: ServerId) -> bool {
        a == b || self.connections.lock().contains(&ordered(a, b))
    }

    /// Register `len` bytes of pinned memory on `server`, charging the
    /// registration cost to `clock` (the memory-broker proxy pays this once
    /// at startup — the pre-registration decision of Table 1).
    pub fn register_mr(
        &self,
        clock: &mut Clock,
        server: ServerId,
        len: u64,
    ) -> Result<MrHandle, NetError> {
        let s = Arc::clone(Self::live(&self.servers.read(), server)?);
        let id = s.nic().register_mr(len)?;
        clock.advance(self.cfg.registration_cost(len));
        if let Some(m) = self.metrics.read().as_ref() {
            m.mr_registrations.incr();
            m.mr_bytes.add(len);
        }
        Ok(MrHandle {
            server,
            mr: id,
            len,
        })
    }

    /// Deregister (unpin) an MR, e.g. when the proxy detects local memory
    /// pressure and returns memory to the OS.
    pub fn deregister_mr(&self, handle: MrHandle) -> Result<(), NetError> {
        let s = self.server(handle.server)?;
        if s.nic().deregister_mr(handle.mr) {
            Ok(())
        } else {
            Err(NetError::NoSuchMr {
                server: handle.server,
                mr: handle.mr,
            })
        }
    }

    fn costs(&self, proto: Protocol) -> ProtocolCosts {
        let c = &self.cfg;
        match proto {
            Protocol::Custom => ProtocolCosts {
                bandwidth: c.nic_bandwidth,
                op_overhead: c.rdma_op_overhead,
                fixed_latency: c.propagation + c.sync_completion,
                remote_cpu_per_op: SimDuration::ZERO,
                remote_cpu_per_kib: SimDuration::ZERO,
            },
            Protocol::SmbDirect => ProtocolCosts {
                bandwidth: c.nic_bandwidth,
                op_overhead: c.rdma_op_overhead + c.smbdirect_op_overhead,
                fixed_latency: c.propagation + c.async_completion,
                remote_cpu_per_op: SimDuration::from_micros(2),
                remote_cpu_per_kib: SimDuration::ZERO,
            },
            Protocol::SmbTcp => ProtocolCosts {
                bandwidth: c.tcp_bandwidth,
                op_overhead: c.tcp_op_overhead,
                fixed_latency: c.tcp_fixed_latency,
                remote_cpu_per_op: c.tcp_remote_cpu_per_op,
                remote_cpu_per_kib: c.tcp_remote_cpu_per_kib,
            },
        }
    }

    /// Check one transfer between `local` and `[offset, offset + len)` of
    /// `handle`, resolving both ends out of `servers` (the caller's read
    /// guard on the server table, held for the verb) and the region.
    fn validate<'s>(
        &self,
        servers: &'s [Arc<Server>],
        local: ServerId,
        handle: MrHandle,
        offset: u64,
        len: u64,
    ) -> Result<(&'s Server, &'s Server, MemoryRegion), NetError> {
        let local_srv = Self::live(servers, local)?;
        let remote = Self::live(servers, handle.server)?;
        if !self.is_connected(local, handle.server) {
            return Err(NetError::NotConnected {
                from: local,
                to: handle.server,
            });
        }
        let mr = remote.nic().mr(handle.mr).ok_or(NetError::NoSuchMr {
            server: handle.server,
            mr: handle.mr,
        })?;
        if offset.checked_add(len).is_none_or(|end| end > mr.len()) {
            return Err(NetError::OutOfBounds {
                mr: handle.mr,
                offset,
                len,
                mr_len: mr.len(),
            });
        }
        Ok((local_srv, remote, mr))
    }

    /// Consult the attached fault schedule (if any) for one verb at `now`:
    /// the injected delay, charged after the normal transfer cost, or the
    /// injected failure.
    fn consult_injector(
        &self,
        now: SimTime,
        local: ServerId,
        remote: ServerId,
        offset: u64,
    ) -> Result<SimDuration, NetError> {
        match self.injector.read().as_ref() {
            Some(inj) => inj.inject(now, local, remote, offset),
            None => Ok(SimDuration::ZERO),
        }
    }

    /// Open one verb at `t0`: enter its span (picked out of the metrics by
    /// `span`) and post one WR to the ledger of `local` and each of
    /// `peers`. [`VerbScope::end`] closes it, whatever the outcome.
    fn begin(
        &self,
        t0: SimTime,
        span: impl FnOnce(&FabricMetrics) -> SpanId,
        local: ServerId,
        peers: impl Iterator<Item = ServerId>,
    ) -> VerbScope<'_> {
        let metrics = self.metrics.read().clone().map(|fm| {
            let token = fm.registry.span_enter_id(span(&fm), t0);
            (fm, token)
        });
        let scope = VerbScope {
            fabric: self,
            pairs: peers.map(|p| ordered(local, p)).collect(),
            metrics,
            t0,
        };
        scope.tally(|(posted, _)| posted);
        scope
    }

    /// Read `buf.len()` bytes from `handle` at `offset` into `buf`
    /// (an RDMA read / SMB read depending on `proto`).
    pub fn read(
        &self,
        clock: &mut Clock,
        proto: Protocol,
        local: ServerId,
        handle: MrHandle,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<(), NetError> {
        self.one_sided(clock, proto, local, handle, offset, Dir::Read(buf))
    }

    /// Write `data` into `handle` at `offset`.
    pub fn write(
        &self,
        clock: &mut Clock,
        proto: Protocol,
        local: ServerId,
        handle: MrHandle,
        offset: u64,
        data: &[u8],
    ) -> Result<(), NetError> {
        self.one_sided(clock, proto, local, handle, offset, Dir::Write(data))
    }

    /// A one-sided verb: a one-WR chain to the MR's server, then the bytes
    /// move in `dir`.
    fn one_sided(
        &self,
        clock: &mut Clock,
        proto: Protocol,
        local: ServerId,
        handle: MrHandle,
        offset: u64,
        dir: Dir<'_>,
    ) -> Result<(), NetError> {
        let (len, read) = match &dir {
            Dir::Read(buf) => (buf.len() as u64, true),
            Dir::Write(data) => (data.len() as u64, false),
        };
        let transfer = |clock: &mut Clock| -> Result<(), NetError> {
            let servers = self.servers.read();
            let (local_srv, remote, mr) = self.validate(&servers, local, handle, offset, len)?;
            let costs = self.costs(proto);
            // an injected failure still costs the time to detect the lost
            // completion
            let extra = self
                .consult_injector(clock.now(), local, handle.server, offset)
                .inspect_err(|_| clock.advance(costs.fixed_latency))?;
            let chain = costs.fan_out(local_srv, clock.now(), &[costs.leg(remote, 1, len)]);
            costs.settle(clock, chain, extra);
            match dir {
                Dir::Read(buf) => mr.read_into(offset, buf),
                Dir::Write(data) => mr.write_from(offset, data),
            }
            Ok(())
        };
        let peer = once(handle.server);
        let scope = self.begin(clock.now(), |fm| fm.dir(read).span, local, peer);
        let res = transfer(clock);
        scope.end(clock.now(), &res, |fm, res, lat| {
            fm.dir(read).record(res.is_ok().then_some((1, len, lat)))
        });
        res
    }

    /// Run a pushdown program over a page span of `handle` *near the
    /// memory*: a two-sided RPC that ships the tiny program out, evaluates
    /// predicates/projection/partial-aggregates on the memory server's own
    /// cores, and returns only the compacted payload.
    ///
    /// Cost model (all on virtual time, deterministic):
    /// * request: a one-WR chain of `program.encoded_len()` bytes to the
    ///   memory server;
    /// * eval: [`NetConfig::pushdown_eval_cost`] executed on the **memory
    ///   server's CPU pool**, where it contends with every other tenant —
    ///   plus the protocol's usual remote-CPU charge on the reply bytes
    ///   (TCP pays the kernel path, RDMA-based protocols don't);
    /// * reply: a one-WR chain of `payload.len()` bytes from the memory
    ///   server back, posted when the eval ends, then the protocol's fixed
    ///   latency.
    ///
    /// Unlike one-sided reads, wire bytes scale with the *result*, not the
    /// span — the Farview/REMOP trade the planner prices against plain
    /// [`Fabric::read`].
    pub fn pushdown(
        &self,
        clock: &mut Clock,
        proto: Protocol,
        local: ServerId,
        req: &PushdownRequest<'_>,
    ) -> Result<PushdownReply, NetError> {
        let request_bytes = req.program.encoded_len() as u64;
        let eval = |clock: &mut Clock| -> Result<PushdownReply, NetError> {
            let servers = self.servers.read();
            let (local_srv, remote, mr) =
                self.validate(&servers, local, req.handle, req.offset, req.len)?;
            let costs = self.costs(proto);
            let extra = self
                .consult_injector(clock.now(), local, req.handle.server, req.offset)
                .inspect_err(|_| clock.advance(costs.fixed_latency))?;
            let mut span_bytes = vec![0u8; req.len as usize];
            mr.read_into(req.offset, &mut span_bytes);
            let mut payload = Vec::new();
            let stats = remem_storage::eval_pages(&span_bytes, req.program, &mut payload).map_err(
                |_| NetError::BadPushdown {
                    reason: "span is not a whole number of 8 KiB pages",
                },
            )?;
            let reply_bytes = payload.len() as u64;
            let request = Leg {
                to: remote,
                bytes: request_bytes,
                cpu: SimDuration::ZERO,
            };
            let (_, arrived) = costs.fan_out(local_srv, clock.now(), &[request]);
            // eval on the memory server's cores, contending with other tenants
            let server_cpu = self.cfg.pushdown_eval_cost(stats.rows_scanned, req.len)
                + costs.remote_cpu(1, reply_bytes);
            let evaluated = remote.cpu().execute(arrived[0], server_cpu).end;
            // reply back: only the compacted payload crosses the fabric
            let reply = Leg {
                to: local_srv,
                bytes: reply_bytes,
                cpu: SimDuration::ZERO,
            };
            let chain = costs.fan_out(remote, evaluated, &[reply]);
            costs.settle(clock, chain, extra);
            Ok(PushdownReply {
                payload,
                rows_scanned: stats.rows_scanned,
                rows_matched: stats.rows_matched,
                bytes_scanned: req.len,
                server_cpu,
            })
        };
        let peer = once(req.handle.server);
        let scope = self.begin(clock.now(), |fm| fm.pushdown.span, local, peer);
        let res = eval(clock);
        scope.end(clock.now(), &res, |fm, res, lat| {
            let wire = |r: &PushdownReply| request_bytes + r.payload.len() as u64;
            let res = res.as_ref().ok();
            fm.pushdown.record(res.map(|r| (1, wire(r), lat)));
            if let Some(r) = res {
                fm.pushdown_rows.add(r.rows_matched);
                fm.pushdown_bytes_saved
                    .add(r.bytes_scanned.saturating_sub(wire(r)));
            }
        });
        res
    }

    /// Fan `data` out to every replica in `targets` behind one doorbell,
    /// completing at the **quorum-th** ack (`⌈(n+1)/2⌉` of `n` targets).
    ///
    /// Semantics:
    /// * the bytes land on **every live** replica — only the caller's wait
    ///   is quorum-gated, so an acked write is readable from any survivor;
    /// * a dead replica (`ServerDown`, or its MR deregistered by the crash)
    ///   moves no bytes and never acks; if the live count drops below the
    ///   quorum the whole write fails after one detection latency and the
    ///   caller must refresh its replica view;
    /// * a replica inside a transient fault window still gets the bytes —
    ///   the reliable transport retransmits — but its ack is delayed, which
    ///   can push the quorum instant out (straggler);
    /// * replicas slower than the quorum ack keep their NIC pipes busy past
    ///   the caller's unblock: the catch-up is charged to whoever touches
    ///   that NIC next, not to this write. So is the tail of the local pipe,
    ///   which serializes every live replica's copy: unlike a batch, the
    ///   ack does not wait for it;
    /// * malformed requests (`OutOfBounds`, `NotConnected`, unknown server)
    ///   fail the write as a unit without moving bytes or charging time.
    pub fn write_quorum(
        &self,
        clock: &mut Clock,
        proto: Protocol,
        local: ServerId,
        targets: &[(MrHandle, u64)],
        data: &[u8],
    ) -> Result<QuorumWrite, NetError> {
        assert!(
            !targets.is_empty(),
            "quorum write needs at least one replica"
        );
        let bytes = data.len() as u64;
        let peers = targets.iter().map(|(h, _)| h.server);
        let scope = self.begin(clock.now(), |fm| fm.quorum_span, local, peers);
        let res = self.write_quorum_inner(clock, proto, local, targets, data);
        scope.end(clock.now(), &res, |fm, res, lat| {
            let res = res.as_ref().ok();
            let acks = |q: &QuorumWrite| q.acks as u64;
            fm.write
                .record(res.map(|q| (acks(q), bytes * acks(q), lat)));
            if let Some(q) = res {
                fm.quorum_writes.incr();
                fm.quorum_straggler_lag.record(q.straggler_lag);
            }
        });
        res
    }

    fn write_quorum_inner(
        &self,
        clock: &mut Clock,
        proto: Protocol,
        local: ServerId,
        targets: &[(MrHandle, u64)],
        data: &[u8],
    ) -> Result<QuorumWrite, NetError> {
        let costs = self.costs(proto);
        let n = targets.len();
        let quorum = (n + 2) / 2; // ⌈(n+1)/2⌉: 1→1, 2→2, 3→2, 5→3
        let servers = self.servers.read();
        let local_srv = Self::live(&servers, local)?;
        let bytes = data.len() as u64;
        // resolve replicas: a dead one just can't ack; anything structurally
        // wrong fails the WR as a unit
        let mut live = Vec::new();
        let mut down: Option<NetError> = None;
        for (handle, offset) in targets {
            match self.validate(&servers, local, *handle, *offset, bytes) {
                Ok((_, remote, mr)) => live.push((remote, mr, *offset)),
                Err(e @ (NetError::ServerDown(_) | NetError::NoSuchMr { .. })) => {
                    down.get_or_insert(e);
                }
                Err(structural) => return Err(structural),
            }
        }
        // fault schedule: a transient window delays that replica's ack (the
        // transport retransmits, bytes still land); a blackout kills it
        let mut acking = Vec::new();
        for (remote, mr, offset) in live {
            match self.consult_injector(clock.now(), local, remote.id(), offset) {
                Ok(extra) => acking.push((remote, mr, offset, extra)),
                // retransmit penalty: the ack arrives, late
                Err(NetError::Transient { .. }) => {
                    acking.push((remote, mr, offset, costs.fixed_latency * 4));
                }
                Err(e) => {
                    down.get_or_insert(e);
                }
            }
        }
        if acking.len() < quorum {
            // not enough acks can ever arrive: one detection latency, no
            // bytes move anywhere (the client must re-issue against a
            // refreshed replica view, so partial delivery never counts)
            clock.advance(costs.fixed_latency);
            return Err(down.unwrap_or(NetError::ServerDown(targets[0].0.server)));
        }
        // one doorbell posts the whole fan-out chain, one copy per replica
        let legs: Vec<Leg<'_>> = acking
            .iter()
            .map(|(remote, ..)| costs.leg(remote, 1, bytes))
            .collect();
        let (_, ends) = costs.fan_out(local_srv, clock.now(), &legs);
        let mut acks: Vec<SimTime> = ends
            .iter()
            .zip(&acking)
            .map(|(&end, (.., extra))| end + costs.fixed_latency + *extra)
            .collect();
        acks.sort_unstable();
        let ack_at = acks[quorum - 1];
        let slowest = acks.last().copied().unwrap_or(ack_at);
        clock.advance_to(ack_at);
        for (_, mr, offset, _) in &acking {
            mr.write_from(*offset, data);
        }
        Ok(QuorumWrite {
            replicas: n,
            acks: acking.len(),
            quorum,
            straggler_lag: slowest.since(ack_at),
        })
    }

    /// Execute a chain of vectored work requests behind **one doorbell**.
    ///
    /// Cost model (Appendix A + "The End of Slow Networks"): posting a
    /// linked WQE chain costs a single `op_overhead` on the local pipe —
    /// the doorbell — after which all bytes serialize at line rate. Each
    /// remote NIC touched pays one `op_overhead` for its half of the
    /// pipeline plus its share of the bytes; `fixed_latency` is paid once
    /// for the whole chain, because the caller only spins on the *last*
    /// completion. This is what makes deep queues approach NIC bandwidth
    /// while scalar verbs flatline at the per-op ceiling (`repro_qd_sweep`).
    ///
    /// Per-WR semantics: a WR that fails validation or is killed by the
    /// fault schedule completes with an error and its bytes are neither
    /// charged nor moved; the surviving WRs still execute — completion
    /// order (and `completed_at` monotonicity) is preserved in post order.
    pub fn execute_batch(
        &self,
        clock: &mut Clock,
        proto: Protocol,
        local: ServerId,
        wrs: &mut [WorkRequest<'_>],
    ) -> Vec<BatchCompletion> {
        if wrs.is_empty() {
            return Vec::new();
        }
        let t0 = clock.now();
        let peers = wrs.iter().filter_map(|wr| wr.target()).map(|t| t.0);
        let scope = self.begin(t0, |fm| fm.batch_span, local, peers);
        let done = self.execute_batch_inner(clock, proto, local, wrs);
        scope.end(clock.now(), &done, |fm, done, _| {
            fm.batch_doorbells.incr();
            fm.batch_size
                .record(SimDuration::from_nanos(done.len() as u64));
            for (wr, c) in wrs.iter().zip(done) {
                let read = matches!(wr, WorkRequest::Read(_));
                let lat = c.completed_at.since(t0);
                fm.dir(read)
                    .record(c.result.is_ok().then_some((1, c.bytes, lat)));
            }
        });
        done
    }

    fn execute_batch_inner(
        &self,
        clock: &mut Clock,
        proto: Protocol,
        local: ServerId,
        wrs: &mut [WorkRequest<'_>],
    ) -> Vec<BatchCompletion> {
        let costs = self.costs(proto);
        let servers = self.servers.read();
        // Validate every SGE up front: each must hit a live, connected,
        // in-bounds MR, and a WR fails as a unit (the NIC rejects the whole
        // WQE at post time). A plan is the resolved region per SGE.
        let mut plans: Vec<Result<Vec<MemoryRegion>, NetError>> = wrs
            .iter()
            .map(|wr| {
                wr.sges()
                    .into_iter()
                    .map(|(mr, off, len)| Ok(self.validate(&servers, local, mr, off, len)?.2))
                    .collect()
            })
            .collect();
        // Consult the fault schedule once per surviving WR. Injected
        // slowness delays the whole chain by the worst window hit (the
        // chain completes when its slowest member does).
        let mut extra = SimDuration::ZERO;
        for (wr, plan) in wrs.iter().zip(plans.iter_mut()) {
            if let (Ok(_), Some((server, offset))) = (&plan, wr.target()) {
                match self.consult_injector(clock.now(), local, server, offset) {
                    Ok(e) => extra = extra.max(e),
                    Err(err) => {
                        clock.advance(costs.fixed_latency);
                        *plan = Err(err);
                    }
                }
            }
        }
        // Aggregate surviving bytes/ops per remote NIC: one leg each.
        let mut per_server: BTreeMap<ServerId, (u64, u64)> = BTreeMap::new();
        for (wr, _) in wrs.iter().zip(&plans).filter(|(_, p)| p.is_ok()) {
            if let Some((server, _)) = wr.target() {
                let e = per_server.entry(server).or_default();
                e.0 += wr.bytes();
                e.1 += 1;
            }
        }
        // validation proved `local` live for every surviving WR
        let doorbell = match Self::live(&servers, local) {
            Ok(local_srv) if plans.iter().any(|p| p.is_ok()) => {
                let legs: Vec<Leg<'_>> = per_server
                    .iter()
                    .filter_map(|(&s, &(bytes, ops))| {
                        Some(costs.leg(servers.get(s.0)?, ops, bytes))
                    })
                    .collect();
                let chain = costs.fan_out(local_srv, clock.now(), &legs);
                let start = chain.0.start;
                costs.settle(clock, chain, extra);
                Some(start)
            }
            _ => None,
        };

        // Move the bytes and stamp per-WR completions: WR i completes once
        // the chain has serialized the cumulative bytes through i, so
        // completions are monotone in post order and the last one lands at
        // the doorbell's end.
        let final_now = clock.now();
        let mut cum = 0u64;
        wrs.iter_mut()
            .zip(plans)
            .map(|(wr, plan)| {
                let bytes = wr.bytes();
                let (completed_at, result) = match plan {
                    Ok(regions) => {
                        cum += bytes;
                        wr.execute(&regions);
                        let at = doorbell.map_or(final_now, |start| {
                            let serialized = start
                                + costs.op_overhead
                                + SimDuration::for_transfer(cum, costs.bandwidth);
                            final_now.min(serialized + costs.fixed_latency)
                        });
                        (at, Ok(()))
                    }
                    Err(e) => (final_now, Err(e)),
                };
                BatchCompletion {
                    completed_at,
                    bytes,
                    result,
                }
            })
            .collect()
    }

    /// Direct peek at remote memory without charging time — used only by
    /// tests and assertions, never by the modelled system.
    pub fn peek(&self, handle: MrHandle, offset: u64, buf: &mut [u8]) -> Result<(), NetError> {
        let s = self.server(handle.server)?;
        let mr = s.nic().mr(handle.mr).ok_or(NetError::NoSuchMr {
            server: handle.server,
            mr: handle.mr,
        })?;
        let len = buf.len() as u64;
        if offset.checked_add(len).is_none_or(|end| end > mr.len()) {
            return Err(NetError::OutOfBounds {
                mr: handle.mr,
                offset,
                len,
                mr_len: mr.len(),
            });
        }
        mr.read_into(offset, buf);
        Ok(())
    }
}

fn ordered(a: ServerId, b: ServerId) -> (ServerId, ServerId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remem_sim::{ClosedLoopDriver, Histogram, SimTime};
    use remem_storage::{Page, Row, Value};

    fn two_server_fabric() -> (Fabric, ServerId, ServerId, MrHandle) {
        let fabric = Fabric::new(NetConfig::default());
        let db = fabric.add_server("DB1", 20);
        let mem = fabric.add_server("M1", 20);
        let mut proxy_clock = Clock::new();
        let handle = fabric.register_mr(&mut proxy_clock, mem, 1 << 20).unwrap();
        let mut clock = Clock::new();
        fabric.connect(&mut clock, db, mem).unwrap();
        (fabric, db, mem, handle)
    }

    #[test]
    fn rdma_moves_real_bytes() {
        let (fabric, db, _mem, handle) = two_server_fabric();
        let mut clock = Clock::new();
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        fabric
            .write(&mut clock, Protocol::Custom, db, handle, 4096, &data)
            .unwrap();
        let mut out = vec![0u8; 8192];
        fabric
            .read(&mut clock, Protocol::Custom, db, handle, 4096, &mut out)
            .unwrap();
        assert_eq!(out, data);
    }

    /// Build one engine-format slotted page of `(key, key as f64 * 10.0)`
    /// rows for keys `0..n`.
    fn rows_page(n: usize) -> Vec<u8> {
        let mut page = Page::new();
        for i in 0..n {
            let row = Row::new(vec![Value::Int(i as i64), Value::Float(i as f64 * 10.0)]);
            page.insert(&row.to_bytes()).unwrap();
        }
        page.as_bytes().to_vec()
    }

    fn key_lt(v: i64) -> PushdownProgram {
        PushdownProgram {
            predicates: vec![remem_storage::Predicate {
                col: 0,
                op: remem_storage::CmpOp::Lt,
                value: Value::Int(v),
            }],
            ..Default::default()
        }
    }

    #[test]
    fn pushdown_filters_near_memory_and_shrinks_wire_bytes() {
        let (fabric, db, _mem, handle) = two_server_fabric();
        let registry = Arc::new(MetricsRegistry::new());
        fabric.set_metrics(Some(Arc::clone(&registry)));
        let mut clock = Clock::new();
        let page = rows_page(16);
        fabric
            .write(&mut clock, Protocol::Custom, db, handle, 0, &page)
            .unwrap();
        let prog = key_lt(4);
        let reply = fabric
            .pushdown(
                &mut clock,
                Protocol::Custom,
                db,
                &PushdownRequest {
                    handle,
                    offset: 0,
                    len: 8192,
                    program: &prog,
                },
            )
            .unwrap();
        assert_eq!((reply.rows_scanned, reply.rows_matched), (16, 4));
        // payload is exactly the 4 matching rows, engine row encoding
        let mut expect = Vec::new();
        remem_storage::eval_pages(&page, &prog, &mut expect).unwrap();
        assert_eq!(reply.payload, expect);
        assert!(reply.server_cpu > SimDuration::ZERO);
        // far fewer wire bytes than the full page fetch it replaces
        let wire = registry.counter("fabric.pushdown.bytes").get();
        assert!(wire < 8192 / 4, "wire bytes {wire}");
        assert_eq!(registry.counter("nic.pushdown.ops").get(), 1);
        assert_eq!(
            registry.counter("fabric.pushdown.bytes_saved").get(),
            8192 - wire
        );
        assert_eq!(registry.span_stats("net.pushdown").count, 1);
    }

    #[test]
    fn pushdown_charges_the_memory_servers_cpu() {
        let (fabric, db, mem, handle) = two_server_fabric();
        let mut clock = Clock::new();
        let page = rows_page(32);
        fabric
            .write(&mut clock, Protocol::Custom, db, handle, 0, &page)
            .unwrap();
        let remote = fabric.server(mem).unwrap();
        let before = clock.now();
        let prog = key_lt(1);
        let reply = fabric
            .pushdown(
                &mut clock,
                Protocol::Custom,
                db,
                &PushdownRequest {
                    handle,
                    offset: 0,
                    len: 8192,
                    program: &prog,
                },
            )
            .unwrap();
        // the eval cost showed up on the memory server's core pool, not
        // just as latency — Custom reads never touch that pool
        assert!(remote.cpu().utilization(clock.now()) > 0.0);
        assert_eq!(
            reply.server_cpu,
            fabric.config().pushdown_eval_cost(32, 8192)
        );
        assert!(clock.now() > before);
    }

    #[test]
    fn pushdown_rejects_unaligned_spans() {
        let (fabric, db, _mem, handle) = two_server_fabric();
        let mut clock = Clock::new();
        let prog = key_lt(1);
        let err = fabric
            .pushdown(
                &mut clock,
                Protocol::Custom,
                db,
                &PushdownRequest {
                    handle,
                    offset: 0,
                    len: 100,
                    program: &prog,
                },
            )
            .unwrap_err();
        assert!(matches!(err, NetError::BadPushdown { .. }));
    }

    #[test]
    fn pushdown_respects_fault_windows() {
        let (fabric, db, mem, handle) = two_server_fabric();
        let inj = crate::fault::FaultInjector::new(7).flaky_window(
            mem,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_secs(1),
            1.0,
        );
        fabric.set_fault_injector(Some(Arc::new(inj)));
        let mut clock = Clock::new();
        let prog = key_lt(1);
        let err = fabric
            .pushdown(
                &mut clock,
                Protocol::Custom,
                db,
                &PushdownRequest {
                    handle,
                    offset: 0,
                    len: 8192,
                    program: &prog,
                },
            )
            .unwrap_err();
        assert!(matches!(err, NetError::Transient { .. }), "{err:?}");
        // after the window clears, the same request succeeds
        clock.advance(SimDuration::from_secs(2));
        fabric
            .pushdown(
                &mut clock,
                Protocol::Custom,
                db,
                &PushdownRequest {
                    handle,
                    offset: 0,
                    len: 8192,
                    program: &prog,
                },
            )
            .unwrap();
    }

    fn replica_fabric(k: usize) -> (Fabric, ServerId, Vec<ServerId>, Vec<MrHandle>) {
        let fabric = Fabric::new(NetConfig::default());
        let db = fabric.add_server("DB1", 20);
        let mut donors = Vec::new();
        let mut handles = Vec::new();
        let mut clock = Clock::new();
        for i in 0..k {
            let m = fabric.add_server(format!("M{i}"), 20);
            let h = fabric.register_mr(&mut clock, m, 1 << 20).unwrap();
            fabric.connect(&mut clock, db, m).unwrap();
            donors.push(m);
            handles.push(h);
        }
        (fabric, db, donors, handles)
    }

    #[test]
    fn quorum_write_lands_on_every_live_replica() {
        let (fabric, db, _donors, handles) = replica_fabric(3);
        let mut clock = Clock::new();
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 241) as u8).collect();
        let targets: Vec<(MrHandle, u64)> = handles.iter().map(|h| (*h, 0)).collect();
        let q = fabric
            .write_quorum(&mut clock, Protocol::Custom, db, &targets, &data)
            .unwrap();
        assert_eq!((q.replicas, q.acks, q.quorum), (3, 3, 2));
        for h in &handles {
            let mut out = vec![0u8; 8192];
            fabric
                .read(&mut clock, Protocol::Custom, db, *h, 0, &mut out)
                .unwrap();
            assert_eq!(out, data);
        }
    }

    #[test]
    fn quorum_survives_minority_crash_and_fails_below_quorum() {
        let (fabric, db, donors, handles) = replica_fabric(3);
        let mut clock = Clock::new();
        let data = vec![7u8; 4096];
        let targets: Vec<(MrHandle, u64)> = handles.iter().map(|h| (*h, 0)).collect();
        fabric.server(donors[2]).unwrap().fail();
        let q = fabric
            .write_quorum(&mut clock, Protocol::Custom, db, &targets, &data)
            .unwrap();
        assert_eq!((q.replicas, q.acks, q.quorum), (3, 2, 2));
        for h in &handles[..2] {
            let mut out = vec![0u8; 4096];
            fabric
                .read(&mut clock, Protocol::Custom, db, *h, 0, &mut out)
                .unwrap();
            assert_eq!(out, data);
        }
        // a second crash drops the live count below the quorum: the write
        // fails as a unit and must not leave partial bytes anywhere
        fabric.server(donors[1]).unwrap().fail();
        let fresh = vec![9u8; 4096];
        let err = fabric
            .write_quorum(&mut clock, Protocol::Custom, db, &targets, &fresh)
            .unwrap_err();
        assert!(matches!(err, NetError::ServerDown(_)));
        let mut out = vec![0u8; 4096];
        fabric
            .read(&mut clock, Protocol::Custom, db, handles[0], 0, &mut out)
            .unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn straggler_ack_does_not_gate_the_quorum() {
        let run = |slow: bool| {
            let (fabric, db, donors, handles) = replica_fabric(3);
            if slow {
                let inj = FaultInjector::new(1).slow_window(
                    donors[2],
                    SimTime::ZERO,
                    SimTime(1_000_000_000),
                    SimDuration::from_millis(2),
                );
                fabric.set_fault_injector(Some(Arc::new(inj)));
            }
            let targets: Vec<(MrHandle, u64)> = handles.iter().map(|h| (*h, 0)).collect();
            let mut clock = Clock::new();
            let q = fabric
                .write_quorum(
                    &mut clock,
                    Protocol::Custom,
                    db,
                    &targets,
                    &vec![3u8; 65536],
                )
                .unwrap();
            (clock.now(), q.straggler_lag)
        };
        let (t_base, lag_base) = run(false);
        let (t_slow, lag_slow) = run(true);
        assert!(lag_base.is_zero(), "symmetric replicas complete together");
        assert_eq!(
            t_base, t_slow,
            "the quorum ack gates the client, not the straggler"
        );
        assert!(lag_slow >= SimDuration::from_millis(2));
    }

    #[test]
    fn transient_replica_still_receives_the_bytes() {
        let (fabric, db, donors, handles) = replica_fabric(3);
        let inj = FaultInjector::new(2).flaky_window(
            donors[1],
            SimTime::ZERO,
            SimTime(1_000_000_000),
            1.0,
        );
        fabric.set_fault_injector(Some(Arc::new(inj)));
        let mut clock = Clock::new();
        let data = vec![5u8; 8192];
        let targets: Vec<(MrHandle, u64)> = handles.iter().map(|h| (*h, 0)).collect();
        let q = fabric
            .write_quorum(&mut clock, Protocol::Custom, db, &targets, &data)
            .unwrap();
        assert_eq!(q.acks, 3, "a flaky replica acks late, it does not drop out");
        assert!(!q.straggler_lag.is_zero());
        fabric.set_fault_injector(None);
        let mut out = vec![0u8; 8192];
        fabric
            .read(&mut clock, Protocol::Custom, db, handles[1], 0, &mut out)
            .unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn unloaded_rdma_page_read_is_about_10us() {
        let (fabric, db, _mem, handle) = two_server_fabric();
        let mut clock = Clock::new();
        let mut buf = vec![0u8; 8192];
        fabric
            .read(&mut clock, Protocol::Custom, db, handle, 0, &mut buf)
            .unwrap();
        let us = clock.now().as_micros_f64();
        assert!(
            (5.0..=15.0).contains(&us),
            "RDMA 8K read took {us}us, paper says ~10us"
        );
    }

    #[test]
    fn protocol_latency_ordering_matches_fig4() {
        // Unloaded single 8K read: Custom < SMBDirect < SMB+TCP.
        let (fabric, db, _mem, handle) = two_server_fabric();
        let mut lat = Vec::new();
        for proto in Protocol::ALL {
            let mut clock = Clock::new();
            let mut buf = vec![0u8; 8192];
            fabric
                .read(&mut clock, proto, db, handle, 0, &mut buf)
                .unwrap();
            lat.push(clock.now().as_micros_f64());
        }
        assert!(lat[0] < lat[1], "Custom {} !< SMBDirect {}", lat[0], lat[1]);
        assert!(lat[1] < lat[2], "SMBDirect {} !< SMB {}", lat[1], lat[2]);
    }

    /// Reproduces the shape of Fig. 3: with 20 concurrent readers of random
    /// 8K pages, Custom sustains ~4 GB/s, SMBDirect ~1.4 GB/s, TCP ~0.7 GB/s.
    #[test]
    fn fig3_random_read_throughput_shape() {
        let mut tput = Vec::new();
        for proto in Protocol::ALL {
            let (fabric, db, _mem, handle) = two_server_fabric();
            let horizon = SimTime(50_000_000); // 50 ms
            let mut driver = ClosedLoopDriver::new(20, horizon);
            let h = Histogram::new();
            let mut buf = vec![0u8; 8192];
            let ops = driver.run(&h, |_, clock| {
                fabric.read(clock, proto, db, handle, 0, &mut buf).unwrap();
            });
            let gbps = ops as f64 * 8192.0 / horizon.as_secs_f64() / 1e9;
            tput.push(gbps);
        }
        let (custom, smbd, tcp) = (tput[0], tput[1], tput[2]);
        assert!(
            (3.0..=5.0).contains(&custom),
            "Custom random {custom} GB/s (paper 4.27)"
        );
        assert!(
            (1.0..=2.2).contains(&smbd),
            "SMBDirect random {smbd} GB/s (paper 1.36)"
        );
        assert!(
            (0.4..=1.0).contains(&tcp),
            "TCP random {tcp} GB/s (paper 0.64)"
        );
        // paper: Custom ≈ 3.4x SMBDirect on random I/O
        assert!(
            custom / smbd > 2.0,
            "Custom/SMBDirect ratio {}",
            custom / smbd
        );
    }

    #[test]
    fn tcp_consumes_remote_cpu_rdma_does_not() {
        let (fabric, db, mem, handle) = two_server_fabric();
        let horizon = SimTime(10_000_000);
        let mut buf = vec![0u8; 8192];

        let mut driver = ClosedLoopDriver::new(8, horizon);
        let h = Histogram::new();
        driver.run(&h, |_, clock| {
            fabric
                .read(clock, Protocol::Custom, db, handle, 0, &mut buf)
                .unwrap();
        });
        let rdma_cpu = fabric.server(mem).unwrap().cpu().utilization(horizon);

        let (fabric2, db2, mem2, handle2) = two_server_fabric();
        let mut driver2 = ClosedLoopDriver::new(8, horizon);
        let h2 = Histogram::new();
        driver2.run(&h2, |_, clock| {
            fabric2
                .read(clock, Protocol::SmbTcp, db2, handle2, 0, &mut buf)
                .unwrap();
        });
        let tcp_cpu = fabric2.server(mem2).unwrap().cpu().utilization(horizon);

        assert!(rdma_cpu < 0.001, "RDMA remote CPU {rdma_cpu}");
        assert!(tcp_cpu > 0.005, "TCP remote CPU {tcp_cpu}");
    }

    #[test]
    fn dead_server_fails_best_effort() {
        let (fabric, db, mem, handle) = two_server_fabric();
        fabric.server(mem).unwrap().fail();
        let mut clock = Clock::new();
        let mut buf = vec![0u8; 16];
        assert_eq!(
            fabric.read(&mut clock, Protocol::Custom, db, handle, 0, &mut buf),
            Err(NetError::ServerDown(mem))
        );
        // restart: connection and MR metadata still exist in this model,
        // but contents are zeroed only on reregistration — the caller's job.
        fabric.server(mem).unwrap().restart();
        assert!(fabric
            .read(&mut clock, Protocol::Custom, db, handle, 0, &mut buf)
            .is_ok());
    }

    #[test]
    fn unconnected_access_is_rejected() {
        let fabric = Fabric::new(NetConfig::default());
        let db = fabric.add_server("DB1", 4);
        let mem = fabric.add_server("M1", 4);
        let mut clock = Clock::new();
        let handle = fabric.register_mr(&mut clock, mem, 1024).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(
            fabric.read(&mut clock, Protocol::Custom, db, handle, 0, &mut buf),
            Err(NetError::NotConnected { from: db, to: mem })
        );
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let (fabric, db, _mem, handle) = two_server_fabric();
        let mut clock = Clock::new();
        let mut buf = [0u8; 64];
        let err = fabric.read(
            &mut clock,
            Protocol::Custom,
            db,
            handle,
            handle.len - 32,
            &mut buf,
        );
        assert!(matches!(err, Err(NetError::OutOfBounds { .. })));
    }

    #[test]
    fn offsets_near_u64_max_are_out_of_bounds_on_every_verb() {
        use crate::verbs::{ReadSge, WorkRequest};
        let (fabric, db, _mem, handle) = two_server_fabric();
        let mut clock = Clock::new();
        let offset = u64::MAX - 3;
        let oob = |r: Result<(), NetError>| match r {
            Err(e @ NetError::OutOfBounds { .. }) => e.to_string(),
            other => panic!("expected OutOfBounds, got {other:?}"),
        };
        let mut buf = [0u8; 8];
        let mut seen = vec![
            oob(fabric.read(&mut clock, Protocol::Custom, db, handle, offset, &mut buf)),
            oob(fabric.write(&mut clock, Protocol::Custom, db, handle, offset, &buf)),
            oob(fabric
                .write_quorum(&mut clock, Protocol::Custom, db, &[(handle, offset)], &buf)
                .map(|_| ())),
        ];
        let program = key_lt(1);
        let req = PushdownRequest {
            handle,
            offset,
            len: 8,
            program: &program,
        };
        seen.push(oob(fabric
            .pushdown(&mut clock, Protocol::Custom, db, &req)
            .map(|_| ())));
        let mut wrs = vec![WorkRequest::Read(vec![ReadSge {
            mr: handle,
            offset,
            buf: &mut buf,
        }])];
        let done = fabric.execute_batch(&mut clock, Protocol::Custom, db, &mut wrs);
        seen.push(oob(done[0].result.clone()));
        seen.push(oob(fabric.peek(handle, offset, &mut [0u8; 8])));
        assert_eq!(
            clock.now(),
            SimTime::ZERO,
            "a rejected verb charges nothing"
        );
        let want = format!(
            "access [{offset}, {}) out of bounds of MR {} (len {})",
            u64::MAX,
            handle.mr,
            handle.len
        );
        assert!(seen.iter().all(|s| *s == want), "{seen:?}");
    }

    #[test]
    fn injected_blackout_fails_verbs_then_clears() {
        let (fabric, db, mem, handle) = two_server_fabric();
        let inj = Arc::new(FaultInjector::new(3).blackout(mem, SimTime(0), SimTime(1_000_000)));
        fabric.set_fault_injector(Some(inj.clone()));
        let mut clock = Clock::new();
        let mut buf = vec![0u8; 64];
        assert_eq!(
            fabric.read(&mut clock, Protocol::Custom, db, handle, 0, &mut buf),
            Err(NetError::ServerDown(mem))
        );
        assert!(
            clock.now() > SimTime::ZERO,
            "failure detection must cost time"
        );
        // past the window the same verb succeeds
        clock.advance_to(SimTime(1_000_000));
        assert!(fabric
            .read(&mut clock, Protocol::Custom, db, handle, 0, &mut buf)
            .is_ok());
        assert!(
            inj.log()
                .count("net.blackout", remem_sim::FaultOrigin::Observed)
                >= 1
        );
    }

    #[test]
    fn injected_slowness_adds_latency() {
        let (fabric, db, mem, handle) = two_server_fabric();
        let mut clock = Clock::new();
        let mut buf = vec![0u8; 8192];
        fabric
            .read(&mut clock, Protocol::Custom, db, handle, 0, &mut buf)
            .unwrap();
        let baseline = clock.now();

        let (fabric2, db2, mem2, handle2) = two_server_fabric();
        let _ = mem;
        let extra = SimDuration::from_micros(250);
        fabric2.set_fault_injector(Some(Arc::new(FaultInjector::new(3).slow_window(
            mem2,
            SimTime::ZERO,
            SimTime(1 << 40),
            extra,
        ))));
        let mut clock2 = Clock::new();
        fabric2
            .read(&mut clock2, Protocol::Custom, db2, handle2, 0, &mut buf)
            .unwrap();
        assert_eq!(clock2.now(), baseline + extra);
    }

    #[test]
    fn metrics_record_verbs_registrations_and_spans() {
        let registry = MetricsRegistry::shared();
        let fabric = Fabric::new(NetConfig::default());
        fabric.set_metrics(Some(Arc::clone(&registry)));
        let db = fabric.add_server("DB1", 4);
        let mem = fabric.add_server("M1", 4);
        let mut clock = Clock::new();
        let handle = fabric.register_mr(&mut clock, mem, 1 << 20).unwrap();
        fabric.connect(&mut clock, db, mem).unwrap();
        let mut buf = vec![0u8; 8192];
        fabric
            .write(&mut clock, Protocol::Custom, db, handle, 0, &buf)
            .unwrap();
        fabric
            .read(&mut clock, Protocol::Custom, db, handle, 0, &mut buf)
            .unwrap();
        fabric
            .read(&mut clock, Protocol::Custom, db, handle, 0, &mut buf)
            .unwrap();

        assert_eq!(registry.counter("nic.read.ops").get(), 2);
        assert_eq!(registry.counter("nic.write.ops").get(), 1);
        assert_eq!(registry.counter("fabric.read.bytes").get(), 16384);
        assert_eq!(registry.counter("fabric.write.bytes").get(), 8192);
        assert_eq!(registry.counter("fabric.mr.registrations").get(), 1);
        assert_eq!(registry.counter("fabric.connects").get(), 1);
        let span = registry.span_stats("net.read");
        assert_eq!(span.count, 2);
        assert!(span.total > SimDuration::ZERO);

        // failed verbs land in the error counter, not the latency histogram
        let mut big = vec![0u8; 64];
        let _ = fabric.read(
            &mut clock,
            Protocol::Custom,
            db,
            handle,
            handle.len - 8,
            &mut big,
        );
        assert_eq!(registry.counter("fabric.read.errors").get(), 1);
        assert_eq!(registry.counter("nic.read.ops").get(), 2);
    }

    #[test]
    fn wr_ledger_balances_at_disconnect() {
        let (fabric, db, mem, handle) = two_server_fabric();
        let aud = Arc::new(remem_audit::Auditor::recording());
        fabric.set_auditor(Some(Arc::clone(&aud)));
        let mut clock = Clock::new();
        let mut buf = vec![0u8; 4096];
        fabric
            .read(&mut clock, Protocol::Custom, db, handle, 0, &mut buf)
            .unwrap();
        fabric
            .write(&mut clock, Protocol::Custom, db, handle, 0, &buf)
            .unwrap();
        // errored verbs still complete (no leaked WRs)
        let mut big = vec![0u8; 64];
        let _ = fabric.read(
            &mut clock,
            Protocol::Custom,
            db,
            handle,
            handle.len - 8,
            &mut big,
        );
        let (posted, completed) = fabric.wr_counts(db, mem);
        assert_eq!(posted, 3);
        assert_eq!(completed, 3);
        fabric.disconnect(db, mem);
        assert_eq!(aud.violation_count(), 0, "{}", aud.report());
    }

    /// Every verb posts one WR per server pair it targets, failed or not: a
    /// quorum write one per replica, a batch one per WR (its out-of-bounds
    /// WR included), and an empty batch none.
    #[test]
    fn wr_ledger_counts_each_verbs_server_pairs() {
        let (fabric, db, donors, h) = replica_fabric(3);
        let mut clock = Clock::new();
        let p = Protocol::Custom;
        let mut buf = vec![0u8; remem_storage::PAGE_SIZE];
        fabric
            .write(&mut clock, p, db, h[0], 0, &rows_page(8))
            .unwrap();
        fabric.read(&mut clock, p, db, h[1], 0, &mut buf).unwrap();
        let mut oob = vec![0u8; 64];
        let _ = fabric.read(&mut clock, p, db, h[2], h[2].len - 8, &mut oob);
        let (mut a, mut b) = (vec![0u8; 512], vec![0u8; 512]);
        let mut wrs = vec![
            crate::verbs::WorkRequest::Read(vec![crate::verbs::ReadSge {
                mr: h[0],
                offset: 0,
                buf: &mut a,
            }]),
            crate::verbs::WorkRequest::Write(vec![crate::verbs::WriteSge {
                mr: h[0],
                offset: 4096,
                data: &[1u8; 256],
            }]),
            crate::verbs::WorkRequest::Read(vec![crate::verbs::ReadSge {
                mr: h[1],
                offset: h[1].len - 8,
                buf: &mut b,
            }]),
        ];
        fabric.execute_batch(&mut clock, p, db, &mut wrs);
        fabric.execute_batch(&mut clock, p, db, &mut []);
        let targets: Vec<(MrHandle, u64)> = h.iter().map(|&m| (m, 8192)).collect();
        fabric
            .write_quorum(&mut clock, p, db, &targets, &[9u8; 300])
            .unwrap();
        let req = PushdownRequest {
            handle: h[0],
            offset: 0,
            len: remem_storage::PAGE_SIZE as u64,
            program: &key_lt(3),
        };
        fabric.pushdown(&mut clock, p, db, &req).unwrap();
        let counts: Vec<(u64, u64)> = donors.iter().map(|&m| fabric.wr_counts(db, m)).collect();
        assert_eq!(counts, vec![(5, 5), (3, 3), (2, 2)]);
    }

    /// The fluid-queue saturation story of `repro_qd_sweep` in miniature: a
    /// deep batch of page reads approaches NIC line rate, while the scalar
    /// loop is capped by per-op overhead + fixed latency.
    #[test]
    fn deep_batches_approach_nic_bandwidth() {
        let n = 256usize;
        let (fabric, db, _mem, handle) = two_server_fabric();
        let mut clock = Clock::new();
        let t0 = clock.now();
        let mut bufs = vec![vec![0u8; 8192]; n];
        let mut wrs: Vec<crate::verbs::WorkRequest<'_>> = bufs
            .iter_mut()
            .enumerate()
            .map(|(i, b)| {
                crate::verbs::WorkRequest::Read(vec![crate::verbs::ReadSge {
                    mr: handle,
                    offset: ((i * 8192) % (1 << 20)) as u64,
                    buf: b,
                }])
            })
            .collect();
        let completions = fabric.execute_batch(&mut clock, Protocol::Custom, db, &mut wrs);
        assert!(completions.iter().all(|c| c.result.is_ok()));
        let secs = clock.now().since(t0).as_secs_f64();
        let gbps = (n as f64 * 8192.0) / secs / 1e9;
        // line rate is 5.5 GB/s; one doorbell over 2 MiB should get close
        assert!(gbps > 4.0, "batched throughput {gbps} GB/s");
    }

    /// One single-SGE read WR per buffer, laid end to end from offset 0.
    fn page_reads(handle: MrHandle, bufs: &mut [Vec<u8>]) -> Vec<crate::verbs::WorkRequest<'_>> {
        bufs.iter_mut()
            .enumerate()
            .map(|(i, b)| {
                let offset = (i * b.len()) as u64;
                crate::verbs::WorkRequest::Read(vec![crate::verbs::ReadSge {
                    mr: handle,
                    offset,
                    buf: b,
                }])
            })
            .collect()
    }

    #[test]
    fn batched_reads_cost_one_doorbell() {
        // 16 pages behind one doorbell must beat 16 scalar reads: the chain
        // pays op_overhead + fixed_latency once instead of 16 times.
        let n = 16usize;
        let (fabric, db, _mem, handle) = two_server_fabric();
        let mut scalar_clock = Clock::new();
        let mut buf = vec![0u8; 8192];
        for i in 0..n {
            fabric
                .read(
                    &mut scalar_clock,
                    Protocol::Custom,
                    db,
                    handle,
                    (i * 8192) as u64,
                    &mut buf,
                )
                .unwrap();
        }

        let (fabric2, db2, _mem2, handle2) = two_server_fabric();
        let mut clock = Clock::new();
        let mut bufs = vec![vec![0u8; 8192]; n];
        let mut wrs = page_reads(handle2, &mut bufs);
        let completions = fabric2.execute_batch(&mut clock, Protocol::Custom, db2, &mut wrs);
        assert_eq!(completions.len(), n);
        assert!(completions.iter().all(|c| c.result.is_ok()));
        assert!(
            clock.now() < scalar_clock.now(),
            "batched {:?} must beat scalar {:?}",
            clock.now(),
            scalar_clock.now()
        );
    }

    #[test]
    fn pipelined_requests_complete_in_order() {
        let (fabric, db, _mem, handle) = two_server_fabric();
        let mut clock = Clock::new();
        let t0 = clock.now();
        let mut bufs = vec![vec![0u8; 4096]; 8];
        let mut wrs = page_reads(handle, &mut bufs);
        let completions = fabric.execute_batch(&mut clock, Protocol::Custom, db, &mut wrs);
        assert!(completions[0].completed_at > t0);
        assert!(completions
            .windows(2)
            .all(|w| w[0].completed_at <= w[1].completed_at));
        // the last WR lands when the doorbell completes
        assert_eq!(completions.last().unwrap().completed_at, clock.now());
    }

    #[test]
    fn batch_moves_bytes_and_gathers_sges() {
        use crate::verbs::{ReadSge, WorkRequest, WriteSge};
        let (fabric, db, _mem, mr) = two_server_fabric();
        let mut clock = Clock::new();
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
        let writes = fabric.execute_batch(&mut clock, Protocol::Custom, db, &mut wrs);
        assert_eq!(writes[0].bytes, 12);
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
        let completions = fabric.execute_batch(&mut clock, Protocol::Custom, db, &mut reads);
        drop(reads);
        assert_eq!(&lo, b"hell");
        assert_eq!(&hi, b"o world!");
        assert!(writes.iter().chain(&completions).all(|c| c.result.is_ok()));
    }

    #[test]
    fn batch_partial_failure_surfaces_per_wr_errors() {
        use crate::verbs::{ReadSge, WorkRequest};
        let (fabric, db, _mem, mr) = two_server_fabric();
        let mut clock = Clock::new();
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
        let completions = fabric.execute_batch(&mut clock, Protocol::Custom, db, &mut wrs);
        assert_eq!(completions.len(), 3);
        assert!(completions[0].result.is_ok());
        assert!(matches!(
            completions[1].result,
            Err(NetError::OutOfBounds { .. })
        ));
        assert!(completions[2].result.is_ok());
    }

    #[test]
    fn failures_surface_as_errored_completions() {
        let (fabric, db, mem, handle) = two_server_fabric();
        fabric.server(mem).unwrap().fail();
        let mut clock = Clock::new();
        let mut bufs = vec![vec![0u8; 8]; 2];
        let mut wrs = page_reads(handle, &mut bufs);
        let completions = fabric.execute_batch(&mut clock, Protocol::Custom, db, &mut wrs);
        assert!(completions
            .iter()
            .all(|c| c.result == Err(NetError::ServerDown(mem))));
    }

    #[test]
    fn disconnect_tears_down_the_connection() {
        let (fabric, db, mem, handle) = two_server_fabric();
        assert!(fabric.is_connected(db, mem));
        fabric.disconnect(db, mem);
        assert!(!fabric.is_connected(db, mem));
        let mut buf = [0u8; 8];
        assert_eq!(
            fabric.read(&mut Clock::new(), Protocol::Custom, db, handle, 0, &mut buf),
            Err(NetError::NotConnected { from: db, to: mem })
        );
    }

    #[test]
    fn connect_is_idempotent_and_charged_once() {
        let fabric = Fabric::new(NetConfig::default());
        let a = fabric.add_server("A", 4);
        let b = fabric.add_server("B", 4);
        let mut clock = Clock::new();
        fabric.connect(&mut clock, a, b).unwrap();
        let after_first = clock.now();
        fabric.connect(&mut clock, a, b).unwrap();
        assert_eq!(clock.now(), after_first);
        // symmetric
        assert!(fabric.is_connected(b, a));
        fabric.disconnect(b, a);
        assert!(!fabric.is_connected(a, b));
    }
}
