//! Fault-path oracles for the remote file's I/O engine.
//!
//! * **Golden fault traces** — one seeded script per file flavour (k = 1
//!   with and without `self_heal`, k = 2) drives every verb through a flaky
//!   window, a retry-exhausting window, a blackout, a donor crash + restart,
//!   a graceful reclaim and a hard lease revocation, and pins the final
//!   virtual time, the `FaultLog` fingerprint, the recovery counters, the
//!   metrics dump, every byte read and every per-op outcome. The pins were
//!   captured before the I/O loops were unified: they assert the engine is
//!   the *same* state machine, not a similar one.
//! * **Verb × fault matrix** — for each verb and each fault class, the typed
//!   error or recovery and the `FaultLog` kinds it must (not) emit.
//! * **`queue_depth = 1` is the scalar path** — in virtual time, not just
//!   in bytes.
//! * **Bounds** — offsets near `u64::MAX` are `OutOfBounds`, never a panic.

use std::sync::Arc;

use remem_broker::{BrokerConfig, LeaseId, MemoryBroker, MemoryProxy, MetaStore, PlacementPolicy};
use remem_net::{Fabric, FaultInjector, NetConfig, ServerId};
use remem_rfile::{RFileConfig, RemoteFile};
use remem_sim::{Clock, FaultLog, FaultOrigin, MetricsRegistry, SimDuration, SimTime};
use remem_storage::{
    CmpOp, Device, EvalValue, Predicate, PushdownProgram, StorageError, EVAL_PAGE_SIZE,
};

const MR: u64 = 64 << 10;
const PAGE: u64 = EVAL_PAGE_SIZE as u64;
const PAGES_PER_MR: u64 = MR / PAGE;

struct Rig {
    fabric: Arc<Fabric>,
    broker: Arc<MemoryBroker>,
    donors: Vec<ServerId>,
    log: Arc<FaultLog>,
    registry: Arc<MetricsRegistry>,
    file: RemoteFile,
    clock: Clock,
}

/// `donors` memory servers donating `mrs_each` 64 KiB MRs, Spread placement,
/// and one open file of `size` bytes whose fault log and metrics are shared
/// with the fabric.
fn rig(donors: usize, mrs_each: u64, size: u64, cfg: RFileConfig) -> Rig {
    let fabric = Arc::new(Fabric::new(NetConfig::default()));
    let db = fabric.add_server("DB", 8);
    let broker = Arc::new(MemoryBroker::new(
        BrokerConfig {
            placement: PlacementPolicy::Spread,
            ..Default::default()
        },
        MetaStore::new(),
    ));
    let ids: Vec<ServerId> = (0..donors)
        .map(|i| fabric.add_server(format!("M{i}"), 8))
        .collect();
    for &m in &ids {
        MemoryProxy::new(m, MR)
            .donate(&mut Clock::new(), &fabric, &broker, mrs_each * MR)
            .unwrap();
    }
    let log = Arc::new(FaultLog::new());
    let registry = MetricsRegistry::shared();
    fabric.set_metrics(Some(Arc::clone(&registry)));
    let cfg = RFileConfig {
        fault_log: Some(Arc::clone(&log)),
        metrics: Some(Arc::clone(&registry)),
        ..cfg
    };
    let mut clock = Clock::new();
    let file = RemoteFile::create_open(
        &mut clock,
        Arc::clone(&fabric),
        Arc::clone(&broker),
        db,
        size,
        cfg,
    )
    .unwrap();
    Rig {
        fabric,
        broker,
        donors: ids,
        log,
        registry,
        file,
        clock,
    }
}

impl Rig {
    fn inject(&self, inj: FaultInjector) {
        self.fabric.set_fault_injector(Some(Arc::new(inj)));
    }

    fn injector(&self, seed: u64) -> FaultInjector {
        FaultInjector::with_log(seed, Arc::clone(&self.log))
    }

    /// Donor crash + restart: memory wiped, broker told, server back up empty.
    fn crash(&self, s: ServerId) {
        let srv = self.fabric.server(s).unwrap();
        srv.fail();
        srv.nic().deregister_all();
        self.broker.server_failed(s);
        srv.restart();
    }

    /// The restarted donor's proxy re-donates fresh memory.
    fn redonate(&self, s: ServerId, mrs: u64) {
        self.broker.server_recovered(s);
        MemoryProxy::new(s, MR)
            .donate(&mut Clock::new(), &self.fabric, &self.broker, mrs * MR)
            .unwrap();
    }

    fn count(&self, kind: &'static str, origin: FaultOrigin) -> u64 {
        self.log.count(kind, origin)
    }
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `n` engine-format slotted pages of eight `(key, key * 1.5, pad)` rows,
/// keys dense from `first_key`.
fn pages(first_key: i64, n: u64) -> Vec<u8> {
    const ROWS: usize = 8;
    let mut data = Vec::with_capacity((n * PAGE) as usize);
    for p in 0..n as usize {
        let mut page = vec![0u8; PAGE as usize];
        let mut free = PAGE as usize;
        for j in 0..ROWS {
            let k = first_key + (p * ROWS + j) as i64;
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
        page[0..2].copy_from_slice(&(ROWS as u16).to_le_bytes());
        page[2..4].copy_from_slice(&(free as u16).to_le_bytes());
        data.extend_from_slice(&page);
    }
    data
}

fn key_lt(v: i64) -> PushdownProgram {
    PushdownProgram {
        predicates: vec![Predicate {
            col: 0,
            op: CmpOp::Lt,
            value: EvalValue::Int(v),
        }],
        ..Default::default()
    }
}

fn kind<T>(r: &Result<T, StorageError>) -> char {
    match r {
        Ok(_) => 'k',
        Err(StorageError::OutOfBounds { .. }) => 'B',
        Err(StorageError::Transient(_)) => 'T',
        Err(StorageError::Unavailable(_)) => 'U',
        Err(StorageError::RecordTooLarge { .. }) => 'L',
    }
}

// ─── golden fault traces ─────────────────────────────────────────────────

/// Everything the script observes from the caller's side.
struct Trace {
    /// One char per op (`k`/`B`/`T`/`U`), vectored batches bracketed.
    ops: String,
    /// FNV-1a over every byte a successful read, vectored read or pushdown
    /// returned, plus the tracked-write accounting and drained lost ranges.
    seen: u64,
}

impl Trace {
    fn batch(&mut self, results: &[Result<(), StorageError>]) {
        self.ops.push('[');
        self.ops.extend(results.iter().map(kind));
        self.ops.push(']');
    }
}

/// File layout of the golden script: four page-formatted extents that
/// pushdown scans, then two raw extents that take unaligned writes.
const GOLDEN_SIZE: u64 = 6 * MR;
const RAW: u64 = 4 * MR;

/// The script's steps: one per verb, each recording its outcome and
/// whatever it read into the trace.
struct Script {
    r: Rig,
    t: Trace,
}

impl Script {
    fn op<T>(&mut self, res: &Result<T, StorageError>) {
        self.t.ops.push(kind(res));
    }

    /// Scalar writes: three extents of pages, one tracked page, and an
    /// unaligned raw write straddling extents 4|5.
    fn scalar_writes(&mut self, salt: u8) {
        let key = salt as i64 * 1000;
        let (f, c) = (&self.r.file, &mut self.r.clock);
        let w = f.write(c, 6 * PAGE, &pages(key, 12));
        let q = f.write_tracked(c, 25 * PAGE, &pages(key + 500, 1));
        let raw = f.write(c, 5 * MR - 300, &[salt; 700]);
        self.op(&w);
        self.op(&q);
        if let Ok(q) = q {
            let acct = format!("{}/{}/{}", q.chunks, q.acks, q.quorum);
            fnv(&mut self.t.seen, acct.as_bytes());
        }
        self.op(&raw);
    }

    /// Unaligned scalar read over four extents.
    fn scalar_read(&mut self) {
        let mut buf = vec![0u8; (3 * MR + 123) as usize];
        let rd = self.r.file.read(&mut self.r.clock, MR / 2 + 17, &mut buf);
        self.op(&rd);
        if rd.is_ok() {
            fnv(&mut self.t.seen, &buf);
        }
    }

    /// Vectored read: unsorted, adjacent, straddling, and the file tail.
    fn vectored_read(&mut self) {
        let spec: [(u64, u64); 7] = [
            (3 * MR - 100, 300),
            (0, PAGE),
            (PAGE, PAGE),
            (2 * PAGE, PAGE),
            (5 * MR + 100, MR - 100),
            (2 * MR - 1, 2),
            (RAW - PAGE, 2 * PAGE),
        ];
        let mut bufs: Vec<Vec<u8>> = spec.iter().map(|&(_, l)| vec![0u8; l as usize]).collect();
        let mut reqs: Vec<(u64, &mut [u8])> = spec
            .iter()
            .zip(bufs.iter_mut())
            .map(|(&(o, _), b)| (o, b.as_mut_slice()))
            .collect();
        let results = self.r.file.read_vectored(&mut self.r.clock, &mut reqs);
        self.t.batch(&results);
        for (res, b) in results.iter().zip(&bufs) {
            if res.is_ok() {
                fnv(&mut self.t.seen, b);
            }
        }
    }

    /// Vectored write: four adjacent raw blocks, one straddling 4|5, and
    /// one whole page in extent 0.
    fn vectored_write(&mut self, salt: u8) {
        let block = vec![salt ^ 0x5a; 4096];
        let page = pages(salt as i64 * 1000 + 700, 1);
        let reqs: Vec<(u64, &[u8])> = vec![
            (RAW, &block),
            (RAW + 4096, &block),
            (RAW + 8192, &block),
            (RAW + 12288, &block),
            (5 * MR - 6000, &block),
            (3 * PAGE, &page),
        ];
        let results = self.r.file.write_vectored(&mut self.r.clock, &reqs);
        self.t.batch(&results);
    }

    /// Pushdown over the four page-formatted extents.
    fn pushdown(&mut self, salt: u8) {
        let prog = key_lt(salt as i64 * 1000 + 40);
        let scan = self.r.file.read_pushdown(&mut self.r.clock, 0, RAW, &prog);
        self.op(&scan);
        if let Ok(s) = scan {
            fnv(&mut self.t.seen, &s.payload);
            let acct = format!(
                "{}/{}/{}",
                s.rows_scanned, s.rows_matched, s.fallback_chunks
            );
            fnv(&mut self.t.seen, acct.as_bytes());
        }
    }

    /// Close a group of steps: fold in the ranges the file reported lost.
    fn end(&mut self) {
        let lost = format!("{:?}", self.r.file.drain_lost_ranges());
        fnv(&mut self.t.seen, lost.as_bytes());
        self.t.ops.push(' ');
    }

    /// One pass over every verb.
    fn round(&mut self, salt: u8) {
        self.scalar_writes(salt);
        self.scalar_read();
        self.vectored_read();
        self.vectored_write(salt);
        self.pushdown(salt);
        self.end();
    }
}

/// The seeded script; returns the pin line.
fn golden(cfg: RFileConfig) -> String {
    let mut s = Script {
        r: rig(4, 8, GOLDEN_SIZE, cfg),
        t: Trace {
            ops: String::new(),
            seen: 0xcbf2_9ce4_8422_2325,
        },
    };
    let ms = SimDuration::from_millis;
    // seed the page region so every scan sees well-formed pages
    s.r.file
        .write(&mut s.r.clock, 0, &pages(0, 4 * PAGES_PER_MR))
        .unwrap();
    s.round(1);

    // flaky: two donors drop a share of their verbs
    let now = s.r.clock.now();
    let d = s.r.file.donors();
    s.r.inject(
        s.r.injector(7)
            .flaky_window(d[0], now, now + ms(1000), 0.35)
            .flaky_window(d[1], now, now + ms(1000), 0.2),
    );
    s.round(2);
    s.round(3);

    // every verb to every donor fails: retries run out
    let now = s.r.clock.now();
    let mut inj = s.r.injector(8);
    for &m in &s.r.donors {
        inj = inj.flaky_window(m, now, now + ms(10_000), 1.0);
    }
    s.r.inject(inj);
    s.round(4);

    // a blackout the broker never hears about, then past it
    let now = s.r.clock.now();
    let victim = s.r.file.donors()[0];
    s.r.inject(s.r.injector(9).blackout(victim, now, now + ms(1000)));
    s.round(5);
    s.r.clock.advance(ms(2000));
    s.round(6);
    s.r.fabric.set_fault_injector(None);

    // donor crash + restart met first by a write wave, then its memory
    // comes back
    let victim = s.r.file.donors()[1];
    s.r.crash(victim);
    s.vectored_write(7);
    s.round(7);
    s.r.redonate(victim, 8);
    s.r.clock.advance(ms(6000));
    s.round(8);

    // the next crash is met first by a read wave
    let victim = s.r.file.donors()[0];
    s.r.crash(victim);
    s.vectored_read();
    s.round(9);
    s.r.redonate(victim, 8);

    // two donors at once: at k = 2 some slot loses every copy
    let d = s.r.file.donors();
    s.r.crash(d[0]);
    s.r.crash(d[1]);
    s.pushdown(10);
    s.round(10);
    s.r.redonate(d[0], 8);
    s.r.redonate(d[1], 8);
    s.r.clock.advance(ms(6000));
    s.round(11);

    // graceful reclaim: notice, grace window, forced collection
    let victim = s.r.file.donors()[0];
    let now = s.r.clock.now();
    s.r.broker
        .request_reclaim(now, &s.r.fabric, victim, 64 * MR);
    s.round(12);
    s.r.clock.advance(s.r.broker.config().grace_period * 2);
    let now = s.r.clock.now();
    s.r.broker.finalize_revocations(&s.r.fabric, now);
    s.round(13);

    // hard revocation: the lease itself is gone
    let victim = s.r.file.donors()[0];
    s.r.broker.reclaim(&s.r.fabric, victim, 64 * MR);
    s.round(14);
    s.r.clock.advance(ms(6000));
    s.round(15);

    let Script { r, t } = s;
    let mut metrics = 0xcbf2_9ce4_8422_2325;
    fnv(
        &mut metrics,
        format!("{:?}", r.registry.snapshot()).as_bytes(),
    );
    let f = &r.file;
    format!(
        "t={} log={:016x} retries={} failovers={} repairs={} migrations={} seen={:016x} metrics={:016x} ops={}",
        r.clock.now().0,
        r.log.fingerprint(),
        f.retries(),
        f.failovers(),
        f.repairs(),
        f.migrations(),
        t.seen,
        metrics,
        t.ops.trim_end(),
    )
}

fn golden_cfg(replicas: usize, self_heal: bool) -> RFileConfig {
    RFileConfig {
        replicas,
        self_heal,
        max_retries: 5,
        queue_depth: 4,
        ..RFileConfig::custom()
    }
}

#[test]
fn golden_trace_k1_self_heal() {
    assert_eq!(golden(golden_cfg(1, true)), "t=20127077713 log=ab220be6354ffb1b retries=127 failovers=0 repairs=4 migrations=1 seen=a2bec63043ce6845 metrics=86495bf670606e50 ops=kkkk[kkkkkkk][kkkkkk]k kkkk[kkkkkkk][kkkkkk]k kkkk[kkkkkkk][kkkkkk]k TTTT[TTTTTTT][TTTTTT]T UkUU[kUUUkkU][UUUUUU]U kkkk[kkkkkkk][kkkkkk]k [kkkkkk]kkkk[kkkkkkk][kkkkkk]k kkkk[kkkkkkk][kkkkkk]k [kkkkkkk]kkkk[kkkkkkk][kkkkkk]k kkkkk[kkkkkkk][kkkkkk]k kkkk[kkkkkkk][kkkkkk]k kkkk[kkkkkkk][kkkkkk]k kkkk[kkkkkkk][kkkkkk]k kkkk[kkkkkkk][kkkkkk]k kkkk[kkkkkkk][kkkkkk]k");
}

#[test]
fn golden_trace_k1_no_heal() {
    assert_eq!(golden(golden_cfg(1, false)), "t=20117814441 log=7202abd4a7b1bb6d retries=127 failovers=0 repairs=0 migrations=0 seen=ebeeafd0b2f12e1a metrics=387cfe3eda19c3e5 ops=kkkk[kkkkkkk][kkkkkk]k kkkk[kkkkkkk][kkkkkk]k kkkk[kkkkkkk][kkkkkk]k TTTT[TTTTTTT][TTTTTT]T UkUU[kUUUkkU][UUUUUU]U kkkk[kkkkkkk][kkkkkk]k [kkkkkk]UkUU[kkkkUUk][kkkkkk]U UkUU[kkkkUUk][kkkkkk]U [kUUUUUU]UkUU[kUUUUUU][UUUUUU]U UUkUU[kUUUUUU][UUUUUU]U UkUU[kUUUUUU][UUUUUU]U UkUU[kUUUUUU][UUUUUU]U UkUU[kUUUUUU][UUUUUU]U UkUU[kUUUUUU][UUUUUU]U UkUU[kUUUUUU][UUUUUU]U");
}

#[test]
fn golden_trace_k2() {
    assert_eq!(golden(golden_cfg(2, false)), "t=20114538519 log=b2ee947a26f99b47 retries=72 failovers=35 repairs=2 migrations=0 seen=1beef13a41f20fdc metrics=616afd94b741b6f6 ops=kkkk[kkkkkkk][kkkkkk]k kkkk[kkkkkkk][kkkkkk]k kkkk[kkkkkkk][kkkkkk]k kkkT[TTTTTTT][kkkkkk]T UkUk[kkkkkkk][UUUUUU]k kkkk[kkkkkkk][kkkkkk]k [kkkkkk]kkkk[kkkkkkk][kkkkkk]k kkkk[kkkkkkk][kkkkkk]k [kkkkkkk]kkkk[kkkkkkk][kkkkkk]k UUkUU[kUUUkkU][UUUUUU]U UkUU[kUUUkkU][UUUUUU]U UkUU[kUUUkkU][UUUUUU]U UUUU[UUUUUUU][UUUUUU]U UUUU[UUUUUUU][UUUUUU]U UUUU[UUUUUUU][UUUUUU]U");
}

#[test]
fn golden_trace_k2_self_heal_async() {
    // the cache flavour of a replicated file, on the asynchronous completion
    // path so the access-mode penalty is non-zero around every retry note
    let cfg = RFileConfig {
        access: remem_rfile::AccessMode::Async,
        ..golden_cfg(2, true)
    };
    assert_eq!(golden(cfg), "t=20137639978 log=d9db1ef274ac7836 retries=69 failovers=35 repairs=5 migrations=1 seen=3d7672452126ca2e metrics=ab209e6a066707b3 ops=kkkk[kkkkkkk][kkkkkk]k kkkk[kkkkkkk][kkkkkk]k kkkk[kkkkkkk][kkkkkk]k kkkT[TTTTTTT][kkkkkk]T UkUk[kkkkkkk][UUUUUU]k kkkk[kkkkkkk][kkkkkk]k [kkkkkk]kkkk[kkkkkkk][kkkkkk]k kkkk[kkkkkkk][kkkkkk]k [kkkkkkk]kkkk[kkkkkkk][kkkkkk]k kkkkk[kkkkkkk][kkkkkk]k kkkk[kkkkkkk][kkkkkk]k kkkk[kkkkkkk][kkkkkk]k kkkk[kkkkkkk][kkkkkk]k kkkk[kkkkkkk][kkkkkk]k kkkk[kkkkkkk][kkkkkk]k");
}

// ─── verb × fault matrix ─────────────────────────────────────────────────

#[derive(Debug, Clone, Copy, PartialEq)]
enum Verb {
    Read,
    Write,
    WriteTracked,
    ReadVectored,
    WriteVectored,
    Pushdown,
}

const VERBS: [Verb; 6] = [
    Verb::Read,
    Verb::Write,
    Verb::WriteTracked,
    Verb::ReadVectored,
    Verb::WriteVectored,
    Verb::Pushdown,
];

/// Matrix files are two extents of page-formatted rows.
const MATRIX_SIZE: u64 = 2 * MR;

/// Vectored request shapes: each half of each extent plus one request
/// straddling the boundary, unsorted.
const VECTORED: [(u64, u64); 5] = [
    (MR, MR / 2),
    (0, MR / 2),
    (MR - PAGE, 2 * PAGE),
    (MR / 2, MR / 2 - PAGE),
    (MR + MR / 2, MR / 2),
];

impl Verb {
    fn writes(self) -> bool {
        matches!(self, Verb::Write | Verb::WriteTracked | Verb::WriteVectored)
    }

    /// Drive the verb over the whole file; one result per request.
    fn drive(self, f: &RemoteFile, c: &mut Clock) -> Vec<Result<(), StorageError>> {
        let image = pages(0, 2 * PAGES_PER_MR);
        match self {
            Verb::Read => vec![f.read(c, 0, &mut vec![0u8; MATRIX_SIZE as usize])],
            Verb::Write => vec![f.write(c, 0, &image)],
            Verb::WriteTracked => vec![f.write_tracked(c, 0, &image).map(|_| ())],
            Verb::ReadVectored => {
                let mut bufs: Vec<Vec<u8>> = VECTORED
                    .iter()
                    .map(|&(_, l)| vec![0u8; l as usize])
                    .collect();
                let mut reqs: Vec<(u64, &mut [u8])> = VECTORED
                    .iter()
                    .zip(bufs.iter_mut())
                    .map(|(&(o, _), b)| (o, b.as_mut_slice()))
                    .collect();
                f.read_vectored(c, &mut reqs)
            }
            Verb::WriteVectored => {
                let reqs: Vec<(u64, &[u8])> = VECTORED
                    .iter()
                    .map(|&(o, l)| (o, &image[o as usize..(o + l) as usize]))
                    .collect();
                f.write_vectored(c, &reqs)
            }
            Verb::Pushdown => vec![f.read_pushdown(c, 0, MATRIX_SIZE, &key_lt(40)).map(|_| ())],
        }
    }
}

fn matrix_rig(donors: usize, cfg: RFileConfig) -> Rig {
    let mut r = rig(donors, 4, MATRIX_SIZE, cfg);
    r.file
        .write(&mut r.clock, 0, &pages(0, 2 * PAGES_PER_MR))
        .unwrap();
    r
}

/// `rfile.*` recovery-path events recorded so far, as `(kind, origin, n)`.
fn rfile_events(r: &Rig) -> Vec<(&'static str, FaultOrigin, u64)> {
    let mut out = Vec::new();
    for kind in [
        "rfile.retry",
        "rfile.failover",
        "rfile.fatal",
        "rfile.repair",
        "rfile.re_replicate",
    ] {
        for origin in [FaultOrigin::Observed, FaultOrigin::Recovery] {
            let n = r.count(kind, origin);
            if n > 0 {
                out.push((kind, origin, n));
            }
        }
    }
    out
}

#[test]
fn one_transient_is_retried_through_by_every_verb() {
    for verb in VERBS {
        for replicas in [1, 2] {
            let cfg = RFileConfig {
                replicas,
                retry_backoff: SimDuration::from_millis(1),
                ..RFileConfig::custom()
            };
            let mut r = matrix_rig(3, cfg);
            // every verb fails for 200 us: first attempts land inside, the
            // 1 ms backoff carries every retry out
            let now = r.clock.now();
            let mut inj = r.injector(1);
            for &s in &r.donors {
                inj = inj.flaky_window(s, now, now + SimDuration::from_micros(200), 1.0);
            }
            r.inject(inj);
            let results = verb.drive(&r.file, &mut r.clock);
            let ctx = format!("{verb:?} k={replicas}: {results:?}");
            assert!(results.iter().all(|x| x.is_ok()), "{ctx}");
            assert_eq!((r.file.failovers(), r.file.repairs()), (0, 0), "{ctx}");
            if replicas > 1 && verb.writes() {
                // a quorum write absorbs a transient as a late ack
                assert_eq!((r.file.retries(), rfile_events(&r)), (0, vec![]), "{ctx}");
                continue;
            }
            assert!(r.file.retries() >= 1, "{ctx}");
            assert!(
                r.clock.now() >= now + SimDuration::from_millis(1),
                "backoff is charged to virtual time: {ctx}"
            );
            assert_eq!(
                rfile_events(&r),
                vec![("rfile.retry", FaultOrigin::Recovery, r.file.retries())],
                "{ctx}"
            );
        }
    }
}

#[test]
fn exhausted_retries_are_transient_for_every_verb() {
    for verb in VERBS {
        for replicas in [1, 2] {
            let cfg = RFileConfig {
                replicas,
                max_retries: 3,
                retry_backoff: SimDuration::from_micros(10),
                ..RFileConfig::custom()
            };
            let mut r = matrix_rig(3, cfg);
            let mut inj = r.injector(2);
            for &s in &r.donors {
                inj = inj.flaky_window(s, SimTime::ZERO, SimTime(1 << 50), 1.0);
            }
            r.inject(inj);
            let results = verb.drive(&r.file, &mut r.clock);
            let ctx = format!("{verb:?} k={replicas}: {results:?}");
            if replicas > 1 && verb.writes() {
                // late acks still reach the quorum: nothing to exhaust
                assert!(results.iter().all(|x| x.is_ok()), "{ctx}");
                assert_eq!((r.file.retries(), rfile_events(&r)), (0, vec![]), "{ctx}");
                continue;
            }
            assert!(
                results
                    .iter()
                    .all(|x| matches!(x, Err(StorageError::Transient(_)))),
                "{ctx}"
            );
            // each abandoned chunk burned its whole budget, and says so
            let gave_up = r.count("rfile.retry", FaultOrigin::Observed);
            assert!(gave_up >= 1, "{ctx}");
            assert_eq!(r.file.retries(), 3 * gave_up, "{ctx}");
            assert_eq!(
                rfile_events(&r),
                vec![("rfile.retry", FaultOrigin::Observed, gave_up)],
                "{ctx}"
            );
        }
    }
}

#[test]
fn donor_crash_without_self_heal_is_unavailable_for_every_verb() {
    for verb in VERBS {
        let mut r = matrix_rig(2, RFileConfig::custom());
        let dead = r.file.donors()[0];
        r.crash(dead);
        let results = verb.drive(&r.file, &mut r.clock);
        let ctx = format!("{verb:?}: {results:?}");
        // whatever touched the dead donor's extent fails; vectored
        // neighbours on the survivor still complete
        assert!(results.iter().any(|x| x.is_err()), "{ctx}");
        assert!(
            results
                .iter()
                .all(|x| matches!(x, Ok(()) | Err(StorageError::Unavailable(_)))),
            "{ctx}"
        );
        let vectored = matches!(verb, Verb::ReadVectored | Verb::WriteVectored);
        assert_eq!(results.iter().any(|x| x.is_ok()), vectored, "{ctx}");
        // best-effort files neither retry, repair nor log a heal attempt
        assert_eq!(rfile_events(&r), vec![], "{ctx}");
        assert_eq!((r.file.retries(), r.file.repairs()), (0, 0), "{ctx}");
        assert!(r.file.drain_lost_ranges().is_empty(), "{ctx}");
    }
}

#[test]
fn donor_crash_with_self_heal_repairs_under_every_verb() {
    for verb in VERBS {
        let cfg = RFileConfig {
            self_heal: true,
            ..RFileConfig::custom()
        };
        let mut r = matrix_rig(3, cfg);
        let dead = r.file.donors()[0];
        r.crash(dead);
        let results = verb.drive(&r.file, &mut r.clock);
        let ctx = format!("{verb:?}: {results:?}");
        assert!(results.iter().all(|x| x.is_ok()), "{ctx}");
        assert_eq!(r.file.repairs(), 1, "{ctx}");
        assert_eq!(
            rfile_events(&r),
            vec![
                ("rfile.fatal", FaultOrigin::Observed, 1),
                ("rfile.repair", FaultOrigin::Recovery, 1),
            ],
            "{ctx}"
        );
        assert!(!r.file.donors().contains(&dead), "{ctx}");
        let lost = r.file.drain_lost_ranges();
        assert_eq!(lost.len(), 1, "one stripe re-leased: {ctx}");
        // the re-leased stripe reads back as what the verb wrote, or zeros
        let (start, len) = lost[0];
        let mut buf = vec![1u8; len as usize];
        r.file.read(&mut r.clock, start, &mut buf).unwrap();
        let wrote = matches!(verb, Verb::Write | Verb::WriteTracked | Verb::WriteVectored);
        if wrote {
            let image = pages(0, 2 * PAGES_PER_MR);
            assert_eq!(buf, image[start as usize..(start + len) as usize], "{ctx}");
        } else {
            assert!(buf.iter().all(|&b| b == 0), "{ctx}");
        }
    }
}

#[test]
fn replicated_donor_crash_fails_over_under_every_verb() {
    for verb in VERBS {
        let cfg = RFileConfig {
            replicas: 2,
            ..RFileConfig::custom()
        };
        let mut r = matrix_rig(3, cfg);
        let epoch0 = r.file.replica_epoch();
        let dead = r.file.donors()[0];
        r.crash(dead);
        let results = verb.drive(&r.file, &mut r.clock);
        let ctx = format!("{verb:?}: {results:?}");
        assert!(results.iter().all(|x| x.is_ok()), "{ctx}");
        assert!(r.file.replica_epoch() > epoch0, "{ctx}");
        assert!(r.file.drain_lost_ranges().is_empty(), "{ctx}");
        assert_eq!(r.broker.replication_deficit(LeaseId(0)), 0, "{ctx}");
        // and the bytes survived
        let mut out = vec![0u8; MATRIX_SIZE as usize];
        r.file.read(&mut r.clock, 0, &mut out).unwrap();
        assert_eq!(out, pages(0, 2 * PAGES_PER_MR), "{ctx}");
    }
}

#[test]
fn losing_every_replica_of_a_slot_fails_every_verb_loudly() {
    for verb in VERBS {
        let cfg = RFileConfig {
            replicas: 2,
            self_heal: false,
            ..RFileConfig::custom()
        };
        let mut r = matrix_rig(4, cfg);
        let (_, groups) = r.broker.replica_view(LeaseId(0)).unwrap();
        for m in &groups[0] {
            r.crash(m.server);
        }
        let results = verb.drive(&r.file, &mut r.clock);
        let ctx = format!("{verb:?}: {results:?}");
        assert!(results.iter().any(|x| x.is_err()), "{ctx}");
        assert!(
            results
                .iter()
                .all(|x| matches!(x, Ok(()) | Err(StorageError::Unavailable(_)))),
            "{ctx}"
        );
        assert!(
            r.file.drain_lost_ranges().is_empty(),
            "spill semantics never zero-fill: {ctx}"
        );
        assert_eq!(r.count("rfile.repair", FaultOrigin::Recovery), 0, "{ctx}");
        assert_eq!(
            r.count("rfile.re_replicate", FaultOrigin::Recovery),
            0,
            "{ctx}"
        );
    }
}

#[test]
fn closed_file_rejects_every_verb_without_side_effects() {
    for verb in VERBS {
        let mut r = matrix_rig(2, RFileConfig::custom());
        r.file.close(&mut r.clock);
        let before = (r.clock.now(), r.log.fingerprint());
        let results = verb.drive(&r.file, &mut r.clock);
        assert!(
            results
                .iter()
                .all(|x| matches!(x, Err(StorageError::Unavailable(m)) if m.contains("not open"))),
            "{verb:?}: {results:?}"
        );
        assert_eq!((r.clock.now(), r.log.fingerprint()), before, "{verb:?}");
    }
}

// ─── queue_depth = 1 is the scalar path ──────────────────────────────────

#[test]
fn queue_depth_one_costs_exactly_the_scalar_sequence() {
    // N requests, one straddling an extent boundary, one spanning three
    let shapes: [(u64, u64); 6] = [
        (0, PAGE),
        (PAGE, PAGE),
        (MR - 1000, 3000),
        (5 * PAGE, 2 * PAGE),
        (MR + MR / 2, 2 * MR),
        (4 * MR - PAGE, PAGE),
    ];
    let cfg = || RFileConfig {
        queue_depth: 1,
        ..RFileConfig::custom()
    };
    let image: Vec<u8> = (0..4 * MR).map(|i| (i % 251) as u8).collect();
    let slice = |&(o, l): &(u64, u64)| &image[o as usize..(o + l) as usize];

    let mut scalar = rig(2, 4, 4 * MR, cfg());
    let mut vectored = rig(2, 4, 4 * MR, cfg());
    assert_eq!(scalar.clock.now(), vectored.clock.now());

    for s in &shapes {
        scalar.file.write(&mut scalar.clock, s.0, slice(s)).unwrap();
    }
    let reqs: Vec<(u64, &[u8])> = shapes.iter().map(|s| (s.0, slice(s))).collect();
    for res in vectored.file.write_vectored(&mut vectored.clock, &reqs) {
        res.unwrap();
    }
    assert_eq!(
        scalar.clock.now(),
        vectored.clock.now(),
        "writes: one vectored call at queue_depth 1 must cost the scalar sequence"
    );

    let mut scalar_bytes = Vec::new();
    for &(o, l) in &shapes {
        let mut buf = vec![0u8; l as usize];
        scalar.file.read(&mut scalar.clock, o, &mut buf).unwrap();
        scalar_bytes.push(buf);
    }
    let mut bufs: Vec<Vec<u8>> = shapes.iter().map(|&(_, l)| vec![0u8; l as usize]).collect();
    let mut reqs: Vec<(u64, &mut [u8])> = shapes
        .iter()
        .zip(bufs.iter_mut())
        .map(|(&(o, _), b)| (o, b.as_mut_slice()))
        .collect();
    for res in vectored.file.read_vectored(&mut vectored.clock, &mut reqs) {
        res.unwrap();
    }
    assert_eq!(
        scalar.clock.now(),
        vectored.clock.now(),
        "reads: one vectored call at queue_depth 1 must cost the scalar sequence"
    );
    assert_eq!(scalar_bytes, bufs);
}

// ─── bounds ──────────────────────────────────────────────────────────────

#[test]
fn offsets_near_u64_max_are_out_of_bounds_for_every_verb() {
    let mut r = matrix_rig(2, RFileConfig::custom());
    let (f, c) = (&r.file, &mut r.clock);
    let far = u64::MAX - 10;
    let oob = |res: Result<(), StorageError>| {
        assert!(
            matches!(res, Err(StorageError::OutOfBounds { .. })),
            "{res:?}"
        );
    };
    oob(f.read(c, far, &mut [0u8; 100]));
    oob(f.write(c, far, &[0u8; 100]));
    oob(f.write_tracked(c, far, &[0u8; 100]).map(|_| ()));
    let mut buf = [0u8; 100];
    let mut ok = [0u8; 8];
    let mut reqs: Vec<(u64, &mut [u8])> = vec![(far, &mut buf), (0, &mut ok)];
    let mut results = f.read_vectored(c, &mut reqs);
    assert!(results.pop().unwrap().is_ok(), "neighbours are unaffected");
    oob(results.pop().unwrap());
    let mut results = f.write_vectored(c, &[(far, &[0u8; 100]), (0, &[0u8; 8])]);
    assert!(results.pop().unwrap().is_ok());
    oob(results.pop().unwrap());
    // whole pages whose end wraps past u64::MAX
    let last_page = u64::MAX - (PAGE - 1);
    oob(f
        .read_pushdown(c, last_page, 2 * PAGE, &key_lt(1))
        .map(|_| ()));
    // and the Device face of the same verbs
    let dev: &dyn Device = f;
    oob(dev.read(c, far, &mut [0u8; 100]));
    oob(dev.write(c, far, &[0u8; 100]));
}
