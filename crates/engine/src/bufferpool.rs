//! The buffer pool and its extension tier (scenario §3.1).
//!
//! A clock-sweep buffer pool over 8 KiB frames. When a page is evicted it is
//! (after flushing if dirty) copied into the **buffer-pool extension** — a
//! page cache on any [`Device`]: the local SSD in the `HDD+SSD` baseline, or
//! a remote-memory file in the paper's designs. A later miss probes the
//! extension before falling back to the data file.
//!
//! The extension is an optimization, never a correctness dependency: if its
//! device becomes unavailable (remote server failure, lease revocation), the
//! pool transparently stops using it and serves misses from the base device —
//! the best-effort contract of Table 1.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use remem_audit::Auditor;
use remem_sim::{Clock, FaultLog, FaultOrigin, Gauge, MetricsRegistry, SimDuration, SimTime};
use remem_storage::{Device, StorageError};

use crate::page::{Page, PAGE_SIZE};
use crate::pagestore::{FileId, PageNo, PagedFile};

type Key = (FileId, PageNo);

/// Buffer pool statistics, used by the figure harnesses.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BpStats {
    pub hits: u64,
    pub misses: u64,
    pub ext_hits: u64,
    pub ext_writes: u64,
    pub base_reads: u64,
    pub dirty_flushes: u64,
    pub evictions: u64,
    /// Times the extension tier was suspended after a device failure.
    pub ext_suspends: u64,
    /// Times a probe found the extension device healthy again.
    pub ext_reattaches: u64,
    /// Cached pages discarded because the device reported their backing
    /// bytes lost (self-healed stripe) or failed fatally.
    pub ext_lost_pages: u64,
}

/// Cached registry handles, resolved once at attach time so the page-access
/// hot path mirrors [`BpStats`] into named metrics without a name lookup.
struct BpCounters {
    hits: Arc<remem_sim::Counter>,
    misses: Arc<remem_sim::Counter>,
    ext_hits: Arc<remem_sim::Counter>,
    ext_writes: Arc<remem_sim::Counter>,
    base_reads: Arc<remem_sim::Counter>,
    dirty_flushes: Arc<remem_sim::Counter>,
    evictions: Arc<remem_sim::Counter>,
    /// Share of pool misses the extension tier absorbed (`ext_hits /
    /// (ext_hits + base_reads)`), the headline of the §3.1 scenario.
    ext_hit_ratio: Arc<Gauge>,
}

impl BpCounters {
    fn new(r: &MetricsRegistry) -> BpCounters {
        BpCounters {
            hits: r.counter("bp.hits"),
            misses: r.counter("bp.misses"),
            ext_hits: r.counter("bpext.hits"),
            ext_writes: r.counter("bpext.writes"),
            base_reads: r.counter("bp.base.reads"),
            dirty_flushes: r.counter("bp.dirty.flushes"),
            evictions: r.counter("bp.evictions"),
            ext_hit_ratio: r.gauge("bpext.hit_ratio"),
        }
    }
}

/// One public page access, as [`BufferPool::record_accesses`] logs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageAccess {
    /// [`BufferPool::with_page`]
    Read,
    /// [`BufferPool::with_page_mut`]
    Write,
    /// [`BufferPool::new_page`]
    New,
}

/// A frame in use. The pool makes a frame when a page first lands in it, so
/// every frame holds a page.
struct Frame {
    key: Key,
    page: Page,
    dirty: bool,
    referenced: bool,
}

/// Backoff state while the extension device is unhealthy.
struct Suspend {
    /// The next device operation at or after this instant *is* the probe.
    probe_at: SimTime,
    backoff: SimDuration,
}

/// First probe delay after a failure; doubles per failed probe.
const EXT_PROBE_BASE: SimDuration = SimDuration::from_millis(10);
const EXT_PROBE_CAP: SimDuration = SimDuration::from_secs(5);

/// The extension tier: a page cache on an arbitrary device.
///
/// Failure handling is *suspension*, not abandonment: a device error parks
/// the tier behind an exponential probe backoff, and once the backoff
/// elapses the next put/get doubles as a health probe — if it succeeds the
/// tier re-attaches and serves hits again (the device below may have
/// self-healed, e.g. a remote file that re-leased its stripes after the
/// donor came back). Fatal errors discard the cached mapping (the backing
/// bytes are gone); transient errors keep it.
pub struct BpExt {
    device: Arc<dyn Device>,
    // ordered map: `sync_lost` and fatal-failure teardown walk it, and hash
    // order would leak into slot recycling and break replay
    map: BTreeMap<Key, u64>,
    free: Vec<u64>,
    fifo: VecDeque<Key>,
    /// Slot count the device was carved into at construction; the auditor's
    /// conservation law is `map.len() + free.len() == total_slots`.
    total_slots: u64,
    suspended: Option<Suspend>,
    fault_log: Option<Arc<FaultLog>>,
    suspends: u64,
    reattaches: u64,
    lost_pages: u64,
}

/// What [`BpExt::put`] did with the page — distinguishes a real device
/// write from a skip, so `ext_writes` counts I/O, not call attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PutOutcome {
    /// The page was written to the extension device.
    Written,
    /// An up-to-date copy was already cached; no device traffic.
    AlreadyCached,
    /// Suspended, out of slots, or the write failed.
    Skipped,
}

impl BpExt {
    pub fn new(device: Arc<dyn Device>) -> BpExt {
        let slots = device.capacity() / PAGE_SIZE as u64;
        assert!(slots > 0, "extension device smaller than one page");
        BpExt {
            device,
            map: BTreeMap::new(),
            free: (0..slots).rev().collect(),
            fifo: VecDeque::new(),
            total_slots: slots,
            suspended: None,
            fault_log: None,
            suspends: 0,
            reattaches: 0,
            lost_pages: 0,
        }
    }

    pub fn set_fault_log(&mut self, log: Option<Arc<FaultLog>>) {
        self.fault_log = log;
    }

    pub fn capacity_pages(&self) -> u64 {
        self.map.len() as u64 + self.free.len() as u64
    }

    pub fn cached_pages(&self) -> u64 {
        self.map.len() as u64
    }

    pub fn label(&self) -> String {
        self.device.label()
    }

    fn note(&self, at: SimTime, origin: FaultOrigin, kind: &'static str, detail: String) {
        if let Some(log) = &self.fault_log {
            log.record(at, origin, kind, detail);
        }
    }

    /// May the tier touch its device right now? While suspended, only an
    /// operation at/after `probe_at` goes through — that operation is the
    /// health probe. Evictions call [`BpExt::put`] even for clean pages, so
    /// probes fire under read-only workloads too.
    fn gate(&self, now: SimTime) -> bool {
        match &self.suspended {
            None => true,
            Some(s) => now >= s.probe_at,
        }
    }

    /// Discard cached pages whose backing bytes the device reports lost
    /// (a self-healed remote file re-leased those stripes zeroed).
    fn sync_lost(&mut self) {
        let ranges = self.device.drain_lost_ranges();
        if ranges.is_empty() {
            return;
        }
        let overlaps = |slot: u64| {
            let lo = slot * PAGE_SIZE as u64;
            let hi = lo + PAGE_SIZE as u64;
            ranges.iter().any(|&(s, l)| lo < s + l && s < hi)
        };
        // recycle slots in slot order (the map iterates in key order, which
        // is deterministic too, but slot order matches the old behavior)
        let mut victims: Vec<(u64, Key)> = self
            .map
            .iter()
            .filter(|(_, &slot)| overlaps(slot))
            .map(|(k, &slot)| (slot, *k))
            .collect();
        victims.sort_unstable_by_key(|&(slot, _)| slot);
        for (_, key) in victims {
            if let Some(slot) = self.map.remove(&key) {
                self.free.push(slot);
                self.lost_pages += 1;
            }
        }
    }

    fn note_success(&mut self, now: SimTime) {
        if self.suspended.take().is_some() {
            self.reattaches += 1;
            self.note(
                now,
                FaultOrigin::Recovery,
                "bpext.reattach",
                "probe succeeded".into(),
            );
        }
    }

    fn note_failure(&mut self, now: SimTime, fatal: bool, why: &StorageError) {
        if fatal {
            // backing bytes are gone: forget the mapping but keep the slots
            // (sorted, so slot recycling order matches the old behavior)
            self.lost_pages += self.map.len() as u64;
            let mut slots: Vec<u64> = std::mem::take(&mut self.map).into_values().collect();
            slots.sort_unstable();
            self.free.extend(slots);
            self.fifo.clear();
        }
        let backoff = match &self.suspended {
            Some(s) => (s.backoff * 2).min(EXT_PROBE_CAP),
            None => EXT_PROBE_BASE,
        };
        self.suspended = Some(Suspend {
            probe_at: now + backoff,
            backoff,
        });
        self.suspends += 1;
        self.note(
            now,
            FaultOrigin::Observed,
            "bpext.suspend",
            format!("{}: {why}", if fatal { "fatal" } else { "transient" }),
        );
    }

    fn put(&mut self, clock: &mut Clock, key: Key, page: &Page) -> PutOutcome {
        if !self.gate(clock.now()) {
            return PutOutcome::Skipped;
        }
        self.sync_lost();
        // a key still mapped here is up to date: any modification in the
        // pool invalidated the entry, so clean re-evictions skip the write
        if self.map.contains_key(&key) {
            return PutOutcome::AlreadyCached;
        }
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                // FIFO-evict the oldest extension entry
                loop {
                    match self.fifo.pop_front() {
                        Some(old) => {
                            if let Some(s) = self.map.remove(&old) {
                                break s;
                            }
                        }
                        None => return PutOutcome::Skipped,
                    }
                }
            }
        };
        self.map.insert(key, slot);
        self.fifo.push_back(key);
        match self
            .device
            .write(clock, slot * PAGE_SIZE as u64, page.as_bytes())
        {
            Ok(()) => {
                self.note_success(clock.now());
                PutOutcome::Written
            }
            Err(e) => {
                // undo the mapping we just created
                if let Some(s) = self.map.remove(&key) {
                    self.free.push(s);
                }
                self.note_failure(clock.now(), !e.is_transient(), &e);
                PutOutcome::Skipped
            }
        }
    }

    fn get(&mut self, clock: &mut Clock, key: Key) -> Option<Page> {
        if !self.gate(clock.now()) {
            return None;
        }
        self.sync_lost();
        let slot = *self.map.get(&key)?;
        // the device reads straight into the page the pool will install
        let mut page = Page::new();
        match self
            .device
            .read(clock, slot * PAGE_SIZE as u64, page.as_bytes_mut())
        {
            Ok(()) => {
                self.note_success(clock.now());
                // the read itself may have triggered a self-heal repair under
                // this very slot, in which case the bytes just returned are
                // the replacement stripe's zeros, not the cached page
                self.sync_lost();
                self.map.contains_key(&key).then_some(page)
            }
            Err(e) => {
                self.note_failure(clock.now(), !e.is_transient(), &e);
                None
            }
        }
    }

    /// Batched gets: resolve every mapped key's slot, issue **one** vectored
    /// read for the whole set, and hand back per-key results. On a pipelined
    /// device (the remote file) the batch costs one doorbell instead of N
    /// serial round-trips; on local devices the default serial implementation
    /// keeps timing identical to N calls of [`BpExt::get`].
    fn get_many(&mut self, clock: &mut Clock, keys: &[Key]) -> Vec<Option<Page>> {
        let mut out: Vec<Option<Page>> = vec![None; keys.len()];
        if keys.is_empty() || !self.gate(clock.now()) {
            return out;
        }
        self.sync_lost();
        // resolve the mapped subset; unmapped keys just stay None
        let mut hit_idx: Vec<usize> = Vec::new();
        let mut pages: Vec<Page> = Vec::new();
        let mut offs: Vec<u64> = Vec::new();
        for (i, k) in keys.iter().enumerate() {
            if let Some(&slot) = self.map.get(k) {
                hit_idx.push(i);
                offs.push(slot * PAGE_SIZE as u64);
                pages.push(Page::new());
            }
        }
        if hit_idx.is_empty() {
            return out;
        }
        let mut reqs: Vec<(u64, &mut [u8])> = offs
            .iter()
            .zip(pages.iter_mut())
            .map(|(&o, p)| (o, p.as_bytes_mut()))
            .collect();
        let results = self.device.read_vectored(clock, &mut reqs);
        if results.iter().any(|r| r.is_ok()) {
            self.note_success(clock.now());
        }
        if let Some(e) = results.iter().find_map(|r| r.as_ref().err()) {
            // a partially failed batch suspends (and, on fatal, tears down)
            // exactly as a scalar failure would; surviving pages of a fatal
            // batch are dropped below because the mapping is gone
            self.note_failure(clock.now(), !e.is_transient(), e);
        }
        // the reads may have triggered a self-heal repair under these very
        // slots — only deliver pages whose mapping survived
        self.sync_lost();
        for ((i, page), r) in hit_idx.into_iter().zip(pages).zip(&results) {
            if r.is_ok() && self.map.contains_key(&keys[i]) {
                out[i] = Some(page);
            }
        }
        out
    }

    fn invalidate(&mut self, key: Key) {
        if let Some(slot) = self.map.remove(&key) {
            self.free.push(slot);
        }
    }

    /// Is the tier currently suspended (device unhealthy, probe pending)?
    /// Unlike the old permanent-abandonment semantics this can return to
    /// `false` once a probe finds the device serving again.
    pub fn has_failed(&self) -> bool {
        self.suspended.is_some()
    }
}

struct Inner {
    /// Grows to `capacity` as pages arrive (`BufferPool::install`), then
    /// stays full.
    frames: Vec<Frame>,
    capacity: usize,
    // ordered maps throughout: replay-critical paths iterate them and hash
    // order would differ between otherwise identical runs
    map: BTreeMap<Key, usize>,
    hand: usize,
    ext: Option<BpExt>,
    files: BTreeMap<FileId, Arc<PagedFile>>,
    /// Recent miss streams per file as `(position, run_length)` — a miss
    /// continuing a stream extends it, and readahead only kicks in once the
    /// run is long enough to be a real scan (short range reads must not
    /// trigger it). A small history so several concurrent scan streams are
    /// each detected, like per-stream readahead in a real engine.
    last_base_miss: BTreeMap<FileId, VecDeque<(PageNo, u32)>>,
    stats: BpStats,
    metrics: Option<BpCounters>,
    fault_log: Option<Arc<FaultLog>>,
    auditor: Option<Arc<Auditor>>,
    /// Public page accesses in call order, while recording is on.
    accesses: Option<Vec<(PageAccess, FileId, PageNo)>>,
}

impl Inner {
    fn note_access(&mut self, kind: PageAccess, file: FileId, page_no: PageNo) {
        if let Some(log) = self.accesses.as_mut() {
            log.push((kind, file, page_no));
        }
    }
}

/// Pages fetched per readahead I/O once a sequential miss pattern is seen
/// (SQL Server's scan readahead issues large reads the same way).
const READAHEAD_PAGES: u64 = 16;
/// Sequential misses required before readahead engages — a B-tree range
/// read of a few leaves stays un-prefetched.
const READAHEAD_MIN_RUN: u32 = 8;

/// The buffer pool.
pub struct BufferPool {
    inner: Mutex<Inner>,
    /// Cost of serving a page already resident in local memory.
    hit_cost: SimDuration,
}

impl BufferPool {
    /// A pool of `bytes / 8 KiB` frames. No frame memory is committed until
    /// a page lands in it.
    pub fn new(bytes: u64) -> BufferPool {
        BufferPool {
            inner: Mutex::new(Inner {
                frames: Vec::new(),
                capacity: (bytes / PAGE_SIZE as u64).max(2) as usize,
                map: BTreeMap::new(),
                hand: 0,
                ext: None,
                files: BTreeMap::new(),
                last_base_miss: BTreeMap::new(),
                stats: BpStats::default(),
                metrics: None,
                fault_log: None,
                auditor: None,
                accesses: None,
            }),
            hit_cost: SimDuration::from_nanos(100),
        }
    }

    /// The pool's capacity in frames, used or not.
    pub fn frame_count(&self) -> usize {
        self.inner.lock().capacity
    }

    /// Attach an extension tier (replaces any existing one).
    pub fn set_extension(&self, ext: Option<BpExt>) {
        let mut inner = self.inner.lock();
        inner.ext = ext;
        let log = inner.fault_log.clone();
        if let Some(e) = inner.ext.as_mut() {
            e.set_fault_log(log);
        }
    }

    /// Record extension suspend/re-attach events into a chaos-audit log.
    pub fn set_fault_log(&self, log: Option<Arc<FaultLog>>) {
        let mut inner = self.inner.lock();
        inner.fault_log = log.clone();
        if let Some(e) = inner.ext.as_mut() {
            e.set_fault_log(log);
        }
    }

    /// Attach a runtime invariant auditor; every public mutation then
    /// cross-checks frame/map agreement and extension slot conservation.
    pub fn set_auditor(&self, auditor: Option<Arc<Auditor>>) {
        self.inner.lock().auditor = auditor;
    }

    /// Mirror [`BpStats`] into named metrics (`bp.hits`, `bpext.hits`,
    /// `bpext.hit_ratio`, …) on the given registry.
    pub fn set_metrics(&self, registry: Option<Arc<MetricsRegistry>>) {
        self.inner.lock().metrics = registry.map(|r| BpCounters::new(&r));
    }

    /// Start (or stop and forget) an ordered log of every `with_page` /
    /// `with_page_mut` / `new_page` call — what a golden test pins to show
    /// that a rewrite above the pool asks it for the same pages in the same
    /// order.
    pub fn record_accesses(&self, on: bool) {
        self.inner.lock().accesses = on.then(Vec::new);
    }

    /// Drain the log [`BufferPool::record_accesses`] started.
    pub fn take_accesses(&self) -> Vec<(PageAccess, FileId, PageNo)> {
        let mut inner = self.inner.lock();
        inner
            .accesses
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    fn verify(inner: &Inner, at: SimTime) {
        let Some(aud) = inner.auditor.as_ref() else {
            return;
        };
        aud.check_balance(
            at,
            "bufferpool",
            "frame-map-agreement",
            ("mapped_pages", inner.map.len() as i128),
            &[("occupied_frames", inner.frames.len() as i128)],
        );
        aud.check_that(
            at,
            "bufferpool",
            "frame-map-agreement",
            inner
                .map
                .iter()
                .all(|(k, &i)| inner.frames.get(i).is_some_and(|fr| fr.key == *k)),
            || "a page-map entry points at a frame holding a different key".to_string(),
        );
        if let Some(ext) = inner.ext.as_ref() {
            aud.check_balance(
                at,
                "bufferpool",
                "ext-slot-conservation",
                ("total_slots", ext.total_slots as i128),
                &[
                    ("resident", ext.map.len() as i128),
                    ("free", ext.free.len() as i128),
                ],
            );
        }
        aud.observe_clock("bufferpool", at);
    }

    pub fn has_extension(&self) -> bool {
        self.inner.lock().ext.is_some()
    }

    pub fn extension_failed(&self) -> bool {
        self.inner
            .lock()
            .ext
            .as_ref()
            .map(BpExt::has_failed)
            .unwrap_or(false)
    }

    /// Register a paged file so evictions can flush to it.
    pub fn register_file(&self, file: Arc<PagedFile>) {
        self.inner.lock().files.insert(file.id(), file);
    }

    pub fn stats(&self) -> BpStats {
        let inner = self.inner.lock();
        let mut s = inner.stats.clone();
        if let Some(ext) = inner.ext.as_ref() {
            s.ext_suspends = ext.suspends;
            s.ext_reattaches = ext.reattaches;
            s.ext_lost_pages = ext.lost_pages;
        }
        s
    }

    pub fn reset_stats(&self) {
        self.inner.lock().stats = BpStats::default();
    }

    /// Pages currently resident.
    pub fn resident_pages(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Put a page in a frame and map it: a frame never used before while
    /// the pool is filling, the clock sweep's victim once it is full.
    ///
    /// This takes frames exactly as a pool of `capacity` frames made up
    /// front would: no frame is ever freed except by the sweep, which hands
    /// it straight back, so while the pool fills the sweep would find the
    /// frames free in index order, and its hand would wrap to 0 as the last
    /// one is taken — where it starts once the pool is full.
    fn install(
        inner: &mut Inner,
        clock: &mut Clock,
        key: Key,
        page: Page,
        dirty: bool,
    ) -> Result<usize, StorageError> {
        let frame = Frame {
            key,
            page,
            dirty,
            referenced: true,
        };
        let idx = if inner.frames.len() < inner.capacity {
            inner.frames.push(frame);
            inner.frames.len() - 1
        } else {
            let idx = Self::evict_one(inner, clock)?;
            inner.frames[idx] = frame;
            idx
        };
        inner.map.insert(key, idx);
        Ok(idx)
    }

    /// The clock sweep over a full pool: evict the first frame whose
    /// reference bit is clear and return its index for the caller to
    /// overwrite.
    fn evict_one(inner: &mut Inner, clock: &mut Clock) -> Result<usize, StorageError> {
        // skip referenced frames once, clearing their bit
        loop {
            let idx = inner.hand;
            inner.hand = (inner.hand + 1) % inner.capacity;
            let frame = &mut inner.frames[idx];
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            let key = frame.key;
            // flush if dirty — via the lazy writer: the device time is
            // consumed (a background clock reserves it) but the evicting
            // query is not stalled, as in a real engine's write-behind path
            if frame.dirty {
                let file = inner
                    .files
                    .get(&key.0)
                    .unwrap_or_else(|| panic!("file {:?} not registered", key.0))
                    .clone();
                let mut lazy_writer = Clock::starting_at(clock.now());
                file.write_page(&mut lazy_writer, key.1, &frame.page)?;
                inner.stats.dirty_flushes += 1;
                if let Some(m) = &inner.metrics {
                    m.dirty_flushes.incr();
                }
            }
            // the (now clean) page goes to the extension tier; only an
            // actual device write counts as one — an up-to-date cached copy
            // is a skip, not I/O
            if let Some(ext) = inner.ext.as_mut() {
                if ext.put(clock, key, &frame.page) == PutOutcome::Written {
                    inner.stats.ext_writes += 1;
                    if let Some(m) = &inner.metrics {
                        m.ext_writes.incr();
                    }
                }
            }
            inner.map.remove(&key);
            inner.stats.evictions += 1;
            if let Some(m) = &inner.metrics {
                m.evictions.incr();
            }
            return Ok(idx);
        }
    }

    fn load(
        &self,
        inner: &mut Inner,
        clock: &mut Clock,
        file: FileId,
        page_no: PageNo,
    ) -> Result<usize, StorageError> {
        let key = (file, page_no);
        if let Some(&idx) = inner.map.get(&key) {
            inner.stats.hits += 1;
            if let Some(m) = &inner.metrics {
                m.hits.incr();
            }
            inner.frames[idx].referenced = true;
            clock.advance(self.hit_cost);
            return Ok(idx);
        }
        inner.stats.misses += 1;
        if let Some(m) = &inner.metrics {
            m.misses.incr();
        }
        // sequential-stream detection is shared by both tiers: a miss
        // continuing a sufficiently long recent stream reads ahead
        let history = inner.last_base_miss.entry(file).or_default();
        // near-sequential counts: interleaved allocations leave small gaps
        // in a table's leaf chain, which real readahead also tolerates
        let sequential = match history
            .iter()
            .position(|&(p, _)| p < page_no && page_no - p <= 4)
        {
            Some(i) => {
                let run = history[i].1 + 1;
                history[i] = (page_no, run);
                run >= READAHEAD_MIN_RUN
            }
            None => {
                if history.len() >= 8 {
                    history.pop_front();
                }
                history.push_back((page_no, 1));
                false
            }
        };
        // probe the extension tier first
        let from_ext = inner.ext.as_mut().and_then(|ext| ext.get(clock, key));
        let page = match from_ext {
            Some(p) => {
                inner.stats.ext_hits += 1;
                if let Some(m) = &inner.metrics {
                    m.ext_hits.incr();
                }
                // readahead within the extension: stage the following pages
                // of the stream so a scan doesn't pay per-page latency. The
                // whole run goes out as ONE vectored read — on a remote file
                // that is a single pipelined doorbell, not N serial verbs.
                if sequential {
                    let limit = READAHEAD_PAGES.min(inner.capacity as u64 / 2);
                    if let Some(mut ext) = inner.ext.take() {
                        let keys: Vec<Key> = (1..limit)
                            .map(|i| (file, page_no + i))
                            .filter(|k| !inner.map.contains_key(k))
                            .collect();
                        let pages = ext.get_many(clock, &keys);
                        let mut staged = Ok(());
                        for (k, pg) in keys.iter().zip(pages) {
                            // a page the batch could not deliver (not cached,
                            // or its request failed) is skipped, never a
                            // reason to drop the rest of the run
                            let Some(pg) = pg else { continue };
                            inner.stats.ext_hits += 1;
                            if let Some(m) = &inner.metrics {
                                m.ext_hits.incr();
                            }
                            if let Err(e) = Self::install(inner, clock, *k, pg, false) {
                                staged = Err(e);
                                break;
                            }
                        }
                        // re-attach BEFORE surfacing any staging error:
                        // losing the whole extension tier to one failed
                        // eviction flush was a real leak
                        inner.ext = Some(ext);
                        staged?;
                    }
                    if let Some(h) = inner.last_base_miss.get_mut(&file) {
                        if let Some(j) = h.iter().position(|&(p, _)| p == page_no) {
                            h[j].0 = page_no + limit - 1;
                        }
                    }
                }
                p
            }
            None => {
                let f = inner
                    .files
                    .get(&file)
                    .unwrap_or_else(|| panic!("file {file:?} not registered"))
                    .clone();
                inner.stats.base_reads += 1;
                if let Some(m) = &inner.metrics {
                    m.base_reads.incr();
                }
                let batch = if sequential {
                    READAHEAD_PAGES
                        .min(f.allocated_pages().saturating_sub(page_no))
                        .min(inner.capacity as u64 / 2)
                        .max(1)
                } else {
                    1
                };
                if batch > 1 {
                    // snapshot residency BEFORE the batch read: a page that
                    // is resident (possibly dirty) now may be evicted while
                    // we stage earlier batch pages, and the batch buffer
                    // holds its pre-flush (stale) image — never install it
                    let resident_at_read: Vec<bool> = (0..batch)
                        .map(|i| inner.map.contains_key(&(file, page_no + i)))
                        .collect();
                    let mut buf = vec![0u8; (batch * PAGE_SIZE as u64) as usize];
                    f.device()
                        .read(clock, page_no * PAGE_SIZE as u64, &mut buf)?;
                    if let Some(history) = inner.last_base_miss.get_mut(&file) {
                        if let Some(i) = history.iter().position(|&(p, _)| p == page_no) {
                            history[i].0 = page_no + batch - 1;
                        }
                    }
                    // stage the extra pages; the requested one is returned
                    for i in 1..batch {
                        let k = (file, page_no + i);
                        if resident_at_read[i as usize] || inner.map.contains_key(&k) {
                            continue;
                        }
                        let pg = Page::from_bytes(
                            &buf[(i * PAGE_SIZE as u64) as usize
                                ..((i + 1) * PAGE_SIZE as u64) as usize],
                        );
                        Self::install(inner, clock, k, pg, false)?;
                    }
                    Page::from_bytes(&buf[..PAGE_SIZE])
                } else {
                    f.read_page(clock, page_no)?
                }
            }
        };
        let idx = Self::install(inner, clock, key, page, false)?;
        if let Some(m) = &inner.metrics {
            let probes = inner.stats.ext_hits + inner.stats.base_reads;
            if probes > 0 {
                m.ext_hit_ratio
                    .set(inner.stats.ext_hits as f64 / probes as f64);
            }
        }
        Ok(idx)
    }

    /// Run `f` over the (read-only) contents of a page, faulting it in if
    /// needed.
    pub fn with_page<R>(
        &self,
        clock: &mut Clock,
        file: FileId,
        page_no: PageNo,
        f: impl FnOnce(&Page) -> R,
    ) -> Result<R, StorageError> {
        let mut inner = self.inner.lock();
        inner.note_access(PageAccess::Read, file, page_no);
        let idx = self.load(&mut inner, clock, file, page_no)?;
        Self::verify(&inner, clock.now());
        Ok(f(&inner.frames[idx].page))
    }

    /// Run `f` over the mutable contents of a page; marks it dirty and
    /// invalidates any stale extension copy.
    pub fn with_page_mut<R>(
        &self,
        clock: &mut Clock,
        file: FileId,
        page_no: PageNo,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<R, StorageError> {
        let mut inner = self.inner.lock();
        inner.note_access(PageAccess::Write, file, page_no);
        let idx = self.load(&mut inner, clock, file, page_no)?;
        inner.frames[idx].dirty = true;
        let key = (file, page_no);
        if let Some(ext) = inner.ext.as_mut() {
            ext.invalidate(key);
        }
        Self::verify(&inner, clock.now());
        Ok(f(&mut inner.frames[idx].page))
    }

    /// Materialize a freshly-allocated page in the pool without reading the
    /// device (it has no prior contents).
    pub fn new_page(
        &self,
        clock: &mut Clock,
        file: FileId,
        page_no: PageNo,
    ) -> Result<(), StorageError> {
        let mut inner = self.inner.lock();
        inner.note_access(PageAccess::New, file, page_no);
        let key = (file, page_no);
        assert!(
            !inner.map.contains_key(&key),
            "page {key:?} already resident"
        );
        Self::install(&mut inner, clock, key, Page::new(), true)?;
        clock.advance(self.hit_cost);
        Self::verify(&inner, clock.now());
        Ok(())
    }

    /// Flush every dirty page to its base file (checkpoint).
    pub fn flush_all(&self, clock: &mut Clock) -> Result<(), StorageError> {
        let mut inner = self.inner.lock();
        let dirty: Vec<usize> = inner
            .frames
            .iter()
            .enumerate()
            .filter(|(_, fr)| fr.dirty)
            .map(|(i, _)| i)
            .collect();
        for idx in dirty {
            let key = inner.frames[idx].key;
            let file = inner.files.get(&key.0).expect("file registered").clone();
            let page = inner.frames[idx].page.clone();
            file.write_page(clock, key.1, &page)?;
            inner.frames[idx].dirty = false;
            inner.stats.dirty_flushes += 1;
            if let Some(m) = &inner.metrics {
                m.dirty_flushes.incr();
            }
        }
        Self::verify(&inner, clock.now());
        Ok(())
    }

    /// Snapshot of resident pages — the source side of buffer-pool priming
    /// (§3.4). Returns `(key, page)` pairs in no particular order.
    pub fn warm_pages(&self) -> Vec<((FileId, PageNo), Page)> {
        let inner = self.inner.lock();
        inner
            .frames
            .iter()
            .map(|fr| (fr.key, fr.page.clone()))
            .collect()
    }

    /// Preload pages into the pool (the destination side of priming).
    /// Does not touch any device; the caller already paid transfer costs.
    pub fn prime(&self, clock: &mut Clock, pages: Vec<((FileId, PageNo), Page)>) {
        let mut inner = self.inner.lock();
        for (key, page) in pages {
            if inner.map.contains_key(&key) {
                continue;
            }
            if Self::install(&mut inner, clock, key, page, false).is_err() {
                break;
            }
        }
        Self::verify(&inner, clock.now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remem_storage::RamDisk;

    fn setup(pool_pages: u64, file_pages: u64) -> (BufferPool, Arc<PagedFile>, Clock) {
        let bp = BufferPool::new(pool_pages * PAGE_SIZE as u64);
        let file = Arc::new(PagedFile::new(
            FileId(0),
            Arc::new(RamDisk::new(file_pages * PAGE_SIZE as u64)),
        ));
        bp.register_file(Arc::clone(&file));
        (bp, file, Clock::new())
    }

    fn write_marker(bp: &BufferPool, clock: &mut Clock, file: &PagedFile, n: u64) {
        let p = file.allocate().unwrap();
        assert_eq!(p, n);
        bp.new_page(clock, file.id(), p).unwrap();
        bp.with_page_mut(clock, file.id(), p, |pg| {
            pg.insert(&n.to_le_bytes()).unwrap();
        })
        .unwrap();
    }

    fn read_marker(bp: &BufferPool, clock: &mut Clock, file: FileId, n: u64) -> u64 {
        bp.with_page(clock, file, n, |pg| {
            u64::from_le_bytes(pg.get(0).try_into().unwrap())
        })
        .unwrap()
    }

    #[test]
    fn hits_after_first_access() {
        let (bp, file, mut clock) = setup(8, 8);
        write_marker(&bp, &mut clock, &file, 0);
        assert_eq!(read_marker(&bp, &mut clock, file.id(), 0), 0);
        let s = bp.stats();
        assert!(s.hits >= 1);
        assert_eq!(s.misses, 0, "new_page + reads should never miss here");
    }

    #[test]
    fn eviction_flushes_dirty_pages_and_data_survives() {
        let (bp, file, mut clock) = setup(4, 32);
        for n in 0..32 {
            write_marker(&bp, &mut clock, &file, n);
        }
        // pool holds 4 frames; early pages were evicted and flushed
        for n in 0..32 {
            assert_eq!(read_marker(&bp, &mut clock, file.id(), n), n);
        }
        let s = bp.stats();
        assert!(s.evictions > 0);
        assert!(s.dirty_flushes >= 28);
        assert!(s.misses > 0);
    }

    #[test]
    fn extension_serves_evicted_pages() {
        let (bp, file, mut clock) = setup(4, 64);
        bp.set_extension(Some(BpExt::new(Arc::new(RamDisk::new(
            64 * PAGE_SIZE as u64,
        )))));
        for n in 0..32 {
            write_marker(&bp, &mut clock, &file, n);
        }
        bp.reset_stats();
        for n in 0..32 {
            assert_eq!(read_marker(&bp, &mut clock, file.id(), n), n);
        }
        let s = bp.stats();
        assert!(s.ext_hits > 0, "extension should serve most misses: {s:?}");
        assert!(
            s.ext_hits + s.hits >= 28,
            "almost all accesses should avoid the base device: {s:?}"
        );
    }

    #[test]
    fn extension_copy_is_invalidated_on_write() {
        let (bp, file, mut clock) = setup(2, 16);
        bp.set_extension(Some(BpExt::new(Arc::new(RamDisk::new(
            16 * PAGE_SIZE as u64,
        )))));
        write_marker(&bp, &mut clock, &file, 0);
        write_marker(&bp, &mut clock, &file, 1);
        write_marker(&bp, &mut clock, &file, 2); // page 0 evicted to ext
                                                 // mutate page 0: must invalidate the ext copy
        bp.with_page_mut(&mut clock, file.id(), 0, |pg| {
            pg.insert(b"v2").unwrap();
        })
        .unwrap();
        // churn so page 0 is evicted again (flushed to base with v2)
        write_marker(&bp, &mut clock, &file, 3);
        write_marker(&bp, &mut clock, &file, 4);
        let v = bp
            .with_page(&mut clock, file.id(), 0, |pg| {
                (pg.len(), pg.get(1).to_vec())
            })
            .unwrap();
        assert_eq!(
            v,
            (2, b"v2".to_vec()),
            "stale extension copy must never be served"
        );
    }

    #[test]
    fn failed_extension_degrades_gracefully() {
        let (bp, file, mut clock) = setup(4, 64);
        let ext_disk = Arc::new(RamDisk::new(64 * PAGE_SIZE as u64));
        bp.set_extension(Some(BpExt::new(Arc::clone(&ext_disk) as Arc<dyn Device>)));
        for n in 0..32 {
            write_marker(&bp, &mut clock, &file, n);
        }
        // the remote memory behind the extension disappears
        ext_disk.fail();
        // correctness unaffected: everything still readable from base
        for n in 0..32 {
            assert_eq!(read_marker(&bp, &mut clock, file.id(), n), n);
        }
        assert!(bp.extension_failed());
    }

    #[test]
    fn extension_capacity_is_fifo_bounded() {
        let (bp, file, mut clock) = setup(2, 64);
        // tiny extension: 4 pages
        bp.set_extension(Some(BpExt::new(Arc::new(RamDisk::new(
            4 * PAGE_SIZE as u64,
        )))));
        for n in 0..32 {
            write_marker(&bp, &mut clock, &file, n);
        }
        // no panic, and reads still correct
        for n in 0..32 {
            assert_eq!(read_marker(&bp, &mut clock, file.id(), n), n);
        }
    }

    #[test]
    fn flush_all_checkpoints_dirty_pages() {
        let (bp, file, mut clock) = setup(8, 8);
        for n in 0..4 {
            write_marker(&bp, &mut clock, &file, n);
        }
        bp.flush_all(&mut clock).unwrap();
        // read pages directly from the device: contents must be there
        for n in 0..4 {
            let pg = file.read_page(&mut clock, n).unwrap();
            assert_eq!(pg.get(0), &n.to_le_bytes());
        }
    }

    #[test]
    fn warm_pages_and_prime_round_trip() {
        let (bp, file, mut clock) = setup(8, 8);
        for n in 0..4 {
            write_marker(&bp, &mut clock, &file, n);
        }
        bp.flush_all(&mut clock).unwrap();
        let warm = bp.warm_pages();
        assert_eq!(warm.len(), 4);

        let (bp2, file2, mut clock2) = setup(8, 8);
        let _ = file2;
        bp2.prime(&mut clock2, warm);
        assert_eq!(bp2.resident_pages(), 4);
        bp2.reset_stats();
        // primed pages are hits, never device reads
        for n in 0..4 {
            assert_eq!(read_marker(&bp2, &mut clock2, FileId(0), n), n);
        }
        assert_eq!(bp2.stats().misses, 0);
    }

    #[test]
    fn sequential_scans_use_readahead_batches() {
        // 64 sequential pages on an SSD-backed file: after the run-length
        // threshold, misses coalesce into few large device reads
        let bp = BufferPool::new(128 * PAGE_SIZE as u64);
        let file = Arc::new(PagedFile::new(
            FileId(3),
            Arc::new(remem_storage::Ssd::new(
                remem_storage::SsdConfig::with_capacity(256 * PAGE_SIZE as u64),
            )),
        ));
        bp.register_file(Arc::clone(&file));
        let mut clock = Clock::new();
        for _ in 0..64 {
            file.allocate().unwrap();
        }
        for n in 0..64 {
            bp.with_page(&mut clock, FileId(3), n, |_| {}).unwrap();
        }
        let s = bp.stats();
        assert_eq!(s.hits + s.misses, 64, "every page accessed once");
        assert!(
            s.misses < 20 && s.base_reads < 20,
            "readahead should stage most pages ahead of their access: {s:?}"
        );
        // and random access does NOT trigger readahead over-fetch
        bp.reset_stats();
        let bp2 = BufferPool::new(128 * PAGE_SIZE as u64);
        bp2.register_file(Arc::clone(&file));
        for n in [5u64, 50, 17, 33, 8, 60, 2, 44] {
            bp2.with_page(&mut clock, FileId(3), n, |_| {}).unwrap();
        }
        let s2 = bp2.stats();
        assert_eq!(
            s2.base_reads, 8,
            "random misses must read exactly one page each"
        );
    }

    /// A RamDisk whose failures can be healed again, with controllable
    /// transient-vs-fatal flavor and reportable lost ranges — the test
    /// stand-in for a self-healing remote file.
    struct HealableDisk {
        inner: RamDisk,
        failing: parking_lot::Mutex<Option<bool>>, // Some(fatal?)
        lost: parking_lot::Mutex<Vec<(u64, u64)>>,
    }

    impl HealableDisk {
        fn new(bytes: u64) -> HealableDisk {
            HealableDisk {
                inner: RamDisk::new(bytes),
                failing: parking_lot::Mutex::new(None),
                lost: parking_lot::Mutex::new(Vec::new()),
            }
        }

        fn fail(&self, fatal: bool) {
            *self.failing.lock() = Some(fatal);
        }

        fn heal(&self) {
            *self.failing.lock() = None;
        }

        fn lose_range(&self, start: u64, len: u64) {
            self.lost.lock().push((start, len));
        }

        fn check(&self) -> Result<(), StorageError> {
            match *self.failing.lock() {
                None => Ok(()),
                Some(true) => Err(StorageError::Unavailable("disk gone".into())),
                Some(false) => Err(StorageError::Transient("disk flapping".into())),
            }
        }
    }

    impl Device for HealableDisk {
        fn read(&self, clock: &mut Clock, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
            self.check()?;
            self.inner.read(clock, offset, buf)
        }
        fn write(&self, clock: &mut Clock, offset: u64, data: &[u8]) -> Result<(), StorageError> {
            self.check()?;
            self.inner.write(clock, offset, data)
        }
        fn capacity(&self) -> u64 {
            self.inner.capacity()
        }
        fn label(&self) -> String {
            "healable".into()
        }
        fn drain_lost_ranges(&self) -> Vec<(u64, u64)> {
            std::mem::take(&mut *self.lost.lock())
        }
    }

    #[test]
    fn suspended_extension_reattaches_after_device_recovers() {
        let (bp, file, mut clock) = setup(4, 64);
        let disk = Arc::new(HealableDisk::new(64 * PAGE_SIZE as u64));
        bp.set_extension(Some(BpExt::new(Arc::clone(&disk) as Arc<dyn Device>)));
        let log = Arc::new(FaultLog::new());
        bp.set_fault_log(Some(Arc::clone(&log)));
        for n in 0..32 {
            write_marker(&bp, &mut clock, &file, n);
        }
        // fatal outage: tier suspends, reads fall back to base, stay correct
        disk.fail(true);
        for n in 0..32 {
            assert_eq!(read_marker(&bp, &mut clock, file.id(), n), n);
        }
        assert!(
            bp.extension_failed(),
            "tier must be suspended during the outage"
        );
        let s = bp.stats();
        assert!(s.ext_suspends >= 1, "{s:?}");
        assert!(
            s.ext_lost_pages > 0,
            "fatal failure discards the cached mapping: {s:?}"
        );

        // device heals; once the probe backoff elapses the next eviction
        // probes, re-attaches, and the tier serves hits again
        disk.heal();
        clock.advance(SimDuration::from_secs(10));
        for n in 0..32 {
            assert_eq!(read_marker(&bp, &mut clock, file.id(), n), n);
        }
        assert!(!bp.extension_failed(), "tier must re-attach after recovery");
        bp.reset_stats();
        for n in 0..32 {
            assert_eq!(read_marker(&bp, &mut clock, file.id(), n), n);
        }
        let s = bp.stats();
        assert!(
            s.ext_hits > 0,
            "re-attached extension should serve hits: {s:?}"
        );
        assert!(s.ext_reattaches >= 1, "{s:?}");
        assert!(log.count("bpext.suspend", FaultOrigin::Observed) >= 1);
        assert!(log.count("bpext.reattach", FaultOrigin::Recovery) >= 1);
    }

    #[test]
    fn transient_failure_keeps_mapping_and_probes_hold_until_backoff() {
        let (bp, file, mut clock) = setup(4, 64);
        let disk = Arc::new(HealableDisk::new(64 * PAGE_SIZE as u64));
        bp.set_extension(Some(BpExt::new(Arc::clone(&disk) as Arc<dyn Device>)));
        for n in 0..16 {
            write_marker(&bp, &mut clock, &file, n);
        }
        disk.fail(false); // transient
        assert_eq!(read_marker(&bp, &mut clock, file.id(), 0), 0);
        assert!(bp.extension_failed());
        let suspends = bp.stats().ext_suspends;
        // within the backoff window no further device traffic happens, so
        // the suspend count cannot grow
        assert_eq!(read_marker(&bp, &mut clock, file.id(), 1), 1);
        assert_eq!(bp.stats().ext_suspends, suspends);
        assert_eq!(
            bp.stats().ext_lost_pages,
            0,
            "transient failure keeps the mapping"
        );
        // heal before the probe: cached pages survive the blip
        disk.heal();
        clock.advance(SimDuration::from_secs(1));
        bp.reset_stats();
        for n in 0..16 {
            assert_eq!(read_marker(&bp, &mut clock, file.id(), n), n);
        }
        let s = bp.stats();
        assert!(!bp.extension_failed());
        assert!(
            s.ext_hits > 0,
            "mapping kept across a transient blip: {s:?}"
        );
    }

    #[test]
    fn lost_ranges_invalidate_only_the_overlapping_pages() {
        let (bp, file, mut clock) = setup(2, 16);
        let disk = Arc::new(HealableDisk::new(16 * PAGE_SIZE as u64));
        bp.set_extension(Some(BpExt::new(Arc::clone(&disk) as Arc<dyn Device>)));
        for n in 0..8 {
            write_marker(&bp, &mut clock, &file, n);
        }
        // the device self-healed a stripe: its bytes are zeroed, and cached
        // pages over it must be dropped rather than served
        disk.lose_range(0, 2 * PAGE_SIZE as u64);
        for n in 0..8 {
            assert_eq!(
                read_marker(&bp, &mut clock, file.id(), n),
                n,
                "page {n} corrupted"
            );
        }
        let s = bp.stats();
        assert!(
            s.ext_lost_pages >= 1 && s.ext_lost_pages <= 2,
            "exactly the overlapping slots are dropped: {s:?}"
        );
        assert!(
            !bp.extension_failed(),
            "losing a stripe is not a tier failure"
        );
    }

    #[test]
    fn ext_survives_readahead_eviction_failure() {
        // Regression: the ext readahead loop used to `take()` the extension
        // and only re-attach it on success, so a dirty-flush error inside
        // the loop silently dropped the whole tier.
        let bp = BufferPool::new(16 * PAGE_SIZE as u64);
        let disk_a = Arc::new(HealableDisk::new(64 * PAGE_SIZE as u64));
        let file_a = Arc::new(PagedFile::new(
            FileId(0),
            Arc::clone(&disk_a) as Arc<dyn Device>,
        ));
        bp.register_file(Arc::clone(&file_a));
        let file_b = Arc::new(PagedFile::new(
            FileId(9),
            Arc::new(RamDisk::new(64 * PAGE_SIZE as u64)),
        ));
        bp.register_file(Arc::clone(&file_b));
        let mut clock = Clock::new();
        // 8 dirty file-A frames that any later eviction must flush
        for n in 0..8 {
            write_marker(&bp, &mut clock, &file_a, n);
        }
        // extension pre-loaded with a sequential run of file-B pages
        let mut ext = BpExt::new(Arc::new(RamDisk::new(64 * PAGE_SIZE as u64)));
        for n in 0..20 {
            file_b.allocate().unwrap();
            assert_eq!(
                ext.put(&mut clock, (FileId(9), n), &Page::new()),
                PutOutcome::Written
            );
        }
        bp.set_extension(Some(ext));
        disk_a.fail(true);
        // scanning B serves from the extension; once readahead engages, the
        // staging evictions reach a dirty A frame whose flush now fails
        let mut failed = false;
        for n in 0..8 {
            if bp.with_page(&mut clock, FileId(9), n, |_| {}).is_err() {
                failed = true;
                break;
            }
        }
        assert!(
            failed,
            "a dirty flush against the failed base disk must surface"
        );
        assert!(
            bp.has_extension(),
            "an eviction error during ext readahead must not drop the extension tier"
        );
        // once the base device heals the tier keeps serving
        disk_a.heal();
        bp.with_page(&mut clock, FileId(9), 7, |_| {}).unwrap();
    }

    #[test]
    fn ext_writes_counts_only_real_device_writes() {
        // Regression: `put`'s already-cached skip path used to report a
        // write, inflating ext_writes on every clean re-eviction.
        let (bp, file, mut clock) = setup(2, 16);
        bp.set_extension(Some(BpExt::new(Arc::new(RamDisk::new(
            16 * PAGE_SIZE as u64,
        )))));
        for n in 0..3 {
            write_marker(&bp, &mut clock, &file, n);
        }
        bp.flush_all(&mut clock).unwrap();
        // warm: thrash the 2-frame pool until every page has an up-to-date
        // extension copy
        for _ in 0..2 {
            for n in 0..3 {
                bp.with_page(&mut clock, file.id(), n, |_| {}).unwrap();
            }
        }
        bp.reset_stats();
        // steady state: every eviction is a clean page the extension already
        // caches — zero device writes, only hits
        for _ in 0..2 {
            for n in 0..3 {
                bp.with_page(&mut clock, file.id(), n, |_| {}).unwrap();
            }
        }
        let s = bp.stats();
        assert!(s.evictions > 0, "{s:?}");
        assert!(s.ext_hits > 0, "{s:?}");
        assert_eq!(
            s.ext_writes, 0,
            "clean re-evictions must not count as ext writes: {s:?}"
        );
    }

    #[test]
    fn auditor_sees_conserved_state_through_churn() {
        let (bp, file, mut clock) = setup(4, 64);
        bp.set_extension(Some(BpExt::new(Arc::new(RamDisk::new(
            8 * PAGE_SIZE as u64,
        )))));
        let aud = Arc::new(Auditor::new()); // panics on the first violation
        bp.set_auditor(Some(Arc::clone(&aud)));
        for n in 0..32 {
            write_marker(&bp, &mut clock, &file, n);
        }
        for n in 0..32 {
            assert_eq!(read_marker(&bp, &mut clock, file.id(), n), n);
        }
        bp.flush_all(&mut clock).unwrap();
        assert!(
            aud.checks() > 100,
            "auditor must have been exercised: {}",
            aud.checks()
        );
    }

    /// A RamDisk whose next vectored read fails exactly one request of the
    /// batch — the test stand-in for a pipelined remote file whose doorbell
    /// batch partially fails.
    struct PartialVectoredDisk {
        inner: RamDisk,
        fail_req: parking_lot::Mutex<Option<usize>>,
    }

    impl PartialVectoredDisk {
        fn new(bytes: u64) -> PartialVectoredDisk {
            PartialVectoredDisk {
                inner: RamDisk::new(bytes),
                fail_req: parking_lot::Mutex::new(None),
            }
        }

        /// Arm: the k-th request of the next vectored batch fails transiently.
        fn fail_next_batch_request(&self, k: usize) {
            *self.fail_req.lock() = Some(k);
        }
    }

    impl Device for PartialVectoredDisk {
        fn read(&self, clock: &mut Clock, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
            self.inner.read(clock, offset, buf)
        }
        fn write(&self, clock: &mut Clock, offset: u64, data: &[u8]) -> Result<(), StorageError> {
            self.inner.write(clock, offset, data)
        }
        fn read_vectored(
            &self,
            clock: &mut Clock,
            reqs: &mut [(u64, &mut [u8])],
        ) -> Vec<Result<(), StorageError>> {
            let armed = self.fail_req.lock().take();
            reqs.iter_mut()
                .enumerate()
                .map(|(i, (off, buf))| {
                    if armed == Some(i) {
                        Err(StorageError::Transient("batch member dropped".into()))
                    } else {
                        self.inner.read(clock, *off, buf)
                    }
                })
                .collect()
        }
        fn capacity(&self) -> u64 {
            self.inner.capacity()
        }
        fn label(&self) -> String {
            "partial-vectored".into()
        }
    }

    #[test]
    fn partially_failed_readahead_batch_keeps_slots_and_counts() {
        // Regression for the vectored readahead path: a batch that fails one
        // request mid-flight must neither leak extension slots (auditor
        // panics) nor inflate ext_writes, and every survivor must still be
        // served. A transient member failure suspends the tier exactly like
        // a scalar failure, but the mapping survives the blip.
        let (bp, file, mut clock) = setup(4, 64);
        let disk = Arc::new(PartialVectoredDisk::new(64 * PAGE_SIZE as u64));
        bp.set_extension(Some(BpExt::new(Arc::clone(&disk) as Arc<dyn Device>)));
        let aud = Arc::new(Auditor::new()); // panics on the first violation
        bp.set_auditor(Some(Arc::clone(&aud)));
        for n in 0..32 {
            write_marker(&bp, &mut clock, &file, n);
        }
        // warm the extension, then fail the 3rd request of the next
        // readahead batch mid-scan
        for n in 0..32 {
            assert_eq!(read_marker(&bp, &mut clock, file.id(), n), n);
        }
        disk.fail_next_batch_request(2);
        bp.reset_stats();
        for n in 0..32 {
            assert_eq!(read_marker(&bp, &mut clock, file.id(), n), n);
        }
        let s = bp.stats();
        assert_eq!(
            s.ext_lost_pages, 0,
            "a transient batch member failure keeps the mapping: {s:?}"
        );
        // backoff elapses; the tier re-attaches with its slots conserved
        clock.advance(SimDuration::from_secs(10));
        bp.reset_stats();
        for n in 0..32 {
            assert_eq!(read_marker(&bp, &mut clock, file.id(), n), n);
        }
        let s = bp.stats();
        assert!(
            !bp.extension_failed(),
            "tier recovers after the blip: {s:?}"
        );
        assert!(s.ext_hits > 0, "recovered tier serves hits again: {s:?}");
        assert!(
            aud.checks() > 100,
            "slot conservation must have been audited throughout: {}",
            aud.checks()
        );
    }

    /// Page buffers the pool holds right now.
    fn page_buffers(bp: &BufferPool) -> usize {
        bp.inner.lock().frames.len()
    }

    #[test]
    fn frames_materialise_on_first_use() {
        let (bp, file, mut clock) = setup(8, 32);
        assert_eq!(page_buffers(&bp), 0, "a new pool holds no page buffer");
        for n in 0..5 {
            write_marker(&bp, &mut clock, &file, n);
        }
        assert_eq!(page_buffers(&bp), 5, "one buffer per page served");
        assert_eq!(bp.frame_count(), 8, "frame_count is the capacity");
        for n in 5..20 {
            write_marker(&bp, &mut clock, &file, n);
        }
        for n in 0..20 {
            assert_eq!(read_marker(&bp, &mut clock, file.id(), n), n);
        }
        assert_eq!(page_buffers(&bp), 8, "never more buffers than frames");
        assert_eq!(bp.resident_pages(), 8);
    }

    /// A sequential scan on a fresh 24-frame pool, served by the base device
    /// (`from_ext == false`) or by a preloaded extension. Readahead engages
    /// at the eighth miss, while most frames are still unused, so the run
    /// is pinned: the readahead limits follow the pool's capacity, not the
    /// number of frames used so far.
    fn fresh_pool_scan(from_ext: bool) -> String {
        let bp = BufferPool::new(24 * PAGE_SIZE as u64);
        let file = Arc::new(PagedFile::new(
            FileId(2),
            Arc::new(remem_storage::Ssd::new(
                remem_storage::SsdConfig::with_capacity(64 * PAGE_SIZE as u64),
            )),
        ));
        bp.register_file(Arc::clone(&file));
        let mut clock = Clock::new();
        let mut ext = BpExt::new(Arc::new(RamDisk::new(64 * PAGE_SIZE as u64)));
        for n in 0..40u64 {
            assert_eq!(file.allocate().unwrap(), n);
            let mut pg = Page::new();
            pg.insert(&n.to_le_bytes()).unwrap();
            file.write_page(&mut clock, n, &pg).unwrap();
            if from_ext {
                ext.put(&mut clock, (file.id(), n), &pg);
            }
        }
        if from_ext {
            bp.set_extension(Some(ext));
        }
        bp.record_accesses(true);
        let mut read = 0u64;
        for n in 0..30 {
            read = read.wrapping_mul(31) + read_marker(&bp, &mut clock, file.id(), n);
        }
        let mut log = 0xcbf2_9ce4_8422_2325u64;
        for (kind, f, p) in bp.take_accesses() {
            for b in [kind as u64, f.0 as u64, p] {
                log = (log ^ b).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        format!(
            "t={} log={log:016x} read={read} resident={} {:?}",
            clock.now().as_nanos(),
            bp.resident_pages(),
            bp.stats()
        )
    }

    #[test]
    fn readahead_on_a_fresh_pool_from_base() {
        assert_eq!(
            fresh_pool_scan(false),
            "t=18252100 log=2cd3e372d29459ba read=4334487890020705295 resident=24 \
             BpStats { hits: 21, misses: 9, ext_hits: 0, ext_writes: 0, base_reads: 9, \
             dirty_flushes: 0, evictions: 7, ext_suspends: 0, ext_reattaches: 0, \
             ext_lost_pages: 0 }"
        );
    }

    #[test]
    fn readahead_on_a_fresh_pool_from_extension() {
        assert_eq!(
            fresh_pool_scan(true),
            "t=16154608 log=2cd3e372d29459ba read=4334487890020705295 resident=24 \
             BpStats { hits: 21, misses: 9, ext_hits: 31, ext_writes: 0, base_reads: 0, \
             dirty_flushes: 0, evictions: 7, ext_suspends: 0, ext_reattaches: 0, \
             ext_lost_pages: 0 }"
        );
    }

    #[test]
    fn hit_is_far_cheaper_than_miss() {
        let (bp, file, mut clock) = setup(2, 16);
        // use an SSD so misses have real cost
        let ssd_file = Arc::new(PagedFile::new(
            FileId(7),
            Arc::new(remem_storage::Ssd::new(
                remem_storage::SsdConfig::with_capacity(16 * PAGE_SIZE as u64),
            )),
        ));
        bp.register_file(Arc::clone(&ssd_file));
        let _ = file;
        let p = ssd_file.allocate().unwrap();
        let t0 = clock.now();
        bp.with_page(&mut clock, FileId(7), p, |_| {}).unwrap();
        let miss_cost = clock.now().since(t0);
        let t1 = clock.now();
        bp.with_page(&mut clock, FileId(7), p, |_| {}).unwrap();
        let hit_cost = clock.now().since(t1);
        assert!(miss_cost.as_nanos() > 100 * hit_cost.as_nanos());
    }
}
