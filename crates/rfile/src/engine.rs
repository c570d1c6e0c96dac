//! The chunk engine: the one loop every remote-file verb runs through.
//!
//! A request is a file range plus a payload. [`run`] checks the batch once
//! (open, bounds, lease), then repeats until every request is settled:
//! carve the ready chunks — translating each to its backing MR on every
//! attempt, because a repair may have swapped it, and cutting at extent
//! boundaries — hand them to the verb, and [`Run::settle`] each outcome:
//! done, retry behind a backoff, heal ([`Run::heal`]: newer replica epoch,
//! else peer replica, else lease repair) and retry, or fail the request
//! with a typed error. Faults are classified, logged and counted nowhere
//! else.
//!
//! A [`Verb`] supplies only what differs between verbs: the payload it
//! moves, how a wave reaches the fabric ([`Scalar`]: one fabric call per
//! chunk; [`Batched`]: one doorbell per wave), and whether chunks of one
//! request may be in flight together. DESIGN.md §3 tabulates the verbs and
//! the `settle` state machine.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;

use remem_net::{MrHandle, NetError, Protocol, PushdownRequest, ReadSge, WorkRequest, WriteSge};
use remem_sim::{Clock, FaultOrigin, SimDuration, SimTime};
use remem_storage::{PushdownProgram, StorageError};

use crate::config::{AccessMode, RegistrationMode};
use crate::file::{PushdownScan, QuorumAppend, RemoteFile};

/// Safety valve: fatal-fault heal attempts per I/O call before giving up.
const MAX_HEALS_PER_IO: u32 = 4;

/// What a verb moves for one request, and how to cut it where the file
/// crosses an extent boundary.
pub(crate) trait Payload: Sized {
    fn bytes(&self) -> u64;
    fn split_at(self, at: u64) -> (Self, Self);
}

impl Payload for &mut [u8] {
    fn bytes(&self) -> u64 {
        self.len() as u64
    }
    fn split_at(self, at: u64) -> (Self, Self) {
        self.split_at_mut(at as usize)
    }
}

impl Payload for &[u8] {
    fn bytes(&self) -> u64 {
        self.len() as u64
    }
    fn split_at(self, at: u64) -> (Self, Self) {
        <[u8]>::split_at(self, at as usize)
    }
}

/// A pushdown span moves none of the caller's bytes: only its length is cut.
impl Payload for u64 {
    fn bytes(&self) -> u64 {
        *self
    }
    fn split_at(self, at: u64) -> (Self, Self) {
        (at, self - at)
    }
}

/// A payload that can ride a multi-SGE work request.
pub(crate) trait Gather: Payload {
    /// Post this buffer against `[offset, ..)` of `mr`: as one more SGE of
    /// the last work request when it continues that request's MR span
    /// (`adjacent`), else as a work request of its own.
    fn gather<'a>(
        &'a mut self,
        wrs: &mut Vec<WorkRequest<'a>>,
        adjacent: bool,
        mr: MrHandle,
        offset: u64,
    );
}

impl Gather for &mut [u8] {
    fn gather<'a>(
        &'a mut self,
        wrs: &mut Vec<WorkRequest<'a>>,
        adjacent: bool,
        mr: MrHandle,
        offset: u64,
    ) {
        let sge = ReadSge {
            mr,
            offset,
            buf: self,
        };
        match wrs.last_mut() {
            Some(WorkRequest::Read(sges)) if adjacent => sges.push(sge),
            _ => wrs.push(WorkRequest::Read(vec![sge])),
        }
    }
}

impl Gather for &[u8] {
    fn gather<'a>(
        &'a mut self,
        wrs: &mut Vec<WorkRequest<'a>>,
        adjacent: bool,
        mr: MrHandle,
        offset: u64,
    ) {
        let sge = WriteSge {
            mr,
            offset,
            data: self,
        };
        match wrs.last_mut() {
            Some(WorkRequest::Write(sges)) if adjacent => sges.push(sge),
            _ => wrs.push(WorkRequest::Write(vec![sge])),
        }
    }
}

/// One queued piece of a request. Chunks carry their own retry schedule, so
/// one chunk backing off never stalls the rest of a pipelined batch.
pub(crate) struct Chunk<P> {
    req: usize,
    pub(crate) file_off: u64,
    tries: u32,
    not_before: SimTime,
    pub(crate) payload: P,
}

/// A chunk after address translation: the first `len` bytes of its payload
/// live at `mr_off` within `mr`. A pipelined verb's payload is exactly `len`
/// long; a serial verb's also holds the rest of its request.
pub(crate) struct Located<P> {
    pub(crate) chunk: Chunk<P>,
    /// Index of the extent that serves it — on a replicated file, also of
    /// its replica group.
    pub(crate) slot: usize,
    pub(crate) mr: MrHandle,
    pub(crate) mr_off: u64,
    pub(crate) len: u64,
}

/// FIFO whose first element is stored inline. A serial verb's queue never
/// holds more than one chunk, so the scalar hot path stays off the heap.
struct Fifo<T> {
    /// `None` only when the whole queue is empty.
    head: Option<T>,
    rest: VecDeque<T>,
}

impl<T> Fifo<T> {
    fn new() -> Fifo<T> {
        Fifo {
            head: None,
            rest: VecDeque::new(),
        }
    }

    fn len(&self) -> usize {
        self.head.is_some() as usize + self.rest.len()
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.head.iter().chain(&self.rest)
    }

    fn push_back(&mut self, t: T) {
        match self.head {
            None => self.head = Some(t),
            Some(_) => self.rest.push_back(t),
        }
    }

    fn push_front(&mut self, t: T) {
        if let Some(old) = self.head.replace(t) {
            self.rest.push_front(old);
        }
    }

    fn pop_front(&mut self) -> Option<T> {
        let t = self.head.take()?;
        self.head = self.rest.pop_front();
        Some(t)
    }

    fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.rest.retain(&mut keep);
        if self.head.as_ref().is_some_and(|t| !keep(t)) {
            self.head = self.rest.pop_front();
        }
    }
}

/// The per-verb strategy the engine drives.
pub(crate) trait Verb {
    type Payload: Payload;

    /// How many chunks may share a doorbell. `None` makes the verb serial:
    /// a request's chunks go strictly one at a time and in order, so a
    /// backoff on one is never hidden behind the next.
    fn depth(&self) -> Option<usize>;

    /// Accept one located chunk into the wave being built.
    fn post(&mut self, chunk: Located<Self::Payload>);

    /// Issue the posted wave and hand every chunk back through
    /// [`Run::settle`], grouped by the fabric operation that carried it.
    fn flush(&mut self, clock: &mut Clock, run: &mut Run<'_, Self::Payload>);
}

/// A serial verb: each chunk is one call of `op`, which charges the clock
/// and reports the fabric's verdict.
struct Scalar<P, F> {
    /// Whether the whole chunk passes through a staging buffer (pushdown
    /// stages only its reply, inside `op`).
    staged: bool,
    op: F,
    posted: Option<Located<P>>,
}

impl<P, F> Verb for Scalar<P, F>
where
    P: Payload,
    F: FnMut(&mut Clock, &mut Located<P>) -> Result<(), NetError>,
{
    type Payload = P;

    fn depth(&self) -> Option<usize> {
        None
    }

    fn post(&mut self, chunk: Located<P>) {
        self.posted = Some(chunk);
    }

    fn flush(&mut self, clock: &mut Clock, run: &mut Run<'_, P>) {
        let Some(mut chunk) = self.posted.take() else {
            return;
        };
        if self.staged {
            run.file.prepare_transfer(clock, chunk.len);
        }
        let issued = clock.now();
        let outcome = (self.op)(clock, &mut chunk);
        run.settle(clock, std::iter::once(chunk), &outcome);
        if outcome.is_ok() {
            run.file
                .access_mode_penalty(clock, clock.now().since(issued));
        }
    }
}

/// A pipelined verb: the wave goes out behind one doorbell, chunks landing
/// in the same MR at adjacent offsets coalesced into one multi-SGE work
/// request (one op overhead for the run).
pub(crate) struct Batched<P> {
    depth: usize,
    wave: Vec<Located<P>>,
}

impl<P> Batched<P> {
    pub(crate) fn new(depth: usize) -> Batched<P> {
        Batched {
            depth,
            wave: Vec::new(),
        }
    }
}

impl<P: Gather> Verb for Batched<P> {
    type Payload = P;

    fn depth(&self) -> Option<usize> {
        Some(self.depth)
    }

    fn post(&mut self, chunk: Located<P>) {
        self.wave.push(chunk);
    }

    fn flush(&mut self, clock: &mut Clock, run: &mut Run<'_, P>) {
        let file = run.file;
        // local prep (staging memcpy / dynamic registration) serializes on
        // the issuing scheduler, exactly as for a serial verb
        for c in &self.wave {
            file.prepare_transfer(clock, c.len);
        }
        self.wave
            .sort_by_key(|c| (c.mr.server.0, c.mr.mr, c.mr_off));
        let mut wrs: Vec<WorkRequest<'_>> = Vec::new();
        let mut prev: Option<(MrHandle, u64)> = None;
        for c in self.wave.iter_mut() {
            let adjacent = prev.is_some_and(|(mr, end)| same_mr(mr, c.mr) && end == c.mr_off);
            prev = Some((c.mr, c.mr_off + c.len));
            c.chunk.payload.gather(&mut wrs, adjacent, c.mr, c.mr_off);
        }
        let issued = clock.now();
        let comps = file
            .fabric
            .execute_batch(clock, file.cfg.protocol, file.local, &mut wrs);
        file.access_mode_penalty(clock, clock.now().since(issued));
        // the sorted wave is the concatenation of the WRs' SGE lists
        let sges_per_wr: Vec<usize> = wrs.iter().map(WorkRequest::sge_count).collect();
        let mut wave = self.wave.drain(..);
        for (n, comp) in sges_per_wr.into_iter().zip(comps) {
            run.settle(clock, wave.by_ref().take(n), &comp.result);
        }
    }
}

pub(crate) fn same_mr(a: MrHandle, b: MrHandle) -> bool {
    a.server == b.server && a.mr == b.mr
}

/// One request through a serial verb whose chunks each go out as `op`;
/// `staged` charges the whole chunk's staging-buffer preparation first.
pub(crate) fn run_one<P: Payload>(
    file: &RemoteFile,
    clock: &mut Clock,
    (offset, payload): (u64, P),
    staged: bool,
    op: impl FnMut(&mut Clock, &mut Located<P>) -> Result<(), NetError>,
) -> Result<(), StorageError> {
    let mut result = [Ok(())];
    let mut verb = Scalar {
        staged,
        op,
        posted: None,
    };
    let reqs = std::iter::once((offset, payload));
    run(file, clock, &mut verb, reqs, &mut result);
    let [result] = result;
    result
}

/// The state of one I/O call: what is still queued, what has been decided.
pub(crate) struct Run<'r, P> {
    file: &'r RemoteFile,
    queue: Fifo<Chunk<P>>,
    results: &'r mut [Result<(), StorageError>],
    heals: u32,
    /// A heal already succeeded while settling the current wave. It
    /// replaced every dead stripe, so the wave's other fatal operations
    /// just re-queue.
    healed_this_wave: bool,
}

/// Drive `reqs` — `(file offset, payload)` in request order — through
/// `verb`. `results[i]` receives request `i`'s outcome; one request failing
/// never poisons its neighbours.
pub(crate) fn run<V: Verb>(
    file: &RemoteFile,
    clock: &mut Clock,
    verb: &mut V,
    reqs: impl Iterator<Item = (u64, V::Payload)>,
    results: &mut [Result<(), StorageError>],
) {
    if !file.is_open.load(Ordering::Acquire) {
        results.fill(Err(StorageError::Unavailable("file is not open".into())));
        return;
    }
    let mut run = Run {
        file,
        queue: Fifo::new(),
        results,
        heals: 0,
        healed_this_wave: false,
    };
    for (req, (offset, payload)) in reqs.enumerate() {
        let len = payload.bytes();
        if offset.checked_add(len).is_none_or(|end| end > file.size) {
            run.results[req] = Err(StorageError::OutOfBounds {
                offset,
                len,
                capacity: file.size,
            });
        } else if len > 0 {
            run.queue.push_back(Chunk {
                req,
                file_off: offset,
                tries: 0,
                not_before: SimTime::ZERO,
                payload,
            });
        }
    }
    if let Err(e) = file.ensure_lease(clock) {
        for r in run.results.iter_mut().filter(|r| r.is_ok()) {
            *r = Err(e.clone());
        }
        return;
    }
    let (window, split_ahead) = match verb.depth() {
        Some(depth) => (depth.max(1), true),
        None => (1, false),
    };
    loop {
        // drop chunks whose request already failed through a sibling
        let results = &*run.results;
        run.queue.retain(|c| results[c.req].is_ok());
        // only when *every* survivor is backing off does backoff cost clock
        // time — otherwise retries hide behind other waves
        let Some(ready_at) = run.queue.iter().map(|c| c.not_before).min() else {
            return;
        };
        clock.advance_to(ready_at);
        let mut posted = 0;
        let mut scan = run.queue.len();
        while posted < window && scan > 0 {
            scan -= 1;
            let Some(mut chunk) = run.queue.pop_front() else {
                break;
            };
            if chunk.not_before > clock.now() {
                run.queue.push_back(chunk);
                continue;
            }
            let (slot, mr, mr_off, len) = file.locate(chunk.file_off, chunk.payload.bytes());
            if split_ahead && len < chunk.payload.bytes() {
                let (head, tail) = chunk.payload.split_at(len);
                run.queue.push_front(Chunk {
                    file_off: chunk.file_off + len,
                    payload: tail,
                    ..chunk
                });
                chunk.payload = head;
            }
            verb.post(Located {
                chunk,
                slot,
                mr,
                mr_off,
                len,
            });
            posted += 1;
        }
        if posted > 0 {
            run.healed_this_wave = false;
            verb.flush(clock, &mut run);
        }
    }
}

impl<P: Payload> Run<'_, P> {
    /// Settle the chunks one fabric operation carried, given its outcome.
    fn settle(
        &mut self,
        clock: &mut Clock,
        group: impl Iterator<Item = Located<P>>,
        outcome: &Result<(), NetError>,
    ) {
        let file = self.file;
        let cfg = &file.cfg;
        match outcome {
            Ok(()) => {
                for Located { chunk, len, .. } in group {
                    if chunk.tries > 0 {
                        let detail = format!(
                            "chunk at {} ok after {} retries",
                            chunk.file_off, chunk.tries
                        );
                        file.note_retry(clock.now(), FaultOrigin::Recovery, detail);
                    }
                    // a serial verb moves on to the rest of its request,
                    // with a fresh retry budget
                    let (_, rest) = chunk.payload.split_at(len);
                    if rest.bytes() > 0 {
                        self.queue.push_front(Chunk {
                            file_off: chunk.file_off + len,
                            tries: 0,
                            payload: rest,
                            ..chunk
                        });
                    }
                }
            }
            Err(NetError::Transient { server, reason }) => {
                for Located { chunk, .. } in group {
                    let tries = chunk.tries + 1;
                    if tries > cfg.max_retries {
                        let detail = format!(
                            "chunk at {} gave up after {} retries",
                            chunk.file_off, cfg.max_retries
                        );
                        file.note_retry(clock.now(), FaultOrigin::Observed, detail);
                        self.results[chunk.req] = Err(StorageError::Transient(format!(
                            "{} retries exhausted reaching {server:?}: {reason}",
                            cfg.max_retries
                        )));
                        continue;
                    }
                    file.retries.incr();
                    let not_before = clock.now() + cfg.retry_backoff * (1 << (tries - 1));
                    self.queue.push_back(Chunk {
                        tries,
                        not_before,
                        ..chunk
                    });
                }
            }
            Err(fatal) => {
                let mut group = group.peekable();
                let healed = if !cfg.self_heal && !file.replicated() {
                    Err(StorageError::Unavailable(fatal.to_string()))
                } else if self.healed_this_wave {
                    Ok(())
                } else {
                    self.heal(clock, fatal, group.peek().map(|c| c.mr))
                };
                self.healed_this_wave |= healed.is_ok();
                for Located { chunk, .. } in group {
                    match &healed {
                        Ok(()) => self.queue.push_back(Chunk {
                            not_before: clock.now(),
                            ..chunk
                        }),
                        Err(e) => self.results[chunk.req] = Err(e.clone()),
                    }
                }
            }
        }
    }

    /// Bounded recovery from a fatal fault on `failed`. Failover comes
    /// before repair: if the broker already fenced a new replica epoch,
    /// re-pointing at a survivor is enough — no re-lease, no data loss, no
    /// heal budget spent.
    fn heal(
        &mut self,
        clock: &mut Clock,
        fatal: &NetError,
        failed: Option<MrHandle>,
    ) -> Result<(), StorageError> {
        let file = self.file;
        if file.replicated() && file.refresh_replicas() {
            file.note_failover(clock.now(), "re-pointed at surviving replica", fatal);
            return Ok(());
        }
        self.heals += 1;
        if self.heals > MAX_HEALS_PER_IO {
            return Err(StorageError::Unavailable(format!(
                "giving up after {MAX_HEALS_PER_IO} repair attempts: {fatal}"
            )));
        }
        // blind rotation (broker epoch unchanged, e.g. a blackout it never
        // sees): costs heal budget so an all-dead group can't spin
        if failed.is_some_and(|mr| file.replicated() && file.rotate_preferred(mr)) {
            file.note_failover(clock.now(), "rotated to peer replica", fatal);
            return Ok(());
        }
        file.note(
            clock.now(),
            FaultOrigin::Observed,
            "rfile.fatal",
            fatal.to_string(),
        );
        file.ensure_lease(clock)?;
        file.try_repair(clock)
    }
}

impl RemoteFile {
    fn note_retry(&self, at: SimTime, origin: FaultOrigin, detail: String) {
        self.note(at, origin, "rfile.retry", detail);
    }

    fn note_failover(&self, at: SimTime, how: &str, fatal: &NetError) {
        self.failovers.incr();
        self.note(
            at,
            FaultOrigin::Recovery,
            "rfile.failover",
            format!("{how} after: {fatal}"),
        );
    }

    /// Translate `offset` to `(extent index, backing MR, offset within it,
    /// bytes this extent can serve)` under the state lock.
    fn locate(&self, offset: u64, want: u64) -> (usize, MrHandle, u64, u64) {
        let st = self.state.lock();
        let idx = match st.extents.binary_search_by(|e| e.start.cmp(&offset)) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let e = &st.extents[idx];
        let within = offset - e.start;
        (idx, e.mr, e.mr_off + within, (e.len - within).min(want))
    }

    /// Per-chunk local preparation cost and staging-slot gating.
    fn prepare_transfer(&self, clock: &mut Clock, bytes: u64) {
        match self.cfg.registration {
            RegistrationMode::Staged => {
                // estimate the slot occupancy: memcpy + unloaded wire time
                let cfg = self.fabric.config();
                let est = cfg.memcpy(bytes)
                    + cfg.propagation
                    + SimDuration::for_transfer(bytes, cfg.nic_bandwidth);
                self.staging.acquire_slot(clock, est);
                clock.advance(cfg.memcpy(bytes));
            }
            RegistrationMode::Dynamic => {
                // register the caller's buffer on demand — the expensive
                // alternative of §4.1.4, kept for the ablation bench
                clock.advance(self.fabric.config().registration_cost(bytes));
            }
        }
    }

    /// The asynchronous-I/O penalty when the Custom protocol is driven in
    /// async or adaptive mode (§4.1.3). The SMB protocols already include
    /// it in their cost model.
    fn access_mode_penalty(&self, clock: &mut Clock, op_duration: SimDuration) {
        if self.cfg.protocol != Protocol::Custom {
            return;
        }
        // in adaptive mode the scheduler spun through its budget; if the
        // transfer outlasted it, it yielded and the completion pays the
        // switch + re-schedule delay
        let yielded = match self.cfg.access {
            AccessMode::SyncSpin => false,
            AccessMode::Async => true,
            AccessMode::Adaptive { spin_budget } => op_duration > spin_budget,
        };
        if yielded {
            let cfg = self.fabric.config();
            clock.advance(cfg.async_completion - cfg.sync_completion);
        }
    }

    // ─── what each serial verb does with one chunk ───────────────────────

    pub(crate) fn read_chunk(
        &self,
        clock: &mut Clock,
        c: &mut Located<&mut [u8]>,
    ) -> Result<(), NetError> {
        let dst = &mut c.chunk.payload[..c.len as usize];
        self.fabric
            .read(clock, self.cfg.protocol, self.local, c.mr, c.mr_off, dst)
    }

    /// Replicated files fan the chunk out to every live replica — the op
    /// completes at the quorum ack, stragglers catch up in the background —
    /// and fold the quorum's accounting into `track`.
    pub(crate) fn write_chunk(
        &self,
        clock: &mut Clock,
        c: &Located<&[u8]>,
        track: &mut QuorumAppend,
    ) -> Result<(), NetError> {
        let src = &c.chunk.payload[..c.len as usize];
        if self.replicated() {
            let q = self.write_replicas(clock, c.slot, c.mr, c.mr_off, src)?;
            track.fold(&q);
            Ok(())
        } else {
            track.chunks += 1;
            self.fabric
                // audit: allow(quorum-write, unreplicated file: the single copy is the quorum)
                .write(clock, self.cfg.protocol, self.local, c.mr, c.mr_off, src)
        }
    }

    /// One RPC to the chunk's donor, debited to its broker compute account.
    /// A donor whose budget is exhausted is skipped: the pages are shipped
    /// and the same eval burns the client's own core — same result, full
    /// wire bytes.
    pub(crate) fn pushdown_chunk(
        &self,
        clock: &mut Clock,
        c: &Located<u64>,
        program: &PushdownProgram,
    ) -> Result<PushdownScan, NetError> {
        let cfg = self.fabric.config();
        let (proto, local) = (self.cfg.protocol, self.local);
        if self.broker.pushdown_admit(c.mr.server) {
            let req = PushdownRequest {
                handle: c.mr,
                offset: c.mr_off,
                len: c.len,
                program,
            };
            let reply = self.fabric.pushdown(clock, proto, local, &req)?;
            self.broker
                .note_pushdown(c.mr.server, reply.server_cpu, reply.rows_scanned);
            // land the (small) reply in the client's result buffer
            clock.advance(cfg.memcpy(reply.payload.len() as u64));
            return Ok(PushdownScan {
                payload: reply.payload,
                rows_scanned: reply.rows_scanned,
                rows_matched: reply.rows_matched,
                server_cpu: reply.server_cpu,
                fallback_chunks: 0,
            });
        }
        let mut pages = vec![0u8; c.len as usize];
        self.fabric
            .read(clock, proto, local, c.mr, c.mr_off, &mut pages)?;
        clock.advance(cfg.memcpy(c.len));
        let mut payload = Vec::new();
        let stats = remem_storage::eval_pages(&pages, program, &mut payload).map_err(|_| {
            NetError::BadPushdown {
                reason: "span is not a whole number of 8 KiB pages",
            }
        })?;
        clock.advance(cfg.pushdown_eval_cost(stats.rows_scanned, c.len));
        Ok(PushdownScan {
            payload,
            rows_scanned: stats.rows_scanned,
            rows_matched: stats.rows_matched,
            server_cpu: SimDuration::ZERO,
            fallback_chunks: 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::Fifo;

    #[test]
    fn fifo_keeps_order_across_the_inline_slot() {
        let mut q = Fifo::new();
        assert_eq!((q.len(), q.pop_front()), (0, None));
        for i in 1..=4 {
            q.push_back(i);
        }
        q.push_front(0);
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
        q.retain(|&i| i != 0 && i != 3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_front(), Some(1));
        q.push_back(5);
        let drained: Vec<i32> = std::iter::from_fn(|| q.pop_front()).collect();
        assert_eq!(drained, [2, 4, 5]);
        // emptied and refilled: the inline slot is first again
        q.push_front(9);
        assert_eq!((q.len(), q.pop_front(), q.pop_front()), (1, Some(9), None));
    }
}
