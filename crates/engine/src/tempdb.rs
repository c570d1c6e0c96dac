//! TempDB: the spill target for memory-intensive operators (scenario §3.2).
//!
//! Sort runs and hash-join partitions are written as **spill files**: row
//! streams packed into 8 KiB pages, gathered into multi-megabyte extents,
//! and flushed a few extents at a time with one coalesced vectored I/O —
//! the way real engines issue spill I/O. Large sequential transfers are
//! what let the paper's striped HDD array beat the SSD for analytics
//! spills (Fig. 14a), and what remote memory beats both at: a
//! remote-memory TempDB pipelines the whole batch in one doorbell.
//!
//! TempDB space is leased, not consumed: every page a spill stream holds
//! comes from [`TempDb::allocate`] and goes back through
//! [`TempDb::release`] when its [`SpillFile`] (or unfinished
//! [`SpillWriter`]) is dropped, so the next query writes into pages the
//! last one already touched.

use std::sync::Arc;

use parking_lot::Mutex;
use remem_sim::metrics::Counter;
use remem_sim::MetricsRegistry;
use remem_storage::StorageError;

use crate::exec::ExecCtx;
use crate::page::{Page, PageView, MAX_RECORD, PAGE_SIZE};
use crate::pagestore::{PageNo, PagedFile};
use crate::row::Row;

/// Pages per extent — one 2 MiB I/O, wide enough to engage every spindle
/// of the RAID-0 array (SQL Server issues multi-megabyte I/O for bulk
/// operations too).
pub const EXTENT_PAGES: u64 = 256;
const EXTENT_BYTES: usize = EXTENT_PAGES as usize * PAGE_SIZE;

/// Registry mirrors of the spill accounting, resolved once at attach time.
struct TdCounters {
    spilled: Arc<Counter>,
    read_back: Arc<Counter>,
    /// For the space gauges, which are looked up when space first moves: a
    /// database that never spills publishes none.
    registry: Arc<MetricsRegistry>,
}

/// Which pages below the file's high-water mark nobody holds.
#[derive(Default)]
struct Space {
    /// Free runs `(first_page, pages)`, sorted by first page; no two touch.
    free: Vec<(PageNo, u64)>,
    /// Pages held by writers and spill files.
    live: u64,
}

impl Space {
    /// Carve `pages` off the front of the lowest-addressed run that holds
    /// them.
    fn take_first_fit(&mut self, pages: u64) -> Option<PageNo> {
        let at = self.free.iter().position(|&(_, n)| n >= pages)?;
        let (start, n) = self.free[at];
        if n == pages {
            self.free.remove(at);
        } else {
            self.free[at] = (start + pages, n - pages);
        }
        Some(start)
    }

    /// Put a run back, merging it with the runs it touches.
    fn insert(&mut self, start: PageNo, pages: u64) {
        let free = &mut self.free;
        let at = free.partition_point(|&(s, _)| s < start);
        debug_assert!(
            at == 0 || free[at - 1].0 + free[at - 1].1 <= start,
            "run released twice"
        );
        debug_assert!(
            at == free.len() || start + pages <= free[at].0,
            "run released twice"
        );
        let joins_prev = at > 0 && free[at - 1].0 + free[at - 1].1 == start;
        let joins_next = at < free.len() && start + pages == free[at].0;
        match (joins_prev, joins_next) {
            (true, true) => {
                free[at - 1].1 += pages + free[at].1;
                free.remove(at);
            }
            (true, false) => free[at - 1].1 += pages,
            (false, true) => free[at] = (start, pages + free[at].1),
            (false, false) => free.insert(at, (start, pages)),
        }
    }
}

/// The TempDB database: a paged file on any device (HDD, SSD, or a
/// remote-memory file) plus spill accounting.
pub struct TempDb {
    file: Arc<PagedFile>,
    space: Mutex<Space>,
    bytes_spilled: Counter,
    bytes_read_back: Counter,
    metrics: Option<TdCounters>,
}

impl TempDb {
    pub fn new(file: Arc<PagedFile>) -> TempDb {
        TempDb {
            file,
            space: Mutex::default(),
            bytes_spilled: Counter::new(),
            bytes_read_back: Counter::new(),
            metrics: None,
        }
    }

    /// Mirror spill volume into `tempdb.spill.bytes` / `tempdb.readback.bytes`
    /// and, once anything spills, held space into `tempdb.live.bytes` /
    /// `tempdb.high_water.bytes`.
    pub fn set_metrics(&mut self, registry: Option<Arc<MetricsRegistry>>) {
        self.metrics = registry.map(|r| TdCounters {
            spilled: r.counter("tempdb.spill.bytes"),
            read_back: r.counter("tempdb.readback.bytes"),
            registry: r,
        });
    }

    /// Bytes written to TempDB so far.
    pub fn bytes_spilled(&self) -> u64 {
        self.bytes_spilled.get()
    }

    /// Bytes read back from TempDB so far.
    pub fn bytes_read_back(&self) -> u64 {
        self.bytes_read_back.get()
    }

    pub fn file(&self) -> &Arc<PagedFile> {
        &self.file
    }

    /// Bytes held right now by spill files and writers, the unused part of
    /// a writer's reservation included. Zero between queries.
    pub fn live_bytes(&self) -> u64 {
        self.space.lock().live * PAGE_SIZE as u64
    }

    /// The most TempDB space this database has needed at once, holes
    /// included: the device footprint of its spills.
    pub fn high_water_bytes(&self) -> u64 {
        self.file.allocated_pages() * PAGE_SIZE as u64
    }

    /// The free runs `(first_page, pages)` below the high-water mark, lowest
    /// first — what the next spill stream is carved from.
    pub fn free_runs(&self) -> Vec<(PageNo, u64)> {
        self.space.lock().free.clone()
    }

    /// Hand out `want` contiguous pages — every TempDB page comes from here.
    /// The lowest-addressed free run that holds them wins (first fit, so the
    /// same requests land on the same pages every time), else fresh pages
    /// from the file. A TempDB too full or too fragmented for `want` settles
    /// for `min`, the extent about to be written, before reporting
    /// `OutOfBounds`. Returns the first page and how many were granted.
    fn allocate(&self, want: u64, min: u64) -> Result<(PageNo, u64), StorageError> {
        let mut space = self.space.lock();
        let mut fit = |pages| match space.take_first_fit(pages) {
            Some(start) => Ok((start, pages)),
            None => self.file.allocate_extent(pages).map(|start| (start, pages)),
        };
        let granted = match fit(want) {
            Err(_) if min < want => fit(min)?,
            other => other?,
        };
        space.live += granted.1;
        self.publish_space(&space);
        Ok(granted)
    }

    /// Take back pages handed out by [`TempDb::allocate`].
    fn release(&self, start: PageNo, pages: u64) {
        if pages == 0 {
            return;
        }
        let mut space = self.space.lock();
        space.insert(start, pages);
        space.live -= pages;
        self.publish_space(&space);
    }

    fn publish_space(&self, space: &Space) {
        if let Some(m) = &self.metrics {
            let bytes = |pages: u64| (pages * PAGE_SIZE as u64) as f64;
            m.registry.gauge("tempdb.live.bytes").set(bytes(space.live));
            m.registry
                .gauge("tempdb.high_water.bytes")
                .set(bytes(self.file.allocated_pages()));
        }
    }

    /// Start a new spill stream.
    pub fn writer(&self) -> SpillWriter<'_> {
        SpillWriter {
            tempdb: self,
            current: Page::new(),
            scratch: Vec::new(),
            extent_buf: Vec::with_capacity(EXTENT_BYTES),
            pending: Vec::new(),
            spare: Vec::new(),
            extents: Vec::new(),
            pages: 0,
            rows: 0,
            resv_next: 0,
            resv_left: 0,
            resv_pages: MIN_RESERVATION_PAGES,
        }
    }

    /// Read back a finished spill file from the beginning.
    pub fn reader<'a>(&'a self, spill: &'a SpillFile<'_>) -> SpillReader<'a> {
        SpillReader {
            tempdb: self,
            spill,
            extent_idx: 0,
            buf: Vec::new(),
            page_in_buf: 0,
            pages_in_buf: 0,
            slot: 0,
        }
    }

    /// Read an entire spill file into memory (convenience for small files).
    pub fn read_all(
        &self,
        ctx: &mut ExecCtx<'_>,
        spill: &SpillFile<'_>,
    ) -> Result<Vec<Row>, StorageError> {
        let mut reader = self.reader(spill);
        let mut out = Vec::with_capacity(spill.rows as usize);
        while let Some(r) = reader.next(ctx)? {
            out.push(r);
        }
        Ok(out)
    }
}

/// A finished spill file: the extents holding its pages, which go back to
/// TempDB when the file is dropped.
pub struct SpillFile<'a> {
    tempdb: &'a TempDb,
    /// `(first_page, page_count)` per extent, in stream order.
    extents: Vec<(PageNo, u64)>,
    pages: u64,
    rows: u64,
}

impl Drop for SpillFile<'_> {
    fn drop(&mut self) {
        for &(start, pages) in &self.extents {
            self.tempdb.release(start, pages);
        }
    }
}

impl SpillFile<'_> {
    /// `(first_page, pages)` of each extent, in stream order.
    pub fn extents(&self) -> &[(PageNo, u64)] {
        &self.extents
    }

    pub fn rows(&self) -> u64 {
        self.rows
    }

    pub fn pages(&self) -> u64 {
        self.pages
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }
}

/// Streams rows into TempDB pages, flushing whole extents.
///
/// Extents are carved from *reservations* whose size doubles (1 → 8
/// extents), so concurrent spill streams don't interleave finely: a long
/// run's extents stay contiguous and its read-back pays one seek per
/// multi-megabyte reservation instead of one per extent.
///
/// The writer owns every buffer on the write path and reuses it: one page
/// being filled, one scratch a row is encoded into, the extent being
/// gathered, and the flushed extents' buffers, which come back as `spare`.
///
/// It also owns its pages until [`SpillWriter::finish`] hands the written
/// ones to the [`SpillFile`] and the unused tail of the last reservation back
/// to TempDB; a writer dropped unfinished (an error mid-spill) returns all of
/// them.
pub struct SpillWriter<'a> {
    tempdb: &'a TempDb,
    current: Page,
    scratch: Vec<u8>,
    extent_buf: Vec<u8>,
    /// Sealed extents awaiting the next coalesced flush: `(byte_off, bytes)`.
    pending: Vec<(u64, Vec<u8>)>,
    /// Emptied buffers of flushed extents, for the next extent to gather in.
    spare: Vec<Vec<u8>>,
    extents: Vec<(PageNo, u64)>,
    pages: u64,
    rows: u64,
    resv_next: PageNo,
    resv_left: u64,
    resv_pages: u64,
}

/// First reservation: 64 pages (512 KiB) — small spills stay small.
const MIN_RESERVATION_PAGES: u64 = 64;
/// Largest reservation: 64 MiB. Sized so that a memory-grant-sized run
/// stays contiguous and its positioning seek amortizes the way the paper's
/// GB-sized runs do.
const MAX_RESERVATION_PAGES: u64 = (64 << 20) / PAGE_SIZE as u64;
/// Sealed extents buffered before one vectored flush. On a remote-memory
/// file the batch fans out across stripes in a single pipelined doorbell;
/// local devices execute the same requests serially with identical timing.
const SPILL_PIPELINE_EXTENTS: usize = 4;

impl Drop for SpillWriter<'_> {
    fn drop(&mut self) {
        for &(start, pages) in &self.extents {
            self.tempdb.release(start, pages);
        }
        self.tempdb.release(self.resv_next, self.resv_left);
    }
}

impl<'a> SpillWriter<'a> {
    /// Append one row, flushing filled pages into the extent buffer and the
    /// buffer to TempDB once it holds a full extent.
    pub fn push(&mut self, ctx: &mut ExecCtx<'_>, row: &Row) -> Result<(), StorageError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        row.encode(&mut scratch);
        let res = self.push_encoded(ctx, &scratch);
        self.scratch = scratch;
        res
    }

    /// Append one row already in [`Row::encode`] form.
    pub(crate) fn push_encoded(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        record: &[u8],
    ) -> Result<(), StorageError> {
        if record.len() > MAX_RECORD {
            return Err(StorageError::RecordTooLarge {
                len: record.len(),
                max: MAX_RECORD,
            });
        }
        if self.current.insert(record).is_none() {
            self.seal_page(ctx)?;
            self.current
                .insert(record)
                .expect("an empty page holds any record up to MAX_RECORD");
        }
        self.rows += 1;
        Ok(())
    }

    fn seal_page(&mut self, ctx: &mut ExecCtx<'_>) -> Result<(), StorageError> {
        if self.current.is_empty() {
            return Ok(());
        }
        ctx.charge(ctx.costs.page_serialize);
        self.extent_buf.extend_from_slice(self.current.as_bytes());
        self.current.reset();
        if self.extent_buf.len() >= EXTENT_BYTES {
            self.flush_extent(ctx)?;
        }
        Ok(())
    }

    fn flush_extent(&mut self, ctx: &mut ExecCtx<'_>) -> Result<(), StorageError> {
        if self.extent_buf.is_empty() {
            return Ok(());
        }
        let n_pages = (self.extent_buf.len() / PAGE_SIZE) as u64;
        if self.resv_left < n_pages {
            // new reservation, growing geometrically to keep long runs
            // contiguous without over-allocating short ones
            self.tempdb
                .release(self.resv_next, std::mem::take(&mut self.resv_left));
            (self.resv_next, self.resv_left) = self
                .tempdb
                .allocate(self.resv_pages.max(n_pages), n_pages)?;
            self.resv_pages = (self.resv_pages * 4).min(MAX_RESERVATION_PAGES);
        }
        let start = self.resv_next;
        self.resv_next += n_pages;
        self.resv_left -= n_pages;
        let next = self
            .spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(EXTENT_BYTES));
        let sealed = std::mem::replace(&mut self.extent_buf, next);
        self.pending.push((start * PAGE_SIZE as u64, sealed));
        self.extents.push((start, n_pages));
        self.pages += n_pages;
        if self.pending.len() >= SPILL_PIPELINE_EXTENTS {
            self.flush_pending(ctx)?;
        }
        Ok(())
    }

    /// Write every pending extent in one vectored device call.
    fn flush_pending(&mut self, ctx: &mut ExecCtx<'_>) -> Result<(), StorageError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        ctx.flush_cpu();
        let reqs: Vec<(u64, &[u8])> = self
            .pending
            .iter()
            .map(|(off, buf)| (*off, buf.as_slice()))
            .collect();
        let results = self.tempdb.file.device().write_vectored(ctx.clock, &reqs);
        let mut first_err = None;
        for ((_, buf), res) in self.pending.iter().zip(&results) {
            match res {
                Ok(()) => {
                    self.tempdb.bytes_spilled.add(buf.len() as u64);
                    if let Some(m) = &self.tempdb.metrics {
                        m.spilled.add(buf.len() as u64);
                    }
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e.clone());
                    }
                }
            }
        }
        for (_, mut buf) in self.pending.drain(..) {
            buf.clear();
            self.spare.push(buf);
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Flush the tail and return the finished spill file.
    pub fn finish(mut self, ctx: &mut ExecCtx<'_>) -> Result<SpillFile<'a>, StorageError> {
        self.seal_page(ctx)?;
        self.flush_extent(ctx)?;
        self.flush_pending(ctx)?;
        // the file takes the written extents and the tail goes back now, so
        // the writer's own drop finds nothing left to return
        self.tempdb
            .release(self.resv_next, std::mem::take(&mut self.resv_left));
        Ok(SpillFile {
            tempdb: self.tempdb,
            extents: std::mem::take(&mut self.extents),
            pages: self.pages,
            rows: self.rows,
        })
    }
}

/// Streams rows back out of a spill file, extent by extent.
pub struct SpillReader<'a> {
    tempdb: &'a TempDb,
    spill: &'a SpillFile<'a>,
    extent_idx: usize,
    buf: Vec<u8>,
    page_in_buf: usize,
    pages_in_buf: usize,
    slot: usize,
}

impl SpillReader<'_> {
    /// Next row, or `None` at end of stream.
    pub fn next(&mut self, ctx: &mut ExecCtx<'_>) -> Result<Option<Row>, StorageError> {
        self.next_with(ctx, |record| Ok(Row::decode(record)?.0))
    }

    /// Decode the next row over `row`, reusing its allocations; `false` at
    /// end of stream.
    pub(crate) fn next_into(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        row: &mut Row,
    ) -> Result<bool, StorageError> {
        let decoded = self.next_with(ctx, |record| row.decode_into(record))?;
        Ok(decoded.is_some())
    }

    /// Lend the next row's encoding to `decode`, straight out of the extent
    /// buffer the last device read filled; `None` at end of stream, and
    /// `decode`'s error when the row does not decode.
    fn next_with<T>(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        decode: impl FnOnce(&[u8]) -> Result<T, StorageError>,
    ) -> Result<Option<T>, StorageError> {
        loop {
            if self.page_in_buf < self.pages_in_buf {
                let page = PageView::new(
                    &self.buf[self.page_in_buf * PAGE_SIZE..(self.page_in_buf + 1) * PAGE_SIZE],
                );
                if self.slot < page.len() {
                    let row = decode(page.get(self.slot))?;
                    self.slot += 1;
                    ctx.charge(ctx.costs.row_scan);
                    return Ok(Some(row));
                }
                self.page_in_buf += 1;
                self.slot = 0;
                ctx.charge(ctx.costs.page_serialize);
                continue;
            }
            if self.extent_idx >= self.spill.extents.len() {
                return Ok(None);
            }
            let (start, n_pages) = self.spill.extents[self.extent_idx];
            self.extent_idx += 1;
            self.buf.resize((n_pages as usize) * PAGE_SIZE, 0);
            ctx.flush_cpu();
            self.tempdb
                .file
                .device()
                .read(ctx.clock, start * PAGE_SIZE as u64, &mut self.buf)?;
            self.tempdb.bytes_read_back.add(self.buf.len() as u64);
            if let Some(m) = &self.tempdb.metrics {
                m.read_back.add(self.buf.len() as u64);
            }
            self.page_in_buf = 0;
            self.pages_in_buf = n_pages as usize;
            self.slot = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpuCosts;
    use crate::exec::int_row;
    use crate::pagestore::FileId;
    use remem_sim::{Clock, CpuPool};
    use remem_storage::RamDisk;

    fn setup() -> (TempDb, Clock, CpuPool, CpuCosts) {
        let file = Arc::new(PagedFile::new(FileId(9), Arc::new(RamDisk::new(16 << 20))));
        (
            TempDb::new(file),
            Clock::new(),
            CpuPool::new(4),
            CpuCosts::default(),
        )
    }

    #[test]
    fn spill_round_trip_preserves_order() {
        let (tempdb, mut clock, cpu, costs) = setup();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let mut w = tempdb.writer();
        for i in 0..10_000i64 {
            w.push(&mut ctx, &int_row(&[i, i * 2])).unwrap();
        }
        let spill = w.finish(&mut ctx).unwrap();
        assert_eq!(spill.rows(), 10_000);
        assert!(spill.pages() > 10);
        let rows = tempdb.read_all(&mut ctx, &spill).unwrap();
        assert_eq!(rows.len(), 10_000);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.int(0), i as i64);
            assert_eq!(r.int(1), i as i64 * 2);
        }
        assert!(tempdb.bytes_spilled() > 0);
        assert_eq!(tempdb.bytes_read_back(), tempdb.bytes_spilled());
    }

    #[test]
    fn empty_spill_file() {
        let (tempdb, mut clock, cpu, costs) = setup();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let w = tempdb.writer();
        let spill = w.finish(&mut ctx).unwrap();
        assert!(spill.is_empty());
        assert_eq!(spill.pages(), 0);
        assert!(tempdb.read_all(&mut ctx, &spill).unwrap().is_empty());
    }

    #[test]
    fn large_spills_use_full_extents() {
        let (tempdb, mut clock, cpu, costs) = setup();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let mut w = tempdb.writer();
        for i in 0..200_000i64 {
            w.push(&mut ctx, &int_row(&[i])).unwrap();
        }
        let spill = w.finish(&mut ctx).unwrap();
        // all but the tail extent hold EXTENT_PAGES pages
        assert!(spill.extents.len() >= 2);
        for (_, n) in &spill.extents[..spill.extents.len() - 1] {
            assert_eq!(*n, EXTENT_PAGES);
        }
        // extents are contiguous page runs within the device
        for (start, n) in &spill.extents {
            assert!(start + n <= tempdb.file().allocated_pages());
        }
        // geometric reservations: consecutive extents of one stream are
        // mostly physically adjacent
        let adjacent = spill
            .extents
            .windows(2)
            .filter(|w| w[0].0 + w[0].1 == w[1].0)
            .count();
        assert!(
            adjacent * 2 >= spill.extents.len(),
            "most extents should be contiguous: {adjacent}/{}",
            spill.extents.len()
        );
    }

    #[test]
    fn finish_returns_the_unused_tail_and_drop_returns_the_rest() {
        let (tempdb, mut clock, cpu, costs) = setup();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let mut w = tempdb.writer();
        for i in 0..5_000i64 {
            w.push(&mut ctx, &int_row(&[i])).unwrap();
        }
        assert_eq!(tempdb.live_bytes(), 0, "nothing reserved before a flush");
        let spill = w.finish(&mut ctx).unwrap();
        // one 64-page reservation, of which the file keeps what it wrote
        assert_eq!(tempdb.high_water_bytes(), 64 * PAGE_SIZE as u64);
        assert_eq!(tempdb.live_bytes(), spill.pages() * PAGE_SIZE as u64);
        assert_eq!(tempdb.free_runs(), [(spill.pages(), 64 - spill.pages())]);
        drop(spill);
        assert_eq!(tempdb.live_bytes(), 0);
        assert_eq!(tempdb.free_runs(), [(0, 64)]);
    }

    #[test]
    fn the_next_stream_reuses_the_lowest_free_run_that_fits() {
        let (tempdb, mut clock, cpu, costs) = setup();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let mut spill = |rows: i64| {
            let mut w = tempdb.writer();
            for i in 0..rows {
                w.push(&mut ctx, &int_row(&[i])).unwrap();
            }
            w.finish(&mut ctx).unwrap()
        };
        let first_page = |f: &SpillFile<'_>| f.extents()[0].0;
        let a = spill(5_000); // a 64-page reservation
        let b = spill(100_000); // one of 184 pages
        let _c = spill(5_000);
        assert_eq!((first_page(&a), first_page(&b)), (0, 64));
        drop(a);
        // a long stream skips the 64-page hole ...
        let high_water = tempdb.high_water_bytes();
        let d = spill(100_000);
        assert_eq!(first_page(&d) * PAGE_SIZE as u64, high_water);
        drop(b);
        // ... a hole it fits into is taken from the lowest page up
        let high_water = tempdb.high_water_bytes();
        let e = spill(100_000);
        assert_eq!(e.extents(), [(0, 184)]);
        assert_eq!(first_page(&spill(5_000)), 184);
        assert_eq!(tempdb.high_water_bytes(), high_water);
    }

    #[test]
    fn a_nearly_full_tempdb_settles_for_the_extent_being_written() {
        // 640 pages: two full extents in two 256-page reservations, then the
        // third reservation asks for 1 024 pages and 128 are left
        let file = PagedFile::new(FileId(9), Arc::new(RamDisk::new(640 * PAGE_SIZE as u64)));
        let tempdb = TempDb::new(Arc::new(file));
        let (mut clock, cpu, costs) = (Clock::new(), CpuPool::new(4), CpuCosts::default());
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let wide = Row::new(vec![crate::row::Value::Str("w".repeat(8_000))]);
        let mut w = tempdb.writer();
        for _ in 0..2 * EXTENT_PAGES + 100 {
            w.push(&mut ctx, &wide).unwrap();
        }
        let spill = w.finish(&mut ctx).unwrap();
        assert_eq!(spill.extents(), [(0, 256), (256, 256), (512, 100)]);
        // and a stream that cannot have even that is a typed error that
        // leaves nothing behind
        let mut w = tempdb.writer();
        let err = (0..EXTENT_PAGES)
            .try_for_each(|_| w.push(&mut ctx, &wide))
            .and_then(|()| w.finish(&mut ctx).map(drop))
            .expect_err("28 pages are left");
        assert!(matches!(err, StorageError::OutOfBounds { .. }), "{err}");
        assert_eq!(tempdb.live_bytes(), spill.pages() * PAGE_SIZE as u64);
    }

    #[test]
    fn interleaved_readers_are_independent() {
        let (tempdb, mut clock, cpu, costs) = setup();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let mut w1 = tempdb.writer();
        let mut w2 = tempdb.writer();
        for i in 0..1000i64 {
            w1.push(&mut ctx, &int_row(&[i])).unwrap();
            w2.push(&mut ctx, &int_row(&[-i])).unwrap();
        }
        let s1 = w1.finish(&mut ctx).unwrap();
        let s2 = w2.finish(&mut ctx).unwrap();
        let r1 = tempdb.read_all(&mut ctx, &s1).unwrap();
        let r2 = tempdb.read_all(&mut ctx, &s2).unwrap();
        assert!(r1.iter().enumerate().all(|(i, r)| r.int(0) == i as i64));
        assert!(r2.iter().enumerate().all(|(i, r)| r.int(0) == -(i as i64)));
    }

    #[test]
    fn hdd_beats_ssd_for_spill_streams() {
        // the Fig. 14a inversion: striped-HDD sequential > SSD
        let mut times = Vec::new();
        for device in [
            Arc::new(remem_storage::HddArray::new(
                remem_storage::HddConfig::with_spindles(20, 256 << 20),
            )) as Arc<dyn remem_storage::Device>,
            Arc::new(remem_storage::Ssd::new(
                remem_storage::SsdConfig::with_capacity(256 << 20),
            )),
        ] {
            let tempdb = TempDb::new(Arc::new(PagedFile::new(FileId(9), device)));
            let mut clock = Clock::new();
            let cpu = CpuPool::new(4);
            let costs = CpuCosts::default();
            let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
            let mut w = tempdb.writer();
            // wide rows so the comparison is I/O-bound, not CPU-bound
            let row = crate::row::Row::new(vec![
                crate::row::Value::Int(1),
                crate::row::Value::Str("x".repeat(1000)),
            ]);
            for _ in 0..40_000 {
                w.push(&mut ctx, &row).unwrap();
            }
            let spill = w.finish(&mut ctx).unwrap();
            let _ = tempdb.read_all(&mut ctx, &spill).unwrap();
            drop(ctx);
            times.push(clock.now());
        }
        assert!(
            times[1].as_nanos() > times[0].as_nanos() * 21 / 20,
            "SSD spill {:?} should be slower than HDD(20) spill {:?} (Fig. 14a\n direction; the margin grows with run size — see the repro_fig14 harness)",
            times[1],
            times[0]
        );
    }
}
