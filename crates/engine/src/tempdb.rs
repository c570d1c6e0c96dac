//! TempDB: the spill target for memory-intensive operators (scenario §3.2).
//!
//! Sort runs and hash-join partitions are written as **spill files**: row
//! streams packed into 8 KiB pages, gathered into multi-megabyte extents,
//! and flushed a few extents at a time with one coalesced vectored I/O —
//! the way real engines issue spill I/O. Large sequential transfers are
//! what let the paper's striped HDD array beat the SSD for analytics
//! spills (Fig. 14a), and what remote memory beats both at: a
//! remote-memory TempDB pipelines the whole batch in one doorbell.

use std::sync::Arc;

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
}

/// The TempDB database: a paged file on any device (HDD, SSD, or a
/// remote-memory file) plus spill accounting.
pub struct TempDb {
    file: Arc<PagedFile>,
    bytes_spilled: Counter,
    bytes_read_back: Counter,
    metrics: Option<TdCounters>,
}

impl TempDb {
    pub fn new(file: Arc<PagedFile>) -> TempDb {
        TempDb {
            file,
            bytes_spilled: Counter::new(),
            bytes_read_back: Counter::new(),
            metrics: None,
        }
    }

    /// Mirror spill volume into `tempdb.spill.bytes` / `tempdb.readback.bytes`.
    pub fn set_metrics(&mut self, registry: Option<Arc<MetricsRegistry>>) {
        self.metrics = registry.map(|r| TdCounters {
            spilled: r.counter("tempdb.spill.bytes"),
            read_back: r.counter("tempdb.readback.bytes"),
        });
    }

    pub fn device_label(&self) -> String {
        self.file.device().label()
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
    pub fn reader<'a>(&'a self, spill: &'a SpillFile) -> SpillReader<'a> {
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
        spill: &SpillFile,
    ) -> Result<Vec<Row>, StorageError> {
        let mut reader = self.reader(spill);
        let mut out = Vec::with_capacity(spill.rows as usize);
        while let Some(r) = reader.next(ctx)? {
            out.push(r);
        }
        Ok(out)
    }
}

/// A finished spill file: the extents holding its pages.
#[derive(Debug, Clone)]
pub struct SpillFile {
    /// `(first_page, page_count)` per extent, in stream order.
    extents: Vec<(PageNo, u64)>,
    pages: u64,
    rows: u64,
}

impl SpillFile {
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

impl SpillWriter<'_> {
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
    pub fn push_encoded(
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
            let pages = self.resv_pages.max(n_pages);
            self.resv_next = self.tempdb.file.allocate_extent(pages)?;
            self.resv_left = pages;
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
    pub fn finish(mut self, ctx: &mut ExecCtx<'_>) -> Result<SpillFile, StorageError> {
        self.seal_page(ctx)?;
        self.flush_extent(ctx)?;
        self.flush_pending(ctx)?;
        Ok(SpillFile {
            extents: self.extents,
            pages: self.pages,
            rows: self.rows,
        })
    }
}

/// Streams rows back out of a spill file, extent by extent.
pub struct SpillReader<'a> {
    tempdb: &'a TempDb,
    spill: &'a SpillFile,
    extent_idx: usize,
    buf: Vec<u8>,
    page_in_buf: usize,
    pages_in_buf: usize,
    slot: usize,
}

impl SpillReader<'_> {
    /// Next row, or `None` at end of stream. Rows are decoded straight out
    /// of the extent buffer the last device read filled.
    pub fn next(&mut self, ctx: &mut ExecCtx<'_>) -> Result<Option<Row>, StorageError> {
        loop {
            if self.page_in_buf < self.pages_in_buf {
                let page = PageView::new(
                    &self.buf[self.page_in_buf * PAGE_SIZE..(self.page_in_buf + 1) * PAGE_SIZE],
                );
                if self.slot < page.len() {
                    let (row, _) = Row::decode(page.get(self.slot));
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
