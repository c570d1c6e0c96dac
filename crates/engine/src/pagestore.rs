//! Paged files over devices: the engine's unit of file allocation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use remem_sim::Clock;
use remem_storage::{Device, StorageError};

use crate::page::{Page, PAGE_SIZE};

/// Identifier of a paged file within a database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// A page number within a paged file.
pub type PageNo = u64;

/// A growable paged file on a [`Device`].
///
/// Pages are allocated with a bump allocator, so files written in order are
/// physically sequential on the device — which is what lets clustered scans
/// hit the HDD array's fast sequential path.
pub struct PagedFile {
    id: FileId,
    device: Arc<dyn Device>,
    next_page: AtomicU64,
}

impl PagedFile {
    pub fn new(id: FileId, device: Arc<dyn Device>) -> PagedFile {
        PagedFile {
            id,
            device,
            next_page: AtomicU64::new(0),
        }
    }

    pub fn id(&self) -> FileId {
        self.id
    }

    pub fn device(&self) -> &Arc<dyn Device> {
        &self.device
    }

    /// Total pages the device can hold.
    pub fn capacity_pages(&self) -> u64 {
        self.device.capacity() / PAGE_SIZE as u64
    }

    /// Pages allocated so far.
    pub fn allocated_pages(&self) -> u64 {
        self.next_page.load(Ordering::Relaxed)
    }

    /// Allocate one fresh page number.
    pub fn allocate(&self) -> Result<PageNo, StorageError> {
        let p = self.next_page.fetch_add(1, Ordering::Relaxed);
        if p >= self.capacity_pages() {
            self.next_page.fetch_sub(1, Ordering::Relaxed);
            return Err(StorageError::OutOfBounds {
                offset: p * PAGE_SIZE as u64,
                len: PAGE_SIZE as u64,
                capacity: self.device.capacity(),
            });
        }
        Ok(p)
    }

    /// Allocate `n` physically-contiguous pages (extent allocation for
    /// spill runs, so runs read back sequentially).
    pub(crate) fn allocate_extent(&self, n: u64) -> Result<PageNo, StorageError> {
        let start = self.next_page.fetch_add(n, Ordering::Relaxed);
        if start + n > self.capacity_pages() {
            self.next_page.fetch_sub(n, Ordering::Relaxed);
            return Err(StorageError::OutOfBounds {
                offset: start * PAGE_SIZE as u64,
                len: n * PAGE_SIZE as u64,
                capacity: self.device.capacity(),
            });
        }
        Ok(start)
    }

    /// Byte offset of `page`; a page number whose offset overflows `u64` is
    /// out of bounds like any other, never a panic or a wrap back into the
    /// device.
    fn offset_of(&self, page: PageNo) -> Result<u64, StorageError> {
        page.checked_mul(PAGE_SIZE as u64)
            .ok_or(StorageError::OutOfBounds {
                offset: u64::MAX,
                len: PAGE_SIZE as u64,
                capacity: self.device.capacity(),
            })
    }

    /// Read a page from the device (bypassing any buffer pool).
    pub fn read_page(&self, clock: &mut Clock, page: PageNo) -> Result<Page, StorageError> {
        let mut p = Page::new();
        self.device
            .read(clock, self.offset_of(page)?, p.as_bytes_mut())?;
        Ok(p)
    }

    /// Write a page to the device.
    pub(crate) fn write_page(
        &self,
        clock: &mut Clock,
        page: PageNo,
        p: &Page,
    ) -> Result<(), StorageError> {
        self.device
            .write(clock, self.offset_of(page)?, p.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remem_storage::RamDisk;

    fn file() -> PagedFile {
        PagedFile::new(FileId(1), Arc::new(RamDisk::new(64 * PAGE_SIZE as u64)))
    }

    #[test]
    fn allocate_and_round_trip() {
        let f = file();
        let mut clock = Clock::new();
        let p0 = f.allocate().unwrap();
        let p1 = f.allocate().unwrap();
        assert_eq!((p0, p1), (0, 1));
        let mut page = Page::new();
        page.insert(b"on-disk").unwrap();
        f.write_page(&mut clock, p1, &page).unwrap();
        let back = f.read_page(&mut clock, p1).unwrap();
        assert_eq!(back.get(0), b"on-disk");
    }

    #[test]
    fn page_numbers_near_u64_max_are_out_of_bounds() {
        let f = file();
        let mut clock = Clock::new();
        // `page * PAGE_SIZE` wraps to a small offset for the first and
        // overflows outright for both
        for page in [u64::MAX / PAGE_SIZE as u64 + 1, u64::MAX] {
            let read = f.read_page(&mut clock, page).map(|_| ());
            let write = f.write_page(&mut clock, page, &Page::new());
            for res in [read, write] {
                let err = res.expect_err("no such page");
                assert!(matches!(err, StorageError::OutOfBounds { .. }), "{err}");
            }
        }
        assert_eq!(
            clock.now(),
            Clock::new().now(),
            "nothing reached the device"
        );
    }

    #[test]
    fn extent_allocation_is_contiguous() {
        let f = file();
        let e1 = f.allocate_extent(8).unwrap();
        let e2 = f.allocate_extent(8).unwrap();
        assert_eq!(e2, e1 + 8);
    }

    #[test]
    fn allocation_respects_capacity() {
        let f = file();
        assert_eq!(f.capacity_pages(), 64);
        f.allocate_extent(64).unwrap();
        assert!(f.allocate().is_err());
        assert_eq!(
            f.allocated_pages(),
            64,
            "failed allocation must not leak pages"
        );
    }
}
