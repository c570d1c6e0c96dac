//! 8 KiB slotted pages — the unit of every I/O in the engine.

/// Page size used throughout the engine (SQL Server's 8 KiB).
pub const PAGE_SIZE: usize = 8192;

/// Layout: `[nslots: u16][free_off: u16]` header, then a slot directory of
/// `(off: u16, len: u16)` growing forward, and record bytes growing from the
/// end of the page backwards.
const HEADER: usize = 4;
const SLOT: usize = 4;

/// Largest record an empty page holds.
pub const MAX_RECORD: usize = PAGE_SIZE - HEADER - SLOT;

fn u16_at(data: &[u8; PAGE_SIZE], at: usize) -> usize {
    u16::from_le_bytes([data[at], data[at + 1]]) as usize
}

/// A read-only slotted page borrowed from bytes someone else owns — a
/// [`Page`], or one page of an extent buffer read back from a device. All
/// slot decoding lives here; [`Page`] reads through it.
#[derive(Clone, Copy)]
pub struct PageView<'a> {
    data: &'a [u8; PAGE_SIZE],
}

impl<'a> PageView<'a> {
    /// View raw page bytes in place.
    pub fn new(bytes: &'a [u8]) -> PageView<'a> {
        PageView {
            data: bytes
                .try_into()
                .expect("a page view needs exactly PAGE_SIZE bytes"),
        }
    }

    fn slot(&self, i: usize) -> (usize, usize) {
        let base = HEADER + i * SLOT;
        (u16_at(self.data, base), u16_at(self.data, base + 2))
    }

    /// Number of records on the page.
    pub fn len(&self) -> usize {
        u16_at(self.data, 0)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record bytes at `slot`.
    pub fn get(&self, slot: usize) -> &'a [u8] {
        assert!(slot < self.len(), "slot {slot} out of range");
        let (off, len) = self.slot(slot);
        &self.data[off..off + len]
    }

    /// Iterate over all records in slot order.
    pub fn iter(self) -> impl Iterator<Item = &'a [u8]> {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// A slotted page over an owned 8 KiB buffer.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Page::new()
    }
}

impl Page {
    /// A fresh, empty page.
    pub fn new() -> Page {
        let mut p = Page {
            data: Box::new([0u8; PAGE_SIZE]),
        };
        p.set_free_off(PAGE_SIZE);
        p
    }

    /// Wrap raw page bytes (e.g. read from a device).
    pub fn from_bytes(bytes: &[u8]) -> Page {
        assert_eq!(bytes.len(), PAGE_SIZE);
        let mut data = Box::new([0u8; PAGE_SIZE]);
        data.copy_from_slice(bytes);
        Page { data }
    }

    /// Empty the page in place; its bytes equal a fresh [`Page::new`].
    pub fn reset(&mut self) {
        self.data.fill(0);
        self.set_free_off(PAGE_SIZE);
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.data[..]
    }

    /// The whole page as writable bytes, for a device to read into.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data[..]
    }

    /// The read-only view of this page.
    pub fn view(&self) -> PageView<'_> {
        PageView { data: &self.data }
    }

    fn set_nslots(&mut self, n: usize) {
        self.data[0..2].copy_from_slice(&(n as u16).to_le_bytes());
    }

    fn free_off(&self) -> usize {
        u16_at(&self.data, 2)
    }

    fn set_free_off(&mut self, off: usize) {
        self.data[2..4].copy_from_slice(&(off as u16).to_le_bytes());
    }

    fn set_slot(&mut self, i: usize, off: usize, len: usize) {
        let base = HEADER + i * SLOT;
        self.data[base..base + 2].copy_from_slice(&(off as u16).to_le_bytes());
        self.data[base + 2..base + 4].copy_from_slice(&(len as u16).to_le_bytes());
    }

    /// Number of records on the page.
    pub fn len(&self) -> usize {
        self.view().len()
    }

    pub fn is_empty(&self) -> bool {
        self.view().is_empty()
    }

    /// Contiguous free bytes available for one more record.
    pub fn free_space(&self) -> usize {
        let used_front = HEADER + self.len() * SLOT;
        self.free_off()
            .saturating_sub(used_front)
            .saturating_sub(SLOT)
    }

    /// Whether a record of `len` bytes fits.
    pub fn fits(&self, len: usize) -> bool {
        self.free_space() >= len
    }

    /// Append a record, returning its slot index, or `None` if it no longer
    /// fits.
    pub fn insert(&mut self, record: &[u8]) -> Option<usize> {
        if !self.fits(record.len()) {
            return None;
        }
        let n = self.len();
        let off = self.free_off() - record.len();
        self.data[off..off + record.len()].copy_from_slice(record);
        self.set_slot(n, off, record.len());
        self.set_nslots(n + 1);
        self.set_free_off(off);
        Some(n)
    }

    /// Record bytes at `slot`.
    pub fn get(&self, slot: usize) -> &[u8] {
        self.view().get(slot)
    }

    /// Iterate over all records in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.view().iter()
    }

    /// Rebuild the page with `records` (used by B+tree splits and compaction).
    pub fn rebuild<'a>(records: impl IntoIterator<Item = &'a [u8]>) -> Page {
        let mut p = Page::new();
        for r in records {
            p.insert(r).expect("rebuild records must fit one page");
        }
        p
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("slots", &self.len())
            .field("free", &self.free_space())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut p = Page::new();
        let a = p.insert(b"alpha").unwrap();
        let b = p.insert(b"beta").unwrap();
        assert_eq!(p.get(a), b"alpha");
        assert_eq!(p.get(b), b"beta");
        assert_eq!(p.len(), 2);
        let all: Vec<&[u8]> = p.iter().collect();
        assert_eq!(all, vec![&b"alpha"[..], &b"beta"[..]]);
    }

    #[test]
    fn fills_until_capacity_exactly() {
        let mut p = Page::new();
        let rec = [7u8; 100];
        let mut count = 0;
        while p.insert(&rec).is_some() {
            count += 1;
        }
        // 8192 - 4 header; each record costs 100 + 4 slot = 104
        assert!(count >= 75, "only {count} records of 100B fit");
        assert!(!p.fits(100));
        assert!(p.fits(0) || p.free_space() < 100);
        // all still readable
        for i in 0..count {
            assert_eq!(p.get(i), &rec);
        }
    }

    #[test]
    fn survives_serialization() {
        let mut p = Page::new();
        p.insert(b"persist-me").unwrap();
        p.insert(&[0u8; 64]).unwrap();
        let bytes = p.as_bytes().to_vec();
        let q = Page::from_bytes(&bytes);
        assert_eq!(q.len(), 2);
        assert_eq!(q.get(0), b"persist-me");
        assert_eq!(q.get(1), &[0u8; 64]);
    }

    #[test]
    fn view_reads_an_extent_buffer_in_place() {
        let mut a = Page::new();
        a.insert(b"first").unwrap();
        let mut b = Page::new();
        b.insert(b"second").unwrap();
        b.insert(b"").unwrap();
        let extent = [a.as_bytes(), b.as_bytes()].concat();
        let va = PageView::new(&extent[..PAGE_SIZE]);
        let vb = PageView::new(&extent[PAGE_SIZE..]);
        assert_eq!(va.iter().collect::<Vec<_>>(), vec![&b"first"[..]]);
        assert_eq!(
            (vb.len(), vb.get(0), vb.get(1)),
            (2, &b"second"[..], &b""[..])
        );
        assert!(PageView::new(Page::new().as_bytes()).is_empty());
    }

    #[test]
    fn reset_equals_a_fresh_page() {
        let mut p = Page::new();
        p.insert(&[9u8; MAX_RECORD])
            .expect("an empty page holds MAX_RECORD");
        assert!(!p.fits(1));
        p.reset();
        assert_eq!(p.as_bytes(), Page::new().as_bytes());
        assert!(p.insert(&[9u8; MAX_RECORD + 1]).is_none());
    }

    #[test]
    fn empty_record_is_allowed() {
        let mut p = Page::new();
        let s = p.insert(b"").unwrap();
        assert_eq!(p.get(s), b"");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_slot_panics() {
        Page::new().get(0);
    }

    #[test]
    fn rebuild_preserves_order() {
        let records: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 16]).collect();
        let p = Page::rebuild(records.iter().map(|r| r.as_slice()));
        for (i, r) in records.iter().enumerate() {
            assert_eq!(p.get(i), r.as_slice());
        }
    }
}
