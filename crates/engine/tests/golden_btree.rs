//! Golden oracle for the paged B+tree.
//!
//! Three seeded workloads — an ascending bulk load of large values, random
//! inserts, and a replace-heavy mix on a small key domain — each split at
//! leaf and internal level, delete whole leaves empty and thin others out,
//! and then read the tree back with `get`, `range` and `scan`. Every run
//! sits on a pool far smaller than the tree, with an extension tier, so the
//! reads go through hits, extension hits, base reads and readahead.
//!
//! Each pins the tree's shape (root, height, `len`, pages allocated), an FNV
//! over the per-page FNVs of the final page images on the device, the
//! ordered log of `BufferPool` calls (`with_page` / `with_page_mut` /
//! `new_page` with the page number), the final virtual time, `BpStats`, and
//! an FNV of everything the reads returned, in order. The pins were captured
//! before `range` was rewritten to walk nodes in place: they assert that a
//! rewrite keeps the split decisions and asks the pool for the same pages in
//! the same order — not similar ones. They are also the oracle ROADMAP
//! item 6 (ii) asks for before `insert` / `delete` go in place.

use std::sync::Arc;

use remem_engine::btree::{BTree, MAX_VALUE_BYTES};
use remem_engine::bufferpool::{BpExt, BufferPool, PageAccess};
use remem_engine::page::PAGE_SIZE;
use remem_engine::pagestore::{FileId, PagedFile};
use remem_sim::rng::SimRng;
use remem_sim::Clock;
use remem_storage::{RamDisk, Ssd, SsdConfig};

const POOL_PAGES: u64 = 48;
const EXT_PAGES: u64 = 256;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

struct Rig {
    bp: BufferPool,
    file: Arc<PagedFile>,
    tree: BTree,
    clock: Clock,
    /// Everything the reads returned, in order.
    results: Fnv,
}

fn rig() -> Rig {
    let bp = BufferPool::new(POOL_PAGES * PAGE_SIZE as u64);
    bp.set_extension(Some(BpExt::new(Arc::new(RamDisk::new(
        EXT_PAGES * PAGE_SIZE as u64,
    )))));
    let file = Arc::new(PagedFile::new(
        FileId(3),
        Arc::new(Ssd::new(SsdConfig::with_capacity(64 << 20))),
    ));
    bp.register_file(Arc::clone(&file));
    bp.record_accesses(true);
    let mut clock = Clock::new();
    let tree = BTree::create(&mut clock, &bp, Arc::clone(&file)).unwrap();
    Rig {
        bp,
        file,
        tree,
        clock,
        results: Fnv::new(),
    }
}

fn value(rng: &mut SimRng, lo: u64, hi: u64) -> Vec<u8> {
    let len = rng.uniform(lo, hi) as usize;
    let fill = rng.uniform(0, 256) as u8;
    (0..len).map(|i| fill.wrapping_add(i as u8)).collect()
}

impl Rig {
    fn insert(&mut self, key: i64, val: &[u8]) {
        let replaced = self
            .tree
            .insert(&mut self.clock, &self.bp, key, val)
            .unwrap();
        self.results.u64(replaced as u64);
    }

    fn delete(&mut self, key: i64) {
        let deleted = self.tree.delete(&mut self.clock, &self.bp, key).unwrap();
        self.results.u64(deleted as u64);
    }

    fn get(&mut self, key: i64) {
        match self.tree.get(&mut self.clock, &self.bp, key).unwrap() {
            Some(v) => {
                self.results.u64(v.len() as u64);
                self.results.bytes(&v);
            }
            None => self.results.u64(u64::MAX),
        }
    }

    /// `range(lo, hi)`, stopping after `stop_after` entries if given.
    fn range(&mut self, lo: i64, hi: i64, stop_after: Option<usize>) {
        let results = &mut self.results;
        let mut seen = 0usize;
        self.tree
            .range(&mut self.clock, &self.bp, lo, hi, |k, v| {
                results.u64(k as u64);
                results.u64(v.len() as u64);
                results.bytes(v);
                seen += 1;
                stop_after != Some(seen)
            })
            .unwrap();
        results.u64(seen as u64);
    }

    fn scan(&mut self) {
        let results = &mut self.results;
        let mut seen = 0u64;
        self.tree
            .scan(&mut self.clock, &self.bp, |k, v| {
                results.u64(k as u64);
                results.bytes(v);
                seen += 1;
                true
            })
            .unwrap();
        results.u64(seen);
    }

    /// The read half every workload ends with: point lookups (present,
    /// deleted, outside the key space), ranges with bounds on keys, between
    /// keys, across emptied leaves, before the first and after the last key,
    /// early stops at several depths, the degenerate ranges, and a scan.
    fn read_back(&mut self, rng: &mut SimRng, keys: &[i64]) {
        let (min, max) = (keys[0], keys[keys.len() - 1]);
        for _ in 0..200 {
            let k = keys[rng.uniform(0, keys.len() as u64) as usize];
            self.get(k);
            self.get(k + 1);
        }
        self.get(min - 1);
        self.get(max + 1);
        self.get(i64::MIN);
        self.get(i64::MAX);
        for i in 0..120 {
            let a = keys[rng.uniform(0, keys.len() as u64) as usize];
            let span = keys[(rng.uniform(0, 400) as usize).min(keys.len() - 1)] - min;
            let (lo, hi) = match i % 4 {
                0 => (a, a + span),
                1 => (a + 1, a + span + 1),
                2 => (a - 1, a + span),
                _ => (a, a + 1),
            };
            let stop = match i % 5 {
                0 => Some(1),
                1 => Some(rng.uniform(2, 300) as usize),
                _ => None,
            };
            self.range(lo, hi, stop);
        }
        self.range(i64::MIN, min, None);
        self.range(i64::MIN, min + 1, None);
        self.range(max, i64::MAX, None);
        self.range(max + 1, i64::MAX, None);
        self.range(min, min, None);
        self.range(max, min, None);
        self.range(i64::MIN, i64::MAX, Some(3));
        self.scan();
    }

    fn pin(mut self) -> String {
        let log = self.bp.take_accesses();
        let mut calls = Fnv::new();
        for &(kind, file, page) in &log {
            assert_eq!(file, self.file.id());
            calls.u64(match kind {
                PageAccess::Read => 0,
                PageAccess::Write => 1,
                PageAccess::New => 2,
            });
            calls.u64(page);
        }
        let t = self.clock.now().0;
        let s = self.bp.stats();
        // the final images, as a checkpoint leaves them on the device
        self.bp.flush_all(&mut self.clock).unwrap();
        let mut images = Fnv::new();
        for p in 0..self.file.allocated_pages() {
            let page = self.file.read_page(&mut self.clock, p).unwrap();
            let mut one = Fnv::new();
            one.bytes(page.as_bytes());
            images.u64(one.0);
        }
        format!(
            "root={} height={} len={} pages={} images={:016x} calls={} log={:016x} t={} \
             bp=h{}/m{}/xh{}/xw{}/br{}/df{}/ev{} results={:016x}",
            self.tree.root(),
            self.tree.height(),
            self.tree.len(),
            self.file.allocated_pages(),
            images.0,
            log.len(),
            calls.0,
            t,
            s.hits,
            s.misses,
            s.ext_hits,
            s.ext_writes,
            s.base_reads,
            s.dirty_flushes,
            s.evictions,
            self.results.0,
        )
    }
}

/// Ascending bulk load of 1-2 KiB values: three or four entries a leaf, so
/// 2 000 keys split the root internal node and the tree is three levels
/// deep. Then one stretch of keys is deleted whole (empty leaves in the
/// chain) and another thinned to every third key (underfull leaves).
fn ascending() -> String {
    let mut rng = SimRng::seeded(61);
    let mut r = rig();
    let n = 2_000i64;
    for k in 0..n {
        let v = value(&mut rng, 1_000, MAX_VALUE_BYTES as u64 + 1);
        r.insert(k * 10, &v);
    }
    assert!(r.tree.height() >= 3, "an internal node must have split");
    let mut keys = Vec::new();
    for k in 0..n {
        if (700..760).contains(&k) || ((1_200..1_400).contains(&k) && k % 3 != 0) {
            r.delete(k * 10);
        } else {
            keys.push(k * 10);
        }
    }
    r.delete(5); // never inserted
    assert_eq!(r.tree.len(), keys.len() as u64);
    r.read_back(&mut rng, &keys);
    r.pin()
}

/// Random inserts of 200-600 byte values: middle splits everywhere, leaves
/// about two-thirds full, enough of them to split an internal node. Then a
/// dense stretch of the key space is deleted whole and one key in two is
/// deleted from another.
fn random() -> String {
    let mut rng = SimRng::seeded(62);
    let mut r = rig();
    let mut keys: Vec<i64> = (0..9_000).map(|k| k * 7 - 20_000).collect();
    rng.shuffle(&mut keys);
    for &k in &keys {
        let v = value(&mut rng, 200, 601);
        r.insert(k, &v);
    }
    assert!(r.tree.height() >= 3, "an internal node must have split");
    keys.sort_unstable();
    let mut kept = Vec::new();
    for (i, &k) in keys.iter().enumerate() {
        let gone = (3_000..3_150).contains(&i) || ((6_000..6_400).contains(&i) && i % 2 == 0);
        if gone {
            r.delete(k);
        } else {
            kept.push(k);
        }
    }
    assert_eq!(r.tree.len(), kept.len() as u64);
    r.read_back(&mut rng, &kept);
    r.pin()
}

/// Replace-heavy: 24 000 upserts over 4 000 keys with values of 0-900
/// bytes, so most inserts replace, and a replacement by a longer value is
/// what overflows a leaf; deletes are interleaved with the upserts.
fn replace_heavy() -> String {
    let mut rng = SimRng::seeded(63);
    let mut r = rig();
    let mut live = std::collections::BTreeSet::new();
    for i in 0..24_000 {
        let k = rng.uniform(0, 4_000) as i64 * 3;
        if i % 6 == 5 {
            r.delete(k);
            live.remove(&k);
        } else {
            let v = value(&mut rng, 0, 901);
            r.insert(k, &v);
            live.insert(k);
        }
    }
    assert!(r.tree.height() >= 2);
    assert_eq!(r.tree.len(), live.len() as u64);
    let keys: Vec<i64> = live.into_iter().collect();
    r.read_back(&mut rng, &keys);
    r.pin()
}

#[test]
fn golden_ascending() {
    assert_eq!(ascending(), "root=412 height=3 len=1807 pages=418 images=7f9be7816b2beb93 calls=12929 log=287917362a51dcce t=165443328 bp=h11307/m1204/xh1998/xw1595/br516/df474/ev4281 results=c6df28f918a51f80");
}

#[test]
fn golden_random() {
    assert_eq!(random(), "root=412 height=3 len=8650 pages=689 images=a99c305e50684009 calls=37492 log=12a1a3cc64ac6d9e t=1017463624 bp=h28169/m8634/xh5346/xw8832/br3288/df7397/ev9275 results=073184cc20f6ba48");
}

#[test]
fn golden_replace_heavy() {
    assert_eq!(replace_heavy(), "root=2 height=2 len=3331 pages=356 images=427bec4e7360b615 calls=74345 log=6f5f1a973aa98d7e t=1175410052 bp=h54019/m19970/xh18351/xw18682/br1619/df18165/ev20278 results=79696b5859bc6590");
}
