//! A paged B+tree over the buffer pool.
//!
//! Every index in the engine — clustered (rows stored in the leaves, like a
//! SQL Server clustered index), non-clustered, and the semantic cache's
//! redundant indexes — is one of these. Nodes are 8 KiB pages accessed
//! through the [`BufferPool`], so index traffic naturally flows through the
//! buffer-pool-extension tier and, when the index file is a remote-memory
//! device, over RDMA.
//!
//! Keys are `i64`; values are byte strings (encoded rows or RIDs). Inserts
//! use a rightmost-split heuristic so ascending inserts pack pages nearly
//! full and leaf order matches key order — giving clustered scans the
//! sequential I/O pattern the HDD array rewards.
//!
//! Two write paths build a tree. [`BTree::insert`] serves runtime DML: it
//! descends from the root and rewrites the whole leaf for every entry.
//! Ascending loads take [`BTree::append`] instead, through
//! `Database::bulk_loader`: it keeps the [`RightEdge`] open and writes each
//! entry into the rightmost leaf in place, so the descent and the rewrite
//! happen once per page, not once per entry. The two paths make the same
//! splits, so an ascending load leaves the same pages either way (DESIGN.md
//! §3, "Bulk load").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use remem_sim::Clock;
use remem_storage::StorageError;

use crate::bufferpool::BufferPool;
use crate::page::{Page, PageView, PAGE_SIZE};
use crate::pagestore::{PageNo, PagedFile};

const NO_NEXT: u64 = u64::MAX;
/// Largest value the tree accepts — must leave room for two entries per page.
pub const MAX_VALUE_BYTES: usize = 2048;

/// `RecordTooLarge` for a value longer than [`MAX_VALUE_BYTES`], so a caller
/// can refuse it before writing anything.
pub(crate) fn check_value_len(len: usize) -> Result<(), StorageError> {
    if len > MAX_VALUE_BYTES {
        return Err(StorageError::RecordTooLarge {
            len,
            max: MAX_VALUE_BYTES,
        });
    }
    Ok(())
}

/// Page tags in byte 0 of slot 0.
const TAG_INTERNAL: u8 = 0;
const TAG_LEAF: u8 = 1;

fn i64_at(rec: &[u8], at: usize) -> i64 {
    i64::from_le_bytes(rec[at..at + 8].try_into().unwrap())
}

fn u64_at(rec: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(rec[at..at + 8].try_into().unwrap())
}

/// A B+tree node read in place, out of the page that holds it.
///
/// Slot 0 is the header: `[TAG_LEAF][next: u64]` (`u64::MAX` = no next) on a
/// leaf, `[TAG_INTERNAL]` on an internal node. A leaf's entries follow as
/// `key ‖ value` records, one per slot, in key order. An internal node holds
/// `child0: u64` in slot 1 and then one `key ‖ child` record per separator:
/// keys `< key[0]` live under `child0`, keys `>= key[i]` (and `< key[i+1]`)
/// under `child[i+1]`. The read path (`range`, `scan`) works on this view and
/// allocates nothing; [`Node`] is the owned form the write path edits.
#[derive(Clone, Copy)]
pub struct NodeView<'a> {
    page: PageView<'a>,
    leaf: bool,
}

impl<'a> NodeView<'a> {
    /// View the node on `page`. Panics on a page that is not a tree node.
    pub fn new(page: PageView<'a>) -> NodeView<'a> {
        let leaf = match page.get(0)[0] {
            TAG_LEAF => true,
            TAG_INTERNAL => false,
            t => panic!("corrupt B+tree node tag {t}"),
        };
        NodeView { page, leaf }
    }

    pub fn is_leaf(&self) -> bool {
        self.leaf
    }

    /// Slot of key 0: after the header, and after `child0` on an internal node.
    fn first_slot(&self) -> usize {
        if self.leaf {
            1
        } else {
            2
        }
    }

    /// Number of keys: a leaf's entries, an internal node's separators.
    pub fn len(&self) -> usize {
        self.page.len() - self.first_slot()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th key, on either kind of node.
    pub fn key_at(&self, i: usize) -> i64 {
        i64_at(self.page.get(self.first_slot() + i), 0)
    }

    /// A leaf's `i`-th entry; the value is borrowed from the page.
    pub fn entry_at(&self, i: usize) -> (i64, &'a [u8]) {
        debug_assert!(self.leaf);
        let rec = self.page.get(1 + i);
        (i64_at(rec, 0), &rec[8..])
    }

    /// The leaf after this one in key order.
    pub fn next(&self) -> Option<PageNo> {
        debug_assert!(self.leaf);
        let next = u64_at(self.page.get(0), 1);
        (next != NO_NEXT).then_some(next)
    }

    /// Number of leading keys for which `pred` holds (keys are sorted, so
    /// `pred` must be true for a prefix of them).
    fn partition_point(&self, pred: impl Fn(i64) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.key_at(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Binary search a leaf: `Ok(i)` if entry `i` holds `key`, else `Err(i)`
    /// with `i` the first entry whose key is greater (`len()` if none).
    pub fn leaf_find(&self, key: i64) -> Result<usize, usize> {
        debug_assert!(self.leaf);
        let i = self.partition_point(|k| k < key);
        if i < self.len() && self.key_at(i) == key {
            Ok(i)
        } else {
            Err(i)
        }
    }

    /// An internal node's `i`-th child, `0..=len()`.
    pub fn child_at(&self, i: usize) -> PageNo {
        debug_assert!(!self.leaf);
        if i == 0 {
            u64_at(self.page.get(1), 0)
        } else {
            u64_at(self.page.get(1 + i), 8)
        }
    }

    /// The child whose subtree holds `key`: child `i`, with `i` the number
    /// of separators `<= key`.
    pub fn child_for(&self, key: i64) -> PageNo {
        self.child_at(self.partition_point(|k| k <= key))
    }
}

/// The owned form of a node, for the paths that rewrite it (`insert`,
/// `delete`, the internal-node splits of `append`) and, for now, `get`.
/// `decode` is left exactly as it was, its allocation pattern included: a
/// cheaper update path makes the time-bounded `rangescan_upd` benchmark log
/// more and read as a memory regression, so the write path's host cost
/// holds still until that metric is fixed (ROADMAP item 6 (i)).
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        next: Option<PageNo>,
        entries: Vec<(i64, Vec<u8>)>,
    },
    Internal {
        keys: Vec<i64>,
        children: Vec<PageNo>,
    },
}

impl Node {
    fn decode(page: &Page) -> Node {
        let header = page.get(0);
        match header[0] {
            TAG_LEAF => {
                let next = u64::from_le_bytes(header[1..9].try_into().unwrap());
                let entries = (1..page.len())
                    .map(|i| {
                        let rec = page.get(i);
                        let key = i64::from_le_bytes(rec[..8].try_into().unwrap());
                        (key, rec[8..].to_vec())
                    })
                    .collect();
                Node::Leaf {
                    next: (next != NO_NEXT).then_some(next),
                    entries,
                }
            }
            TAG_INTERNAL => {
                let child0 = u64::from_le_bytes(page.get(1).try_into().unwrap());
                let mut keys = Vec::with_capacity(page.len() - 2);
                let mut children = vec![child0];
                for i in 2..page.len() {
                    let rec = page.get(i);
                    keys.push(i64::from_le_bytes(rec[..8].try_into().unwrap()));
                    children.push(u64::from_le_bytes(rec[8..16].try_into().unwrap()));
                }
                Node::Internal { keys, children }
            }
            t => panic!("corrupt B+tree node tag {t}"),
        }
    }

    fn encode(&self) -> Page {
        let mut p = Page::new();
        match self {
            Node::Leaf { next, entries } => {
                let mut header = [0u8; 9];
                header[0] = TAG_LEAF;
                header[1..9].copy_from_slice(&next.unwrap_or(NO_NEXT).to_le_bytes());
                p.insert(&header).expect("header fits");
                let mut rec = Vec::with_capacity(64);
                for (key, val) in entries {
                    rec.clear();
                    rec.extend_from_slice(&key.to_le_bytes());
                    rec.extend_from_slice(val);
                    p.insert(&rec).expect("caller verified fit");
                }
            }
            Node::Internal { keys, children } => {
                p.insert(&[TAG_INTERNAL]).expect("header fits");
                p.insert(&children[0].to_le_bytes()).expect("child0 fits");
                let mut rec = [0u8; 16];
                for (k, c) in keys.iter().zip(&children[1..]) {
                    rec[..8].copy_from_slice(&k.to_le_bytes());
                    rec[8..].copy_from_slice(&c.to_le_bytes());
                    p.insert(&rec).expect("caller verified fit");
                }
            }
        }
        p
    }

    /// Encoded size in page bytes (records + slot directory).
    fn encoded_bytes(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => {
                (9 + 4) + entries.iter().map(|(_, v)| 8 + v.len() + 4).sum::<usize>()
            }
            Node::Internal { keys, .. } => (1 + 4) + (8 + 4) + keys.len() * (16 + 4),
        }
    }

    fn fits(&self) -> bool {
        // 4 bytes page header
        self.encoded_bytes() + 4 <= PAGE_SIZE
    }
}

/// Outcome of a recursive insert: a split produces a separator and new page.
enum InsertResult {
    Done {
        replaced: bool,
    },
    Split {
        sep: i64,
        right: PageNo,
        replaced: bool,
    },
}

/// The right edge of a tree, held open across [`BTree::append`]s: the
/// rightmost leaf, and the smallest key the next entry may carry. A new
/// edge is empty; the first append finds it.
pub struct RightEdge {
    leaf: Option<PageNo>,
    /// `None` once nothing can follow (`i64::MAX` is in).
    floor: Option<i64>,
    /// Reused `key ‖ value` record.
    rec: Vec<u8>,
}

impl Default for RightEdge {
    fn default() -> RightEdge {
        RightEdge {
            leaf: None,
            floor: Some(i64::MIN),
            rec: Vec::new(),
        }
    }
}

impl RightEdge {
    fn admits(&self, key: i64) -> bool {
        self.floor.is_some_and(|floor| key >= floor)
    }
}

/// What [`BTree::append`] did with an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Appended {
    /// Written into the rightmost leaf.
    Placed,
    /// The rightmost leaf was full: the entry opened a new one, and the full
    /// leaf is sealed — no later append writes to it.
    Opened,
    /// Refused, with nothing written: the key does not belong at the right
    /// edge (it is not above every key there).
    OutOfOrder,
}

/// A paged B+tree.
pub struct BTree {
    file: Arc<PagedFile>,
    root: AtomicU64,
    entries: AtomicU64,
    height: AtomicU64,
}

impl BTree {
    /// Create an empty tree in `file` (allocates the root leaf).
    pub fn create(
        clock: &mut Clock,
        bp: &BufferPool,
        file: Arc<PagedFile>,
    ) -> Result<BTree, StorageError> {
        let root = file.allocate()?;
        bp.new_page(clock, file.id(), root)?;
        let node = Node::Leaf {
            next: None,
            entries: Vec::new(),
        };
        bp.with_page_mut(clock, file.id(), root, |p| *p = node.encode())?;
        Ok(BTree {
            file,
            root: AtomicU64::new(root),
            entries: AtomicU64::new(0),
            height: AtomicU64::new(1),
        })
    }

    pub fn len(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Levels from root to leaf (1 = root is a leaf). The optimizer prices
    /// seeks as `height` page accesses.
    pub fn height(&self) -> u64 {
        self.height.load(Ordering::Relaxed)
    }

    pub fn file(&self) -> &Arc<PagedFile> {
        &self.file
    }

    /// Page number of the root node.
    pub fn root(&self) -> PageNo {
        self.root.load(Ordering::Acquire)
    }

    fn read_node(
        &self,
        clock: &mut Clock,
        bp: &BufferPool,
        pno: PageNo,
    ) -> Result<Node, StorageError> {
        bp.with_page(clock, self.file.id(), pno, Node::decode)
    }

    fn write_node(
        &self,
        clock: &mut Clock,
        bp: &BufferPool,
        pno: PageNo,
        node: &Node,
    ) -> Result<(), StorageError> {
        debug_assert!(node.fits());
        bp.with_page_mut(clock, self.file.id(), pno, |p| *p = node.encode())
    }

    /// Insert or replace. Returns `true` if an existing key was replaced.
    /// A value over [`MAX_VALUE_BYTES`] is `RecordTooLarge`, with nothing
    /// written.
    pub fn insert(
        &self,
        clock: &mut Clock,
        bp: &BufferPool,
        key: i64,
        value: &[u8],
    ) -> Result<bool, StorageError> {
        self.put(clock, bp, key, value, true)
    }

    /// Insert a key that must be new. Returns `false`, having written
    /// nothing, when the key is already present. A value over
    /// [`MAX_VALUE_BYTES`] is `RecordTooLarge`, with nothing written.
    pub(crate) fn insert_new(
        &self,
        clock: &mut Clock,
        bp: &BufferPool,
        key: i64,
        value: &[u8],
    ) -> Result<bool, StorageError> {
        Ok(!self.put(clock, bp, key, value, false)?)
    }

    /// Insert, or find `key` present and replace its value only if
    /// `replace`. Returns whether `key` was present.
    fn put(
        &self,
        clock: &mut Clock,
        bp: &BufferPool,
        key: i64,
        value: &[u8],
        replace: bool,
    ) -> Result<bool, StorageError> {
        check_value_len(value.len())?;
        let root = self.root();
        let replaced = match self.insert_rec(clock, bp, root, key, value, replace)? {
            InsertResult::Done { replaced } => replaced,
            InsertResult::Split {
                sep,
                right,
                replaced,
            } => {
                self.grow_root(clock, bp, sep, right)?;
                replaced
            }
        };
        if !replaced {
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
        Ok(replaced)
    }

    /// The root split into itself and `right`: put a new root above both.
    fn grow_root(
        &self,
        clock: &mut Clock,
        bp: &BufferPool,
        sep: i64,
        right: PageNo,
    ) -> Result<(), StorageError> {
        let new_root = self.file.allocate()?;
        bp.new_page(clock, self.file.id(), new_root)?;
        let node = Node::Internal {
            keys: vec![sep],
            children: vec![self.root(), right],
        };
        self.write_node(clock, bp, new_root, &node)?;
        self.root.store(new_root, Ordering::Release);
        self.height.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Split the overfull internal node at `pno` in the middle: the right
    /// half moves to a new page and the middle key moves up. Returns that
    /// key and the new page.
    fn split_internal(
        &self,
        clock: &mut Clock,
        bp: &BufferPool,
        pno: PageNo,
        mut keys: Vec<i64>,
        mut children: Vec<PageNo>,
    ) -> Result<(i64, PageNo), StorageError> {
        let mid = keys.len() / 2;
        let promote = keys[mid];
        let right_keys = keys.split_off(mid + 1);
        keys.pop(); // the promoted key moves up
        let right_children = children.split_off(mid + 1);
        let right_pno = self.file.allocate()?;
        bp.new_page(clock, self.file.id(), right_pno)?;
        let rnode = Node::Internal {
            keys: right_keys,
            children: right_children,
        };
        let lnode = Node::Internal { keys, children };
        self.write_node(clock, bp, right_pno, &rnode)?;
        self.write_node(clock, bp, pno, &lnode)?;
        Ok((promote, right_pno))
    }

    fn insert_rec(
        &self,
        clock: &mut Clock,
        bp: &BufferPool,
        pno: PageNo,
        key: i64,
        value: &[u8],
        replace: bool,
    ) -> Result<InsertResult, StorageError> {
        let node = self.read_node(clock, bp, pno)?;
        match node {
            Node::Leaf { next, mut entries } => {
                let (pos, replaced) = match entries.binary_search_by_key(&key, |(k, _)| *k) {
                    Ok(_) if !replace => return Ok(InsertResult::Done { replaced: true }),
                    Ok(i) => {
                        entries[i].1 = value.to_vec();
                        (i, true)
                    }
                    Err(i) => {
                        entries.insert(i, (key, value.to_vec()));
                        (i, false)
                    }
                };
                let candidate = Node::Leaf { next, entries };
                if candidate.fits() {
                    self.write_node(clock, bp, pno, &candidate)?;
                    return Ok(InsertResult::Done { replaced });
                }
                let Node::Leaf { next, mut entries } = candidate else {
                    unreachable!()
                };
                // split: rightmost-insert heuristic keeps bulk loads dense
                let split_at = if pos == entries.len() - 1 {
                    entries.len() - 1
                } else {
                    entries.len() / 2
                };
                let right_entries = entries.split_off(split_at);
                let sep = right_entries[0].0;
                let right_pno = self.file.allocate()?;
                bp.new_page(clock, self.file.id(), right_pno)?;
                let right = Node::Leaf {
                    next,
                    entries: right_entries,
                };
                let left = Node::Leaf {
                    next: Some(right_pno),
                    entries,
                };
                self.write_node(clock, bp, right_pno, &right)?;
                self.write_node(clock, bp, pno, &left)?;
                Ok(InsertResult::Split {
                    sep,
                    right: right_pno,
                    replaced,
                })
            }
            Node::Internal {
                mut keys,
                mut children,
            } => {
                let idx = keys.partition_point(|k| *k <= key);
                let child = children[idx];
                match self.insert_rec(clock, bp, child, key, value, replace)? {
                    InsertResult::Done { replaced } => Ok(InsertResult::Done { replaced }),
                    InsertResult::Split {
                        sep,
                        right,
                        replaced,
                    } => {
                        keys.insert(idx, sep);
                        children.insert(idx + 1, right);
                        let candidate = Node::Internal { keys, children };
                        if candidate.fits() {
                            self.write_node(clock, bp, pno, &candidate)?;
                            return Ok(InsertResult::Done { replaced });
                        }
                        let Node::Internal { keys, children } = candidate else {
                            unreachable!()
                        };
                        let (sep, right) = self.split_internal(clock, bp, pno, keys, children)?;
                        Ok(InsertResult::Split {
                            sep,
                            right,
                            replaced,
                        })
                    }
                }
            }
        }
    }

    /// Find the right edge: descend through the last child of each internal
    /// node to the rightmost leaf, one page read per level. Returns the leaf
    /// and the smallest key an `insert` would put after its last entry: at
    /// or above the deepest separator on the way, and above that last entry.
    fn find_right_edge(
        &self,
        clock: &mut Clock,
        bp: &BufferPool,
    ) -> Result<(PageNo, Option<i64>), StorageError> {
        let mut pno = self.root();
        let mut floor = Some(i64::MIN);
        loop {
            let (last, child) = bp.with_page(clock, self.file.id(), pno, |page| {
                let node = NodeView::new(page.view());
                let last = node.len().checked_sub(1).map(|i| node.key_at(i));
                (last, (!node.is_leaf()).then(|| node.child_at(node.len())))
            })?;
            match child {
                Some(child) => {
                    // separators grow down the edge, so the deepest bounds it
                    floor = last.or(floor);
                    pno = child;
                }
                None => {
                    if let Some(last) = last {
                        floor = last.checked_add(1);
                    }
                    return Ok((pno, floor));
                }
            }
        }
    }

    /// Append `key ‖ value` at the right edge, leaving the pages an `insert`
    /// of the same key would: the entry is written into the rightmost leaf
    /// in place, with no decode; when that leaf is full the entry opens a new
    /// leaf of its own (the rightmost-split heuristic) and the separator
    /// climbs the edge. Both checks come first and write nothing: a value
    /// over [`MAX_VALUE_BYTES`] is `RecordTooLarge`, and a key that is not
    /// above every key on the edge is [`Appended::OutOfOrder`].
    ///
    /// Another writer may change the tree between appends. A leaf that is no
    /// longer the rightmost, or that now holds a key at or above `key`,
    /// sends the append back to the root for the edge, as a new edge does.
    pub fn append(
        &self,
        clock: &mut Clock,
        bp: &BufferPool,
        edge: &mut RightEdge,
        key: i64,
        value: &[u8],
    ) -> Result<Appended, StorageError> {
        check_value_len(value.len())?;
        if !edge.admits(key) {
            return Ok(Appended::OutOfOrder);
        }
        edge.rec.clear();
        edge.rec.extend_from_slice(&key.to_le_bytes());
        edge.rec.extend_from_slice(value);
        let placed = loop {
            if let Some(leaf) = edge.leaf {
                let rec = &edge.rec;
                let placed = bp.with_page_mut(clock, self.file.id(), leaf, |page| {
                    let node = NodeView::new(page.view());
                    let last = node.len().checked_sub(1).map(|i| node.key_at(i));
                    let stale = node.next().is_some() || last.is_some_and(|last| last >= key);
                    (!stale).then(|| page.insert(rec).is_some())
                })?;
                if let Some(placed) = placed {
                    break placed;
                }
            }
            let (leaf, floor) = self.find_right_edge(clock, bp)?;
            edge.leaf = Some(leaf);
            edge.floor = edge.floor.zip(floor).map(|(a, b)| a.max(b));
            if !edge.admits(key) {
                return Ok(Appended::OutOfOrder);
            }
        };
        if !placed {
            self.open_leaf(clock, bp, edge, key)?;
        }
        edge.floor = key.checked_add(1);
        self.entries.fetch_add(1, Ordering::Relaxed);
        Ok(if placed {
            Appended::Placed
        } else {
            Appended::Opened
        })
    }

    /// The rightmost leaf is full: give it a right sibling holding only the
    /// entry in `edge.rec`, then carry the separator up the edge — appended
    /// in place to an internal node with room, a middle split of one
    /// without, and a new root when the root splits. Pages are allocated and
    /// written in the order `insert` allocates and writes them.
    fn open_leaf(
        &self,
        clock: &mut Clock,
        bp: &BufferPool,
        edge: &mut RightEdge,
        key: i64,
    ) -> Result<(), StorageError> {
        let file = self.file.id();
        // the internal nodes above the leaf, root first
        let mut path = Vec::with_capacity(self.height() as usize);
        let mut pno = self.root();
        for _ in 1..self.height() {
            path.push(pno);
            pno = bp.with_page(clock, file, pno, |page| {
                let node = NodeView::new(page.view());
                node.child_at(node.len())
            })?;
        }
        debug_assert_eq!(Some(pno), edge.leaf, "the edge ends at the rightmost leaf");
        let right = self.file.allocate()?;
        bp.new_page(clock, file, right)?;
        let node = Node::Leaf {
            next: None,
            entries: vec![(key, edge.rec[8..].to_vec())],
        };
        self.write_node(clock, bp, right, &node)?;
        bp.with_page_mut(clock, file, pno, |page| {
            page.get_mut(0)[1..9].copy_from_slice(&right.to_le_bytes())
        })?;
        edge.leaf = Some(right);
        let mut carry = Some((key, right));
        while let (Some((sep, child)), Some(pno)) = (carry, path.pop()) {
            let mut rec = [0u8; 16];
            rec[..8].copy_from_slice(&sep.to_le_bytes());
            rec[8..].copy_from_slice(&child.to_le_bytes());
            let placed = bp.with_page_mut(clock, file, pno, |page| page.insert(&rec).is_some())?;
            carry = if placed {
                None
            } else {
                let Node::Internal {
                    mut keys,
                    mut children,
                } = self.read_node(clock, bp, pno)?
                else {
                    unreachable!("the edge above the leaf is internal nodes")
                };
                keys.push(sep);
                children.push(child);
                Some(self.split_internal(clock, bp, pno, keys, children)?)
            };
        }
        if let Some((sep, right)) = carry {
            self.grow_root(clock, bp, sep, right)?;
        }
        Ok(())
    }

    /// Point lookup.
    pub fn get(
        &self,
        clock: &mut Clock,
        bp: &BufferPool,
        key: i64,
    ) -> Result<Option<Vec<u8>>, StorageError> {
        let mut pno = self.root();
        loop {
            match self.read_node(clock, bp, pno)? {
                Node::Leaf { entries, .. } => {
                    return Ok(entries
                        .binary_search_by_key(&key, |(k, _)| *k)
                        .ok()
                        .map(|i| entries[i].1.clone()));
                }
                Node::Internal { keys, children } => {
                    pno = children[keys.partition_point(|k| *k <= key)];
                }
            }
        }
    }

    /// Visit entries with `lo <= key < hi` in key order. `visit` returns
    /// `false` to stop early (Top-N, LIMIT).
    ///
    /// The walk reads each node in place: one [`BufferPool::with_page`] per
    /// node visited, no decode, no allocation. The value slice handed to
    /// `visit` borrows the pool frame and is valid only during that call —
    /// copy what must outlive it — and `visit` runs with the pool locked, so
    /// it must not call back into the pool.
    pub fn range(
        &self,
        clock: &mut Clock,
        bp: &BufferPool,
        lo: i64,
        hi: i64,
        mut visit: impl FnMut(i64, &[u8]) -> bool,
    ) -> Result<(), StorageError> {
        if lo >= hi {
            return Ok(());
        }
        let mut pno = self.root();
        // only the leaf the descent lands on can hold keys below `lo`
        let mut seek = true;
        loop {
            let step = bp.with_page(clock, self.file.id(), pno, |page| {
                let node = NodeView::new(page.view());
                if !node.is_leaf() {
                    return Some(node.child_for(lo));
                }
                let start = if std::mem::take(&mut seek) {
                    node.leaf_find(lo).unwrap_or_else(|i| i)
                } else {
                    0
                };
                for i in start..node.len() {
                    let (key, value) = node.entry_at(i);
                    if key >= hi || !visit(key, value) {
                        return None;
                    }
                }
                node.next()
            })?;
            match step {
                Some(next) => pno = next,
                None => return Ok(()),
            }
        }
    }

    /// Collect a range into a vector (convenience over [`BTree::range`]).
    #[cfg(test)]
    pub(crate) fn range_vec(
        &self,
        clock: &mut Clock,
        bp: &BufferPool,
        lo: i64,
        hi: i64,
    ) -> Result<Vec<(i64, Vec<u8>)>, StorageError> {
        let mut out = Vec::new();
        self.range(clock, bp, lo, hi, |k, v| {
            out.push((k, v.to_vec()));
            true
        })?;
        Ok(out)
    }

    /// Full scan in key order.
    pub fn scan(
        &self,
        clock: &mut Clock,
        bp: &BufferPool,
        visit: impl FnMut(i64, &[u8]) -> bool,
    ) -> Result<(), StorageError> {
        self.range(clock, bp, i64::MIN, i64::MAX, visit)
    }

    /// Remove a key. Leaves may become underfull (no rebalancing — deletes
    /// are rare in the modelled workloads, as in the paper's).
    pub fn delete(
        &self,
        clock: &mut Clock,
        bp: &BufferPool,
        key: i64,
    ) -> Result<bool, StorageError> {
        let mut pno = self.root();
        loop {
            match self.read_node(clock, bp, pno)? {
                Node::Internal { keys, children } => {
                    pno = children[keys.partition_point(|k| *k <= key)];
                }
                Node::Leaf { next, mut entries } => {
                    match entries.binary_search_by_key(&key, |(k, _)| *k) {
                        Ok(i) => {
                            entries.remove(i);
                            self.write_node(clock, bp, pno, &Node::Leaf { next, entries })?;
                            self.entries.fetch_sub(1, Ordering::Relaxed);
                            return Ok(true);
                        }
                        Err(_) => return Ok(false),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagestore::FileId;
    use remem_storage::RamDisk;

    fn setup(pages: u64) -> (BufferPool, Arc<PagedFile>, Clock) {
        let bp = BufferPool::new(64 * PAGE_SIZE as u64);
        let file = Arc::new(PagedFile::new(
            FileId(0),
            Arc::new(RamDisk::new(pages * PAGE_SIZE as u64)),
        ));
        bp.register_file(Arc::clone(&file));
        (bp, file, Clock::new())
    }

    #[test]
    fn insert_get_small() {
        let (bp, file, mut clock) = setup(64);
        let t = BTree::create(&mut clock, &bp, file).unwrap();
        assert!(t.is_empty());
        for k in [5i64, 1, 9, -3, 7] {
            assert!(!t
                .insert(&mut clock, &bp, k, format!("v{k}").as_bytes())
                .unwrap());
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.get(&mut clock, &bp, 9).unwrap().unwrap(), b"v9");
        assert_eq!(t.get(&mut clock, &bp, -3).unwrap().unwrap(), b"v-3");
        assert!(t.get(&mut clock, &bp, 100).unwrap().is_none());
    }

    #[test]
    fn replace_existing_key() {
        let (bp, file, mut clock) = setup(64);
        let t = BTree::create(&mut clock, &bp, file).unwrap();
        t.insert(&mut clock, &bp, 1, b"old").unwrap();
        assert!(t.insert(&mut clock, &bp, 1, b"new").unwrap());
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&mut clock, &bp, 1).unwrap().unwrap(), b"new");
    }

    #[test]
    fn grows_through_splits_ascending() {
        let (bp, file, mut clock) = setup(4096);
        let t = BTree::create(&mut clock, &bp, file).unwrap();
        let val = vec![7u8; 200]; // ~36 rows per leaf
        let n = 5000i64;
        for k in 0..n {
            t.insert(&mut clock, &bp, k, &val).unwrap();
        }
        assert_eq!(t.len(), n as u64);
        assert!(t.height() >= 2, "tree must have split");
        for k in [0i64, 1, n / 2, n - 1] {
            assert_eq!(t.get(&mut clock, &bp, k).unwrap().unwrap(), val);
        }
        // ascending load should pack densely: ~n/36 leaves + internals
        let pages = t.file().allocated_pages();
        assert!(
            pages < (n as u64 / 30) * 2,
            "rightmost-split heuristic should pack pages: {pages} pages for {n} rows"
        );
    }

    #[test]
    fn grows_through_splits_random_order() {
        let (bp, file, mut clock) = setup(4096);
        let t = BTree::create(&mut clock, &bp, file).unwrap();
        let mut rng = remem_sim::rng::SimRng::seeded(77);
        let mut keys: Vec<i64> = (0..4000).collect();
        rng.shuffle(&mut keys);
        for &k in &keys {
            t.insert(&mut clock, &bp, k, &k.to_le_bytes()).unwrap();
        }
        assert_eq!(t.len(), 4000);
        for &k in keys.iter().step_by(97) {
            assert_eq!(
                t.get(&mut clock, &bp, k).unwrap().unwrap(),
                k.to_le_bytes().to_vec()
            );
        }
    }

    #[test]
    fn range_scan_in_order_with_early_stop() {
        let (bp, file, mut clock) = setup(2048);
        let t = BTree::create(&mut clock, &bp, file).unwrap();
        for k in (0..1000i64).rev() {
            t.insert(&mut clock, &bp, k * 2, &[0u8; 100]).unwrap();
        }
        let got = t.range_vec(&mut clock, &bp, 100, 120).unwrap();
        let keys: Vec<i64> = got.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![100, 102, 104, 106, 108, 110, 112, 114, 116, 118]);
        // early stop
        let mut seen = 0;
        t.range(&mut clock, &bp, 0, i64::MAX, |_, _| {
            seen += 1;
            seen < 5
        })
        .unwrap();
        assert_eq!(seen, 5);
        // empty range
        assert!(t.range_vec(&mut clock, &bp, 50, 50).unwrap().is_empty());
    }

    #[test]
    fn full_scan_returns_sorted_keys() {
        let (bp, file, mut clock) = setup(2048);
        let t = BTree::create(&mut clock, &bp, file).unwrap();
        let mut rng = remem_sim::rng::SimRng::seeded(3);
        let mut keys: Vec<i64> = (0..2000).map(|i| i * 3).collect();
        rng.shuffle(&mut keys);
        for &k in &keys {
            t.insert(&mut clock, &bp, k, b"x").unwrap();
        }
        let mut scanned = Vec::new();
        t.scan(&mut clock, &bp, |k, _| {
            scanned.push(k);
            true
        })
        .unwrap();
        keys.sort_unstable();
        assert_eq!(scanned, keys);
    }

    #[test]
    fn delete_removes_and_reports() {
        let (bp, file, mut clock) = setup(256);
        let t = BTree::create(&mut clock, &bp, file).unwrap();
        for k in 0..100i64 {
            t.insert(&mut clock, &bp, k, b"v").unwrap();
        }
        assert!(t.delete(&mut clock, &bp, 50).unwrap());
        assert!(!t.delete(&mut clock, &bp, 50).unwrap());
        assert!(t.get(&mut clock, &bp, 50).unwrap().is_none());
        assert_eq!(t.len(), 99);
        // neighbours unaffected
        assert!(t.get(&mut clock, &bp, 49).unwrap().is_some());
        assert!(t.get(&mut clock, &bp, 51).unwrap().is_some());
    }

    #[test]
    fn seek_costs_height_page_accesses() {
        let (bp, file, mut clock) = setup(4096);
        let t = BTree::create(&mut clock, &bp, file).unwrap();
        for k in 0..5000i64 {
            t.insert(&mut clock, &bp, k, &[0u8; 200]).unwrap();
        }
        bp.reset_stats();
        t.get(&mut clock, &bp, 2500).unwrap();
        let s = bp.stats();
        assert_eq!(s.hits + s.misses, t.height(), "one page access per level");
    }

    #[test]
    fn append_finds_the_edge_again_after_another_writer() {
        let (bp, file, mut clock) = setup(4096);
        let t = BTree::create(&mut clock, &bp, file).unwrap();
        let mut edge = RightEdge::default();
        let append = |clock: &mut Clock, edge: &mut RightEdge, key: i64| {
            t.append(clock, &bp, edge, key, &key.to_le_bytes()).unwrap()
        };
        for k in 0..100 {
            assert_ne!(append(&mut clock, &mut edge, k), Appended::OutOfOrder);
        }
        // inserts split the edge's leaf and grow the tree behind its back
        for k in 100..2000 {
            t.insert(&mut clock, &bp, k, &k.to_le_bytes()).unwrap();
        }
        assert!(t.height() >= 2);
        assert_eq!(append(&mut clock, &mut edge, 1999), Appended::OutOfOrder);
        assert_ne!(append(&mut clock, &mut edge, 2000), Appended::OutOfOrder);
        // nothing sorts after i64::MAX
        assert_ne!(
            append(&mut clock, &mut edge, i64::MAX),
            Appended::OutOfOrder
        );
        assert_eq!(
            append(&mut clock, &mut edge, i64::MAX),
            Appended::OutOfOrder
        );
        let mut keys = Vec::new();
        t.range(&mut clock, &bp, i64::MIN, i64::MAX, |k, v| {
            keys.push(k);
            v == k.to_le_bytes()
        })
        .unwrap();
        assert_eq!(keys, (0..=2000).collect::<Vec<i64>>());
        let max = t.get(&mut clock, &bp, i64::MAX).unwrap();
        assert_eq!(max.as_deref(), Some(&i64::MAX.to_le_bytes()[..]));
        assert_eq!(t.len(), 2002);
    }

    #[test]
    fn oversized_value_rejected() {
        let (bp, file, mut clock) = setup(64);
        let t = BTree::create(&mut clock, &bp, file).unwrap();
        t.insert(&mut clock, &bp, 1, b"v").unwrap();
        let pages = t.file().allocated_pages();
        bp.reset_stats();
        let huge = vec![0u8; MAX_VALUE_BYTES + 1];
        for got in [
            t.insert(&mut clock, &bp, 2, &huge),
            t.insert_new(&mut clock, &bp, 3, &huge),
            t.insert(&mut clock, &bp, 1, &huge),
        ] {
            assert!(matches!(
                got,
                Err(StorageError::RecordTooLarge { len, max })
                    if len == MAX_VALUE_BYTES + 1 && max == MAX_VALUE_BYTES
            ));
        }
        assert_eq!(t.len(), 1);
        // no page written: none allocated, none even touched
        assert_eq!(t.file().allocated_pages(), pages);
        let s = bp.stats();
        assert_eq!(s.hits + s.misses, 0);
        assert_eq!(t.get(&mut clock, &bp, 1).unwrap().unwrap(), b"v");
    }
}
