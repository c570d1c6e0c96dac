//! The database facade: tables, indexes, operators, devices — wired together.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use remem_sim::{Clock, CpuPool};
use remem_storage::{Device, Metered, Observed, StorageError};

use crate::btree::BTree;
use crate::bufferpool::{BpExt, BpStats, BufferPool};
use crate::config::DbConfig;
use crate::exec::ExecCtx;
use crate::grant::GrantManager;
use crate::hashjoin;
use crate::pagestore::{FileId, PagedFile};
use crate::proccache::ProcedureCache;
use crate::row::{Row, Schema};
use crate::semantic::SemanticCache;
use crate::sort;
use crate::tempdb::TempDb;
use crate::wal::{Wal, WalEntry, WalOp};

/// Identifier of a table within a database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(pub u32);

/// Engine errors.
#[derive(Debug)]
pub enum DbError {
    Storage(StorageError),
    NoSuchTable(TableId),
    DuplicateKey { table: TableId, key: i64 },
}

impl From<StorageError> for DbError {
    fn from(e: StorageError) -> DbError {
        DbError::Storage(e)
    }
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Storage(e) => write!(f, "storage: {e}"),
            DbError::NoSuchTable(t) => write!(f, "no such table {t:?}"),
            DbError::DuplicateKey { table, key } => {
                write!(f, "duplicate key {key} in table {table:?}")
            }
        }
    }
}

impl std::error::Error for DbError {}

/// The devices a database instance mounts (the rows of Table 5).
pub struct DeviceSet {
    /// Data files (always the HDD array in the paper's designs).
    pub data: Arc<dyn Device>,
    /// Transaction log (sequential appends).
    pub log: Arc<dyn Device>,
    /// TempDB spill target: HDD, SSD, or a remote-memory file.
    pub tempdb: Arc<dyn Device>,
    /// Buffer-pool extension: SSD, a remote-memory file, or none.
    pub bpext: Option<Arc<dyn Device>>,
    /// Replicated remote WAL ring. When present the WAL ships commit
    /// groups to it with quorum writes and uses `log` as the lazy
    /// archiver's device; when `None` the WAL forces `log` directly.
    pub wal_ring: Option<Arc<remem_rfile::RemoteRing>>,
}

/// A non-clustered (covering) index.
///
/// Non-unique keys are made unique with a 20-bit discriminator suffix, so a
/// value `v` occupies the key range `[v·2²⁰, (v+1)·2²⁰)`.
pub struct NcIndex {
    pub col: usize,
    tree: BTree,
    counter: AtomicU64,
}

const NC_SHIFT: u32 = 20;

impl NcIndex {
    fn nc_key(value: i64, discriminator: u64) -> i64 {
        assert!(
            (0..(1 << 43)).contains(&value),
            "NC index values must be in [0, 2^43)"
        );
        (value << NC_SHIFT) | (discriminator & ((1 << NC_SHIFT) - 1)) as i64
    }

    pub fn entries(&self) -> u64 {
        self.tree.len()
    }

    pub fn height(&self) -> u64 {
        self.tree.height()
    }

    pub fn file(&self) -> &Arc<PagedFile> {
        self.tree.file()
    }
}

struct TableMeta {
    name: String,
    schema: Schema,
    key_col: usize,
    tree: BTree,
    nc: Vec<NcIndex>,
}

/// A single-server SMP database instance.
pub struct Database {
    cfg: DbConfig,
    cpu: Arc<CpuPool>,
    bp: BufferPool,
    data_file: Arc<PagedFile>,
    tempdb: TempDb,
    wal: Wal,
    grants: GrantManager,
    semantic: SemanticCache,
    proc_cache: ProcedureCache,
    tables: RwLock<Vec<TableMeta>>,
    next_file_id: AtomicU32,
}

impl Database {
    /// Mount a database over `devices`, hosted on a server whose cores are
    /// `cpu` (share the fabric server's pool so network processing and query
    /// processing contend — Fig. 13).
    pub fn new(cfg: DbConfig, cpu: Arc<CpuPool>, devices: DeviceSet) -> Database {
        // With telemetry attached, every device role is wrapped so the bench
        // harness can split virtual time between storage roles by name.
        let metrics = cfg.metrics.clone();
        let wrap = |dev: Arc<dyn Device>, prefix: &str| -> Arc<dyn Device> {
            match &metrics {
                Some(r) => Arc::new(Observed::new(dev, Metered::new(Arc::clone(r), prefix))),
                None => dev,
            }
        };
        let bp = BufferPool::new(cfg.buffer_pool_bytes);
        bp.set_metrics(metrics.clone());
        let data_file = Arc::new(PagedFile::new(
            FileId(0),
            wrap(devices.data, "storage.data"),
        ));
        bp.register_file(Arc::clone(&data_file));
        if let Some(ext) = devices.bpext {
            bp.set_extension(Some(BpExt::new(wrap(ext, "storage.bpext"))));
        }
        let mut tempdb = TempDb::new(Arc::new(PagedFile::new(
            FileId(1),
            wrap(devices.tempdb, "storage.tempdb"),
        )));
        tempdb.set_metrics(metrics.clone());
        // the remote WAL keeps the (metered) log device as its archive, so
        // "storage.log" telemetry counts exactly the device I/O the ring
        // did NOT absorb
        let wal = match devices.wal_ring {
            Some(ring) => Wal::new_remote(ring, wrap(devices.log, "storage.log")),
            None => Wal::new(wrap(devices.log, "storage.log")),
        };
        let grants = GrantManager::new(cfg.workspace_bytes, cfg.max_grant_fraction);
        let semantic = SemanticCache::new();
        semantic.set_metrics(metrics);
        Database {
            cpu,
            bp,
            data_file,
            tempdb,
            wal,
            grants,
            semantic,
            // 1/256 of the pool, mirroring SQL Server's plan-cache sizing
            proc_cache: ProcedureCache::new((cfg.buffer_pool_bytes / 256).max(64 << 10)),
            tables: RwLock::new(Vec::new()),
            next_file_id: AtomicU32::new(16),
            cfg,
        }
    }

    /// A database with a private CPU pool (tests / single-machine setups).
    pub fn standalone(cfg: DbConfig, cores: usize, devices: DeviceSet) -> Database {
        Database::new(cfg, Arc::new(CpuPool::new(cores)), devices)
    }

    pub fn config(&self) -> &DbConfig {
        &self.cfg
    }

    pub fn buffer_pool(&self) -> &BufferPool {
        &self.bp
    }

    pub fn bp_stats(&self) -> BpStats {
        self.bp.stats()
    }

    /// Record buffer-pool-extension suspend/re-attach events into a
    /// chaos-audit log (correlated with injected faults by the harness).
    pub fn set_fault_log(&self, log: Option<std::sync::Arc<remem_sim::FaultLog>>) {
        self.bp.set_fault_log(log.clone());
        self.wal.set_fault_log(log);
    }

    pub fn tempdb(&self) -> &TempDb {
        &self.tempdb
    }

    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    pub fn grants(&self) -> &GrantManager {
        &self.grants
    }

    pub fn semantic(&self) -> &SemanticCache {
        &self.semantic
    }

    /// The procedure (plan) cache — extensible to remote memory like the
    /// buffer pool (§3.1).
    pub fn procedure_cache(&self) -> &ProcedureCache {
        &self.proc_cache
    }

    pub fn cpu(&self) -> &Arc<CpuPool> {
        &self.cpu
    }

    /// Build an execution context for one statement on `clock`.
    pub fn exec_ctx<'a>(&'a self, clock: &'a mut Clock) -> ExecCtx<'a> {
        ExecCtx::new(clock, &self.cpu, &self.cfg.cpu)
    }

    /// Allocate a fresh paged file on `device`, registered with the pool
    /// (used for NC indexes and semantic-cache structures).
    pub fn new_file(&self, device: Arc<dyn Device>) -> Arc<PagedFile> {
        let id = FileId(self.next_file_id.fetch_add(1, Ordering::Relaxed));
        let f = Arc::new(PagedFile::new(id, device));
        self.bp.register_file(Arc::clone(&f));
        f
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    /// Create a table clustered on `key_col` (must be an integer column).
    pub fn create_table(
        &self,
        clock: &mut Clock,
        name: impl Into<String>,
        schema: Schema,
        key_col: usize,
    ) -> Result<TableId, DbError> {
        let tree = BTree::create(clock, &self.bp, Arc::clone(&self.data_file))?;
        let mut tables = self.tables.write();
        let id = TableId(tables.len() as u32);
        tables.push(TableMeta {
            name: name.into(),
            schema,
            key_col,
            tree,
            nc: Vec::new(),
        });
        Ok(id)
    }

    pub fn table_name(&self, tid: TableId) -> String {
        self.tables.read()[tid.0 as usize].name.clone()
    }

    pub fn schema(&self, tid: TableId) -> Schema {
        self.tables.read()[tid.0 as usize].schema.clone()
    }

    pub fn key_col(&self, tid: TableId) -> usize {
        self.tables.read()[tid.0 as usize].key_col
    }

    pub fn row_count(&self, tid: TableId) -> u64 {
        self.tables.read()[tid.0 as usize].tree.len()
    }

    /// Height of the clustered index (for the optimizer's seek costing).
    pub fn index_height(&self, tid: TableId) -> u64 {
        self.tables.read()[tid.0 as usize].tree.height()
    }

    /// Pages holding the table's clustered index.
    pub fn table_pages(&self, tid: TableId) -> u64 {
        // all clustered trees share the data file; approximate per-table
        // pages by entry count × average row footprint
        let tables = self.tables.read();
        let t = &tables[tid.0 as usize];
        (t.tree.len() * 260).div_ceil(crate::page::PAGE_SIZE as u64)
    }

    /// Build a covering non-clustered index on `col`, stored in a file on
    /// `device` — an SSD for the Table 5 baselines, a remote-memory file for
    /// the semantic-cache scenario. Returns the index slot number.
    pub fn create_nc_index(
        &self,
        clock: &mut Clock,
        tid: TableId,
        col: usize,
        device: Arc<dyn Device>,
    ) -> Result<usize, DbError> {
        let file = self.new_file(device);
        let tree = BTree::create(clock, &self.bp, file)?;
        let idx = NcIndex {
            col,
            tree,
            counter: AtomicU64::new(0),
        };
        // bulk-build from the existing rows
        let rows = self.scan(clock, tid)?;
        {
            let mut ctx = self.exec_ctx(clock);
            ctx.charge_n(ctx.costs.row_scan, rows.len() as u64);
        }
        for row in &rows {
            let v = row.int(col);
            let d = idx.counter.fetch_add(1, Ordering::Relaxed);
            idx.tree
                .insert(clock, &self.bp, NcIndex::nc_key(v, d), &row.to_bytes())?;
        }
        let mut tables = self.tables.write();
        let t = &mut tables[tid.0 as usize];
        t.nc.push(idx);
        Ok(t.nc.len() - 1)
    }

    /// Number of NC indexes on a table.
    pub fn nc_index_count(&self, tid: TableId) -> usize {
        self.tables.read()[tid.0 as usize].nc.len()
    }

    pub fn nc_index_height(&self, tid: TableId, idx: usize) -> u64 {
        self.tables.read()[tid.0 as usize].nc[idx].height()
    }

    // ------------------------------------------------------------------
    // DML
    // ------------------------------------------------------------------

    fn charge_seek(&self, clock: &mut Clock, height: u64) {
        let mut ctx = self.exec_ctx(clock);
        // binary search each node: ~9 compares per level on a full page
        ctx.charge_n(ctx.costs.compare, height * 9);
        ctx.charge_n(ctx.costs.page_fix, height);
    }

    /// Insert a row (fails on duplicate key).
    pub fn insert(&self, clock: &mut Clock, tid: TableId, row: Row) -> Result<(), DbError> {
        self.write_row(clock, tid, row, false)
    }

    /// Insert or overwrite by key.
    pub fn upsert(&self, clock: &mut Clock, tid: TableId, row: Row) -> Result<(), DbError> {
        self.write_row(clock, tid, row, true)
    }

    /// Upsert a batch of rows as **one commit group**: every row is
    /// applied to the clustered (and NC) indexes individually, but the
    /// WAL flushes a single group — one device force, or one quorum
    /// append on the remote ring — so the log is charged per flushed
    /// group, not per row (group commit).
    pub fn upsert_group(
        &self,
        clock: &mut Clock,
        tid: TableId,
        rows: &[Row],
    ) -> Result<(), DbError> {
        if rows.is_empty() {
            return Ok(());
        }
        let tables = self.tables.read();
        let t = tables
            .get(tid.0 as usize)
            .ok_or(DbError::NoSuchTable(tid))?;
        let mut entries: Vec<WalEntry> = Vec::with_capacity(rows.len());
        for row in rows {
            let key = row.int(t.key_col);
            self.charge_seek(clock, t.tree.height());
            let replaced = t.tree.insert(clock, &self.bp, key, &row.to_bytes())?;
            entries.push(WalEntry {
                table: tid.0,
                op: if replaced {
                    WalOp::Update
                } else {
                    WalOp::Insert
                },
                key,
                row: Some(row),
            });
            for idx in &t.nc {
                let v = row.int(idx.col);
                let d = idx.counter.fetch_add(1, Ordering::Relaxed);
                idx.tree
                    .insert(clock, &self.bp, NcIndex::nc_key(v, d), &row.to_bytes())?;
            }
        }
        self.wal.append_group(clock, &entries)?;
        drop(tables);
        self.semantic.notify_update(tid);
        Ok(())
    }

    fn write_row(
        &self,
        clock: &mut Clock,
        tid: TableId,
        row: Row,
        allow_replace: bool,
    ) -> Result<(), DbError> {
        let tables = self.tables.read();
        let t = tables
            .get(tid.0 as usize)
            .ok_or(DbError::NoSuchTable(tid))?;
        let key = row.int(t.key_col);
        self.charge_seek(clock, t.tree.height());
        let replaced = t.tree.insert(clock, &self.bp, key, &row.to_bytes())?;
        if replaced && !allow_replace {
            return Err(DbError::DuplicateKey { table: tid, key });
        }
        let op = if replaced {
            WalOp::Update
        } else {
            WalOp::Insert
        };
        self.wal.append(clock, tid.0, op, key, Some(&row))?;
        // synchronous maintenance of NC indexes (§3.3: "updated in-sync")
        for idx in &t.nc {
            let v = row.int(idx.col);
            let d = idx.counter.fetch_add(1, Ordering::Relaxed);
            idx.tree
                .insert(clock, &self.bp, NcIndex::nc_key(v, d), &row.to_bytes())?;
        }
        drop(tables);
        self.semantic.notify_update(tid);
        Ok(())
    }

    /// Point lookup by clustered key.
    pub fn get(&self, clock: &mut Clock, tid: TableId, key: i64) -> Result<Option<Row>, DbError> {
        let tables = self.tables.read();
        let t = tables
            .get(tid.0 as usize)
            .ok_or(DbError::NoSuchTable(tid))?;
        self.charge_seek(clock, t.tree.height());
        Ok(t.tree.get(clock, &self.bp, key)?.map(|b| Row::decode(&b).0))
    }

    /// Read-modify-write a row by key. Returns `false` if absent.
    pub fn update(
        &self,
        clock: &mut Clock,
        tid: TableId,
        key: i64,
        f: impl FnOnce(&mut Row),
    ) -> Result<bool, DbError> {
        let tables = self.tables.read();
        let t = tables
            .get(tid.0 as usize)
            .ok_or(DbError::NoSuchTable(tid))?;
        self.charge_seek(clock, t.tree.height());
        let Some(bytes) = t.tree.get(clock, &self.bp, key)? else {
            return Ok(false);
        };
        let (mut row, _) = Row::decode(&bytes);
        f(&mut row);
        assert_eq!(
            row.int(t.key_col),
            key,
            "update must not change the clustered key"
        );
        t.tree.insert(clock, &self.bp, key, &row.to_bytes())?;
        self.wal
            .append(clock, tid.0, WalOp::Update, key, Some(&row))?;
        for idx in &t.nc {
            let v = row.int(idx.col);
            let d = idx.counter.fetch_add(1, Ordering::Relaxed);
            idx.tree
                .insert(clock, &self.bp, NcIndex::nc_key(v, d), &row.to_bytes())?;
        }
        drop(tables);
        self.semantic.notify_update(tid);
        Ok(true)
    }

    /// Delete by key.
    pub fn delete(&self, clock: &mut Clock, tid: TableId, key: i64) -> Result<bool, DbError> {
        let tables = self.tables.read();
        let t = tables
            .get(tid.0 as usize)
            .ok_or(DbError::NoSuchTable(tid))?;
        self.charge_seek(clock, t.tree.height());
        let deleted = t.tree.delete(clock, &self.bp, key)?;
        if deleted {
            self.wal.append(clock, tid.0, WalOp::Delete, key, None)?;
            drop(tables);
            self.semantic.notify_update(tid);
        }
        Ok(deleted)
    }

    /// Range scan `lo <= key < hi` through the clustered index.
    pub fn range(
        &self,
        clock: &mut Clock,
        tid: TableId,
        lo: i64,
        hi: i64,
    ) -> Result<Vec<Row>, DbError> {
        self.range_limit(clock, tid, lo, hi, usize::MAX)
    }

    /// Range scan with a row limit.
    pub fn range_limit(
        &self,
        clock: &mut Clock,
        tid: TableId,
        lo: i64,
        hi: i64,
        limit: usize,
    ) -> Result<Vec<Row>, DbError> {
        let tables = self.tables.read();
        let t = tables
            .get(tid.0 as usize)
            .ok_or(DbError::NoSuchTable(tid))?;
        self.charge_seek(clock, t.tree.height());
        // at most one row per key in the span, per entry in the tree, and `limit`
        let span = hi.saturating_sub(lo).max(0) as u64;
        let mut rows = Vec::with_capacity(span.min(t.tree.len()).min(limit as u64) as usize);
        t.tree.range(clock, &self.bp, lo, hi, |_, bytes| {
            rows.push(Row::decode(bytes).0);
            rows.len() < limit
        })?;
        let mut ctx = self.exec_ctx(clock);
        ctx.charge_n(ctx.costs.row_scan, rows.len() as u64);
        Ok(rows)
    }

    /// Full clustered scan in key order. Row-processing CPU runs at full
    /// DOP (parallel scan), unlike the OLTP-shaped [`Database::range`].
    pub fn scan(&self, clock: &mut Clock, tid: TableId) -> Result<Vec<Row>, DbError> {
        let tables = self.tables.read();
        let t = tables
            .get(tid.0 as usize)
            .ok_or(DbError::NoSuchTable(tid))?;
        self.charge_seek(clock, t.tree.height());
        let mut rows = Vec::with_capacity(t.tree.len() as usize);
        t.tree.scan(clock, &self.bp, |_, bytes| {
            rows.push(Row::decode(bytes).0);
            true
        })?;
        let mut ctx = self.exec_ctx(clock).parallel();
        ctx.charge_n(ctx.costs.row_scan, rows.len() as u64);
        Ok(rows)
    }

    /// Seek a non-clustered covering index for rows whose indexed column
    /// equals `value`.
    pub fn nc_lookup(
        &self,
        clock: &mut Clock,
        tid: TableId,
        idx: usize,
        value: i64,
    ) -> Result<Vec<Row>, DbError> {
        let tables = self.tables.read();
        let t = tables
            .get(tid.0 as usize)
            .ok_or(DbError::NoSuchTable(tid))?;
        let index = &t.nc[idx];
        self.charge_seek(clock, index.height());
        let lo = NcIndex::nc_key(value, 0);
        let hi = NcIndex::nc_key(value + 1, 0);
        let mut rows = Vec::new();
        index.tree.range(clock, &self.bp, lo, hi, |_, bytes| {
            rows.push(Row::decode(bytes).0);
            true
        })?;
        Ok(rows)
    }

    /// Full scan of a non-clustered index (index-only scan).
    pub fn nc_scan(
        &self,
        clock: &mut Clock,
        tid: TableId,
        idx: usize,
    ) -> Result<Vec<Row>, DbError> {
        let tables = self.tables.read();
        let t = tables
            .get(tid.0 as usize)
            .ok_or(DbError::NoSuchTable(tid))?;
        let index = &t.nc[idx];
        let mut rows = Vec::with_capacity(index.tree.len() as usize);
        index.tree.scan(clock, &self.bp, |_, bytes| {
            rows.push(Row::decode(bytes).0);
            true
        })?;
        let mut ctx = self.exec_ctx(clock);
        ctx.charge_n(ctx.costs.row_scan, rows.len() as u64);
        Ok(rows)
    }

    // ------------------------------------------------------------------
    // Operators with memory grants
    // ------------------------------------------------------------------

    fn rows_footprint(rows: &[Row]) -> u64 {
        rows.iter().map(|r| r.encoded_len() as u64 + 32).sum()
    }

    /// Sort rows, spilling to TempDB beyond the admitted memory grant.
    pub fn sort_rows(
        &self,
        clock: &mut Clock,
        rows: Vec<Row>,
        key: impl Fn(&Row) -> f64,
        limit: Option<usize>,
    ) -> Result<Vec<Row>, DbError> {
        let wanted = Self::rows_footprint(&rows);
        let grant = self.grants.request(wanted);
        let mut ctx = self.exec_ctx(clock).parallel();
        let out = sort::external_sort(&mut ctx, &self.tempdb, rows, key, grant.bytes, limit)?;
        Ok(out)
    }

    /// Hash join, spilling partitions to TempDB beyond the memory grant.
    pub fn join_hash(
        &self,
        clock: &mut Clock,
        build: Vec<Row>,
        probe: Vec<Row>,
        build_key: impl Fn(&Row) -> i64 + Copy,
        probe_key: impl Fn(&Row) -> i64 + Copy,
        emit: impl Fn(&Row, &Row) -> Row + Copy,
    ) -> Result<Vec<Row>, DbError> {
        let wanted = Self::rows_footprint(&build);
        let grant = self.grants.request(wanted);
        let mut ctx = self.exec_ctx(clock).parallel();
        let out = hashjoin::hash_join(
            &mut ctx,
            &self.tempdb,
            build,
            probe,
            build_key,
            probe_key,
            grant.bytes,
            emit,
        )?;
        Ok(out)
    }

    /// Index nested-loop join: for each outer row, seek the inner table's
    /// clustered index.
    pub fn join_inlj(
        &self,
        clock: &mut Clock,
        outer: &[Row],
        outer_key: usize,
        inner: TableId,
        emit: impl Fn(&Row, &Row) -> Row,
    ) -> Result<Vec<Row>, DbError> {
        let mut out = Vec::new();
        for o in outer {
            if let Some(inner_row) = self.get(clock, inner, o.int(outer_key))? {
                out.push(emit(o, &inner_row));
            }
        }
        let mut ctx = self.exec_ctx(clock);
        ctx.charge_n(ctx.costs.row_output, out.len() as u64);
        Ok(out)
    }

    /// Index nested-loop join against a non-clustered index on the inner.
    pub fn join_inlj_nc(
        &self,
        clock: &mut Clock,
        outer: &[Row],
        outer_key: usize,
        inner: TableId,
        idx: usize,
        emit: impl Fn(&Row, &Row) -> Row,
    ) -> Result<Vec<Row>, DbError> {
        let mut out = Vec::new();
        for o in outer {
            for inner_row in self.nc_lookup(clock, inner, idx, o.int(outer_key))? {
                out.push(emit(o, &inner_row));
            }
        }
        let mut ctx = self.exec_ctx(clock);
        ctx.charge_n(ctx.costs.row_output, out.len() as u64);
        Ok(out)
    }

    /// Checkpoint: flush all dirty pages to data files.
    pub fn checkpoint(&self, clock: &mut Clock) -> Result<(), DbError> {
        self.bp.flush_all(clock)?;
        Ok(())
    }

    /// Rebuild a semantic-cache NC index on a fresh device by replaying the
    /// WAL from `from_lsn` (Appendix B.4 / Fig. 26: recovering the cache on
    /// another memory server after the donor failed). The checkpointed
    /// portion is assumed restored separately; this replays the *dirty*
    /// trailing updates, whose volume is what Fig. 26 sweeps. Replaces the
    /// index in slot `idx` and returns the number of records applied.
    pub fn rebuild_nc_index_from_log(
        &self,
        clock: &mut Clock,
        tid: TableId,
        idx: usize,
        device: Arc<dyn Device>,
        from_lsn: crate::wal::Lsn,
    ) -> Result<u64, DbError> {
        let col = {
            let tables = self.tables.read();
            tables
                .get(tid.0 as usize)
                .ok_or(DbError::NoSuchTable(tid))?
                .nc[idx]
                .col
        };
        let file = self.new_file(device);
        let tree = BTree::create(clock, &self.bp, file)?;
        let new_idx = NcIndex {
            col,
            tree,
            counter: AtomicU64::new(0),
        };
        // Collect the trailing records first (the WAL replay charges its own
        // sequential read I/O), then apply them to the new index.
        let mut records = Vec::new();
        self.wal.replay(clock, from_lsn, |rec| {
            if rec.table == tid.0 {
                if let Some(row) = &rec.row {
                    records.push(row.clone());
                }
            }
        })?;
        let applied = records.len() as u64;
        for row in records {
            let v = row.int(col);
            let d = new_idx.counter.fetch_add(1, Ordering::Relaxed);
            new_idx
                .tree
                .insert(clock, &self.bp, NcIndex::nc_key(v, d), &row.to_bytes())?;
        }
        self.tables.write()[tid.0 as usize].nc[idx] = new_idx;
        Ok(applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{MAX_RECORD, PAGE_SIZE};
    use crate::row::{ColType, Value};
    use remem_storage::RamDisk;

    pub(crate) fn ram_devices() -> DeviceSet {
        DeviceSet {
            data: Arc::new(RamDisk::new(256 << 20)),
            log: Arc::new(RamDisk::new(64 << 20)),
            tempdb: Arc::new(RamDisk::new(128 << 20)),
            bpext: None,
            wal_ring: None,
        }
    }

    fn customer_schema() -> Schema {
        Schema::new(vec![
            ("custkey", ColType::Int),
            ("name", ColType::Str),
            ("acctbal", ColType::Float),
        ])
    }

    fn customer(k: i64) -> Row {
        Row::new(vec![
            Value::Int(k),
            Value::Str(format!("Customer#{k:09}")),
            Value::Float(k as f64 * 1.5),
        ])
    }

    fn db() -> (Database, Clock) {
        (
            Database::standalone(DbConfig::with_pool(32 << 20), 8, ram_devices()),
            Clock::new(),
        )
    }

    #[test]
    fn crud_round_trip() {
        let (db, mut clock) = db();
        let t = db
            .create_table(&mut clock, "customer", customer_schema(), 0)
            .unwrap();
        for k in 0..1000 {
            db.insert(&mut clock, t, customer(k)).unwrap();
        }
        assert_eq!(db.row_count(t), 1000);
        let row = db.get(&mut clock, t, 500).unwrap().unwrap();
        assert_eq!(row.str(1), "Customer#000000500");
        // update
        assert!(db
            .update(&mut clock, t, 500, |r| r.0[2] = Value::Float(9.9))
            .unwrap());
        assert_eq!(db.get(&mut clock, t, 500).unwrap().unwrap().float(2), 9.9);
        // delete
        assert!(db.delete(&mut clock, t, 500).unwrap());
        assert!(db.get(&mut clock, t, 500).unwrap().is_none());
        assert_eq!(db.row_count(t), 999);
        // duplicate key rejected, upsert allowed
        assert!(matches!(
            db.insert(&mut clock, t, customer(10)),
            Err(DbError::DuplicateKey { .. })
        ));
        db.upsert(&mut clock, t, customer(10)).unwrap();
    }

    #[test]
    fn range_scans_are_ordered_and_bounded() {
        let (db, mut clock) = db();
        let t = db
            .create_table(&mut clock, "c", customer_schema(), 0)
            .unwrap();
        for k in (0..2000).rev() {
            db.insert(&mut clock, t, customer(k)).unwrap();
        }
        let rows = db.range(&mut clock, t, 100, 200).unwrap();
        assert_eq!(rows.len(), 100);
        assert!(rows.windows(2).all(|w| w[0].int(0) < w[1].int(0)));
        let limited = db.range_limit(&mut clock, t, 0, 2000, 5).unwrap();
        assert_eq!(limited.len(), 5);
    }

    #[test]
    fn wal_records_every_change() {
        let (db, mut clock) = db();
        let t = db
            .create_table(&mut clock, "c", customer_schema(), 0)
            .unwrap();
        db.insert(&mut clock, t, customer(1)).unwrap();
        db.update(&mut clock, t, 1, |r| r.0[2] = Value::Float(0.0))
            .unwrap();
        db.delete(&mut clock, t, 1).unwrap();
        let mut ops = Vec::new();
        db.wal().replay(&mut clock, 0, |r| ops.push(r.op)).unwrap();
        assert_eq!(ops, vec![WalOp::Insert, WalOp::Update, WalOp::Delete]);
    }

    #[test]
    fn nc_index_lookup_and_sync_maintenance() {
        let (db, mut clock) = db();
        let t = db
            .create_table(&mut clock, "c", customer_schema(), 0)
            .unwrap();
        for k in 0..500 {
            db.insert(&mut clock, t, customer(k)).unwrap();
        }
        // NC index on custkey itself (covering)
        let idx = db
            .create_nc_index(&mut clock, t, 0, Arc::new(RamDisk::new(64 << 20)))
            .unwrap();
        let rows = db.nc_lookup(&mut clock, t, idx, 123).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].str(1), "Customer#000000123");
        // maintained on subsequent inserts
        db.insert(&mut clock, t, customer(9999)).unwrap();
        assert_eq!(db.nc_lookup(&mut clock, t, idx, 9999).unwrap().len(), 1);
        // index-only scan sees all rows
        assert_eq!(db.nc_scan(&mut clock, t, idx).unwrap().len(), 501);
    }

    #[test]
    fn inlj_and_hash_join_agree() {
        let (db, mut clock) = db();
        let orders = db
            .create_table(
                &mut clock,
                "orders",
                Schema::new(vec![("orderkey", ColType::Int), ("total", ColType::Float)]),
                0,
            )
            .unwrap();
        for k in 0..300 {
            db.insert(
                &mut clock,
                orders,
                Row::new(vec![Value::Int(k), Value::Float(k as f64)]),
            )
            .unwrap();
        }
        let lineitems: Vec<Row> = (0..900)
            .map(|i| crate::exec::int_row(&[i % 300, i]))
            .collect();
        // join_inlj calls emit(outer=lineitem, inner=order)
        let emit = |l: &Row, o: &Row| {
            let mut v = l.0.clone();
            v.extend(o.0.iter().cloned());
            Row::new(v)
        };
        let emit_h = |b: &Row, p: &Row| {
            let mut v = p.0.clone();
            v.extend(b.0.iter().cloned());
            Row::new(v)
        };
        let a = db
            .join_inlj(&mut clock, &lineitems, 0, orders, emit)
            .unwrap();
        let orders_rows = db.scan(&mut clock, orders).unwrap();
        let b = db
            .join_hash(
                &mut clock,
                orders_rows,
                lineitems,
                |r| r.int(0),
                |r| r.int(0),
                emit_h,
            )
            .unwrap();
        assert_eq!(a.len(), 900);
        assert_eq!(b.len(), 900);
        let norm = |mut rows: Vec<Row>| {
            let mut v: Vec<(i64, i64)> = rows.drain(..).map(|r| (r.int(0), r.int(1))).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(norm(a), norm(b));
    }

    #[test]
    fn sort_spills_when_grant_is_small() {
        let devices = ram_devices();
        let mut cfg = DbConfig::with_pool(32 << 20);
        cfg.workspace_bytes = 256 << 10; // tiny workspace forces spilling
        cfg.max_grant_fraction = 1.0;
        let db = Database::standalone(cfg, 8, devices);
        let mut clock = Clock::new();
        let mut rng = remem_sim::rng::SimRng::seeded(9);
        let mut keys: Vec<i64> = (0..30_000).collect();
        rng.shuffle(&mut keys);
        let rows: Vec<Row> = keys.iter().map(|&k| crate::exec::int_row(&[k])).collect();
        let sorted = db
            .sort_rows(&mut clock, rows, |r| r.int(0) as f64, None)
            .unwrap();
        assert!(db.tempdb().bytes_spilled() > 0, "expected a spill");
        assert!(sorted.windows(2).all(|w| w[0].int(0) <= w[1].int(0)));
        assert_eq!(sorted.len(), 30_000);
    }

    #[test]
    fn spilling_a_row_wider_than_a_page_is_a_typed_error() {
        let mut cfg = DbConfig::with_pool(32 << 20);
        cfg.workspace_bytes = 256 << 10;
        cfg.max_grant_fraction = 1.0;
        let db = Database::standalone(cfg, 8, ram_devices());
        let mut clock = Clock::new();
        let mut rows: Vec<Row> = (0..30_000).map(|k| crate::exec::int_row(&[k])).collect();
        rows[12_345] = Row::new(vec![Value::Int(-1), Value::Str("w".repeat(PAGE_SIZE))]);
        let too_large = |res: Result<Vec<Row>, DbError>| {
            matches!(
                res,
                Err(DbError::Storage(StorageError::RecordTooLarge { len, max }))
                    if len > PAGE_SIZE && max == MAX_RECORD
            )
        };
        assert!(too_large(db.sort_rows(
            &mut clock,
            rows.clone(),
            |r| r.int(0) as f64,
            None
        )));
        assert!(too_large(db.join_hash(
            &mut clock,
            rows.clone(),
            rows,
            |r| r.int(0),
            |r| r.int(0),
            |b, _| b.clone(),
        )));
        // the writers that were open when the row was refused gave back
        // everything they held
        assert!(db.tempdb().bytes_spilled() > 0, "the error came mid-spill");
        assert_eq!(db.tempdb().live_bytes(), 0);
    }

    #[test]
    fn bpext_reduces_base_device_reads() {
        // uniform churn over a table bigger than the pool, with and without
        // an extension — the §3.1 scenario in miniature
        let run = |with_ext: bool| -> (u64, BpStats) {
            let mut devices = ram_devices();
            if with_ext {
                devices.bpext = Some(Arc::new(RamDisk::new(64 << 20)));
            }
            // pool of only 8 frames so the ~40-page table cannot fit
            let db = Database::standalone(DbConfig::with_pool(8 * 8192), 8, devices);
            let mut clock = Clock::new();
            let t = db
                .create_table(&mut clock, "c", customer_schema(), 0)
                .unwrap();
            for k in 0..5000 {
                db.insert(&mut clock, t, customer(k)).unwrap();
            }
            db.bp_stats(); // warm-up done
            db.buffer_pool().reset_stats();
            let mut rng = remem_sim::rng::SimRng::seeded(4);
            for _ in 0..2000 {
                let k = rng.uniform(0, 5000) as i64;
                db.get(&mut clock, t, k).unwrap().unwrap();
            }
            (db.bp_stats().base_reads, db.bp_stats())
        };
        let (reads_no_ext, _) = run(false);
        let (reads_ext, stats_ext) = run(true);
        assert!(
            reads_ext < reads_no_ext / 4,
            "extension should absorb most misses: {reads_ext} vs {reads_no_ext} ({stats_ext:?})"
        );
    }

    #[test]
    fn metrics_mirror_buffer_pool_and_device_roles() {
        let registry = remem_sim::MetricsRegistry::shared();
        let mut devices = ram_devices();
        devices.bpext = Some(Arc::new(RamDisk::new(64 << 20)));
        let mut cfg = DbConfig::with_pool(8 * 8192);
        cfg.metrics = Some(Arc::clone(&registry));
        let db = Database::standalone(cfg, 8, devices);
        let mut clock = Clock::new();
        let t = db
            .create_table(&mut clock, "c", customer_schema(), 0)
            .unwrap();
        for k in 0..3000 {
            db.insert(&mut clock, t, customer(k)).unwrap();
        }
        for k in 0..3000 {
            db.get(&mut clock, t, k).unwrap().unwrap();
        }
        // the named counters track BpStats exactly
        let s = db.bp_stats();
        assert_eq!(registry.counter("bp.hits").get(), s.hits);
        assert_eq!(registry.counter("bp.misses").get(), s.misses);
        assert_eq!(registry.counter("bpext.hits").get(), s.ext_hits);
        assert_eq!(registry.counter("bp.base.reads").get(), s.base_reads);
        assert_eq!(registry.counter("bp.evictions").get(), s.evictions);
        assert!(registry.gauge("bpext.hit_ratio").get() > 0.0);
        // device-role telemetry, spans included (reads are absorbed by the
        // extension here, so the data file shows up through dirty flushes)
        assert!(registry.counter("storage.data.write.ops").get() > 0);
        assert!(registry.span_stats("storage.data.write").count > 0);
        assert!(registry.counter("storage.bpext.write.bytes").get() > 0);
        assert!(registry.counter("storage.bpext.read.ops").get() > 0);
        assert!(registry.counter("storage.log.write.ops").get() > 0);
        // nothing spilled, so no TempDB space gauge joins the dump
        let gauges = registry.snapshot().gauges;
        assert!(gauges.iter().all(|(name, _)| !name.starts_with("tempdb.")));
    }

    #[test]
    fn metrics_track_spills_and_semantic_cache() {
        let registry = remem_sim::MetricsRegistry::shared();
        let mut cfg = DbConfig::with_pool(32 << 20);
        cfg.workspace_bytes = 256 << 10; // tiny workspace forces spilling
        cfg.max_grant_fraction = 1.0;
        cfg.metrics = Some(Arc::clone(&registry));
        let db = Database::standalone(cfg, 8, ram_devices());
        let mut clock = Clock::new();
        let mut rng = remem_sim::rng::SimRng::seeded(3);
        let mut keys: Vec<i64> = (0..30_000).collect();
        rng.shuffle(&mut keys);
        let rows: Vec<Row> = keys.iter().map(|&k| crate::exec::int_row(&[k])).collect();
        db.sort_rows(&mut clock, rows, |r| r.int(0) as f64, None)
            .unwrap();
        assert!(db.tempdb().bytes_spilled() > 0, "expected a spill");
        assert_eq!(
            registry.counter("tempdb.spill.bytes").get(),
            db.tempdb().bytes_spilled()
        );
        assert_eq!(
            registry.counter("tempdb.readback.bytes").get(),
            db.tempdb().bytes_read_back()
        );
        // the sort gave its runs back; what it held at its peak stays on record
        assert_eq!(registry.gauge("tempdb.live.bytes").get(), 0.0);
        assert!(db.tempdb().high_water_bytes() > 0);
        assert_eq!(
            registry.gauge("tempdb.high_water.bytes").get(),
            db.tempdb().high_water_bytes() as f64
        );

        let t = db
            .create_table(&mut clock, "c", customer_schema(), 0)
            .unwrap();
        {
            let mut ctx = db.exec_ctx(&mut clock);
            assert!(db.semantic().get_mv(&mut ctx, "v").unwrap().is_none());
            db.semantic()
                .create_mv(
                    &mut ctx,
                    "v",
                    vec![t],
                    crate::semantic::MvPolicy::Invalidate,
                    &[crate::exec::int_row(&[1])],
                    Arc::new(RamDisk::new(1 << 20)),
                )
                .unwrap();
            assert!(db.semantic().get_mv(&mut ctx, "v").unwrap().is_some());
        }
        db.insert(&mut clock, t, customer(1)).unwrap();
        assert_eq!(registry.counter("semantic.hits").get(), 1);
        assert_eq!(registry.counter("semantic.misses").get(), 1);
        assert_eq!(registry.counter("semantic.invalidations").get(), 1);
    }
}
