//! The in-engine semantic cache (scenario §3.3).
//!
//! Materialized views are redundant, lazily-built result sets pinned in
//! remote memory (or any device), **separate from the buffer pool** so they
//! never contend for local memory. Queries that match a valid MV are served
//! from it; base-table updates are handled per the application-specified
//! policy: invalidate, or keep serving the snapshot.
//! (Structures needing exact synchronous maintenance — the redundant
//! non-clustered indexes — are maintained by the engine's DML path itself
//! and recovered from the WAL after a donor failure; see
//! [`crate::db::Database::rebuild_nc_index_from_log`] and Fig. 26.)

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use remem_sim::metrics::Counter;
use remem_sim::MetricsRegistry;
use remem_storage::{Device, StorageError};

use crate::db::TableId;
use crate::exec::ExecCtx;
use crate::page::Page;
use crate::pagestore::{FileId, PagedFile};
use crate::row::Row;

/// What happens to an MV when a base table changes (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MvPolicy {
    /// Drop the MV on any base update.
    Invalidate,
    /// Keep serving the stale snapshot.
    Snapshot,
}

struct MvEntry {
    sources: Vec<TableId>,
    policy: MvPolicy,
    valid: bool,
    file: Arc<PagedFile>,
    pages: Vec<u64>,
    rows: u64,
}

/// Registry mirrors of cache effectiveness, resolved once at attach time.
struct ScCounters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    invalidations: Arc<Counter>,
}

/// The semantic-cache broker: named materialized results on pinned devices.
pub struct SemanticCache {
    // ordered so invalidation sweeps visit views in name order (replayable)
    mvs: RwLock<BTreeMap<String, MvEntry>>,
    next_file: AtomicU32,
    metrics: RwLock<Option<ScCounters>>,
}

impl Default for SemanticCache {
    fn default() -> Self {
        SemanticCache::new()
    }
}

impl SemanticCache {
    pub fn new() -> SemanticCache {
        SemanticCache {
            mvs: RwLock::new(BTreeMap::new()),
            next_file: AtomicU32::new(60_000),
            metrics: RwLock::new(None),
        }
    }

    /// Mirror MV serving into `semantic.hits` / `semantic.misses` /
    /// `semantic.invalidations` on the given registry.
    pub fn set_metrics(&self, registry: Option<Arc<MetricsRegistry>>) {
        *self.metrics.write() = registry.map(|r| ScCounters {
            hits: r.counter("semantic.hits"),
            misses: r.counter("semantic.misses"),
            invalidations: r.counter("semantic.invalidations"),
        });
    }

    fn meter(&self, f: impl FnOnce(&ScCounters)) {
        if let Some(m) = self.metrics.read().as_ref() {
            f(m);
        }
    }

    /// Materialize `rows` as the view `name` on `device`. The device is the
    /// remote-memory file in the paper's headline configuration, or local
    /// HDD/SSD for the baseline of Fig. 15(a).
    pub fn create_mv(
        &self,
        ctx: &mut ExecCtx<'_>,
        name: impl Into<String>,
        sources: Vec<TableId>,
        policy: MvPolicy,
        rows: &[Row],
        device: Arc<dyn Device>,
    ) -> Result<(), StorageError> {
        let file = Arc::new(PagedFile::new(
            FileId(self.next_file.fetch_add(1, Ordering::Relaxed)),
            device,
        ));
        let mut pages = Vec::new();
        let mut page = Page::new();
        let mut flush = |ctx: &mut ExecCtx<'_>, page: &mut Page| -> Result<(), StorageError> {
            if page.is_empty() {
                return Ok(());
            }
            let pno = file.allocate()?;
            ctx.charge(ctx.costs.page_serialize);
            ctx.flush_cpu();
            file.write_page(ctx.clock, pno, page)?;
            pages.push(pno);
            *page = Page::new();
            Ok(())
        };
        for r in rows {
            let bytes = r.to_bytes();
            if page.insert(&bytes).is_none() {
                flush(ctx, &mut page)?;
                page.insert(&bytes).expect("fresh page holds one row");
            }
        }
        flush(ctx, &mut page)?;
        self.mvs.write().insert(
            name.into(),
            MvEntry {
                sources,
                policy,
                valid: true,
                file,
                pages,
                rows: rows.len() as u64,
            },
        );
        Ok(())
    }

    /// Serve a query from the view, if it is valid. Reads the pinned pages
    /// from the view's device (RDMA reads when it lives in remote memory).
    pub fn get_mv(
        &self,
        ctx: &mut ExecCtx<'_>,
        name: &str,
    ) -> Result<Option<Vec<Row>>, StorageError> {
        let mvs = self.mvs.read();
        let Some(entry) = mvs.get(name) else {
            self.meter(|m| m.misses.incr());
            return Ok(None);
        };
        if !entry.valid {
            self.meter(|m| m.misses.incr());
            return Ok(None);
        }
        let mut out = Vec::with_capacity(entry.rows as usize);
        for &pno in &entry.pages {
            ctx.charge(ctx.costs.page_serialize);
            ctx.flush_cpu();
            let page = match entry.file.read_page(ctx.clock, pno) {
                Ok(p) => p,
                // best-effort: a lost remote MV is a miss, not an error
                Err(StorageError::Unavailable(_)) => {
                    self.meter(|m| m.misses.incr());
                    return Ok(None);
                }
                Err(e) => return Err(e),
            };
            for rec in page.iter() {
                out.push(Row::decode(rec)?.0);
            }
        }
        ctx.charge_n(ctx.costs.row_scan, out.len() as u64);
        self.meter(|m| m.hits.incr());
        Ok(Some(out))
    }

    /// A base table changed: apply each dependent view's policy.
    pub(crate) fn notify_update(&self, table: TableId) {
        let mut invalidated = 0u64;
        let mut mvs = self.mvs.write();
        for entry in mvs.values_mut() {
            if entry.sources.contains(&table) {
                match entry.policy {
                    MvPolicy::Invalidate => {
                        if entry.valid {
                            invalidated += 1;
                        }
                        entry.valid = false;
                    }
                    MvPolicy::Snapshot => {}
                }
            }
        }
        drop(mvs);
        if invalidated > 0 {
            self.meter(|m| m.invalidations.add(invalidated));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpuCosts;
    use crate::exec::int_row;
    use remem_sim::{Clock, CpuPool};
    use remem_storage::RamDisk;

    fn mv_valid(sc: &SemanticCache, name: &str) -> bool {
        sc.mvs.read().get(name).is_some_and(|e| e.valid)
    }

    fn parts() -> (SemanticCache, Clock, CpuPool, CpuCosts) {
        (
            SemanticCache::new(),
            Clock::new(),
            CpuPool::new(4),
            CpuCosts::default(),
        )
    }

    #[test]
    fn mv_round_trip() {
        let (sc, mut clock, cpu, costs) = parts();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let rows: Vec<Row> = (0..5000).map(|i| int_row(&[i, i * 2])).collect();
        sc.create_mv(
            &mut ctx,
            "q1_agg",
            vec![TableId(0)],
            MvPolicy::Invalidate,
            &rows,
            Arc::new(RamDisk::new(32 << 20)),
        )
        .unwrap();
        let back = sc.get_mv(&mut ctx, "q1_agg").unwrap().unwrap();
        assert_eq!(back, rows);
        assert!(sc.get_mv(&mut ctx, "missing").unwrap().is_none());
    }

    #[test]
    fn policies_react_to_updates() {
        let (sc, mut clock, cpu, costs) = parts();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let rows = vec![int_row(&[1])];
        let disk = || -> Arc<dyn Device> { Arc::new(RamDisk::new(1 << 20)) };
        sc.create_mv(
            &mut ctx,
            "inv",
            vec![TableId(0)],
            MvPolicy::Invalidate,
            &rows,
            disk(),
        )
        .unwrap();
        sc.create_mv(
            &mut ctx,
            "snap",
            vec![TableId(0)],
            MvPolicy::Snapshot,
            &rows,
            disk(),
        )
        .unwrap();
        sc.create_mv(
            &mut ctx,
            "other",
            vec![TableId(9)],
            MvPolicy::Invalidate,
            &rows,
            disk(),
        )
        .unwrap();
        sc.notify_update(TableId(0));
        assert!(!mv_valid(&sc, "inv"));
        assert!(mv_valid(&sc, "snap"));
        assert!(mv_valid(&sc, "other"), "unrelated views unaffected");
        // invalidated view no longer served
        assert!(sc.get_mv(&mut ctx, "inv").unwrap().is_none());
    }

    #[test]
    fn remote_failure_is_a_miss_not_an_error() {
        let (sc, mut clock, cpu, costs) = parts();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let disk = Arc::new(RamDisk::new(1 << 20));
        sc.create_mv(
            &mut ctx,
            "v",
            vec![TableId(0)],
            MvPolicy::Snapshot,
            &[int_row(&[1])],
            Arc::clone(&disk) as Arc<dyn Device>,
        )
        .unwrap();
        disk.fail();
        assert!(
            sc.get_mv(&mut ctx, "v").unwrap().is_none(),
            "failure degrades to a miss"
        );
    }
}
