//! Engine configuration: CPU cost model and database tunables.

use std::sync::Arc;

use remem_sim::{MetricsRegistry, SimDuration};

/// Per-operation CPU costs charged to the host server's core pool.
///
/// Calibrated so that a RangeScan workload against remote memory is
/// CPU-bound at ~100 % utilization while the same workload against
/// HDD+SSD idles around 20 % — the drill-down of Fig. 11(b) — and so that
/// classic row-at-a-time processing cannot saturate memory bandwidth
/// (the "Custom approaches Local Memory" takeaway of §6).
#[derive(Debug, Clone)]
pub struct CpuCosts {
    /// Fixing a page in the buffer pool (latch, hash lookup).
    pub page_fix: SimDuration,
    /// Processing one row in a scan/filter (predicate eval, copy out).
    pub row_scan: SimDuration,
    /// Hashing + inserting/probing one row in a hash table.
    pub row_hash: SimDuration,
    /// One key comparison in sort or B+tree descent.
    pub compare: SimDuration,
    /// Producing one output row (projection, aggregation update).
    pub row_output: SimDuration,
    /// Parsing/optimizing a query (fixed per statement).
    pub statement_overhead: SimDuration,
    /// Serializing or deserializing one 8 KiB page of rows (spills, priming).
    pub page_serialize: SimDuration,
}

impl Default for CpuCosts {
    fn default() -> CpuCosts {
        // Row-at-a-time engines spend a few microseconds of CPU per row
        // (interpretation, latching, copying). These values make a
        // 100-row RangeScan query cost ~450 µs of CPU — so 80 workers
        // saturate the 20-core box exactly as the paper's drill-down shows,
        // and remote memory's extra ~10 µs/page hides behind CPU (the
        // "Custom approaches Local Memory" takeaway). A vectorized engine
        // would shrink these and widen remote memory's benefit (§7).
        CpuCosts {
            page_fix: SimDuration::from_micros(1),
            row_scan: SimDuration::from_micros(2),
            row_hash: SimDuration::from_nanos(1_500),
            compare: SimDuration::from_nanos(100),
            row_output: SimDuration::from_nanos(500),
            statement_overhead: SimDuration::from_micros(50),
            page_serialize: SimDuration::from_micros(5),
        }
    }
}

/// Database instance tunables.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Buffer pool size in bytes ("Local Mem" column of Table 4).
    pub buffer_pool_bytes: u64,
    /// Fraction of query workspace memory a single statement's memory grant
    /// may take — SQL Server's admission control; this is what makes TPC-H
    /// Q10/Q18 spill even under the Local Memory design (Appendix B.1).
    pub max_grant_fraction: f64,
    /// Total query workspace memory (by default, 60% of the buffer pool,
    /// mirroring SQL Server's workspace semantics).
    pub workspace_bytes: u64,
    pub cpu: CpuCosts,
    /// Telemetry registry the instance publishes into: each device role is
    /// wrapped in a [`remem_storage::Observed`] device with a
    /// [`remem_storage::Metered`] observer (`storage.data.*`,
    /// `storage.bpext.*`, …) and the buffer pool / TempDB / semantic cache
    /// mirror their stats as named counters (`bp.hits`, `tempdb.spill.bytes`,
    /// `semantic.hits`, …).
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl DbConfig {
    /// A config with the given buffer pool size and default cost model.
    pub fn with_pool(buffer_pool_bytes: u64) -> DbConfig {
        DbConfig {
            buffer_pool_bytes,
            max_grant_fraction: 0.25,
            workspace_bytes: buffer_pool_bytes * 6 / 10,
            cpu: CpuCosts::default(),
            metrics: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = DbConfig::with_pool(64 << 20);
        assert!(c.workspace_bytes < c.buffer_pool_bytes);
        assert!(c.max_grant_fraction > 0.0 && c.max_grant_fraction <= 1.0);
        // a page fix is far cheaper than any device access
        assert!(c.cpu.page_fix < SimDuration::from_micros(5));
    }
}
