//! The pushdown selectivity sweep: near-memory operator offload vs
//! one-sided full-page fetch over a remote-resident table.
//!
//! A synthetic table of slotted pages lives directly in a [`RemoteFile`];
//! each query scans a page-aligned segment with a comparison predicate whose
//! selectivity is controlled exactly by a hashed bucket column. Three modes
//! share the query shape: forced full fetch, forced pushdown, and the
//! cost-based planner ([`remem_engine::optimizer::choose_scan`]) — the
//! `repro_pushdown_selectivity` harness sweeps selectivity across all three
//! to chart the crossover.

use std::sync::Arc;

use remem_broker::{BrokerConfig, MemoryBroker, MemoryProxy, MetaStore, PlacementPolicy};
use remem_engine::exec::{remote_scan, scan_with_plan, ScanResult};
use remem_engine::optimizer::DeviceProfile;
use remem_engine::page::{Page, PAGE_SIZE};
use remem_engine::{CpuCosts, ExecCtx, Row, ScanEstimate, ScanPlan, Value};
use remem_net::{Fabric, NetConfig, ServerId};
use remem_rfile::{RFileConfig, RemoteFile};
use remem_sim::{Clock, CpuPool, MetricsRegistry};
use remem_storage::{CmpOp, Predicate, PushdownProgram};

/// Bucket space for the selectivity column: `bucket < ppm` selects
/// `ppm / 1e6` of the rows, spread uniformly over the pages.
pub const BUCKET_SPACE: u64 = 1_000_000;

/// How each scan decides between fetching pages and pushing the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Always pull every page one-sided and filter client-side.
    FullFetch,
    /// Always offload the program to the memory servers.
    Pushdown,
    /// Let the cost model pick per scan.
    Planner,
}

/// One row: `(bucket, key, val, pad)`. The bucket is a multiplicative hash
/// of the key into [0, [`BUCKET_SPACE`]), so `bucket < p·1e6` selects
/// fraction `p` of the rows uniformly across every page.
pub fn table_row(key: i64) -> Row {
    let bucket = (key as u64).wrapping_mul(2654435761) % BUCKET_SPACE;
    Row::new(vec![
        Value::Int(bucket as i64),
        Value::Int(key),
        Value::Float(key as f64 * 0.25),
        Value::Str("scan-payload-padding-bytes-xx".into()),
    ])
}

/// The sweep predicate: `bucket < selectivity · 1e6`.
pub fn bucket_program(selectivity: f64) -> PushdownProgram {
    let ppm = (selectivity.clamp(0.0, 1.0) * BUCKET_SPACE as f64).round() as i64;
    PushdownProgram {
        predicates: vec![Predicate {
            col: 0,
            op: CmpOp::Lt,
            value: Value::Int(ppm),
        }],
        projection: None,
        aggregate: None,
    }
}

/// A remote-resident table plus everything a scan needs to run against it.
pub struct RemoteTable {
    pub file: RemoteFile,
    pub fabric: Arc<Fabric>,
    pub broker: Arc<MemoryBroker>,
    pub db_server: ServerId,
    pub donors: Vec<ServerId>,
    pub pages: u64,
    pub rows_per_page: u64,
    /// Encoded bytes of one row (fixed — every row is the same shape).
    pub row_bytes: u64,
}

/// Build a cluster (one DB server, `donors` memory servers donating 64 KiB
/// MRs) and fill a remote file with `pages` slotted pages of [`table_row`]s.
/// A `registry` meters the fabric, the broker and the file from the load on.
pub fn build_remote_table(
    clock: &mut Clock,
    pages: u64,
    donors: usize,
    net: NetConfig,
    registry: Option<Arc<MetricsRegistry>>,
) -> RemoteTable {
    let fabric = Arc::new(Fabric::new(net));
    fabric.set_metrics(registry.clone());
    let db_server = fabric.add_server("DB", 8);
    let broker = Arc::new(MemoryBroker::new(
        BrokerConfig {
            placement: PlacementPolicy::Spread,
            ..Default::default()
        },
        MetaStore::new(),
    ));
    broker.set_metrics(registry.clone());
    let size = pages * PAGE_SIZE as u64;
    let per_donor = size.div_ceil(donors as u64).div_ceil(64 << 10) * (64 << 10) + (64 << 10);
    let mut donor_ids = Vec::new();
    for i in 0..donors {
        let m = fabric.add_server(format!("M{i}"), 8);
        donor_ids.push(m);
        let mut pc = Clock::new();
        MemoryProxy::new(m, 64 << 10)
            .donate(&mut pc, &fabric, &broker, per_donor)
            .expect("donate");
    }
    let file = RemoteFile::create_open(
        clock,
        Arc::clone(&fabric),
        Arc::clone(&broker),
        db_server,
        size,
        RFileConfig {
            metrics: registry,
            ..RFileConfig::custom()
        },
    )
    .expect("create remote file");
    let mut rows_per_page = 0u64;
    let mut key = 0i64;
    for p in 0..pages {
        let mut page = Page::new();
        loop {
            if page.insert(&table_row(key).to_bytes()).is_none() {
                break;
            }
            key += 1;
        }
        if p == 0 {
            rows_per_page = key as u64;
        }
        file.write(clock, p * PAGE_SIZE as u64, page.as_bytes())
            .expect("load page");
    }
    let row_bytes = table_row(0).encoded_len() as u64;
    RemoteTable {
        file,
        fabric,
        broker,
        db_server,
        donors: donor_ids,
        pages,
        rows_per_page,
        row_bytes,
    }
}

/// The honest planner estimate for a `scan_pages`-segment scan of `t` at
/// `selectivity` — what the harness hands to [`remote_scan`].
pub fn scan_estimate(t: &RemoteTable, scan_pages: u64, selectivity: f64) -> ScanEstimate {
    let len = scan_pages * PAGE_SIZE as u64;
    ScanEstimate {
        pages: scan_pages,
        rows_per_page: t.rows_per_page,
        selectivity,
        reply_row_bytes: t.row_bytes,
        program_bytes: bucket_program(selectivity).encoded_len() as u64,
        // rfile splits the span on 64 KiB MR boundaries
        chunks: len.div_ceil(64 << 10),
        aggregate: false,
    }
}

/// Run one segment scan at `start_page` in the given mode. Returns the scan
/// result (rows for filter programs).
#[allow(clippy::too_many_arguments)]
pub fn one_scan(
    clock: &mut Clock,
    cpu: &CpuPool,
    costs: &CpuCosts,
    t: &RemoteTable,
    start_page: u64,
    scan_pages: u64,
    selectivity: f64,
    mode: ScanMode,
) -> ScanResult {
    let prog = bucket_program(selectivity);
    let offset = start_page * PAGE_SIZE as u64;
    let len = scan_pages * PAGE_SIZE as u64;
    let mut ctx = ExecCtx::new(clock, cpu, costs);
    ctx.charge(costs.statement_overhead);
    let out = match mode {
        ScanMode::FullFetch => {
            scan_with_plan(&mut ctx, &t.file, offset, len, &prog, ScanPlan::FullFetch)
        }
        ScanMode::Pushdown => {
            scan_with_plan(&mut ctx, &t.file, offset, len, &prog, ScanPlan::Pushdown)
        }
        ScanMode::Planner => {
            let est = scan_estimate(t, scan_pages, selectivity);
            remote_scan(
                &mut ctx,
                &t.file,
                offset,
                len,
                &prog,
                est,
                DeviceProfile::remote_memory(),
                t.fabric.config(),
            )
        }
    };
    out.expect("remote scan")
}

#[cfg(test)]
mod tests {
    use super::*;
    use remem_storage::eval_pages;

    fn table(pages: u64, donors: usize) -> (RemoteTable, Clock) {
        let mut clock = Clock::new();
        let t = build_remote_table(&mut clock, pages, donors, NetConfig::default(), None);
        (t, clock)
    }

    /// Fetch-everything-then-filter oracle over the same span.
    fn oracle(
        t: &RemoteTable,
        clock: &mut Clock,
        start_page: u64,
        pages: u64,
        sel: f64,
    ) -> Vec<u8> {
        let mut buf = vec![0u8; (pages * PAGE_SIZE as u64) as usize];
        t.file
            .read(clock, start_page * PAGE_SIZE as u64, &mut buf)
            .unwrap();
        let mut out = Vec::new();
        eval_pages(&buf, &bucket_program(sel), &mut out).unwrap();
        out
    }

    #[test]
    fn bucket_selectivity_is_calibrated() {
        // over a large keyspace the hashed bucket hits ~p of the rows
        let n = 100_000i64;
        let hits = (0..n)
            .filter(|&k| table_row(k).int(0) < (BUCKET_SPACE / 100) as i64)
            .count();
        let frac = hits as f64 / n as f64;
        assert!((0.005..0.02).contains(&frac), "1% target, got {frac}");
    }

    #[test]
    fn all_modes_agree_with_the_oracle() {
        let (t, mut clock) = table(32, 2);
        let cpu = CpuPool::new(8);
        let costs = CpuCosts::default();
        let want = oracle(&t, &mut clock, 4, 8, 0.05);
        for mode in [ScanMode::FullFetch, ScanMode::Pushdown, ScanMode::Planner] {
            let r = one_scan(&mut clock, &cpu, &costs, &t, 4, 8, 0.05, mode);
            let mut got = Vec::new();
            for row in &r.rows {
                row.encode(&mut got);
            }
            assert_eq!(got, want, "{mode:?} diverged from fetch-then-filter");
        }
    }
}
