//! Query-execution context and row-at-a-time operator helpers.

use remem_net::NetConfig;
use remem_rfile::RemoteFile;
use remem_sim::{Clock, CpuPool, SimDuration};
use remem_storage::{eval_pages, PartialAgg, PushdownProgram, StorageError};

use crate::config::CpuCosts;
use crate::optimizer::{choose_scan, DeviceProfile, ScanChoice, ScanEstimate, ScanPlan};
use crate::row::{Row, Value};

/// Execution context for one worker running one statement.
///
/// CPU work is batched and charged to the host server's shared core pool so
/// that concurrent queries contend for cores — the mechanism behind the
/// Fig. 11(b) CPU-utilization drill-down (remote-memory runs are CPU-bound,
/// disk runs idle at ~20 %). I/O is charged by the devices themselves.
pub struct ExecCtx<'a> {
    pub clock: &'a mut Clock,
    cpu: &'a CpuPool,
    pub costs: &'a CpuCosts,
    acc: SimDuration,
    /// Degree of parallelism: accumulated CPU work is spread over this many
    /// cores (SQL Server's parallel query execution). Short OLTP statements
    /// run at DOP 1; the engine's scan/sort/hash-join operators raise it to
    /// the core count — which is why the paper's spilling analytics are
    /// I/O-bound (Fig. 14c) while 80 concurrent RangeScans are CPU-bound
    /// (Fig. 11b).
    dop: u32,
}

/// Batch CPU charges into ~50 µs slices: fine enough to interleave with I/O,
/// coarse enough to keep core-pool contention cheap to simulate.
const FLUSH_THRESHOLD: SimDuration = SimDuration::from_micros(50);

impl<'a> ExecCtx<'a> {
    pub fn new(clock: &'a mut Clock, cpu: &'a CpuPool, costs: &'a CpuCosts) -> ExecCtx<'a> {
        ExecCtx {
            clock,
            cpu,
            costs,
            acc: SimDuration::ZERO,
            dop: 1,
        }
    }

    /// Set the degree of parallelism for subsequent CPU work. Flushes any
    /// pending work at the previous DOP first.
    pub(crate) fn set_dop(&mut self, dop: u32) {
        self.flush_cpu();
        self.dop = dop.max(1);
    }

    /// Run at the full core count (parallel operators).
    pub fn parallel(mut self) -> Self {
        self.set_dop(self.cpu.cores() as u32);
        self
    }

    /// Charge `d` of CPU work (batched).
    pub fn charge(&mut self, d: SimDuration) {
        self.acc += d;
        if self.acc >= FLUSH_THRESHOLD {
            self.flush_cpu();
        }
    }

    /// Charge `d × n` of CPU work.
    pub(crate) fn charge_n(&mut self, d: SimDuration, n: u64) {
        self.charge(SimDuration::from_nanos(d.as_nanos() * n));
    }

    /// Push accumulated CPU work through the core pool now. At DOP > 1 the
    /// work is split into `dop` parallel grants and the clock advances to
    /// the slowest one.
    pub(crate) fn flush_cpu(&mut self) {
        if self.acc.is_zero() {
            return;
        }
        let now = self.clock.now();
        if self.dop == 1 {
            let g = self.cpu.execute(now, self.acc);
            self.clock.advance_to(g.end);
        } else {
            let share = self.acc / self.dop as u64;
            let mut end = now;
            for _ in 0..self.dop {
                end = end.max(self.cpu.execute(now, share).end);
            }
            self.clock.advance_to(end);
        }
        self.acc = SimDuration::ZERO;
    }
}

impl Drop for ExecCtx<'_> {
    fn drop(&mut self) {
        self.flush_cpu();
    }
}

/// Filter rows by a predicate, charging scan cost per input row.
pub fn filter(ctx: &mut ExecCtx<'_>, rows: Vec<Row>, pred: impl Fn(&Row) -> bool) -> Vec<Row> {
    ctx.charge_n(ctx.costs.row_scan, rows.len() as u64);
    rows.into_iter().filter(|r| pred(r)).collect()
}

/// Project each row through `f`, charging output cost.
pub fn project(ctx: &mut ExecCtx<'_>, rows: Vec<Row>, f: impl Fn(&Row) -> Row) -> Vec<Row> {
    ctx.charge_n(ctx.costs.row_output, rows.len() as u64);
    rows.iter().map(f).collect()
}

/// Group rows by an integer key and fold each group, charging hash cost.
pub fn aggregate<K, A>(
    ctx: &mut ExecCtx<'_>,
    rows: &[Row],
    key: impl Fn(&Row) -> K,
    init: A,
    fold: impl Fn(&mut A, &Row),
) -> Vec<(K, A)>
where
    K: Eq + Clone + Ord,
    A: Clone,
{
    ctx.charge_n(ctx.costs.row_hash, rows.len() as u64);
    // ordered map: group output order falls out sorted with no extra pass,
    // and no hash order can leak into the result
    let mut groups: std::collections::BTreeMap<K, A> = std::collections::BTreeMap::new();
    for r in rows {
        let k = key(r);
        let acc = groups.entry(k).or_insert_with(|| init.clone());
        fold(acc, r);
    }
    let out: Vec<(K, A)> = groups.into_iter().collect();
    ctx.charge_n(ctx.costs.row_output, out.len() as u64);
    out
}

/// Scalar sum over a float column.
pub fn sum_float(ctx: &mut ExecCtx<'_>, rows: &[Row], col: usize) -> f64 {
    ctx.charge_n(ctx.costs.row_scan, rows.len() as u64);
    rows.iter().map(|r| r.float(col)).sum()
}

/// Keep the top `n` rows by `key` descending=false → ascending order.
/// Uses a bounded heap: O(rows · log n) compares, the same cost shape as the
/// engine's Top-N Sort operator when everything fits in memory.
pub fn top_n(
    ctx: &mut ExecCtx<'_>,
    rows: Vec<Row>,
    n: usize,
    key: impl Fn(&Row) -> f64,
    ascending: bool,
) -> Vec<Row> {
    let logn = (n.max(2) as f64).log2().ceil() as u64;
    ctx.charge_n(ctx.costs.compare, rows.len() as u64 * logn);
    let mut keyed: Vec<(f64, Row)> = rows.into_iter().map(|r| (key(&r), r)).collect();
    keyed.sort_by(|a, b| {
        let o = a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal);
        if ascending {
            o
        } else {
            o.reverse()
        }
    });
    keyed.truncate(n);
    ctx.charge_n(ctx.costs.row_output, keyed.len() as u64);
    keyed.into_iter().map(|(_, r)| r).collect()
}

/// Build a `Value::Int` row quickly (test/workload helper).
pub fn int_row(vals: &[i64]) -> Row {
    Row::new(vals.iter().map(|&v| Value::Int(v)).collect())
}

/// Result of a remote scan: either decoded rows (filter/projection programs)
/// or one merged partial aggregate, plus the plan that ran and — when the
/// planner picked it — both costed alternatives for EXPLAIN-style
/// introspection.
pub struct ScanResult {
    pub rows: Vec<Row>,
    pub partial: Option<PartialAgg>,
    pub plan: ScanPlan,
    /// `Some` when [`remote_scan`] chose the plan; `None` for the forced
    /// arms of A/B experiments via [`scan_with_plan`].
    pub choice: Option<ScanChoice>,
}

/// Scan a page-aligned span of a remote file through the fetch-vs-pushdown
/// planner. [`choose_scan`](crate::optimizer::choose_scan) prices both sides
/// from the estimate; the winner executes:
///
/// * **FullFetch** — one-sided reads pull every page, then the same
///   [`eval_pages`] kernel runs client-side with per-row scan cost charged to
///   this worker's CPU.
/// * **Pushdown** — [`RemoteFile::read_pushdown`] ships the program to each
///   donor; only the compacted reply crosses the wire, and this worker pays
///   scan cost only for matched rows.
///
/// Both paths produce byte-identical reply payloads, so plan choice can never
/// change query answers — only where the cycles and bytes are spent.
#[allow(clippy::too_many_arguments)]
pub fn remote_scan(
    ctx: &mut ExecCtx<'_>,
    file: &RemoteFile,
    offset: u64,
    len: u64,
    program: &PushdownProgram,
    est: ScanEstimate,
    tier: DeviceProfile,
    net: &NetConfig,
) -> Result<ScanResult, StorageError> {
    let choice = choose_scan(est, tier, net, ctx.costs);
    let mut result = scan_with_plan(ctx, file, offset, len, program, choice.plan)?;
    result.choice = Some(choice);
    Ok(result)
}

/// Execute a scan with the plan fixed by the caller — the forced arms of
/// fetch-vs-pushdown experiments. [`remote_scan`] wraps this with the
/// cost-based choice.
pub fn scan_with_plan(
    ctx: &mut ExecCtx<'_>,
    file: &RemoteFile,
    offset: u64,
    len: u64,
    program: &PushdownProgram,
    plan: ScanPlan,
) -> Result<ScanResult, StorageError> {
    // the file's I/O charges land on the same clock the CPU batcher uses, so
    // drain pending CPU work before handing the clock to the device
    ctx.flush_cpu();
    let payload = match plan {
        ScanPlan::Pushdown => {
            let scan = file.read_pushdown(ctx.clock, offset, len, program)?;
            ctx.charge_n(ctx.costs.row_scan, scan.rows_matched);
            scan.payload
        }
        ScanPlan::FullFetch => {
            let mut buf = vec![0u8; len as usize];
            file.read(ctx.clock, offset, &mut buf)?;
            let mut out = Vec::new();
            let stats = eval_pages(&buf, program, &mut out)
                .map_err(|_| StorageError::Unavailable("malformed remote page span".into()))?;
            ctx.charge_n(ctx.costs.row_scan, stats.rows_scanned);
            out
        }
    };
    let mut result = ScanResult {
        rows: Vec::new(),
        partial: None,
        plan,
        choice: None,
    };
    if program.aggregate.is_some() {
        // rfile merges per-chunk partials; the full-fetch eval emits exactly
        // one for the whole span — either way a single record remains
        let mut merged = PartialAgg::default();
        let mut off = 0;
        while off < payload.len() {
            let part = PartialAgg::decode(&payload[off..])
                .ok_or_else(|| StorageError::Unavailable("truncated partial aggregate".into()))?;
            merged.merge(&part);
            off += remem_storage::PARTIAL_AGG_BYTES;
        }
        ctx.charge(ctx.costs.row_output);
        result.partial = Some(merged);
    } else {
        let mut off = 0;
        while off < payload.len() {
            let (row, used) = Row::decode(&payload[off..]);
            off += used;
            result.rows.push(row);
        }
        ctx.charge_n(ctx.costs.row_output, result.rows.len() as u64);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use remem_sim::SimTime;

    fn ctx_parts() -> (Clock, CpuPool, CpuCosts) {
        (Clock::new(), CpuPool::new(4), CpuCosts::default())
    }

    #[test]
    fn cpu_charges_flow_through_the_pool() {
        let (mut clock, cpu, costs) = ctx_parts();
        {
            let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
            ctx.charge_n(SimDuration::from_nanos(200), 1_000); // 200us
            ctx.flush_cpu();
        }
        assert_eq!(clock.now().as_nanos(), 200_000);
        assert!(cpu.utilization(SimTime(200_000)) > 0.2);
    }

    #[test]
    fn drop_flushes_remaining_work() {
        let (mut clock, cpu, costs) = ctx_parts();
        {
            let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
            ctx.charge(SimDuration::from_micros(3)); // below threshold
        }
        assert_eq!(clock.now().as_nanos(), 3_000);
    }

    #[test]
    fn filter_project_aggregate_pipeline() {
        let (mut clock, cpu, costs) = ctx_parts();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let rows: Vec<Row> = (0..100).map(|i| int_row(&[i, i % 3])).collect();
        let filtered = filter(&mut ctx, rows, |r| r.int(0) < 50);
        assert_eq!(filtered.len(), 50);
        let projected = project(&mut ctx, filtered, |r| int_row(&[r.int(1)]));
        let groups = aggregate(&mut ctx, &projected, |r| r.int(0), 0u64, |acc, _| *acc += 1);
        assert_eq!(groups.len(), 3);
        let total: u64 = groups.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn top_n_orders_and_truncates() {
        let (mut clock, cpu, costs) = ctx_parts();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let rows: Vec<Row> = [5i64, 3, 9, 1, 7].iter().map(|&v| int_row(&[v])).collect();
        let top = top_n(&mut ctx, rows.clone(), 3, |r| r.int(0) as f64, true);
        let keys: Vec<i64> = top.iter().map(|r| r.int(0)).collect();
        assert_eq!(keys, vec![1, 3, 5]);
        let top_desc = top_n(&mut ctx, rows, 2, |r| r.int(0) as f64, false);
        let keys: Vec<i64> = top_desc.iter().map(|r| r.int(0)).collect();
        assert_eq!(keys, vec![9, 7]);
    }

    #[test]
    fn sum_float_coerces_ints() {
        let (mut clock, cpu, costs) = ctx_parts();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let rows: Vec<Row> = (1..=4).map(|i| int_row(&[i])).collect();
        assert_eq!(sum_float(&mut ctx, &rows, 0), 10.0);
    }

    mod remote {
        use super::*;
        use crate::optimizer::DeviceProfile;
        use crate::page::{Page, PAGE_SIZE};
        use remem_broker::{BrokerConfig, MemoryBroker, MemoryProxy, MetaStore, PlacementPolicy};
        use remem_net::{Fabric, NetConfig};
        use remem_rfile::{RFileConfig, RemoteFile};
        use remem_storage::{Aggregate, CmpOp, EvalValue, Predicate};
        use std::sync::Arc;

        const NPAGES: usize = 8;
        const RPP: usize = 20;

        /// One donor, one remote file holding `NPAGES` slotted pages of
        /// `RPP` rows `(Int key, Float key·0.5, Str pad)`.
        fn remote_table() -> (RemoteFile, Clock) {
            let fabric = Arc::new(Fabric::new(NetConfig::default()));
            let db = fabric.add_server("DB", 8);
            let m = fabric.add_server("M0", 8);
            let broker = Arc::new(MemoryBroker::new(
                BrokerConfig {
                    placement: PlacementPolicy::Pack,
                    ..Default::default()
                },
                MetaStore::new(),
            ));
            let mut pc = Clock::new();
            MemoryProxy::new(m, 64 * 1024)
                .donate(&mut pc, &fabric, &broker, 256 * 1024)
                .unwrap();
            let mut clock = Clock::new();
            let file = RemoteFile::create_open(
                &mut clock,
                fabric,
                broker,
                db,
                (NPAGES * PAGE_SIZE) as u64,
                RFileConfig::custom(),
            )
            .unwrap();
            for p in 0..NPAGES {
                let mut page = Page::new();
                for r in 0..RPP {
                    let key = (p * RPP + r) as i64;
                    let row = Row::new(vec![
                        Value::Int(key),
                        Value::Float(key as f64 * 0.5),
                        Value::Str("pad".into()),
                    ]);
                    page.insert(&row.to_bytes()).unwrap();
                }
                file.write(&mut clock, (p * PAGE_SIZE) as u64, page.as_bytes())
                    .unwrap();
            }
            (file, clock)
        }

        fn est(selectivity: f64, aggregate: bool) -> ScanEstimate {
            ScanEstimate {
                pages: NPAGES as u64,
                rows_per_page: RPP as u64,
                selectivity,
                reply_row_bytes: 30,
                program_bytes: 16,
                chunks: 1,
                aggregate,
            }
        }

        fn key_lt(v: i64) -> PushdownProgram {
            PushdownProgram {
                predicates: vec![Predicate {
                    col: 0,
                    op: CmpOp::Lt,
                    value: EvalValue::Int(v),
                }],
                projection: None,
                aggregate: None,
            }
        }

        #[test]
        fn plan_choice_never_changes_the_answer() {
            let (file, mut clock) = remote_table();
            let cpu = CpuPool::new(8);
            let costs = CpuCosts::default();
            let net = NetConfig::default();
            let tier = DeviceProfile::remote_memory();
            let prog = key_lt(7);
            // mis-estimated one way, then the other: both plans must run and
            // both must return the same rows
            let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
            let lo = remote_scan(
                &mut ctx,
                &file,
                0,
                (NPAGES * PAGE_SIZE) as u64,
                &prog,
                est(0.001, false),
                tier,
                &net,
            )
            .unwrap();
            let hi = remote_scan(
                &mut ctx,
                &file,
                0,
                (NPAGES * PAGE_SIZE) as u64,
                &prog,
                est(1.0, false),
                tier,
                &net,
            )
            .unwrap();
            assert_eq!(lo.plan, ScanPlan::Pushdown);
            assert_eq!(hi.plan, ScanPlan::FullFetch);
            assert_eq!(lo.rows, hi.rows);
            let keys: Vec<i64> = lo.rows.iter().map(|r| r.int(0)).collect();
            assert_eq!(keys, (0..7).collect::<Vec<i64>>());
        }

        #[test]
        fn aggregate_pushdown_matches_exact_sum() {
            let (file, mut clock) = remote_table();
            let cpu = CpuPool::new(8);
            let costs = CpuCosts::default();
            let net = NetConfig::default();
            let prog = PushdownProgram {
                predicates: Vec::new(),
                projection: None,
                aggregate: Some(Aggregate::Sum(0)),
            };
            let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
            let out = remote_scan(
                &mut ctx,
                &file,
                0,
                (NPAGES * PAGE_SIZE) as u64,
                &prog,
                est(1.0, true),
                tier_rm(),
                &net,
            )
            .unwrap();
            assert_eq!(out.plan, ScanPlan::Pushdown);
            let part = out.partial.unwrap();
            let n = (NPAGES * RPP) as i64;
            assert_eq!(part.rows, n as u64);
            assert_eq!(part.sum_int, n * (n - 1) / 2);
            assert!(out.rows.is_empty());
        }

        fn tier_rm() -> DeviceProfile {
            DeviceProfile::remote_memory()
        }
    }
}
