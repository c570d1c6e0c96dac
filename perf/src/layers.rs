//! The per-layer arithmetic of the traced pass: what each layer did during
//! the fixed phase, from the registry the cluster already publishes into,
//! the engine's own counters, and the benchmark's spans.

use std::collections::BTreeMap;
use std::time::Instant;

use remem_engine::bufferpool::BpStats;
use remem_engine::{Database, WalOp, WalStats};
use remem_sim::registry::SpanSummary;
use remem_sim::{Clock, MetricsRegistry};

use crate::harness::{median, percentile_us, Metric, Phase, Workload};
use crate::spec;
use crate::timed_device::{ROLES, VERBS};
use crate::trace::Tracer;

/// Per-layer metric values by name; a name outside [`spec::per_layer`] is a
/// bug in the benchmark and panics.
pub struct Layers {
    values: BTreeMap<String, f64>,
}

impl Layers {
    pub fn new() -> Layers {
        Layers {
            values: spec::per_layer()
                .into_iter()
                .map(|(name, _, _)| (name, 0.0))
                .collect(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric of spec.rs"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        spec::per_layer()
            .into_iter()
            .map(|(name, unit, _)| Metric {
                value: self.values[&name],
                name,
                unit,
            })
            .collect()
    }
}

impl Default for Layers {
    fn default() -> Layers {
        Layers::new()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every cumulative counter the traced pass reads, at one instant; two of
/// them bracket the fixed phase.
pub struct Counters {
    registry: BTreeMap<String, u64>,
    spans: BTreeMap<String, SpanSummary>,
    db: Option<DbCounters>,
    /// Cumulative utilisation of the DB server's cores, and up to when.
    cpu_util: f64,
    at_ns: f64,
}

struct DbCounters {
    bp: BpStats,
    wal: WalStats,
    spilled: u64,
    read_back: u64,
}

impl Counters {
    pub fn take<W: Workload>(
        w: &W,
        registry: &MetricsRegistry,
        at: remem_sim::SimTime,
    ) -> Counters {
        let snapshot = registry.snapshot();
        Counters {
            registry: snapshot.counters.into_iter().collect(),
            spans: snapshot.spans.into_iter().collect(),
            db: w.db().map(|db| DbCounters {
                bp: db.bp_stats(),
                wal: db.wal().stats(),
                spilled: db.tempdb().bytes_spilled(),
                read_back: db.tempdb().bytes_read_back(),
            }),
            cpu_util: w.env().db_cpu_util(at),
            at_ns: at.as_nanos() as f64,
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.registry.get(name).copied().unwrap_or(0)
    }
}

/// Sums over the traced spans that the trace file's header and the
/// self-times-sum-to-op-time check need.
pub struct SpanSums {
    pub op_sim_ns: u64,
    pub op_host_ns: u64,
    pub self_sim_ns: u64,
}

/// Fill every metric that is measured the same way on every workload.
/// `before` and `after` bracket the traced fixed phase `traced`.
pub fn fill_measured<W: Workload>(
    layers: &mut Layers,
    w: &W,
    traced: &Phase,
    before: &Counters,
    after: &Counters,
) -> SpanSums {
    let env = w.env();
    let registry = env.registry.as_ref().expect("traced set-up");
    let tracer: &Tracer = &env.tracer;
    let ops = traced.ops as f64;

    // sim
    layers.set(
        "sim.cpu.util",
        ratio(
            after.cpu_util * after.at_ns - before.cpu_util * before.at_ns,
            after.at_ns - before.at_ns,
        )
        .clamp(0.0, 1.0),
    );
    let sorted = traced.sorted_lat();
    layers.set("sim.lat_p50_us", percentile_us(&sorted, 50.0));
    layers.set("sim.lat_p999_us", percentile_us(&sorted, 99.9));
    layers.set("sim.lat_max_us", percentile_us(&sorted, 100.0));

    // net and rfile: existing registry spans and counters, as deltas
    let counter = |n: &str| (after.counter(n) - before.counter(n)) as f64;
    let span = |n: &str| -> (f64, f64) {
        let (a, b) = (before.spans.get(n), after.spans.get(n));
        let count = b.map_or(0, |s| s.count) - a.map_or(0, |s| s.count);
        let self_ns = b.map_or(0, |s| s.self_ns) - a.map_or(0, |s| s.self_ns);
        (count as f64, self_ns as f64 / 1e3)
    };
    for verb in spec::NET_VERBS {
        let (count, self_us) = span(&format!("net.{verb}"));
        layers.set(&format!("net.{verb}.count"), count);
        layers.set(&format!("net.{verb}.sim_self_us"), self_us);
    }
    layers.set(
        "net.batch.wr_per_doorbell",
        registry.histogram("fabric.batch.size").mean().as_nanos() as f64,
    );
    layers.set(
        "net.quorum_write.straggler_lag_us_p50",
        registry
            .histogram("fabric.quorum.straggler_lag")
            .percentile(50.0)
            .as_micros_f64(),
    );
    layers.set(
        "net.bytes_per_op",
        (counter("fabric.read.bytes")
            + counter("fabric.write.bytes")
            + counter("fabric.pushdown.bytes"))
            / ops,
    );
    layers.set(
        "net.errors",
        counter("fabric.read.errors")
            + counter("fabric.write.errors")
            + counter("fabric.pushdown.errors"),
    );
    let mut rfile_calls = 0.0;
    for verb in spec::RFILE_VERBS {
        let (count, self_us) = span(&format!("rfile.{verb}"));
        rfile_calls += count;
        layers.set(&format!("rfile.{verb}.count"), count);
        layers.set(&format!("rfile.{verb}.sim_self_us"), self_us);
        // host time of a RemoteFile call as its caller sees it: the engine's
        // through the BPExt and TempDB roles, the harness's directly
        let (mut calls, mut host_ns) = (0u64, 0u64);
        for name in [
            format!("storage.bpext.{verb}"),
            format!("storage.tempdb.{verb}"),
            format!("rfile.{verb}"),
        ] {
            let t = tracer.totals(&name);
            calls += t.count;
            host_ns += t.host_total_ns;
        }
        layers.set(
            &format!("rfile.{verb}.host_ns_per_call"),
            ratio(host_ns as f64, calls as f64),
        );
    }
    for name in ["retries", "failovers", "repairs", "migrations"] {
        layers.set(&format!("rfile.{name}"), counter(&format!("rfile.{name}")));
    }
    layers.set(
        "rfile.re_replications",
        env.fault_log.count_kind("rfile.re_replicate") as f64,
    );
    layers.set("rfile.ops_per_query", rfile_calls / ops);

    // storage: the benchmark's TimedDevice spans
    for role in ROLES {
        let (mut calls, mut sim_ns, mut host_ns) = (0u64, 0u64, 0u64);
        for verb in VERBS {
            let t = tracer.totals(&format!("storage.{role}.{verb}"));
            calls += t.count;
            sim_ns += t.sim_total_ns;
            host_ns += t.host_total_ns;
        }
        layers.set(&format!("storage.{role}.calls"), calls as f64);
        layers.set(&format!("storage.{role}.sim_us"), sim_ns as f64 / 1e3);
        layers.set(&format!("storage.{role}.host_us"), host_ns as f64 / 1e3);
    }
    layers.set(
        "storage.log.forces",
        tracer.totals("storage.log.force").count as f64,
    );
    layers.set("storage.eval.rows", counter("fabric.pushdown.rows"));
    let saved = counter("fabric.pushdown.bytes_saved");
    layers.set(
        "storage.eval.bytes_saved_ratio",
        ratio(saved, saved + counter("fabric.pushdown.bytes")),
    );

    // broker: leases are taken during set-up, so whole-life counters
    layers.set(
        "broker.leases.granted",
        after.counter("broker.leases.granted") as f64,
    );
    layers.set(
        "broker.leases.repaired",
        after.counter("broker.leases.repaired") as f64,
    );
    let leased = after.counter("broker.leased.bytes") as f64;
    layers.set("broker.leased_mib", leased / (1u64 << 20) as f64);
    layers.set(
        "broker.remote_bytes_per_user_byte",
        ratio(leased, env.remote_user_bytes as f64),
    );
    layers.set(
        "broker.pushdown.cpu_us",
        counter("broker.pushdown.cpu_ns") / 1e3,
    );

    // harness spans: engine calls and transactions, mean per call
    let mut per_call = |span: &str, metric: &str| {
        let t = tracer.totals(span);
        let calls = t.count as f64 * 1e3;
        layers.set(
            &format!("{metric}.host_us"),
            ratio(t.host_total_ns as f64, calls),
        );
        layers.set(
            &format!("{metric}.sim_us"),
            ratio(t.sim_total_ns as f64, calls),
        );
    };
    for f in spec::ENGINE_FNS {
        per_call(&format!("engine.{f}"), &format!("engine.{f}"));
    }
    for txn in spec::TPCC_TXNS {
        per_call(&format!("op.{txn}"), &format!("tpcc.{txn}"));
    }
    // op time outside every device call, by self times (which sum to the
    // operations' time on both clocks)
    let mut sums = SpanSums {
        op_sim_ns: 0,
        op_host_ns: 0,
        self_sim_ns: 0,
    };
    let (mut own_sim, mut own_host) = (0u64, 0u64);
    for (name, t) in tracer.all_totals() {
        sums.self_sim_ns += t.sim_self_ns;
        if name.starts_with("op.") {
            sums.op_sim_ns += t.sim_total_ns;
            sums.op_host_ns += t.host_total_ns;
        }
        if name.starts_with("op.") || name.starts_with("engine.") {
            own_sim += t.sim_self_ns;
            own_host += t.host_self_ns;
        }
    }
    layers.set(
        "engine.self.sim_share",
        ratio(own_sim as f64, sums.op_sim_ns as f64),
    );
    layers.set(
        "engine.self.host_share",
        ratio(own_host as f64, sums.op_host_ns as f64),
    );

    // engine counters, as deltas over the fixed phase
    if let (Some(a), Some(b)) = (&before.db, &after.db) {
        let d = |f: fn(&BpStats) -> u64| (f(&b.bp) - f(&a.bp)) as f64;
        let (hits, misses) = (d(|s| s.hits), d(|s| s.misses));
        let (ext_hits, base_reads) = (d(|s| s.ext_hits), d(|s| s.base_reads));
        layers.set("bp.hit_ratio", ratio(hits, hits + misses));
        layers.set("bp.misses_per_op", misses / ops);
        layers.set("bp.base_reads", base_reads);
        layers.set("bp.evictions", d(|s| s.evictions));
        layers.set("bp.dirty_flushes", d(|s| s.dirty_flushes));
        layers.set("bpext.hit_ratio", ratio(ext_hits, ext_hits + base_reads));
        layers.set("bpext.writes", d(|s| s.ext_writes));
        layers.set("bpext.lost_pages", d(|s| s.ext_lost_pages));
        layers.set("tempdb.spill_bytes", (b.spilled - a.spilled) as f64);
        layers.set("tempdb.readback_bytes", (b.read_back - a.read_back) as f64);
        let groups = (b.wal.groups - a.wal.groups) as f64;
        let records = (b.wal.records - a.wal.records) as f64;
        layers.set("wal.groups", groups);
        layers.set("wal.records_per_group", ratio(records, groups));
        layers.set(
            "wal.append_bytes_per_record",
            ratio((b.wal.append_bytes - a.wal.append_bytes) as f64, records),
        );
        layers.set(
            "wal.archived_bytes",
            (b.wal.archived_bytes - a.wal.archived_bytes) as f64,
        );
        layers.set("wal.quorum_appends", counter("wal.quorum.appends"));
    }
    layers.set(
        "workloads.load.rows_per_host_s",
        ratio(env.load_rows as f64, env.load_host_s),
    );
    sums
}

/// `wal.commit.*` and `wal.replay.*`: time direct `Wal::append` calls of one
/// small record, then one `Wal::replay` from LSN 0, on the traced database
/// after its fixed phase.
pub fn wal_probes(db: &Database, clock: &mut Clock, layers: &mut Layers) {
    const APPENDS: usize = 101;
    let row = remem_engine::exec::int_row(&[0, 0]);
    let mut commits = Vec::with_capacity(APPENDS);
    for i in 0..APPENDS {
        let t0 = clock.now();
        if db
            .wal()
            .append(clock, u32::MAX, WalOp::Update, i as i64, Some(&row))
            .is_err()
        {
            return;
        }
        commits.push(clock.now().since(t0).as_micros_f64());
    }
    layers.set("wal.commit.sim_us_p50", median(&commits));
    let (t0, host) = (clock.now(), Instant::now());
    if db.wal().replay(clock, 0, |_| {}).is_ok() {
        layers.set("wal.replay.sim_ms", clock.now().since(t0).as_millis_f64());
        layers.set("wal.replay.host_ms", host.elapsed().as_secs_f64() * 1e3);
    }
}
