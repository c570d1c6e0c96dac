//! The benchmark's names: workloads and metrics, with unit and direction.
//!
//! `BENCHMARK.json` at the repository root states the same lists for the
//! driver; a self-test keeps the two equal. Every workload emits every
//! end-to-end metric with `--trace 0` and every per-layer metric with
//! `--trace 1` (a layer the workload bypasses reads 0).

/// Seconds one run measures for when `--seconds` is not given; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 10.0;

/// `(name, why)` of each workload.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "rangescan_ro",
        "read-only 100-row range queries on a table 3x the pool that fits pool+BPExt: btree, buffer pool, BPExt and rfile scalar reads work, WAL and TempDB idle",
    ),
    (
        "rangescan_upd",
        "same table with 20% update queries on the device WAL: dirty evictions into BPExt plus WAL append and force, so a read-path gain that costs the write path shows",
    ),
    (
        "hashsort_spill",
        "hash join + top-N sort over scans that fit the pool, workspace too small for either: both spill to a single-copy remote TempDB through vectored rfile writes, BPExt and WAL idle",
    ),
    (
        "tpcc_rwal",
        "TPC-C default mix with the WAL shipped to a k=2 remote ring: short transactions, one quorum append per commit group and the lazy archiver",
    ),
    (
        "rfile_mix",
        "no engine: scalar, vectored and pushdown I/O on one k=2 remote file with a donor crash and restart in the fixed phase, so an engine change must not move it",
    ),
];

/// `(name, unit, better, bound)` of each end-to-end metric, measured with
/// tracing off. `bound` is the share of the parent's median by which the
/// metric may worsen before a change is a regression.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("host_us_per_op", "us", "lower", 0.15),
    ("sim_ops_per_s", "1/s", "higher", 0.05),
    ("sim_lat_mid_us", "us", "lower", 0.06),
    ("sim_lat_p99_us", "us", "lower", 0.12),
    ("peak_rss_mib", "MiB", "lower", 0.10),
];

const ROLES: [&str; 4] = crate::timed_device::ROLES;
pub const RFILE_VERBS: [&str; 5] = [
    "read",
    "write",
    "read_vectored",
    "write_vectored",
    "pushdown",
];
pub const NET_VERBS: [&str; 5] = ["read", "write", "batch", "quorum_write", "pushdown"];
pub const ENGINE_FNS: [&str; 5] = ["range", "update", "scan", "join_hash", "sort_rows"];
pub const TPCC_TXNS: [&str; 5] = [
    "new_order",
    "payment",
    "order_status",
    "delivery",
    "stock_level",
];

/// `(name, unit, better)` of each per-layer metric, in print order.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: String, unit, better| v.push((name, unit, better));
    // sim
    add("sim.driver.host_ns_per_event".into(), "ns", "lower");
    add("sim.cpu.util".into(), "ratio", "lower");
    add("sim.lat_p50_us".into(), "us", "lower");
    add("sim.lat_p999_us".into(), "us", "lower");
    add("sim.lat_max_us".into(), "us", "lower");
    // net
    for verb in NET_VERBS {
        add(format!("net.{verb}.count"), "count", "lower");
        add(format!("net.{verb}.sim_self_us"), "us", "lower");
    }
    add("net.batch.wr_per_doorbell".into(), "count", "higher");
    add(
        "net.quorum_write.straggler_lag_us_p50".into(),
        "us",
        "lower",
    );
    add("net.bytes_per_op".into(), "B", "lower");
    add("net.errors".into(), "count", "lower");
    add("net.verb.host_ns".into(), "ns", "lower");
    // storage
    for role in ROLES {
        add(format!("storage.{role}.calls"), "count", "lower");
        add(format!("storage.{role}.sim_us"), "us", "lower");
        add(format!("storage.{role}.host_us"), "us", "lower");
    }
    add("storage.log.forces".into(), "count", "lower");
    add("storage.eval.rows".into(), "count", "lower");
    add("storage.eval.host_ns_per_row".into(), "ns", "lower");
    add("storage.eval.bytes_saved_ratio".into(), "ratio", "higher");
    add("storage.metered.sim_drift_ppm".into(), "ppm", "lower");
    // broker
    add("broker.leases.granted".into(), "count", "lower");
    add("broker.leases.repaired".into(), "count", "lower");
    add("broker.leased_mib".into(), "MiB", "lower");
    add("broker.remote_bytes_per_user_byte".into(), "ratio", "lower");
    add("broker.create_open.host_us".into(), "us", "lower");
    add("broker.pushdown.cpu_us".into(), "us", "lower");
    // rfile
    for verb in RFILE_VERBS {
        add(format!("rfile.{verb}.count"), "count", "lower");
        add(format!("rfile.{verb}.sim_self_us"), "us", "lower");
        add(format!("rfile.{verb}.host_ns_per_call"), "ns", "lower");
    }
    for name in [
        "retries",
        "failovers",
        "repairs",
        "re_replications",
        "migrations",
    ] {
        add(format!("rfile.{name}"), "count", "lower");
    }
    add("rfile.ops_per_query".into(), "count", "lower");
    add("rfile.failover.sim_lat_max_us".into(), "us", "lower");
    // engine::bufferpool
    add("bp.hit_ratio".into(), "ratio", "higher");
    add("bp.misses_per_op".into(), "count", "lower");
    add("bp.base_reads".into(), "count", "lower");
    add("bp.evictions".into(), "count", "lower");
    add("bp.dirty_flushes".into(), "count", "lower");
    add("bpext.hit_ratio".into(), "ratio", "higher");
    add("bpext.writes".into(), "count", "lower");
    add("bpext.lost_pages".into(), "count", "lower");
    // engine::tempdb
    add("tempdb.spill_bytes".into(), "B", "lower");
    add("tempdb.readback_bytes".into(), "B", "lower");
    add("tempdb.spill_per_input_byte".into(), "ratio", "lower");
    // engine::wal
    add("wal.groups".into(), "count", "lower");
    add("wal.records_per_group".into(), "count", "higher");
    add("wal.append_bytes_per_record".into(), "B", "lower");
    add("wal.archived_bytes".into(), "B", "lower");
    add("wal.quorum_appends".into(), "count", "lower");
    add("wal.commit.sim_us_p50".into(), "us", "lower");
    add("wal.replay.sim_ms".into(), "ms", "lower");
    add("wal.replay.host_ms".into(), "ms", "lower");
    // engine operators, as the harness calls them
    for f in ENGINE_FNS {
        add(format!("engine.{f}.host_us"), "us", "lower");
        add(format!("engine.{f}.sim_us"), "us", "lower");
    }
    for txn in TPCC_TXNS {
        add(format!("tpcc.{txn}.host_us"), "us", "lower");
        add(format!("tpcc.{txn}.sim_us"), "us", "lower");
    }
    add("engine.self.host_share".into(), "ratio", "lower");
    add("engine.self.sim_share".into(), "ratio", "lower");
    // workloads
    add("workloads.gen.host_ns_per_row".into(), "ns", "lower");
    add("workloads.load.rows_per_host_s".into(), "1/s", "higher");
    // trace
    add("trace.overhead_pct".into(), "%", "lower");
    add("trace.sim_drift_ppm".into(), "ppm", "lower");
    v
}

/// The text of `BENCHMARK.json`, rendered from the lists above.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "perf/Cargo.toml",
        "--",
    ];
    let quoted: Vec<String> = command.iter().map(|c| format!("\"{c}\"")).collect();
    let mut s = String::from("{\n");
    s += &format!("  \"command\": [{}],\n", quoted.join(", "));
    s += "  \"paths\": [\"perf\"],\n";
    s += &format!("  \"run_seconds\": {},\n", RUN_SECONDS as u64);
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    s += &format!("  \"workloads\": [\n{}\n  ],\n", workloads.join(",\n"));
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            )
        })
        .collect();
    s += &format!("  \"end_to_end\": [\n{}\n  ],\n", end_to_end.join(",\n"));
    let per_layer: Vec<String> = per_layer()
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    s += &format!("  \"per_layer\": [\n{}\n  ]\n}}\n", per_layer.join(",\n"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_repository_root_states_these_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).unwrap_or_default();
        let expected = benchmark_json();
        assert!(
            on_disk == expected,
            "BENCHMARK.json differs from spec.rs; it should read:\n{expected}"
        );
    }

    #[test]
    fn names_and_reasons_fit_the_drivers_limits() {
        let names: Vec<String> = WORKLOADS
            .iter()
            .map(|w| w.0.to_string())
            .chain(END_TO_END.iter().map(|m| m.0.to_string()))
            .chain(per_layer().into_iter().map(|m| m.0))
            .collect();
        for name in &names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert_eq!(names.iter().filter(|n| *n == name).count(), 1, "{name}");
        }
        assert!(per_layer().len() <= 128);
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for (_, _, _, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
