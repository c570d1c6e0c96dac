//! Table 1 ablations: quantify each design choice the paper locks in —
//! synchronous vs asynchronous vs adaptive completions (§4.1.3),
//! pre-registered staging buffers vs dynamic registration (§4.1.4), and the
//! one-off cost of pre-registration itself.
//!
//! Also exercises the paper's proposed *adaptive* strategy (spin a budget,
//! then yield): small transfers behave like sync, large ones like async.

use remem::{AccessMode, RFileConfig, RegistrationMode};
use remem_bench::{Arm, Report};
use remem_sim::{Clock, SimDuration, SimTime};

/// One probe on a fresh single-donor cluster: for `Some((access,
/// registration, bytes))` the mean latency of 64 writes of `bytes` to a file
/// opened that way, for `None` the one-off cost of opening a file (lease
/// RPC, QP connect, staging registration).
fn probe(writes: Option<(AccessMode, RegistrationMode, u64)>, arm: &Arm) -> SimDuration {
    let donor = if writes.is_some() {
        128 << 20
    } else {
        64 << 20
    };
    let cluster = arm
        .cluster()
        .memory_servers(1)
        .memory_per_server(donor)
        .build();
    let mut clock = Clock::new();
    let Some((access, registration, bytes)) = writes else {
        let cfg = RFileConfig::custom();
        let file = cluster.remote_file(&mut clock, cluster.db_server, 16 << 20, cfg);
        file.unwrap();
        return clock.now().since(SimTime(0));
    };
    let cfg = RFileConfig {
        access,
        registration,
        ..RFileConfig::custom()
    };
    let file = cluster
        .remote_file(&mut clock, cluster.db_server, 64 << 20, cfg)
        .unwrap();
    let data = vec![0u8; bytes as usize];
    let ops = 64u64;
    let t0 = clock.now();
    for i in 0..ops {
        file.write(&mut clock, (i * bytes) % (32 << 20), &data)
            .unwrap();
    }
    clock.now().since(t0) / ops
}

fn main() {
    let mut report = Report::new(
        "repro_table1_ablations",
        "Table 1",
        "ablations of the paper's design choices",
    );

    // one arm per probe: each access mode at both transfer sizes, the
    // dynamic-registration tax (its staged baseline is sync-spin 8K), and
    // (`None`) the one-off open cost
    let (sync, adaptive) = (AccessMode::SyncSpin, AccessMode::adaptive());
    let (staged, dynamic) = (RegistrationMode::Staged, RegistrationMode::Dynamic);
    let probes = [
        ("sync-spin 8K", Some((sync, staged, 8 << 10))),
        ("sync-spin 1M", Some((sync, staged, 1 << 20))),
        ("async 8K", Some((AccessMode::Async, staged, 8 << 10))),
        ("async 1M", Some((AccessMode::Async, staged, 1 << 20))),
        ("adaptive 8K", Some((adaptive, staged, 8 << 10))),
        ("adaptive 1M", Some((adaptive, staged, 1 << 20))),
        ("dynamic registration 8K", Some((sync, dynamic, 8 << 10))),
        ("create+open", None),
    ];
    let runs = report.arms(
        &probes,
        |(label, _)| label.to_string(),
        |&(_, writes), arm| probe(writes, arm),
    );

    let mut rows = Vec::new();
    let mut small_us = Vec::new();
    let mut large_us = Vec::new();
    let modes = ["sync-spin (paper)", "async I/O", "adaptive (30us budget)"];
    for (label, pair) in modes.iter().zip(runs.chunks(2)) {
        let (small, large) = (pair[0].as_micros_f64(), pair[1].as_micros_f64());
        rows.push(vec![
            label.to_string(),
            format!("{small:.1}"),
            format!("{large:.1}"),
        ]);
        small_us.push((label.to_string(), small));
        large_us.push((label.to_string(), large));
    }
    report.table(
        "per-operation latency by access mode and transfer size:",
        &["access mode", "8K op us", "1M op us"],
        rows,
    );
    report.series("access_mode_8k_us", &small_us);
    report.series("access_mode_1m_us", &large_us);
    report.check_flat(
        "adaptive_matches_sync_small",
        "adaptive == sync for 8K pages (completes inside the spin budget)",
        &[small_us[0].clone(), small_us[2].clone()],
        5.0,
    );
    report.check_flat(
        "adaptive_matches_async_large",
        "adaptive == async for 1M transfers (yields instead of burning CPU)",
        &[large_us[1].clone(), large_us[2].clone()],
        5.0,
    );

    report.blank();
    let mut rows = Vec::new();
    let mut reg_us = Vec::new();
    for (label, lat) in [
        ("pre-registered staging (paper)", runs[0]),
        ("dynamic registration", runs[6]),
    ] {
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", lat.as_micros_f64()),
        ]);
        reg_us.push((label.to_string(), lat.as_micros_f64()));
    }
    report.table(
        "per-operation latency by registration mode (8K pages):",
        &["registration mode", "8K op us"],
        rows,
    );
    report.series("registration_8k_us", &reg_us);
    report.check_ratio_ge(
        "dynamic_registration_tax",
        "dynamic registration pays the per-transfer tax (>= 2x the staged path)",
        ("dynamic", reg_us[1].1),
        ("staged", reg_us[0].1),
        2.0,
    );

    report.blank();
    let open_cost = runs[7];
    report.note(format!(
        "one-off pre-registration cost at open (lease RPC, QP connect, staging registration): {open_cost}"
    ));
    report.note("(amortized over every subsequent transfer — the fixed-initialization");
    report.note("trade-off Table 1 records for pre-registration)");
    report.series(
        "open_cost_us",
        &[("create+open", open_cost.as_micros_f64())],
    );
    report.check_assert(
        "open_cost_amortizes",
        "the one-off open cost is within ~100 ops of the dynamic-registration tax",
        open_cost.as_micros_f64() <= (reg_us[1].1 - reg_us[0].1).max(1.0) * 100.0,
    );
    report.gauge("sync_8k_op_us", small_us[0].1, 10.0);
    report.gauge("dynamic_8k_op_us", reg_us[1].1, 10.0);
    report.gauge("open_cost_us", open_cost.as_micros_f64(), 10.0);
    report.finish();
}
