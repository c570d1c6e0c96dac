//! Table 1 ablations: quantify each design choice the paper locks in —
//! synchronous vs asynchronous vs adaptive completions (§4.1.3),
//! pre-registered staging buffers vs dynamic registration (§4.1.4), and the
//! one-off cost of pre-registration itself.
//!
//! Also exercises the paper's proposed *adaptive* strategy (spin a budget,
//! then yield): small transfers behave like sync, large ones like async.

use remem::{AccessMode, Cluster, RFileConfig, RegistrationMode};
use remem_bench::Report;
use remem_sim::{Clock, SimDuration};

fn one_config(access: AccessMode, registration: RegistrationMode, bytes: u64) -> SimDuration {
    let cluster = Cluster::builder()
        .memory_servers(1)
        .memory_per_server(128 << 20)
        .build();
    let mut clock = Clock::new();
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

    let mut rows = Vec::new();
    let mut small_us = Vec::new();
    let mut large_us = Vec::new();
    for (label, access) in [
        ("sync-spin (paper)", AccessMode::SyncSpin),
        ("async I/O", AccessMode::Async),
        ("adaptive (30us budget)", AccessMode::adaptive()),
    ] {
        let small = one_config(access, RegistrationMode::Staged, 8 << 10);
        let large = one_config(access, RegistrationMode::Staged, 1 << 20);
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", small.as_micros_f64()),
            format!("{:.1}", large.as_micros_f64()),
        ]);
        small_us.push((label.to_string(), small.as_micros_f64()));
        large_us.push((label.to_string(), large.as_micros_f64()));
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
    for (label, reg) in [
        ("pre-registered staging (paper)", RegistrationMode::Staged),
        ("dynamic registration", RegistrationMode::Dynamic),
    ] {
        let lat = one_config(AccessMode::SyncSpin, reg, 8 << 10);
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
    let cluster = Cluster::builder()
        .memory_servers(1)
        .memory_per_server(64 << 20)
        .build();
    let mut clock = Clock::new();
    let t0 = clock.now();
    let _f = cluster
        .remote_file(
            &mut clock,
            cluster.db_server,
            16 << 20,
            RFileConfig::custom(),
        )
        .unwrap();
    let open_cost = clock.now().since(t0);
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
