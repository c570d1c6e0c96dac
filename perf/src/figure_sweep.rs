//! `figure_sweep`: wall-clock of the figure binaries, one after another.
//!
//! The CI fast subset plus one multi-arm update figure, each run as its own
//! process with the two `REMEM_*` directories pointed under `perf/out/`, so
//! nothing committed is overwritten. One operation is one binary; it fails
//! on a non-zero exit or when the fresh report's determinism fingerprint
//! differs from the committed `BENCH_<name>.json` — a faster simulator must
//! still simulate the same thing. It ignores `--seed` and has no simulated
//! metrics of its own, so it is not one of `BENCHMARK.json`'s workloads.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::harness::{Metric, Outcome};

/// The binaries, by the names `crates/bench` gives them.
pub const BINS: [&str; 9] = [
    "repro_fig3_4_io_micro",
    "repro_fig5_multi_mem_servers",
    "repro_fig9_10_rangescan_readonly",
    "repro_qd_sweep",
    "repro_failover_recovery",
    "repro_pushdown_selectivity",
    "repro_sim_throughput",
    "repro_remote_wal",
    "repro_fig7_8_rangescan_updates",
];

fn fingerprint(report: &Path) -> Option<String> {
    let text = std::fs::read_to_string(report).ok()?;
    let rest = text.split("\"fingerprint\": \"").nth(1)?;
    Some(rest.split('"').next()?.to_string())
}

pub fn run() -> Result<Outcome, String> {
    let perf = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = perf.join("..");
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(dir),
        None => root.join("target"),
    };
    // build first, untimed
    let built = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "remem-bench", "--bins", "--target-dir"])
        .arg(&target)
        .current_dir(&root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !built.success() {
        return Err("building the figure binaries failed".into());
    }
    let scratch: PathBuf = perf.join("out").join("figure_sweep");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(scratch.join("results")).map_err(|e| e.to_string())?;

    let mut outcome = Outcome::default();
    let sweep = Instant::now();
    for bin in BINS {
        let t = Instant::now();
        let status = Command::new(target.join("release").join(bin))
            .env("REMEM_BENCH_ROOT", &scratch)
            .env("REMEM_RESULTS_DIR", scratch.join("results"))
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("{bin}: {e}"))?;
        outcome.metrics.push(Metric {
            name: format!("bench.{bin}.host_s"),
            value: t.elapsed().as_secs_f64(),
            unit: "s",
        });
        let report = format!("BENCH_{bin}.json");
        let fresh = fingerprint(&scratch.join(&report));
        let same = fresh.is_some() && fresh == fingerprint(&root.join(&report));
        outcome.attempted += 1;
        if !status.success() || !same {
            outcome.failed += 1;
            outcome.notes.push(format!(
                "{bin}: exit {status}, fingerprint {}",
                if same {
                    "matches"
                } else {
                    "DIFFERS from the committed report"
                }
            ));
        }
    }
    outcome.metrics.insert(
        0,
        Metric {
            name: "host_run_s".into(),
            value: sweep.elapsed().as_secs_f64(),
            unit: "s",
        },
    );
    Ok(outcome)
}
