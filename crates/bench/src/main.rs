//! `remem-bench` — the perf-regression gate CLI.
//!
//! ```text
//! remem-bench --check <committed_dir> [--current <fresh_dir>]
//! remem-bench --identical <committed_dir> <fresh_dir>
//! remem-bench --throughput <report.json> --floor <floor.json>
//! remem-bench --sweep <fresh_dir>
//! ```
//!
//! Binaries write `BENCH_<name>.json` to `REMEM_BENCH_ROOT` (default: the
//! repo root, where each report is committed once). Point it at a scratch
//! directory for a fresh run, then:
//!
//! `--check` compares every `BENCH_*.json` in the fresh directory
//! (`--current`, default `REMEM_BENCH_ROOT`) with the committed report of
//! the same name, re-deriving every figure's qualitative claims and gauge
//! tolerances (see `src/check.rs`). Exits non-zero on any failed finding —
//! this is what CI's `bench-regression` job gates on.
//!
//! `--identical` asserts that every fresh report carries the same
//! determinism fingerprint as its committed counterpart — CI runs the gated
//! reports twice and gates on this to prove a report replays byte for byte.
//!
//! `--throughput` compares the wall-clock events/sec a report recorded in
//! its volatile section against a committed floor file — the CI gate that
//! catches a simulator slowdown (see `check::throughput_gate`).
//!
//! `--sweep` runs the binary of every committed report, one after another,
//! from the directory this executable lives in, with `REMEM_BENCH_ROOT`
//! set to the fresh directory, and prints each binary's wall-clock seconds
//! and exit status. It exits non-zero if any binary exits above 1 (a
//! binary exits 1 on a failed check). `--sweep <dir>` then `--identical .
//! <dir>` reproduces every fingerprint.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use remem_bench::check::{check_dirs, identical_dirs, throughput_gate};
use remem_bench::report::{bench_root, report_names};
use remem_sim::Stopwatch;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline: Option<PathBuf> = None;
    let mut current: Option<PathBuf> = None;
    let mut identical: Option<(PathBuf, PathBuf)> = None;
    let mut throughput: Option<PathBuf> = None;
    let mut floor: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => baseline = it.next().map(PathBuf::from),
            "--current" => current = it.next().map(PathBuf::from),
            "--throughput" => throughput = it.next().map(PathBuf::from),
            "--floor" => floor = it.next().map(PathBuf::from),
            "--sweep" => match it.next() {
                Some(dir) if args.len() == 2 => return sweep(Path::new(dir)),
                _ => {
                    eprintln!("--sweep takes one directory and no other argument");
                    return usage(ExitCode::FAILURE);
                }
            },
            "--identical" => match (it.next(), it.next()) {
                (Some(a), Some(b)) => identical = Some((PathBuf::from(a), PathBuf::from(b))),
                _ => {
                    eprintln!("--identical needs two directories");
                    return usage(ExitCode::FAILURE);
                }
            },
            "--help" | "-h" => return usage(ExitCode::SUCCESS),
            other => {
                eprintln!("unknown argument `{other}`");
                return usage(ExitCode::FAILURE);
            }
        }
    }
    let findings = if let Some(report) = throughput {
        let Some(floor) = floor else {
            eprintln!("--throughput needs --floor <floor.json>");
            return usage(ExitCode::FAILURE);
        };
        if baseline.is_some() || current.is_some() || identical.is_some() {
            eprintln!("--throughput cannot be combined with --check/--identical");
            return usage(ExitCode::FAILURE);
        }
        println!(
            "remem-bench: gating {} against floor {}",
            report.display(),
            floor.display()
        );
        throughput_gate(&report, &floor)
    } else if let Some((a, b)) = identical {
        if baseline.is_some() || current.is_some() {
            eprintln!("--identical cannot be combined with --check/--current");
            return usage(ExitCode::FAILURE);
        }
        println!(
            "remem-bench: comparing fingerprints of {} and {}",
            a.display(),
            b.display()
        );
        identical_dirs(&a, &b)
    } else {
        let Some(baseline) = baseline else {
            eprintln!("missing --check <committed_dir> (or --identical <a> <b>)");
            return usage(ExitCode::FAILURE);
        };
        let current = current.unwrap_or_else(bench_root);
        println!(
            "remem-bench: checking {} against the committed reports in {}",
            current.display(),
            baseline.display()
        );
        check_dirs(&baseline, &current)
    };
    let findings = match findings {
        Ok(f) => f,
        Err(e) => {
            eprintln!("remem-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failures = 0usize;
    for f in &findings {
        if f.ok {
            println!("  ok   [{}] {}", f.report, f.what);
        } else {
            failures += 1;
            println!("  FAIL [{}] {}", f.report, f.what);
        }
    }
    if failures == 0 {
        println!("remem-bench: {} findings, all pass", findings.len());
        ExitCode::SUCCESS
    } else {
        println!(
            "remem-bench: {failures} of {} findings FAILED",
            findings.len()
        );
        ExitCode::FAILURE
    }
}

/// Run every committed report's binary into `dir`, timing each one.
fn sweep(dir: &Path) -> ExitCode {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let exe = std::env::current_exe().map_err(|e| e.to_string());
    let bins = exe.and_then(|p| p.parent().map(Path::to_path_buf).ok_or("no parent".into()));
    let (names, bins) = match (report_names(&committed), bins) {
        (Ok(names), Ok(bins)) => (names, bins),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("remem-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "remem-bench: running {} binaries from {} into {}",
        names.len(),
        bins.display(),
        dir.display()
    );
    println!("  {:<40} {:>9} {:>5}", "binary", "wall_s", "exit");
    let total = Stopwatch::start();
    let mut broken = 0usize;
    for name in &names {
        let wall = Stopwatch::start();
        let status = Command::new(bins.join(name))
            .env("REMEM_BENCH_ROOT", dir)
            .stdout(Stdio::null())
            .status();
        let secs = wall.elapsed_ms() / 1e3;
        // a binary exits 1 on a failed check; anything else is broken
        let (exit, ok) = match status.map(|s| s.code()) {
            Ok(Some(code)) => (code.to_string(), code <= 1),
            Ok(None) => ("signal".to_string(), false),
            Err(e) => (format!("spawn: {e}"), false),
        };
        broken += usize::from(!ok);
        println!("  {name:<40} {secs:>9.1} {exit:>5}");
    }
    let secs = total.elapsed_ms() / 1e3;
    println!("  {:<40} {secs:>9.1}", "total");
    if broken == 0 {
        ExitCode::SUCCESS
    } else {
        println!(
            "remem-bench: {broken} of {} binaries exited above 1 or did not run",
            names.len()
        );
        ExitCode::FAILURE
    }
}

fn usage(code: ExitCode) -> ExitCode {
    eprintln!("usage: remem-bench --check <committed_dir> [--current <fresh_dir>]");
    eprintln!("       remem-bench --identical <committed_dir> <fresh_dir>");
    eprintln!("       remem-bench --throughput <report.json> --floor <floor.json>");
    eprintln!("       remem-bench --sweep <fresh_dir>");
    code
}
