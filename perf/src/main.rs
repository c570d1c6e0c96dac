//! `remem-perf --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--scale F]`
//!
//! Prints every metric by name with its unit, then — as the last line of
//! standard output — one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Exits non-zero if an operation or an oracle failed.

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use remem_perf::harness::{Outcome, RunCfg};
use remem_perf::spec;

const USAGE: &str =
    "usage: remem-perf --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--scale F]";

fn parse_args(args: &[String]) -> Result<RunCfg, String> {
    let mut cfg = RunCfg {
        workload: String::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        scale: 1.0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--scale" => cfg.scale = value.parse().map_err(|_| bad())?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    if cfg.workload.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    if !(cfg.seconds > 0.0 && cfg.scale > 0.0 && cfg.scale <= 4.0) {
        return Err(format!(
            "--seconds must be positive and --scale in (0, 4]\n{USAGE}"
        ));
    }
    Ok(cfg)
}

/// The result line the driver reads.
fn result_json(outcome: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Each workload in a process of its own, so `peak_rss_mib` is that
/// workload's and a panic in one does not stop the rest.
fn run_all(args: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let names = spec::WORKLOADS
        .iter()
        .map(|&(name, _)| name)
        .chain(["figure_sweep"]);
    let mut failed = Vec::new();
    for name in names {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed before");
        child_args[at + 1] = name.to_string();
        let ok = Command::new(&exe)
            .args(&child_args)
            .status()
            .is_ok_and(|s| s.success());
        if !ok {
            failed.push(name);
        }
    }
    if failed.is_empty() {
        println!("== all workloads correct");
        ExitCode::SUCCESS
    } else {
        println!("== FAILED: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

/// Keep freed memory in the process instead of returning it to the system.
///
/// glibc trims the heap top whenever enough of it is free; `hashsort_spill`
/// frees ~100 MiB of rows after every query and allocates them again for the
/// next, so each query faulted its memory in anew and `host_us_per_op`
/// varied by 6 % from run to run with the state of the kernel's page
/// allocator. With trimming off it varies by 1 %, and peak memory reads 5 %
/// higher. The setting is the benchmark's, the same on every commit.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    // SAFETY: `mallopt` is glibc's own tunable setter, takes two plain
    // integers, and is called before any other thread exists; it touches no
    // memory this program owns.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_freed_memory() {}

fn main() -> ExitCode {
    keep_freed_memory();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if cfg.workload == "all" {
        return run_all(&args);
    }
    println!(
        "== {} (seed {}, {} s, scale {}, trace {})",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.scale,
        u8::from(cfg.trace)
    );
    // a panic inside the program under test is a failed run, not a crash
    // without a result line
    let outcome = match std::panic::catch_unwind(|| remem_perf::run(&cfg)) {
        Ok(Ok(outcome)) => outcome,
        Ok(Err(msg)) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
        Err(_) => Outcome {
            attempted: 1,
            failed: 1,
            notes: vec!["the workload panicked (message above)".into()],
            ..Outcome::default()
        },
    };
    for note in &outcome.notes {
        println!("   {note}");
    }
    for m in &outcome.metrics {
        println!("{:<44} {:>18.4} {}", m.name, m.value, m.unit);
    }
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!("a metric is not a finite number");
    }
    println!("{}", result_json(&outcome));
    if outcome.correct() && finite {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
