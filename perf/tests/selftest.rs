//! Self-tests of the benchmark at `--scale 0.02`: every metric the contract
//! names is emitted exactly once with a finite value, simulated metrics and
//! counts repeat exactly for a seed, another seed changes the inputs and
//! still passes the oracles, and the traced pass simulates what the untraced
//! pass does. One test per workload, so the trace files they write differ.

use remem_perf::harness::{Outcome, RunCfg};
use remem_perf::spec;

fn run(workload: &str, seed: u64, trace: bool) -> Outcome {
    let cfg = RunCfg {
        workload: workload.to_string(),
        seed,
        // the fixed phase always runs whole; no time for batches beyond it
        seconds: 1e-6,
        trace,
        scale: 0.02,
    };
    let outcome = remem_perf::run(&cfg).expect("a workload of this name");
    assert!(
        outcome.correct(),
        "{workload} seed {seed} trace {trace}: {} of {} failed; {:?}",
        outcome.failed,
        outcome.attempted,
        outcome.notes
    );
    outcome
}

/// Host-time metrics differ from run to run; everything else must not.
fn repeats_exactly(name: &str) -> bool {
    !(name.contains("host") || name == "setup_s" || name == "peak_rss_mib")
        && name != "trace.overhead_pct"
}

fn exact(outcome: &Outcome) -> Vec<(&str, f64)> {
    outcome
        .metrics
        .iter()
        .filter(|m| repeats_exactly(&m.name))
        .map(|m| (m.name.as_str(), m.value))
        .collect()
}

fn check(workload: &str) {
    let a = run(workload, 1, false);
    let names: Vec<(&str, &str)> = a
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    let expected: Vec<(&str, &str)> = spec::END_TO_END.iter().map(|m| (m.0, m.1)).collect();
    assert_eq!(names, expected, "every end-to-end metric, once, in order");
    for m in &a.metrics {
        assert!(
            m.value.is_finite() && m.value > 0.0,
            "{} = {}",
            m.name,
            m.value
        );
    }
    let again = run(workload, 1, false);
    assert_eq!(exact(&a), exact(&again), "same seed, same simulation");
    assert_eq!(a.attempted, again.attempted);
    let other = run(workload, 2, false);
    assert_ne!(exact(&a), exact(&other), "another seed is another input");

    let t = run(workload, 1, true);
    let names: Vec<(&str, &str)> = t
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    let layers = spec::per_layer();
    let expected: Vec<(&str, &str)> = layers.iter().map(|m| (m.0.as_str(), m.1)).collect();
    assert_eq!(names, expected, "every per-layer metric, once, in order");
    assert!(t.metrics.iter().all(|m| m.value.is_finite()));
    assert_eq!(t.value("trace.sim_drift_ppm"), Some(0.0));
    let again = run(workload, 1, true);
    assert_eq!(exact(&t), exact(&again), "same seed, same counts");
    let trace = std::fs::read_to_string(format!(
        "{}/out/trace_{workload}.json",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("the traced pass writes its trace");
    assert!(trace.contains("\"totals\"") && trace.contains("\"spans\""));
}

#[test]
fn rangescan_ro() {
    check("rangescan_ro");
}

#[test]
fn rangescan_upd() {
    check("rangescan_upd");
}

#[test]
fn hashsort_spill() {
    check("hashsort_spill");
}

#[test]
fn tpcc_rwal() {
    check("tpcc_rwal");
}

#[test]
fn rfile_mix() {
    check("rfile_mix");
}

#[test]
fn an_unknown_workload_is_an_error() {
    let cfg = RunCfg {
        workload: "nope".into(),
        seed: 1,
        seconds: 1.0,
        trace: false,
        scale: 1.0,
    };
    assert!(remem_perf::run(&cfg).is_err());
}
