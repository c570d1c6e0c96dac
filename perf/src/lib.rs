//! # remem-perf — the repository's performance benchmark
//!
//! Five in-process workloads on the paper's Custom design, each measured end
//! to end in both of this repository's currencies — simulated time (what
//! the paper reports) and host time (what the simulation costs) — and, in a
//! separate traced pass, layer by layer. A sixth workload, `figure_sweep`,
//! times the figure binaries and is kept outside `BENCHMARK.json`. The
//! benchmark drives the stack only through public functions and changes no
//! product code. See `README.md` beside this crate for the workloads, the
//! metric glossary and how to read a trace.

pub mod figure_sweep;
pub mod harness;
pub mod layers;
pub mod probes;
pub mod spec;
pub mod timed_device;
pub mod trace;
pub mod workloads {
    pub mod hashsort;
    pub mod rangescan;
    pub mod rfile_mix;
    pub mod tpcc;
}

use harness::{run_traced, run_untraced, Outcome, RunCfg, Workload};
use workloads::{hashsort::HashSort, rangescan::RangeScan, rfile_mix::RfileMix, tpcc::Tpcc};

fn measure<W: Workload>(cfg: &RunCfg, setup: impl Fn(bool) -> W) -> Outcome {
    if cfg.trace {
        run_traced(cfg, &cfg.workload, setup)
    } else {
        run_untraced(cfg, setup)
    }
}

/// Run the workload `cfg` names; `Err` if there is none of that name.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    Ok(match cfg.workload.as_str() {
        "rangescan_ro" => measure(cfg, |traced| RangeScan::setup(cfg, traced, false)),
        "rangescan_upd" => measure(cfg, |traced| RangeScan::setup(cfg, traced, true)),
        "hashsort_spill" => measure(cfg, |traced| HashSort::setup(cfg, traced)),
        "tpcc_rwal" => measure(cfg, |traced| Tpcc::setup(cfg, traced)),
        "rfile_mix" => measure(cfg, |traced| RfileMix::setup(cfg, traced)),
        "figure_sweep" => figure_sweep::run()?,
        other => return Err(format!("no workload named {other:?}")),
    })
}
