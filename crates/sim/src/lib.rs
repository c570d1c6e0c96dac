//! # remem-sim — deterministic virtual-time simulation kernel
//!
//! Every hardware component in this reproduction (NICs, disks, CPUs, network
//! links) charges its costs to *virtual time* instead of wall-clock time.
//! This crate provides the primitives they share:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-precision virtual time.
//! * [`Clock`] — a per-worker virtual clock.
//! * Resources ([`FifoResource`], [`PoolResource`], [`LinkResource`],
//!   [`CpuPool`]) — shared contention points that serialize work using
//!   *reservation in virtual time*: a request starting at worker time `t`
//!   on a resource free at `f` is served during
//!   `[max(t, f), max(t, f) + service)`, which yields linear scaling until
//!   saturation and queueing delay after — the behaviour the paper observes
//!   in Figs. 5, 6 and 25.
//! * [`rng`] — seeded deterministic random distributions (uniform, hotspot,
//!   Zipf) used by the workload generators.
//! * [`metrics`] — histograms, counters and virtual-time series used by the
//!   benchmark harness to print the paper's figures.
//! * [`driver`] — a deterministic closed-loop multi-worker driver that always
//!   advances the worker with the smallest clock, so concurrent workloads are
//!   reproducible down to the nanosecond. It is the only schedule in the
//!   tree (DESIGN.md §8, "Why one driver").

pub mod arena;
pub mod clock;
pub mod driver;
pub mod fault;
pub mod metrics;
pub mod registry;
pub mod resource;
pub mod rng;
pub mod time;

pub use arena::EventQueue;
pub use clock::{Clock, Stopwatch};
pub use driver::{ClosedLoopDriver, RunOutcome};
pub use fault::{FaultEvent, FaultLog, FaultOrigin};
pub use metrics::{Counter, Histogram, TimeSeries};
pub use registry::{Gauge, MetricsRegistry, MetricsSnapshot, SpanId, SpanStats, SpanToken};
pub use resource::{CpuPool, FifoResource, LinkResource, PoolResource};
pub use time::{SimDuration, SimTime};
