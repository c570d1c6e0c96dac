//! What every workload shares: the environment (cluster, database, tracer),
//! the measured closed loop, and the untraced and traced runs built on it.
//!
//! A run is one closed loop — the workload's logical clients on one
//! [`ClosedLoopDriver`] — cut into *batches* of a fixed number of operations.
//! A batch is only a window for host timing: clients do not wait for each
//! other at its end. The first [`Workload::fixed_batches`] batches are the
//! *fixed phase*: every simulated metric, count and latency comes from its
//! operations alone. Operations run to completion one at a time, so what
//! follows the fixed phase cannot reach back into it, and those numbers
//! repeat exactly for a seed however fast the host is. Further batches run
//! until `--seconds` have passed and only add samples to the host-time
//! median.

use std::sync::Arc;
use std::time::Instant;

use remem::{Cluster, ClusterBuilder, DbOptions, Design, RFileConfig};
use remem_engine::{Database, DbConfig, DeviceSet};
use remem_sim::rng::SimRng;
use remem_sim::{
    Clock, ClosedLoopDriver, FaultLog, Histogram, MetricsRegistry, SimDuration, SimTime,
};
use remem_storage::{Device, HddArray, HddConfig, StorageError};

use crate::layers::{self, Counters, Layers};
use crate::spec;
use crate::timed_device::TimedDevice;
use crate::trace::Tracer;

/// A horizon no run reaches: batches end by operation count, not by time.
const FAR: SimTime = SimTime(u64::MAX / 2);
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One invocation's arguments.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Multiplies table sizes and operation counts (self-tests use 0.02).
    pub scale: f64,
}

/// `n` scaled by `scale`, never below `min`.
pub fn scaled(n: u64, scale: f64, min: u64) -> u64 {
    ((n as f64 * scale).round() as u64).max(min)
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one invocation reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed above the result (sample counts, sizes).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The simulated cluster a workload runs on, with the benchmark's recorders.
pub struct Env {
    pub cluster: Cluster,
    /// Attached to the cluster in the traced pass only (existing fabric,
    /// broker and `rfile` telemetry; nothing new inside the program).
    pub registry: Option<Arc<MetricsRegistry>>,
    pub tracer: Arc<Tracer>,
    pub fault_log: Arc<FaultLog>,
    /// The set-up clock: loading and warm-up advance it.
    pub clock: Clock,
    /// Remote-file bytes asked for (before replication).
    pub remote_user_bytes: u64,
    /// Rows loaded during set-up and the host seconds that took.
    pub load_rows: u64,
    pub load_host_s: f64,
}

impl Env {
    pub fn new(traced: bool, builder: ClusterBuilder) -> Env {
        let registry = traced.then(MetricsRegistry::shared);
        let builder = match &registry {
            Some(r) => builder.metrics(Arc::clone(r)),
            None => builder,
        };
        Env {
            cluster: builder.build(),
            registry,
            tracer: Arc::new(Tracer::new()),
            fault_log: Arc::new(FaultLog::new()),
            clock: Clock::new(),
            remote_user_bytes: 0,
            load_rows: 0,
            load_host_s: 0.0,
        }
    }

    pub fn traced(&self) -> bool {
        self.registry.is_some()
    }

    /// Build the database in the paper's Custom design. Untraced: the
    /// product's own `Design::Custom.build`. Traced: the same wiring by hand
    /// with a [`TimedDevice`] around every role and `DbConfig.metrics` left
    /// unset (see `timed_device`); `trace.sim_drift_ppm` checks the two
    /// stay equal.
    pub fn database(&mut self, opts: &DbOptions) -> Arc<Database> {
        let opts = DbOptions {
            fault_log: Some(Arc::clone(&self.fault_log)),
            ..opts.clone()
        };
        self.remote_user_bytes += opts.tempdb_bytes + opts.bpext_bytes;
        if opts.remote_wal {
            self.remote_user_bytes += opts.wal_ring_bytes;
        }
        if self.traced() {
            self.database_by_hand(&opts)
        } else {
            Design::Custom.build(&self.cluster, &mut self.clock, &opts)
        }
        .expect("build the Custom design")
    }

    fn database_by_hand(&mut self, opts: &DbOptions) -> Result<Arc<Database>, StorageError> {
        let (cluster, clock) = (&self.cluster, &mut self.clock);
        let server = cluster.db_server;
        let hdd = |capacity: u64| -> Arc<dyn Device> {
            Arc::new(HddArray::new(HddConfig::with_spindles(
                opts.spindles,
                capacity,
            )))
        };
        let data = hdd(opts.data_bytes);
        let log = hdd(opts.data_bytes.max(256 << 20));
        let rcfg = RFileConfig {
            fault_log: opts.fault_log.clone(),
            replicas: opts.replicas,
            ..RFileConfig::custom()
        };
        // same lease order as Design::build_for, so placement is identical
        let tempdb = cluster.remote_file(clock, server, opts.tempdb_bytes, rcfg.clone())?;
        let bpext = cluster.remote_file(
            clock,
            server,
            opts.bpext_bytes,
            RFileConfig {
                self_heal: true,
                ..rcfg.clone()
            },
        )?;
        let wal_ring = if opts.remote_wal {
            Some(cluster.remote_wal_ring(clock, server, opts.wal_ring_bytes, rcfg)?)
        } else {
            None
        };
        let mut cfg = DbConfig::with_pool(opts.pool_bytes);
        if let Some(ws) = opts.workspace_bytes {
            cfg.workspace_bytes = ws;
        }
        let cpu = cluster
            .fabric
            .server(server)
            .expect("db server exists")
            .cpu_handle();
        let wrap = |dev: Arc<dyn Device>, role: &str| TimedDevice::wrap(dev, &self.tracer, role);
        let db = Arc::new(Database::new(
            cfg,
            cpu,
            DeviceSet {
                data: wrap(data, "data"),
                log: wrap(log, "log"),
                tempdb: wrap(tempdb, "tempdb"),
                bpext: Some(wrap(bpext, "bpext")),
                wal_ring,
            },
        ));
        db.set_fault_log(opts.fault_log.clone());
        Ok(db)
    }

    /// Cumulative utilisation of the database server's cores up to `at`.
    pub fn db_cpu_util(&self, at: SimTime) -> f64 {
        self.cluster
            .fabric
            .server(self.cluster.db_server)
            .expect("db server exists")
            .cpu()
            .utilization(at)
    }
}

/// One benchmark workload. Set-up (cluster, leases, load, checkpoint,
/// warm-up) is the constructor each workload module provides.
pub trait Workload {
    fn env(&self) -> &Env;
    /// The database under test, if the workload has one.
    fn db(&self) -> Option<&Arc<Database>>;
    /// Logical closed-loop clients.
    fn clients(&self) -> usize;
    /// Operations per batch.
    fn batch_ops(&self) -> u64;
    /// Batches of the fixed phase.
    fn fixed_batches(&self) -> usize;
    /// Most batches a run may execute (bounds what an unreclaimed log or a
    /// growing table can hold).
    fn max_batches(&self) -> usize;
    /// Called before the first operation of batch `index`, on the clock of
    /// the client about to issue it.
    fn before_batch(&mut self, _index: usize, _clock: &mut Clock) {}
    /// Run one operation on `clock`; `false` if it failed or its oracle did.
    fn op(&mut self, client: usize, clock: &mut Clock) -> bool;
    /// End-of-run oracles, run at `clock`; returns `(checked, failed)`.
    fn finish(&mut self, clock: &mut Clock) -> (u64, u64);
    /// Workload-specific per-layer metrics. `untraced` is the fixed phase of
    /// the untraced pass.
    fn fill_layers(&mut self, _layers: &mut Layers, _untraced: &Phase) {}
}

/// What one closed loop measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Simulated latency of every operation of the fixed phase, as issued.
    pub lat_ns: Vec<u64>,
    /// Simulated time from the start to the instant the first operation
    /// after the fixed phase is (or would be) issued.
    pub sim_ns: u64,
    /// Host time of each batch, fixed phase first.
    pub batch_host_ns: Vec<u64>,
    /// Operations run and failed, fixed phase and beyond.
    pub ops: u64,
    pub failed: u64,
    /// The latest instant any client reached.
    pub end: SimTime,
}

impl Phase {
    /// Operations of the fixed phase.
    pub fn fixed_ops(&self) -> u64 {
        self.lat_ns.len() as u64
    }

    pub fn sim_ops_per_s(&self) -> f64 {
        self.fixed_ops() as f64 / (self.sim_ns as f64 / 1e9)
    }

    /// The simulated latencies, ascending.
    pub fn sorted_lat(&self) -> Vec<u64> {
        let mut v = self.lat_ns.clone();
        v.sort_unstable();
        v
    }
}

/// Nearest-rank percentile of ascending nanosecond samples, in microseconds.
pub fn percentile_us(sorted: &[u64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64 / 1e3
}

/// Interquartile mean of ascending nanosecond samples, in microseconds: the
/// mean of the middle half. As robust as the median, but it keeps its
/// digits: where most operations cost the same simulated time (a CPU-bound
/// RangeScan) the median reads identically for almost every seed.
pub fn midmean_us(sorted: &[u64]) -> f64 {
    let n = sorted.len();
    let mid = &sorted[n / 4..(n - n / 4).max(n / 4 + 1)];
    mid.iter().sum::<u64>() as f64 / mid.len() as f64 / 1e3
}

/// A mix of operation kinds with exact shares: a deck holding `counts[k]`
/// cards of kind `k`, shuffled by the workload's seeded stream and dealt
/// one card per operation, reshuffled when it runs out. Drawing each
/// operation's kind independently instead would make the share of the
/// expensive kinds — and with it every simulated metric — vary from seed to
/// seed with the binomial noise of the draw, not with the system.
pub struct Deck {
    cards: Vec<u8>,
    next: usize,
}

impl Deck {
    pub fn new(counts: &[usize]) -> Deck {
        let cards: Vec<u8> = counts
            .iter()
            .enumerate()
            .flat_map(|(kind, &n)| std::iter::repeat_n(kind as u8, n))
            .collect();
        Deck {
            next: cards.len(),
            cards,
        }
    }

    pub fn draw(&mut self, rng: &mut SimRng) -> usize {
        if self.next == self.cards.len() {
            rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1] as usize
    }
}

/// Run `w`'s closed loop: a fixed phase of `fixed_batches` batches, then
/// whole batches for as long as `keep_going(batches_done)` says so.
fn run_loop<W: Workload>(
    w: &mut W,
    fixed_batches: usize,
    mut keep_going: impl FnMut(usize) -> bool,
) -> Phase {
    let start = w.env().clock.now();
    let batch_ops = w.batch_ops();
    let mut phase = Phase {
        lat_ns: Vec::with_capacity((batch_ops as usize) * fixed_batches),
        end: start,
        ..Phase::default()
    };
    let mut batch_started = Instant::now();
    let mut done = false;
    let sink = Histogram::new();
    let mut driver = ClosedLoopDriver::new(w.clients(), FAR).starting_at(start);
    driver.run_outcome(&sink, |client, clock| {
        if !done && phase.ops.is_multiple_of(batch_ops) {
            // a batch boundary: `clock` is where the next batch's first
            // operation starts
            let batches = (phase.ops / batch_ops) as usize;
            if batches > 0 {
                let host = batch_started.elapsed().as_nanos() as u64;
                phase.batch_host_ns.push(host);
            }
            if batches == fixed_batches {
                phase.sim_ns = clock.now().since(start).as_nanos();
            }
            done = batches >= fixed_batches && !keep_going(batches);
            if !done {
                w.before_batch(batches, clock);
                batch_started = Instant::now();
            }
        }
        if done {
            // retire this client (the sample lands in `sink`)
            clock.advance_to(FAR);
            return;
        }
        let t0 = clock.now();
        let ok = w.op(client, clock);
        let t1 = clock.now();
        if t1 == t0 {
            // a failed op may have charged nothing; the driver needs progress
            clock.advance(SimDuration::from_nanos(1));
        }
        if phase.lat_ns.len() < phase.lat_ns.capacity() {
            phase.lat_ns.push(t1.since(t0).as_nanos());
        }
        phase.ops += 1;
        phase.failed += u64::from(!ok);
        phase.end = phase.end.max(clock.now());
    });
    phase
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// The untraced run: set up, the fixed phase, more batches until `seconds`
/// have passed, the end-of-run oracles; then set up `SETUPS - 1` more times,
/// only to time it. (Measuring after every set-up and pooling the batches
/// was tried: batches of a fresh process and of a warmed one form two
/// clusters, and the median of the pool is less steady than that of either.)
pub fn run_untraced<W: Workload>(cfg: &RunCfg, setup: impl Fn(bool) -> W) -> Outcome {
    let timed_setup = || {
        let t = Instant::now();
        let w = setup(false);
        (w, t.elapsed().as_secs_f64())
    };
    let (mut w, first_setup_s) = timed_setup();
    let (clients, batch_ops, fixed_batches) = (w.clients(), w.batch_ops(), w.fixed_batches());
    let max_batches = w.max_batches();
    let started = Instant::now();
    let run = run_loop(&mut w, fixed_batches, |batches| {
        started.elapsed().as_secs_f64() < cfg.seconds && batches < max_batches
    });
    let mut end = Clock::starting_at(run.end);
    let (checked, wrong) = w.finish(&mut end);
    // Peak memory is read before the set-up is repeated, so that it is one
    // set-up's plus its run, whatever the allocator reuses afterwards.
    let peak_rss = peak_rss_mib();
    drop(w);
    let mut setup_s = vec![first_setup_s];
    for _ in 1..SETUPS {
        setup_s.push(timed_setup().1);
    }

    let per_op_us: Vec<f64> = run
        .batch_host_ns
        .iter()
        .map(|&ns| ns as f64 / batch_ops as f64 / 1e3)
        .collect();
    let sorted = run.sorted_lat();
    let values = [
        median(&setup_s),
        median(&per_op_us),
        run.sim_ops_per_s(),
        midmean_us(&sorted),
        percentile_us(&sorted, 99.0),
        peak_rss,
    ];
    let metrics = spec::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _, _), value)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect();
    Outcome {
        attempted: run.ops + checked,
        failed: run.failed + wrong,
        metrics,
        notes: vec![
            format!(
                "{} clients, {} ops/batch, {} batches of which the first {} are the fixed phase, {} set-ups",
                clients,
                batch_ops,
                per_op_us.len(),
                fixed_batches,
                SETUPS
            ),
            format!(
                "sim_* from the {} ops of the fixed phase; host_us_per_op is the median over all batches",
                run.fixed_ops()
            ),
        ],
    }
}

/// The traced run: the fixed phase untraced, then again on a traced set-up;
/// per-layer metrics come from the second, and the two must agree on every
/// simulated latency.
pub fn run_traced<W: Workload>(cfg: &RunCfg, name: &str, setup: impl Fn(bool) -> W) -> Outcome {
    let untraced = {
        let mut w = setup(false);
        let fixed_batches = w.fixed_batches();
        run_loop(&mut w, fixed_batches, |_| false)
    };
    let mut w = setup(true);
    let registry = Arc::clone(w.env().registry.as_ref().expect("traced set-up"));
    for h in ["fabric.batch.size", "fabric.quorum.straggler_lag"] {
        registry.histogram(h).reset();
    }
    let before = Counters::take(&w, &registry, w.env().clock.now());
    w.env().tracer.set_enabled(true);
    let fixed_batches = w.fixed_batches();
    let traced = run_loop(&mut w, fixed_batches, |_| false);
    w.env().tracer.set_enabled(false);
    let after = Counters::take(&w, &registry, traced.end);

    let mut layers = Layers::new();
    let sums = layers::fill_measured(&mut layers, &w, &traced, &before, &after);
    let mut end = Clock::starting_at(traced.end);
    if let Some(db) = w.db().cloned() {
        layers::wal_probes(&db, &mut end, &mut layers);
    }
    w.fill_layers(&mut layers, &untraced);
    crate::probes::fill(&mut layers);

    // the traced pass must simulate exactly what the untraced pass did, and
    // per-layer self times must sum to the operations' simulated time
    let host_ns = |phase: &Phase| phase.batch_host_ns.iter().sum::<u64>();
    let drift_ppm =
        (traced.sim_ns as f64 - untraced.sim_ns as f64).abs() / untraced.sim_ns as f64 * 1e6;
    let same = traced.lat_ns == untraced.lat_ns && traced.sim_ns == untraced.sim_ns;
    layers.set("trace.sim_drift_ppm", drift_ppm);
    layers.set(
        "trace.overhead_pct",
        (host_ns(&traced) as f64 / host_ns(&untraced) as f64 - 1.0) * 100.0,
    );
    let lat_sum: u64 = traced.lat_ns.iter().sum();
    let summed = sums.self_sim_ns == sums.op_sim_ns && sums.op_sim_ns == lat_sum;

    let (checked, wrong) = w.finish(&mut end);
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = out_dir.join(format!("trace_{name}.json"));
    let header = [
        format!("\"workload\": \"{name}\""),
        format!("\"seed\": {}", cfg.seed),
        format!("\"scale\": {}", cfg.scale),
        format!("\"phase_ops\": {}", traced.ops),
        format!("\"phase_sim_ns\": {}", traced.sim_ns),
        format!("\"phase_host_ns\": {}", host_ns(&traced)),
        format!("\"op_sim_total_ns\": {}", sums.op_sim_ns),
        format!("\"op_host_total_ns\": {}", sums.op_host_ns),
        format!("\"self_sim_total_ns\": {}", sums.self_sim_ns),
        format!("\"latency_sim_total_ns\": {lat_sum}"),
    ];
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&path, w.env().tracer.to_json(&header)))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));

    Outcome {
        attempted: untraced.ops + traced.ops + checked + 2,
        failed: untraced.failed + traced.failed + wrong + u64::from(!same) + u64::from(!summed),
        metrics: layers.into_metrics(),
        notes: vec![
            format!(
                "fixed phase of {} ops run untraced, then traced; per-layer metrics are the traced pass's",
                traced.ops
            ),
            format!(
                "traced simulated latencies {} the untraced ones; span self times {} to the op time",
                if same { "equal" } else { "DIFFER FROM" },
                if summed { "sum" } else { "DO NOT SUM" }
            ),
            format!("trace written to {}", path.display()),
        ],
    }
}
