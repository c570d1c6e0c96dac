//! `rfile_mix`: the remote-file layer alone, no engine above it.
//!
//! One `replicas = 2` remote file over three donors with spread placement.
//! Its lower half holds immutable slotted pages of `pushdown::table_row`s;
//! its upper half is a raw region the harness mirrors in a shadow copy.
//! Sixteen clients issue 70 % 8 KiB reads, 24 % 8 KiB writes, 2 % vectored
//! reads of 64 pages, 3 % pushdown scans of 16 pages at 1 % selectivity and
//! 1 % vectored writes of 16 pages. One donor is crashed before the third
//! batch of the fixed phase and restarted before the fifth, so failover and
//! re-replication are part of the measured work.

use std::sync::Arc;

use remem::{Cluster, PlacementPolicy, RFileConfig, RemoteFile};
use remem_engine::page::{Page, PAGE_SIZE};
use remem_engine::Database;
use remem_sim::rng::SimRng;
use remem_sim::Clock;
use remem_storage::PushdownProgram;
use remem_workloads::pushdown::{bucket_program, table_row, BUCKET_SPACE};

use crate::harness::{scaled, Deck, Env, Phase, RunCfg, Workload};
use crate::layers::Layers;
use crate::trace::Name;

const PAGE: u64 = PAGE_SIZE as u64;
const SELECTIVITY: f64 = 0.01;
const VECTORED_READ_PAGES: usize = 64;
const VECTORED_WRITE_PAGES: u64 = 16;
const PUSHDOWN_PAGES: u64 = 16;
/// Every this-many-th read (scalar or vectored) is compared with the shadow.
const VERIFY_EVERY: u64 = 16;
/// The donor is down from the first of these batches to the second.
const CRASH_AT_BATCH: usize = 2;
const RESTART_AT_BATCH: usize = 4;

#[derive(Clone, Copy)]
enum Verb {
    Read,
    Write,
    ReadVectored,
    Pushdown,
    WriteVectored,
}

const VERBS: [Verb; 5] = [
    Verb::Read,
    Verb::Write,
    Verb::ReadVectored,
    Verb::Pushdown,
    Verb::WriteVectored,
];
/// Operations of each verb in a deck of a hundred, in `VERBS` order.
const VERB_MIX: [usize; 5] = [70, 24, 2, 3, 1];

pub struct RfileMix {
    env: Env,
    file: Arc<RemoteFile>,
    /// Pages of the table half; the raw half has as many.
    table_pages: u64,
    shadow: Vec<u8>,
    /// Per table page: rows on it, and rows the pushdown predicate selects.
    rows_on_page: Vec<u32>,
    matches_on_page: Vec<u32>,
    program: PushdownProgram,
    rng: SimRng,
    mix: Deck,
    batch_ops: u64,
    reads: u64,
    donor_down: bool,
    /// Largest simulated op latency while the donor was down.
    failover_lat_max_ns: u64,
    page_buf: Vec<u8>,
    vectored_bufs: Vec<Vec<u8>>,
    /// Root and `RemoteFile`-call span of each verb, in `Verb` order.
    names: [(Name, Name); 5],
}

impl RfileMix {
    pub fn setup(cfg: &RunCfg, traced: bool) -> RfileMix {
        let table_pages = scaled(4_096, cfg.scale, 128);
        let size = 2 * table_pages * PAGE;
        let mut env = Env::new(
            traced,
            Cluster::builder()
                .memory_servers(3)
                // two copies over three donors, and room for the survivors
                // to take the crashed donor's share
                .memory_per_server(size + size / 4)
                .placement(PlacementPolicy::Spread),
        );
        let file = env
            .cluster
            .remote_file(
                &mut env.clock,
                env.cluster.db_server,
                size,
                RFileConfig {
                    replicas: 2,
                    fault_log: Some(Arc::clone(&env.fault_log)),
                    ..RFileConfig::custom()
                },
            )
            .expect("create the remote file");
        env.remote_user_bytes = size;
        let ppm = (SELECTIVITY * BUCKET_SPACE as f64).round() as i64;
        let mut shadow = vec![0u8; size as usize];
        let (mut rows_on_page, mut matches_on_page) = (Vec::new(), Vec::new());
        let mut key = 0i64;
        let t = std::time::Instant::now();
        for p in 0..table_pages {
            let mut page = Page::new();
            let (mut rows, mut matches) = (0u32, 0u32);
            loop {
                let row = table_row(key);
                if page.insert(&row.to_bytes()).is_none() {
                    break;
                }
                rows += 1;
                matches += u32::from(row.int(0) < ppm);
                key += 1;
            }
            rows_on_page.push(rows);
            matches_on_page.push(matches);
            file.write(&mut env.clock, p * PAGE, page.as_bytes())
                .expect("load a table page");
            page_of_mut(&mut shadow, p).copy_from_slice(page.as_bytes());
        }
        env.load_rows = key as u64;
        env.load_host_s = t.elapsed().as_secs_f64();
        let tracer = Arc::clone(&env.tracer);
        let names = [
            "read",
            "write",
            "read_vectored",
            "pushdown",
            "write_vectored",
        ]
        .map(|v| {
            (
                tracer.name(&format!("op.{v}")),
                tracer.name(&format!("rfile.{v}")),
            )
        });
        let mut w = RfileMix {
            env,
            file,
            table_pages,
            shadow,
            rows_on_page,
            matches_on_page,
            program: bucket_program(SELECTIVITY),
            rng: SimRng::seeded(cfg.seed),
            mix: Deck::new(&VERB_MIX),
            batch_ops: scaled(40_000, cfg.scale, 400),
            reads: 0,
            donor_down: false,
            failover_lat_max_ns: 0,
            page_buf: vec![0u8; PAGE_SIZE],
            vectored_bufs: vec![vec![0u8; PAGE_SIZE]; VECTORED_READ_PAGES],
            names,
        };
        let mut clock = Clock::starting_at(w.env.clock.now());
        for _ in 0..w.batch_ops / 4 {
            assert!(w.op(0, &mut clock), "warm-up op failed");
        }
        w.env.clock = clock;
        w
    }

    fn run(&mut self, verb: Verb, clock: &mut Clock) -> bool {
        let (tracer, file) = (&self.env.tracer, &self.file);
        let (rng, pages) = (&mut self.rng, self.table_pages);
        let call = self.names[verb as usize].1;
        match verb {
            Verb::Read => {
                let page = rng.uniform(0, 2 * pages);
                let buf = &mut self.page_buf;
                if tracer
                    .span(call, clock, |c| file.read(c, page * PAGE, buf))
                    .is_err()
                {
                    return false;
                }
                self.reads += 1;
                !self.reads.is_multiple_of(VERIFY_EVERY)
                    || self.page_buf == page_of(&self.shadow, page)
            }
            Verb::Write => {
                let page = pages + rng.uniform(0, pages);
                fresh_pattern(rng, &mut self.page_buf);
                let data = &self.page_buf;
                if tracer
                    .span(call, clock, |c| file.write(c, page * PAGE, data))
                    .is_err()
                {
                    return false;
                }
                page_of_mut(&mut self.shadow, page).copy_from_slice(data);
                true
            }
            Verb::ReadVectored => {
                let wanted: Vec<u64> = (0..VECTORED_READ_PAGES)
                    .map(|_| rng.uniform(0, 2 * pages))
                    .collect();
                let mut reqs: Vec<(u64, &mut [u8])> = wanted
                    .iter()
                    .zip(self.vectored_bufs.iter_mut())
                    .map(|(&p, b)| (p * PAGE, b.as_mut_slice()))
                    .collect();
                let results = tracer.span(call, clock, |c| file.read_vectored(c, &mut reqs));
                if results.iter().any(Result::is_err) {
                    return false;
                }
                self.reads += 1;
                !self.reads.is_multiple_of(VERIFY_EVERY)
                    || wanted
                        .iter()
                        .zip(&self.vectored_bufs)
                        .all(|(&p, b)| b.as_slice() == page_of(&self.shadow, p))
            }
            Verb::Pushdown => {
                let first = rng.uniform(0, pages - PUSHDOWN_PAGES + 1);
                let scan = tracer.span(call, clock, |c| {
                    file.read_pushdown(c, first * PAGE, PUSHDOWN_PAGES * PAGE, &self.program)
                });
                let Ok(scan) = scan else { return false };
                // fetch-then-filter on the shadow, counted at load time
                let span = first as usize..(first + PUSHDOWN_PAGES) as usize;
                let scanned: u32 = self.rows_on_page[span.clone()].iter().sum();
                let matched: u32 = self.matches_on_page[span].iter().sum();
                scan.rows_scanned == u64::from(scanned) && scan.rows_matched == u64::from(matched)
            }
            Verb::WriteVectored => {
                // distinct, non-adjacent pages of the raw half
                let stride = 3;
                let first = pages + rng.uniform(0, pages - VECTORED_WRITE_PAGES * stride);
                fresh_pattern(rng, &mut self.page_buf);
                let data = self.page_buf.as_slice();
                let reqs: Vec<(u64, &[u8])> = (0..VECTORED_WRITE_PAGES)
                    .map(|i| ((first + i * stride) * PAGE, data))
                    .collect();
                let results = tracer.span(call, clock, |c| file.write_vectored(c, &reqs));
                if results.iter().any(Result::is_err) {
                    return false;
                }
                for i in 0..VECTORED_WRITE_PAGES {
                    page_of_mut(&mut self.shadow, first + i * stride).copy_from_slice(data);
                }
                true
            }
        }
    }
}

fn page_of(image: &[u8], page: u64) -> &[u8] {
    let at = (page * PAGE) as usize;
    &image[at..at + PAGE_SIZE]
}

fn page_of_mut(image: &mut [u8], page: u64) -> &mut [u8] {
    let at = (page * PAGE) as usize;
    &mut image[at..at + PAGE_SIZE]
}

/// Fill `buf` with a fresh seeded pattern.
fn fresh_pattern(rng: &mut SimRng, buf: &mut [u8]) {
    let word = rng.next_u64().to_le_bytes();
    for chunk in buf.chunks_exact_mut(8) {
        chunk.copy_from_slice(&word);
    }
}

impl Workload for RfileMix {
    fn env(&self) -> &Env {
        &self.env
    }

    fn db(&self) -> Option<&Arc<Database>> {
        None
    }

    fn clients(&self) -> usize {
        16
    }

    fn batch_ops(&self) -> u64 {
        self.batch_ops
    }

    fn fixed_batches(&self) -> usize {
        6
    }

    fn max_batches(&self) -> usize {
        30
    }

    fn before_batch(&mut self, index: usize, clock: &mut Clock) {
        let donor = self.env.cluster.memory_servers[0];
        if index == CRASH_AT_BATCH {
            self.env.cluster.crash_memory_server(donor);
            self.donor_down = true;
        } else if index == RESTART_AT_BATCH {
            self.env.cluster.restart_memory_server(clock, donor);
            self.donor_down = false;
        }
    }

    fn op(&mut self, _client: usize, clock: &mut Clock) -> bool {
        let verb = VERBS[self.mix.draw(&mut self.rng)];
        let t0 = clock.now();
        self.env.tracer.enter(self.names[verb as usize].0, clock);
        let ok = self.run(verb, clock);
        self.env.tracer.exit(clock);
        if self.donor_down {
            let lat = clock.now().since(t0).as_nanos();
            self.failover_lat_max_ns = self.failover_lat_max_ns.max(lat);
        }
        ok
    }

    /// Every page of the file, read back one last time, equals the shadow.
    fn finish(&mut self, clock: &mut Clock) -> (u64, u64) {
        let pages = 2 * self.table_pages;
        let mut wrong = 0;
        for page in 0..pages {
            let read = self.file.read(clock, page * PAGE, &mut self.page_buf);
            wrong += u64::from(read.is_err() || self.page_buf != page_of(&self.shadow, page));
        }
        (pages, wrong)
    }

    fn fill_layers(&mut self, layers: &mut Layers, _untraced: &Phase) {
        layers.set(
            "rfile.failover.sim_lat_max_us",
            self.failover_lat_max_ns as f64 / 1e3,
        );
    }
}
