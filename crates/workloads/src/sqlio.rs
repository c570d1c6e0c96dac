//! SQLIO-style raw I/O micro-benchmark (§6.1, Figs. 3-6).
//!
//! Drives any [`Device`] — a local disk model or a remote-memory file —
//! with the paper's two access patterns: 20 threads of random 8 KiB reads
//! and 5 threads of sequential 512 KiB reads.

use remem_sim::rng::SimRng;
use remem_sim::{ClosedLoopDriver, Histogram, SimTime};
use remem_storage::Device;

/// Access pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Uniformly random block reads.
    Random,
    /// Per-thread sequential streams at staggered offsets.
    Sequential,
}

/// Benchmark parameters. Defaults mirror the paper's SQLIO settings.
#[derive(Debug, Clone)]
pub struct SqlioParams {
    pub threads: usize,
    pub block_bytes: u64,
    pub pattern: Pattern,
    pub horizon: SimTime,
    pub seed: u64,
    /// Issue writes instead of reads.
    pub writes: bool,
}

impl SqlioParams {
    /// 20 threads × 8 KiB random reads.
    pub fn random_8k(horizon: SimTime) -> SqlioParams {
        SqlioParams {
            threads: 20,
            block_bytes: 8 * 1024,
            pattern: Pattern::Random,
            horizon,
            seed: 42,
            writes: false,
        }
    }

    /// 5 threads × 512 KiB sequential reads.
    pub fn sequential_512k(horizon: SimTime) -> SqlioParams {
        SqlioParams {
            threads: 5,
            block_bytes: 512 * 1024,
            pattern: Pattern::Sequential,
            horizon,
            seed: 42,
            writes: false,
        }
    }
}

/// Results of one run.
#[derive(Debug, Clone)]
pub struct SqlioReport {
    pub label: String,
    pub ops: u64,
    pub throughput_gbps: f64,
    pub mean_latency_us: f64,
    pub p99_latency_us: f64,
}

/// Run the benchmark against `device`.
///
/// Virtual-time reservations are stateful: a device carries its resource
/// occupancy across runs (as a real disk carries queued work). Benchmarks
/// comparing patterns should use a *fresh* device instance per run.
pub fn run_sqlio(device: &dyn Device, p: &SqlioParams) -> SqlioReport {
    assert!(
        device.capacity() >= p.block_bytes * p.threads as u64,
        "device too small"
    );
    let mut rng = SimRng::seeded(p.seed);
    let blocks = device.capacity() / p.block_bytes;
    let mut driver = ClosedLoopDriver::new(p.threads, p.horizon);
    let latencies = Histogram::new();
    // sequential streams: staggered start offsets, wrapping in-region
    let region = blocks / p.threads as u64;
    let bases: Vec<u64> = (0..p.threads as u64).map(|i| i * region).collect();
    let mut positions: Vec<u64> = bases
        .iter()
        .enumerate()
        .map(|(i, &b)| b + (i as u64 * 4) % region.max(1))
        .collect();
    let mut buf = vec![0u8; p.block_bytes as usize];
    let ops = driver.run(&latencies, |w, clock| {
        let block = match p.pattern {
            Pattern::Random => rng.uniform(0, blocks),
            Pattern::Sequential => {
                let b = positions[w];
                positions[w] += 1;
                if positions[w] >= bases[w] + region {
                    positions[w] = bases[w];
                }
                b
            }
        };
        let offset = block * p.block_bytes;
        if p.writes {
            device.write(clock, offset, &buf).expect("sqlio write");
        } else {
            device.read(clock, offset, &mut buf).expect("sqlio read");
        }
    });
    SqlioReport {
        label: device.label(),
        ops,
        throughput_gbps: ops as f64 * p.block_bytes as f64 / p.horizon.as_secs_f64() / 1e9,
        mean_latency_us: latencies.mean().as_micros_f64(),
        p99_latency_us: latencies.percentile(99.0).as_micros_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remem_storage::{HddArray, HddConfig, RamDisk, Ssd, SsdConfig};

    const HORIZON: SimTime = SimTime(100_000_000); // 100 ms

    #[test]
    fn fig3_fig4_disk_ordering() {
        // fresh device per run: virtual-time occupancy is stateful
        let hdd = || HddArray::new(HddConfig::with_spindles(20, 256 << 20));
        let ssd = || Ssd::new(SsdConfig::with_capacity(256 << 20));
        let hdd_rand = run_sqlio(&hdd(), &SqlioParams::random_8k(HORIZON));
        let ssd_rand = run_sqlio(&ssd(), &SqlioParams::random_8k(HORIZON));
        let hdd_seq = run_sqlio(&hdd(), &SqlioParams::sequential_512k(HORIZON));
        let ssd_seq = run_sqlio(&ssd(), &SqlioParams::sequential_512k(HORIZON));
        // Fig 3: SSD wins random, HDD(20) wins sequential
        assert!(ssd_rand.throughput_gbps > 3.0 * hdd_rand.throughput_gbps);
        assert!(hdd_seq.throughput_gbps > 3.0 * ssd_seq.throughput_gbps);
        // Fig 4: latency ordering matches
        assert!(ssd_rand.mean_latency_us < hdd_rand.mean_latency_us);
    }

    #[test]
    fn sequential_streams_stay_in_their_regions() {
        let ram = RamDisk::new(64 << 20);
        let p = SqlioParams {
            threads: 4,
            ..SqlioParams::sequential_512k(HORIZON)
        };
        let r = run_sqlio(&ram, &p);
        assert!(r.ops > 100);
    }

    #[test]
    fn write_mode_works() {
        let ram = RamDisk::new(16 << 20);
        let p = SqlioParams {
            writes: true,
            ..SqlioParams::random_8k(SimTime(10_000_000))
        };
        let r = run_sqlio(&ram, &p);
        assert!(r.ops > 0);
    }

    #[test]
    #[should_panic(expected = "device too small")]
    fn tiny_device_rejected() {
        let ram = RamDisk::new(1024);
        run_sqlio(&ram, &SqlioParams::random_8k(HORIZON));
    }
}
