//! The design alternatives of Table 5, as buildable configurations.

use std::sync::Arc;

use remem_engine::{Database, DbConfig, DeviceSet};
use remem_net::ServerId;
use remem_rfile::RFileConfig;
use remem_sim::Clock;
use remem_storage::{Device, HddArray, HddConfig, Ssd, SsdConfig, StorageError};

use crate::cluster::Cluster;

/// One row of Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// Data, log and TempDB on the RAID-0 HDD array; no BPExt.
    Hdd,
    /// TempDB (and, for OLTP, BPExt) on the local SSD.
    HddSsd,
    /// TempDB + BPExt in remote memory over SMB/TCP to a RamDrive.
    SmbRamDrive,
    /// TempDB + BPExt in remote memory over SMB Direct to a RamDrive.
    SmbDirectRamDrive,
    /// The paper's implementation: lightweight file API over NDSPI RDMA.
    Custom,
    /// Upper bound: the remote-memory budget is available locally instead.
    LocalMemory,
}

impl Design {
    /// All six alternatives, in Table 5 order.
    pub const ALL: [Design; 6] = [
        Design::Hdd,
        Design::HddSsd,
        Design::SmbRamDrive,
        Design::SmbDirectRamDrive,
        Design::Custom,
        Design::LocalMemory,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Design::Hdd => "HDD",
            Design::HddSsd => "HDD+SSD",
            Design::SmbRamDrive => "SMB+RamDrive",
            Design::SmbDirectRamDrive => "SMBDirect+RamDrive",
            Design::Custom => "Custom",
            Design::LocalMemory => "Local Memory",
        }
    }

    /// Does this design lease remote memory?
    pub fn uses_remote_memory(self) -> bool {
        matches!(
            self,
            Design::SmbRamDrive | Design::SmbDirectRamDrive | Design::Custom
        )
    }

    fn rfile_config(self) -> RFileConfig {
        match self {
            Design::SmbRamDrive => RFileConfig::smb_tcp(),
            Design::SmbDirectRamDrive => RFileConfig::smb_direct(),
            _ => RFileConfig::custom(),
        }
    }
}

/// Sizing knobs shared by all designs (the Table 4 columns).
#[derive(Debug, Clone)]
pub struct DbOptions {
    /// Local buffer pool ("Local Mem").
    pub pool_bytes: u64,
    /// BPExt size when the design has one.
    pub bpext_bytes: u64,
    /// TempDB size.
    pub tempdb_bytes: u64,
    /// HDD spindles in the RAID-0 array (4 / 8 / 20 in the paper).
    pub spindles: usize,
    /// Data-file device capacity.
    pub data_bytes: u64,
    /// OLTP workload: store BPExt on SSD in the HDD+SSD design (Table 5's
    /// discussion — analytics workloads disable it).
    pub oltp: bool,
    /// Query workspace (None → the engine default of 60 % of the pool).
    pub workspace_bytes: Option<u64>,
    /// Replication factor of the remote-memory devices. `1` (default) is
    /// the paper's single-copy design. `k ≥ 2` places every stripe on `k`
    /// distinct donors with quorum writes and read failover — which makes
    /// TempDB spill remote-durable (a donor crash no longer aborts the
    /// query) at the cost of `k×` remote memory and the quorum-ack wait.
    pub replicas: usize,
    /// Ship the WAL to a replicated remote ring (remote-memory designs
    /// only). Commit groups are quorum-written at `max(replicas, 2)`, the
    /// log device becomes the ring's lazy archive, and recovery replays
    /// REDO from the surviving ring image instead of the spindles.
    pub remote_wal: bool,
    /// Remote WAL ring capacity (only read when `remote_wal` is set).
    pub wal_ring_bytes: u64,
    /// Chaos-audit log the remote files record retries, repairs and
    /// failovers into (shared with the fault injector by the harnesses).
    pub fault_log: Option<Arc<remem_sim::FaultLog>>,
    /// Telemetry registry the engine publishes into. When `None` the
    /// cluster-wide registry (if any) is used, so one
    /// `ClusterBuilder::metrics` call covers fabric, broker, remote files
    /// AND the databases built on top.
    pub metrics: Option<Arc<remem_sim::MetricsRegistry>>,
}

impl DbOptions {
    /// A small configuration suitable for tests and examples. This is the
    /// one place every field is spelled out: every other configuration in
    /// the workspace is a struct update (`..DbOptions::small()`), so a new
    /// knob is added here and nowhere else.
    pub fn small() -> DbOptions {
        DbOptions {
            pool_bytes: 8 << 20,
            bpext_bytes: 32 << 20,
            tempdb_bytes: 32 << 20,
            spindles: 20,
            data_bytes: 256 << 20,
            oltp: true,
            workspace_bytes: None,
            replicas: 1,
            remote_wal: false,
            wal_ring_bytes: 8 << 20,
            fault_log: None,
            metrics: None,
        }
    }

    /// The RangeScan row of Table 4 at 1/1000: 32 GB local / 128 GB BPExt /
    /// 8 GB TempDB become 32 / 128 / 8 MiB, on a 512 MiB data file. The
    /// `rangescan_ro` / `rangescan_upd` benchmark workloads build on it; the
    /// Fig 7–11 binaries use the smaller `remem_bench::rangescan_opts`.
    pub fn rangescan() -> DbOptions {
        DbOptions {
            pool_bytes: 32 << 20,
            bpext_bytes: 128 << 20,
            tempdb_bytes: 8 << 20,
            data_bytes: 512 << 20,
            ..DbOptions::small()
        }
    }
}

impl Design {
    /// Build a database on `cluster.db_server` with this design's device
    /// wiring. Remote-memory designs lease MRs from the cluster's donors.
    pub fn build(
        self,
        cluster: &Cluster,
        clock: &mut Clock,
        opts: &DbOptions,
    ) -> Result<Arc<Database>, StorageError> {
        self.build_for(cluster, clock, cluster.db_server, opts)
    }

    /// Build on a specific database server (multi-DB experiments).
    pub fn build_for(
        self,
        cluster: &Cluster,
        clock: &mut Clock,
        server: ServerId,
        opts: &DbOptions,
    ) -> Result<Arc<Database>, StorageError> {
        // resolve the server before anything is leased, so an unknown id
        // fails cleanly instead of stranding remote memory
        let cpu = cluster
            .fabric
            .server(server)
            .map_err(|e| StorageError::Unavailable(e.to_string()))?
            .cpu_handle();
        let hdd = |capacity: u64| -> Arc<dyn Device> {
            Arc::new(HddArray::new(HddConfig::with_spindles(
                opts.spindles,
                capacity,
            )))
        };
        let ssd = |capacity: u64| -> Arc<dyn Device> {
            Arc::new(Ssd::new(SsdConfig::with_capacity(capacity)))
        };
        let data = hdd(opts.data_bytes);
        // the log is a dedicated sequential stream on its own array, sized
        // like the data (it is append-only and never reclaimed here)
        let log = hdd(opts.data_bytes.max(256 << 20));
        let mut wal_ring = None;
        let (tempdb, bpext): (Arc<dyn Device>, Option<Arc<dyn Device>>) = match self {
            Design::Hdd => (hdd(opts.tempdb_bytes), None),
            Design::HddSsd => (
                ssd(opts.tempdb_bytes),
                if opts.oltp {
                    Some(ssd(opts.bpext_bytes))
                } else {
                    None
                },
            ),
            Design::LocalMemory => (ssd(opts.tempdb_bytes), None),
            Design::SmbRamDrive | Design::SmbDirectRamDrive | Design::Custom => {
                let mut cfg = self.rfile_config();
                cfg.fault_log = opts.fault_log.clone();
                cfg.replicas = opts.replicas;
                // TempDB holds spill data that exists nowhere else, so it
                // must NOT self-heal: a zero-filled replacement stripe would
                // silently corrupt results. At `replicas ≥ 2` the spill
                // becomes remote-durable anyway — a donor crash fails over to
                // the surviving copy instead of aborting the query — while
                // self_heal stays off so a slot that loses *every* copy still
                // fails loudly. The BPExt is a cache of pages whose truth
                // lives in the data file, so it re-leases lost stripes, or
                // its whole lease after a revocation, freely.
                let tempdb = cluster.remote_file(clock, server, opts.tempdb_bytes, cfg.clone())?;
                let bpext = cluster.remote_file(
                    clock,
                    server,
                    opts.bpext_bytes,
                    RFileConfig {
                        self_heal: true,
                        ..cfg.clone()
                    },
                )?;
                if opts.remote_wal {
                    // ship the WAL: commit groups quorum-write into a k ≥ 2
                    // ring (clamped inside remote_wal_ring) and the log
                    // device demotes to the ring's lazy archive
                    wal_ring =
                        Some(cluster.remote_wal_ring(clock, server, opts.wal_ring_bytes, cfg)?);
                }
                (tempdb as Arc<dyn Device>, Some(bpext as Arc<dyn Device>))
            }
        };
        // Local Memory gets the remote-memory budget added to its pool
        let pool = match self {
            Design::LocalMemory => opts.pool_bytes + opts.bpext_bytes,
            _ => opts.pool_bytes,
        };
        let mut cfg = DbConfig::with_pool(pool);
        if let Some(ws) = opts.workspace_bytes {
            cfg.workspace_bytes = ws;
        }
        cfg.metrics = opts.metrics.clone().or_else(|| cluster.metrics());
        let db = Arc::new(Database::new(
            cfg,
            cpu,
            DeviceSet {
                data,
                log,
                tempdb,
                bpext,
                wal_ring,
            },
        ));
        db.set_fault_log(opts.fault_log.clone());
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remem_engine::exec::int_row;
    use remem_engine::row::ColType;
    use remem_engine::Schema;

    fn cluster() -> Cluster {
        Cluster::builder()
            .memory_servers(2)
            .memory_per_server(64 << 20)
            .build()
    }

    #[test]
    fn all_designs_build_and_answer_queries() {
        for design in Design::ALL {
            let c = cluster(); // fresh donors per design
            let mut clock = Clock::new();
            let db = design.build(&c, &mut clock, &DbOptions::small()).unwrap();
            let t = db
                .create_table(
                    &mut clock,
                    Schema::new(vec![("k", ColType::Int), ("v", ColType::Int)]),
                    0,
                )
                .unwrap();
            for k in 0..100 {
                db.insert(&mut clock, t, int_row(&[k, k * 7])).unwrap();
            }
            assert_eq!(
                db.get(&mut clock, t, 50).unwrap().unwrap().int(1),
                350,
                "design {}",
                design.label()
            );
            // remote designs consumed leases; local ones did not
            if design.uses_remote_memory() {
                db.checkpoint(&mut clock).unwrap();
            }
        }
    }

    #[test]
    fn remote_designs_lease_memory_local_ones_do_not() {
        for design in Design::ALL {
            let c = cluster();
            let before = c.available_remote_bytes();
            let mut clock = Clock::new();
            let _db = design.build(&c, &mut clock, &DbOptions::small()).unwrap();
            let after = c.available_remote_bytes();
            if design.uses_remote_memory() {
                assert!(after < before, "{} should lease", design.label());
            } else {
                assert_eq!(after, before, "{} must not lease", design.label());
            }
        }
    }

    #[test]
    fn unknown_server_is_an_error_and_leases_nothing() {
        for design in Design::ALL {
            let c = cluster();
            let before = c.available_remote_bytes();
            let mut clock = Clock::new();
            let built = design.build_for(&c, &mut clock, ServerId(999), &DbOptions::small());
            assert!(
                built.is_err(),
                "{} must reject ServerId(999)",
                design.label()
            );
            assert_eq!(c.available_remote_bytes(), before, "{}", design.label());
        }
    }

    #[test]
    fn local_memory_design_enlarges_the_pool() {
        let c = cluster();
        let mut clock = Clock::new();
        let opts = DbOptions::small();
        let local = Design::LocalMemory.build(&c, &mut clock, &opts).unwrap();
        let custom = Design::Custom.build(&c, &mut clock, &opts).unwrap();
        assert!(
            local.buffer_pool().frame_count() > custom.buffer_pool().frame_count(),
            "Local Memory should hold the BPExt budget in its pool"
        );
    }

    #[test]
    fn cluster_metrics_flow_end_to_end() {
        let registry = remem_sim::MetricsRegistry::shared();
        let c = Cluster::builder()
            .memory_servers(2)
            .memory_per_server(64 << 20)
            .metrics(Arc::clone(&registry))
            .build();
        let mut clock = Clock::new();
        let mut opts = DbOptions::small();
        opts.pool_bytes = 8 * 8192; // tiny pool so the BPExt sees traffic
        let db = Design::Custom.build(&c, &mut clock, &opts).unwrap();
        let t = db
            .create_table(&mut clock, Schema::new(vec![("k", ColType::Int)]), 0)
            .unwrap();
        for k in 0..20_000 {
            db.insert(&mut clock, t, int_row(&[k])).unwrap();
        }
        for k in 0..20_000 {
            db.get(&mut clock, t, k).unwrap().unwrap();
        }
        // one registry saw every layer: broker leases, network verbs, the
        // remote file, the buffer pool and the metered device roles
        assert!(
            registry.counter("broker.leases.granted").get() >= 2,
            "tempdb + bpext each lease remote memory"
        );
        assert!(registry.counter("nic.write.ops").get() > 0);
        assert!(registry.counter("rfile.write.ops").get() > 0);
        assert!(registry.counter("bp.misses").get() > 0);
        assert!(registry.counter("storage.bpext.write.ops").get() > 0);
        // spans nest storage.bpext.write → rfile.write → net.write
        assert!(registry.span_stats("storage.bpext.write").count > 0);
        assert!(registry.span_stats("rfile.write").count > 0);
        assert!(registry.span_stats("net.write").count > 0);
        let outer = registry.span_stats("storage.bpext.write");
        assert!(
            outer.self_time < outer.total,
            "rfile time must nest as child time"
        );
        assert!(!registry.snapshot().is_empty());
    }

    #[test]
    fn replicated_custom_design_survives_a_donor_crash() {
        let c = Cluster::builder()
            .memory_servers(3)
            .memory_per_server(96 << 20)
            .build();
        let mut clock = Clock::new();
        let mut opts = DbOptions::small();
        opts.replicas = 2;
        opts.pool_bytes = 8 * 8192; // tiny pool so the BPExt sees traffic
        let db = Design::Custom.build(&c, &mut clock, &opts).unwrap();
        let t = db
            .create_table(&mut clock, Schema::new(vec![("k", ColType::Int)]), 0)
            .unwrap();
        for k in 0..5_000 {
            db.insert(&mut clock, t, int_row(&[k])).unwrap();
        }
        // Kill one donor mid-workload. Every stripe has a surviving copy on
        // a distinct server (broker anti-affinity), so both the BPExt cache
        // and the unhealable TempDB keep serving without data loss.
        c.crash_memory_server(c.memory_servers[0]);
        for k in 5_000..10_000 {
            db.insert(&mut clock, t, int_row(&[k])).unwrap();
        }
        for k in 0..10_000 {
            assert_eq!(
                db.get(&mut clock, t, k).unwrap().unwrap().int(0),
                k,
                "row {k} must survive the donor crash"
            );
        }
    }

    #[test]
    fn insufficient_donor_memory_fails_cleanly() {
        let c = Cluster::builder()
            .memory_servers(1)
            .memory_per_server(1 << 20)
            .build();
        let mut clock = Clock::new();
        let err = Design::Custom.build(&c, &mut clock, &DbOptions::small());
        assert!(err.is_err());
    }
}
