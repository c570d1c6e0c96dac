//! Cluster assembly: fabric + broker + donor proxies in one call.

use std::sync::Arc;

use remem_broker::{BrokerConfig, MemoryBroker, MemoryProxy, MetaStore, PlacementPolicy};
use remem_net::{Fabric, NetConfig, ServerId};
use remem_rfile::{RFileConfig, RemoteFile, RemoteRing};
use remem_sim::{Clock, MetricsRegistry};
use remem_storage::StorageError;

/// The simulated cluster of Figure 1: one fabric, one (fault-tolerant)
/// broker, a primary database server, and `n` memory-donor servers whose
/// proxies have pinned, registered and offered their spare memory.
pub struct Cluster {
    pub fabric: Arc<Fabric>,
    pub broker: Arc<MemoryBroker>,
    /// The first database server (more can be added).
    pub db_server: ServerId,
    pub memory_servers: Vec<ServerId>,
    /// Donation parameters, kept so a restarted donor re-donates the same
    /// amount it originally offered.
    mr_bytes: u64,
    memory_per_server: u64,
    /// Telemetry registry shared by the fabric, broker and (by default)
    /// every remote file opened through [`Cluster::remote_file`].
    metrics: Option<Arc<MetricsRegistry>>,
}

/// Builder for [`Cluster`].
pub struct ClusterBuilder {
    broker: BrokerConfig,
    memory_servers: usize,
    memory_per_server: u64,
    mr_bytes: u64,
    cores: usize,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl Default for ClusterBuilder {
    fn default() -> ClusterBuilder {
        ClusterBuilder {
            broker: BrokerConfig::default(),
            memory_servers: 1,
            memory_per_server: 64 << 20,
            mr_bytes: 1 << 20,
            cores: 20,
            metrics: None,
        }
    }
}

impl ClusterBuilder {
    /// Spread leases across donors instead of packing one donor first.
    pub fn placement(mut self, p: PlacementPolicy) -> Self {
        self.broker.placement = p;
        self
    }

    pub fn memory_servers(mut self, n: usize) -> Self {
        self.memory_servers = n;
        self
    }

    pub fn memory_per_server(mut self, bytes: u64) -> Self {
        self.memory_per_server = bytes;
        self
    }

    /// Fixed MR size donors divide their memory into (§4.2).
    pub fn mr_bytes(mut self, bytes: u64) -> Self {
        self.mr_bytes = bytes;
        self
    }

    pub fn cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Attach a telemetry registry to the whole cluster: the fabric and
    /// broker publish into it, and remote files opened through
    /// [`Cluster::remote_file`] inherit it unless their config names one.
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    pub fn build(self) -> Cluster {
        let fabric = Arc::new(Fabric::new(NetConfig::default()));
        let broker = Arc::new(MemoryBroker::new(self.broker, MetaStore::new()));
        if let Some(m) = &self.metrics {
            fabric.set_metrics(Some(Arc::clone(m)));
            broker.set_metrics(Some(Arc::clone(m)));
        }
        let db_server = fabric.add_server("DB1", self.cores);
        let mut memory_servers = Vec::with_capacity(self.memory_servers);
        for i in 0..self.memory_servers {
            let m = fabric.add_server(format!("M{}", i + 1), self.cores);
            let proxy = MemoryProxy::new(m, self.mr_bytes);
            let mut proxy_clock = Clock::new();
            proxy
                .donate(&mut proxy_clock, &fabric, &broker, self.memory_per_server)
                .expect("donate memory");
            memory_servers.push(m);
        }
        Cluster {
            fabric,
            broker,
            db_server,
            memory_servers,
            mr_bytes: self.mr_bytes,
            memory_per_server: self.memory_per_server,
            metrics: self.metrics,
        }
    }
}

impl Cluster {
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// Add another database server (multi-DB experiments, Figs. 6 and 25).
    pub fn add_db_server(&self, name: impl Into<String>, cores: usize) -> ServerId {
        self.fabric.add_server(name, cores)
    }

    /// The cluster-wide telemetry registry, if one was attached.
    pub fn metrics(&self) -> Option<Arc<MetricsRegistry>> {
        self.metrics.clone()
    }

    /// Create and open a remote file of `size` bytes for `local`, leased
    /// from the cluster's donors. Inherits the cluster's telemetry registry
    /// unless `cfg` already carries one.
    pub fn remote_file(
        &self,
        clock: &mut Clock,
        local: ServerId,
        size: u64,
        mut cfg: RFileConfig,
    ) -> Result<Arc<RemoteFile>, StorageError> {
        if cfg.metrics.is_none() {
            cfg.metrics = self.metrics.clone();
        }
        Ok(Arc::new(RemoteFile::create_open(
            clock,
            Arc::clone(&self.fabric),
            Arc::clone(&self.broker),
            local,
            size,
            cfg,
        )?))
    }

    /// Create a replicated remote **WAL ring** of `size` bytes for `local`:
    /// a [`RemoteRing`] over a quorum-written remote file, with the backing
    /// lease marked at the broker as durability-critical ring space
    /// (`broker.wal.ring_bytes`). `cfg.replicas` is clamped up to 2 — a
    /// single-copy ring would turn a donor crash into committed-transaction
    /// loss — and self-heal stays off: ring recovery is failover + archive
    /// replay, never zero-fill.
    pub fn remote_wal_ring(
        &self,
        clock: &mut Clock,
        local: ServerId,
        size: u64,
        mut cfg: RFileConfig,
    ) -> Result<Arc<RemoteRing>, StorageError> {
        cfg.replicas = cfg.replicas.max(2);
        cfg.self_heal = false;
        let file = self.remote_file(clock, local, size, cfg)?;
        self.broker
            .mark_wal_ring(file.lease_id())
            .map_err(|e| StorageError::Unavailable(e.to_string()))?;
        Ok(Arc::new(RemoteRing::new(file)))
    }

    /// Unleased memory available across all donors.
    pub fn available_remote_bytes(&self) -> u64 {
        self.broker.store().available_bytes()
    }

    /// Crash a memory server: the fabric starts refusing its traffic, its
    /// NIC forgets every registered MR (their contents are gone — stale
    /// handles must not read resurrected bytes after a restart), and the
    /// broker is told so it can degrade or revoke the affected leases.
    pub fn crash_memory_server(&self, server: ServerId) {
        let s = self.fabric.server(server).expect("known server");
        s.fail();
        s.nic().deregister_all();
        self.broker.server_failed(server);
    }

    /// Restart a crashed memory server end-to-end: bring it back on the
    /// fabric, tell the broker it may be used as a donor again, and re-run
    /// its proxy's pin-register-donate sequence (its memory comes back
    /// empty, like a rebooted machine's).
    pub fn restart_memory_server(&self, clock: &mut Clock, server: ServerId) {
        self.fabric.server(server).expect("known server").restart();
        self.broker.server_recovered(server);
        MemoryProxy::new(server, self.mr_bytes)
            .donate(clock, &self.fabric, &self.broker, self.memory_per_server)
            .expect("re-donate after restart");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_provisions_donors() {
        let c = Cluster::builder()
            .memory_servers(3)
            .memory_per_server(8 << 20)
            .mr_bytes(1 << 20)
            .build();
        assert_eq!(c.memory_servers.len(), 3);
        assert_eq!(c.available_remote_bytes(), 24 << 20);
        assert_eq!(c.fabric.server_count(), 4);
    }

    #[test]
    fn remote_file_round_trip_through_cluster() {
        let c = Cluster::builder()
            .memory_servers(2)
            .memory_per_server(8 << 20)
            .build();
        let mut clock = Clock::new();
        let f = c
            .remote_file(&mut clock, c.db_server, 4 << 20, RFileConfig::custom())
            .unwrap();
        f.write(&mut clock, 1000, b"cluster-bytes").unwrap();
        let mut out = vec![0u8; 13];
        f.read(&mut clock, 1000, &mut out).unwrap();
        assert_eq!(&out, b"cluster-bytes");
        assert_eq!(c.available_remote_bytes(), 12 << 20);
    }
}
