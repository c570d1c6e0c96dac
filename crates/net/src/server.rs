//! A cluster machine: CPU cores + NIC + liveness.

use std::sync::atomic::{AtomicBool, Ordering};

use std::sync::Arc;

use remem_sim::CpuPool;

use crate::config::NetConfig;
use crate::nic::Nic;

/// Identifier of a server within a [`crate::Fabric`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub usize);

/// A machine in the cluster (Table 3 hardware): 20 cores, a ConnectX-3 NIC.
///
/// Both the database servers (`DB_i`) and the memory servers (`M_j`) of
/// Figure 1 are `Server`s — the only difference is whether their memory is
/// committed locally or registered with the broker.
#[derive(Debug)]
pub struct Server {
    id: ServerId,
    name: String,
    cpu: Arc<CpuPool>,
    nic: Nic,
    alive: AtomicBool,
}

impl Server {
    pub fn new(id: ServerId, name: impl Into<String>, cores: usize, cfg: &NetConfig) -> Server {
        Server {
            id,
            name: name.into(),
            cpu: Arc::new(CpuPool::new(cores)),
            nic: Nic::new(cfg),
            alive: AtomicBool::new(true),
        }
    }

    pub fn id(&self) -> ServerId {
        self.id
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn cpu(&self) -> &CpuPool {
        &self.cpu
    }

    /// Shared handle to the core pool, so a database engine hosted on this
    /// server charges the same cores that TCP transfers consume (Fig. 13).
    pub fn cpu_handle(&self) -> Arc<CpuPool> {
        Arc::clone(&self.cpu)
    }

    pub fn nic(&self) -> &Nic {
        &self.nic
    }

    pub(crate) fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Crash the server. Registered memory becomes unreachable; in-flight
    /// and future transfers fail with `ServerDown` (best-effort semantics).
    pub fn fail(&self) {
        self.alive.store(false, Ordering::Release);
    }

    /// Restart after a crash. Memory contents were lost at `fail()` time in
    /// a real machine; callers that restart a server must re-register MRs.
    pub fn restart(&self) {
        self.alive.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let s = Server::new(ServerId(0), "M1", 20, &NetConfig::default());
        assert!(s.is_alive());
        assert_eq!(s.name(), "M1");
        assert_eq!(s.cpu().cores(), 20);
        s.fail();
        assert!(!s.is_alive());
        s.restart();
        assert!(s.is_alive());
    }
}
