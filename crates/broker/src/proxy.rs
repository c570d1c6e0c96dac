//! The memory-brokering proxy that runs on every donor server.

use remem_net::{Fabric, MrHandle, NetError, ServerId};
use remem_sim::Clock;

use crate::broker::MemoryBroker;

/// The per-server proxy process of Figure 1.
///
/// It determines memory not committed to local processes, pins it into
/// fixed-size MRs, registers them with the local NIC (paying the
/// pre-registration cost once — Table 1), and offers them to the broker.
/// Local memory pressure reaches the broker directly, as
/// [`MemoryBroker::reclaim`] on this server.
pub struct MemoryProxy {
    server: ServerId,
    mr_bytes: u64,
}

impl MemoryProxy {
    /// `mr_bytes` is the configurable fixed MR size the donor divides its
    /// memory into (§4.2).
    pub fn new(server: ServerId, mr_bytes: u64) -> MemoryProxy {
        assert!(mr_bytes > 0);
        MemoryProxy { server, mr_bytes }
    }

    pub fn server(&self) -> ServerId {
        self.server
    }

    /// Pin, register and offer `bytes` of unused local memory (rounded up to
    /// whole MRs). Registration time is charged to the proxy's clock — not
    /// to any database server, which is the point of pre-registration.
    pub fn donate(
        &self,
        clock: &mut Clock,
        fabric: &Fabric,
        broker: &MemoryBroker,
        bytes: u64,
    ) -> Result<Vec<MrHandle>, NetError> {
        let count = bytes.div_ceil(self.mr_bytes);
        let mut handles = Vec::with_capacity(count as usize);
        for _ in 0..count {
            handles.push(fabric.register_mr(clock, self.server, self.mr_bytes)?);
        }
        broker.offer(self.server, handles.clone());
        Ok(handles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::BrokerConfig;
    use crate::meta::MetaStore;
    use remem_net::NetConfig;
    use remem_sim::SimDuration;

    #[test]
    fn donate_registers_and_offers() {
        let fabric = Fabric::new(NetConfig::default());
        let m = fabric.add_server("M1", 20);
        let broker = MemoryBroker::new(BrokerConfig::default(), MetaStore::new());
        let proxy = MemoryProxy::new(m, 1 << 20);
        let mut clock = Clock::new();
        let handles = proxy.donate(&mut clock, &fabric, &broker, 3 << 20).unwrap();
        assert_eq!(handles.len(), 3);
        assert_eq!(broker.store().available_bytes(), 3 << 20);
        assert_eq!(fabric.server(m).unwrap().nic().mr_count(), 3);
        // registration cost was charged (3 regions of 128 pages each)
        assert!(clock.now().as_nanos() > 0);
    }

    #[test]
    fn donate_rounds_up_to_whole_mrs() {
        let fabric = Fabric::new(NetConfig::default());
        let m = fabric.add_server("M1", 4);
        let broker = MemoryBroker::new(BrokerConfig::default(), MetaStore::new());
        let proxy = MemoryProxy::new(m, 1000);
        let mut clock = Clock::new();
        let handles = proxy.donate(&mut clock, &fabric, &broker, 1500).unwrap();
        assert_eq!(handles.len(), 2);
    }

    #[test]
    fn pressure_path_deregisters_from_nic() {
        let fabric = Fabric::new(NetConfig::default());
        let m = fabric.add_server("M1", 20);
        let broker = MemoryBroker::new(
            BrokerConfig {
                rpc_time: SimDuration::from_micros(100),
                ..Default::default()
            },
            MetaStore::new(),
        );
        let proxy = MemoryProxy::new(m, 1 << 20);
        let mut clock = Clock::new();
        proxy.donate(&mut clock, &fabric, &broker, 4 << 20).unwrap();
        assert_eq!(fabric.server(m).unwrap().nic().mr_count(), 4);
        let reclaimed = broker.reclaim(&fabric, m, 2 << 20);
        assert_eq!(reclaimed, 2 << 20);
        assert_eq!(fabric.server(m).unwrap().nic().mr_count(), 2);
        assert_eq!(broker.store().available_bytes(), 2 << 20);
    }
}
