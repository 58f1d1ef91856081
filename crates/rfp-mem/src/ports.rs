//! L1 data-cache port arbitration.
//!
//! The paper's central bandwidth argument: L1 read ports are scarce, demand
//! loads must never be delayed by prefetches, and RFP therefore bids for
//! ports at the *lowest* priority (§3.2). Figure 14 evaluates an alternative
//! with extra ports *dedicated* to RFP; [`PortConfig::dedicated_rfp`] models
//! that.

use rfp_obs::{Probe, ProbeEvent};
use rfp_types::{ConfigError, Cycle};

/// Who is requesting an L1 port this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortClient {
    /// A demand load (or a load re-execution). Highest priority.
    DemandLoad,
    /// A register-file prefetch. Lowest priority; may also have its own
    /// dedicated pool.
    Rfp,
    /// An early L1 probe launched by an address predictor (DLVP). Uses
    /// leftover demand-port bandwidth like RFP does.
    ApProbe,
}

/// L1 port pool configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortConfig {
    /// Ports usable by demand loads (and, when free, by prefetches/probes).
    pub load_ports: usize,
    /// Extra ports reserved exclusively for RFP requests (Fig. 14's
    /// "dedicated ports" configuration; 0 in the baseline).
    pub dedicated_rfp: usize,
}

impl PortConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when no load port exists.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.load_ports == 0 {
            return Err(ConfigError::new("load_ports", "must be nonzero"));
        }
        Ok(())
    }
}

/// Cycle-by-cycle port arbiter.
///
/// Call [`LoadPorts::begin_cycle`] once per simulated cycle, then
/// [`LoadPorts::try_acquire`] for each requester in priority order (the
/// caller — the core's issue stage — naturally asks for demand loads before
/// prefetches).
///
/// # Examples
///
/// ```
/// use rfp_mem::{LoadPorts, PortClient, PortConfig};
///
/// let mut p = LoadPorts::new(PortConfig { load_ports: 2, dedicated_rfp: 0 }).unwrap();
/// p.begin_cycle(100);
/// assert!(p.try_acquire(PortClient::DemandLoad));
/// assert!(p.try_acquire(PortClient::Rfp));      // second port is free
/// assert!(!p.try_acquire(PortClient::Rfp));     // out of ports this cycle
/// ```
#[derive(Debug, Clone)]
pub struct LoadPorts {
    config: PortConfig,
    cycle: Cycle,
    shared_used: usize,
    dedicated_used: usize,
    granted_demand: u64,
    granted_rfp: u64,
    granted_probe: u64,
    denied_rfp: u64,
}

impl LoadPorts {
    /// Creates an arbiter.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for an invalid [`PortConfig`].
    pub fn new(config: PortConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(LoadPorts {
            config,
            cycle: 0,
            shared_used: 0,
            dedicated_used: 0,
            granted_demand: 0,
            granted_rfp: 0,
            granted_probe: 0,
            denied_rfp: 0,
        })
    }

    /// Returns the configuration.
    pub fn config(&self) -> PortConfig {
        self.config
    }

    /// Resets per-cycle port usage. Idempotent within a cycle.
    pub fn begin_cycle(&mut self, cycle: Cycle) {
        if cycle != self.cycle {
            self.cycle = cycle;
            self.shared_used = 0;
            self.dedicated_used = 0;
        }
    }

    /// Attempts to take one port for `client` in the current cycle.
    pub fn try_acquire(&mut self, client: PortClient) -> bool {
        match client {
            PortClient::DemandLoad => {
                if self.shared_used < self.config.load_ports {
                    self.shared_used += 1;
                    self.granted_demand += 1;
                    true
                } else {
                    false
                }
            }
            PortClient::Rfp => {
                if self.dedicated_used < self.config.dedicated_rfp {
                    self.dedicated_used += 1;
                    self.granted_rfp += 1;
                    true
                } else if self.config.dedicated_rfp == 0
                    && self.shared_used < self.config.load_ports
                {
                    // Baseline: RFP opportunistically uses leftover demand
                    // ports. With dedicated ports configured, RFP stays off
                    // the demand ports entirely (Fig. 14's split).
                    self.shared_used += 1;
                    self.granted_rfp += 1;
                    true
                } else {
                    self.denied_rfp += 1;
                    false
                }
            }
            PortClient::ApProbe => {
                if self.shared_used < self.config.load_ports {
                    self.shared_used += 1;
                    self.granted_probe += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// [`LoadPorts::try_acquire`], but reporting denials to `probe` as
    /// [`ProbeEvent::PortDenied`] (port-contention instants in traces).
    pub fn try_acquire_with<P: Probe>(
        &mut self,
        client: PortClient,
        now: Cycle,
        probe: &mut P,
    ) -> bool {
        let granted = self.try_acquire(client);
        if P::ENABLED && !granted {
            let idx = match client {
                PortClient::DemandLoad => 0,
                PortClient::Rfp => 1,
                PortClient::ApProbe => 2,
            };
            probe.emit(now, ProbeEvent::PortDenied { client: idx });
        }
        granted
    }

    /// Free shared (demand) ports remaining this cycle.
    pub fn free_shared(&self) -> usize {
        self.config.load_ports - self.shared_used
    }

    /// (demand, rfp, probe) grants since construction.
    pub fn grants(&self) -> (u64, u64, u64) {
        (self.granted_demand, self.granted_rfp, self.granted_probe)
    }

    /// RFP port denials since construction.
    pub fn rfp_denials(&self) -> u64 {
        self.denied_rfp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ports(load: usize, dedicated: usize) -> LoadPorts {
        LoadPorts::new(PortConfig {
            load_ports: load,
            dedicated_rfp: dedicated,
        })
        .unwrap()
    }

    #[test]
    fn demand_has_priority_by_order_of_asking() {
        let mut p = ports(1, 0);
        p.begin_cycle(1);
        assert!(p.try_acquire(PortClient::DemandLoad));
        assert!(!p.try_acquire(PortClient::Rfp));
        assert_eq!(p.rfp_denials(), 1);
    }

    #[test]
    fn ports_replenish_each_cycle() {
        let mut p = ports(1, 0);
        p.begin_cycle(1);
        assert!(p.try_acquire(PortClient::DemandLoad));
        p.begin_cycle(2);
        assert!(p.try_acquire(PortClient::DemandLoad));
    }

    #[test]
    fn begin_cycle_is_idempotent_within_a_cycle() {
        let mut p = ports(1, 0);
        p.begin_cycle(3);
        assert!(p.try_acquire(PortClient::DemandLoad));
        p.begin_cycle(3);
        assert!(!p.try_acquire(PortClient::DemandLoad));
    }

    #[test]
    fn dedicated_rfp_ports_do_not_touch_demand_pool() {
        let mut p = ports(2, 2);
        p.begin_cycle(1);
        assert!(p.try_acquire(PortClient::Rfp));
        assert!(p.try_acquire(PortClient::Rfp));
        // Dedicated pool exhausted; RFP must NOT spill into demand ports.
        assert!(!p.try_acquire(PortClient::Rfp));
        assert!(p.try_acquire(PortClient::DemandLoad));
        assert!(p.try_acquire(PortClient::DemandLoad));
    }

    #[test]
    fn probe_shares_demand_ports() {
        let mut p = ports(2, 0);
        p.begin_cycle(1);
        assert!(p.try_acquire(PortClient::ApProbe));
        assert!(p.try_acquire(PortClient::DemandLoad));
        assert!(!p.try_acquire(PortClient::DemandLoad));
        assert_eq!(p.grants(), (1, 0, 1));
    }

    #[test]
    fn try_acquire_with_reports_denials() {
        struct DenialProbe(Vec<u8>);
        impl Probe for DenialProbe {
            const ENABLED: bool = true;
            fn emit(&mut self, _cycle: Cycle, event: ProbeEvent) {
                if let ProbeEvent::PortDenied { client } = event {
                    self.0.push(client);
                }
            }
        }
        let mut p = ports(1, 0);
        let mut probe = DenialProbe(Vec::new());
        p.begin_cycle(1);
        assert!(p.try_acquire_with(PortClient::DemandLoad, 1, &mut probe));
        assert!(!p.try_acquire_with(PortClient::Rfp, 1, &mut probe));
        assert!(!p.try_acquire_with(PortClient::DemandLoad, 1, &mut probe));
        assert_eq!(probe.0, vec![1, 0]);
    }

    #[test]
    fn zero_load_ports_rejected() {
        assert!(LoadPorts::new(PortConfig {
            load_ports: 0,
            dedicated_rfp: 1
        })
        .is_err());
    }
}
