//! The native (NNF) driver — the paper's contribution.
//!
//! "When a NNF should be used, the compute manager selects a NNF driver
//! developed as part of this work. This NNF driver implements the same
//! abstraction defined for the other compute drivers and dynamically
//! activates the plugin associated to the selected NNF … The NNF driver
//! starts the NNF in a new network namespace, to provide a basic form
//! of isolation, and configures the NNF with a predefined configuration
//! script." — §2.

use std::collections::HashMap;

use un_linux::{Host, IfaceId, NsId};
use un_nffg::NfConfig;
use un_nnf::{GraphBinding, NnfCatalog, NnfContext, NnfPlugin};
use un_packet::Packet;
use un_sim::{AccountId, MemLedger};

use crate::types::{ComputeError, IoOutcome};

struct NativeInstance {
    functional_type: String,
    ns: NsId,
    ports: Vec<IfaceId>,
    base_tag: u64,
    plugin: Box<dyn NnfPlugin>,
    config: NfConfig,
    account: AccountId,
    started: bool,
    shared: bool,
    bindings: Vec<GraphBinding>,
}

/// Driver state: catalogue + instance table.
pub struct NativeDriver {
    /// The node's NNF catalogue (capability set for the orchestrator).
    pub catalog: NnfCatalog,
    instances: HashMap<u64, NativeInstance>,
    /// functional type → instance key, for single-instance NNFs.
    singletons: HashMap<String, u64>,
}

impl Default for NativeDriver {
    fn default() -> Self {
        Self::new()
    }
}

impl NativeDriver {
    /// Fresh driver with the standard CPE catalogue.
    pub fn new() -> Self {
        NativeDriver {
            catalog: NnfCatalog::standard(),
            instances: HashMap::new(),
            singletons: HashMap::new(),
        }
    }

    /// Is there already a live instance of this functional type?
    pub fn existing_instance(&self, functional_type: &str) -> Option<u64> {
        self.singletons.get(functional_type).copied()
    }

    /// Graphs bound to an instance (shared mode).
    pub fn binding_count(&self, key: u64) -> usize {
        self.instances
            .get(&key)
            .map(|i| i.bindings.len())
            .unwrap_or(0)
    }

    /// Create an NNF instance in a fresh namespace with external ports.
    ///
    /// `shared` requests single-port shared mode (only valid for
    /// sharable NNFs; graphs then attach via [`bind_graph`](Self::bind_graph)).
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        &mut self,
        key: u64,
        name: &str,
        functional_type: &str,
        n_ports: usize,
        base_tag: u64,
        shared: bool,
        config: &NfConfig,
        host: &mut Host,
        account: AccountId,
    ) -> Result<(), ComputeError> {
        let desc = self
            .catalog
            .get(functional_type)
            .ok_or_else(|| ComputeError::NoSuchNnf(functional_type.to_string()))?
            .clone();
        if !desc.multi_instance && self.singletons.contains_key(functional_type) {
            return Err(ComputeError::NnfBusy(functional_type.to_string()));
        }
        if shared && !desc.sharable {
            return Err(ComputeError::Unsupported(format!(
                "'{functional_type}' is not sharable"
            )));
        }
        let plugin = self
            .catalog
            .instantiate(functional_type)
            .ok_or_else(|| ComputeError::NoSuchNnf(functional_type.to_string()))?;

        let ns = host.add_namespace(&format!("nnf-{name}"));
        let port_count = if shared {
            1
        } else {
            n_ports.max(desc.min_ports)
        };
        let mut ports = Vec::with_capacity(port_count);
        for i in 0..port_count {
            let ifc = host
                .add_external(ns, &format!("port{i}"), base_tag + i as u64)
                .map_err(|e| ComputeError::Substrate(e.to_string()))?;
            ports.push(ifc);
        }

        if !desc.multi_instance {
            self.singletons.insert(functional_type.to_string(), key);
        }
        self.instances.insert(
            key,
            NativeInstance {
                functional_type: functional_type.to_string(),
                ns,
                ports,
                base_tag,
                plugin,
                config: config.clone(),
                account,
                started: false,
                shared,
                bindings: Vec::new(),
            },
        );
        Ok(())
    }

    /// Start: run the plugin's lifecycle script.
    pub fn start(
        &mut self,
        key: u64,
        host: &mut Host,
        ledger: &mut MemLedger,
    ) -> Result<(), ComputeError> {
        let inst = self
            .instances
            .get_mut(&key)
            .ok_or(ComputeError::NoSuchInstance(key))?;
        let mut ctx = NnfContext {
            host,
            ns: inst.ns,
            ledger,
            account: inst.account,
        };
        inst.plugin
            .start(&mut ctx, &inst.ports, &inst.config)
            .map_err(|e| ComputeError::Substrate(e.to_string()))?;
        inst.started = true;
        Ok(())
    }

    /// Attach another service graph to a shared instance.
    pub fn bind_graph(
        &mut self,
        key: u64,
        binding: &GraphBinding,
        host: &mut Host,
        ledger: &mut MemLedger,
    ) -> Result<(), ComputeError> {
        let inst = self
            .instances
            .get_mut(&key)
            .ok_or(ComputeError::NoSuchInstance(key))?;
        if !inst.shared {
            return Err(ComputeError::Unsupported(
                "instance not in shared mode".into(),
            ));
        }
        let mut ctx = NnfContext {
            host,
            ns: inst.ns,
            ledger,
            account: inst.account,
        };
        inst.plugin
            .bind_graph(&mut ctx, binding)
            .map_err(|e| ComputeError::Substrate(e.to_string()))?;
        inst.bindings.push(binding.clone());
        Ok(())
    }

    /// Detach a service graph from a shared instance.
    pub fn unbind_graph(
        &mut self,
        key: u64,
        graph: &str,
        host: &mut Host,
        ledger: &mut MemLedger,
    ) -> Result<(), ComputeError> {
        let inst = self
            .instances
            .get_mut(&key)
            .ok_or(ComputeError::NoSuchInstance(key))?;
        let Some(pos) = inst.bindings.iter().position(|b| b.graph == graph) else {
            return Err(ComputeError::BadState("graph not bound"));
        };
        let binding = inst.bindings.remove(pos);
        let mut ctx = NnfContext {
            host,
            ns: inst.ns,
            ledger,
            account: inst.account,
        };
        inst.plugin
            .unbind_graph(&mut ctx, &binding)
            .map_err(|e| ComputeError::Substrate(e.to_string()))
    }

    /// Stop the NNF.
    pub fn stop(
        &mut self,
        key: u64,
        host: &mut Host,
        ledger: &mut MemLedger,
    ) -> Result<(), ComputeError> {
        let inst = self
            .instances
            .get_mut(&key)
            .ok_or(ComputeError::NoSuchInstance(key))?;
        if inst.started {
            let mut ctx = NnfContext {
                host,
                ns: inst.ns,
                ledger,
                account: inst.account,
            };
            inst.plugin
                .stop(&mut ctx)
                .map_err(|e| ComputeError::Substrate(e.to_string()))?;
            inst.started = false;
        }
        Ok(())
    }

    /// Remove the instance and release its namespace and ports.
    pub fn destroy(&mut self, key: u64, host: &mut Host) -> Result<(), ComputeError> {
        let inst = self
            .instances
            .remove(&key)
            .ok_or(ComputeError::NoSuchInstance(key))?;
        if inst.started {
            self.instances.insert(key, inst);
            return Err(ComputeError::BadState("destroy while running"));
        }
        self.singletons.retain(|_, v| *v != key);
        host.remove_namespace(inst.ns)
            .map_err(|e| ComputeError::Substrate(e.to_string()))
    }

    /// Unified packet delivery.
    pub fn deliver(&mut self, key: u64, port: u32, pkt: Packet, host: &mut Host) -> IoOutcome {
        let Some(inst) = self.instances.get(&key) else {
            return IoOutcome::default();
        };
        let Some(&iface) = inst.ports.get(port as usize) else {
            return IoOutcome::default();
        };
        let base = inst.base_tag;
        let n = inst.ports.len() as u64;
        Self::tag_filter(base, n, host.inject(iface, pkt))
    }

    /// Batched delivery: resolve the instance and its port map once,
    /// then inject the whole burst. Returns one `IoOutcome` per input
    /// frame, in order, so callers keep per-frame accounting.
    pub fn deliver_batch(
        &mut self,
        key: u64,
        frames: Vec<(u32, Packet)>,
        host: &mut Host,
    ) -> Vec<IoOutcome> {
        let Some(inst) = self.instances.get(&key) else {
            return frames.iter().map(|_| IoOutcome::default()).collect();
        };
        let base = inst.base_tag;
        let n = inst.ports.len() as u64;
        frames
            .into_iter()
            .map(|(port, pkt)| match inst.ports.get(port as usize) {
                Some(&iface) => Self::tag_filter(base, n, host.inject(iface, pkt)),
                None => IoOutcome::default(),
            })
            .collect()
    }

    /// Keep only the emissions tagged into this instance's port range,
    /// rebased to instance-local port numbers.
    fn tag_filter(base: u64, n: u64, res: un_linux::IoResult) -> IoOutcome {
        IoOutcome {
            outputs: res
                .emitted
                .into_iter()
                .filter(|(tag, _)| *tag >= base && *tag < base + n)
                .map(|(tag, p)| ((tag - base) as u32, p))
                .collect(),
            cost: res.cost,
        }
    }

    /// Native "image" footprint: the package size from the catalogue.
    pub fn image_footprint(&self, functional_type: &str) -> u64 {
        self.catalog
            .get(functional_type)
            .map(|d| d.package_bytes)
            .unwrap_or(0)
    }

    /// The namespace of an instance (diagnostics / tests).
    pub fn namespace_of(&self, key: u64) -> Option<NsId> {
        self.instances.get(&key).map(|i| i.ns)
    }

    /// The functional type of an instance.
    pub fn functional_type_of(&self, key: u64) -> Option<&str> {
        self.instances.get(&key).map(|i| i.functional_type.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use un_sim::CostModel;

    fn ipsec_config() -> NfConfig {
        NfConfig::default()
            .with_param("psk", "hunter2")
            .with_param("local-addr", "192.0.2.1")
            .with_param("peer-addr", "192.0.2.2")
            .with_param("protected-local", "192.168.1.0/24")
            .with_param("protected-remote", "172.16.0.0/16")
            .with_param("lan-addr", "192.168.1.1/24")
            .with_param("wan-addr", "192.0.2.1/24")
    }

    #[test]
    fn single_instance_nnf_enforced() {
        let mut host = Host::new("cpe", CostModel::default());
        let mut ledger = MemLedger::new();
        let a1 = ledger.create_account("i1", None);
        let a2 = ledger.create_account("i2", None);
        let mut d = NativeDriver::new();
        d.create(
            1,
            "ipsec-a",
            "ipsec",
            2,
            16,
            false,
            &ipsec_config(),
            &mut host,
            a1,
        )
        .unwrap();
        // A second native IPsec must be refused (charon is a singleton).
        let err = d
            .create(
                2,
                "ipsec-b",
                "ipsec",
                2,
                32,
                false,
                &ipsec_config(),
                &mut host,
                a2,
            )
            .unwrap_err();
        assert!(matches!(err, ComputeError::NnfBusy(_)));
        assert_eq!(d.existing_instance("ipsec"), Some(1));

        // Multi-instance NNFs are fine twice.
        d.create(
            3,
            "fw-a",
            "firewall",
            2,
            48,
            false,
            &NfConfig::default(),
            &mut host,
            a1,
        )
        .unwrap();
        d.create(
            4,
            "fw-b",
            "firewall",
            2,
            64,
            false,
            &NfConfig::default(),
            &mut host,
            a2,
        )
        .unwrap();
    }

    #[test]
    fn shared_mode_rules() {
        let mut host = Host::new("cpe", CostModel::default());
        let mut ledger = MemLedger::new();
        let a = ledger.create_account("i", None);
        let mut d = NativeDriver::new();
        // firewall is not sharable.
        assert!(matches!(
            d.create(
                1,
                "fw",
                "firewall",
                2,
                16,
                true,
                &NfConfig::default(),
                &mut host,
                a
            ),
            Err(ComputeError::Unsupported(_))
        ));
        // nat is sharable; shared instance gets a single port.
        d.create(
            2,
            "nat",
            "nat",
            2,
            32,
            true,
            &NfConfig::default(),
            &mut host,
            a,
        )
        .unwrap();
        d.start(2, &mut host, &mut ledger).unwrap();

        let mut params = std::collections::BTreeMap::new();
        params.insert("lan-addr".into(), "192.168.1.1/24".into());
        params.insert("wan-addr".into(), "203.0.113.1/24".into());
        let binding = GraphBinding {
            graph: "g1".into(),
            mark: 1,
            zone: 1,
            vid_lan: 100,
            vid_wan: 101,
            params,
        };
        d.bind_graph(2, &binding, &mut host, &mut ledger).unwrap();
        assert_eq!(d.binding_count(2), 1);
        d.unbind_graph(2, "g1", &mut host, &mut ledger).unwrap();
        assert_eq!(d.binding_count(2), 0);
        assert!(matches!(
            d.unbind_graph(2, "g1", &mut host, &mut ledger),
            Err(ComputeError::BadState(_))
        ));
    }

    #[test]
    fn lifecycle_and_packet_path() {
        let mut host = Host::new("cpe", CostModel::default());
        let mut ledger = MemLedger::new();
        let a = ledger.create_account("i", None);
        let mut d = NativeDriver::new();
        d.create(
            1,
            "swan",
            "ipsec",
            2,
            16,
            false,
            &ipsec_config(),
            &mut host,
            a,
        )
        .unwrap();
        d.start(1, &mut host, &mut ledger).unwrap();

        let ns = d.namespace_of(1).unwrap();
        host.neigh_add(
            ns,
            "192.0.2.2".parse().unwrap(),
            un_packet::MacAddr::local(99),
        )
        .unwrap();
        let lan = host.iface_by_name(ns, "port0").unwrap().id;
        let lan_mac = host.iface(lan).unwrap().mac;
        let pkt = un_packet::PacketBuilder::new()
            .ethernet(un_packet::MacAddr::local(5), lan_mac)
            .ipv4(
                "192.168.1.10".parse().unwrap(),
                "172.16.0.9".parse().unwrap(),
            )
            .udp(1, 2)
            .payload(&[0xEE; 100])
            .build();
        let io = d.deliver(1, 0, pkt, &mut host);
        assert_eq!(io.outputs.len(), 1);
        assert_eq!(io.outputs[0].0, 1);
        assert!(io.cost.as_nanos() > 0);

        // destroy-while-running is refused; stop then destroy works and
        // frees the singleton slot.
        assert!(matches!(
            d.destroy(1, &mut host),
            Err(ComputeError::BadState(_))
        ));
        d.stop(1, &mut host, &mut ledger).unwrap();
        d.destroy(1, &mut host).unwrap();
        assert!(host.namespace(ns).is_none(), "namespace released");
        assert_eq!(d.existing_instance("ipsec"), None);
        let a2 = ledger.create_account("i2", None);
        d.create(
            9,
            "swan2",
            "ipsec",
            2,
            64,
            false,
            &ipsec_config(),
            &mut host,
            a2,
        )
        .unwrap();
    }
}
