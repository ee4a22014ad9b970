//! The Docker driver.
//!
//! Containers share the host kernel: the driver creates a network
//! namespace, joins the container to it, and configures the NF's kernel
//! state with the *same* plugin code the native driver uses — that is
//! the entrypoint script of the containerized NF. Packaging and
//! footprint differ (image layers, runtime shim); the data path does
//! not. Table 1's near-identical Docker/native throughput follows.

use std::collections::HashMap;

use un_container::{ContainerId, ContainerRuntime, Registry};
use un_linux::{Host, IfaceId, NsId};
use un_nffg::NfConfig;
use un_nnf::{NnfCatalog, NnfContext, NnfPlugin};
use un_packet::Packet;
use un_sim::{AccountId, MemLedger};

use crate::types::{ComputeError, IoOutcome};

struct DockerInstance {
    container: ContainerId,
    ns: NsId,
    ports: Vec<IfaceId>,
    base_tag: u64,
    plugin: Box<dyn NnfPlugin>,
    config: NfConfig,
    account: AccountId,
    started: bool,
}

/// Driver state: the container engine plus per-instance bookkeeping.
pub struct DockerDriver {
    /// The container engine (image store inside).
    pub runtime: ContainerRuntime,
    /// The registry images are pulled from.
    pub registry: Registry,
    catalog: NnfCatalog,
    instances: HashMap<u64, DockerInstance>,
}

impl Default for DockerDriver {
    fn default() -> Self {
        Self::new()
    }
}

impl DockerDriver {
    /// Fresh driver with an empty registry.
    pub fn new() -> Self {
        DockerDriver {
            runtime: ContainerRuntime::new(),
            registry: Registry::new(),
            catalog: NnfCatalog::standard(),
            instances: HashMap::new(),
        }
    }

    /// Create a container NF: pull image, make namespace + ports.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        &mut self,
        key: u64,
        name: &str,
        functional_type: &str,
        image: &str,
        tag: &str,
        process_rss: u64,
        n_ports: usize,
        base_tag: u64,
        config: &NfConfig,
        host: &mut Host,
        ledger: &mut MemLedger,
        account: AccountId,
    ) -> Result<(), ComputeError> {
        let plugin = self.catalog.instantiate(functional_type).ok_or_else(|| {
            ComputeError::Unsupported(format!("no container entrypoint for '{functional_type}'"))
        })?;
        self.runtime
            .store
            .pull(&self.registry, image, tag)
            .ok_or_else(|| {
                ComputeError::Substrate(format!("image {image}:{tag} not in registry"))
            })?;

        let ns = host.add_namespace(&format!("docker-{name}"));
        let mut ports = Vec::with_capacity(n_ports);
        for i in 0..n_ports {
            let ifc = host
                .add_external(ns, &format!("eth{i}"), base_tag + i as u64)
                .map_err(|e| ComputeError::Substrate(e.to_string()))?;
            ports.push(ifc);
        }
        let container = self
            .runtime
            .create(name, image, tag, ns, process_rss, ledger, account)
            .map_err(|e| ComputeError::Substrate(e.to_string()))?;

        self.instances.insert(
            key,
            DockerInstance {
                container,
                ns,
                ports,
                base_tag,
                plugin,
                config: config.clone(),
                account,
                started: false,
            },
        );
        Ok(())
    }

    /// Start the container and run its entrypoint configuration.
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
        self.runtime
            .start(inst.container, ledger)
            .map_err(|e| ComputeError::Substrate(e.to_string()))?;
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

    /// Stop the container (entrypoint teardown + runtime stop).
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
        self.runtime
            .stop(inst.container, ledger)
            .map_err(|e| ComputeError::Substrate(e.to_string()))
    }

    /// Remove a stopped container.
    pub fn destroy(&mut self, key: u64, host: &mut Host) -> Result<(), ComputeError> {
        let inst = self
            .instances
            .remove(&key)
            .ok_or(ComputeError::NoSuchInstance(key))?;
        self.runtime
            .remove(inst.container)
            .map_err(|e| ComputeError::Substrate(e.to_string()))?;
        host.remove_namespace(inst.ns)
            .map_err(|e| ComputeError::Substrate(e.to_string()))
    }

    /// Unified packet delivery: inject into the instance's port iface.
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

    /// Batched delivery: resolve the container and its port map once,
    /// inject the whole burst, one `IoOutcome` per frame in order.
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

    /// The image footprint (virtual size) of an instance's image.
    pub fn image_footprint(&self, image: &str, tag: &str) -> u64 {
        self.runtime
            .store
            .image_virtual_size(image, tag)
            .unwrap_or(0)
    }

    /// The network namespace of an instance (diagnostics).
    pub fn namespace_of(&self, key: u64) -> Option<NsId> {
        self.instances.get(&key).map(|i| i.ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use un_container::{Image, Layer};
    use un_sim::mem::{mb, mb_f};
    use un_sim::CostModel;

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.push(Image {
            name: "strongswan".into(),
            tag: "latest".into(),
            layers: vec![
                Layer::new("sha256:base", mb(235)),
                Layer::new("sha256:swan", mb(5)),
            ],
        });
        r
    }

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
    fn containerized_ipsec_encrypts_via_host_kernel() {
        let mut host = Host::new("cpe", CostModel::default());
        let mut ledger = MemLedger::new();
        let node = ledger.create_account("node", None);
        let acct = ledger.create_account("docker-ipsec", Some(node));

        let mut d = DockerDriver::new();
        d.registry = registry();
        d.create(
            1,
            "ipsec-1",
            "ipsec",
            "strongswan",
            "latest",
            mb_f(19.4),
            2,
            16,
            &ipsec_config(),
            &mut host,
            &mut ledger,
            acct,
        )
        .unwrap();
        d.start(1, &mut host, &mut ledger).unwrap();

        // RAM = process + shim + charon bookkeeping (plugin).
        assert!(ledger.usage(acct) >= mb_f(19.4) + mb_f(4.8));
        assert_eq!(d.image_footprint("strongswan", "latest"), mb(240));

        // Static neighbor toward the peer, then traffic through port 0
        // leaves encrypted on port 1 — all in the *host* kernel.
        let ns = d.namespace_of(1).unwrap();
        host.neigh_add(
            ns,
            "192.0.2.2".parse().unwrap(),
            un_packet::MacAddr::local(99),
        )
        .unwrap();
        let lan_iface = host.iface_by_name(ns, "eth0").unwrap().id;
        let lan_mac = host.iface(lan_iface).unwrap().mac;
        let payload = vec![0x77u8; 333];
        let pkt = un_packet::PacketBuilder::new()
            .ethernet(un_packet::MacAddr::local(5), lan_mac)
            .ipv4(
                "192.168.1.10".parse().unwrap(),
                "172.16.0.9".parse().unwrap(),
            )
            .udp(1000, 2000)
            .payload(&payload)
            .build();
        let io = d.deliver(1, 0, pkt, &mut host);
        assert_eq!(io.outputs.len(), 1);
        assert_eq!(io.outputs[0].0, 1, "out the WAN port");
        assert!(
            !io.outputs[0]
                .1
                .data()
                .windows(payload.len())
                .any(|w| w == &payload[..]),
            "encrypted on the wire"
        );

        d.stop(1, &mut host, &mut ledger).unwrap();
        assert_eq!(ledger.usage(acct), 0);
        d.destroy(1, &mut host).unwrap();
        assert_eq!(host.namespace_count(), 1, "only the root namespace is left");
    }

    #[test]
    fn create_failures() {
        let mut host = Host::new("cpe", CostModel::default());
        let mut ledger = MemLedger::new();
        let acct = ledger.create_account("a", None);
        let mut d = DockerDriver::new();
        // No such functional type.
        assert!(matches!(
            d.create(
                1,
                "x",
                "quantum",
                "img",
                "latest",
                0,
                2,
                0,
                &NfConfig::default(),
                &mut host,
                &mut ledger,
                acct
            ),
            Err(ComputeError::Unsupported(_))
        ));
        // Image not in registry.
        assert!(matches!(
            d.create(
                1,
                "x",
                "ipsec",
                "ghost",
                "latest",
                0,
                2,
                0,
                &NfConfig::default(),
                &mut host,
                &mut ledger,
                acct
            ),
            Err(ComputeError::Substrate(_))
        ));
    }
}
