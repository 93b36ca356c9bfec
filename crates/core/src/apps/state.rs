//! The state the four stages share: the controller's view of the
//! network.

use crate::rfcontroller::RfControllerConfig;
use rf_sim::{AgentId, ConnId, LinkId, Time};
use rf_wire::{Ipv4Cidr, MacAddr};
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

/// Per-switch record shared by all stages.
#[derive(Clone, Debug)]
pub struct SwitchRec {
    pub num_ports: u16,
    pub vm: Option<AgentId>,
    pub vm_conn: Option<ConnId>,
    pub configured_at: Option<Time>,
}

/// Per-link record shared by all stages.
#[derive(Clone, Debug)]
pub struct LinkRec {
    pub a: (u64, u16),
    pub b: (u64, u16),
    pub subnet: Ipv4Cidr,
    pub ip_a: Ipv4Addr,
    pub ip_b: Ipv4Addr,
    pub sim_link: Option<LinkId>,
}

/// State shared across stages: the controller's view of the network.
///
/// Stages own their private state; anything two stages must agree on
/// lives here. The split mirrors the paper's architecture — switches/links
/// come from discovery, hosts from the edge, `installed` from the
/// route-to-flow mirror.
#[derive(Clone, Default)]
pub struct ControlState {
    /// Known switches (keyed by dpid; present once a VM is provisioned).
    pub switches: BTreeMap<u64, SwitchRec>,
    /// Up links with their allocated addressing.
    pub links: Vec<LinkRec>,
    /// (dpid, port) → (peer dpid, peer port) for next-hop MACs.
    pub port_peer: HashMap<(u64, u16), (u64, u16)>,
    /// Learned hosts: ip → (dpid, port, mac).
    pub hosts: HashMap<Ipv4Addr, (u64, u16, MacAddr)>,
    /// Installed routed flows: (dpid, network, len) → priority.
    pub installed: HashMap<(u64, u32, u8), u16>,
    /// Diagnostics.
    pub flows_installed: u64,
    pub flows_removed: u64,
    pub arp_replies: u64,
    /// OpenFlow messages actually written toward switches (FLOW_MODs,
    /// PACKET_OUTs — transport chores like Hello excluded).
    pub of_msgs_sent: u64,
    /// Wire bytes of those messages.
    pub of_bytes_sent: u64,
    /// Transport writes carrying them. Equal to `of_msgs_sent` when
    /// every message goes out alone; multi-message pushes make this
    /// smaller — the number the FIB batching stage optimises.
    pub of_pushes: u64,
    /// Multi-message FLOW_MOD pushes flushed by the FIB-mirror batch
    /// stage (0 when `fib_batch` is 1).
    pub fib_batches: u64,
    /// Deferral *events*: incremented every time a message lands
    /// beyond a bounded channel's admitted window, and again for a
    /// FLOW_MOD at every drain tick that leaves it there. It therefore
    /// measures how long and how hard producers leaned on a full
    /// channel (scaling with stall duration × drain cadence), not the
    /// count of distinct messages. A waiting FLOW_MOD still reaches
    /// the wire, so deferral is pacing, not loss.
    pub of_deferred: u64,
    /// Deepest admitted window of a per-switch channel observed over
    /// the run: how hard producers leaned on the bounded channels.
    pub of_queue_hwm: u64,
}

impl ControlState {
    /// Interface table for a VM: link interfaces + host-port gateways.
    pub(crate) fn vm_interfaces(
        &self,
        cfg: &RfControllerConfig,
        dpid: u64,
    ) -> Vec<(u16, Ipv4Cidr)> {
        let mut out = Vec::new();
        for l in &self.links {
            if l.a.0 == dpid {
                out.push((l.a.1, Ipv4Cidr::new(l.ip_a, l.subnet.prefix_len)));
            }
            if l.b.0 == dpid {
                out.push((l.b.1, Ipv4Cidr::new(l.ip_b, l.subnet.prefix_len)));
            }
        }
        for h in &cfg.host_ports {
            if h.dpid == dpid {
                out.push((h.port, Ipv4Cidr::new(h.gateway, h.subnet.prefix_len)));
            }
        }
        out.sort_by_key(|(p, _)| *p);
        out
    }
}
