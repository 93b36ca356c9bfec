//! The control-plane event bus: typed events, the state the four
//! stages share, and the context a stage handles one event with.
//!
//! The [`ControlPlane`](super::ControlPlane) owns the wire I/O
//! (OpenFlow channels, the RPC server, VM channels), translates it into
//! [`ControlEvent`]s and routes each to the stages that act on it. A
//! stage may raise further events, which are dispatched breadth-first
//! after the current one completes, so a run is deterministic however
//! far the stages cascade.

use super::channel::{ChannelLayer, ChannelStallWindow, SendOutcome, SwitchChannel, VmSendOutcome};
use crate::rfcontroller::RfControllerConfig;
use crate::vnet::rfproto::RfMessage;
use bytes::Bytes;
use rf_openflow::OfMessage;
use rf_rpc::RpcRequest;
use rf_sim::{AgentId, ConnId, Ctx, LinkId, Time};
use rf_wire::{Ipv4Cidr, MacAddr};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::Ipv4Addr;

/// A FIB change reported by a VM's routing stack.
#[derive(Clone)]
pub(crate) enum FibChange {
    Add {
        dpid: u64,
        prefix: Ipv4Cidr,
        next_hop: Option<Ipv4Addr>,
        out_iface: u16,
    },
    Del {
        dpid: u64,
        prefix: Ipv4Cidr,
    },
}

/// A physical-link change, as refined by the discovery bridge (the
/// link's addressing is already in [`ControlState::links`]).
#[derive(Clone)]
pub(crate) enum LinkChange {
    Up {
        a: (u64, u16),
        b: (u64, u16),
    },
    Down {
        a: (u64, u16),
        b: (u64, u16),
        /// Virtual-interconnect link mirroring the dead physical link,
        /// if one was built (carried so the lifecycle stage can tear it
        /// down after the bridge has already dropped the record).
        sim_link: Option<LinkId>,
    },
}

/// Everything that flows over the control-plane bus.
#[derive(Clone)]
pub(crate) enum ControlEvent {
    /// A raw configuration request from the topology controller,
    /// exactly as received by the RPC server; the discovery bridge
    /// refines it into the typed events below.
    Rpc(RpcRequest),
    /// A switch was detected (first announcement only).
    SwitchUp { dpid: u64, num_ports: u16 },
    /// A switch left the network.
    SwitchDown { dpid: u64 },
    /// A link changed.
    Link(LinkChange),
    /// A VM was provisioned (its switch record exists; the VM is not
    /// necessarily booted yet).
    VmSpawned,
    /// The VM mirroring `dpid` finished booting and opened its channel.
    VmUp { dpid: u64 },
    /// A data-plane packet punted to the controller.
    PacketIn {
        dpid: u64,
        in_port: u16,
        data: Bytes,
    },
    /// A VM pushed a FIB change.
    Fib(FibChange),
    /// A timer a stage scheduled on the controller fired.
    Timer { token: u64 },
}

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
    /// PACKET_OUTs — transport chores like Hello/Echo excluded).
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
    /// Refusal *events*: incremented every time a bounded channel
    /// bounces a message back to its producer, including re-offers of
    /// the same message from a retry backlog. It therefore measures how
    /// long and how hard producers leaned on a full channel (scaling
    /// with stall duration × retry cadence), not the count of distinct
    /// messages. Producers retry, so deferral is pacing, not loss.
    pub of_deferred: u64,
    /// Deepest per-switch channel queue observed over the run: how
    /// hard producers leaned on the bounded channels.
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

/// Engine-owned I/O surface the stages reach through [`AppCtx`].
///
/// Keeping the connection maps out of [`ControlState`] means stages
/// never depend on transport details — everything they send goes
/// through the dpid-addressed [`SwitchChannel`] layer, which bounds
/// and meters the queues (and parks messages while channels are down).
#[derive(Clone)]
pub(crate) struct BusIo {
    pub(crate) dpid_of: HashMap<u64, ConnId>,
    /// Per-switch bounded send channels (keyed deterministically; the
    /// drain tick iterates this map).
    pub(crate) channels: BTreeMap<u64, SwitchChannel>,
    /// True while a [`super::channel::CHANNEL_DRAIN_TOKEN`] tick is
    /// scheduled.
    pub(crate) drain_armed: bool,
    pub(crate) xid: u32,
    /// Armed channel-stall windows (see
    /// [`ControlPlane::add_channel_stall`](super::ControlPlane::add_channel_stall)).
    pub(crate) stalls: Vec<ChannelStallWindow>,
}

impl BusIo {
    pub(crate) fn new() -> BusIo {
        BusIo {
            dpid_of: HashMap::new(),
            channels: BTreeMap::new(),
            drain_armed: false,
            xid: 1,
            stalls: Vec::new(),
        }
    }

    pub(crate) fn next_xid(&mut self) -> u32 {
        self.xid = self.xid.wrapping_add(1);
        self.xid
    }

    /// Reserve `n` consecutive xids; returns the first.
    pub(crate) fn take_xids(&mut self, n: u32) -> u32 {
        let first = self.xid.wrapping_add(1);
        self.xid = self.xid.wrapping_add(n);
        first
    }
}

/// What a stage handles one event with: the simulator, the shared
/// state, the configuration, the dpid-addressed send helpers, and
/// `raise` to publish follow-up events onto the bus.
pub(crate) struct AppCtx<'a, 'b> {
    pub(crate) sim: &'a mut Ctx<'b>,
    pub(crate) state: &'a mut ControlState,
    pub(crate) config: &'a RfControllerConfig,
    pub(crate) io: &'a mut BusIo,
    pub(crate) bus: &'a mut VecDeque<ControlEvent>,
}

impl AppCtx<'_, '_> {
    /// Publish a follow-up event; it is dispatched after the current
    /// event finishes.
    pub(crate) fn raise(&mut self, ev: ControlEvent) {
        self.bus.push_back(ev);
    }

    /// Offer OpenFlow messages to `dpid`'s bounded send channel. They
    /// go to the wire at once, as one multi-message push, when the
    /// channel is up, un-stalled and has credits; otherwise they queue
    /// within the capacity bound, and past the bound the channel
    /// refuses the tail. Consume the outcome: a deferred message is the
    /// caller's to retry.
    pub(crate) fn send_of(&mut self, dpid: u64, msgs: Vec<OfMessage>) -> SendOutcome {
        ChannelLayer {
            io: self.io,
            state: self.state,
            config: self.config,
            sim: self.sim,
        }
        .offer(dpid, msgs)
    }

    /// Send an RF-protocol message to the VM mirroring `dpid`. Returns
    /// [`VmSendOutcome::Deferred`] when the VM channel is not open —
    /// the producer re-pushes on the next `VmUp`.
    pub(crate) fn send_to_vm(&mut self, dpid: u64, msg: RfMessage) -> VmSendOutcome {
        if let Some(conn) = self.state.switches.get(&dpid).and_then(|s| s.vm_conn) {
            self.sim.conn_send(conn, msg.encode());
            VmSendOutcome::Delivered
        } else {
            VmSendOutcome::Deferred
        }
    }
}
