//! The control-plane event bus: typed events, the [`ControlApp`] trait,
//! and the shared state apps cooperate through.
//!
//! The RF-controller used to be one 700-line agent; it is now an
//! [`engine::ControlPlane`](super::engine::ControlPlane) that owns the
//! wire I/O (OpenFlow channels, the RPC server, VM channels) and a set
//! of registered apps. The engine translates I/O into [`ControlEvent`]s
//! and publishes them; every app sees every event in registration
//! order, and any app may raise further events, which are dispatched
//! breadth-first after the current one completes. With a single event
//! queue and deterministic ordering, a run is reproducible regardless
//! of how the controller logic is partitioned.
//!
//! Third-party extensions implement [`ControlApp`] and register via
//! [`ControlPlane::register`](super::engine::ControlPlane::register) or
//! `ScenarioBuilder::with_app`.

use super::channel::{ChannelLayer, SendOutcome, SwitchChannel, VmSendOutcome};
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
#[derive(Clone, Debug)]
pub enum FibChange {
    Add {
        dpid: u64,
        prefix: Ipv4Cidr,
        next_hop: Option<Ipv4Addr>,
        out_iface: u16,
        metric: u32,
    },
    Del {
        dpid: u64,
        prefix: Ipv4Cidr,
    },
}

/// A physical-link change, as refined by the discovery bridge.
#[derive(Clone, Debug)]
pub enum LinkChange {
    Up {
        a: (u64, u16),
        b: (u64, u16),
        subnet: Ipv4Cidr,
        ip_a: Ipv4Addr,
        ip_b: Ipv4Addr,
    },
    Down {
        a: (u64, u16),
        b: (u64, u16),
        /// Virtual-interconnect link mirroring the dead physical link,
        /// if one was built (carried so the lifecycle app can tear it
        /// down after the bridge has already dropped the record).
        sim_link: Option<LinkId>,
    },
    /// A port flap reported by the switch (OSPF dead-interval handles
    /// the routing consequences; apps rarely care).
    PortStatus { dpid: u64, port: u16, up: bool },
}

/// Everything that flows over the control-plane bus.
#[derive(Clone, Debug)]
pub enum ControlEvent {
    /// A raw configuration request from the topology controller,
    /// exactly as received by the RPC server. The discovery bridge
    /// refines these into the typed events below; other apps normally
    /// subscribe to those instead.
    Rpc(RpcRequest),
    /// A switch was detected (first announcement only).
    SwitchUp { dpid: u64, num_ports: u16 },
    /// A switch left the network.
    SwitchDown { dpid: u64 },
    /// A link changed, with addressing already allocated.
    Link(LinkChange),
    /// The VM mirroring `dpid` was provisioned (record exists; not
    /// necessarily booted yet).
    VmSpawned { dpid: u64 },
    /// The VM mirroring `dpid` finished booting and opened its channel.
    VmUp { dpid: u64 },
    /// The OpenFlow channel to `dpid` completed its handshake.
    ChannelUp { dpid: u64 },
    /// A data-plane packet punted to the controller.
    PacketIn {
        dpid: u64,
        in_port: u16,
        data: Bytes,
    },
    /// A VM pushed a FIB change.
    Fib(FibChange),
    /// A timer scheduled through [`AppCtx::schedule`] fired.
    Timer { token: u64 },
}

/// Per-switch record shared by all apps.
#[derive(Clone, Debug)]
pub struct SwitchRec {
    pub num_ports: u16,
    pub vm: Option<AgentId>,
    pub vm_conn: Option<ConnId>,
    pub configured_at: Option<Time>,
}

/// Per-link record shared by all apps.
#[derive(Clone, Debug)]
pub struct LinkRec {
    pub a: (u64, u16),
    pub b: (u64, u16),
    pub subnet: Ipv4Cidr,
    pub ip_a: Ipv4Addr,
    pub ip_b: Ipv4Addr,
    pub sim_link: Option<LinkId>,
}

/// State shared across apps: the controller's view of the network.
///
/// Apps own their private state; anything two apps must agree on lives
/// here. The split mirrors the paper's architecture — switches/links
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
    /// Refusal *events* under
    /// [`super::channel::OverflowPolicy::Defer`]: incremented every
    /// time a bounded channel bounces a message back to its producer,
    /// including re-offers of the same message from a retry backlog.
    /// It therefore measures how long and how hard producers leaned on
    /// a full channel (scaling with stall duration × retry cadence),
    /// not the count of distinct messages. Producers retry, so
    /// deferral is pacing, not loss.
    pub of_deferred: u64,
    /// Queued messages evicted under
    /// [`super::channel::OverflowPolicy::DropOldest`] — real loss,
    /// visible as FIB divergence.
    pub of_dropped: u64,
    /// Deepest per-switch channel queue observed over the run: how
    /// hard producers leaned on the bounded channels.
    pub of_queue_hwm: u64,
}

impl ControlState {
    /// Interface table for a VM: link interfaces + host-port gateways.
    pub fn vm_interfaces(&self, cfg: &RfControllerConfig, dpid: u64) -> Vec<(u16, Ipv4Cidr)> {
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

/// Object-safe cloning for boxed control apps; blanket-implemented for
/// every `ControlApp + Clone` type, making `Box<dyn ControlApp>: Clone`
/// (the controller-side mirror of [`rf_sim::CloneAgent`]).
pub trait CloneControlApp {
    fn clone_app(&self) -> Box<dyn ControlApp>;
}

impl<T> CloneControlApp for T
where
    T: 'static + ControlApp + Clone,
{
    fn clone_app(&self) -> Box<dyn ControlApp> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn ControlApp> {
    fn clone(&self) -> Self {
        self.clone_app()
    }
}

/// Engine-owned I/O surface the apps reach through [`AppCtx`].
///
/// Keeping the connection maps out of [`ControlState`] means apps can
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
}

impl BusIo {
    pub(crate) fn new() -> BusIo {
        BusIo {
            dpid_of: HashMap::new(),
            channels: BTreeMap::new(),
            drain_armed: false,
            xid: 1,
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

/// The handle an app uses while processing one event: simulator access,
/// shared state, dpid-addressed send helpers, and `raise` to publish
/// follow-up events onto the bus.
pub struct AppCtx<'a, 'b> {
    pub(crate) sim: &'a mut Ctx<'b>,
    pub state: &'a mut ControlState,
    pub(crate) config: &'a RfControllerConfig,
    pub(crate) io: &'a mut BusIo,
    pub(crate) bus: &'a mut VecDeque<ControlEvent>,
}

impl<'b> AppCtx<'_, 'b> {
    fn channel_layer(&mut self) -> ChannelLayer<'_, 'b> {
        ChannelLayer {
            io: self.io,
            state: self.state,
            config: self.config,
            sim: self.sim,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// The controller agent's id (e.g. as the VM's RF-server address).
    pub fn controller_id(&self) -> AgentId {
        self.sim.self_id()
    }

    /// Controller configuration (host ports, boot delay, link profile).
    pub fn config(&self) -> &RfControllerConfig {
        self.config
    }

    /// Publish a follow-up event; it is dispatched to every app (in
    /// registration order) after the current event finishes.
    pub fn raise(&mut self, ev: ControlEvent) {
        self.bus.push_back(ev);
    }

    /// Offer an OpenFlow message to `dpid`'s bounded send channel. The
    /// message goes to the wire immediately when the channel is up,
    /// un-stalled and has credits; otherwise it queues within the
    /// capacity bound, and past the bound the configured
    /// [`super::channel::OverflowPolicy`] decides. Consume the outcome:
    /// a deferred message is the caller's to retry.
    pub fn send_of(&mut self, dpid: u64, msg: OfMessage) -> SendOutcome {
        self.channel_layer().offer(dpid, vec![msg])
    }

    /// Offer several OpenFlow messages to `dpid`'s channel at once.
    /// Contiguous runs that clear the queue go out as one multi-message
    /// push (one transport write, consecutive xids; see
    /// [`OfMessage::encode_batch`]); a bounded channel may split the
    /// run at its credit limit and defer or drop the tail.
    pub fn send_of_batch(&mut self, dpid: u64, msgs: Vec<OfMessage>) -> SendOutcome {
        self.channel_layer().offer(dpid, msgs)
    }

    /// Send an RF-protocol message to the VM mirroring `dpid`. Returns
    /// [`VmSendOutcome::Deferred`] when the VM channel is not open —
    /// the producer re-pushes on the next `VmUp`.
    pub fn send_to_vm(&mut self, dpid: u64, msg: RfMessage) -> VmSendOutcome {
        if let Some(conn) = self.state.switches.get(&dpid).and_then(|s| s.vm_conn) {
            self.sim.conn_send(conn, msg.encode());
            VmSendOutcome::Delivered
        } else {
            VmSendOutcome::Deferred
        }
    }

    /// Fire a [`ControlEvent::Timer`] on the bus after `delay`. Tokens
    /// share one namespace across apps; use a per-app prefix.
    pub fn schedule(&mut self, delay: std::time::Duration, token: u64) {
        self.sim.schedule(delay, token);
    }

    /// Spawn an agent into the simulation (the lifecycle app's VMs).
    pub fn spawn_agent(&mut self, name: &str, agent: Box<dyn rf_sim::Agent>) -> AgentId {
        self.sim.spawn(name, agent)
    }

    /// Remove an agent from the simulation.
    pub fn kill_agent(&mut self, agent: AgentId) {
        self.sim.kill(agent)
    }

    /// Mirror a link in the virtual environment.
    pub fn add_sim_link(
        &mut self,
        a: (AgentId, u32),
        b: (AgentId, u32),
        profile: rf_sim::LinkProfile,
    ) -> LinkId {
        self.sim.add_link(a, b, profile)
    }

    /// Tear a virtual link down.
    pub fn remove_sim_link(&mut self, id: LinkId) {
        self.sim.remove_link(id)
    }

    /// Increment a named metric counter.
    pub fn count(&mut self, name: &str, delta: u64) {
        self.sim.count(name, delta)
    }
}

/// A composable control-plane application.
///
/// Implement the hooks you care about; [`ControlApp::on_event`] routes
/// each [`ControlEvent`] to the matching hook by default, so an app
/// that only mirrors FIB entries overrides nothing but
/// [`ControlApp::on_fib_update`]. Override `on_event` itself to observe
/// the raw stream (loggers, invariant checkers).
///
/// Apps must be `Send`: the whole controller (and the `Sim` holding it)
/// crosses thread boundaries when scenarios are swept in parallel by
/// [`crate::scenario::ScenarioMatrix`]. App state is plain owned data
/// in practice, so this costs nothing. They must also be `Clone` (the
/// [`CloneControlApp`] supertrait, satisfied by `#[derive(Clone)]`): a
/// converged controller is deep-copied wholesale when a scenario is
/// checkpointed for fork (see `Scenario::snapshot`).
#[allow(unused_variables)]
pub trait ControlApp: 'static + Send + CloneControlApp {
    /// Stable name, for traces and diagnostics.
    fn name(&self) -> &'static str;

    /// A raw topology-controller RPC request arrived (normally only
    /// the discovery bridge cares; most apps use the refined events).
    fn on_rpc(&mut self, cx: &mut AppCtx<'_, '_>, req: &RpcRequest) {}
    /// A switch was detected for the first time.
    fn on_switch_up(&mut self, cx: &mut AppCtx<'_, '_>, dpid: u64, num_ports: u16) {}
    /// A switch left.
    fn on_switch_down(&mut self, cx: &mut AppCtx<'_, '_>, dpid: u64) {}
    /// A link came up, went down, or flapped a port.
    fn on_link_event(&mut self, cx: &mut AppCtx<'_, '_>, change: &LinkChange) {}
    /// A packet was punted to the controller.
    fn on_packet_in(&mut self, cx: &mut AppCtx<'_, '_>, dpid: u64, in_port: u16, data: &Bytes) {}
    /// A VM reported a FIB change.
    fn on_fib_update(&mut self, cx: &mut AppCtx<'_, '_>, change: &FibChange) {}
    /// A bus timer fired.
    fn on_timer(&mut self, cx: &mut AppCtx<'_, '_>, token: u64) {}
    /// The VM mirroring `dpid` was provisioned (not yet booted).
    fn on_vm_spawned(&mut self, cx: &mut AppCtx<'_, '_>, dpid: u64) {}
    /// The VM mirroring `dpid` booted and opened its channel.
    fn on_vm_up(&mut self, cx: &mut AppCtx<'_, '_>, dpid: u64) {}
    /// The OpenFlow channel to `dpid` completed its handshake.
    fn on_channel_up(&mut self, cx: &mut AppCtx<'_, '_>, dpid: u64) {}

    /// Full-fidelity event hook; the default routes every event to its
    /// named hook. Override only to observe the raw stream (loggers,
    /// invariant checkers) — everything else belongs in a named hook.
    fn on_event(&mut self, cx: &mut AppCtx<'_, '_>, ev: &ControlEvent) {
        match ev {
            ControlEvent::Rpc(req) => self.on_rpc(cx, req),
            ControlEvent::SwitchUp { dpid, num_ports } => self.on_switch_up(cx, *dpid, *num_ports),
            ControlEvent::SwitchDown { dpid } => self.on_switch_down(cx, *dpid),
            ControlEvent::Link(change) => self.on_link_event(cx, change),
            ControlEvent::PacketIn {
                dpid,
                in_port,
                data,
            } => self.on_packet_in(cx, *dpid, *in_port, data),
            ControlEvent::Fib(change) => self.on_fib_update(cx, change),
            ControlEvent::Timer { token } => self.on_timer(cx, *token),
            ControlEvent::VmSpawned { dpid } => self.on_vm_spawned(cx, *dpid),
            ControlEvent::VmUp { dpid } => self.on_vm_up(cx, *dpid),
            ControlEvent::ChannelUp { dpid } => self.on_channel_up(cx, *dpid),
        }
    }
}
