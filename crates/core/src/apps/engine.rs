//! The control-plane engine: wire I/O demultiplexing and the routing
//! of bus events to the four stages.
//!
//! The engine is the only [`Agent`] on the controller side. It owns the
//! OpenFlow channels (from FlowVisor or switches), the embedded RPC
//! server (from the topology controller) and the RF-protocol channels
//! (from the VMs), translates their bytes into [`ControlEvent`]s, and
//! hands each to the stages that act on it. Transport chores no stage
//! sees — Hello/Echo, handshake bookkeeping, flushing FLOW_MODs queued
//! while a channel was down, RPC acks and dedup — are handled here.

use super::arp_proxy::ArpProxy;
use super::bus::{AppCtx, BusIo, ControlEvent, ControlState, FibChange};
use super::channel::{ChannelLayer, CHANNEL_DRAIN_TOKEN};
use super::discovery_bridge::DiscoveryBridge;
use super::fib_mirror::FibMirror;
use super::lifecycle::VmLifecycle;
use crate::rfcontroller::{RfControllerConfig, RF_CONTROLLER_OF_SERVICE};
use crate::vnet::rfproto::{RfFrameReader, RfMessage, RF_SERVICE};
use rf_openflow::{MessageReader, OfMessage};
use rf_rpc::{RpcServerEndpoint, RPC_SERVER_SERVICE};
use rf_sim::{Agent, ConnId, Ctx, StreamEvent, Time};
use std::collections::{HashMap, VecDeque};

/// The RouteFlow controller: the paper's four fixed stages behind one
/// event bus.
#[derive(Clone)]
pub struct ControlPlane {
    cfg: RfControllerConfig,
    bridge: DiscoveryBridge,
    lifecycle: VmLifecycle,
    fib: FibMirror,
    arp: ArpProxy,
    state: ControlState,
    io: BusIo,
    /// Events waiting for dispatch; empty between publishes, kept for
    /// its capacity.
    bus: VecDeque<ControlEvent>,
    // Wire demux.
    of_readers: HashMap<ConnId, MessageReader>,
    of_dpid: HashMap<ConnId, u64>,
    rpc: RpcServerEndpoint,
    rpc_conns: Vec<ConnId>,
    vm_readers: HashMap<ConnId, RfFrameReader>,
    vm_dpid: HashMap<ConnId, u64>,
    /// Reused per-event decode buffers (capacity persists across events).
    of_scratch: Vec<(OfMessage, u32)>,
    vm_scratch: Vec<RfMessage>,
}

impl ControlPlane {
    /// The controller with its four stages: discovery bridge, VM
    /// lifecycle, FIB mirror and ARP proxy.
    pub fn new(cfg: RfControllerConfig) -> ControlPlane {
        ControlPlane {
            cfg,
            bridge: DiscoveryBridge::default(),
            lifecycle: VmLifecycle::default(),
            fib: FibMirror::new(),
            arp: ArpProxy::new(),
            state: ControlState::default(),
            io: BusIo::new(),
            bus: VecDeque::new(),
            of_readers: HashMap::new(),
            of_dpid: HashMap::new(),
            rpc: RpcServerEndpoint::new(),
            rpc_conns: Vec::new(),
            vm_readers: HashMap::new(),
            vm_dpid: HashMap::new(),
            of_scratch: Vec::new(),
            vm_scratch: Vec::new(),
        }
    }

    /// Shared control-plane state (tests, metrics harvesting).
    pub fn state(&self) -> &ControlState {
        &self.state
    }

    /// Arm a channel-stall window — the only way one gets in. Stalls
    /// act only through `covers(now)` checks at send/drain time, so a
    /// window armed before it opens, on a fresh world or on a fork,
    /// behaves the same.
    pub fn add_channel_stall(&mut self, window: super::ChannelStallWindow) {
        self.io.stalls.push(window);
    }

    // ------------------------------------------------------------------
    // Read accessors (what scenarios and the GUI observe).
    // ------------------------------------------------------------------

    /// Per-switch configured state: the paper's GUI turns a switch
    /// green "when it has a corresponding VM".
    pub fn switch_states(&self) -> Vec<(u64, bool)> {
        self.state
            .switches
            .iter()
            .map(|(d, s)| (*d, s.configured_at.is_some()))
            .collect()
    }

    /// Number of switches whose VM is up (green in the GUI).
    pub fn configured_switches(&self) -> usize {
        self.state
            .switches
            .values()
            .filter(|s| s.configured_at.is_some())
            .count()
    }

    /// Time each switch turned green.
    pub fn configured_times(&self) -> Vec<(u64, Option<Time>)> {
        self.state
            .switches
            .iter()
            .map(|(d, s)| (*d, s.configured_at))
            .collect()
    }

    /// When the last of the first `n` switches turned green.
    pub fn all_configured_at(&self, n: usize) -> Option<Time> {
        if self.configured_switches() < n {
            return None;
        }
        self.state
            .switches
            .values()
            .filter_map(|s| s.configured_at)
            .max()
    }

    /// Messages currently parked in switch-channel queues (stalled,
    /// credit-capped, or waiting for their channel to come up).
    pub fn channel_queued(&self) -> usize {
        self.io.channels.values().map(|c| c.queue.len()).sum()
    }

    // ------------------------------------------------------------------
    // Bus dispatch.
    // ------------------------------------------------------------------

    /// Publish an event and drain the bus. Each event goes to the
    /// stages that act on it, in the order below; events raised while
    /// handling one are processed after it (breadth-first), keeping
    /// dispatch deterministic however far the stages cascade.
    fn publish(&mut self, ctx: &mut Ctx<'_>, ev: ControlEvent) {
        self.bus.push_back(ev);
        while let Some(ev) = self.bus.pop_front() {
            let cx = &mut AppCtx {
                sim: ctx,
                state: &mut self.state,
                config: &self.cfg,
                io: &mut self.io,
                bus: &mut self.bus,
            };
            match ev {
                ControlEvent::Rpc(req) => self.bridge.on_rpc(cx, req),
                ControlEvent::VmSpawned => self.bridge.on_vm_spawned(cx),
                ControlEvent::SwitchUp { dpid, num_ports } => {
                    self.lifecycle.on_switch_up(cx, dpid, num_ports)
                }
                ControlEvent::SwitchDown { dpid } => {
                    self.lifecycle.on_switch_down(cx, dpid);
                    self.fib.on_switch_down(dpid);
                    self.arp.on_switch_down(dpid);
                }
                ControlEvent::Link(change) => self.lifecycle.on_link(cx, change),
                ControlEvent::VmUp { dpid } => self.lifecycle.on_vm_up(cx, dpid),
                ControlEvent::Fib(change) => self.fib.on_fib(cx, change),
                ControlEvent::PacketIn {
                    dpid,
                    in_port,
                    data,
                } => self.arp.on_packet_in(cx, dpid, in_port, &data),
                ControlEvent::Timer { token } => {
                    self.fib.on_timer(cx, token);
                    self.arp.on_timer(cx, token);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Wire handlers.
    // ------------------------------------------------------------------

    fn handle_of_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: OfMessage, xid: u32) {
        match msg {
            OfMessage::Hello => {}
            OfMessage::EchoRequest(d) => {
                ctx.conn_send(conn, OfMessage::EchoReply(d).encode(xid));
            }
            OfMessage::FeaturesReply(f) => {
                let dpid = f.datapath_id;
                self.of_dpid.insert(conn, dpid);
                self.io.dpid_of.insert(dpid, conn);
                // Flush messages queued before the channel came up —
                // one multi-message push, as far as credits and stall
                // windows allow (the drain tick finishes the rest).
                let _ = ChannelLayer {
                    io: &mut self.io,
                    state: &mut self.state,
                    config: &self.cfg,
                    sim: ctx,
                }
                .flush(dpid);
            }
            OfMessage::PacketIn { in_port, data, .. } => {
                let Some(&dpid) = self.of_dpid.get(&conn) else {
                    return;
                };
                self.publish(
                    ctx,
                    ControlEvent::PacketIn {
                        dpid,
                        in_port,
                        data,
                    },
                );
            }
            _ => {}
        }
    }

    fn handle_vm_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: RfMessage) {
        match msg {
            RfMessage::Booted { dpid } => {
                self.vm_dpid.insert(conn, dpid);
                if let Some(rec) = self.state.switches.get_mut(&dpid) {
                    rec.vm_conn = Some(conn);
                }
                self.publish(ctx, ControlEvent::VmUp { dpid });
            }
            RfMessage::RouteAdd {
                prefix,
                next_hop,
                out_iface,
                ..
            } => {
                let Some(&dpid) = self.vm_dpid.get(&conn) else {
                    return;
                };
                self.publish(
                    ctx,
                    ControlEvent::Fib(FibChange::Add {
                        dpid,
                        prefix,
                        next_hop,
                        out_iface,
                    }),
                );
            }
            RfMessage::RouteDel { prefix } => {
                let Some(&dpid) = self.vm_dpid.get(&conn) else {
                    return;
                };
                self.publish(ctx, ControlEvent::Fib(FibChange::Del { dpid, prefix }));
            }
            RfMessage::WriteConfigs { .. } => {} // server → VM only
        }
    }
}

impl Agent for ControlPlane {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(RF_CONTROLLER_OF_SERVICE);
        ctx.listen(RPC_SERVER_SERVICE);
        ctx.listen(RF_SERVICE);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == CHANNEL_DRAIN_TOKEN {
            // Engine-owned transport chore: replenish channel credits
            // and flush what can move. Stages never see this tick.
            ChannelLayer {
                io: &mut self.io,
                state: &mut self.state,
                config: &self.cfg,
                sim: ctx,
            }
            .drain_all();
            return;
        }
        self.publish(ctx, ControlEvent::Timer { token });
    }

    fn on_stream(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, event: StreamEvent) {
        match event {
            StreamEvent::Opened {
                service,
                initiated_by_us,
                ..
            } => {
                if initiated_by_us {
                    return;
                }
                match service {
                    s if s == RPC_SERVER_SERVICE => self.rpc_conns.push(conn),
                    s if s == RF_SERVICE => {
                        self.vm_readers.insert(conn, RfFrameReader::new());
                    }
                    _ => {
                        // FlowVisor (or a switch directly) on the OF side.
                        self.of_readers.insert(conn, MessageReader::new());
                        ctx.conn_send(conn, OfMessage::Hello.encode(0));
                        let xid = self.io.next_xid();
                        ctx.conn_send(conn, OfMessage::FeaturesRequest.encode(xid));
                    }
                }
            }
            StreamEvent::Data(data) => {
                if self.rpc_conns.contains(&conn) {
                    let (fresh, acks) = self.rpc.feed_bytes(data);
                    for ack in acks {
                        ctx.conn_send(conn, ack);
                    }
                    for req in fresh {
                        self.publish(ctx, ControlEvent::Rpc(req));
                    }
                } else if let Some(r) = self.vm_readers.get_mut(&conn) {
                    let mut msgs = std::mem::take(&mut self.vm_scratch);
                    r.push_bytes(data);
                    msgs.extend(std::iter::from_fn(|| r.next()));
                    for m in msgs.drain(..) {
                        self.handle_vm_msg(ctx, conn, m);
                    }
                    self.vm_scratch = msgs;
                } else if let Some(r) = self.of_readers.get_mut(&conn) {
                    let mut msgs = std::mem::take(&mut self.of_scratch);
                    msgs.clear();
                    r.push_bytes(data);
                    while let Some(Ok(m)) = r.next() {
                        msgs.push(m);
                    }
                    for (m, xid) in msgs.drain(..) {
                        self.handle_of_msg(ctx, conn, m, xid);
                    }
                    self.of_scratch = msgs;
                }
            }
            StreamEvent::Closed => {
                self.rpc_conns.retain(|c| *c != conn);
                self.vm_readers.remove(&conn);
                self.of_readers.remove(&conn);
                if let Some(dpid) = self.of_dpid.remove(&conn) {
                    self.io.dpid_of.remove(&dpid);
                }
                if let Some(dpid) = self.vm_dpid.remove(&conn) {
                    if let Some(rec) = self.state.switches.get_mut(&dpid) {
                        rec.vm_conn = None;
                    }
                }
            }
        }
    }
}
