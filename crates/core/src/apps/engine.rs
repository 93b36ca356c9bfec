//! The control-plane engine: wire I/O demultiplexing and the fixed
//! order in which it calls the four stages.
//!
//! The engine is the only [`Agent`] on the controller side. It owns the
//! OpenFlow channels (from FlowVisor or switches), the embedded RPC
//! server (from the topology controller) and the RF-protocol channels
//! (from the VMs), decodes their bytes and calls the stage each message
//! is for; a stage returns what it refined, and the engine calls the
//! next one. Transport chores no stage sees — Hello, handshake
//! bookkeeping, flushing FLOW_MODs queued while a channel was down,
//! the channel drain tick, RPC framing — are handled here.

use super::arp_proxy::ArpProxy;
use super::channel::{AppCtx, ChannelIo, CHANNEL_DRAIN_TOKEN};
use super::discovery_bridge::{DiscoveryBridge, Refined};
use super::fib_mirror::{FibMirror, FIB_FLUSH_TOKEN};
use super::lifecycle::VmLifecycle;
use super::state::ControlState;
use crate::rfcontroller::{RfControllerConfig, RF_CONTROLLER_OF_SERVICE};
use crate::vnet::rfproto::{RfFrameReader, RfMessage, RF_SERVICE};
use rf_openflow::{MessageReader, OfMessage};
use rf_rpc::{RpcRequest, RpcServerEndpoint, RPC_SERVER_SERVICE};
use rf_sim::{Agent, ConnId, Ctx, StreamEvent, Time};
use std::collections::HashMap;

/// The four stages, called in the paper's pipeline order.
#[derive(Clone)]
struct Stages {
    bridge: DiscoveryBridge,
    lifecycle: VmLifecycle,
    fib: FibMirror,
    arp: ArpProxy,
}

impl Stages {
    /// A configuration request from the topology controller: the
    /// bridge refines it, and the lifecycle acts on what it derived (a
    /// dead switch also leaves the FIB mirror, its channel's backlog
    /// and the ARP proxy).
    fn on_rpc(&mut self, cx: &mut AppCtx<'_, '_>, req: RpcRequest) {
        match self.bridge.on_rpc(cx, req) {
            Some(Refined::SwitchUp { dpid, num_ports }) => {
                let spawned = self.lifecycle.on_switch_up(cx, dpid, num_ports);
                self.after_spawn(cx, spawned);
            }
            Some(Refined::SwitchDown { dpid }) => {
                let spawned = self.lifecycle.on_switch_down(cx, dpid);
                self.fib.on_switch_down(dpid);
                cx.drop_backlog(dpid);
                self.arp.on_switch_down(cx, dpid);
                self.after_spawn(cx, spawned);
            }
            Some(Refined::Link(change)) => self.lifecycle.on_link(cx, change),
            None => {}
        }
    }

    fn on_vm_up(&mut self, cx: &mut AppCtx<'_, '_>, dpid: u64) {
        let spawned = self.lifecycle.on_vm_up(cx, dpid);
        self.after_spawn(cx, spawned);
    }

    /// After a lifecycle call that spawned VMs: the bridge releases the
    /// links that waited for them, and then the lifecycle mirrors each.
    /// One release after the last spawn sees every VM the call spawned.
    fn after_spawn(&mut self, cx: &mut AppCtx<'_, '_>, spawned: bool) {
        if spawned {
            for change in self.bridge.on_vm_spawned(cx) {
                self.lifecycle.on_link(cx, change);
            }
        }
    }

    fn on_timer(&mut self, cx: &mut AppCtx<'_, '_>, token: u64) {
        match token {
            CHANNEL_DRAIN_TOKEN => cx.drain_all(),
            FIB_FLUSH_TOKEN => self.fib.on_timer(cx),
            _ => {}
        }
    }
}

/// A connection the controller accepted: a switch's OpenFlow channel
/// (from FlowVisor, or the switch itself), the RPC relay's stream or a
/// VM's RF channel, with its reader and, once the far end has named
/// itself (a FEATURES_REPLY, a `Booted`), the dpid it is for.
#[derive(Clone)]
enum Leg {
    Of(MessageReader, Option<u64>),
    Rpc(RpcServerEndpoint),
    Vm(RfFrameReader, Option<u64>),
}

/// The RouteFlow controller: the paper's four fixed stages, called in a
/// fixed order.
#[derive(Clone)]
pub struct ControlPlane {
    cfg: RfControllerConfig,
    stages: Stages,
    state: ControlState,
    io: ChannelIo,
    /// Wire demux: every connection the controller accepted.
    conns: HashMap<ConnId, Leg>,
}

impl ControlPlane {
    /// The controller with its four stages: discovery bridge, VM
    /// lifecycle, FIB mirror and ARP proxy.
    pub fn new(cfg: RfControllerConfig) -> ControlPlane {
        ControlPlane {
            cfg,
            stages: Stages {
                bridge: DiscoveryBridge::default(),
                lifecycle: VmLifecycle::default(),
                fib: FibMirror::default(),
                arp: ArpProxy,
            },
            state: ControlState::default(),
            io: ChannelIo::new(),
            conns: HashMap::new(),
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

    /// Messages currently waiting in switch-channel FIFOs (stalled,
    /// credit-capped, beyond a bounded window, or waiting for their
    /// channel to come up). A FIB batch still filling is not counted.
    pub fn channel_queued(&self) -> usize {
        self.io.channels.values().map(|c| c.queue.len()).sum()
    }

    /// Run `f` over the stages with this controller's context.
    fn with_cx(&mut self, sim: &mut Ctx<'_>, f: impl FnOnce(&mut Stages, &mut AppCtx<'_, '_>)) {
        let cx = &mut AppCtx {
            sim,
            state: &mut self.state,
            config: &self.cfg,
            io: &mut self.io,
        };
        f(&mut self.stages, cx);
    }

    // ------------------------------------------------------------------
    // Wire handlers.
    // ------------------------------------------------------------------

    /// Name connection `conn` for switch `dpid`.
    fn name_leg(&mut self, conn: ConnId, dpid: u64) {
        if let Some(Leg::Of(_, named) | Leg::Vm(_, named)) = self.conns.get_mut(&conn) {
            *named = Some(dpid);
        }
    }

    /// A message off OpenFlow channel `conn`, named `dpid` so far.
    fn handle_of_msg(
        &mut self,
        ctx: &mut Ctx<'_>,
        conn: ConnId,
        dpid: Option<u64>,
        msg: OfMessage,
    ) {
        match msg {
            OfMessage::Hello => {}
            OfMessage::FeaturesReply(f) => {
                let dpid = f.datapath_id;
                self.name_leg(conn, dpid);
                self.io.dpid_of.insert(dpid, conn);
                // Flush messages queued before the channel came up —
                // one multi-message push, as far as credits and stall
                // windows allow (the drain tick finishes the rest).
                self.with_cx(ctx, |_, cx| {
                    cx.flush(dpid);
                });
            }
            OfMessage::PacketIn { in_port, data, .. } => {
                let Some(dpid) = dpid else { return };
                self.with_cx(ctx, |s, cx| s.arp.on_packet_in(cx, dpid, in_port, &data));
            }
            _ => {}
        }
    }

    /// A message off VM channel `conn`, named `dpid` so far.
    fn handle_vm_msg(
        &mut self,
        ctx: &mut Ctx<'_>,
        conn: ConnId,
        dpid: Option<u64>,
        msg: RfMessage,
    ) {
        match msg {
            RfMessage::Booted { dpid } => {
                self.name_leg(conn, dpid);
                if let Some(rec) = self.state.switches.get_mut(&dpid) {
                    rec.vm_conn = Some(conn);
                }
                self.with_cx(ctx, |s, cx| s.on_vm_up(cx, dpid));
            }
            RfMessage::RouteAdd {
                prefix, out_iface, ..
            } => {
                // A VM names itself before it reports a route.
                let Some(dpid) = dpid else { return };
                self.with_cx(ctx, |s, cx| s.fib.on_route_add(cx, dpid, prefix, out_iface));
            }
            RfMessage::RouteDel { prefix } => {
                let Some(dpid) = dpid else { return };
                self.with_cx(ctx, |s, cx| s.fib.on_route_del(cx, dpid, prefix));
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
        self.with_cx(ctx, |s, cx| s.on_timer(cx, token));
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
                let leg = match service {
                    s if s == RPC_SERVER_SERVICE => Leg::Rpc(RpcServerEndpoint::new()),
                    s if s == RF_SERVICE => Leg::Vm(RfFrameReader::new(), None),
                    _ => {
                        // FlowVisor (or a switch directly) on the OF side.
                        ctx.conn_send(conn, OfMessage::Hello.encode(0));
                        let xid = self.io.next_xid();
                        ctx.conn_send(conn, OfMessage::FeaturesRequest.encode(xid));
                        Leg::Of(MessageReader::new(), None)
                    }
                };
                self.conns.insert(conn, leg);
            }
            // No handler removes a leg or resets its reader, so taking
            // the messages one at a time sees what reading them all
            // first would; a frame that fails to decode is dropped and
            // the ones behind it are read on.
            StreamEvent::Data(data) => match self.conns.get_mut(&conn) {
                Some(Leg::Rpc(server)) => {
                    // The relay reads nothing back, so the acks stay unsent.
                    let (requests, _acks) = server.feed_bytes(data);
                    ctx.count("rpc.received", requests.len() as u64);
                    for req in requests {
                        self.with_cx(ctx, |s, cx| s.on_rpc(cx, req));
                    }
                }
                Some(Leg::Vm(reader, _)) => {
                    reader.push_bytes(data);
                    while let Some(Leg::Vm(reader, dpid)) = self.conns.get_mut(&conn) {
                        let dpid = *dpid;
                        let Some(m) = reader.next() else { break };
                        if let Ok(m) = m {
                            self.handle_vm_msg(ctx, conn, dpid, m);
                        }
                    }
                }
                Some(Leg::Of(reader, _)) => {
                    reader.push_bytes(data);
                    while let Some(Leg::Of(reader, dpid)) = self.conns.get_mut(&conn) {
                        let dpid = *dpid;
                        let Some(m) = reader.next() else { break };
                        if let Ok((m, _)) = m {
                            self.handle_of_msg(ctx, conn, dpid, m);
                        }
                    }
                }
                None => {}
            },
            StreamEvent::Closed => match self.conns.remove(&conn) {
                Some(Leg::Of(_, Some(dpid))) => {
                    self.io.dpid_of.remove(&dpid);
                }
                Some(Leg::Vm(_, Some(dpid))) => {
                    if let Some(rec) = self.state.switches.get_mut(&dpid) {
                        rec.vm_conn = None;
                    }
                }
                _ => {}
            },
        }
    }
}
