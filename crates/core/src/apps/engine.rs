//! The control-plane engine: wire I/O demultiplexing and bus dispatch.
//!
//! The engine is the only [`Agent`] on the controller side. It owns the
//! OpenFlow channels (from FlowVisor or switches), the embedded RPC
//! server (from the topology controller) and the RF-protocol channels
//! (from the VMs), translates their bytes into [`ControlEvent`]s, and
//! publishes them to the registered [`ControlApp`]s. Transport chores
//! that no app should ever see — Hello/Echo, handshake bookkeeping,
//! flushing FLOW_MODs queued while a channel was down, RPC acks and
//! dedup — are handled here.

use super::bus::{AppCtx, BusIo, ControlApp, ControlEvent, ControlState, FibChange};
use super::channel::{ChannelLayer, CHANNEL_DRAIN_TOKEN};
use super::{ArpProxyApp, DiscoveryBridgeApp, FibMirrorApp, VmLifecycleApp};
use crate::rfcontroller::{RfControllerConfig, RF_CONTROLLER_OF_SERVICE};
use crate::vnet::rfproto::{RfFrameReader, RfMessage, RF_SERVICE};
use rf_openflow::{MessageReader, OfMessage};
use rf_rpc::{RpcServerEndpoint, RPC_SERVER_SERVICE};
use rf_sim::{Agent, ConnId, Ctx, StreamEvent, Time};
use std::collections::{HashMap, VecDeque};

/// The RouteFlow controller as an event-bus engine hosting pluggable
/// control apps.
#[derive(Clone)]
pub struct ControlPlane {
    cfg: RfControllerConfig,
    apps: Vec<Box<dyn ControlApp>>,
    state: ControlState,
    io: BusIo,
    bus: VecDeque<ControlEvent>,
    /// True while the bus loop is draining (re-entrant publishes from
    /// nested I/O must only enqueue, not start a second drain).
    dispatching: bool,
    // Wire demux.
    of_readers: HashMap<ConnId, MessageReader>,
    of_dpid: HashMap<ConnId, u64>,
    rpc: RpcServerEndpoint,
    rpc_conns: Vec<ConnId>,
    vm_readers: HashMap<ConnId, RfFrameReader>,
    vm_dpid: HashMap<ConnId, u64>,
    /// Reused per-event decode buffer (capacity persists across events).
    of_scratch: Vec<(OfMessage, u32)>,
}

impl ControlPlane {
    /// Engine with the standard four apps: discovery bridge, VM
    /// lifecycle, FIB mirror, ARP proxy — together they reproduce the
    /// monolithic RF-controller's behaviour.
    pub fn new(cfg: RfControllerConfig) -> ControlPlane {
        let mut cp = ControlPlane::bare(cfg);
        cp.register(Box::new(DiscoveryBridgeApp::new()));
        cp.register(Box::new(VmLifecycleApp::new()));
        cp.register(Box::new(FibMirrorApp::new()));
        cp.register(Box::new(ArpProxyApp::new()));
        cp
    }

    /// Engine with no apps registered — for tests and bespoke stacks
    /// that compose their own pipeline.
    pub fn bare(cfg: RfControllerConfig) -> ControlPlane {
        ControlPlane {
            cfg,
            apps: Vec::new(),
            state: ControlState::default(),
            io: BusIo::new(),
            bus: VecDeque::new(),
            dispatching: false,
            of_readers: HashMap::new(),
            of_dpid: HashMap::new(),
            rpc: RpcServerEndpoint::new(),
            rpc_conns: Vec::new(),
            vm_readers: HashMap::new(),
            vm_dpid: HashMap::new(),
            of_scratch: Vec::new(),
        }
    }

    /// Register an app; it sees every event after the ones registered
    /// before it. Returns `self` for chaining.
    pub fn register(&mut self, app: Box<dyn ControlApp>) -> &mut ControlPlane {
        self.apps.push(app);
        self
    }

    /// Builder-style [`ControlPlane::register`].
    pub fn with_app(mut self, app: Box<dyn ControlApp>) -> ControlPlane {
        self.apps.push(app);
        self
    }

    /// Names of the registered apps, in dispatch order.
    pub fn app_names(&self) -> Vec<&'static str> {
        self.apps.iter().map(|a| a.name()).collect()
    }

    /// Shared control-plane state (tests, metrics harvesting).
    pub fn state(&self) -> &ControlState {
        &self.state
    }

    /// Controller configuration.
    pub fn config(&self) -> &RfControllerConfig {
        &self.cfg
    }

    /// Append a channel-stall window to the configuration at runtime.
    /// A window that lies entirely in the future is indistinguishable
    /// from one declared at construction (stalls only act through
    /// `covers(now)` checks at send/drain time), which is what lets a
    /// forked scenario inject a cell's stall schedule post-fork.
    pub fn add_channel_stall(&mut self, window: crate::apps::ChannelStallWindow) {
        self.cfg.channel_stalls.push(window);
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

    /// Port count recorded for each switch.
    pub fn switch_port_counts(&self) -> Vec<(u64, u16)> {
        self.state
            .switches
            .iter()
            .map(|(d, s)| (*d, s.num_ports))
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

    /// Routed + host flows pushed to the data plane.
    pub fn flows_installed(&self) -> u64 {
        self.state.flows_installed
    }

    /// Flow deletions pushed to the data plane.
    pub fn flows_removed(&self) -> u64 {
        self.state.flows_removed
    }

    /// Gateway ARPs answered on behalf of the VMs.
    pub fn arp_replies(&self) -> u64 {
        self.state.arp_replies
    }

    /// OpenFlow messages written toward switches (excludes Hello/Echo
    /// transport chores).
    pub fn of_msgs_sent(&self) -> u64 {
        self.state.of_msgs_sent
    }

    /// Wire bytes of those messages.
    pub fn of_bytes_sent(&self) -> u64 {
        self.state.of_bytes_sent
    }

    /// Transport writes carrying them (smaller than `of_msgs_sent`
    /// when multi-message pushes coalesce bursts).
    pub fn of_pushes(&self) -> u64 {
        self.state.of_pushes
    }

    /// Multi-message FLOW_MOD pushes flushed by the FIB batching stage.
    pub fn fib_batches(&self) -> u64 {
        self.state.fib_batches
    }

    /// Messages refused back to producers by bounded channels (Defer).
    pub fn of_deferred(&self) -> u64 {
        self.state.of_deferred
    }

    /// Queued messages evicted by bounded channels (DropOldest).
    pub fn of_dropped(&self) -> u64 {
        self.state.of_dropped
    }

    /// Deepest switch-channel queue observed over the run.
    pub fn of_queue_hwm(&self) -> u64 {
        self.state.of_queue_hwm
    }

    /// Messages currently parked in switch-channel queues (stalled,
    /// credit-capped, or waiting for their channel to come up).
    pub fn channel_queued(&self) -> usize {
        self.io.channels.values().map(|c| c.queue.len()).sum()
    }

    // ------------------------------------------------------------------
    // Bus dispatch.
    // ------------------------------------------------------------------

    /// Publish an event and drain the bus: every app sees every event
    /// in registration order; events raised while handling one are
    /// processed after it (breadth-first), keeping dispatch
    /// deterministic however deeply apps cascade.
    pub fn publish(&mut self, ctx: &mut Ctx<'_>, ev: ControlEvent) {
        self.bus.push_back(ev);
        if self.dispatching {
            return; // the active drain loop will pick it up
        }
        self.dispatching = true;
        while let Some(ev) = self.bus.pop_front() {
            for app in &mut self.apps {
                let mut cx = AppCtx {
                    sim: ctx,
                    state: &mut self.state,
                    config: &self.cfg,
                    io: &mut self.io,
                    bus: &mut self.bus,
                };
                app.on_event(&mut cx, &ev);
            }
        }
        self.dispatching = false;
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
                self.publish(ctx, ControlEvent::ChannelUp { dpid });
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
                metric,
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
                        metric,
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
            // and flush what can move. Apps never see this tick.
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
                } else if self.vm_readers.contains_key(&conn) {
                    let msgs = {
                        let r = self.vm_readers.get_mut(&conn).unwrap();
                        r.push(&data);
                        let mut v = Vec::new();
                        while let Some(m) = r.next() {
                            v.push(m);
                        }
                        v
                    };
                    for m in msgs {
                        self.handle_vm_msg(ctx, conn, m);
                    }
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
