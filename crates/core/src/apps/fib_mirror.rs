//! FIB → FLOW_MOD mirror: every route a VM's routing stack installs
//! becomes a flow on the mirrored physical switch, with prefix length
//! encoded in flow priority so OF 1.0's single table performs
//! longest-prefix matching.
//!
//! With `fib_batch > 1` the mirror adds a per-switch batching stage:
//! FLOW_MODs coalesce in a per-dpid queue and go out as one
//! multi-message push ([`OfMessage::encode_batch`]) when the queue
//! reaches the batch threshold or the next flush tick fires — cutting
//! controller transport writes on reconvergence bursts and cold
//! starts. Per-switch message order is preserved, so the final FIB is
//! identical to the unbatched run (see `tests/fib_batching.rs`).

use super::bus::{AppCtx, FibChange};
use super::channel::DeferBuffer;
use rf_openflow::{Action, FlowModCommand, OfMatch, OfMessage, OFPP_NONE, OFP_NO_BUFFER};
use rf_wire::MacAddr;
use std::collections::BTreeMap;
use std::time::Duration;

/// Flow priority encoding: longest-prefix-match via OF 1.0 priorities.
/// A /32 lands at `0x1100`, still below [`HOST_FLOW_PRIORITY`].
pub(crate) fn route_priority(prefix_len: u8) -> u16 {
    0x1000 + u16::from(prefix_len) * 8
}

/// Host /32 delivery flows outrank every routed prefix.
pub(crate) const HOST_FLOW_PRIORITY: u16 = 0x2000;

/// Bus-timer token of the batch flush tick (timer tokens share one
/// namespace across this controller's stages, so the prefix is the
/// stage's). The scenario harness also fires it at harvest time so a
/// sub-tick tail batch cannot be left unsent in a short cell.
pub(crate) const FIB_FLUSH_TOKEN: u64 = 0xF1B0_0000_0000_0000;

/// How long a queued FLOW_MOD may wait for the batch to fill before
/// the tick pushes it anyway.
const FIB_FLUSH_TICK: Duration = Duration::from_millis(50);

/// Mirrors VM FIB changes onto the data plane.
#[derive(Clone)]
pub(crate) struct FibMirror {
    /// FLOW_MODs queued per switch while a batch fills (`fib_batch > 1`
    /// only; keyed deterministically so flush order never wobbles).
    pending: BTreeMap<u64, Vec<OfMessage>>,
    /// FLOW_MODs a bounded switch channel refused, retried on the
    /// flush tick. That retry loop is what makes deferral lossless: the
    /// final FIB is byte-identical to the unbounded run.
    deferred: DeferBuffer,
    /// True while a flush tick is scheduled for the *batch* stage (the
    /// deferral backlog arms its own, sharing the same token).
    tick_armed: bool,
}

impl FibMirror {
    pub(crate) fn new() -> FibMirror {
        FibMirror {
            pending: BTreeMap::new(),
            deferred: DeferBuffer::new(FIB_FLUSH_TOKEN, FIB_FLUSH_TICK),
            tick_armed: false,
        }
    }

    fn arm_tick(&mut self, cx: &mut AppCtx<'_, '_>) {
        if !self.tick_armed {
            cx.sim.schedule(FIB_FLUSH_TICK, FIB_FLUSH_TOKEN);
            self.tick_armed = true;
        }
    }

    /// Hand a FLOW_MOD to the batching stage: immediate send at
    /// `fib_batch <= 1` (paper-faithful), otherwise queue per switch
    /// and flush on the size threshold. A switch with a deferral
    /// backlog keeps accumulating behind it so per-switch order holds.
    fn emit(&mut self, cx: &mut AppCtx<'_, '_>, dpid: u64, fm: OfMessage) {
        let batch = cx.config.fib_batch;
        if batch <= 1 {
            if self.deferred.is_backlogged(dpid) {
                self.deferred.park(cx, dpid, vec![fm]);
                return;
            }
            let outcome = cx.send_of(dpid, vec![fm]);
            let _ = self.deferred.absorb(cx, dpid, outcome, "rf.fib_deferred");
            return;
        }
        let q = self.pending.entry(dpid).or_default();
        q.push(fm);
        if q.len() >= batch {
            self.flush_switch(cx, dpid);
        } else {
            self.arm_tick(cx);
        }
    }

    /// Push one switch's backlog + pending batch as a single
    /// multi-message offer. Only counts a batch when the push actually
    /// reaches the wire — a down, stalled or credit-starved channel
    /// queues (or defers) the messages instead.
    fn flush_switch(&mut self, cx: &mut AppCtx<'_, '_>, dpid: u64) {
        let mut msgs = self.deferred.take(dpid);
        msgs.extend(self.pending.remove(&dpid).unwrap_or_default());
        if msgs.is_empty() {
            return;
        }
        let outcome = cx.send_of(dpid, msgs);
        if self.deferred.absorb(cx, dpid, outcome, "rf.fib_deferred") {
            cx.sim.count("rf.fib_batch_flush", 1);
            cx.state.fib_batches += 1;
        }
    }

    pub(crate) fn on_fib(&mut self, cx: &mut AppCtx<'_, '_>, change: FibChange) {
        match change {
            FibChange::Add {
                dpid,
                prefix,
                next_hop,
                out_iface,
            } => {
                if next_hop.is_none() {
                    // Connected routes need no transit flow: traffic to
                    // the hosts behind this switch is delivered by the
                    // learned per-host /32 flows; traffic to the /30
                    // router addresses stays in the VM environment.
                    return;
                }
                let Some(&(peer_dpid, peer_port)) = cx.state.port_peer.get(&(dpid, out_iface))
                else {
                    return; // stale route onto a vanished link
                };
                let fm = OfMessage::FlowMod {
                    of_match: OfMatch::ipv4_dst_prefix(prefix.network(), prefix.prefix_len),
                    cookie: u64::from(u32::from(prefix.network())) << 8
                        | u64::from(prefix.prefix_len),
                    command: FlowModCommand::Add,
                    idle_timeout: 0,
                    hard_timeout: 0,
                    priority: route_priority(prefix.prefix_len),
                    buffer_id: OFP_NO_BUFFER,
                    out_port: OFPP_NONE,
                    flags: 0,
                    actions: vec![
                        Action::SetDlSrc(MacAddr::from_dpid_port(dpid, out_iface)),
                        Action::SetDlDst(MacAddr::from_dpid_port(peer_dpid, peer_port)),
                        Action::output(out_iface),
                    ],
                };
                cx.state.installed.insert(
                    (dpid, u32::from(prefix.network()), prefix.prefix_len),
                    route_priority(prefix.prefix_len),
                );
                cx.state.flows_installed += 1;
                cx.sim.count("rf.flow_add", 1);
                self.emit(cx, dpid, fm);
            }
            FibChange::Del { dpid, prefix } => {
                let key = (dpid, u32::from(prefix.network()), prefix.prefix_len);
                let Some(priority) = cx.state.installed.remove(&key) else {
                    return;
                };
                let fm = OfMessage::FlowMod {
                    of_match: OfMatch::ipv4_dst_prefix(prefix.network(), prefix.prefix_len),
                    cookie: 0,
                    command: FlowModCommand::DeleteStrict,
                    idle_timeout: 0,
                    hard_timeout: 0,
                    priority,
                    buffer_id: OFP_NO_BUFFER,
                    out_port: OFPP_NONE,
                    flags: 0,
                    actions: vec![],
                };
                cx.state.flows_removed += 1;
                cx.sim.count("rf.flow_del", 1);
                self.emit(cx, dpid, fm);
            }
        }
    }

    pub(crate) fn on_timer(&mut self, cx: &mut AppCtx<'_, '_>, token: u64) {
        if !self.deferred.on_tick(token) {
            return; // the buffer shares FIB_FLUSH_TOKEN with the batch stage
        }
        self.tick_armed = false;
        let mut dpids: Vec<u64> = self.pending.keys().copied().collect();
        dpids.extend(self.deferred.dpids());
        for dpid in dpids {
            self.flush_switch(cx, dpid);
        }
    }

    pub(crate) fn on_switch_down(&mut self, dpid: u64) {
        // Drop FLOW_MODs still waiting in the dead switch's batch
        // window or deferral backlog: flushing them would only park
        // stale routes in the channel's replay queue, to be installed
        // if a switch ever re-attaches with this dpid.
        self.pending.remove(&dpid);
        self.deferred.forget(dpid);
    }
}
