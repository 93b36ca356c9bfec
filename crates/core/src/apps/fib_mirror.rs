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
//! identical to the unbatched run (see `tests/fib_batching.rs`). What a
//! bounded channel cannot send yet waits in the switch's channel FIFO,
//! not here.

use super::channel::AppCtx;
use rf_openflow::{Action, FlowModCommand, OfMatch, OfMessage, OFPP_NONE, OFP_NO_BUFFER};
use rf_wire::{Ipv4Cidr, MacAddr};
use std::collections::BTreeMap;
use std::time::Duration;

/// Flow priority encoding: longest-prefix-match via OF 1.0 priorities.
/// A /32 lands at `0x1100`, still below [`HOST_FLOW_PRIORITY`].
pub(crate) fn route_priority(prefix_len: u8) -> u16 {
    0x1000 + u16::from(prefix_len) * 8
}

/// Host /32 delivery flows outrank every routed prefix.
pub(crate) const HOST_FLOW_PRIORITY: u16 = 0x2000;

/// Timer token of the batch flush tick (timer tokens share one
/// namespace across this controller's stages, so the prefix is the
/// stage's). The scenario harness also fires it at harvest time so a
/// sub-tick tail batch cannot be left unsent in a short cell.
pub(crate) const FIB_FLUSH_TOKEN: u64 = 0xF1B0_0000_0000_0000;

/// How long a queued FLOW_MOD may wait for the batch to fill before
/// the tick pushes it anyway.
const FIB_FLUSH_TICK: Duration = Duration::from_millis(50);

/// Mirrors VM FIB changes onto the data plane.
#[derive(Clone, Default)]
pub(crate) struct FibMirror {
    /// FLOW_MODs queued per switch while a batch fills (`fib_batch > 1`
    /// only; keyed deterministically so flush order never wobbles).
    pending: BTreeMap<u64, Vec<OfMessage>>,
    /// True while a flush tick is scheduled.
    tick_armed: bool,
}

impl FibMirror {
    fn arm_tick(&mut self, cx: &mut AppCtx<'_, '_>) {
        if !self.tick_armed {
            cx.sim.schedule(FIB_FLUSH_TICK, FIB_FLUSH_TOKEN);
            self.tick_armed = true;
        }
    }

    /// Hand a FLOW_MOD to the batching stage: immediate send at
    /// `fib_batch <= 1` (paper-faithful), otherwise queue per switch
    /// and flush on the size threshold.
    fn emit(&mut self, cx: &mut AppCtx<'_, '_>, dpid: u64, fm: OfMessage) {
        let batch = cx.config.fib_batch;
        if batch <= 1 {
            cx.send_of(dpid, vec![fm]);
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

    /// Push one switch's pending batch as a single multi-message offer.
    /// Only counts a batch when the push actually reaches the wire — a
    /// down, stalled or credit-starved channel queues the messages
    /// instead.
    fn flush_switch(&mut self, cx: &mut AppCtx<'_, '_>, dpid: u64) {
        let Some(msgs) = self.pending.remove(&dpid) else {
            return;
        };
        if cx.send_of(dpid, msgs) > 0 {
            cx.sim.count("rf.fib_batch_flush", 1);
            cx.state.fib_batches += 1;
        }
    }

    /// The VM mirroring `dpid` installed a routed prefix (a VM reports
    /// no connected one).
    pub(crate) fn on_route_add(
        &mut self,
        cx: &mut AppCtx<'_, '_>,
        dpid: u64,
        prefix: Ipv4Cidr,
        out_iface: u16,
    ) {
        let Some(&(peer_dpid, peer_port)) = cx.state.port_peer.get(&(dpid, out_iface)) else {
            // A stale route onto a link this controller already removed
            // (the VM has not yet applied the configuration without it).
            cx.sim.count("rf.route_add_stale", 1);
            return;
        };
        let fm = OfMessage::FlowMod {
            of_match: OfMatch::ipv4_dst_prefix(prefix.network(), prefix.prefix_len),
            cookie: u64::from(u32::from(prefix.network())) << 8 | u64::from(prefix.prefix_len),
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

    /// The VM mirroring `dpid` withdrew a route.
    pub(crate) fn on_route_del(&mut self, cx: &mut AppCtx<'_, '_>, dpid: u64, prefix: Ipv4Cidr) {
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

    /// The [`FIB_FLUSH_TOKEN`] tick: flush every batch window.
    pub(crate) fn on_timer(&mut self, cx: &mut AppCtx<'_, '_>) {
        self.tick_armed = false;
        let dpids: Vec<u64> = self.pending.keys().copied().collect();
        for dpid in dpids {
            self.flush_switch(cx, dpid);
        }
    }

    pub(crate) fn on_switch_down(&mut self, dpid: u64) {
        // Drop FLOW_MODs still waiting in the dead switch's batch
        // window: flushing them would only park stale routes in the
        // channel's replay queue, to be installed if a switch ever
        // re-attaches with this dpid.
        self.pending.remove(&dpid);
    }
}
