//! Discovery bridge: refines raw topology-controller RPC requests into
//! typed bus events and owns the link/port bookkeeping every other
//! stage reads.

use super::bus::{AppCtx, ControlEvent, LinkChange, LinkRec};
use rf_rpc::RpcRequest;
use std::collections::BTreeSet;

/// Translates [`RpcRequest`]s into [`ControlEvent`]s:
///
/// * `SwitchDetected` → [`ControlEvent::SwitchUp`] (first time only);
/// * `SwitchRemoved` → [`ControlEvent::SwitchDown`], dropping the dead
///   switch's link records;
/// * `LinkDetected` → [`LinkChange::Up`], held back until the VMs on
///   both ends have been provisioned (re-tried on every
///   [`ControlEvent::VmSpawned`]);
/// * `LinkRemoved` → [`LinkChange::Down`].
///
/// `PortStatus` raises nothing: a port flap reaches routing through
/// OSPF's dead interval on the mirrored interface.
#[derive(Clone, Default)]
pub(crate) struct DiscoveryBridge {
    /// Switches already announced on the bus.
    known: BTreeSet<u64>,
    /// Links seen before both VMs existed.
    pending_links: Vec<RpcRequest>,
}

impl DiscoveryBridge {
    pub(crate) fn on_rpc(&mut self, cx: &mut AppCtx<'_, '_>, req: RpcRequest) {
        match req {
            RpcRequest::SwitchDetected { dpid, num_ports } => {
                if !self.known.insert(dpid) {
                    return; // relay retransmission or switch re-probe
                }
                cx.raise(ControlEvent::SwitchUp { dpid, num_ports });
            }
            RpcRequest::SwitchRemoved { dpid } => {
                if !self.known.remove(&dpid) {
                    return;
                }
                cx.state
                    .port_peer
                    .retain(|(d, _), (pd, _)| *d != dpid && *pd != dpid);
                cx.state.links.retain(|l| l.a.0 != dpid && l.b.0 != dpid);
                cx.raise(ControlEvent::SwitchDown { dpid });
            }
            RpcRequest::LinkDetected {
                a_dpid,
                a_port,
                b_dpid,
                b_port,
                subnet,
                ip_a,
                ip_b,
            } => {
                let both_provisioned = cx.state.switches.get(&a_dpid).and_then(|s| s.vm).is_some()
                    && cx.state.switches.get(&b_dpid).and_then(|s| s.vm).is_some();
                if !both_provisioned {
                    self.pending_links.push(RpcRequest::LinkDetected {
                        a_dpid,
                        a_port,
                        b_dpid,
                        b_port,
                        subnet,
                        ip_a,
                        ip_b,
                    });
                    return;
                }
                if cx
                    .state
                    .links
                    .iter()
                    .any(|l| l.a == (a_dpid, a_port) && l.b == (b_dpid, b_port))
                {
                    return; // duplicate
                }
                cx.state.links.push(LinkRec {
                    a: (a_dpid, a_port),
                    b: (b_dpid, b_port),
                    subnet,
                    ip_a,
                    ip_b,
                    sim_link: None,
                });
                cx.state
                    .port_peer
                    .insert((a_dpid, a_port), (b_dpid, b_port));
                cx.state
                    .port_peer
                    .insert((b_dpid, b_port), (a_dpid, a_port));
                cx.raise(ControlEvent::Link(LinkChange::Up {
                    a: (a_dpid, a_port),
                    b: (b_dpid, b_port),
                }));
            }
            RpcRequest::LinkRemoved {
                a_dpid,
                a_port,
                b_dpid,
                b_port,
            } => {
                let sim_link = cx
                    .state
                    .links
                    .iter()
                    .position(|l| l.a == (a_dpid, a_port) && l.b == (b_dpid, b_port))
                    .and_then(|pos| cx.state.links.remove(pos).sim_link);
                cx.state.port_peer.remove(&(a_dpid, a_port));
                cx.state.port_peer.remove(&(b_dpid, b_port));
                // Even when the record is already gone (e.g. the switch
                // vanished first), the lifecycle stage still gets the event
                // so both ends' configurations are rewritten.
                cx.raise(ControlEvent::Link(LinkChange::Down {
                    a: (a_dpid, a_port),
                    b: (b_dpid, b_port),
                    sim_link,
                }));
            }
            RpcRequest::PortStatus { .. } => {}
        }
    }

    /// A new VM may complete the endpoint pair of links that arrived
    /// early.
    pub(crate) fn on_vm_spawned(&mut self, cx: &mut AppCtx<'_, '_>) {
        for req in std::mem::take(&mut self.pending_links) {
            self.on_rpc(cx, req);
        }
    }
}
