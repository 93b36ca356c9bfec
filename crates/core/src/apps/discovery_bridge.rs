//! Discovery bridge: refines raw topology-controller RPC requests into
//! typed switch and link changes and owns the link/port bookkeeping
//! every other stage reads.

use super::channel::AppCtx;
use super::state::LinkRec;
use rf_rpc::RpcRequest;
use rf_sim::LinkId;
use std::collections::BTreeSet;

/// A physical-link change, as refined by the discovery bridge (the
/// link's addressing is already in
/// [`ControlState::links`](super::ControlState::links)).
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

/// What the bridge derived from one RPC request.
pub(crate) enum Refined {
    /// A switch was detected (first announcement only).
    SwitchUp {
        dpid: u64,
        num_ports: u16,
    },
    /// A switch left the network.
    SwitchDown {
        dpid: u64,
    },
    Link(LinkChange),
}

/// Refines [`RpcRequest`]s:
///
/// * `SwitchDetected` → [`Refined::SwitchUp`] (first time only);
/// * `SwitchRemoved` → [`Refined::SwitchDown`], dropping the dead
///   switch's link records;
/// * `LinkDetected` → [`LinkChange::Up`], held back until the VMs on
///   both ends have been provisioned (re-tried by
///   [`DiscoveryBridge::on_vm_spawned`]);
/// * `LinkRemoved` → [`LinkChange::Down`].
#[derive(Clone, Default)]
pub(crate) struct DiscoveryBridge {
    /// Switches already announced.
    known: BTreeSet<u64>,
    /// Links seen before both VMs existed, in arrival order.
    pending_links: Vec<LinkRec>,
}

impl DiscoveryBridge {
    pub(crate) fn on_rpc(&mut self, cx: &mut AppCtx<'_, '_>, req: RpcRequest) -> Option<Refined> {
        match req {
            RpcRequest::SwitchDetected { dpid, num_ports } => {
                // Once only: a repeated announcement yields nothing.
                self.known
                    .insert(dpid)
                    .then_some(Refined::SwitchUp { dpid, num_ports })
            }
            RpcRequest::SwitchRemoved { dpid } => {
                if !self.known.remove(&dpid) {
                    return None;
                }
                cx.state
                    .port_peer
                    .retain(|(d, _), (pd, _)| *d != dpid && *pd != dpid);
                cx.state.links.retain(|l| l.a.0 != dpid && l.b.0 != dpid);
                Some(Refined::SwitchDown { dpid })
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
                let link = LinkRec {
                    a: (a_dpid, a_port),
                    b: (b_dpid, b_port),
                    subnet,
                    ip_a,
                    ip_b,
                    sim_link: None,
                };
                if !provisioned(cx, &link) {
                    self.pending_links.push(link);
                    return None;
                }
                link_up(cx, link).map(Refined::Link)
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
                // vanished first), the lifecycle stage still gets the
                // change so both ends' configurations are rewritten.
                Some(Refined::Link(LinkChange::Down {
                    a: (a_dpid, a_port),
                    b: (b_dpid, b_port),
                    sim_link,
                }))
            }
        }
    }

    /// A new VM may complete the endpoint pair of links that arrived
    /// early: returns the link-ups it releases, in arrival order.
    pub(crate) fn on_vm_spawned(&mut self, cx: &mut AppCtx<'_, '_>) -> Vec<LinkChange> {
        let mut released = Vec::new();
        self.pending_links.retain(|link| {
            if !provisioned(cx, link) {
                return true;
            }
            released.extend(link_up(cx, link.clone()));
            false
        });
        released
    }
}

/// Whether the VMs on both ends of `link` exist.
fn provisioned(cx: &AppCtx<'_, '_>, link: &LinkRec) -> bool {
    let has_vm = |dpid| cx.state.switches.get(&dpid).and_then(|s| s.vm).is_some();
    has_vm(link.a.0) && has_vm(link.b.0)
}

/// Record a detected link whose VMs both exist; `None` for a duplicate.
fn link_up(cx: &mut AppCtx<'_, '_>, link: LinkRec) -> Option<LinkChange> {
    let (a, b) = (link.a, link.b);
    if cx.state.links.iter().any(|l| l.a == a && l.b == b) {
        return None;
    }
    cx.state.links.push(link);
    cx.state.port_peer.insert(a, b);
    cx.state.port_peer.insert(b, a);
    Some(LinkChange::Up { a, b })
}
