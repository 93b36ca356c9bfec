//! ARP proxy and host learning: answers hosts' gateway ARPs on the
//! VMs' behalf, learns host MACs from their ARP traffic, and installs
//! per-host /32 delivery flows.

use super::channel::{AppCtx, DeferBuffer};
use super::fib_mirror::HOST_FLOW_PRIORITY;
use bytes::Bytes;
use rf_openflow::{Action, FlowModCommand, OfMatch, OfMessage, OFPP_NONE, OFP_NO_BUFFER};
use rf_wire::{ArpOp, ArpPacket, EtherType, EthernetFrame, MacAddr};
use std::net::Ipv4Addr;
use std::time::Duration;

/// Timer token of the deferred host-flow retry tick. The scenario
/// harness also fires it at harvest time so a backlog mid-retry cannot
/// be left unsent in a short cell.
pub(crate) const ARP_RETRY_TOKEN: u64 = 0xA4B0_0000_0000_0000;

/// Retry cadence for host FLOW_MODs a bounded channel refused.
const ARP_RETRY_TICK: Duration = Duration::from_millis(50);

/// Edge behaviour for declared host ports (the one piece of
/// configuration LLDP discovery cannot learn — hosts don't speak LLDP).
///
/// Channel backpressure: host /32 FLOW_MODs are state and must land,
/// so a deferred one goes into a per-switch `DeferBuffer` and
/// retries on a tick. PACKET_OUTs (ARP replies and probes) are
/// data-plane traffic — a deferred one is shed and the protocol's own
/// retry recovers.
#[derive(Clone)]
pub(crate) struct ArpProxy {
    /// Host FLOW_MODs refused by a bounded channel, retried in order.
    deferred: DeferBuffer,
}

impl ArpProxy {
    pub(crate) fn new() -> ArpProxy {
        ArpProxy {
            deferred: DeferBuffer::new(ARP_RETRY_TOKEN, ARP_RETRY_TICK),
        }
    }

    /// Offer a host FLOW_MOD; park the refused tail for the retry tick
    /// (behind any existing backlog, preserving per-switch order).
    fn offer_flow(&mut self, cx: &mut AppCtx<'_, '_>, dpid: u64, fm: OfMessage) {
        if self.deferred.is_backlogged(dpid) {
            self.deferred.park(cx, dpid, vec![fm]);
            return;
        }
        let outcome = cx.send_of(dpid, vec![fm]);
        let _ = self
            .deferred
            .absorb(cx, dpid, outcome, "rf.host_flow_deferred");
    }

    /// Offer a PACKET_OUT; shed it if the channel pushes back.
    fn offer_packet_out(&mut self, cx: &mut AppCtx<'_, '_>, dpid: u64, po: OfMessage) {
        let outcome = cx.send_of(dpid, vec![po]);
        if !outcome.deferred.is_empty() {
            cx.sim
                .count("rf.packet_out_shed", outcome.deferred.len() as u64);
        }
    }

    fn install_host_flow(
        &mut self,
        cx: &mut AppCtx<'_, '_>,
        ip: Ipv4Addr,
        dpid: u64,
        port: u16,
        mac: MacAddr,
    ) {
        let fm = OfMessage::FlowMod {
            of_match: OfMatch::ipv4_dst_prefix(ip, 32),
            cookie: 0x4F53_5400, // "HOST"
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: HOST_FLOW_PRIORITY,
            buffer_id: OFP_NO_BUFFER,
            out_port: OFPP_NONE,
            flags: 0,
            actions: vec![
                Action::SetDlSrc(MacAddr::from_dpid_port(dpid, port)),
                Action::SetDlDst(mac),
                Action::output(port),
            ],
        };
        cx.state.flows_installed += 1;
        cx.sim.count("rf.flow_add", 1);
        self.offer_flow(cx, dpid, fm);
    }

    pub(crate) fn on_packet_in(
        &mut self,
        cx: &mut AppCtx<'_, '_>,
        dpid: u64,
        in_port: u16,
        data: &Bytes,
    ) {
        let Ok(eth) = EthernetFrame::parse_bytes(data) else {
            return;
        };
        if eth.ethertype == EtherType::IPV4 {
            // A punted IPv4 packet destined to a host we have not
            // learned yet: resolve it on demand, like a router ARPs for
            // a directly-connected next hop. The punted packet itself
            // is dropped (no ARP queue); the sender's retry flows once
            // the /32 is installed.
            if let Ok(ip) = rf_wire::Ipv4Packet::parse_bytes(&eth.payload) {
                if !cx.state.hosts.contains_key(&ip.dst) {
                    let target = cx
                        .config
                        .host_ports
                        .iter()
                        .find(|h| h.dpid == dpid && h.subnet.contains(ip.dst))
                        .cloned();
                    if let Some(h) = target {
                        let gw_mac = MacAddr::from_dpid_port(h.dpid, h.port);
                        let req = ArpPacket::request(gw_mac, h.gateway, ip.dst);
                        let frame = EthernetFrame::new(
                            MacAddr::BROADCAST,
                            gw_mac,
                            EtherType::ARP,
                            req.emit(),
                        );
                        let po = OfMessage::PacketOut {
                            buffer_id: OFP_NO_BUFFER,
                            in_port: OFPP_NONE,
                            actions: vec![Action::output(h.port)],
                            data: frame.emit(),
                        };
                        cx.sim.count("rf.arp_probe", 1);
                        self.offer_packet_out(cx, dpid, po);
                    }
                }
            }
            return;
        }
        if eth.ethertype != EtherType::ARP {
            return;
        }
        let Ok(arp) = ArpPacket::parse(&eth.payload) else {
            return;
        };
        // Learn the sender if it is a host on a declared port.
        let on_host_port = cx
            .config
            .host_ports
            .iter()
            .any(|h| h.dpid == dpid && h.port == in_port && h.subnet.contains(arp.sender_ip));
        if on_host_port && arp.sender_ip != Ipv4Addr::UNSPECIFIED {
            let newly = cx
                .state
                .hosts
                .insert(arp.sender_ip, (dpid, in_port, arp.sender_mac))
                .is_none();
            if newly {
                self.install_host_flow(cx, arp.sender_ip, dpid, in_port, arp.sender_mac);
            }
        }
        // Answer gateway ARP requests on the VM's behalf.
        if arp.op == ArpOp::Request {
            let gw = cx
                .config
                .host_ports
                .iter()
                .find(|h| h.dpid == dpid && h.port == in_port && h.gateway == arp.target_ip)
                .cloned();
            if let Some(h) = gw {
                let gw_mac = MacAddr::from_dpid_port(h.dpid, h.port);
                let reply = ArpPacket::reply_to(&arp, gw_mac);
                let frame =
                    EthernetFrame::new(arp.sender_mac, gw_mac, EtherType::ARP, reply.emit());
                let po = OfMessage::PacketOut {
                    buffer_id: OFP_NO_BUFFER,
                    in_port: OFPP_NONE,
                    actions: vec![Action::output(in_port)],
                    data: frame.emit(),
                };
                cx.state.arp_replies += 1;
                cx.sim.count("rf.arp_reply", 1);
                self.offer_packet_out(cx, dpid, po);
            }
        }
    }

    /// The [`ARP_RETRY_TOKEN`] tick: re-offer every backlog.
    pub(crate) fn on_timer(&mut self, cx: &mut AppCtx<'_, '_>) {
        self.deferred.on_tick();
        for dpid in self.deferred.dpids() {
            let msgs = self.deferred.take(dpid);
            let outcome = cx.send_of(dpid, msgs);
            let _ = self
                .deferred
                .absorb(cx, dpid, outcome, "rf.host_flow_deferred");
        }
    }

    /// Forget a dead switch's backlog and the hosts learned on it: a
    /// revived switch learns them again, re-installing their /32s.
    pub(crate) fn on_switch_down(&mut self, cx: &mut AppCtx<'_, '_>, dpid: u64) {
        self.deferred.forget(dpid);
        cx.state.hosts.retain(|_, (d, _, _)| *d != dpid);
    }
}
