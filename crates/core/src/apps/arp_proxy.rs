//! ARP proxy and host learning: answers hosts' gateway ARPs on the
//! VMs' behalf, learns host MACs from their ARP traffic, and installs
//! per-host /32 delivery flows.
//!
//! Everything it sends goes through the switch's channel FIFO: a host
//! /32 FLOW_MOD is state and waits there behind anything earlier,
//! while a PACKET_OUT (an ARP reply or probe) that a bounded channel
//! cannot admit is shed, and the host's own ARP retry recovers it.

use super::channel::AppCtx;
use super::fib_mirror::HOST_FLOW_PRIORITY;
use bytes::Bytes;
use rf_openflow::{Action, FlowModCommand, OfMatch, OfMessage, OFPP_NONE, OFP_NO_BUFFER};
use rf_wire::{ArpOp, ArpPacket, EtherType, EthernetFrame, MacAddr};
use std::net::Ipv4Addr;

/// Edge behaviour for declared host ports (the one piece of
/// configuration LLDP discovery cannot learn — hosts don't speak LLDP).
#[derive(Clone)]
pub(crate) struct ArpProxy;

impl ArpProxy {
    fn install_host_flow(
        &self,
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
        cx.send_of(dpid, vec![fm]);
    }

    pub(crate) fn on_packet_in(
        &self,
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
                        cx.send_of(dpid, vec![po]);
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
                cx.send_of(dpid, vec![po]);
            }
        }
    }

    /// Forget the hosts learned on a dead switch: a revived switch
    /// learns them again, re-installing their /32s.
    pub(crate) fn on_switch_down(&self, cx: &mut AppCtx<'_, '_>, dpid: u64) {
        cx.state.hosts.retain(|_, (d, _, _)| *d != dpid);
    }
}
