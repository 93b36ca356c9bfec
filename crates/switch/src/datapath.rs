//! Frame rewriting and output resolution — the action interpreter.
//!
//! OF 1.0 actions mutate header fields; hardware (and OVS) fix up the
//! IPv4 and L4 checksums as a side effect, so we do the same by
//! re-emitting the affected layers through `rf-wire`.

use bytes::Bytes;
use rf_openflow::{
    Action, PortNumber, OFPP_ALL, OFPP_CONTROLLER, OFPP_FLOOD, OFPP_IN_PORT, OFPP_MAX, OFPP_TABLE,
};
use rf_wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, MacAddr, UdpPacket};
use std::net::Ipv4Addr;

/// Where a processed frame must go.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Egress {
    /// Transmit on a physical port.
    Port(PortNumber, Bytes),
    /// Punt to the controller (output action to `OFPP_CONTROLLER`).
    Controller { max_len: u16, frame: Bytes },
    /// Re-run the flow table (PACKET_OUT to `OFPP_TABLE`).
    Table(Bytes),
}

/// Working copy of a frame that applies header rewrites lazily.
#[derive(Clone)]
struct FrameEditor {
    eth: EthernetFrame,
    ip: Option<Ipv4Packet>,
    udp: Option<UdpPacket>,
    dirty: bool,
}

impl FrameEditor {
    fn new(frame: &Bytes) -> Option<FrameEditor> {
        let eth = EthernetFrame::parse_bytes(frame).ok()?;
        let (ip, udp) = if eth.ethertype == EtherType::IPV4 {
            match Ipv4Packet::parse_bytes(&eth.payload) {
                Ok(ip) => {
                    let udp = if ip.protocol == IpProtocol::UDP {
                        UdpPacket::parse_bytes(&ip.payload, ip.src, ip.dst).ok()
                    } else {
                        None
                    };
                    (Some(ip), udp)
                }
                Err(_) => (None, None),
            }
        } else {
            (None, None)
        };
        Some(FrameEditor {
            eth,
            ip,
            udp,
            dirty: false,
        })
    }

    fn set_nw_src(&mut self, a: Ipv4Addr) {
        if let Some(ip) = &mut self.ip {
            ip.src = a;
            self.dirty = true;
        }
    }

    fn set_nw_dst(&mut self, a: Ipv4Addr) {
        if let Some(ip) = &mut self.ip {
            ip.dst = a;
            self.dirty = true;
        }
    }

    fn set_nw_tos(&mut self, tos: u8) {
        if let Some(ip) = &mut self.ip {
            ip.dscp = tos >> 2;
            self.dirty = true;
        }
    }

    fn set_tp_src(&mut self, p: u16) {
        if let Some(udp) = &mut self.udp {
            udp.src_port = p;
            self.dirty = true;
        }
    }

    fn set_tp_dst(&mut self, p: u16) {
        if let Some(udp) = &mut self.udp {
            udp.dst_port = p;
            self.dirty = true;
        }
    }

    fn render(&self, original: &Bytes) -> Bytes {
        if !self.dirty {
            // Only MAC rewrites (or nothing): patch in place, cheap path.
            let mut eth = self.eth.clone();
            return eth_rebuild(&mut eth, None);
        }
        let mut eth = self.eth.clone();
        let inner = match (&self.ip, &self.udp) {
            (Some(ip), Some(udp)) => {
                let mut ip = ip.clone();
                ip.payload = udp.emit(ip.src, ip.dst);
                Some(ip.emit())
            }
            (Some(ip), None) => Some(ip.emit()),
            _ => None,
        };
        match inner {
            Some(bytes) => eth_rebuild(&mut eth, Some(bytes)),
            None => original.clone(),
        }
    }
}

fn eth_rebuild(eth: &mut EthernetFrame, new_payload: Option<Bytes>) -> Bytes {
    if let Some(p) = new_payload {
        eth.payload = p;
    }
    eth.emit()
}

/// Apply an OF 1.0 action list to `frame` received on `in_port`.
///
/// `num_ports` bounds flood/all expansion (ports are `1..=num_ports`).
/// Returns the list of egress operations in action order. Unknown or
/// unsupported output ports are silently dropped (matching OVS).
pub fn apply_actions(
    frame: &Bytes,
    actions: &[Action],
    in_port: PortNumber,
    num_ports: u16,
) -> Vec<Egress> {
    // Fast path: an action list without header rewrites (the
    // overwhelmingly common case — plain forwarding, floods, punts)
    // leaves the frame byte-identical, so the parse → re-emit round
    // trip below is pure overhead. `emit` pads to the 60-byte minimum,
    // so only already-padded frames are guaranteed to round-trip to
    // themselves; shorter ones (never produced by `emit`, but possible
    // via hand-built PACKET_OUT data) take the slow path, which pads
    // exactly as before.
    let mutates = actions.iter().any(|a| {
        matches!(
            a,
            Action::SetDlSrc(_)
                | Action::SetDlDst(_)
                | Action::SetNwSrc(_)
                | Action::SetNwDst(_)
                | Action::SetNwTos(_)
                | Action::SetTpSrc(_)
                | Action::SetTpDst(_)
        )
    });
    if !mutates && frame.len() >= rf_wire::MIN_FRAME_NO_FCS {
        let mut out = Vec::new();
        for action in actions {
            match action {
                Action::Output { port, max_len } => match *port {
                    OFPP_CONTROLLER => out.push(Egress::Controller {
                        max_len: *max_len,
                        frame: frame.clone(),
                    }),
                    OFPP_IN_PORT => out.push(Egress::Port(in_port, frame.clone())),
                    OFPP_TABLE => out.push(Egress::Table(frame.clone())),
                    OFPP_FLOOD | OFPP_ALL => {
                        for p in 1..=num_ports {
                            if p != in_port {
                                out.push(Egress::Port(p, frame.clone()));
                            }
                        }
                    }
                    p if (1..=OFPP_MAX).contains(&p) && p <= num_ports => {
                        out.push(Egress::Port(p, frame.clone()));
                    }
                    _ => { /* OFPP_NORMAL / LOCAL / NONE / invalid: drop */ }
                },
                Action::Enqueue { port, .. } if *port >= 1 && *port <= num_ports => {
                    out.push(Egress::Port(*port, frame.clone()));
                }
                _ => { /* dropped Enqueue / VLAN actions: accepted and ignored */ }
            }
        }
        return out;
    }
    let mut editor = FrameEditor::new(frame);
    let mut out = Vec::new();
    let render = |e: &Option<FrameEditor>| -> Bytes {
        match e {
            Some(ed) => ed.render(frame),
            None => frame.clone(),
        }
    };
    for action in actions {
        match action {
            Action::Output { port, max_len } => {
                let bytes = render(&editor);
                match *port {
                    OFPP_CONTROLLER => out.push(Egress::Controller {
                        max_len: *max_len,
                        frame: bytes,
                    }),
                    OFPP_IN_PORT => out.push(Egress::Port(in_port, bytes)),
                    OFPP_TABLE => out.push(Egress::Table(bytes)),
                    OFPP_FLOOD | OFPP_ALL => {
                        for p in 1..=num_ports {
                            if p != in_port {
                                out.push(Egress::Port(p, bytes.clone()));
                            }
                        }
                    }
                    p if (1..=OFPP_MAX).contains(&p) && p <= num_ports => {
                        out.push(Egress::Port(p, bytes));
                    }
                    _ => { /* OFPP_NORMAL / LOCAL / NONE / invalid: drop */ }
                }
            }
            Action::Enqueue { port, .. } => {
                // Queues are not modelled: treated as plain output.
                let bytes = render(&editor);
                if *port >= 1 && *port <= num_ports {
                    out.push(Egress::Port(*port, bytes));
                }
            }
            Action::SetDlSrc(mac) => {
                if let Some(e) = &mut editor {
                    e.eth.src = *mac;
                }
            }
            Action::SetDlDst(mac) => {
                if let Some(e) = &mut editor {
                    e.eth.dst = *mac;
                }
            }
            Action::SetNwSrc(a) => {
                if let Some(e) = &mut editor {
                    e.set_nw_src(*a);
                }
            }
            Action::SetNwDst(a) => {
                if let Some(e) = &mut editor {
                    e.set_nw_dst(*a);
                }
            }
            Action::SetNwTos(t) => {
                if let Some(e) = &mut editor {
                    e.set_nw_tos(*t);
                }
            }
            Action::SetTpSrc(p) => {
                if let Some(e) = &mut editor {
                    e.set_tp_src(*p);
                }
            }
            Action::SetTpDst(p) => {
                if let Some(e) = &mut editor {
                    e.set_tp_dst(*p);
                }
            }
            // VLAN actions: tagging is out of scope (the data plane
            // carries untagged Ethernet II only); the actions are
            // accepted and ignored, as OVS does when the packet has
            // no VLAN context to modify.
            Action::SetVlanVid(_) | Action::SetVlanPcp(_) | Action::StripVlan => {}
        }
    }
    out
}

/// Dedicated MAC pair used by tests and RouteFlow translation.
pub fn rewrite_macs(frame: &Bytes, src: MacAddr, dst: MacAddr) -> Option<Bytes> {
    let mut eth = EthernetFrame::parse_bytes(frame).ok()?;
    eth.src = src;
    eth.dst = dst;
    Some(eth.emit())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_wire::IcmpPacket;

    fn udp_frame() -> Bytes {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 9, 9);
        let udp = UdpPacket::new(5004, 9000, Bytes::from_static(b"payload"));
        let ip = Ipv4Packet::new(src, dst, IpProtocol::UDP, udp.emit(src, dst));
        EthernetFrame::new(
            MacAddr([2, 0, 0, 0, 0, 2]),
            MacAddr([2, 0, 0, 0, 0, 1]),
            EtherType::IPV4,
            ip.emit(),
        )
        .emit()
    }

    #[test]
    fn plain_output() {
        let f = udp_frame();
        let out = apply_actions(&f, &[Action::output(3)], 1, 4);
        assert_eq!(out.len(), 1);
        match &out[0] {
            Egress::Port(3, bytes) => assert_eq!(bytes, &f),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn flood_skips_in_port() {
        let f = udp_frame();
        let out = apply_actions(&f, &[Action::output(OFPP_FLOOD)], 2, 4);
        let ports: Vec<u16> = out
            .iter()
            .map(|e| match e {
                Egress::Port(p, _) => *p,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(ports, vec![1, 3, 4]);
    }

    #[test]
    fn mac_rewrite_applies_before_output() {
        let f = udp_frame();
        let new_src = MacAddr([0xAA; 6]);
        let new_dst = MacAddr([0xBB; 6]);
        let out = apply_actions(
            &f,
            &[
                Action::SetDlSrc(new_src),
                Action::SetDlDst(new_dst),
                Action::output(1),
            ],
            2,
            4,
        );
        match &out[0] {
            Egress::Port(1, bytes) => {
                let eth = EthernetFrame::parse(bytes).unwrap();
                assert_eq!(eth.src, new_src);
                assert_eq!(eth.dst, new_dst);
                // Inner packet untouched and still checksum-valid.
                let ip = Ipv4Packet::parse(&eth.payload).unwrap();
                UdpPacket::parse(&ip.payload, ip.src, ip.dst).unwrap();
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nw_rewrite_fixes_checksums() {
        let f = udp_frame();
        let out = apply_actions(
            &f,
            &[
                Action::SetNwDst(Ipv4Addr::new(172, 16, 0, 1)),
                Action::SetTpDst(1234),
                Action::output(1),
            ],
            2,
            4,
        );
        match &out[0] {
            Egress::Port(1, bytes) => {
                let eth = EthernetFrame::parse(bytes).unwrap();
                let ip = Ipv4Packet::parse(&eth.payload).unwrap();
                assert_eq!(ip.dst, Ipv4Addr::new(172, 16, 0, 1));
                let udp = UdpPacket::parse(&ip.payload, ip.src, ip.dst).unwrap();
                assert_eq!(udp.dst_port, 1234);
                assert_eq!(&udp.payload[..], b"payload");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn output_to_controller_keeps_frame() {
        let f = udp_frame();
        let out = apply_actions(
            &f,
            &[Action::Output {
                port: OFPP_CONTROLLER,
                max_len: 128,
            }],
            1,
            4,
        );
        assert_eq!(
            out,
            vec![Egress::Controller {
                max_len: 128,
                frame: f
            }]
        );
    }

    #[test]
    fn sequencing_rewrites_between_outputs() {
        // Output, then rewrite, then output again: first copy original,
        // second rewritten (OF 1.0 sequential semantics).
        let f = udp_frame();
        let out = apply_actions(
            &f,
            &[
                Action::output(1),
                Action::SetDlSrc(MacAddr([0xCC; 6])),
                Action::output(1),
            ],
            2,
            4,
        );
        let srcs: Vec<MacAddr> = out
            .iter()
            .map(|e| match e {
                Egress::Port(_, b) => EthernetFrame::parse(b).unwrap().src,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(srcs[0], MacAddr([2, 0, 0, 0, 0, 1]));
        assert_eq!(srcs[1], MacAddr([0xCC; 6]));
    }

    #[test]
    fn invalid_port_dropped() {
        let f = udp_frame();
        let out = apply_actions(&f, &[Action::output(99)], 1, 4);
        assert!(out.is_empty());
    }

    #[test]
    fn icmp_frame_mac_rewrite_survives() {
        let src = Ipv4Addr::new(1, 1, 1, 1);
        let dst = Ipv4Addr::new(2, 2, 2, 2);
        let icmp = IcmpPacket::echo_request(7, 1, Bytes::from_static(b"x"));
        let ip = Ipv4Packet::new(src, dst, IpProtocol::ICMP, icmp.emit());
        let f = EthernetFrame::new(MacAddr::ZERO, MacAddr::ZERO, EtherType::IPV4, ip.emit()).emit();
        let out = apply_actions(
            &f,
            &[Action::SetDlDst(MacAddr([9; 6])), Action::output(1)],
            2,
            2,
        );
        match &out[0] {
            Egress::Port(1, bytes) => {
                let eth = EthernetFrame::parse(bytes).unwrap();
                assert_eq!(eth.dst, MacAddr([9; 6]));
                let ip = Ipv4Packet::parse(&eth.payload).unwrap();
                assert!(IcmpPacket::parse(&ip.payload).is_ok());
            }
            other => panic!("{other:?}"),
        }
    }
}
