//! Frame rewriting and output resolution — the action interpreter.
//!
//! The action set is what the RouteFlow loop installs: the apps put
//! `[SetDlSrc, SetDlDst, Output(port)]` in a flow entry per mirrored
//! route (the routed hop), discovery installs `[Output(CONTROLLER)]`,
//! and PACKET_OUTs are plain outputs
//! (`tests/traffic.rs::apps_install_only_wildcard_mac_rewrite_and_punt_flows`
//! pins the installed shapes). [`Action`] has exactly those three
//! kinds — a request naming any other never decodes, and the switch
//! refuses it whole — so there is one loop over the action list,
//! working on the frame's bytes: a MAC rewrite patches 6 header bytes
//! and touches nothing behind them, and no action reads past the
//! Ethernet header.
//!
//! Where those 6 bytes are written depends on who else can see the
//! frame. The switch forwarding a frame it received is its only owner
//! — the link moved it in, classification's slices are gone by the
//! time the actions run — so [`apply_actions_owned`] takes the storage
//! back (`Bytes::try_into_mut`) and patches it where it lies: the hop
//! copies nothing. Counted on one pass of the `traffic_packet`
//! benchmark: all 1 639 377 MAC rewrites found the frame uniquely owned.
//! When any other handle is alive — the caller of the borrowing
//! [`apply_actions`], an earlier output's copy — `try_into_mut`
//! refuses and the rewrite goes into a private copy;
//! `tests/properties.rs` runs every case both ways against a
//! parse-everything reference interpreter and checks that no held
//! handle ever sees a byte change, and `tests/alloc_budget.rs` that the
//! hop makes no payload-sized allocation.

use bytes::{Bytes, BytesMut};
use rf_openflow::{Action, PortNumber, OFPP_CONTROLLER, OFPP_MAX};
use rf_wire::ethernet::ETHERNET_HEADER_LEN;
use rf_wire::{MacAddr, MIN_FRAME_NO_FCS};

/// Where a processed frame must go.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Egress {
    /// Transmit on a physical port.
    Port(PortNumber, Bytes),
    /// Punt to the controller (output action to `OFPP_CONTROLLER`).
    Controller { max_len: u16, frame: Bytes },
}

/// Apply an OF 1.0 action list to `frame`.
///
/// Returns the list of egress operations in action order. An output
/// names a physical port or the controller (no other decodes); one to
/// a port above `num_ports` (ports are `1..=num_ports`), or to any
/// other number, is dropped. No output leads back to the port the
/// frame came in on, so `_in_port` is not read.
///
/// The borrowing entry: the caller keeps its handle, so a MAC rewrite
/// finds the storage shared and works on a private copy.
pub fn apply_actions(
    frame: &Bytes,
    actions: &[Action],
    _in_port: PortNumber,
    num_ports: u16,
) -> Vec<Egress> {
    let mut out = Vec::new();
    apply_actions_owned(frame.clone(), actions.iter().copied(), num_ports, &mut out);
    out
}

/// [`apply_actions`] for a caller that gives the frame up — the switch
/// forwarding a frame it received — and appends the egress operations
/// to a list it keeps. When `frame` is the only handle to its storage,
/// MAC rewrites are patched straight into it and the hop copies
/// nothing; any other handle still alive (a clone, a slice) keeps
/// seeing the bytes it was made from. The actions come as they are
/// reached: a flow entry's stored list, or a PACKET_OUT's decoded one
/// at a time off the wire.
pub fn apply_actions_owned(
    frame: Bytes,
    actions: impl IntoIterator<Item = Action>,
    num_ports: u16,
    out: &mut Vec<Egress>,
) {
    let mut route = |port: PortNumber, max_len: u16, bytes: Bytes| match port {
        OFPP_CONTROLLER => out.push(Egress::Controller {
            max_len,
            frame: bytes,
        }),
        p if (1..=OFPP_MAX).contains(&p) && p <= num_ports => out.push(Egress::Port(p, bytes)),
        _ => { /* a port this switch does not have: drop */ }
    };
    // The frame as the actions so far left it is in `cur`, or — between
    // a MAC rewrite and whatever reads the frame next — in `patch`,
    // open for writing. (Two `Option`s, not `mem::take`: an empty
    // `Bytes` owns a heap block.)
    let mut cur = Some(frame);
    let mut patch: Option<BytesMut> = None;
    for action in actions {
        match action {
            Action::Output { port, max_len } => {
                route(port, max_len, on_wire(settle(&mut cur, &mut patch)));
            }
            Action::SetDlDst(mac) => set_mac(&mut cur, &mut patch, 0, mac),
            Action::SetDlSrc(mac) => set_mac(&mut cur, &mut patch, 6, mac),
        }
    }
}

/// Overwrite the MAC at byte offset `at` of the Ethernet header. A
/// frame too short to hold the header passes through unchanged. The
/// first rewrite opens the frame: its own storage when this is the only
/// handle to it, a private copy when anyone else can still read it.
fn set_mac(cur: &mut Option<Bytes>, patch: &mut Option<BytesMut>, at: usize, mac: MacAddr) {
    if let Some(frame) = cur.take_if(|f| f.len() >= ETHERNET_HEADER_LEN) {
        *patch = Some(
            frame
                .try_into_mut()
                .unwrap_or_else(|shared| BytesMut::from(&shared[..])),
        );
    }
    if let Some(buf) = patch {
        buf[at..at + 6].copy_from_slice(mac.as_bytes());
    }
}

/// Freeze pending MAC rewrites into `cur`.
fn settle<'a>(cur: &'a mut Option<Bytes>, patch: &mut Option<BytesMut>) -> &'a Bytes {
    if let Some(buf) = patch.take() {
        *cur = Some(buf.freeze());
    }
    cur.as_ref().expect("the frame is in `cur` or in `patch`")
}

/// The bytes an output puts on the wire: a frame that holds an
/// Ethernet header but is shorter than the 60-byte minimum (never
/// produced by `emit`, possible in hand-built PACKET_OUT data) leaves
/// zero-padded to it.
fn on_wire(frame: &Bytes) -> Bytes {
    if (ETHERNET_HEADER_LEN..MIN_FRAME_NO_FCS).contains(&frame.len()) {
        let mut padded = BytesMut::from(&frame[..]);
        padded.resize(MIN_FRAME_NO_FCS, 0);
        padded.freeze()
    } else {
        frame.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_wire::{EtherType, EthernetFrame, IcmpPacket, IpProtocol, Ipv4Packet, UdpPacket};
    use std::net::Ipv4Addr;

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
                let eth = EthernetFrame::parse_bytes(bytes).unwrap();
                assert_eq!(eth.src, new_src);
                assert_eq!(eth.dst, new_dst);
                // Inner packet untouched and still checksum-valid.
                let ip = Ipv4Packet::parse_bytes(&eth.payload).unwrap();
                UdpPacket::parse_bytes(&ip.payload, ip.src, ip.dst).unwrap();
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
                Egress::Port(_, b) => EthernetFrame::parse_bytes(b).unwrap().src,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(srcs[0], MacAddr([2, 0, 0, 0, 0, 1]));
        assert_eq!(srcs[1], MacAddr([0xCC; 6]));
    }

    #[test]
    fn short_frames_leave_padded_and_headerless_ones_unchanged() {
        let short = udp_frame().slice(..40);
        let out = apply_actions(&short, &[Action::output(1)], 2, 4);
        match &out[0] {
            Egress::Port(1, bytes) => {
                assert_eq!(bytes.len(), MIN_FRAME_NO_FCS);
                assert_eq!(bytes[..40], short[..]);
                assert!(bytes[40..].iter().all(|&b| b == 0));
            }
            other => panic!("{other:?}"),
        }
        let garbage = Bytes::from_static(&[1, 2, 3]);
        let actions = [Action::SetDlSrc(MacAddr([9; 6])), Action::output(1)];
        assert_eq!(
            apply_actions(&garbage, &actions, 2, 4),
            vec![Egress::Port(1, garbage)]
        );
    }

    /// A port this switch does not have is dropped, and so is any
    /// number an `OUTPUT` cannot decode to (an action built in code):
    /// no virtual port is executed.
    #[test]
    fn invalid_port_dropped() {
        let f = udp_frame();
        for port in [
            99, 5, 0, 0xFFF8, 0xFFF9, 0xFFFA, 0xFFFB, 0xFFFC, 0xFFFE, 0xFFFF,
        ] {
            assert!(apply_actions(&f, &[Action::output(port)], 1, 4).is_empty());
        }
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
                let eth = EthernetFrame::parse_bytes(bytes).unwrap();
                assert_eq!(eth.dst, MacAddr([9; 6]));
                let ip = Ipv4Packet::parse_bytes(&eth.payload).unwrap();
                assert!(IcmpPacket::parse_bytes(&ip.payload).is_ok());
            }
            other => panic!("{other:?}"),
        }
    }
}
