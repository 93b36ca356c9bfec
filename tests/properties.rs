//! Property-based tests (proptest) on the load-bearing codecs and data
//! structures: decoders must never panic, encode∘decode must be
//! identity, matching must respect the wildcard algebra, and the RIB
//! must keep its best-route invariant under arbitrary operation
//! sequences.

use bytes::Bytes;
use proptest::prelude::*;
use rf_openflow::{Action, OfMatch, OfMessage, PacketKey, Wildcards};
use rf_routed::rib::{Rib, Route, RouteProto};
use rf_wire::{
    internet_checksum, ArpPacket, EthernetFrame, Ipv4Cidr, Ipv4Packet, LldpPacket, MacAddr,
    UdpPacket,
};
use std::net::Ipv4Addr;

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

/// Feed `stream` to a reader in the pieces `cuts` describes — (length,
/// as an owned chunk or a borrowed slice, drain before the next piece)
/// — cycling through `cuts` until the stream is exhausted, and collect
/// everything the reader yields.
fn rechunked<R, M>(
    stream: &[u8],
    cuts: &[(usize, bool, bool)],
    mut reader: R,
    push: impl Fn(&mut R, &[u8]),
    push_bytes: impl Fn(&mut R, Bytes),
    next: impl Fn(&mut R) -> Option<M>,
) -> Vec<M> {
    let mut out = Vec::new();
    let mut rest = stream;
    for &(len, owned, drain) in cuts.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (piece, tail) = rest.split_at(len.min(rest.len()));
        rest = tail;
        if owned {
            push_bytes(&mut reader, Bytes::copy_from_slice(piece));
        } else {
            push(&mut reader, piece);
        }
        if drain {
            out.extend(std::iter::from_fn(|| next(&mut reader)));
        }
    }
    out.extend(std::iter::from_fn(|| next(&mut reader)));
    out
}

proptest! {
    // ---------------- decoders never panic ----------------

    #[test]
    fn of_decoder_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = OfMessage::decode(&data);
    }

    #[test]
    fn wire_parsers_never_panic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = EthernetFrame::parse(&data);
        let _ = Ipv4Packet::parse(&data);
        let _ = ArpPacket::parse(&data);
        let _ = LldpPacket::parse(&data);
        let _ = rf_routed::ospf::packet::OspfPacket::parse(&data);
    }

    #[test]
    fn rpc_decoder_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = rf_rpc::decode_envelope(&data);
        let _ = rf_vnet::rfproto::RfMessage::decode(&data);
    }

    // ---------------- stream reassembly ----------------

    /// However the byte stream is cut up, and whichever way the pieces
    /// are pushed, each protocol's reader yields the messages that
    /// were encoded, in order.
    #[test]
    fn readers_are_indifferent_to_chunking(
        cuts in proptest::collection::vec((1usize..48, any::<bool>(), any::<bool>()), 1..24),
    ) {
        use rf_openflow::{MessageReader, PacketInReason};
        use rf_rpc::{encode_envelope, Envelope, RpcAck, RpcFrameReader, RpcRequest};
        use rf_vnet::rfproto::{RfFrameReader, RfMessage};

        let of: Vec<(OfMessage, u32)> = vec![
            (OfMessage::Hello, 1),
            (OfMessage::EchoRequest(Bytes::from_static(b"are you there")), 2),
            (
                OfMessage::PacketIn {
                    buffer_id: 7,
                    total_len: 64,
                    in_port: 3,
                    reason: PacketInReason::NoMatch,
                    data: Bytes::from(vec![0xAB; 64]),
                },
                3,
            ),
            (OfMessage::BarrierRequest, 4),
        ];
        let stream: Vec<u8> = of.iter().flat_map(|(m, xid)| m.encode(*xid).to_vec()).collect();
        let got = rechunked(
            &stream,
            &cuts,
            MessageReader::new(),
            MessageReader::push,
            MessageReader::push_bytes,
            MessageReader::next,
        );
        prop_assert_eq!(got, of.into_iter().map(Ok).collect::<Vec<_>>());

        let request = |req_id, request| Envelope::Request { req_id, request };
        let rpc = vec![
            request(1, RpcRequest::SwitchDetected { dpid: 9, num_ports: 4 }),
            Envelope::Ack(RpcAck { req_id: 1, ok: true }),
            request(2, RpcRequest::PortStatus { dpid: 9, port: 2, up: false }),
            Envelope::Ack(RpcAck { req_id: 2, ok: false }),
        ];
        let stream: Vec<u8> = rpc.iter().flat_map(|e| encode_envelope(e).to_vec()).collect();
        let got = rechunked(
            &stream,
            &cuts,
            RpcFrameReader::new(),
            RpcFrameReader::push,
            RpcFrameReader::push_bytes,
            RpcFrameReader::next,
        );
        prop_assert_eq!(got, rpc.into_iter().map(Ok).collect::<Vec<_>>());

        let rf = vec![
            RfMessage::Booted { dpid: 0x1C },
            RfMessage::WriteConfigs {
                zebra: "hostname vm-1c\n".into(),
                ospf: "router ospf\n network 172.31.0.0/30 area 0\n".into(),
                bgp: String::new(),
            },
            RfMessage::RouteDel { prefix: "172.31.0.4/30".parse().unwrap() },
        ];
        let stream: Vec<u8> = rf.iter().flat_map(|m| m.encode().to_vec()).collect();
        let got = rechunked(
            &stream,
            &cuts,
            RfFrameReader::new(),
            RfFrameReader::push,
            RfFrameReader::push_bytes,
            RfFrameReader::next,
        );
        prop_assert_eq!(got, rf);
    }

    // ---------------- roundtrips ----------------

    #[test]
    fn ethernet_roundtrip(
        dst in arb_mac(),
        src in arb_mac(),
        ethertype in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 46..200),
    ) {
        let f = EthernetFrame::new(dst, src, rf_wire::EtherType(ethertype), Bytes::from(payload));
        let parsed = EthernetFrame::parse(&f.emit()).unwrap();
        prop_assert_eq!(parsed, f);
    }

    #[test]
    fn ipv4_roundtrip_and_checksum(
        src in arb_ip(),
        dst in arb_ip(),
        proto in any::<u8>(),
        ttl in 1u8..=255,
        payload in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut p = Ipv4Packet::new(src, dst, rf_wire::IpProtocol(proto), Bytes::from(payload));
        p.ttl = ttl;
        let wire = p.emit();
        prop_assert_eq!(internet_checksum(&wire[..20]), 0);
        let parsed = Ipv4Packet::parse(&wire).unwrap();
        prop_assert_eq!(parsed, p);
    }

    #[test]
    fn udp_roundtrip(
        src in arb_ip(),
        dst in arb_ip(),
        sp in any::<u16>(),
        dp in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let u = UdpPacket::new(sp, dp, Bytes::from(payload));
        let parsed = UdpPacket::parse(&u.emit(src, dst), src, dst).unwrap();
        prop_assert_eq!(parsed, u);
    }

    #[test]
    fn lldp_discovery_roundtrip(dpid in any::<u64>(), port in any::<u16>()) {
        let p = LldpPacket::discovery_probe(dpid, port);
        let parsed = LldpPacket::parse(&p.emit()).unwrap();
        prop_assert_eq!(parsed.decode_discovery(), Some((dpid, port)));
    }

    #[test]
    fn of_match_roundtrip(
        wildcards in 0u32..(1 << 22),
        in_port in any::<u16>(),
        dl_src in arb_mac(),
        dl_dst in arb_mac(),
        dl_type in any::<u16>(),
        nw_src in arb_ip(),
        nw_dst in arb_ip(),
        tp in any::<(u16, u16)>(),
    ) {
        let m = OfMatch {
            wildcards: Wildcards(wildcards),
            in_port,
            dl_src,
            dl_dst,
            dl_vlan: 0xFFFF,
            dl_vlan_pcp: 0,
            dl_type,
            nw_tos: 0,
            nw_proto: 0,
            nw_src,
            nw_dst,
            tp_src: tp.0,
            tp_dst: tp.1,
        };
        let mut buf = bytes::BytesMut::new();
        m.emit_into(&mut buf);
        prop_assert_eq!(OfMatch::parse(&buf).unwrap(), m);
    }

    #[test]
    fn of_actions_roundtrip(port in 1u16..1000, mac in arb_mac(), ip in arb_ip()) {
        let actions = vec![
            Action::SetDlSrc(mac),
            Action::SetDlDst(mac),
            Action::SetNwDst(ip),
            Action::output(port),
        ];
        let mut buf = bytes::BytesMut::new();
        Action::emit_list(&actions, &mut buf);
        prop_assert_eq!(Action::parse_list(&buf).unwrap(), actions);
    }

    // ---------------- semantic invariants ----------------

    /// A /n prefix match covers exactly the addresses whose top n bits
    /// agree.
    #[test]
    fn prefix_match_semantics(net in arb_ip(), len in 0u8..=32, probe in arb_ip()) {
        let m = OfMatch::ipv4_dst_prefix(net, len);
        let key = PacketKey {
            in_port: 1,
            dl_src: MacAddr::ZERO,
            dl_dst: MacAddr::ZERO,
            dl_type: 0x0800,
            nw_tos: 0,
            nw_proto: 17,
            nw_src: Ipv4Addr::UNSPECIFIED,
            nw_dst: probe,
            tp_src: 0,
            tp_dst: 0,
        };
        let cidr = Ipv4Cidr::new(net, len);
        prop_assert_eq!(m.matches(&key), cidr.contains(probe));
    }

    /// A narrower prefix is always a subset of a wider one on the same
    /// network.
    #[test]
    fn subset_reflexive_and_monotone(net in arb_ip(), len in 1u8..=32) {
        let narrow = OfMatch::ipv4_dst_prefix(net, len);
        let wide = OfMatch::ipv4_dst_prefix(net, len - 1);
        prop_assert!(narrow.is_subset_of(&narrow));
        prop_assert!(narrow.is_subset_of(&wide));
        prop_assert!(narrow.is_subset_of(&OfMatch::any()));
    }

    /// LSA checksums verify after arbitrary aging and break on body
    /// corruption.
    #[test]
    fn lsa_checksum_invariants(
        adv in any::<u32>(),
        links in proptest::collection::vec((any::<u32>(), any::<u32>(), 1u16..100), 0..8),
        age in 0u16..3600,
        // Flip within ls_id/adv_router/seq — fields that survive the
        // parse→re-emit roundtrip (flags/pad bytes are normalized away
        // by owned-struct parsing and cannot carry corruption).
        flip_byte in 4usize..16,
    ) {
        use rf_routed::ospf::lsa::{Lsa, RouterLink, RouterLinkType, INITIAL_SEQ};
        let links: Vec<RouterLink> = links
            .into_iter()
            .map(|(id, data, metric)| RouterLink {
                link_type: RouterLinkType::Stub,
                link_id: id,
                link_data: data,
                metric,
            })
            .collect();
        let has_links = !links.is_empty();
        let lsa = Lsa::router(adv, INITIAL_SEQ, 0, links);
        prop_assert!(lsa.with_age(age).checksum_ok());
        if has_links {
            let mut buf = bytes::BytesMut::new();
            lsa.emit_into(&mut buf);
            if flip_byte < buf.len() {
                buf[flip_byte] ^= 0x5A;
                if let Ok((parsed, _)) = Lsa::parse(&buf) {
                    prop_assert!(!parsed.checksum_ok());
                }
            }
        }
    }

    /// The RIB always installs the lowest (distance, metric) candidate,
    /// no matter the operation order.
    #[test]
    fn rib_best_route_invariant(ops in proptest::collection::vec(
        (0u8..3, 0u8..4, 1u32..100), 1..40,
    )) {
        let protos = [
            RouteProto::Connected,
            RouteProto::Static,
            RouteProto::Ospf,
            RouteProto::Rip,
        ];
        let prefix: Ipv4Cidr = "10.5.0.0/16".parse().unwrap();
        let mut rib = Rib::new();
        let mut model: std::collections::HashMap<RouteProto, u32> = Default::default();
        for (op, p, metric) in ops {
            let proto = protos[p as usize];
            match op {
                0 | 2 => {
                    rib.add(Route {
                        prefix,
                        next_hop: Some(Ipv4Addr::new(1, 1, 1, 1)),
                        out_iface: 1,
                        proto,
                        metric,
                    });
                    model.insert(proto, metric);
                }
                _ => {
                    rib.remove(prefix, proto);
                    model.remove(&proto);
                }
            }
            let expected = model
                .iter()
                .min_by_key(|(pr, m)| (pr.admin_distance(), **m))
                .map(|(pr, _)| *pr);
            let got = rib.lookup(Ipv4Addr::new(10, 5, 1, 1)).map(|r| r.proto);
            prop_assert_eq!(got, expected);
        }
    }
}
