//! `rf_openflow::PacketKey::from_frame_bytes` as it was before a
//! switch read a frame where it lies and only as deep as its table
//! asks (`crates/openflow/src/flow_match.rs` at 28b7fc8, verbatim but
//! for the two adaptations marked `ADAPTED`): the whole 12-tuple from
//! every frame, a `Bytes::slice` per layer, every checksum verified.
//! The reference `PacketKey::from_frame(.., KeyDepth::L4)` must match
//! field for field on every input, and the shallower depths with the
//! deeper fields zeroed; the model switch and the model FlowVisor
//! classify with it.

use bytes::Bytes;
use rf_openflow::{PacketKey, PortNumber};
use rf_wire::{
    internet_checksum, internet_checksum_parts, ArpPacket, EtherType, EthernetFrame, IcmpPacket,
    IpProtocol, Ipv4Packet, MacAddr, UdpPacket, WireError,
};
use std::net::Ipv4Addr;

// ADAPTED: a free function (`PacketKey` is the real crate's type), and
// the four owning layer parsers are the parent's too, kept below: the
// real `parse_bytes` are now built on the in-place readers the real
// extractor uses, and the model must share no check with them.
/// Classify a raw Ethernet frame received on `in_port`.
/// Unparseable inner layers simply leave the deeper fields zero,
/// matching how a hardware parser degrades. The layer parses are
/// zero-copy slices, so classifying a frame allocates nothing —
/// this runs per frame per switch hop.
pub fn from_frame_bytes(in_port: PortNumber, frame: &Bytes) -> Option<PacketKey> {
    let eth = parse_ethernet(frame).ok()?;
    let mut key = PacketKey {
        in_port,
        dl_src: eth.src,
        dl_dst: eth.dst,
        dl_type: eth.ethertype.0,
        nw_tos: 0,
        nw_proto: 0,
        nw_src: Ipv4Addr::UNSPECIFIED,
        nw_dst: Ipv4Addr::UNSPECIFIED,
        tp_src: 0,
        tp_dst: 0,
    };
    match eth.ethertype {
        EtherType::IPV4 => {
            if let Ok(ip) = parse_ipv4(&eth.payload) {
                key.nw_tos = ip.dscp << 2;
                key.nw_proto = ip.protocol.0;
                key.nw_src = ip.src;
                key.nw_dst = ip.dst;
                match ip.protocol {
                    IpProtocol::UDP => {
                        if let Ok(udp) = parse_udp(&ip.payload, ip.src, ip.dst) {
                            key.tp_src = udp.src_port;
                            key.tp_dst = udp.dst_port;
                        }
                    }
                    IpProtocol::ICMP => {
                        if let Ok(icmp) = parse_icmp(&ip.payload) {
                            let (ty, code) = match icmp {
                                IcmpPacket::EchoRequest { .. } => (8u16, 0u16),
                                IcmpPacket::EchoReply { .. } => (0, 0),
                                IcmpPacket::Other { ty, code, .. } => (ty as u16, code as u16),
                            };
                            key.tp_src = ty;
                            key.tp_dst = code;
                        }
                    }
                    _ => {}
                }
            }
        }
        EtherType::ARP => {
            if let Ok(arp) = ArpPacket::parse(&eth.payload) {
                key.nw_proto = match arp.op {
                    rf_wire::ArpOp::Request => 1,
                    rf_wire::ArpOp::Reply => 2,
                };
                key.nw_src = arp.sender_ip;
                key.nw_dst = arp.target_ip;
            }
        }
        _ => {}
    }
    Some(key)
}

/// `EthernetFrame::parse_bytes` at 28b7fc8.
pub fn parse_ethernet(data: &Bytes) -> Result<EthernetFrame, WireError> {
    if data.len() < 14 {
        return Err(WireError::Truncated);
    }
    Ok(EthernetFrame {
        dst: MacAddr::from_bytes(&data[0..6])?,
        src: MacAddr::from_bytes(&data[6..12])?,
        ethertype: EtherType(u16::from_be_bytes([data[12], data[13]])),
        payload: data.slice(14..),
    })
}

/// `Ipv4Packet::parse_bytes` at 28b7fc8.
pub fn parse_ipv4(data: &Bytes) -> Result<Ipv4Packet, WireError> {
    if data.len() < 20 {
        return Err(WireError::Truncated);
    }
    let version = data[0] >> 4;
    if version != 4 {
        return Err(WireError::Unsupported);
    }
    let ihl = (data[0] & 0x0F) as usize * 4;
    if ihl < 20 || data.len() < ihl {
        return Err(WireError::Malformed);
    }
    if internet_checksum(&data[..ihl]) != 0 {
        return Err(WireError::BadChecksum);
    }
    let total_len = u16::from_be_bytes([data[2], data[3]]) as usize;
    if total_len < ihl || total_len > data.len() {
        return Err(WireError::BadLength);
    }
    let flags_frag = u16::from_be_bytes([data[6], data[7]]);
    if flags_frag & 0x3FFF != 0 {
        // MF set or fragment offset non-zero: we don't reassemble.
        return Err(WireError::Unsupported);
    }
    Ok(Ipv4Packet {
        dscp: data[1] >> 2,
        identification: u16::from_be_bytes([data[4], data[5]]),
        ttl: data[8],
        protocol: IpProtocol(data[9]),
        src: Ipv4Addr::new(data[12], data[13], data[14], data[15]),
        dst: Ipv4Addr::new(data[16], data[17], data[18], data[19]),
        payload: data.slice(ihl..total_len),
    })
}

/// `UdpPacket::parse_bytes` at 28b7fc8.
pub fn parse_udp(data: &Bytes, src: Ipv4Addr, dst: Ipv4Addr) -> Result<UdpPacket, WireError> {
    if data.len() < 8 {
        return Err(WireError::Truncated);
    }
    let length = u16::from_be_bytes([data[4], data[5]]) as usize;
    if length < 8 || length > data.len() {
        return Err(WireError::BadLength);
    }
    let wire_ck = u16::from_be_bytes([data[6], data[7]]);
    if wire_ck != 0 {
        let mut pseudo = [0u8; 12];
        pseudo[0..4].copy_from_slice(&src.octets());
        pseudo[4..8].copy_from_slice(&dst.octets());
        pseudo[9] = IpProtocol::UDP.0;
        pseudo[10..12].copy_from_slice(&(length as u16).to_be_bytes());
        if internet_checksum_parts(&[&pseudo, &data[..length]]) != 0 {
            return Err(WireError::BadChecksum);
        }
    }
    Ok(UdpPacket {
        src_port: u16::from_be_bytes([data[0], data[1]]),
        dst_port: u16::from_be_bytes([data[2], data[3]]),
        payload: data.slice(8..length),
    })
}

/// `IcmpPacket::parse_bytes` at 28b7fc8.
pub fn parse_icmp(data: &Bytes) -> Result<IcmpPacket, WireError> {
    if data.len() < 8 {
        return Err(WireError::Truncated);
    }
    if internet_checksum(data) != 0 {
        return Err(WireError::BadChecksum);
    }
    let ty = data[0];
    let code = data[1];
    let ident = u16::from_be_bytes([data[4], data[5]]);
    let seq = u16::from_be_bytes([data[6], data[7]]);
    let payload = data.slice(8..);
    Ok(match (ty, code) {
        (8, 0) => IcmpPacket::EchoRequest {
            ident,
            seq,
            payload,
        },
        (0, 0) => IcmpPacket::EchoReply {
            ident,
            seq,
            payload,
        },
        _ => IcmpPacket::Other {
            ty,
            code,
            rest: data.slice(4..),
        },
    })
}
