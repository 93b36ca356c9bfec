//! The OpenFlow 1.0 match as the paper's loop writes it, and packet
//! classification.
//!
//! OF 1.0 matching is a fixed 12-tuple under a wildcard bitfield, with
//! `nw_src`/`nw_dst` carrying 6-bit "number of wildcarded low bits"
//! subfields for CIDR-prefix matching. The loop names two of those
//! fields: every match it sends constrains an EtherType — LLDP for the
//! discovery punt, IPv4 and ARP for FlowVisor's slices — and a route
//! adds an IPv4 destination prefix, which is how RouteFlow translates a
//! VM's RIB entry (`10.2.0.0/16 via ...`) into a flow entry. That is all
//! an [`OfMatch`] holds. A well-framed `ofp_match` that constrains
//! anything else — the ingress port, a MAC, the VLAN fields, `nw_src`,
//! `nw_proto`, `nw_tos`, a transport port, a prefix on another
//! EtherType, or no EtherType at all — decodes to
//! [`OfError::UnsupportedMatch`].

use crate::ports::PortNumber;
use crate::OfError;
use bytes::{BufMut, BytesMut};
use rf_wire::ethernet::ETHERNET_HEADER_LEN;
use rf_wire::{EtherType, EthernetHeader, Ipv4Header, MacAddr};
use std::net::Ipv4Addr;

/// Size of `ofp_match` on the wire.
pub(crate) const OFP_MATCH_LEN: usize = 40;

/// The `OFPFW_*` bits of the fields an [`OfMatch`] leaves wildcarded:
/// `in_port`, `dl_vlan`, `dl_src`, `dl_dst`, `nw_proto`, `tp_src`,
/// `tp_dst`, `dl_vlan_pcp` and `nw_tos`.
const OTHER_FIELDS: u32 = 0b11_0000_0000_0000_1110_1111;
/// `OFPFW_DL_TYPE`.
const DL_TYPE: u32 = 1 << 4;
/// Where the 6-bit wildcarded-low-bits counts of `nw_src` and `nw_dst`
/// sit.
const NW_SRC_SHIFT: u32 = 8;
const NW_DST_SHIFT: u32 = 14;
/// `dl_vlan` of a match that leaves it wildcarded: `OFP_VLAN_NONE`.
const VLAN_NONE: u16 = 0xFFFF;

/// `addr` with all but its `len` high bits cleared.
fn masked(addr: Ipv4Addr, len: u8) -> u32 {
    u32::from(addr) & u32::MAX.checked_shl(32 - u32::from(len)).unwrap_or(0)
}

/// An OF 1.0 match on an EtherType and, for IPv4, optionally a
/// destination prefix.
///
/// A `/0` route and an EtherType-only IPv4 match cover the same packets
/// but are written differently on the wire (32 and 63 wildcarded
/// `nw_dst` bits), so they stay two values: a match re-encodes to the
/// bytes it was built as, and a DELETE_STRICT tells them apart as the
/// switch that installed them does.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct OfMatch {
    dl_type: u16,
    /// `(address, prefix length)`, IPv4 only.
    nw_dst: Option<(Ipv4Addr, u8)>,
}

impl OfMatch {
    /// Match every frame of EtherType `dl_type`.
    pub fn ethertype(dl_type: u16) -> OfMatch {
        OfMatch {
            dl_type,
            nw_dst: None,
        }
    }

    /// Match IPv4 traffic to a destination prefix — the shape RouteFlow
    /// installs for every RIB entry.
    pub fn ipv4_dst_prefix(prefix: Ipv4Addr, prefix_len: u8) -> OfMatch {
        assert!(prefix_len <= 32, "an IPv4 prefix is at most 32 bits long");
        OfMatch {
            dl_type: EtherType::IPV4.0,
            nw_dst: Some((prefix, prefix_len)),
        }
    }

    /// Match all LLDP frames (the slice FlowVisor grants the topology
    /// controller).
    pub fn lldp() -> OfMatch {
        OfMatch::ethertype(EtherType::LLDP.0)
    }

    /// Match all ARP frames.
    pub fn arp() -> OfMatch {
        OfMatch::ethertype(EtherType::ARP.0)
    }

    /// The EtherType matched.
    pub fn dl_type(&self) -> u16 {
        self.dl_type
    }

    /// The IPv4 destination prefix matched, as `(address, length)`.
    pub fn nw_dst(&self) -> Option<(Ipv4Addr, u8)> {
        self.nw_dst
    }

    /// The prefix, with an EtherType-only match read as `/0`.
    fn prefix(&self) -> (Ipv4Addr, u8) {
        self.nw_dst.unwrap_or((Ipv4Addr::UNSPECIFIED, 0))
    }

    /// Does this match cover `key`?
    pub fn matches(&self, key: &PacketKey) -> bool {
        let (net, len) = self.prefix();
        self.dl_type == key.dl_type && masked(key.nw_dst, len) == masked(net, len)
    }

    /// Does every packet this match covers fall inside `space` (a
    /// flowspace entry)?
    pub fn within(&self, space: &OfMatch) -> bool {
        let ((net, len), (space_net, space_len)) = (self.prefix(), space.prefix());
        self.dl_type == space.dl_type
            && len >= space_len
            && masked(net, space_len) == masked(space_net, space_len)
    }

    pub(crate) fn parse(data: &[u8]) -> Result<OfMatch, OfError> {
        if data.len() < OFP_MATCH_LEN {
            return Err(OfError::Truncated);
        }
        let wildcards = u32::from_be_bytes([data[0], data[1], data[2], data[3]]);
        let nw_src_bits = (wildcards >> NW_SRC_SHIFT) & 0x3F;
        let nw_dst_bits = (wildcards >> NW_DST_SHIFT) & 0x3F;
        if wildcards & OTHER_FIELDS != OTHER_FIELDS || nw_src_bits < 32 || wildcards & DL_TYPE != 0
        {
            return Err(OfError::UnsupportedMatch);
        }
        let dl_type = u16::from_be_bytes([data[22], data[23]]);
        let nw_dst = Ipv4Addr::new(data[32], data[33], data[34], data[35]);
        let nw_dst = match nw_dst_bits {
            33.. => None,
            bits if dl_type == EtherType::IPV4.0 => Some((nw_dst, (32 - bits) as u8)),
            32 => None,
            _ => return Err(OfError::UnsupportedMatch),
        };
        Ok(OfMatch { dl_type, nw_dst })
    }

    pub(crate) fn emit_into(&self, buf: &mut BytesMut) {
        let (nw_dst, nw_dst_bits) = match self.nw_dst {
            Some((addr, len)) => (addr, 32 - u32::from(len)),
            None => (Ipv4Addr::UNSPECIFIED, 0x3F),
        };
        let nw_src_bits = 0x3F << NW_SRC_SHIFT;
        buf.put_u32(OTHER_FIELDS | nw_src_bits | nw_dst_bits << NW_DST_SHIFT);
        buf.put_u16(0); // in_port
        buf.put_bytes(0, 12); // dl_src, dl_dst
        buf.put_u16(VLAN_NONE);
        buf.put_u8(0); // dl_vlan_pcp
        buf.put_u8(0); // pad
        buf.put_u16(self.dl_type);
        buf.put_u8(0); // nw_tos
        buf.put_u8(0); // nw_proto
        buf.put_u16(0); // pad
        buf.put_u32(0); // nw_src
        buf.put_slice(&nw_dst.octets());
        buf.put_u32(0); // tp_src, tp_dst
    }
}

/// The classification key extracted from a frame: its ingress port,
/// Ethernet header and, for IPv4, the fields of its IPv4 header. An
/// [`OfMatch`] reads `dl_type` and `nw_dst` of it; `tp_src` and `tp_dst`
/// are always 0. (It keeps the other fields because the benchmark's
/// probes build one field by field.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PacketKey {
    pub in_port: PortNumber,
    pub dl_src: MacAddr,
    pub dl_dst: MacAddr,
    pub dl_type: u16,
    pub nw_tos: u8,
    pub nw_proto: u8,
    pub nw_src: Ipv4Addr,
    pub nw_dst: Ipv4Addr,
    pub tp_src: u16,
    pub tp_dst: u16,
}

impl PacketKey {
    /// Classify a raw Ethernet frame received on `in_port`, reading it
    /// where it lies: the Ethernet header, and the IPv4 header of an
    /// IPv4 frame. An IPv4 header that does not parse leaves the `nw_*`
    /// fields zero, matching how a hardware parser degrades; nothing
    /// behind it is read. `None` when the frame is too short for an
    /// Ethernet header. This runs per frame per switch hop: no
    /// allocation, no reference count.
    pub fn from_frame(in_port: PortNumber, frame: &[u8]) -> Option<PacketKey> {
        let eth = EthernetHeader::parse(frame).ok()?;
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
        if eth.ethertype == EtherType::IPV4 {
            if let Ok(ip) = Ipv4Header::parse(&frame[ETHERNET_HEADER_LEN..]) {
                key.nw_tos = ip.dscp << 2;
                key.nw_proto = ip.protocol.0;
                key.nw_src = ip.src;
                key.nw_dst = ip.dst;
            }
        }
        Some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rf_wire::{ArpPacket, EthernetFrame, IpProtocol, Ipv4Packet, UdpPacket};

    fn wire(m: &OfMatch) -> Vec<u8> {
        let mut b = BytesMut::new();
        m.emit_into(&mut b);
        b.to_vec()
    }

    fn key(dl_type: u16, nw_dst: Ipv4Addr) -> PacketKey {
        PacketKey {
            in_port: 1,
            dl_src: MacAddr::ZERO,
            dl_dst: MacAddr::ZERO,
            dl_type,
            nw_tos: 0,
            nw_proto: 17,
            nw_src: Ipv4Addr::new(9, 9, 9, 9),
            nw_dst,
            tp_src: 0,
            tp_dst: 0,
        }
    }

    /// The bytes the full OF 1.0 encoder wrote for each constructor.
    #[test]
    fn constructors_write_the_of10_bytes() {
        let route = wire(&OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 2, 0, 0), 16));
        let mut want = vec![0x00, 0x34, 0x3F, 0xEF, 0, 0];
        want.extend([0; 12]);
        want.extend([0xFF, 0xFF, 0, 0, 0x08, 0x00, 0, 0, 0, 0, 0, 0, 0, 0]);
        want.extend([10, 2, 0, 0, 0, 0, 0, 0]);
        assert_eq!(route, want);
        let lldp = wire(&OfMatch::lldp());
        assert_eq!(lldp[..4], [0x00, 0x3F, 0xFF, 0xEF]);
        assert_eq!(lldp[22..24], [0x88, 0xCC]);
        // A /0 keeps its 32 wildcarded bits and its address.
        let default = wire(&OfMatch::ipv4_dst_prefix(Ipv4Addr::new(1, 2, 3, 4), 0));
        assert_eq!(default[..4], [0x00, 0x38, 0x3F, 0xEF]);
        assert_eq!(default[32..36], [1, 2, 3, 4]);
    }

    #[test]
    fn match_roundtrip() {
        for m in [
            OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 2, 0, 0), 16),
            OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 2, 0, 7), 32),
            OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 2, 0, 7), 0),
            OfMatch::ethertype(0x0800),
            OfMatch::lldp(),
            OfMatch::arp(),
        ] {
            let w = wire(&m);
            assert_eq!(w.len(), OFP_MATCH_LEN);
            assert_eq!(OfMatch::parse(&w).unwrap(), m);
        }
        assert_ne!(
            OfMatch::ipv4_dst_prefix(Ipv4Addr::UNSPECIFIED, 0),
            OfMatch::ethertype(0x0800),
        );
    }

    /// One field pinned (or the EtherType left open) is refused.
    #[test]
    fn a_match_on_any_other_field_is_unsupported() {
        let lldp = wire(&OfMatch::lldp());
        let with = |wildcards: u32, at: usize, value: u8| {
            let mut w = lldp.clone();
            w[..4].copy_from_slice(&wildcards.to_be_bytes());
            w[at] = value;
            OfMatch::parse(&w)
        };
        let all = u32::from_be_bytes(lldp[..4].try_into().unwrap());
        for bit in 0..22 {
            if (8..20).contains(&bit) {
                continue;
            }
            assert_eq!(
                with(all ^ (1 << bit), 0, 0),
                Err(OfError::UnsupportedMatch),
                "bit {bit}"
            );
        }
        // nw_src /1; a prefix on LLDP; a /0 or a wider count on LLDP is
        // no constraint.
        let nw_src_31 = all & !(0x20 << NW_SRC_SHIFT);
        assert_eq!(with(nw_src_31, 28, 1), Err(OfError::UnsupportedMatch));
        let nw_dst_bits = |bits: u32| all & !(0x3F << NW_DST_SHIFT) | bits << NW_DST_SHIFT;
        assert_eq!(with(nw_dst_bits(8), 32, 10), Err(OfError::UnsupportedMatch));
        assert_eq!(with(nw_dst_bits(32), 32, 10), Ok(OfMatch::lldp()));
        assert_eq!(with(nw_dst_bits(40), 32, 10), Ok(OfMatch::lldp()));
        // A wildcarded field's value is not read.
        assert_eq!(with(all, 4, 7), Ok(OfMatch::lldp()));
    }

    #[test]
    fn prefix_match_semantics() {
        let m = OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 2, 0, 0), 16);
        assert!(m.matches(&key(0x0800, Ipv4Addr::new(10, 2, 200, 1))));
        assert!(!m.matches(&key(0x0800, Ipv4Addr::new(10, 3, 0, 1))));
        assert!(
            !m.matches(&key(0x0806, Ipv4Addr::new(10, 2, 0, 1))),
            "dl_type must be checked"
        );
        let default = OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 2, 0, 0), 0);
        assert!(default.matches(&key(0x0800, Ipv4Addr::new(99, 0, 0, 1))));
        assert!(OfMatch::ethertype(0x0800).matches(&key(0x0800, Ipv4Addr::new(99, 0, 0, 1))));
    }

    #[test]
    fn lldp_match_only_matches_lldp() {
        let m = OfMatch::lldp();
        assert!(m.matches(&key(0x88CC, Ipv4Addr::UNSPECIFIED)));
        assert!(!m.matches(&key(0x0800, Ipv4Addr::UNSPECIFIED)));
    }

    #[test]
    fn within_relation() {
        let wide = OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 0, 0, 0), 8);
        let narrow = OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 2, 0, 0), 16);
        assert!(narrow.within(&wide));
        assert!(!wide.within(&narrow));
        let other = OfMatch::ipv4_dst_prefix(Ipv4Addr::new(11, 0, 0, 0), 8);
        assert!(!narrow.within(&other));
        // Every IPv4 match is within a /0, and an EtherType-only one
        // only there.
        let ipv4 = OfMatch::ethertype(0x0800);
        let default = OfMatch::ipv4_dst_prefix(Ipv4Addr::UNSPECIFIED, 0);
        for m in [wide, narrow, ipv4, default] {
            assert!(m.within(&default) && m.within(&ipv4));
        }
        assert!(!ipv4.within(&wide));
        assert!(!narrow.within(&OfMatch::arp()));
        assert!(OfMatch::lldp().within(&OfMatch::lldp()));
    }

    #[test]
    fn key_from_udp_frame_reads_the_ipv4_header() {
        let udp = UdpPacket::new(5004, 9000, Bytes::from_static(b"v"));
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 9, 9);
        let ip = Ipv4Packet::new(src, dst, IpProtocol::UDP, udp.emit(src, dst));
        let eth = EthernetFrame::new(
            MacAddr([2, 0, 0, 0, 0, 2]),
            MacAddr([2, 0, 0, 0, 0, 1]),
            EtherType::IPV4,
            ip.emit(),
        );
        let key = PacketKey::from_frame(7, &eth.emit()).unwrap();
        assert_eq!(key.in_port, 7);
        assert_eq!(key.dl_type, 0x0800);
        assert_eq!(key.nw_proto, 17);
        assert_eq!(key.nw_src, src);
        assert_eq!(key.nw_dst, dst);
        assert_eq!((key.tp_src, key.tp_dst), (0, 0), "ports are not read");
    }

    #[test]
    fn key_from_arp_frame_reads_only_ethernet() {
        let arp = ArpPacket::request(
            MacAddr([2, 0, 0, 0, 0, 1]),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 254),
        );
        let eth = EthernetFrame::new(
            MacAddr::BROADCAST,
            MacAddr([2, 0, 0, 0, 0, 1]),
            EtherType::ARP,
            arp.emit(),
        );
        let key = PacketKey::from_frame(1, &eth.emit()).unwrap();
        assert_eq!(key.dl_type, 0x0806);
        assert_eq!((key.nw_proto, key.nw_dst), (0, Ipv4Addr::UNSPECIFIED));
        assert_eq!(PacketKey::from_frame(1, &eth.emit()[..13]), None);
    }

    #[test]
    fn truncated_match_rejected() {
        assert_eq!(OfMatch::parse(&[0u8; 39]), Err(OfError::Truncated));
    }
}
