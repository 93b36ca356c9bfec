//! The OpenFlow 1.0 `ofp_match` (40 bytes) and packet classification.
//!
//! OF 1.0 matching is a fixed 12-tuple with a wildcard bitfield;
//! `nw_src`/`nw_dst` carry 6-bit "number of wildcarded low bits"
//! subfields enabling CIDR-prefix matching — which is exactly what
//! RouteFlow relies on to translate a VM's RIB entry (`10.2.0.0/16 via
//! ...`) into a flow entry.

use crate::ports::PortNumber;
use crate::OfError;
use bytes::{BufMut, BytesMut};
use rf_wire::ethernet::ETHERNET_HEADER_LEN;
use rf_wire::{
    ArpOp, ArpPacket, EtherType, EthernetHeader, IcmpHeader, IpProtocol, Ipv4Header, MacAddr,
    UdpHeader,
};
use std::fmt;
use std::net::Ipv4Addr;

/// Size of `ofp_match` on the wire.
pub const OFP_MATCH_LEN: usize = 40;

/// The OF 1.0 wildcard bitfield (`OFPFW_*`).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Wildcards(pub u32);

impl Wildcards {
    pub const IN_PORT: u32 = 1 << 0;
    pub const DL_VLAN: u32 = 1 << 1;
    pub const DL_SRC: u32 = 1 << 2;
    pub const DL_DST: u32 = 1 << 3;
    pub const DL_TYPE: u32 = 1 << 4;
    pub const NW_PROTO: u32 = 1 << 5;
    pub const TP_SRC: u32 = 1 << 6;
    pub const TP_DST: u32 = 1 << 7;
    pub const NW_SRC_SHIFT: u32 = 8;
    pub const NW_DST_SHIFT: u32 = 14;
    pub const DL_VLAN_PCP: u32 = 1 << 20;
    pub const NW_TOS: u32 = 1 << 21;
    /// Everything wildcarded (the table-miss match).
    pub const ALL: u32 = (1 << 22) - 1;

    pub fn all() -> Wildcards {
        Wildcards(Self::ALL)
    }

    pub fn none() -> Wildcards {
        Wildcards(0)
    }

    pub fn contains(&self, bit: u32) -> bool {
        self.0 & bit != 0
    }

    /// Number of wildcarded low bits in nw_src (0..=32; values ≥ 32
    /// mean "fully wildcarded" per spec).
    pub fn nw_src_bits(&self) -> u32 {
        ((self.0 >> Self::NW_SRC_SHIFT) & 0x3F).min(32)
    }

    pub fn nw_dst_bits(&self) -> u32 {
        ((self.0 >> Self::NW_DST_SHIFT) & 0x3F).min(32)
    }

    pub fn with_nw_src_bits(mut self, bits: u32) -> Wildcards {
        self.0 &= !(0x3F << Self::NW_SRC_SHIFT);
        self.0 |= (bits.min(63)) << Self::NW_SRC_SHIFT;
        self
    }

    pub fn with_nw_dst_bits(mut self, bits: u32) -> Wildcards {
        self.0 &= !(0x3F << Self::NW_DST_SHIFT);
        self.0 |= (bits.min(63)) << Self::NW_DST_SHIFT;
        self
    }

    fn mask_from_bits(bits: u32) -> u32 {
        if bits >= 32 {
            0
        } else {
            u32::MAX << bits
        }
    }

    pub fn nw_src_mask(&self) -> u32 {
        Self::mask_from_bits(self.nw_src_bits())
    }

    pub fn nw_dst_mask(&self) -> u32 {
        Self::mask_from_bits(self.nw_dst_bits())
    }
}

impl fmt::Debug for Wildcards {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Wildcards({:#08x})", self.0)
    }
}

/// `dl_vlan` of a frame without an 802.1Q tag (`OFP_VLAN_NONE`) —
/// every frame here: the parser reads no tags.
pub const OFP_VLAN_NONE: u16 = 0xFFFF;

/// How far into a frame a match reads, and so how far
/// [`PacketKey::from_frame`] has to: `L2` is the Ethernet header (and
/// the ingress port and VLAN fields), `L3` adds the IPv4 header or the
/// ARP body (`nw_*`), `L4` the UDP ports or ICMP type/code (`tp_*`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum KeyDepth {
    #[default]
    L2,
    L3,
    L4,
}

/// The OF 1.0 12-tuple match.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct OfMatch {
    pub wildcards: Wildcards,
    pub in_port: PortNumber,
    pub dl_src: MacAddr,
    pub dl_dst: MacAddr,
    pub dl_vlan: u16,
    pub dl_vlan_pcp: u8,
    pub dl_type: u16,
    pub nw_tos: u8,
    pub nw_proto: u8,
    pub nw_src: Ipv4Addr,
    pub nw_dst: Ipv4Addr,
    pub tp_src: u16,
    pub tp_dst: u16,
}

impl Default for OfMatch {
    fn default() -> Self {
        OfMatch::any()
    }
}

impl OfMatch {
    /// Match-everything (all fields wildcarded).
    pub fn any() -> OfMatch {
        OfMatch {
            wildcards: Wildcards::all(),
            in_port: 0,
            dl_src: MacAddr::ZERO,
            dl_dst: MacAddr::ZERO,
            dl_vlan: OFP_VLAN_NONE,
            dl_vlan_pcp: 0,
            dl_type: 0,
            nw_tos: 0,
            nw_proto: 0,
            nw_src: Ipv4Addr::UNSPECIFIED,
            nw_dst: Ipv4Addr::UNSPECIFIED,
            tp_src: 0,
            tp_dst: 0,
        }
    }

    /// Match IPv4 traffic to a destination prefix — the shape RouteFlow
    /// installs for every RIB entry.
    pub fn ipv4_dst_prefix(prefix: Ipv4Addr, prefix_len: u8) -> OfMatch {
        let mut m = OfMatch::any();
        m.dl_type = 0x0800;
        m.nw_dst = prefix;
        m.wildcards = Wildcards(Wildcards::ALL & !Wildcards::DL_TYPE)
            .with_nw_dst_bits(32 - prefix_len as u32);
        m
    }

    /// Match all LLDP frames (the slice FlowVisor grants the topology
    /// controller).
    pub fn lldp() -> OfMatch {
        let mut m = OfMatch::any();
        m.dl_type = 0x88CC;
        m.wildcards = Wildcards(Wildcards::ALL & !Wildcards::DL_TYPE);
        m
    }

    /// Match all ARP frames.
    pub fn arp() -> OfMatch {
        let mut m = OfMatch::any();
        m.dl_type = 0x0806;
        m.wildcards = Wildcards(Wildcards::ALL & !Wildcards::DL_TYPE);
        m
    }

    /// The deepest layer this match constrains a field of: a key
    /// extracted to this depth (or deeper) gives [`OfMatch::matches`]
    /// the answer a fully extracted one does.
    pub fn depth(&self) -> KeyDepth {
        let w = &self.wildcards;
        if !w.contains(Wildcards::TP_SRC) || !w.contains(Wildcards::TP_DST) {
            KeyDepth::L4
        } else if !w.contains(Wildcards::NW_PROTO)
            || !w.contains(Wildcards::NW_TOS)
            || w.nw_src_bits() < 32
            || w.nw_dst_bits() < 32
        {
            KeyDepth::L3
        } else {
            KeyDepth::L2
        }
    }

    /// Does this match cover `key`? Every key is of an untagged frame
    /// (see [`OFP_VLAN_NONE`]), so a match that names a VLAN or a
    /// non-zero VLAN priority covers none.
    pub fn matches(&self, key: &PacketKey) -> bool {
        let w = &self.wildcards;
        if !w.contains(Wildcards::IN_PORT) && self.in_port != key.in_port {
            return false;
        }
        if !w.contains(Wildcards::DL_VLAN) && self.dl_vlan != OFP_VLAN_NONE {
            return false;
        }
        if !w.contains(Wildcards::DL_VLAN_PCP) && self.dl_vlan_pcp != 0 {
            return false;
        }
        if !w.contains(Wildcards::DL_SRC) && self.dl_src != key.dl_src {
            return false;
        }
        if !w.contains(Wildcards::DL_DST) && self.dl_dst != key.dl_dst {
            return false;
        }
        if !w.contains(Wildcards::DL_TYPE) && self.dl_type != key.dl_type {
            return false;
        }
        if !w.contains(Wildcards::NW_PROTO) && self.nw_proto != key.nw_proto {
            return false;
        }
        if !w.contains(Wildcards::NW_TOS) && self.nw_tos != key.nw_tos {
            return false;
        }
        let src_mask = w.nw_src_mask();
        if u32::from(self.nw_src) & src_mask != u32::from(key.nw_src) & src_mask {
            return false;
        }
        let dst_mask = w.nw_dst_mask();
        if u32::from(self.nw_dst) & dst_mask != u32::from(key.nw_dst) & dst_mask {
            return false;
        }
        if !w.contains(Wildcards::TP_SRC) && self.tp_src != key.tp_src {
            return false;
        }
        if !w.contains(Wildcards::TP_DST) && self.tp_dst != key.tp_dst {
            return false;
        }
        true
    }

    /// Is `self` at least as specific as `other` on every field `other`
    /// constrains (used for OFPFC_DELETE's loose matching)?
    pub fn is_subset_of(&self, other: &OfMatch) -> bool {
        let (sw, ow) = (&self.wildcards, &other.wildcards);
        let field = |bit: u32, eq: bool| -> bool {
            if ow.contains(bit) {
                true // other doesn't constrain this field
            } else {
                !sw.contains(bit) && eq
            }
        };
        field(Wildcards::IN_PORT, self.in_port == other.in_port)
            && field(Wildcards::DL_VLAN, self.dl_vlan == other.dl_vlan)
            && field(
                Wildcards::DL_VLAN_PCP,
                self.dl_vlan_pcp == other.dl_vlan_pcp,
            )
            && field(Wildcards::DL_SRC, self.dl_src == other.dl_src)
            && field(Wildcards::DL_DST, self.dl_dst == other.dl_dst)
            && field(Wildcards::DL_TYPE, self.dl_type == other.dl_type)
            && field(Wildcards::NW_PROTO, self.nw_proto == other.nw_proto)
            && field(Wildcards::NW_TOS, self.nw_tos == other.nw_tos)
            && field(Wildcards::TP_SRC, self.tp_src == other.tp_src)
            && field(Wildcards::TP_DST, self.tp_dst == other.tp_dst)
            && {
                // self's prefix must be at least as long and agree.
                let ob = ow.nw_src_bits();
                let sb = sw.nw_src_bits();
                sb <= ob && {
                    let m = Wildcards::mask_from_bits(ob);
                    u32::from(self.nw_src) & m == u32::from(other.nw_src) & m
                }
            }
            && {
                let ob = ow.nw_dst_bits();
                let sb = sw.nw_dst_bits();
                sb <= ob && {
                    let m = Wildcards::mask_from_bits(ob);
                    u32::from(self.nw_dst) & m == u32::from(other.nw_dst) & m
                }
            }
    }

    pub fn parse(data: &[u8]) -> Result<OfMatch, OfError> {
        if data.len() < OFP_MATCH_LEN {
            return Err(OfError::Truncated);
        }
        Ok(OfMatch {
            wildcards: Wildcards(u32::from_be_bytes([data[0], data[1], data[2], data[3]])),
            in_port: u16::from_be_bytes([data[4], data[5]]),
            dl_src: MacAddr::from_bytes(&data[6..12]).map_err(|_| OfError::Truncated)?,
            dl_dst: MacAddr::from_bytes(&data[12..18]).map_err(|_| OfError::Truncated)?,
            dl_vlan: u16::from_be_bytes([data[18], data[19]]),
            dl_vlan_pcp: data[20],
            // data[21] pad
            dl_type: u16::from_be_bytes([data[22], data[23]]),
            nw_tos: data[24],
            nw_proto: data[25],
            // data[26..28] pad
            nw_src: Ipv4Addr::new(data[28], data[29], data[30], data[31]),
            nw_dst: Ipv4Addr::new(data[32], data[33], data[34], data[35]),
            tp_src: u16::from_be_bytes([data[36], data[37]]),
            tp_dst: u16::from_be_bytes([data[38], data[39]]),
        })
    }

    pub fn emit_into(&self, buf: &mut BytesMut) {
        buf.put_u32(self.wildcards.0);
        buf.put_u16(self.in_port);
        buf.put_slice(self.dl_src.as_bytes());
        buf.put_slice(self.dl_dst.as_bytes());
        buf.put_u16(self.dl_vlan);
        buf.put_u8(self.dl_vlan_pcp);
        buf.put_u8(0); // pad
        buf.put_u16(self.dl_type);
        buf.put_u8(self.nw_tos);
        buf.put_u8(self.nw_proto);
        buf.put_u16(0); // pad
        buf.put_slice(&self.nw_src.octets());
        buf.put_slice(&self.nw_dst.octets());
        buf.put_u16(self.tp_src);
        buf.put_u16(self.tp_dst);
    }
}

/// The classification key extracted from a packet, against which
/// matches are evaluated. Mirrors the OF 1.0 parse rules, including the
/// ARP quirk (nw_proto = ARP opcode, nw_src/dst = ARP IPs) and the ICMP
/// quirk (tp_src/dst = ICMP type/code).
///
/// Which fields [`PacketKey::from_frame`] fills depends on the
/// [`KeyDepth`] asked for: `in_port`, `dl_src`, `dl_dst` and `dl_type`
/// always; `nw_tos`, `nw_proto`, `nw_src` and `nw_dst` from `L3` on;
/// `tp_src` and `tp_dst` at `L4` only. The rest stay zero.
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
    /// where it lies and only as deep as `depth` — pass the deepest
    /// [`OfMatch::depth`] of the matches the key will be held against,
    /// which then cannot tell it from a fully extracted one. A layer
    /// deeper than `depth` is not looked at, not even to verify it; a
    /// layer that does not parse leaves its own and the deeper fields
    /// zero, matching how a hardware parser degrades. So a UDP datagram is
    /// checksummed only for a table that matches on ports. This runs
    /// per frame per switch hop: no allocation, no reference count.
    pub fn from_frame(in_port: PortNumber, frame: &[u8], depth: KeyDepth) -> Option<PacketKey> {
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
        if depth < KeyDepth::L3 {
            return Some(key);
        }
        let payload = &frame[ETHERNET_HEADER_LEN..];
        match eth.ethertype {
            EtherType::IPV4 => {
                if let Ok(ip) = Ipv4Header::parse(payload) {
                    key.nw_tos = ip.dscp << 2;
                    key.nw_proto = ip.protocol.0;
                    key.nw_src = ip.src;
                    key.nw_dst = ip.dst;
                    if depth < KeyDepth::L4 {
                        return Some(key);
                    }
                    let body = &payload[ip.ihl..ip.total_len];
                    match ip.protocol {
                        IpProtocol::UDP => {
                            if let Ok(udp) = UdpHeader::parse(body, ip.src, ip.dst) {
                                key.tp_src = udp.src_port;
                                key.tp_dst = udp.dst_port;
                            }
                        }
                        IpProtocol::ICMP => {
                            if let Ok(icmp) = IcmpHeader::parse(body) {
                                key.tp_src = u16::from(icmp.ty);
                                key.tp_dst = u16::from(icmp.code);
                            }
                        }
                        _ => {}
                    }
                }
            }
            EtherType::ARP => {
                if let Ok(arp) = ArpPacket::parse(payload) {
                    key.nw_proto = match arp.op {
                        ArpOp::Request => 1,
                        ArpOp::Reply => 2,
                    };
                    key.nw_src = arp.sender_ip;
                    key.nw_dst = arp.target_ip;
                }
            }
            _ => {}
        }
        Some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rf_wire::{EthernetFrame, IcmpPacket, Ipv4Packet, UdpPacket};

    fn wire(m: &OfMatch) -> Vec<u8> {
        let mut b = BytesMut::new();
        m.emit_into(&mut b);
        b.to_vec()
    }

    #[test]
    fn match_roundtrip() {
        let m = OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 2, 0, 0), 16);
        let w = wire(&m);
        assert_eq!(w.len(), OFP_MATCH_LEN);
        assert_eq!(OfMatch::parse(&w).unwrap(), m);
    }

    #[test]
    fn any_matches_everything() {
        let m = OfMatch::any();
        let key = PacketKey {
            in_port: 3,
            dl_src: MacAddr([1; 6]),
            dl_dst: MacAddr([2; 6]),
            dl_type: 0x0800,
            nw_tos: 0,
            nw_proto: 17,
            nw_src: Ipv4Addr::new(1, 2, 3, 4),
            nw_dst: Ipv4Addr::new(5, 6, 7, 8),
            tp_src: 1000,
            tp_dst: 2000,
        };
        assert!(m.matches(&key));
    }

    #[test]
    fn prefix_match_semantics() {
        let m = OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 2, 0, 0), 16);
        let mut key = PacketKey {
            in_port: 1,
            dl_src: MacAddr::ZERO,
            dl_dst: MacAddr::ZERO,
            dl_type: 0x0800,
            nw_tos: 0,
            nw_proto: 6,
            nw_src: Ipv4Addr::new(9, 9, 9, 9),
            nw_dst: Ipv4Addr::new(10, 2, 200, 1),
            tp_src: 0,
            tp_dst: 0,
        };
        assert!(m.matches(&key));
        key.nw_dst = Ipv4Addr::new(10, 3, 0, 1);
        assert!(!m.matches(&key));
        key.dl_type = 0x0806;
        key.nw_dst = Ipv4Addr::new(10, 2, 0, 1);
        assert!(!m.matches(&key), "dl_type must be checked");
    }

    #[test]
    fn lldp_match_only_matches_lldp() {
        let m = OfMatch::lldp();
        let mk = |dl_type| PacketKey {
            in_port: 1,
            dl_src: MacAddr::ZERO,
            dl_dst: MacAddr::ZERO,
            dl_type,
            nw_tos: 0,
            nw_proto: 0,
            nw_src: Ipv4Addr::UNSPECIFIED,
            nw_dst: Ipv4Addr::UNSPECIFIED,
            tp_src: 0,
            tp_dst: 0,
        };
        assert!(m.matches(&mk(0x88CC)));
        assert!(!m.matches(&mk(0x0800)));
    }

    #[test]
    fn wildcard_bits_encoding() {
        let w = Wildcards::all();
        assert_eq!(w.nw_src_bits(), 32);
        assert_eq!(w.nw_src_mask(), 0);
        let w = Wildcards::none().with_nw_dst_bits(8);
        assert_eq!(w.nw_dst_bits(), 8);
        assert_eq!(w.nw_dst_mask(), 0xFFFF_FF00);
    }

    #[test]
    fn subset_relation() {
        let wide = OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 0, 0, 0), 8);
        let narrow = OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 2, 0, 0), 16);
        assert!(narrow.is_subset_of(&wide));
        assert!(!wide.is_subset_of(&narrow));
        assert!(narrow.is_subset_of(&OfMatch::any()));
        let other = OfMatch::ipv4_dst_prefix(Ipv4Addr::new(11, 0, 0, 0), 8);
        assert!(!narrow.is_subset_of(&other));
    }

    #[test]
    fn key_from_udp_frame() {
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
        let key = PacketKey::from_frame(7, &eth.emit(), KeyDepth::L4).unwrap();
        assert_eq!(key.in_port, 7);
        assert_eq!(key.dl_type, 0x0800);
        assert_eq!(key.nw_proto, 17);
        assert_eq!(key.nw_src, src);
        assert_eq!(key.nw_dst, dst);
        assert_eq!(key.tp_src, 5004);
        assert_eq!(key.tp_dst, 9000);
        // Shallower keys are the same key with the deeper fields zero.
        let l3 = PacketKey {
            tp_src: 0,
            tp_dst: 0,
            ..key
        };
        assert_eq!(
            PacketKey::from_frame(7, &eth.emit(), KeyDepth::L3),
            Some(l3)
        );
        let l2 = PacketKey {
            nw_proto: 0,
            nw_src: Ipv4Addr::UNSPECIFIED,
            nw_dst: Ipv4Addr::UNSPECIFIED,
            ..l3
        };
        assert_eq!(
            PacketKey::from_frame(7, &eth.emit(), KeyDepth::L2),
            Some(l2)
        );
    }

    #[test]
    fn depth_is_the_deepest_constrained_field() {
        assert_eq!(OfMatch::any().depth(), KeyDepth::L2);
        assert_eq!(OfMatch::lldp().depth(), KeyDepth::L2);
        assert_eq!(OfMatch::arp().depth(), KeyDepth::L2);
        let route = OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 2, 0, 0), 16);
        assert_eq!(route.depth(), KeyDepth::L3);
        // A /0 reads no address bit, whatever the raw 6-bit count.
        let mut default = OfMatch::ipv4_dst_prefix(Ipv4Addr::UNSPECIFIED, 0);
        assert_eq!(default.depth(), KeyDepth::L2);
        default.wildcards = default.wildcards.with_nw_dst_bits(63);
        assert_eq!(default.depth(), KeyDepth::L2);
        let clear = |bit: u32| Wildcards(Wildcards::ALL & !bit);
        for l2 in [
            Wildcards::IN_PORT,
            Wildcards::DL_VLAN,
            Wildcards::DL_SRC,
            Wildcards::DL_DST,
            Wildcards::DL_TYPE,
            Wildcards::DL_VLAN_PCP,
        ] {
            let m = OfMatch {
                wildcards: clear(l2),
                ..OfMatch::any()
            };
            assert_eq!(m.depth(), KeyDepth::L2, "{l2:#x}");
        }
        for (wildcards, depth) in [
            (clear(Wildcards::NW_PROTO), KeyDepth::L3),
            (clear(Wildcards::NW_TOS), KeyDepth::L3),
            (Wildcards::all().with_nw_src_bits(31), KeyDepth::L3),
            (clear(Wildcards::TP_SRC), KeyDepth::L4),
            (clear(Wildcards::TP_DST), KeyDepth::L4),
            (Wildcards::none(), KeyDepth::L4),
        ] {
            let m = OfMatch {
                wildcards,
                ..OfMatch::any()
            };
            assert_eq!(m.depth(), depth, "{wildcards:?}");
        }
        assert!(KeyDepth::L2 < KeyDepth::L3 && KeyDepth::L3 < KeyDepth::L4);
    }

    #[test]
    fn a_vlan_match_covers_no_untagged_frame() {
        let key = PacketKey {
            in_port: 1,
            dl_src: MacAddr::ZERO,
            dl_dst: MacAddr::ZERO,
            dl_type: 0x0800,
            nw_tos: 0,
            nw_proto: 17,
            nw_src: Ipv4Addr::new(1, 2, 3, 4),
            nw_dst: Ipv4Addr::new(5, 6, 7, 8),
            tp_src: 0,
            tp_dst: 0,
        };
        let vlan = |dl_vlan| OfMatch {
            wildcards: Wildcards(Wildcards::ALL & !Wildcards::DL_VLAN),
            dl_vlan,
            ..OfMatch::any()
        };
        assert!(!vlan(5).matches(&key), "tagged-only entry, untagged frame");
        assert!(vlan(OFP_VLAN_NONE).matches(&key), "untagged-only entry");
        assert!(OfMatch::any().matches(&key), "wildcarded dl_vlan");
        let pcp = |dl_vlan_pcp| OfMatch {
            wildcards: Wildcards(Wildcards::ALL & !Wildcards::DL_VLAN_PCP),
            dl_vlan_pcp,
            ..OfMatch::any()
        };
        assert!(!pcp(3).matches(&key));
        assert!(pcp(0).matches(&key));
        // Two matches that differ only in VLAN are not each other's
        // subsets; a VLAN match is a subset of the wildcard.
        assert!(!vlan(5).is_subset_of(&vlan(6)));
        assert!(vlan(5).is_subset_of(&vlan(5)));
        assert!(vlan(5).is_subset_of(&OfMatch::any()));
        assert!(!OfMatch::any().is_subset_of(&vlan(5)));
        assert!(!pcp(3).is_subset_of(&pcp(0)));
    }

    #[test]
    fn key_from_arp_frame_uses_of10_quirk() {
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
        let key = PacketKey::from_frame(1, &eth.emit(), KeyDepth::L4).unwrap();
        assert_eq!(key.dl_type, 0x0806);
        assert_eq!(key.nw_proto, 1, "ARP opcode in nw_proto");
        assert_eq!(key.nw_src, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(key.nw_dst, Ipv4Addr::new(10, 0, 0, 254));
    }

    #[test]
    fn key_from_icmp_frame_maps_type_code() {
        let icmp = IcmpPacket::echo_request(1, 2, Bytes::new());
        let src = Ipv4Addr::new(1, 1, 1, 1);
        let dst = Ipv4Addr::new(2, 2, 2, 2);
        let ip = Ipv4Packet::new(src, dst, IpProtocol::ICMP, icmp.emit());
        let eth = EthernetFrame::new(MacAddr::ZERO, MacAddr::ZERO, EtherType::IPV4, ip.emit());
        let key = PacketKey::from_frame(1, &eth.emit(), KeyDepth::L4).unwrap();
        assert_eq!(key.nw_proto, 1);
        assert_eq!(key.tp_src, 8, "ICMP type in tp_src");
        assert_eq!(key.tp_dst, 0, "ICMP code in tp_dst");
    }

    #[test]
    fn truncated_match_rejected() {
        assert_eq!(OfMatch::parse(&[0u8; 39]), Err(OfError::Truncated));
    }
}
