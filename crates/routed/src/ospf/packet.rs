//! OSPFv2 packet encodings: the 24-byte common header plus Hello,
//! Database Description, Link State Request, Update and Ack bodies.

use super::lsa::{Lsa, LsaHeader, LsaKey, LSA_HEADER_LEN};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use rf_wire::{internet_checksum, WireError};
use std::net::Ipv4Addr;

pub const OSPF_HEADER_LEN: usize = 24;
const TYPE_HELLO: u8 = 1;

/// DBD flag bits.
pub const DBD_INIT: u8 = 0x04;
pub const DBD_MORE: u8 = 0x02;
pub const DBD_MASTER: u8 = 0x01;

/// A parsed OSPF packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OspfPacket {
    pub router_id: u32,
    pub area_id: u32,
    pub body: OspfPacketBody,
}

/// The five OSPFv2 packet types.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OspfPacketBody {
    Hello {
        network_mask: u32,
        hello_interval: u16,
        dead_interval: u32,
        neighbors: Vec<u32>,
    },
    DatabaseDescription {
        mtu: u16,
        flags: u8,
        dd_seq: u32,
        headers: Vec<LsaHeader>,
    },
    LinkStateRequest {
        keys: Vec<LsaKey>,
    },
    LinkStateUpdate {
        lsas: Vec<Lsa>,
    },
    LinkStateAck {
        headers: Vec<LsaHeader>,
    },
}

impl OspfPacketBody {
    fn type_code(&self) -> u8 {
        match self {
            OspfPacketBody::Hello { .. } => TYPE_HELLO,
            OspfPacketBody::DatabaseDescription { .. } => 2,
            OspfPacketBody::LinkStateRequest { .. } => 3,
            OspfPacketBody::LinkStateUpdate { .. } => 4,
            OspfPacketBody::LinkStateAck { .. } => 5,
        }
    }
}

impl OspfPacket {
    pub fn new(router_id: u32, body: OspfPacketBody) -> OspfPacket {
        OspfPacket {
            router_id,
            area_id: 0, // backbone only
            body,
        }
    }

    pub fn emit(&self) -> Bytes {
        let mut body = BytesMut::new();
        match &self.body {
            OspfPacketBody::Hello {
                network_mask,
                hello_interval,
                dead_interval,
                neighbors,
            } => {
                body.put_u32(*network_mask);
                body.put_u16(*hello_interval);
                body.put_u8(0x02); // options: E
                body.put_u8(1); // router priority
                body.put_u32(*dead_interval);
                body.put_u32(0); // DR (none on p2p)
                body.put_u32(0); // BDR
                for n in neighbors {
                    body.put_u32(*n);
                }
            }
            OspfPacketBody::DatabaseDescription {
                mtu,
                flags,
                dd_seq,
                headers,
            } => {
                body.put_u16(*mtu);
                body.put_u8(0x02); // options
                body.put_u8(*flags);
                body.put_u32(*dd_seq);
                for h in headers {
                    h.emit_into(&mut body);
                }
            }
            OspfPacketBody::LinkStateRequest { keys } => {
                for k in keys {
                    body.put_u32(u32::from(k.ls_type));
                    body.put_u32(k.ls_id);
                    body.put_u32(k.adv_router);
                }
            }
            OspfPacketBody::LinkStateUpdate { lsas } => {
                body.put_u32(lsas.len() as u32);
                for l in lsas {
                    l.emit_into(&mut body);
                }
            }
            OspfPacketBody::LinkStateAck { headers } => {
                for h in headers {
                    h.emit_into(&mut body);
                }
            }
        }
        let total = OSPF_HEADER_LEN + body.len();
        let mut out = BytesMut::with_capacity(total);
        out.put_u8(2); // version
        out.put_u8(self.body.type_code());
        out.put_u16(total as u16);
        out.put_u32(self.router_id);
        out.put_u32(self.area_id);
        out.put_u16(0); // checksum placeholder
        out.put_u16(0); // autype: null
        out.put_u64(0); // authentication (null)
        out.put_slice(&body);
        // The checksum excludes the 64-bit authentication field; with
        // null auth those bytes are zero, so summing the whole packet
        // is equivalent.
        let ck = internet_checksum(&out);
        out[12..14].copy_from_slice(&ck.to_be_bytes());
        out.freeze()
    }

    /// Is the emitted packet `wire` a Hello? Reads the type byte only.
    pub fn is_hello(wire: &[u8]) -> bool {
        wire.get(1) == Some(&TYPE_HELLO)
    }

    pub fn parse(data: &[u8]) -> Result<OspfPacket, WireError> {
        if data.len() < OSPF_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if data[0] != 2 {
            return Err(WireError::Unsupported);
        }
        let ptype = data[1];
        let length = u16::from_be_bytes([data[2], data[3]]) as usize;
        if length < OSPF_HEADER_LEN || length > data.len() {
            return Err(WireError::BadLength);
        }
        if internet_checksum(&data[..length]) != 0 {
            return Err(WireError::BadChecksum);
        }
        let router_id = u32::from_be_bytes([data[4], data[5], data[6], data[7]]);
        let area_id = u32::from_be_bytes([data[8], data[9], data[10], data[11]]);
        let mut b = &data[OSPF_HEADER_LEN..length];
        let body = match ptype {
            TYPE_HELLO => {
                if b.len() < 20 {
                    return Err(WireError::Truncated);
                }
                let network_mask = b.get_u32();
                let hello_interval = b.get_u16();
                b.get_u8(); // options
                b.get_u8(); // priority
                let dead_interval = b.get_u32();
                b.get_u32(); // DR
                b.get_u32(); // BDR
                let mut neighbors = Vec::new();
                while b.len() >= 4 {
                    neighbors.push(b.get_u32());
                }
                OspfPacketBody::Hello {
                    network_mask,
                    hello_interval,
                    dead_interval,
                    neighbors,
                }
            }
            2 => {
                if b.len() < 8 {
                    return Err(WireError::Truncated);
                }
                let mtu = b.get_u16();
                b.get_u8(); // options
                let flags = b.get_u8();
                let dd_seq = b.get_u32();
                let mut headers = Vec::new();
                while b.len() >= LSA_HEADER_LEN {
                    headers.push(LsaHeader::parse(&b[..LSA_HEADER_LEN])?);
                    b.advance(LSA_HEADER_LEN);
                }
                OspfPacketBody::DatabaseDescription {
                    mtu,
                    flags,
                    dd_seq,
                    headers,
                }
            }
            3 => {
                let mut keys = Vec::new();
                while b.len() >= 12 {
                    let t = b.get_u32();
                    if t > 255 {
                        return Err(WireError::Malformed);
                    }
                    keys.push(LsaKey {
                        ls_type: t as u8,
                        ls_id: b.get_u32(),
                        adv_router: b.get_u32(),
                    });
                }
                OspfPacketBody::LinkStateRequest { keys }
            }
            4 => {
                if b.len() < 4 {
                    return Err(WireError::Truncated);
                }
                let n = b.get_u32() as usize;
                let mut lsas = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    let (lsa, used) = Lsa::parse(b)?;
                    // A corrupt LSA is dropped on its own; the rest of
                    // the update still counts.
                    if Lsa::checksum_ok(&b[..used]) {
                        lsas.push(lsa);
                    }
                    b.advance(used);
                }
                OspfPacketBody::LinkStateUpdate { lsas }
            }
            5 => {
                let mut headers = Vec::new();
                while b.len() >= LSA_HEADER_LEN {
                    headers.push(LsaHeader::parse(&b[..LSA_HEADER_LEN])?);
                    b.advance(LSA_HEADER_LEN);
                }
                OspfPacketBody::LinkStateAck { headers }
            }
            _ => return Err(WireError::Unsupported),
        };
        Ok(OspfPacket {
            router_id,
            area_id,
            body,
        })
    }

    /// Wrap into an IPv4 packet (protocol 89, TTL 1) ready for the wire.
    pub fn to_ipv4(&self, src: Ipv4Addr, dst: Ipv4Addr) -> rf_wire::Ipv4Packet {
        let mut p = rf_wire::Ipv4Packet::new(src, dst, rf_wire::IpProtocol::OSPF, self.emit());
        p.ttl = 1;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ospf::lsa::{RouterLink, RouterLinkType, INITIAL_SEQ};

    fn roundtrip(p: OspfPacket) {
        let wire = p.emit();
        let parsed = OspfPacket::parse(&wire).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn hello_roundtrip() {
        roundtrip(OspfPacket::new(
            0x0A00_0001,
            OspfPacketBody::Hello {
                network_mask: 0xFFFF_FFFC,
                hello_interval: 10,
                dead_interval: 40,
                neighbors: vec![0x0A00_0002, 0x0A00_0003],
            },
        ));
    }

    #[test]
    fn empty_hello_roundtrip() {
        roundtrip(OspfPacket::new(
            1,
            OspfPacketBody::Hello {
                network_mask: 0,
                hello_interval: 1,
                dead_interval: 4,
                neighbors: vec![],
            },
        ));
    }

    #[test]
    fn dbd_roundtrip() {
        let lsa = Lsa::router(7, INITIAL_SEQ, 0, vec![]);
        roundtrip(OspfPacket::new(
            7,
            OspfPacketBody::DatabaseDescription {
                mtu: 1500,
                flags: DBD_INIT | DBD_MORE | DBD_MASTER,
                dd_seq: 0x1234,
                headers: vec![lsa.header],
            },
        ));
    }

    #[test]
    fn lsr_lsu_ack_roundtrip() {
        let lsa = Lsa::router(
            9,
            INITIAL_SEQ + 5,
            17,
            vec![RouterLink {
                link_type: RouterLinkType::Stub,
                link_id: 0x0A000000,
                link_data: 0xFFFFFF00,
                metric: 1,
            }],
        );
        roundtrip(OspfPacket::new(
            9,
            OspfPacketBody::LinkStateRequest {
                keys: vec![lsa.header.key()],
            },
        ));
        roundtrip(OspfPacket::new(
            9,
            OspfPacketBody::LinkStateUpdate {
                lsas: vec![lsa.clone()],
            },
        ));
        roundtrip(OspfPacket::new(
            9,
            OspfPacketBody::LinkStateAck {
                headers: vec![lsa.header],
            },
        ));
    }

    #[test]
    fn checksum_enforced() {
        let wire = OspfPacket::new(
            1,
            OspfPacketBody::Hello {
                network_mask: 0,
                hello_interval: 10,
                dead_interval: 40,
                neighbors: vec![],
            },
        )
        .emit();
        let mut bad = wire.to_vec();
        bad[4] ^= 0xFF;
        assert_eq!(OspfPacket::parse(&bad), Err(WireError::BadChecksum));
    }

    #[test]
    fn corrupt_lsa_dropped_from_update_on_its_own() {
        let good = Lsa::router(9, INITIAL_SEQ, 0, vec![]);
        let bad = Lsa::router(8, INITIAL_SEQ, 0, vec![]);
        let mut wire = OspfPacket::new(
            9,
            OspfPacketBody::LinkStateUpdate {
                lsas: vec![bad, good.clone()],
            },
        )
        .emit()
        .to_vec();
        // Damage the first LSA's ls_id, then make the packet checksum
        // right again: only the LSA's own Fletcher can tell.
        wire[OSPF_HEADER_LEN + 4 + 7] ^= 0x10;
        wire[12..14].fill(0);
        let ck = internet_checksum(&wire);
        wire[12..14].copy_from_slice(&ck.to_be_bytes());
        assert_eq!(
            OspfPacket::parse(&wire).unwrap().body,
            OspfPacketBody::LinkStateUpdate { lsas: vec![good] }
        );
    }

    #[test]
    fn wrong_version_rejected() {
        let wire = OspfPacket::new(
            1,
            OspfPacketBody::Hello {
                network_mask: 0,
                hello_interval: 10,
                dead_interval: 40,
                neighbors: vec![],
            },
        )
        .emit();
        let mut bad = wire.to_vec();
        bad[0] = 3;
        assert_eq!(OspfPacket::parse(&bad), Err(WireError::Unsupported));
    }

    #[test]
    fn ipv4_wrapping_sets_proto_and_ttl() {
        let p = OspfPacket::new(
            1,
            OspfPacketBody::Hello {
                network_mask: 0,
                hello_interval: 10,
                dead_interval: 40,
                neighbors: vec![],
            },
        );
        let ip = p.to_ipv4(Ipv4Addr::new(172, 31, 0, 1), crate::ospf::ALL_SPF_ROUTERS);
        assert_eq!(ip.protocol, rf_wire::IpProtocol::OSPF);
        assert_eq!(ip.ttl, 1);
        let wire = ip.emit();
        let back = rf_wire::Ipv4Packet::parse_bytes(&wire).unwrap();
        assert_eq!(OspfPacket::parse(&back.payload).unwrap(), p);
    }
}
