//! LLDP (IEEE 802.1AB) — the probe format used by topology discovery.
//!
//! The paper's framework learns the network through the NOX topology
//! discovery module: the controller emits an LLDP frame out of every
//! switch port (PACKET_OUT); when that frame re-enters the network on a
//! neighbouring switch it is punted back (PACKET_IN), and the pair
//! `(origin dpid/port, receiving dpid/port)` identifies a link.
//!
//! A discovery probe is a chassis id and a port id, both with the
//! "locally assigned" subtype 7 and carrying the big-endian datapath id
//! and port number respectively, a TTL, and the end marker. The
//! controller writes probes and reads them back, so that is what this
//! module encodes and decodes; any other LLDPDU reads as "not a probe".

use bytes::{BufMut, Bytes, BytesMut};

/// Subtype value "locally assigned" shared by chassis-id and port-id TLVs.
pub const SUBTYPE_LOCAL: u8 = 7;

const TLV_END: u8 = 0;
const TLV_CHASSIS_ID: u8 = 1;
const TLV_PORT_ID: u8 = 2;
const TLV_TTL: u8 = 3;
const TLV_SYSTEM_NAME: u8 = 5;
const TLV_ORG_SPECIFIC: u8 = 127;

/// The TTL a probe states, in seconds.
const PROBE_TTL: u16 = 120;
/// A probe on the wire: four TLV headers, a subtype and a datapath id,
/// a subtype and a port number, and the TTL.
const PROBE_LEN: usize = 4 * 2 + 9 + 3 + 2;

/// The discovery probe naming one switch port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LldpPacket {
    pub dpid: u64,
    pub port: u16,
}

fn put_tlv_header(buf: &mut BytesMut, ty: u8, len: usize) {
    buf.put_u16((u16::from(ty) << 9) | len as u16);
}

impl LldpPacket {
    /// The probe for `(dpid, port)`, with a TTL of 120 s.
    pub fn discovery_probe(dpid: u64, port: u16) -> LldpPacket {
        LldpPacket { dpid, port }
    }

    pub fn emit(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(PROBE_LEN);
        put_tlv_header(&mut buf, TLV_CHASSIS_ID, 9);
        buf.put_u8(SUBTYPE_LOCAL);
        buf.put_u64(self.dpid);
        put_tlv_header(&mut buf, TLV_PORT_ID, 3);
        buf.put_u8(SUBTYPE_LOCAL);
        buf.put_u16(self.port);
        put_tlv_header(&mut buf, TLV_TTL, 2);
        buf.put_u16(PROBE_TTL);
        put_tlv_header(&mut buf, TLV_END, 0);
        buf.freeze()
    }

    /// `(dpid, port)` of the discovery probe `data`, read in place: a
    /// locally-assigned chassis id of 8 bytes and port id of 2, in a
    /// well-formed LLDPDU. `None` for anything else — a TLV running past
    /// the data, no end marker, an empty chassis or port id, a short TTL
    /// or organizationally specific TLV, a system name that is not
    /// UTF-8, or a well-formed LLDPDU that is not a probe. This is the
    /// per-probe hot path of topology discovery.
    pub fn parse_discovery(data: &[u8]) -> Option<(u64, u16)> {
        let mut dpid = None;
        let mut port = None;
        let mut off = 0usize;
        loop {
            if off + 2 > data.len() {
                return None;
            }
            let hdr = u16::from_be_bytes([data[off], data[off + 1]]);
            let ty = (hdr >> 9) as u8;
            let len = (hdr & 0x1FF) as usize;
            off += 2;
            if off + len > data.len() {
                return None;
            }
            let value = &data[off..off + len];
            off += len;
            match ty {
                TLV_END => break,
                TLV_CHASSIS_ID | TLV_PORT_ID if value.is_empty() => return None,
                TLV_CHASSIS_ID if value[0] == SUBTYPE_LOCAL && value.len() == 9 => {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(&value[1..]);
                    dpid = Some(u64::from_be_bytes(b));
                }
                TLV_PORT_ID if value[0] == SUBTYPE_LOCAL && value.len() == 3 => {
                    port = Some(u16::from_be_bytes([value[1], value[2]]));
                }
                TLV_TTL if value.len() < 2 => return None,
                TLV_SYSTEM_NAME if std::str::from_utf8(value).is_err() => return None,
                TLV_ORG_SPECIFIC if value.len() < 4 => return None,
                _ => {}
            }
        }
        Some((dpid?, port?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    /// The probe as the TLV-tree encoder this one replaced wrote it.
    #[test]
    fn golden_probe() {
        let wire = LldpPacket::discovery_probe(0x1234_5678_9ABC_DEF0, 42).emit();
        assert_eq!(hex(&wire), "020907123456789abcdef0040307002a060200780000");
        assert_eq!(wire.len(), PROBE_LEN);
    }

    #[test]
    fn discovery_probe_roundtrip() {
        let wire = LldpPacket::discovery_probe(0xDEADBEEF, 17).emit();
        assert_eq!(LldpPacket::parse_discovery(&wire), Some((0xDEADBEEF, 17)));
    }

    #[test]
    fn end_tlv_closes_the_probe() {
        let wire = LldpPacket::discovery_probe(1, 1).emit();
        assert_eq!(&wire[wire.len() - 2..], &[0, 0]);
    }

    #[test]
    fn a_port_id_of_another_subtype_is_not_a_probe() {
        let mut wire = LldpPacket::discovery_probe(3, 4).emit().to_vec();
        wire[13] = 1; // port id subtype: interface alias
        assert_eq!(LldpPacket::parse_discovery(&wire), None);
    }

    #[test]
    fn truncated_rejected() {
        let wire = LldpPacket::discovery_probe(9, 9).emit();
        for cut in 0..wire.len() {
            assert_eq!(LldpPacket::parse_discovery(&wire[..cut]), None, "{cut}");
        }
    }

    #[test]
    fn tlv_overrun_rejected() {
        // TLV claiming 100 bytes with only 2 present.
        let data = [(1u16 << 9 | 100).to_be_bytes(), [0xAA, 0xBB]].concat();
        assert_eq!(LldpPacket::parse_discovery(&data), None);
    }
}
