//! LLDP as `rf_wire::lldp` read and wrote it before the runtime kept
//! only the discovery probe (`crates/wire/src/lldp.rs` at f17a325,
//! verbatim but for the adaptations marked `ADAPTED`): every TLV
//! decoded into an owned tree, the probe found in it afterwards.
//! `LldpPacket::parse_discovery` must answer what `parse` followed by
//! `decode_discovery` answers, on any input, and
//! `LldpPacket::discovery_probe(..).emit()` must write the bytes this
//! tree's probe emits.

use bytes::{BufMut, Bytes, BytesMut};
use rf_wire::WireError;

// ADAPTED: the constant is the real crate's.
use rf_wire::lldp::SUBTYPE_LOCAL;

/// One LLDP TLV.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LldpTlv {
    End,
    ChassisId {
        subtype: u8,
        id: Bytes,
    },
    PortId {
        subtype: u8,
        id: Bytes,
    },
    Ttl(u16),
    SystemName(String),
    OrgSpecific {
        oui: [u8; 3],
        subtype: u8,
        info: Bytes,
    },
    /// Any other TLV type, preserved opaquely.
    Unknown {
        ty: u8,
        value: Bytes,
    },
}

impl LldpTlv {
    fn type_code(&self) -> u8 {
        match self {
            LldpTlv::End => 0,
            LldpTlv::ChassisId { .. } => 1,
            LldpTlv::PortId { .. } => 2,
            LldpTlv::Ttl(_) => 3,
            LldpTlv::SystemName(_) => 5,
            LldpTlv::OrgSpecific { .. } => 127,
            LldpTlv::Unknown { ty, .. } => *ty,
        }
    }

    fn value_bytes(&self) -> Bytes {
        match self {
            LldpTlv::End => Bytes::new(),
            LldpTlv::ChassisId { subtype, id } | LldpTlv::PortId { subtype, id } => {
                let mut b = BytesMut::with_capacity(1 + id.len());
                b.put_u8(*subtype);
                b.put_slice(id);
                b.freeze()
            }
            LldpTlv::Ttl(t) => Bytes::copy_from_slice(&t.to_be_bytes()),
            LldpTlv::SystemName(s) => Bytes::copy_from_slice(s.as_bytes()),
            LldpTlv::OrgSpecific { oui, subtype, info } => {
                let mut b = BytesMut::with_capacity(4 + info.len());
                b.put_slice(oui);
                b.put_u8(*subtype);
                b.put_slice(info);
                b.freeze()
            }
            LldpTlv::Unknown { value, .. } => value.clone(),
        }
    }
}

// ADAPTED: named `LldpPdu`, not `LldpPacket`, beside the real crate's.
/// A full LLDPDU: a sequence of TLVs ending with `End`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LldpPdu {
    pub tlvs: Vec<LldpTlv>,
}

impl LldpPdu {
    /// Build the discovery probe for `(dpid, port)` with a TTL of 120 s.
    pub fn discovery_probe(dpid: u64, port: u16) -> LldpPdu {
        LldpPdu {
            tlvs: vec![
                LldpTlv::ChassisId {
                    subtype: SUBTYPE_LOCAL,
                    id: Bytes::copy_from_slice(&dpid.to_be_bytes()),
                },
                LldpTlv::PortId {
                    subtype: SUBTYPE_LOCAL,
                    id: Bytes::copy_from_slice(&port.to_be_bytes()),
                },
                LldpTlv::Ttl(120),
            ],
        }
    }

    /// Extract `(dpid, port)` from a discovery probe, if this LLDPDU is
    /// one (locally-assigned chassis id of 8 bytes + port id of 2).
    pub fn decode_discovery(&self) -> Option<(u64, u16)> {
        let mut dpid = None;
        let mut port = None;
        for tlv in &self.tlvs {
            match tlv {
                LldpTlv::ChassisId { subtype, id }
                    if *subtype == SUBTYPE_LOCAL && id.len() == 8 =>
                {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(id);
                    dpid = Some(u64::from_be_bytes(b));
                }
                LldpTlv::PortId { subtype, id } if *subtype == SUBTYPE_LOCAL && id.len() == 2 => {
                    port = Some(u16::from_be_bytes([id[0], id[1]]));
                }
                _ => {}
            }
        }
        Some((dpid?, port?))
    }

    pub fn parse(data: &[u8]) -> Result<LldpPdu, WireError> {
        let mut tlvs = Vec::new();
        let mut off = 0usize;
        loop {
            if off + 2 > data.len() {
                return Err(WireError::Truncated);
            }
            let hdr = u16::from_be_bytes([data[off], data[off + 1]]);
            let ty = (hdr >> 9) as u8;
            let len = (hdr & 0x1FF) as usize;
            off += 2;
            if off + len > data.len() {
                return Err(WireError::Malformed);
            }
            let value = &data[off..off + len];
            off += len;
            let tlv = match ty {
                0 => {
                    tlvs.push(LldpTlv::End);
                    break;
                }
                1 => {
                    if value.is_empty() {
                        return Err(WireError::Malformed);
                    }
                    LldpTlv::ChassisId {
                        subtype: value[0],
                        id: Bytes::copy_from_slice(&value[1..]),
                    }
                }
                2 => {
                    if value.is_empty() {
                        return Err(WireError::Malformed);
                    }
                    LldpTlv::PortId {
                        subtype: value[0],
                        id: Bytes::copy_from_slice(&value[1..]),
                    }
                }
                3 => {
                    if value.len() < 2 {
                        return Err(WireError::Malformed);
                    }
                    LldpTlv::Ttl(u16::from_be_bytes([value[0], value[1]]))
                }
                5 => LldpTlv::SystemName(
                    String::from_utf8(value.to_vec()).map_err(|_| WireError::Malformed)?,
                ),
                127 => {
                    if value.len() < 4 {
                        return Err(WireError::Malformed);
                    }
                    LldpTlv::OrgSpecific {
                        oui: [value[0], value[1], value[2]],
                        subtype: value[3],
                        info: Bytes::copy_from_slice(&value[4..]),
                    }
                }
                other => LldpTlv::Unknown {
                    ty: other,
                    value: Bytes::copy_from_slice(value),
                },
            };
            tlvs.push(tlv);
        }
        Ok(LldpPdu { tlvs })
    }

    pub fn emit(&self) -> Bytes {
        let mut buf = BytesMut::new();
        let mut wrote_end = false;
        for tlv in &self.tlvs {
            let value = tlv.value_bytes();
            assert!(value.len() < 512, "TLV value too long");
            let hdr = ((tlv.type_code() as u16) << 9) | value.len() as u16;
            buf.put_u16(hdr);
            buf.put_slice(&value);
            if matches!(tlv, LldpTlv::End) {
                wrote_end = true;
                break;
            }
        }
        if !wrote_end {
            buf.put_u16(0);
        }
        buf.freeze()
    }
}
