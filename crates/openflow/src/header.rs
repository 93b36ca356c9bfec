//! The 8-byte `ofp_header` shared by every OpenFlow message.

use crate::OfError;

/// OpenFlow protocol version implemented by this crate (1.0).
pub const OFP_VERSION: u8 = 0x01;
/// Size of `ofp_header` on the wire.
pub const OFP_HEADER_LEN: usize = 8;

/// OpenFlow 1.0 message types (`ofp_type`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MsgType {
    Hello = 0,
    Error = 1,
    // Types 2–4, 7–9, 11, 12 and 15–19 are named so that a message of
    // one fails to decode as `OfError::Malformed`, not `UnknownType`:
    // none is implemented, because nothing in the loop sends one.
    EchoRequest = 2,
    EchoReply = 3,
    Vendor = 4,
    FeaturesRequest = 5,
    FeaturesReply = 6,
    GetConfigRequest = 7,
    GetConfigReply = 8,
    SetConfig = 9,
    PacketIn = 10,
    FlowRemoved = 11,
    PortStatus = 12,
    PacketOut = 13,
    FlowMod = 14,
    PortMod = 15,
    StatsRequest = 16,
    StatsReply = 17,
    BarrierRequest = 18,
    BarrierReply = 19,
}

impl MsgType {
    pub fn from_u8(v: u8) -> Result<MsgType, OfError> {
        use MsgType::*;
        Ok(match v {
            0 => Hello,
            1 => Error,
            2 => EchoRequest,
            3 => EchoReply,
            4 => Vendor,
            5 => FeaturesRequest,
            6 => FeaturesReply,
            7 => GetConfigRequest,
            8 => GetConfigReply,
            9 => SetConfig,
            10 => PacketIn,
            11 => FlowRemoved,
            12 => PortStatus,
            13 => PacketOut,
            14 => FlowMod,
            15 => PortMod,
            16 => StatsRequest,
            17 => StatsReply,
            18 => BarrierRequest,
            19 => BarrierReply,
            other => return Err(OfError::UnknownType(other)),
        })
    }
}

/// Decoded `ofp_header`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OfHeader {
    pub version: u8,
    pub msg_type: MsgType,
    /// Total message length including this header.
    pub length: u16,
    /// Transaction id; replies echo the request's xid. FlowVisor
    /// rewrites this field to demultiplex slices.
    pub xid: u32,
}

impl OfHeader {
    /// Parse the fixed header (does not require the body to be present).
    pub fn parse(data: &[u8]) -> Result<OfHeader, OfError> {
        if data.len() < OFP_HEADER_LEN {
            return Err(OfError::Truncated);
        }
        let version = data[0];
        if version != OFP_VERSION {
            return Err(OfError::BadVersion(version));
        }
        let msg_type = MsgType::from_u8(data[1])?;
        let length = u16::from_be_bytes([data[2], data[3]]);
        if (length as usize) < OFP_HEADER_LEN {
            return Err(OfError::Malformed("length shorter than header"));
        }
        let xid = u32::from_be_bytes([data[4], data[5], data[6], data[7]]);
        Ok(OfHeader {
            version,
            msg_type,
            length,
            xid,
        })
    }

    pub fn emit(&self) -> [u8; OFP_HEADER_LEN] {
        let mut b = [0u8; OFP_HEADER_LEN];
        b[0] = self.version;
        b[1] = self.msg_type as u8;
        b[2..4].copy_from_slice(&self.length.to_be_bytes());
        b[4..8].copy_from_slice(&self.xid.to_be_bytes());
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let h = OfHeader {
            version: OFP_VERSION,
            msg_type: MsgType::PacketIn,
            length: 42,
            xid: 0xDEAD_BEEF,
        };
        assert_eq!(OfHeader::parse(&h.emit()).unwrap(), h);
    }

    #[test]
    fn all_types_roundtrip() {
        for v in 0..=19u8 {
            let t = MsgType::from_u8(v).unwrap();
            assert_eq!(t as u8, v);
        }
        assert_eq!(MsgType::from_u8(20), Err(OfError::UnknownType(20)));
        assert_eq!(MsgType::from_u8(255), Err(OfError::UnknownType(255)));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut b = OfHeader {
            version: OFP_VERSION,
            msg_type: MsgType::Hello,
            length: 8,
            xid: 0,
        }
        .emit();
        b[0] = 0x04; // OF 1.3
        assert_eq!(OfHeader::parse(&b), Err(OfError::BadVersion(0x04)));
    }

    #[test]
    fn rejects_short_buffer_and_tiny_length() {
        assert_eq!(OfHeader::parse(&[1, 0, 0]), Err(OfError::Truncated));
        let mut b = OfHeader {
            version: OFP_VERSION,
            msg_type: MsgType::Hello,
            length: 8,
            xid: 0,
        }
        .emit();
        b[2] = 0;
        b[3] = 4; // length 4 < 8
        assert!(matches!(OfHeader::parse(&b), Err(OfError::Malformed(_))));
    }
}
