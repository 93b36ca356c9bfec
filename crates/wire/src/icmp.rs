//! ICMP echo (RFC 792) — request/reply only.
//!
//! Used by the quickstart example and the integration tests as the
//! end-to-end "is the network configured yet?" probe, mirroring how an
//! operator would ping across the freshly configured RouteFlow network.

use crate::{internet_checksum, WireError};
use bytes::{BufMut, Bytes, BytesMut};

/// ICMP message kinds we implement. Anything else parses to `Other`
/// and is passed through opaquely (routers must not choke on it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IcmpPacket {
    EchoRequest {
        ident: u16,
        seq: u16,
        payload: Bytes,
    },
    EchoReply {
        ident: u16,
        seq: u16,
        payload: Bytes,
    },
    /// Unparsed-but-valid ICMP of another type.
    Other { ty: u8, code: u8, rest: Bytes },
}

pub const ICMP_HEADER_LEN: usize = 8;

/// What every ICMP message starts with, read and verified where the
/// message lies; [`IcmpPacket::parse_bytes`] is this reader plus one
/// slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IcmpHeader {
    pub ty: u8,
    pub code: u8,
}

impl IcmpHeader {
    /// Parse and verify the checksum, which covers all of `data`: pass
    /// the IPv4 body cut at `total_length`.
    pub fn parse(data: &[u8]) -> Result<IcmpHeader, WireError> {
        if data.len() < ICMP_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if internet_checksum(data) != 0 {
            return Err(WireError::BadChecksum);
        }
        Ok(IcmpHeader {
            ty: data[0],
            code: data[1],
        })
    }
}

impl IcmpPacket {
    pub fn echo_request(ident: u16, seq: u16, payload: Bytes) -> Self {
        IcmpPacket::EchoRequest {
            ident,
            seq,
            payload,
        }
    }

    /// Construct the reply for a request (panics if not a request).
    pub fn reply_to(req: &IcmpPacket) -> IcmpPacket {
        match req {
            IcmpPacket::EchoRequest {
                ident,
                seq,
                payload,
            } => IcmpPacket::EchoReply {
                ident: *ident,
                seq: *seq,
                payload: payload.clone(),
            },
            _ => panic!("reply_to called on non-request"),
        }
    }

    /// Parse and verify as [`IcmpHeader::parse`] does; the payload is
    /// a zero-copy slice of `data`'s storage.
    pub fn parse_bytes(data: &Bytes) -> Result<IcmpPacket, WireError> {
        let IcmpHeader { ty, code } = IcmpHeader::parse(data)?;
        let ident = u16::from_be_bytes([data[4], data[5]]);
        let seq = u16::from_be_bytes([data[6], data[7]]);
        Ok(match (ty, code) {
            (8, 0) => IcmpPacket::EchoRequest {
                ident,
                seq,
                payload: data.slice(ICMP_HEADER_LEN..),
            },
            (0, 0) => IcmpPacket::EchoReply {
                ident,
                seq,
                payload: data.slice(ICMP_HEADER_LEN..),
            },
            _ => IcmpPacket::Other {
                ty,
                code,
                rest: data.slice(4..),
            },
        })
    }

    /// The message's length on the wire.
    fn wire_len(&self) -> usize {
        match self {
            IcmpPacket::EchoRequest { payload, .. } | IcmpPacket::EchoReply { payload, .. } => {
                ICMP_HEADER_LEN + payload.len()
            }
            IcmpPacket::Other { rest, .. } => 4 + rest.len(),
        }
    }

    /// Write the message, checksum included, into one buffer of its
    /// length.
    pub fn emit(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        match self {
            IcmpPacket::EchoRequest {
                ident,
                seq,
                payload,
            } => {
                buf.put_u8(8);
                buf.put_u8(0);
                buf.put_u16(0);
                buf.put_u16(*ident);
                buf.put_u16(*seq);
                buf.put_slice(payload);
            }
            IcmpPacket::EchoReply {
                ident,
                seq,
                payload,
            } => {
                buf.put_u8(0);
                buf.put_u8(0);
                buf.put_u16(0);
                buf.put_u16(*ident);
                buf.put_u16(*seq);
                buf.put_slice(payload);
            }
            IcmpPacket::Other { ty, code, rest } => {
                buf.put_u8(*ty);
                buf.put_u8(*code);
                buf.put_u16(0);
                buf.put_slice(rest);
            }
        }
        let ck = internet_checksum(&buf);
        buf[2..4].copy_from_slice(&ck.to_be_bytes());
        buf.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_request() {
        let p = IcmpPacket::echo_request(0x1234, 7, Bytes::from_static(b"abcdefgh"));
        assert_eq!(IcmpPacket::parse_bytes(&p.emit()).unwrap(), p);
    }

    #[test]
    fn reply_mirrors_request() {
        let req = IcmpPacket::echo_request(42, 3, Bytes::from_static(b"data"));
        let rep = IcmpPacket::reply_to(&req);
        match IcmpPacket::parse_bytes(&rep.emit()).unwrap() {
            IcmpPacket::EchoReply {
                ident,
                seq,
                payload,
            } => {
                assert_eq!(ident, 42);
                assert_eq!(seq, 3);
                assert_eq!(&payload[..], b"data");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn checksum_enforced() {
        let p = IcmpPacket::echo_request(1, 1, Bytes::new());
        let mut wire = p.emit().to_vec();
        wire[4] ^= 0xFF;
        assert_eq!(
            IcmpPacket::parse_bytes(&Bytes::from(wire)),
            Err(WireError::BadChecksum)
        );
    }

    #[test]
    fn other_types_pass_through() {
        let p = IcmpPacket::Other {
            ty: 11, // time exceeded
            code: 0,
            rest: Bytes::from_static(&[0, 0, 0, 0, 1, 2, 3]),
        };
        let parsed = IcmpPacket::parse_bytes(&p.emit()).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            IcmpPacket::parse_bytes(&Bytes::from_static(&[8, 0, 0])),
            Err(WireError::Truncated)
        );
    }
}
