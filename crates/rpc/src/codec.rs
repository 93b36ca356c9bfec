//! RPC stream framing.
//!
//! Envelope layout (big-endian):
//!
//! ```text
//! +--------+--------+---------+--------+--------+----------+
//! | magic  | length | kind    | req_id | tag    | body ... |
//! | u16    | u32    | u8      | u64    | u8     |          |
//! +--------+--------+---------+--------+--------+----------+
//! ```
//!
//! `length` counts everything after itself. `kind` is 0 for requests,
//! 1 for acks (acks carry `ok` in `tag` and no body).

use crate::msg::{RpcAck, RpcRequest};
use crate::RpcError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use rf_wire::FrameBuf;

const MAGIC: u16 = 0x5246; // "RF"
const KIND_REQUEST: u8 = 0;
const KIND_ACK: u8 = 1;

/// A decoded RPC frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Envelope {
    Request { req_id: u64, request: RpcRequest },
    Ack(RpcAck),
}

/// Bytes before the body: magic, length, kind, req_id, tag.
const HEADER_LEN: usize = 2 + 4 + 1 + 8 + 1;

/// Encode an envelope to wire bytes: the header with a zero length,
/// the body straight after it, then the length patched — one buffer.
pub fn encode_envelope(env: &Envelope) -> Bytes {
    let (kind, req_id, tag, request) = match env {
        Envelope::Request { req_id, request } => {
            (KIND_REQUEST, *req_id, request.tag(), Some(request))
        }
        Envelope::Ack(ack) => (KIND_ACK, ack.req_id, u8::from(ack.ok), None),
    };
    let mut out = BytesMut::with_capacity(HEADER_LEN + request.map_or(0, RpcRequest::body_len));
    out.put_u16(MAGIC);
    out.put_u32(0); // length, patched below
    out.put_u8(kind);
    out.put_u64(req_id);
    out.put_u8(tag);
    if let Some(request) = request {
        request.emit_body(&mut out);
    }
    let length = (out.len() - 6) as u32;
    out[2..6].copy_from_slice(&length.to_be_bytes());
    out.freeze()
}

/// Decode one complete envelope from `data` (exactly one frame).
pub fn decode_envelope(mut data: &[u8]) -> Result<Envelope, RpcError> {
    if data.remaining() < 6 {
        return Err(RpcError::Truncated);
    }
    if data.get_u16() != MAGIC {
        return Err(RpcError::BadMagic);
    }
    let length = data.get_u32() as usize;
    if data.remaining() < length || length < 10 {
        return Err(RpcError::Truncated);
    }
    let kind = data.get_u8();
    let req_id = data.get_u64();
    let tag = data.get_u8();
    let body = &data[..length - 10];
    match kind {
        KIND_REQUEST => Ok(Envelope::Request {
            req_id,
            request: RpcRequest::parse_body(tag, body)?,
        }),
        KIND_ACK => Ok(Envelope::Ack(RpcAck {
            req_id,
            ok: tag != 0,
        })),
        other => Err(RpcError::BadTag(other)),
    }
}

/// Incremental frame reassembler for the RPC stream: [`FrameBuf`]
/// framed by the envelope's magic + `length`.
#[derive(Clone, Default)]
pub struct RpcFrameReader {
    frames: FrameBuf,
}

impl RpcFrameReader {
    pub fn new() -> RpcFrameReader {
        RpcFrameReader::default()
    }

    /// Feed a whole stream chunk without copying when drained.
    pub fn push_bytes(&mut self, data: Bytes) {
        self.frames.push_bytes(data);
    }

    /// Pop the next complete envelope's bytes if buffered, undecoded.
    /// A bad magic drops the buffer: there is no way to find the next
    /// frame boundary.
    pub fn next_frame(&mut self) -> Option<Result<Bytes, RpcError>> {
        self.frames
            .take_frame(|avail| {
                if avail.len() < 6 {
                    return Ok(None);
                }
                if u16::from_be_bytes([avail[0], avail[1]]) != MAGIC {
                    return Err(RpcError::BadMagic);
                }
                let length = u32::from_be_bytes([avail[2], avail[3], avail[4], avail[5]]) as usize;
                Ok(Some(6 + length))
            })
            .transpose()
    }

    /// Pop the next complete envelope if buffered, decoded.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Result<Envelope, RpcError>> {
        self.next_frame().map(|frame| decode_envelope(&frame?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_wire::Ipv4Cidr;
    use std::net::Ipv4Addr;

    fn sample() -> Envelope {
        Envelope::Request {
            req_id: 42,
            request: RpcRequest::LinkDetected {
                a_dpid: 1,
                a_port: 2,
                b_dpid: 3,
                b_port: 1,
                subnet: Ipv4Cidr::new(Ipv4Addr::new(172, 31, 0, 0), 30),
                ip_a: Ipv4Addr::new(172, 31, 0, 1),
                ip_b: Ipv4Addr::new(172, 31, 0, 2),
            },
        }
    }

    #[test]
    fn envelope_roundtrip() {
        let env = sample();
        assert_eq!(decode_envelope(&encode_envelope(&env)).unwrap(), env);
        let ack = Envelope::Ack(RpcAck {
            req_id: 42,
            ok: true,
        });
        assert_eq!(decode_envelope(&encode_envelope(&ack)).unwrap(), ack);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The wire bytes of the longest request, a short one and an ack,
    /// field by field as the module doc lays them out.
    #[test]
    fn envelope_golden_bytes() {
        assert_eq!(
            hex(&encode_envelope(&sample())),
            [
                "5246",
                "0000002b",
                "00",
                "000000000000002a",
                "03",
                "0000000000000001",
                "0002",
                "0000000000000003",
                "0001",
                "ac1f0000",
                "1e",
                "ac1f0001",
                "ac1f0002",
            ]
            .concat()
        );
        let ack = Envelope::Ack(RpcAck {
            req_id: 7,
            ok: false,
        });
        assert_eq!(
            hex(&encode_envelope(&ack)),
            ["5246", "0000000a", "01", "0000000000000007", "00"].concat()
        );
        let removed = Envelope::Request {
            req_id: 1,
            request: RpcRequest::SwitchRemoved { dpid: 0x0102 },
        };
        assert_eq!(
            hex(&encode_envelope(&removed)),
            [
                "5246",
                "00000012",
                "00",
                "0000000000000001",
                "02",
                "0000000000000102",
            ]
            .concat()
        );
    }

    #[test]
    fn bad_magic_poisons_buffer() {
        let mut r = RpcFrameReader::new();
        r.push_bytes(Bytes::from_static(&[0xAA; 20]));
        assert_eq!(r.next().unwrap(), Err(RpcError::BadMagic));
        assert!(r.next().is_none());
    }

    #[test]
    fn truncated_decode_rejected() {
        let env = encode_envelope(&sample());
        assert_eq!(
            decode_envelope(&env[..env.len() - 1]),
            Err(RpcError::Truncated)
        );
    }
}
