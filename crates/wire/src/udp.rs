//! UDP (RFC 768) with the IPv4 pseudo-header checksum.
//!
//! Carries the demo's video stream (server → remote client) and RIPv2
//! in the virtual environment.

use crate::{internet_checksum_parts, IpProtocol, WireError};
use bytes::{BufMut, Bytes, BytesMut};
use std::net::Ipv4Addr;

pub const UDP_HEADER_LEN: usize = 8;

/// The UDP header, read and verified where the datagram lies. The
/// payload is `datagram[UDP_HEADER_LEN..length]`;
/// [`UdpPacket::parse_bytes`] is this reader plus that one slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UdpHeader {
    pub src_port: u16,
    pub dst_port: u16,
    /// The `length` field: header and payload, at most the buffer's
    /// length.
    pub length: usize,
}

impl UdpHeader {
    /// Parse, verifying the checksum against the pseudo-header built
    /// from `src`/`dst` (pass the enclosing IPv4 addresses). A zero
    /// checksum means "not computed" and is accepted, per RFC 768.
    pub fn parse(data: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<UdpHeader, WireError> {
        if data.len() < UDP_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let length = u16::from_be_bytes([data[4], data[5]]) as usize;
        if length < UDP_HEADER_LEN || length > data.len() {
            return Err(WireError::BadLength);
        }
        let wire_ck = u16::from_be_bytes([data[6], data[7]]);
        if wire_ck != 0 {
            let pseudo = pseudo_header(src, dst, length as u16);
            if internet_checksum_parts(&[&pseudo, &data[..length]]) != 0 {
                return Err(WireError::BadChecksum);
            }
        }
        Ok(UdpHeader {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            length,
        })
    }
}

/// A parsed (owned) UDP datagram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UdpPacket {
    pub src_port: u16,
    pub dst_port: u16,
    pub payload: Bytes,
}

impl UdpPacket {
    pub fn new(src_port: u16, dst_port: u16, payload: Bytes) -> Self {
        UdpPacket {
            src_port,
            dst_port,
            payload,
        }
    }

    /// Parse and verify as [`UdpHeader::parse`] does. The payload is a
    /// zero-copy slice of `data`'s storage.
    pub fn parse_bytes(data: &Bytes, src: Ipv4Addr, dst: Ipv4Addr) -> Result<UdpPacket, WireError> {
        let h = UdpHeader::parse(data, src, dst)?;
        Ok(UdpPacket {
            src_port: h.src_port,
            dst_port: h.dst_port,
            payload: data.slice(UDP_HEADER_LEN..h.length),
        })
    }

    /// Serialize with the pseudo-header checksum computed from
    /// `src`/`dst`.
    pub fn emit(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Bytes {
        let mut buf = BytesMut::with_capacity(UDP_HEADER_LEN + self.payload.len());
        put_datagram(
            &mut buf,
            src,
            dst,
            self.src_port,
            self.dst_port,
            &[&self.payload],
        );
        buf.freeze()
    }
}

/// The pseudo-header words, on the stack: the datagram itself is
/// checksummed where it lies (no concatenated copy per packet).
fn pseudo_header(src: Ipv4Addr, dst: Ipv4Addr, length: u16) -> [u8; 12] {
    let mut pseudo = [0u8; 12];
    pseudo[0..4].copy_from_slice(&src.octets());
    pseudo[4..8].copy_from_slice(&dst.octets());
    pseudo[9] = IpProtocol::UDP.0;
    pseudo[10..12].copy_from_slice(&length.to_be_bytes());
    pseudo
}

/// Append a datagram — header, then the parts of `payload` in order —
/// to `buf` and fill in its checksum over the bytes just written.
pub(crate) fn put_datagram(
    buf: &mut BytesMut,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[&[u8]],
) {
    let length = UDP_HEADER_LEN + payload_len(payload);
    assert!(length <= u16::MAX as usize, "UDP datagram too large");
    let at = buf.len();
    buf.put_u16(src_port);
    buf.put_u16(dst_port);
    buf.put_u16(length as u16);
    buf.put_u16(0);
    for part in payload {
        buf.put_slice(part);
    }
    let pseudo = pseudo_header(src, dst, length as u16);
    let mut ck = internet_checksum_parts(&[&pseudo, &buf[at..]]);
    if ck == 0 {
        ck = 0xFFFF; // 0 is reserved for "no checksum"
    }
    buf[at + 6..at + 8].copy_from_slice(&ck.to_be_bytes());
}

/// The length of a payload given as parts.
pub(crate) fn payload_len(payload: &[&[u8]]) -> usize {
    payload.iter().map(|part| part.len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 2);

    #[test]
    fn roundtrip() {
        let p = UdpPacket::new(5004, 5005, Bytes::from_static(b"video-frame"));
        let wire = p.emit(SRC, DST);
        assert_eq!(UdpPacket::parse_bytes(&wire, SRC, DST).unwrap(), p);
    }

    #[test]
    fn checksum_catches_payload_corruption() {
        let p = UdpPacket::new(1, 2, Bytes::from_static(b"payload"));
        let mut wire = p.emit(SRC, DST).to_vec();
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        assert_eq!(
            UdpPacket::parse_bytes(&Bytes::from(wire), SRC, DST),
            Err(WireError::BadChecksum)
        );
    }

    #[test]
    fn checksum_binds_addresses() {
        let p = UdpPacket::new(1, 2, Bytes::from_static(b"x"));
        let wire = p.emit(SRC, DST);
        assert_eq!(
            UdpPacket::parse_bytes(&wire, SRC, Ipv4Addr::new(10, 0, 0, 9)),
            Err(WireError::BadChecksum)
        );
    }

    #[test]
    fn zero_checksum_accepted() {
        let p = UdpPacket::new(7, 8, Bytes::from_static(b"nochk"));
        let mut wire = p.emit(SRC, DST).to_vec();
        wire[6] = 0;
        wire[7] = 0;
        assert_eq!(
            UdpPacket::parse_bytes(&Bytes::from(wire), SRC, DST).unwrap(),
            p
        );
    }

    #[test]
    fn trailing_padding_ignored() {
        let p = UdpPacket::new(68, 67, Bytes::from_static(b"dhcp?"));
        let mut wire = p.emit(SRC, DST).to_vec();
        wire.extend_from_slice(&[0u8; 11]);
        assert_eq!(
            UdpPacket::parse_bytes(&Bytes::from(wire), SRC, DST).unwrap(),
            p
        );
    }

    #[test]
    fn truncated_and_bad_length() {
        assert_eq!(
            UdpPacket::parse_bytes(&Bytes::from_static(&[0u8; 7]), SRC, DST),
            Err(WireError::Truncated)
        );
        let p = UdpPacket::new(1, 2, Bytes::from_static(b"abc"));
        let mut wire = p.emit(SRC, DST).to_vec();
        wire[4] = 0xFF; // absurd length
        wire[5] = 0xFF;
        assert_eq!(
            UdpPacket::parse_bytes(&Bytes::from(wire), SRC, DST),
            Err(WireError::BadLength)
        );
    }

    #[test]
    fn empty_payload_roundtrips() {
        let p = UdpPacket::new(9999, 1, Bytes::new());
        let wire = p.emit(SRC, DST);
        assert_eq!(wire.len(), UDP_HEADER_LEN);
        assert_eq!(UdpPacket::parse_bytes(&wire, SRC, DST).unwrap(), p);
    }
}
