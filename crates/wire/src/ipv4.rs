//! IPv4 (RFC 791) header parsing and emission.
//!
//! Options are not supported (emitted IHL is always 5; received options
//! are skipped). Fragmentation is not implemented — the simulated MTU
//! is uniform and the video payload is sized below it, as in the
//! paper's emulated network.

use crate::{internet_checksum, WireError};
use bytes::{BufMut, Bytes, BytesMut};
use std::net::Ipv4Addr;

/// IP protocol numbers used by the reproduction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct IpProtocol(pub u8);

impl IpProtocol {
    pub const ICMP: IpProtocol = IpProtocol(1);
    pub const TCP: IpProtocol = IpProtocol(6);
    pub const UDP: IpProtocol = IpProtocol(17);
    /// OSPF runs directly over IP (protocol 89).
    pub const OSPF: IpProtocol = IpProtocol(89);
}

pub const IPV4_HEADER_LEN: usize = 20;

/// A parsed (owned) IPv4 packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ipv4Packet {
    pub dscp: u8,
    pub identification: u16,
    pub ttl: u8,
    pub protocol: IpProtocol,
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
    pub payload: Bytes,
}

impl Ipv4Packet {
    /// Standard constructor with TTL 64.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol, payload: Bytes) -> Self {
        Ipv4Packet {
            dscp: 0,
            identification: 0,
            ttl: 64,
            protocol,
            src,
            dst,
            payload,
        }
    }

    /// Parse and verify the header checksum. Trailing bytes beyond
    /// `total_length` (Ethernet padding) are discarded; the payload is
    /// a zero-copy slice of `data`'s storage.
    pub fn parse_bytes(data: &Bytes) -> Result<Ipv4Packet, WireError> {
        if data.len() < IPV4_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let version = data[0] >> 4;
        if version != 4 {
            return Err(WireError::Unsupported);
        }
        let ihl = (data[0] & 0x0F) as usize * 4;
        if ihl < IPV4_HEADER_LEN || data.len() < ihl {
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

    /// Serialize with a freshly computed header checksum.
    pub fn emit(&self) -> Bytes {
        let total_len = IPV4_HEADER_LEN + self.payload.len();
        assert!(total_len <= u16::MAX as usize, "IPv4 packet too large");
        let mut buf = BytesMut::with_capacity(total_len);
        buf.put_u8(0x45); // version 4, IHL 5
        buf.put_u8(self.dscp << 2);
        buf.put_u16(total_len as u16);
        buf.put_u16(self.identification);
        buf.put_u16(0); // flags + fragment offset
        buf.put_u8(self.ttl);
        buf.put_u8(self.protocol.0);
        buf.put_u16(0); // checksum placeholder
        buf.put_slice(&self.src.octets());
        buf.put_slice(&self.dst.octets());
        let ck = internet_checksum(&buf[..IPV4_HEADER_LEN]);
        buf[10..12].copy_from_slice(&ck.to_be_bytes());
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Copy with TTL decremented (router forwarding). Returns `None`
    /// when the TTL would reach zero and the packet must be dropped.
    pub fn forwarded(&self) -> Option<Ipv4Packet> {
        if self.ttl <= 1 {
            return None;
        }
        let mut p = self.clone();
        p.ttl -= 1;
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Packet {
        Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProtocol::UDP,
            Bytes::from(vec![1, 2, 3, 4, 5]),
        )
    }

    #[test]
    fn roundtrip() {
        let p = sample();
        let parsed = Ipv4Packet::parse_bytes(&p.emit()).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn checksum_is_valid_on_wire() {
        let wire = sample().emit();
        assert_eq!(internet_checksum(&wire[..IPV4_HEADER_LEN]), 0);
    }

    #[test]
    fn corrupted_header_rejected() {
        let mut wire = sample().emit().to_vec();
        wire[8] ^= 0xFF; // mangle TTL
        assert_eq!(
            Ipv4Packet::parse_bytes(&Bytes::from(wire)),
            Err(WireError::BadChecksum)
        );
    }

    #[test]
    fn trailing_padding_discarded() {
        let mut wire = sample().emit().to_vec();
        wire.extend_from_slice(&[0u8; 20]);
        let parsed = Ipv4Packet::parse_bytes(&Bytes::from(wire)).unwrap();
        assert_eq!(parsed.payload.len(), 5);
    }

    #[test]
    fn rejects_wrong_version() {
        let mut wire = sample().emit().to_vec();
        wire[0] = 0x65; // version 6
                        // Checksum now wrong too, but version is checked first.
        assert_eq!(
            Ipv4Packet::parse_bytes(&Bytes::from(wire)),
            Err(WireError::Unsupported)
        );
    }

    #[test]
    fn rejects_fragments() {
        let p = sample();
        let mut wire = p.emit().to_vec();
        wire[6] = 0x20; // MF flag
                        // Re-fix checksum.
        wire[10] = 0;
        wire[11] = 0;
        let ck = internet_checksum(&wire[..IPV4_HEADER_LEN]);
        wire[10..12].copy_from_slice(&ck.to_be_bytes());
        assert_eq!(
            Ipv4Packet::parse_bytes(&Bytes::from(wire)),
            Err(WireError::Unsupported)
        );
    }

    #[test]
    fn forwarded_decrements_ttl() {
        let mut p = sample();
        p.ttl = 2;
        let f = p.forwarded().unwrap();
        assert_eq!(f.ttl, 1);
        assert!(f.forwarded().is_none());
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            Ipv4Packet::parse_bytes(&Bytes::from_static(&[0x45u8; 10])),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn bad_total_length_rejected() {
        let p = sample();
        let mut wire = p.emit().to_vec();
        // Claim a total length larger than the buffer.
        wire[2] = 0xFF;
        wire[3] = 0xFF;
        wire[10] = 0;
        wire[11] = 0;
        let ck = internet_checksum(&wire[..IPV4_HEADER_LEN]);
        wire[10..12].copy_from_slice(&ck.to_be_bytes());
        assert_eq!(
            Ipv4Packet::parse_bytes(&Bytes::from(wire)),
            Err(WireError::BadLength)
        );
    }
}
