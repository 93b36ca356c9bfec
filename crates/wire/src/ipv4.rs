//! IPv4 (RFC 791) header parsing and emission.
//!
//! Options are not supported (emitted IHL is always 5; received options
//! are skipped). Fragmentation is not implemented — the simulated MTU
//! is uniform and the video payload is sized below it, as in the
//! paper's emulated network.

use crate::ethernet::{self, ETHERNET_HEADER_LEN};
use crate::udp::{self, UDP_HEADER_LEN};
use crate::{internet_checksum, EtherType, MacAddr, WireError, MIN_FRAME_NO_FCS};
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
/// The TTL packets leave a host with.
pub const DEFAULT_TTL: u8 = 64;

/// The IPv4 header, read and verified where the packet lies. The body
/// is `packet[ihl..total_len]` — options are skipped and trailing bytes
/// (Ethernet padding) cut off; [`Ipv4Packet::parse_bytes`] is this
/// reader plus that one slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ipv4Header {
    pub dscp: u8,
    pub identification: u16,
    pub ttl: u8,
    pub protocol: IpProtocol,
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
    /// Header length in bytes, options included.
    pub ihl: usize,
    /// `total_length`: header and body, at most the buffer's length.
    pub total_len: usize,
}

impl Ipv4Header {
    /// Parse and verify the header checksum.
    pub fn parse(data: &[u8]) -> Result<Ipv4Header, WireError> {
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
        Ok(Ipv4Header {
            dscp: data[1] >> 2,
            identification: u16::from_be_bytes([data[4], data[5]]),
            ttl: data[8],
            protocol: IpProtocol(data[9]),
            src: Ipv4Addr::new(data[12], data[13], data[14], data[15]),
            dst: Ipv4Addr::new(data[16], data[17], data[18], data[19]),
            ihl,
            total_len,
        })
    }
}

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
            ttl: DEFAULT_TTL,
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
        let h = Ipv4Header::parse(data)?;
        Ok(Ipv4Packet {
            dscp: h.dscp,
            identification: h.identification,
            ttl: h.ttl,
            protocol: h.protocol,
            src: h.src,
            dst: h.dst,
            payload: data.slice(h.ihl..h.total_len),
        })
    }

    /// Serialize with a freshly computed header checksum.
    pub fn emit(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(IPV4_HEADER_LEN + self.payload.len());
        buf.put_slice(&header(
            self.dscp,
            self.identification,
            self.ttl,
            self.protocol,
            self.src,
            self.dst,
            self.payload.len(),
        ));
        buf.put_slice(&self.payload);
        buf.freeze()
    }
}

/// The 20-byte option-less header in front of `payload_len` bytes,
/// checksum filled in.
fn header(
    dscp: u8,
    identification: u16,
    ttl: u8,
    protocol: IpProtocol,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    payload_len: usize,
) -> [u8; IPV4_HEADER_LEN] {
    let total_len = IPV4_HEADER_LEN + payload_len;
    assert!(total_len <= u16::MAX as usize, "IPv4 packet too large");
    let mut h = [0u8; IPV4_HEADER_LEN];
    h[0] = 0x45; // version 4, IHL 5
    h[1] = dscp << 2;
    h[2..4].copy_from_slice(&(total_len as u16).to_be_bytes());
    h[4..6].copy_from_slice(&identification.to_be_bytes());
    // h[6..8]: flags + fragment offset, zero
    h[8] = ttl;
    h[9] = protocol.0;
    h[12..16].copy_from_slice(&src.octets());
    h[16..20].copy_from_slice(&dst.octets());
    let ck = internet_checksum(&h);
    h[10..12].copy_from_slice(&ck.to_be_bytes());
    h
}

/// What an [`ipv4_frame`] carries behind the IPv4 header.
#[derive(Clone, Copy, Debug)]
pub enum Ipv4Body<'a> {
    /// A UDP datagram around `payload`, the concatenation of its parts
    /// (a sender's header on its stack and a fill from a static, say —
    /// nothing is joined before it goes into the frame); the UDP header
    /// and pseudo-header checksum are written with it.
    Udp {
        src_port: u16,
        dst_port: u16,
        payload: &'a [&'a [u8]],
    },
    /// An already encoded packet of any other protocol.
    Raw(IpProtocol, &'a [u8]),
}

/// One Ethernet frame around one IPv4 packet from `src` to `dst` leaving
/// with `ttl`, built in a single buffer: the headers are written in
/// front of the body and the checksums computed where they lie, so each
/// byte of the body is copied once, from wherever its part lies. Byte
/// for byte what
/// `EthernetFrame::new(.., Ipv4Packet::new(.., body).emit()).emit()`
/// yields (`tests/properties.rs` holds the two against each other) —
/// that chain allocates and copies per layer, which is what a host
/// sending a stream of datagrams, or a router flooding an LSA out of
/// every interface, cannot afford. Returned unfrozen so a sender still
/// waiting on ARP can park it and patch the destination MAC (bytes
/// 0..6) in later.
pub fn ipv4_frame(
    dst_mac: MacAddr,
    src_mac: MacAddr,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    ttl: u8,
    body: Ipv4Body<'_>,
) -> BytesMut {
    let (protocol, body_len) = match body {
        Ipv4Body::Udp { payload, .. } => {
            (IpProtocol::UDP, UDP_HEADER_LEN + udp::payload_len(payload))
        }
        Ipv4Body::Raw(protocol, packet) => (protocol, packet.len()),
    };
    let len = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + body_len;
    let mut buf = BytesMut::with_capacity(len.max(MIN_FRAME_NO_FCS));
    ethernet::put_header(&mut buf, dst_mac, src_mac, EtherType::IPV4);
    buf.put_slice(&header(0, 0, ttl, protocol, src, dst, body_len));
    match body {
        Ipv4Body::Udp {
            src_port,
            dst_port,
            payload,
        } => udp::put_datagram(&mut buf, src, dst, src_port, dst_port, payload),
        Ipv4Body::Raw(_, packet) => buf.put_slice(packet),
    }
    ethernet::pad(&mut buf);
    buf
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
