//! Ethernet II framing.
//!
//! The data plane of the reproduction carries only Ethernet II frames
//! (no 802.3 LLC, no 802.1Q VLAN tags — matching what the paper's
//! Open vSwitch setup forwards and what the OF 1.0 match we implement
//! can classify).

use crate::addr::MacAddr;
use crate::WireError;
use bytes::{BufMut, Bytes, BytesMut};

/// Well-known EtherType values used in the reproduction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EtherType(pub u16);

impl EtherType {
    pub const IPV4: EtherType = EtherType(0x0800);
    pub const ARP: EtherType = EtherType(0x0806);
    pub const LLDP: EtherType = EtherType(0x88CC);
}

/// Minimum frame length so the wire reaches the classic 64-byte
/// minimum (we do not model the 4-byte FCS, so 60 bytes);
/// [`EthernetFrame::emit`] zero-pads every frame up to this.
pub const MIN_FRAME_NO_FCS: usize = 60;
/// Ethernet II header: dst(6) + src(6) + ethertype(2).
pub const ETHERNET_HEADER_LEN: usize = 14;

/// The Ethernet II header, read where the frame lies. What follows it
/// is `frame[ETHERNET_HEADER_LEN..]`; [`EthernetFrame::parse_bytes`] is
/// this reader plus that one slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EthernetHeader {
    pub dst: MacAddr,
    pub src: MacAddr,
    pub ethertype: EtherType,
}

impl EthernetHeader {
    pub fn parse(frame: &[u8]) -> Result<EthernetHeader, WireError> {
        if frame.len() < ETHERNET_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        Ok(EthernetHeader {
            dst: MacAddr::from_bytes(&frame[0..6])?,
            src: MacAddr::from_bytes(&frame[6..12])?,
            ethertype: EtherType(u16::from_be_bytes([frame[12], frame[13]])),
        })
    }
}

/// A parsed (owned) Ethernet II frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EthernetFrame {
    pub dst: MacAddr,
    pub src: MacAddr,
    pub ethertype: EtherType,
    pub payload: Bytes,
}

impl EthernetFrame {
    /// Parse a frame. Padding added to reach the minimum frame size is
    /// *kept* in `payload`; upper layers carry their own length fields
    /// and must tolerate trailing padding, as on real networks. The
    /// payload is a zero-copy slice of `data`'s storage — every
    /// simulated hop of every frame parses here.
    pub fn parse_bytes(data: &Bytes) -> Result<EthernetFrame, WireError> {
        let h = EthernetHeader::parse(data)?;
        Ok(EthernetFrame {
            dst: h.dst,
            src: h.src,
            ethertype: h.ethertype,
            payload: data.slice(ETHERNET_HEADER_LEN..),
        })
    }

    /// Serialize to wire bytes, padding to the 60-byte minimum.
    pub fn emit(&self) -> Bytes {
        let len = ETHERNET_HEADER_LEN + self.payload.len();
        let mut buf = BytesMut::with_capacity(len.max(MIN_FRAME_NO_FCS));
        put_header(&mut buf, self.dst, self.src, self.ethertype);
        buf.put_slice(&self.payload);
        pad(&mut buf);
        buf.freeze()
    }

    /// Convenience constructor.
    pub fn new(dst: MacAddr, src: MacAddr, ethertype: EtherType, payload: Bytes) -> Self {
        EthernetFrame {
            dst,
            src,
            ethertype,
            payload,
        }
    }
}

/// Append the 14-byte Ethernet II header.
pub(crate) fn put_header(buf: &mut BytesMut, dst: MacAddr, src: MacAddr, ethertype: EtherType) {
    buf.put_slice(dst.as_bytes());
    buf.put_slice(src.as_bytes());
    buf.put_u16(ethertype.0);
}

/// Zero-pad a finished frame up to the 60-byte minimum.
pub(crate) fn pad(buf: &mut BytesMut) {
    if buf.len() < MIN_FRAME_NO_FCS {
        buf.resize(MIN_FRAME_NO_FCS, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EthernetFrame {
        EthernetFrame::new(
            MacAddr([1, 2, 3, 4, 5, 6]),
            MacAddr([7, 8, 9, 10, 11, 12]),
            EtherType::IPV4,
            Bytes::from(vec![0xAB; 100]),
        )
    }

    #[test]
    fn roundtrip() {
        let f = sample();
        let wire = f.emit();
        let parsed = EthernetFrame::parse_bytes(&wire).unwrap();
        assert_eq!(parsed, f);
    }

    #[test]
    fn short_payload_is_padded_to_minimum() {
        let f = EthernetFrame::new(
            MacAddr::BROADCAST,
            MacAddr::ZERO,
            EtherType::ARP,
            Bytes::from_static(b"hi"),
        );
        let wire = f.emit();
        assert_eq!(wire.len(), 60);
        let parsed = EthernetFrame::parse_bytes(&wire).unwrap();
        // Padding is retained in the payload.
        assert_eq!(parsed.payload.len(), 60 - ETHERNET_HEADER_LEN);
        assert_eq!(&parsed.payload[..2], b"hi");
    }

    #[test]
    fn truncated_header_rejected() {
        assert_eq!(
            EthernetFrame::parse_bytes(&Bytes::from_static(&[0u8; 13])),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn ethertype_constants() {
        assert_eq!(EtherType::IPV4.0, 0x0800);
        assert_eq!(EtherType::ARP.0, 0x0806);
        assert_eq!(EtherType::LLDP.0, 0x88CC);
    }

    #[test]
    fn header_fields_at_right_offsets() {
        let wire = sample().emit();
        assert_eq!(&wire[0..6], &[1, 2, 3, 4, 5, 6]);
        assert_eq!(&wire[6..12], &[7, 8, 9, 10, 11, 12]);
        assert_eq!(&wire[12..14], &[0x08, 0x00]);
    }
}
