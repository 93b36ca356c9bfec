//! # rf-wire — wire formats for the emulated OpenFlow data plane
//!
//! Every packet that crosses a simulated link is a real, byte-exact
//! Ethernet frame. This crate provides parse/emit pairs for the
//! protocols the reproduction needs:
//!
//! * Ethernet II framing ([`ethernet`])
//! * ARP request/reply ([`arp`]) — hosts resolve their gateway, and the
//!   RouteFlow controller answers on behalf of the VM environment
//! * IPv4 with header checksum ([`ipv4`])
//! * UDP ([`udp`]) — carries the demo video stream and RIP
//! * ICMP echo ([`icmp`]) — the quickstart's connectivity check
//! * LLDP ([`lldp`]) — the topology-discovery probes at the heart of
//!   the paper's framework
//!
//! plus [`FrameBuf`], the stream reassembler the three control-channel
//! codecs (OpenFlow, RPC, RF-proto) frame their messages with.
//!
//! Parsing follows the smoltcp philosophy: explicit, allocation-light,
//! rejecting malformed input with a typed [`WireError`] instead of
//! panicking. Emission always produces canonical encodings (checksums
//! filled in), and every format has encode/decode round-trip tests plus
//! property-based fuzzing against arbitrary byte soup.

pub mod addr;
pub mod arp;
pub mod ethernet;
mod framebuf;
pub mod icmp;
pub mod ipv4;
pub mod lldp;
pub mod udp;

pub use addr::{Ipv4Cidr, MacAddr};
pub use arp::{ArpOp, ArpPacket};
pub use ethernet::{EtherType, EthernetFrame, MIN_FRAME_NO_FCS};
pub use framebuf::FrameBuf;
pub use icmp::IcmpPacket;
pub use ipv4::{IpProtocol, Ipv4Packet};
pub use lldp::{LldpPacket, LldpTlv};
pub use udp::UdpPacket;

use std::fmt;

/// Errors produced while parsing wire formats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than the fixed header requires.
    Truncated,
    /// A length field disagrees with the actual buffer size.
    BadLength,
    /// A checksum failed verification.
    BadChecksum,
    /// A field holds a value this implementation cannot interpret.
    Unsupported,
    /// Structurally malformed content (e.g. a TLV overrunning its frame).
    Malformed,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WireError::Truncated => "truncated packet",
            WireError::BadLength => "inconsistent length field",
            WireError::BadChecksum => "checksum mismatch",
            WireError::Unsupported => "unsupported field value",
            WireError::Malformed => "malformed packet",
        };
        f.write_str(s)
    }
}

impl std::error::Error for WireError {}

/// Internet checksum (RFC 1071) over `data`.
pub fn internet_checksum(data: &[u8]) -> u16 {
    fold_checksum(accumulate_checksum(data))
}

/// Internet checksum over the logical concatenation of `parts`. Every
/// part except the last must be even-length so the 16-bit word
/// boundaries line up with the concatenated buffer — ones-complement
/// addition is associative, so the result is bit-identical to
/// checksumming one contiguous copy (this is how the UDP pseudo-header
/// check avoids materializing that copy per datagram).
pub fn internet_checksum_parts(parts: &[&[u8]]) -> u16 {
    debug_assert!(parts
        .iter()
        .rev()
        .skip(1)
        .all(|p| p.len().is_multiple_of(2)));
    fold_checksum(parts.iter().map(|p| accumulate_checksum(p)).sum())
}

/// Unfolded 16-bit-word sum of `data` (RFC 1071's inner loop).
fn accumulate_checksum(data: &[u8]) -> u32 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    sum
}

/// Fold the carries and complement (RFC 1071's final step).
fn fold_checksum(mut sum: u32) -> u16 {
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_of_zeros_is_ffff() {
        assert_eq!(internet_checksum(&[0, 0, 0, 0]), 0xFFFF);
    }

    #[test]
    fn checksum_rfc1071_example() {
        // RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum ddf2, cksum !ddf2
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn checksum_odd_length_pads_with_zero() {
        assert_eq!(internet_checksum(&[0xFF]), !0xFF00);
    }

    #[test]
    fn checksum_verifies_to_zero_when_embedded() {
        // A buffer whose checksum field is filled must re-sum to 0.
        let mut data = vec![0x45, 0x00, 0x00, 0x14, 0x00, 0x00];
        let ck = internet_checksum(&data);
        data.extend_from_slice(&ck.to_be_bytes());
        let total: u32 = {
            let mut sum: u32 = 0;
            for c in data.chunks(2) {
                sum += u32::from(u16::from_be_bytes([c[0], *c.get(1).unwrap_or(&0)]));
            }
            while sum > 0xFFFF {
                sum = (sum & 0xFFFF) + (sum >> 16);
            }
            sum
        };
        assert_eq!(total, 0xFFFF);
    }
}
