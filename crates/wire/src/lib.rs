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
//! Each of the four headers a switch classifies on is described once,
//! by a reader over `&[u8]` that makes every check — [`EthernetHeader`],
//! [`Ipv4Header`], [`UdpHeader`], [`IcmpHeader`] — and the owning
//! `parse_bytes` beside it ([`EthernetFrame`], [`Ipv4Packet`],
//! [`UdpPacket`], [`IcmpPacket`]) is that reader plus one `Bytes::slice`
//! for the body. The simulated network reads through the readers: a
//! switch building its match key touches no reference count, and a host
//! stack or a VM reads every header of a received frame where it lies
//! and slices the frame once, for the payload it hands on; a switch's
//! actions rewrite MACs only and read nothing past Ethernet. The owned
//! types are the reference the readers and [`ipv4_frame`] are tested
//! against.
//!
//! Parsing follows the smoltcp philosophy: explicit, allocation-light,
//! rejecting malformed input with a typed [`WireError`] instead of
//! panicking. Emission always produces canonical encodings (checksums
//! filled in), and every format has encode/decode round-trip tests plus
//! property-based fuzzing against arbitrary byte soup.

#![forbid(unsafe_code)]

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
pub use ethernet::{EtherType, EthernetFrame, EthernetHeader, MIN_FRAME_NO_FCS};
pub use framebuf::FrameBuf;
pub use icmp::{IcmpHeader, IcmpPacket};
pub use ipv4::{ipv4_frame, IpProtocol, Ipv4Body, Ipv4Header, Ipv4Packet};
pub use lldp::LldpPacket;
pub use udp::{UdpHeader, UdpPacket};

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
    // Each part's sum is below 2^35, so adding them cannot overflow.
    fold_checksum(parts.iter().map(|p| accumulate_checksum(p)).sum())
}

/// Unfolded ones-complement sum of `data`, in *native* byte order and
/// below 2^35 (RFC 1071's inner loop, a word at a time).
///
/// The sum of 16-bit words with end-around carry does not depend on the
/// byte order the words are read in, only the final result has to be
/// swapped (RFC 1071 §2(B)); and because 2^16 ≡ 1 (mod 0xFFFF) it does
/// not depend on how many 16-bit words are added at once either. So the
/// body of the buffer goes eight bytes at a time into two independent
/// accumulators (one dependent add chain would be the bottleneck — a
/// datagram is summed at its source, at every hop and at its sink), and
/// [`fold_checksum`] swaps once.
fn accumulate_checksum(data: &[u8]) -> u64 {
    let end_around = |acc: u64, word: u64| {
        let (sum, carry) = acc.overflowing_add(word);
        // A carry leaves `sum` at most 2^64 - 2: the +1 cannot wrap.
        sum + u64::from(carry)
    };
    let (mut a, mut b) = (0u64, 0u64);
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let (lo, hi) = block.split_at(8);
        a = end_around(a, u64::from_ne_bytes(lo.try_into().expect("8 of 16")));
        b = end_around(b, u64::from_ne_bytes(hi.try_into().expect("8 of 16")));
    }
    let halves = |acc: u64| (acc & 0xFFFF_FFFF) + (acc >> 32);
    let mut sum = halves(a) + halves(b);
    let mut words = blocks.remainder().chunks_exact(2);
    for w in &mut words {
        sum += u64::from(u16::from_ne_bytes([w[0], w[1]]));
    }
    if let [last] = words.remainder() {
        // An odd trailing byte is the high-order (first in memory) half
        // of a zero-padded word.
        sum += u64::from(u16::from_ne_bytes([*last, 0]));
    }
    sum
}

/// Fold the carries, put the native-order sum into network order and
/// complement (RFC 1071's final step). Folding never turns a non-zero
/// sum into zero, so of the two ones-complement zeros the result is
/// 0xFFFF (sum 0) only for all-zero input, as with a 16-bit loop.
fn fold_checksum(mut sum: u64) -> u16 {
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !u16::from_be(sum as u16)
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
