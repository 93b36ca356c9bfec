//! Link-state advertisements: the router LSA, header encoding and the
//! Fletcher checksum.

use bytes::{Buf, BufMut, BytesMut};
use rf_wire::WireError;

/// Identifies an LSA instance class (type, link-state id, advertising
/// router) — the LSDB key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LsaKey {
    pub ls_type: u8,
    pub ls_id: u32,
    pub adv_router: u32,
}

/// The 20-byte LSA header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LsaHeader {
    pub age: u16,
    pub options: u8,
    pub ls_type: u8,
    pub ls_id: u32,
    pub adv_router: u32,
    pub seq: i32,
    pub checksum: u16,
    pub length: u16,
}

pub const LSA_HEADER_LEN: usize = 20;
/// Initial sequence number (RFC 2328 §12.1.6).
pub const INITIAL_SEQ: i32 = -0x7FFF_FFFF; // 0x80000001

impl LsaHeader {
    pub fn key(&self) -> LsaKey {
        LsaKey {
            ls_type: self.ls_type,
            ls_id: self.ls_id,
            adv_router: self.adv_router,
        }
    }

    /// Is `self` a newer instance than `other` (same key assumed)?
    /// RFC 2328 §13.1, simplified: sequence, then checksum, then
    /// max-age preference, then younger age.
    pub fn is_newer_than(&self, other: &LsaHeader) -> bool {
        if self.seq != other.seq {
            return self.seq > other.seq;
        }
        if self.checksum != other.checksum {
            return self.checksum > other.checksum;
        }
        let self_max = self.age >= super::MAX_AGE;
        let other_max = other.age >= super::MAX_AGE;
        if self_max != other_max {
            return self_max;
        }
        self.age < other.age
    }

    pub fn parse(data: &[u8]) -> Result<LsaHeader, WireError> {
        if data.len() < LSA_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let mut b = data;
        Ok(LsaHeader {
            age: b.get_u16(),
            options: b.get_u8(),
            ls_type: b.get_u8(),
            ls_id: b.get_u32(),
            adv_router: b.get_u32(),
            seq: b.get_i32(),
            checksum: b.get_u16(),
            length: b.get_u16(),
        })
    }

    pub fn emit_into(&self, buf: &mut BytesMut) {
        buf.put_u16(self.age);
        buf.put_u8(self.options);
        buf.put_u8(self.ls_type);
        buf.put_u32(self.ls_id);
        buf.put_u32(self.adv_router);
        buf.put_i32(self.seq);
        buf.put_u16(self.checksum);
        buf.put_u16(self.length);
    }
}

/// Router-LSA link types (we use PointToPoint and Stub).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouterLinkType {
    /// link_id = neighbor router id, link_data = local interface addr.
    PointToPoint,
    /// link_id = network, link_data = mask.
    Stub,
}

impl RouterLinkType {
    fn to_u8(self) -> u8 {
        match self {
            RouterLinkType::PointToPoint => 1,
            RouterLinkType::Stub => 3,
        }
    }
    fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            1 => Ok(RouterLinkType::PointToPoint),
            3 => Ok(RouterLinkType::Stub),
            // Transit (2) and virtual (4) never occur on a pure-p2p
            // area; reject loudly rather than mis-route.
            _ => Err(WireError::Unsupported),
        }
    }
}

/// One link inside a router LSA.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouterLink {
    pub link_type: RouterLinkType,
    pub link_id: u32,
    pub link_data: u32,
    pub metric: u16,
}

/// Router-LSA body.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct RouterLsa {
    pub links: Vec<RouterLink>,
}

/// LSA bodies we implement (router LSAs only: a pure point-to-point
/// area 0 needs nothing else).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LsaBody {
    Router(RouterLsa),
}

/// A complete LSA.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lsa {
    pub header: LsaHeader,
    pub body: LsaBody,
}

impl Lsa {
    /// Build a router LSA with a correct length and checksum.
    pub fn router(adv_router: u32, seq: i32, age: u16, links: Vec<RouterLink>) -> Lsa {
        let mut lsa = Lsa {
            header: LsaHeader {
                age,
                options: 0x02, // E-bit
                ls_type: 1,
                ls_id: adv_router,
                adv_router,
                seq,
                checksum: 0,
                length: 0,
            },
            body: LsaBody::Router(RouterLsa { links }),
        };
        lsa.finalize();
        lsa
    }

    /// Recompute `length` and `checksum`.
    pub fn finalize(&mut self) {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        self.emit_into(&mut buf);
        self.header.length = buf.len() as u16;
        // Patch the length field (offset 18..20) and zero the checksum
        // field (offset 16..18) before computing.
        buf[18..20].copy_from_slice(&self.header.length.to_be_bytes());
        buf[16] = 0;
        buf[17] = 0;
        // The checksum covers the LSA minus the age field (first two
        // bytes); within that region the checksum sits at offset 14.
        self.header.checksum = fletcher_checksum(&buf[2..], 14);
    }

    /// Serialize (header fields must already be finalized).
    pub fn emit_into(&self, buf: &mut BytesMut) {
        self.emit_aged(self.header.age, buf);
    }

    /// Serialize with `age` (capped at MaxAge) in place of the stored
    /// one: what a database copy that has been ageing since it was
    /// installed goes out as. The age is outside the checksum.
    pub fn emit_aged(&self, age: u16, buf: &mut BytesMut) {
        LsaHeader {
            age: age.min(super::MAX_AGE),
            ..self.header
        }
        .emit_into(buf);
        match &self.body {
            LsaBody::Router(r) => {
                buf.put_u8(0); // flags
                buf.put_u8(0);
                buf.put_u16(r.links.len() as u16);
                for l in &r.links {
                    buf.put_u32(l.link_id);
                    buf.put_u32(l.link_data);
                    buf.put_u8(l.link_type.to_u8());
                    buf.put_u8(0); // #TOS
                    buf.put_u16(l.metric);
                }
            }
        }
    }

    pub fn wire_len(&self) -> usize {
        match &self.body {
            LsaBody::Router(r) => LSA_HEADER_LEN + 4 + ROUTER_LINK_LEN * r.links.len(),
        }
    }

    /// Parse one LSA; returns `(lsa, bytes_consumed)`.
    pub fn parse(data: &[u8]) -> Result<(Lsa, usize), WireError> {
        let view = LsaView::parse(data)?;
        Ok((view.to_lsa(), view.wire.len()))
    }

    /// Verify the Fletcher checksum embedded in one LSA as received:
    /// `wire` is exactly the LSA's bytes (what [`Lsa::parse`] consumed),
    /// so a byte the owned struct does not keep cannot hide corruption.
    pub fn checksum_ok(wire: &[u8]) -> bool {
        // The age field (first two bytes) is outside the checksum.
        wire.len() >= LSA_HEADER_LEN && fletcher_sums(&wire[2..]) == (0, 0)
    }
}

/// One link record of a router LSA.
const ROUTER_LINK_LEN: usize = 12;

fn parse_link(mut b: &[u8]) -> Result<RouterLink, WireError> {
    let link_id = b.get_u32();
    let link_data = b.get_u32();
    let link_type = RouterLinkType::from_u8(b.get_u8())?;
    b.get_u8(); // #TOS
    Ok(RouterLink {
        link_type,
        link_id,
        link_data,
        metric: b.get_u16(),
    })
}

/// One router LSA where it lies in a received packet: its structure is
/// checked and its header read, its links are not — a receiver decides
/// from the header whether it wants them ([`LsaView::to_lsa`]).
#[derive(Clone, Copy, Debug)]
pub struct LsaView<'a> {
    pub header: LsaHeader,
    wire: &'a [u8],
}

impl<'a> LsaView<'a> {
    /// Check the LSA at the front of `data`, which may run on past it.
    pub fn parse(data: &'a [u8]) -> Result<LsaView<'a>, WireError> {
        let header = LsaHeader::parse(data)?;
        let length = header.length as usize;
        if length < LSA_HEADER_LEN || data.len() < length {
            return Err(WireError::Truncated);
        }
        if header.ls_type != 1 {
            return Err(WireError::Unsupported);
        }
        // A router LSA's link-state id is its advertising router (RFC
        // 2328 §12.4.1): one LSA per router, which SPF relies on.
        if header.ls_id != header.adv_router {
            return Err(WireError::Malformed);
        }
        let mut b = &data[LSA_HEADER_LEN..length];
        if b.len() < 4 {
            return Err(WireError::Truncated);
        }
        b.get_u16(); // flags + pad
        let n = b.get_u16() as usize;
        if b.len() < n * ROUTER_LINK_LEN {
            return Err(WireError::Truncated);
        }
        let view = LsaView {
            header,
            wire: &data[..length],
        };
        // A link record can only fail on its type byte.
        for link in view.link_records() {
            RouterLinkType::from_u8(link[8])?;
        }
        Ok(view)
    }

    /// The LSA at the front of `data`, which [`LsaView::parse`] has
    /// already accepted: only its header is read again.
    pub(crate) fn checked(data: &'a [u8]) -> LsaView<'a> {
        let header = LsaHeader::parse(data).expect("checked by LsaView::parse");
        LsaView {
            header,
            wire: &data[..header.length as usize],
        }
    }

    /// Exactly this LSA's bytes.
    pub fn wire(&self) -> &'a [u8] {
        self.wire
    }

    fn link_records(&self) -> std::slice::ChunksExact<'a, u8> {
        let n = u16::from_be_bytes([self.wire[22], self.wire[23]]) as usize;
        self.wire[LSA_HEADER_LEN + 4..][..n * ROUTER_LINK_LEN].chunks_exact(ROUTER_LINK_LEN)
    }

    /// The owned LSA: this is where its links are decoded.
    pub fn to_lsa(&self) -> Lsa {
        let links = self
            .link_records()
            .map(|link| parse_link(link).expect("checked by LsaView::parse"))
            .collect();
        Lsa {
            header: self.header,
            body: LsaBody::Router(RouterLsa { links }),
        }
    }
}

/// The two running Fletcher sums of `data`, each reduced mod 255.
fn fletcher_sums(data: &[u8]) -> (u32, u32) {
    // The modulo is deferred to the end of each block. Entering a block
    // with both sums below 255, `c1` peaks at 254 + 254·n + 255·n(n+1)/2,
    // which for n = 4096 is ≈ 2.14e9 even on all-0xFF input: inside u32.
    //
    // Eight bytes are taken per step: after bytes b0..b7 the serial sums
    // are c0 + Σ b_i and c1 + 8·c0 + Σ (8 − i)·b_i, so each step ends on
    // exactly the values the byte-serial loop has there, and never
    // exceeds them in between. The step reads its bytes as one
    // little-endian word and splits them into even and odd bytes, one per
    // 16-bit lane; multiplying a lane word by a constant gathers a sum of
    // its lanes, each times its weight, into the top lane (at most
    // 255 · 20 there and below it, so no lane carries into the next).
    const BLOCK: usize = 4096;
    const LANES: u64 = 0x00FF_00FF_00FF_00FF;
    const ONES: u64 = 0x0001_0001_0001_0001;
    const EVEN_WEIGHTS: u64 = 2 | 4 << 16 | 6 << 32 | 8 << 48; // b6, b4, b2, b0
    const ODD_WEIGHTS: u64 = 1 | 3 << 16 | 5 << 32 | 7 << 48; // b7, b5, b3, b1
    let top = |lanes: u64, weights: u64| (lanes.wrapping_mul(weights) >> 48) as u32;
    let (mut c0, mut c1) = (0u32, 0u32);
    for block in data.chunks(BLOCK) {
        let mut steps = block.chunks_exact(8);
        for step in &mut steps {
            let word = u64::from_le_bytes(step.try_into().expect("an 8-byte step"));
            let (even, odd) = (word & LANES, word >> 8 & LANES);
            c1 += 8 * c0 + top(even, EVEN_WEIGHTS) + top(odd, ODD_WEIGHTS);
            c0 += top(even + odd, ONES);
        }
        for &b in steps.remainder() {
            c0 += u32::from(b);
            c1 += c0;
        }
        c0 %= 255;
        c1 %= 255;
    }
    (c0, c1)
}

/// Fletcher checksum per RFC 905 Annex B as used by OSPF LSAs: computed
/// over the LSA *excluding* the age field, with the checksum field
/// zeroed. `ck_off` is the checksum field offset within `data`.
pub fn fletcher_checksum(data: &[u8], ck_off: usize) -> u16 {
    let (c0, c1) = fletcher_sums(data);
    let (c0, c1) = (i64::from(c0), i64::from(c1));
    let len = data.len() as i64;
    let mut x = ((len - ck_off as i64 - 1) * c0 - c1) % 255;
    if x <= 0 {
        x += 255;
    }
    let mut y = 510 - c0 - x;
    if y > 255 {
        y -= 255;
    }
    ((x as u16) << 8) | y as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Lsa {
        Lsa::router(
            0x0A00_0001,
            INITIAL_SEQ,
            0,
            vec![
                RouterLink {
                    link_type: RouterLinkType::PointToPoint,
                    link_id: 0x0A00_0002,
                    link_data: u32::from(std::net::Ipv4Addr::new(172, 31, 0, 1)),
                    metric: 10,
                },
                RouterLink {
                    link_type: RouterLinkType::Stub,
                    link_id: u32::from(std::net::Ipv4Addr::new(172, 31, 0, 0)),
                    link_data: 0xFFFF_FFFC,
                    metric: 10,
                },
            ],
        )
    }

    #[test]
    fn roundtrip_with_valid_checksum() {
        let lsa = sample();
        let mut buf = BytesMut::new();
        lsa.emit_into(&mut buf);
        assert!(Lsa::checksum_ok(&buf), "fresh LSA must checksum");
        assert_eq!(buf.len(), lsa.wire_len());
        assert_eq!(lsa.header.length as usize, buf.len());
        let (parsed, used) = Lsa::parse(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(parsed, lsa);
    }

    #[test]
    fn corruption_breaks_checksum() {
        let lsa = sample();
        let mut buf = BytesMut::new();
        lsa.emit_into(&mut buf);
        buf[25] ^= 0x01; // a body byte
        assert!(!Lsa::checksum_ok(&buf));
        // The flags byte, which parsing does not keep, is covered too.
        buf[25] ^= 0x01;
        buf[20] ^= 0x01;
        assert!(Lsa::parse(&buf).is_ok());
        assert!(!Lsa::checksum_ok(&buf));
    }

    #[test]
    fn age_excluded_from_checksum() {
        let mut buf = BytesMut::new();
        sample().emit_aged(300, &mut buf);
        assert_eq!(buf[..2], [0x01, 0x2C]);
        assert!(Lsa::checksum_ok(&buf));
        // Past MaxAge an LSA is not sent any older.
        buf.clear();
        sample().emit_aged(u16::MAX, &mut buf);
        assert_eq!(buf[..2], super::super::MAX_AGE.to_be_bytes());
    }

    #[test]
    fn newer_comparison() {
        let a = sample();
        let mut b = a.clone();
        b.header.seq += 1;
        assert!(b.header.is_newer_than(&a.header));
        assert!(!a.header.is_newer_than(&b.header));
        // Equal seq: younger age wins.
        let aged = |age| LsaHeader { age, ..a.header };
        assert!(aged(5).is_newer_than(&aged(500)));
        // MaxAge outranks.
        assert!(aged(super::super::MAX_AGE).is_newer_than(&aged(5)));
    }

    #[test]
    fn header_roundtrip() {
        let h = sample().header;
        let mut b = BytesMut::new();
        h.emit_into(&mut b);
        assert_eq!(LsaHeader::parse(&b).unwrap(), h);
    }

    #[test]
    fn rejects_unknown_body_type() {
        let mut buf = BytesMut::new();
        sample().emit_into(&mut buf);
        buf[3] = 5; // AS-external LSA
        assert_eq!(Lsa::parse(&buf).unwrap_err(), WireError::Unsupported);
    }
}
