//! OSPFv2 packet encodings: the 24-byte common header plus Hello,
//! Database Description, Link State Request, Update and Ack bodies.
//!
//! A packet is written once, into the buffer it leaves in
//! ([`PacketWriter`]), and read where it arrived ([`OspfView`]): the
//! daemon floods every LSA out of every adjacency and hears it back on
//! most of them, so neither direction may build per-packet `Vec`s the
//! receiver mostly throws away. The two are the format's only encoder
//! and decoder.

use super::lsa::{Lsa, LsaHeader, LsaKey, LsaView, LSA_HEADER_LEN};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use rf_wire::{internet_checksum, WireError};

pub const OSPF_HEADER_LEN: usize = 24;
const TYPE_HELLO: u8 = 1;
const TYPE_DATABASE_DESCRIPTION: u8 = 2;
const TYPE_LINK_STATE_REQUEST: u8 = 3;
const TYPE_LINK_STATE_UPDATE: u8 = 4;
const TYPE_LINK_STATE_ACK: u8 = 5;

/// A Hello body in front of its neighbor list.
const HELLO_LEN: usize = 20;
/// A Database Description body in front of its LSA headers.
const DBD_LEN: usize = 8;
/// One Link State Request entry.
const LSA_KEY_LEN: usize = 12;

/// The interface MTU every Database Description states.
pub const INTERFACE_MTU: u16 = 1500;

/// DBD flag bits.
pub const DBD_INIT: u8 = 0x04;
pub const DBD_MORE: u8 = 0x02;
pub const DBD_MASTER: u8 = 0x01;

/// One OSPF packet being written, header first, in the buffer it is
/// sent from: [`finish`](PacketWriter::finish) fills in the length and
/// the checksum where they lie. Every packet is from the backbone area.
pub struct PacketWriter {
    buf: BytesMut,
}

impl PacketWriter {
    fn new(packet_type: u8, router_id: u32, body_len: usize) -> PacketWriter {
        let mut buf = BytesMut::with_capacity(OSPF_HEADER_LEN + body_len);
        buf.put_u8(2); // version
        buf.put_u8(packet_type);
        buf.put_u16(0); // length, known at `finish`
        buf.put_u32(router_id);
        buf.put_u32(0); // area: backbone
        buf.put_u16(0); // checksum, likewise
        buf.put_u16(0); // autype: null
        buf.put_u64(0); // authentication (null)
        PacketWriter { buf }
    }

    /// A Hello from `router_id` on a link with `network_mask`, listing
    /// the `neighbors` heard there.
    pub fn hello(
        router_id: u32,
        network_mask: u32,
        hello_interval: u16,
        dead_interval: u32,
        neighbors: &[u32],
    ) -> PacketWriter {
        let body_len = HELLO_LEN + 4 * neighbors.len();
        let mut w = PacketWriter::new(TYPE_HELLO, router_id, body_len);
        w.buf.put_u32(network_mask);
        w.buf.put_u16(hello_interval);
        w.buf.put_u8(0x02); // options: E
        w.buf.put_u8(1); // router priority
        w.buf.put_u32(dead_interval);
        w.buf.put_u32(0); // DR (none on p2p)
        w.buf.put_u32(0); // BDR
        for n in neighbors {
            w.buf.put_u32(*n);
        }
        w
    }

    /// A Database Description from `router_id`, stating
    /// [`INTERFACE_MTU`], with room for `headers` LSA headers.
    pub fn dbd(router_id: u32, flags: u8, dd_seq: u32, headers: usize) -> PacketWriter {
        let body_len = DBD_LEN + headers * LSA_HEADER_LEN;
        let mut w = PacketWriter::new(TYPE_DATABASE_DESCRIPTION, router_id, body_len);
        w.buf.put_u16(INTERFACE_MTU);
        w.buf.put_u8(0x02); // options
        w.buf.put_u8(flags);
        w.buf.put_u32(dd_seq);
        w
    }

    /// A Link State Request from `router_id` for each of `keys`.
    pub fn request<'k>(
        router_id: u32,
        keys: impl ExactSizeIterator<Item = &'k LsaKey>,
    ) -> PacketWriter {
        let body_len = keys.len() * LSA_KEY_LEN;
        let mut w = PacketWriter::new(TYPE_LINK_STATE_REQUEST, router_id, body_len);
        for k in keys {
            w.buf.put_u32(u32::from(k.ls_type));
            w.buf.put_u32(k.ls_id);
            w.buf.put_u32(k.adv_router);
        }
        w
    }

    /// A Link State Update from `router_id` carrying each of `lsas` at
    /// the age given with it — database copies go out borrowed, with
    /// the age they have reached by now.
    pub fn update(router_id: u32, lsas: &[(&Lsa, u16)]) -> PacketWriter {
        let body_len = 4 + lsas.iter().map(|(l, _)| l.wire_len()).sum::<usize>();
        let mut w = PacketWriter::new(TYPE_LINK_STATE_UPDATE, router_id, body_len);
        w.buf.put_u32(lsas.len() as u32);
        for (lsa, age) in lsas {
            lsa.emit_aged(*age, &mut w.buf);
        }
        w
    }

    /// A Link State Ack from `router_id` with room for `headers` LSA
    /// headers.
    pub fn ack(router_id: u32, headers: usize) -> PacketWriter {
        PacketWriter::new(TYPE_LINK_STATE_ACK, router_id, headers * LSA_HEADER_LEN)
    }

    /// Append one LSA header (a DBD's or an ack's entry).
    pub fn put_header(&mut self, header: &LsaHeader) {
        header.emit_into(&mut self.buf);
    }

    pub fn finish(mut self) -> Bytes {
        let total = self.buf.len();
        assert!(total <= u16::MAX as usize, "OSPF packet too large");
        self.buf[2..4].copy_from_slice(&(total as u16).to_be_bytes());
        // The checksum excludes the 64-bit authentication field; with
        // null auth those bytes are zero, so summing the whole packet
        // is equivalent.
        let ck = internet_checksum(&self.buf);
        self.buf[12..14].copy_from_slice(&ck.to_be_bytes());
        self.buf.freeze()
    }
}

/// Is the written packet `wire` a Hello? Reads the type byte only.
pub fn is_hello(wire: &[u8]) -> bool {
    wire.get(1) == Some(&TYPE_HELLO)
}

/// Fixed-size records laid end to end in a received packet, decoded as
/// they are read; bytes short of a whole record at the end are not one.
pub type Records<'a, T> = std::iter::Map<std::slice::ChunksExact<'a, u8>, fn(&'a [u8]) -> T>;

fn records<T>(b: &[u8], len: usize, decode: fn(&[u8]) -> T) -> Records<'_, T> {
    b.chunks_exact(len).map(decode)
}

fn word(mut b: &[u8]) -> u32 {
    b.get_u32()
}

fn header(b: &[u8]) -> LsaHeader {
    LsaHeader::parse(b).expect("a whole header record")
}

/// A request entry whose type word [`OspfView::parse`] found in range.
fn key(mut b: &[u8]) -> LsaKey {
    LsaKey {
        ls_type: b.get_u32() as u8,
        ls_id: b.get_u32(),
        adv_router: b.get_u32(),
    }
}

/// The LSAs of a checked update. One whose own Fletcher sum fails is
/// dropped on its own — passed over here — and the rest still count.
/// [`OspfView::parse`] has checked each one's structure, so walking them
/// reads headers only.
#[derive(Clone)]
pub struct Lsas<'a> {
    rest: &'a [u8],
    left: usize,
}

impl Lsas<'_> {
    /// How many LSAs are still to come, the corrupt ones included.
    pub fn remaining(&self) -> usize {
        self.left
    }
}

impl<'a> Iterator for Lsas<'a> {
    type Item = LsaView<'a>;

    fn next(&mut self) -> Option<LsaView<'a>> {
        while self.left > 0 {
            self.left -= 1;
            let lsa = LsaView::checked(self.rest);
            self.rest = &self.rest[lsa.wire().len()..];
            if Lsa::checksum_ok(lsa.wire()) {
                return Some(lsa);
            }
        }
        None
    }
}

/// A received OSPF packet, checked as a whole and read where it lies.
/// Nothing in it is acted on before all of it has been checked: one
/// malformed LSA at the end of an update voids the update.
pub struct OspfView<'a> {
    pub router_id: u32,
    pub area_id: u32,
    pub body: OspfBodyView<'a>,
}

/// The five OSPFv2 packet types, each list an iterator over the
/// received bytes.
pub enum OspfBodyView<'a> {
    Hello {
        network_mask: u32,
        hello_interval: u16,
        dead_interval: u32,
        neighbors: Records<'a, u32>,
    },
    DatabaseDescription {
        mtu: u16,
        flags: u8,
        dd_seq: u32,
        headers: Records<'a, LsaHeader>,
    },
    LinkStateRequest {
        keys: Records<'a, LsaKey>,
    },
    LinkStateUpdate {
        lsas: Lsas<'a>,
    },
    LinkStateAck {
        headers: Records<'a, LsaHeader>,
    },
}

impl<'a> OspfView<'a> {
    pub fn parse(data: &'a [u8]) -> Result<OspfView<'a>, WireError> {
        if data.len() < OSPF_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if data[0] != 2 {
            return Err(WireError::Unsupported);
        }
        let ptype = data[1];
        let length = u16::from_be_bytes([data[2], data[3]]) as usize;
        if length < OSPF_HEADER_LEN || length > data.len() {
            return Err(WireError::BadLength);
        }
        if internet_checksum(&data[..length]) != 0 {
            return Err(WireError::BadChecksum);
        }
        let router_id = u32::from_be_bytes([data[4], data[5], data[6], data[7]]);
        let area_id = u32::from_be_bytes([data[8], data[9], data[10], data[11]]);
        let mut b = &data[OSPF_HEADER_LEN..length];
        let body = match ptype {
            TYPE_HELLO => {
                if b.len() < HELLO_LEN {
                    return Err(WireError::Truncated);
                }
                let network_mask = b.get_u32();
                let hello_interval = b.get_u16();
                b.get_u8(); // options
                b.get_u8(); // priority
                let dead_interval = b.get_u32();
                b.get_u32(); // DR
                b.get_u32(); // BDR
                OspfBodyView::Hello {
                    network_mask,
                    hello_interval,
                    dead_interval,
                    neighbors: records(b, 4, word),
                }
            }
            TYPE_DATABASE_DESCRIPTION => {
                if b.len() < DBD_LEN {
                    return Err(WireError::Truncated);
                }
                let mtu = b.get_u16();
                b.get_u8(); // options
                let flags = b.get_u8();
                let dd_seq = b.get_u32();
                OspfBodyView::DatabaseDescription {
                    mtu,
                    flags,
                    dd_seq,
                    headers: records(b, LSA_HEADER_LEN, header),
                }
            }
            TYPE_LINK_STATE_REQUEST => {
                if records(b, LSA_KEY_LEN, word).any(|ls_type| ls_type > 255) {
                    return Err(WireError::Malformed);
                }
                OspfBodyView::LinkStateRequest {
                    keys: records(b, LSA_KEY_LEN, key),
                }
            }
            TYPE_LINK_STATE_UPDATE => {
                if b.len() < 4 {
                    return Err(WireError::Truncated);
                }
                let left = b.get_u32() as usize;
                let mut rest = b;
                for _ in 0..left {
                    rest = &rest[LsaView::parse(rest)?.wire().len()..];
                }
                OspfBodyView::LinkStateUpdate {
                    lsas: Lsas { rest: b, left },
                }
            }
            TYPE_LINK_STATE_ACK => OspfBodyView::LinkStateAck {
                headers: records(b, LSA_HEADER_LEN, header),
            },
            _ => return Err(WireError::Unsupported),
        };
        Ok(OspfView {
            router_id,
            area_id,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ospf::lsa::{RouterLink, RouterLinkType, INITIAL_SEQ};

    /// Write `wire`'s packet again from what [`OspfView`] reads of it.
    fn rewrite(wire: &[u8]) -> Bytes {
        let view = OspfView::parse(wire).unwrap();
        assert_eq!(view.area_id, 0);
        let id = view.router_id;
        match view.body {
            OspfBodyView::Hello {
                network_mask,
                hello_interval,
                dead_interval,
                neighbors,
            } => {
                let neighbors: Vec<u32> = neighbors.collect();
                PacketWriter::hello(id, network_mask, hello_interval, dead_interval, &neighbors)
            }
            OspfBodyView::DatabaseDescription {
                mtu,
                flags,
                dd_seq,
                headers,
            } => {
                assert_eq!(mtu, INTERFACE_MTU);
                let mut w = PacketWriter::dbd(id, flags, dd_seq, headers.len());
                headers.for_each(|h| w.put_header(&h));
                w
            }
            OspfBodyView::LinkStateRequest { keys } => {
                PacketWriter::request(id, keys.collect::<Vec<_>>().iter())
            }
            OspfBodyView::LinkStateUpdate { lsas } => {
                let lsas: Vec<Lsa> = lsas.map(|l| l.to_lsa()).collect();
                let aged: Vec<(&Lsa, u16)> = lsas.iter().map(|l| (l, l.header.age)).collect();
                PacketWriter::update(id, &aged)
            }
            OspfBodyView::LinkStateAck { headers } => {
                let mut w = PacketWriter::ack(id, headers.len());
                headers.for_each(|h| w.put_header(&h));
                w
            }
        }
        .finish()
    }

    /// The reader loses nothing the writer wrote.
    fn roundtrip(w: PacketWriter) {
        let wire = w.finish();
        assert_eq!(rewrite(&wire), wire);
    }

    fn ack_of(router_id: u32, headers: &[LsaHeader]) -> PacketWriter {
        let mut w = PacketWriter::ack(router_id, headers.len());
        headers.iter().for_each(|h| w.put_header(h));
        w
    }

    fn dbd_of(router_id: u32, flags: u8, dd_seq: u32, headers: &[LsaHeader]) -> PacketWriter {
        let mut w = PacketWriter::dbd(router_id, flags, dd_seq, headers.len());
        headers.iter().for_each(|h| w.put_header(h));
        w
    }

    #[test]
    fn hello_roundtrip() {
        roundtrip(PacketWriter::hello(
            0x0A00_0001,
            0xFFFF_FFFC,
            10,
            40,
            &[0x0A00_0002, 0x0A00_0003],
        ));
    }

    #[test]
    fn empty_hello_roundtrip() {
        let wire = PacketWriter::hello(1, 0, 1, 4, &[]).finish();
        assert!(is_hello(&wire));
        assert_eq!(rewrite(&wire), wire);
    }

    #[test]
    fn dbd_roundtrip() {
        let lsa = Lsa::router(7, INITIAL_SEQ, 0, vec![]);
        let flags = DBD_INIT | DBD_MORE | DBD_MASTER;
        roundtrip(dbd_of(7, flags, 0x1234, &[lsa.header]));
    }

    #[test]
    fn lsr_lsu_ack_roundtrip() {
        let lsa = Lsa::router(
            9,
            INITIAL_SEQ + 5,
            17,
            vec![RouterLink {
                link_type: RouterLinkType::Stub,
                link_id: 0x0A000000,
                link_data: 0xFFFFFF00,
                metric: 1,
            }],
        );
        roundtrip(PacketWriter::request(9, [lsa.header.key()].iter()));
        roundtrip(PacketWriter::update(9, &[(&lsa, lsa.header.age)]));
        roundtrip(ack_of(9, &[lsa.header]));
    }

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    fn links(n: u32) -> Vec<RouterLink> {
        (0..n)
            .map(|i| RouterLink {
                link_type: if i % 2 == 0 {
                    RouterLinkType::PointToPoint
                } else {
                    RouterLinkType::Stub
                },
                link_id: 0x0A00_0100 + i,
                link_data: 0xAC1F_0001 + 4 * i,
                metric: 10 + i as u16,
            })
            .collect()
    }

    /// The encodings as the two-buffer encoder this one replaced wrote
    /// them: the wire format is pinned byte for byte.
    #[test]
    fn golden_encodings() {
        let a = Lsa::router(0x0A00_0001, INITIAL_SEQ, 0, links(2));
        let b = Lsa::router(0x0A00_0002, INITIAL_SEQ + 7, 300, links(0));
        let c = Lsa::router(0x0A00_0003, 5, 3599, links(3));
        let id = 0x0A00_0009;
        let golden: [(PacketWriter, &str); 7] = [
            (
                PacketWriter::hello(id, 0xFFFF_FFFC, 10, 40, &[0x0A00_0002, 0x0A00_0003]),
                concat!(
                    "020100340a00000900000000dd8c00000000000000000000fffffffc000a0201",
                    "0000002800000000000000000a0000020a000003",
                ),
            ),
            (
                dbd_of(id, DBD_INIT | DBD_MORE | DBD_MASTER, 0x1001, &[]),
                "020200200a00000900000000dbf00000000000000000000005dc020700001001",
            ),
            (
                dbd_of(id, DBD_MASTER, 0x1002, &[a.header, b.header, c.header]),
                concat!(
                    "0202005c0a00000900000000fbde0000000000000000000005dc020100001002",
                    "000002010a0000010a00000180000001481d0030012c02010a0000020a000002",
                    "8000000874cf00180e0f02010a0000030a00000300000005d110003c",
                ),
            ),
            (
                PacketWriter::request(id, [a.header.key(), c.header.key()].iter()),
                concat!(
                    "020300300a00000900000000cbb900000000000000000000000000010a000001",
                    "0a000001000000010a0000030a000003",
                ),
            ),
            (
                PacketWriter::update(id, &[(&a, a.header.age)]),
                concat!(
                    "0204004c0a00000900000000a2f6000000000000000000000000000100000201",
                    "0a0000010a00000180000001481d0030000000020a000100ac1f00010100000a",
                    "0a000101ac1f00050300000b",
                ),
            ),
            (
                PacketWriter::update(
                    id,
                    &[(&a, a.header.age), (&b, b.header.age), (&c, c.header.age)],
                ),
                concat!(
                    "020400a00a000009000000007682000000000000000000000000000300000201",
                    "0a0000010a00000180000001481d0030000000020a000100ac1f00010100000a",
                    "0a000101ac1f00050300000b012c02010a0000020a0000028000000874cf0018",
                    "000000000e0f02010a0000030a00000300000005d110003c000000030a000100",
                    "ac1f00010100000a0a000101ac1f00050300000b0a000102ac1f00090100000c",
                ),
            ),
            (
                ack_of(id, &[c.header, a.header]),
                concat!(
                    "020500400a000009000000001ff8000000000000000000000e0f02010a000003",
                    "0a00000300000005d110003c000002010a0000010a00000180000001481d0030",
                ),
            ),
        ];
        for (w, want) in golden {
            let wire = w.finish();
            assert_eq!(hex(&wire), want);
            assert_eq!(rewrite(&wire), wire, "{want}");
        }
    }

    fn summary_of(headers: usize) -> Bytes {
        let header = Lsa::router(7, INITIAL_SEQ, 0, vec![]).header;
        dbd_of(7, 0, 1, &vec![header; headers]).finish()
    }

    /// The length field is 16 bits: 3 275 headers are the most a
    /// one-packet summary holds.
    #[test]
    fn largest_packet_states_its_length() {
        let wire = summary_of(3275);
        assert_eq!(wire.len(), 65_532);
        assert_eq!(wire[2..4], [0xFF, 0xFC]);
        assert_eq!(rewrite(&wire), wire);
    }

    #[test]
    #[should_panic(expected = "OSPF packet too large")]
    fn oversized_packet_panics_instead_of_lying_about_its_length() {
        summary_of(3300);
    }

    #[test]
    fn checksum_enforced() {
        let wire = PacketWriter::hello(1, 0, 10, 40, &[]).finish();
        let mut bad = wire.to_vec();
        bad[4] ^= 0xFF;
        assert_eq!(OspfView::parse(&bad).err(), Some(WireError::BadChecksum));
    }

    #[test]
    fn corrupt_lsa_dropped_from_update_on_its_own() {
        let good = Lsa::router(9, INITIAL_SEQ, 0, vec![]);
        let bad = Lsa::router(8, INITIAL_SEQ, 0, vec![]);
        let mut wire = PacketWriter::update(9, &[(&bad, 0), (&good, 0)])
            .finish()
            .to_vec();
        // Damage the first LSA's sequence number, then make the packet
        // checksum right again: only the LSA's own Fletcher can tell.
        wire[OSPF_HEADER_LEN + 4 + 15] ^= 0x10;
        reseal(&mut wire);
        let Ok(OspfView {
            body: OspfBodyView::LinkStateUpdate { lsas },
            ..
        }) = OspfView::parse(&wire)
        else {
            panic!("an update");
        };
        assert_eq!(lsas.remaining(), 2);
        assert_eq!(lsas.map(|l| l.to_lsa()).collect::<Vec<_>>(), vec![good]);
    }

    /// Make the packet checksum right again after an edit.
    fn reseal(wire: &mut [u8]) {
        wire[12..14].fill(0);
        let ck = internet_checksum(wire);
        wire[12..14].copy_from_slice(&ck.to_be_bytes());
    }

    /// A router LSA whose link-state id is not its advertising router
    /// (RFC 2328 §12.4.1) is malformed, and like an unknown LS type it
    /// voids the whole update — even with its Fletcher sum made right.
    #[test]
    fn router_lsa_under_a_foreign_id_voids_the_update() {
        let good = Lsa::router(9, INITIAL_SEQ, 0, vec![]);
        let mut stray = Lsa::router(8, INITIAL_SEQ, 0, vec![]);
        stray.header.ls_id = 7;
        stray.finalize();
        let mut b = BytesMut::new();
        stray.emit_into(&mut b);
        assert_eq!(LsaView::parse(&b).err(), Some(WireError::Malformed));
        let wire = PacketWriter::update(9, &[(&good, 0), (&stray, 0)]).finish();
        assert_eq!(OspfView::parse(&wire).err(), Some(WireError::Malformed));
    }

    #[test]
    fn wrong_version_rejected() {
        let wire = PacketWriter::hello(1, 0, 10, 40, &[]).finish();
        let mut bad = wire.to_vec();
        bad[0] = 3;
        assert_eq!(OspfView::parse(&bad).err(), Some(WireError::Unsupported));
    }
}
