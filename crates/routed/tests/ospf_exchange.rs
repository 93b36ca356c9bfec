//! One scripted exchange between three daemons, pinned byte for byte.
//!
//! `fixtures/ospf_exchange.txt` was recorded from the decoder that
//! built an owned `OspfPacket` (every `Vec<Lsa>`, `Vec<LsaHeader>`,
//! `Vec<u32>`) before the daemon looked at it. The daemon now walks the
//! received bytes in place and `OspfPacket::parse` sits on the same
//! walker, so the reference for "same verdicts" cannot come from this
//! tree: it is the recorded transcript — every packet fed in, every
//! `OspfEvent::Transmit` that came out, in order.
//!
//! Routers B — A — C in a line come up Down → Full; then A is handed
//! one update that carries every verdict `handle_packet` can reach (new,
//! duplicate, older, our own LSA with a higher sequence number, MaxAge,
//! broken Fletcher sum) and one well-checksummed update whose last LSA
//! is cut short, which must change nothing at all.

use bytes::Bytes;
use rf_routed::config::OspfConfig;
use rf_routed::ospf::daemon::{OspfDaemon, OspfEvent};
use rf_routed::ospf::lsa::{Lsa, RouterLink, RouterLinkType, INITIAL_SEQ};
use rf_routed::ospf::packet::{OspfPacket, OspfPacketBody, DBD_MASTER};
use rf_routed::ospf::MAX_AGE;
use rf_sim::Time;
use rf_wire::{internet_checksum, Ipv4Cidr};
use std::collections::VecDeque;
use std::fmt::Write;
use std::net::Ipv4Addr;
use std::time::Duration;

const FIXTURE: &str = include_str!("fixtures/ospf_exchange.txt");

const A: usize = 0;
const B: usize = 1;
const C: usize = 2;
const NAMES: [char; 3] = ['A', 'B', 'C'];

fn router_id(i: usize) -> u32 {
    0x0A00_0001 + i as u32
}

fn addr(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(172, 31, 0, last)
}

/// `(router, iface)` → `(peer router, peer iface, our address there)`.
fn wire(router: usize, iface: u16) -> (usize, u16, Ipv4Addr) {
    match (router, iface) {
        (A, 1) => (B, 1, addr(1)),
        (B, 1) => (A, 1, addr(2)),
        (A, 2) => (C, 1, addr(5)),
        (C, 1) => (A, 2, addr(6)),
        _ => panic!("no wire at {router}/{iface}"),
    }
}

/// The address packets from `router` (B or C) arrive from.
fn wire_addr(router: usize) -> Ipv4Addr {
    wire(router, 1).2
}

fn daemon(i: usize) -> OspfDaemon {
    let cfg = OspfConfig {
        router_id: Ipv4Addr::from(router_id(i)),
        networks: vec![("172.31.0.0/16".parse().unwrap(), 0)],
        hello_interval: 1,
        dead_interval: 4,
        ..OspfConfig::default()
    };
    let ifaces: Vec<(u16, Ipv4Cidr)> = match i {
        A => vec![(1, wire(A, 1).2), (2, wire(A, 2).2)],
        _ => vec![(1, wire(i, 1).2)],
    }
    .into_iter()
    .map(|(idx, a)| (idx, Ipv4Cidr::new(a, 30)))
    .collect();
    OspfDaemon::from_config(&cfg, &ifaces)
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

struct Exchange {
    daemons: [OspfDaemon; 3],
    now: Time,
    /// (destination router, its iface, source address, OSPF bytes)
    pipe: VecDeque<(usize, u16, Ipv4Addr, Bytes)>,
    log: String,
}

impl Exchange {
    /// Log what `from` transmits and put it on its wires.
    fn sent(&mut self, from: usize, events: Vec<OspfEvent>) {
        for ev in events {
            if let OspfEvent::Transmit { iface, packet, .. } = ev {
                writeln!(self.log, "{}{iface} > {}", NAMES[from], hex(&packet)).unwrap();
                let (peer, peer_iface, src) = wire(from, iface);
                self.pipe.push_back((peer, peer_iface, src, packet));
            }
        }
    }

    /// Hand `packet` to `to` as if it came in on `iface`, logging it.
    fn inject(&mut self, to: usize, iface: u16, packet: &[u8]) {
        writeln!(self.log, "{}{iface} < {}", NAMES[to], hex(packet)).unwrap();
        let src = wire(wire(to, iface).0, wire(to, iface).1).2;
        let events = self.daemons[to].handle_packet(iface, src, packet, self.now);
        self.sent(to, events);
    }

    /// Deliver and tick until `until`, 1 ms per hop.
    fn run_until(&mut self, until: Time) {
        while self.now < until {
            if self.pipe.is_empty() {
                let next = self.daemons.iter().filter_map(OspfDaemon::poll_at).min();
                self.now = next.map_or(until, |t| t.max(self.now).min(until));
            } else {
                self.now += Duration::from_millis(1);
                for (to, iface, src, packet) in std::mem::take(&mut self.pipe) {
                    let events = self.daemons[to].handle_packet(iface, src, &packet, self.now);
                    self.sent(to, events);
                }
            }
            for i in 0..3 {
                if self.daemons[i].poll_at().is_some_and(|t| t <= self.now) {
                    let events = self.daemons[i].tick(self.now);
                    self.sent(i, events);
                }
            }
        }
    }

    fn log_state(&mut self, what: &str) {
        writeln!(self.log, "# {what} at {}", self.now).unwrap();
        for (i, d) in self.daemons.iter().enumerate() {
            writeln!(
                self.log,
                "# {} lsdb {} neighbors {:?} requests {:?} spf {}",
                NAMES[i],
                d.lsdb_len(),
                d.neighbors(),
                d.pending_requests(),
                d.spf_runs,
            )
            .unwrap();
        }
    }
}

fn links(n: u32) -> Vec<RouterLink> {
    (0..n)
        .map(|i| RouterLink {
            link_type: RouterLinkType::Stub,
            link_id: 0x0A63_0000 + (i << 8),
            link_data: 0xFFFF_FF00,
            metric: 10,
        })
        .collect()
}

fn update_from_b(lsas: Vec<Lsa>) -> Vec<u8> {
    OspfPacket::new(router_id(B), OspfPacketBody::LinkStateUpdate { lsas })
        .emit()
        .to_vec()
}

/// Set the length field to what is there and make the packet checksum
/// right again, so only a deeper check can object.
fn reseal(wire: &mut [u8]) {
    let len = wire.len() as u16;
    wire[2..4].copy_from_slice(&len.to_be_bytes());
    wire[12..14].fill(0);
    let ck = internet_checksum(wire);
    wire[12..14].copy_from_slice(&ck.to_be_bytes());
}

/// B — A — C, started cold and run to Full at a quiet instant.
fn converged() -> Exchange {
    let mut x = Exchange {
        daemons: [daemon(A), daemon(B), daemon(C)],
        now: Time::ZERO,
        pipe: VecDeque::new(),
        log: String::new(),
    };
    for i in 0..3 {
        let events = x.daemons[i].start(x.now);
        x.sent(i, events);
    }
    x.run_until(Time::from_millis(3500));
    assert!(x.daemons.iter().all(OspfDaemon::all_adjacencies_full));
    assert!(x.pipe.is_empty(), "pick an instant between hello rounds");
    x
}

fn transcript() -> String {
    let mut x = converged();
    x.log_state("converged");

    // Every verdict in one update, in an order where each LSA's fate
    // depends on the ones before it having been handled.
    let fresh = Lsa::router(0x63, INITIAL_SEQ + 9, 10, links(2));
    let older = Lsa::router(0x63, INITIAL_SEQ + 8, 10, links(1));
    let ours = Lsa::router(router_id(A), INITIAL_SEQ + 100, 0, links(1));
    let dying = Lsa::router(0x63, INITIAL_SEQ + 10, MAX_AGE, links(2));
    let broken = Lsa::router(0x64, INITIAL_SEQ, 0, links(3));
    let broken_at =
        24 + 4 + 2 * fresh.wire_len() + older.wire_len() + ours.wire_len() + dying.wire_len() + 30; // a link byte of `broken`
    let mut verdicts = update_from_b(vec![
        fresh.clone(),
        fresh.clone(),
        older,
        ours,
        dying,
        broken,
    ]);
    verdicts[broken_at] ^= 0x04;
    reseal(&mut verdicts);
    x.inject(A, 1, &verdicts);
    x.log_state("after the update of every verdict");

    // A good LSA followed by one cut short: nothing may be acted on.
    let good = Lsa::router(0x65, INITIAL_SEQ, 0, links(1));
    let cut = Lsa::router(0x66, INITIAL_SEQ, 0, links(2));
    let mut truncated = update_from_b(vec![good, cut]);
    truncated.truncate(truncated.len() - 5);
    reseal(&mut truncated);
    x.inject(A, 1, &truncated);
    x.log_state("after the truncated update");

    // What A sent reaches B and C; acks, SPF and a hello round follow.
    x.run_until(Time::from_millis(5200));
    x.log_state("settled");
    x.log
}

#[test]
fn scripted_exchange_reproduces_the_recorded_transcript() {
    let got = transcript();
    for (n, (g, w)) in got.lines().zip(FIXTURE.lines()).enumerate() {
        assert_eq!(g, w, "transcript line {}", n + 1);
    }
    assert_eq!(got.lines().count(), FIXTURE.lines().count());
}

/// The checks in front of the daemon hold against damage anywhere: cut
/// a valid packet of each type short at every length, or flip any one
/// of its bits, and A answers nothing and is, field for field, the
/// daemon it was.
#[test]
fn truncations_and_bit_flips_change_nothing() {
    let x = converged();
    let a = &x.daemons[A];
    let before = format!("{a:?}");
    let handled = |wire: &[u8]| {
        let mut a = a.clone();
        let events = a.handle_packet(1, wire_addr(B), wire, x.now);
        (events.len(), format!("{a:?}"))
    };
    let lsa = Lsa::router(0x63, INITIAL_SEQ, 0, links(2));
    let bodies = [
        OspfPacketBody::Hello {
            network_mask: 0xFFFF_FFFC,
            hello_interval: 1,
            dead_interval: 4,
            neighbors: vec![router_id(A)],
        },
        OspfPacketBody::DatabaseDescription {
            mtu: 1500,
            flags: DBD_MASTER,
            dd_seq: 0x1002,
            headers: vec![lsa.header],
        },
        OspfPacketBody::LinkStateRequest {
            keys: vec![Lsa::router(router_id(A), INITIAL_SEQ, 0, vec![])
                .header
                .key()],
        },
        OspfPacketBody::LinkStateUpdate {
            lsas: vec![lsa.clone()],
        },
        OspfPacketBody::LinkStateAck {
            headers: vec![lsa.header],
        },
    ];
    for body in bodies {
        let valid = OspfPacket::new(router_id(B), body).emit().to_vec();
        // Intact, it is heard — if only as a sign of life from B.
        assert_ne!(handled(&valid).1, before, "{}", hex(&valid));
        for cut in 0..valid.len() {
            assert_eq!(handled(&valid[..cut]), (0, before.clone()), "cut at {cut}");
        }
        let mut bad = valid.clone();
        for bit in 0..valid.len() * 8 {
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                handled(&bad),
                (0, before.clone()),
                "bit {bit} of {}",
                hex(&valid)
            );
            bad[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
