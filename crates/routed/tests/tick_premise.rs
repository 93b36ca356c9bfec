//! `poll_at` is the whole schedule: `tick(t)` for any `t` before
//! `poll_at()` does nothing. The embedding VM keeps one timer armed at
//! `poll_at()` and ignores every wake-up that is not that timer, so a
//! branch of `tick` that can fire before `poll_at()` would silently
//! wait for the next armed instant. Here small networks of daemons
//! form adjacencies, flood, retransmit what a lossy link dropped, lose
//! a router, get it back and hold SPF runs — with slow hellos also
//! refreshing their own LSAs and ageing out the lost router's — and
//! after every call into a daemon a clone of it is ticked at an
//! arbitrary instant before its `poll_at()` and at the last nanosecond
//! before it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rf_routed::config::OspfConfig;
use rf_routed::ospf::daemon::{OspfDaemon, OspfEvent};
use rf_routed::ospf::NeighborState;
use rf_sim::Time;
use rf_wire::Ipv4Cidr;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::net::Ipv4Addr;
use std::time::Duration;

const SPF_DELAY: Duration = Duration::from_millis(200);
/// Long enough that the restarted router's adjacencies re-form inside
/// the hold that follows the last SPF run before it returns.
const SPF_HOLD: Duration = Duration::from_millis(5000);

/// In flight: (deliver at, sequence, router, iface, source, packet).
type InFlight = (Time, u64, usize, u16, Ipv4Addr, Vec<u8>);

/// What the run went through, so a case that skipped a phase fails.
#[derive(Default)]
struct Coverage {
    probes: usize,
    dropped: usize,
    full_adjacencies: usize,
    flooded: u64,
    deaths: usize,
    aged_out: usize,
    held_spf_runs: usize,
}

struct Net {
    configs: Vec<(OspfConfig, Vec<(u16, Ipv4Cidr)>)>,
    daemons: Vec<OspfDaemon>,
    alive: Vec<bool>,
    /// `wires[router][iface] = (peer router, peer iface)`.
    wires: Vec<BTreeMap<u16, (usize, u16)>>,
    addrs: Vec<BTreeMap<u16, Ipv4Addr>>,
    queue: BinaryHeap<Reverse<InFlight>>,
    seq: u64,
    now: Time,
    latency: Duration,
    /// Share of link-state requests, updates and acks lost in flight,
    /// in percent: what is lost is retransmitted, and a retransmission
    /// is due between two hellos. Hellos and DBDs are never lost: a
    /// lost final DBD strands the slave in Exchange.
    loss_pct: u32,
    /// When each router last ran SPF.
    last_spf: Vec<Option<Time>>,
    rng: StdRng,
    seen: Coverage,
}

impl Net {
    /// Routers `0..n` saying hello every `hello` seconds; link k is
    /// `172.31.4k/30`, `.1` on its first end.
    fn build(
        n: usize,
        hello: u16,
        links: &[(usize, usize)],
        latency: Duration,
        loss_pct: u32,
        seed: u64,
    ) -> Net {
        let mut ifaces: Vec<Vec<(u16, Ipv4Cidr)>> = vec![Vec::new(); n];
        let mut wires = vec![BTreeMap::new(); n];
        for (k, &(a, b)) in links.iter().enumerate() {
            let base = 0xAC1F_0000u32 + 4 * k as u32;
            let (pa, pb) = (ifaces[a].len() as u16 + 1, ifaces[b].len() as u16 + 1);
            ifaces[a].push((pa, Ipv4Cidr::new(Ipv4Addr::from(base + 1), 30)));
            ifaces[b].push((pb, Ipv4Cidr::new(Ipv4Addr::from(base + 2), 30)));
            wires[a].insert(pa, (b, pb));
            wires[b].insert(pb, (a, pa));
        }
        let configs: Vec<_> = ifaces
            .into_iter()
            .enumerate()
            .map(|(i, table)| {
                let cfg = OspfConfig {
                    router_id: Ipv4Addr::from(0x0A00_0001 + i as u32),
                    networks: vec![("172.31.0.0/16".parse().unwrap(), 0)],
                    hello_interval: hello,
                    dead_interval: 4 * hello,
                    spf_timers: (SPF_DELAY.as_millis() as u32, SPF_HOLD.as_millis() as u32),
                    retransmit_interval: 1,
                };
                (cfg, table)
            })
            .collect();
        Net {
            daemons: configs
                .iter()
                .map(|(cfg, table)| OspfDaemon::from_config(cfg, table))
                .collect(),
            addrs: configs
                .iter()
                .map(|(_, t)| t.iter().map(|(i, a)| (*i, a.addr)).collect())
                .collect(),
            configs,
            alive: vec![true; n],
            wires,
            queue: BinaryHeap::new(),
            seq: 0,
            now: Time::ZERO,
            latency,
            loss_pct,
            last_spf: vec![None; n],
            rng: StdRng::seed_from_u64(seed),
            seen: Coverage::default(),
        }
    }

    /// Account for one call into router `r`, queue what it sent, and
    /// probe the premise on the state it was left in.
    fn after_call(&mut self, r: usize, runs_before: u64, events: Vec<OspfEvent>) {
        if self.daemons[r].spf_runs > runs_before {
            // A run the hold pushed back lands exactly SPF_HOLD after
            // the previous one.
            if self.last_spf[r].is_some_and(|t| t + SPF_HOLD == self.now) {
                self.seen.held_spf_runs += 1;
            }
            self.last_spf[r] = Some(self.now);
        }
        for ev in events {
            if let OspfEvent::Transmit { iface, packet, .. } = ev {
                // OSPF header byte 1 is the packet type: 3 LSR, 4 LSU, 5 LSAck.
                if packet[1] >= 3 && self.rng.gen_range(0..100) < self.loss_pct {
                    self.seen.dropped += 1;
                    continue;
                }
                if let Some(&(peer, peer_iface)) = self.wires[r].get(&iface) {
                    self.seq += 1;
                    let src = self.addrs[r][&iface];
                    self.queue.push(Reverse((
                        self.now + self.latency,
                        self.seq,
                        peer,
                        peer_iface,
                        src,
                        packet.to_vec(),
                    )));
                }
            }
        }
        self.probe(r);
    }

    /// `tick` on a clone of router `r`, at a random instant in
    /// `[now, poll_at())` and at `poll_at() - 1 ns`: no events, and
    /// neither `poll_at()` nor `neighbors()` moves.
    fn probe(&mut self, r: usize) {
        let d = &self.daemons[r];
        let due = d
            .poll_at()
            .expect("a daemon always has its LSA refresh due");
        if due <= self.now {
            return;
        }
        let span = due.as_nanos() - self.now.as_nanos();
        let early = self.now.as_nanos() + self.rng.gen_range(0..span);
        for t in [early, due.as_nanos() - 1].map(Time::from_nanos) {
            let mut clone = d.clone();
            let events = clone.tick(t);
            assert!(
                events.is_empty(),
                "router {r} at {t:?}, due {due:?}: tick sent {events:?}"
            );
            assert_eq!(clone.poll_at(), Some(due), "router {r} at {t:?}");
            assert_eq!(clone.neighbors(), d.neighbors(), "router {r} at {t:?}");
            self.seen.probes += 1;
        }
    }

    fn start(&mut self) {
        for r in 0..self.daemons.len() {
            let events = self.daemons[r].start(self.now);
            self.after_call(r, 0, events);
        }
    }

    /// Take router `r` off the network: it neither ticks nor hears.
    fn kill(&mut self, r: usize) {
        self.alive[r] = false;
    }

    /// Boot a fresh daemon in router `r`'s place.
    fn restart(&mut self, r: usize) {
        let (cfg, table) = &self.configs[r];
        self.daemons[r] = OspfDaemon::from_config(cfg, table);
        self.alive[r] = true;
        self.last_spf[r] = None;
        let events = self.daemons[r].start(self.now);
        self.after_call(r, 0, events);
    }

    /// Deliver packets and run ticks at `poll_at()` until `until`.
    fn run_until(&mut self, until: Time) {
        loop {
            let next_packet = self.queue.peek().map(|Reverse(p)| p.0);
            let next_tick = (0..self.daemons.len())
                .filter(|&r| self.alive[r])
                .filter_map(|r| self.daemons[r].poll_at())
                .min();
            let next = match (next_packet, next_tick) {
                (Some(a), Some(b)) => a.min(b),
                (a, b) => a.or(b).expect("live daemons always have a deadline"),
            }
            .max(self.now);
            if next > until {
                self.now = until;
                return;
            }
            self.now = next;
            while self.queue.peek().is_some_and(|Reverse(p)| p.0 <= next) {
                let Reverse((_, _, r, iface, src, packet)) = self.queue.pop().unwrap();
                if self.alive[r] {
                    let runs = self.daemons[r].spf_runs;
                    let events = self.daemons[r].handle_packet(iface, src, &packet, next);
                    self.after_call(r, runs, events);
                }
            }
            for r in 0..self.daemons.len() {
                if self.alive[r] && self.daemons[r].poll_at().is_some_and(|t| t <= next) {
                    let d = &mut self.daemons[r];
                    let (neighbors, lsas, runs) = (d.neighbors().len(), d.lsdb_len(), d.spf_runs);
                    let events = d.tick(next);
                    if d.neighbors().len() < neighbors {
                        self.seen.deaths += 1;
                    }
                    if d.lsdb_len() < lsas {
                        self.seen.aged_out += 1;
                    }
                    self.after_call(r, runs, events);
                }
            }
        }
    }

    fn count_full(&mut self) {
        self.seen.full_adjacencies = self
            .daemons
            .iter()
            .flat_map(|d| d.neighbors())
            .filter(|(_, _, s)| *s == NeighborState::Full)
            .count();
        self.seen.flooded = self.daemons.iter().map(|d| d.lsas_flooded).sum();
    }
}

proptest! {
    #[test]
    fn tick_before_poll_at_does_nothing(
        n in 3usize..6,
        chord in any::<bool>(),
        victim in 0usize..6,
        latency_us in 50u64..5_000,
        loss_pct in 10u32..30,
        slow in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // Slow hellos leave room for the 30-minute own-LSA refresh and
        // for the lost router's LSA to reach MaxAge before it returns.
        let hello = if slow { 600 } else { 1 };
        // A ring, optionally with a chord, so a death leaves a detour.
        let mut links: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        if chord {
            links.push((0, n / 2 + 1));
        }
        let latency = Duration::from_micros(latency_us);
        let mut net = Net::build(n, hello, &links, latency, loss_pct, seed);
        net.start();
        net.run_until(Time::from_secs(12));
        net.count_full();
        prop_assert_eq!(net.seen.full_adjacencies, 2 * links.len(), "adjacencies form");
        prop_assert!(net.seen.flooded > 0, "LSAs flood");
        prop_assert!(net.seen.dropped > 0, "packets are lost and retransmitted");

        net.kill(victim % n);
        net.run_until(Time::from_secs(if slow { 3500 } else { 20 }));
        prop_assert!(net.seen.deaths >= 2, "the victim's neighbours declare it dead");
        if slow {
            // Return the victim just after its LSA ages out, inside the
            // hold that follows the SPF run the expiry caused.
            while net.seen.aged_out == 0 {
                prop_assert!(net.now < Time::from_secs(3700), "the victim's LSA ages out");
                net.run_until(net.now + Duration::from_secs(1));
            }
            net.run_until(net.now + Duration::from_secs(1));
        }

        net.restart(victim % n);
        net.run_until(net.now + Duration::from_secs(10));
        prop_assert!(net.seen.held_spf_runs > 0, "some SPF run is held");
        prop_assert!(net.seen.probes > 200, "{} probes", net.seen.probes);
    }
}
