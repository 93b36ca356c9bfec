//! OSPF convergence tests: multiple daemons wired together through a
//! tiny deterministic packet shuttle (no full simulator needed — the
//! daemons are sans-IO).

use rf_routed::config::OspfConfig;
use rf_routed::ospf::daemon::{OspfDaemon, OspfEvent};
use rf_routed::rib::RouteProto;
use rf_sim::Time;
use rf_wire::Ipv4Cidr;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::Ipv4Addr;

/// In-flight packet: (deliver at ns, seq, dst router, dst iface, bytes).
type QueuedPacket = (u64, u64, usize, u16, Vec<u8>);

/// (router index, iface) ↔ (router index, iface) wiring.
struct Net {
    daemons: Vec<OspfDaemon>,
    /// wires[i][iface] = (peer router, peer iface)
    wires: Vec<std::collections::HashMap<u16, (usize, u16)>>,
    /// iface addrs for wrapping (unused beyond bookkeeping).
    addrs: Vec<std::collections::HashMap<u16, Ipv4Cidr>>,
    queue: BinaryHeap<Reverse<QueuedPacket>>,
    seq: u64,
    now: Time,
    latency_ns: u64,
    /// Packet loss: drop every packet whose sequence number satisfies
    /// `seq % drop_modulo == 0` (deterministic loss for rxmt tests).
    drop_modulo: u64,
    dropped: u64,
    /// Latest RoutesChanged payload per router.
    routes: Vec<Vec<rf_routed::rib::Route>>,
}

impl Net {
    /// Build from a list of links `(a, b)` between router indices.
    /// Router ids are `10.0.0.(i+1)`; link k gets subnet
    /// `172.31.k*4/30` with a getting .1 and b getting .2.
    fn build(n: usize, links: &[(usize, usize)], hello: u16, dead: u16) -> Net {
        let mut ifaces: Vec<Vec<(u16, Ipv4Cidr)>> = vec![Vec::new(); n];
        let mut wires: Vec<std::collections::HashMap<u16, (usize, u16)>> =
            vec![Default::default(); n];
        let mut next_port = vec![1u16; n];
        for (k, &(a, b)) in links.iter().enumerate() {
            let base = 0xAC1F_0000u32 + (k as u32) * 4; // 172.31.0.0 + 4k
            let pa = next_port[a];
            next_port[a] += 1;
            let pb = next_port[b];
            next_port[b] += 1;
            ifaces[a].push((pa, Ipv4Cidr::new(Ipv4Addr::from(base + 1), 30)));
            ifaces[b].push((pb, Ipv4Cidr::new(Ipv4Addr::from(base + 2), 30)));
            wires[a].insert(pa, (b, pb));
            wires[b].insert(pb, (a, pa));
        }
        let daemons = (0..n)
            .map(|i| {
                let cfg = OspfConfig {
                    router_id: Ipv4Addr::from(0x0A00_0000u32 + i as u32 + 1),
                    networks: vec![("172.31.0.0/16".parse().unwrap(), 0)],
                    hello_interval: hello,
                    dead_interval: dead,
                    spf_timers: (200, 1000),
                    retransmit_interval: 5,
                };
                OspfDaemon::from_config(&cfg, &ifaces[i])
            })
            .collect();
        let addrs = ifaces.iter().map(|v| v.iter().copied().collect()).collect();
        Net {
            daemons,
            wires,
            addrs,
            queue: BinaryHeap::new(),
            seq: 0,
            now: Time::ZERO,
            latency_ns: 1_000_000, // 1 ms
            drop_modulo: 0,
            dropped: 0,
            routes: vec![Vec::new(); n],
        }
    }

    fn iface_addr(&self, router: usize, iface: u16) -> Ipv4Addr {
        self.addrs[router][&iface].addr
    }

    fn handle_events(&mut self, router: usize, events: Vec<OspfEvent>) {
        for ev in events {
            if let OspfEvent::RoutesChanged(r) = &ev {
                self.routes[router] = r.clone();
            }
            if let OspfEvent::Transmit { iface, packet, .. } = ev {
                self.seq += 1;
                if self.drop_modulo != 0 && self.seq.is_multiple_of(self.drop_modulo) {
                    self.dropped += 1;
                    continue;
                }
                if let Some(&(peer, peer_iface)) = self.wires[router].get(&iface) {
                    let at = self.now.as_nanos() + self.latency_ns;
                    self.queue
                        .push(Reverse((at, self.seq, peer, peer_iface, packet.to_vec())));
                }
            }
        }
    }

    fn start(&mut self) {
        for i in 0..self.daemons.len() {
            let ev = self.daemons[i].start(Time::ZERO);
            self.handle_events(i, ev);
        }
    }

    /// Run until `until`, interleaving packet delivery and ticks.
    fn run_until(&mut self, until: Time) {
        loop {
            // Next packet or next poll deadline, whichever first.
            let next_pkt = self.queue.peek().map(|Reverse((t, ..))| *t);
            let next_poll = self
                .daemons
                .iter()
                .filter_map(|d| d.poll_at())
                .map(|t| t.as_nanos().max(self.now.as_nanos() + 1))
                .min();
            let next = match (next_pkt, next_poll) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            if next > until.as_nanos() {
                self.now = until;
                break;
            }
            self.now = Time::from_nanos(next);
            // Deliver due packets.
            while let Some(Reverse((t, ..))) = self.queue.peek() {
                if *t > next {
                    break;
                }
                let Reverse((_, _, router, iface, data)) = self.queue.pop().unwrap();
                // The wire may have been unplugged while the packet was
                // in flight; drop it in that case.
                let Some(&src_peer) = self.wires[router].get(&iface) else {
                    continue;
                };
                let src_addr = self.iface_addr(src_peer.0, src_peer.1);
                let ev = self.daemons[router].handle_packet(iface, src_addr, &data, self.now);
                self.handle_events(router, ev);
            }
            // Tick everyone (cheap; only due timers act).
            for i in 0..self.daemons.len() {
                let ev = self.daemons[i].tick(self.now);
                self.handle_events(i, ev);
            }
        }
    }

    fn all_full(&self) -> bool {
        self.daemons
            .iter()
            .all(|d| d.all_adjacencies_full() && !d.neighbors().is_empty())
    }

    /// Replace router `i` with a freshly booted daemon on the same
    /// addresses (a VM restart: all adjacency and LSDB state lost, the
    /// wire untouched). The neighbors' daemons are not told — they must
    /// notice from the protocol itself.
    fn restart_router(&mut self, i: usize) {
        let ifaces: Vec<(u16, Ipv4Cidr)> = self.addrs[i].iter().map(|(k, v)| (*k, *v)).collect();
        let cfg = OspfConfig {
            router_id: Ipv4Addr::from(0x0A00_0000u32 + i as u32 + 1),
            networks: vec![("172.31.0.0/16".parse().unwrap(), 0)],
            hello_interval: 1,
            dead_interval: 4,
            spf_timers: (200, 1000),
            retransmit_interval: 5,
        };
        self.daemons[i] = OspfDaemon::from_config(&cfg, &ifaces);
        let now = self.now;
        let ev = self.daemons[i].start(now);
        self.handle_events(i, ev);
    }

    /// Plug a new link between `a` and `b` at the current time (the
    /// runtime path a VM takes when the controller pushes a rewritten
    /// config with an extra interface).
    fn plug(&mut self, a: usize, b: usize, link_index: u32) {
        let base = 0xAC1F_0000u32 + link_index * 4;
        let pa = self.wires[a].keys().max().copied().unwrap_or(0) + 1;
        let pb = self.wires[b].keys().max().copied().unwrap_or(0) + 1;
        let addr_a = Ipv4Cidr::new(Ipv4Addr::from(base + 1), 30);
        let addr_b = Ipv4Cidr::new(Ipv4Addr::from(base + 2), 30);
        self.wires[a].insert(pa, (b, pb));
        self.wires[b].insert(pb, (a, pa));
        self.addrs[a].insert(pa, addr_a);
        self.addrs[b].insert(pb, addr_b);
        let now = self.now;
        let ev = self.daemons[a].add_interface(pa, addr_a, now);
        self.handle_events(a, ev);
        let ev = self.daemons[b].add_interface(pb, addr_b, now);
        self.handle_events(b, ev);
    }
}

#[test]
fn two_routers_reach_full_and_exchange_routes() {
    let mut net = Net::build(2, &[(0, 1)], 1, 4);
    net.start();
    net.run_until(Time::from_secs(10));
    assert!(
        net.all_full(),
        "adjacency must reach Full: {:?} {:?}",
        net.daemons[0].neighbors(),
        net.daemons[1].neighbors()
    );
    // Both have both router LSAs.
    assert_eq!(net.daemons[0].lsdb_len(), 2);
    assert_eq!(net.daemons[1].lsdb_len(), 2);
}

#[test]
fn line_of_four_converges_end_to_end() {
    let mut net = Net::build(4, &[(0, 1), (1, 2), (2, 3)], 1, 4);
    net.start();
    net.run_until(Time::from_secs(20));
    assert!(net.all_full());
    for d in &net.daemons {
        assert_eq!(d.lsdb_len(), 4, "full LSDB everywhere");
    }
    // Router 0 reaches the far subnet 172.31.0.8/30 (link 2-3) through
    // its single interface, two router hops away.
    let far = net.routes[0]
        .iter()
        .find(|r| r.prefix.to_string() == "172.31.0.8/30")
        .unwrap_or_else(|| panic!("far subnet missing: {:?}", net.routes[0]));
    assert_eq!(far.metric, 30, "10 + 10 + 10 stub");
    assert_eq!(far.out_iface, 1);
}

#[test]
fn routes_changed_events_reach_far_subnets() {
    let mut net = Net::build(3, &[(0, 1), (1, 2)], 1, 4);
    net.start();
    net.run_until(Time::from_secs(20));
    assert!(net.all_full());
    let far = net.routes[0]
        .iter()
        .find(|r| r.prefix.to_string() == "172.31.0.4/30")
        .unwrap_or_else(|| panic!("far subnet missing: {:?}", net.routes[0]));
    assert_eq!(far.proto, RouteProto::Ospf);
    assert_eq!(far.metric, 20);
    assert_eq!(far.out_iface, 1);
    assert_eq!(far.next_hop, Some("172.31.0.2".parse().unwrap()));
}

#[test]
fn ring_converges_and_survives_node_death() {
    let mut net = Net::build(4, &[(0, 1), (1, 2), (2, 3), (3, 0)], 1, 4);
    net.start();
    net.run_until(Time::from_secs(15));
    assert!(net.all_full());
    for d in &net.daemons {
        assert_eq!(d.lsdb_len(), 4);
    }
    // "Kill" router 3 by unplugging its wires: stop delivering to/from.
    net.wires[3].clear();
    net.wires[0].retain(|_, (peer, _)| *peer != 3);
    net.wires[1].retain(|_, (peer, _)| *peer != 3);
    net.wires[2].retain(|_, (peer, _)| *peer != 3);
    // After the dead interval, neighbors drop and LSAs re-originate.
    net.run_until(Time::from_secs(30));
    let n0: Vec<_> = net.daemons[0].neighbors();
    assert_eq!(
        n0.len(),
        1,
        "router 0 keeps only the neighbor toward 1: {n0:?}"
    );
}

#[test]
fn convergence_survives_packet_loss() {
    let mut net = Net::build(3, &[(0, 1), (1, 2)], 1, 4);
    net.drop_modulo = 7; // drop every 7th packet deterministically
    net.start();
    net.run_until(Time::from_secs(40));
    assert!(net.dropped > 0, "loss must actually occur");
    assert!(
        net.all_full(),
        "retransmission must repair loss: {:?} {:?} {:?}",
        net.daemons[0].neighbors(),
        net.daemons[1].neighbors(),
        net.daemons[2].neighbors()
    );
    for d in &net.daemons {
        assert_eq!(d.lsdb_len(), 3);
    }
}

/// Regression (RFC 2328 §13 step 7): an LSA instance arriving from one
/// neighbor must satisfy pending link-state requests for the same LSA
/// on *other* adjacencies too. A fresh router plugged into two already
/// converged peers at once requests the same LSAs over both new
/// adjacencies; whichever LSU processes first used to clear only its
/// own interface's request list, and the other peer's (now
/// equal-instance) answer never cleared anything — that adjacency hung
/// in Loading forever. This is exactly how the last-discovered link of
/// a ring deployment got stuck.
#[test]
fn parallel_adjacencies_requesting_same_lsas_both_reach_full() {
    let mut net = Net::build(3, &[(0, 1)], 1, 4);
    net.start();
    net.run_until(Time::from_secs(8));
    // Routers 0 and 1 are converged; router 2 is isolated.
    assert!(net.daemons[0].all_adjacencies_full());
    assert_eq!(net.daemons[2].neighbors().len(), 0);
    // Plug router 2 into both at the same instant: its LSR for the
    // {router-0, router-1} LSAs goes out on both adjacencies, and the
    // first answer races the second.
    net.plug(0, 2, 1);
    net.plug(1, 2, 2);
    net.run_until(Time::from_secs(40));
    assert!(
        net.all_full(),
        "both new adjacencies must leave Loading: {:?}",
        net.daemons
            .iter()
            .map(|d| d.neighbors())
            .collect::<Vec<_>>()
    );
    for d in &net.daemons {
        assert_eq!(d.lsdb_len(), 3, "complete LSDB after the late plug");
    }
}

/// RFC 2328 §10.5 1-WayReceived: when a neighbor's hello stops listing
/// us, the adjacency must fall back to Init — the peer restarted and
/// remembers nothing, so our Full state is a fiction. Injected
/// directly, because over a live wire the restarted peer usually hears
/// our hello first and its prompt reply already lists us again.
#[test]
fn hello_without_us_knocks_adjacency_back_to_init() {
    use rf_routed::ospf::neighbor::NeighborState;
    use rf_routed::ospf::packet::PacketWriter;

    let mut net = Net::build(2, &[(0, 1)], 1, 4);
    net.start();
    net.run_until(Time::from_secs(10));
    assert!(net.all_full(), "precondition: adjacency Full");

    let peer_id = u32::from(Ipv4Addr::new(10, 0, 0, 2));
    let hello =
        |neighbors: &[u32]| PacketWriter::hello(peer_id, 0xFFFF_FFFC, 1, 4, neighbors).finish();
    let src = net.iface_addr(1, 1);

    // The 1-way hello: the peer no longer knows us.
    let now = Time::from_millis(10_100);
    net.daemons[0].handle_packet(1, src, &hello(&[]), now);
    let n0 = net.daemons[0].neighbors();
    assert_eq!(
        n0[0].2,
        NeighborState::Init,
        "hello without our router-id must knock the adjacency back to Init: {n0:?}"
    );

    // Bidirectionality restored: straight back into the DBD exchange
    // (point-to-point links skip TwoWay).
    let our_id = u32::from(Ipv4Addr::new(10, 0, 0, 1));
    let now = Time::from_millis(10_200);
    net.daemons[0].handle_packet(1, src, &hello(&[our_id]), now);
    let n0 = net.daemons[0].neighbors();
    assert_eq!(n0[0].2, NeighborState::ExStart, "{n0:?}");
}

/// The scenario behind §10.5: a VM restarts, losing all OSPF state,
/// while its neighbor still holds a Full adjacency. Hellos keep
/// flowing, so the dead interval never fires — the 1-way fallback is
/// what clears the stale state and lets the pair renegotiate.
#[test]
fn neighbor_restart_reconverges_within_dead_interval() {
    let mut net = Net::build(2, &[(0, 1)], 1, 4);
    net.start();
    net.run_until(Time::from_secs(10));
    assert!(net.all_full(), "precondition: adjacency Full");

    net.restart_router(1);
    net.run_until(Time::from_secs(14));
    assert!(
        net.all_full(),
        "restart must reconverge: {:?} {:?}",
        net.daemons[0].neighbors(),
        net.daemons[1].neighbors()
    );
    assert_eq!(net.daemons[0].lsdb_len(), 2);
    assert_eq!(net.daemons[1].lsdb_len(), 2);
}

/// Periodic LSA refreshes (same links, new sequence number) must not
/// cost a Dijkstra pass: the SPF input fingerprint is unchanged, so
/// the daemon answers from its cache — and the route set must not
/// move while it does.
#[test]
fn lsa_refresh_hits_spf_fingerprint_cache() {
    let mut net = Net::build(3, &[(0, 1), (1, 2)], 1, 4);
    net.start();
    net.run_until(Time::from_secs(20));
    assert!(net.all_full());
    let routes_before = net.routes.clone();
    let runs_before: Vec<u64> = net.daemons.iter().map(|d| d.spf_runs).collect();
    // Past LS_REFRESH_TIME every router re-originates its LSA with
    // identical content; each flood schedules an SPF on the receivers.
    net.run_until(Time::from_secs(2000));
    assert!(net.all_full());
    for (i, d) in net.daemons.iter().enumerate() {
        assert!(
            d.spf_runs > runs_before[i],
            "refresh floods must still trigger SPF on router {i}"
        );
        assert!(
            d.spf_skipped > 0,
            "content-identical refresh must hit the fingerprint cache on router {i}"
        );
    }
    assert_eq!(net.routes, routes_before, "routes must not move");
}

#[test]
fn pan_european_scale_converges() {
    // 28 routers, 41 links (same shape as the paper's demo topology).
    let topo = rf_topo::pan_european();
    let links: Vec<(usize, usize)> = topo.edges().iter().map(|e| (e.a, e.b)).collect();
    let mut net = Net::build(28, &links, 1, 4);
    net.start();
    net.run_until(Time::from_secs(30));
    assert!(net.all_full(), "all 82 adjacencies Full");
    for d in &net.daemons {
        assert_eq!(d.lsdb_len(), 28, "complete LSDB on every router");
    }
}

/// RFC 2328 §10.3 KillNbr: a hello from another router on a link whose
/// adjacency is Full replaces the neighbor, and the old adjacency leaves
/// our router LSA at once — flooded to the other neighbors, SPF
/// rerouting. Swapped in silently, the dead link stayed advertised until
/// the newcomer reached Full, and for ever if it never did.
#[test]
fn new_router_on_a_full_link_withdraws_the_old_adjacency() {
    use rf_routed::ospf::lsa::{LsaBody, RouterLinkType};
    use rf_routed::ospf::neighbor::NeighborState;
    use rf_routed::ospf::packet::{OspfBodyView, OspfView, PacketWriter};
    use std::time::Duration;

    // B (10.0.0.2) on interface 1 of A (10.0.0.1), D (10.0.0.3) on 2.
    let mut net = Net::build(3, &[(0, 1), (0, 2)], 1, 4);
    net.start();
    net.run_until(Time::from_secs(10));
    assert!(net.all_full(), "precondition: both adjacencies Full");
    let id = |last: u8| u32::from(Ipv4Addr::new(10, 0, 0, last));
    assert!(net.routes[0].iter().any(|r| r.out_iface == 1));

    let newcomer = id(99);
    let hello = PacketWriter::hello(newcomer, 0xFFFF_FFFC, 1, 4, &[]).finish();
    let now = net.now;
    let src = net.iface_addr(1, 1);
    let events = net.daemons[0].handle_packet(1, src, &hello, now);

    let n0 = net.daemons[0].neighbors();
    assert!(n0.contains(&(1, newcomer, NeighborState::Init)), "{n0:?}");
    // A's fresh router LSA, flooded to D, lists D alone.
    let flooded = events.iter().find_map(|ev| match ev {
        OspfEvent::Transmit {
            iface: 2, packet, ..
        } => match OspfView::parse(packet).unwrap().body {
            OspfBodyView::LinkStateUpdate { mut lsas } => lsas
                .find(|l| l.header.adv_router == id(1))
                .map(|l| l.to_lsa()),
            _ => None,
        },
        _ => None,
    });
    let lsa = flooded.unwrap_or_else(|| panic!("no router LSA flooded to D: {events:?}"));
    let LsaBody::Router(body) = &lsa.body;
    let adjacencies: Vec<u32> = body
        .links
        .iter()
        .filter(|l| l.link_type == RouterLinkType::PointToPoint)
        .map(|l| l.link_id)
        .collect();
    assert_eq!(adjacencies, [id(3)]);

    // SPF runs on its own timers and withdraws every route through B.
    let mut routes = None;
    let mut t = now;
    for _ in 0..100 {
        t = net.daemons[0]
            .poll_at()
            .unwrap()
            .max(t + Duration::from_millis(1));
        for ev in net.daemons[0].tick(t) {
            if let OspfEvent::RoutesChanged(r) = ev {
                routes = Some(r);
            }
        }
        if routes.is_some() || t > now + Duration::from_secs(2) {
            break;
        }
    }
    let routes = routes.expect("SPF rerouted within its hold time");
    assert!(routes.iter().all(|r| r.out_iface == 2), "{routes:?}");
}
