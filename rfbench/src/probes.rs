//! Workload-independent layer probes: `rfbench` timing calls into each
//! layer's public functions in a warmed loop, plus a few ratios of
//! whole-grid passes (fork, threads, partition, FlowVisor).
//!
//! These pin, per crate: `rf_sim::{Sim, Agent, Ctx, queue::EventQueue}`;
//! `rf_wire::{EthernetFrame, Ipv4Packet, UdpPacket, LldpPacket}`;
//! `rf_openflow::{OfMessage::{encode, encode_batch, decode}}`;
//! `rf_switch::{FlowTable::{apply_flow_mod, lookup}, datapath::apply_actions}`;
//! `rf_routed::{ospf::spf::compute, ospf::daemon::OspfDaemon, rib::Rib}`;
//! `rf_rpc::{encode_envelope, decode_envelope, RpcServerEndpoint}`;
//! `rf_topo::{corpus::load, fat_tree, ring}`.

use crate::adapter::{self, MatrixSpec, ScenarioMatrix, TraceLevel};
use crate::stats::median;
use crate::workloads;
use bytes::Bytes;
use rf_openflow::{
    Action, FlowModCommand, OfMatch, OfMessage, PacketInReason, PacketKey, OFPP_NONE, OFP_NO_BUFFER,
};
use rf_routed::config::OspfConfig;
use rf_routed::ospf::daemon::{OspfDaemon, OspfEvent};
use rf_routed::ospf::lsa::{Lsa, RouterLink, RouterLinkType, INITIAL_SEQ};
use rf_routed::ospf::spf;
use rf_routed::rib::{Rib, Route, RouteProto};
use rf_rpc::{decode_envelope, encode_envelope, Envelope, RpcRequest, RpcServerEndpoint};
use rf_sim::queue::EventQueue;
use rf_sim::{Agent, ConnId, ConnProfile, Ctx, LinkProfile, Sim, SimConfig, StreamEvent, Time};
use rf_switch::datapath::apply_actions;
use rf_switch::FlowTable;
use rf_topo::Topology;
use rf_wire::{
    EtherType, EthernetFrame, IpProtocol, Ipv4Cidr, Ipv4Packet, LldpPacket, MacAddr, UdpPacket,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

pub type Values = BTreeMap<&'static str, f64>;

/// Median nanoseconds per call of `op`: batches sized to about a
/// millisecond, a tenth of `budget` to warm up, then `budget` timed. The
/// median over batches shrugs off a pre-empted batch.
fn ns_per_op(budget: Duration, mut op: impl FnMut()) -> f64 {
    let mut batch = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            op();
        }
        if t.elapsed() >= Duration::from_millis(1) || batch >= 1 << 24 {
            break;
        }
        batch *= 2;
    }
    let warm = Instant::now();
    while warm.elapsed() < budget / 10 {
        for _ in 0..batch {
            op();
        }
    }
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.is_empty() || started.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            op();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&samples)
}

/// Median nanoseconds per item of `run`, which consumes a fresh
/// `setup()` (untimed) and processes `items` of them per call.
fn ns_per_item<S>(
    budget: Duration,
    items: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S),
) -> f64 {
    let mut samples = Vec::new();
    let started = Instant::now();
    while started.elapsed() < budget || samples.len() < 3 {
        let state = setup();
        let t = Instant::now();
        run(state);
        samples.push(t.elapsed().as_nanos() as f64 / items as f64);
    }
    median(&samples)
}

// ---------------------------------------------------------------- rf_wire

const SRC_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const DST_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 9, 9);
const SRC_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 1]);
const DST_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 2]);

fn build_udp_frame(payload: &Bytes) -> Bytes {
    let udp = UdpPacket::new(5004, 9000, payload.clone()).emit(SRC_IP, DST_IP);
    let ip = Ipv4Packet::new(SRC_IP, DST_IP, IpProtocol::UDP, udp).emit();
    EthernetFrame::new(DST_MAC, SRC_MAC, EtherType::IPV4, ip).emit()
}

fn parse_udp_frame(frame: &Bytes) -> usize {
    let eth = EthernetFrame::parse_bytes(frame).expect("probe frame parses");
    let ip = Ipv4Packet::parse_bytes(&eth.payload).expect("probe packet parses");
    let udp = UdpPacket::parse_bytes(&ip.payload, ip.src, ip.dst).expect("probe datagram parses");
    udp.payload.len()
}

fn wire(budget: Duration, out: &mut Values) {
    let payload = Bytes::from(vec![0x5Au8; 1024]);
    let frame = build_udp_frame(&payload);
    assert_eq!(parse_udp_frame(&frame), 1024);
    out.insert(
        "wire.parse_udp_frame_ns",
        ns_per_op(budget, || {
            black_box(parse_udp_frame(black_box(&frame)));
        }),
    );
    out.insert(
        "wire.build_udp_frame_ns",
        ns_per_op(budget, || {
            black_box(build_udp_frame(black_box(&payload)));
        }),
    );
    let lldp = LldpPacket::discovery_probe(0x1234_5678_9ABC, 7).emit();
    assert_eq!(
        LldpPacket::parse_discovery(&lldp),
        Some((0x1234_5678_9ABC, 7))
    );
    out.insert(
        "wire.lldp_parse_ns",
        ns_per_op(budget, || {
            black_box(LldpPacket::parse_discovery(black_box(&lldp)));
        }),
    );
}

// ------------------------------------------------------------ rf_openflow

/// The RouteFlow-shaped FLOW_MOD: a /24 destination match, MAC rewrite
/// and one output.
fn flow_mod(i: u32) -> OfMessage {
    OfMessage::FlowMod {
        of_match: OfMatch::ipv4_dst_prefix(Ipv4Addr::from(0x0A00_0000u32 | (i << 8)), 24),
        cookie: 0xFEED,
        command: FlowModCommand::Add,
        idle_timeout: 0,
        hard_timeout: 0,
        priority: 0x1080,
        buffer_id: OFP_NO_BUFFER,
        out_port: OFPP_NONE,
        flags: 0,
        actions: rewrite_actions(),
    }
}

fn rewrite_actions() -> Vec<Action> {
    vec![
        Action::SetDlSrc(SRC_MAC),
        Action::SetDlDst(DST_MAC),
        Action::output(2),
    ]
}

fn openflow(budget: Duration, out: &mut Values) {
    let fm = flow_mod(2);
    let fm_wire = fm.encode(7);
    let pi_wire = OfMessage::PacketIn {
        buffer_id: 42,
        total_len: 128,
        in_port: 3,
        reason: PacketInReason::NoMatch,
        data: Bytes::from(vec![0xABu8; 128]),
    }
    .encode(9);
    let batch: Vec<OfMessage> = (0..16).map(flow_mod).collect();
    out.insert(
        "openflow.encode_flow_mod_ns",
        ns_per_op(budget, || {
            black_box(fm.encode(black_box(7)));
        }),
    );
    out.insert(
        "openflow.decode_flow_mod_ns",
        ns_per_op(budget, || {
            black_box(OfMessage::decode(black_box(&fm_wire)).expect("probe FLOW_MOD decodes"));
        }),
    );
    out.insert(
        "openflow.decode_packet_in_ns",
        ns_per_op(budget, || {
            black_box(OfMessage::decode(black_box(&pi_wire)).expect("probe PACKET_IN decodes"));
        }),
    );
    out.insert(
        "openflow.encode_batch16_ns",
        ns_per_op(budget, || {
            black_box(OfMessage::encode_batch(black_box(&batch), 100));
        }),
    );
}

// -------------------------------------------------------------- rf_switch

fn add_prefix(table: &mut FlowTable, i: u32) {
    table.apply_flow_mod(
        FlowModCommand::Add,
        OfMatch::ipv4_dst_prefix(Ipv4Addr::from(0x0A00_0000u32 | (i << 8)), 24),
        0x1000 + 24 * 8,
        0,
        0,
        0,
        0,
        OFPP_NONE,
        vec![Action::output((i % 8 + 1) as u16)],
        Time::ZERO,
    );
}

fn table_with(n: u32) -> FlowTable {
    let mut table = FlowTable::new();
    for i in 0..n {
        add_prefix(&mut table, i);
    }
    table
}

fn key_to(nw_dst: u32) -> PacketKey {
    PacketKey {
        in_port: 1,
        dl_src: MacAddr::ZERO,
        dl_dst: MacAddr::ZERO,
        dl_type: 0x0800,
        nw_tos: 0,
        nw_proto: 17,
        nw_src: Ipv4Addr::new(192, 168, 0, 1),
        nw_dst: Ipv4Addr::from(nw_dst),
        tp_src: 1,
        tp_dst: 2,
    }
}

/// Entries the write probes fill and empty a table with.
const WRITE_TABLE: u32 = 256;

fn switch(budget: Duration, out: &mut Values) {
    for (name, n) in [
        ("switch.lookup_hit_ns_64", 64u32),
        ("switch.lookup_hit_ns_1024", 1024),
    ] {
        let mut table = table_with(n);
        let mut i = 0u32;
        out.insert(
            name,
            ns_per_op(budget, || {
                i = (i + 1) % n;
                let hit = table.lookup(&key_to(0x0A00_0007 | (i << 8)), 100, Time::ZERO);
                assert!(black_box(hit).is_some());
            }),
        );
    }
    let mut table = table_with(1024);
    let mut i = 0u32;
    out.insert(
        "switch.lookup_miss_ns_1024",
        ns_per_op(budget, || {
            i = (i + 1) % 1024;
            let miss = table.lookup(&key_to(0x0B00_0007 | (i << 8)), 100, Time::ZERO);
            assert!(black_box(miss).is_none());
        }),
    );

    let frame = build_udp_frame(&Bytes::from(vec![0x5Au8; 1024]));
    let actions = rewrite_actions();
    out.insert(
        "switch.apply_actions_ns",
        ns_per_op(budget, || {
            black_box(apply_actions(black_box(&frame), &actions, 1, 8));
        }),
    );

    // Writes interleave with reads the way FLOW_MOD pushes interleave
    // with forwarding: each is followed by one lookup, so the cost of
    // keeping a lookup index current is part of the write.
    out.insert(
        "switch.flow_mod_add_ns",
        ns_per_item(budget, WRITE_TABLE as usize, FlowTable::new, |mut table| {
            for i in 0..WRITE_TABLE {
                add_prefix(&mut table, i);
                black_box(table.lookup(&key_to(0x0A00_0007), 100, Time::ZERO));
            }
        }),
    );
    out.insert(
        "switch.flow_mod_delete_ns",
        ns_per_item(
            budget,
            WRITE_TABLE as usize,
            || table_with(WRITE_TABLE),
            |mut table| {
                for i in 0..WRITE_TABLE {
                    let removed = table.apply_flow_mod(
                        FlowModCommand::DeleteStrict,
                        OfMatch::ipv4_dst_prefix(Ipv4Addr::from(0x0A00_0000u32 | (i << 8)), 24),
                        0x1000 + 24 * 8,
                        0,
                        0,
                        0,
                        0,
                        OFPP_NONE,
                        Vec::new(),
                        Time::ZERO,
                    );
                    assert_eq!(removed.len(), 1);
                    black_box(table.lookup(&key_to(0x0A00_FF07), 100, Time::ZERO));
                }
            },
        ),
    );
}

// -------------------------------------------------------------- rf_routed

type Lsdb = (BTreeMap<u32, Lsa>, HashMap<u32, (u16, Ipv4Addr)>);

/// A router-LSA database mirroring `topo` (every edge a /30
/// point-to-point link plus its stub), and router 1's adjacencies.
fn lsdb_for(topo: &Topology) -> Lsdb {
    let n = topo.node_count();
    let mut next_port = vec![1u16; n];
    let mut links_of: Vec<Vec<RouterLink>> = vec![Vec::new(); n];
    let mut adjacent = HashMap::new();
    for (k, e) in topo.edges().iter().enumerate() {
        let base = 0xAC10_0000u32 + (k as u32) * 4;
        for (me, peer, my_addr) in [(e.a, e.b, base + 1), (e.b, e.a, base + 2)] {
            let port = next_port[me];
            next_port[me] += 1;
            links_of[me].push(RouterLink {
                link_type: RouterLinkType::PointToPoint,
                link_id: (peer + 1) as u32,
                link_data: my_addr,
                metric: 10,
            });
            links_of[me].push(RouterLink {
                link_type: RouterLinkType::Stub,
                link_id: base,
                link_data: 0xFFFF_FFFC,
                metric: 10,
            });
            if me == 0 {
                let peer_addr = if my_addr == base + 1 {
                    base + 2
                } else {
                    base + 1
                };
                adjacent.insert((peer + 1) as u32, (port, Ipv4Addr::from(peer_addr)));
            }
        }
    }
    let db = links_of
        .into_iter()
        .enumerate()
        .map(|(i, links)| {
            let id = (i + 1) as u32;
            (id, Lsa::router(id, INITIAL_SEQ, 0, links))
        })
        .collect();
    (db, adjacent)
}

fn ospf_daemon(id: u8, addr: Ipv4Addr) -> OspfDaemon {
    let cfg = OspfConfig {
        router_id: Ipv4Addr::new(10, 0, 0, id),
        networks: vec![(Ipv4Cidr::new(Ipv4Addr::new(172, 31, 0, 0), 16), 0)],
        hello_interval: 1,
        dead_interval: 4,
        ..OspfConfig::default()
    };
    OspfDaemon::from_config(&cfg, &[(1, Ipv4Cidr::new(addr, 30))])
}

/// Two daemons on one point-to-point link, Down → Full, shuttling
/// packets over an in-memory pipe with 1 ms latency.
fn adjacency_pair() {
    let addrs = [Ipv4Addr::new(172, 31, 0, 1), Ipv4Addr::new(172, 31, 0, 2)];
    let mut daemons = [ospf_daemon(1, addrs[0]), ospf_daemon(2, addrs[1])];
    let mut now = Time::ZERO;
    // (destination daemon, raw OSPF bytes)
    let mut pipe: VecDeque<(usize, Bytes)> = VecDeque::new();
    let enqueue = |from: usize, events: Vec<OspfEvent>, pipe: &mut VecDeque<(usize, Bytes)>| {
        for ev in events {
            if let OspfEvent::Transmit { packet, .. } = ev {
                pipe.push_back((1 - from, packet));
            }
        }
    };
    for (i, daemon) in daemons.iter_mut().enumerate() {
        let events = daemon.start(now);
        enqueue(i, events, &mut pipe);
    }
    let full = |d: &OspfDaemon| !d.neighbors().is_empty() && d.all_adjacencies_full();
    while !(full(&daemons[0]) && full(&daemons[1])) {
        assert!(now < Time::from_secs(60), "adjacency never formed");
        if pipe.is_empty() {
            now = daemons
                .iter()
                .filter_map(OspfDaemon::poll_at)
                .min()
                .expect("a daemon with an interface always has a timer")
                .max(now);
        } else {
            now += Duration::from_millis(1);
            for (to, packet) in std::mem::take(&mut pipe) {
                let events = daemons[to].handle_packet(1, addrs[1 - to], &packet, now);
                enqueue(to, events, &mut pipe);
            }
        }
        for (i, daemon) in daemons.iter_mut().enumerate() {
            if daemon.poll_at().is_some_and(|t| t <= now) {
                let events = daemon.tick(now);
                enqueue(i, events, &mut pipe);
            }
        }
    }
    black_box(&daemons);
}

fn ospf_routes(n: u32, via: u8) -> Vec<Route> {
    (0..n)
        .map(|i| Route {
            prefix: Ipv4Cidr::new(Ipv4Addr::from(0x0A00_0000u32 | (i << 8)), 24),
            next_hop: Some(Ipv4Addr::new(172, 31, 0, via)),
            out_iface: u16::from(via),
            proto: RouteProto::Ospf,
            metric: 20,
        })
        .collect()
}

fn routed(budget: Duration, out: &mut Values) {
    for (name, topo) in [
        ("routed.spf_ns_ring64", rf_topo::ring(64)),
        ("routed.spf_ns_fat_tree_k8", rf_topo::fat_tree(8)),
    ] {
        let (db, adjacent) = lsdb_for(&topo);
        assert!(!spf::compute(&db, 1, &adjacent).is_empty());
        out.insert(
            name,
            ns_per_op(budget, || {
                black_box(spf::compute(black_box(&db), 1, &adjacent));
            }),
        );
    }
    out.insert(
        "routed.adjacency_pair_us",
        ns_per_op(budget, adjacency_pair) / 1e3,
    );
    // What OSPF hands the RIB after an SPF run that moved every
    // route to another next hop.
    let sets = [ospf_routes(64, 1), ospf_routes(64, 2)];
    let mut rib = Rib::new();
    let mut flip = 0usize;
    out.insert(
        "routed.rib_replace_ns",
        ns_per_op(budget, || {
            flip ^= 1;
            black_box(rib.replace_protocol(RouteProto::Ospf, &sets[flip]));
        }),
    );
}

// ----------------------------------------------------------------- rf_rpc

fn rpc(budget: Duration, out: &mut Values) {
    let mut server = RpcServerEndpoint::new();
    let mut req_id = 0u64;
    out.insert(
        "rpc.roundtrip_ns",
        ns_per_op(budget, || {
            req_id += 1;
            let wire = encode_envelope(&Envelope::Request {
                req_id,
                request: RpcRequest::LinkDetected {
                    a_dpid: 1,
                    a_port: 1,
                    b_dpid: 2,
                    b_port: 2,
                    subnet: Ipv4Cidr::new(Ipv4Addr::new(172, 31, 0, 0), 30),
                    ip_a: Ipv4Addr::new(172, 31, 0, 1),
                    ip_b: Ipv4Addr::new(172, 31, 0, 2),
                },
            });
            let (fresh, acks) = server.feed(&wire);
            assert_eq!((fresh.len(), acks.len()), (1, 1));
            black_box(decode_envelope(&acks[0]).expect("ack decodes"));
        }),
    );
}

// ----------------------------------------------------------------- rf_sim

/// Reschedules itself forever: pure queue + dispatch.
#[derive(Clone)]
struct Ticker {
    period: Duration,
}

impl Agent for Ticker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(self.period, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.schedule(self.period, 0);
    }
}

/// Returns every frame it receives; `serve` of them start the rally.
#[derive(Clone)]
struct FrameBouncer {
    serve: usize,
    frame: Bytes,
}

impl Agent for FrameBouncer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..self.serve {
            ctx.send_frame(1, self.frame.clone());
        }
    }
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: u32, frame: Bytes) {
        ctx.send_frame(port, frame);
    }
}

const BOUNCE_SERVICE: u16 = 9;

/// Echoes every stream chunk; the connecting side serves `serve`.
#[derive(Clone)]
struct StreamBouncer {
    connect_to: Option<rf_sim::AgentId>,
    serve: usize,
}

impl Agent for StreamBouncer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        match self.connect_to {
            Some(peer) => {
                ctx.connect(peer, BOUNCE_SERVICE, ConnProfile::default());
            }
            None => ctx.listen(BOUNCE_SERVICE),
        }
    }
    fn on_stream(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, event: StreamEvent) {
        match event {
            StreamEvent::Opened {
                initiated_by_us: true,
                ..
            } => {
                for _ in 0..self.serve {
                    ctx.conn_send(conn, Bytes::from(vec![0x42u8; 64]));
                }
            }
            StreamEvent::Data(chunk) => ctx.conn_send(conn, chunk),
            _ => {}
        }
    }
}

fn quiet_sim() -> Sim {
    Sim::new(SimConfig {
        seed: 1,
        trace_level: TraceLevel::Off,
        max_time: None,
    })
}

/// Nanoseconds per dispatched kernel event while `sim` steps through
/// `slice`-long spans of simulated time.
fn ns_per_event(budget: Duration, mut sim: Sim, slice: Duration) -> f64 {
    let until = sim.now() + slice;
    sim.run_until(until);
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 3 || started.elapsed() < budget {
        let before = sim.events_dispatched();
        let until = sim.now() + slice;
        let t = Instant::now();
        sim.run_until(until);
        let wall = t.elapsed();
        let events = sim.events_dispatched() - before;
        assert!(events > 0, "probe simulation went idle");
        samples.push(wall.as_nanos() as f64 / events as f64);
    }
    median(&samples)
}

fn kernel(budget: Duration, out: &mut Values) {
    let mut sim = quiet_sim();
    for i in 0..64u64 {
        let period = Duration::from_micros(1000 + i);
        sim.add_agent(&format!("ticker-{i}"), Box::new(Ticker { period }));
    }
    out.insert(
        "sim.timer_event_ns",
        ns_per_event(budget, sim, Duration::from_millis(100)),
    );

    // 10 000 events stay queued; each step pops the earliest and
    // pushes it back a little over 10 ms later.
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..10_000u64 {
        queue.push(Time::from_nanos(1_000 * i), i);
    }
    out.insert(
        "sim.queue_push_pop_ns",
        ns_per_op(budget, || {
            let (at, payload) = queue.pop().expect("standing depth never drains");
            queue.push(
                at + Duration::from_nanos(10_000_000 + payload % 1_000),
                payload,
            );
        }),
    );

    let frame = build_udp_frame(&Bytes::from(vec![0x5Au8; 1024]));
    let mut sim = quiet_sim();
    let a = sim.add_agent(
        "bounce-a",
        Box::new(FrameBouncer {
            serve: 16,
            frame: frame.clone(),
        }),
    );
    let b = sim.add_agent("bounce-b", Box::new(FrameBouncer { serve: 0, frame }));
    sim.add_link((a, 1), (b, 1), LinkProfile::default());
    out.insert(
        "sim.frame_delivery_ns",
        ns_per_event(budget, sim, Duration::from_millis(500)),
    );

    let mut sim = quiet_sim();
    let listener = sim.add_agent(
        "stream-b",
        Box::new(StreamBouncer {
            connect_to: None,
            serve: 0,
        }),
    );
    sim.add_agent(
        "stream-a",
        Box::new(StreamBouncer {
            connect_to: Some(listener),
            serve: 16,
        }),
    );
    out.insert(
        "sim.stream_delivery_ns",
        ns_per_event(budget, sim, Duration::from_millis(500)),
    );
}

// ---------------------------------------------------------------- rf_topo

fn topo(budget: Duration, out: &mut Values) {
    let names = rf_topo::corpus::names();
    out.insert(
        "topo.corpus_load_ms",
        ns_per_op(budget, || {
            for name in &names {
                black_box(rf_topo::corpus::load(name).expect("corpus name loads"));
            }
        }) / 1e6,
    );
    out.insert(
        "topo.build_fat_tree_k8_us",
        ns_per_op(budget, || {
            black_box(rf_topo::fat_tree(black_box(8)));
        }) / 1e3,
    );
}

// --------------------------------------------------- whole-scenario probes

/// Snapshot and fork cost on a converged geant (22 switches).
fn fork_cost(budget: Duration, seed: u64, out: &mut Values) {
    let spec = workloads::flowvisor_probe(seed, true);
    let cell = spec
        .cells()
        .into_iter()
        .find(|c| c.topology == "geant")
        .expect("probe grid holds geant");
    let mut sc = adapter::start(&cell, TraceLevel::Off).expect("geant builds");
    adapter::converge(&mut sc, spec.configure_deadline).expect("geant configures");
    let limit = adapter::now(&sc) + spec.settle;
    let snap = adapter::quiesced_snapshot(&mut sc, limit).expect("geant quiesces");
    out.insert(
        "scenario.snapshot_us",
        ns_per_op(budget, || {
            black_box(adapter::quiesced_snapshot(&mut sc, limit).is_some());
        }) / 1e3,
    );
    out.insert(
        "scenario.fork_us",
        ns_per_op(budget, || {
            black_box(adapter::fork(&snap));
        }) / 1e3,
    );
}

/// What `reps` passes over a probe grid came to.
struct Passes {
    /// Median wall seconds of one pass.
    wall_s: f64,
    events: u64,
    report_json: String,
}

fn passes(spec: &MatrixSpec, forked: bool, threads: usize, reps: usize) -> Passes {
    let matrix = ScenarioMatrix::new(spec.clone());
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        let (report, stats) = adapter::run_pass(&matrix, forked, threads, &|| ());
        walls.push(stats.wall.as_secs_f64());
        last = Some((report, stats));
    }
    let (report, stats) = last.expect("at least one repetition");
    Passes {
        wall_s: median(&walls),
        events: stats.total_events(),
        report_json: report.to_json(),
    }
}

/// Ratios of whole passes. `failures` collects identity breaches.
fn ratios(seed: u64, out: &mut Values, failures: &mut Vec<String>) {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let probe = workloads::fork_probe(seed);
    let cold = passes(&probe, false, 1, 3);
    let forked = passes(&probe, true, 1, 3);
    let threaded = passes(&probe, false, host_cores, 3);
    if forked.report_json != cold.report_json {
        failures.push("fork probe: forked report differs from cold".into());
    }
    if threaded.report_json != cold.report_json {
        failures.push(format!(
            "fork probe: report at {host_cores} threads differs from 1 thread"
        ));
    }
    out.insert("scenario.fork_speedup_x", cold.wall_s / forked.wall_s);
    out.insert("matrix.thread_speedup_x", cold.wall_s / threaded.wall_s);

    let with_fv = passes(&workloads::flowvisor_probe(seed, true), false, 1, 5);
    let without_fv = passes(&workloads::flowvisor_probe(seed, false), false, 1, 5);
    out.insert(
        "flowvisor.cost_pct",
        (with_fv.wall_s / without_fv.wall_s - 1.0) * 100.0,
    );

    for (name, flow_level) in [
        ("traffic.packet_ns_per_event", false),
        ("traffic.flow_ns_per_event", true),
    ] {
        let cell = passes(
            &workloads::traffic_probe(seed, &["ring-16"], flow_level),
            false,
            1,
            3,
        );
        out.insert(name, cell.wall_s * 1e9 / cell.events as f64);
    }
}

/// Post-convergence span of the partition probe cells, stepped with
/// `cores` regions. Returns (wall seconds, per-cell outcome, events).
fn partition_pass(
    spec: &MatrixSpec,
    cores: usize,
) -> (f64, Vec<Option<adapter::ParallelOutcome>>, Vec<u64>) {
    let mut wall = 0.0;
    let mut outcomes = Vec::new();
    let mut events = Vec::new();
    for cell in spec.cells() {
        let mut sc = adapter::start(&cell, TraceLevel::Off).expect("partition probe cell builds");
        adapter::converge(&mut sc, spec.configure_deadline).expect("partition probe configures");
        adapter::set_parallel_cores(&mut sc, cores);
        let until = adapter::horizon(spec, &cell, adapter::now(&sc));
        let t = Instant::now();
        adapter::run_to(&mut sc, until);
        wall += t.elapsed().as_secs_f64();
        let harvest = adapter::harvest(&mut sc);
        outcomes.push(harvest.last_parallel);
        events.push(harvest.events);
    }
    (wall, outcomes, events)
}

/// The conservative parallel kernel against the serial one on two
/// packet-level cells. Not a workload: on two cores it neither repeats
/// within a tenth nor pays for itself, and these numbers keep that
/// fact on file.
fn partition(seed: u64, out: &mut Values, failures: &mut Vec<String>) {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spec = workloads::traffic_probe(seed, &["ring-16", "fat-tree-k4"], false);
    let (serial, _, serial_events) = partition_pass(&spec, 1);
    let (parallel, outcomes, parallel_events) = partition_pass(&spec, host_cores);
    if serial_events != parallel_events {
        failures.push("partition probe: event counts differ between serial and parallel".into());
    }
    let (mut windows, mut cross, mut fallbacks) = (0u64, 0u64, 0u64);
    for outcome in outcomes {
        match outcome {
            Some(adapter::ParallelOutcome::Parallel {
                windows: w,
                cross_events: c,
                ..
            }) => {
                windows += w;
                cross += c;
            }
            Some(adapter::ParallelOutcome::Serial { .. }) | None => fallbacks += 1,
        }
    }
    out.insert("sim.partition_speedup_x", serial / parallel);
    out.insert("sim.partition_windows", windows as f64);
    out.insert("sim.partition_cross_events", cross as f64);
    out.insert("sim.partition_serial_fallbacks", fallbacks as f64);
}

/// Every workload-independent per-layer metric. `seconds` is the
/// run's measuring budget; each timing loop gets a hundredth of it.
pub fn run_all(seed: u64, seconds: f64, failures: &mut Vec<String>) -> Values {
    let budget = Duration::from_secs_f64(seconds / 100.0);
    let mut out = Values::new();
    kernel(budget, &mut out);
    wire(budget, &mut out);
    openflow(budget, &mut out);
    switch(budget, &mut out);
    routed(budget, &mut out);
    rpc(budget, &mut out);
    topo(budget, &mut out);
    fork_cost(budget, seed, &mut out);
    ratios(seed, &mut out, failures);
    partition(seed, &mut out, failures);
    out
}
