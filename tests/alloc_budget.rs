//! Allocation budgets of the per-packet steps. Data plane: a routed hop
//! through a switch copies no frame, and a host sending a datagram
//! builds its frame in one buffer. Control plane: an OSPF packet is one
//! buffer out and a borrowed view in — a flood is one payload and a
//! frame per adjacency, a duplicate costs its ack, a steady-state hello
//! nothing; an OpenFlow message that is only forwarded is patched
//! where it lies — an LLDP probe's round trip allocates for the one
//! message that is new (a fork's first round also copies what it
//! shares with its capture), a reply through FlowVisor for nothing.
//! Underneath all of them, a buffer is one block: building a sized
//! `BytesMut` and freezing it is one allocation, and an empty buffer,
//! a slice or a freeze is none. Counts, not timings, so they hold on
//! any host — and fail the day someone adds a per-hop, per-layer,
//! per-LSA or per-proxy copy, or a second box per buffer.
//!
//! Its own test binary: the counting allocator below is this process's
//! `#[global_allocator]` and affects nothing else. Counters are
//! per-thread, so the tests here may run in parallel.

use bytes::{BufMut, Bytes, BytesMut};
use rf_core::discovery::{TopologyController, TopologyControllerConfig};
use rf_core::host::{HostConfig, HostStack, Received, VideoServer};
use rf_core::traffic::packet::TrafficHost;
use rf_core::vnet::vm::ospf_frame;
use rf_core::vnet::RfMessage;
use rf_flowvisor::{FlowVisor, SlicePolicy};
use rf_openflow::{
    Action, ErrorType, FlowModCommand, MessageReader, OfMatch, OfMessage, PacketKey,
    SwitchFeatures, OFPP_NONE, OFP_NO_BUFFER,
};
use rf_routed::config::OspfConfig;
use rf_routed::ospf::lsa::{Lsa, RouterLink, RouterLinkType, INITIAL_SEQ};
use rf_routed::ospf::packet::PacketWriter;
use rf_routed::ospf::{OspfDaemon, OspfEvent};
use rf_sim::queue::EventQueue;
use rf_sim::{
    Agent, AgentId, ConnId, Ctx, LinkProfile, Sim, SimConfig, StreamEvent, Time, TraceLevel, Tracer,
};
use rf_switch::{OpenFlowSwitch, SwitchConfig};
use rf_wire::{
    ArpPacket, EtherType, EthernetFrame, IcmpPacket, IpProtocol, Ipv4Cidr, Ipv4Packet, LldpPacket,
    MacAddr, UdpPacket,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::time::Duration;

/// What counts as "payload-sized": the frames below carry 1 KiB.
const BIG: usize = 1024;

thread_local! {
    // Const-initialised and without destructors: touching them from
    // inside the allocator neither allocates nor runs after teardown.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BIG_ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static REALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn note(size: usize) {
    if ARMED.with(Cell::get) {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        if size >= BIG {
            BIG_ALLOCATIONS.with(|c| c.set(c.get() + 1));
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller was promised; `note` only reads
// and writes this thread's `Cell`s.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        if ARMED.with(Cell::get) {
            REALLOCATIONS.with(|c| c.set(c.get() + 1));
        }
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocations, allocations of at least BIG bytes)` made by `f` on
/// this thread. A `realloc` counts as an allocation; how many of them
/// there were is [`reallocations`].
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    ALLOCATIONS.with(|c| c.set(0));
    BIG_ALLOCATIONS.with(|c| c.set(0));
    REALLOCATIONS.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    (
        r,
        ALLOCATIONS.with(Cell::get),
        BIG_ALLOCATIONS.with(Cell::get),
    )
}

/// The `realloc`s among the last [`counted`] call's allocations.
fn reallocations() -> usize {
    REALLOCATIONS.with(Cell::get)
}

const HOST_A: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 2);
const HOST_B: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 2);
const MAC_A: MacAddr = MacAddr([2, 0, 0, 0, 0, 0xA]);
const MAC_B: MacAddr = MacAddr([2, 0, 0, 0, 0, 0xB]);
const MAC_SW: MacAddr = MacAddr([2, 0, 0, 0, 1, 0]);
const HOST_A_CFG: HostConfig = HostConfig {
    mac: MAC_A,
    addr: Ipv4Cidr {
        addr: HOST_A,
        prefix_len: 24,
    },
    gateway: Ipv4Addr::new(10, 0, 1, 1),
};

/// A 1 KiB datagram from host A toward host B, addressed to the switch.
fn data_frame() -> Bytes {
    let udp = UdpPacket::new(7000, 7000, Bytes::from(vec![b'T'; BIG]));
    let ip = Ipv4Packet::new(HOST_A, HOST_B, IpProtocol::UDP, udp.emit(HOST_A, HOST_B));
    EthernetFrame::new(MAC_SW, MAC_A, EtherType::IPV4, ip.emit()).emit()
}

/// Installs the routed-hop flow the RF-controller installs per mirrored
/// route — `[SetDlSrc, SetDlDst, Output]` on a destination prefix — as
/// soon as the switch dials in.
#[derive(Clone)]
struct OneFlowController;

impl Agent for OneFlowController {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(6633);
    }
    fn on_stream(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, event: StreamEvent) {
        if let StreamEvent::Opened { .. } = event {
            ctx.conn_send(conn, OfMessage::Hello.encode(1));
            let flow = OfMessage::FlowMod {
                of_match: OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 0, 2, 0), 24),
                cookie: 0,
                command: FlowModCommand::Add,
                idle_timeout: 0,
                hard_timeout: 0,
                priority: 0x1000,
                buffer_id: OFP_NO_BUFFER,
                out_port: OFPP_NONE,
                flags: 0,
                actions: vec![
                    Action::SetDlSrc(MAC_SW),
                    Action::SetDlDst(MAC_B),
                    Action::output(2),
                ],
            };
            ctx.conn_send(conn, flow.encode(2));
        }
    }
}

/// Sends one of `frames` at each of `at`, keeps the last frame it
/// received.
#[derive(Clone, Default)]
struct Stub {
    /// Built ahead, each in its own buffer — as a host stack's are —
    /// so that sending allocates nothing.
    frames: Vec<Bytes>,
    at: Vec<Duration>,
    received: u32,
    last: Option<Bytes>,
}

impl Agent for Stub {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for at in &self.at {
            ctx.schedule(*at, 1);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.send_frame(1, self.frames.pop().expect("a frame per timer"));
    }
    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: u32, frame: Bytes) {
        self.received += 1;
        self.last = Some(frame);
    }
}

fn stub(sim: &Sim, id: AgentId) -> &Stub {
    sim.agent_as::<Stub>(id).expect("a stub")
}

/// One 1 KiB frame through one switch: classified — by the flow table's
/// exact-match cache, which the first two frames of the flow filled —
/// both MACs rewritten, sent on — without a payload-sized allocation,
/// because the switch is the frame's only owner and patches the 12
/// bytes in place.
#[test]
fn a_routed_hop_copies_no_frame() {
    let mut sim = Sim::new(SimConfig::default());
    let ctrl = sim.add_agent("controller", Box::new(OneFlowController));
    let sw = sim.add_agent(
        "sw1",
        Box::new(OpenFlowSwitch::new(SwitchConfig::new(1, 2, ctrl))),
    );
    // The first two frames warm the path up (the table's lookup order
    // and cache, the event queue's slots); the third is measured, in a
    // window that holds nothing else — the switch's port-status tick
    // falls on the half seconds.
    let a = sim.add_agent(
        "a",
        Box::new(Stub {
            frames: vec![data_frame(), data_frame(), data_frame()],
            at: [1200, 2200, 3200].map(Duration::from_millis).to_vec(),
            ..Stub::default()
        }),
    );
    let b = sim.add_agent("b", Box::new(Stub::default()));
    sim.add_link((sw, 1), (a, 1), LinkProfile::default());
    sim.add_link((sw, 2), (b, 1), LinkProfile::default());
    sim.run_until(Time::from_millis(3100));
    assert_eq!(stub(&sim, b).received, 2, "the flow forwards");
    let table = |sim: &Sim| {
        let table = sim.agent_as::<OpenFlowSwitch>(sw).unwrap().flow_table();
        (table.classified, table.cache_hits)
    };
    let (classified, hits) = table(&sim);

    let ((), allocations, big) = counted(|| sim.run_until(Time::from_millis(3400)));

    assert_eq!(stub(&sim, b).received, 3);
    assert_eq!(
        table(&sim),
        (classified + 1, hits + 1),
        "the third frame of the flow is answered by the switch's exact-match cache"
    );
    let got = EthernetFrame::parse_bytes(stub(&sim, b).last.as_ref().unwrap()).unwrap();
    assert_eq!((got.dst, got.src), (MAC_B, MAC_SW));
    assert_eq!(got.payload, data_frame().slice(14..));
    assert_eq!(big, 0, "payload-sized allocations on the hop");
    // The switch keeps its egress list between frames, the patched
    // frame goes back into the handle it came in, and each link crossed
    // opens a wheel slot with a warm bucket from the event queue's pool
    // (2 when each slot owned its own list; 4 with a list and a new
    // handle per hop as well).
    assert_eq!(
        allocations, 0,
        "allocations for one frame through one switch"
    );
}

/// A switch builds its match key from the frame where it lies: no
/// buffer, no handle.
#[test]
fn a_classification_allocates_nothing() {
    let eth = |ethertype, payload| EthernetFrame::new(MAC_SW, MAC_A, ethertype, payload).emit();
    let icmp = IcmpPacket::echo_request(1, 1, Bytes::from(vec![b'p'; 56])).emit();
    let frames = [
        ("udp", data_frame(), HOST_B),
        (
            "icmp",
            eth(
                EtherType::IPV4,
                Ipv4Packet::new(HOST_A, HOST_B, IpProtocol::ICMP, icmp).emit(),
            ),
            HOST_B,
        ),
        (
            "arp",
            eth(
                EtherType::ARP,
                ArpPacket::request(MAC_A, HOST_A, HOST_B).emit(),
            ),
            Ipv4Addr::UNSPECIFIED,
        ),
        (
            "lldp",
            eth(EtherType::LLDP, LldpPacket::discovery_probe(1, 1).emit()),
            Ipv4Addr::UNSPECIFIED,
        ),
    ];
    for (name, frame, nw_dst) in &frames {
        let (key, allocations, _) = counted(|| PacketKey::from_frame(1, frame));
        let key = key.expect("an Ethernet header");
        assert_eq!(allocations, 0, "{name}");
        // ... and it did read the IPv4 header of an IPv4 frame.
        assert_eq!(key.nw_dst, *nw_dst, "{name}");
    }
}

/// Taking a uniquely owned buffer back for writing and freezing it
/// again is free: the block changes hands, nothing is boxed or copied.
#[test]
fn patching_an_owned_buffer_allocates_nothing() {
    let frame = data_frame();
    let storage = frame.as_ptr();

    let (patched, allocations, _) = counted(|| {
        let mut open = frame.try_into_mut().expect("the only handle");
        open[..6].copy_from_slice(MAC_B.as_bytes());
        open.freeze()
    });

    assert_eq!(allocations, 0, "allocations per patch");
    assert_eq!(patched.as_ptr(), storage);
    assert_eq!(&patched[..6], MAC_B.as_bytes());
    assert_eq!(&patched[6..], &data_frame()[6..]);
}

/// The empty buffers share one static block, and a clone, a slice or
/// a freeze counts or moves a handle to a block that exists: none of
/// them allocates.
#[test]
fn handles_and_empty_buffers_allocate_nothing() {
    let frame = data_frame();
    let mut open = BytesMut::with_capacity(64);
    open.put_slice(&frame[..64]);

    assert_eq!(counted(Bytes::new).1, 0, "Bytes::new");
    assert_eq!(counted(BytesMut::new).1, 0, "BytesMut::new");
    assert_eq!(
        counted(|| Bytes::default().clone()).1,
        0,
        "a clone of Bytes::default"
    );
    assert_eq!(
        counted(|| drop(frame.slice(14..34))).1,
        0,
        "a slice and its drop"
    );
    let (frozen, allocations, _) = counted(|| open.freeze());
    assert_eq!(allocations, 0, "a freeze");
    assert_eq!(frozen[..], frame[..64]);
}

/// A buffer sized up front is its one allocation: filled to exactly
/// its capacity and frozen, it never grows.
#[test]
fn a_sized_buffer_filled_and_frozen_is_one_allocation() {
    for n in [1, 64, BIG, 9000] {
        let head = vec![b'h'; n / 2];

        let (frozen, allocations, _) = counted(|| {
            let mut buf = BytesMut::with_capacity(n);
            buf.put_slice(&head);
            buf.put_bytes(b't', n - head.len());
            buf.freeze()
        });

        assert_eq!((allocations, reallocations()), (1, 0), "{n} bytes");
        assert_eq!(frozen.len(), n);
    }
}

/// A traced run looks its named counters up by `&str`: only a name's
/// first increment allocates the key (one `String` per increment when
/// every call made its key).
#[test]
fn a_named_counter_allocates_only_on_its_first_increment() {
    let mut tracer = Tracer::new(TraceLevel::Info);

    let ((), first, _) = counted(|| tracer.count("x", 1));
    let ((), second, _) = counted(|| tracer.count("x", 1));

    assert!(first > 0, "the key and its map node");
    assert_eq!(second, 0, "allocations to count an existing name");
    assert_eq!(tracer.counters().get("x"), Some(&2));
}

/// Two 2-port switches, wired port for port, behind a FlowVisor whose
/// one slice is a topology controller: the paper's discovery loop.
/// Returns the simulation and the controller.
fn discovery_loop() -> (Sim, AgentId) {
    // As the benchmark runs: with tracing on, every `ctx.count` is a
    // `String`.
    let mut sim = Sim::new(SimConfig {
        trace_level: rf_sim::TraceLevel::Off,
        ..SimConfig::default()
    });
    let range = "172.31.0.0/16".parse().unwrap();
    let ctrl = sim.add_agent(
        "topo-ctrl",
        Box::new(TopologyController::new(TopologyControllerConfig::new(
            range,
        ))),
    );
    let fv = sim.add_agent(
        "flowvisor",
        Box::new(FlowVisor::new(vec![SlicePolicy::lldp_slice(
            "topology", ctrl, 6641,
        )])),
    );
    let switches = [1, 2].map(|dpid| {
        sim.add_agent(
            &format!("sw{dpid}"),
            Box::new(OpenFlowSwitch::new(SwitchConfig::new(dpid, 2, fv))),
        )
    });
    for port in [1, 2] {
        sim.add_link(
            (switches[0], port),
            (switches[1], port),
            LinkProfile::default(),
        );
    }
    (sim, ctrl)
}

fn controller(sim: &Sim, id: AgentId) -> &TopologyController {
    sim.agent_as::<TopologyController>(id)
        .expect("the controller")
}

/// One LLDP probe is five kernel events — controller → FlowVisor →
/// switch → link → neighbour → FlowVisor → controller — and one new
/// message: the PACKET_OUT leaving the controller, a copy of its
/// template in a block of its own. Everything else only passes the
/// messages on or reads them where they lie: FlowVisor checks the
/// PACKET_OUT's payload in place and writes its xid into the message
/// it received, the switch runs the action off the wire into the list
/// it keeps, the neighbour writes the next xid into the PACKET_IN it
/// sent last round (its only handle by then), and FlowVisor and the
/// controller read that PACKET_IN through a view. 1 allocation per
/// probe; 2 when the neighbour copied its PACKET_IN template and every
/// receiver decoded it, 4 when a buffer was a block and a box, 10 when
/// every hop decoded the message into owned lists and copied it to
/// change four bytes (this round of 4 probes: 4; 8, 15, 23 and 48
/// before, same harness, when each also paid 7 or 8 for the event
/// queue's first use of a wheel slot).
#[test]
fn an_lldp_probe_round_trip_allocates_for_one_message() {
    const PROBES: usize = 4;
    let (mut sim, ctrl) = discovery_loop();
    // The join probes and the rounds at 1 s and 2 s warm every path:
    // templates, reader buffers, the switch's egress list.
    sim.run_until(Time::from_millis(2900));
    assert_eq!(controller(&sim, ctrl).probe_rounds, 2);
    assert_eq!(controller(&sim, ctrl).links().len(), 2, "probes come back");
    let events = sim.events_dispatched();

    // The round at 3 s, with both switches' port-status ticks and the
    // controller's ageing pass in the window: the links stay up only
    // if this round's probes are heard.
    let ((), allocations, _) = counted(|| sim.run_until(Time::from_millis(3400)));

    assert_eq!(controller(&sim, ctrl).probe_rounds, 3);
    assert_eq!(sim.events_dispatched() - events, 5 * PROBES as u64 + 4);
    sim.run_until(Time::from_millis(6100));
    assert_eq!(controller(&sim, ctrl).links().len(), 2);
    // Nothing is the kernel's: a wheel slot takes a warm bucket from
    // the queue's pool.
    assert_eq!(
        allocations, PROBES,
        "allocations for a round of {PROBES} probes"
    );
}

/// A fork shares every block with the capture it was cloned from,
/// the neighbours' PACKET_IN templates among them. Its first round
/// writes no xid into those: each re-frame sees a second handle and
/// copies, so that round allocates one more block per probe, and the
/// copies become the fork's own templates — its next round is back to
/// one per probe. (The first round also regrows what a clone holds
/// empty: 4 event-queue buckets and the two switches' egress lists.)
/// The capture, run on afterwards, behaves as a twin that was never
/// forked: same events, same links, same discovery history.
#[test]
fn a_fork_copies_the_templates_it_shares_once() {
    const PROBES: usize = 4;
    let (mut capture, ctrl) = discovery_loop();
    capture.run_until(Time::from_millis(2900));
    let mut fork = capture.clone();

    let ((), first, _) = counted(|| fork.run_until(Time::from_millis(3400)));
    fork.run_until(Time::from_millis(3900));
    let ((), second, _) = counted(|| fork.run_until(Time::from_millis(4400)));

    assert_eq!(controller(&fork, ctrl).probe_rounds, 4);
    assert_eq!(
        (first, second),
        (2 * PROBES + 4 + 2, PROBES),
        "allocations for the fork's first two rounds of {PROBES} probes"
    );

    let (mut twin, _) = discovery_loop();
    for sim in [&mut capture, &mut fork, &mut twin] {
        sim.run_until(Time::from_millis(6100));
    }
    for (name, sim) in [("capture", &capture), ("fork", &fork)] {
        assert_eq!(
            sim.events_dispatched(),
            twin.events_dispatched(),
            "{name}: events"
        );
        let (got, want) = (controller(sim, ctrl), controller(&twin, ctrl));
        assert_eq!(got.links(), want.links(), "{name}: links");
        assert_eq!(got.events, want.events, "{name}: discovery history");
    }
    assert_eq!(controller(&twin, ctrl).links().len(), 2);
}

/// Answers what FlowVisor needs to bring a slice up, then every
/// PACKET_OUT naming a buffer with a bare BUFFER_UNKNOWN ERROR and every
/// FLOW_MOD with an ERROR that quotes it.
#[derive(Clone)]
struct ReplyingSwitch {
    fv: AgentId,
    reader: MessageReader,
}

impl Agent for ReplyingSwitch {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.connect(self.fv, 6633, rf_sim::ConnProfile::default());
    }
    fn on_stream(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, event: StreamEvent) {
        let data = match event {
            StreamEvent::Opened { .. } => return ctx.conn_send(conn, OfMessage::Hello.encode(0)),
            StreamEvent::Data(data) => data,
            StreamEvent::Closed => return,
        };
        self.reader.push_bytes(data);
        while let Some(Ok((msg, xid))) = self.reader.next() {
            let reply = match msg {
                OfMessage::FeaturesRequest => OfMessage::FeaturesReply(SwitchFeatures {
                    datapath_id: 1,
                    n_buffers: 0,
                    n_tables: 1,
                    capabilities: 0,
                    actions: 0,
                    ports: Vec::new(),
                }),
                OfMessage::PacketOut { buffer_id, .. } if buffer_id != OFP_NO_BUFFER => {
                    OfMessage::Error {
                        err_type: ErrorType::BadRequest,
                        code: 8, // OFPBRC_BUFFER_UNKNOWN
                        data: Bytes::new(),
                    }
                }
                OfMessage::FlowMod { .. } => OfMessage::Error {
                    err_type: ErrorType::FlowModFailed,
                    code: 0,
                    data: msg.encode(xid).slice(..64),
                },
                _ => continue,
            };
            ctx.conn_send(conn, reply.encode(xid));
        }
    }
}

/// Sends `requests[i]` at `at[i]` — an instant without a request is
/// an idle timer — and keeps the last chunk it received.
#[derive(Clone, Default)]
struct RequestingController {
    requests: Vec<Bytes>,
    at: Vec<Duration>,
    conn: Option<ConnId>,
    last: Option<Bytes>,
}

impl Agent for RequestingController {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(6641);
        for (token, at) in self.at.iter().enumerate() {
            ctx.schedule(*at, token as u64);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some(request) = self.requests.get(token as usize) {
            ctx.conn_send(self.conn.expect("FlowVisor dialed in"), request.clone());
        }
    }
    fn on_stream(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, event: StreamEvent) {
        match event {
            StreamEvent::Opened { .. } => {
                self.conn = Some(conn);
                ctx.conn_send(conn, OfMessage::Hello.encode(0));
            }
            StreamEvent::Data(data) => self.last = Some(data),
            StreamEvent::Closed => {}
        }
    }
}

/// A reply on its way back through FlowVisor — an ERROR quoting
/// nothing, an ERROR whose quoted request is a slice of the message —
/// is decoded
/// to be routed, let go of, and sent on in the buffer it arrived in
/// with the slice's own xid written over FlowVisor's. Nothing is
/// allocated: not a copy, not a handle, not a map entry (2 per reply
/// when the re-frame always copied).
#[test]
fn a_forwarded_reply_allocates_nothing() {
    let flow_mod = OfMessage::FlowMod {
        of_match: OfMatch::lldp(),
        cookie: 7,
        command: FlowModCommand::Add,
        idle_timeout: 0,
        hard_timeout: 0,
        priority: 1,
        buffer_id: OFP_NO_BUFFER,
        out_port: OFPP_NONE,
        flags: 0,
        actions: vec![Action::output(1)],
    };
    let buffered = OfMessage::PacketOut {
        buffer_id: 9,
        in_port: 1,
        actions: vec![Action::output(2)],
        data: Bytes::new(),
    };
    let requests = [
        // Two to warm up FlowVisor's readers, at 100 and 110 ms.
        buffered.encode(0x51),
        flow_mod.encode(0x52),
        // The two measured, at 200 and 300 ms.
        buffered.encode(0xB1),
        flow_mod.encode(0xE1),
    ];
    let mut sim = Sim::new(SimConfig::default());
    let ctrl = sim.add_agent(
        "ctrl",
        Box::new(RequestingController {
            requests: requests.to_vec(),
            // With an idle timer where each measured reply arrives: it
            // keeps the kernel's wheel slot for that instant open from
            // the start, so queueing the reply opens none.
            at: [100, 110, 200, 300, 204, 304]
                .map(Duration::from_millis)
                .to_vec(),
            ..RequestingController::default()
        }),
    );
    let fv = sim.add_agent(
        "flowvisor",
        Box::new(FlowVisor::new(vec![SlicePolicy::lldp_slice(
            "topology", ctrl, 6641,
        )])),
    );
    sim.add_agent(
        "sw1",
        Box::new(ReplyingSwitch {
            fv,
            reader: MessageReader::new(),
        }),
    );
    let last = |sim: &Sim| {
        let ctrl = sim.agent_as::<RequestingController>(ctrl).unwrap();
        OfMessage::decode(ctrl.last.as_ref().expect("a reply")).unwrap()
    };
    // A request sent at t reaches FlowVisor at t + 1 ms, the switch at
    // + 2, its reply FlowVisor at + 3 and the controller at + 4: the
    // window (t + 2.5, t + 3.5) holds FlowVisor's pass and nothing else.
    for (sent_ms, xid, quotes) in [(200, 0xB1, false), (300, 0xE1, true)] {
        sim.run_until(Time::from_nanos(sent_ms * 1_000_000 + 2_500_000));

        let ((), allocations, _) =
            counted(|| sim.run_until(Time::from_nanos(sent_ms * 1_000_000 + 3_500_000)));

        assert_eq!(allocations, 0, "allocations to forward reply {xid:#x}");
        sim.run_until(Time::from_nanos(sent_ms * 1_000_000 + 4_500_000));
        let (reply, reply_xid) = last(&sim);
        assert_eq!(reply_xid, xid, "routed back under the slice's own xid");
        match reply {
            // It quotes the FLOW_MOD as the switch saw it: under
            // FlowVisor's xid, not the slice's.
            OfMessage::Error { data, .. } if quotes => {
                assert_eq!(data[8..], flow_mod.encode(0)[8..64]);
            }
            OfMessage::Error { data, .. } => assert!(data.is_empty()),
            other => panic!("{other:?}"),
        }
    }
}

/// Host A's stack with its gateway (the switch) already resolved.
fn resolved_host() -> HostStack {
    let mut host = HostStack::new(HOST_A_CFG);
    let asked = ArpPacket::request(MAC_A, HOST_A, HOST_A_CFG.gateway);
    let answer = ArpPacket::reply_to(&asked, MAC_SW).emit();
    let answer = EthernetFrame::new(MAC_A, MAC_SW, EtherType::ARP, answer).emit();
    host.on_frame(&answer, |f| panic!("transmitted {f:?}"));
    assert!(host.is_resolved(HOST_B));
    host
}

/// A host sending 1 KiB to a resolved next hop allocates the frame and
/// nothing else of that size: headers are written around the payload in
/// the one buffer, the payload's parts copied into it where they lie.
#[test]
fn a_sent_datagram_is_one_buffer() {
    let mut host = resolved_host();
    let fill = [b'T'; BIG];
    let mut sent = None;

    let ((), allocations, big) = counted(|| {
        let payload: [&[u8]; 2] = [&fill[..32], &fill[32..]];
        host.send_udp(HOST_B, 7000, 7000, &payload, |f| sent = Some(f))
    });

    assert_eq!(sent, Some(data_frame()));
    assert_eq!(big, 1, "payload-sized allocations per sent datagram");
    // The frame's block: it goes to the sink as built.
    assert_eq!(allocations, 1, "allocations per sent datagram");
}

/// A received 1 KiB datagram reaches the application as a slice of the
/// frame it arrived in.
#[test]
fn a_received_datagram_is_a_view_of_its_frame() {
    let mut host = resolved_host();
    let udp = UdpPacket::new(7000, 7000, Bytes::from(vec![b'T'; BIG]));
    let ip = Ipv4Packet::new(HOST_B, HOST_A, IpProtocol::UDP, udp.emit(HOST_B, HOST_A));
    let frame = EthernetFrame::new(MAC_A, MAC_SW, EtherType::IPV4, ip.emit()).emit();

    let (got, allocations, _) = counted(|| host.on_frame(&frame, |f| panic!("transmitted {f:?}")));

    let Some(Received::Udp { src, payload, .. }) = got else {
        panic!("{got:?}");
    };
    assert_eq!((src, payload), (HOST_B, frame.slice(42..)));
    assert_eq!(allocations, 0, "allocations per received datagram");
}

/// A traffic server answering one 64 KiB request sends its 64 frames
/// straight from the stack to its link: one allocation per frame, the
/// frame's block, into which the header (on the stack) and the chunk
/// (a static fill) are written — two when the payload was built in a
/// block of its own first, four when each block was also a box — and
/// no list that grows with the flow.
#[test]
fn a_traffic_server_allocates_per_frame_not_per_flow() {
    const FRAMES: usize = 64;
    let mut sim = Sim::new(SimConfig::default());
    let server = sim.add_agent(
        "server",
        // Its ARP warm-ups fall after the window measured here.
        Box::new(TrafficHost::server(HOST_A_CFG, Duration::from_secs(10))),
    );
    let answer = ArpPacket::reply_to(
        &ArpPacket::request(MAC_A, HOST_A, HOST_A_CFG.gateway),
        MAC_SW,
    );
    let mut request = Vec::new();
    request.extend_from_slice(&7u64.to_be_bytes());
    request.extend_from_slice(&(FRAMES as u64 * 1024).to_be_bytes());
    let request = UdpPacket::new(7700, 7700, Bytes::from(request));
    let request = Ipv4Packet::new(
        HOST_B,
        HOST_A,
        IpProtocol::UDP,
        request.emit(HOST_B, HOST_A),
    );
    let gateway = sim.add_agent(
        "gateway",
        Box::new(Stub {
            // Popped from the back: the ARP answer first.
            frames: vec![
                EthernetFrame::new(MAC_A, MAC_SW, EtherType::IPV4, request.emit()).emit(),
                EthernetFrame::new(MAC_A, MAC_SW, EtherType::ARP, answer.emit()).emit(),
            ],
            at: vec![Duration::from_millis(10), Duration::from_millis(20)],
            ..Stub::default()
        }),
    );
    sim.add_link((gateway, 1), (server, 1), LinkProfile::default());
    // The request is in flight; nothing else is.
    sim.run_until(Time::from_millis(20));
    assert_eq!(stub(&sim, gateway).received, 1, "the server's boot ARP");

    let ((), allocations, big) = counted(|| sim.run_until(Time::from_millis(500)));

    assert_eq!(stub(&sim, gateway).received as usize, 1 + FRAMES);
    let report = sim
        .agent_as::<TrafficHost>(server)
        .expect("a host")
        .report();
    assert_eq!(report.frames_sent as usize, FRAMES);
    // The rest are the kernel's: event-queue buckets growing to hold
    // 64 frames in flight, two of them past 1 KiB. With a payload block
    // per frame this was 2 * FRAMES + 10 (2 * FRAMES + 2); with a list
    // per stack call, the collected flow and the request list, 337
    // (132).
    assert!(big <= FRAMES + 2, "{big} payload-sized allocations");
    assert!(
        allocations <= FRAMES + 10,
        "{allocations} allocations for a {FRAMES}-frame response"
    );
}

/// Runs a warmed sender for a tenth of a second, its gateway (a [`Stub`]
/// sending `frames` at `at`) answering on the other end of its link:
/// `(frames sent, allocations, payload-sized allocations)` in that
/// window.
fn steady_sender(
    sender: Box<dyn Agent>,
    frames: Vec<Bytes>,
    at: Vec<Duration>,
    sent: impl Fn(&Sim, AgentId) -> u64,
) -> (u64, usize, usize) {
    let mut sim = Sim::new(SimConfig::default());
    let sender = sim.add_agent("sender", sender);
    let gateway = sim.add_agent(
        "gateway",
        Box::new(Stub {
            frames,
            at,
            ..Stub::default()
        }),
    );
    sim.add_link((gateway, 1), (sender, 1), LinkProfile::default());
    // Mid-interval edges, long after the stream started: warm queue
    // buckets, nothing parked.
    sim.run_until(Time::from_nanos(2_105_000_000));
    let before = sent(&sim, sender);
    let ((), allocations, big) = counted(|| sim.run_until(Time::from_nanos(2_205_000_000)));
    (sent(&sim, sender) - before, allocations, big)
}

/// The gateway's unsolicited ARP answer to host A.
fn gateway_answer() -> Bytes {
    let answer = ArpPacket::reply_to(
        &ArpPacket::request(MAC_A, HOST_A, HOST_A_CFG.gateway),
        MAC_SW,
    );
    EthernetFrame::new(MAC_A, MAC_SW, EtherType::ARP, answer.emit()).emit()
}

/// A paced traffic source and the video server each send a data frame
/// as one allocation, the frame's block: the header is on the stack and
/// the fill static, so nothing is built ahead of the frame and copied
/// into it (two allocations each, both payload-sized, when the payload
/// was a block of its own).
#[test]
fn a_paced_frame_and_a_video_frame_are_one_allocation_each() {
    let paced = TrafficHost::paced(
        HOST_A_CFG,
        0,
        Duration::from_secs(2),
        Duration::from_secs(10),
        vec![HOST_B],
        Duration::from_millis(10),
    );
    let (frames, allocations, big) = steady_sender(
        Box::new(paced),
        vec![gateway_answer()],
        vec![Duration::from_millis(10)],
        |sim, id| {
            sim.agent_as::<TrafficHost>(id)
                .unwrap()
                .report()
                .frames_sent
        },
    );
    assert_eq!(frames, 10, "paced frames in the window");
    assert_eq!((allocations, big), (10, 10), "allocations per paced frame");

    let play = UdpPacket::new(5005, 5004, Bytes::from_static(b"PLAY"));
    let play = Ipv4Packet::new(HOST_B, HOST_A, IpProtocol::UDP, play.emit(HOST_B, HOST_A));
    let play = EthernetFrame::new(MAC_A, MAC_SW, EtherType::IPV4, play.emit()).emit();
    let (frames, allocations, big) = steady_sender(
        Box::new(VideoServer::new(HOST_A_CFG)),
        // Popped from the back: the ARP answer first.
        vec![play, gateway_answer()],
        vec![Duration::from_millis(10), Duration::from_millis(20)],
        |sim, id| sim.agent_as::<VideoServer>(id).unwrap().frames_sent,
    );
    assert!(frames >= 18, "{frames} video frames in the window");
    assert_eq!(
        (allocations, big),
        (frames as usize, frames as usize),
        "allocations per video frame"
    );
}

/// A hub router with `peers` point-to-point neighbours, each a daemon
/// of its own, brought from a cold start to Full and left at a quiet
/// instant: nothing in flight, nothing awaiting an ack.
struct Star {
    hub: OspfDaemon,
    peers: Vec<OspfDaemon>,
    now: Time,
}

const HUB_ID: u32 = 0x0A00_0001;

fn peer_id(i: usize) -> u32 {
    0x0A00_0100 + i as u32
}

/// The hub's address on the link to peer `i` (its interface `i + 1`),
/// and the peer's.
fn star_link(i: usize) -> (Ipv4Addr, Ipv4Addr) {
    let net = 0xAC1F_0000 + 4 * i as u32;
    (Ipv4Addr::from(net + 1), Ipv4Addr::from(net + 2))
}

fn star_daemon(router_id: u32, addrs: &[Ipv4Addr]) -> OspfDaemon {
    let cfg = OspfConfig {
        router_id: Ipv4Addr::from(router_id),
        networks: vec![("172.31.0.0/16".parse().unwrap(), 0)],
        hello_interval: 1,
        dead_interval: 4,
        ..OspfConfig::default()
    };
    let ifaces: Vec<(u16, Ipv4Cidr)> = (1..)
        .zip(addrs)
        .map(|(i, a)| (i, Ipv4Cidr::new(*a, 30)))
        .collect();
    OspfDaemon::from_config(&cfg, &ifaces)
}

impl Star {
    fn converged(peers: usize) -> Star {
        let hub_addrs: Vec<Ipv4Addr> = (0..peers).map(|i| star_link(i).0).collect();
        let mut star = Star {
            hub: star_daemon(HUB_ID, &hub_addrs),
            peers: (0..peers)
                .map(|i| star_daemon(peer_id(i), &[star_link(i).1]))
                .collect(),
            now: Time::ZERO,
        };
        // (peer, toward the hub?, OSPF bytes)
        let mut pipe: Vec<(usize, bool, Bytes)> = Vec::new();
        let mut sent = |peer: Option<usize>, events: Vec<OspfEvent>| {
            for ev in events {
                if let OspfEvent::Transmit { iface, packet, .. } = ev {
                    pipe.push((peer.unwrap_or(iface as usize - 1), peer.is_some(), packet));
                }
            }
            std::mem::take(&mut pipe)
        };
        let mut in_flight = sent(None, star.hub.start(star.now));
        for i in 0..peers {
            in_flight.extend(sent(Some(i), star.peers[i].start(star.now)));
        }
        while star.now < Time::from_millis(3500) {
            star.now += Duration::from_millis(1);
            for (peer, to_hub, packet) in std::mem::take(&mut in_flight) {
                let (hub_addr, peer_addr) = star_link(peer);
                in_flight.extend(if to_hub {
                    let iface = peer as u16 + 1;
                    sent(
                        None,
                        star.hub.handle_packet(iface, peer_addr, &packet, star.now),
                    )
                } else {
                    let events = star.peers[peer].handle_packet(1, hub_addr, &packet, star.now);
                    sent(Some(peer), events)
                });
            }
            in_flight.extend(sent(None, star.hub.tick(star.now)));
            for i in 0..peers {
                in_flight.extend(sent(Some(i), star.peers[i].tick(star.now)));
            }
        }
        assert!(in_flight.is_empty(), "a quiet instant between hello rounds");
        assert_eq!(star.hub.neighbors().len(), peers);
        assert!(star.hub.all_adjacencies_full());
        star
    }

    /// Peer 0 hands the hub `packet`; the hub's answer is framed the
    /// way its VM frames it. Returns how many frames left.
    fn hub_hears(&mut self, packet: &[u8]) -> usize {
        let events = self.hub.handle_packet(1, star_link(0).1, packet, self.now);
        let mut frames = 0;
        for ev in &events {
            if let OspfEvent::Transmit { iface, dst, packet } = ev {
                let src = star_link(*iface as usize - 1).0;
                std::hint::black_box(ospf_frame(1, *iface, src, *dst, packet));
                frames += 1;
            }
        }
        frames
    }
}

/// An update from peer 0 carrying one LSA of a router beyond it.
fn foreign_update() -> Bytes {
    let links = vec![RouterLink {
        link_type: RouterLinkType::Stub,
        link_id: 0x0A63_0000,
        link_data: 0xFFFF_FF00,
        metric: 10,
    }];
    let lsa = Lsa::router(0x63, INITIAL_SEQ, 0, links);
    PacketWriter::update(peer_id(0), &[(&lsa, lsa.header.age)]).finish()
}

/// A router that learns one new LSA floods it out of its k other
/// adjacencies as one payload and k frames around it, each one block
/// (1 + k; 2 + 2k when a `Bytes` was its storage and a box). On top:
/// the installed LSA's link list, the event list, and the ack with its
/// frame — four, whatever k is.
#[test]
fn a_flood_is_one_payload_and_a_frame_per_adjacency() {
    for k in [1, 4, 16] {
        let mut star = Star::converged(k + 1);
        let update = foreign_update();

        let (frames, allocations, _) = counted(|| star.hub_hears(&update));

        assert_eq!(frames, k + 1, "k floods and the ack");
        assert_eq!(star.hub.lsdb_len(), k + 3);
        assert_eq!(
            allocations,
            1 + k + 4,
            "allocations to flood out of {k} adjacencies"
        );
    }
}

/// Hearing the same update again costs the ack it is owed — its
/// payload, its frame, the event list (5 when a buffer was a block and
/// a box) — and nothing else: the LSA is
/// recognised from its header where it lies, no list of LSAs, links or
/// headers is built to find that out.
#[test]
fn a_duplicate_update_costs_only_its_ack() {
    let mut star = Star::converged(4);
    let update = foreign_update();
    star.hub_hears(&update);

    let (frames, allocations, _) = counted(|| star.hub_hears(&update));

    assert_eq!(frames, 1, "the ack");
    assert_eq!(allocations, 3, "allocations for a duplicate update");
}

/// In steady state a hello round re-sends the packets of the round
/// before: the daemon allocates the list it returns them in, and what
/// it returns is the same storage, so the VM's frame cache hits on a
/// 44-byte compare.
#[test]
fn a_steady_state_hello_round_encodes_nothing() {
    let mut star = Star::converged(4);
    let hello = |events: &[OspfEvent]| match events {
        [OspfEvent::Transmit { packet, .. }] => packet.as_ptr(),
        other => panic!("{other:?}"),
    };
    let peer = &mut star.peers[0];
    let last_round = peer.tick(peer.poll_at().unwrap());
    let due = peer.poll_at().unwrap();

    let (this_round, allocations, _) = counted(|| peer.tick(due));

    assert_eq!(hello(&this_round), hello(&last_round));
    assert_eq!(allocations, 1, "the event list");
    // The hub's four, in one list grown once.
    let due = star.hub.poll_at().unwrap();
    let (round, allocations, _) = counted(|| star.hub.tick(due));
    assert_eq!(round.len(), 4);
    assert_eq!(allocations, 1, "the event list");
}

/// An update from peer 0 that puts `far` more routers behind it: its
/// own router LSA, newer, now listing them, and one LSA from each, with
/// a /24 of its own.
fn routers_beyond_peer(far: usize) -> Bytes {
    let peer_addr = star_link(0).1;
    let link = |link_type, link_id, link_data| RouterLink {
        link_type,
        link_id,
        link_data,
        metric: 10,
    };
    let far_id = |i: usize| 0x0A00_1000 + i as u32;
    let mut peer_links = vec![
        link(RouterLinkType::PointToPoint, HUB_ID, u32::from(peer_addr)),
        link(RouterLinkType::Stub, 0xAC1F_0000, 0xFFFF_FFFC),
    ];
    peer_links.extend((0..far).map(|i| {
        link(
            RouterLinkType::PointToPoint,
            far_id(i),
            u32::from(peer_addr),
        )
    }));
    let mut lsas = vec![Lsa::router(peer_id(0), INITIAL_SEQ + 1000, 0, peer_links)];
    lsas.extend((0..far).map(|i| {
        let links = vec![
            link(RouterLinkType::PointToPoint, peer_id(0), far_id(i)),
            link(
                RouterLinkType::Stub,
                0x0A64_0000 + ((i as u32) << 8),
                0xFFFF_FF00,
            ),
        ];
        Lsa::router(far_id(i), INITIAL_SEQ, 0, links)
    }));
    let aged: Vec<(&Lsa, u16)> = lsas.iter().map(|l| (l, l.header.age)).collect();
    PacketWriter::update(peer_id(0), &aged).finish()
}

/// SPF reads the LSDB where it lies: the tick that runs it allocates the
/// same 11 times for 4, 16 or 64 routers — the dense index, its edge
/// offsets and edges, distances, first hops, heap, route candidates and
/// routes (8), the adjacency map, the copy of the routes the daemon
/// keeps, the event list. When SPF ran over a `BTreeMap` of cloned LSAs
/// it was 21, 62 and 181: every LSA's link list, and the search's
/// `HashMap`s regrowing with the graph.
#[test]
fn an_spf_run_copies_no_lsa() {
    let per_size: Vec<(usize, usize)> = [4, 16, 64]
        .into_iter()
        .map(|routers| {
            let mut star = Star::converged(1);
            star.hub_hears(&routers_beyond_peer(routers - 2));
            assert_eq!(star.hub.lsdb_len(), routers);
            let mut spf = None;
            for _ in 0..100 {
                let due = star.hub.poll_at().unwrap();
                let (events, allocations, _) = counted(|| star.hub.tick(due));
                let routes = events.iter().find_map(|ev| match ev {
                    OspfEvent::RoutesChanged(routes) => Some(routes.len()),
                    _ => None,
                });
                if let Some(routes) = routes {
                    assert!(routes > routers - 2, "every far /24 routed: {routes}");
                    spf = Some(allocations);
                    break;
                }
            }
            (routers, spf.expect("SPF ran"))
        })
        .collect();
    let (_, small) = per_size[0];
    assert_eq!(small, 11, "{per_size:?}");
    for &(routers, allocations) in &per_size {
        assert_eq!(
            allocations, small,
            "an SPF tick over {routers} routers: {per_size:?}"
        );
    }
}

/// A cold start is flooding. The 12 routers of a 4×8 leaf-spine, every
/// leaf adjacent to every spine, from nothing to all green under the
/// benchmark's knobs: 106 236 allocations over 10 657 kernel events
/// (9.97 per event) when every OSPF packet was three buffers out and a
/// tree of `Vec`s in, 46 761 (4.39) once a packet was one buffer out
/// and a view in, 44 353 (4.16) once its discovery loop forwarded LLDP
/// probes without copying them, 28 507 (2.67) once a buffer was one
/// block and not a block and a box, 27 433 (2.57) once the event
/// queue's wheel slots shared a pool of buckets and the RF-protocol and
/// FLOW_MOD batch encoders sized their buffers, 27 139 (2.55) once SPF
/// read the LSDB in place instead of cloning it, 25 844 (2.43) before
/// an RPC envelope was one buffer and 25 540 (2.40) after. The budget
/// is 27 139 plus 10 %: 29 853, 2.801 per event — under a third of the
/// first.
#[test]
fn a_cold_start_allocates_half_of_what_it_did() {
    let mut sc = rf_core::scenario::Scenario::on(rf_topo::leaf_spine(4, 8, 0))
        .fast_timers()
        .provision_width(8)
        .fib_batch(16)
        .trace_level(rf_sim::TraceLevel::Off)
        .start();

    let (green, allocations, _) = counted(|| sc.run_until_configured(Time::from_secs(120)));

    assert!(green.is_some(), "all green");
    let events = sc.sim.events_dispatched() as usize;
    assert!(
        1000 * allocations <= 2_801 * events,
        "{allocations} allocations over {events} kernel events"
    );
}

/// The two builders that started empty write into one buffer sized up
/// front: an RF-protocol `RouteAdd` is one allocation (3 when its body
/// grew in a buffer of its own and was copied behind the header), and
/// so is a batch of 16 FLOW_MODs (5 when the batch's buffer was
/// reserved one message at a time and regrew 4 times).
#[test]
fn a_route_add_and_a_flow_mod_batch_are_one_buffer_each() {
    let route = RfMessage::RouteAdd {
        prefix: Ipv4Cidr::new(Ipv4Addr::new(172, 31, 0, 4), 30),
        next_hop: Some(Ipv4Addr::new(172, 31, 0, 2)),
        out_iface: 1,
        metric: 20,
    };
    let (wire, allocations, _) = counted(|| route.encode());
    assert_eq!((allocations, reallocations()), (1, 0), "a RouteAdd");
    assert_eq!(wire.len(), 20);

    let batch: Vec<OfMessage> = (0..16)
        .map(|i| OfMessage::FlowMod {
            of_match: OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 0, i, 0), 24),
            cookie: 0,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 0x1000,
            buffer_id: OFP_NO_BUFFER,
            out_port: OFPP_NONE,
            flags: 0,
            actions: vec![
                Action::SetDlSrc(MAC_SW),
                Action::SetDlDst(MAC_B),
                Action::output(2),
            ],
        })
        .collect();
    let (wire, allocations, _) = counted(|| OfMessage::encode_batch(&batch, 1));
    assert_eq!(
        (allocations, reallocations()),
        (1, 0),
        "a 16-FLOW_MOD batch"
    );
    assert_eq!(wire.len(), 16 * 112);
}

/// An RPC envelope writes its header, then its body in place, then
/// patches the length: one allocation (a `LinkDetected` took 5, 3 of
/// them `realloc`s, when its body grew from an empty buffer and was
/// copied behind the header). An ICMP echo is sized up front: one
/// allocation (2 when its buffer started empty and regrew).
#[test]
fn an_rpc_envelope_and_an_icmp_echo_are_one_buffer_each() {
    let link = rf_rpc::Envelope::Request {
        req_id: 9,
        request: rf_rpc::RpcRequest::LinkDetected {
            a_dpid: 1,
            a_port: 2,
            b_dpid: 3,
            b_port: 1,
            subnet: Ipv4Cidr::new(Ipv4Addr::new(172, 31, 0, 0), 30),
            ip_a: Ipv4Addr::new(172, 31, 0, 1),
            ip_b: Ipv4Addr::new(172, 31, 0, 2),
        },
    };
    let ack = rf_rpc::Envelope::Ack(rf_rpc::RpcAck {
        req_id: 9,
        ok: true,
    });
    for (name, env, len) in [("a LinkDetected", link, 49), ("an ack", ack, 16)] {
        let (wire, allocations, _) = counted(|| rf_rpc::encode_envelope(&env));
        assert_eq!((allocations, reallocations()), (1, 0), "{name}");
        assert_eq!(wire.len(), len, "{name}");
    }

    let echo = IcmpPacket::echo_request(7, 3, Bytes::from(vec![b'E'; 56]));
    let (wire, allocations, _) = counted(|| echo.emit());
    assert_eq!((allocations, reallocations()), (1, 0), "an echo request");
    assert_eq!(wire.len(), 64);
}

/// rfbench's queue loop: 10 000 standing events, each pushed back a
/// little over 10 ms after it pops. Once the window has wrapped, a
/// million pop/re-push cycles allocate nothing. A clone — the queue of
/// a forked world — holds its live buckets at their lengths and the
/// pool's drained ones empty, and a million cycles on it regrow only
/// those: 45 allocations, 44 of them `realloc`s (3 818, 3 345 of them
/// `realloc`s, when every wheel slot owned a `Vec` and the clone
/// re-grew each slot it reached).
#[test]
fn a_cloned_queue_regrows_only_its_pool() {
    fn churn(queue: &mut EventQueue<u64>, cycles: usize) {
        for _ in 0..cycles {
            let (at, i) = queue.pop().expect("standing events");
            queue.push(at + Duration::from_nanos(10_000_000 + i % 1_000), i);
        }
    }
    let mut queue = EventQueue::new();
    for i in 0..10_000u64 {
        queue.push(Time::from_nanos(1_000 * i), i);
    }
    churn(&mut queue, 3_000_000);

    let ((), steady, _) = counted(|| churn(&mut queue, 1_000_000));
    let mut fork = queue.clone();
    let ((), forked, _) = counted(|| churn(&mut fork, 1_000_000));
    let forked_reallocs = reallocations();

    assert_eq!(steady, 0, "allocations to churn a warm queue");
    assert!(
        forked <= 64,
        "{forked} allocations ({forked_reallocs} reallocs) to churn a clone"
    );
    assert_eq!((queue.len(), fork.len()), (10_000, 10_000));
}
