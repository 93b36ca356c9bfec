//! Allocation budget of the data plane's two per-packet steps: a routed
//! hop through a switch copies no frame, and a host sending a datagram
//! builds its frame in one buffer. Counts, not timings, so they hold on
//! any host — and fail the day someone adds a per-hop or per-layer
//! copy.
//!
//! Its own test binary: the counting allocator below is this process's
//! `#[global_allocator]` and affects nothing else. Counters are
//! per-thread, so the tests here may run in parallel.

use bytes::Bytes;
use rf_apps::{HostConfig, HostStack, StackOutput};
use rf_openflow::{Action, FlowModCommand, OfMatch, OfMessage, OFPP_NONE, OFP_NO_BUFFER};
use rf_sim::{Agent, AgentId, ConnId, Ctx, LinkProfile, Sim, SimConfig, StreamEvent, Time};
use rf_switch::{OpenFlowSwitch, SwitchConfig};
use rf_wire::{
    ArpPacket, EtherType, EthernetFrame, IpProtocol, Ipv4Cidr, Ipv4Packet, MacAddr, UdpPacket,
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
/// this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    ALLOCATIONS.with(|c| c.set(0));
    BIG_ALLOCATIONS.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    (
        r,
        ALLOCATIONS.with(Cell::get),
        BIG_ALLOCATIONS.with(Cell::get),
    )
}

const HOST_A: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 2);
const HOST_B: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 2);
const MAC_A: MacAddr = MacAddr([2, 0, 0, 0, 0, 0xA]);
const MAC_B: MacAddr = MacAddr([2, 0, 0, 0, 0, 0xB]);
const MAC_SW: MacAddr = MacAddr([2, 0, 0, 0, 1, 0]);

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

/// One 1 KiB frame through one switch: classified, looked up, both MACs
/// rewritten, sent on — without a payload-sized allocation, because the
/// switch is the frame's only owner and patches the 12 bytes in place.
#[test]
fn a_routed_hop_copies_no_frame() {
    let mut sim = Sim::new(SimConfig::default());
    let ctrl = sim.add_agent("controller", Box::new(OneFlowController));
    let sw = sim.add_agent(
        "sw1",
        Box::new(OpenFlowSwitch::new(SwitchConfig::new(1, 2, ctrl))),
    );
    // The first two frames warm the path up (the table's lookup order,
    // the event queue's slots); the third is measured, in a window that
    // holds nothing else — the switch's expiry tick falls on the half
    // seconds.
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

    let ((), allocations, big) = counted(|| sim.run_until(Time::from_millis(3400)));

    assert_eq!(stub(&sim, b).received, 3);
    let got = EthernetFrame::parse_bytes(stub(&sim, b).last.as_ref().unwrap()).unwrap();
    assert_eq!((got.dst, got.src), (MAC_B, MAC_SW));
    assert_eq!(got.payload, data_frame().slice(14..));
    assert_eq!(big, 0, "payload-sized allocations on the hop");
    // The switch's egress list and the patched frame's new handle, and
    // one event-queue slot per link crossed. Nothing else.
    assert!(
        allocations <= 4,
        "{allocations} allocations for one frame through one switch"
    );
}

/// A host sending 1 KiB to a resolved next hop allocates the frame and
/// nothing else of that size: headers are written around the payload in
/// the one buffer.
#[test]
fn a_sent_datagram_is_one_buffer() {
    let mut host = HostStack::new(HostConfig {
        mac: MAC_A,
        addr: Ipv4Cidr::new(HOST_A, 24),
        gateway: Ipv4Addr::new(10, 0, 1, 1),
    });
    let asked = ArpPacket::request(MAC_A, HOST_A, Ipv4Addr::new(10, 0, 1, 1));
    let answer = ArpPacket::reply_to(&asked, MAC_SW).emit();
    host.on_frame(&EthernetFrame::new(MAC_A, MAC_SW, EtherType::ARP, answer).emit());
    assert!(host.is_resolved(HOST_B));
    let payload = Bytes::from(vec![b'T'; BIG]);

    let (outs, allocations, big) = counted(|| host.send_udp(HOST_B, 7000, 7000, payload));

    let [StackOutput::Tx(frame)] = &outs[..] else {
        panic!("{outs:?}");
    };
    assert_eq!(*frame, data_frame());
    assert_eq!(big, 1, "payload-sized allocations per sent datagram");
    // The frame's buffer, its handle, and the output list.
    assert_eq!(allocations, 3, "allocations per sent datagram");
}
