//! Backpressure-aware control channels: one bounded, credit-metered
//! FIFO per switch.
//!
//! Every OpenFlow message a stage sends toward a switch routes through
//! a `SwitchChannel`, whose one FIFO holds every message that has not
//! reached the wire, in offer order, whichever stage offered it:
//!
//! * **Admitted window.** `channel_capacity` bounds the window, the
//!   first `capacity` entries of the FIFO (`None` = unbounded, the
//!   paper-faithful default).
//! * **Credits.** Each drain interval (`CHANNEL_DRAIN_TICK`) grants a
//!   channel `capacity` send credits; wire writes spend one credit per
//!   message, so a bounded channel drains at a bounded rate instead of
//!   blasting arbitrarily large bursts into one push.
//! * **Deferral.** A FLOW_MOD that arrives beyond the window waits
//!   behind it in the same FIFO, and the drain tick moves it on.
//!   Nothing that is state is dropped, so final FIBs are
//!   byte-identical to the unbounded run. A PACKET_OUT that would land
//!   beyond the window is data-plane traffic: it is shed
//!   (`rf.packet_out_shed`), and the protocol's own retry recovers.
//! * **Stall faults.** `Fault::ChannelStall { dpid, from, until }`
//!   (carried here as [`ChannelStallWindow`]) freezes a channel's wire
//!   for a window of simulated time: offers keep queueing, nothing
//!   flushes, and the drain tick releases the backlog when the window
//!   closes.
//!
//! Every outcome is accounted in [`ControlState`]: `of_deferred`
//! (a message landing beyond the window, and a FLOW_MOD again at every
//! drain tick that leaves it there) and `of_queue_hwm` (deepest
//! admitted window observed). The stages and the engine's channel
//! chores reach the channels through one context, [`AppCtx`].

use super::state::ControlState;
use crate::rfcontroller::RfControllerConfig;
use rf_openflow::OfMessage;
use rf_sim::{ConnId, Ctx, Time};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Duration;

/// A control-channel stall window: the OpenFlow channel to `dpid`
/// stops draining between `from` and `until` (simulated time from the
/// scenario epoch). Queues fill, offers defer, and the drain tick
/// releases the backlog once the window closes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelStallWindow {
    pub dpid: u64,
    pub from: Duration,
    pub until: Duration,
}

impl ChannelStallWindow {
    pub fn covers(&self, dpid: u64, now: Time) -> bool {
        self.dpid == dpid && now >= Time::ZERO + self.from && now < Time::ZERO + self.until
    }
}

/// Timer token of the engine-owned channel drain tick. Fires only
/// while some up-channel holds queued messages that a refill or the end
/// of a stall can move; stages never see it.
pub(crate) const CHANNEL_DRAIN_TOKEN: u64 = 0xC4A7_0000_0000_0000;

/// The credit replenish cadence of a blocked channel.
pub(crate) const CHANNEL_DRAIN_TICK: Duration = Duration::from_millis(25);

/// Per-switch bounded send state.
#[derive(Clone, Debug)]
pub(crate) struct SwitchChannel {
    /// Messages offered but not yet on the wire, in offer order: the
    /// admitted window, then the FLOW_MODs waiting beyond it.
    pub(crate) queue: VecDeque<OfMessage>,
    /// Send credits left in the current drain interval. Refilled to
    /// the channel capacity by the drain tick; unbounded channels hold
    /// `usize::MAX` and never run out.
    pub(crate) credits: usize,
}

/// The connection table the channel layer writes through. Keeping it
/// out of [`ControlState`] means stages never depend on transport
/// details: everything they send goes through the dpid-addressed
/// channels, which bound and meter the queues (and park messages while
/// a channel is down).
#[derive(Clone)]
pub(crate) struct ChannelIo {
    pub(crate) dpid_of: HashMap<u64, ConnId>,
    /// Per-switch bounded send channels (keyed deterministically; the
    /// drain tick iterates this map).
    pub(crate) channels: BTreeMap<u64, SwitchChannel>,
    /// True while a [`CHANNEL_DRAIN_TOKEN`] tick is scheduled.
    pub(crate) drain_armed: bool,
    pub(crate) xid: u32,
    /// Armed channel-stall windows (see
    /// [`ControlPlane::add_channel_stall`](super::ControlPlane::add_channel_stall)).
    pub(crate) stalls: Vec<ChannelStallWindow>,
}

impl ChannelIo {
    pub(crate) fn new() -> ChannelIo {
        ChannelIo {
            dpid_of: HashMap::new(),
            channels: BTreeMap::new(),
            drain_armed: false,
            xid: 1,
            stalls: Vec::new(),
        }
    }

    pub(crate) fn next_xid(&mut self) -> u32 {
        self.xid = self.xid.wrapping_add(1);
        self.xid
    }

    /// Reserve `n` consecutive xids; returns the first.
    fn take_xids(&mut self, n: u32) -> u32 {
        let first = self.xid.wrapping_add(1);
        self.xid = self.xid.wrapping_add(n);
        first
    }
}

/// What a stage, and the engine's channel chores (channel-up flush,
/// drain tick), work with: the simulator, the shared state, the
/// configuration and the connection table. Every send toward a switch
/// goes through its one set of channel methods, so the accounting
/// cannot diverge between paths.
pub(crate) struct AppCtx<'a, 'b> {
    pub(crate) sim: &'a mut Ctx<'b>,
    pub(crate) state: &'a mut ControlState,
    pub(crate) config: &'a RfControllerConfig,
    pub(crate) io: &'a mut ChannelIo,
}

impl AppCtx<'_, '_> {
    fn stalled(&self, dpid: u64) -> bool {
        let now = self.sim.now();
        self.io.stalls.iter().any(|w| w.covers(dpid, now))
    }

    /// The admitted window's bound (`usize::MAX` when unbounded).
    fn capacity(&self) -> usize {
        self.config.channel_capacity.unwrap_or(usize::MAX)
    }

    /// Offer OpenFlow messages to `dpid`'s FIFO. They go to the wire at
    /// once, as one multi-message push, when the channel is up,
    /// un-stalled and has credits; otherwise they wait in the admitted
    /// window, and past it a FLOW_MOD waits for the drain tick while a
    /// PACKET_OUT is shed. Returns the number of messages wired, which
    /// may include backlog from earlier offers that flushed first.
    pub(crate) fn send_of(&mut self, dpid: u64, msgs: Vec<OfMessage>) -> usize {
        if msgs.is_empty() {
            return 0;
        }
        let cap = self.capacity();
        self.io
            .channels
            .entry(dpid)
            .or_insert_with(|| SwitchChannel {
                queue: VecDeque::new(),
                credits: cap,
            });
        let mut wired = 0;
        for msg in msgs {
            if self.io.channels[&dpid].queue.len() >= cap {
                // Full: a flush may free room (if credits remain and
                // the channel is neither down nor stalled).
                wired += self.flush(dpid);
            }
            let ch = self.io.channels.get_mut(&dpid).expect("channel exists");
            if ch.queue.len() < cap {
                ch.queue.push_back(msg);
                self.state.of_queue_hwm = self.state.of_queue_hwm.max(ch.queue.len() as u64);
                continue;
            }
            self.state.of_deferred += 1;
            if matches!(msg, OfMessage::PacketOut { .. }) {
                self.sim.count("rf.packet_out_shed", 1);
            } else {
                ch.queue.push_back(msg);
            }
        }
        wired + self.flush(dpid)
    }

    /// Write as much of `dpid`'s queue as credits, stall state and the
    /// connection allow — as one multi-message push. Returns the number
    /// of messages wired.
    pub(crate) fn flush(&mut self, dpid: u64) -> usize {
        let Some(&conn) = self.io.dpid_of.get(&dpid) else {
            return 0; // channel down: the FEATURES_REPLY flush replays the queue
        };
        if self.stalled(dpid) {
            self.arm_drain();
            return 0;
        }
        let Some(ch) = self.io.channels.get_mut(&dpid) else {
            return 0;
        };
        let n = ch.queue.len().min(ch.credits);
        if n == 0 {
            // Out of credits: wait for a refill — unless the capacity is
            // 0, when no refill grants one and the queue waits for good.
            if !ch.queue.is_empty() && self.capacity() > 0 {
                self.arm_drain();
            }
            return 0;
        }
        let msgs: Vec<OfMessage> = ch.queue.drain(..n).collect();
        ch.credits -= n;
        let leftover = !ch.queue.is_empty();
        let first_xid = self.io.take_xids(n as u32);
        let wire = OfMessage::encode_batch(&msgs, first_xid);
        self.state.of_msgs_sent += n as u64;
        self.state.of_bytes_sent += wire.len() as u64;
        self.state.of_pushes += 1;
        self.sim.conn_send(conn, wire);
        if leftover {
            self.arm_drain();
        }
        n
    }

    /// The drain tick: refill every channel's credits and flush what
    /// can move. A FLOW_MOD the tick leaves beyond the window is
    /// deferred once more. Re-arms itself while any up-channel still
    /// holds queued messages a later tick can move (a stalled window, a
    /// credit-capped backlog); a capacity-0 channel has none.
    pub(crate) fn drain_all(&mut self) {
        self.io.drain_armed = false;
        let cap = self.capacity();
        for ch in self.io.channels.values_mut() {
            ch.credits = cap;
        }
        let dpids: Vec<u64> = self.io.channels.keys().copied().collect();
        for dpid in dpids {
            let _ = self.flush(dpid);
            let waiting = self.io.channels[&dpid].queue.len().saturating_sub(cap);
            self.state.of_deferred += waiting as u64;
        }
    }

    /// A switch died: its FIFO drops what waits beyond the window. The
    /// admitted part stays for the FEATURES_REPLY replay, should a
    /// switch re-attach with this dpid.
    pub(crate) fn drop_backlog(&mut self, dpid: u64) {
        let cap = self.capacity();
        if let Some(ch) = self.io.channels.get_mut(&dpid) {
            ch.queue.truncate(cap);
        }
    }

    fn arm_drain(&mut self) {
        if !self.io.drain_armed {
            self.io.drain_armed = true;
            self.sim.schedule(CHANNEL_DRAIN_TICK, CHANNEL_DRAIN_TOKEN);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::arp_proxy::ArpProxy;
    use super::super::fib_mirror::FibMirror;
    use super::*;
    use crate::rfcontroller::HostPortConfig;
    use rf_openflow::{Action, MessageReader, OfMatch, OfMessage, OFPP_NONE, OFP_NO_BUFFER};
    use rf_sim::{Agent, Sim, SimConfig, StreamEvent};
    use rf_wire::{ArpPacket, EtherType, EthernetFrame, Ipv4Cidr, MacAddr};
    use std::net::Ipv4Addr;
    use std::sync::{Arc, Mutex};

    fn po(tag: u8) -> OfMessage {
        OfMessage::PacketOut {
            buffer_id: OFP_NO_BUFFER,
            in_port: OFPP_NONE,
            actions: vec![Action::output(1)],
            data: bytes::Bytes::from(vec![tag; 4]),
        }
    }

    fn fm(tag: u8) -> OfMessage {
        OfMessage::FlowMod {
            of_match: OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 9, tag, 0), 24),
            cookie: u64::from(tag),
            command: rf_openflow::FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 1,
            buffer_id: OFP_NO_BUFFER,
            out_port: OFPP_NONE,
            flags: 0,
            actions: vec![],
        }
    }

    /// A FLOW_MOD by its destination, a PACKET_OUT by its tag byte.
    fn label(m: &OfMessage) -> String {
        match m {
            OfMessage::FlowMod { of_match, .. } => {
                let (addr, _) = of_match.nw_dst().expect("a route");
                addr.to_string()
            }
            OfMessage::PacketOut { data, .. } => format!("po{}", data[0]),
            other => format!("{other:?}"),
        }
    }

    /// One offer the harness makes at start: raw messages to a dpid, or
    /// a stage's own path — a route the FIB mirror mirrors onto dpid 1,
    /// or an ARP from a host on dpid 1's host port, which the ARP proxy
    /// learns (installing the host's /32); or dpid 1 dying.
    #[derive(Clone)]
    enum Offer {
        Msgs(u64, Vec<OfMessage>),
        Route(Ipv4Cidr),
        HostArp(Ipv4Addr),
        SwitchDown,
    }

    /// What a run left behind.
    #[derive(Default)]
    struct Seen {
        /// What the first offer wired at once.
        first_wired: usize,
        /// What reached the wire's far end, in arrival order.
        arrived: Vec<String>,
        /// What is still in dpid 1's FIFO at the end.
        queued: Vec<String>,
        deferred: u64,
        hwm: u64,
        /// Drain ticks that fired.
        ticks: u32,
        /// Whether a drain tick is pending at the end.
        drain_armed: bool,
    }

    /// Exercise the channel layer from inside a real dispatch (a `Ctx`
    /// only exists there). The harness makes its offers on start and
    /// answers the drain tick; dpid 1's channel is up when `up`,
    /// through a connection the harness opens to itself, whose far end
    /// it reads.
    #[derive(Clone)]
    struct Harness {
        cfg: RfControllerConfig,
        io: ChannelIo,
        state: ControlState,
        offers: Vec<Offer>,
        up: bool,
        reader: MessageReader,
        seen: Arc<Mutex<Seen>>,
    }

    impl Harness {
        fn with_cx(&mut self, ctx: &mut Ctx<'_>, f: impl FnOnce(&mut AppCtx<'_, '_>)) {
            let cx = &mut AppCtx {
                sim: ctx,
                state: &mut self.state,
                config: &self.cfg,
                io: &mut self.io,
            };
            f(cx);
            let mut seen = self.seen.lock().unwrap();
            seen.deferred = self.state.of_deferred;
            seen.hwm = self.state.of_queue_hwm;
            seen.drain_armed = self.io.drain_armed;
            seen.queued = self
                .io
                .channels
                .get(&1)
                .map(|c| c.queue.iter().map(label).collect())
                .unwrap_or_default();
        }
    }

    impl Agent for Harness {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.listen(9); // self-connection target
            if self.up {
                let conn = ctx.connect(ctx.self_id(), 9, Default::default());
                self.io.dpid_of.insert(1, conn);
            }
            self.state.port_peer.insert((1, 1), (2, 1));
            let offers = std::mem::take(&mut self.offers);
            let mut first = None;
            self.with_cx(ctx, |cx| {
                let host_mac = MacAddr([2, 0, 0, 0, 0, 7]);
                for offer in offers {
                    let wired = match offer {
                        Offer::Msgs(dpid, msgs) => cx.send_of(dpid, msgs),
                        Offer::Route(prefix) => {
                            FibMirror::default().on_route_add(cx, 1, prefix, 1);
                            0
                        }
                        Offer::HostArp(ip) => {
                            // Asks for a neighbour, not the gateway: the
                            // proxy learns the sender and answers nothing.
                            let arp = ArpPacket::request(host_mac, ip, Ipv4Addr::new(10, 1, 0, 99));
                            let frame = EthernetFrame::new(
                                MacAddr::BROADCAST,
                                host_mac,
                                EtherType::ARP,
                                arp.emit(),
                            );
                            ArpProxy.on_packet_in(cx, 1, 3, &frame.emit());
                            0
                        }
                        Offer::SwitchDown => {
                            cx.drop_backlog(1);
                            0
                        }
                    };
                    first.get_or_insert(wired);
                }
            });
            self.seen.lock().unwrap().first_wired = first.unwrap_or(0);
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            assert_eq!(
                token, CHANNEL_DRAIN_TOKEN,
                "the drain tick is the only timer"
            );
            self.seen.lock().unwrap().ticks += 1;
            self.with_cx(ctx, |cx| cx.drain_all());
        }

        fn on_stream(&mut self, _: &mut Ctx<'_>, _: ConnId, event: StreamEvent) {
            if let StreamEvent::Data(data) = event {
                self.reader.push_bytes(data);
                while let Some(Ok((m, _))) = self.reader.next() {
                    self.seen.lock().unwrap().arrived.push(label(&m));
                }
            }
        }
    }

    /// Run `offers` through a channel of `capacity` (dpid 1 up when
    /// `up`, its channel stalled over `stall`) for one simulated second.
    fn run(
        capacity: Option<usize>,
        up: bool,
        stall: Option<(u64, u64)>,
        offers: Vec<Offer>,
    ) -> (Seen, u64) {
        let seen = Arc::new(Mutex::new(Seen::default()));
        let mut io = ChannelIo::new();
        if let Some((from_ms, until_ms)) = stall {
            io.stalls.push(ChannelStallWindow {
                dpid: 1,
                from: Duration::from_millis(from_ms),
                until: Duration::from_millis(until_ms),
            });
        }
        let mut sim = Sim::new(SimConfig::default());
        sim.add_agent(
            "harness",
            Box::new(Harness {
                cfg: RfControllerConfig {
                    channel_capacity: capacity,
                    host_ports: vec![HostPortConfig {
                        dpid: 1,
                        port: 3,
                        subnet: Ipv4Cidr::new(Ipv4Addr::new(10, 1, 0, 0), 24),
                        gateway: Ipv4Addr::new(10, 1, 0, 1),
                    }],
                    ..RfControllerConfig::default()
                },
                io,
                state: ControlState::default(),
                offers,
                up,
                reader: MessageReader::new(),
                seen: Arc::clone(&seen),
            }),
        );
        sim.run_until(Time::from_secs(1));
        let shed = sim.tracer().counter("rf.packet_out_shed");
        let seen = std::mem::take(&mut *seen.lock().unwrap());
        (seen, shed)
    }

    fn labels(tags: impl IntoIterator<Item = u8>) -> Vec<String> {
        tags.into_iter().map(|t| label(&fm(t))).collect()
    }

    /// A capacity-0 channel never gets a credit, so no drain tick is
    /// armed for it: each waiting FLOW_MOD is deferred once, on arrival,
    /// and the controller is not woken to move nothing. A PACKET_OUT is
    /// shed, and counted once, as on any full channel.
    #[test]
    fn capacity_zero_wires_nothing() {
        let (seen, shed) = run(
            Some(0),
            true,
            None,
            vec![Offer::Msgs(1, vec![fm(1), fm(3)])],
        );
        assert!(seen.arrived.is_empty());
        assert_eq!(seen.queued, labels([1, 3]), "the FLOW_MODs wait, in order");
        assert_eq!(seen.deferred, 2, "each counted once, on arrival");
        assert_eq!((seen.ticks, seen.drain_armed), (0, false), "no drain tick");
        assert_eq!((seen.hwm, shed), (0, 0));
        let (seen, shed) = run(Some(0), true, None, vec![Offer::Msgs(1, vec![po(2)])]);
        assert_eq!((seen.deferred, shed), (1, 1), "the PACKET_OUT is shed");
        assert!(seen.queued.is_empty());
        assert_eq!((seen.ticks, seen.drain_armed), (0, false));
    }

    #[test]
    fn a_down_channel_keeps_the_tail_behind_its_window_in_order() {
        // Channel down (no conn): nothing can flush and no drain tick
        // runs, so a capacity-2 FIFO offered 5 FLOW_MODs admits 2 and
        // holds 3 beyond the window, each deferred once.
        let (seen, _) = run(
            Some(2),
            false,
            None,
            vec![Offer::Msgs(1, (0..5).map(fm).collect())],
        );
        assert_eq!(seen.first_wired, 0);
        assert_eq!(seen.queued, labels(0..5));
        assert_eq!(seen.deferred, 3);
        assert_eq!(seen.hwm, 2, "high-water mark is the capacity");
    }

    #[test]
    fn a_dead_switch_keeps_only_its_window() {
        let offers = vec![Offer::Msgs(1, (0..5).map(fm).collect()), Offer::SwitchDown];
        let (seen, _) = run(Some(2), false, None, offers);
        assert_eq!(seen.queued, labels(0..2), "the window stays for the replay");
    }

    #[test]
    fn credits_meter_the_wire_but_unbounded_flows_freely() {
        // Up channel, capacity 2: the first offer wires 2 (spending both
        // credits), admits 2 more and holds the last 2 beyond the
        // window; the drain ticks move them on, 2 per tick.
        let (seen, _) = run(
            Some(2),
            true,
            None,
            vec![Offer::Msgs(1, (0..6).map(fm).collect())],
        );
        assert_eq!(seen.first_wired, 2, "capacity grants that many credits");
        assert_eq!(seen.hwm, 2);
        assert_eq!(seen.deferred, 2, "moved into the window by the first tick");
        assert_eq!(seen.arrived, labels(0..6), "every message, in offer order");
        // Unbounded: everything wires immediately.
        let (seen, _) = run(
            None,
            true,
            None,
            vec![Offer::Msgs(1, (0..6).map(fm).collect())],
        );
        assert_eq!(seen.first_wired, 6);
        assert_eq!(seen.deferred, 0);
    }

    #[test]
    fn flow_mods_of_both_stages_leave_in_offer_order() {
        let route = |n: u8| Offer::Route(Ipv4Cidr::new(Ipv4Addr::new(10, 50, n, 0), 24));
        let host = |n: u8| Offer::HostArp(Ipv4Addr::new(10, 1, 0, n));
        let offers = vec![route(1), host(11), route(2), host(12), route(3), host(13)];
        let want = [
            "10.50.1.0",
            "10.1.0.11",
            "10.50.2.0",
            "10.1.0.12",
            "10.50.3.0",
            "10.1.0.13",
        ];
        for capacity in [None, Some(1), Some(2)] {
            let (seen, _) = run(capacity, true, None, offers.clone());
            assert_eq!(seen.arrived, want, "capacity {capacity:?}");
            assert!(seen.queued.is_empty());
        }
    }

    #[test]
    fn a_packet_out_beyond_the_window_is_shed_and_counted_once() {
        // A stalled channel keeps its window full and the drain tick
        // running: the PACKET_OUT is shed on arrival and never counted
        // again; the FLOW_MOD ahead of it lands after the stall.
        let (seen, shed) = run(
            Some(1),
            true,
            Some((0, 100)),
            vec![Offer::Msgs(1, vec![fm(1), po(2)])],
        );
        assert_eq!(shed, 1);
        assert_eq!(seen.deferred, 1);
        assert_eq!(seen.arrived, labels([1]));
    }

    #[test]
    fn a_waiting_flow_mod_counts_once_per_drain_tick() {
        // Capacity 1, stalled until 100 ms: FLOW_MODs 1 and 2 land
        // beyond the window (2), wait out the ticks at 25, 50 and 75 ms
        // (2 each), and the tick at 100 ms wires FLOW_MOD 0 and leaves
        // one beyond the window (1).
        let (seen, _) = run(
            Some(1),
            true,
            Some((0, 100)),
            vec![Offer::Msgs(1, (0..3).map(fm).collect())],
        );
        assert_eq!(seen.deferred, 2 + 3 * 2 + 1);
        assert_eq!(seen.hwm, 1);
        assert_eq!(seen.arrived, labels(0..3));
    }
}
