//! Backpressure-aware control channels: one bounded, credit-metered
//! send queue per switch.
//!
//! Every OpenFlow message a stage sends toward a switch routes through
//! a `SwitchChannel`:
//!
//! * **Bounded queue.** `channel_capacity` caps how many messages may
//!   wait per switch (`None` = unbounded, the paper-faithful default).
//! * **Credits.** Each drain interval (`CHANNEL_DRAIN_TICK`) grants a
//!   channel `capacity` send credits; wire writes spend one credit per
//!   message, so a bounded channel drains at a bounded rate instead of
//!   blasting arbitrarily large bursts into one push.
//! * **Deferral.** When the queue is full the channel refuses the
//!   tail: the messages come back to the producer in
//!   [`SendOutcome::deferred`], and the producer retries them from a
//!   [`DeferBuffer`]. Nothing is dropped, so final FIBs are
//!   byte-identical to the unbounded run.
//! * **Stall faults.** `Fault::ChannelStall { dpid, from, until }`
//!   (carried here as [`ChannelStallWindow`]) freezes a channel's wire
//!   for a window of simulated time: offers keep queueing, nothing
//!   flushes, and the drain tick releases the backlog when the window
//!   closes.
//!
//! Every outcome is accounted in [`ControlState`]: `of_deferred`
//! (messages refused back to producers) and `of_queue_hwm` (deepest
//! queue observed). The stages and the engine's channel chores reach
//! the channels through one context, [`AppCtx`].

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

/// What happened to an offer of OpenFlow messages. Producers must
/// consume this — a deferred tail silently dropped is exactly the bug
/// the channel layer exists to surface.
#[must_use = "a deferred tail must be retried or deliberately shed"]
#[derive(Debug, Default)]
pub(crate) struct SendOutcome {
    /// Messages written to the wire during this offer. FIFO order means
    /// this may include backlog from earlier offers that flushed first.
    pub(crate) wired: usize,
    /// Messages the channel refused, in offer order. The caller retries
    /// them (before anything newer for the same switch, or per-switch
    /// ordering breaks).
    pub(crate) deferred: Vec<OfMessage>,
}

/// Timer token of the engine-owned channel drain tick. Fires only
/// while some up-channel holds queued messages; stages never see it.
pub(crate) const CHANNEL_DRAIN_TOKEN: u64 = 0xC4A7_0000_0000_0000;

/// The credit replenish / retry cadence of a blocked channel.
pub(crate) const CHANNEL_DRAIN_TICK: Duration = Duration::from_millis(25);

/// A producer-side retry backlog for messages a bounded channel
/// refused.
///
/// Both FLOW_MOD producers ([`super::fib_mirror::FibMirror`],
/// [`super::arp_proxy::ArpProxy`]) own one: refused tails park here per
/// switch, a timer retries them in order, and while a switch has
/// a backlog every new message for it joins the tail — so the wire
/// never sees reordering within one switch. One implementation, two
/// stages: the retry logic cannot diverge between them.
#[derive(Clone)]
pub(crate) struct DeferBuffer {
    /// Timer token of the retry tick (tokens share one namespace
    /// across a controller's stages, so each buffer gets its owner's).
    token: u64,
    /// Retry cadence.
    tick: Duration,
    backlog: BTreeMap<u64, Vec<OfMessage>>,
    tick_armed: bool,
}

impl DeferBuffer {
    pub(crate) fn new(token: u64, tick: Duration) -> DeferBuffer {
        DeferBuffer {
            token,
            tick,
            backlog: BTreeMap::new(),
            tick_armed: false,
        }
    }

    /// True while `dpid` has refused messages waiting — new traffic
    /// for it must be appended behind them to preserve order.
    pub(crate) fn is_backlogged(&self, dpid: u64) -> bool {
        self.backlog.get(&dpid).is_some_and(|q| !q.is_empty())
    }

    /// Park messages behind `dpid`'s backlog and arm the retry tick.
    pub(crate) fn park(&mut self, cx: &mut AppCtx<'_, '_>, dpid: u64, msgs: Vec<OfMessage>) {
        if msgs.is_empty() {
            return;
        }
        self.backlog.entry(dpid).or_default().extend(msgs);
        self.arm(cx);
    }

    /// Consume a channel outcome: park the refused tail (counted under
    /// `counter`) and arm the retry tick. Returns whether anything was
    /// wired.
    pub(crate) fn absorb(
        &mut self,
        cx: &mut AppCtx<'_, '_>,
        dpid: u64,
        outcome: SendOutcome,
        counter: &str,
    ) -> bool {
        let wired = outcome.wired > 0;
        if !outcome.deferred.is_empty() {
            cx.sim.count(counter, outcome.deferred.len() as u64);
            self.park(cx, dpid, outcome.deferred);
        }
        wired
    }

    /// Pull `dpid`'s backlog for a combined re-offer (the caller sends
    /// it ahead of any newer traffic, then `absorb`s the outcome).
    pub(crate) fn take(&mut self, dpid: u64) -> Vec<OfMessage> {
        self.backlog.remove(&dpid).unwrap_or_default()
    }

    /// Backlogged switches, in deterministic order.
    pub(crate) fn dpids(&self) -> Vec<u64> {
        self.backlog.keys().copied().collect()
    }

    /// The retry tick fired: the owner re-offers, and the next park
    /// arms it again.
    pub(crate) fn on_tick(&mut self) {
        self.tick_armed = false;
    }

    /// Drop a dead switch's backlog.
    pub(crate) fn forget(&mut self, dpid: u64) {
        self.backlog.remove(&dpid);
    }

    fn arm(&mut self, cx: &mut AppCtx<'_, '_>) {
        if !self.tick_armed {
            cx.sim.schedule(self.tick, self.token);
            self.tick_armed = true;
        }
    }
}

/// Per-switch bounded send state.
#[derive(Clone, Debug)]
pub(crate) struct SwitchChannel {
    /// Messages accepted but not yet on the wire.
    pub(crate) queue: VecDeque<OfMessage>,
    /// Send credits left in the current drain interval. Refilled to
    /// the channel capacity by the drain tick; unbounded channels hold
    /// `usize::MAX` and never run out.
    pub(crate) credits: usize,
}

impl SwitchChannel {
    fn new(capacity: Option<usize>) -> SwitchChannel {
        SwitchChannel {
            queue: VecDeque::new(),
            credits: capacity.unwrap_or(usize::MAX),
        }
    }
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

    /// Offer OpenFlow messages to `dpid`'s channel. They go to the
    /// wire at once, as one multi-message push, when the channel is up,
    /// un-stalled and has credits; otherwise they queue within the
    /// capacity bound, and past the bound the channel refuses the tail.
    /// Consume the outcome: a deferred message is the caller's to retry.
    pub(crate) fn send_of(&mut self, dpid: u64, msgs: Vec<OfMessage>) -> SendOutcome {
        let mut out = SendOutcome::default();
        if msgs.is_empty() {
            return out;
        }
        let capacity = self.config.channel_capacity;
        self.io
            .channels
            .entry(dpid)
            .or_insert_with(|| SwitchChannel::new(capacity));
        for msg in msgs {
            loop {
                let ch = self.io.channels.get_mut(&dpid).expect("channel exists");
                if capacity.is_none_or(|cap| ch.queue.len() < cap) {
                    ch.queue.push_back(msg);
                    self.state.of_queue_hwm = self.state.of_queue_hwm.max(ch.queue.len() as u64);
                    break;
                }
                // Full: a flush may free room (if credits remain and
                // the channel is neither down nor stalled).
                let before = ch.queue.len();
                out.wired += self.flush(dpid);
                if self.io.channels[&dpid].queue.len() < before {
                    continue;
                }
                self.state.of_deferred += 1;
                out.deferred.push(msg);
                break;
            }
        }
        out.wired += self.flush(dpid);
        out
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
            if !ch.queue.is_empty() {
                self.arm_drain(); // out of credits: wait for a refill
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
    /// can move. Re-arms itself while any up-channel still holds
    /// queued messages (a stalled window, a credit-capped backlog).
    pub(crate) fn drain_all(&mut self) {
        self.io.drain_armed = false;
        let capacity = self.config.channel_capacity;
        for ch in self.io.channels.values_mut() {
            ch.credits = capacity.unwrap_or(usize::MAX);
        }
        let dpids: Vec<u64> = self.io.channels.keys().copied().collect();
        for dpid in dpids {
            let _ = self.flush(dpid);
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
    use super::*;
    use rf_openflow::{Action, OfMessage, OFPP_NONE, OFP_NO_BUFFER};
    use rf_sim::{Agent, Sim, SimConfig};
    use std::sync::{Arc, Mutex};

    fn po(tag: u8) -> OfMessage {
        OfMessage::PacketOut {
            buffer_id: OFP_NO_BUFFER,
            in_port: OFPP_NONE,
            actions: vec![Action::output(1)],
            data: bytes::Bytes::from(vec![tag; 4]),
        }
    }

    /// Exercise the channel layer from inside a real dispatch (a `Ctx`
    /// only exists there). The harness agent runs `f` once on start and
    /// publishes the outcome through shared state.
    #[derive(Clone)]
    struct Harness {
        cfg: RfControllerConfig,
        out: Arc<Mutex<Vec<SendOutcome>>>,
        counters: Arc<Mutex<(u64, u64)>>, // deferred, hwm
        script: Vec<(u64, Vec<OfMessage>)>,
        /// Pretend this dpid's OF channel is up (conn id 0 — a real
        /// conn the harness opens to itself so writes are harmless).
        up_dpid: Option<u64>,
    }

    impl Agent for Harness {
        fn on_start(&mut self, ctx: &mut rf_sim::Ctx<'_>) {
            ctx.listen(9); // self-connection target
            let mut io = ChannelIo::new();
            if let Some(d) = self.up_dpid {
                let conn = ctx.connect(ctx.self_id(), 9, Default::default());
                io.dpid_of.insert(d, conn);
            }
            let mut state = ControlState::default();
            let script = std::mem::take(&mut self.script);
            for (dpid, msgs) in script {
                let outcome = AppCtx {
                    sim: ctx,
                    state: &mut state,
                    config: &self.cfg,
                    io: &mut io,
                }
                .send_of(dpid, msgs);
                self.out.lock().unwrap().push(outcome);
            }
            *self.counters.lock().unwrap() = (state.of_deferred, state.of_queue_hwm);
        }
    }

    fn run_script(
        capacity: Option<usize>,
        up_dpid: Option<u64>,
        script: Vec<(u64, Vec<OfMessage>)>,
    ) -> (Vec<SendOutcome>, (u64, u64)) {
        let out = Arc::new(Mutex::new(Vec::new()));
        let counters = Arc::new(Mutex::new((0, 0)));
        let mut sim = Sim::new(SimConfig::default());
        sim.add_agent(
            "harness",
            Box::new(Harness {
                cfg: RfControllerConfig {
                    channel_capacity: capacity,
                    ..RfControllerConfig::default()
                },
                out: Arc::clone(&out),
                counters: Arc::clone(&counters),
                script,
                up_dpid,
            }),
        );
        sim.run_until(rf_sim::Time::from_secs(1));
        let o = std::mem::take(&mut *out.lock().unwrap());
        let c = *counters.lock().unwrap();
        (o, c)
    }

    #[test]
    fn capacity_zero_defers_every_message() {
        let (outs, (deferred, hwm)) = run_script(
            Some(0),
            Some(1),
            vec![(1, vec![po(1), po(2)]), (1, vec![po(3)])],
        );
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].deferred.len(), 2);
        assert_eq!(outs[1].deferred.len(), 1);
        assert_eq!(outs[0].wired + outs[1].wired, 0);
        assert_eq!((deferred, hwm), (3, 0));
    }

    #[test]
    fn defer_returns_tail_in_order_when_channel_down() {
        // Channel down (no conn): nothing can flush, so a capacity-2
        // queue offered 5 messages keeps the first 2 and refuses 3.
        let (outs, (deferred, hwm)) =
            run_script(Some(2), None, vec![(5, (0..5).map(po).collect())]);
        assert_eq!(outs[0].wired, 0);
        assert_eq!(outs[0].deferred.len(), 3);
        assert_eq!(deferred, 3);
        assert_eq!(hwm, 2, "high-water mark is the capacity");
        // The refused tail preserves offer order (2, 3, 4).
        for (i, m) in outs[0].deferred.iter().enumerate() {
            let OfMessage::PacketOut { data, .. } = m else {
                panic!("packet-outs in, packet-outs back");
            };
            assert_eq!(data[0], 2 + i as u8);
        }
    }

    #[test]
    fn credits_meter_the_wire_but_unbounded_flows_freely() {
        // Up channel, capacity 2: the first offer wires 2 (spending
        // both credits), queues what fits, defers the rest.
        let (outs, (_, hwm)) = run_script(Some(2), Some(1), vec![(1, (0..6).map(po).collect())]);
        assert_eq!(outs[0].wired, 2, "capacity grants that many credits");
        assert_eq!(hwm, 2, "2 wired + a full queue of 2");
        assert_eq!(outs[0].deferred.len(), 2, "the rest bounces");
        // Unbounded: everything wires immediately.
        let (outs, (d, _)) = run_script(None, Some(1), vec![(1, (0..6).map(po).collect())]);
        assert_eq!(outs[0].wired, 6);
        assert!(outs[0].deferred.is_empty());
        assert_eq!(d, 0);
    }
}
