//! Flow-level fast path: one event per flow start/stop instead of one
//! per frame.
//!
//! The engine models every endpoint as sitting behind an access link of
//! `capacity_bps` (the fabric's configured bandwidth), and shares those
//! links among concurrent bounded flows by **max-min fairness** —
//! progressive water-filling over a `BTreeMap` of `(endpoint,
//! direction)` resources, so iteration order (and therefore every f64
//! operation order) is a pure function of the workload, never of hash
//! seeds. This matches the packet level well precisely where the packet
//! level congests: at access links, which is where request/response
//! fan-in and SCDP-style incast pile up. Cross-fabric contention is not
//! modeled; validation in `tests/traffic.rs` therefore uses patterns
//! whose bottleneck is an access link.
//!
//! Demand comes from the *same* seeded [`ArrivalStream`]/[`WaveStream`]
//! generators the packet agents use, drawn in the same order — offered
//! load is identical between granularities by construction.
//!
//! Paced (multicast) streams are handled analytically: they reserve no
//! state per frame, and their sent/delivered counts are closed-form
//! functions of the clock. They assume the configured rates fit the
//! links — matrix knobs keep paced streams under capacity.

use super::demand::{ArrivalStream, WaveStream};
use super::report::TrafficReport;
use super::spec::{TrafficShape, TrafficSpec};
use super::{
    chunk_wire_bytes, endpoint_seed, frames_for, paced_interval, wire_bytes, STACK_OVERHEAD,
};
use rf_sim::{Agent, Ctx, Time};
use std::collections::BTreeMap;
use std::time::Duration;

const T_STEP: u64 = 1;
/// Wire bytes of one request frame (16-byte request + framing).
const REQ_WIRE_BYTES: u64 = 16 + STACK_OVERHEAD;
/// A flow with less than half a byte left is done (absorbs f64 drift).
const DONE_EPS: f64 = 0.5;

/// Serialization time of `bytes` at `capacity_bps`, in nanoseconds
/// (zero on infinite-bandwidth links).
fn ser_ns(bytes: u64, capacity_bps: u64) -> u64 {
    (bytes * 8)
        .saturating_mul(1_000_000_000)
        .checked_div(capacity_bps)
        .unwrap_or(0)
}

/// One source endpoint's bounded-flow generator.
#[derive(Clone)]
enum Gen {
    /// Request/response client: arrivals here, data flows back from
    /// `src_ep` after a one-way request delay.
    Arrivals {
        stream: ArrivalStream,
        req_delay_ns: u64,
    },
    /// Incast sender: waves blast immediately.
    Waves { stream: WaveStream },
}

impl Gen {
    fn next(&mut self) -> Option<(Duration, u64)> {
        match self {
            Gen::Arrivals { stream, .. } => stream.next(),
            Gen::Waves { stream } => stream.next(),
        }
    }

    fn req_delay_ns(&self) -> u64 {
        match self {
            Gen::Arrivals { req_delay_ns, .. } => *req_delay_ns,
            Gen::Waves { .. } => 0,
        }
    }
}

/// Static per-generator routing: which endpoints the data flow uses
/// and how many link hops it crosses.
#[derive(Clone, Copy)]
struct GenRoute {
    src_ep: usize,
    dst_ep: usize,
    hops: u32,
}

/// A bounded flow in flight.
#[derive(Clone)]
struct ActiveFlow {
    src_ep: usize,
    dst_ep: usize,
    hops: u32,
    data_total: u64,
    wire_total: f64,
    remaining_wire: f64,
    started_ns: u64,
    /// Current max-min rate in bits per second.
    rate_bps: f64,
}

/// An analytic paced stream: one multicast branch.
#[derive(Clone, Copy)]
struct PacedStream {
    interval_ns: u64,
    /// Source-to-sink frame latency (hops × (latency + serialization)).
    lat_ns: u64,
}

impl PacedStream {
    /// Frames on the wire at `now`, given the `[start, stop)` window.
    fn sent(&self, now_ns: u64, start_ns: u64, stop_ns: u64) -> u64 {
        if now_ns < start_ns {
            return 0;
        }
        let total = (stop_ns - start_ns - 1) / self.interval_ns + 1;
        ((now_ns - start_ns) / self.interval_ns + 1).min(total)
    }

    /// Frames arrived at the sink by `now`: what was sent one stream
    /// latency ago.
    fn delivered(&self, now_ns: u64, start_ns: u64, stop_ns: u64) -> u64 {
        self.sent(now_ns.saturating_sub(self.lat_ns), start_ns, stop_ns)
    }
}

/// Scheduled discrete event, keyed by `(time, insertion seq)`.
#[derive(Clone)]
enum Ev {
    /// A generator's next flow materializes (offered load is counted
    /// here, matching the packet clients).
    Arrival { gen: usize, bytes: u64 },
    /// The source starts blasting (request has crossed the network).
    Xfer {
        gen: usize,
        bytes: u64,
        flow_id: u64,
    },
}

/// Everything that evolves — kept in one `Clone`-able core so
/// [`FlowLevelEngine::report_at`] can advance a scratch copy to the
/// harvest instant without mutating the live engine.
#[derive(Clone)]
struct Core {
    capacity_bps: u64,
    latency_ns: u64,
    start_ns: u64,
    stop_ns: u64,
    gens: Vec<Gen>,
    routes: Vec<GenRoute>,
    flow_seqs: Vec<u64>,
    queue: BTreeMap<(u64, u64), Ev>,
    seq: u64,
    flows: BTreeMap<u64, ActiveFlow>,
    paced: Vec<PacedStream>,
    cursor_ns: u64,
    offered_bytes: u64,
    delivered_bytes: u64,
    flows_started: u64,
    flows_completed: u64,
    frames_sent: u64,
    frames_delivered: u64,
    fct_ns: Vec<u64>,
}

impl Core {
    fn push_ev(&mut self, at_ns: u64, ev: Ev) {
        self.queue.insert((at_ns, self.seq), ev);
        self.seq += 1;
    }

    /// Queue a generator's next arrival, if it has one.
    fn arm_gen(&mut self, gen: usize) {
        if let Some((at, bytes)) = self.gens[gen].next() {
            self.push_ev(at.as_nanos() as u64, Ev::Arrival { gen, bytes });
        }
    }

    /// Propagation + store-and-forward tail after the last byte leaves
    /// the source: each hop adds latency, and every hop past the first
    /// re-serializes the final frame.
    fn tail_ns(&self, hops: u32) -> u64 {
        u64::from(hops) * self.latency_ns
            + u64::from(hops.saturating_sub(1)) * ser_ns(chunk_wire_bytes(), self.capacity_bps)
    }

    fn complete(&mut self, flow_id: u64, done_ns: u64) {
        let f = self.flows.remove(&flow_id).expect("completing a live flow");
        self.delivered_bytes += f.data_total;
        self.frames_delivered += frames_for(f.data_total);
        self.flows_completed += 1;
        self.fct_ns
            .push(done_ns.saturating_sub(f.started_ns) + self.tail_ns(f.hops));
    }

    /// Max-min water-fill over access-link resources. `(endpoint, dir)`
    /// keys (dir 0 = tx, 1 = rx) in a BTreeMap keep the fill order —
    /// and with it every floating-point result — deterministic.
    fn recompute_rates(&mut self) {
        if self.capacity_bps == 0 || self.flows.is_empty() {
            return;
        }
        let mut cap: BTreeMap<(usize, u8), f64> = BTreeMap::new();
        let mut users: BTreeMap<(usize, u8), Vec<u64>> = BTreeMap::new();
        for (&id, f) in &self.flows {
            for r in [(f.src_ep, 0u8), (f.dst_ep, 1u8)] {
                cap.entry(r).or_insert(self.capacity_bps as f64);
                users.entry(r).or_default().push(id);
            }
        }
        let mut unassigned: BTreeMap<u64, ()> = self.flows.keys().map(|&id| (id, ())).collect();
        while !unassigned.is_empty() {
            // The bottleneck: smallest fair share among live resources.
            let mut best: Option<((usize, u8), f64)> = None;
            for (&r, ids) in &users {
                let live = ids.iter().filter(|id| unassigned.contains_key(id)).count();
                if live == 0 {
                    continue;
                }
                let share = cap[&r] / live as f64;
                if best.is_none_or(|(_, s)| share < s) {
                    best = Some((r, share));
                }
            }
            let Some((bottleneck, share)) = best else {
                break;
            };
            let assigned: Vec<u64> = users[&bottleneck]
                .iter()
                .copied()
                .filter(|id| unassigned.contains_key(id))
                .collect();
            for id in assigned {
                let f = self.flows.get_mut(&id).expect("live flow");
                f.rate_bps = share;
                for r in [(f.src_ep, 0u8), (f.dst_ep, 1u8)] {
                    if r != bottleneck {
                        *cap.get_mut(&r).expect("resource present") -= share;
                    }
                }
                unassigned.remove(&id);
            }
        }
    }

    /// Earliest completion among in-flight flows, as `(flow_id, ns)`.
    fn next_completion(&self) -> Option<(u64, f64)> {
        let mut best: Option<(u64, f64)> = None;
        for (&id, f) in &self.flows {
            let dt = f.remaining_wire * 8.0 * 1e9 / f.rate_bps;
            let at = self.cursor_ns as f64 + dt;
            if best.is_none_or(|(_, t)| at < t) {
                best = Some((id, at));
            }
        }
        best
    }

    /// Drain in-flight flows up to `target_ns`, firing completions.
    fn advance_to(&mut self, target_ns: u64) {
        while self.cursor_ns < target_ns {
            if self.flows.is_empty() {
                self.cursor_ns = target_ns;
                return;
            }
            let (first_id, done_at) = self.next_completion().expect("flows is non-empty");
            if done_at <= target_ns as f64 {
                let dt = done_at - self.cursor_ns as f64;
                for f in self.flows.values_mut() {
                    f.remaining_wire -= f.rate_bps * dt / 8e9;
                }
                // The argmin flow is done by construction; f64 drift
                // must not strand it.
                self.flows
                    .get_mut(&first_id)
                    .expect("live flow")
                    .remaining_wire = 0.0;
                let done_ns = (done_at.ceil() as u64).min(target_ns);
                let done: Vec<u64> = self
                    .flows
                    .iter()
                    .filter(|(_, f)| f.remaining_wire <= DONE_EPS)
                    .map(|(&id, _)| id)
                    .collect();
                for id in done {
                    self.complete(id, done_ns);
                }
                self.recompute_rates();
                self.cursor_ns = self.cursor_ns.max(done_ns);
            } else {
                let dt = (target_ns - self.cursor_ns) as f64;
                for f in self.flows.values_mut() {
                    f.remaining_wire -= f.rate_bps * dt / 8e9;
                }
                self.cursor_ns = target_ns;
            }
        }
    }

    fn handle(&mut self, at_ns: u64, ev: Ev) {
        match ev {
            Ev::Arrival { gen, bytes } => {
                self.flows_started += 1;
                self.offered_bytes += bytes;
                let flow_id = ((gen as u64 + 1) << 32) | self.flow_seqs[gen];
                self.flow_seqs[gen] += 1;
                self.push_ev(
                    at_ns + self.gens[gen].req_delay_ns(),
                    Ev::Xfer {
                        gen,
                        bytes,
                        flow_id,
                    },
                );
                self.arm_gen(gen);
            }
            Ev::Xfer {
                gen,
                bytes,
                flow_id,
            } => {
                self.frames_sent += frames_for(bytes);
                let route = self.routes[gen];
                if self.capacity_bps == 0 {
                    // Infinite bandwidth: the flow lands after pure
                    // propagation.
                    self.delivered_bytes += bytes;
                    self.frames_delivered += frames_for(bytes);
                    self.flows_completed += 1;
                    self.fct_ns.push(self.tail_ns(route.hops));
                    return;
                }
                let wire = wire_bytes(bytes) as f64;
                self.flows.insert(
                    flow_id,
                    ActiveFlow {
                        src_ep: route.src_ep,
                        dst_ep: route.dst_ep,
                        hops: route.hops,
                        data_total: bytes,
                        wire_total: wire,
                        remaining_wire: wire,
                        started_ns: at_ns,
                        rate_bps: self.capacity_bps as f64,
                    },
                );
                self.recompute_rates();
            }
        }
    }

    /// Process everything due at or before `now_ns` — queue events in
    /// `(time, seq)` order, interleaved with fluid completions.
    fn step_to(&mut self, now_ns: u64) {
        while let Some((&(at, sk), _)) = self.queue.first_key_value() {
            if at > now_ns {
                break;
            }
            self.advance_to(at);
            let ev = self.queue.remove(&(at, sk)).expect("peeked key");
            self.handle(at, ev);
        }
        self.advance_to(now_ns);
    }

    /// When the engine next needs the clock, strictly after `now_ns`.
    fn next_wake(&self, now_ns: u64) -> Option<u64> {
        let q = self.queue.first_key_value().map(|((at, _), _)| *at);
        let c = self.next_completion().map(|(_, at)| at.ceil() as u64);
        match (q, c) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
        .map(|t| t.max(now_ns + 1))
    }

    /// Assemble the report for the clock at `now_ns` (consumes the
    /// core's recorded counters; call on a scratch clone).
    fn report(&self, now_ns: u64) -> TrafficReport {
        let mut r = TrafficReport {
            offered_bytes: self.offered_bytes,
            delivered_bytes: self.delivered_bytes,
            flows_started: self.flows_started,
            flows_completed: self.flows_completed,
            frames_sent: self.frames_sent,
            frames_delivered: self.frames_delivered,
            fct_ns: self.fct_ns.clone(),
            frame_latency_ns: Vec::new(),
        };
        // In-flight flows count their delivered prefix, like a packet
        // sink that has accepted some frames of an unfinished flow.
        for f in self.flows.values() {
            let frac = (1.0 - f.remaining_wire / f.wire_total).clamp(0.0, 1.0);
            r.delivered_bytes += (f.data_total as f64 * frac) as u64;
            r.frames_delivered += (frames_for(f.data_total) as f64 * frac) as u64;
        }
        // Paced streams are closed-form.
        let chunk = super::CHUNK_BYTES;
        for s in &self.paced {
            let sent = s.sent(now_ns, self.start_ns, self.stop_ns);
            let delivered = s.delivered(now_ns, self.start_ns, self.stop_ns);
            r.frames_sent += sent;
            r.offered_bytes += sent * chunk;
            r.frames_delivered += delivered;
            r.delivered_bytes += delivered * chunk;
            if delivered > 0 {
                // One modeled latency sample per stream (the packet
                // level records one per frame; percentiles remain
                // comparable when uncongested).
                r.frame_latency_ns.push(s.lat_ns);
            }
        }
        r
    }
}

/// The flow-level traffic engine: a single agent driving the whole
/// workload on timers, with no host stacks and no frames.
#[derive(Clone)]
pub struct FlowLevelEngine {
    core: Core,
}

impl FlowLevelEngine {
    /// Build the engine for `spec` placed on `nodes` (host-slot order,
    /// as [`Workload::traffic`] placed them), mirroring the packet-level
    /// wiring: `hop_of(a, b)` must return the number of *link* hops
    /// between the hosts at topology nodes `a` and `b`, including both
    /// access links. `capacity_bps` is the fabric's per-link bandwidth
    /// (0 for infinite) and `hop_latency` its per-link latency — the
    /// same values the packet-level cell gives its links.
    ///
    /// [`Workload::traffic`]: crate::scenario::Workload::traffic
    pub fn new(
        spec: &TrafficSpec,
        nodes: &[usize],
        cell_seed: u64,
        workload_idx: usize,
        capacity_bps: u64,
        hop_latency: Duration,
        hop_of: impl Fn(usize, usize) -> u32,
    ) -> FlowLevelEngine {
        let start = spec.start_at;
        let stop = spec.stop_at();
        let latency_ns = hop_latency.as_nanos() as u64;
        let mut core = Core {
            capacity_bps,
            latency_ns,
            start_ns: start.as_nanos() as u64,
            stop_ns: stop.as_nanos() as u64,
            gens: Vec::new(),
            routes: Vec::new(),
            flow_seqs: Vec::new(),
            queue: BTreeMap::new(),
            seq: 0,
            flows: BTreeMap::new(),
            paced: Vec::new(),
            cursor_ns: 0,
            offered_bytes: 0,
            delivered_bytes: 0,
            flows_started: 0,
            flows_completed: 0,
            frames_sent: 0,
            frames_delivered: 0,
            fct_ns: Vec::new(),
        };
        let stream_lat =
            |hops: u32| u64::from(hops) * (latency_ns + ser_ns(chunk_wire_bytes(), capacity_bps));
        match spec.shape {
            TrafficShape::RequestResponse {
                rate_per_sec,
                response,
                ..
            } => {
                let (&server, clients) = nodes.split_last().expect("placed endpoints");
                let server_ep = clients.len();
                for (j, &node) in clients.iter().enumerate() {
                    let hops = hop_of(node, server);
                    let req_delay_ns =
                        u64::from(hops) * (latency_ns + ser_ns(REQ_WIRE_BYTES, capacity_bps));
                    core.gens.push(Gen::Arrivals {
                        stream: ArrivalStream::new(
                            endpoint_seed(cell_seed, workload_idx, j),
                            rate_per_sec,
                            response,
                            start,
                            stop,
                        ),
                        req_delay_ns,
                    });
                    // Data flows server → client.
                    core.routes.push(GenRoute {
                        src_ep: server_ep,
                        dst_ep: j,
                        hops,
                    });
                    core.flow_seqs.push(0);
                }
            }
            TrafficShape::Incast {
                flow,
                period,
                waves,
                ..
            } => {
                let (&receiver, senders) = nodes.split_last().expect("placed endpoints");
                let receiver_ep = senders.len();
                for (j, &node) in senders.iter().enumerate() {
                    core.gens.push(Gen::Waves {
                        stream: WaveStream::new(
                            endpoint_seed(cell_seed, workload_idx, j),
                            flow,
                            start,
                            period,
                            waves,
                        ),
                    });
                    core.routes.push(GenRoute {
                        src_ep: j,
                        dst_ep: receiver_ep,
                        hops: hop_of(node, receiver),
                    });
                    core.flow_seqs.push(0);
                }
            }
            TrafficShape::Multicast { rate_bps, .. } => {
                let (&source, receivers) = nodes.split_first().expect("placed endpoints");
                for &node in receivers {
                    core.paced.push(PacedStream {
                        interval_ns: paced_interval(rate_bps).as_nanos() as u64,
                        lat_ns: stream_lat(hop_of(source, node)),
                    });
                }
            }
        }
        for gen in 0..core.gens.len() {
            core.arm_gen(gen);
        }
        FlowLevelEngine { core }
    }

    /// The workload's report as of `now` — non-mutating: a scratch copy
    /// of the core is advanced to the harvest instant, so calling this
    /// never perturbs the live simulation.
    pub fn report_at(&self, now: Time) -> TrafficReport {
        let now_ns = now.as_nanos();
        let mut scratch = self.core.clone();
        scratch.step_to(now_ns);
        scratch.report(now_ns)
    }
}

impl Agent for FlowLevelEngine {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(at) = self.core.next_wake(ctx.now().as_nanos()) {
            ctx.schedule_at(Time::ZERO + Duration::from_nanos(at), T_STEP);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let now_ns = ctx.now().as_nanos();
        self.core.step_to(now_ns);
        if let Some(at) = self.core.next_wake(now_ns) {
            ctx.schedule_at(Time::ZERO + Duration::from_nanos(at), T_STEP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::demand::FlowSize;
    use super::*;

    fn secs(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    /// `spec` at flow level over [1 s, 3 s).
    fn flow(spec: TrafficSpec) -> TrafficSpec {
        spec.flow_level().window(secs(1), secs(2))
    }

    #[test]
    fn lone_flow_runs_at_line_rate() {
        // One sender, one wave of a fixed 100 KB flow, 100 Mbps, 3 hops
        // at 1 ms each.
        let c = flow(TrafficSpec::incast(1, FlowSize::fixed(100_000), secs(1), 1));
        let eng = FlowLevelEngine::new(
            &c,
            &[0, 2],
            7,
            0,
            100_000_000,
            Duration::from_millis(1),
            |_, _| 3,
        );
        let r = eng.report_at(Time::ZERO + secs(10));
        assert_eq!(r.flows_started, 1);
        assert_eq!(r.flows_completed, 1);
        assert_eq!(r.offered_bytes, 100_000);
        assert_eq!(r.delivered_bytes, 100_000);
        // Uncontended: wire = 100000 + 98 frames * 74 B ≈ 107.3 KB at
        // 100 Mbps ≈ 8.58 ms drain + 3 ms propagation + 2 store-and-
        // forward serializations ≈ 11.8 ms.
        let fct = r.fct_percentile(50).unwrap();
        assert!(
            (Duration::from_millis(11)..Duration::from_millis(13)).contains(&fct),
            "{fct:?}"
        );
    }

    #[test]
    fn incast_shares_the_receiver_link() {
        // 4 senders, one wave of fixed 50 KB each: the receiver's rx
        // link is the bottleneck, so each flow gets C/4 and finishes
        // ~4x slower than it would alone.
        let c = flow(TrafficSpec::incast(4, FlowSize::fixed(50_000), secs(1), 1));
        let nodes = [0, 1, 2, 3, 4];
        let eng = FlowLevelEngine::new(
            &c,
            &nodes,
            7,
            0,
            100_000_000,
            Duration::from_millis(1),
            |_, _| 2,
        );
        let r = eng.report_at(Time::ZERO + secs(10));
        assert_eq!(r.flows_completed, 4);
        // Wire ≈ 53.6 KB; alone ≈ 4.3 ms; shared 4 ways ≈ 17.2 ms
        // drain, + 2 ms tail.
        let fct = r.fct_percentile(95).unwrap();
        assert!(
            (Duration::from_millis(17)..Duration::from_millis(22)).contains(&fct),
            "{fct:?}"
        );
        assert_eq!(r.frames_lost(), 0);
    }

    #[test]
    fn paced_streams_count_in_closed_form() {
        let c = flow(TrafficSpec::multicast(1, 1_000_000));
        let eng = FlowLevelEngine::new(
            &c,
            &[0, 1],
            7,
            0,
            100_000_000,
            Duration::from_millis(1),
            |_, _| 2,
        );
        // Mid-window: ~0.5 s of 1 Mbps in 8.192 ms ticks.
        let mid = eng.report_at(Time::ZERO + Duration::from_millis(1500));
        assert_eq!(mid.frames_sent, 500_000_000 / 8_192_000 + 1);
        assert!(mid.frames_delivered <= mid.frames_sent);
        // Well past the window: everything sent has landed.
        let end = eng.report_at(Time::ZERO + secs(10));
        assert_eq!(end.frames_sent, (2_000_000_000 - 1) / 8_192_000 + 1);
        assert_eq!(end.frames_delivered, end.frames_sent);
        assert_eq!(end.offered_bytes, end.frames_sent * 1024);
        assert_eq!(end.delivered_bytes, end.offered_bytes);
        assert_eq!(end.frame_latency_ns.len(), 1);
        assert_eq!(end.flows_started, 0);
    }

    #[test]
    fn report_at_is_pure_and_deterministic() {
        let c = flow(TrafficSpec::poisson(
            3,
            20.0,
            FlowSize::pareto(2_000, 200_000),
        ));
        let nodes = [0, 1, 2, 3];
        let mk = |seed| {
            FlowLevelEngine::new(
                &c,
                &nodes,
                seed,
                0,
                50_000_000,
                Duration::from_millis(1),
                |_, _| 3,
            )
        };
        let eng = mk(11);
        let a = eng.report_at(Time::ZERO + secs(5));
        let b = eng.report_at(Time::ZERO + secs(5));
        assert_eq!(a, b, "report_at must not mutate the engine");
        let fresh = mk(11).report_at(Time::ZERO + secs(5));
        assert_eq!(a, fresh, "same seed, same report");
        let other = mk(12).report_at(Time::ZERO + secs(5));
        assert_ne!(a.offered_bytes, other.offered_bytes, "seeds must matter");
        assert!(a.flows_started > 50, "three 20/s clients over 2 s");
        assert!(a.flows_completed <= a.flows_started);
    }
}
