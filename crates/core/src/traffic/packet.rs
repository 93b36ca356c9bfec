//! The packet-level traffic agent: real host stacks blasting UDP frames
//! through the simulated fabric, one [`TrafficHost`] per endpoint in
//! the role its workload gives it. Congestion is not modeled here — it
//! *emerges* from the link layer's serialization horizons, which is
//! exactly what the flow-level abstraction is validated against.
//!
//! Wire format (UDP payload):
//!
//! * data frame, port [`DATA_PORT`]: 32-byte header
//!   `[flow_id][flow_bytes][flow_start_ns][send_ns]` + chunk payload.
//!   `flow_bytes == 0` marks a paced (unbounded) stream: sinks record
//!   per-frame latency instead of completion times.
//! * request frame, port [`REQ_PORT`]: `[flow_id][flow_bytes]` — "send
//!   me a `flow_bytes` response".

use super::demand::{ArrivalStream, WaveStream};
use super::report::TrafficReport;
use super::{frames_for, CHUNK_BYTES, DATA_PORT, HEADER_BYTES, REQ_PORT};
use crate::host::{uplink, HostConfig, HostStack, Received};
use bytes::Bytes;
use rf_sim::{Agent, Ctx, Time};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::time::Duration;

const T_ARRIVAL: u64 = 1;
const T_TICK: u64 = 2;
const T_WAVE: u64 = 3;
const T_WARM: u64 = 4;

/// Any off-subnet destination resolves the gateway.
const OFF_SUBNET: Ipv4Addr = Ipv4Addr::new(10, 255, 255, 254);

/// What every data frame carries behind its header: its chunk is a
/// prefix of this one static fill.
static FILL: [u8; CHUNK_BYTES as usize] = [b'T'; CHUNK_BYTES as usize];

/// One data frame's 32-byte header, on the stack; the chunk behind it
/// is `FILL`.
fn data_header(
    flow_id: u64,
    flow_bytes: u64,
    flow_start_ns: u64,
    send_ns: u64,
) -> [u8; HEADER_BYTES as usize] {
    let mut h = [0u8; HEADER_BYTES as usize];
    for (at, word) in [flow_id, flow_bytes, flow_start_ns, send_ns]
        .into_iter()
        .enumerate()
    {
        h[at * 8..at * 8 + 8].copy_from_slice(&word.to_be_bytes());
    }
    h
}

fn read_u64(p: &[u8], at: usize) -> u64 {
    u64::from_be_bytes(p[at..at + 8].try_into().expect("bounds checked"))
}

/// Reassembly state of one bounded flow at its sink.
#[derive(Clone)]
struct FlowRx {
    total: u64,
    received: u64,
}

/// What a traffic host does with its stack once it has booted.
#[derive(Clone)]
enum Role {
    /// Request/response client: draws arrivals from its seeded stream,
    /// asks the server for each response flow, and sinks the data.
    Client {
        server: Ipv4Addr,
        stream: ArrivalStream,
        pending: Option<(Duration, u64)>,
    },
    /// Request/response server: answers each request by blasting the
    /// requested number of bytes back at the asking client.
    Server,
    /// Incast sender: blasts one drawn flow at the receiver per wave.
    Incast {
        receiver: Ipv4Addr,
        waves: WaveStream,
        pending: Option<(Duration, u64)>,
    },
    /// Paced source: one full-chunk frame per destination per tick —
    /// multicast fan-out, replicated at this source's access link
    /// (SRMCA-style).
    Paced {
        dsts: Vec<Ipv4Addr>,
        interval: Duration,
        stop_at: Duration,
    },
    /// Pure sink: receives data frames and accounts for them.
    Sink,
}

/// The one packet-level traffic agent: a host stack, what it has
/// offered and accepted so far, and the role it plays in its workload.
/// Every role accounts for the data frames addressed to it: per-flow
/// reassembly, completion times for bounded flows, per-frame latency
/// for paced streams.
#[derive(Clone)]
pub struct TrafficHost {
    stack: HostStack,
    role: Role,
    start_at: Duration,
    flow_tag: u64,
    flow_seq: u64,
    report: TrafficReport,
    /// Bounded flows partly received, by flow id.
    flows: BTreeMap<u64, FlowRx>,
}

impl TrafficHost {
    fn new(cfg: HostConfig, endpoint_idx: usize, start_at: Duration, role: Role) -> TrafficHost {
        TrafficHost {
            stack: HostStack::new(cfg),
            role,
            start_at,
            flow_tag: (endpoint_idx as u64 + 1) << 32,
            flow_seq: 0,
            report: TrafficReport::default(),
            flows: BTreeMap::new(),
        }
    }

    pub fn client(
        cfg: HostConfig,
        endpoint_idx: usize,
        start_at: Duration,
        server: Ipv4Addr,
        stream: ArrivalStream,
    ) -> TrafficHost {
        let role = Role::Client {
            server,
            stream,
            pending: None,
        };
        TrafficHost::new(cfg, endpoint_idx, start_at, role)
    }

    pub fn server(cfg: HostConfig, start_at: Duration) -> TrafficHost {
        TrafficHost::new(cfg, 0, start_at, Role::Server)
    }

    pub fn incast(
        cfg: HostConfig,
        endpoint_idx: usize,
        start_at: Duration,
        receiver: Ipv4Addr,
        waves: WaveStream,
    ) -> TrafficHost {
        let role = Role::Incast {
            receiver,
            waves,
            pending: None,
        };
        TrafficHost::new(cfg, endpoint_idx, start_at, role)
    }

    /// Paces one frame per `dsts` entry every `interval` over
    /// `[start_at, stop_at)`.
    pub fn paced(
        cfg: HostConfig,
        endpoint_idx: usize,
        start_at: Duration,
        stop_at: Duration,
        dsts: Vec<Ipv4Addr>,
        interval: Duration,
    ) -> TrafficHost {
        let role = Role::Paced {
            dsts,
            interval,
            stop_at,
        };
        TrafficHost::new(cfg, endpoint_idx, start_at, role)
    }

    pub fn sink(cfg: HostConfig, start_at: Duration) -> TrafficHost {
        TrafficHost::new(cfg, 0, start_at, Role::Sink)
    }

    /// What this host has offered, sent and accepted so far.
    pub fn report(&self) -> &TrafficReport {
        &self.report
    }

    /// Draw the next flow of a client or incast sender and arm its timer.
    fn arm_next(&mut self, ctx: &mut Ctx<'_>) {
        let (pending, drawn, token) = match &mut self.role {
            Role::Client {
                stream, pending, ..
            } => (pending, stream.next(), T_ARRIVAL),
            Role::Incast { waves, pending, .. } => (pending, waves.next(), T_WAVE),
            _ => return,
        };
        if let Some((at, _)) = drawn {
            *pending = drawn;
            ctx.schedule_at(Time::ZERO + at, token);
        }
    }

    /// The armed arrival or wave is due: count the drawn flow as
    /// offered, ask the server for it (client) or send it (incast
    /// sender), and arm the next one.
    fn start_flow(&mut self, ctx: &mut Ctx<'_>) {
        let (Role::Client { pending, .. } | Role::Incast { pending, .. }) = &mut self.role else {
            return;
        };
        let Some((_, bytes)) = pending.take() else {
            return;
        };
        self.report.flows_started += 1;
        self.report.offered_bytes += bytes;
        let flow_id = self.flow_tag | self.flow_seq;
        self.flow_seq += 1;
        match self.role {
            Role::Client { server, .. } => {
                let request: [&[u8]; 2] = [&flow_id.to_be_bytes(), &bytes.to_be_bytes()];
                self.stack
                    .send_udp(server, REQ_PORT, REQ_PORT, &request, uplink(ctx));
            }
            Role::Incast { receiver, .. } => self.blast(ctx, receiver, flow_id, bytes),
            _ => {}
        }
        self.arm_next(ctx);
    }

    /// One paced round: a full-chunk frame to every destination.
    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        let Role::Paced {
            dsts,
            interval,
            stop_at,
        } = &self.role
        else {
            return;
        };
        let now = ctx.now();
        if now >= Time::ZERO + *stop_at {
            return;
        }
        let now_ns = now.as_nanos();
        let start_ns = self.start_at.as_nanos() as u64;
        for (d, &dst) in dsts.iter().enumerate() {
            let header = data_header(self.flow_tag | d as u64, 0, start_ns, now_ns);
            self.stack
                .send_udp(dst, DATA_PORT, DATA_PORT, &[&header, &FILL], uplink(ctx));
            self.report.offered_bytes += CHUNK_BYTES;
            self.report.frames_sent += 1;
        }
        ctx.schedule(*interval, T_TICK);
    }

    /// Chunk a bounded flow onto the wire toward `(dst, DATA_PORT)`.
    fn blast(&mut self, ctx: &mut Ctx<'_>, dst: Ipv4Addr, flow_id: u64, bytes: u64) {
        let frames = frames_for(bytes);
        let now_ns = ctx.now().as_nanos();
        let header = data_header(flow_id, bytes, now_ns, now_ns);
        for i in 0..frames {
            let chunk = if i + 1 == frames {
                bytes - i * CHUNK_BYTES
            } else {
                CHUNK_BYTES
            };
            let payload = [&header[..], &FILL[..chunk as usize]];
            self.stack
                .send_udp(dst, DATA_PORT, DATA_PORT, &payload, uplink(ctx));
        }
        self.report.frames_sent += frames;
    }

    fn on_data(&mut self, now: Time, payload: &[u8]) {
        if payload.len() < HEADER_BYTES as usize {
            return;
        }
        let flow_id = read_u64(payload, 0);
        let total = read_u64(payload, 8);
        let start_ns = read_u64(payload, 16);
        let send_ns = read_u64(payload, 24);
        let chunk = (payload.len() - HEADER_BYTES as usize) as u64;
        let r = &mut self.report;
        r.delivered_bytes += chunk;
        r.frames_delivered += 1;
        if total == 0 {
            // Paced stream: latency sample, no completion.
            r.frame_latency_ns
                .push(now.as_nanos().saturating_sub(send_ns));
            return;
        }
        let rx = self
            .flows
            .entry(flow_id)
            .or_insert(FlowRx { total, received: 0 });
        rx.received += chunk;
        if rx.received >= rx.total {
            r.flows_completed += 1;
            r.fct_ns.push(now.as_nanos().saturating_sub(start_ns));
            self.flows.remove(&flow_id);
        }
    }
}

impl Agent for TrafficHost {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.stack.boot(uplink(ctx));
        // Resolve the next hop before the first blast, so a thousand
        // queued frames don't each broadcast their own request.
        for lead in [Duration::from_millis(1500), Duration::from_millis(300)] {
            ctx.schedule_at(Time::ZERO + self.start_at.saturating_sub(lead), T_WARM);
        }
        if let Role::Paced { .. } = self.role {
            ctx.schedule_at(Time::ZERO + self.start_at, T_TICK);
        }
        self.arm_next(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            T_WARM => match &self.role {
                Role::Client { server: dst, .. } | Role::Incast { receiver: dst, .. } => {
                    self.stack.resolve(*dst, uplink(ctx));
                }
                Role::Paced { dsts, .. } => {
                    for &dst in dsts {
                        self.stack.resolve(dst, uplink(ctx));
                    }
                }
                // A sink never transmits, so nothing would ever teach the
                // controller where it lives: the resulting gateway ARP is
                // what gets its /32 delivery flow installed before the
                // first data frame arrives (a cold edge drops the frames
                // that race the on-demand probe).
                Role::Server | Role::Sink => self.stack.resolve(OFF_SUBNET, uplink(ctx)),
            },
            T_ARRIVAL | T_WAVE => self.start_flow(ctx),
            T_TICK => self.tick(ctx),
            _ => {}
        }
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, _port: u32, frame: Bytes) {
        let Some(Received::Udp {
            src,
            dst_port,
            payload,
            ..
        }) = self.stack.on_frame(&frame, uplink(ctx))
        else {
            return;
        };
        match (dst_port, &self.role) {
            (DATA_PORT, _) => self.on_data(ctx.now(), &payload),
            (REQ_PORT, Role::Server) if payload.len() >= 16 => {
                self.blast(ctx, src, read_u64(&payload, 0), read_u64(&payload, 8));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A data frame's payload as it arrives: header, then `chunk` bytes
    /// of fill.
    fn data_payload(
        flow_id: u64,
        flow_bytes: u64,
        start_ns: u64,
        send_ns: u64,
        chunk: u64,
    ) -> Vec<u8> {
        let mut p = data_header(flow_id, flow_bytes, start_ns, send_ns).to_vec();
        p.extend_from_slice(&FILL[..chunk as usize]);
        p
    }

    #[test]
    fn data_header_round_trips() {
        let h = data_header(0x0000_0001_0000_0007, 5000, 111, 222);
        assert_eq!(read_u64(&h, 0), 0x0000_0001_0000_0007);
        assert_eq!(read_u64(&h, 8), 5000);
        assert_eq!(read_u64(&h, 16), 111);
        assert_eq!(read_u64(&h, 24), 222);
    }

    #[test]
    fn sink_completes_bounded_flows_and_times_paced_frames() {
        let cfg = HostConfig {
            mac: rf_wire::MacAddr([2, 0, 0, 0, 0, 1]),
            addr: "10.9.0.2/24".parse().unwrap(),
            gateway: Ipv4Addr::new(10, 9, 0, 1),
        };
        let mut host = TrafficHost::sink(cfg, Duration::ZERO);
        let t1 = Time::ZERO + Duration::from_millis(5);
        host.on_data(t1, &data_payload(1, 2048, 1_000_000, 1_000_000, 1024));
        assert_eq!(host.report.flows_completed, 0);
        host.on_data(t1, &data_payload(1, 2048, 1_000_000, 1_000_000, 1024));
        assert_eq!(host.report.flows_completed, 1);
        assert_eq!(host.report.fct_ns, vec![4_000_000]);
        assert_eq!(host.report.delivered_bytes, 2048);
        // A paced frame (total = 0) records latency, not completion.
        host.on_data(t1, &data_payload(9, 0, 0, 4_000_000, 1024));
        assert_eq!(host.report.flows_completed, 1);
        assert_eq!(host.report.frame_latency_ns, vec![1_000_000]);
        assert_eq!(host.report.frames_delivered, 3);
    }
}
