//! Behavioural tests for the OpenFlow switch agent: handshake, table
//! miss → PACKET_IN, FLOW_MOD install, buffered-packet release, the
//! buffer ring, PACKET_OUT, `output:TABLE`, classification depth, an
//! unsupported request, timeouts, reconnect.

use bytes::Bytes;
use rf_openflow::{
    Action, FlowModCommand, KeyDepth, MessageReader, OfMatch, OfMessage, PacketInReason, Wildcards,
    OFPP_NONE, OFPP_TABLE, OFP_NO_BUFFER,
};
use rf_sim::{Agent, AgentId, ConnId, Ctx, LinkProfile, Sim, SimConfig, StreamEvent};
use rf_switch::{OpenFlowSwitch, SwitchConfig};
use rf_wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, MacAddr, UdpPacket};
use std::net::Ipv4Addr;
use std::time::Duration;

/// A scripted controller for testing: completes the handshake, records
/// everything, and sends canned messages on timers.
#[derive(Default, Clone)]
struct MockController {
    conns: Vec<ConnId>,
    readers: Vec<(ConnId, MessageReader)>,
    pub received: Vec<(OfMessage, u32)>,
    /// Messages from the switch that did not decode.
    pub undecoded: usize,
    /// Messages to send (delay, message, xid) after start.
    script: Vec<(Duration, OfMessage, u32)>,
    /// Raw bytes to write onto the control channel (delay, bytes) after
    /// start.
    raw: Vec<(Duration, Bytes)>,
    /// Respond to PACKET_IN by installing this flow (match, actions)
    /// with the packet's buffer id.
    on_packet_in_install: Option<(OfMatch, Vec<Action>)>,
    pub features: Vec<rf_openflow::SwitchFeatures>,
}

impl MockController {
    fn reader_for(&mut self, conn: ConnId) -> &mut MessageReader {
        if let Some(i) = self.readers.iter().position(|(c, _)| *c == conn) {
            &mut self.readers[i].1
        } else {
            self.readers.push((conn, MessageReader::new()));
            &mut self.readers.last_mut().unwrap().1
        }
    }
}

impl Agent for MockController {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(6633);
        for (i, (delay, _, _)) in self.script.iter().enumerate() {
            ctx.schedule(*delay, 1000 + i as u64);
        }
        for (i, (delay, _)) in self.raw.iter().enumerate() {
            ctx.schedule(*delay, 2000 + i as u64);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let bytes = match token {
            2000.. => self.raw.get((token - 2000) as usize).map(|r| r.1.clone()),
            _ => self
                .script
                .get((token - 1000) as usize)
                .map(|(_, m, xid)| m.encode(*xid)),
        };
        if let (Some(bytes), Some(&conn)) = (bytes, self.conns.first()) {
            ctx.conn_send(conn, bytes);
        }
    }

    fn on_stream(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, event: StreamEvent) {
        match event {
            StreamEvent::Opened { .. } => {
                self.conns.push(conn);
                ctx.conn_send(conn, OfMessage::Hello.encode(1));
                ctx.conn_send(conn, OfMessage::FeaturesRequest.encode(2));
            }
            StreamEvent::Data(data) => {
                let msgs: Vec<_> = {
                    let reader = self.reader_for(conn);
                    reader.push_bytes(data);
                    std::iter::from_fn(|| reader.next()).collect()
                };
                for msg in msgs {
                    let Ok((msg, xid)) = msg else {
                        self.undecoded += 1;
                        continue;
                    };
                    if let OfMessage::FeaturesReply(f) = &msg {
                        self.features.push(f.clone());
                    }
                    if let OfMessage::PacketIn { buffer_id, .. } = &msg {
                        if let Some((m, actions)) = self.on_packet_in_install.clone() {
                            let fm = OfMessage::FlowMod {
                                of_match: m,
                                cookie: 0,
                                command: FlowModCommand::Add,
                                idle_timeout: 0,
                                hard_timeout: 0,
                                priority: 100,
                                buffer_id: *buffer_id,
                                out_port: OFPP_NONE,
                                flags: 0,
                                actions,
                            };
                            ctx.conn_send(conn, fm.encode(99));
                        }
                    }
                    self.received.push((msg, xid));
                }
            }
            StreamEvent::Closed => {}
        }
    }
}

/// Captures frames arriving at a sim port (plays the role of a host).
#[derive(Default, Clone)]
struct FrameSink {
    pub frames: Vec<(u32, Bytes)>,
    /// Frame to transmit at start: (port, frame, delay).
    tx: Option<(u32, Bytes, Duration)>,
    /// Transmit it this many more times, one millisecond apart.
    repeat: u32,
}

impl Agent for FrameSink {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some((_, _, delay)) = self.tx.as_ref() {
            ctx.schedule(*delay, 1);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if let Some((port, frame, _)) = self.tx.clone() {
            ctx.send_frame(port, frame);
        }
        if self.repeat > 0 {
            self.repeat -= 1;
            ctx.schedule(Duration::from_millis(1), 1);
        }
    }
    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, port: u32, frame: Bytes) {
        self.frames.push((port, frame));
    }
}

fn udp_frame(dst: Ipv4Addr) -> Bytes {
    udp_frame_carrying(dst, Bytes::from_static(b"data"))
}

fn udp_frame_carrying(dst: Ipv4Addr, payload: Bytes) -> Bytes {
    let src = Ipv4Addr::new(192, 168, 0, 1);
    let udp = UdpPacket::new(4000, 5000, payload);
    let ip = Ipv4Packet::new(src, dst, IpProtocol::UDP, udp.emit(src, dst));
    EthernetFrame::new(
        MacAddr([2, 0, 0, 0, 0, 9]),
        MacAddr([2, 0, 0, 0, 0, 1]),
        EtherType::IPV4,
        ip.emit(),
    )
    .emit()
}

struct Bench {
    sim: Sim,
    ctrl: AgentId,
    sw: AgentId,
    host_a: AgentId,
    host_b: AgentId,
}

/// Switch with 2 ports: port 1 ↔ host_a, port 2 ↔ host_b.
fn bench(ctrl: MockController) -> Bench {
    let mut sim = Sim::new(SimConfig::default());
    let ctrl = sim.add_agent("controller", Box::new(ctrl));
    let sw = sim.add_agent(
        "sw1",
        Box::new(OpenFlowSwitch::new(SwitchConfig::new(0x1C, 2, ctrl))),
    );
    let host_a = sim.add_agent("host_a", Box::new(FrameSink::default()));
    let host_b = sim.add_agent("host_b", Box::new(FrameSink::default()));
    sim.add_link((sw, 1), (host_a, 1), LinkProfile::default());
    sim.add_link((sw, 2), (host_b, 1), LinkProfile::default());
    Bench {
        sim,
        ctrl,
        sw,
        host_a,
        host_b,
    }
}

#[test]
fn handshake_reports_features() {
    let mut b = bench(MockController::default());
    b.sim.run_until(rf_sim::Time::from_secs(1));
    let ctrl = b.sim.agent_as::<MockController>(b.ctrl).unwrap();
    assert_eq!(ctrl.features.len(), 1);
    let f = &ctrl.features[0];
    assert_eq!(f.datapath_id, 0x1C);
    assert_eq!(f.ports.len(), 2);
    assert_eq!(f.n_tables, 1);
    assert_eq!(f.capabilities, 0x80, "ARP_MATCH_IP, and no STATS");
    assert!(b
        .sim
        .agent_as::<OpenFlowSwitch>(b.sw)
        .unwrap()
        .is_connected());
}

#[test]
fn table_miss_sends_packet_in_with_buffer() {
    let mut b = bench(MockController::default());
    // Host A sends a frame after the handshake settles.
    b.sim.agent_as_mut::<FrameSink>(b.host_a).unwrap().tx = Some((
        1,
        udp_frame(Ipv4Addr::new(10, 0, 0, 5)),
        Duration::from_secs(1),
    ));
    b.sim.run_until(rf_sim::Time::from_secs(2));
    let ctrl = b.sim.agent_as::<MockController>(b.ctrl).unwrap();
    let pins: Vec<_> = ctrl
        .received
        .iter()
        .filter_map(|(m, _)| match m {
            OfMessage::PacketIn {
                buffer_id,
                in_port,
                reason,
                data,
                total_len,
            } => Some((*buffer_id, *in_port, *reason, data.len(), *total_len)),
            _ => None,
        })
        .collect();
    assert_eq!(pins.len(), 1);
    let (buffer_id, in_port, reason, data_len, total_len) = pins[0];
    assert_ne!(buffer_id, OFP_NO_BUFFER);
    assert_eq!(in_port, 1);
    assert_eq!(reason, PacketInReason::NoMatch);
    assert!(data_len <= 128, "miss_send_len truncation");
    assert!(total_len as usize >= data_len);
}

#[test]
fn flow_mod_with_buffer_releases_packet() {
    let ctrl = MockController {
        on_packet_in_install: Some((
            OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 0, 0, 0), 8),
            vec![Action::output(2)],
        )),
        ..MockController::default()
    };
    let mut b = bench(ctrl);
    b.sim.agent_as_mut::<FrameSink>(b.host_a).unwrap().tx = Some((
        1,
        udp_frame(Ipv4Addr::new(10, 0, 0, 5)),
        Duration::from_secs(1),
    ));
    b.sim.run_until(rf_sim::Time::from_secs(2));
    // The buffered frame must come out of port 2 after the FLOW_MOD.
    let host_b = b.sim.agent_as::<FrameSink>(b.host_b).unwrap();
    assert_eq!(host_b.frames.len(), 1);
    // And subsequent frames flow without further PACKET_INs.
    b.sim.agent_as_mut::<FrameSink>(b.host_a).unwrap().tx = Some((
        1,
        udp_frame(Ipv4Addr::new(10, 0, 0, 6)),
        Duration::from_millis(100),
    ));
    // re-trigger the tx timer by scheduling through a fresh run window
    b.sim.run_until(rf_sim::Time::from_secs(3));
    let sw = b.sim.agent_as::<OpenFlowSwitch>(b.sw).unwrap();
    assert_eq!(sw.flow_count(), 1);
}

/// FLOW_MOD ADD of a /8 destination prefix with no buffer to release.
fn install(net: [u8; 4], actions: Vec<Action>) -> OfMessage {
    OfMessage::FlowMod {
        of_match: OfMatch::ipv4_dst_prefix(Ipv4Addr::from(net), 8),
        cookie: 0,
        command: FlowModCommand::Add,
        idle_timeout: 0,
        hard_timeout: 0,
        priority: 100,
        buffer_id: OFP_NO_BUFFER,
        out_port: OFPP_NONE,
        flags: 0,
        actions,
    }
}

#[test]
fn buffer_pool_is_a_ring_that_overwrites_the_oldest() {
    // No controller app ever releases a buffer (they all answer with
    // OFP_NO_BUFFER), so the pool must recycle on its own: every miss,
    // however late, is buffered and cut to miss_send_len.
    let packet_out = |buffer_id| OfMessage::PacketOut {
        buffer_id,
        in_port: 1,
        actions: vec![Action::output(2)],
        data: Bytes::new(),
    };
    let ctrl = MockController {
        script: vec![
            (Duration::from_secs(2), packet_out(1), 71),
            (Duration::from_millis(2100), packet_out(300), 72),
        ],
        ..MockController::default()
    };
    let mut b = bench(ctrl);
    let frame = udp_frame_carrying(Ipv4Addr::new(10, 0, 0, 5), Bytes::from(vec![0x5A; 200]));
    {
        let host_a = b.sim.agent_as_mut::<FrameSink>(b.host_a).unwrap();
        host_a.tx = Some((1, frame.clone(), Duration::from_secs(1)));
        host_a.repeat = 299;
    }
    b.sim.run_until(rf_sim::Time::from_secs(3));
    let ctrl = b.sim.agent_as::<MockController>(b.ctrl).unwrap();
    let pins: Vec<(u32, usize, u16)> = ctrl
        .received
        .iter()
        .filter_map(|(m, _)| match m {
            OfMessage::PacketIn {
                buffer_id,
                data,
                total_len,
                ..
            } => Some((*buffer_id, data.len(), *total_len)),
            _ => None,
        })
        .collect();
    assert_eq!(pins.len(), 300);
    assert_eq!(
        pins[299],
        (300, 128, frame.len() as u16),
        "the 300th miss is still buffered and cut to miss_send_len"
    );
    // Id 1 was overwritten 44 misses ago; id 300 is still there.
    let unknown_buffer: Vec<u32> = ctrl
        .received
        .iter()
        .filter_map(|(m, xid)| match m {
            OfMessage::Error { code: 8, .. } => Some(*xid),
            _ => None,
        })
        .collect();
    assert_eq!(unknown_buffer.len(), 1, "only the overwritten id errors");
    let host_b = b.sim.agent_as::<FrameSink>(b.host_b).unwrap();
    assert_eq!(host_b.frames, vec![(1, frame)]);
}

#[test]
fn output_table_is_honoured_in_packet_out_and_dropped_in_a_flow_entry() {
    // Regression: a flow entry whose actions say output:TABLE used to
    // send a matching frame back into the table until the stack
    // overflowed and the process aborted.
    let via_table = |dst| OfMessage::PacketOut {
        buffer_id: OFP_NO_BUFFER,
        in_port: 1,
        actions: vec![Action::output(OFPP_TABLE)],
        data: udp_frame(dst),
    };
    let ctrl = MockController {
        script: vec![
            (
                Duration::from_millis(1000),
                install([10, 0, 0, 0], vec![Action::output(OFPP_TABLE)]),
                1,
            ),
            (
                Duration::from_millis(1100),
                install([11, 0, 0, 0], vec![Action::output(2)]),
                2,
            ),
            // PACKET_OUT → table → port 2: honoured.
            (
                Duration::from_millis(1200),
                via_table(Ipv4Addr::new(11, 0, 0, 1)),
                3,
            ),
            // PACKET_OUT → table → output:TABLE again: dropped.
            (
                Duration::from_millis(1300),
                via_table(Ipv4Addr::new(10, 0, 0, 1)),
                4,
            ),
        ],
        ..MockController::default()
    };
    let mut b = bench(ctrl);
    // A data-plane frame that hits the looping entry directly.
    b.sim.agent_as_mut::<FrameSink>(b.host_a).unwrap().tx = Some((
        1,
        udp_frame(Ipv4Addr::new(10, 0, 0, 5)),
        Duration::from_millis(1400),
    ));
    b.sim.run_until(rf_sim::Time::from_secs(2));
    assert_eq!(b.sim.tracer().counter("switch.table_loop"), 2);
    let host_b = b.sim.agent_as::<FrameSink>(b.host_b).unwrap();
    assert_eq!(
        host_b.frames,
        vec![(1, udp_frame(Ipv4Addr::new(11, 0, 0, 1)))]
    );
    let ctrl = b.sim.agent_as::<MockController>(b.ctrl).unwrap();
    assert!(
        !ctrl
            .received
            .iter()
            .any(|(m, _)| matches!(m, OfMessage::PacketIn { .. })),
        "every frame matched an entry"
    );
}

#[test]
fn classification_depth_follows_the_table() {
    // A datagram to 10.0.0.1:5004, intact or with a payload bit flipped
    // under an unchanged UDP checksum.
    let datagram = |intact: bool| {
        let dst = Ipv4Addr::new(10, 0, 0, 1);
        let src = Ipv4Addr::new(192, 168, 0, 1);
        let udp = UdpPacket::new(4000, 5004, Bytes::from_static(b"data"));
        let ip = Ipv4Packet::new(src, dst, IpProtocol::UDP, udp.emit(src, dst));
        let mut frame = EthernetFrame::new(
            MacAddr([2, 0, 0, 0, 0, 9]),
            MacAddr([2, 0, 0, 0, 0, 1]),
            EtherType::IPV4,
            ip.emit(),
        )
        .emit()
        .to_vec();
        if !intact {
            frame[14 + 20 + 8] ^= 1;
        }
        Bytes::from(frame)
    };
    let via_table = |intact| OfMessage::PacketOut {
        buffer_id: OFP_NO_BUFFER,
        in_port: OFPP_NONE,
        actions: vec![Action::output(OFPP_TABLE)],
        data: datagram(intact),
    };
    let mut by_port = OfMatch::ipv4_dst_prefix(Ipv4Addr::UNSPECIFIED, 0);
    by_port.wildcards.0 &= !(Wildcards::NW_PROTO | Wildcards::TP_DST);
    by_port.nw_proto = IpProtocol::UDP.0;
    by_port.tp_dst = 5004;
    let by_port = |command| OfMessage::FlowMod {
        of_match: by_port,
        cookie: 0,
        command,
        idle_timeout: 0,
        hard_timeout: 0,
        priority: 200,
        buffer_id: OFP_NO_BUFFER,
        out_port: OFPP_NONE,
        flags: 0,
        actions: vec![Action::output(1)],
    };
    let ms = Duration::from_millis;
    let ctrl = MockController {
        script: vec![
            (ms(1000), install([10, 0, 0, 0], vec![Action::output(2)]), 1),
            // Routes only: a switch does not police L4.
            (ms(1100), via_table(false), 2),
            (ms(1200), by_port(FlowModCommand::Add), 3),
            // An entry asks for ports: only a verified datagram has any.
            (ms(1300), via_table(true), 4),
            (ms(1400), via_table(false), 5),
            (ms(1500), by_port(FlowModCommand::DeleteStrict), 6),
            (ms(1600), via_table(true), 7),
        ],
        ..MockController::default()
    };
    let mut b = bench(ctrl);
    let depth_at = |b: &mut Bench, at_ms| {
        b.sim.run_until(rf_sim::Time::ZERO + ms(at_ms));
        let sw = b.sim.agent_as::<OpenFlowSwitch>(b.sw).unwrap();
        sw.flow_table().clone().depth()
    };
    assert_eq!(depth_at(&mut b, 900), KeyDepth::L2, "empty table");
    assert_eq!(depth_at(&mut b, 1150), KeyDepth::L3, "prefix route");
    assert_eq!(depth_at(&mut b, 1450), KeyDepth::L4, "tp_dst entry");
    assert_eq!(depth_at(&mut b, 2000), KeyDepth::L3, "after its DELETE");
    let frames = |b: &Bench, host| -> Vec<Bytes> {
        let sink = b.sim.agent_as::<FrameSink>(host).unwrap();
        sink.frames.iter().map(|(_, f)| f.clone()).collect()
    };
    assert_eq!(
        frames(&b, b.host_a),
        [datagram(true)],
        "took the tp_dst entry"
    );
    assert_eq!(
        frames(&b, b.host_b),
        [datagram(false), datagram(false), datagram(true)],
        "took the prefix route"
    );
    let ctrl = b.sim.agent_as::<MockController>(b.ctrl).unwrap();
    assert!(
        !ctrl
            .received
            .iter()
            .any(|(m, _)| matches!(m, OfMessage::PacketIn { .. })),
        "every frame matched an entry"
    );
}

#[test]
fn packet_out_floods() {
    let ctrl = MockController {
        script: vec![(
            Duration::from_secs(1),
            OfMessage::PacketOut {
                buffer_id: OFP_NO_BUFFER,
                in_port: OFPP_NONE,
                actions: vec![Action::output(rf_openflow::OFPP_FLOOD)],
                data: udp_frame(Ipv4Addr::new(10, 1, 1, 1)),
            },
            42,
        )],
        ..MockController::default()
    };
    let mut b = bench(ctrl);
    b.sim.run_until(rf_sim::Time::from_secs(2));
    assert_eq!(
        b.sim.agent_as::<FrameSink>(b.host_a).unwrap().frames.len(),
        1
    );
    assert_eq!(
        b.sim.agent_as::<FrameSink>(b.host_b).unwrap().frames.len(),
        1
    );
}

#[test]
fn echo_request_answered() {
    let ctrl = MockController {
        script: vec![(
            Duration::from_secs(1),
            OfMessage::EchoRequest(Bytes::from_static(b"hello?")),
            7,
        )],
        ..MockController::default()
    };
    let mut b = bench(ctrl);
    b.sim.run_until(rf_sim::Time::from_secs(2));
    let ctrl = b.sim.agent_as::<MockController>(b.ctrl).unwrap();
    assert!(ctrl
        .received
        .iter()
        .any(|(m, xid)| matches!(m, OfMessage::EchoReply(d) if &d[..] == b"hello?") && *xid == 7));
}

#[test]
fn barrier_answered_with_same_xid() {
    let ctrl = MockController {
        script: vec![(Duration::from_secs(1), OfMessage::BarrierRequest, 0xAB)],
        ..MockController::default()
    };
    let mut b = bench(ctrl);
    b.sim.run_until(rf_sim::Time::from_secs(2));
    let ctrl = b.sim.agent_as::<MockController>(b.ctrl).unwrap();
    assert!(ctrl
        .received
        .iter()
        .any(|(m, xid)| matches!(m, OfMessage::BarrierReply) && *xid == 0xAB));
}

/// A STATS_REQUEST is well-framed, but nothing decodes it: the switch
/// counts it as a decode error and answers nothing, and the BARRIER
/// right behind it in the same chunk is answered as usual.
#[test]
fn stats_request_is_counted_and_unanswered() {
    // `ofp_header` (version 1, type 16, length 12, xid 0x51), then a
    // desc request's `ofp_stats_request` type and flags.
    let mut chunk = vec![1, 16, 0, 12, 0, 0, 0, 0x51, 0, 0, 0, 0];
    chunk.extend_from_slice(&OfMessage::BarrierRequest.encode(0x52));
    let ctrl = MockController {
        raw: vec![(Duration::from_secs(1), Bytes::from(chunk))],
        ..MockController::default()
    };
    let mut b = bench(ctrl);
    b.sim.run_until(rf_sim::Time::from_secs(2));
    assert_eq!(b.sim.tracer().counter("switch.decode_error"), 1);
    let sw = b.sim.agent_as::<OpenFlowSwitch>(b.sw).unwrap();
    assert_eq!(sw.errors_sent, 0);
    let ctrl = b.sim.agent_as::<MockController>(b.ctrl).unwrap();
    assert_eq!(ctrl.undecoded, 0);
    // Past the handshake, the barrier's reply alone.
    let after_handshake: Vec<_> = ctrl
        .received
        .iter()
        .filter(|(m, _)| !matches!(m, OfMessage::Hello | OfMessage::FeaturesReply(_)))
        .collect();
    assert_eq!(after_handshake, [&(OfMessage::BarrierReply, 0x52)]);
}

#[test]
fn hard_timeout_emits_flow_removed() {
    let ctrl = MockController {
        script: vec![(
            Duration::from_secs(1),
            OfMessage::FlowMod {
                of_match: OfMatch::any(),
                cookie: 5,
                command: FlowModCommand::Add,
                idle_timeout: 0,
                hard_timeout: 2,
                priority: 1,
                buffer_id: OFP_NO_BUFFER,
                out_port: OFPP_NONE,
                flags: rf_openflow::messages::OFPFF_SEND_FLOW_REM,
                actions: vec![Action::output(2)],
            },
            1,
        )],
        ..MockController::default()
    };
    let mut b = bench(ctrl);
    b.sim.run_until(rf_sim::Time::from_secs(5));
    let sw = b.sim.agent_as::<OpenFlowSwitch>(b.sw).unwrap();
    assert_eq!(sw.flow_count(), 0, "entry must expire");
    let ctrl = b.sim.agent_as::<MockController>(b.ctrl).unwrap();
    let removed = ctrl.received.iter().find_map(|(m, _)| match m {
        OfMessage::FlowRemoved { cookie, reason, .. } => Some((*cookie, *reason)),
        _ => None,
    });
    let (cookie, reason) = removed.expect("FLOW_REMOVED must be sent");
    assert_eq!(cookie, 5);
    assert_eq!(reason, rf_openflow::FlowRemovedReason::HardTimeout);
}

/// Every flow the apps install is untimed, and the switch's expiry tick
/// skips a table holding only such entries. Timed entries among them
/// still expire on time, each with its FLOW_REMOVED.
#[test]
fn timed_entries_among_untimed_ones_expire_on_time() {
    let flow = |i: u8, cookie, idle_timeout, hard_timeout| OfMessage::FlowMod {
        of_match: OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, i, 0, 0), 16),
        cookie,
        command: FlowModCommand::Add,
        idle_timeout,
        hard_timeout,
        priority: 1,
        buffer_id: OFP_NO_BUFFER,
        out_port: OFPP_NONE,
        flags: rf_openflow::messages::OFPFF_SEND_FLOW_REM,
        actions: vec![Action::output(2)],
    };
    let at = Duration::from_secs(1);
    let ctrl = MockController {
        script: vec![
            (at, flow(1, 1, 0, 0), 1),
            (at, flow(2, 2, 2, 0), 2),
            (at, flow(3, 3, 0, 0), 3),
            (at, flow(4, 4, 0, 3), 4),
            (at, flow(5, 5, 0, 0), 5),
        ],
        ..MockController::default()
    };
    let mut b = bench(ctrl);
    // Installed just after 1 s; the expiry tick runs every 500 ms.
    let mut flows_at = |secs: u64, millis: u64| {
        b.sim
            .run_until(rf_sim::Time::from_secs(secs) + Duration::from_millis(millis));
        b.sim.agent_as::<OpenFlowSwitch>(b.sw).unwrap().flow_count()
    };
    assert_eq!(flows_at(3, 200), 5);
    assert_eq!(flows_at(4, 0), 4, "idle for 2 s");
    assert_eq!(flows_at(5, 0), 3, "3 s since installed");
    assert_eq!(flows_at(30, 0), 3, "untimed entries never expire");
    let ctrl = b.sim.agent_as::<MockController>(b.ctrl).unwrap();
    let removed: Vec<_> = ctrl
        .received
        .iter()
        .filter_map(|(m, _)| match m {
            OfMessage::FlowRemoved { cookie, reason, .. } => Some((*cookie, *reason)),
            _ => None,
        })
        .collect();
    assert_eq!(
        removed,
        [
            (2, rf_openflow::FlowRemovedReason::IdleTimeout),
            (4, rf_openflow::FlowRemovedReason::HardTimeout),
        ]
    );
}

#[test]
fn switch_reconnects_after_controller_restart() {
    // Controller that closes the first connection after 1 s.
    #[derive(Default, Clone)]
    struct FlakyController {
        conns: Vec<ConnId>,
        opens: u32,
    }
    impl Agent for FlakyController {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.listen(6633);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
            if let Some(&c) = self.conns.first() {
                ctx.conn_close(c);
            }
        }
        fn on_stream(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, event: StreamEvent) {
            if let StreamEvent::Opened { .. } = event {
                self.opens += 1;
                self.conns.push(conn);
                ctx.conn_send(conn, OfMessage::Hello.encode(1));
                if self.opens == 1 {
                    ctx.schedule(Duration::from_secs(1), 0);
                }
            }
        }
    }
    let mut sim = Sim::new(SimConfig::default());
    let ctrl = sim.add_agent("flaky", Box::new(FlakyController::default()));
    let sw = sim.add_agent(
        "sw",
        Box::new(OpenFlowSwitch::new(SwitchConfig::new(1, 1, ctrl))),
    );
    let host = sim.add_agent("h", Box::new(FrameSink::default()));
    sim.add_link((sw, 1), (host, 1), LinkProfile::default());
    sim.run_until(rf_sim::Time::from_secs(5));
    assert_eq!(
        sim.agent_as::<FlakyController>(ctrl).unwrap().opens,
        2,
        "switch must redial after disconnect"
    );
    assert!(sim.agent_as::<OpenFlowSwitch>(sw).unwrap().is_connected());
}

#[test]
fn port_admin_down_drops_traffic_and_reports_status() {
    let mut b = bench(MockController::default());
    b.sim.run_until(rf_sim::Time::from_secs(1));
    b.sim
        .agent_as_mut::<OpenFlowSwitch>(b.sw)
        .unwrap()
        .set_port_admin(1, true);
    b.sim.agent_as_mut::<FrameSink>(b.host_a).unwrap().tx = Some((
        1,
        udp_frame(Ipv4Addr::new(10, 0, 0, 5)),
        Duration::from_millis(100),
    ));
    b.sim.run_until(rf_sim::Time::from_secs(3));
    let ctrl = b.sim.agent_as::<MockController>(b.ctrl).unwrap();
    // No PACKET_IN (port is down) but a PORT_STATUS modify.
    assert!(!ctrl
        .received
        .iter()
        .any(|(m, _)| matches!(m, OfMessage::PacketIn { .. })));
    assert!(ctrl.received.iter().any(|(m, _)| matches!(
        m,
        OfMessage::PortStatus { desc, .. } if !desc.is_link_up()
    )));
}

/// There is no port 0. A PACKET_OUT naming it as `in_port` and asking
/// for `output:IN_PORT`, a frame arriving on a (miswired) sim port 0
/// and an admin toggle of it are all dropped on the floor: no panic
/// (port numbers index `ports_down` from 1), no switch counter touched,
/// and the switch carries on.
#[test]
fn port_zero_is_dropped_without_touching_any_counter() {
    let ctrl = MockController {
        script: vec![
            (
                Duration::from_secs(1),
                OfMessage::PacketOut {
                    buffer_id: OFP_NO_BUFFER,
                    in_port: 0,
                    actions: vec![Action::output(rf_openflow::OFPP_IN_PORT)],
                    data: udp_frame(Ipv4Addr::new(10, 1, 1, 1)),
                },
                42,
            ),
            (
                Duration::from_secs(3),
                OfMessage::PacketOut {
                    buffer_id: OFP_NO_BUFFER,
                    in_port: OFPP_NONE,
                    actions: vec![Action::output(1)],
                    data: udp_frame(Ipv4Addr::new(10, 1, 1, 1)),
                },
                44,
            ),
        ],
        ..MockController::default()
    };
    let mut b = bench(ctrl);
    let stray = b.sim.add_agent(
        "stray",
        Box::new(FrameSink {
            tx: Some((
                1,
                udp_frame(Ipv4Addr::new(10, 1, 1, 1)),
                Duration::from_millis(1500),
            )),
            ..FrameSink::default()
        }),
    );
    b.sim
        .add_link((b.sw, 0), (stray, 1), LinkProfile::default());
    // The PACKET_OUT (1 s) and the stray frame (1.5 s) first, then the
    // admin toggle, all ahead of the second PACKET_OUT.
    b.sim.run_until(rf_sim::Time::from_millis(1800));
    b.sim
        .agent_as_mut::<OpenFlowSwitch>(b.sw)
        .unwrap()
        .set_port_admin(0, true);
    b.sim.run_until(rf_sim::Time::from_secs(4));
    let counters = b.sim.tracer().counters();
    assert!(
        counters.keys().all(|k| !k.starts_with("switch.")),
        "{counters:?}"
    );
    let ctrl = b.sim.agent_as::<MockController>(b.ctrl).unwrap();
    assert!(!ctrl
        .received
        .iter()
        .any(|(m, _)| matches!(m, OfMessage::PacketIn { .. } | OfMessage::PortStatus { .. })));
    // Nothing left on port 0 or anywhere else; the later PACKET_OUT did.
    assert!(b
        .sim
        .agent_as::<FrameSink>(stray)
        .unwrap()
        .frames
        .is_empty());
    assert!(b
        .sim
        .agent_as::<FrameSink>(b.host_b)
        .unwrap()
        .frames
        .is_empty());
    assert_eq!(
        b.sim.agent_as::<FrameSink>(b.host_a).unwrap().frames.len(),
        1
    );
}
