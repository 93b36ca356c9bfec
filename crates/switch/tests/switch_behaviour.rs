//! Behavioural tests for the OpenFlow switch agent: handshake, table
//! miss → PACKET_IN, FLOW_MOD install, PACKET_OUT, `output:TABLE`,
//! undecodable requests, refused matches, commands, timeouts, flags,
//! buffers and actions, reconnect.

use bytes::Bytes;
use rf_openflow::{
    Action, ErrorType, FlowModCommand, MessageReader, OfMatch, OfMessage, PacketInReason,
    OFPP_NONE, OFPP_TABLE, OFP_HEADER_LEN, OFP_NO_BUFFER,
};
use rf_sim::{Agent, AgentId, ConnId, Ctx, LinkProfile, Sim, SimConfig, StreamEvent};
use rf_switch::{OpenFlowSwitch, SwitchConfig};
use rf_wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, MacAddr, UdpPacket};
use std::net::Ipv4Addr;
use std::time::Duration;

/// Size of `ofp_match`: a FLOW_MOD's fixed fields follow it.
const OFP_MATCH_LEN: usize = 40;

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
    assert_eq!(f.n_buffers, 0, "a miss is never buffered");
    assert_eq!(f.capabilities, 0, "no ARP_MATCH_IP, and no STATS");
    assert_eq!(f.actions, 0x31, "OUTPUT, SET_DL_SRC and SET_DL_DST");
    assert!(b
        .sim
        .agent_as::<OpenFlowSwitch>(b.sw)
        .unwrap()
        .is_connected());
}

/// A miss goes to the controller cut to `miss_send_len` (128 by
/// default), with `total_len` the frame's length and no buffer behind
/// it, every time it happens.
#[test]
fn table_miss_sends_a_cut_unbuffered_packet_in() {
    let mut b = bench(MockController::default());
    // Host A sends a 242-byte frame twice after the handshake settles.
    let frame = udp_frame_carrying(Ipv4Addr::new(10, 0, 0, 5), Bytes::from(vec![0x5A; 200]));
    {
        let host_a = b.sim.agent_as_mut::<FrameSink>(b.host_a).unwrap();
        host_a.tx = Some((1, frame.clone(), Duration::from_secs(1)));
        host_a.repeat = 1;
    }
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
    let want = (
        OFP_NO_BUFFER,
        1,
        PacketInReason::NoMatch,
        128,
        frame.len() as u16,
    );
    assert_eq!(pins, [want, want]);
    let host_b = b.sim.agent_as::<FrameSink>(b.host_b).unwrap();
    assert!(host_b.frames.is_empty());
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

/// `msg` encoded under `xid`, then `patch`ed: each `(offset, bytes)`
/// written over the wire bytes. The encoder writes only the matches and
/// commands the loop sends.
fn patched(msg: &OfMessage, xid: u32, patch: &[(usize, &[u8])]) -> Bytes {
    let mut wire = msg.encode(xid).to_vec();
    for (at, bytes) in patch {
        wire[*at..at + bytes.len()].copy_from_slice(bytes);
    }
    wire.into()
}

/// A FLOW_MOD that matches on a transport port, on the ingress port or
/// on nothing at all, or filters a delete by `out_port`, is refused
/// with FLOW_MOD_FAILED / UNSUPPORTED, and a MODIFY or loose DELETE with
/// FLOW_MOD_FAILED / BAD_COMMAND, each under its own xid: nothing is
/// installed, changed or deleted, nothing counts as undecodable. The
/// routes left are all a frame is classified by: a datagram whose UDP
/// checksum fails is routed like any other.
#[test]
fn matches_and_commands_outside_the_loop_are_refused_typed() {
    let route = install([10, 0, 0, 0], vec![Action::output(2)]);
    let (wildcards, command) = (OFP_HEADER_LEN, OFP_HEADER_LEN + OFP_MATCH_LEN + 8);
    let out_port = command + 12;
    // The route's wildcards but OFPFW_TP_DST, with tp_dst 5004; but
    // OFPFW_IN_PORT, with in_port 1; all of them (`any`).
    let tp_dst: &[(usize, &[u8])] = &[(wildcards + 3, &[0x6F]), (46, &[0x13, 0x8C])];
    let in_port: &[(usize, &[u8])] = &[(wildcards + 3, &[0xEE]), (12, &[0, 1])];
    let any: &[(usize, &[u8])] = &[(wildcards, &[0x00, 0x3F, 0xFF, 0xFF])];
    // A DELETE_STRICT of the route's entries that output to port 2.
    let filtered: &[(usize, &[u8])] = &[(command, &[0, 4]), (out_port, &[0, 2])];
    // A datagram to 10.0.0.1 with a payload bit flipped under an
    // unchanged UDP checksum.
    let corrupt = {
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
        frame[14 + 20 + 8] ^= 1;
        Bytes::from(frame)
    };
    let via_table = OfMessage::PacketOut {
        buffer_id: OFP_NO_BUFFER,
        in_port: OFPP_NONE,
        actions: vec![Action::output(OFPP_TABLE)],
        data: corrupt.clone(),
    };
    let ms = Duration::from_millis;
    let ctrl = MockController {
        script: vec![(ms(1000), route.clone(), 1), (ms(1200), via_table, 2)],
        raw: vec![
            (ms(1100), patched(&route, 0x31, tp_dst)),
            (ms(1100), patched(&route, 0x32, in_port)),
            (ms(1100), patched(&route, 0x33, any)),
            (ms(1100), patched(&route, 0x34, &[(command, &[0, 1])])),
            (ms(1100), patched(&route, 0x35, &[(command, &[0, 3])])),
            (ms(1100), patched(&route, 0x36, filtered)),
        ],
        ..MockController::default()
    };
    let mut b = bench(ctrl);
    b.sim.run_until(rf_sim::Time::from_millis(1050));
    let before = b.sim.agent_as::<OpenFlowSwitch>(b.sw).unwrap();
    let before = before.flow_table().entries().to_vec();
    assert_eq!(before.len(), 1, "the route went in");
    b.sim.run_until(rf_sim::Time::from_secs(2));
    let sw = b.sim.agent_as::<OpenFlowSwitch>(b.sw).unwrap();
    assert_eq!(sw.flow_table().entries(), before, "nothing changed");
    assert_eq!(sw.errors_sent, 6);
    let ctrl = b.sim.agent_as::<MockController>(b.ctrl).unwrap();
    let errors: Vec<_> = ctrl
        .received
        .iter()
        .filter_map(|(m, xid)| match m {
            OfMessage::Error { err_type, code, .. } => Some((*err_type, *code, *xid)),
            _ => None,
        })
        .collect();
    let failed = |code, xid| (ErrorType::FlowModFailed, code, xid);
    assert_eq!(
        errors,
        [
            failed(5, 0x31),
            failed(5, 0x32),
            failed(5, 0x33),
            failed(4, 0x34),
            failed(4, 0x35),
            failed(5, 0x36),
        ]
    );
    let tracer = b.sim.tracer();
    assert_eq!(tracer.counter("switch.decode_error"), 0);
    assert_eq!(tracer.counter("of.flow_mod"), 1, "the route alone");
    let host_b = b.sim.agent_as::<FrameSink>(b.host_b).unwrap();
    let routed: Vec<_> = host_b.frames.iter().map(|(_, f)| f.clone()).collect();
    assert_eq!(routed, [corrupt], "took the route");
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

/// A STATS_REQUEST, a GET_CONFIG_REQUEST and a BARRIER_REQUEST are
/// well-framed, but nothing decodes them: the switch counts each as a
/// decode error and answers none, and the ECHO_REQUEST right behind
/// them in the same chunk is answered as usual.
#[test]
fn stats_request_is_counted_and_unanswered() {
    // `ofp_header` (version 1, type 16, length 12, xid 0x51), then a
    // desc request's `ofp_stats_request` type and flags; then bare
    // headers of type 7 (GET_CONFIG_REQUEST) and 18 (BARRIER_REQUEST).
    let mut chunk = vec![1, 16, 0, 12, 0, 0, 0, 0x51, 0, 0, 0, 0];
    chunk.extend_from_slice(&[1, 7, 0, 8, 0, 0, 0, 0x53]);
    chunk.extend_from_slice(&[1, 18, 0, 8, 0, 0, 0, 0x54]);
    let echo = OfMessage::EchoRequest(Bytes::from_static(b"still there?"));
    chunk.extend_from_slice(&echo.encode(0x52));
    let ctrl = MockController {
        raw: vec![(Duration::from_secs(1), Bytes::from(chunk))],
        ..MockController::default()
    };
    let mut b = bench(ctrl);
    b.sim.run_until(rf_sim::Time::from_secs(2));
    assert_eq!(b.sim.tracer().counter("switch.decode_error"), 3);
    let sw = b.sim.agent_as::<OpenFlowSwitch>(b.sw).unwrap();
    assert_eq!(sw.errors_sent, 0);
    let ctrl = b.sim.agent_as::<MockController>(b.ctrl).unwrap();
    assert_eq!(ctrl.undecoded, 0);
    // Past the handshake, the echo's reply alone.
    let after_handshake: Vec<_> = ctrl
        .received
        .iter()
        .filter(|(m, _)| !matches!(m, OfMessage::Hello | OfMessage::FeaturesReply(_)))
        .collect();
    let reply = OfMessage::EchoReply(Bytes::from_static(b"still there?"));
    assert_eq!(after_handshake, [&(reply, 0x52)]);
}

/// What the switch does not do, it refuses, typed and under the
/// request's own xid, and installs or sends nothing: a FLOW_MOD with an
/// idle or hard timeout or with SEND_FLOW_REM gets FLOW_MOD_FAILED /
/// UNSUPPORTED (a flow lives until it is deleted, and nothing reports
/// it removed); a FLOW_MOD or a PACKET_OUT naming a buffer gets
/// BAD_REQUEST / BUFFER_UNKNOWN (a miss is never buffered).
#[test]
fn timeouts_flags_and_buffers_are_refused_typed() {
    let flow_mod = |idle_timeout, hard_timeout, flags, buffer_id| OfMessage::FlowMod {
        of_match: OfMatch::ipv4_dst_prefix(Ipv4Addr::new(11, 0, 0, 0), 8),
        cookie: 0,
        command: FlowModCommand::Add,
        idle_timeout,
        hard_timeout,
        priority: 100,
        buffer_id,
        out_port: OFPP_NONE,
        flags,
        actions: vec![Action::output(2)],
    };
    let ms = Duration::from_millis;
    let ctrl = MockController {
        script: vec![
            (ms(1000), install([10, 0, 0, 0], vec![Action::output(2)]), 1),
            (ms(1100), flow_mod(10, 0, 0, OFP_NO_BUFFER), 0x11),
            (ms(1100), flow_mod(0, 30, 0, OFP_NO_BUFFER), 0x12),
            (ms(1100), flow_mod(0, 0, 1, OFP_NO_BUFFER), 0x13), // SEND_FLOW_REM
            (ms(1100), flow_mod(0, 0, 0, 7), 0x14),
            (
                ms(1100),
                OfMessage::PacketOut {
                    buffer_id: 7,
                    in_port: 1,
                    actions: vec![Action::output(2)],
                    data: Bytes::new(),
                },
                0x15,
            ),
        ],
        ..MockController::default()
    };
    let mut b = bench(ctrl);
    b.sim.run_until(rf_sim::Time::from_millis(1050));
    let before = b.sim.agent_as::<OpenFlowSwitch>(b.sw).unwrap();
    let before = before.flow_table().entries().to_vec();
    assert_eq!(before.len(), 1, "the route went in");
    b.sim.run_until(rf_sim::Time::from_secs(2));
    let sw = b.sim.agent_as::<OpenFlowSwitch>(b.sw).unwrap();
    assert_eq!(sw.flow_table().entries(), before, "nothing was installed");
    assert_eq!(sw.errors_sent, 5);
    let ctrl = b.sim.agent_as::<MockController>(b.ctrl).unwrap();
    let errors: Vec<_> = ctrl
        .received
        .iter()
        .filter_map(|(m, xid)| match m {
            OfMessage::Error { err_type, code, .. } => Some((*err_type, *code, *xid)),
            _ => None,
        })
        .collect();
    let unsupported = |xid| (ErrorType::FlowModFailed, 5, xid);
    let unknown = |xid| (ErrorType::BadRequest, 8, xid);
    assert_eq!(
        errors,
        [
            unsupported(0x11),
            unsupported(0x12),
            unsupported(0x13),
            unknown(0x14),
            unknown(0x15),
        ]
    );
    let host_b = b.sim.agent_as::<FrameSink>(b.host_b).unwrap();
    assert!(host_b.frames.is_empty(), "the PACKET_OUT sent nothing");
}

/// `msg`, whose one action is an 8-byte OUTPUT, encoded under `xid`
/// with that action's bytes replaced by `action`: the encoder writes
/// only the three kinds of action there are.
fn with_action(msg: OfMessage, xid: u32, action: [u8; 8]) -> Bytes {
    let at = match msg {
        OfMessage::FlowMod { .. } => OFP_HEADER_LEN + OFP_MATCH_LEN + 24,
        _ => OFP_HEADER_LEN + 8,
    };
    let mut wire = msg.encode(xid).to_vec();
    assert_eq!(wire[at..at + 4], [0, 0, 0, 8], "an OUTPUT is there");
    wire[at..at + 8].copy_from_slice(&action);
    wire.into()
}

/// A FLOW_MOD or PACKET_OUT naming an action other than OUTPUT,
/// SET_DL_SRC and SET_DL_DST — one OF 1.0 defines or one it does not —
/// is refused whole with BAD_ACTION / BAD_TYPE under its own xid:
/// nothing is installed, nothing leaves a port, nothing counts as
/// undecodable.
#[test]
fn actions_outside_the_three_are_refused_typed() {
    const SET_VLAN_VID: [u8; 8] = [0, 1, 0, 8, 0, 100, 0, 0];
    const SET_NW_DST: [u8; 8] = [0, 7, 0, 8, 172, 16, 0, 1];
    const TYPE_FFFF: [u8; 8] = [0xFF, 0xFF, 0, 8, 0, 0, 0, 0];
    let route = || install([11, 0, 0, 0], vec![Action::output(2)]);
    let packet_out = OfMessage::PacketOut {
        buffer_id: OFP_NO_BUFFER,
        in_port: 1,
        actions: vec![Action::output(2)],
        data: udp_frame(Ipv4Addr::new(11, 0, 0, 5)),
    };
    let ms = Duration::from_millis;
    let ctrl = MockController {
        script: vec![(ms(1000), install([10, 0, 0, 0], vec![Action::output(2)]), 1)],
        raw: vec![
            (ms(1100), with_action(route(), 0x21, SET_NW_DST)),
            (ms(1100), with_action(packet_out, 0x22, SET_VLAN_VID)),
            (ms(1100), with_action(route(), 0x23, TYPE_FFFF)),
        ],
        ..MockController::default()
    };
    let mut b = bench(ctrl);
    b.sim.run_until(rf_sim::Time::from_millis(1050));
    let before = b.sim.agent_as::<OpenFlowSwitch>(b.sw).unwrap();
    let before = before.flow_table().entries().to_vec();
    assert_eq!(before.len(), 1, "the route went in");
    b.sim.run_until(rf_sim::Time::from_secs(2));
    let sw = b.sim.agent_as::<OpenFlowSwitch>(b.sw).unwrap();
    assert_eq!(sw.flow_table().entries(), before, "nothing was installed");
    assert_eq!(sw.errors_sent, 3);
    let ctrl = b.sim.agent_as::<MockController>(b.ctrl).unwrap();
    let errors: Vec<_> = ctrl
        .received
        .iter()
        .filter_map(|(m, xid)| match m {
            OfMessage::Error { err_type, code, .. } => Some((*err_type, *code, *xid)),
            _ => None,
        })
        .collect();
    let bad_type = |xid| (ErrorType::BadAction, 0, xid);
    assert_eq!(errors, [bad_type(0x21), bad_type(0x22), bad_type(0x23)]);
    let host_b = b.sim.agent_as::<FrameSink>(b.host_b).unwrap();
    assert!(host_b.frames.is_empty(), "the PACKET_OUT sent nothing");
    let tracer = b.sim.tracer();
    assert_eq!(tracer.counter("switch.decode_error"), 0);
    assert_eq!(tracer.counter("of.flow_mod"), 1, "the route alone");
    assert_eq!(tracer.counter("of.packet_out"), 0);
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
