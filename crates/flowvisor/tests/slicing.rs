//! End-to-end slicing tests: a real switch behind FlowVisor with two
//! scripted slice controllers (the Fig. 2 layout).

use bytes::Bytes;
use rf_flowvisor::{FlowVisor, SlicePolicy};
use rf_openflow::{
    Action, ErrorType, FlowModCommand, MessageReader, OfMatch, OfMessage, OFPP_NONE,
    OFP_HEADER_LEN, OFP_NO_BUFFER,
};
use rf_sim::{Agent, AgentId, ConnId, Ctx, LinkProfile, Sim, SimConfig, StreamEvent, Time};
use rf_switch::{OpenFlowSwitch, SwitchConfig};
use rf_wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, LldpPacket, MacAddr, UdpPacket};
use std::net::Ipv4Addr;
use std::time::Duration;

/// Size of `ofp_match`: a FLOW_MOD's fixed fields follow it.
const OFP_MATCH_LEN: usize = 40;

/// A slice controller that performs the handshake and records traffic.
#[derive(Default, Clone)]
struct SliceController {
    service: u16,
    conns: Vec<(ConnId, MessageReader)>,
    pub received: Vec<OfMessage>,
    pub received_xids: Vec<u32>,
    /// (delay, message, xid) scripted sends on the first connection.
    script: Vec<(Duration, OfMessage, u32)>,
    /// (delay, bytes) scripted raw writes on the first connection.
    raw: Vec<(Duration, Bytes)>,
    pub features_dpids: Vec<u64>,
}

impl SliceController {
    fn new(service: u16) -> SliceController {
        SliceController {
            service,
            ..Default::default()
        }
    }
}

impl Agent for SliceController {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(self.service);
        for (i, (d, _, _)) in self.script.iter().enumerate() {
            ctx.schedule(*d, i as u64);
        }
        for (i, (d, _)) in self.raw.iter().enumerate() {
            ctx.schedule(*d, 1000 + i as u64);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let bytes = match token {
            1000.. => self.raw.get(token as usize - 1000).map(|r| r.1.clone()),
            _ => self
                .script
                .get(token as usize)
                .map(|(_, msg, xid)| msg.encode(*xid)),
        };
        if let (Some(bytes), Some((c, _))) = (bytes, self.conns.first()) {
            ctx.conn_send(*c, bytes);
        }
    }
    fn on_stream(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, ev: StreamEvent) {
        match ev {
            StreamEvent::Opened { .. } => {
                ctx.conn_send(conn, OfMessage::Hello.encode(0));
                ctx.conn_send(conn, OfMessage::FeaturesRequest.encode(0xF00));
                self.conns.push((conn, MessageReader::new()));
            }
            StreamEvent::Data(data) => {
                if let Some((_, r)) = self.conns.iter_mut().find(|(c, _)| *c == conn) {
                    r.push_bytes(data);
                    while let Some(Ok((m, xid))) = r.next() {
                        if let OfMessage::FeaturesReply(f) = &m {
                            self.features_dpids.push(f.datapath_id);
                        }
                        self.received_xids.push(xid);
                        self.received.push(m);
                    }
                }
            }
            StreamEvent::Closed => {}
        }
    }
}

/// Injects a frame into the switch's data port at a given time, and
/// counts the frames the switch sends it.
#[derive(Clone)]
struct Injector {
    frame: Bytes,
    at: Duration,
    received: usize,
}
impl Agent for Injector {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(self.at, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
        ctx.send_frame(1, self.frame.clone());
    }
    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: u32, _frame: Bytes) {
        self.received += 1;
    }
}

fn lldp_frame() -> Bytes {
    EthernetFrame::new(
        MacAddr::LLDP_MULTICAST,
        MacAddr([2, 0, 0, 0, 0, 1]),
        EtherType::LLDP,
        LldpPacket::discovery_probe(5, 2).emit(),
    )
    .emit()
}

fn ipv4_frame() -> Bytes {
    let src = Ipv4Addr::new(10, 0, 0, 1);
    let dst = Ipv4Addr::new(10, 0, 0, 2);
    let udp = UdpPacket::new(1, 2, Bytes::from_static(b"x"));
    EthernetFrame::new(
        MacAddr([2; 6]),
        MacAddr([4; 6]),
        EtherType::IPV4,
        Ipv4Packet::new(src, dst, IpProtocol::UDP, udp.emit(src, dst)).emit(),
    )
    .emit()
}

struct World {
    sim: Sim,
    topo_ctrl: AgentId,
    rf_ctrl: AgentId,
    fv: AgentId,
    sw: AgentId,
    injector: AgentId,
}

fn world(topo: SliceController, rf: SliceController) -> World {
    let mut sim = Sim::new(SimConfig::default());
    let topo_ctrl = sim.add_agent("topo-ctrl", Box::new(topo));
    let rf_ctrl = sim.add_agent("rf-ctrl", Box::new(rf));
    let fv = sim.add_agent(
        "flowvisor",
        Box::new(FlowVisor::new(vec![
            SlicePolicy::lldp_slice("topology", topo_ctrl, 6641),
            SlicePolicy::ip_slice("routeflow", rf_ctrl, 6642),
        ])),
    );
    let sw = sim.add_agent(
        "sw5",
        Box::new(OpenFlowSwitch::new(SwitchConfig::new(5, 2, fv))),
    );
    let injector = sim.add_agent(
        "injector",
        Box::new(Injector {
            frame: Bytes::new(),
            at: Duration::from_secs(3600), // overridden per test
            received: 0,
        }),
    );
    sim.add_link((sw, 1), (injector, 1), LinkProfile::default());
    World {
        sim,
        topo_ctrl,
        rf_ctrl,
        fv,
        sw,
        injector,
    }
}

#[test]
fn both_slices_complete_handshake_with_cached_features() {
    let mut w = world(SliceController::new(6641), SliceController::new(6642));
    w.sim.run_until(Time::from_secs(2));
    for ctrl in [w.topo_ctrl, w.rf_ctrl] {
        let c = w.sim.agent_as::<SliceController>(ctrl).unwrap();
        assert_eq!(c.features_dpids, vec![5], "controller must see dpid 5");
    }
    let fv = w.sim.agent_as::<FlowVisor>(w.fv).unwrap();
    assert_eq!(fv.switch_count(), 1);
}

#[test]
fn packet_in_routed_by_flowspace() {
    let mut w = world(SliceController::new(6641), SliceController::new(6642));
    // Inject LLDP at t=2 and IPv4 at t=2 (same injector: re-point frame).
    w.sim
        .agent_as_mut::<Injector>(rf_sim::AgentId(4))
        .unwrap()
        .frame = lldp_frame();
    w.sim
        .agent_as_mut::<Injector>(rf_sim::AgentId(4))
        .unwrap()
        .at = Duration::from_secs(2);
    w.sim.run_until(Time::from_secs(3));
    let topo = w.sim.agent_as::<SliceController>(w.topo_ctrl).unwrap();
    assert_eq!(
        topo.received
            .iter()
            .filter(|m| matches!(m, OfMessage::PacketIn { .. }))
            .count(),
        1,
        "LLDP PACKET_IN must reach the topology slice"
    );
    let rf = w.sim.agent_as::<SliceController>(w.rf_ctrl).unwrap();
    assert_eq!(
        rf.received
            .iter()
            .filter(|m| matches!(m, OfMessage::PacketIn { .. }))
            .count(),
        0,
        "LLDP must not leak into the RouteFlow slice"
    );
}

#[test]
fn ipv4_packet_in_goes_to_rf_slice() {
    let mut w = world(SliceController::new(6641), SliceController::new(6642));
    w.sim
        .agent_as_mut::<Injector>(rf_sim::AgentId(4))
        .unwrap()
        .frame = ipv4_frame();
    w.sim
        .agent_as_mut::<Injector>(rf_sim::AgentId(4))
        .unwrap()
        .at = Duration::from_secs(2);
    w.sim.run_until(Time::from_secs(3));
    let rf = w.sim.agent_as::<SliceController>(w.rf_ctrl).unwrap();
    assert_eq!(
        rf.received
            .iter()
            .filter(|m| matches!(m, OfMessage::PacketIn { .. }))
            .count(),
        1
    );
    let topo = w.sim.agent_as::<SliceController>(w.topo_ctrl).unwrap();
    assert!(!topo
        .received
        .iter()
        .any(|m| matches!(m, OfMessage::PacketIn { .. })));
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

/// The FlowVisor twin of the switch's refusals: a slice's FLOW_MOD that
/// matches on a transport port, on the ingress port or on nothing at
/// all comes back `FLOW_MOD_FAILED` / `UNSUPPORTED`, a MODIFY or loose
/// DELETE `FLOW_MOD_FAILED` / `BAD_COMMAND` — from FlowVisor, which
/// cannot decode them, so no switch sees them — and one filtering by an
/// `out_port` `FLOW_MOD_FAILED` / `UNSUPPORTED` from the switch. Each
/// answers under the slice's own xid, and nothing is installed.
#[test]
fn matches_and_commands_outside_the_loop_are_refused_to_their_slice() {
    let route = OfMessage::FlowMod {
        of_match: OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 0, 0, 0), 8),
        cookie: 7,
        command: FlowModCommand::Add,
        idle_timeout: 0,
        hard_timeout: 0,
        priority: 100,
        buffer_id: OFP_NO_BUFFER,
        out_port: OFPP_NONE,
        flags: 0,
        actions: vec![Action::output(1)],
    };
    let (wildcards, command) = (OFP_HEADER_LEN, OFP_HEADER_LEN + OFP_MATCH_LEN + 8);
    // The route's wildcards but OFPFW_TP_DST, with tp_dst 5004; but
    // OFPFW_IN_PORT, with in_port 1; all of them (`any`).
    let tp_dst: &[(usize, &[u8])] = &[(wildcards + 3, &[0x6F]), (46, &[0x13, 0x8C])];
    let in_port: &[(usize, &[u8])] = &[(wildcards + 3, &[0xEE]), (12, &[0, 1])];
    let any: &[(usize, &[u8])] = &[(wildcards, &[0x00, 0x3F, 0xFF, 0xFF])];
    // A DELETE_STRICT of the route's entries that output to port 1.
    let out_port = command + 12;
    let filtered: &[(usize, &[u8])] = &[(command, &[0, 4]), (out_port, &[0, 1])];
    let at = Duration::from_secs(1);
    let mut rf = SliceController::new(6642);
    rf.raw = vec![
        (at, patched(&route, 0xC1, tp_dst)),
        (at, patched(&route, 0xC2, in_port)),
        (at, patched(&route, 0xC3, any)),
        (at, patched(&route, 0xC4, &[(command, &[0, 1])])),
        (at, patched(&route, 0xC5, &[(command, &[0, 3])])),
        (at, patched(&route, 0xC6, filtered)),
    ];
    let mut w = world(SliceController::new(6641), rf);
    w.sim.run_until(Time::from_secs(2));
    let c = w.sim.agent_as::<SliceController>(w.rf_ctrl).unwrap();
    let errors: Vec<_> = c
        .received
        .iter()
        .zip(&c.received_xids)
        .filter_map(|(m, x)| match m {
            OfMessage::Error { err_type, code, .. } => Some((*err_type, *code, *x)),
            _ => None,
        })
        .collect();
    let failed = |code, xid| (ErrorType::FlowModFailed, code, xid);
    assert_eq!(
        errors,
        [
            failed(5, 0xC1),
            failed(5, 0xC2),
            failed(5, 0xC3),
            failed(4, 0xC4),
            failed(4, 0xC5),
            failed(5, 0xC6),
        ]
    );
    let sw = w.sim.agent_as::<OpenFlowSwitch>(w.sw).unwrap();
    assert!(sw.flow_table().is_empty(), "no FLOW_MOD was installed");
    assert_eq!(sw.errors_sent, 1, "the switch saw the out_port filter only");
    let fv = w.sim.agent_as::<FlowVisor>(w.fv).unwrap();
    assert_eq!(fv.denied_flow_mods, 0, "each lay inside the flowspace");
}

#[test]
fn disjoint_flow_mod_rejected_with_eperm() {
    let mut topo = SliceController::new(6641);
    topo.script = vec![(
        Duration::from_secs(1),
        OfMessage::FlowMod {
            of_match: OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 0, 0, 0), 8),
            cookie: 0,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 1,
            buffer_id: OFP_NO_BUFFER,
            out_port: OFPP_NONE,
            flags: 0,
            actions: vec![Action::output(1)],
        },
        77,
    )];
    let mut w = world(topo, SliceController::new(6642));
    w.sim.run_until(Time::from_secs(2));
    let sw = w.sim.agent_as::<OpenFlowSwitch>(w.sw).unwrap();
    assert_eq!(
        sw.flow_count(),
        0,
        "denied FLOW_MOD must not reach the switch"
    );
    let topo = w.sim.agent_as::<SliceController>(w.topo_ctrl).unwrap();
    let got_err = topo.received.iter().zip(&topo.received_xids).any(|(m, x)| {
        matches!(
            m,
            OfMessage::Error {
                err_type: rf_openflow::ErrorType::FlowModFailed,
                code: 2,
                ..
            }
        ) && *x == 77
    });
    assert!(got_err, "controller must get EPERM with its own xid");
}

/// Each slice's refused request comes back to that slice alone, under
/// the slice's own xid: the RF slice's FLOW_MOD with a hard timeout
/// (FLOW_MOD_FAILED / UNSUPPORTED), the topology slice's PACKET_OUT
/// naming a buffer (BAD_REQUEST / BUFFER_UNKNOWN). Both pass the
/// flowspace check; the switch refuses them.
#[test]
fn refusal_xid_restored_per_slice() {
    let mut rf = SliceController::new(6642);
    let timed = OfMessage::FlowMod {
        of_match: OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 0, 0, 0), 8),
        cookie: 7,
        command: FlowModCommand::Add,
        idle_timeout: 0,
        hard_timeout: 30,
        priority: 100,
        buffer_id: OFP_NO_BUFFER,
        out_port: OFPP_NONE,
        flags: 0,
        actions: vec![Action::output(1)],
    };
    rf.script = vec![(Duration::from_secs(1), timed, 0xAAAA)];
    let mut topo = SliceController::new(6641);
    let buffered = OfMessage::PacketOut {
        buffer_id: 7,
        in_port: 1,
        actions: vec![Action::output(1)],
        data: Bytes::new(),
    };
    topo.script = vec![(Duration::from_secs(1), buffered, 0xBBBB)];
    let mut w = world(topo, rf);
    w.sim.run_until(Time::from_secs(2));
    let errors = |ctrl| {
        let c = w.sim.agent_as::<SliceController>(ctrl).unwrap();
        c.received
            .iter()
            .zip(&c.received_xids)
            .filter_map(|(m, x)| match m {
                OfMessage::Error { err_type, code, .. } => Some((*err_type, *code, *x)),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(errors(w.rf_ctrl), [(ErrorType::FlowModFailed, 5, 0xAAAA)]);
    assert_eq!(errors(w.topo_ctrl), [(ErrorType::BadRequest, 8, 0xBBBB)]);
    let sw = w.sim.agent_as::<OpenFlowSwitch>(w.sw).unwrap();
    assert!(
        sw.flow_table().is_empty(),
        "the timed FLOW_MOD went nowhere"
    );
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

/// A slice's FLOW_MOD or PACKET_OUT naming an action other than OUTPUT,
/// SET_DL_SRC and SET_DL_DST is refused as a switch refuses it — BAD_ACTION
/// / BAD_TYPE — to the slice that sent it, under the slice's own xid,
/// though each lies inside its flowspace: FlowVisor cannot decode it,
/// so it reaches no switch, and nothing is installed or sent.
#[test]
fn actions_outside_the_three_are_refused_to_their_slice() {
    const SET_VLAN_VID: [u8; 8] = [0, 1, 0, 8, 0, 100, 0, 0];
    const SET_NW_DST: [u8; 8] = [0, 7, 0, 8, 172, 16, 0, 1];
    const TYPE_FFFF: [u8; 8] = [0xFF, 0xFF, 0, 8, 0, 0, 0, 0];
    let route = OfMessage::FlowMod {
        of_match: OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 0, 0, 0), 8),
        cookie: 7,
        command: FlowModCommand::Add,
        idle_timeout: 0,
        hard_timeout: 0,
        priority: 100,
        buffer_id: OFP_NO_BUFFER,
        out_port: OFPP_NONE,
        flags: 0,
        actions: vec![Action::output(1)],
    };
    let probe = OfMessage::PacketOut {
        buffer_id: OFP_NO_BUFFER,
        in_port: OFPP_NONE,
        actions: vec![Action::output(1)],
        data: lldp_frame(),
    };
    let at = Duration::from_secs(1);
    let mut rf = SliceController::new(6642);
    rf.raw = vec![
        (at, with_action(route.clone(), 0xA1, SET_NW_DST)),
        (at, with_action(route, 0xA3, TYPE_FFFF)),
    ];
    let mut topo = SliceController::new(6641);
    topo.raw = vec![(at, with_action(probe, 0xB2, SET_VLAN_VID))];
    let mut w = world(topo, rf);
    w.sim.run_until(Time::from_secs(2));
    let errors = |ctrl| {
        let c = w.sim.agent_as::<SliceController>(ctrl).unwrap();
        c.received
            .iter()
            .zip(&c.received_xids)
            .filter_map(|(m, x)| match m {
                OfMessage::Error { err_type, code, .. } => Some((*err_type, *code, *x)),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    let bad_type = |xid| (ErrorType::BadAction, 0, xid);
    assert_eq!(errors(w.rf_ctrl), [bad_type(0xA1), bad_type(0xA3)]);
    assert_eq!(errors(w.topo_ctrl), [bad_type(0xB2)]);
    let sw = w.sim.agent_as::<OpenFlowSwitch>(w.sw).unwrap();
    assert!(sw.flow_table().is_empty(), "no FLOW_MOD was installed");
    assert_eq!(sw.errors_sent, 0, "the switch saw none of them");
    let injector = w.sim.agent_as::<Injector>(w.injector).unwrap();
    assert_eq!(injector.received, 0, "the PACKET_OUT sent nothing");
}

#[test]
fn packet_out_outside_flowspace_denied() {
    let mut topo = SliceController::new(6641);
    topo.script = vec![(
        Duration::from_secs(1),
        OfMessage::PacketOut {
            buffer_id: OFP_NO_BUFFER,
            in_port: OFPP_NONE,
            actions: vec![Action::output(1)],
            data: ipv4_frame(), // topology slice does not own IPv4
        },
        5,
    )];
    let mut w = world(topo, SliceController::new(6642));
    w.sim.run_until(Time::from_secs(2));
    let tc = w.sim.agent_as::<SliceController>(w.topo_ctrl).unwrap();
    assert!(tc.received.iter().any(|m| matches!(
        m,
        OfMessage::Error {
            err_type: rf_openflow::ErrorType::BadRequest,
            code: 4,
            ..
        }
    )));
}

/// A PACKET_OUT whose payload is too short for an Ethernet header
/// cannot be classified, so no slice owns it: it is refused with `EPERM`
/// under the slice's xid, and the switch sends nothing.
#[test]
fn packet_out_too_short_to_classify_denied() {
    let mut topo = SliceController::new(6641);
    topo.script = vec![(
        Duration::from_secs(1),
        OfMessage::PacketOut {
            buffer_id: OFP_NO_BUFFER,
            in_port: OFPP_NONE,
            actions: vec![Action::output(1)],
            data: Bytes::from_static(&[0xAB; 10]),
        },
        0x5E,
    )];
    let mut w = world(topo, SliceController::new(6642));
    w.sim.run_until(Time::from_secs(2));
    let tc = w.sim.agent_as::<SliceController>(w.topo_ctrl).unwrap();
    let errors: Vec<_> = tc
        .received
        .iter()
        .zip(&tc.received_xids)
        .filter_map(|(m, x)| match m {
            OfMessage::Error { err_type, code, .. } => Some((*err_type, *code, *x)),
            _ => None,
        })
        .collect();
    assert_eq!(errors, [(ErrorType::BadRequest, 4, 0x5E)]);
    let injector = w.sim.agent_as::<Injector>(w.injector).unwrap();
    assert_eq!(injector.received, 0, "the runt left no port");
}
