//! End-to-end slicing tests: a real switch behind FlowVisor with two
//! scripted slice controllers (the Fig. 2 layout).

use bytes::Bytes;
use rf_flowvisor::{FlowVisor, FlowVisorConfig, SlicePolicy};
use rf_openflow::{
    Action, FlowModCommand, MessageReader, OfMatch, OfMessage, OFPP_NONE, OFP_NO_BUFFER,
};
use rf_sim::{Agent, AgentId, ConnId, Ctx, LinkProfile, Sim, SimConfig, StreamEvent, Time};
use rf_switch::{OpenFlowSwitch, SwitchConfig};
use rf_wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, LldpPacket, MacAddr, UdpPacket};
use std::net::Ipv4Addr;
use std::time::Duration;

/// A slice controller that performs the handshake and records traffic.
#[derive(Default, Clone)]
struct SliceController {
    service: u16,
    conns: Vec<(ConnId, MessageReader)>,
    pub received: Vec<OfMessage>,
    pub received_xids: Vec<u32>,
    /// (delay, message, xid) scripted sends on the first connection.
    script: Vec<(Duration, OfMessage, u32)>,
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
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some((_, msg, xid)) = self.script.get(token as usize).cloned() {
            if let Some((c, _)) = self.conns.first() {
                let c = *c;
                ctx.conn_send(c, msg.encode(xid));
            }
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

/// Injects a frame into the switch's data port at a given time.
#[derive(Clone)]
struct Injector {
    frame: Bytes,
    at: Duration,
}
impl Agent for Injector {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(self.at, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
        ctx.send_frame(1, self.frame.clone());
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
}

fn world(topo: SliceController, rf: SliceController) -> World {
    let mut sim = Sim::new(SimConfig::default());
    let topo_ctrl = sim.add_agent("topo-ctrl", Box::new(topo));
    let rf_ctrl = sim.add_agent("rf-ctrl", Box::new(rf));
    let fv = sim.add_agent(
        "flowvisor",
        Box::new(FlowVisor::new(FlowVisorConfig::new(vec![
            SlicePolicy::lldp_slice("topology", topo_ctrl, 6641),
            SlicePolicy::ip_slice("routeflow", rf_ctrl, 6642),
        ]))),
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
        }),
    );
    sim.add_link((sw, 1), (injector, 1), LinkProfile::default());
    World {
        sim,
        topo_ctrl,
        rf_ctrl,
        fv,
        sw,
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

#[test]
fn overbroad_flow_mod_is_narrowed_to_flowspace() {
    let mut topo = SliceController::new(6641);
    topo.script = vec![(
        Duration::from_secs(1),
        OfMessage::FlowMod {
            of_match: OfMatch::any(), // asks for everything
            cookie: 7,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 50,
            buffer_id: OFP_NO_BUFFER,
            out_port: OFPP_NONE,
            flags: 0,
            actions: vec![Action::Output {
                port: rf_openflow::OFPP_CONTROLLER,
                max_len: 0xFFFF,
            }],
        },
        11,
    )];
    let mut w = world(topo, SliceController::new(6642));
    w.sim.run_until(Time::from_secs(2));
    let sw = w.sim.agent_as::<OpenFlowSwitch>(w.sw).unwrap();
    assert_eq!(sw.flow_count(), 1);
    let entry = &sw.flow_table().entries()[0];
    assert_eq!(entry.of_match, OfMatch::lldp(), "match must be narrowed");
    let fv = w.sim.agent_as::<FlowVisor>(w.fv).unwrap();
    assert_eq!(fv.rewritten_flow_mods, 1);
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

#[test]
fn barrier_xid_restored_per_slice() {
    let mut rf = SliceController::new(6642);
    rf.script = vec![(Duration::from_secs(1), OfMessage::BarrierRequest, 0xAAAA)];
    let mut topo = SliceController::new(6641);
    topo.script = vec![(Duration::from_secs(1), OfMessage::BarrierRequest, 0xBBBB)];
    let mut w = world(topo, rf);
    w.sim.run_until(Time::from_secs(2));
    let rfc = w.sim.agent_as::<SliceController>(w.rf_ctrl).unwrap();
    assert!(rfc
        .received
        .iter()
        .zip(&rfc.received_xids)
        .any(|(m, x)| matches!(m, OfMessage::BarrierReply) && *x == 0xAAAA));
    let tc = w.sim.agent_as::<SliceController>(w.topo_ctrl).unwrap();
    assert!(tc
        .received
        .iter()
        .zip(&tc.received_xids)
        .any(|(m, x)| matches!(m, OfMessage::BarrierReply) && *x == 0xBBBB));
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
