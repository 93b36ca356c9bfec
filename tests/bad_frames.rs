//! A frame that fails to decode is dropped, and the frames behind it in
//! the same chunk are read at once: they are not left buffered until
//! the next chunk arrives.

use bytes::Bytes;
use rf_core::apps::ControlPlane;
use rf_core::rfcontroller::{HostPortConfig, RfControllerConfig, RF_CONTROLLER_OF_SERVICE};
use rf_core::vnet::{RfMessage, VmAgent, RF_SERVICE};
use rf_openflow::{
    Action, MessageReader, OfMessage, PacketInReason, SwitchFeatures, OFP_NO_BUFFER,
};
use rf_routed::config::VmRouterConfig;
use rf_rpc::{
    encode_envelope, Envelope, RpcClientAgent, RpcFrameReader, RpcRequest, RPC_CLIENT_SERVICE,
    RPC_SERVER_SERVICE,
};
use rf_sim::{Agent, AgentId, ConnId, ConnProfile, Ctx, Sim, SimConfig, StreamEvent, Time};
use rf_wire::{ArpOp, ArpPacket, EtherType, EthernetFrame, Ipv4Cidr, MacAddr};
use std::net::Ipv4Addr;
use std::time::Duration;

/// How long after the first chunk the peer writes the second.
const GAP: Duration = Duration::from_millis(100);

/// Dials `target:service` (or, with no target, listens on `service`),
/// writes `first` as one chunk as soon as the connection opens and
/// `second` [`GAP`] later, and keeps every chunk it receives with the
/// instant it arrived.
#[derive(Clone)]
struct Peer {
    target: Option<AgentId>,
    service: u16,
    first: Bytes,
    second: Bytes,
    conn: Option<ConnId>,
    sent: Vec<Time>,
    received: Vec<(Time, Bytes)>,
}

impl Agent for Peer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        match self.target {
            Some(target) => {
                self.conn = Some(ctx.connect(target, self.service, ConnProfile::default()))
            }
            None => ctx.listen(self.service),
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.conn_send(self.conn.expect("opened"), self.second.clone());
        self.sent.push(ctx.now());
    }
    fn on_stream(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, event: StreamEvent) {
        if self.conn.is_some_and(|c| c != conn) {
            return;
        }
        match event {
            StreamEvent::Opened { .. } => {
                self.conn = Some(conn);
                ctx.conn_send(conn, self.first.clone());
                self.sent.push(ctx.now());
                ctx.schedule(GAP, 0);
            }
            StreamEvent::Data(data) => self.received.push((ctx.now(), data)),
            StreamEvent::Closed => {}
        }
    }
}

impl Peer {
    fn new(target: Option<AgentId>, service: u16, first: Bytes, second: Bytes) -> Peer {
        Peer {
            target,
            service,
            first,
            second,
            conn: None,
            sent: Vec::new(),
            received: Vec::new(),
        }
    }
}

/// Listens on `service` and keeps every chunk it receives with the
/// instant it arrived.
#[derive(Clone)]
struct Sink {
    service: u16,
    received: Vec<(Time, Bytes)>,
}

impl Agent for Sink {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(self.service);
    }
    fn on_stream(&mut self, ctx: &mut Ctx<'_>, _conn: ConnId, event: StreamEvent) {
        if let StreamEvent::Data(data) = event {
            self.received.push((ctx.now(), data));
        }
    }
}

/// `target` (agent 0) and a [`Peer`] (agent 1) in one world; the peer
/// dials the target unless `dial` is false.
fn world(target: Box<dyn Agent>, dial: bool, service: u16, first: Bytes, second: Bytes) -> Sim {
    let mut sim = Sim::new(SimConfig::default());
    let target = sim.add_agent("target", target);
    sim.add_agent(
        "peer",
        Box::new(Peer::new(dial.then_some(target), service, first, second)),
    );
    sim
}

fn peer(sim: &Sim) -> Peer {
    sim.agent_as::<Peer>(AgentId(1))
        .expect("peer agent")
        .clone()
}

/// Run `target` against a peer that dials it for a second; return what
/// the peer sent when, and what it received.
fn run(target: Box<dyn Agent>, service: u16, first: Bytes, second: Bytes) -> Peer {
    let mut sim = world(target, true, service, first, second);
    sim.run_until(Time::from_secs(1));
    peer(&sim)
}

fn concat(a: &Bytes, b: &Bytes) -> Bytes {
    Bytes::from([&a[..], &b[..]].concat())
}

/// The RF-controller answers a gateway ARP request punted to it (a
/// PACKET_IN) that follows a PACKET_IN it cannot decode (reason 7) in
/// the same chunk one round trip after the chunk, as it answers one
/// sent alone: each with a PACKET_OUT carrying the ARP reply.
#[test]
fn the_controller_reads_past_a_frame_it_cannot_decode() {
    let (dpid, port) = (1, 1);
    let gateway = Ipv4Addr::new(10, 0, 1, 1);
    let mut bad = OfMessage::PacketIn {
        buffer_id: OFP_NO_BUFFER,
        total_len: 4,
        in_port: port,
        reason: PacketInReason::NoMatch,
        data: Bytes::from_static(b"junk"),
    }
    .encode(3)
    .to_vec();
    bad[16] = 7; // the reason: header (8), buffer_id (4), total_len (2), in_port (2)
    let bad = Bytes::from(bad);
    assert!(
        OfMessage::decode_bytes(&bad).is_err(),
        "reason 7 is malformed"
    );
    // The peer is the switch: it names itself first, then punts an
    // address probe for the gateway (sender 0.0.0.0: nothing is
    // learned, so the reply is all the controller sends).
    let features = OfMessage::FeaturesReply(SwitchFeatures {
        datapath_id: dpid,
        num_ports: 2,
    })
    .encode(1);
    let host = MacAddr([2, 0, 0, 0, 0, 0x42]);
    let probe = EthernetFrame::new(
        MacAddr::BROADCAST,
        host,
        EtherType::ARP,
        ArpPacket::request(host, Ipv4Addr::UNSPECIFIED, gateway).emit(),
    )
    .emit();
    let arp_in = |xid| {
        OfMessage::PacketIn {
            buffer_id: OFP_NO_BUFFER,
            total_len: probe.len() as u16,
            in_port: port,
            reason: PacketInReason::NoMatch,
            data: probe.clone(),
        }
        .encode(xid)
    };
    let config = RfControllerConfig {
        host_ports: vec![HostPortConfig {
            dpid,
            port,
            subnet: Ipv4Cidr::new(Ipv4Addr::new(10, 0, 1, 0), 24),
            gateway,
        }],
        ..RfControllerConfig::default()
    };
    let peer = run(
        Box::new(ControlPlane::new(config)),
        RF_CONTROLLER_OF_SERVICE,
        concat(&concat(&features, &bad), &arp_in(9)),
        arp_in(10),
    );
    let mut replies = Vec::new();
    for (at, chunk) in &peer.received {
        let mut reader = MessageReader::new();
        reader.push_bytes(chunk.clone());
        while let Some(Ok((msg, _))) = reader.next() {
            if let OfMessage::PacketOut { actions, data, .. } = msg {
                let eth = EthernetFrame::parse_bytes(&data).expect("an Ethernet frame");
                let arp = ArpPacket::parse(&eth.payload).expect("an ARP reply");
                assert_eq!(
                    (arp.op, arp.sender_ip, eth.dst),
                    (ArpOp::Reply, gateway, host)
                );
                assert_eq!(actions, [Action::output(port)]);
                replies.push(*at);
            }
        }
    }
    assert_eq!(replies.len(), 2, "one reply per probe");
    let rtt = |i: usize| replies[i].since(peer.sent[i]);
    assert_eq!(rtt(0), rtt(1), "the first probe waited for the next chunk");
}

/// The RPC relay forwards the envelopes in a chunk one by one, as they
/// arrived, one relay hop after the chunk: a request behind an
/// envelope the server cannot decode (an unknown kind) goes on at once,
/// as one sent alone does, and so does the bad envelope — the server
/// counts it, the relay decodes nothing.
#[test]
fn the_relay_reads_past_an_envelope_it_cannot_decode() {
    let request = |req_id| {
        encode_envelope(&Envelope::Request {
            req_id,
            request: RpcRequest::SwitchDetected {
                dpid: req_id,
                num_ports: 2,
            },
        })
    };
    let mut bad = request(4).to_vec();
    bad[6] = 9; // the envelope kind, after the magic and the length
    let bad = Bytes::from(bad);
    assert!(
        rf_rpc::decode_envelope(&bad).is_err(),
        "kind 9 is malformed"
    );
    // The server listens before the relay dials it at start.
    let mut sim = Sim::new(SimConfig::default());
    let server = sim.add_agent(
        "server",
        Box::new(Sink {
            service: RPC_SERVER_SERVICE,
            received: Vec::new(),
        }),
    );
    let relay = sim.add_agent("relay", Box::new(RpcClientAgent::new(server)));
    let writer = sim.add_agent(
        "peer",
        Box::new(Peer::new(
            Some(relay),
            RPC_CLIENT_SERVICE,
            concat(&bad, &request(5)),
            request(6),
        )),
    );
    sim.run_until(Time::from_secs(1));
    let sent = sim
        .agent_as::<Peer>(writer)
        .expect("peer agent")
        .sent
        .clone();
    let mut forwarded = Vec::new();
    for (at, chunk) in &sim.agent_as::<Sink>(server).expect("sink agent").received {
        let mut reader = RpcFrameReader::new();
        reader.push_bytes(chunk.clone());
        while let Some(frame) = reader.next_frame() {
            forwarded.push((frame.expect("a framed envelope"), *at));
        }
    }
    assert_eq!(
        forwarded.iter().map(|(f, _)| f.clone()).collect::<Vec<_>>(),
        [bad, request(5), request(6)],
        "the relay forwards what it framed, byte for byte"
    );
    let hop = |i: usize, chunk: usize| forwarded[i].1.since(sent[chunk]);
    assert_eq!(hop(0, 0), hop(2, 1), "the bad envelope waited");
    assert_eq!(hop(1, 0), hop(2, 1), "request 5 waited for the next chunk");
}

/// A VM applies the configuration files that follow an RF frame it
/// cannot decode (an unknown tag) in the same chunk at once, not when
/// the next chunk arrives.
#[test]
fn a_vm_reads_past_a_frame_it_cannot_decode() {
    let iface = [(1, "172.31.0.1/30".parse().unwrap())];
    let (zebra, ospf) = VmRouterConfig::generate(1, &iface).render_all();
    let configs = RfMessage::WriteConfigs { zebra, ospf }.encode();
    // A one-byte body: the unknown tag 9.
    let bad = Bytes::from_static(&[0, 0, 0, 1, 9]);
    // The VM (agent 0) dials its RF server, the peer, once it has
    // booted.
    let vm = VmAgent::new(1, AgentId(1), Duration::from_millis(10));
    let mut sim = world(
        Box::new(vm),
        false,
        RF_SERVICE,
        concat(&bad, &configs),
        configs,
    );
    sim.run_until(Time::from_millis(100));
    let sent = peer(&sim).sent;
    assert_eq!(sent.len(), 1, "only the first chunk is out: {sent:?}");
    let vm = sim.agent_as::<VmAgent>(AgentId(0)).expect("vm agent");
    assert!(
        vm.ospf_timers().is_some(),
        "the configuration waited for the next chunk"
    );
}
