//! The topology-controller agent.

use super::alloc::Ipv4Allocator;
use super::linkdb::{LinkDb, UndirectedLink};
use super::TOPOLOGY_OF_SERVICE;
use bytes::Bytes;
use rf_openflow::{
    Action, FlowModCommand, MessageReader, OfMatch, OfMessage, PacketInView, OFPP_CONTROLLER,
    OFPP_NONE, OFP_NO_BUFFER,
};
use rf_rpc::{encode_envelope, Envelope, RpcRequest, RPC_CLIENT_SERVICE};
use rf_sim::{Agent, AgentId, ConnId, ConnProfile, Ctx, StreamEvent};
use rf_wire::ethernet::ETHERNET_HEADER_LEN;
use rf_wire::{EtherType, EthernetFrame, EthernetHeader, Ipv4Cidr, LldpPacket, MacAddr};
use std::collections::BTreeMap;
use std::time::Duration;

const T_PROBE: u64 = 1;
const T_AGE: u64 = 2;

/// The LLDP probe period a topology controller starts with, the
/// paper's 1 s.
pub(crate) const DEFAULT_PROBE_INTERVAL: Duration = Duration::from_secs(1);

/// Configuration of the topology controller. The `ip_range` is the one
/// administrator-provided input of the whole framework.
#[derive(Clone, Debug)]
pub struct TopologyControllerConfig {
    /// The RPC client to forward configuration messages to (None: run
    /// standalone, e.g. for discovery-only tests and benches).
    pub rpc_client: Option<AgentId>,
    /// Administrator-provided address range for the virtual environment.
    pub ip_range: Ipv4Cidr,
    /// LLDP probe period per switch (every port each round). A link is
    /// declared down after three periods without a probe.
    pub probe_interval: Duration,
}

impl TopologyControllerConfig {
    pub fn new(ip_range: Ipv4Cidr) -> TopologyControllerConfig {
        TopologyControllerConfig {
            rpc_client: None,
            ip_range,
            probe_interval: DEFAULT_PROBE_INTERVAL,
        }
    }

    /// How long a link lives without a probe: three probe periods, so
    /// two lost probes in a row do not take it down.
    fn link_lifetime(&self) -> Duration {
        self.probe_interval * 3
    }

    pub fn with_rpc_client(mut self, client: AgentId) -> Self {
        self.rpc_client = Some(client);
        self
    }
}

#[derive(Clone)]
struct Session {
    reader: MessageReader,
    dpid: Option<u64>,
    num_ports: u16,
    /// Pre-encoded LLDP PACKET_OUT per port (index `port - 1`), xid 0.
    /// The probe bytes per (dpid, port) never change, so each round
    /// re-frames the template with a fresh xid instead of rebuilding
    /// LLDP TLVs, an Ethernet frame and a PACKET_OUT from scratch.
    probe_cache: Vec<Bytes>,
}

/// The topology controller: LLDP discovery plus configuration-message
/// generation.
#[derive(Clone)]
pub struct TopologyController {
    cfg: TopologyControllerConfig,
    sessions: BTreeMap<ConnId, Session>,
    linkdb: LinkDb,
    alloc: Ipv4Allocator,
    /// Subnet assigned to each up link.
    subnets: BTreeMap<UndirectedLink, Ipv4Cidr>,
    /// The stream to the RPC client, dialled at start.
    rpc_conn: Option<ConnId>,
    /// Request ids handed out so far; the first request gets id 1.
    rpc_issued: u64,
    xid: u32,
    /// Probe rounds completed (diagnostics).
    pub probe_rounds: u64,
}

impl TopologyController {
    pub fn new(cfg: TopologyControllerConfig) -> TopologyController {
        let alloc = Ipv4Allocator::new(cfg.ip_range);
        TopologyController {
            cfg,
            sessions: BTreeMap::new(),
            linkdb: LinkDb::new(),
            alloc,
            subnets: BTreeMap::new(),
            rpc_conn: None,
            rpc_issued: 0,
            xid: 1,
            probe_rounds: 0,
        }
    }

    /// Known switches (dpid → port count).
    pub fn switches(&self) -> Vec<(u64, u16)> {
        let mut v: Vec<(u64, u16)> = self
            .sessions
            .values()
            .filter_map(|s| s.dpid.map(|d| (d, s.num_ports)))
            .collect();
        v.sort();
        v
    }

    /// Currently-up links.
    pub fn links(&self) -> Vec<UndirectedLink> {
        self.linkdb.links()
    }

    fn next_xid(&mut self) -> u32 {
        self.xid = self.xid.wrapping_add(1);
        self.xid
    }

    /// Send `request` to the RPC client. Bytes sent before the stream
    /// opens are delivered after the open, so nothing waits here.
    fn emit_rpc(&mut self, ctx: &mut Ctx<'_>, request: RpcRequest) {
        let Some(conn) = self.rpc_conn else { return };
        self.rpc_issued += 1;
        let req_id = self.rpc_issued;
        ctx.conn_send(
            conn,
            encode_envelope(&Envelope::Request { req_id, request }),
        );
        ctx.count("topo.rpc_out", 1);
    }

    fn handle_link_up(&mut self, ctx: &mut Ctx<'_>, link: UndirectedLink) {
        let Some(subnet) = self.alloc.alloc() else {
            ctx.count("topo.alloc_exhausted", 1);
            return;
        };
        // Deterministic assignment: canonical endpoint `a` (lower
        // dpid/port) takes the first host address.
        let ip_a = subnet.nth(1).expect("/30 has host addrs");
        let ip_b = subnet.nth(2).expect("/30 has host addrs");
        self.subnets.insert(link, subnet);
        self.emit_rpc(
            ctx,
            RpcRequest::LinkDetected {
                a_dpid: link.a.0,
                a_port: link.a.1,
                b_dpid: link.b.0,
                b_port: link.b.1,
                subnet,
                ip_a,
                ip_b,
            },
        );
    }

    fn handle_link_down(&mut self, ctx: &mut Ctx<'_>, link: UndirectedLink) {
        if let Some(subnet) = self.subnets.remove(&link) {
            self.alloc.release(subnet);
        }
        self.emit_rpc(
            ctx,
            RpcRequest::LinkRemoved {
                a_dpid: link.a.0,
                a_port: link.a.1,
                b_dpid: link.b.0,
                b_port: link.b.1,
            },
        );
    }

    /// One message off a switch's connection. A PACKET_IN — every
    /// returning LLDP probe is one — is read where it lies
    /// ([`PacketInView`], then the punted frame's Ethernet header and
    /// LLDPDU in place); everything else is decoded in full. A message
    /// that does not decode is dropped.
    fn handle_frame(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, raw: Bytes) {
        match PacketInView::parse(&raw) {
            Ok(Some(packet_in)) => {
                let frame = packet_in.payload(&raw);
                self.handle_packet_in(ctx, conn, packet_in.in_port, frame);
            }
            Ok(None) => {
                if let Ok((msg, _)) = OfMessage::decode_bytes(&raw) {
                    self.handle_of(ctx, conn, msg);
                }
            }
            Err(_) => {}
        }
    }

    /// A punted frame: if it is another switch's discovery probe, the
    /// link it crossed is confirmed.
    fn handle_packet_in(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, in_port: u16, frame: &[u8]) {
        let Some(dpid) = self.sessions.get(&conn).and_then(|s| s.dpid) else {
            return;
        };
        let Ok(eth) = EthernetHeader::parse(frame) else {
            return;
        };
        if eth.ethertype != EtherType::LLDP {
            return;
        }
        let Some((origin_dpid, origin_port)) =
            LldpPacket::parse_discovery(&frame[ETHERNET_HEADER_LEN..])
        else {
            return;
        };
        if origin_dpid == dpid {
            return; // self-loop probe; ignore
        }
        ctx.count("topo.lldp_in", 1);
        if let Some(link) =
            self.linkdb
                .observe((origin_dpid, origin_port), (dpid, in_port), ctx.now())
        {
            self.handle_link_up(ctx, link);
        }
    }

    fn handle_of(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: OfMessage) {
        match msg {
            OfMessage::Hello => {}
            OfMessage::FeaturesReply(f) => {
                let num_ports = f.num_ports;
                if let Some(s) = self.sessions.get_mut(&conn) {
                    s.dpid = Some(f.datapath_id);
                    s.num_ports = num_ports;
                }
                // Punt every LLDP frame to this controller.
                let xid = self.next_xid();
                let punt = OfMessage::FlowMod {
                    of_match: OfMatch::lldp(),
                    cookie: 0x4C4C4450, // "LLDP"
                    command: FlowModCommand::Add,
                    idle_timeout: 0,
                    hard_timeout: 0,
                    priority: 0xFFFF,
                    buffer_id: OFP_NO_BUFFER,
                    out_port: OFPP_NONE,
                    flags: 0,
                    actions: vec![Action::Output {
                        port: OFPP_CONTROLLER,
                        max_len: 0xFFFF,
                    }],
                };
                ctx.conn_send(conn, punt.encode(xid));
                self.emit_rpc(
                    ctx,
                    RpcRequest::SwitchDetected {
                        dpid: f.datapath_id,
                        num_ports,
                    },
                );
                // Probe immediately rather than waiting a full period.
                if let Some(s) = self.sessions.get_mut(&conn) {
                    Self::probe_switch(ctx, conn, s, &mut self.xid);
                }
            }
            _ => {}
        }
    }

    /// Send one LLDP probe out of every port of the switch on `conn`, each
    /// under the next of the controller's xids.
    fn probe_switch(ctx: &mut Ctx<'_>, conn: ConnId, s: &mut Session, xid: &mut u32) {
        let Some(dpid) = s.dpid else { return };
        let num_ports = s.num_ports;
        if s.probe_cache.len() != num_ports as usize {
            s.probe_cache = (1..=num_ports)
                .map(|port| {
                    let probe = EthernetFrame::new(
                        MacAddr::LLDP_MULTICAST,
                        MacAddr::from_dpid_port(dpid, port),
                        EtherType::LLDP,
                        LldpPacket::discovery_probe(dpid, port).emit(),
                    );
                    OfMessage::PacketOut {
                        buffer_id: OFP_NO_BUFFER,
                        in_port: OFPP_NONE,
                        actions: vec![Action::output(port)],
                        data: probe.emit(),
                    }
                    .encode(0)
                })
                .collect();
        }
        for template in &s.probe_cache {
            *xid = xid.wrapping_add(1);
            // The template stays: its clone makes this the copying case.
            ctx.conn_send(conn, rf_openflow::reframe_with_xid(template.clone(), *xid));
            ctx.count("topo.lldp_out", 1);
        }
    }
}

impl Agent for TopologyController {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(TOPOLOGY_OF_SERVICE);
        self.rpc_conn = self
            .cfg
            .rpc_client
            .map(|client| ctx.connect(client, RPC_CLIENT_SERVICE, ConnProfile::default()));
        ctx.schedule(self.cfg.probe_interval, T_PROBE);
        ctx.schedule(self.cfg.link_lifetime(), T_AGE);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            T_PROBE => {
                // In ConnId order: same-instant probe emission order
                // decides event sequence numbers.
                for (&conn, s) in &mut self.sessions {
                    Self::probe_switch(ctx, conn, s, &mut self.xid);
                }
                self.probe_rounds += 1;
                ctx.schedule(self.cfg.probe_interval, T_PROBE);
            }
            T_AGE => {
                let down = self.linkdb.expire(ctx.now(), self.cfg.link_lifetime());
                for link in down {
                    self.handle_link_down(ctx, link);
                }
                ctx.schedule(self.cfg.link_lifetime(), T_AGE);
            }
            _ => {}
        }
    }

    fn on_stream(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, event: StreamEvent) {
        match event {
            StreamEvent::Opened {
                initiated_by_us, ..
            } => {
                if initiated_by_us {
                    return; // the RPC stream: nothing else dials out
                }
                self.sessions.insert(
                    conn,
                    Session {
                        reader: MessageReader::new(),
                        dpid: None,
                        num_ports: 0,
                        probe_cache: Vec::new(),
                    },
                );
                ctx.conn_send(conn, OfMessage::Hello.encode(0));
                let xid = self.next_xid();
                ctx.conn_send(conn, OfMessage::FeaturesRequest.encode(xid));
            }
            StreamEvent::Data(data) => {
                let Some(s) = self.sessions.get_mut(&conn) else {
                    return;
                };
                s.reader.push_bytes(data);
                // No handler resets or removes this session, so taking
                // the messages one at a time sees what draining them
                // first would. A frame that breaks the framing is dropped.
                while let Some(raw) = self
                    .sessions
                    .get_mut(&conn)
                    .and_then(|s| s.reader.next_frame())
                {
                    if let Ok(raw) = raw {
                        self.handle_frame(ctx, conn, raw);
                    }
                }
            }
            StreamEvent::Closed => {
                if let Some(s) = self.sessions.remove(&conn) {
                    if let Some(dpid) = s.dpid {
                        for link in self.linkdb.remove_switch(dpid) {
                            self.handle_link_down(ctx, link);
                        }
                        self.emit_rpc(ctx, RpcRequest::SwitchRemoved { dpid });
                    }
                }
            }
        }
    }
}
