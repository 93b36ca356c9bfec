//! The FlowVisor proxy agent.

use crate::slice::SlicePolicy;
use bytes::Bytes;
use rf_openflow::{
    reframe_with_xid, ErrorCode, ErrorType, MessageReader, OfError, OfHeader, OfMessage,
    PacketInView, PacketKey, PacketOutView, OFP_NO_BUFFER,
};
use rf_sim::{Agent, ConnId, ConnProfile, Ctx, StreamEvent};

/// Marker for FlowVisor-originated requests in the xid ring.
const FV_SELF: usize = u32::MAX as usize;
/// How many of the most recently allocated xids stay routable. Only a
/// reply removes its entry, and PACKET_OUT, FLOW_MOD and SET_CONFIG are
/// answered on failure only, so without a bound every LLDP probe leaves
/// a dead entry behind. A reply trails its request by one switch round
/// trip; the window has to outlast the requests forwarded (to all
/// switches) in that time, nothing more.
const XID_WINDOW: u32 = 4096;

/// Service switches dial: 6633, the OpenFlow 1.0 controller port every
/// switch dials by default.
const LISTEN_SERVICE: u16 = 6633;

#[derive(Clone)]
struct Upstream {
    conn: Option<ConnId>,
    ready: bool,
    reader: MessageReader,
}

#[derive(Clone)]
struct SwitchSession {
    conn: ConnId,
    reader: MessageReader,
    features: Option<rf_openflow::SwitchFeatures>,
    upstreams: Vec<Upstream>,
    alive: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Role {
    Switch(usize),
    Upstream { sw: usize, slice: usize },
}

/// One slot of the xid ring: rewritten `xid` stands for `orig` of
/// `slice` on switch `sw`. xid 0 is never allocated and marks a free
/// slot. (16 bytes: the ring is cloned with every fork.)
#[derive(Clone, Copy, Default)]
struct XidSlot {
    xid: u32,
    sw: u32,
    slice: u32,
    orig: u32,
}

/// The FlowVisor agent: one per deployment, proxying any number of
/// switches to a fixed set of slice controllers.
#[derive(Clone)]
pub struct FlowVisor {
    /// The slices, in priority order for PACKET_IN classification.
    slices: Vec<SlicePolicy>,
    switches: Vec<SwitchSession>,
    /// What each of our connections is, indexed by `ConnId`.
    roles: Vec<Option<Role>>,
    next_xid: u32,
    /// The `XID_WINDOW` most recently allocated xids, xid `x` in slot
    /// `x % XID_WINDOW`: allocating `x` overwrites the entry that just
    /// left the window, `x - XID_WINDOW`.
    xids: Vec<XidSlot>,
    /// FLOW_MODs rejected by flowspace policy.
    pub denied_flow_mods: u64,
}

impl FlowVisor {
    pub fn new(slices: Vec<SlicePolicy>) -> FlowVisor {
        FlowVisor {
            slices,
            switches: Vec::new(),
            roles: Vec::new(),
            next_xid: 1,
            xids: vec![XidSlot::default(); XID_WINDOW as usize],
            denied_flow_mods: 0,
        }
    }

    /// Number of connected switch sessions (diagnostics).
    pub fn switch_count(&self) -> usize {
        self.switches.iter().filter(|s| s.alive).count()
    }

    fn alloc_xid(&mut self, sw: usize, slice: usize, orig: u32) -> u32 {
        let xid = self.next_xid;
        self.next_xid = xid.wrapping_add(1).max(1);
        self.xids[(xid % XID_WINDOW) as usize] = XidSlot {
            xid,
            sw: sw as u32,
            slice: slice as u32,
            orig,
        };
        xid
    }

    /// Resolve a reply's xid to `(switch, slice, original xid)` and
    /// free its slot; `None` once it was answered or left the window.
    fn take_xid(&mut self, xid: u32) -> Option<(usize, usize, u32)> {
        let slot = &mut self.xids[(xid % XID_WINDOW) as usize];
        if xid == 0 || slot.xid != xid {
            return None;
        }
        let XidSlot {
            sw, slice, orig, ..
        } = std::mem::take(slot);
        Some((sw as usize, slice as usize, orig))
    }

    fn role(&self, conn: ConnId) -> Option<Role> {
        self.roles.get(conn.0).copied().flatten()
    }

    fn set_role(&mut self, conn: ConnId, role: Role) {
        if self.roles.len() <= conn.0 {
            self.roles.resize(conn.0 + 1, None);
        }
        self.roles[conn.0] = Some(role);
    }

    fn clear_role(&mut self, conn: ConnId) -> Option<Role> {
        self.roles.get_mut(conn.0).and_then(Option::take)
    }

    /// Dial every slice controller for switch `sw`, once: only the
    /// answer to FlowVisor's own FEATURES_REQUEST calls this.
    fn dial_upstreams(&mut self, ctx: &mut Ctx<'_>, sw: usize) {
        for slice in 0..self.slices.len() {
            let policy = &self.slices[slice];
            let conn = ctx.connect(policy.controller, policy.service, ConnProfile::default());
            self.set_role(conn, Role::Upstream { sw, slice });
            self.switches[sw].upstreams[slice].conn = Some(conn);
        }
    }

    fn send_to_switch(&self, ctx: &mut Ctx<'_>, sw: usize, msg: &OfMessage, xid: u32) {
        let s = &self.switches[sw];
        if s.alive {
            ctx.conn_send(s.conn, msg.encode(xid));
        }
    }

    fn send_to_slice(&self, ctx: &mut Ctx<'_>, sw: usize, slice: usize, msg: &OfMessage, xid: u32) {
        if let Some(conn) = self.switches[sw].upstreams[slice].conn {
            if self.switches[sw].upstreams[slice].ready {
                ctx.conn_send(conn, msg.encode(xid));
            }
        }
    }

    /// Forward an already-encoded message to the switch unchanged
    /// except for its xid. The encoder is canonical, so this is
    /// byte-identical to re-encoding the decoded message — without the
    /// re-encode, and without a copy when `raw` is the last handle to
    /// the message (the caller dropped what it decoded from it).
    fn forward_raw_to_switch(&self, ctx: &mut Ctx<'_>, sw: usize, raw: Bytes, xid: u32) {
        let s = &self.switches[sw];
        if s.alive {
            ctx.conn_send(s.conn, reframe_with_xid(raw, xid));
        }
    }

    /// Forward an already-encoded message to a slice controller,
    /// verbatim (the xid is unchanged on the switch→controller path).
    fn forward_raw_to_slice(&self, ctx: &mut Ctx<'_>, sw: usize, slice: usize, raw: Bytes) {
        if let Some(conn) = self.switches[sw].upstreams[slice].conn {
            if self.switches[sw].upstreams[slice].ready {
                ctx.conn_send(conn, raw);
            }
        }
    }

    fn handle_switch_msg(
        &mut self,
        ctx: &mut Ctx<'_>,
        sw: usize,
        msg: OfMessage,
        xid: u32,
        raw: Bytes,
    ) {
        match msg {
            OfMessage::Hello => {}
            OfMessage::EchoRequest(data) => {
                self.send_to_switch(ctx, sw, &OfMessage::EchoReply(data), xid);
            }
            OfMessage::EchoReply(_) => {}
            // Only our own handshake asks a switch for its features (a
            // slice is answered from the cache): cache them and bring up
            // the slices.
            OfMessage::FeaturesReply(f) => {
                if let Some((s, FV_SELF, _)) = self.take_xid(xid) {
                    self.switches[s].features = Some(f);
                    self.dial_upstreams(ctx, s);
                }
            }
            OfMessage::PortStatus { reason, desc } => {
                let _ = (reason, desc, xid);
                for slice_idx in 0..self.slices.len() {
                    self.forward_raw_to_slice(ctx, sw, slice_idx, raw.clone());
                }
            }
            // A switch's one reply to a forwarded request is an ERROR
            // (a FLOW_MOD or PACKET_OUT it refused): route by xid.
            OfMessage::Error { .. } => {
                // An ERROR's context is a slice of `raw`: let go of it,
                // so the xid can be written where the message lies.
                drop(msg);
                if let Some((s, slice, orig)) = self.take_xid(xid) {
                    if slice != FV_SELF {
                        self.forward_raw_to_slice(ctx, s, slice, reframe_with_xid(raw, orig));
                    }
                }
            }
            // (A PACKET_IN never gets here: `handle_switch_frame`.)
            _ => {
                ctx.count("fv.unexpected_from_switch", 1);
            }
        }
    }

    /// One message off a switch's connection. A PACKET_IN — every
    /// returning LLDP probe is one — is only routed to the slice that
    /// owns its frame, so it is read where it lies ([`PacketInView`]:
    /// no message is decoded and no slice of `raw` is kept); everything
    /// else is decoded in full. A message that does not decode is
    /// dropped.
    fn handle_switch_frame(&mut self, ctx: &mut Ctx<'_>, sw: usize, raw: Bytes) {
        let packet_in = match PacketInView::parse(&raw) {
            Ok(Some(packet_in)) => packet_in,
            Ok(None) => {
                if let Ok((msg, xid)) = OfMessage::decode_bytes(&raw) {
                    self.handle_switch_msg(ctx, sw, msg, xid, raw);
                }
                return;
            }
            Err(_) => return,
        };
        ctx.count("fv.packet_in", 1);
        let frame = packet_in.payload(&raw);
        let Some(key) = PacketKey::from_frame(packet_in.in_port, frame) else {
            return;
        };
        // Exactly one slice owns a packet in this framework (flowspaces
        // are disjoint). Same bytes, same xid: hand the wire frame on.
        if let Some(slice) = self.slices.iter().position(|s| s.owns_packet(&key)) {
            self.forward_raw_to_slice(ctx, sw, slice, raw);
        }
    }

    fn handle_controller_msg(
        &mut self,
        ctx: &mut Ctx<'_>,
        sw: usize,
        slice: usize,
        msg: OfMessage,
        xid: u32,
        raw: Bytes,
    ) {
        match msg {
            OfMessage::Hello => {
                self.switches[sw].upstreams[slice].ready = true;
            }
            OfMessage::EchoRequest(data) => {
                if let Some(c) = self.switches[sw].upstreams[slice].conn {
                    ctx.conn_send(c, OfMessage::EchoReply(data).encode(xid));
                }
            }
            OfMessage::EchoReply(_) => {}
            // A slice is only dialled once the switch's features are
            // cached.
            OfMessage::FeaturesRequest => {
                if let Some(f) = self.switches[sw].features.clone() {
                    self.send_to_slice(ctx, sw, slice, &OfMessage::FeaturesReply(f), xid);
                }
            }
            // A FLOW_MOD inside the slice's flowspace goes on as it
            // came, but for its xid; any other is refused whole.
            OfMessage::FlowMod { of_match, .. } => {
                if !self.slices[slice].owns_match(&of_match) {
                    self.denied_flow_mods += 1;
                    ctx.count("fv.flow_mod_denied", 1);
                    let eperm = 2; // OFPFMFC_EPERM
                    self.refuse(ctx, sw, slice, ErrorType::FlowModFailed, eperm, xid);
                    return;
                }
                let new_xid = self.alloc_xid(sw, slice, xid);
                self.forward_raw_to_switch(ctx, sw, raw, new_xid);
            }
            // SET_CONFIG is fire-and-forget; last writer wins (doc'd).
            OfMessage::SetConfig { .. } => {
                let new_xid = self.alloc_xid(sw, slice, xid);
                self.forward_raw_to_switch(ctx, sw, raw, new_xid);
            }
            // (A PACKET_OUT never gets here: `pass_on`.)
            _ => {
                ctx.count("fv.unexpected_from_controller", 1);
            }
        }
    }

    /// Answer a slice's request with an ERROR under the slice's own
    /// xid, on its connection whether or not it is ready.
    fn refuse(
        &self,
        ctx: &mut Ctx<'_>,
        sw: usize,
        slice: usize,
        err_type: ErrorType,
        code: ErrorCode,
        xid: u32,
    ) {
        if let Some(c) = self.switches[sw].upstreams[slice].conn {
            let data = Bytes::new();
            let err = OfMessage::Error {
                err_type,
                code,
                data,
            };
            ctx.conn_send(c, err.encode(xid));
        }
    }

    /// One message off a slice controller's connection. A FLOW_MOD or
    /// PACKET_OUT that a switch would refuse for its actions, command or
    /// match does not decode; it is refused here as the switch refuses
    /// it ([`OfError::refusal`]), under the slice's own xid. Any other
    /// message that does not decode is dropped.
    fn handle_controller_frame(&mut self, ctx: &mut Ctx<'_>, sw: usize, slice: usize, raw: Bytes) {
        let Ok(header) = OfHeader::parse(&raw) else {
            return;
        };
        let refused = self.pass_on(ctx, sw, slice, raw).err();
        if let Some((err_type, code)) = refused.and_then(|e| e.refusal()) {
            self.refuse(ctx, sw, slice, err_type, code, header.xid);
        }
    }

    /// A slice's message that decodes. A PACKET_OUT is only passed on,
    /// so it is read where it lies ([`PacketOutView`]: no action list is
    /// built, and nothing holds on to `raw` once the flowspace check is
    /// done); everything else is decoded in full.
    fn pass_on(
        &mut self,
        ctx: &mut Ctx<'_>,
        sw: usize,
        slice: usize,
        raw: Bytes,
    ) -> Result<(), OfError> {
        let Some(out) = PacketOutView::parse(&raw)? else {
            let (msg, xid) = OfMessage::decode_bytes(&raw)?;
            self.handle_controller_msg(ctx, sw, slice, msg, xid, raw);
            return Ok(());
        };
        // Policy-check the payload when it is in the message: one the
        // slice does not own, or that is too short to classify, is
        // refused. (One naming a buffer goes on; the switch refuses it.)
        let denied = out.buffer_id == OFP_NO_BUFFER
            && !PacketKey::from_frame(out.in_port, out.payload(&raw))
                .is_some_and(|key| self.slices[slice].owns_packet(&key));
        if denied {
            ctx.count("fv.packet_out_denied", 1);
            let eperm = 4; // OFPBRC_EPERM
            self.refuse(ctx, sw, slice, ErrorType::BadRequest, eperm, out.xid);
            return Ok(());
        }
        let new_xid = self.alloc_xid(sw, slice, out.xid);
        self.forward_raw_to_switch(ctx, sw, raw, new_xid);
        Ok(())
    }
}

impl Agent for FlowVisor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(LISTEN_SERVICE);
    }

    fn on_stream(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, event: StreamEvent) {
        match event {
            StreamEvent::Opened {
                initiated_by_us, ..
            } => {
                if !initiated_by_us {
                    // A switch dialed us: new session.
                    let sw = self.switches.len();
                    self.switches.push(SwitchSession {
                        conn,
                        reader: MessageReader::new(),
                        features: None,
                        upstreams: (0..self.slices.len())
                            .map(|_| Upstream {
                                conn: None,
                                ready: false,
                                reader: MessageReader::new(),
                            })
                            .collect(),
                        alive: true,
                    });
                    self.set_role(conn, Role::Switch(sw));
                    ctx.conn_send(conn, OfMessage::Hello.encode(0));
                    let xid = self.alloc_xid(sw, FV_SELF, 0);
                    ctx.conn_send(conn, OfMessage::FeaturesRequest.encode(xid));
                } else if let Some(Role::Upstream { sw, slice }) = self.role(conn) {
                    // We reached a slice controller: open with HELLO.
                    ctx.conn_send(conn, OfMessage::Hello.encode(0));
                    // Some controllers never send HELLO first; mark the
                    // path usable once our HELLO is out.
                    self.switches[sw].upstreams[slice].ready = true;
                }
            }
            // No handler resets the reader of the connection it is
            // serving, so taking the messages one at a time sees what
            // draining them first would. Undecodable ones are dropped.
            StreamEvent::Data(data) => match self.role(conn) {
                Some(Role::Switch(sw)) => {
                    self.switches[sw].reader.push_bytes(data);
                    while let Some(raw) = self.switches[sw].reader.next_frame() {
                        let Ok(raw) = raw else { continue };
                        self.handle_switch_frame(ctx, sw, raw);
                    }
                }
                Some(Role::Upstream { sw, slice }) => {
                    self.switches[sw].upstreams[slice].reader.push_bytes(data);
                    while let Some(raw) = self.switches[sw].upstreams[slice].reader.next_frame() {
                        let Ok(raw) = raw else { continue };
                        self.handle_controller_frame(ctx, sw, slice, raw);
                    }
                }
                None => {}
            },
            // Only a switch's leg closes here: every slice controller
            // listens from its start and never closes a leg (the kernel
            // tells only the far end about a close).
            StreamEvent::Closed => {
                let Some(Role::Switch(sw)) = self.clear_role(conn) else {
                    return;
                };
                self.switches[sw].alive = false;
                // Tear down that session's controller legs.
                for slice in 0..self.slices.len() {
                    if let Some(c) = self.switches[sw].upstreams[slice].conn.take() {
                        self.clear_role(c);
                        ctx.conn_close(c);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_openflow::{Action, FlowModCommand, OfMatch, SwitchFeatures, OFPP_NONE};
    use rf_sim::{AgentId, Sim, SimConfig, Time};
    use rf_wire::{EtherType, EthernetFrame, LldpPacket, MacAddr};
    use std::time::Duration;

    const PORTS: u16 = 4;
    const ROUNDS: u64 = 2000;
    const FLOW_MOD_XID: u32 = 0xBEEF;

    /// Dials FlowVisor as a switch, records the xid of every request it
    /// gets, never answers a PACKET_OUT and rejects every FLOW_MOD.
    #[derive(Clone)]
    struct RejectingSwitch {
        fv: AgentId,
        reader: MessageReader,
        seen_xids: Vec<u32>,
    }

    impl Agent for RejectingSwitch {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.connect(self.fv, 6633, ConnProfile::default());
        }
        fn on_stream(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, ev: StreamEvent) {
            match ev {
                StreamEvent::Opened { .. } => ctx.conn_send(conn, OfMessage::Hello.encode(0)),
                StreamEvent::Data(data) => {
                    self.reader.push_bytes(data);
                    while let Some(Ok((msg, xid))) = self.reader.next() {
                        let reply = match msg {
                            OfMessage::Hello => continue,
                            OfMessage::FeaturesRequest => {
                                Some(OfMessage::FeaturesReply(SwitchFeatures {
                                    datapath_id: 5,
                                    n_buffers: 0,
                                    n_tables: 1,
                                    capabilities: 0,
                                    actions: 0,
                                    ports: Vec::new(),
                                }))
                            }
                            OfMessage::FlowMod { .. } => Some(OfMessage::Error {
                                err_type: ErrorType::FlowModFailed,
                                code: 0,
                                data: Bytes::new(),
                            }),
                            _ => None,
                        };
                        self.seen_xids.push(xid);
                        if let Some(reply) = reply {
                            ctx.conn_send(conn, reply.encode(xid));
                        }
                    }
                }
                StreamEvent::Closed => {}
            }
        }
    }

    /// The topology slice's controller: `ROUNDS` LLDP probe rounds, one
    /// per millisecond, then one FLOW_MOD.
    #[derive(Clone, Default)]
    struct Prober {
        conn: Option<ConnId>,
        reader: MessageReader,
        rounds: u64,
        errors: Vec<u32>,
    }

    impl Agent for Prober {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.listen(6641);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            let conn = self.conn.expect("timer runs on an open session");
            if self.rounds == ROUNDS {
                let punt = OfMessage::FlowMod {
                    of_match: OfMatch::lldp(),
                    cookie: 1,
                    command: FlowModCommand::Add,
                    idle_timeout: 0,
                    hard_timeout: 0,
                    priority: 1,
                    buffer_id: OFP_NO_BUFFER,
                    out_port: OFPP_NONE,
                    flags: 0,
                    actions: vec![Action::output(1)],
                };
                ctx.conn_send(conn, punt.encode(FLOW_MOD_XID));
                return;
            }
            for port in 1..=PORTS {
                let probe = EthernetFrame::new(
                    MacAddr::LLDP_MULTICAST,
                    MacAddr::from_dpid_port(5, port),
                    EtherType::LLDP,
                    LldpPacket::discovery_probe(5, port).emit(),
                );
                let out = OfMessage::PacketOut {
                    buffer_id: OFP_NO_BUFFER,
                    in_port: OFPP_NONE,
                    actions: vec![Action::output(port)],
                    data: probe.emit(),
                };
                ctx.conn_send(conn, out.encode(7));
            }
            self.rounds += 1;
            ctx.schedule(Duration::from_millis(1), 0);
        }
        fn on_stream(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, ev: StreamEvent) {
            match ev {
                StreamEvent::Opened { .. } => {
                    ctx.conn_send(conn, OfMessage::Hello.encode(0));
                    self.conn = Some(conn);
                    ctx.schedule(Duration::from_millis(1), 0);
                }
                StreamEvent::Data(data) => {
                    self.reader.push_bytes(data);
                    while let Some(Ok((msg, xid))) = self.reader.next() {
                        if matches!(msg, OfMessage::Error { .. }) {
                            self.errors.push(xid);
                        }
                    }
                }
                StreamEvent::Closed => {}
            }
        }
    }

    #[test]
    fn unanswered_requests_leave_the_xid_ring() {
        let mut sim = Sim::new(SimConfig::default());
        let prober = sim.add_agent("topo-ctrl", Box::new(Prober::default()));
        let fv = sim.add_agent(
            "flowvisor",
            Box::new(FlowVisor::new(vec![SlicePolicy::lldp_slice(
                "topology", prober, 6641,
            )])),
        );
        let sw = sim.add_agent(
            "sw5",
            Box::new(RejectingSwitch {
                fv,
                reader: MessageReader::new(),
                seen_xids: Vec::new(),
            }),
        );
        sim.run_until(Time::from_secs(5));

        let requests = ROUNDS * u64::from(PORTS) + 2; // + FEATURES_REQUEST, FLOW_MOD
        assert!(
            requests > u64::from(XID_WINDOW),
            "the window must be exceeded"
        );
        let seen = &sim.agent_as::<RejectingSwitch>(sw).unwrap().seen_xids;
        // The switch-side xids are the plain ascending allocation.
        assert_eq!(*seen, (1..=requests as u32).collect::<Vec<u32>>());
        // Nothing older than the window is routable any more; the
        // oldest request inside it (a probe, xid 7 upstream) is.
        let fv = sim.agent_as_mut::<FlowVisor>(fv).unwrap();
        let oldest_live = requests as u32 - XID_WINDOW + 1;
        assert_eq!(fv.take_xid(oldest_live - 1), None);
        assert_eq!(fv.take_xid(oldest_live), Some((0, 0, 7)));
        // The FLOW_MOD's ERROR was still routed, under the slice's own xid.
        assert_eq!(
            sim.agent_as::<Prober>(prober).unwrap().errors,
            vec![FLOW_MOD_XID]
        );
    }
}
