//! The [`OpenFlowSwitch`] simulation agent — our Open vSwitch 1.4.1.

use crate::datapath::{apply_actions_owned, Egress};
use crate::flow_table::FlowTable;
use bytes::Bytes;
use rf_openflow::error_code::{
    OFPBRC_BAD_LEN, OFPBRC_BAD_TYPE, OFPBRC_BUFFER_UNKNOWN, OFPFMFC_UNSUPPORTED,
};
use rf_openflow::{
    ErrorCode, ErrorType, MessageReader, OfError, OfHeader, OfMessage, PacketInReason,
    PacketOutView, PortNumber, SwitchFeatures, OFPP_NONE, OFP_NO_BUFFER,
};
use rf_sim::{Agent, ConnId, ConnProfile, Ctx, StreamEvent};
use rf_wire::ethernet::ETHERNET_HEADER_LEN;

/// Static configuration of one switch.
#[derive(Clone, Debug)]
pub struct SwitchConfig {
    /// 64-bit datapath id (the paper keys VMs by this).
    pub dpid: u64,
    /// Data-plane ports are numbered `1..=num_ports`.
    pub num_ports: u16,
    /// Controllers to dial (agent, service). Open vSwitch supports
    /// several simultaneous controllers; the FlowVisor-bypass ablation
    /// uses two, normal deployments one (FlowVisor itself).
    pub controllers: Vec<(rf_sim::AgentId, u16)>,
}

impl SwitchConfig {
    pub fn new(dpid: u64, num_ports: u16, controller: rf_sim::AgentId) -> SwitchConfig {
        SwitchConfig {
            dpid,
            num_ports,
            controllers: vec![(controller, 6633)],
        }
    }

    /// Override the service number of the (single) default controller.
    pub fn with_service(mut self, service: u16) -> SwitchConfig {
        if let Some(c) = self.controllers.last_mut() {
            c.1 = service;
        }
        self
    }

    /// Dial an additional controller.
    pub fn add_controller(mut self, controller: rf_sim::AgentId, service: u16) -> SwitchConfig {
        self.controllers.push((controller, service));
        self
    }
}

/// One control-channel leg toward a controller, dialled once at start.
/// No controller (nor FlowVisor) fails or closes a live switch's leg,
/// so a leg that closes stays closed.
#[derive(Clone)]
struct CtrlConn {
    target: (rf_sim::AgentId, u16),
    conn: Option<ConnId>,
    /// HELLO received; the controller drives the handshake from here.
    ready: bool,
    reader: MessageReader,
}

/// An OpenFlow 1.0 switch agent.
#[derive(Clone)]
pub struct OpenFlowSwitch {
    cfg: SwitchConfig,
    ctrls: Vec<CtrlConn>,
    table: FlowTable,
    xid: u32,
    /// Copies of ERROR messages we sent (for tests/diagnostics).
    pub errors_sent: u64,
    /// The egress list the action interpreter fills and `dispatch`
    /// drains, kept between events for its capacity.
    egress: Vec<Egress>,
    /// Per-port (index `in_port - 1`) template of the last action-punt
    /// PACKET_IN: `(punted frame, cut, encoded message)`. LLDP probes
    /// punt the identical frame every round; on a match the wire bytes
    /// are the template with a fresh xid (the encoder is canonical, so
    /// that equals re-encoding). Compared by content, so any other
    /// frame just misses and refreshes the entry; a punt that names no
    /// data-plane port (a PACKET_OUT's `in_port`) is encoded afresh.
    ///
    /// The template is the message last sent. Once every receiver has
    /// let go of it — a round later, when the probe has long been read —
    /// the entry is its only handle and the next xid is written where
    /// it lies; while anything else holds the block (a fork sharing it
    /// with its capture) the re-frame copies, and the copy becomes the
    /// entry.
    punt_cache: Vec<Option<(Bytes, usize, Bytes)>>,
}

/// Index of data-plane port `port` (numbered from 1) in the punt
/// cache; `None` for port 0, which does not exist.
fn port_index(port: PortNumber) -> Option<usize> {
    port.checked_sub(1).map(usize::from)
}

impl OpenFlowSwitch {
    pub fn new(cfg: SwitchConfig) -> OpenFlowSwitch {
        let n = cfg.num_ports as usize;
        let ctrls = cfg
            .controllers
            .iter()
            .map(|&target| CtrlConn {
                target,
                conn: None,
                ready: false,
                reader: MessageReader::new(),
            })
            .collect();
        OpenFlowSwitch {
            cfg,
            ctrls,
            table: FlowTable::new(),
            xid: 1,
            errors_sent: 0,
            egress: Vec::new(),
            punt_cache: vec![None; n],
        }
    }

    pub fn dpid(&self) -> u64 {
        self.cfg.dpid
    }

    /// Number of installed flow entries (test/bench accessor).
    pub fn flow_count(&self) -> usize {
        self.table.len()
    }

    /// Borrow the flow table (test/bench accessor).
    pub fn flow_table(&self) -> &FlowTable {
        &self.table
    }

    /// Whether every control channel is established and open.
    pub fn is_connected(&self) -> bool {
        self.ctrls.iter().all(|c| c.ready)
    }

    fn next_xid(&mut self) -> u32 {
        self.xid = self.xid.wrapping_add(1);
        self.xid
    }

    /// Broadcast an asynchronous message to every ready controller.
    fn send(&mut self, ctx: &mut Ctx<'_>, msg: OfMessage, xid: u32) {
        let encoded = msg.encode(xid);
        self.send_raw(ctx, encoded);
    }

    /// Send pre-encoded bytes to every ready control channel.
    fn send_raw(&mut self, ctx: &mut Ctx<'_>, encoded: Bytes) {
        for c in &self.ctrls {
            if let (true, Some(conn)) = (c.ready, c.conn) {
                ctx.conn_send(conn, encoded.clone());
            }
        }
    }

    /// Reply on one specific control channel.
    fn send_to(&mut self, ctx: &mut Ctx<'_>, idx: usize, msg: OfMessage, xid: u32) {
        if let Some(conn) = self.ctrls[idx].conn {
            ctx.conn_send(conn, msg.encode(xid));
        }
    }

    /// Answer a request on control channel `idx` with an ERROR under
    /// the request's own xid, so a proxy can route it back to the
    /// slice that sent it.
    fn refuse(
        &mut self,
        ctx: &mut Ctx<'_>,
        idx: usize,
        err_type: ErrorType,
        code: ErrorCode,
        xid: u32,
    ) {
        self.errors_sent += 1;
        let data = Bytes::new();
        self.send_to(
            ctx,
            idx,
            OfMessage::Error {
                err_type,
                code,
                data,
            },
            xid,
        );
    }

    /// Emit PACKET_IN for a table miss: the whole frame, buffered
    /// nowhere (`OFP_NO_BUFFER`).
    fn packet_in(&mut self, ctx: &mut Ctx<'_>, in_port: PortNumber, frame: Bytes) {
        if !self.ctrls.iter().any(|c| c.ready) {
            ctx.count("switch.miss_no_controller", 1);
            return;
        }
        let total_len = frame.len() as u16;
        let xid = self.next_xid();
        ctx.count("of.packet_in", 1);
        self.send(
            ctx,
            OfMessage::PacketIn {
                buffer_id: OFP_NO_BUFFER,
                total_len,
                in_port,
                reason: PacketInReason::NoMatch,
                data: frame,
            },
            xid,
        );
    }

    /// Run a frame through the flow table and execute the result.
    ///
    /// [`FlowTable::classify`] decides which entry the frame matches: a
    /// frame of an IPv4 flow this switch has classified before is
    /// answered from the table's exact-match cache, without reading a
    /// header field; anything else is read as deep as the table's
    /// entries do, no deeper, and looked up. The matched entry's action
    /// list is read where it lies, and the frame given up to the
    /// interpreter: a routed hop allocates no action list and copies no
    /// frame. A miss goes to the controller as a PACKET_IN.
    fn pipeline(&mut self, ctx: &mut Ctx<'_>, in_port: PortNumber, frame: Bytes) {
        let Some(matched) = self.table.classify(in_port, &frame) else {
            ctx.count("switch.unparseable", 1);
            return;
        };
        let Some(entry) = matched else {
            return self.packet_in(ctx, in_port, frame);
        };
        let actions = entry.actions.iter().copied();
        let mut egress = std::mem::take(&mut self.egress);
        apply_actions_owned(frame, actions, self.cfg.num_ports, &mut egress);
        self.dispatch(ctx, in_port, egress);
    }

    /// Carry out what an action list resolved to: each copy goes out of
    /// one of this switch's ports (the interpreter drops any other) or
    /// up to the controller. `egress` is `self.egress`, taken out to be
    /// filled, and goes back drained.
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, in_port: PortNumber, mut egress: Vec<Egress>) {
        for egress in egress.drain(..) {
            match egress {
                Egress::Port(p, bytes) => ctx.send_frame(u32::from(p), bytes),
                Egress::Controller { max_len, frame } => {
                    let total_len = frame.len() as u16;
                    let cut = if max_len == 0 {
                        frame.len()
                    } else {
                        frame.len().min(max_len as usize)
                    };
                    let xid = self.next_xid();
                    // Template fast path for small repeated punts (the
                    // LLDP probe cycle); bounded compare, same bytes.
                    let slot = port_index(in_port)
                        .filter(|_| frame.len() <= 128)
                        .and_then(|idx| self.punt_cache.get_mut(idx));
                    let encoded = match slot {
                        Some(Some((f, c, template))) if *c == cut && *f == frame => {
                            let encoded =
                                rf_openflow::reframe_with_xid(std::mem::take(template), xid);
                            *template = encoded.clone();
                            encoded
                        }
                        slot => {
                            let encoded = OfMessage::PacketIn {
                                buffer_id: OFP_NO_BUFFER,
                                total_len,
                                in_port,
                                reason: PacketInReason::Action,
                                data: frame.slice(..cut),
                            }
                            .encode(xid);
                            if let Some(slot) = slot {
                                *slot = Some((frame, cut, encoded.clone()));
                            }
                            encoded
                        }
                    };
                    self.send_raw(ctx, encoded);
                }
            }
        }
        self.egress = egress;
    }

    /// One message off control channel `idx`. A FLOW_MOD or PACKET_OUT
    /// naming an action outside [`rf_openflow::Action`]'s three kinds or
    /// an output to neither a physical port nor the controller, and a
    /// FLOW_MOD whose command or match the loop never sends, does
    /// not decode; it is refused whole with its [`OfError::refusal`],
    /// under its own xid, before any of it runs. Any other message that
    /// does not decode is the caller's to count.
    fn handle_frame(&mut self, ctx: &mut Ctx<'_>, idx: usize, raw: Bytes) -> Result<(), OfError> {
        let xid = OfHeader::parse(&raw)?.xid;
        self.run_frame(ctx, idx, raw).or_else(|e| {
            let (err_type, code) = e.refusal().ok_or(e)?;
            self.refuse(ctx, idx, err_type, code, xid);
            Ok(())
        })
    }

    /// A message that decodes. A PACKET_OUT — every LLDP probe is one —
    /// is executed from the message where it lies ([`PacketOutView`]):
    /// its actions are decoded as the interpreter reaches them, its
    /// frame is a slice of `raw`. One naming a buffer, or whose frame is
    /// shorter than an Ethernet header, is refused before any action
    /// runs. Everything else is decoded in full and goes to
    /// `handle_message`.
    fn run_frame(&mut self, ctx: &mut Ctx<'_>, idx: usize, raw: Bytes) -> Result<(), OfError> {
        let Some(out) = PacketOutView::parse(&raw)? else {
            let (msg, xid) = OfMessage::decode_bytes(&raw)?;
            self.handle_message(ctx, idx, msg, xid);
            return Ok(());
        };
        ctx.count("of.packet_out", 1);
        if out.buffer_id != OFP_NO_BUFFER {
            self.refuse(
                ctx,
                idx,
                ErrorType::BadRequest,
                OFPBRC_BUFFER_UNKNOWN,
                out.xid,
            );
            return Ok(());
        }
        if out.payload(&raw).len() < ETHERNET_HEADER_LEN {
            self.refuse(ctx, idx, ErrorType::BadRequest, OFPBRC_BAD_LEN, out.xid);
            return Ok(());
        }
        let frame = out.data(&raw);
        let mut egress = std::mem::take(&mut self.egress);
        let ports = self.cfg.num_ports;
        apply_actions_owned(frame, out.actions(&raw), ports, &mut egress);
        self.dispatch(ctx, out.in_port, egress);
        Ok(())
    }

    fn handle_message(&mut self, ctx: &mut Ctx<'_>, idx: usize, msg: OfMessage, xid: u32) {
        match msg {
            OfMessage::Hello => {
                self.ctrls[idx].ready = true;
            }
            OfMessage::FeaturesRequest => {
                let reply = OfMessage::FeaturesReply(SwitchFeatures {
                    datapath_id: self.cfg.dpid,
                    num_ports: self.cfg.num_ports,
                });
                self.send_to(ctx, idx, reply, xid);
            }
            // A flow lives until it is deleted by its match and
            // priority, and a frame is never buffered: a FLOW_MOD asking
            // otherwise is refused whole.
            OfMessage::FlowMod {
                idle_timeout,
                hard_timeout,
                flags,
                out_port,
                ..
            } if idle_timeout | hard_timeout | flags != 0 || out_port != OFPP_NONE => {
                self.refuse(ctx, idx, ErrorType::FlowModFailed, OFPFMFC_UNSUPPORTED, xid);
            }
            OfMessage::FlowMod { buffer_id, .. } if buffer_id != OFP_NO_BUFFER => {
                self.refuse(ctx, idx, ErrorType::BadRequest, OFPBRC_BUFFER_UNKNOWN, xid);
            }
            OfMessage::FlowMod {
                of_match,
                cookie,
                command,
                priority,
                actions,
                ..
            } => {
                ctx.count("of.flow_mod", 1);
                // Deleted entries are moved out and dropped: nothing
                // reports a flow removed.
                self.table.apply_flow_mod(
                    command,
                    of_match,
                    priority,
                    cookie,
                    0,
                    0,
                    0,
                    OFPP_NONE,
                    actions,
                    ctx.now(),
                );
            }
            // Symmetric / controller-role messages a switch should not
            // receive; reply with an error like OVS does. (A PACKET_OUT
            // never gets here: `run_frame`.)
            _ => self.refuse(ctx, idx, ErrorType::BadRequest, OFPBRC_BAD_TYPE, xid),
        }
    }
}

impl Agent for OpenFlowSwitch {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for c in &mut self.ctrls {
            c.conn = Some(ctx.connect(c.target.0, c.target.1, ConnProfile::default()));
        }
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: u32, frame: Bytes) {
        let port = port as u16;
        if (1..=self.cfg.num_ports).contains(&port) {
            self.pipeline(ctx, port, frame);
        }
    }

    fn on_stream(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, event: StreamEvent) {
        let Some(idx) = self.ctrls.iter().position(|c| c.conn == Some(conn)) else {
            return;
        };
        match event {
            StreamEvent::Opened { .. } => {
                // OF handshake starts with HELLO from both sides.
                let xid = self.next_xid();
                self.send_to(ctx, idx, OfMessage::Hello, xid);
            }
            StreamEvent::Data(data) => {
                self.ctrls[idx].reader.push_bytes(data);
                // No handler resets this leg's reader, so taking the
                // messages one at a time sees what draining them first
                // would.
                while let Some(raw) = self.ctrls[idx].reader.next_frame() {
                    let handled = raw.and_then(|raw| self.handle_frame(ctx, idx, raw));
                    if handled.is_err() {
                        ctx.count("switch.decode_error", 1);
                    }
                }
            }
            StreamEvent::Closed => {
                self.ctrls[idx].conn = None;
                self.ctrls[idx].ready = false;
            }
        }
    }
}
