//! `rf_switch::OpenFlowSwitch` as it was before a PACKET_OUT was read
//! where it lies (`crates/switch/src/switch.rs` at 8ab2bff, verbatim
//! but for five unread accessors and the adaptations marked
//! `ADAPTED`): every message decoded in full, a chunk's messages
//! drained into a list before any is handled, a PACKET_OUT's actions a
//! `Vec`, an egress list per action list, punt templates in a
//! `HashMap`. The reference the real switch must match byte for byte,
//! on every connection and port. The STATS reply path and the per-port
//! counters only it read are deleted here as in the real switch, and
//! FEATURES_REPLY advertises the same capabilities. So are flow expiry
//! and FLOW_REMOVED, the PACKET_IN buffer pool, and the GET_CONFIG and
//! BARRIER replies: a miss is buffered nowhere, FEATURES_REPLY
//! advertises no buffers, and the requests the real switch refuses — a
//! FLOW_MOD with a timeout or a flag, a FLOW_MOD or PACKET_OUT naming a
//! buffer — are refused with the same ERROR; every ERROR answers under the request's own xid. Its actions
//! are the real crate's three, so FEATURES_REPLY advertises those, and a
//! FLOW_MOD or PACKET_OUT naming any other — it does not decode — is
//! refused with `ERROR(BAD_ACTION, OFPBAC_BAD_TYPE)` as the real switch
//! refuses it. Like the real switch it sends no keepalive ECHO_REQUEST
//! and answers none, nor a VENDOR message: neither decodes; nor does it
//! redial a dropped controller. Its
//! FLOW_MODs are the real crate's ADD and DELETE_STRICT of an EtherType
//! or an IPv4 destination prefix: a MODIFY, a loose DELETE or a match on
//! another field does not decode and is refused as the real switch
//! refuses it, as is an `out_port` filter, and FEATURES_REPLY no longer
//! advertises `ARP_MATCH_IP`. Like the real switch it announces no
//! PORT_STATUS (no port-status tick, no administrative port-down: every
//! port is up) and takes no SET_CONFIG, which does not decode: a miss
//! goes up whole. A PACKET_OUT whose frame is shorter than an Ethernet
//! header is refused with `ERROR(BAD_REQUEST, OFPBRC_BAD_LEN)`, as the
//! real switch refuses it. An `OUTPUT` to a virtual port (`IN_PORT`,
//! `TABLE`, `FLOOD`, …), to `NONE` or to port 0 does not decode either:
//! the request is refused with `ERROR(BAD_ACTION, OFPBAC_BAD_OUT_PORT)`,
//! so no `output:TABLE` re-runs the table and no flood is expanded. Its
//! FEATURES_REPLY is the real crate's, which writes the bytes its port
//! list did.

// ADAPTED: the table, the configuration and the action interpreter are
// the real crate's — the interpreter through its borrowing entry, which
// `apply_actions_matches_reference_model` holds to the owned one.
use super::key_model::from_frame_bytes;
use bytes::{Bytes, BytesMut};
use rf_openflow::{
    ErrorType, MessageReader, OfMessage, PacketInReason, PortNumber, SwitchFeatures, OFPP_NONE,
    OFP_NO_BUFFER,
};
use rf_sim::{Agent, ConnId, ConnProfile, Ctx, StreamEvent};
use rf_switch::{apply_actions, Egress, FlowTable, SwitchConfig};
use std::collections::HashMap;

// ADAPTED: no keepalive timer (`T_ECHO`, `ECHO_INTERVAL`): nothing
// read its ECHO_REPLY. No port-status timer either: nothing read a
// PORT_STATUS. No redial timer: no controller closes a live switch's
// leg, so a closed one stays closed.

// ADAPTED: `PacketKey::from_frame_bytes` as it was — the whole key from
// every frame — is `models/parent_key.rs`.

// ADAPTED: `rf_openflow::reframe_with_xid` as it was — always a copy.
fn reframe_with_xid(raw: &Bytes, xid: u32) -> Bytes {
    let mut out = BytesMut::with_capacity(raw.len());
    out.extend_from_slice(raw);
    out[4..8].copy_from_slice(&xid.to_be_bytes());
    out.freeze()
}

// ADAPTED: a request refused as it decoded: its xid, and the ERROR's
// type and code.
type Refused = (u32, ErrorType, u16);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ConnState {
    Disconnected,
    Connecting,
    /// HELLO exchanged; handshake driven by the controller from here.
    Ready,
}

/// One control-channel leg toward a controller.
#[derive(Clone)]
struct CtrlConn {
    target: (rf_sim::AgentId, u16),
    conn: Option<ConnId>,
    state: ConnState,
    reader: MessageReader,
}

/// An OpenFlow 1.0 switch agent.
#[derive(Clone)]
pub struct ModelSwitch {
    cfg: SwitchConfig,
    ctrls: Vec<CtrlConn>,
    table: FlowTable,
    // ADAPTED: no miss cut, no administratively disabled ports and no
    // pending port announcements.
    xid: u32,
    /// Copies of ERROR messages we sent (for tests/diagnostics).
    pub errors_sent: u64,
    /// Reused per-event decode buffer (capacity persists across events).
    // ADAPTED: a refused request is kept as its xid and its ERROR.
    msg_scratch: Vec<Option<Result<(OfMessage, u32), Refused>>>,
    /// Per-port template of the last action-punt PACKET_IN:
    /// `(punted frame, cut, encoded message)`. LLDP probes punt the
    /// identical frame every round; on a match the wire bytes are the
    /// template with a fresh xid (the encoder is canonical, so that
    /// equals re-encoding). Keyed by content, so any other frame just
    /// misses and refreshes the entry.
    punt_cache: HashMap<PortNumber, (Bytes, usize, Bytes)>,
}

/// Index of data-plane port `port` (numbered from 1) in the per-port
/// vectors; `None` for port 0, which does not exist.
fn port_index(port: PortNumber) -> Option<usize> {
    port.checked_sub(1).map(usize::from)
}

impl ModelSwitch {
    pub fn new(cfg: SwitchConfig) -> ModelSwitch {
        let ctrls = cfg
            .controllers
            .iter()
            .map(|&target| CtrlConn {
                target,
                conn: None,
                state: ConnState::Disconnected,
                reader: MessageReader::new(),
            })
            .collect();
        ModelSwitch {
            cfg,
            ctrls,
            table: FlowTable::new(),
            xid: 1,
            errors_sent: 0,
            msg_scratch: Vec::new(),
            punt_cache: HashMap::new(),
        }
    }

    // ADAPTED: no `phy_ports`: the encoder writes the port list.

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
            if c.state == ConnState::Ready {
                if let Some(conn) = c.conn {
                    ctx.conn_send(conn, encoded.clone());
                }
            }
        }
    }

    /// Reply on one specific control channel.
    fn send_to(&mut self, ctx: &mut Ctx<'_>, idx: usize, msg: OfMessage, xid: u32) {
        if let Some(conn) = self.ctrls[idx].conn {
            ctx.conn_send(conn, msg.encode(xid));
        }
    }

    fn connect(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let target = self.ctrls[idx].target;
        let profile = ConnProfile::default();
        let c = &mut self.ctrls[idx];
        c.state = ConnState::Connecting;
        c.reader = MessageReader::new();
        c.conn = Some(ctx.connect(target.0, target.1, profile));
    }

    // ADAPTED: an ERROR answers under the request's xid.
    fn refuse(&mut self, ctx: &mut Ctx<'_>, idx: usize, err_type: ErrorType, code: u16, xid: u32) {
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

    /// Emit PACKET_IN for a table miss.
    fn packet_in(&mut self, ctx: &mut Ctx<'_>, in_port: PortNumber, frame: Bytes) {
        if !self.ctrls.iter().any(|c| c.state == ConnState::Ready) {
            ctx.count("switch.miss_no_controller", 1);
            return;
        }
        let total_len = frame.len() as u16;
        // ADAPTED: no buffer pool, and the whole frame.
        let (buffer_id, data) = (OFP_NO_BUFFER, frame);
        let xid = self.next_xid();
        ctx.count("of.packet_in", 1);
        self.send(
            ctx,
            OfMessage::PacketIn {
                buffer_id,
                total_len,
                in_port,
                reason: PacketInReason::NoMatch,
                data,
            },
            xid,
        );
    }

    /// Run a frame through the flow table and execute the result.
    fn pipeline(&mut self, ctx: &mut Ctx<'_>, in_port: PortNumber, frame: Bytes) {
        let Some(key) = from_frame_bytes(in_port, &frame) else {
            ctx.count("switch.unparseable", 1);
            return;
        };
        // The matched entry's action list is read where it lies, and the
        // frame given up to the interpreter: a routed hop allocates no
        // action list and copies no frame.
        let egress = match self.table.lookup(&key, frame.len(), ctx.now()) {
            Some(e) => apply_actions(&frame, &e.actions, in_port, self.cfg.num_ports),
            None => return self.packet_in(ctx, in_port, frame),
        };
        self.dispatch(ctx, in_port, egress);
    }

    /// Carry out what an action list resolved to.
    // ADAPTED: no `from_packet_out`: no output names the table.
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, in_port: PortNumber, egress: Vec<Egress>) {
        for egress in egress {
            match egress {
                Egress::Port(p, bytes) => self.tx(ctx, p, bytes),
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
                    let cached = frame.len() <= 128
                        && self
                            .punt_cache
                            .get(&in_port)
                            .is_some_and(|(f, c, _)| *c == cut && *f == frame);
                    if cached {
                        let (_, _, template) = &self.punt_cache[&in_port];
                        let encoded = reframe_with_xid(template, xid);
                        self.send_raw(ctx, encoded);
                    } else {
                        let encoded = OfMessage::PacketIn {
                            buffer_id: OFP_NO_BUFFER,
                            total_len,
                            in_port,
                            reason: PacketInReason::Action,
                            data: frame.slice(..cut),
                        }
                        .encode(xid);
                        if frame.len() <= 128 {
                            self.punt_cache
                                .insert(in_port, (frame.clone(), cut, encoded.clone()));
                        }
                        self.send_raw(ctx, encoded);
                    }
                } // ADAPTED: no arms for output to the table (and no count of
                  // one in a flow entry): no output names it.
            }
        }
    }

    fn tx(&mut self, ctx: &mut Ctx<'_>, port: PortNumber, frame: Bytes) {
        // There is no port 0: nothing to send on.
        let Some(idx) = port_index(port) else {
            return;
        };
        // ADAPTED: every port that exists is up.
        if idx >= usize::from(self.cfg.num_ports) {
            return;
        }
        ctx.send_frame(port as u32, frame);
    }

    fn handle_message(&mut self, ctx: &mut Ctx<'_>, idx: usize, msg: OfMessage, xid: u32) {
        match msg {
            OfMessage::Hello => {
                self.ctrls[idx].state = ConnState::Ready;
            }
            // ADAPTED: no ECHO arms: an ECHO does not decode.
            OfMessage::FeaturesRequest => {
                // ADAPTED: the dpid and the port count; the encoder
                // writes no buffers, one table, no capabilities, the
                // three actions and every port up.
                let reply = OfMessage::FeaturesReply(SwitchFeatures {
                    datapath_id: self.cfg.dpid,
                    num_ports: self.cfg.num_ports,
                });
                self.send_to(ctx, idx, reply, xid);
            }
            // ADAPTED: what the real switch refuses (an `out_port` filter
            // too).
            OfMessage::FlowMod {
                idle_timeout,
                hard_timeout,
                flags,
                out_port,
                ..
            } if idle_timeout != 0 || hard_timeout != 0 || flags != 0 || out_port != OFPP_NONE => {
                self.refuse(ctx, idx, ErrorType::FlowModFailed, 5, xid); // OFPFMFC_UNSUPPORTED
            }
            OfMessage::FlowMod { buffer_id, .. } if buffer_id != OFP_NO_BUFFER => {
                self.refuse(ctx, idx, ErrorType::BadRequest, 8, xid); // OFPBRC_BUFFER_UNKNOWN
            }
            OfMessage::FlowMod {
                of_match,
                cookie,
                command,
                idle_timeout,
                hard_timeout,
                priority,
                out_port,
                flags,
                actions,
                ..
            } => {
                ctx.count("of.flow_mod", 1);
                self.table.apply_flow_mod(
                    command,
                    of_match,
                    priority,
                    cookie,
                    idle_timeout,
                    hard_timeout,
                    flags,
                    out_port,
                    actions,
                    ctx.now(),
                );
            }
            OfMessage::PacketOut {
                buffer_id,
                in_port,
                actions,
                data,
            } => {
                ctx.count("of.packet_out", 1);
                let frame = if buffer_id != OFP_NO_BUFFER {
                    // ADAPTED: no buffer is ever known.
                    self.refuse(ctx, idx, ErrorType::BadRequest, 8, xid); // OFPBRC_BUFFER_UNKNOWN
                    return;
                } else if data.len() < 14 {
                    // ADAPTED: a runt is refused before any action runs.
                    self.refuse(ctx, idx, ErrorType::BadRequest, 6, xid); // OFPBRC_BAD_LEN
                    return;
                } else {
                    data
                };
                let egress = apply_actions(&frame, &actions, in_port, self.cfg.num_ports);
                self.dispatch(ctx, in_port, egress);
            }
            // ADAPTED: no VENDOR arm: a VENDOR does not decode.
            // Symmetric / controller-role messages a switch should not
            // receive; reply with an error like OVS does.
            _ => {
                self.refuse(ctx, idx, ErrorType::BadRequest, 1, xid); // OFPBRC_BAD_TYPE
            }
        }
    }
}

impl Agent for ModelSwitch {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for idx in 0..self.ctrls.len() {
            self.connect(ctx, idx);
        }
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: u32, frame: Bytes) {
        let port = port as u16;
        let Some(idx) = port_index(port) else {
            return;
        };
        // ADAPTED: every port that exists is up.
        if idx >= usize::from(self.cfg.num_ports) {
            return;
        }
        self.pipeline(ctx, port, frame);
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
                let mut msgs = std::mem::take(&mut self.msg_scratch);
                msgs.clear();
                {
                    let reader = &mut self.ctrls[idx].reader;
                    reader.push_bytes(data);
                    // ADAPTED: framed, then decoded, so that a request
                    // naming an unknown action or an output to neither a
                    // physical port nor the controller, a command other
                    // than ADD and DELETE_STRICT or a match on another
                    // field is refused under its xid.
                    while let Some(raw) = reader.next_frame() {
                        let decoded = raw.and_then(|raw| {
                            use rf_openflow::OfError;
                            let xid = rf_openflow::OfHeader::parse(&raw)?.xid;
                            match OfMessage::decode_bytes(&raw) {
                                // OFPBAC_BAD_TYPE
                                Err(OfError::BadAction(_)) => {
                                    Ok(Err((xid, ErrorType::BadAction, 0)))
                                }
                                // OFPBAC_BAD_OUT_PORT
                                Err(OfError::BadOutPort(_)) => {
                                    Ok(Err((xid, ErrorType::BadAction, 4)))
                                }
                                // OFPFMFC_BAD_COMMAND
                                Err(OfError::BadCommand(_)) => {
                                    Ok(Err((xid, ErrorType::FlowModFailed, 4)))
                                }
                                // OFPFMFC_UNSUPPORTED
                                Err(OfError::UnsupportedMatch) => {
                                    Ok(Err((xid, ErrorType::FlowModFailed, 5)))
                                }
                                decoded => decoded.map(Ok),
                            }
                        });
                        msgs.push(decoded.ok());
                    }
                }
                for m in msgs.drain(..) {
                    match m {
                        Some(Ok((msg, xid))) => self.handle_message(ctx, idx, msg, xid),
                        Some(Err((xid, err_type, code))) => {
                            self.refuse(ctx, idx, err_type, code, xid)
                        }
                        None => ctx.count("switch.decode_error", 1),
                    }
                }
                self.msg_scratch = msgs;
            }
            StreamEvent::Closed => {
                self.ctrls[idx].conn = None;
                self.ctrls[idx].state = ConnState::Disconnected;
            }
        }
    }
}
