//! `rf_flowvisor::FlowVisor` as it was before a forwarded message was
//! patched where it lies (`crates/flowvisor/src/proxy.rs` at 8ab2bff,
//! verbatim but for one unread accessor and the adaptations
//! marked `ADAPTED`): every message decoded in full, PACKET_OUTs
//! included; every forwarded message copied to change its xid;
//! connections and xids looked up in `HashMap`s; a chunk's messages
//! drained into a list before any is handled. The reference the real
//! proxy must match byte for byte, on every connection. Its two STATS
//! arms are deleted here as in the real proxy: no STATS message decodes.
//! Nor does a GET_CONFIG, BARRIER or FLOW_REMOVED: their arms and the
//! cookie map that routed FLOW_REMOVED are deleted likewise. A slice's
//! FLOW_MOD or PACKET_OUT naming an action outside the real crate's
//! three does not decode; it is refused with
//! `ERROR(BAD_ACTION, OFPBAC_BAD_TYPE)` under the slice's xid, as the
//! real proxy refuses it. Like the real proxy it does not redial a
//! slice controller: no slice controller closes a leg. Nor does it
//! narrow a FLOW_MOD to the flowspace: one inside goes on, any other is
//! refused with `EPERM`; one that MODIFYs, deletes loosely or matches
//! on a field a switch does not take is refused as the real proxy
//! refuses it; and a PACKET_OUT whose payload is too short to classify
//! is refused with `EPERM` like one the slice does not own, under OF
//! 1.0's `OFPBRC_EPERM` (5). Nor does it fan a PORT_STATUS out or pass
//! a SET_CONFIG on: neither decodes, and each is dropped. Nor does it
//! answer an ECHO_REQUEST from either side: it does not decode, and is
//! dropped like a VENDOR message. A slice's FLOW_MOD or PACKET_OUT
//! naming an `OUTPUT` to a virtual port, to `NONE` or to port 0 does not
//! decode; it is refused with `ERROR(BAD_ACTION, OFPBAC_BAD_OUT_PORT)`
//! under the slice's xid, as the real proxy refuses it. The cached
//! FEATURES_REPLY is the real crate's dpid and port count. A framed
//! message from either side that does not decode (and is not refused)
//! counts as `fv.decode_error`, as in the real proxy.

// ADAPTED: the policy type is the real crate's.
use super::key_model::from_frame_bytes;
use bytes::{Bytes, BytesMut};
use rf_flowvisor::SlicePolicy;
use rf_openflow::{ErrorType, MessageReader, OfError, OfMessage, OFP_HEADER_LEN, OFP_NO_BUFFER};
use rf_sim::{Agent, ConnId, ConnProfile, Ctx, StreamEvent};
use std::collections::HashMap;

// ADAPTED: the parent's configuration type, which the real proxy has
// folded into constants; the model keeps its own copy of the values.
#[derive(Clone, Debug)]
struct FlowVisorConfig {
    listen_service: u16,
    slices: Vec<SlicePolicy>,
    conn: ConnProfile,
    // ADAPTED: no `redial_backoff`.
}

// ADAPTED: `PacketKey::from_frame_bytes` as it was — the whole key from
// every frame — is `models/parent_key.rs`.

// ADAPTED: `rf_openflow::reframe_with_xid` as it was — always a copy.
fn reframe_with_xid(raw: &Bytes, xid: u32) -> Bytes {
    debug_assert!(raw.len() >= OFP_HEADER_LEN);
    let mut out = BytesMut::with_capacity(raw.len());
    out.extend_from_slice(raw);
    out[4..8].copy_from_slice(&xid.to_be_bytes());
    out.freeze()
}

// ADAPTED: a request refused as it decoded: its xid, and the ERROR's
// type and code.
type Refused = (u32, ErrorType, u16);

/// Marker for FlowVisor-originated requests in the xid map.
const FV_SELF: usize = usize::MAX;
/// How many of the most recently allocated xids stay routable. Only a
/// reply removes its entry, and PACKET_OUT and FLOW_MOD are answered on
/// failure only, so without a bound every LLDP probe leaves a dead entry
/// behind. A reply trails its request by one switch round trip; the
/// window has to outlast the requests forwarded (to all switches) in
/// that time, nothing more.
const XID_WINDOW: u32 = 4096;
// ADAPTED: no upstream redial timer (`T_REDIAL_BASE`).

#[derive(Clone)]
struct Upstream {
    conn: Option<ConnId>,
    ready: bool,
    reader: MessageReader,
    /// FEATURES_REQUEST xids awaiting the switch's cached features.
    pending_features: Vec<u32>,
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

/// The FlowVisor agent: one per deployment, proxying any number of
/// switches to a fixed set of slice controllers.
#[derive(Clone)]
pub struct ModelFlowVisor {
    cfg: FlowVisorConfig,
    switches: Vec<SwitchSession>,
    roles: HashMap<ConnId, Role>,
    next_xid: u32,
    /// rewritten xid → (switch, slice, original xid).
    xid_map: HashMap<u32, (usize, usize, u32)>,
    /// FLOW_MODs rejected by flowspace policy.
    pub denied_flow_mods: u64,
    // ADAPTED: no counter of narrowed FLOW_MODs: nothing is narrowed.
    /// Reused per-event decode buffer (capacity persists across events).
    // ADAPTED: a refused request is kept as its xid and its ERROR.
    scratch: Vec<Result<(OfMessage, u32, bytes::Bytes), Refused>>,
}

impl ModelFlowVisor {
    pub fn new(slices: Vec<SlicePolicy>) -> ModelFlowVisor {
        ModelFlowVisor {
            cfg: FlowVisorConfig {
                listen_service: 6633,
                slices,
                conn: ConnProfile::default(),
            },
            switches: Vec::new(),
            roles: HashMap::new(),
            next_xid: 1,
            xid_map: HashMap::new(),
            denied_flow_mods: 0,
            scratch: Vec::new(),
        }
    }

    fn alloc_xid(&mut self, sw: usize, slice: usize, orig: u32) -> u32 {
        let x = self.next_xid;
        self.next_xid = x.wrapping_add(1).max(1);
        // xids allocate ascending, so the entry leaving the window is
        // the one allocated XID_WINDOW calls ago (if it is still there).
        self.xid_map.remove(&x.wrapping_sub(XID_WINDOW));
        self.xid_map.insert(x, (sw, slice, orig));
        x
    }

    fn dial_upstreams(&mut self, ctx: &mut Ctx<'_>, sw: usize) {
        for slice_idx in 0..self.cfg.slices.len() {
            if self.switches[sw].upstreams[slice_idx].conn.is_some() {
                continue;
            }
            let policy = self.cfg.slices[slice_idx].clone();
            let conn = ctx.connect(policy.controller, policy.service, self.cfg.conn);
            self.roles.insert(
                conn,
                Role::Upstream {
                    sw,
                    slice: slice_idx,
                },
            );
            let up = &mut self.switches[sw].upstreams[slice_idx];
            up.conn = Some(conn);
            up.ready = false;
            up.reader = MessageReader::new();
        }
    }

    // ADAPTED: no `send_to_switch`: its one caller answered an ECHO.

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
    /// re-encode.
    fn forward_raw_to_switch(&self, ctx: &mut Ctx<'_>, sw: usize, raw: &Bytes, xid: u32) {
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
            // ADAPTED: no ECHO arms: an ECHO does not decode.
            OfMessage::FeaturesReply(f) => {
                if let Some(&(s, slice, orig)) = self.xid_map.get(&xid) {
                    self.xid_map.remove(&xid);
                    if slice == FV_SELF {
                        // Our own handshake: cache and bring up slices.
                        self.switches[s].features = Some(f);
                        self.dial_upstreams(ctx, s);
                        self.flush_pending_features(ctx, s);
                    } else {
                        self.send_to_slice(ctx, s, slice, &OfMessage::FeaturesReply(f), orig);
                    }
                }
            }
            OfMessage::PacketIn {
                buffer_id,
                total_len,
                in_port,
                reason,
                ref data,
            } => {
                ctx.count("fv.packet_in", 1);
                let Some(key) = from_frame_bytes(in_port, data) else {
                    return;
                };
                let _ = (buffer_id, total_len, reason);
                for slice_idx in 0..self.cfg.slices.len() {
                    if self.cfg.slices[slice_idx].owns_packet(&key) {
                        // Same bytes, same xid: hand the wire frame on.
                        self.forward_raw_to_slice(ctx, sw, slice_idx, raw);
                        // Exactly one slice owns a packet in this
                        // framework (flowspaces are disjoint).
                        break;
                    }
                }
            }
            // ADAPTED: no PORT_STATUS arm.
            // Request replies: route by rewritten xid.
            OfMessage::Error { .. } => {
                if let Some(&(s, slice, orig)) = self.xid_map.get(&xid) {
                    self.xid_map.remove(&xid);
                    if slice != FV_SELF {
                        let _ = msg;
                        self.forward_raw_to_slice(ctx, s, slice, reframe_with_xid(&raw, orig));
                    }
                }
            }
            _ => {
                ctx.count("fv.unexpected_from_switch", 1);
            }
        }
    }

    fn flush_pending_features(&mut self, ctx: &mut Ctx<'_>, sw: usize) {
        // ADAPTED: the features are `Copy`.
        let Some(features) = self.switches[sw].features else {
            return;
        };
        for slice_idx in 0..self.cfg.slices.len() {
            let pend = std::mem::take(&mut self.switches[sw].upstreams[slice_idx].pending_features);
            for xid in pend {
                self.send_to_slice(ctx, sw, slice_idx, &OfMessage::FeaturesReply(features), xid);
            }
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
        let up_conn = self.switches[sw].upstreams[slice].conn;
        match msg {
            OfMessage::Hello => {
                self.switches[sw].upstreams[slice].ready = true;
            }
            // ADAPTED: no ECHO arms.
            OfMessage::FeaturesRequest => {
                if let Some(f) = self.switches[sw].features {
                    self.send_to_slice(ctx, sw, slice, &OfMessage::FeaturesReply(f), xid);
                } else {
                    self.switches[sw].upstreams[slice]
                        .pending_features
                        .push(xid);
                }
            }
            // ADAPTED: a FLOW_MOD outside the flowspace is refused, not
            // narrowed.
            OfMessage::FlowMod { of_match, .. } => {
                if !self.cfg.slices[slice].owns_match(&of_match) {
                    self.denied_flow_mods += 1;
                    ctx.count("fv.flow_mod_denied", 1);
                    if let Some(c) = up_conn {
                        let err = OfMessage::Error {
                            err_type: ErrorType::FlowModFailed,
                            code: 2, // OFPFMFC_EPERM
                            data: Bytes::new(),
                        };
                        ctx.conn_send(c, err.encode(xid));
                    }
                    return;
                }
                let new_xid = self.alloc_xid(sw, slice, xid);
                // Untouched flowspace: only the xid changes.
                self.forward_raw_to_switch(ctx, sw, &raw, new_xid);
            }
            OfMessage::PacketOut {
                buffer_id,
                in_port,
                actions,
                data,
            } => {
                // Policy-check the payload when we can see it.
                // ADAPTED: one too short to classify is refused too.
                if buffer_id == OFP_NO_BUFFER {
                    let owned = from_frame_bytes(in_port, &data)
                        .is_some_and(|key| self.cfg.slices[slice].owns_packet(&key));
                    if !owned {
                        ctx.count("fv.packet_out_denied", 1);
                        if let Some(c) = up_conn {
                            let err = OfMessage::Error {
                                err_type: ErrorType::BadRequest,
                                // ADAPTED: OF 1.0's EPERM, not BAD_SUBTYPE (4).
                                code: 5, // OFPBRC_EPERM
                                data: Bytes::new(),
                            };
                            ctx.conn_send(c, err.encode(xid));
                        }
                        return;
                    }
                }
                let _ = (actions, data);
                let new_xid = self.alloc_xid(sw, slice, xid);
                self.forward_raw_to_switch(ctx, sw, &raw, new_xid);
            }
            // ADAPTED: no SET_CONFIG arm.
            _ => {
                ctx.count("fv.unexpected_from_controller", 1);
            }
        }
    }
}

impl Agent for ModelFlowVisor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(self.cfg.listen_service);
    }

    // ADAPTED: no `on_timer`; its one timer was the upstream redial.

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
                        upstreams: (0..self.cfg.slices.len())
                            .map(|_| Upstream {
                                conn: None,
                                ready: false,
                                reader: MessageReader::new(),
                                pending_features: Vec::new(),
                            })
                            .collect(),
                        alive: true,
                    });
                    self.roles.insert(conn, Role::Switch(sw));
                    ctx.conn_send(conn, OfMessage::Hello.encode(0));
                    let xid = self.alloc_xid(sw, FV_SELF, 0);
                    ctx.conn_send(conn, OfMessage::FeaturesRequest.encode(xid));
                } else if let Some(Role::Upstream { sw, slice }) = self.roles.get(&conn).copied() {
                    // We reached a slice controller: open with HELLO.
                    ctx.conn_send(conn, OfMessage::Hello.encode(0));
                    // Some controllers never send HELLO first; mark the
                    // path usable once our HELLO is out.
                    self.switches[sw].upstreams[slice].ready = true;
                }
            }
            StreamEvent::Data(data) => {
                let Some(role) = self.roles.get(&conn).copied() else {
                    return;
                };
                let mut msgs = std::mem::take(&mut self.scratch);
                msgs.clear();
                match role {
                    Role::Switch(sw) => {
                        {
                            let reader = &mut self.switches[sw].reader;
                            reader.push_bytes(data);
                            while let Some(raw) = reader.next_frame() {
                                let Ok(raw) = raw else { continue };
                                match OfMessage::decode_bytes(&raw) {
                                    Ok((msg, xid)) => msgs.push(Ok((msg, xid, raw))),
                                    // ADAPTED: a message that does not
                                    // decode is counted.
                                    Err(_) => ctx.count("fv.decode_error", 1),
                                }
                            }
                        }
                        for (msg, xid, raw) in msgs.drain(..).flatten() {
                            self.handle_switch_msg(ctx, sw, msg, xid, raw);
                        }
                    }
                    Role::Upstream { sw, slice } => {
                        {
                            let reader = &mut self.switches[sw].upstreams[slice].reader;
                            reader.push_bytes(data);
                            while let Some(raw) = reader.next_frame() {
                                let Ok(raw) = raw else { continue };
                                // ADAPTED: a request naming an unknown
                                // action or an output to neither a
                                // physical port nor the controller, a
                                // command other than ADD and
                                // DELETE_STRICT or a match on another
                                // field is refused under its xid.
                                let refusal = match OfMessage::decode_bytes(&raw) {
                                    Ok((msg, xid)) => {
                                        msgs.push(Ok((msg, xid, raw)));
                                        continue;
                                    }
                                    // OFPBAC_BAD_TYPE
                                    Err(OfError::BadAction(_)) => (ErrorType::BadAction, 0),
                                    // OFPBAC_BAD_OUT_PORT
                                    Err(OfError::BadOutPort(_)) => (ErrorType::BadAction, 4),
                                    // OFPFMFC_BAD_COMMAND
                                    Err(OfError::BadCommand(_)) => (ErrorType::FlowModFailed, 4),
                                    // OFPFMFC_UNSUPPORTED
                                    Err(OfError::UnsupportedMatch) => (ErrorType::FlowModFailed, 5),
                                    // ADAPTED: any other message that
                                    // does not decode is counted.
                                    Err(_) => {
                                        ctx.count("fv.decode_error", 1);
                                        continue;
                                    }
                                };
                                let header = rf_openflow::OfHeader::parse(&raw);
                                msgs.push(Err((header.expect("framed").xid, refusal.0, refusal.1)));
                            }
                        }
                        for m in msgs.drain(..) {
                            match m {
                                Ok((msg, xid, raw)) => {
                                    self.handle_controller_msg(ctx, sw, slice, msg, xid, raw);
                                }
                                Err((xid, err_type, code)) => {
                                    if let Some(c) = self.switches[sw].upstreams[slice].conn {
                                        let err = OfMessage::Error {
                                            err_type,
                                            code,
                                            data: Bytes::new(),
                                        };
                                        ctx.conn_send(c, err.encode(xid));
                                    }
                                }
                            }
                        }
                    }
                }
                self.scratch = msgs;
            }
            StreamEvent::Closed => {
                let Some(role) = self.roles.remove(&conn) else {
                    return;
                };
                match role {
                    Role::Switch(sw) => {
                        self.switches[sw].alive = false;
                        // Tear down that session's controller legs.
                        for slice in 0..self.cfg.slices.len() {
                            if let Some(c) = self.switches[sw].upstreams[slice].conn.take() {
                                self.roles.remove(&c);
                                ctx.conn_close(c);
                            }
                        }
                    }
                    // ADAPTED: a closed leg is forgotten, not redialled.
                    Role::Upstream { .. } => {}
                }
            }
        }
    }
}
