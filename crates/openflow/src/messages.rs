//! Top-level OpenFlow 1.0 messages: decoding, encoding and the typed
//! bodies.

use crate::actions::{Action, SUPPORTED_ACTIONS};
use crate::flow_match::{OfMatch, OFP_MATCH_LEN};
use crate::header::{MsgType, OfHeader, OFP_HEADER_LEN, OFP_VERSION};
use crate::ports::PortNumber;
use crate::OfError;
use bytes::{BufMut, Bytes, BytesMut};
use rf_wire::MacAddr;
use std::io::Write;

/// `ofp_flow_mod` commands: the two the paper's loop sends. MODIFY,
/// MODIFY_STRICT and loose DELETE (1–3), like a command OF 1.0 does not
/// define, decode to [`OfError::BadCommand`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowModCommand {
    Add,
    DeleteStrict,
}

impl FlowModCommand {
    fn to_u16(self) -> u16 {
        match self {
            FlowModCommand::Add => 0,
            FlowModCommand::DeleteStrict => 4,
        }
    }
    fn from_u16(v: u16) -> Result<Self, OfError> {
        Ok(match v {
            0 => FlowModCommand::Add,
            4 => FlowModCommand::DeleteStrict,
            _ => return Err(OfError::BadCommand(v)),
        })
    }
}

/// Why a PACKET_IN was sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketInReason {
    /// No matching flow entry (table miss).
    NoMatch,
    /// An explicit output-to-controller action.
    Action,
}

/// `ofp_error_msg` types (subset: the ones our switch emits).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorType {
    HelloFailed,
    BadRequest,
    BadAction,
    FlowModFailed,
    PortModFailed,
}

impl ErrorType {
    fn to_u16(self) -> u16 {
        match self {
            ErrorType::HelloFailed => 0,
            ErrorType::BadRequest => 1,
            ErrorType::BadAction => 2,
            ErrorType::FlowModFailed => 3,
            ErrorType::PortModFailed => 4,
        }
    }
    fn from_u16(v: u16) -> Result<Self, OfError> {
        Ok(match v {
            0 => ErrorType::HelloFailed,
            1 => ErrorType::BadRequest,
            2 => ErrorType::BadAction,
            3 => ErrorType::FlowModFailed,
            4 => ErrorType::PortModFailed,
            _ => return Err(OfError::Malformed("error type")),
        })
    }
}

/// Error code within an [`ErrorType`] (kept numeric: the spec defines
/// per-type enums, and we only ever compare them).
pub type ErrorCode = u16;

/// Length of the `ofp_switch_features` body before its port list.
const FEATURES_FIXED_LEN: usize = 24;
/// Size of `ofp_phy_port` on the wire.
const OFP_PHY_PORT_LEN: usize = 48;
/// `OFPPF_1GB_FD`: each port's current, advertised and supported
/// feature.
const OFPPF_1GB_FD: u32 = 1 << 5;

/// `OFPT_FEATURES_REPLY` body: what the loop reads of it. The rest is
/// the same for every switch and is written by the encoder: no buffers
/// (a miss goes up whole), one table, no optional capabilities (no
/// STATS, no match reads an ARP body), the actions in
/// [`SUPPORTED_ACTIONS`], and per port `p` in `1..=num_ports` an
/// `ofp_phy_port` named `eth{p}` with the address
/// [`MacAddr::from_dpid_port`], up, at 1 Gb/s full duplex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwitchFeatures {
    pub datapath_id: u64,
    /// Data-plane ports are numbered `1..=num_ports`.
    pub num_ports: u16,
}

impl SwitchFeatures {
    fn emit_into(&self, buf: &mut BytesMut) {
        buf.put_u64(self.datapath_id);
        buf.put_u32(0); // n_buffers
        buf.put_u8(1); // n_tables
        buf.put_bytes(0, 3);
        buf.put_u32(0); // capabilities
        buf.put_u32(SUPPORTED_ACTIONS);
        for port in 1..=self.num_ports {
            buf.put_u16(port);
            buf.put_slice(MacAddr::from_dpid_port(self.datapath_id, port).as_bytes());
            let mut name = [0u8; 16];
            write!(&mut name[..], "eth{port}").expect("at most 8 of 16 bytes");
            buf.put_slice(&name);
            buf.put_u32(0); // config
            buf.put_u32(0); // state: up
            for _ in 0..3 {
                buf.put_u32(OFPPF_1GB_FD); // curr, advertised, supported
            }
            buf.put_u32(0); // peer
        }
    }
}

/// A decoded OpenFlow 1.0 message (header `xid` carried alongside).
#[derive(Clone, Debug, PartialEq)]
pub enum OfMessage {
    Hello,
    Error {
        err_type: ErrorType,
        code: ErrorCode,
        /// At least 64 bytes of the offending request, per spec.
        data: Bytes,
    },
    FeaturesRequest,
    FeaturesReply(SwitchFeatures),
    PacketIn {
        buffer_id: u32,
        total_len: u16,
        in_port: PortNumber,
        reason: PacketInReason,
        data: Bytes,
    },
    PacketOut {
        buffer_id: u32,
        in_port: PortNumber,
        actions: Vec<Action>,
        data: Bytes,
    },
    FlowMod {
        of_match: OfMatch,
        cookie: u64,
        command: FlowModCommand,
        idle_timeout: u16,
        hard_timeout: u16,
        priority: u16,
        buffer_id: u32,
        out_port: PortNumber,
        flags: u16,
        actions: Vec<Action>,
    },
}

/// Length of `ofp_packet_out` up to its action list, header included.
const PACKET_OUT_FIXED_LEN: usize = OFP_HEADER_LEN + 8;

/// A PACKET_OUT read where it lies: the fixed fields, and where in the
/// message the action list and the payload are. A proxy that only
/// forwards the message and a switch that only executes it need
/// nothing else, so neither builds a `Vec<Action>` or keeps a slice of
/// the message alive.
///
/// [`PacketOutView::parse`] makes every check
/// [`OfMessage::decode_bytes`] makes, in the same order: it accepts a
/// message exactly when that decodes it, and fails with the same error
/// when not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketOutView {
    pub xid: u32,
    pub buffer_id: u32,
    pub in_port: PortNumber,
    /// Offset of the payload in the message: the action list ends here.
    data_at: usize,
    /// `ofp_header.length`: the payload ends here.
    length: usize,
}

impl PacketOutView {
    /// The fixed part of a PACKET_OUT whose header said `header` and
    /// whose body (the `header.length - 8` bytes after it) is `body`.
    /// The actions are not looked at.
    fn fixed(header: &OfHeader, body: &[u8]) -> Result<PacketOutView, OfError> {
        if body.len() < 8 {
            return Err(OfError::Truncated);
        }
        let actions_len = u16::from_be_bytes([body[6], body[7]]) as usize;
        if body.len() < 8 + actions_len {
            return Err(OfError::Truncated);
        }
        Ok(PacketOutView {
            xid: header.xid,
            buffer_id: u32::from_be_bytes([body[0], body[1], body[2], body[3]]),
            in_port: u16::from_be_bytes([body[4], body[5]]),
            data_at: PACKET_OUT_FIXED_LEN + actions_len,
            length: header.length as usize,
        })
    }

    /// Read `raw`, a complete message. `Ok(None)`: well-framed, but not
    /// a PACKET_OUT.
    pub fn parse(raw: &[u8]) -> Result<Option<PacketOutView>, OfError> {
        let header = OfHeader::parse(raw)?;
        if raw.len() < header.length as usize {
            return Err(OfError::Truncated);
        }
        if header.msg_type != MsgType::PacketOut {
            return Ok(None);
        }
        let view = Self::fixed(&header, &raw[OFP_HEADER_LEN..header.length as usize])?;
        for action in Action::iter_list(view.action_bytes(raw)) {
            action?;
        }
        Ok(Some(view))
    }

    fn action_bytes<'a>(&self, raw: &'a [u8]) -> &'a [u8] {
        &raw[PACKET_OUT_FIXED_LEN..self.data_at]
    }

    /// The actions, in order. `raw` is the message this view was parsed
    /// from, where every one of them was seen to parse.
    pub fn actions<'a>(&self, raw: &'a [u8]) -> impl Iterator<Item = Action> + 'a {
        Action::iter_list(self.action_bytes(raw)).map_while(Result::ok)
    }

    /// The payload, borrowed from the message this view was parsed from.
    pub fn payload<'a>(&self, raw: &'a [u8]) -> &'a [u8] {
        &raw[self.data_at..self.length]
    }

    /// The payload, as a slice of the message this view was parsed from.
    pub fn data(&self, raw: &Bytes) -> Bytes {
        raw.slice(self.data_at..self.length)
    }
}

/// Length of `ofp_packet_in` up to its payload, header included.
const PACKET_IN_FIXED_LEN: usize = OFP_HEADER_LEN + 10;

/// A PACKET_IN read where it lies: the fixed fields, and where in the
/// message the punted frame ends. A proxy that routes the message by
/// its frame and a controller that reads only the frame need nothing
/// else, so neither decodes an [`OfMessage`] or keeps a slice of the
/// message alive.
///
/// [`PacketInView::parse`] makes every check
/// [`OfMessage::decode_bytes`] makes, in the same order: it accepts a
/// message exactly when that decodes it, and fails with the same error
/// when not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketInView {
    pub xid: u32,
    pub buffer_id: u32,
    pub total_len: u16,
    pub in_port: PortNumber,
    pub reason: PacketInReason,
    /// `ofp_header.length`: the payload ends here.
    length: usize,
}

impl PacketInView {
    /// The PACKET_IN whose header said `header` and whose body (the
    /// `header.length - 8` bytes after it) is `body`.
    fn fixed(header: &OfHeader, body: &[u8]) -> Result<PacketInView, OfError> {
        if body.len() < PACKET_IN_FIXED_LEN - OFP_HEADER_LEN {
            return Err(OfError::Truncated);
        }
        Ok(PacketInView {
            xid: header.xid,
            buffer_id: u32::from_be_bytes([body[0], body[1], body[2], body[3]]),
            total_len: u16::from_be_bytes([body[4], body[5]]),
            in_port: u16::from_be_bytes([body[6], body[7]]),
            reason: match body[8] {
                0 => PacketInReason::NoMatch,
                1 => PacketInReason::Action,
                _ => return Err(OfError::Malformed("packet_in reason")),
            },
            length: header.length as usize,
        })
    }

    /// Read `raw`, a complete message. `Ok(None)`: well-framed, but not
    /// a PACKET_IN.
    pub fn parse(raw: &[u8]) -> Result<Option<PacketInView>, OfError> {
        let header = OfHeader::parse(raw)?;
        if raw.len() < header.length as usize {
            return Err(OfError::Truncated);
        }
        if header.msg_type != MsgType::PacketIn {
            return Ok(None);
        }
        Self::fixed(&header, &raw[OFP_HEADER_LEN..header.length as usize]).map(Some)
    }

    /// The punted frame, borrowed from the message this view was parsed
    /// from.
    pub fn payload<'a>(&self, raw: &'a [u8]) -> &'a [u8] {
        &raw[PACKET_IN_FIXED_LEN..self.length]
    }
}

impl OfMessage {
    pub fn msg_type(&self) -> MsgType {
        match self {
            OfMessage::Hello => MsgType::Hello,
            OfMessage::Error { .. } => MsgType::Error,
            OfMessage::FeaturesRequest => MsgType::FeaturesRequest,
            OfMessage::FeaturesReply(_) => MsgType::FeaturesReply,
            OfMessage::PacketIn { .. } => MsgType::PacketIn,
            OfMessage::PacketOut { .. } => MsgType::PacketOut,
            OfMessage::FlowMod { .. } => MsgType::FlowMod,
        }
    }

    /// Encode with the given transaction id.
    pub fn encode(&self, xid: u32) -> Bytes {
        let mut out = BytesMut::new();
        self.encode_into(&mut out, xid);
        out.freeze()
    }

    /// Encode one framed message into `out` (shared by [`encode`] and
    /// [`encode_batch`]).
    ///
    /// [`encode`]: OfMessage::encode
    /// [`encode_batch`]: OfMessage::encode_batch
    fn encode_into(&self, out: &mut BytesMut, xid: u32) {
        // One buffer, one pass: emit a header with a zero length, the
        // body straight after it, then backpatch the length — the
        // bytes are identical to building the body separately, minus
        // that buffer's allocation.
        let start = out.len();
        out.reserve(OFP_HEADER_LEN + self.body_size_hint());
        out.put_u8(OFP_VERSION);
        out.put_u8(self.msg_type() as u8);
        out.put_u16(0); // length, patched below
        out.put_u32(xid);
        self.emit_body(out);
        let length = (out.len() - start) as u16;
        out[start + 2..start + 4].copy_from_slice(&length.to_be_bytes());
    }

    /// Encode several messages into one wire buffer — a multi-message
    /// push. Each message keeps its own header (OF 1.0 has no batch
    /// container), with consecutive xids starting at `first_xid`; any
    /// [`MessageReader`](crate::MessageReader) decodes the result into
    /// the individual messages, so receivers need no batch awareness.
    /// One buffer means one transport write: this is how the controller
    /// coalesces per-switch FLOW_MOD bursts.
    pub fn encode_batch(msgs: &[OfMessage], first_xid: u32) -> Bytes {
        // Sized for the whole batch, so no message regrows the buffer.
        let mut out = BytesMut::with_capacity(
            msgs.iter()
                .map(|m| OFP_HEADER_LEN + m.body_size_hint())
                .sum(),
        );
        for (i, m) in msgs.iter().enumerate() {
            m.encode_into(&mut out, first_xid.wrapping_add(i as u32));
        }
        out.freeze()
    }

    /// Upper-bound body size for pre-reserving the encode buffer (only
    /// a capacity hint — never affects the emitted bytes).
    fn body_size_hint(&self) -> usize {
        match self {
            OfMessage::Hello | OfMessage::FeaturesRequest => 0,
            OfMessage::Error { data, .. } => 4 + data.len(),
            OfMessage::FeaturesReply(f) => {
                FEATURES_FIXED_LEN + usize::from(f.num_ports) * OFP_PHY_PORT_LEN
            }
            OfMessage::PacketIn { data, .. } => 10 + data.len(),
            OfMessage::PacketOut { actions, data, .. } => 8 + actions.len() * 16 + data.len(),
            OfMessage::FlowMod { actions, .. } => 64 + actions.len() * 16,
        }
    }

    fn emit_body(&self, buf: &mut BytesMut) {
        match self {
            OfMessage::Hello | OfMessage::FeaturesRequest => {}
            OfMessage::Error {
                err_type,
                code,
                data,
            } => {
                buf.put_u16(err_type.to_u16());
                buf.put_u16(*code);
                buf.put_slice(data);
            }
            OfMessage::FeaturesReply(f) => f.emit_into(buf),
            OfMessage::PacketIn {
                buffer_id,
                total_len,
                in_port,
                reason,
                data,
            } => {
                buf.put_u32(*buffer_id);
                buf.put_u16(*total_len);
                buf.put_u16(*in_port);
                buf.put_u8(match reason {
                    PacketInReason::NoMatch => 0,
                    PacketInReason::Action => 1,
                });
                buf.put_u8(0);
                buf.put_slice(data);
            }
            OfMessage::PacketOut {
                buffer_id,
                in_port,
                actions,
                data,
            } => {
                buf.put_u32(*buffer_id);
                buf.put_u16(*in_port);
                buf.put_u16(Action::list_len(actions) as u16);
                Action::emit_list(actions, buf);
                buf.put_slice(data);
            }
            OfMessage::FlowMod {
                of_match,
                cookie,
                command,
                idle_timeout,
                hard_timeout,
                priority,
                buffer_id,
                out_port,
                flags,
                actions,
            } => {
                of_match.emit_into(buf);
                buf.put_u64(*cookie);
                buf.put_u16(command.to_u16());
                buf.put_u16(*idle_timeout);
                buf.put_u16(*hard_timeout);
                buf.put_u16(*priority);
                buf.put_u32(*buffer_id);
                buf.put_u16(*out_port);
                buf.put_u16(*flags);
                Action::emit_list(actions, buf);
            }
        }
    }

    /// Decode a complete message (exactly `header.length` bytes).
    /// Returns the message and its xid.
    pub fn decode(data: &[u8]) -> Result<(OfMessage, u32), OfError> {
        Self::decode_impl(data, |body: &[u8], start: usize| {
            Bytes::copy_from_slice(&body[start..])
        })
    }

    /// [`OfMessage::decode`] with zero-copy payloads: variable-length
    /// tails (PACKET_IN/PACKET_OUT data, error context)
    /// become slices of the caller's [`Bytes`] instead of fresh
    /// allocations. Identical decoding semantics.
    pub fn decode_bytes(data: &Bytes) -> Result<(OfMessage, u32), OfError> {
        Self::decode_impl(data, |body: &[u8], start: usize| {
            // `body` is a reborrow of `data`; translate the suffix
            // back to absolute offsets for a zero-copy slice.
            let end = OFP_HEADER_LEN + body.len();
            data.slice(OFP_HEADER_LEN + start..end)
        })
    }

    fn decode_impl(
        data: &[u8],
        grab: impl Fn(&[u8], usize) -> Bytes,
    ) -> Result<(OfMessage, u32), OfError> {
        let header = OfHeader::parse(data)?;
        if data.len() < header.length as usize {
            return Err(OfError::Truncated);
        }
        let body = &data[OFP_HEADER_LEN..header.length as usize];
        let need = |n: usize| -> Result<(), OfError> {
            if body.len() < n {
                Err(OfError::Truncated)
            } else {
                Ok(())
            }
        };
        let be16 = |i: usize| u16::from_be_bytes([body[i], body[i + 1]]);
        let be32 = |i: usize| u32::from_be_bytes([body[i], body[i + 1], body[i + 2], body[i + 3]]);
        let be64 = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&body[i..i + 8]);
            u64::from_be_bytes(b)
        };
        let msg = match header.msg_type {
            MsgType::Hello => OfMessage::Hello,
            MsgType::Error => {
                need(4)?;
                OfMessage::Error {
                    err_type: ErrorType::from_u16(be16(0))?,
                    code: be16(2),
                    data: grab(body, 4),
                }
            }
            MsgType::FeaturesRequest => OfMessage::FeaturesRequest,
            MsgType::FeaturesReply => {
                need(FEATURES_FIXED_LEN)?;
                let ports_len = body.len() - FEATURES_FIXED_LEN;
                if !ports_len.is_multiple_of(OFP_PHY_PORT_LEN) {
                    return Err(OfError::Malformed("features ports length"));
                }
                OfMessage::FeaturesReply(SwitchFeatures {
                    datapath_id: be64(0),
                    num_ports: (ports_len / OFP_PHY_PORT_LEN) as u16,
                })
            }
            MsgType::PacketIn => {
                let view = PacketInView::fixed(&header, body)?;
                OfMessage::PacketIn {
                    buffer_id: view.buffer_id,
                    total_len: view.total_len,
                    in_port: view.in_port,
                    reason: view.reason,
                    data: grab(body, PACKET_IN_FIXED_LEN - OFP_HEADER_LEN),
                }
            }
            MsgType::PacketOut => {
                let view = PacketOutView::fixed(&header, body)?;
                OfMessage::PacketOut {
                    buffer_id: view.buffer_id,
                    in_port: view.in_port,
                    actions: Action::parse_list(view.action_bytes(data))?,
                    data: grab(body, view.data_at - OFP_HEADER_LEN),
                }
            }
            MsgType::FlowMod => {
                need(OFP_MATCH_LEN + 24)?;
                let of_match = OfMatch::parse(&body[..OFP_MATCH_LEN])?;
                let o = OFP_MATCH_LEN;
                OfMessage::FlowMod {
                    of_match,
                    cookie: be64(o),
                    command: FlowModCommand::from_u16(be16(o + 8))?,
                    idle_timeout: be16(o + 10),
                    hard_timeout: be16(o + 12),
                    priority: be16(o + 14),
                    buffer_id: be32(o + 16),
                    out_port: be16(o + 20),
                    flags: be16(o + 22),
                    actions: Action::parse_list(&body[o + 24..])?,
                }
            }
            MsgType::EchoRequest | MsgType::EchoReply => {
                return Err(OfError::Malformed("ECHO not supported"))
            }
            MsgType::Vendor => return Err(OfError::Malformed("VENDOR not supported")),
            MsgType::GetConfigRequest | MsgType::GetConfigReply => {
                return Err(OfError::Malformed("GET_CONFIG not supported"))
            }
            MsgType::SetConfig => return Err(OfError::Malformed("SET_CONFIG not supported")),
            MsgType::FlowRemoved => return Err(OfError::Malformed("FLOW_REMOVED not supported")),
            MsgType::PortStatus => return Err(OfError::Malformed("PORT_STATUS not supported")),
            MsgType::PortMod => return Err(OfError::Malformed("PORT_MOD not supported")),
            MsgType::StatsRequest | MsgType::StatsReply => {
                return Err(OfError::Malformed("STATS not supported"))
            }
            MsgType::BarrierRequest | MsgType::BarrierReply => {
                return Err(OfError::Malformed("BARRIER not supported"))
            }
        };
        Ok((msg, header.xid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn roundtrip(msg: OfMessage) {
        let wire = msg.encode(0x1234_5678);
        let (decoded, xid) = OfMessage::decode(&wire).unwrap();
        assert_eq!(xid, 0x1234_5678);
        assert_eq!(decoded, msg, "roundtrip failed");
        // Header length must equal wire length.
        let h = OfHeader::parse(&wire).unwrap();
        assert_eq!(h.length as usize, wire.len());
    }

    #[test]
    fn hello_roundtrip() {
        roundtrip(OfMessage::Hello);
    }

    #[test]
    fn error_roundtrip() {
        roundtrip(OfMessage::Error {
            err_type: ErrorType::FlowModFailed,
            code: 3,
            data: Bytes::from(vec![0u8; 64]),
        });
    }

    #[test]
    fn features_roundtrip() {
        roundtrip(OfMessage::FeaturesRequest);
        for num_ports in [0, 1, 2, 300] {
            roundtrip(OfMessage::FeaturesReply(SwitchFeatures {
                datapath_id: 0x0000_0000_0000_001C,
                num_ports,
            }));
        }
    }

    /// A FEATURES_REPLY is the bytes a switch that listed its ports one
    /// `ofp_phy_port` value at a time wrote: no buffers, one table, no
    /// capabilities, actions 0x31, and per port its MAC, `eth{p}` and
    /// the 1 Gb/s full-duplex bits.
    #[test]
    fn features_reply_golden() {
        let reply = |datapath_id, num_ports| {
            hex(&OfMessage::FeaturesReply(SwitchFeatures {
                datapath_id,
                num_ports,
            })
            .encode(0x11))
        };
        assert_eq!(
            reply(0x1C, 0),
            "0106002000000011000000000000001c00000000010000000000000000000031"
        );
        let want = concat!(
            "010600b000000011010203040506070800000000010000000000000000000031",
            "000102060708000165746831000000000000000000000000",
            "000000000000000000000020000000200000002000000000",
            "000202060708000265746832000000000000000000000000",
            "000000000000000000000020000000200000002000000000",
            "000302060708000365746833000000000000000000000000",
            "000000000000000000000020000000200000002000000000",
        );
        assert_eq!(reply(0x0102_0304_0506_0708, 3), want);
    }

    /// The decoder counts the ports: a list that is not whole
    /// `ofp_phy_port`s is malformed, whatever its bytes say.
    #[test]
    fn features_reply_port_list_is_counted() {
        let wire = OfMessage::FeaturesReply(SwitchFeatures {
            datapath_id: 9,
            num_ports: 2,
        })
        .encode(1)
        .to_vec();
        for cut in [1, 47, 48, 49] {
            let raw = with_length(&wire[..wire.len() - cut], (wire.len() - cut) as u16);
            let want = if cut == 48 {
                Ok(OfMessage::FeaturesReply(SwitchFeatures {
                    datapath_id: 9,
                    num_ports: 1,
                }))
            } else {
                Err(OfError::Malformed("features ports length"))
            };
            assert_eq!(OfMessage::decode(&raw).map(|(m, _)| m), want, "cut {cut}");
        }
        assert_eq!(
            OfMessage::decode(&with_length(&wire[..31], 31)),
            Err(OfError::Truncated)
        );
    }

    #[test]
    fn packet_in_roundtrip() {
        roundtrip(OfMessage::PacketIn {
            buffer_id: 77,
            total_len: 60,
            in_port: 2,
            reason: PacketInReason::NoMatch,
            data: Bytes::from(vec![0xABu8; 60]),
        });
    }

    #[test]
    fn packet_out_roundtrip() {
        roundtrip(OfMessage::PacketOut {
            buffer_id: crate::OFP_NO_BUFFER,
            in_port: crate::ports::OFPP_NONE,
            actions: vec![Action::output(3), Action::output(4)],
            data: Bytes::from_static(b"lldp-probe-bytes"),
        });
        // Buffered variant: no data.
        roundtrip(OfMessage::PacketOut {
            buffer_id: 42,
            in_port: 1,
            actions: vec![Action::output(crate::ports::OFPP_CONTROLLER)],
            data: Bytes::new(),
        });
    }

    #[test]
    fn flow_mod_roundtrip() {
        roundtrip(OfMessage::FlowMod {
            of_match: OfMatch::ipv4_dst_prefix(Ipv4Addr::new(172, 31, 1, 0), 24),
            cookie: 0xFEED_F00D,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 0x8000,
            buffer_id: crate::OFP_NO_BUFFER,
            out_port: crate::ports::OFPP_NONE,
            flags: 1, // SEND_FLOW_REM: carried, though no switch here takes it
            actions: vec![
                Action::SetDlSrc(MacAddr([2, 0, 0, 0, 0, 1])),
                Action::SetDlDst(MacAddr([2, 0, 0, 0, 0, 2])),
                Action::output(2),
            ],
        });
    }

    /// MODIFY, MODIFY_STRICT, loose DELETE and a command OF 1.0 does
    /// not define, and a match on a field the loop never names, decode
    /// to the errors a switch refuses them with.
    #[test]
    fn flow_mod_outside_the_loop_is_refused_typed() {
        let wire = OfMessage::FlowMod {
            of_match: OfMatch::lldp(),
            cookie: 0,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 1,
            buffer_id: crate::OFP_NO_BUFFER,
            out_port: crate::ports::OFPP_NONE,
            flags: 0,
            actions: Vec::new(),
        }
        .encode(9)
        .to_vec();
        let command_at = OFP_HEADER_LEN + OFP_MATCH_LEN + 8;
        for (command, want) in [
            (1, Err(OfError::BadCommand(1))),
            (2, Err(OfError::BadCommand(2))),
            (3, Err(OfError::BadCommand(3))),
            (5, Err(OfError::BadCommand(5))),
        ] {
            let mut raw = wire.clone();
            raw[command_at + 1] = command;
            assert_eq!(OfMessage::decode(&raw), want, "command {command}");
        }
        let mut in_port = wire.clone();
        in_port[OFP_HEADER_LEN + 3] &= !1; // OFPFW_IN_PORT
        assert_eq!(OfMessage::decode(&in_port), Err(OfError::UnsupportedMatch));
        assert_eq!(
            OfError::UnsupportedMatch.refusal(),
            Some((ErrorType::FlowModFailed, 5))
        );
        assert_eq!(
            OfError::BadCommand(3).refusal(),
            Some((ErrorType::FlowModFailed, 4))
        );
        assert_eq!(
            OfError::BadAction(7).refusal(),
            Some((ErrorType::BadAction, 0))
        );
        assert_eq!(
            OfError::BadOutPort(0).refusal(),
            Some((ErrorType::BadAction, 4))
        );
        assert_eq!(OfError::Truncated.refusal(), None);
    }

    /// The OF 1.0 types nothing in the loop sends — ECHO, VENDOR,
    /// GET_CONFIG, SET_CONFIG, FLOW_REMOVED, PORT_STATUS, PORT_MOD,
    /// STATS and BARRIER — are well-framed but not implemented: a typed
    /// rejection, whatever the body.
    #[test]
    fn unimplemented_types_are_rejected_typed() {
        let types = [
            (MsgType::EchoRequest, "ECHO not supported"),
            (MsgType::EchoReply, "ECHO not supported"),
            (MsgType::Vendor, "VENDOR not supported"),
            (MsgType::GetConfigRequest, "GET_CONFIG not supported"),
            (MsgType::GetConfigReply, "GET_CONFIG not supported"),
            (MsgType::SetConfig, "SET_CONFIG not supported"),
            (MsgType::FlowRemoved, "FLOW_REMOVED not supported"),
            (MsgType::PortStatus, "PORT_STATUS not supported"),
            (MsgType::PortMod, "PORT_MOD not supported"),
            (MsgType::StatsRequest, "STATS not supported"),
            (MsgType::StatsReply, "STATS not supported"),
            (MsgType::BarrierRequest, "BARRIER not supported"),
            (MsgType::BarrierReply, "BARRIER not supported"),
        ];
        for (msg_type, why) in types {
            // Header alone, then with four bytes of body (a STATS desc
            // request's type and flags, a SET_CONFIG's fields, a VENDOR's
            // id, an ECHO's payload), then with a PORT_STATUS's 56 (its
            // reason, padding and a port).
            for body in [&[][..], &[0, 0, 0, 0], &[0; 56]] {
                let mut wire = OfHeader {
                    version: OFP_VERSION,
                    msg_type,
                    length: (OFP_HEADER_LEN + body.len()) as u16,
                    xid: 9,
                }
                .emit()
                .to_vec();
                wire.extend_from_slice(body);
                let want = Err(OfError::Malformed(why));
                assert_eq!(OfMessage::decode(&wire), want);
                assert_eq!(OfMessage::decode_bytes(&Bytes::from(wire)), want);
            }
        }
    }

    #[test]
    fn encode_batch_concatenates_framed_messages() {
        let msgs = vec![
            OfMessage::FlowMod {
                of_match: OfMatch::ipv4_dst_prefix(Ipv4Addr::new(172, 31, 1, 0), 24),
                cookie: 1,
                command: FlowModCommand::Add,
                idle_timeout: 0,
                hard_timeout: 0,
                priority: 0x1010,
                buffer_id: crate::OFP_NO_BUFFER,
                out_port: crate::ports::OFPP_NONE,
                flags: 0,
                actions: vec![Action::output(1)],
            },
            OfMessage::FlowMod {
                of_match: OfMatch::ipv4_dst_prefix(Ipv4Addr::new(172, 31, 2, 0), 24),
                cookie: 2,
                command: FlowModCommand::DeleteStrict,
                idle_timeout: 0,
                hard_timeout: 0,
                priority: 0x1010,
                buffer_id: crate::OFP_NO_BUFFER,
                out_port: crate::ports::OFPP_NONE,
                flags: 0,
                actions: vec![],
            },
        ];
        let wire = OfMessage::encode_batch(&msgs, 100);
        // Byte-for-byte the concatenation of the individual encodings.
        let separate: Vec<u8> = msgs
            .iter()
            .enumerate()
            .flat_map(|(i, m)| m.encode(100 + i as u32).to_vec())
            .collect();
        assert_eq!(&wire[..], &separate[..]);
        // A standard reader walks the batch back into the messages.
        let mut offset = 0;
        let mut decoded = Vec::new();
        let mut xids = Vec::new();
        while offset < wire.len() {
            let (m, xid) = OfMessage::decode(&wire[offset..]).unwrap();
            let h = OfHeader::parse(&wire[offset..]).unwrap();
            offset += h.length as usize;
            decoded.push(m);
            xids.push(xid);
        }
        assert_eq!(decoded, msgs);
        assert_eq!(xids, vec![100, 101]);
    }

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    /// A batch as the encoder that reserved per message wrote it: the
    /// wire format is pinned byte for byte, one line per message.
    #[test]
    fn encode_batch_golden() {
        let msgs = [
            OfMessage::FlowMod {
                of_match: OfMatch::ipv4_dst_prefix(Ipv4Addr::new(172, 31, 1, 0), 24),
                cookie: 1,
                command: FlowModCommand::Add,
                idle_timeout: 0,
                hard_timeout: 0,
                priority: 0x1010,
                buffer_id: crate::OFP_NO_BUFFER,
                out_port: crate::ports::OFPP_NONE,
                flags: 0,
                actions: vec![
                    Action::SetDlSrc(MacAddr([2, 0, 0, 0, 0, 1])),
                    Action::SetDlDst(MacAddr([2, 0, 0, 0, 0, 2])),
                    Action::output(1),
                ],
            },
            OfMessage::FlowMod {
                of_match: OfMatch::ipv4_dst_prefix(Ipv4Addr::new(172, 31, 2, 0), 24),
                cookie: 2,
                command: FlowModCommand::DeleteStrict,
                idle_timeout: 0,
                hard_timeout: 0,
                priority: 0x1010,
                buffer_id: crate::OFP_NO_BUFFER,
                out_port: crate::ports::OFPP_NONE,
                flags: 0,
                actions: vec![],
            },
            OfMessage::PacketOut {
                buffer_id: crate::OFP_NO_BUFFER,
                in_port: crate::ports::OFPP_NONE,
                actions: vec![Action::output(3)],
                data: Bytes::from_static(b"probe"),
            },
        ];
        let want = concat!(
            "010e00700000006400323fef0000000000000000000000000000ffff00000800",
            "0000000000000000ac1f01000000000000000000000000010000000000001010",
            "ffffffffffff0000000400100200000000010000000000000005001002000000",
            "00020000000000000000000800010000",
            "010e00480000006500323fef0000000000000000000000000000ffff00000800",
            "0000000000000000ac1f02000000000000000000000000020004000000001010",
            "ffffffffffff0000",
            "010d001d00000066ffffffffffff0008000000080003000070726f6265",
        );
        assert_eq!(hex(&OfMessage::encode_batch(&msgs, 100)), want);
    }

    #[test]
    fn encode_batch_of_nothing_is_empty() {
        assert!(OfMessage::encode_batch(&[], 7).is_empty());
    }

    #[test]
    fn decode_rejects_truncated_body() {
        let wire = OfMessage::PacketIn {
            buffer_id: 1,
            total_len: 10,
            in_port: 1,
            reason: PacketInReason::NoMatch,
            data: Bytes::from_static(b"0123456789"),
        }
        .encode(1);
        // Claim full length but supply fewer bytes.
        assert_eq!(
            OfMessage::decode(&wire[..wire.len() - 4]),
            Err(OfError::Truncated)
        );
    }

    /// `raw` with its header's length field set to `length`.
    fn with_length(raw: &[u8], length: u16) -> Vec<u8> {
        let mut out = raw.to_vec();
        out[2..4].copy_from_slice(&length.to_be_bytes());
        out
    }

    /// Each encoding damaged every way a view checks for: cut at every
    /// length, with the header's length left as it was and rewritten
    /// to match; a bad version; every type byte; a length field below
    /// the header, short of and beyond the body; every value of bytes
    /// 15 and 16 (a PACKET_OUT's `actions_len` low byte, a PACKET_IN's
    /// `reason`); and, apart, five bad action lists in a PACKET_OUT.
    fn mutations(encodings: &[Bytes]) -> Vec<Bytes> {
        let mut out = Vec::new();
        for raw in encodings {
            out.push(raw.clone());
            for n in 0..raw.len() {
                out.push(raw.slice(..n));
                if n >= OFP_HEADER_LEN {
                    out.push(with_length(&raw[..n], n as u16).into());
                }
            }
            let mut bad_version = raw.to_vec();
            bad_version[0] = OFP_VERSION + 1;
            out.push(bad_version.into());
            for msg_type in 0..=u8::MAX {
                let mut retyped = raw.to_vec();
                retyped[1] = msg_type;
                out.push(retyped.into());
            }
            let len = raw.len() as u16;
            for length in [0, 7, 8, len - 1, len + 1, u16::MAX] {
                out.push(with_length(raw, length).into());
            }
            let mut padded = raw.to_vec();
            padded.extend_from_slice(b"trailing");
            out.push(padded.into());
            for at in [15, 16].into_iter().filter(|&at| at < raw.len()) {
                for byte in 0..=u8::MAX {
                    let mut damaged = raw.to_vec();
                    damaged[at] = byte;
                    out.push(damaged.into());
                }
            }
        }
        let bad_actions: [&[u8]; 7] = [
            &[0, 0, 0, 4, 0, 1, 0, 0],       // shorter than an action
            &[0, 0, 0, 12, 0, 1, 0, 0],      // not a multiple of 8
            &[0, 0, 0, 16, 0, 1, 0, 0],      // past the list
            &[0, 99, 0, 8, 0, 0, 0, 0],      // unknown type
            &[0, 4, 0, 8, 0, 0, 0, 0, 0, 0], // SET_DL_SRC of 8 bytes
            &[0, 0, 0, 8, 0xFF, 0xFB, 0, 0], // output to FLOOD
            &[0, 0, 0, 8, 0, 0, 0, 0],       // output to port 0
        ];
        for actions in bad_actions {
            let mut raw = OfMessage::PacketOut {
                buffer_id: crate::OFP_NO_BUFFER,
                in_port: 1,
                actions: Vec::new(),
                data: Bytes::from_static(b"frame"),
            }
            .encode(3)
            .to_vec();
            raw.splice(16..16, actions.iter().copied());
            raw[14..16].copy_from_slice(&(actions.len() as u16).to_be_bytes());
            let length = raw.len() as u16;
            out.push(with_length(&raw, length).into());
        }
        out
    }

    /// Encodings of both messages the views read, and of their
    /// neighbours in type number.
    fn view_corpus() -> Vec<Bytes> {
        let frame = Bytes::from_static(b"\x01\x80\xc2\x00\x00\x0e lldp frame bytes");
        vec![
            OfMessage::PacketIn {
                buffer_id: crate::OFP_NO_BUFFER,
                total_len: frame.len() as u16,
                in_port: 2,
                reason: PacketInReason::Action,
                data: frame.clone(),
            }
            .encode(0x0102_0304),
            OfMessage::PacketIn {
                buffer_id: 9,
                total_len: 1500,
                in_port: 1,
                reason: PacketInReason::NoMatch,
                data: Bytes::new(),
            }
            .encode(5),
            OfMessage::PacketOut {
                buffer_id: crate::OFP_NO_BUFFER,
                in_port: crate::ports::OFPP_NONE,
                actions: vec![
                    Action::SetDlSrc(rf_wire::MacAddr([2, 0, 0, 0, 0, 1])),
                    Action::output(3),
                ],
                data: frame,
            }
            .encode(6),
            OfMessage::PacketOut {
                buffer_id: 7,
                in_port: 1,
                actions: Vec::new(),
                data: Bytes::new(),
            }
            .encode(8),
            // A SET_CONFIG (flags 0, a 128-byte cut): well-framed,
            // and no decoder takes it.
            Bytes::from_static(&[1, 9, 0, 12, 0, 0, 0, 9, 0, 0, 0, 128]),
        ]
    }

    /// [`PacketInView::parse`] and [`PacketOutView::parse`] against
    /// [`OfMessage::decode_bytes`], on every mutation of every encoding:
    /// a view accepts exactly the messages of its type that decode, with
    /// the same fields and payload (and actions), rejects the rest with
    /// the decoder's error, and passes over — `Ok(None)` — only a
    /// well-framed message of another type.
    #[test]
    fn the_views_agree_with_the_decoder() {
        let (mut ins, mut outs) = (0, 0);
        for raw in mutations(&view_corpus()) {
            let decoded = OfMessage::decode_bytes(&raw);
            let other_type = |decoded: &Result<(OfMessage, u32), OfError>, want: MsgType| {
                let header = OfHeader::parse(&raw).expect("passed over: the header parses");
                assert!(raw.len() >= header.length as usize, "passed over: framed");
                assert_ne!(header.msg_type, want);
                if let Ok((msg, _)) = decoded {
                    assert_eq!(msg.msg_type(), header.msg_type);
                }
            };
            match (PacketInView::parse(&raw), &decoded) {
                (Ok(Some(view)), Ok((msg, xid))) => {
                    ins += 1;
                    let want = OfMessage::PacketIn {
                        buffer_id: view.buffer_id,
                        total_len: view.total_len,
                        in_port: view.in_port,
                        reason: view.reason,
                        data: Bytes::copy_from_slice(view.payload(&raw)),
                    };
                    assert_eq!((msg, *xid), (&want, view.xid), "{raw:?}");
                }
                (Ok(None), _) => other_type(&decoded, MsgType::PacketIn),
                (Err(view), Err(dec)) => assert_eq!(view, *dec, "{raw:?}"),
                (view, dec) => panic!("PacketInView {view:?}, decoder {dec:?}: {raw:?}"),
            }
            match (PacketOutView::parse(&raw), &decoded) {
                (Ok(Some(view)), Ok((msg, xid))) => {
                    outs += 1;
                    let want = OfMessage::PacketOut {
                        buffer_id: view.buffer_id,
                        in_port: view.in_port,
                        actions: view.actions(&raw).collect(),
                        data: view.data(&raw),
                    };
                    assert_eq!(view.payload(&raw), &view.data(&raw)[..]);
                    assert_eq!((msg, *xid), (&want, view.xid), "{raw:?}");
                }
                (Ok(None), _) => other_type(&decoded, MsgType::PacketOut),
                (Err(view), Err(dec)) => assert_eq!(view, *dec, "{raw:?}"),
                (view, dec) => panic!("PacketOutView {view:?}, decoder {dec:?}: {raw:?}"),
            }
        }
        // Both views saw accepted messages, not only rejections.
        assert!(
            ins > 10 && outs > 10,
            "accepted: {ins} PACKET_IN, {outs} PACKET_OUT"
        );
    }

    #[test]
    fn decoder_never_panics_on_byte_soup() {
        // Lightweight deterministic fuzz (proptest covers more in
        // tests/; this is the fast in-module smoke).
        let mut state = 0x12345678u64;
        for _ in 0..2000 {
            let len = (state % 128) as usize;
            let mut buf = Vec::with_capacity(len);
            for _ in 0..len {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                buf.push((state >> 33) as u8);
            }
            let _ = OfMessage::decode(&buf);
        }
    }
}
