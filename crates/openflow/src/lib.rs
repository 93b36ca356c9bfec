//! # rf-openflow — OpenFlow 1.0 wire protocol
//!
//! The paper's framework is built entirely on OpenFlow 1.0 (Open
//! vSwitch 1.4.1, NOX-era controllers, FlowVisor). This crate
//! implements the OF 1.0 message set the system exercises, with exact
//! big-endian wire encodings per the OpenFlow 1.0.0 specification:
//!
//! * connection setup: `HELLO`, `FEATURES_REQUEST/REPLY` (the reply
//!   carries what the loop reads of it, the datapath id and the port
//!   count, in the bytes of a switch with one table, no buffers, no
//!   optional capabilities and 1 Gb/s ports), `ERROR`
//! * the reactive path: `PACKET_IN`, `PACKET_OUT`
//! * the proactive path: `FLOW_MOD` ADD and DELETE_STRICT
//! * the matches the loop writes into the 40-byte `ofp_match`: an
//!   EtherType and, for IPv4, a CIDR-style destination prefix
//! * the three actions the loop installs: `OUTPUT` to a physical port
//!   or to the controller, `SET_DL_SRC` and `SET_DL_DST`
//!
//! Byte-exactness matters here: FlowVisor sits *between* switches and
//! controllers and rewrites the xids of these messages on the wire, so
//! both sides of every encoding are hit in normal operation. Every message kind
//! has encode/decode round-trip tests, and proptest fuzzes the decoder
//! with arbitrary byte soup (it must never panic).
//!
//! Out of scope: OF 1.1+, `QUEUE_GET_CONFIG` and the emergency flow
//! cache. The other nine OF 1.0 actions (VLAN, IPv4 and UDP rewrites,
//! `ENQUEUE`), which no app installs, decode to a typed
//! [`OfError::BadAction`], as does any action type OF 1.0 does not
//! define; an `OUTPUT` to a virtual port (`IN_PORT`, `TABLE`, `NORMAL`,
//! `FLOOD`, `ALL`, `LOCAL`), to `NONE` or to port 0 decodes to
//! [`OfError::BadOutPort`]. `ECHO_REQUEST/REPLY`, `VENDOR`,
//! `GET_CONFIG_REQUEST/REPLY`, `SET_CONFIG`, `FLOW_REMOVED`,
//! `PORT_STATUS`, `PORT_MOD`, `STATS_REQUEST/REPLY` and
//! `BARRIER_REQUEST/REPLY` (types 2–4, 7–9, 11, 12, 15–19), which
//! nothing in the paper's loop sends, decode to a typed
//! [`OfError::Malformed`]: no end of a control channel watches the
//! other with keepalives, and nothing speaks an extension; its flows
//! are installed for good and deleted by the controller, so no switch
//! times one out, reports one removed or counts its traffic; a miss
//! goes up whole, so nothing sets how much of it; and a failure reaches
//! routing through discovery's LLDP timeouts and OSPF's dead interval,
//! not through a port's status.
//! A `FLOW_MOD` that MODIFYs or deletes loosely (commands 1–3), or
//! names a command OF 1.0 does not define, decodes to
//! [`OfError::BadCommand`], and one whose match names any field but
//! the EtherType and an IPv4 destination prefix to
//! [`OfError::UnsupportedMatch`]. [`OfError::refusal`] is the `ERROR` a
//! switch answers each such request with, and FlowVisor refuses it to
//! the slice with the same.

#![forbid(unsafe_code)]

pub mod actions;
pub mod codec;
pub mod flow_match;
pub mod header;
pub mod messages;
pub mod ports;

pub use actions::{Action, SUPPORTED_ACTIONS};
pub use codec::{reframe_with_xid, MessageReader};
pub use flow_match::{OfMatch, PacketKey};
pub use header::{MsgType, OfHeader, OFP_HEADER_LEN, OFP_VERSION};
pub use messages::{
    ErrorCode, ErrorType, FlowModCommand, OfMessage, PacketInReason, PacketInView, PacketOutView,
    SwitchFeatures,
};
pub use ports::{PortNumber, OFPP_CONTROLLER, OFPP_MAX, OFPP_NONE};

/// `buffer_id` value meaning "packet not buffered".
pub const OFP_NO_BUFFER: u32 = 0xFFFF_FFFF;

use std::fmt;

/// Errors from decoding OpenFlow bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OfError {
    /// Fewer bytes than the header's `length` field (or the fixed part)
    /// requires.
    Truncated,
    /// Wire version is not 0x01.
    BadVersion(u8),
    /// Unknown `ofp_type`.
    UnknownType(u8),
    /// Structurally invalid content.
    Malformed(&'static str),
    /// A well-framed action of a type other than the three in
    /// [`Action`]; a switch answers the request that carried it with
    /// `ERROR(BAD_ACTION, OFPBAC_BAD_TYPE)`.
    BadAction(u16),
    /// An `OUTPUT` to a port that is neither physical (`1..=OFPP_MAX`)
    /// nor `OFPP_CONTROLLER`; a switch answers the request that carried
    /// it with `ERROR(BAD_ACTION, OFPBAC_BAD_OUT_PORT)`.
    BadOutPort(u16),
    /// A FLOW_MOD command other than ADD and DELETE_STRICT: MODIFY,
    /// MODIFY_STRICT, loose DELETE, or one OF 1.0 does not define.
    BadCommand(u16),
    /// A well-framed `ofp_match` that constrains a field other than the
    /// EtherType and an IPv4 destination prefix, or no EtherType.
    UnsupportedMatch,
}

/// The OF 1.0 error codes a switch or FlowVisor sends, each under its
/// [`ErrorType`]: `ofp_bad_request_code` (`OFPBRC_*`, with
/// [`ErrorType::BadRequest`]), `ofp_bad_action_code` (`OFPBAC_*`) and
/// `ofp_flow_mod_failed_code` (`OFPFMFC_*`).
pub mod error_code {
    use crate::ErrorCode;

    /// A message a switch does not take.
    pub const OFPBRC_BAD_TYPE: ErrorCode = 1;
    /// A PACKET_OUT outside the slice's flowspace.
    pub const OFPBRC_EPERM: ErrorCode = 5;
    /// A PACKET_OUT whose payload is shorter than an Ethernet header.
    pub const OFPBRC_BAD_LEN: ErrorCode = 6;
    /// A FLOW_MOD or PACKET_OUT naming a buffer: no frame is buffered.
    pub const OFPBRC_BUFFER_UNKNOWN: ErrorCode = 8;
    /// An action other than the three in [`Action`](crate::Action).
    pub const OFPBAC_BAD_TYPE: ErrorCode = 0;
    /// An `OUTPUT` to a virtual port, to `NONE` or to port 0.
    pub const OFPBAC_BAD_OUT_PORT: ErrorCode = 4;
    /// A FLOW_MOD outside the slice's flowspace.
    pub const OFPFMFC_EPERM: ErrorCode = 2;
    /// A FLOW_MOD command other than ADD and DELETE_STRICT.
    pub const OFPFMFC_BAD_COMMAND: ErrorCode = 4;
    /// A match on another field, a timeout, a flag or an `out_port`
    /// filter: every flow lives until it is deleted, reports nothing,
    /// and is deleted by its match and priority.
    pub const OFPFMFC_UNSUPPORTED: ErrorCode = 5;
}

impl OfError {
    /// The `ERROR` a switch answers a request that decodes to this
    /// with, under the request's xid — `None` for a message it does not
    /// answer at all (it counts it as undecodable).
    pub fn refusal(self) -> Option<(ErrorType, ErrorCode)> {
        use error_code::*;
        match self {
            OfError::BadAction(_) => Some((ErrorType::BadAction, OFPBAC_BAD_TYPE)),
            OfError::BadOutPort(_) => Some((ErrorType::BadAction, OFPBAC_BAD_OUT_PORT)),
            OfError::BadCommand(_) => Some((ErrorType::FlowModFailed, OFPFMFC_BAD_COMMAND)),
            OfError::UnsupportedMatch => Some((ErrorType::FlowModFailed, OFPFMFC_UNSUPPORTED)),
            OfError::Truncated
            | OfError::BadVersion(_)
            | OfError::UnknownType(_)
            | OfError::Malformed(_) => None,
        }
    }
}

impl fmt::Display for OfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OfError::Truncated => write!(f, "truncated OpenFlow message"),
            OfError::BadVersion(v) => write!(f, "unsupported OpenFlow version 0x{v:02x}"),
            OfError::UnknownType(t) => write!(f, "unknown OpenFlow message type {t}"),
            OfError::Malformed(what) => write!(f, "malformed OpenFlow message: {what}"),
            OfError::BadAction(t) => write!(f, "unsupported OpenFlow action type {t}"),
            OfError::BadOutPort(p) => write!(f, "unsupported OpenFlow output port {p:#06x}"),
            OfError::BadCommand(c) => write!(f, "unsupported FLOW_MOD command {c}"),
            OfError::UnsupportedMatch => write!(f, "unsupported OpenFlow match"),
        }
    }
}

impl std::error::Error for OfError {}
