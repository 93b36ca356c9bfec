//! # rf-openflow — OpenFlow 1.0 wire protocol
//!
//! The paper's framework is built entirely on OpenFlow 1.0 (Open
//! vSwitch 1.4.1, NOX-era controllers, FlowVisor). This crate
//! implements the OF 1.0 message set the system exercises, with exact
//! big-endian wire encodings per the OpenFlow 1.0.0 specification:
//!
//! * connection setup: `HELLO`, `ECHO_REQUEST/REPLY`, `FEATURES_REQUEST/
//!   REPLY`, `SET_CONFIG`, `ERROR`
//! * the reactive path: `PACKET_IN`, `PACKET_OUT`
//! * the proactive path: `FLOW_MOD` ADD and DELETE_STRICT
//! * port changes: `PORT_STATUS`
//! * the matches the loop writes into the 40-byte `ofp_match`: an
//!   EtherType and, for IPv4, a CIDR-style destination prefix
//! * the three actions the loop installs: `OUTPUT`, `SET_DL_SRC` and
//!   `SET_DL_DST`
//!
//! Byte-exactness matters here: FlowVisor sits *between* switches and
//! controllers and rewrites the xids of these messages on the wire, so
//! both sides of every encoding are hit in normal operation. Every message kind
//! has encode/decode round-trip tests, and proptest fuzzes the decoder
//! with arbitrary byte soup (it must never panic).
//!
//! Out of scope: OF 1.1+, `QUEUE_GET_CONFIG`, vendor extensions beyond
//! an opaque passthrough, and the emergency flow cache. The other nine
//! OF 1.0 actions (VLAN, IPv4 and UDP rewrites, `ENQUEUE`), which no
//! app installs, decode to a typed [`OfError::BadAction`], as does any
//! action type OF 1.0 does not define. `GET_CONFIG_REQUEST/REPLY`,
//! `FLOW_REMOVED`, `PORT_MOD`, `STATS_REQUEST/REPLY` and
//! `BARRIER_REQUEST/REPLY` (types 7, 8, 11, 15–19), which nothing in the
//! paper's loop sends, decode to a typed [`OfError::Malformed`]: its
//! flows are installed for good and deleted by the controller, so no
//! switch times one out, reports one removed or counts its traffic.
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
    PortStatusReason, SwitchFeatures,
};
pub use ports::{
    PhyPort, PortNumber, OFPP_ALL, OFPP_CONTROLLER, OFPP_FLOOD, OFPP_IN_PORT, OFPP_LOCAL, OFPP_MAX,
    OFPP_NONE, OFPP_NORMAL, OFPP_TABLE,
};

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
    /// A FLOW_MOD command other than ADD and DELETE_STRICT: MODIFY,
    /// MODIFY_STRICT, loose DELETE, or one OF 1.0 does not define.
    BadCommand(u16),
    /// A well-framed `ofp_match` that constrains a field other than the
    /// EtherType and an IPv4 destination prefix, or no EtherType.
    UnsupportedMatch,
}

impl OfError {
    /// The `ERROR` a switch answers a request that decodes to this
    /// with, under the request's xid — `None` for a message it does not
    /// answer at all (it counts it as undecodable).
    pub fn refusal(self) -> Option<(ErrorType, ErrorCode)> {
        match self {
            OfError::BadAction(_) => Some((ErrorType::BadAction, 0)), // OFPBAC_BAD_TYPE
            OfError::BadCommand(_) => Some((ErrorType::FlowModFailed, 4)), // OFPFMFC_BAD_COMMAND
            OfError::UnsupportedMatch => Some((ErrorType::FlowModFailed, 5)), // OFPFMFC_UNSUPPORTED
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
            OfError::BadCommand(c) => write!(f, "unsupported FLOW_MOD command {c}"),
            OfError::UnsupportedMatch => write!(f, "unsupported OpenFlow match"),
        }
    }
}

impl std::error::Error for OfError {}
