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
//! * the proactive path: `FLOW_MOD`
//! * port changes: `PORT_STATUS`
//! * the 40-byte `ofp_match` with the OF 1.0 wildcard bitfield and
//!   CIDR-style nw_src/nw_dst masking
//! * the three actions the loop installs: `OUTPUT`, `SET_DL_SRC` and
//!   `SET_DL_DST`
//!
//! Byte-exactness matters here: FlowVisor sits *between* switches and
//! controllers and rewrites these messages on the wire, so both sides
//! of every encoding are hit in normal operation. Every message kind
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

#![forbid(unsafe_code)]

pub mod actions;
pub mod codec;
pub mod flow_match;
pub mod header;
pub mod messages;
pub mod ports;

pub use actions::{Action, SUPPORTED_ACTIONS};
pub use codec::{reframe_with_xid, MessageReader};
pub use flow_match::{KeyDepth, OfMatch, PacketKey, Wildcards, OFP_VLAN_NONE};
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
}

impl fmt::Display for OfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OfError::Truncated => write!(f, "truncated OpenFlow message"),
            OfError::BadVersion(v) => write!(f, "unsupported OpenFlow version 0x{v:02x}"),
            OfError::UnknownType(t) => write!(f, "unknown OpenFlow message type {t}"),
            OfError::Malformed(what) => write!(f, "malformed OpenFlow message: {what}"),
            OfError::BadAction(t) => write!(f, "unsupported OpenFlow action type {t}"),
        }
    }
}

impl std::error::Error for OfError {}
