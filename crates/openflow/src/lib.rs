//! # rf-openflow — OpenFlow 1.0 wire protocol
//!
//! The paper's framework is built entirely on OpenFlow 1.0 (Open
//! vSwitch 1.4.1, NOX-era controllers, FlowVisor). This crate
//! implements the OF 1.0 message set the system exercises, with exact
//! big-endian wire encodings per the OpenFlow 1.0.0 specification:
//!
//! * connection setup: `HELLO`, `ECHO_REQUEST/REPLY`, `FEATURES_REQUEST/
//!   REPLY`, `SET_CONFIG`/`GET_CONFIG`, `ERROR`
//! * the reactive path: `PACKET_IN`, `PACKET_OUT`
//! * the proactive path: `FLOW_MOD`, `FLOW_REMOVED`, `BARRIER`
//! * monitoring: `PORT_STATUS`, `STATS_REQUEST/REPLY` (desc, flow,
//!   aggregate, table, port)
//! * the 40-byte `ofp_match` with the OF 1.0 wildcard bitfield and
//!   CIDR-style nw_src/nw_dst masking, and the full OF 1.0 action list
//!
//! Byte-exactness matters here: FlowVisor sits *between* switches and
//! controllers and rewrites these messages on the wire, so both sides
//! of every encoding are hit in normal operation. Every message kind
//! has encode/decode round-trip tests, and proptest fuzzes the decoder
//! with arbitrary byte soup (it must never panic).
//!
//! Out of scope: OF 1.1+, VLAN handling in the datapath, queues/QoS
//! (`ENQUEUE` is encoded but our switch treats it as plain output),
//! `QUEUE_GET_CONFIG`, vendor extensions beyond an opaque passthrough,
//! and the emergency flow cache.

#![forbid(unsafe_code)]

pub mod actions;
pub mod codec;
pub mod flow_match;
pub mod header;
pub mod messages;
pub mod ports;
pub mod stats;

pub use actions::Action;
pub use codec::{reframe_with_xid, MessageReader};
pub use flow_match::{KeyDepth, OfMatch, PacketKey, Wildcards, OFP_VLAN_NONE};
pub use header::{MsgType, OfHeader, OFP_HEADER_LEN, OFP_VERSION};
pub use messages::{
    ErrorCode, ErrorType, FlowModCommand, FlowRemovedReason, OfMessage, PacketInReason,
    PacketOutView, PortStatusReason, SwitchFeatures,
};
pub use ports::{
    PhyPort, PortNumber, OFPP_ALL, OFPP_CONTROLLER, OFPP_FLOOD, OFPP_IN_PORT, OFPP_LOCAL, OFPP_MAX,
    OFPP_NONE, OFPP_NORMAL, OFPP_TABLE,
};
pub use stats::{
    AggregateStats, FlowStatsEntry, FlowStatsRequest, PortStats, StatsBody, SwitchDesc, TableStats,
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
}

impl fmt::Display for OfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OfError::Truncated => write!(f, "truncated OpenFlow message"),
            OfError::BadVersion(v) => write!(f, "unsupported OpenFlow version 0x{v:02x}"),
            OfError::UnknownType(t) => write!(f, "unknown OpenFlow message type {t}"),
            OfError::Malformed(what) => write!(f, "malformed OpenFlow message: {what}"),
        }
    }
}

impl std::error::Error for OfError {}
