//! # rf-switch — an OpenFlow 1.0 software switch
//!
//! The paper runs Open vSwitch 1.4.1 inside network namespaces as its
//! data plane. This crate provides the equivalent simulated element: an
//! [`OpenFlowSwitch`] agent that
//!
//! * performs the OF 1.0 handshake (HELLO, FEATURES, configuration)
//!   against whatever controller (or FlowVisor proxy) it is pointed at,
//!   reconnecting with backoff if the control channel drops;
//! * classifies every data-plane frame into an OF 1.0
//!   [`rf_openflow::PacketKey`] and looks it up in a priority-ordered
//!   wildcard [`flow_table::FlowTable`] — or, for a repeated frame of an
//!   IPv4 flow, finds the answer in the table's exact-match cache;
//! * punts table misses to the controller as `PACKET_IN` (buffering
//!   the frame and truncating to `miss_send_len`, like real OVS);
//! * executes `FLOW_MOD` / `PACKET_OUT` / `BARRIER` / `ECHO`, emits
//!   `FLOW_REMOVED` on timeout expiry and `PORT_STATUS` on port
//!   changes, and counts a message it cannot decode (a `STATS_REQUEST`
//!   among them) as `switch.decode_error` without answering it;
//! * rewrites frames per the OF 1.0 action set ([`datapath`]),
//!   recomputing IPv4/UDP checksums on header rewrites.

#![forbid(unsafe_code)]

pub mod datapath;
pub mod flow_table;
pub mod switch;

pub use datapath::{apply_actions, apply_actions_owned, Egress};
pub use flow_table::{FlowEntry, FlowTable, Removed};
pub use switch::{OpenFlowSwitch, SwitchConfig};
