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
//!   [`rf_openflow::PacketKey`] (its Ethernet header, and an IPv4
//!   frame's IPv4 header) and looks it up in a priority-ordered
//!   [`flow_table::FlowTable`] of EtherType and IPv4-prefix entries —
//!   or, for a repeated frame of an IPv4 flow, finds the answer in the
//!   table's exact-match cache;
//! * punts table misses to the controller as `PACKET_IN`, the frame
//!   cut to `miss_send_len` and buffered nowhere (`OFP_NO_BUFFER`;
//!   FEATURES_REPLY advertises `n_buffers` 0);
//! * executes `FLOW_MOD` ADD and DELETE_STRICT and `PACKET_OUT`,
//!   answers `ECHO_REQUEST` (it sends no keepalive of its own) and
//!   announces port changes as `PORT_STATUS`. A flow lives until it is
//!   deleted by its match and priority: a `FLOW_MOD` with a timeout, a
//!   flag or an `out_port` other than `OFPP_NONE` is refused with
//!   `FLOW_MOD_FAILED` / `UNSUPPORTED`, as is one matching on anything
//!   but an EtherType and an IPv4 destination prefix; a MODIFY,
//!   MODIFY_STRICT or loose DELETE with `FLOW_MOD_FAILED` /
//!   `BAD_COMMAND`; one naming a buffer (as a `PACKET_OUT` naming one)
//!   with `BAD_REQUEST` / `BUFFER_UNKNOWN`; and a `FLOW_MOD` or
//!   `PACKET_OUT` naming an action other than `OUTPUT`, `SET_DL_SRC`
//!   and `SET_DL_DST` with `BAD_ACTION` / `BAD_TYPE` — each under the
//!   request's xid, installing and sending nothing. A message it
//!   cannot decode (a `STATS_REQUEST`, `GET_CONFIG_REQUEST` or
//!   `BARRIER_REQUEST` among them) counts as `switch.decode_error` and
//!   is not answered;
//! * applies those three actions to a frame's bytes ([`datapath`]):
//!   a MAC rewrite patches the Ethernet header and nothing behind it.

#![forbid(unsafe_code)]

pub mod datapath;
pub mod flow_table;
pub mod switch;

pub use datapath::{apply_actions, apply_actions_owned, Egress};
pub use flow_table::{FlowEntry, FlowTable};
pub use switch::{OpenFlowSwitch, SwitchConfig};
