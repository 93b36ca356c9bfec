//! # rf-flowvisor — an OpenFlow 1.0 network slicer
//!
//! In the paper's framework, "FlowVisor acts as a proxy server between
//! a switch and controllers (the topology controller and the
//! RF-controller)". Both controllers must share the same data plane:
//! the topology controller owns the LLDP flowspace (it injects and
//! harvests discovery probes), while the RF-controller owns everything
//! else (IPv4, ARP — the traffic RouteFlow routes).
//!
//! [`FlowVisor`] implements the proxy:
//!
//! * **Switch side** — accepts switch connections, performs its own
//!   OF 1.0 handshake, caches `FEATURES_REPLY` (the datapath id and the
//!   port count, all the loop reads of it);
//! * **Controller side** — dials every slice controller once per
//!   datapath (exactly like the real FlowVisor, so each controller
//!   sees one OpenFlow connection per switch) and answers their
//!   `FEATURES_REQUEST`s from the cache;
//! * **Transaction-id virtualization** — controller-chosen xids are
//!   rewritten to globally unique ones on the way down and restored on
//!   the way up, so replies reach the requesting slice;
//! * **Flowspace enforcement** — `PACKET_IN`s are routed to the slice
//!   whose flowspace matches the packet; a `FLOW_MOD` whose match lies
//!   inside the slice's flowspace is forwarded as it came, but for its
//!   xid, and any other is refused with an `EPERM` error (none is
//!   narrowed: the loop sends none that would need it); a `PACKET_OUT`
//!   whose payload the slice does not own, or that is too short to
//!   classify, is refused with `EPERM` likewise;
//! * a switch's `ERROR` goes back to the slice whose request it
//!   answers;
//! * a slice's `FLOW_MOD` or `PACKET_OUT` naming an action other than
//!   `OUTPUT`, `SET_DL_SRC` and `SET_DL_DST`, and a `FLOW_MOD` that
//!   MODIFYs, deletes loosely or matches on anything but an EtherType
//!   and an IPv4 destination prefix, does not decode, and is refused to
//!   that slice as a switch would refuse it (`BAD_ACTION` / `BAD_TYPE`,
//!   `FLOW_MOD_FAILED` / `BAD_COMMAND` or `UNSUPPORTED`, under the
//!   slice's xid), as is one naming an `OUTPUT` to neither a physical
//!   port nor the controller (`BAD_ACTION` / `BAD_OUT_PORT`); any other
//!   message that does not decode (`ECHO`, `VENDOR`, `GET_CONFIG`,
//!   `SET_CONFIG`, `BARRIER`, `FLOW_REMOVED` and `PORT_STATUS` among
//!   them) is dropped, from either side: FlowVisor answers no
//!   keepalive.
//!
//! The two messages of every LLDP probe are only passed on, so neither
//! is decoded: a switch's `PACKET_IN` is routed from a
//! [`PacketInView`](rf_openflow::PacketInView) and forwarded in the
//! buffer it arrived in, and a slice's `PACKET_OUT` is checked through a
//! [`PacketOutView`](rf_openflow::PacketOutView) and forwarded with its
//! xid written where it lies.
//!
//! Simplifications vs. the real FlowVisor: no rate limiting, no
//! virtual port remapping, no slice admin API — the demo framework
//! uses none of these.

#![forbid(unsafe_code)]

pub mod proxy;
pub mod slice;

pub use proxy::FlowVisor;
pub use slice::SlicePolicy;
