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
//!   OF 1.0 handshake, caches `FEATURES_REPLY`;
//! * **Controller side** — dials every slice controller once per
//!   datapath (exactly like the real FlowVisor, so each controller
//!   sees one OpenFlow connection per switch) and answers their
//!   `FEATURES_REQUEST`s from the cache;
//! * **Transaction-id virtualization** — controller-chosen xids are
//!   rewritten to globally unique ones on the way down and restored on
//!   the way up, so replies reach the requesting slice;
//! * **Flowspace enforcement** — `PACKET_IN`s are routed to the slice
//!   whose flowspace matches the packet; `FLOW_MOD`s outside a slice's
//!   flowspace are rewritten to the intersection when possible and
//!   rejected with an `EPERM` error otherwise; `PACKET_OUT` payloads
//!   are policy-checked the same way;
//! * `PORT_STATUS` fans out to all slices; `FLOW_REMOVED` is routed by
//!   installer slice (tracked by cookie).
//!
//! Simplifications vs. the real FlowVisor: no rate limiting, no
//! virtual port remapping, no slice admin API — the demo framework
//! uses none of these.

#![forbid(unsafe_code)]

pub mod proxy;
pub mod slice;

pub use proxy::{FlowVisor, FlowVisorConfig};
pub use slice::SlicePolicy;
