//! # rf-routed — the routing control platform (Quagga substitute)
//!
//! RouteFlow's whole premise is running an *unmodified* routing suite —
//! Quagga: `zebra` + `ospfd` — inside each VM and harvesting
//! its FIB. This crate reimplements the pieces the paper exercises:
//!
//! * [`rib`] — the `zebra` role: a routing information base with
//!   administrative distances, longest-prefix-match lookup and change
//!   notifications (the feed RouteFlow translates into flow entries);
//! * [`ospf`] — a full OSPFv2 (RFC 2328) point-to-point implementation:
//!   hello protocol, the neighbor state machine through
//!   ExStart/Exchange/Loading/Full with master/slave DBD negotiation,
//!   LSDB with sequence-number comparison and MaxAge aging, reliable
//!   flooding with retransmission, and Dijkstra SPF with configurable
//!   delay/hold timers — everything **sans-IO** (smoltcp style): the
//!   daemon consumes packets and clock ticks, and returns packets to
//!   send plus route updates;
//! * [`config`] — Quagga-style configuration files, because those files
//!   are precisely the artifact the paper automates (§1 item 4): the
//!   RPC server *writes* `zebra.conf` / `ospfd.conf` text and sends both
//!   to the VM, which *parses* them back to configure its interfaces and
//!   its OSPF daemon.
//!
//! Out of scope: OSPF areas other than 0, broadcast-network DR
//! election (the virtual interconnect is all point-to-point /30s),
//! NBMA, authentication, virtual links; BGP (there is no BGP speaker,
//! so no `bgpd.conf` is written).

#![forbid(unsafe_code)]

pub mod config;
pub mod ospf;
pub mod rib;

pub use config::{OspfConfig, VmRouterConfig, ZebraConfig};
pub use ospf::daemon::{OspfDaemon, OspfEvent};
pub use rib::{Rib, RibChange, Route, RouteProto};
