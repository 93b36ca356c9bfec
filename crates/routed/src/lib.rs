//! # rf-routed — the routing control platform (Quagga substitute)
//!
//! RouteFlow's whole premise is running an *unmodified* routing suite —
//! Quagga: `zebra` + `ospfd` (+ `bgpd`) — inside each VM and harvesting
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
//!   RPC server *writes* `zebra.conf` / `ospfd.conf` / `bgpd.conf` text
//!   and sends all three to the VM, which *parses* `zebra.conf` and
//!   `ospfd.conf` back to configure its interfaces and its OSPF daemon.
//!   `bgpd.conf` is rendered and sent, and nothing reads it.
//!
//! Out of scope: OSPF areas other than 0, broadcast-network DR
//! election (the virtual interconnect is all point-to-point /30s),
//! NBMA, authentication, virtual links; BGP itself (there is no BGP
//! speaker, only the `bgpd.conf` text).

#![forbid(unsafe_code)]

pub mod config;
pub mod ospf;
pub mod rib;

pub use config::{BgpConfig, OspfConfig, VmRouterConfig, ZebraConfig};
pub use ospf::daemon::{OspfDaemon, OspfEvent};
pub use rib::{Rib, RibChange, Route, RouteProto};
