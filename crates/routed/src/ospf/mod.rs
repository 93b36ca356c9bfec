//! OSPFv2 (RFC 2328) for point-to-point networks, sans-IO.
//!
//! The virtual environment interconnects VMs with point-to-point /30
//! links, which is the easy-but-real corner of OSPF: no DR/BDR
//! election, no network LSAs. Everything else is implemented for real —
//! hello protocol with inactivity timers, the full neighbor FSM with
//! master/slave database description exchange, link-state request/
//! update/ack, reliable flooding with retransmission, LSA aging and
//! refresh, and Dijkstra SPF with throttling.

pub mod daemon;
pub mod lsa;
pub mod neighbor;
pub mod packet;
pub mod spf;

pub use daemon::{OspfDaemon, OspfEvent};
pub use lsa::{Lsa, LsaBody, LsaHeader, LsaKey, RouterLink, RouterLinkType, RouterLsa};
pub use neighbor::NeighborState;

/// The AllSPFRouters multicast address (224.0.0.5), destination of all
/// OSPF packets on point-to-point links.
pub const ALL_SPF_ROUTERS: std::net::Ipv4Addr = std::net::Ipv4Addr::new(224, 0, 0, 5);

/// LSA MaxAge (seconds).
pub const MAX_AGE: u16 = 3600;
/// LSA refresh interval (seconds).
pub const LS_REFRESH_TIME: u64 = 1800;
