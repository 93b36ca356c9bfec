//! The topology controller.
//!
//! The second controller in the paper's framework (Fig. 2): it
//! "contains a very small part of configurations from the administrator
//! (e.g. a range of IP addresses for the virtual environment) and runs
//! a topology discovery module to know the network configuration
//! (switches and links information)".
//!
//! The discovery algorithm is the NOX module the paper cites: for every
//! switch port, periodically emit an LLDP probe via `PACKET_OUT`; when
//! the probe re-enters the network at a neighbouring switch it is
//! punted back via `PACKET_IN` (a punt rule is installed at handshake
//! time), and the pair *(probe's origin dpid/port, receiving
//! dpid/port)* identifies a unidirectional link. Links age out when
//! probes stop arriving.
//!
//! A returning probe is most of what the controller handles, so it is
//! read where it lies: the `PACKET_IN` through
//! [`PacketInView`](rf_openflow::PacketInView), then the punted frame's
//! Ethernet header and LLDPDU in place, and a direction already seen
//! only has its time refreshed ([`LinkDb::observe`]). Every other
//! message is decoded in full.
//!
//! On **switch join** the controller emits `SwitchDetected {dpid,
//! num_ports}` toward the RPC client; on **link detection** it carves a
//! /30 out of the administrator's range ([`alloc::Ipv4Allocator`]),
//! assigns the two interface addresses deterministically (lower
//! endpoint gets `.1`-equivalent) and emits `LinkDetected`; leaves and
//! link losses emit the corresponding teardown messages and return the
//! subnet to the pool.

pub mod alloc;
pub mod controller;
pub mod linkdb;

pub use alloc::Ipv4Allocator;
pub(crate) use controller::DEFAULT_PROBE_INTERVAL;
pub use controller::{TopologyController, TopologyControllerConfig};
pub use linkdb::{DirectedLink, LinkDb, UndirectedLink};

/// OpenFlow service the topology controller listens on (FlowVisor's
/// LLDP slice, or every switch directly, dials it).
pub const TOPOLOGY_OF_SERVICE: u16 = 6641;
