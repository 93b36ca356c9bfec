//! # rf-vnet — the virtual environment
//!
//! RouteFlow "executes switches' control logic through virtual machines
//! which mirror a physical topology. Each virtual machine runs a
//! routing control platform (e.g. Quagga) and is dynamically
//! interconnected with other VMs" (paper §1).
//!
//! A [`VmAgent`] is one such machine, spawned into the running
//! simulation by the RPC server when a `SwitchDetected` message arrives
//! (with a configurable boot delay standing in for LXC creation). It
//!
//! * dials back to the RF-controller and speaks the RouteFlow
//!   client/server protocol ([`rfproto`]) — the stand-in for
//!   RouteFlow's RFClient↔RFServer channel;
//! * receives its **configuration files** (`zebra.conf`, `ospfd.conf`,
//!   `bgpd.conf`) over that channel, parses them (`rf-routed`'s config
//!   parsers) and configures interfaces and daemons accordingly —
//!   re-receiving updated files when new links are detected;
//! * runs the OSPF daemon over its virtual NICs (OSPF packets are real
//!   IPv4-proto-89-in-Ethernet frames on the virtual interconnect);
//! * pushes every FIB change back to the RF-controller as
//!   `RouteAdd`/`RouteDel`, which RouteFlow translates into flow
//!   entries on the mirrored physical switch.

#![forbid(unsafe_code)]

pub mod rfproto;
pub mod vm;

pub use rfproto::{RfFrameReader, RfMessage, RF_SERVICE};
pub use vm::VmAgent;
