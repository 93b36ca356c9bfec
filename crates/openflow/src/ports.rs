//! Port numbers: the physical ports and the two reserved ones the loop
//! names.

/// OF 1.0 port numbers are 16-bit.
pub type PortNumber = u16;

/// Maximum number of physical ports.
pub const OFPP_MAX: PortNumber = 0xFF00;
/// Punt to the controller as PACKET_IN.
pub const OFPP_CONTROLLER: PortNumber = 0xFFFD;
/// Wildcard/none: a FLOW_MOD's `out_port` when it filters nothing, a
/// PACKET_OUT's `in_port` when its frame arrived on no port.
pub const OFPP_NONE: PortNumber = 0xFFFF;
