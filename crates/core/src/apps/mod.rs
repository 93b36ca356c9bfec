//! The RF-controller: the paper's four fixed stages behind one event
//! bus.
//!
//! The [`ControlPlane`] agent owns the wire I/O, turns it into bus
//! events and routes each event to the stages that act on it:
//!
//! | stage | acts on | does |
//! |-------|---------|------|
//! | discovery bridge | `Rpc`, `VmSpawned` | refines raw topology-controller RPC into typed switch/link events; owns link records |
//! | VM lifecycle | `SwitchUp/Down`, `Link`, `VmUp` | provisions one VM per switch (serially), mirrors links in the virtual interconnect, writes Quagga configs |
//! | FIB mirror | `Fib`, `SwitchDown`, `Timer` | turns VM FIB changes into FLOW_MODs with LPM priority encoding |
//! | ARP proxy | `PacketIn`, `SwitchDown`, `Timer` | answers gateway ARPs, learns hosts, installs /32 delivery flows |
//!
//! Everything the stages send toward a switch passes through a
//! bounded, credit-metered channel per dpid: a capacity knob, stall
//! windows ([`ChannelStallWindow`]) and deferral accounting — a full
//! channel hands the tail back to its producer, which retries it, so a
//! slow switch exerts backpressure instead of absorbing unbounded
//! state, and nothing is lost.

mod arp_proxy;
mod bus;
mod channel;
mod discovery_bridge;
mod engine;
mod fib_mirror;
mod lifecycle;

pub(crate) use arp_proxy::ARP_RETRY_TOKEN;
pub use bus::{ControlState, LinkRec, SwitchRec};
pub use channel::ChannelStallWindow;
pub(crate) use channel::CHANNEL_DRAIN_TOKEN;
pub use engine::ControlPlane;
pub(crate) use fib_mirror::FIB_FLUSH_TOKEN;
