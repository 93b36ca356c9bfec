//! The RF-controller: the paper's four fixed stages, called in a fixed
//! order.
//!
//! The [`ControlPlane`] agent owns the wire I/O, decodes it and calls
//! the stage each message is for. A stage returns what it refined, and
//! the engine calls the next one:
//!
//! | stage | called on | does |
//! |-------|-----------|------|
//! | discovery bridge | an RPC request; after a VM spawn | refines raw topology-controller RPC into switch-up/-down and link changes; owns link records; releases links held for a VM |
//! | VM lifecycle | switch up/down, link change, VM up | provisions one VM per switch (serially), mirrors links in the virtual interconnect, writes Quagga configs |
//! | FIB mirror | route add/del, switch down, its flush tick | turns VM FIB changes into FLOW_MODs with LPM priority encoding |
//! | ARP proxy | PACKET_IN, switch down | answers gateway ARPs, learns hosts, installs /32 delivery flows |
//!
//! A switch-down reaches the lifecycle, then the FIB mirror, then the
//! switch's channel (which drops what waits beyond its window), then
//! the ARP proxy. When a lifecycle call spawns a VM, the bridge then
//! releases the links that waited for it and the lifecycle mirrors
//! each, in release order.
//!
//! Everything the stages send toward a switch passes through one
//! bounded, credit-metered FIFO per dpid: a capacity knob, stall
//! windows ([`ChannelStallWindow`]) and deferral accounting. A FLOW_MOD
//! beyond the admitted window waits in the FIFO for the drain tick, in
//! offer order across the stages, and a PACKET_OUT there is shed, so a
//! slow switch exerts backpressure and no flow is lost.

mod arp_proxy;
mod channel;
mod discovery_bridge;
mod engine;
mod fib_mirror;
mod lifecycle;
mod state;

pub use channel::ChannelStallWindow;
pub(crate) use channel::CHANNEL_DRAIN_TOKEN;
pub use engine::ControlPlane;
pub(crate) use fib_mirror::FIB_FLUSH_TOKEN;
pub use state::{ControlState, LinkRec, SwitchRec};
