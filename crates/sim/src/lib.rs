//! # rf-sim — deterministic discrete-event network simulation kernel
//!
//! This crate is the substrate for the whole RouteFlow-autoconfiguration
//! reproduction. The paper ran its framework on the OFELIA testbed (real
//! machines, Open vSwitch processes in network namespaces, Ethernet
//! cables); we substitute a **deterministic discrete-event simulator** so
//! every experiment is exactly reproducible from a `(topology, seed,
//! config)` triple.
//!
//! ## Model
//!
//! * **Agents** ([`Agent`]) are the active entities: OpenFlow switches,
//!   controllers, FlowVisor, virtual machines, hosts. Agents only react
//!   to events; between events they hold no locks and spin no threads.
//! * **Links** ([`link::LinkProfile`]) are lossy packet pipes carrying
//!   Ethernet frames between `(agent, port)` endpoints, with latency,
//!   bandwidth serialization and an independent per-frame drop chance.
//! * **Streams** ([`ConnId`]) are reliable, in-order byte channels that
//!   model TCP control connections (switch ↔ FlowVisor ↔ controllers,
//!   RPC client ↔ RPC server). Bytes go in, the same bytes come out
//!   after a latency; framing is the application's job, exactly as with
//!   a real socket.
//! * **Time** ([`time::Time`]) is a `u64` nanosecond counter. The event
//!   queue breaks ties by insertion sequence, which — together with a
//!   single seeded RNG — makes runs bit-for-bit deterministic.
//!
//! ## Quickstart
//!
//! ```
//! use rf_sim::{Sim, Agent, Ctx, SimConfig};
//! use std::time::Duration;
//!
//! #[derive(Clone)]
//! struct Echo;
//! impl Agent for Echo {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.schedule(Duration::from_secs(1), 7);
//!     }
//!     fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
//!         assert_eq!(token, 7);
//!         ctx.count("echo.fired", 1);
//!     }
//! }
//!
//! let mut sim = Sim::new(SimConfig::default());
//! sim.add_agent("echo", Box::new(Echo));
//! sim.run();
//! assert_eq!(sim.now().as_secs_f64(), 1.0);
//! assert_eq!(sim.tracer().counter("echo.fired"), 1);
//! ```

#![forbid(unsafe_code)]

pub mod kernel;
pub mod link;
pub mod queue;
pub mod time;
pub mod trace;

pub use kernel::{
    Agent, AgentId, CloneAgent, ConnId, ConnProfile, Ctx, LinkId, Sim, SimConfig, StreamEvent,
};
pub use link::LinkProfile;
pub use time::Time;
pub use trace::{KernelCounter, TraceLevel, Tracer};

/// Inert stub. `rfbench/src/adapter.rs` (benchmark-owned, not editable
/// outside a `[benchmark]` PR) compiles against this enum, a setter on
/// `rf_core::Scenario` and the `Scenario` field that carried one. The
/// in-cell parallel kernel they reported on was measured at 0.07× and
/// deleted (README § Multi-core): nothing constructs a value, the
/// setter does nothing, the field is always `None`. All three go with
/// the `sim.partition_*` metrics in the next `[benchmark]` PR.
#[derive(Clone)]
pub enum ParallelOutcome {
    Parallel {
        regions: usize,
        windows: u64,
        cross_events: u64,
    },
    Serial {
        reason: &'static str,
    },
}
