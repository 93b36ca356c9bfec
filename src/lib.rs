//! # routeflow-autoconf
//!
//! A full reproduction of **"Automatic Configuration of Routing Control
//! Platforms in OpenFlow Networks"** (Sharma, Staessens, Colle,
//! Pickavet, Demeester — SIGCOMM 2013 demo) as a Rust workspace, built
//! on a deterministic discrete-event network simulator.
//!
//! This facade crate re-exports the public API of every member crate;
//! see `README.md` for the architecture tour. The API has two layers:
//!
//! * **Controller side** — [`core::apps`]: the
//!   [`ControlPlane`](core::apps::ControlPlane) is the paper's
//!   RF-controller, four fixed stages behind one event bus (discovery
//!   bridge, VM lifecycle, FIB mirror, ARP proxy).
//! * **Experiment side** — the fluent
//!   [`ScenarioBuilder`](core::scenario::ScenarioBuilder): topology in,
//!   hosts/workloads/faults composed on top, typed metrics out.
//!
//! ## The ninety-second tour
//!
//! ```
//! use routeflow_autoconf::prelude::*;
//!
//! // The Fig. 2 stack on a 4-switch ring with a ping workload across
//! // it, OSPF timers sped up so the doctest stays fast.
//! let mut sc = Scenario::on(ring(4))
//!     .fast_timers()
//!     .with_workload(Workload::ping(0, 2))
//!     .start();
//!
//! // Run: discovery finds switches and links, the RPC path creates
//! // VMs, writes Quagga configs, OSPF converges, flows appear.
//! let done = sc.run_until_configured(Time::from_secs(120)).unwrap();
//! assert!(done < Time::from_secs(60));
//!
//! let metrics = sc.finish();
//! assert_eq!(metrics.configured_switches, 4);
//! assert!(metrics.flows_installed > 0);
//!
//! // Programmatic configuration: build the parameter struct directly
//! // and hand it to the builder.
//! let mut cfg = ScenarioConfig::new(ring(4));
//! cfg.ospf_hello = 1;
//! cfg.ospf_dead = 4;
//! let mut sc = ScenarioBuilder::from_config(cfg).start();
//! sc.run_until(Time::from_secs(1));
//! assert_eq!(sc.configured_switches(), 0); // nothing green this early
//! ```
//!
//! Parameter sweeps that share a convergence prefix can snapshot the
//! converged world once and fork divergent continuations from it —
//! see [`Scenario::snapshot`](core::scenario::Scenario::snapshot) and
//! the README's "Checkpoint + fork" section.

#![forbid(unsafe_code)]

pub use rf_core as core;
pub use rf_flowvisor as flowvisor;
pub use rf_openflow as openflow;
pub use rf_routed as routed;
pub use rf_rpc as rpc;
pub use rf_sim as sim;
pub use rf_switch as switch;
pub use rf_topo as topo;
pub use rf_wire as wire;

/// The names most programs need.
pub mod prelude {
    pub use rf_core::apps::{ControlPlane, ControlState};
    pub use rf_core::chaos::{
        check_invariants, ChaosCampaign, ChaosSpec, FaultClass, InvariantContext,
        InvariantViolation, ReproCase,
    };
    pub use rf_core::gui::NetworkView;
    pub use rf_core::host::{EchoHost, HostConfig, Pinger, VideoClient, VideoServer};
    pub use rf_core::manual::ManualConfigModel;
    pub use rf_core::scenario::{
        Fault, FaultError, FaultSchedule, ForkError, HostAttachment, HostSlot, Scenario,
        ScenarioBuilder, ScenarioConfig, ScenarioMetrics, Snapshot, SnapshotError, Workload,
        WorkloadReport,
    };
    pub use rf_core::traffic::{
        ArrivalProcess, FlowSize, TrafficConfig, TrafficMode, TrafficPattern, TrafficReport,
        TrafficShape, TrafficSpec, WorkloadError,
    };
    pub use rf_sim::{LinkProfile, Sim, SimConfig, Time};
    pub use rf_topo::{
        fat_tree, leaf_spine, line, pan_european, ring, TopoParseError, TopoSpec, Topology,
    };
    pub use rf_wire::{Ipv4Cidr, MacAddr};
}
