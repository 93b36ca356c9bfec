//! # rf-core — RouteFlow and its automatic-configuration framework
//!
//! The primary contribution of the paper, assembled from the substrate
//! crates and exposed as two composable layers:
//!
//! * **Controller side** — [`apps`]: the RF-controller
//!   ([`apps::ControlPlane`]) is the paper's four fixed stages, called
//!   in a fixed order. On `SwitchDetected` the lifecycle stage spawns a VM
//!   whose ID equals the switch's datapath id; on `LinkDetected` it
//!   builds the virtual interconnect mirroring the physical link and
//!   (re)writes the Quagga configuration files; the FIB mirror turns
//!   every FIB change a VM reports into a `FLOW_MOD` with prefix length
//!   encoded in flow priority so OF 1.0's single table performs
//!   longest-prefix matching; and the ARP proxy answers hosts' gateway
//!   ARPs and installs per-host /32 delivery flows.
//! * **Experiment side** — [`scenario`]: the fluent
//!   [`scenario::ScenarioBuilder`] assembles the full Fig. 2 stack
//!   (switches → FlowVisor → topology controller + RF-controller, RPC
//!   client in between) on any [`rf_topo::Topology`], with traffic
//!   workloads (whose endpoints are its hosts) and fault schedules, and
//!   hands back a [`scenario::Scenario`] with typed metrics. A
//!   converged scenario can be checkpointed with
//!   [`scenario::Scenario::snapshot`] and forked into divergent
//!   continuations with [`scenario::Scenario::fork`] — the sweep's
//!   shared-prefix mechanism.
//! * [`manual::total`] — the paper's manual-baseline time
//!   model (5 min VM creation + 2 min interface mapping + 8 min routing
//!   configuration per switch) used in Fig. 3.
//!
//! The framework's other pieces live beside them:
//!
//! * [`discovery`] — the topology controller: LLDP discovery, the link
//!   database and the /30 allocator over the administrator's range;
//! * [`vnet`] — the virtual environment: the VM agents and the
//!   RouteFlow client/server protocol they speak;
//! * [`host`] — the hosts the workloads run on: the sans-IO
//!   [`host::HostStack`], the pinger and the CBR video pair;
//! * [`gui`] — the red/green terminal network view.
//!
//! ## Quickstart
//!
//! ```
//! use rf_core::scenario::Scenario;
//! use rf_sim::Time;
//!
//! let mut sc = Scenario::on(rf_topo::ring(4)).start();
//! sc.run_until(Time::from_secs(60));
//! assert_eq!(sc.finish().configured_switches, 4);
//! ```

#![forbid(unsafe_code)]

pub mod apps;
pub mod chaos;
pub mod discovery;
pub mod gui;
pub mod host;
pub mod json;
pub mod manual;
pub mod rfcontroller;
pub mod scenario;
pub mod traffic;
pub mod vnet;

pub use apps::{ControlPlane, ControlState};
pub use chaos::{
    CampaignStats, ChaosCampaign, ChaosOutcome, ChaosSpec, FaultClass, InvariantViolation,
    ReproCase,
};
pub use rfcontroller::{HostPortConfig, RfControllerConfig};
pub use scenario::{
    CellRecord, Fault, FaultError, FaultSchedule, ForkError, MatrixCell, MatrixKnob, MatrixReport,
    MatrixSpec, Scenario, ScenarioBuilder, ScenarioMatrix, ScenarioMetrics, Snapshot,
    SnapshotError, Workload, WorkloadReport,
};
pub use traffic::{TrafficMode, TrafficReport, TrafficSpec, WorkloadError};
