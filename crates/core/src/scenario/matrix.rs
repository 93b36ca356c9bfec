//! `ScenarioMatrix` — a parallel sweep driver over scenario grids.
//!
//! The simulator is single-threaded, but scenarios are independent:
//! each (seed × topology × fault-schedule × knob) cell builds its own
//! [`Sim`](rf_sim::Sim) and runs to completion inside one worker thread. The
//! [`Agent`](rf_sim::Agent) trait is `Send`, so the whole build path
//! crosses the spawn boundary without ceremony.
//!
//! Determinism contract: a grid produces the *same report bytes* at
//! any worker count. Cells are keyed and sorted, each cell's sim is
//! seeded from the cell alone, and nothing wall-clock ever enters the
//! report.
//!
//! ```no_run
//! use rf_core::scenario::{MatrixSpec, ScenarioMatrix};
//!
//! let spec = MatrixSpec {
//!     seeds: vec![1],
//!     topologies: vec!["ring-4".into()],
//!     ..MatrixSpec::smoke()
//! };
//! let report = ScenarioMatrix::new(spec).run(2);
//! // seeds × topologies × schedules × knobs
//! assert_eq!(report.cells.len(), 1 * 1 * 4 * 4);
//! ```

use super::exec::{self, Finished};
use super::report::{CellRecord, MatrixReport};
use super::{Fault, Scenario, ScenarioBuilder, Workload, WorkloadReport};
use crate::traffic::{FlowSize, TrafficSpec, WorkloadError};
use rf_sim::Time;
use rf_topo::TopoSpec;
use std::collections::BTreeMap;
use std::time::Duration;

/// A named fault schedule — one axis value of the grid.
#[derive(Clone, Debug)]
pub struct FaultSchedule {
    /// Stable name, used in cell keys (`fault=<name>`).
    pub name: String,
    pub faults: Vec<Fault>,
}

impl FaultSchedule {
    /// The empty schedule (`fault=none`).
    pub fn none() -> FaultSchedule {
        FaultSchedule {
            name: "none".into(),
            faults: Vec::new(),
        }
    }

    pub fn new(name: impl Into<String>, faults: Vec<Fault>) -> FaultSchedule {
        FaultSchedule {
            name: name.into(),
            faults,
        }
    }

    /// Kill the switch at `node` at time `at`.
    pub fn kill_switch(node: usize, at: Duration) -> FaultSchedule {
        FaultSchedule {
            name: format!("kill{node}@{}", fmt_at(at)),
            faults: vec![Fault::KillSwitch { node, at }],
        }
    }

    /// Kill the switch at `node` at `kill_at`, then boot a pristine
    /// replacement into its slot at `revive_at` — the full
    /// fail-and-heal cycle (the revived switch reconnects, a fresh VM
    /// is provisioned, OSPF re-forms, the FIB re-mirrors).
    pub fn kill_revive(node: usize, kill_at: Duration, revive_at: Duration) -> FaultSchedule {
        assert!(kill_at < revive_at, "revive must follow the kill");
        FaultSchedule {
            name: format!("kill{node}@{}+rev@{}", fmt_at(kill_at), fmt_at(revive_at)),
            faults: vec![
                Fault::KillSwitch { node, at: kill_at },
                Fault::ReviveSwitch {
                    node,
                    at: revive_at,
                },
            ],
        }
    }

    /// Flap topology link `edge`: down/up `cycles` times starting at
    /// `first_down`, each phase lasting `half_period`. The soak ends
    /// with the link up, so the network is expected to fully heal.
    pub fn link_flap(
        edge: usize,
        first_down: Duration,
        half_period: Duration,
        cycles: u32,
    ) -> FaultSchedule {
        assert!(cycles >= 1);
        let mut faults = Vec::new();
        for k in 0..cycles {
            let down = first_down + 2 * k * half_period;
            faults.push(Fault::LinkDown { edge, at: down });
            faults.push(Fault::LinkUp {
                edge,
                at: down + half_period,
            });
        }
        // The half period is part of the name: two flap schedules
        // differing only in cadence must produce distinct cell keys,
        // or the report aggregation rejects the grid as duplicate.
        FaultSchedule {
            name: format!(
                "flap{edge}x{cycles}@{}+{}",
                fmt_at(first_down),
                fmt_at(half_period)
            ),
            faults,
        }
    }

    /// Stall the controller's channel to `dpid` over `from..until` —
    /// the control-plane fault the bounded channel layer exists for.
    pub fn channel_stall(dpid: u64, from: Duration, until: Duration) -> FaultSchedule {
        FaultSchedule {
            name: format!("stall{dpid}@{}-{}", fmt_at(from), fmt_at(until)),
            faults: vec![Fault::ChannelStall { dpid, from, until }],
        }
    }

    /// Sustained-loss soak: topology link `edge` drops `rate` percent
    /// of frames for the `span` window, then heals. Both the loss
    /// onset and the restore are scheduled faults, so recovery is
    /// measured from the heal.
    pub fn link_loss(edge: usize, rate: f64, span: std::ops::Range<Duration>) -> FaultSchedule {
        assert!(span.start < span.end, "loss window must be non-empty");
        FaultSchedule {
            name: format!(
                "loss{edge}x{rate}@{}-{}",
                fmt_at(span.start),
                fmt_at(span.end)
            ),
            faults: vec![
                Fault::LinkLoss {
                    edge,
                    loss_pct: rate,
                    at: span.start,
                },
                Fault::LinkLoss {
                    edge,
                    loss_pct: 0.0,
                    at: span.end,
                },
            ],
        }
    }

    /// When the last scheduled disturbance ends, if any. Recovery is
    /// measured from this instant: after it, no further disturbance is
    /// coming, so the next successful probe marks the healed network.
    /// (A stall window "fires" when it closes.)
    pub fn last_fault_at(&self) -> Option<Duration> {
        self.faults
            .iter()
            .map(|f| match f {
                Fault::KillSwitch { at, .. }
                | Fault::ReviveSwitch { at, .. }
                | Fault::LinkDown { at, .. }
                | Fault::LinkUp { at, .. }
                | Fault::LinkLoss { at, .. } => *at,
                Fault::ChannelStall { until, .. } => *until,
            })
            .max()
    }
}

fn fmt_at(d: Duration) -> String {
    if d.subsec_nanos() == 0 {
        format!("{}s", d.as_secs())
    } else {
        format!("{}ms", d.as_millis())
    }
}

/// The probe workload a knob attaches to each cell.
#[derive(Clone, Debug, PartialEq)]
pub enum MatrixWorkload {
    /// One pinger across the topology's farthest switch pair (the
    /// historical default).
    FarthestPing,
    /// `clients` pingers converging on the farthest switch — fan-in
    /// control-plane load (ARP answers and /32 flows all from one edge
    /// switch).
    PingFanIn { clients: usize },
    /// A stochastic traffic workload, placed on the concrete topology
    /// at cell build time (see [`TrafficSpec::instantiate`]).
    Traffic(TrafficSpec),
}

/// A named bundle of scenario parameters — the `knob` axis.
#[derive(Clone, Debug)]
pub struct MatrixKnob {
    /// Stable name, used in cell keys (`knob=<name>`).
    pub name: String,
    pub probe_interval: Duration,
    pub vm_boot_delay: Duration,
    pub ospf_hello: u16,
    pub ospf_dead: u16,
    pub use_flowvisor: bool,
    /// VM provisioning pipeline width (1 = paper-serial).
    pub provision_width: usize,
    /// FIB-mirror FLOW_MOD batch size per switch (1 = unbatched).
    pub fib_batch: usize,
    /// Switch-channel send-queue bound (`None` = unbounded).
    pub channel_capacity: Option<usize>,
    /// The probe workload built into each cell.
    pub workload: MatrixWorkload,
}

impl MatrixKnob {
    /// The fast-timer settings every quick test uses (1 s hello / 4 s
    /// dead / 500 ms probes).
    pub fn fast(name: impl Into<String>) -> MatrixKnob {
        MatrixKnob {
            name: name.into(),
            probe_interval: Duration::from_millis(500),
            vm_boot_delay: Duration::from_secs(1),
            ospf_hello: 1,
            ospf_dead: 4,
            use_flowvisor: true,
            provision_width: 1,
            fib_batch: 1,
            channel_capacity: None,
            workload: MatrixWorkload::FarthestPing,
        }
    }

    /// The paper's defaults (Quagga 10 s / 40 s timers, 1 s probes).
    pub fn paper(name: impl Into<String>) -> MatrixKnob {
        MatrixKnob {
            name: name.into(),
            probe_interval: Duration::from_secs(1),
            vm_boot_delay: Duration::from_secs(1),
            ospf_hello: 10,
            ospf_dead: 40,
            use_flowvisor: true,
            provision_width: 1,
            fib_batch: 1,
            channel_capacity: None,
            workload: MatrixWorkload::FarthestPing,
        }
    }

    pub fn with_probe_interval(mut self, d: Duration) -> Self {
        self.probe_interval = d;
        self
    }

    pub fn with_vm_boot_delay(mut self, d: Duration) -> Self {
        self.vm_boot_delay = d;
        self
    }

    pub fn with_ospf_timers(mut self, hello: u16, dead: u16) -> Self {
        self.ospf_hello = hello;
        self.ospf_dead = dead;
        self
    }

    pub fn without_flowvisor(mut self) -> Self {
        self.use_flowvisor = false;
        self
    }

    /// VM provisioning pipeline width (the Fig. 3 fast path).
    pub fn with_provision_width(mut self, k: usize) -> Self {
        self.provision_width = k.max(1);
        self
    }

    /// FIB-mirror FLOW_MOD batch size per switch.
    pub fn with_fib_batch(mut self, n: usize) -> Self {
        self.fib_batch = n.max(1);
        self
    }

    /// Bound each switch channel's send queue (and per-interval send
    /// credits) to `n` messages.
    pub fn with_channel_capacity(mut self, n: usize) -> Self {
        self.channel_capacity = Some(n);
        self
    }

    /// Replace the probe workload with an `n`-client fan-in. A count no
    /// cell can place (0, or more than the topology's other nodes)
    /// fails that cell at build time with a typed `WorkloadError`.
    pub fn with_fan_in(mut self, clients: usize) -> Self {
        self.workload = MatrixWorkload::PingFanIn { clients };
        self
    }

    /// Replace the probe workload with a stochastic traffic workload.
    pub fn with_traffic(mut self, spec: TrafficSpec) -> Self {
        self.workload = MatrixWorkload::Traffic(spec);
        self
    }

    /// Apply this knob to a builder.
    pub fn apply(&self, b: ScenarioBuilder) -> ScenarioBuilder {
        let mut b = b
            .probe_interval(self.probe_interval)
            .vm_boot_delay(self.vm_boot_delay)
            .ospf_timers(self.ospf_hello, self.ospf_dead)
            .provision_width(self.provision_width)
            .fib_batch(self.fib_batch);
        if let Some(cap) = self.channel_capacity {
            b = b.channel_capacity(cap);
        }
        if self.use_flowvisor {
            b
        } else {
            b.without_flowvisor()
        }
    }
}

/// One grid point, handed to the builder closure.
#[derive(Clone, Debug)]
pub struct MatrixCell {
    pub seed: u64,
    /// Topology name. Kept as the spelled-out string (not a parsed
    /// [`TopoSpec`]) because it is part of the cell key and because a
    /// *malformed* name must still form a cell — one that reports
    /// `build_error = 1` — rather than be rejected at grid-assembly
    /// time. `TopoSpec`'s `Display` emits exactly these names, so
    /// typed construction via [`MatrixCell::new`] is lossless.
    pub topology: String,
    pub schedule: FaultSchedule,
    pub knob: MatrixKnob,
}

impl MatrixCell {
    /// Typed construction: any `impl Into<TopoSpec>` names the
    /// topology; the key string comes from the spec's `Display`, which
    /// round-trips through `FromStr`, so keys stay byte-stable.
    pub fn new(
        seed: u64,
        topology: impl Into<TopoSpec>,
        schedule: FaultSchedule,
        knob: MatrixKnob,
    ) -> MatrixCell {
        MatrixCell {
            seed,
            topology: topology.into().to_string(),
            schedule,
            knob,
        }
    }

    /// The cell's topology as a typed spec, if the name parses.
    pub fn topo_spec(&self) -> Result<TopoSpec, rf_topo::TopoParseError> {
        self.topology.parse()
    }

    /// The stable report key. Axis order is fixed; sorting keys groups
    /// cells by topology first, which is how humans read the report.
    pub fn key(&self) -> String {
        format!(
            "topo={}/fault={}/knob={}/seed={}",
            self.topology, self.schedule.name, self.knob.name, self.seed
        )
    }
}

/// The grid definition plus the per-cell run policy.
#[derive(Clone, Debug)]
pub struct MatrixSpec {
    pub seeds: Vec<u64>,
    pub topologies: Vec<String>,
    pub schedules: Vec<FaultSchedule>,
    pub knobs: Vec<MatrixKnob>,
    /// Give up on a cell's configuration phase after this much
    /// simulated time (the cell still reports, without config metrics).
    pub configure_deadline: Duration,
    /// After configuration, keep the world running this long past the
    /// last scheduled fault so recovery can be observed.
    pub post_fault_window: Duration,
    /// Fault-free settle time after configuration (lets the probe
    /// workload log a few round trips).
    pub settle: Duration,
}

impl MatrixSpec {
    /// The CI smoke grid: two seeds × two small rings × four fault
    /// schedules (none, transit-switch kill, link flap, cold-start
    /// channel stall) × six knobs (paper-serial fast timers, the
    /// k-wide + batched fast path, a bounded capacity-2 channel with
    /// deferral, a 3-client fan-in, a packet-level Poisson
    /// request/response load, and a flow-level incast). Seconds of
    /// wall clock, but every fault path, both controller pipelines,
    /// the backpressure machinery and both traffic granularities are
    /// exercised.
    pub fn smoke() -> MatrixSpec {
        MatrixSpec {
            seeds: vec![1, 2],
            topologies: vec!["ring-4".into(), "ring-5".into()],
            schedules: vec![
                FaultSchedule::none(),
                // Node 1 is transit between the standard probe pair on
                // small rings; both rings route around its death.
                FaultSchedule::kill_switch(1, Duration::from_secs(30)),
                FaultSchedule::link_flap(0, Duration::from_secs(30), Duration::from_secs(8), 2),
                // Stall a transit switch's control channel across the
                // cold-start burst: FLOW_MODs queue, then converge.
                FaultSchedule::channel_stall(2, Duration::from_secs(2), Duration::from_secs(30)),
            ],
            knobs: vec![
                MatrixKnob::fast("fast"),
                MatrixKnob::fast("fast-k4b8")
                    .with_provision_width(4)
                    .with_fib_batch(8),
                MatrixKnob::fast("fast-cap2").with_channel_capacity(2),
                MatrixKnob::fast("fast-fanin3").with_fan_in(3),
                // Stochastic load rides the same grid: a packet-level
                // Poisson request/response mix and a flow-level incast,
                // both offering inside the post-config window.
                MatrixKnob::fast("fast-poisson").with_traffic(
                    TrafficSpec::poisson(2, 4.0, FlowSize::fixed(40_000))
                        .window(Duration::from_secs(25), Duration::from_secs(15)),
                ),
                MatrixKnob::fast("fast-incast3f").with_traffic(
                    TrafficSpec::incast(3, FlowSize::fixed(60_000), Duration::from_secs(2), 5)
                        .flow_level()
                        .window(Duration::from_secs(25), Duration::from_secs(15)),
                ),
            ],
            configure_deadline: Duration::from_secs(120),
            post_fault_window: Duration::from_secs(45),
            settle: Duration::from_secs(10),
        }
    }

    /// The full trend-tracking grid: more seeds, bigger rings, the
    /// pan-European reference network, the two largest corpus WANs,
    /// the 320-switch fat-tree, and a paper-timer knob. The sweep
    /// starts the giant cells first so they overlap the many small
    /// ones ([`ScenarioMatrix::run_instrumented`]).
    pub fn full() -> MatrixSpec {
        MatrixSpec {
            seeds: vec![1, 2, 3, 4, 5],
            topologies: vec![
                "ring-4".into(),
                "ring-8".into(),
                "ring-16".into(),
                "grid-4x4".into(),
                "pan-european".into(),
                "geant".into(),
                "att-na".into(),
                "fat-tree-k16".into(),
            ],
            schedules: vec![
                FaultSchedule::none(),
                FaultSchedule::kill_switch(1, Duration::from_secs(120)),
                FaultSchedule::link_flap(0, Duration::from_secs(120), Duration::from_secs(15), 3),
                FaultSchedule::channel_stall(2, Duration::from_secs(5), Duration::from_secs(120)),
            ],
            knobs: vec![
                MatrixKnob::fast("fast"),
                MatrixKnob::fast("fast-k8b16")
                    .with_provision_width(8)
                    .with_fib_batch(16),
                MatrixKnob::fast("fast-cap8").with_channel_capacity(8),
                MatrixKnob::paper("paper"),
                // The stochastic block: heavy-tailed request/response,
                // a wide packet-level incast and a flow-level multicast
                // fan-out, all offering after even pan-european has
                // configured on the k-wide pipeline.
                MatrixKnob::fast("fast-rrP")
                    .with_provision_width(8)
                    .with_traffic(
                        TrafficSpec::poisson(4, 5.0, FlowSize::pareto(2_000, 200_000))
                            .window(Duration::from_secs(120), Duration::from_secs(30)),
                    ),
                MatrixKnob::fast("fast-incast6")
                    .with_provision_width(8)
                    .with_traffic(
                        TrafficSpec::incast(6, FlowSize::fixed(80_000), Duration::from_secs(3), 8)
                            .window(Duration::from_secs(120), Duration::from_secs(30)),
                    ),
                MatrixKnob::fast("fast-mcast6f")
                    .with_provision_width(8)
                    .with_traffic(
                        TrafficSpec::multicast(6, 2_000_000)
                            .flow_level()
                            .window(Duration::from_secs(120), Duration::from_secs(30)),
                    ),
            ],
            configure_deadline: Duration::from_secs(1800),
            post_fault_window: Duration::from_secs(120),
            settle: Duration::from_secs(15),
        }
    }

    /// Replace the topology axis with typed specs. `Display` spells
    /// each spec exactly as its topology name, so cell keys are
    /// byte-identical to spelling the strings out by hand.
    pub fn with_topologies<I, T>(mut self, topologies: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<TopoSpec>,
    {
        self.topologies = topologies
            .into_iter()
            .map(|t| t.into().to_string())
            .collect();
        self
    }

    /// The corpus breadth grid: every checked-in WAN shape plus the
    /// classic parametric families at both ends of the scale — rings,
    /// a grid, pan-european, fat-trees (k=4 and the 80-switch k=8),
    /// leaf-spines, and seeded random graphs. Fault-free with a single
    /// wide-pipeline knob: this grid measures *configuration across
    /// shapes* (per-topology medians in the trend table), not fault
    /// recovery, which the smoke/full grids already soak.
    pub fn corpus() -> MatrixSpec {
        let mut topologies: Vec<String> = rf_topo::corpus::names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        topologies.extend(
            [
                "ring-16",
                "grid-8x8",
                "pan-european",
                "fat-tree-k4",
                "fat-tree-k8",
                "leaf-spine-4x8x0",
                "leaf-spine-8x16x0",
                "er-32-s7",
                "waxman-32-s7",
            ]
            .map(String::from),
        );
        MatrixSpec {
            seeds: vec![1, 2],
            topologies,
            schedules: vec![FaultSchedule::none()],
            knobs: vec![MatrixKnob::fast("fast-k8b16")
                .with_provision_width(8)
                .with_fib_batch(16)],
            configure_deadline: Duration::from_secs(900),
            post_fault_window: Duration::from_secs(45),
            settle: Duration::from_secs(10),
        }
    }

    /// A CI-sized slice of [`MatrixSpec::corpus`]: a handful of WAN
    /// files spanning the corpus alphabet plus one of each datacenter
    /// family, one seed each — eight cells, seconds of wall clock,
    /// exercising the corpus loader and both parametric generators
    /// end-to-end under `--check`.
    pub fn corpus_smoke() -> MatrixSpec {
        MatrixSpec {
            seeds: vec![1],
            topologies: [
                "abilene",
                "geant",
                "nsfnet",
                "sprint",
                "uninett",
                "fat-tree-k4",
                "leaf-spine-2x4x1",
                "er-16-s3",
            ]
            .map(String::from)
            .to_vec(),
            schedules: vec![FaultSchedule::none()],
            knobs: vec![MatrixKnob::fast("fast-k8b16")
                .with_provision_width(8)
                .with_fib_batch(16)],
            configure_deadline: Duration::from_secs(300),
            post_fault_window: Duration::from_secs(45),
            settle: Duration::from_secs(10),
        }
    }

    /// Expand the axes into cells, topology-major. The order is
    /// deterministic but irrelevant to the report, which sorts by key.
    pub fn cells(&self) -> Vec<MatrixCell> {
        let mut out = Vec::new();
        for topology in &self.topologies {
            for schedule in &self.schedules {
                for knob in &self.knobs {
                    for &seed in &self.seeds {
                        out.push(MatrixCell {
                            seed,
                            topology: topology.clone(),
                            schedule: schedule.clone(),
                            knob: knob.clone(),
                        });
                    }
                }
            }
        }
        out
    }

    /// The grid axes as they appear in the report header.
    pub fn grid_axes(&self) -> BTreeMap<String, Vec<String>> {
        [
            (
                "seeds".to_string(),
                self.seeds.iter().map(u64::to_string).collect(),
            ),
            ("topologies".to_string(), self.topologies.clone()),
            (
                "schedules".to_string(),
                self.schedules.iter().map(|s| s.name.clone()).collect(),
            ),
            (
                "knobs".to_string(),
                self.knobs.iter().map(|k| k.name.clone()).collect(),
            ),
        ]
        .into_iter()
        .collect()
    }
}

/// Wall-clock observations for one cell of an instrumented sweep.
/// Never part of the [`MatrixReport`] — wall time is machine noise,
/// and the report is a determinism artifact.
#[derive(Clone, Debug)]
pub struct CellStat {
    /// The cell's report key.
    pub key: String,
    /// Wall-clock time to build, run and harvest the cell.
    pub wall: Duration,
    /// Kernel events dispatched by the cell's simulation
    /// (deterministic — same cell, same count, any machine). This is
    /// the logical, cold-equivalent count: a forked cell inherits its
    /// capture's counter, so it includes the shared prefix the cell
    /// never simulated itself ([`SweepStats::dispatched`] is the work
    /// actually done).
    pub events: u64,
}

/// Aggregate wall-clock observations from an instrumented sweep.
#[derive(Clone, Debug)]
pub struct SweepStats {
    /// End-to-end wall time of the sweep (all workers).
    pub wall: Duration,
    /// Per-cell observations, sorted by cell key.
    pub cells: Vec<CellStat>,
    /// How many cells ran as forks of a shared prefix snapshot (always
    /// zero for a cold sweep; in a forked one, the rest of the cells
    /// fell back to a cold start). A fork's [`CellStat::events`] still
    /// counts its whole run from time zero.
    pub forked: usize,
    /// Kernel events the sweep actually simulated: each shared prefix
    /// once, up to its last capture (what an abandoned prefix ran past
    /// it goes uncounted), each forked cell from its fork point on,
    /// each cold cell whole. Equal to
    /// [`SweepStats::total_events`] for a cold sweep; a forked one
    /// saves the difference.
    pub dispatched: u64,
}

impl SweepStats {
    /// Total events across all cells, each counted as if it had run
    /// cold (the sum of [`CellStat::events`]) — the logical work the
    /// sweep stands for, whatever it actually simulated.
    pub fn total_events(&self) -> u64 {
        self.cells.iter().map(|c| c.events).sum()
    }
}

/// The sweep driver. Construct with a [`MatrixSpec`], then [`run`]
/// (standard builder, cold) or one of the instrumented entry points
/// (custom builder closure, per-cell wall-clock observations):
/// [`run_instrumented`] cold-starts every cell,
/// [`run_instrumented_forked`] shares fault-free prefixes.
///
/// [`run`]: ScenarioMatrix::run
/// [`run_instrumented`]: ScenarioMatrix::run_instrumented
/// [`run_instrumented_forked`]: ScenarioMatrix::run_instrumented_forked
pub struct ScenarioMatrix {
    spec: MatrixSpec,
}

/// Deterministic relative cost estimate for longest-expected-first
/// scheduling: cells whose simulations run longest (big topologies,
/// slow timers, late faults with long post-fault windows) should
/// start first, so the sweep's tail is never one straggler cell that
/// happened to be picked last. Only the *ordering* depends on this —
/// the report is identical for any schedule.
pub(super) fn expected_cost(spec: &MatrixSpec, cell: &MatrixCell) -> u64 {
    // The estimate never builds the topology: `node_count_estimate`
    // and `edge_count_estimate` are closed-form (or a corpus line
    // count), which matters when the corpus grid schedules a hundred
    // cells.
    let (nodes, edges) = cell
        .topo_spec()
        .map(|s| {
            (
                s.node_count_estimate() as u64,
                s.edge_count_estimate() as u64,
            )
        })
        .unwrap_or((8, 8));
    // Event volume per simulated second tracks the graph *size*, not
    // just its order: every link floods hellos and carries probe
    // frames each interval, every switch ticks its own timers. The
    // distinction matters once dense fabrics share a grid with sparse
    // WANs — fat-tree-k16 has 320 switches but 2048 links, and its
    // wall time scales with the latter.
    let size = nodes + 2 * edges;
    // Configuration phase: serial provisioning scales with n/k, and
    // slow OSPF timers stretch convergence.
    let config_est = cell.knob.vm_boot_delay.as_secs()
        + u64::from(cell.knob.ospf_hello) * 4
        + nodes / cell.knob.provision_width.max(1) as u64;
    // Post-configuration horizon (see finish_cell's run_to). Traffic
    // knobs extend the run to the end of their offered-load window —
    // and packet-level cells are far denser per simulated second than
    // flow-level ones, which the mode weight reflects, scaled by how
    // many endpoints offer load at once.
    let mut run_window = spec.settle.as_secs()
        + cell
            .schedule
            .last_fault_at()
            .map(|l| l.as_secs() + spec.post_fault_window.as_secs())
            .unwrap_or(0);
    if let MatrixWorkload::Traffic(ref tspec) = cell.knob.workload {
        let weight = match tspec.mode {
            crate::traffic::TrafficMode::Packet => 4,
            crate::traffic::TrafficMode::Flow => 1,
        };
        let endpoints = match tspec.shape {
            crate::traffic::TrafficShape::RequestResponse { clients, .. } => clients + 1,
            crate::traffic::TrafficShape::Incast { senders, .. } => senders + 1,
            crate::traffic::TrafficShape::Multicast { receivers, .. } => receivers + 1,
            crate::traffic::TrafficShape::CbrMix { ref rates_bps } => 2 * rates_bps.len(),
        } as u64;
        run_window = run_window.max(tspec.stop_at().as_secs() + 2)
            + weight * tspec.duration.as_secs() * endpoints.div_ceil(4);
    }
    size * (config_est + run_window)
}

impl ScenarioMatrix {
    pub fn new(spec: MatrixSpec) -> ScenarioMatrix {
        ScenarioMatrix { spec }
    }

    pub fn spec(&self) -> &MatrixSpec {
        &self.spec
    }

    /// The scheduler's cost estimate for one cell (arbitrary units;
    /// only the ordering matters). Public so the calibration test in
    /// `tests/matrix_sweeps.rs` can see the same ranking the sweep
    /// schedules by.
    pub fn expected_cell_cost(&self, cell: &MatrixCell) -> u64 {
        expected_cost(&self.spec, cell)
    }

    /// The default per-cell assembly: parse the topology name into a
    /// [`TopoSpec`] and build it, attach the knob's probe workload (a
    /// ping across the farthest switch pair, a fan-in converging on
    /// it, or a traffic spec placed on the topology), apply the knob
    /// and the fault schedule.
    ///
    /// A malformed or unknown topology name returns
    /// [`WorkloadError::BadTopology`] naming the offending token, and
    /// the sweep records it as a `build_error` cell — same as any
    /// workload-constructor rejection — so one bad axis value cannot
    /// take down the rest of the sweep.
    pub fn standard_builder(cell: &MatrixCell) -> Result<ScenarioBuilder, WorkloadError> {
        let topo = cell.topo_spec()?.build();
        // A malformed schedule (out-of-range node/edge, loss outside
        // [0,100], empty stall window) marks this one cell
        // `build_error=1`; it must not panic the worker mid-sweep.
        Fault::validate_schedule(&cell.schedule.faults, topo.node_count(), topo.edge_count())
            .map_err(WorkloadError::BadFault)?;
        let (a, b) = topo
            .farthest_pair()
            .expect("topology has at least two nodes");
        let workload = match cell.knob.workload {
            MatrixWorkload::FarthestPing => Workload::ping(a, b),
            MatrixWorkload::PingFanIn { clients } => {
                // The first `clients` nodes that are not the server,
                // deterministically.
                let picked: Vec<usize> = (0..topo.node_count())
                    .filter(|&n| n != b)
                    .take(clients)
                    .collect();
                if picked.len() < clients {
                    return Err(WorkloadError::TopologyTooSmall {
                        need: clients + 1,
                        have: topo.node_count(),
                    });
                }
                Workload::ping_fan_in(picked, b)?
            }
            MatrixWorkload::Traffic(ref spec) => Workload::traffic(spec.instantiate(&topo)?)?,
        };
        Ok(cell
            .knob
            .apply(Scenario::on(topo))
            .seed(cell.seed)
            .trace_level(rf_sim::TraceLevel::Off)
            .with_workload(workload)
            .with_faults(cell.schedule.faults.iter().cloned()))
    }

    /// Sweep the grid with the standard builder, every cell from a cold
    /// start.
    pub fn run(&self, threads: usize) -> MatrixReport {
        self.run_instrumented(threads, Self::standard_builder).0
    }

    /// Sweep the grid, building each cell's scenario with `build`, and
    /// return the report plus wall-clock/event-count observations per
    /// cell (what `rfbench` times). Every cell is its own scheduling
    /// unit and cold-starts; units are distributed over `threads`
    /// workers, costliest first, and the report is identical whatever
    /// the count. A cell whose builder returns an error reports
    /// `build_error = 1` and nothing else.
    pub fn run_instrumented<F>(&self, threads: usize, build: F) -> (MatrixReport, SweepStats)
    where
        F: Fn(&MatrixCell) -> Result<ScenarioBuilder, WorkloadError> + Send + Sync,
    {
        self.sweep(threads, build, |cells| {
            (0..cells.len()).map(|i| vec![i]).collect()
        })
    }

    /// Like [`run_instrumented`], but cells that differ only in fault
    /// schedule share their expensive prefix: the scheduling unit is
    /// the (topology × knob × seed) group, which builds one fault-free
    /// scenario, runs it to configuration and [`Scenario::snapshot`]s
    /// it at a quiesce point. Members are served in the order their
    /// faults first take effect; before each, the capture moves
    /// forward to a quiesce point just before that member's first
    /// fault, and the member [`Scenario::fork`]s from it, injecting
    /// its fault schedule post-fork — so the fault-free prefix is
    /// simulated once, not once per member. Members whose faults fire
    /// at or before the capture (the smoke grid's early channel
    /// stalls, say) fall back to a cold start — as does the rest of
    /// the group if its prefix never converges or never quiesces — so
    /// the mode is a pure optimisation, never a semantics change.
    /// [`SweepStats::dispatched`] says how much of the logical work
    /// was actually simulated.
    ///
    /// Determinism contract: the report is **byte-identical** to
    /// [`run_instrumented`]'s, at any thread count. The builder closure
    /// must derive all fault wiring from `cell.schedule.faults` alone
    /// (as [`standard_builder`] does), because the prefix is built
    /// from a schedule-less copy of the cell.
    ///
    /// [`run_instrumented`]: ScenarioMatrix::run_instrumented
    /// [`standard_builder`]: ScenarioMatrix::standard_builder
    pub fn run_instrumented_forked<F>(&self, threads: usize, build: F) -> (MatrixReport, SweepStats)
    where
        F: Fn(&MatrixCell) -> Result<ScenarioBuilder, WorkloadError> + Send + Sync,
    {
        self.sweep(threads, build, |cells| {
            // The fault schedule is the divergent axis. BTreeMap keeps
            // group assembly deterministic; members keep declaration
            // order.
            let mut by_prefix: BTreeMap<String, Vec<usize>> = BTreeMap::new();
            for (i, c) in cells.iter().enumerate() {
                by_prefix
                    .entry(format!("{}|{}|{}", c.topology, c.knob.name, c.seed))
                    .or_default()
                    .push(i);
            }
            by_prefix.into_values().collect()
        })
    }

    /// Hand the grid, cut into `units`, to the executor and assemble
    /// the report.
    fn sweep<F>(
        &self,
        threads: usize,
        build: F,
        units: fn(&[MatrixCell]) -> Vec<Vec<usize>>,
    ) -> (MatrixReport, SweepStats)
    where
        F: Fn(&MatrixCell) -> Result<ScenarioBuilder, WorkloadError> + Send + Sync,
    {
        let cells = self.spec.cells();
        let no_hook = |_, _: &mut CellRecord, _: &Scenario| ();
        let swept = exec::sweep(&self.spec, &cells, units(&cells), threads, &build, &no_hook);
        let forked = swept.done.iter().filter(|d| d.forked).count();
        let (records, mut stats): (Vec<CellRecord>, Vec<CellStat>) =
            swept.done.into_iter().map(|d| (d.rec, d.stat)).unzip();
        stats.sort_by(|a, b| a.key.cmp(&b.key));
        (
            MatrixReport::new(self.spec.grid_axes(), records),
            SweepStats {
                wall: swept.wall,
                cells: stats,
                forked,
                dispatched: swept.dispatched,
            },
        )
    }
}

/// The post-configuration half of a cell run: settle, play out faults
/// and workloads, harvest. Shared verbatim by the executor's cold and
/// fork paths; `config_now` is the instant the configuration phase
/// handed the scenario over. A forked scenario's clock may be anywhere
/// before the cell's first fault (its capture was moved up to just
/// before it), which the horizon arithmetic must not see; a fault-free
/// cell's fork is never past the end of its settle window. All times
/// are reported in nanoseconds of simulated time.
pub(super) fn finish_cell(
    spec: &MatrixSpec,
    cell: &MatrixCell,
    mut sc: Scenario,
    configured_at: Option<Time>,
    config_now: Time,
) -> Finished {
    // Keep the world running long enough to see the probe workload and
    // every scheduled fault play out, whichever ends later — and, for
    // traffic knobs, the whole offered-load window plus a drain tail.
    let settle_until = config_now + spec.settle;
    let mut run_to = match cell.schedule.last_fault_at() {
        Some(last) => settle_until.max(Time::ZERO + last + spec.post_fault_window),
        None => settle_until,
    };
    if let MatrixWorkload::Traffic(ref tspec) = cell.knob.workload {
        run_to = run_to.max(Time::ZERO + tspec.stop_at() + Duration::from_secs(2));
    }
    sc.run_until(run_to);

    let m = sc.finish();
    let mut metrics: BTreeMap<String, i64> = BTreeMap::new();
    let mut put = |name: &str, v: i64| {
        metrics.insert(name.to_string(), v);
    };
    put("switches", m.expected_switches as i64);
    put("configured_switches_final", m.configured_switches as i64);
    if let Some(t) = configured_at {
        put("all_configured_ns", t.as_nanos() as i64);
    }
    let mut greens: Vec<i64> = m
        .per_switch_config_time
        .iter()
        .filter_map(|(_, t)| t.map(|t| t.as_nanos() as i64))
        .collect();
    greens.sort_unstable();
    if !greens.is_empty() {
        put("green_first_ns", greens[0]);
        put("green_median_ns", greens[(greens.len() - 1) / 2]);
        put("green_last_ns", greens[greens.len() - 1]);
    }
    put("flows_installed", m.flows_installed as i64);
    put("flows_removed", m.flows_removed as i64);
    put("dataplane_flows", m.dataplane_flows as i64);
    put("arp_replies", m.arp_replies as i64);
    // Controller transport cost — the pan-European cold-start byte
    // count the batching stage is judged on.
    put("of_msgs_sent", m.of_msgs_sent as i64);
    put("of_bytes_sent", m.of_bytes_sent as i64);
    put("of_pushes", m.of_pushes as i64);
    put("fib_batches", m.fib_batches as i64);
    // Backpressure accounting (schema v3): deferral pacing and the
    // deepest channel queue the run provoked. A channel only defers, so
    // `of_dropped` is 0 in every cell; the column stays so reports keep
    // their schema.
    put("of_deferred", m.of_deferred as i64);
    put("of_dropped", 0);
    put("of_queue_hwm", m.of_queue_hwm as i64);

    // Workloads: ping probes yield reply counts, first contact, and —
    // when a fault schedule ran — recovery time from the last fault to
    // the next successful round trip; video streams yield the paper's
    // §3 timeline. Only the first workload of each kind reports.
    let mut seen_ping = false;
    let mut seen_video = false;
    let mut seen_fanin = false;
    let mut seen_traffic = false;
    for report in sc.workload_reports() {
        match report {
            WorkloadReport::Ping(probe) if !seen_ping => {
                seen_ping = true;
                put("ping_replies", probe.replies.len() as i64);
                if let Some(t) = probe.first_reply_at {
                    put("ping_first_reply_ns", t.as_nanos() as i64);
                }
                if let Some(last) = cell.schedule.last_fault_at() {
                    // Recovery counts only probes *sent* after the
                    // last fault: a reply already in flight when the
                    // fault fires would otherwise record a near-zero
                    // recovery that says nothing about reconvergence.
                    let fault_t = Time::ZERO + last;
                    let answered = probe
                        .replies
                        .iter()
                        .filter(|(seq, _)| {
                            probe
                                .sent
                                .iter()
                                .any(|(s, sent_t)| s == seq && *sent_t > fault_t)
                        })
                        .map(|(_, t)| *t)
                        .min();
                    if let Some(t) = answered {
                        put("recovery_ns", (t.as_nanos() - fault_t.as_nanos()) as i64);
                    }
                }
            }
            WorkloadReport::PingFanIn { clients } if !seen_fanin => {
                seen_fanin = true;
                put("fanin_clients", clients.len() as i64);
                put(
                    "fanin_replies",
                    clients.iter().map(|c| c.replies.len() as i64).sum(),
                );
                put(
                    "fanin_clients_served",
                    clients
                        .iter()
                        .filter(|c| c.first_reply_at.is_some())
                        .count() as i64,
                );
                // The fan-in's "everyone is through" instant: the last
                // client's first successful round trip.
                if let Some(worst) = clients
                    .iter()
                    .map(|c| c.first_reply_at)
                    .collect::<Option<Vec<_>>>()
                    .and_then(|ts| ts.into_iter().max())
                {
                    put("fanin_all_served_ns", worst.as_nanos() as i64);
                }
                if let Some(last) = cell.schedule.last_fault_at() {
                    // Worst-client recovery: every client must heal.
                    let fault_t = Time::ZERO + last;
                    let per_client: Vec<Option<Time>> = clients
                        .iter()
                        .map(|c| {
                            c.replies
                                .iter()
                                .filter(|(seq, _)| {
                                    c.sent
                                        .iter()
                                        .any(|(s, sent_t)| s == seq && *sent_t > fault_t)
                                })
                                .map(|(_, t)| *t)
                                .min()
                        })
                        .collect();
                    if let Some(worst) = per_client
                        .into_iter()
                        .collect::<Option<Vec<_>>>()
                        .and_then(|ts| ts.into_iter().max())
                    {
                        put(
                            "fanin_recovery_ns",
                            (worst.as_nanos() - fault_t.as_nanos()) as i64,
                        );
                    }
                }
            }
            WorkloadReport::Video(v) if !seen_video => {
                seen_video = true;
                put("video_packets", v.packets as i64);
                put("video_gaps", v.gaps as i64);
                if let Some(t) = v.first_byte_at {
                    put("video_first_byte_ns", t.as_nanos() as i64);
                }
                if let Some(t) = v.playback_at {
                    put("video_playback_ns", t.as_nanos() as i64);
                }
            }
            // Traffic metrics (schema v4): offered vs delivered load,
            // flow completion times, loss and latency percentiles —
            // integer nanoseconds/bytes only, so reports stay
            // byte-stable.
            WorkloadReport::Traffic(t) if !seen_traffic => {
                seen_traffic = true;
                put("traffic_offered_bytes", t.offered_bytes as i64);
                put("traffic_delivered_bytes", t.delivered_bytes as i64);
                put("traffic_flows_started", t.flows_started as i64);
                put("traffic_flows_completed", t.flows_completed as i64);
                put("traffic_frames_lost", t.frames_lost() as i64);
                if let Some(p) = t.fct_percentile(50) {
                    put("traffic_fct_p50_ns", p.as_nanos() as i64);
                }
                if let Some(p) = t.fct_percentile(95) {
                    put("traffic_fct_p95_ns", p.as_nanos() as i64);
                }
                if let Some(p) = t.latency_percentile(50) {
                    put("traffic_lat_p50_ns", p.as_nanos() as i64);
                }
                if let Some(p) = t.latency_percentile(95) {
                    put("traffic_lat_p95_ns", p.as_nanos() as i64);
                }
            }
            _ => {}
        }
    }

    Finished {
        rec: CellRecord {
            key: cell.key(),
            metrics,
        },
        events: sc.sim.events_dispatched(),
        scenario: Some(sc),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_build_path_is_send() {
        // The whole point of the Send bounds: a builder closure and the
        // scenarios it produces may cross into worker threads.
        fn assert_send<T: Send>() {}
        assert_send::<ScenarioBuilder>();
        assert_send::<Scenario>();
        assert_send::<MatrixCell>();
    }

    #[test]
    fn cell_keys_are_stable_and_unique() {
        let spec = MatrixSpec::smoke();
        let cells = spec.cells();
        assert_eq!(
            cells.len(),
            spec.seeds.len() * spec.topologies.len() * spec.schedules.len() * spec.knobs.len()
        );
        let mut keys: Vec<String> = cells.iter().map(MatrixCell::key).collect();
        let total = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), total, "keys must be unique");
        assert!(keys[0].starts_with("topo="), "{}", keys[0]);
    }

    #[test]
    fn link_flap_schedule_shape() {
        let s = FaultSchedule::link_flap(2, Duration::from_secs(10), Duration::from_secs(5), 2);
        assert_eq!(s.faults.len(), 4);
        assert_eq!(s.last_fault_at(), Some(Duration::from_secs(25)));
        assert_eq!(s.name, "flap2x2@10s+5s");
        // Cadence disambiguates otherwise-identical schedules.
        let other = FaultSchedule::link_flap(2, Duration::from_secs(10), Duration::from_secs(8), 2);
        assert_ne!(s.name, other.name);
        assert!(matches!(
            s.faults[3],
            Fault::LinkUp { edge: 2, at } if at == Duration::from_secs(25)
        ));
    }

    #[test]
    fn standard_builder_rejects_unknown_topology_as_build_error() {
        // An unknown family and a malformed parameterization both come
        // back as typed errors naming the offending token — the cell
        // reports `build_error = 1`, the sweep never panics.
        for (name, token) in [("hypercube-9", "hypercube-9"), ("grid-4x", "")] {
            let cell = MatrixCell {
                seed: 1,
                topology: name.into(),
                schedule: FaultSchedule::none(),
                knob: MatrixKnob::fast("fast"),
            };
            match ScenarioMatrix::standard_builder(&cell) {
                Err(WorkloadError::BadTopology(err)) => {
                    assert_eq!(err.name, name);
                    assert_eq!(err.token, token);
                }
                Err(other) => panic!("expected BadTopology for {name:?}, got {other:?}"),
                Ok(_) => panic!("expected BadTopology for {name:?}, got Ok"),
            }
        }
    }

    #[test]
    fn typed_cells_match_stringly_keys() {
        let typed = MatrixCell::new(
            7,
            TopoSpec::Grid { w: 4, h: 4 },
            FaultSchedule::none(),
            MatrixKnob::fast("fast"),
        );
        let stringly = MatrixCell {
            seed: 7,
            topology: "grid-4x4".into(),
            schedule: FaultSchedule::none(),
            knob: MatrixKnob::fast("fast"),
        };
        assert_eq!(typed.key(), stringly.key());
        let spec = MatrixSpec::smoke().with_topologies([
            TopoSpec::Ring(4),
            TopoSpec::FatTree { k: 4 },
            TopoSpec::Corpus("abilene"),
        ]);
        assert_eq!(
            spec.topologies,
            vec!["ring-4", "fat-tree-k4", "abilene"],
            "Display must spell topology names exactly"
        );
    }

    #[test]
    fn corpus_grid_is_wide_enough() {
        let spec = MatrixSpec::corpus();
        assert!(
            spec.topologies.len() >= 50,
            "corpus grid sweeps {} topologies",
            spec.topologies.len()
        );
        assert!(spec.topologies.iter().any(|t| t == "fat-tree-k8"));
        let mut unique = spec.topologies.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(
            unique.len(),
            spec.topologies.len(),
            "no duplicate topologies"
        );
        for name in &spec.topologies {
            assert!(
                name.parse::<TopoSpec>().is_ok(),
                "corpus grid name {name:?} must parse"
            );
        }
        for name in &MatrixSpec::corpus_smoke().topologies {
            assert!(
                name.parse::<TopoSpec>().is_ok(),
                "corpus smoke name {name:?} must parse"
            );
        }
    }
}
