//! The experiment-side API: a fluent [`ScenarioBuilder`] that assembles
//! the paper's Fig. 2 stack on any topology, with workloads and fault
//! schedules, and a [`Scenario`] handle exposing typed metrics.
//!
//! This module is the single build path. A converged scenario can be
//! captured with
//! [`Scenario::snapshot`] and resumed any number of times with
//! [`Scenario::fork`] — the checkpoint/fork mechanism the matrix sweep
//! uses to run each (topology × knob × seed) fault-free prefix once.
//!
//! ```
//! use rf_core::scenario::{Scenario, Workload};
//! use rf_sim::Time;
//!
//! // The ring-4 auto-configuration, end to end: discovery finds the
//! // switches, VMs boot, OSPF converges, flows appear — and a ping
//! // workload crosses the fabric.
//! let mut sc = Scenario::on(rf_topo::ring(4))
//!     .fast_timers()
//!     .with_workload(Workload::ping(vec![0], 2).unwrap())
//!     .start();
//! let done = sc.run_until_configured(Time::from_secs(120)).unwrap();
//! assert!(done < Time::from_secs(60), "configured in {done}");
//!
//! let m = sc.finish();
//! assert_eq!(m.configured_switches, 4);
//! assert_eq!(m.per_switch_config_time.len(), 4);
//! ```

mod exec;
pub mod matrix;
pub mod report;

pub(crate) use exec::{caught, run_cold, sweep, Prefix};

pub use matrix::{
    CellStat, FaultSchedule, MatrixCell, MatrixKnob, MatrixSpec, MatrixWorkload, ScenarioMatrix,
    SweepStats,
};
pub use report::{CellRecord, MatrixReport, MetricSummary};

use crate::apps::{ChannelStallWindow, ControlPlane, CHANNEL_DRAIN_TOKEN, FIB_FLUSH_TOKEN};
use crate::discovery::{
    TopologyController, TopologyControllerConfig, DEFAULT_PROBE_INTERVAL, TOPOLOGY_OF_SERVICE,
};
use crate::host::video::{VideoClient, VideoClientReport, VideoServer};
use crate::host::{EchoHost, HostConfig, PingProbeReport, Pinger};
use crate::rfcontroller::{HostPortConfig, RfControllerConfig, RF_CONTROLLER_OF_SERVICE};
use crate::traffic::packet::TrafficHost;
use crate::traffic::{
    paced_interval, ArrivalStream, FlowLevelEngine, TrafficMode, TrafficReport, TrafficShape,
    TrafficSpec, WaveStream, WorkloadError,
};
use rf_flowvisor::{FlowVisor, SlicePolicy};
use rf_rpc::RpcClientAgent;
use rf_sim::{Agent, AgentId, Ctx, LinkId, LinkProfile, Sim, SimConfig, Time};
use rf_switch::{OpenFlowSwitch, SwitchConfig};
use rf_topo::Topology;
use rf_wire::{Ipv4Cidr, MacAddr};
use std::net::Ipv4Addr;
use std::time::Duration;

/// A scheduled disturbance, injected while the scenario runs.
#[derive(Clone, Debug)]
pub enum Fault {
    /// Kill the switch at topology node `node` (its OF sessions drop,
    /// discovery ages the links out, OSPF routes around it).
    KillSwitch { node: usize, at: Duration },
    /// Boot a pristine replacement switch into node `node`'s slot (the
    /// inverse of [`Fault::KillSwitch`] — kill is no longer terminal).
    /// The revived switch keeps its dpid and port wiring, reconnects
    /// to the controller, gets a fresh mirroring VM provisioned, and
    /// OSPF re-forms its adjacencies. Reviving a live switch is a
    /// forced reboot.
    ReviveSwitch { node: usize, at: Duration },
    /// Administratively take the `edge`-th topology link down.
    LinkDown { edge: usize, at: Duration },
    /// Bring the `edge`-th topology link back up.
    LinkUp { edge: usize, at: Duration },
    /// Set the `edge`-th topology link's per-frame drop probability to
    /// `loss_pct` percent at `at` (0 restores a clean link) — the
    /// sustained-loss soak primitive.
    LinkLoss {
        edge: usize,
        loss_pct: f64,
        at: Duration,
    },
    /// Stall the controller's OpenFlow channel to `dpid` between
    /// `from` and `until`: nothing the control plane sends that switch
    /// reaches the wire inside the window. Queues fill, a bounded
    /// channel defers, and the drain tick releases the backlog when
    /// the window closes. (Armed in the controller, not the chaos
    /// agent — the stall is a control-plane condition, not a
    /// data-plane one.)
    ChannelStall {
        dpid: u64,
        from: Duration,
        until: Duration,
    },
}

/// Why a [`Fault`] cannot be applied to a given topology — the typed
/// result of [`Fault::validate`]. The matrix/chaos build paths check
/// every schedule up front and record a `build_error=1` cell instead
/// of panicking mid-sweep.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultError {
    /// `node` is not a valid topology node index.
    NodeOutOfRange { node: usize, nodes: usize },
    /// `edge` is not a valid topology edge index.
    EdgeOutOfRange { edge: usize, edges: usize },
    /// `loss_pct` is outside [0, 100].
    LossOutOfRange { loss_pct: f64 },
    /// A [`Fault::ChannelStall`] with `until <= from`.
    EmptyStallWindow { from: Duration, until: Duration },
    /// A [`Fault::ChannelStall`] naming a dpid no switch carries
    /// (dpids are `1..=nodes`).
    StallDpidOutOfRange { dpid: u64, nodes: usize },
}

// The `loss_pct` carried by `LossOutOfRange` is never NaN (a NaN loss
// is itself out of range and compares unequal to everything, which is
// the right answer for a malformed fault), so equality is total.
impl Eq for FaultError {}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultError::NodeOutOfRange { node, nodes } => {
                write!(f, "fault references node {node}, topology has {nodes}")
            }
            FaultError::EdgeOutOfRange { edge, edges } => {
                write!(f, "fault references edge {edge}, topology has {edges}")
            }
            FaultError::LossOutOfRange { loss_pct } => {
                write!(f, "link loss {loss_pct}% is outside [0, 100]")
            }
            FaultError::EmptyStallWindow { from, until } => {
                write!(f, "stall window [{from:?}, {until:?}) is empty")
            }
            FaultError::StallDpidOutOfRange { dpid, nodes } => {
                write!(f, "stall names dpid {dpid}, topology has dpids 1..={nodes}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

impl Fault {
    /// Check this fault against a topology of `nodes` nodes and
    /// `edges` edges. Everything the chaos agent would otherwise panic
    /// on (or silently misbehave under) is rejected here, typed.
    pub fn validate(&self, nodes: usize, edges: usize) -> Result<(), FaultError> {
        let check_node = |node: usize| {
            if node >= nodes {
                Err(FaultError::NodeOutOfRange { node, nodes })
            } else {
                Ok(())
            }
        };
        let check_edge = |edge: usize| {
            if edge >= edges {
                Err(FaultError::EdgeOutOfRange { edge, edges })
            } else {
                Ok(())
            }
        };
        match *self {
            Fault::KillSwitch { node, .. } | Fault::ReviveSwitch { node, .. } => check_node(node),
            Fault::LinkDown { edge, .. } | Fault::LinkUp { edge, .. } => check_edge(edge),
            Fault::LinkLoss { edge, loss_pct, .. } => {
                check_edge(edge)?;
                if !(0.0..=100.0).contains(&loss_pct) {
                    return Err(FaultError::LossOutOfRange { loss_pct });
                }
                Ok(())
            }
            Fault::ChannelStall { dpid, from, until } => {
                if until <= from {
                    return Err(FaultError::EmptyStallWindow { from, until });
                }
                if dpid == 0 || dpid > nodes as u64 {
                    return Err(FaultError::StallDpidOutOfRange { dpid, nodes });
                }
                Ok(())
            }
        }
    }

    /// When this fault first disturbs the world: its instant, or the
    /// opening of a stall window. A fork can only receive faults whose
    /// first effect lies strictly after the capture.
    pub fn first_effect(&self) -> Duration {
        match *self {
            Fault::KillSwitch { at, .. }
            | Fault::ReviveSwitch { at, .. }
            | Fault::LinkDown { at, .. }
            | Fault::LinkUp { at, .. }
            | Fault::LinkLoss { at, .. } => at,
            Fault::ChannelStall { from, .. } => from,
        }
    }

    /// When this fault last disturbs the world: its instant, or the
    /// closing of a stall window.
    pub fn last_effect(&self) -> Duration {
        match *self {
            Fault::ChannelStall { until, .. } => until,
            _ => self.first_effect(),
        }
    }

    /// Validate a whole schedule; the first offending fault's error.
    pub fn validate_schedule(
        faults: &[Fault],
        nodes: usize,
        edges: usize,
    ) -> Result<(), FaultError> {
        faults.iter().try_for_each(|f| f.validate(nodes, edges))
    }
}

/// A traffic workload attached to the scenario's edge. Its endpoints
/// are the scenario's hosts.
#[derive(Clone, Debug)]
pub enum Workload {
    /// ICMP echo probing from a host on each of `clients` to one echo
    /// host on `server`, one ping per second per client. A lone ping is
    /// a fan-in of one; a wider fan-in turns a stalled or bounded
    /// control channel into visible backpressure (every client needs
    /// ARP answers and /32 flows from the same edge switch).
    Ping { clients: Vec<usize>, server: usize },
    /// The paper's §3 demo: a CBR UDP video stream from a host on
    /// `server` to a host on `client`.
    Video { server: usize, client: usize },
    /// A stochastic traffic workload (see [`crate::traffic`]): seeded
    /// arrival processes, incast/multicast patterns, at packet or flow
    /// granularity. `nodes` host its endpoints, in host-slot order.
    Traffic {
        spec: TrafficSpec,
        nodes: Vec<usize>,
    },
}

/// Widest fan-in the `[2, 0xE1.., k, 0, 0, 1]` MAC scheme can address.
const MAX_FAN_IN: usize = 30;

impl Workload {
    /// Pingers on `clients`, all probing an echo host on `server`.
    /// Fails typed (instead of panicking) so a bad matrix axis marks
    /// one cell, not the whole sweep.
    pub fn ping(clients: Vec<usize>, server: usize) -> Result<Workload, WorkloadError> {
        if clients.is_empty() {
            return Err(WorkloadError::NoEndpoints("ping needs clients"));
        }
        if clients.len() > MAX_FAN_IN {
            return Err(WorkloadError::TooManyEndpoints {
                given: clients.len(),
                max: MAX_FAN_IN,
            });
        }
        Ok(Workload::Ping { clients, server })
    }

    pub fn video(server: usize, client: usize) -> Workload {
        Workload::Video { server, client }
    }

    /// `spec` placed on `topo`: the server, incast receiver or
    /// multicast source at one end of the diameter, endpoint counts
    /// capped by the nodes there are. Fails typed on a topology of
    /// fewer than two nodes and on a spec that cannot run (an empty
    /// window, no endpoints, a bad distribution, a zero period or rate).
    ///
    /// ```
    /// use rf_core::scenario::{Scenario, Workload};
    /// use rf_core::traffic::{FlowSize, TrafficSpec};
    /// use std::time::Duration;
    ///
    /// let topo = rf_topo::ring(6);
    /// let spec = TrafficSpec::incast(3, FlowSize::fixed(50_000), Duration::from_secs(1), 4)
    ///     .flow_level();
    /// let incast = Workload::traffic(spec, &topo)?;
    /// // ring-6's diameter is (0, 3): three senders, then the receiver.
    /// assert!(matches!(&incast, Workload::Traffic { nodes, .. } if nodes == &[0, 1, 2, 3]));
    /// let _scenario = Scenario::on(topo).with_workload(incast);
    /// # Ok::<(), rf_core::traffic::WorkloadError>(())
    /// ```
    pub fn traffic(spec: TrafficSpec, topo: &Topology) -> Result<Workload, WorkloadError> {
        let nodes = spec.place(topo)?;
        Ok(Workload::Traffic { spec, nodes })
    }

    /// Topology nodes hosting this workload's endpoints, in host-slot
    /// allocation order.
    fn endpoint_nodes(&self) -> Vec<usize> {
        match self {
            Workload::Ping { clients, server } => {
                let mut v = clients.clone();
                v.push(*server);
                v
            }
            Workload::Video { server, client } => vec![*server, *client],
            Workload::Traffic { nodes, .. } => nodes.clone(),
        }
    }
}

/// What a workload measured, harvested via [`Scenario::workload_reports`].
#[derive(Clone, Debug)]
pub enum WorkloadReport {
    /// Per-client ping timelines, in `clients` declaration order.
    Ping(Vec<PingProbeReport>),
    Video(VideoClientReport),
    /// Aggregated traffic accounting, merged across the workload's
    /// agents (or produced whole by the flow-level engine).
    Traffic(TrafficReport),
}

/// Typed scenario metrics: the numbers the paper's figures are made of.
#[derive(Clone, Debug)]
pub struct ScenarioMetrics {
    /// Switches in the topology.
    pub expected_switches: usize,
    /// Switches whose mirroring VM is up (green in the paper's GUI).
    pub configured_switches: usize,
    /// Per-switch configuration time (dpid → when it turned green).
    pub per_switch_config_time: Vec<(u64, Option<Time>)>,
    /// When the last switch turned green (Fig. 3's y-axis), if all did.
    pub all_configured_at: Option<Time>,
    /// FLOW_MODs pushed by the controller (adds, including host /32s).
    pub flows_installed: u64,
    /// FLOW_MOD deletions pushed by the controller.
    pub flows_removed: u64,
    /// Flow entries currently resident across all switch tables.
    pub dataplane_flows: usize,
    /// Gateway ARPs answered on the VMs' behalf.
    pub arp_replies: u64,
    /// OpenFlow messages the controller wrote toward switches
    /// (FLOW_MODs and PACKET_OUTs; Hello/Echo chores excluded).
    pub of_msgs_sent: u64,
    /// Wire bytes of those messages.
    pub of_bytes_sent: u64,
    /// Transport writes carrying them (multi-message pushes make this
    /// smaller than `of_msgs_sent`).
    pub of_pushes: u64,
    /// Multi-message FLOW_MOD pushes flushed by the FIB batch stage.
    pub fib_batches: u64,
    /// Deferral events: every time a message landed beyond a bounded
    /// channel's admitted window, and again for a FLOW_MOD at every
    /// drain tick that left it there (pacing, not loss, so this scales
    /// with how long the channel stayed full).
    pub of_deferred: u64,
    /// Deepest admitted window of a per-switch channel observed over
    /// the run.
    pub of_queue_hwm: u64,
}

/// Internal fault-scheduler agent: one reserved-lane timer per
/// scheduled fault, armed by [`Scenario::inject_faults`].
#[derive(Clone)]
struct ChaosAgent {
    ops: Vec<(Duration, ChaosOp)>,
}

#[derive(Clone)]
enum ChaosOp {
    Kill(AgentId),
    /// Re-install a pristine switch agent into a killed slot. The
    /// payload is built from the retained [`SwitchConfig`] at schedule
    /// time, so the revived switch boots exactly like the original.
    Revive(AgentId, Box<dyn Agent>),
    SetLink(LinkId, bool),
    SetLinkLoss(LinkId, f64),
}

impl Agent for ChaosAgent {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match &self.ops[token as usize].1 {
            ChaosOp::Kill(agent) => ctx.kill(*agent),
            ChaosOp::Revive(agent, fresh) => ctx.revive(*agent, fresh.clone()),
            ChaosOp::SetLink(link, up) => ctx.set_link_up(*link, *up),
            ChaosOp::SetLinkLoss(link, pct) => ctx.set_link_loss(*link, *pct),
        }
    }
}

/// Which traffic agent type lives behind an [`AgentId`], so the
/// harvest can downcast to the right concrete type.
#[derive(Clone)]
enum TrafficPart {
    Host(AgentId),
    FlowEngine(AgentId),
}

#[derive(Clone)]
enum WorkloadHandle {
    Ping { pingers: Vec<AgentId> },
    Video { client: AgentId },
    Traffic { parts: Vec<TrafficPart> },
}

// The fast timers of [`ScenarioBuilder::fast_timers`] and
// [`MatrixKnob::fast`]: OSPF hello and dead intervals (s) and the LLDP
// probe period.
const FAST_OSPF_HELLO: u16 = 1;
const FAST_OSPF_DEAD: u16 = 4;
const FAST_PROBE_INTERVAL: Duration = Duration::from_millis(500);

/// Fluent assembly of a full experiment — the one way to build a
/// [`Scenario`]; start with [`Scenario::on`].
pub struct ScenarioBuilder {
    topology: Topology,
    seed: u64,
    /// Administrator IP range for the virtual environment.
    ip_range: Ipv4Cidr,
    /// LLDP probe period.
    probe_interval: Duration,
    /// Physical link profile (also used for the virtual interconnect).
    link_profile: LinkProfile,
    /// Put FlowVisor between switches and controllers (the paper's
    /// layout); `false` wires both controllers directly into every
    /// switch for the A4 ablation.
    use_flowvisor: bool,
    trace_level: rf_sim::TraceLevel,
    /// The RF-controller's settings; `start` fills in the host ports
    /// and the virtual interconnect's link profile.
    controller: RfControllerConfig,
    faults: Vec<Fault>,
    workloads: Vec<Workload>,
}

impl ScenarioBuilder {
    /// Simulation seed (default `0xC0FFEE`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The administrator's IP range, from which the topology
    /// controller allocates every link's /30 (default `172.31.0.0/16`).
    pub fn ip_range(mut self, range: Ipv4Cidr) -> Self {
        self.ip_range = range;
        self
    }

    /// OSPF hello/dead intervals written into every ospfd.conf. This
    /// and the controller setters below default to
    /// [`RfControllerConfig::default`], the paper's controller.
    pub fn ospf_timers(mut self, hello: u16, dead: u16) -> Self {
        self.controller.ospf_hello = hello;
        self.controller.ospf_dead = dead;
        self
    }

    /// LLDP probe period of the topology controller.
    pub fn probe_interval(mut self, d: Duration) -> Self {
        self.probe_interval = d;
        self
    }

    /// 1 s hello / 4 s dead / 500 ms probes — the settings every fast
    /// test uses.
    pub fn fast_timers(self) -> Self {
        self.ospf_timers(FAST_OSPF_HELLO, FAST_OSPF_DEAD)
            .probe_interval(FAST_PROBE_INTERVAL)
    }

    /// Simulated VM provisioning time.
    pub fn vm_boot_delay(mut self, d: Duration) -> Self {
        self.controller.vm_boot_delay = d;
        self
    }

    /// VM provisioning pipeline width: up to `k` VM create/configure
    /// operations in flight at once (default 1, the paper's serial
    /// rftest behaviour — the Fig. 3 bottleneck).
    pub fn provision_width(mut self, k: usize) -> Self {
        self.controller.provision_width = k.max(1);
        self
    }

    /// FIB-mirror batching: coalesce up to `n` FLOW_MODs per switch
    /// into one multi-message push (default 1 = send each immediately).
    pub fn fib_batch(mut self, n: usize) -> Self {
        self.controller.fib_batch = n.max(1);
        self
    }

    /// Bound each switch channel's admitted window to `n` messages,
    /// which also sets the channel's per-drain-interval send credits.
    /// The default is unbounded (the paper's fire-and-forget
    /// behaviour); `0` is the degenerate everything-defers channel. A
    /// FLOW_MOD beyond the window waits in the channel's FIFO for the
    /// drain tick, so no flow is lost; a PACKET_OUT there is shed.
    pub fn channel_capacity(mut self, n: usize) -> Self {
        self.controller.channel_capacity = Some(n);
        self
    }

    /// Physical link profile (also used for the virtual interconnect).
    pub fn link_profile(mut self, p: LinkProfile) -> Self {
        self.link_profile = p;
        self
    }

    /// Wire both controllers directly into every switch instead of
    /// going through FlowVisor (the A4 ablation).
    pub fn without_flowvisor(mut self) -> Self {
        self.use_flowvisor = false;
        self
    }

    /// Whether counters count (default `Info`: they do).
    pub fn trace_level(mut self, level: rf_sim::TraceLevel) -> Self {
        self.trace_level = level;
        self
    }

    /// Schedule a fault.
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Schedule several faults.
    pub fn with_faults(mut self, faults: impl IntoIterator<Item = Fault>) -> Self {
        self.faults.extend(faults);
        self
    }

    /// Attach a traffic workload; its endpoints get auto-allocated
    /// `10.200+k.0.0/24` host subnets. Workload endpoints are the
    /// scenario's only hosts.
    pub fn with_workload(mut self, workload: Workload) -> Self {
        self.workloads.push(workload);
        self
    }

    /// Assemble the world: switches → FlowVisor → topology controller +
    /// RF-controller (RPC client in between), physical links, host
    /// slots and workload agents — then arm the fault schedule through
    /// [`Scenario::inject_faults`], the same path a fork takes.
    ///
    /// # Panics
    ///
    /// If `inject_faults` refuses a fault (one that does not fit the
    /// topology, or one at t = 0), with the refusal's text.
    pub fn start(mut self) -> Scenario {
        let faults = std::mem::take(&mut self.faults);
        let workloads = std::mem::take(&mut self.workloads);

        // Port plan: edges first, then one host port per workload
        // endpoint, each with a /24 of its own. Two-endpoint workloads
        // keep the historical 10.(200+k).(2k)/((2k)+1) scheme; fan-ins
        // extend the third octet past it (the overlap assertion below
        // catches any pathological combination).
        let (edge_ports, mut next_port) = port_plan(&self.topology);
        let mut host_plan = Vec::new(); // (node, port, host address, gateway)
        let mut spans = Vec::with_capacity(workloads.len()); // per workload: its endpoints
        for (k, w) in workloads.iter().enumerate() {
            let first = host_plan.len();
            let oct = 200 + (k as u8 % 50);
            for (j, node) in w.endpoint_nodes().into_iter().enumerate() {
                let third = 2 * k + j;
                assert!(
                    third < 256,
                    "workload {k} endpoint {j}: subnet space exhausted"
                );
                let subnet = Ipv4Cidr::new(Ipv4Addr::new(10, oct, third as u8, 0), 24);
                let port = next_port[node];
                next_port[node] += 1;
                let gateway = subnet.nth(1).expect("subnet too small");
                let host_ip = subnet.nth(2).expect("subnet too small");
                self.controller.host_ports.push(HostPortConfig {
                    dpid: (node + 1) as u64,
                    port,
                    subnet,
                    gateway,
                });
                host_plan.push((
                    node,
                    port,
                    Ipv4Cidr::new(host_ip, subnet.prefix_len),
                    gateway,
                ));
            }
            spans.push(first..host_plan.len());
        }

        // No two host subnets may overlap: duplicate gateway/host
        // addresses would make ARP learning deliver one host's traffic
        // to the other's switch. The octet scheme wraps after 50
        // workloads.
        let hosts = &self.controller.host_ports;
        for (i, a) in hosts.iter().enumerate() {
            for b in &hosts[i + 1..] {
                assert!(
                    !a.subnet.contains(b.subnet.network())
                        && !b.subnet.contains(a.subnet.network()),
                    "host subnets overlap: {} (dpid {}) and {} (dpid {})",
                    a.subnet,
                    a.dpid,
                    b.subnet,
                    b.dpid
                );
            }
        }

        let n = self.topology.node_count();
        let mut sim = Sim::new(SimConfig {
            seed: self.seed,
            trace_level: self.trace_level,
            max_time: None,
        });

        // Controllers.
        self.controller.vm_link_profile = self.link_profile;
        let engine = ControlPlane::new(std::mem::take(&mut self.controller));
        let rf_ctrl = sim.add_agent("rf-controller", Box::new(engine));
        let rpc_client = sim.add_agent("rpc-client", Box::new(RpcClientAgent::new(rf_ctrl)));
        let topo_ctrl = sim.add_agent(
            "topology-controller",
            Box::new(TopologyController::new(
                TopologyControllerConfig {
                    probe_interval: self.probe_interval,
                    ..TopologyControllerConfig::new(self.ip_range)
                }
                .with_rpc_client(rpc_client),
            )),
        );
        let flowvisor = if self.use_flowvisor {
            Some(sim.add_agent(
                "flowvisor",
                Box::new(FlowVisor::new(vec![
                    SlicePolicy::lldp_slice("topology", topo_ctrl, TOPOLOGY_OF_SERVICE),
                    SlicePolicy::ip_slice("routeflow", rf_ctrl, RF_CONTROLLER_OF_SERVICE),
                ])),
            ))
        } else {
            None
        };

        // Switches. The per-node configs are retained: a
        // [`Fault::ReviveSwitch`] boots a pristine replacement from
        // the same config (same dpid, same port count, same
        // controller wiring).
        let mut switches = Vec::with_capacity(n);
        let mut switch_cfgs = Vec::with_capacity(n);
        for (i, ports) in next_port.iter().enumerate() {
            let dpid = (i + 1) as u64;
            let num_ports = ports - 1;
            let swcfg = match flowvisor {
                Some(fv) => SwitchConfig::new(dpid, num_ports, fv),
                None => SwitchConfig::new(dpid, num_ports, topo_ctrl)
                    .with_service(TOPOLOGY_OF_SERVICE)
                    .add_controller(rf_ctrl, RF_CONTROLLER_OF_SERVICE),
            };
            let name = self.topology.node(i).name.clone();
            switches.push(sim.add_agent(&name, Box::new(OpenFlowSwitch::new(swcfg.clone()))));
            switch_cfgs.push(swcfg);
        }

        // Physical links (ids kept for the fault schedule).
        let mut phys_links = Vec::with_capacity(edge_ports.len());
        for (e, (pa, pb)) in self.topology.edges().iter().zip(edge_ports) {
            phys_links.push(sim.add_link(
                (switches[e.a], u32::from(pa)),
                (switches[e.b], u32::from(pb)),
                self.link_profile,
            ));
        }

        let host_slots: Vec<HostSlot> = host_plan
            .into_iter()
            .map(|(node, port, addr, gateway)| HostSlot {
                switch: switches[node],
                port,
                addr,
                gateway,
            })
            .collect();

        // Workload endpoint agents.
        let link = self.link_profile;
        let mut workload_handles = Vec::with_capacity(workloads.len());
        for (k, (w, span)) in workloads.iter().zip(spans).enumerate() {
            let slots = &host_slots[span];
            let mac = |which: u8| MacAddr([2, 0xE0 + which, k as u8, 0, 0, 1]);
            let handle = match w {
                Workload::Ping { clients, .. } => {
                    assert!(
                        clients.len() <= MAX_FAN_IN,
                        "fan-in wider than {MAX_FAN_IN} exhausts the MAC scheme"
                    );
                    // The server slot is allocated last.
                    let (srv, client_slots) = slots.split_last().expect("server slot");
                    let echo = sim.add_agent(
                        &format!("echo-host-{k}"),
                        Box::new(EchoHost::new(srv.host(mac(0)))),
                    );
                    srv.attach(&mut sim, echo, link);
                    let mut pingers = Vec::with_capacity(client_slots.len());
                    for (j, c) in client_slots.iter().enumerate() {
                        let pinger = sim.add_agent(
                            &format!("pinger-{k}-{j}"),
                            Box::new(Pinger::new(c.host(mac(1 + j as u8)), srv.addr.addr)),
                        );
                        c.attach(&mut sim, pinger, link);
                        pingers.push(pinger);
                    }
                    WorkloadHandle::Ping { pingers }
                }
                Workload::Video { .. } => {
                    let (a, b) = (&slots[0], &slots[1]);
                    let server = sim.add_agent(
                        &format!("video-server-{k}"),
                        Box::new(VideoServer::new(a.host(mac(0)))),
                    );
                    let client = sim.add_agent(
                        &format!("video-client-{k}"),
                        Box::new(VideoClient::new(b.host(mac(1)), a.addr.addr)),
                    );
                    a.attach(&mut sim, server, link);
                    b.attach(&mut sim, client, link);
                    WorkloadHandle::Video { client }
                }
                Workload::Traffic { spec, nodes } => WorkloadHandle::Traffic {
                    parts: wire_traffic(&mut sim, &self, k, spec, nodes, slots),
                },
            };
            workload_handles.push(handle);
        }

        // The chaos agent is *always* present, built empty: every world
        // from the same (topology, knob, seed) has the same agent table
        // whatever its fault axis, and the faults go in below exactly
        // as a fork of the fault-free prefix takes them. Its timers are
        // the reserved lane's only users, so arming them now, before
        // the first step, gives them the keys a fork's injection does.
        let chaos = sim.add_agent("chaos", Box::new(ChaosAgent { ops: Vec::new() }));

        let mut sc = Scenario {
            sim,
            rf_ctrl,
            topo_ctrl,
            rpc_client,
            flowvisor,
            switches,
            switch_cfgs,
            phys_links,
            expected_switches: n,
            workload_handles,
            chaos,
            last_parallel: None,
        };
        sc.inject_faults(&faults).unwrap_or_else(|e| panic!("{e}"));
        sc
    }
}

/// A workload endpoint's reserved host port on its switch, with the
/// address the host takes and the VM-side gateway it routes through.
struct HostSlot {
    switch: AgentId,
    port: u16,
    /// The host's address: the subnet's second host address.
    addr: Ipv4Cidr,
    /// The subnet's first host address.
    gateway: Ipv4Addr,
}

impl HostSlot {
    fn host(&self, mac: MacAddr) -> HostConfig {
        HostConfig {
            mac,
            addr: self.addr,
            gateway: self.gateway,
        }
    }

    /// Plug the host agent `host` into this slot's switch port.
    fn attach(&self, sim: &mut Sim, host: AgentId, profile: LinkProfile) {
        sim.add_link((self.switch, u32::from(self.port)), (host, 1), profile);
    }
}

/// The deterministic port plan: per node, ports start at 1 and edges
/// claim them first, in `topo.edges()` order. Returns edge index →
/// (port at `a`, port at `b`), and each node's next free port, where
/// its host ports continue.
pub(crate) fn port_plan(topo: &Topology) -> (Vec<(u16, u16)>, Vec<u16>) {
    let mut next_port = vec![1u16; topo.node_count()];
    let edge_ports = topo
        .edges()
        .iter()
        .map(|e| {
            let pa = next_port[e.a];
            next_port[e.a] += 1;
            let pb = next_port[e.b];
            next_port[e.b] += 1;
            (pa, pb)
        })
        .collect();
    (edge_ports, next_port)
}

/// Map a validated fault schedule onto chaos-agent operations against
/// already constructed switch agents and physical links.
/// (`ChannelStall` is a controller-side condition and goes to the
/// controller, not here.)
fn chaos_ops(
    faults: &[Fault],
    switches: &[AgentId],
    switch_cfgs: &[SwitchConfig],
    phys_links: &[LinkId],
) -> Vec<(Duration, ChaosOp)> {
    faults
        .iter()
        .filter_map(|f| match *f {
            Fault::KillSwitch { node, at } => Some((at, ChaosOp::Kill(switches[node]))),
            Fault::ReviveSwitch { node, at } => {
                let fresh = Box::new(OpenFlowSwitch::new(switch_cfgs[node].clone()));
                Some((at, ChaosOp::Revive(switches[node], fresh)))
            }
            Fault::LinkDown { edge, at } => Some((at, ChaosOp::SetLink(phys_links[edge], false))),
            Fault::LinkUp { edge, at } => Some((at, ChaosOp::SetLink(phys_links[edge], true))),
            Fault::LinkLoss { edge, loss_pct, at } => {
                Some((at, ChaosOp::SetLinkLoss(phys_links[edge], loss_pct)))
            }
            Fault::ChannelStall { .. } => None,
        })
        .collect()
}

/// Wire one traffic workload into the simulation: real host agents at
/// packet granularity, or a single timer-driven engine at flow
/// granularity (same demand seeds either way — see [`crate::traffic`]).
/// Returns typed handles for the harvest.
fn wire_traffic(
    sim: &mut Sim,
    cfg: &ScenarioBuilder,
    k: usize,
    spec: &TrafficSpec,
    nodes: &[usize],
    slots: &[HostSlot],
) -> Vec<TrafficPart> {
    use crate::traffic::endpoint_seed;
    let host_cfg =
        |j: usize| slots[j].host(MacAddr([2, 0xD0, k as u8, (j >> 8) as u8, j as u8, 1]));
    let ip_of = |j: usize| slots[j].addr.addr;

    if spec.mode == TrafficMode::Flow {
        // The endpoints' host slots stay allocated (the control plane
        // configures the same ports either way), but no host agents
        // exist — one engine replays the whole workload on timers.
        let topo = &cfg.topology;
        let engine = FlowLevelEngine::new(
            spec,
            nodes,
            cfg.seed,
            k,
            cfg.link_profile.bandwidth_bps,
            cfg.link_profile.latency,
            |a, b| {
                if a == b {
                    return 2; // host → shared switch → host
                }
                let d = topo.bfs_distances(a)[b];
                if d == usize::MAX {
                    2
                } else {
                    d as u32 + 2 // fabric hops plus both access links
                }
            },
        );
        let id = sim.add_agent(&format!("traffic-flow-{k}"), Box::new(engine));
        return vec![TrafficPart::FlowEngine(id)];
    }

    let mut parts = Vec::new();
    // Host `j` of the workload, attached to its slot's switch port.
    let mut attach = |name: String, j: usize, host: TrafficHost| {
        let id = sim.add_agent(&name, Box::new(host));
        slots[j].attach(sim, id, cfg.link_profile);
        parts.push(TrafficPart::Host(id));
    };
    let (start_at, stop_at) = (spec.start_at, spec.stop_at());
    // The fan: clients, senders or receivers.
    let fan = nodes.len() - 1;
    match spec.shape {
        TrafficShape::RequestResponse {
            rate_per_sec,
            response,
            ..
        } => {
            // The server slot is allocated last, like a fan-in's.
            attach(
                format!("traffic-server-{k}"),
                fan,
                TrafficHost::server(host_cfg(fan), start_at),
            );
            for j in 0..fan {
                let stream = ArrivalStream::new(
                    endpoint_seed(cfg.seed, k, j),
                    rate_per_sec,
                    response,
                    start_at,
                    stop_at,
                );
                attach(
                    format!("traffic-client-{k}-{j}"),
                    j,
                    TrafficHost::client(host_cfg(j), j, start_at, ip_of(fan), stream),
                );
            }
        }
        TrafficShape::Incast {
            flow,
            period,
            waves,
            ..
        } => {
            attach(
                format!("traffic-sink-{k}"),
                fan,
                TrafficHost::sink(host_cfg(fan), start_at),
            );
            for j in 0..fan {
                let stream =
                    WaveStream::new(endpoint_seed(cfg.seed, k, j), flow, start_at, period, waves);
                attach(
                    format!("traffic-incast-{k}-{j}"),
                    j,
                    TrafficHost::incast(host_cfg(j), j, start_at, ip_of(fan), stream),
                );
            }
        }
        TrafficShape::Multicast { rate_bps, .. } => {
            // Source at slot 0, receivers after.
            let mut dsts = Vec::with_capacity(fan);
            for r in 0..fan {
                let sink_j = 1 + r;
                dsts.push(ip_of(sink_j));
                attach(
                    format!("traffic-sink-{k}-{r}"),
                    sink_j,
                    TrafficHost::sink(host_cfg(sink_j), start_at),
                );
            }
            attach(
                format!("traffic-mcast-{k}"),
                0,
                TrafficHost::paced(
                    host_cfg(0),
                    0,
                    start_at,
                    stop_at,
                    dsts,
                    paced_interval(rate_bps),
                ),
            );
        }
    }
    parts
}

/// A running experiment: the simulator plus handles to every layer of
/// the Fig. 2 stack.
///
/// `Clone` performs a deep copy of the entire world — kernel event
/// queue, every agent's state, links, streams and the seeded RNG
/// mid-stream — which is what [`Scenario::snapshot`] and
/// [`Scenario::fork`] are built on.
#[derive(Clone)]
pub struct Scenario {
    pub sim: Sim,
    pub rf_ctrl: AgentId,
    pub topo_ctrl: AgentId,
    pub rpc_client: AgentId,
    pub flowvisor: Option<AgentId>,
    /// Switch agents indexed by topology node.
    pub switches: Vec<AgentId>,
    /// Per-node switch configs, retained so [`Fault::ReviveSwitch`]
    /// can boot a pristine replacement into a killed slot.
    switch_cfgs: Vec<SwitchConfig>,
    /// Physical link ids, indexed like `topology.edges()`.
    pub phys_links: Vec<LinkId>,
    /// Number of switches in the topology.
    pub expected_switches: usize,
    workload_handles: Vec<WorkloadHandle>,
    /// The always-present fault scheduler (possibly with an empty
    /// schedule); the fork path injects faults into it.
    chaos: AgentId,
    /// Inert stub, always `None`; see [`rf_sim::ParallelOutcome`].
    pub last_parallel: Option<rf_sim::ParallelOutcome>,
}

/// Why [`Scenario::snapshot`] refused to capture at the current
/// instant. A snapshot is only meaningful at a quiesce point — the
/// control plane converged and nothing buffered in flight — because a
/// fork taken mid-transient would bake half-delivered state into every
/// descendant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Not every switch has turned green yet.
    NotConverged { configured: usize, expected: usize },
    /// A switch-channel FIFO still holds messages that have not
    /// reached the wire (credit-capped, stalled, or deferred beyond a
    /// bounded window). A FIB batch still filling is not checked: it
    /// is part of the capture. Run further — e.g. another
    /// [`Scenario::run_until`] slice — and retry; snapshotting never
    /// force-drains, because a drain mutates the very state being
    /// captured.
    UndrainedChannels { queued: usize },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SnapshotError::NotConverged {
                configured,
                expected,
            } => write!(
                f,
                "scenario not converged: {configured}/{expected} switches configured"
            ),
            SnapshotError::UndrainedChannels { queued } => {
                write!(f, "controller holds {queued} undrained channel message(s)")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Why [`Scenario::inject_faults`] refused a fault.
#[derive(Clone, Debug, PartialEq)]
pub enum ForkError {
    /// The fault's (first) effect is not strictly after the fork
    /// point; a cold run would already have dispatched it, so the fork
    /// could never match.
    FaultNotAfterFork { at: Duration, now: Time },
    /// The fault does not fit this scenario's topology (or is
    /// malformed) — the same rejection the builder path reports.
    BadFault(FaultError),
}

impl std::fmt::Display for ForkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForkError::FaultNotAfterFork { at, now } => write!(
                f,
                "fault at {at:?} is not strictly after the fork point {now}"
            ),
            ForkError::BadFault(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ForkError {}

/// A deep capture of a converged [`Scenario`], taken by
/// [`Scenario::snapshot`]. Fork as many divergent continuations from
/// it as you like with [`Scenario::fork`]; the snapshot itself stays
/// immutable.
#[derive(Clone)]
pub struct Snapshot {
    scenario: Scenario,
    taken_at: Time,
}

impl Snapshot {
    /// Simulated time at which the capture was taken.
    pub fn taken_at(&self) -> Time {
        self.taken_at
    }
}

impl Scenario {
    /// Start building a scenario on `topology`, with the paper's
    /// defaults (the controller's are [`RfControllerConfig::default`]).
    pub fn on(topology: Topology) -> ScenarioBuilder {
        ScenarioBuilder {
            topology,
            seed: 0xC0FFEE,
            ip_range: Ipv4Cidr::new(Ipv4Addr::new(172, 31, 0, 0), 16),
            probe_interval: DEFAULT_PROBE_INTERVAL,
            link_profile: LinkProfile::default(),
            use_flowvisor: true,
            trace_level: rf_sim::TraceLevel::Info,
            controller: RfControllerConfig::default(),
            faults: Vec::new(),
            workloads: Vec::new(),
        }
    }

    /// The RF-controller (its shared state and counters).
    pub fn controller(&self) -> &ControlPlane {
        self.sim
            .agent_as::<ControlPlane>(self.rf_ctrl)
            .expect("controller agent alive")
    }

    /// Run until simulated time `t`.
    pub fn run_until(&mut self, t: Time) {
        self.sim.run_until(t);
    }

    /// Inert stub, a no-op; see [`rf_sim::ParallelOutcome`].
    pub fn set_parallel_cores(&mut self, _cores: usize) {}

    /// Switches whose VM is up (green in the paper's GUI).
    pub fn configured_switches(&self) -> usize {
        self.controller().configured_switches()
    }

    /// When the last switch turned green, if all have.
    pub fn all_configured_at(&self) -> Option<Time> {
        self.controller().all_configured_at(self.expected_switches)
    }

    /// Run until every switch is configured (or `deadline`), stepping
    /// in 100 ms slices so the condition is observable; returns the
    /// configuration completion time.
    pub fn run_until_configured(&mut self, deadline: Time) -> Option<Time> {
        let mut t = self.sim.now();
        while t < deadline {
            t = (t + Duration::from_millis(100)).min(deadline);
            self.sim.run_until(t);
            if let Some(done) = self.all_configured_at() {
                return Some(done);
            }
        }
        None
    }

    /// Flow entries currently resident across all switch tables.
    pub fn total_flows(&self) -> usize {
        self.switches
            .iter()
            .filter_map(|&s| self.sim.agent_as::<OpenFlowSwitch>(s))
            .map(|s| s.flow_count())
            .sum()
    }

    /// Capture the whole world — kernel queue, agents, streams, RNG —
    /// at the current instant, for later [`Scenario::fork`]s.
    ///
    /// ## Quiesce contract
    ///
    /// The capture is refused (typed, not panicking) unless the
    /// scenario is at a quiesce point:
    ///
    /// * every switch is configured ([`SnapshotError::NotConverged`]
    ///   otherwise) — forks diverge *after* the shared convergence
    ///   prefix, never during it;
    /// * every switch-channel FIFO is empty, its deferral backlog
    ///   included ([`SnapshotError::UndrainedChannels`] otherwise).
    ///   Snapshotting never force-drains; run further and retry
    ///   instead.
    ///
    /// A FIB batch still filling, like the pending *timers* (probes,
    /// hellos, workload arrivals), is part of the capture: a fork is a
    /// deep clone, and continues the run rather than restarting it.
    pub fn snapshot(&self) -> Result<Snapshot, SnapshotError> {
        let configured = self.configured_switches();
        if self.all_configured_at().is_none() {
            return Err(SnapshotError::NotConverged {
                configured,
                expected: self.expected_switches,
            });
        }
        let queued = self.controller().channel_queued();
        if queued > 0 {
            return Err(SnapshotError::UndrainedChannels { queued });
        }
        Ok(Snapshot {
            scenario: self.clone(),
            taken_at: self.sim.now(),
        })
    }

    /// Resume a fresh, independent scenario from a [`Snapshot`]. The
    /// fork continues exactly where the capture stopped — same pending
    /// events, same RNG stream position — so a fork that receives no
    /// further intervention behaves byte-identically to the captured
    /// run continuing. Diverge it with [`Scenario::inject_faults`] or
    /// any other mutation.
    pub fn fork(snapshot: &Snapshot) -> Scenario {
        snapshot.scenario.clone()
    }

    /// Schedule `faults` into a scenario — the one way a fault gets
    /// in: [`ScenarioBuilder::start`] calls it on the fresh world, and
    /// a fork calls it after the capture. Data-plane faults go to the
    /// resident chaos agent through the event queue's reserved lane
    /// (so a fault injected mid-run sorts at its instant exactly where
    /// the cold run's, armed before the first step, does), and
    /// [`Fault::ChannelStall`] windows go to the controller.
    ///
    /// Every fault's first effect (`at`, or `from` for a stall) must
    /// lie strictly after the current instant — a cold run would
    /// already have dispatched anything earlier, so such a fork could
    /// never match one — and the schedule must fit the topology
    /// ([`Fault::validate_schedule`]). Nothing is scheduled unless all
    /// faults pass.
    pub fn inject_faults(&mut self, faults: &[Fault]) -> Result<(), ForkError> {
        Fault::validate_schedule(faults, self.switches.len(), self.phys_links.len())
            .map_err(ForkError::BadFault)?;
        let now = self.sim.now();
        let early = |at: &Duration| Time::ZERO + *at <= now;
        if let Some(at) = faults.iter().map(Fault::first_effect).find(early) {
            return Err(ForkError::FaultNotAfterFork { at, now });
        }

        let ops = chaos_ops(faults, &self.switches, &self.switch_cfgs, &self.phys_links);
        let base = {
            let chaos = self
                .sim
                .agent_as_mut::<ChaosAgent>(self.chaos)
                .expect("chaos agent alive");
            let base = chaos.ops.len();
            chaos.ops.extend(ops.iter().cloned());
            base
        };
        for (i, (at, _)) in ops.iter().enumerate() {
            let delay = Duration::from_nanos((Time::ZERO + *at).as_nanos() - now.as_nanos());
            self.sim
                .schedule_timer_reserved(self.chaos, delay, (base + i) as u64);
        }

        for f in faults {
            if let Fault::ChannelStall { dpid, from, until } = *f {
                self.sim
                    .agent_as_mut::<ControlPlane>(self.rf_ctrl)
                    .expect("controller agent alive")
                    .add_channel_stall(ChannelStallWindow { dpid, from, until });
            }
        }
        Ok(())
    }

    /// Drain the controller's buffered output so a harvest observes a
    /// settled control plane: a FIB batch waiting out its 50 ms tick
    /// or a credit-capped channel FIFO (its deferral backlog included)
    /// would otherwise leave the last FLOW_MODs unsent in a cell that
    /// stops inside the window. Fires the flush/drain timers and runs
    /// short slices until the counters stop moving (stalled channels
    /// cannot move, so a mid-stall harvest converges too). Bounded, so
    /// it terminates even with a producer that keeps deferring.
    pub fn drain_pending_output(&mut self) {
        let progress = |ctrl: &ControlPlane| {
            let s = ctrl.state();
            (s.of_pushes, s.of_msgs_sent, ctrl.channel_queued())
        };
        for _ in 0..64 {
            let before = progress(self.controller());
            self.sim
                .schedule_timer(self.rf_ctrl, Duration::ZERO, FIB_FLUSH_TOKEN);
            self.sim
                .schedule_timer(self.rf_ctrl, Duration::from_millis(1), CHANNEL_DRAIN_TOKEN);
            // Long enough for the pushes to traverse the FlowVisor hop
            // and land in the switch tables.
            let t = self.sim.now() + Duration::from_millis(10);
            self.sim.run_until(t);
            if progress(self.controller()) == before {
                break;
            }
        }
    }

    /// Finish the measurement: drain buffered controller output (see
    /// [`Scenario::drain_pending_output`]) and harvest the scenario's
    /// typed metrics. The drain *advances the simulation* a bounded
    /// amount, so short cells cannot under-report their own FLOW_MODs
    /// — which also means `finish()` is a terminal read: never take a
    /// [`Scenario::snapshot`] after it, the drain ticks it fired are
    /// not part of any cold run. For a non-mutating mid-run probe use
    /// [`Scenario::peek_metrics`].
    pub fn finish(&mut self) -> ScenarioMetrics {
        self.drain_pending_output();
        self.peek_metrics()
    }

    /// Read the scenario's typed metrics as they stand, without the
    /// tail drain: pure observation, no simulation step, safe at any
    /// instant (including just before a [`Scenario::snapshot`]). A
    /// FIB batch still waiting out its tick or a channel backlog
    /// waiting for the drain tick is simply not counted yet.
    pub fn peek_metrics(&self) -> ScenarioMetrics {
        let ctrl = self.controller();
        let s = ctrl.state();
        ScenarioMetrics {
            expected_switches: self.expected_switches,
            configured_switches: ctrl.configured_switches(),
            per_switch_config_time: ctrl.configured_times(),
            all_configured_at: ctrl.all_configured_at(self.expected_switches),
            flows_installed: s.flows_installed,
            flows_removed: s.flows_removed,
            dataplane_flows: self.total_flows(),
            arp_replies: s.arp_replies,
            of_msgs_sent: s.of_msgs_sent,
            of_bytes_sent: s.of_bytes_sent,
            of_pushes: s.of_pushes,
            fib_batches: s.fib_batches,
            of_deferred: s.of_deferred,
            of_queue_hwm: s.of_queue_hwm,
        }
    }

    /// Harvest each workload's measurements, in `with_workload` order.
    pub fn workload_reports(&self) -> Vec<WorkloadReport> {
        self.workload_handles
            .iter()
            .map(|h| match *h {
                WorkloadHandle::Ping { ref pingers } => WorkloadReport::Ping(
                    pingers
                        .iter()
                        .map(|&id| {
                            let p = self.sim.agent_as::<Pinger>(id).expect("pinger agent alive");
                            p.report().clone()
                        })
                        .collect(),
                ),
                WorkloadHandle::Video { client } => {
                    let c = self
                        .sim
                        .agent_as::<VideoClient>(client)
                        .expect("video client agent alive");
                    WorkloadReport::Video(c.report)
                }
                WorkloadHandle::Traffic { ref parts } => {
                    let mut total = TrafficReport::default();
                    for part in parts {
                        match *part {
                            TrafficPart::Host(id) => total.merge(
                                self.sim
                                    .agent_as::<TrafficHost>(id)
                                    .expect("traffic host alive")
                                    .report(),
                            ),
                            TrafficPart::FlowEngine(id) => total.merge(
                                &self
                                    .sim
                                    .agent_as::<FlowLevelEngine>(id)
                                    .expect("flow engine alive")
                                    .report_at(self.sim.now()),
                            ),
                        }
                    }
                    WorkloadReport::Traffic(total)
                }
            })
            .collect()
    }
}
