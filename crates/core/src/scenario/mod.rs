//! The experiment-side API: a fluent [`ScenarioBuilder`] that assembles
//! the paper's Fig. 2 stack on any topology, with hosts, workloads and
//! fault schedules, and a [`Scenario`] handle exposing typed metrics.
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
//!     .with_workload(Workload::ping(0, 2))
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

use crate::apps::{
    ChannelStallWindow, ControlPlane, ARP_RETRY_TOKEN, CHANNEL_DRAIN_TOKEN, FIB_FLUSH_TOKEN,
};
use crate::discovery::{TopologyController, TopologyControllerConfig, TOPOLOGY_OF_SERVICE};
use crate::host::video::{VideoClient, VideoClientReport, VideoServer};
use crate::host::{EchoHost, HostConfig, Pinger};
use crate::rfcontroller::{HostPortConfig, RfControllerConfig, RF_CONTROLLER_OF_SERVICE};
use crate::traffic::packet::TrafficHost;
use crate::traffic::{
    paced_interval, ArrivalStream, FlowLevelEngine, TrafficConfig, TrafficMode, TrafficPattern,
    TrafficReport, WaveStream, WorkloadError,
};
use rf_flowvisor::{FlowVisor, FlowVisorConfig, SlicePolicy};
use rf_rpc::{RpcClientAgent, RpcClientConfig};
use rf_sim::{Agent, AgentId, Ctx, LinkId, LinkProfile, Sim, SimConfig, Time};
use rf_switch::{OpenFlowSwitch, SwitchConfig};
use rf_topo::Topology;
use rf_wire::{Ipv4Cidr, MacAddr};
use std::net::Ipv4Addr;
use std::time::Duration;

/// Where to attach a host (edge configuration, declared up front).
#[derive(Clone, Debug)]
pub struct HostAttachment {
    /// Topology node the host hangs off.
    pub node: usize,
    /// The host subnet (a /24 by convention).
    pub subnet: Ipv4Cidr,
}

/// A reserved host port, returned to the caller for wiring host agents.
#[derive(Clone, Debug)]
pub struct HostSlot {
    pub node: usize,
    pub switch: AgentId,
    pub port: u16,
    pub subnet: Ipv4Cidr,
    /// The VM-side gateway address (first host address of the subnet).
    pub gateway: Ipv4Addr,
    /// A free address for the host itself (second host address).
    pub host_ip: Ipv4Addr,
}

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

    /// Validate a whole schedule; the first offending fault's error.
    pub fn validate_schedule(
        faults: &[Fault],
        nodes: usize,
        edges: usize,
    ) -> Result<(), FaultError> {
        faults.iter().try_for_each(|f| f.validate(nodes, edges))
    }
}

/// A traffic workload attached to the scenario's edge.
#[derive(Clone, Debug)]
pub enum Workload {
    /// ICMP echo probing from a host on `client` to a host on `server`,
    /// one ping per second.
    Ping { client: usize, server: usize },
    /// The paper's §3 demo: a CBR UDP video stream from a host on
    /// `server` to a host on `client`.
    Video { server: usize, client: usize },
    /// Many pingers converging on one server — the fan-in pattern that
    /// turns a stalled or bounded control channel into visible
    /// backpressure (every client needs ARP answers and /32 flows from
    /// the same edge switch).
    PingFanIn { clients: Vec<usize>, server: usize },
    /// A stochastic traffic workload (see [`crate::traffic`]): seeded
    /// arrival processes, incast/multicast patterns, at packet or flow
    /// granularity.
    Traffic(TrafficConfig),
}

/// Widest fan-in the `[2, 0xE1.., k, 0, 0, 1]` MAC scheme can address.
const MAX_FAN_IN: usize = 30;

impl Workload {
    pub fn ping(client: usize, server: usize) -> Workload {
        Workload::Ping { client, server }
    }

    pub fn video(server: usize, client: usize) -> Workload {
        Workload::Video { server, client }
    }

    /// A fan-in of pingers. Fails typed (instead of panicking) so a bad
    /// matrix axis marks one cell, not the whole sweep.
    pub fn ping_fan_in(clients: Vec<usize>, server: usize) -> Result<Workload, WorkloadError> {
        if clients.is_empty() {
            return Err(WorkloadError::NoEndpoints("fan-in needs clients"));
        }
        if clients.len() > MAX_FAN_IN {
            return Err(WorkloadError::TooManyEndpoints {
                given: clients.len(),
                max: MAX_FAN_IN,
            });
        }
        Ok(Workload::PingFanIn { clients, server })
    }

    /// A validated stochastic traffic workload.
    pub fn traffic(cfg: TrafficConfig) -> Result<Workload, WorkloadError> {
        cfg.validate()?;
        Ok(Workload::Traffic(cfg))
    }

    /// Topology nodes hosting this workload's endpoints, in host-slot
    /// allocation order.
    fn endpoint_nodes(&self) -> Vec<usize> {
        match self {
            Workload::Ping { client, server } => vec![*client, *server],
            Workload::Video { server, client } => vec![*server, *client],
            Workload::PingFanIn { clients, server } => {
                let mut v = clients.clone();
                v.push(*server);
                v
            }
            Workload::Traffic(cfg) => cfg.pattern.endpoint_nodes(),
        }
    }
}

/// One pinger's timeline (used standalone by [`WorkloadReport::Ping`]
/// and per client by [`WorkloadReport::PingFanIn`]).
#[derive(Clone, Debug)]
pub struct PingProbeReport {
    /// Time of the first successful round trip.
    pub first_reply_at: Option<Time>,
    /// Completed round trips: (seq, rtt).
    pub rtts: Vec<(u16, Duration)>,
    /// Ping departure times: (seq, when sent).
    pub sent: Vec<(u16, Time)>,
    /// Reply arrival times: (seq, when) — together with `sent`, the
    /// timeline recovery measurements are read off.
    pub replies: Vec<(u16, Time)>,
}

/// What a workload measured, harvested via [`Scenario::workload_reports`].
#[derive(Clone, Debug)]
pub enum WorkloadReport {
    /// A lone pinger's timeline.
    Ping(PingProbeReport),
    Video(VideoClientReport),
    /// Per-client timelines of a fan-in, in `clients` declaration
    /// order.
    PingFanIn {
        clients: Vec<PingProbeReport>,
    },
    /// Aggregated traffic accounting, merged across the workload's
    /// agents (or produced whole by the flow-level engine).
    Traffic(TrafficReport),
}

impl PingProbeReport {
    /// Read a pinger's timeline off the live agent.
    fn harvest(p: &Pinger) -> PingProbeReport {
        PingProbeReport {
            first_reply_at: p.first_reply_at,
            rtts: p.rtts.clone(),
            sent: p.sent_at.clone(),
            replies: p.replies.clone(),
        }
    }
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
    /// Deferral events: every time a bounded channel refused a
    /// message back to its producer (pacing, not loss — producers
    /// retried them, and each re-refusal counts again, so this scales
    /// with how long the channel stayed full).
    pub of_deferred: u64,
    /// Deepest per-switch channel queue observed over the run.
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
    Ping { pinger: AgentId },
    Video { client: AgentId },
    PingFanIn { pingers: Vec<AgentId> },
    Traffic { parts: Vec<TrafficPart> },
}

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
    hosts: Vec<HostAttachment>,
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
        self.ospf_timers(1, 4)
            .probe_interval(Duration::from_millis(500))
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

    /// Bound each switch channel's send queue to `n` messages, which
    /// also sets the channel's per-drain-interval send credits. The
    /// default is unbounded (the paper's fire-and-forget behaviour);
    /// `0` is the degenerate everything-defers channel. A full channel
    /// hands the overflow back to the stage that sent it, which
    /// retries, so nothing is lost.
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

    /// Attach a host subnet at a topology node; slots appear in
    /// [`Scenario::host_slots`] in declaration order.
    pub fn with_host(mut self, node: usize, subnet: &str) -> Self {
        self.hosts.push(HostAttachment {
            node,
            subnet: subnet.parse().expect("valid subnet"),
        });
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
    /// `10.200+k.0.0/24` host subnets.
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

        // Workload endpoints ride on auto-allocated host subnets,
        // appended after user-declared hosts so explicit slot indices
        // stay stable. Two-endpoint workloads keep the historical
        // 10.(200+k).(2k)/((2k)+1) scheme; fan-ins extend the third
        // octet past it (the overlap assertion below catches any
        // pathological combination).
        let mut workload_slots: Vec<Vec<usize>> = Vec::new(); // per workload: host-slot indices
        for (k, w) in workloads.iter().enumerate() {
            let nodes = w.endpoint_nodes();
            let base = self.hosts.len();
            let oct = 200 + (k as u8 % 50);
            for (j, &node) in nodes.iter().enumerate() {
                let third = 2 * k + j;
                assert!(
                    third < 256,
                    "workload {k} endpoint {j}: subnet space exhausted"
                );
                self.hosts.push(HostAttachment {
                    node,
                    subnet: Ipv4Cidr::new(Ipv4Addr::new(10, oct, third as u8, 0), 24),
                });
            }
            workload_slots.push((base..base + nodes.len()).collect());
        }

        // No two host subnets (user-declared or workload-allocated) may
        // overlap: duplicate gateway/host addresses would make ARP
        // learning deliver one host's traffic to the other's switch.
        for (i, a) in self.hosts.iter().enumerate() {
            for b in &self.hosts[i + 1..] {
                assert!(
                    !a.subnet.contains(b.subnet.network())
                        && !b.subnet.contains(a.subnet.network()),
                    "host subnets overlap: {} (node {}) and {} (node {})",
                    a.subnet,
                    a.node,
                    b.subnet,
                    b.node
                );
            }
        }

        let n = self.topology.node_count();
        let mut sim = Sim::new(SimConfig {
            seed: self.seed,
            trace_level: self.trace_level,
            max_time: None,
        });

        // Port plan: edges first, then host ports.
        let (edge_ports, mut next_port) = port_plan(&self.topology);
        let mut host_plan = Vec::new(); // (node, port, subnet, gw, host_ip)
        for h in &self.hosts {
            let port = next_port[h.node];
            next_port[h.node] += 1;
            let gw = h.subnet.nth(1).expect("subnet too small");
            let host_ip = h.subnet.nth(2).expect("subnet too small");
            self.controller.host_ports.push(HostPortConfig {
                dpid: (h.node + 1) as u64,
                port,
                subnet: h.subnet,
                gateway: gw,
            });
            host_plan.push((h.node, port, h.subnet, gw, host_ip));
        }

        // Controllers.
        self.controller.vm_link_profile = self.link_profile;
        let engine = ControlPlane::new(std::mem::take(&mut self.controller));
        let rf_ctrl = sim.add_agent("rf-controller", Box::new(engine));
        let rpc_client = sim.add_agent(
            "rpc-client",
            Box::new(RpcClientAgent::new(RpcClientConfig::new(rf_ctrl))),
        );
        let topo_ctrl = sim.add_agent(
            "topology-controller",
            Box::new(TopologyController::new(
                TopologyControllerConfig {
                    probe_interval: self.probe_interval,
                    link_ttl: self.probe_interval * 3,
                    ..TopologyControllerConfig::new(self.ip_range)
                }
                .with_rpc_client(rpc_client),
            )),
        );
        let flowvisor = if self.use_flowvisor {
            Some(sim.add_agent(
                "flowvisor",
                Box::new(FlowVisor::new(FlowVisorConfig::new(vec![
                    SlicePolicy::lldp_slice("topology", topo_ctrl, TOPOLOGY_OF_SERVICE),
                    SlicePolicy::ip_slice("routeflow", rf_ctrl, RF_CONTROLLER_OF_SERVICE),
                ]))),
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
            .map(|(node, port, subnet, gateway, host_ip)| HostSlot {
                node,
                switch: switches[node],
                port,
                subnet,
                gateway,
                host_ip,
            })
            .collect();

        // Workload endpoint agents.
        let mut workload_handles = Vec::new();
        for (k, w) in workloads.iter().enumerate() {
            let slots = &workload_slots[k];
            let mac = |which: u8| MacAddr([2, 0xE0 + which, k as u8, 0, 0, 1]);
            let host_cfg = |slot: &HostSlot, which: u8| HostConfig {
                mac: mac(which),
                addr: Ipv4Cidr::new(slot.host_ip, slot.subnet.prefix_len),
                gateway: slot.gateway,
            };
            let handle = match *w {
                Workload::Ping { .. } => {
                    let a = host_slots[slots[0]].clone();
                    let b = host_slots[slots[1]].clone();
                    let echo = sim.add_agent(
                        &format!("echo-host-{k}"),
                        Box::new(EchoHost::new(host_cfg(&b, 1))),
                    );
                    let pinger = sim.add_agent(
                        &format!("pinger-{k}"),
                        Box::new(Pinger::new(host_cfg(&a, 0), b.host_ip)),
                    );
                    sim.add_link((b.switch, u32::from(b.port)), (echo, 1), self.link_profile);
                    sim.add_link(
                        (a.switch, u32::from(a.port)),
                        (pinger, 1),
                        self.link_profile,
                    );
                    WorkloadHandle::Ping { pinger }
                }
                Workload::Video { .. } => {
                    let a = host_slots[slots[0]].clone();
                    let b = host_slots[slots[1]].clone();
                    let server = sim.add_agent(
                        &format!("video-server-{k}"),
                        Box::new(VideoServer::new(host_cfg(&a, 0))),
                    );
                    let client = sim.add_agent(
                        &format!("video-client-{k}"),
                        Box::new(VideoClient::new(host_cfg(&b, 1), a.host_ip)),
                    );
                    sim.add_link(
                        (a.switch, u32::from(a.port)),
                        (server, 1),
                        self.link_profile,
                    );
                    sim.add_link(
                        (b.switch, u32::from(b.port)),
                        (client, 1),
                        self.link_profile,
                    );
                    WorkloadHandle::Video { client }
                }
                Workload::PingFanIn { ref clients, .. } => {
                    assert!(
                        clients.len() <= MAX_FAN_IN,
                        "fan-in wider than {MAX_FAN_IN} exhausts the MAC scheme"
                    );
                    // The server slot is allocated last.
                    let srv = host_slots[*slots.last().expect("server slot")].clone();
                    let echo = sim.add_agent(
                        &format!("echo-host-{k}"),
                        Box::new(EchoHost::new(host_cfg(&srv, 0))),
                    );
                    sim.add_link(
                        (srv.switch, u32::from(srv.port)),
                        (echo, 1),
                        self.link_profile,
                    );
                    let mut pingers = Vec::with_capacity(clients.len());
                    for (j, _) in clients.iter().enumerate() {
                        let c = host_slots[slots[j]].clone();
                        let pinger = sim.add_agent(
                            &format!("pinger-{k}-{j}"),
                            Box::new(Pinger::new(host_cfg(&c, 1 + j as u8), srv.host_ip)),
                        );
                        sim.add_link(
                            (c.switch, u32::from(c.port)),
                            (pinger, 1),
                            self.link_profile,
                        );
                        pingers.push(pinger);
                    }
                    WorkloadHandle::PingFanIn { pingers }
                }
                Workload::Traffic(ref tcfg) => WorkloadHandle::Traffic {
                    parts: wire_traffic(&mut sim, &self, k, tcfg, slots, &host_slots),
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
            host_slots,
            expected_switches: n,
            workload_handles,
            chaos,
            last_parallel: None,
        };
        sc.inject_faults(&faults).unwrap_or_else(|e| panic!("{e}"));
        sc
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
    tcfg: &TrafficConfig,
    slots: &[usize],
    host_slots: &[HostSlot],
) -> Vec<TrafficPart> {
    use crate::traffic::endpoint_seed;
    let host_cfg = |j: usize| {
        let slot = &host_slots[slots[j]];
        HostConfig {
            mac: MacAddr([2, 0xD0, k as u8, (j >> 8) as u8, j as u8, 1]),
            addr: Ipv4Cidr::new(slot.host_ip, slot.subnet.prefix_len),
            gateway: slot.gateway,
        }
    };
    let ip_of = |j: usize| host_slots[slots[j]].host_ip;

    if tcfg.mode == TrafficMode::Flow {
        // The endpoints' host slots stay allocated (the control plane
        // configures the same ports either way), but no host agents
        // exist — one engine replays the whole workload on timers.
        let topo = &cfg.topology;
        let engine = FlowLevelEngine::from_config(
            tcfg,
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
        let slot = &host_slots[slots[j]];
        sim.add_link(
            (slot.switch, u32::from(slot.port)),
            (id, 1),
            cfg.link_profile,
        );
        parts.push(TrafficPart::Host(id));
    };
    let start_at = tcfg.start_at;
    match &tcfg.pattern {
        TrafficPattern::RequestResponse {
            clients,
            arrivals,
            response,
            ..
        } => {
            // The server slot is allocated last, like a fan-in's.
            let server_j = clients.len();
            attach(
                format!("traffic-server-{k}"),
                server_j,
                TrafficHost::server(host_cfg(server_j), start_at),
            );
            for j in 0..clients.len() {
                let stream = ArrivalStream::new(
                    endpoint_seed(cfg.seed, k, j),
                    *arrivals,
                    *response,
                    start_at,
                    tcfg.stop_at,
                );
                attach(
                    format!("traffic-client-{k}-{j}"),
                    j,
                    TrafficHost::client(host_cfg(j), j, start_at, ip_of(server_j), stream),
                );
            }
        }
        TrafficPattern::CbrMix { streams } => {
            for (i, s) in streams.iter().enumerate() {
                let (src_j, sink_j) = (2 * i, 2 * i + 1);
                attach(
                    format!("traffic-sink-{k}-{i}"),
                    sink_j,
                    TrafficHost::sink(host_cfg(sink_j), start_at),
                );
                attach(
                    format!("traffic-cbr-{k}-{i}"),
                    src_j,
                    TrafficHost::paced(
                        host_cfg(src_j),
                        src_j,
                        start_at,
                        tcfg.stop_at,
                        vec![ip_of(sink_j)],
                        paced_interval(s.rate_bps),
                    ),
                );
            }
        }
        TrafficPattern::Incast {
            senders,
            flow,
            period,
            waves,
            ..
        } => {
            let recv_j = senders.len();
            attach(
                format!("traffic-sink-{k}"),
                recv_j,
                TrafficHost::sink(host_cfg(recv_j), start_at),
            );
            for j in 0..senders.len() {
                let stream = WaveStream::new(
                    endpoint_seed(cfg.seed, k, j),
                    *flow,
                    start_at,
                    *period,
                    *waves,
                );
                attach(
                    format!("traffic-incast-{k}-{j}"),
                    j,
                    TrafficHost::incast(host_cfg(j), j, start_at, ip_of(recv_j), stream),
                );
            }
        }
        TrafficPattern::Multicast {
            receivers,
            rate_bps,
            ..
        } => {
            // Source at slot 0, receivers after.
            let mut dsts = Vec::with_capacity(receivers.len());
            for r in 0..receivers.len() {
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
                    tcfg.stop_at,
                    dsts,
                    paced_interval(*rate_bps),
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
    /// Reserved host ports: user-declared first, then two per workload.
    pub host_slots: Vec<HostSlot>,
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
    /// The controller still holds queued channel output (a FIB batch
    /// waiting out its tick, a deferral backlog, credit-capped
    /// messages). Run further — e.g. another
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
            probe_interval: Duration::from_secs(1),
            link_profile: LinkProfile::default(),
            use_flowvisor: true,
            hosts: Vec::new(),
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
    /// * the controller's channel queues are empty
    ///   ([`SnapshotError::UndrainedChannels`] otherwise) — a buffered
    ///   tail batch would be replayed into every fork from a state the
    ///   producing stages no longer agree with. Snapshotting never
    ///   force-drains; run further and retry instead.
    ///
    /// Pending *timers* (probes, hellos, workload arrivals) are part of
    /// the capture — they must be, for forks to continue the run
    /// rather than restart it.
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
    /// settled control plane: a FIB batch waiting out its 50 ms tick,
    /// a deferral backlog mid-retry, or a credit-capped channel queue
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
                .schedule_timer(self.rf_ctrl, Duration::ZERO, ARP_RETRY_TOKEN);
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
    /// FIB batch still waiting out its tick or a deferral backlog
    /// mid-retry is simply not counted yet.
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
                WorkloadHandle::Ping { pinger } => {
                    let p = self
                        .sim
                        .agent_as::<Pinger>(pinger)
                        .expect("pinger agent alive");
                    WorkloadReport::Ping(PingProbeReport::harvest(p))
                }
                WorkloadHandle::Video { client } => {
                    let c = self
                        .sim
                        .agent_as::<VideoClient>(client)
                        .expect("video client agent alive");
                    WorkloadReport::Video(c.report)
                }
                WorkloadHandle::PingFanIn { ref pingers } => WorkloadReport::PingFanIn {
                    clients: pingers
                        .iter()
                        .map(|&id| {
                            let p = self
                                .sim
                                .agent_as::<Pinger>(id)
                                .expect("fan-in pinger agent alive");
                            PingProbeReport::harvest(p)
                        })
                        .collect(),
                },
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
