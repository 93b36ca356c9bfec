//! Machine-checked post-run invariants.
//!
//! After a chaos schedule plays out (and every disturbance has healed
//! or been accounted for), the finished [`Scenario`] is probed against
//! predicates that must hold of *any* RouteFlow deployment that
//! survived the faults:
//!
//! 1. **Reconvergence** — every surviving switch is configured (its
//!    mirroring VM is up and green).
//! 2. **Adjacency health** — for every usable link between surviving
//!    switches, both endpoint VMs hold a `Full` OSPF adjacency on the
//!    mapped interface; no adjacency is stuck mid-handshake.
//! 3. **FIB ≡ SPF** — every VM's OSPF route toward a link subnet goes
//!    out an interface consistent with shortest paths on the
//!    *surviving* graph, and every such route is mirrored into the
//!    switch flow table the controller tracks.
//! 4. **Traffic conservation** — sinks never accept more than sources
//!    offered; no counter underflows.
//!
//! Violations are *data*, not panics: each is a typed
//! [`InvariantViolation`] that the campaign folds into cell metrics
//! (`inv_<code>` counts) and into minimized repro artifacts. A run that
//! panics has no finished world to probe; the campaign records it as
//! [`InvariantViolation::Panicked`] and shrinks and replays it like
//! any other.

use crate::scenario::{port_plan, Fault, Scenario, WorkloadReport};
use crate::vnet::VmAgent;
use rf_topo::Topology;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// What the checker needs to know about the cell beyond the scenario
/// itself.
pub struct InvariantContext<'a> {
    /// The physical topology the scenario was built on.
    pub topo: &'a Topology,
    /// The fault schedule that ran (replayed to compute the surviving
    /// graph).
    pub faults: &'a [Fault],
}

/// One violated predicate. `Display` renders a human-readable account;
/// [`InvariantViolation::code`] buckets it for metrics.
#[derive(Clone, Debug, PartialEq)]
pub enum InvariantViolation {
    /// A surviving switch never (re)configured: its VM is missing or
    /// not green.
    NotReconverged { node: usize, dpid: u64 },
    /// A usable link's endpoint holds no OSPF adjacency on the mapped
    /// interface.
    MissingAdjacency {
        node: usize,
        peer: usize,
        iface: u16,
    },
    /// An adjacency exists but is stuck short of `Full`.
    StuckAdjacency {
        node: usize,
        peer: usize,
        iface: u16,
        state: &'static str,
    },
    /// A VM's OSPF route disagrees with shortest paths on the
    /// surviving graph.
    FibSpfMismatch {
        node: usize,
        prefix: String,
        via: usize,
        best: usize,
        got: usize,
    },
    /// A VM's OSPF route is not mirrored in the controller's installed
    /// flow map for its switch.
    MirrorMissing {
        node: usize,
        dpid: u64,
        prefix: String,
    },
    /// A sink accounted more than its sources offered.
    Conservation {
        what: &'static str,
        offered: u64,
        delivered: u64,
    },
    /// The run panicked. Its message goes to stderr only: the file and
    /// line in it move with every edit, so it is not byte-stable.
    Panicked,
}

impl InvariantViolation {
    /// Stable short bucket for metrics (`inv_<code>`) and repro JSON.
    pub fn code(&self) -> &'static str {
        match self {
            InvariantViolation::NotReconverged { .. } => "reconverge",
            InvariantViolation::MissingAdjacency { .. }
            | InvariantViolation::StuckAdjacency { .. } => "adjacency",
            InvariantViolation::FibSpfMismatch { .. } => "fib_spf",
            InvariantViolation::MirrorMissing { .. } => "fib_mirror",
            InvariantViolation::Conservation { .. } => "conservation",
            InvariantViolation::Panicked => "panicked",
        }
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::NotReconverged { node, dpid } => {
                write!(
                    f,
                    "surviving switch {node} (dpid {dpid}) never reconfigured"
                )
            }
            InvariantViolation::MissingAdjacency { node, peer, iface } => write!(
                f,
                "node {node} has no OSPF neighbor on iface {iface} toward {peer}"
            ),
            InvariantViolation::StuckAdjacency {
                node,
                peer,
                iface,
                state,
            } => write!(
                f,
                "node {node} iface {iface} toward {peer} stuck in {state}"
            ),
            InvariantViolation::FibSpfMismatch {
                node,
                prefix,
                via,
                best,
                got,
            } => write!(
                f,
                "node {node} routes {prefix} via {via} (distance {got}, shortest {best})"
            ),
            InvariantViolation::MirrorMissing { node, dpid, prefix } => write!(
                f,
                "node {node}: OSPF route {prefix} missing from dpid {dpid}'s flow table"
            ),
            InvariantViolation::Conservation {
                what,
                offered,
                delivered,
            } => write!(
                f,
                "conservation: {what} delivered {delivered} > offered {offered}"
            ),
            InvariantViolation::Panicked => f.write_str("the run panicked"),
        }
    }
}

/// The surviving graph after a fault schedule fully plays out: which
/// nodes are alive and which edges administratively up / not fully
/// lossy at the end of time.
#[derive(Clone, Debug)]
pub struct SurvivingState {
    pub alive: Vec<bool>,
    /// Per edge: up (no un-healed `LinkDown`) *and* final loss < 100 %.
    pub usable: Vec<bool>,
}

impl SurvivingState {
    /// Replay `faults` in effective-time order over an
    /// all-alive/all-up start.
    pub fn replay(faults: &[Fault], nodes: usize, edges: usize) -> SurvivingState {
        let mut alive = vec![true; nodes];
        let mut up = vec![true; edges];
        let mut loss = vec![0.0f64; edges];
        // Sort by (last effect, original index): schedule order breaks
        // same-instant ties, matching the chaos agent's one-lane timer
        // ordering.
        let mut order: Vec<usize> = (0..faults.len()).collect();
        order.sort_by_key(|&i| (faults[i].last_effect(), i));
        for i in order {
            match faults[i] {
                Fault::KillSwitch { node, .. } => alive[node] = false,
                Fault::ReviveSwitch { node, .. } => alive[node] = true,
                Fault::LinkDown { edge, .. } => up[edge] = false,
                Fault::LinkUp { edge, .. } => up[edge] = true,
                Fault::LinkLoss { edge, loss_pct, .. } => loss[edge] = loss_pct,
                Fault::ChannelStall { .. } => {}
            }
        }
        let usable = (0..edges).map(|e| up[e] && loss[e] < 100.0).collect();
        SurvivingState { alive, usable }
    }
}

/// Check every invariant against a finished scenario. The returned
/// vector is empty iff the run was clean; order is deterministic
/// (nodes ascending, then the cross-cutting checks).
pub fn check_invariants(sc: &Scenario, ctx: &InvariantContext<'_>) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    let nodes = ctx.topo.node_count();
    let surviving = SurvivingState::replay(ctx.faults, nodes, ctx.topo.edge_count());
    let state = sc.controller().state();
    let (ports, _) = port_plan(ctx.topo);

    // Per-node distance tables on the surviving graph, computed once.
    let dist: Vec<Vec<usize>> = (0..nodes)
        .map(|n| {
            super::masked_distances(ctx.topo, n, |v| surviving.alive[v], |e| surviving.usable[e])
        })
        .collect();

    // iface → (edge index, peer node) per node, for usable edges.
    let mut iface_map: Vec<BTreeMap<u16, (usize, usize)>> = vec![BTreeMap::new(); nodes];
    for (e, edge) in ctx.topo.edges().iter().enumerate() {
        let (pa, pb) = ports[e];
        iface_map[edge.a].insert(pa, (e, edge.b));
        iface_map[edge.b].insert(pb, (e, edge.a));
    }

    // Link subnets as the controller allocated them: subnet → owner
    // endpoints (as nodes). `LinkRec` endpoints are (dpid, port).
    let mut subnet_owners: HashMap<(u32, u8), Vec<usize>> = HashMap::new();
    for l in &state.links {
        let key = (u32::from(l.subnet.network()), l.subnet.prefix_len);
        let owners = subnet_owners.entry(key).or_default();
        for (dpid, _) in [l.a, l.b] {
            let node = (dpid - 1) as usize;
            if !owners.contains(&node) {
                owners.push(node);
            }
        }
    }

    // 1. Reconvergence + collect live VM handles.
    let mut vms: Vec<Option<&VmAgent>> = vec![None; nodes];
    for (node, slot) in vms.iter_mut().enumerate() {
        if !surviving.alive[node] {
            continue;
        }
        let dpid = (node + 1) as u64;
        let rec = state.switches.get(&dpid);
        let configured = rec.is_some_and(|r| r.configured_at.is_some());
        let vm = rec
            .and_then(|r| r.vm)
            .and_then(|id| sc.sim.agent_as::<VmAgent>(id));
        if !configured || vm.is_none() {
            out.push(InvariantViolation::NotReconverged { node, dpid });
            continue;
        }
        *slot = vm;
    }

    // 2. Adjacency health over usable surviving edges.
    for (e, edge) in ctx.topo.edges().iter().enumerate() {
        if !surviving.usable[e] || !surviving.alive[edge.a] || !surviving.alive[edge.b] {
            continue;
        }
        let (pa, pb) = ports[e];
        for (node, peer, iface) in [(edge.a, edge.b, pa), (edge.b, edge.a, pb)] {
            let Some(vm) = vms[node] else { continue };
            match vm.ospf_neighbors().iter().find(|(ifc, _, _)| *ifc == iface) {
                None => out.push(InvariantViolation::MissingAdjacency { node, peer, iface }),
                Some((_, _, st)) if *st != rf_routed::ospf::NeighborState::Full => {
                    out.push(InvariantViolation::StuckAdjacency {
                        node,
                        peer,
                        iface,
                        state: neighbor_state_name(st),
                    })
                }
                Some(_) => {}
            }
        }
    }

    // 3. FIB ≡ SPF + controller mirror, per surviving VM.
    for node in 0..nodes {
        let Some(vm) = vms[node] else { continue };
        let dpid = (node + 1) as u64;
        for route in vm.fib_routes() {
            if route.proto != rf_routed::rib::RouteProto::Ospf {
                continue;
            }
            let key = (u32::from(route.prefix.network()), route.prefix.prefix_len);
            // SPF agreement is only checkable for prefixes we can
            // attribute — the link subnets the controller allocated.
            if let Some(owners) = subnet_owners.get(&key) {
                let best = owners
                    .iter()
                    .map(|&o| dist[node][o])
                    .min()
                    .unwrap_or(usize::MAX);
                if let Some(&(e, peer)) = iface_map[node].get(&route.out_iface) {
                    let via_peer = if surviving.usable[e] && surviving.alive[peer] {
                        owners
                            .iter()
                            .map(|&o| dist[peer][o])
                            .min()
                            .unwrap_or(usize::MAX)
                            .saturating_add(1)
                    } else {
                        usize::MAX
                    };
                    if best != usize::MAX && via_peer != best {
                        out.push(InvariantViolation::FibSpfMismatch {
                            node,
                            prefix: format!("{}", route.prefix),
                            via: peer,
                            best,
                            got: via_peer,
                        });
                    }
                }
            }
            // Mirror: every OSPF FIB route must be a flow the
            // controller believes installed on this VM's switch.
            if !state.installed.contains_key(&(dpid, key.0, key.1)) {
                out.push(InvariantViolation::MirrorMissing {
                    node,
                    dpid,
                    prefix: format!("{}", route.prefix),
                });
            }
        }
    }

    // 4. Traffic conservation (workload accounting).
    for report in sc.workload_reports() {
        match report {
            WorkloadReport::Ping(clients) => {
                for c in &clients {
                    if c.replies.len() > c.sent.len() {
                        out.push(InvariantViolation::Conservation {
                            what: "ping replies",
                            offered: c.sent.len() as u64,
                            delivered: c.replies.len() as u64,
                        });
                    }
                }
            }
            WorkloadReport::Traffic(t) => {
                if t.delivered_bytes > t.offered_bytes {
                    out.push(InvariantViolation::Conservation {
                        what: "traffic bytes",
                        offered: t.offered_bytes,
                        delivered: t.delivered_bytes,
                    });
                }
                if t.frames_delivered > t.frames_sent {
                    out.push(InvariantViolation::Conservation {
                        what: "traffic frames",
                        offered: t.frames_sent,
                        delivered: t.frames_delivered,
                    });
                }
                if t.flows_completed > t.flows_started {
                    out.push(InvariantViolation::Conservation {
                        what: "traffic flows",
                        offered: t.flows_started,
                        delivered: t.flows_completed,
                    });
                }
            }
            WorkloadReport::Video(_) => {}
        }
    }

    out
}

fn neighbor_state_name(s: &rf_routed::ospf::NeighborState) -> &'static str {
    use rf_routed::ospf::NeighborState::*;
    match s {
        Down => "Down",
        Init => "Init",
        ExStart => "ExStart",
        Exchange => "Exchange",
        Loading => "Loading",
        Full => "Full",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn surviving_state_replay_honors_order_and_healing() {
        let faults = [
            Fault::KillSwitch {
                node: 1,
                at: Duration::from_secs(30),
            },
            Fault::ReviveSwitch {
                node: 1,
                at: Duration::from_secs(40),
            },
            Fault::LinkDown {
                edge: 0,
                at: Duration::from_secs(31),
            },
            Fault::LinkLoss {
                edge: 2,
                loss_pct: 100.0,
                at: Duration::from_secs(33),
            },
            Fault::LinkLoss {
                edge: 3,
                loss_pct: 50.0,
                at: Duration::from_secs(33),
            },
        ];
        let s = SurvivingState::replay(&faults, 4, 4);
        assert!(s.alive[1], "revive heals the kill");
        assert!(!s.usable[0], "un-healed LinkDown");
        assert!(!s.usable[2], "100% loss is unusable");
        assert!(s.usable[3], "partial loss is usable");
    }
}
