//! Chaos campaigns: seeded random fault schedules, machine-checked
//! invariants, and a minimizing shrinker.
//!
//! The deterministic substrate (byte-identical reports, checkpoint +
//! fork, the reserved fault lane) makes randomized failure testing
//! *reproducible*: a [`ChaosSpec`] draws a fault schedule from a seed,
//! a campaign ([`campaign::ChaosCampaign`]) fans hundreds of seeded
//! schedules × topologies over worker threads, every cell's post-run
//! state is checked against real invariants
//! ([`invariants::check_invariants`]), and any violation is minimized
//! by a delta-debugging shrinker ([`shrink::shrink_schedule`]) into a
//! repro JSON ([`ReproCase`]) that replays byte-identically from the
//! seed alone.
//!
//! ```
//! use rf_core::chaos::ChaosSpec;
//!
//! let topo = rf_topo::ring(6);
//! let spec = ChaosSpec::smoke(7);
//! let schedule = spec.generate(&topo);
//! // Same seed, same topology → the identical schedule, always.
//! assert_eq!(format!("{:?}", schedule.faults),
//!            format!("{:?}", spec.generate(&topo).faults));
//! ```

pub mod campaign;
pub mod invariants;
pub mod shrink;

pub use campaign::{CampaignStats, ChaosCampaign, ChaosOutcome, ReproCase, ShrinkRecord};
pub use invariants::{check_invariants, InvariantContext, InvariantViolation, SurvivingState};
pub use shrink::{shrink_schedule, ShrinkOutcome};

use crate::json::Json;
use crate::scenario::{Fault, FaultSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rf_topo::Topology;
use std::ops::Range;
use std::time::Duration;

/// BFS hop counts from `src` over the edges `edge_ok` keeps between
/// the nodes `node_ok` keeps; `usize::MAX` = unreachable. A `src` that
/// is not kept reaches nothing.
fn masked_distances(
    topo: &Topology,
    src: usize,
    node_ok: impl Fn(usize) -> bool,
    edge_ok: impl Fn(usize) -> bool,
) -> Vec<usize> {
    let mut dist = vec![usize::MAX; topo.node_count()];
    if !node_ok(src) {
        return dist;
    }
    dist[src] = 0;
    let mut queue = std::collections::VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        for (e, edge) in topo.edges().iter().enumerate() {
            if !edge_ok(e) {
                continue;
            }
            let v = if edge.a == u {
                edge.b
            } else if edge.b == u {
                edge.a
            } else {
                continue;
            };
            if node_ok(v) && dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// The fault families a [`ChaosSpec`] may draw from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// Kill a switch, then boot a pristine replacement a few seconds
    /// later ([`Fault::KillSwitch`] + [`Fault::ReviveSwitch`]).
    KillRevive,
    /// Take a link down, bring it back up ([`Fault::LinkDown`] +
    /// [`Fault::LinkUp`]).
    LinkFlap,
    /// A sustained-loss window on a link (10–90 % frame drop, then
    /// heal; [`Fault::LinkLoss`]).
    LinkLoss,
    /// Stall the controller's OpenFlow channel to one switch
    /// ([`Fault::ChannelStall`]).
    ChannelStall,
}

/// A seeded random-fault-schedule generator. `generate` is a pure
/// function of `(spec, topology)`: the same seed always draws the
/// identical schedule, which is what makes a chaos campaign (and any
/// shrunken repro of it) replayable byte for byte.
///
/// Schedules are topology-aware by construction — node and edge
/// indices are drawn from the live topology, never out of range — and
/// survivability-constrained: protected nodes are never killed, and
/// with `keep_connected` no draw may disconnect the surviving graph
/// (so "the network routes around it" stays a checkable claim).
#[derive(Clone, Debug)]
pub struct ChaosSpec {
    /// Seed of the draw; the whole schedule is a function of it.
    pub seed: u64,
    /// Maximum faults drawn (a draw with no valid target is skipped,
    /// so the schedule may come out shorter).
    pub budget: usize,
    /// Fault families to draw from (uniformly).
    pub classes: Vec<FaultClass>,
    /// Window of simulated time fault onsets are drawn from. Recovery
    /// actions (revive, link-up, loss-clear, stall-end) are clamped to
    /// the window's end, so after `horizon.end` no disturbance remains
    /// and the network is expected to fully heal.
    pub horizon: Range<Duration>,
    /// Nodes that must never be killed (workload endpoints, a
    /// designated "controller-attachment" switch, …).
    pub protect: Vec<usize>,
    /// Refuse draws that would disconnect the graph of alive nodes and
    /// administratively-up links.
    pub keep_connected: bool,
}

impl ChaosSpec {
    /// Small default: every fault class, 4-fault budget, onsets in
    /// 30–60 s.
    pub fn smoke(seed: u64) -> ChaosSpec {
        ChaosSpec {
            seed,
            budget: 4,
            classes: vec![
                FaultClass::KillRevive,
                FaultClass::LinkFlap,
                FaultClass::LinkLoss,
                FaultClass::ChannelStall,
            ],
            horizon: Duration::from_secs(30)..Duration::from_secs(60),
            protect: Vec::new(),
            keep_connected: true,
        }
    }

    /// Campaign default: every fault class, 8-fault budget, onsets in
    /// 30–75 s (overlapping windows are routine at this density).
    pub fn full(seed: u64) -> ChaosSpec {
        ChaosSpec {
            budget: 8,
            horizon: Duration::from_secs(30)..Duration::from_secs(75),
            ..ChaosSpec::smoke(seed)
        }
    }

    /// Draw this spec's schedule over `topo`. Pure and deterministic;
    /// the schedule's name (`chaos-s<seed>`) carries the seed, so cell
    /// keys stay unique per draw.
    pub fn generate(&self, topo: &Topology) -> FaultSchedule {
        assert!(self.horizon.start < self.horizon.end, "empty horizon");
        assert!(!self.classes.is_empty(), "no fault classes");
        let nodes = topo.node_count();
        let edges = topo.edges();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let start_ms = self.horizon.start.as_millis() as u64;
        let end_ms = self.horizon.end.as_millis() as u64;

        // Onsets first, in time order, so the survivability state can
        // be tracked forward through the draw.
        let mut onsets: Vec<u64> = (0..self.budget)
            .map(|_| rng.gen_range(start_ms..end_ms))
            .collect();
        onsets.sort_unstable();

        let mut alive = vec![true; nodes];
        let mut up = vec![true; edges.len()];
        // Recoveries already emitted but not yet in effect at the
        // current onset: (when_ms, what).
        enum Heal {
            Revive(usize),
            LinkUp(usize),
        }
        let mut healing: Vec<(u64, Heal)> = Vec::new();
        let mut faults: Vec<Fault> = Vec::new();

        // Does the graph of alive nodes / up edges stay connected if
        // `drop_node` dies or `drop_edge` goes down?
        let connected_without =
            |alive: &[bool], up: &[bool], drop_node: Option<usize>, drop_edge: Option<usize>| {
                let ok_node = |n: usize| alive[n] && Some(n) != drop_node;
                let Some(src) = (0..nodes).find(|&n| ok_node(n)) else {
                    return true;
                };
                let dist = masked_distances(topo, src, ok_node, |e| up[e] && Some(e) != drop_edge);
                (0..nodes).all(|n| !ok_node(n) || dist[n] != usize::MAX)
            };

        for t in onsets {
            // Apply recoveries that have come into effect by now.
            healing.sort_by_key(|(at, _)| *at);
            while healing.first().is_some_and(|(at, _)| *at <= t) {
                match healing.remove(0).1 {
                    Heal::Revive(n) => alive[n] = true,
                    Heal::LinkUp(e) => up[e] = true,
                }
            }
            let at = Duration::from_millis(t);
            let class = self.classes[rng.gen_range(0..self.classes.len())];
            match class {
                FaultClass::KillRevive => {
                    let cands: Vec<usize> = (0..nodes)
                        .filter(|&n| {
                            alive[n]
                                && !self.protect.contains(&n)
                                && (!self.keep_connected
                                    || connected_without(&alive, &up, Some(n), None))
                        })
                        .collect();
                    if cands.is_empty() {
                        continue;
                    }
                    let node = cands[rng.gen_range(0..cands.len())];
                    let rev = (t + 3_000 + rng.gen_range(0..10_000u64)).min(end_ms);
                    if rev <= t {
                        continue;
                    }
                    faults.push(Fault::KillSwitch { node, at });
                    faults.push(Fault::ReviveSwitch {
                        node,
                        at: Duration::from_millis(rev),
                    });
                    alive[node] = false;
                    healing.push((rev, Heal::Revive(node)));
                }
                FaultClass::LinkFlap => {
                    let cands: Vec<usize> = (0..edges.len())
                        .filter(|&e| {
                            up[e]
                                && alive[edges[e].a]
                                && alive[edges[e].b]
                                && (!self.keep_connected
                                    || connected_without(&alive, &up, None, Some(e)))
                        })
                        .collect();
                    if cands.is_empty() {
                        continue;
                    }
                    let edge = cands[rng.gen_range(0..cands.len())];
                    let back = (t + 2_000 + rng.gen_range(0..8_000u64)).min(end_ms);
                    if back <= t {
                        continue;
                    }
                    faults.push(Fault::LinkDown { edge, at });
                    faults.push(Fault::LinkUp {
                        edge,
                        at: Duration::from_millis(back),
                    });
                    up[edge] = false;
                    healing.push((back, Heal::LinkUp(edge)));
                }
                FaultClass::LinkLoss => {
                    let cands: Vec<usize> = (0..edges.len())
                        .filter(|&e| up[e] && alive[edges[e].a] && alive[edges[e].b])
                        .collect();
                    if cands.is_empty() {
                        continue;
                    }
                    let edge = cands[rng.gen_range(0..cands.len())];
                    let loss_pct = 10.0 * (1 + rng.gen_range(0..9u32)) as f64;
                    let heal = (t + 2_000 + rng.gen_range(0..8_000u64)).min(end_ms);
                    if heal <= t {
                        continue;
                    }
                    faults.push(Fault::LinkLoss { edge, loss_pct, at });
                    faults.push(Fault::LinkLoss {
                        edge,
                        loss_pct: 0.0,
                        at: Duration::from_millis(heal),
                    });
                }
                FaultClass::ChannelStall => {
                    let cands: Vec<usize> = (0..nodes).filter(|&n| alive[n]).collect();
                    if cands.is_empty() {
                        continue;
                    }
                    let node = cands[rng.gen_range(0..cands.len())];
                    let until = (t + 1_000 + rng.gen_range(0..5_000u64)).min(end_ms);
                    if until <= t {
                        continue;
                    }
                    faults.push(Fault::ChannelStall {
                        dpid: (node + 1) as u64,
                        from: at,
                        until: Duration::from_millis(until),
                    });
                }
            }
        }

        FaultSchedule::new(format!("chaos-s{}", self.seed), faults)
    }
}

/// Serialize one fault as a JSON object (durations in integer
/// nanoseconds — the repro format must be byte-stable).
pub fn fault_to_json(f: &Fault) -> Json {
    let ns = |d: Duration| Json::Int(d.as_nanos() as i64);
    match *f {
        Fault::KillSwitch { node, at } => Json::obj([
            ("kind".into(), Json::Str("kill_switch".into())),
            ("node".into(), Json::Int(node as i64)),
            ("at_ns".into(), ns(at)),
        ]),
        Fault::ReviveSwitch { node, at } => Json::obj([
            ("kind".into(), Json::Str("revive_switch".into())),
            ("node".into(), Json::Int(node as i64)),
            ("at_ns".into(), ns(at)),
        ]),
        Fault::LinkDown { edge, at } => Json::obj([
            ("kind".into(), Json::Str("link_down".into())),
            ("edge".into(), Json::Int(edge as i64)),
            ("at_ns".into(), ns(at)),
        ]),
        Fault::LinkUp { edge, at } => Json::obj([
            ("kind".into(), Json::Str("link_up".into())),
            ("edge".into(), Json::Int(edge as i64)),
            ("at_ns".into(), ns(at)),
        ]),
        Fault::LinkLoss { edge, loss_pct, at } => Json::obj([
            ("kind".into(), Json::Str("link_loss".into())),
            ("edge".into(), Json::Int(edge as i64)),
            // Tenths of a percent keep the format integer-only.
            (
                "loss_pct_x10".into(),
                Json::Int((loss_pct * 10.0).round() as i64),
            ),
            ("at_ns".into(), ns(at)),
        ]),
        Fault::ChannelStall { dpid, from, until } => Json::obj([
            ("kind".into(), Json::Str("channel_stall".into())),
            ("dpid".into(), Json::Int(dpid as i64)),
            ("from_ns".into(), ns(from)),
            ("until_ns".into(), ns(until)),
        ]),
    }
}

/// Parse a fault back out of its [`fault_to_json`] form. A negative
/// instant, node, edge or dpid is refused, naming its field.
pub fn fault_from_json(j: &Json) -> Result<Fault, String> {
    let geti = |k: &str| {
        j.get(k)
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("fault missing integer field {k:?}"))
    };
    // Every integer field but the loss counts something or names an
    // instant, so none may be negative.
    let natural = |k: &str| {
        let v = geti(k)?;
        u64::try_from(v).map_err(|_| format!("fault field {k:?} is negative ({v})"))
    };
    let instant = |k: &str| natural(k).map(Duration::from_nanos);
    let index = |k: &str| natural(k).map(|v| v as usize);
    let kind = j
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("fault missing kind")?;
    Ok(match kind {
        "kill_switch" => Fault::KillSwitch {
            node: index("node")?,
            at: instant("at_ns")?,
        },
        "revive_switch" => Fault::ReviveSwitch {
            node: index("node")?,
            at: instant("at_ns")?,
        },
        "link_down" => Fault::LinkDown {
            edge: index("edge")?,
            at: instant("at_ns")?,
        },
        "link_up" => Fault::LinkUp {
            edge: index("edge")?,
            at: instant("at_ns")?,
        },
        "link_loss" => Fault::LinkLoss {
            edge: index("edge")?,
            loss_pct: geti("loss_pct_x10")? as f64 / 10.0,
            at: instant("at_ns")?,
        },
        "channel_stall" => Fault::ChannelStall {
            dpid: natural("dpid")?,
            from: instant("from_ns")?,
            until: instant("until_ns")?,
        },
        other => return Err(format!("unknown fault kind {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_in_range() {
        let topo = rf_topo::ring(8);
        let spec = ChaosSpec::full(42);
        let a = spec.generate(&topo);
        let b = spec.generate(&topo);
        assert_eq!(format!("{:?}", a.faults), format!("{:?}", b.faults));
        assert!(!a.faults.is_empty(), "full spec should draw something");
        Fault::validate_schedule(&a.faults, topo.node_count(), topo.edge_count())
            .expect("generated schedules are valid by construction");
        // Different seeds draw different schedules.
        let c = ChaosSpec::full(43).generate(&topo);
        assert_ne!(format!("{:?}", a.faults), format!("{:?}", c.faults));
        assert_ne!(a.name, c.name);
    }

    #[test]
    fn protected_nodes_are_never_killed() {
        let topo = rf_topo::ring(6);
        for seed in 0..20 {
            let spec = ChaosSpec {
                protect: vec![0, 3],
                ..ChaosSpec::full(seed)
            };
            for f in &spec.generate(&topo).faults {
                if let Fault::KillSwitch { node, .. } = f {
                    assert!(*node != 0 && *node != 3, "seed {seed} killed {node}");
                }
            }
        }
    }

    #[test]
    fn every_kill_has_a_revive() {
        let topo = rf_topo::ring(8);
        for seed in 0..20 {
            let sched = ChaosSpec::full(seed).generate(&topo);
            for f in &sched.faults {
                if let Fault::KillSwitch { node, at } = f {
                    assert!(
                        sched.faults.iter().any(|g| matches!(
                            g,
                            Fault::ReviveSwitch { node: n, at: rev } if n == node && rev > at
                        )),
                        "seed {seed}: kill of {node} has no later revive"
                    );
                }
            }
        }
    }

    #[test]
    fn fault_json_round_trips() {
        let faults = vec![
            Fault::KillSwitch {
                node: 3,
                at: Duration::from_millis(30_500),
            },
            Fault::ReviveSwitch {
                node: 3,
                at: Duration::from_secs(40),
            },
            Fault::LinkDown {
                edge: 7,
                at: Duration::from_secs(31),
            },
            Fault::LinkUp {
                edge: 7,
                at: Duration::from_secs(35),
            },
            Fault::LinkLoss {
                edge: 2,
                loss_pct: 40.0,
                at: Duration::from_secs(33),
            },
            Fault::ChannelStall {
                dpid: 2,
                from: Duration::from_secs(30),
                until: Duration::from_secs(36),
            },
        ];
        for f in &faults {
            let j = fault_to_json(f);
            let back = fault_from_json(&Json::parse(&j.render()).unwrap()).unwrap();
            assert_eq!(format!("{f:?}"), format!("{back:?}"));
        }
    }
}
