//! The four fixed-work workloads, and the small fixed grids the layer
//! probes run.
//!
//! Every grid is spelled out here from public `MatrixSpec`,
//! `MatrixKnob`, `FaultSchedule` and `TrafficSpec` fields. None
//! borrows `MatrixSpec::corpus()`, `::full()` or any other preset of
//! the program, whose contents later changes may alter: a benchmark
//! whose work changes with the program cannot compare two versions of
//! it. Sizes come from measurements on a 2-core host: one
//! single-threaded pass over a grid takes 1.3–2.2 s there, so a
//! 20-second run takes the median of eight or more passes.

use crate::adapter::{
    FaultSchedule, FlowSize, MatrixKnob, MatrixSpec, MatrixWorkload, TrafficSpec,
};
use std::time::Duration;

/// Seed the published digests and reference numbers were taken at.
pub const DEFAULT_SEED: u64 = 1;

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// Timed passes go through the checkpoint/fork executor.
    pub forked: bool,
    /// How many consecutive cell seeds, starting at `--seed`, the grid
    /// sweeps.
    pub seeds: u64,
    /// FNV-1a of the report at [`DEFAULT_SEED`] (`rfbench --bless`
    /// rewrites the file).
    pub expected_digest: &'static str,
    grid: fn() -> MatrixSpec,
}

impl Workload {
    /// The full grid at cell seeds `seed, seed + 1, …`.
    pub fn spec(&self, seed: u64) -> MatrixSpec {
        MatrixSpec {
            seeds: (seed..seed + self.seeds).collect(),
            ..(self.grid)()
        }
    }

    /// The seed-`seed` slice of the grid: what the untimed warm-up
    /// pass runs.
    pub fn warmup_spec(&self, seed: u64) -> MatrixSpec {
        MatrixSpec {
            seeds: vec![seed],
            ..(self.grid)()
        }
    }
}

pub const ALL: [Workload; 4] = [
    Workload {
        name: "autoconf_corpus",
        why:
            "cold start to all-green on 51 WAN, fabric and random topologies: discovery, RPC/VM \
              lifecycle, OSPF flooding, SPF, FLOW_MOD push; control-plane bound, 51 distinct builds",
        forked: false,
        seeds: 1,
        expected_digest: include_str!("../expected/autoconf_corpus.digest"),
        grid: autoconf_corpus,
    },
    Workload {
        name: "fault_fork",
        why: "6 topologies x 6 fault schedules x 2 knobs through checkpoint/fork: snapshot clone \
              cost, OSPF reconvergence, FLOW_MOD delete/add, SPF recompute, channel deferral",
        forked: true,
        seeds: 1,
        expected_digest: include_str!("../expected/fault_fork.digest"),
        grid: fault_fork,
    },
    Workload {
        name: "traffic_packet",
        why: "packet-level Poisson, incast and multicast load on 4 converged topologies: kernel \
              dispatch, link delivery, wire parse, flow-table lookups; data-plane bound",
        forked: false,
        seeds: 1,
        expected_digest: include_str!("../expected/traffic_packet.digest"),
        grid: || traffic(false),
    },
    Workload {
        name: "traffic_flow",
        why: "the same offered load at flow level on 6 seeds: water-filling and the bare kernel \
              do the work, so a datapath or codec change must show no change here",
        forked: false,
        seeds: 6,
        expected_digest: include_str!("../expected/traffic_flow.digest"),
        grid: || traffic(true),
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

fn secs(s: u64) -> Duration {
    Duration::from_secs(s)
}

fn names(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// The wide-pipeline fast-timer knob the corpus and traffic grids use.
fn fast_k8b16(name: &str) -> MatrixKnob {
    MatrixKnob::fast(name)
        .with_provision_width(8)
        .with_fib_batch(16)
}

/// The 44 checked-in WAN shapes plus one of every parametric family.
/// `leaf-spine-8x16x0` alone is a third of the pass at a quarter of
/// the event rate of the rest, so superlinear OSPF/SPF cost shows;
/// `fat-tree-k8` and `waxman-32-s7` (3.6 s and 1.9 s per cell) would
/// each be most of a pass and are left to the SPF probes.
fn autoconf_corpus() -> MatrixSpec {
    let mut topologies = names(&rf_topo::corpus::names());
    topologies.extend(names(&[
        "ring-16",
        "grid-8x8",
        "pan-european",
        "fat-tree-k4",
        "leaf-spine-4x8x0",
        "leaf-spine-8x16x0",
        "er-32-s7",
    ]));
    MatrixSpec {
        seeds: Vec::new(),
        topologies,
        schedules: vec![FaultSchedule::none()],
        knobs: vec![fast_k8b16("fast-k8b16")],
        configure_deadline: secs(900),
        post_fault_window: secs(45),
        settle: secs(10),
    }
}

/// Every fault kind the scenario layer knows, all first firing at
/// 60 s — after the slowest prefix (pan-european, serial provisioning)
/// has converged at 28 s, so every cell forks.
fn fault_schedules() -> Vec<FaultSchedule> {
    vec![
        FaultSchedule::none(),
        FaultSchedule::kill_switch(1, secs(60)),
        FaultSchedule::kill_revive(1, secs(60), secs(80)),
        FaultSchedule::link_flap(0, secs(60), secs(10), 3),
        FaultSchedule::channel_stall(2, secs(60), secs(90)),
        FaultSchedule::link_loss(0, 30.0, secs(60)..secs(90)),
    ]
}

fn fault_fork() -> MatrixSpec {
    MatrixSpec {
        seeds: Vec::new(),
        topologies: names(&[
            "ring-8",
            "ring-16",
            "grid-4x4",
            "pan-european",
            "geant",
            "abilene",
        ]),
        schedules: fault_schedules(),
        knobs: vec![MatrixKnob::fast("fast"), fast_k8b16("fast-k8b16")],
        configure_deadline: secs(300),
        post_fault_window: secs(45),
        settle: secs(10),
    }
}

/// Offered load starts at 15 s (every topology here is green by 4 s
/// and routed well before 15 s) and lasts 20 s.
fn traffic_window(spec: TrafficSpec, flow_level: bool) -> TrafficSpec {
    let spec = spec.window(secs(15), secs(20));
    if flow_level {
        spec.flow_level()
    } else {
        spec
    }
}

/// Request/response, SCDP-style incast and multicast fan-out. The two
/// traffic workloads use the same knob names, so a cell has the same
/// key at both granularities and their offered bytes compare by key.
fn traffic_knobs(flow_level: bool) -> Vec<MatrixKnob> {
    let knob = |name: &str, spec: TrafficSpec| {
        fast_k8b16(name).with_traffic(traffic_window(spec, flow_level))
    };
    vec![
        knob(
            "rr",
            TrafficSpec::poisson(8, 20.0, FlowSize::pareto(2_000, 200_000)),
        ),
        knob(
            "incast",
            TrafficSpec::incast(8, FlowSize::fixed(200_000), secs(2), 10),
        ),
        knob("mcast", TrafficSpec::multicast(6, 4_000_000)),
    ]
}

fn traffic(flow_level: bool) -> MatrixSpec {
    MatrixSpec {
        seeds: Vec::new(),
        topologies: names(&["ring-16", "fat-tree-k4", "leaf-spine-4x8x0", "geant"]),
        schedules: vec![FaultSchedule::none()],
        knobs: traffic_knobs(flow_level),
        configure_deadline: secs(300),
        post_fault_window: secs(45),
        settle: secs(10),
    }
}

/// The flow-level twin of a packet-level traffic grid: same
/// topologies, seeds, shapes and knob names.
pub fn flow_twin(spec: &MatrixSpec) -> MatrixSpec {
    let mut twin = spec.clone();
    for knob in &mut twin.knobs {
        if let MatrixWorkload::Traffic(ref mut traffic) = knob.workload {
            *traffic = traffic.clone().flow_level();
        }
    }
    twin
}

/// Probe grid for the fork and thread ratios: small enough to run
/// cold and forked in every traced run, with every fault kind.
pub fn fork_probe(seed: u64) -> MatrixSpec {
    MatrixSpec {
        seeds: vec![seed],
        topologies: names(&["ring-8", "grid-4x4", "abilene"]),
        schedules: fault_schedules(),
        knobs: vec![MatrixKnob::fast("fast")],
        configure_deadline: secs(300),
        post_fault_window: secs(45),
        settle: secs(10),
    }
}

/// One request/response cell per topology, at either granularity: the
/// per-event cost probes of the traffic engine, and (packet level) the
/// cells the partition probe steps on the parallel kernel.
pub fn traffic_probe(seed: u64, topologies: &[&str], flow_level: bool) -> MatrixSpec {
    MatrixSpec {
        seeds: vec![seed],
        topologies: names(topologies),
        schedules: vec![FaultSchedule::none()],
        knobs: traffic_knobs(flow_level).into_iter().take(1).collect(),
        configure_deadline: secs(300),
        post_fault_window: secs(45),
        settle: secs(10),
    }
}

/// Cold start on three topologies with or without FlowVisor in the
/// control path.
pub fn flowvisor_probe(seed: u64, with_flowvisor: bool) -> MatrixSpec {
    let knob = if with_flowvisor {
        fast_k8b16("fv")
    } else {
        fast_k8b16("direct").without_flowvisor()
    };
    MatrixSpec {
        seeds: vec![seed],
        topologies: names(&["ring-16", "pan-european", "geant"]),
        schedules: vec![FaultSchedule::none()],
        knobs: vec![knob],
        configure_deadline: secs(300),
        post_fault_window: secs(45),
        settle: secs(10),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_the_documented_shape() {
        let cells = |name: &str| by_name(name).unwrap().spec(DEFAULT_SEED).cells().len();
        assert_eq!(cells("autoconf_corpus"), 51);
        assert_eq!(cells("fault_fork"), 6 * 6 * 2);
        assert_eq!(cells("traffic_packet"), 4 * 3);
        assert_eq!(cells("traffic_flow"), 4 * 3 * 6);
    }

    #[test]
    fn cell_seeds_count_up_from_the_given_seed() {
        let flow = by_name("traffic_flow").unwrap();
        assert_eq!(flow.spec(7).seeds, vec![7, 8, 9, 10, 11, 12]);
        assert_eq!(flow.warmup_spec(7).seeds, vec![7]);
    }

    #[test]
    fn traffic_twins_share_cell_keys_and_differ_only_in_granularity() {
        let packet = by_name("traffic_packet").unwrap().spec(3);
        let flow = flow_twin(&packet);
        let keys = |s: &MatrixSpec| s.cells().iter().map(|c| c.key()).collect::<Vec<_>>();
        assert_eq!(keys(&packet), keys(&flow));
        for (p, f) in packet.knobs.iter().zip(&flow.knobs) {
            let (MatrixWorkload::Traffic(p), MatrixWorkload::Traffic(f)) =
                (&p.workload, &f.workload)
            else {
                panic!("traffic knobs carry traffic workloads");
            };
            assert_ne!(p.mode, f.mode);
            assert_eq!(p.clone().flow_level(), f.clone());
        }
    }

    #[test]
    fn every_topology_name_parses() {
        for w in &ALL {
            for name in &w.spec(DEFAULT_SEED).topologies {
                assert!(
                    name.parse::<rf_topo::TopoSpec>().is_ok(),
                    "{}: {name}",
                    w.name
                );
            }
        }
    }
}
