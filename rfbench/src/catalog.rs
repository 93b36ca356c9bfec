//! Every metric the benchmark reports, in one table: name, unit,
//! direction, regression bound (end to end) or layer (per layer), and
//! what it measures. `BENCHMARK.json` is rendered from this table and a
//! test keeps the checked-in file equal to it.

use crate::workloads;
use std::fmt::Write as _;

/// Seconds one run measures for; `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

/// Fresh processes whose set-up `setup_s` and `peak_rss_mb` are the
/// median of (the timed run's own process is one of them).
pub const SETUP_SAMPLES: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a person running sweeps sees. `bound` is the share of the
/// parent's median by which it may worsen before a change is a
/// regression; each is at least three times the widest quartile spread
/// measured over ten seeds on the reference host (README). Host times
/// are stated at the reference host speed (`hostcal`): as measured,
/// that shared host's speed moves by up to 1.45x for minutes at a time,
/// which no statistic inside one run removes.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "process start to first timed instant, at reference host speed: corpus parse, \
               spec expansion, ScenarioMatrix::new and one warm-up pass over the first seed's \
               cells; median of three fresh processes",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
        what: "median time of one single-threaded pass over the whole grid, at reference host \
               speed: measured seconds x reference / measured cost of the calibration steps \
               run between the pass's cells",
    },
    EndToEnd {
        name: "events_per_sec",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
        what: "kernel events of one pass (deterministic) / wall_s",
    },
    EndToEnd {
        name: "cells_per_sec",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
        what: "cells / wall_s: what gates grid size",
    },
    EndToEnd {
        name: "sim_s_per_wall_s",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.15,
        what: "simulated seconds covered by all cells / wall_s; stays honest if a change \
               removes events",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        what: "VmHWM of a fresh process at the end of set-up, i.e. after one pass over the first \
               seed's cells, less the calibrator's own 0.3 MiB; median of the same three processes",
    },
    EndToEnd {
        name: "config_time_sim_s",
        unit: "sim_s",
        better: Better::Lower,
        bound: 0.01,
        what: "median simulated time to all-green over cells (the paper's Fig. 3 y-axis); a \
               simulator-only change leaves it identical",
    },
    EndToEnd {
        name: "ok_cell_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
        what: "checks passed / checks attempted (cells built, configured, fork == cold, \
               packet == flow offered bytes, pass == pass); 1 unless something broke",
    },
];

/// A metric of one layer of the program. No bound: these explain an
/// end-to-end movement, they do not gate.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub layer: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

use Better::{Higher, Lower};

const KERNEL: &str = "events_per_sec on all four; most on traffic_flow, then fault_fork";
const PARTITION: &str = "none: all four workloads run serial; noisy on 2 cores";
const WIRE: &str = "events_per_sec on traffic_packet; LLDP wall_s on autoconf_corpus";
const OPENFLOW: &str = "wall_s on autoconf_corpus and fault_fork; none on traffic_*";
const SWITCH_READ: &str = "events_per_sec on traffic_packet; none on traffic_flow";
const SWITCH_WRITE: &str = "wall_s on autoconf_corpus and fault_fork";
const ROUTED: &str = "wall_s on autoconf_corpus (leaf-spine-8x16x0) and fault_fork";
const RPC: &str = "wall_s and config_time_sim_s on autoconf_corpus only";
const DISCOVERY: &str = "wall_s on autoconf_corpus; steady probing on fault_fork";
const APPS: &str = "wall_s on autoconf_corpus; deferral on fault_fork";
const SCENARIO: &str = "setup_s and wall_s on autoconf_corpus";
const FORK: &str = "wall_s and peak_rss_mb on fault_fork only";
const TRAFFIC: &str = "packet on traffic_packet, flow on traffic_flow";
const MATRIX: &str = "none: timed passes are single-threaded";
const TOPO: &str = "setup_s on autoconf_corpus";

pub const PER_LAYER: [PerLayer; 70] = [
    layer("rf_sim", "sim.timer_event_ns", "ns", Lower, KERNEL),
    layer("rf_sim", "sim.queue_push_pop_ns", "ns", Lower, KERNEL),
    layer("rf_sim", "sim.frame_delivery_ns", "ns", Lower, KERNEL),
    layer("rf_sim", "sim.stream_delivery_ns", "ns", Lower, KERNEL),
    layer("rf_sim", "sim.events", "count", Lower, KERNEL),
    layer("rf_sim", "sim.link_tx_frames", "count", Lower, KERNEL),
    layer("rf_sim", "sim.link_tx_bytes", "count", Lower, KERNEL),
    layer("rf_sim", "sim.conn_tx_bytes", "count", Lower, KERNEL),
    layer(
        "rf_sim::partition",
        "sim.partition_speedup_x",
        "ratio",
        Higher,
        PARTITION,
    ),
    layer(
        "rf_sim::partition",
        "sim.partition_windows",
        "count",
        Lower,
        PARTITION,
    ),
    layer(
        "rf_sim::partition",
        "sim.partition_cross_events",
        "count",
        Lower,
        PARTITION,
    ),
    layer(
        "rf_sim::partition",
        "sim.partition_serial_fallbacks",
        "count",
        Lower,
        PARTITION,
    ),
    layer("rf_wire", "wire.parse_udp_frame_ns", "ns", Lower, WIRE),
    layer("rf_wire", "wire.build_udp_frame_ns", "ns", Lower, WIRE),
    layer("rf_wire", "wire.lldp_parse_ns", "ns", Lower, WIRE),
    layer(
        "rf_openflow",
        "openflow.encode_flow_mod_ns",
        "ns",
        Lower,
        OPENFLOW,
    ),
    layer(
        "rf_openflow",
        "openflow.decode_flow_mod_ns",
        "ns",
        Lower,
        OPENFLOW,
    ),
    layer(
        "rf_openflow",
        "openflow.decode_packet_in_ns",
        "ns",
        Lower,
        OPENFLOW,
    ),
    layer(
        "rf_openflow",
        "openflow.encode_batch16_ns",
        "ns",
        Lower,
        OPENFLOW,
    ),
    layer(
        "rf_openflow",
        "openflow.msgs_sent",
        "count",
        Lower,
        OPENFLOW,
    ),
    layer(
        "rf_openflow",
        "openflow.bytes_sent",
        "count",
        Lower,
        OPENFLOW,
    ),
    layer("rf_openflow", "openflow.pushes", "count", Lower, OPENFLOW),
    layer(
        "rf_switch",
        "switch.lookup_hit_ns_64",
        "ns",
        Lower,
        SWITCH_READ,
    ),
    layer(
        "rf_switch",
        "switch.lookup_hit_ns_1024",
        "ns",
        Lower,
        SWITCH_READ,
    ),
    layer(
        "rf_switch",
        "switch.lookup_miss_ns_1024",
        "ns",
        Lower,
        SWITCH_READ,
    ),
    layer(
        "rf_switch",
        "switch.apply_actions_ns",
        "ns",
        Lower,
        SWITCH_READ,
    ),
    layer(
        "rf_switch",
        "switch.flow_mod_add_ns",
        "ns",
        Lower,
        SWITCH_WRITE,
    ),
    layer(
        "rf_switch",
        "switch.flow_mod_delete_ns",
        "ns",
        Lower,
        SWITCH_WRITE,
    ),
    layer(
        "rf_switch",
        "switch.flows_installed",
        "count",
        Lower,
        SWITCH_WRITE,
    ),
    layer(
        "rf_switch",
        "switch.flows_removed",
        "count",
        Lower,
        SWITCH_WRITE,
    ),
    layer(
        "rf_switch",
        "switch.punt_ratio",
        "ratio",
        Lower,
        SWITCH_READ,
    ),
    layer("rf_routed", "routed.spf_ns_ring64", "ns", Lower, ROUTED),
    layer(
        "rf_routed",
        "routed.spf_ns_fat_tree_k8",
        "ns",
        Lower,
        ROUTED,
    ),
    layer("rf_routed", "routed.adjacency_pair_us", "us", Lower, ROUTED),
    layer("rf_routed", "routed.rib_replace_ns", "ns", Lower, ROUTED),
    layer("rf_rpc", "rpc.roundtrip_ns", "ns", Lower, RPC),
    layer("rf_rpc", "rpc.sent", "count", Lower, RPC),
    layer("rf_vnet", "vnet.configs_written", "count", Lower, RPC),
    layer(
        "rf_discovery",
        "discovery.lldp_out",
        "count",
        Lower,
        DISCOVERY,
    ),
    layer(
        "rf_discovery",
        "discovery.lldp_in",
        "count",
        Lower,
        DISCOVERY,
    ),
    layer(
        "rf_flowvisor",
        "flowvisor.packet_in",
        "count",
        Lower,
        DISCOVERY,
    ),
    layer("rf_flowvisor", "flowvisor.cost_pct", "%", Lower, DISCOVERY),
    layer("rf_core::apps", "apps.fib_batches", "count", Lower, APPS),
    layer("rf_core::apps", "apps.of_deferred", "count", Lower, APPS),
    layer("rf_core::apps", "apps.of_queue_hwm", "count", Lower, APPS),
    layer("rf_core::apps", "apps.arp_replies", "count", Lower, APPS),
    layer(
        "rf_core::scenario",
        "scenario.build_us",
        "us",
        Lower,
        SCENARIO,
    ),
    layer(
        "rf_core::scenario",
        "scenario.converge_s",
        "s",
        Lower,
        SCENARIO,
    ),
    layer(
        "rf_core::scenario",
        "scenario.steady_s",
        "s",
        Lower,
        SCENARIO,
    ),
    layer(
        "rf_core::scenario",
        "scenario.finish_us",
        "us",
        Lower,
        SCENARIO,
    ),
    layer(
        "rf_core::scenario",
        "scenario.snapshot_us",
        "us",
        Lower,
        FORK,
    ),
    layer("rf_core::scenario", "scenario.fork_us", "us", Lower, FORK),
    layer(
        "rf_core::scenario",
        "scenario.fork_speedup_x",
        "ratio",
        Higher,
        FORK,
    ),
    layer(
        "rf_core::scenario",
        "scenario.forked_cells",
        "count",
        Higher,
        FORK,
    ),
    layer(
        "rf_core::traffic",
        "traffic.packet_ns_per_event",
        "ns",
        Lower,
        TRAFFIC,
    ),
    layer(
        "rf_core::traffic",
        "traffic.flow_ns_per_event",
        "ns",
        Lower,
        TRAFFIC,
    ),
    layer(
        "rf_core::traffic",
        "traffic.offered_bytes",
        "count",
        Higher,
        TRAFFIC,
    ),
    layer(
        "rf_core::traffic",
        "traffic.delivered_bytes",
        "count",
        Higher,
        TRAFFIC,
    ),
    layer(
        "rf_core::traffic",
        "traffic.flows_completed",
        "count",
        Higher,
        TRAFFIC,
    ),
    layer(
        "rf_core::traffic",
        "traffic.fct_p50_sim_ms",
        "sim_ms",
        Lower,
        TRAFFIC,
    ),
    layer(
        "rf_core::scenario::matrix",
        "matrix.thread_speedup_x",
        "ratio",
        Higher,
        MATRIX,
    ),
    layer(
        "rf_core::scenario::matrix",
        "matrix.cell_wall_ms_p50",
        "ms",
        Lower,
        MATRIX,
    ),
    layer(
        "rf_core::scenario::matrix",
        "matrix.cell_wall_ms_tail",
        "ms",
        Lower,
        MATRIX,
    ),
    layer(
        "rf_core::scenario::matrix",
        "matrix.cell_wall_tail_pct",
        "%",
        Higher,
        MATRIX,
    ),
    layer(
        "rf_core::scenario::matrix",
        "matrix.cell_wall_samples",
        "count",
        Higher,
        MATRIX,
    ),
    layer("rf_topo", "topo.corpus_load_ms", "ms", Lower, TOPO),
    layer("rf_topo", "topo.build_fat_tree_k8_us", "us", Lower, TOPO),
    layer("trace", "trace.overhead_pct", "%", Lower, "none"),
    layer("trace", "trace.spans", "count", Lower, "none"),
    layer("trace", "trace.self_time_gap_pct", "%", Lower, "none"),
];

/// The exact text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--offline\", \"--release\", \"--quiet\", \
         \"--manifest-path\", \"rfbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"rfbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in workloads::ALL.iter().enumerate() {
        let sep = if i + 1 == workloads::ALL.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid(n, 64, "_.-"), "bad name {n:?}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "names must be unique");
    }

    #[test]
    fn units_whys_and_bounds_fit_the_contract() {
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(valid(u, 16, "_/%.-"), "bad unit {u:?}");
        }
        for w in &workloads::ALL {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(!w.why.contains('"') && !w.why.contains('\\'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn checked_in_benchmark_json_matches_the_catalogue() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with: rfbench --emit-benchmark-json > BENCHMARK.json"
        );
    }
}
