//! Workspace tests for the stochastic traffic engine: the determinism
//! contract over stochastic cells (identical `MatrixReport` bytes at
//! any worker-thread count), seed behaviour (same seed reproduces the
//! exact report, different seeds diverge), flow-level vs packet-level
//! agreement on small topologies, the typed builder errors that
//! replace the old workload `assert!`s, and the guard on the shape of
//! flow entries the switch datapath is built around.

use rf_core::scenario::{
    FaultSchedule, MatrixKnob, MatrixSpec, Scenario, ScenarioMatrix, Workload, WorkloadReport,
};
use rf_core::traffic::{FlowSize, TrafficReport, TrafficSpec, WorkloadError};
use rf_openflow::{Action, OFPP_CONTROLLER};
use rf_sim::{LinkProfile, Time};
use rf_switch::OpenFlowSwitch;
use rf_topo::{ring, star, Topology};
use std::time::Duration;

/// 20 Mbps access links: one 1098-byte data chunk serializes in
/// ~439 µs, so congestion — not propagation — dominates flow timing.
/// That is the regime where the fluid model's max-min share is the
/// interesting claim to check against the packet-level truth.
fn slow_links() -> LinkProfile {
    LinkProfile {
        bandwidth_bps: 20_000_000,
        ..LinkProfile::default()
    }
}

/// Run `spec` as the sole workload on `topo` and harvest its report.
fn run_traffic(
    topo: Topology,
    seed: u64,
    spec: &TrafficSpec,
    profile: LinkProfile,
) -> TrafficReport {
    let workload = Workload::traffic(spec.clone(), &topo).expect("spec fits the topology");
    let mut sc = Scenario::on(topo)
        .fast_timers()
        .seed(seed)
        .trace_level(rf_sim::TraceLevel::Off)
        .link_profile(profile)
        .with_workload(workload)
        .start();
    sc.run_until(Time::ZERO + spec.stop_at() + Duration::from_secs(2));
    let reports = sc.workload_reports();
    let WorkloadReport::Traffic(r) = &reports[0] else {
        unreachable!("traffic workload attached above");
    };
    r.clone()
}

fn pct_diff(a: u64, b: u64) -> f64 {
    if a == 0 && b == 0 {
        return 0.0;
    }
    (a as f64 - b as f64).abs() / (a.max(b) as f64) * 100.0
}

#[test]
fn same_seed_reproduces_different_seed_diverges() {
    let spec = TrafficSpec::poisson(3, 6.0, FlowSize::pareto(2_000, 100_000))
        .window(Duration::from_secs(25), Duration::from_secs(10));
    let a = run_traffic(ring(4), 5, &spec, LinkProfile::default());
    let b = run_traffic(ring(4), 5, &spec, LinkProfile::default());
    assert_eq!(a, b, "same seed must reproduce the exact report");
    assert!(a.flows_started > 0, "poisson arrivals must fire");
    assert_eq!(a.frames_lost(), 0, "reliable links lose nothing");

    let c = run_traffic(ring(4), 6, &spec, LinkProfile::default());
    assert_ne!(
        a, c,
        "a different seed must draw different arrivals and sizes"
    );
}

#[test]
fn flow_level_matches_packet_level_incast_on_ring() {
    // Four synchronized waves of 3 senders × 60 KB onto one receiver:
    // the receiver's 20 Mbps access link is the bottleneck in both
    // models. Offered load is guaranteed identical (same WaveStream),
    // so the check is delivery and completion timing.
    let spec = TrafficSpec::incast(3, FlowSize::fixed(60_000), Duration::from_secs(2), 4)
        .window(Duration::from_secs(25), Duration::from_secs(10));
    let pkt = run_traffic(ring(4), 7, &spec, slow_links());
    let flow = run_traffic(ring(4), 7, &spec.clone().flow_level(), slow_links());

    eprintln!("incast pkt:  {pkt:?}");
    eprintln!("incast flow: {flow:?}");
    assert_eq!(pkt.offered_bytes, flow.offered_bytes, "same demand stream");
    assert_eq!(pkt.flows_started, flow.flows_started);
    assert_eq!(pkt.flows_completed, flow.flows_completed);
    let d = pct_diff(pkt.delivered_bytes, flow.delivered_bytes);
    assert!(d <= 10.0, "delivered bytes differ by {d:.1}% (> 10%)");
    let p50 = pct_diff(
        pkt.fct_percentile(50).unwrap().as_nanos() as u64,
        flow.fct_percentile(50).unwrap().as_nanos() as u64,
    );
    assert!(p50 <= 25.0, "FCT p50 differs by {p50:.1}% (> 25%)");
    let p95 = pct_diff(
        pkt.fct_percentile(95).unwrap().as_nanos() as u64,
        flow.fct_percentile(95).unwrap().as_nanos() as u64,
    );
    assert!(p95 <= 25.0, "FCT p95 differs by {p95:.1}% (> 25%)");
}

#[test]
fn flow_level_matches_packet_level_request_response_on_star() {
    // Poisson request/response against the hub-adjacent far leaf: the
    // server's tx access link serializes every response. Moderate
    // utilization (~25%), so flows mostly run alone — the fluid FCT
    // should track the packet-level store-and-forward pipeline.
    let spec = TrafficSpec::poisson(3, 5.0, FlowSize::fixed(40_000))
        .window(Duration::from_secs(25), Duration::from_secs(10));
    let pkt = run_traffic(star(5), 11, &spec, slow_links());
    let flow = run_traffic(star(5), 11, &spec.clone().flow_level(), slow_links());

    eprintln!("rr pkt:  {pkt:?}");
    eprintln!("rr flow: {flow:?}");
    assert_eq!(pkt.offered_bytes, flow.offered_bytes, "same demand stream");
    assert_eq!(pkt.flows_started, flow.flows_started);
    let d = pct_diff(pkt.delivered_bytes, flow.delivered_bytes);
    assert!(d <= 10.0, "delivered bytes differ by {d:.1}% (> 10%)");
    let p50 = pct_diff(
        pkt.fct_percentile(50).unwrap().as_nanos() as u64,
        flow.fct_percentile(50).unwrap().as_nanos() as u64,
    );
    assert!(p50 <= 25.0, "FCT p50 differs by {p50:.1}% (> 25%)");
}

#[test]
fn apps_install_only_wildcard_mac_rewrite_and_punt_flows() {
    // rf-switch keeps one lookup order, indexed by prefix length and
    // by nothing else (no exact-match index), and rewrites MACs by
    // patching header bytes in place (no parse of the layers behind
    // them) because this is all the control apps ever install.
    let topo = ring(8);
    let spec = TrafficSpec::poisson(3, 6.0, FlowSize::pareto(2_000, 100_000))
        .window(Duration::from_secs(25), Duration::from_secs(10));
    let traffic = Workload::traffic(spec.clone(), &topo).expect("spec fits the topology");
    let mut sc = Scenario::on(topo)
        .fast_timers()
        .seed(5)
        .trace_level(rf_sim::TraceLevel::Off)
        .with_workload(Workload::ping(vec![0], 4).expect("one client"))
        .with_workload(traffic)
        .start();
    sc.run_until(Time::ZERO + spec.stop_at() + Duration::from_secs(2));
    for report in sc.workload_reports() {
        match report {
            WorkloadReport::Ping(p) => assert!(!p[0].replies.is_empty(), "ping crossed the ring"),
            WorkloadReport::Traffic(t) => assert!(t.delivered_bytes > 0, "flows crossed the ring"),
            other => unreachable!("not attached: {other:?}"),
        }
    }
    for &id in &sc.switches {
        let sw = sc.sim.agent_as::<OpenFlowSwitch>(id).expect("switch agent");
        let entries = sw.flow_table().entries();
        assert!(!entries.is_empty(), "a configured switch holds flows");
        for e in entries {
            let known_shape = matches!(
                e.actions[..],
                [Action::SetDlSrc(_), Action::SetDlDst(_), Action::Output { port, .. }]
                    if port != OFPP_CONTROLLER
            ) || matches!(
                e.actions[..],
                [Action::Output {
                    port: OFPP_CONTROLLER,
                    ..
                }]
            );
            assert!(
                known_shape,
                "switch {:#x} holds {:?} -> {:?}: an app now installs \
                 L3/L4-rewriting flows. rf-switch's in-place MAC patch \
                 (datapath.rs) was chosen because none did — revisit that \
                 choice (ROADMAP, data plane) before changing this test.",
                sw.dpid(),
                e.of_match,
                e.actions
            );
        }
    }
}

/// A switch classifies a flow once: its flow table's exact-match cache
/// answers the flow's later frames. On a packet-level ring-4 Poisson
/// cell, every switch on a shortest path between a client and the
/// server — all four, here — answers at least 90 % of its lookups from
/// the cache (96-98 % today); the rest are a flow's first frame at the
/// switch, its last and shorter one, and the LLDP probes and ARP, which
/// the cache does not take. The flows are the benchmark's
/// request/response shape with a 20 kB floor: a 2 kB flow is two
/// frames, and both of them miss.
#[test]
fn switches_answer_most_frames_from_their_flow_cache() {
    let topo = ring(4);
    let spec = TrafficSpec::poisson(3, 20.0, FlowSize::pareto(20_000, 200_000))
        .window(Duration::from_secs(25), Duration::from_secs(10));
    let traffic = Workload::traffic(spec.clone(), &topo).expect("spec fits the topology");
    let Workload::Traffic { nodes, .. } = &traffic else {
        unreachable!("a traffic workload")
    };
    // The server is placed last; a node is on a shortest client-server
    // path when it is no detour from the client.
    let (&server, clients) = nodes.split_last().expect("placed endpoints");
    let to_server = topo.bfs_distances(server);
    let mut on_paths = std::collections::BTreeSet::new();
    for &client in clients {
        let from = topo.bfs_distances(client);
        on_paths.extend((0..topo.node_count()).filter(|&v| from[v] + to_server[v] == from[server]));
    }
    assert_eq!(on_paths.len(), 4, "traffic crosses the whole ring");
    let mut sc = Scenario::on(topo)
        .fast_timers()
        .seed(5)
        .trace_level(rf_sim::TraceLevel::Off)
        .with_workload(traffic)
        .start();
    sc.run_until(Time::ZERO + spec.stop_at() + Duration::from_secs(2));
    for node in on_paths {
        let sw = sc
            .sim
            .agent_as::<OpenFlowSwitch>(sc.switches[node])
            .expect("switch agent");
        let table = sw.flow_table();
        eprintln!(
            "switch {:#x}: {} of {} lookups from the cache",
            sw.dpid(),
            table.cache_hits,
            table.classified
        );
        assert!(
            table.cache_hits * 10 >= table.classified * 9,
            "switch {:#x}: the cache answered {} of {} lookups",
            sw.dpid(),
            table.cache_hits,
            table.classified
        );
    }
}

/// A small stochastic grid mixing packet and flow cells across every
/// pattern family — the determinism contract must hold with PRNG-driven
/// workloads exactly as it does for the deterministic ping cells.
fn stochastic_spec() -> MatrixSpec {
    let window = (Duration::from_secs(25), Duration::from_secs(8));
    MatrixSpec {
        seeds: vec![3],
        topologies: vec!["ring-4".into()],
        schedules: vec![FaultSchedule::none()],
        knobs: vec![
            MatrixKnob::fast("rr-pkt").with_traffic(
                TrafficSpec::poisson(2, 4.0, FlowSize::pareto(2_000, 60_000))
                    .window(window.0, window.1),
            ),
            MatrixKnob::fast("incast-flow").with_traffic(
                TrafficSpec::incast(3, FlowSize::fixed(50_000), Duration::from_secs(2), 3)
                    .flow_level()
                    .window(window.0, window.1),
            ),
            MatrixKnob::fast("mcast-pkt")
                .with_traffic(TrafficSpec::multicast(3, 1_000_000).window(window.0, window.1)),
            MatrixKnob::fast("mcast-flow").with_traffic(
                TrafficSpec::multicast(3, 1_000_000)
                    .flow_level()
                    .window(window.0, window.1),
            ),
        ],
        configure_deadline: Duration::from_secs(60),
        post_fault_window: Duration::ZERO,
        settle: Duration::from_secs(5),
    }
}

#[test]
fn stochastic_matrix_bytes_identical_across_worker_counts() {
    let matrix = ScenarioMatrix::new(stochastic_spec());
    let one = matrix.run(1).to_json();
    let four = matrix.run(4).to_json();
    let eight = matrix.run(8).to_json();
    assert_eq!(one, four, "1-thread and 4-thread reports must match");
    assert_eq!(four, eight, "4-thread and 8-thread reports must match");
    // The artifact must actually carry the new metrics, not just agree.
    assert!(one.contains("traffic_delivered_bytes"));
    assert!(one.contains("traffic_fct_p95_ns"));
}

#[test]
fn bad_cell_fails_alone_not_the_sweep() {
    // A fan-in wider than the topology, or with no clients at all, used
    // to assert! and poison the whole sweep; now the one cell records
    // build_error and every other cell still reports.
    let spec = MatrixSpec {
        seeds: vec![1],
        topologies: vec!["ring-4".into()],
        schedules: vec![FaultSchedule::none()],
        knobs: vec![
            MatrixKnob::fast("fast"),
            MatrixKnob::fast("fan9").with_fan_in(9),
            MatrixKnob::fast("fan0").with_fan_in(0),
            // One frame per nanosecond and more: a zero pacing interval.
            MatrixKnob::fast("mcast-9t-packet")
                .with_traffic(TrafficSpec::multicast(2, 9_000_000_000_000)),
            MatrixKnob::fast("mcast-9t-flow")
                .with_traffic(TrafficSpec::multicast(2, 9_000_000_000_000).flow_level()),
        ],
        configure_deadline: Duration::from_secs(60),
        post_fault_window: Duration::ZERO,
        settle: Duration::from_secs(5),
    };
    let report = ScenarioMatrix::new(spec).run(2);
    assert_eq!(report.cells.len(), 5);
    for knob in [
        "knob=fan9",
        "knob=fan0",
        "knob=mcast-9t-packet",
        "knob=mcast-9t-flow",
    ] {
        let bad = report
            .cells
            .iter()
            .find(|c| c.key.contains(knob))
            .expect("failed cell still present");
        assert_eq!(bad.metrics.get("build_error"), Some(&1), "{knob}");
    }
    let good = report
        .cells
        .iter()
        .find(|c| c.key.contains("knob=fast"))
        .expect("good cell present");
    assert!(good.metrics.contains_key("all_configured_ns"));
}

#[test]
fn workload_constructors_return_typed_errors() {
    assert!(matches!(
        Workload::ping(vec![], 2),
        Err(WorkloadError::NoEndpoints(_))
    ));
    assert!(matches!(
        Workload::ping((0..40).collect(), 41),
        Err(WorkloadError::TooManyEndpoints { given: 40, .. })
    ));

    // Traffic spec errors surface through Workload::traffic instead
    // of panicking mid-sweep.
    let ring4 = ring(4);
    let placed = |spec: TrafficSpec| Workload::traffic(spec, &ring4).err();
    assert!(placed(TrafficSpec::poisson(0, 4.0, FlowSize::fixed(1_000))).is_some());
    assert!(placed(TrafficSpec::poisson(2, 0.0, FlowSize::fixed(1_000))).is_some());
    assert!(matches!(
        placed(TrafficSpec::multicast(3, 0)),
        Some(WorkloadError::ZeroRate(_))
    ));
    // A paced rate past one frame per nanosecond has a zero interval:
    // the flow model would divide by it, the packet pacer spin on it.
    // The first is the slowest such rate: 8 192 bits a frame, just over
    // one frame per nanosecond.
    for packet in [
        TrafficSpec::multicast(1, 8_192_000_000_001),
        TrafficSpec::multicast(2, 9_000_000_000_000),
    ] {
        for spec in [packet.clone(), packet.flow_level()] {
            assert!(matches!(placed(spec), Some(WorkloadError::ZeroInterval(_))));
        }
    }
    let mut one = Topology::new();
    one.add_node("s0", (0.0, 0.0));
    let incast = TrafficSpec::incast(3, FlowSize::fixed(1_000), Duration::from_secs(1), 2);
    assert!(matches!(
        Workload::traffic(incast, &one),
        Err(WorkloadError::TopologyTooSmall { .. })
    ));
}
