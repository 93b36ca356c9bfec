//! Workspace-level tests for the `ScenarioMatrix` sweep harness: the
//! determinism contract (identical report bytes at any worker-thread
//! count, cell order independent of completion order) and the
//! link-flap soak path, which exercises `Fault::LinkDown`/`LinkUp` end
//! to end — ROADMAP noted only `KillSwitch` was exercised before.

use rf_core::scenario::{
    FaultSchedule, MatrixCell, MatrixKnob, MatrixSpec, Scenario, ScenarioMatrix, Workload,
    WorkloadReport,
};
use rf_core::traffic::{FlowSize, TrafficSpec};
use rf_sim::Time;
use rf_topo::ring;
use std::time::Duration;

/// A deliberately tiny grid: 6 cells on ring-4 with early faults, so
/// the whole matrix runs three times (1/4/8 workers) within a debug
/// test budget. Ring-4's standard probe pair is (0, 2), leaving node 1
/// as genuine transit for the kill schedule to remove. The second knob
/// turns on the controller fast path (k-wide provisioning + FLOW_MOD
/// batching) *and* a bounded capacity-8 channel, and the third
/// schedule stalls a transit switch's control channel across the
/// cold-start burst — so the determinism contract is proven with the
/// schema-v3 backpressure axes enabled.
fn tiny_spec() -> MatrixSpec {
    MatrixSpec {
        seeds: vec![7],
        topologies: vec!["ring-4".into()],
        schedules: vec![
            FaultSchedule::kill_switch(1, Duration::from_secs(12)),
            FaultSchedule::link_flap(0, Duration::from_secs(12), Duration::from_secs(4), 1),
            FaultSchedule::channel_stall(2, Duration::from_secs(4), Duration::from_secs(14)),
        ],
        knobs: vec![
            MatrixKnob::fast("fast"),
            MatrixKnob::fast("fast-k3b4c8")
                .with_provision_width(3)
                .with_fib_batch(4)
                .with_channel_capacity(8),
        ],
        configure_deadline: Duration::from_secs(60),
        post_fault_window: Duration::from_secs(15),
        settle: Duration::from_secs(5),
    }
}

/// A grid shaped for the checkpoint/fork path: every fault fires well
/// after ring-4 converges (fast timers configure in single-digit
/// seconds), so each (topology × knob × seed) group's kill, flap and
/// late-stall members all fork from the shared converged snapshot.
/// Two stochastic-traffic knobs ride along — one packet-level Poisson
/// mix, one flow-level incast, both offering *after* the fork point —
/// so the identity contract covers RNG streams continuing across a
/// fork, at both traffic granularities.
fn forky_spec() -> MatrixSpec {
    MatrixSpec {
        seeds: vec![7, 8],
        topologies: vec!["ring-4".into()],
        schedules: vec![
            FaultSchedule::none(),
            FaultSchedule::kill_switch(1, Duration::from_secs(25)),
            FaultSchedule::link_flap(0, Duration::from_secs(25), Duration::from_secs(4), 1),
            FaultSchedule::channel_stall(2, Duration::from_secs(24), Duration::from_secs(34)),
        ],
        knobs: vec![
            MatrixKnob::fast("fast"),
            MatrixKnob::fast("fast-poisson").with_traffic(
                TrafficSpec::poisson(2, 3.0, FlowSize::fixed(30_000))
                    .window(Duration::from_secs(20), Duration::from_secs(10)),
            ),
            MatrixKnob::fast("fast-incast3f").with_traffic(
                TrafficSpec::incast(3, FlowSize::fixed(50_000), Duration::from_secs(2), 3)
                    .flow_level()
                    .window(Duration::from_secs(20), Duration::from_secs(10)),
            ),
        ],
        configure_deadline: Duration::from_secs(60),
        post_fault_window: Duration::from_secs(12),
        settle: Duration::from_secs(5),
    }
}

#[test]
fn forked_sweep_bytes_identical_to_cold_at_1_4_8_threads() {
    // THE determinism contract of the checkpoint/fork tentpole: the
    // forked sweep's report must be byte-for-byte the cold report, at
    // every worker count — including stochastic-traffic cells whose
    // RNG streams must continue across the fork exactly as they would
    // have run uninterrupted.
    let matrix = ScenarioMatrix::new(forky_spec());
    let cold = matrix.run(2).to_json();
    for threads in [1, 4, 8] {
        let forked = matrix
            .run_instrumented_forked(threads, ScenarioMatrix::standard_builder)
            .0
            .to_json();
        assert_eq!(
            forked, cold,
            "forked report at {threads} threads must be byte-identical to cold"
        );
    }
}

#[test]
fn forked_sweep_actually_forks_the_late_fault_cells() {
    // Guard against the fork path silently degrading to all-cold (in
    // which case the identity test above proves nothing): with every
    // fault after the snapshot instant, all members of every
    // multi-cell group fork. 2 seeds × 3 knobs = 6 groups of 4.
    let matrix = ScenarioMatrix::new(forky_spec());
    let (report, stats) = matrix.run_instrumented_forked(2, ScenarioMatrix::standard_builder);
    assert_eq!(report.cells.len(), 24);
    assert_eq!(
        stats.forked, 24,
        "every cell in every group must run as a fork"
    );
    // The cold entry points never fork.
    let (_, cold_stats) = matrix.run_instrumented(2, ScenarioMatrix::standard_builder);
    assert_eq!(cold_stats.forked, 0);
}

#[test]
fn forked_sweep_with_early_faults_falls_back_cold_and_stays_identical() {
    // tiny_spec's channel stall opens at 4 s — *before* the serial
    // knob's world converges (≈4.02 s), making that cell unforkable.
    // The forked sweep must detect that per cell, fall back to a cold
    // start and still emit the cold bytes.
    let matrix = ScenarioMatrix::new(tiny_spec());
    let cold = matrix.run(2).to_json();
    let (report, stats) = matrix.run_instrumented_forked(4, ScenarioMatrix::standard_builder);
    assert_eq!(report.to_json(), cold);
    // Kill (12 s) and flap (12 s) fork in both knob groups. The stall
    // splits them: the k-wide knob configures in ≈1 s, before the
    // window opens, so its stall cell forks; the serial knob snapshots
    // after 4 s, so its stall cell must go cold.
    assert_eq!(stats.forked, 5, "2 × (kill + flap) + the k-wide stall");
    assert!(
        stats.forked < report.cells.len(),
        "at least one cell must exercise the cold fallback"
    );
}

/// A grid for the capture ladder: each (knob × seed) group holds a
/// fault-free member, members whose first faults fall at three distinct
/// instants (30 s, 60 s twice, 90 s), and a stall that opens at 2 s,
/// before ring-4 converges, so that member can never fork. Every fault
/// is short and the post-fault window too, so most of what a cold run
/// simulates is the fault-free prefix.
fn ladder_spec() -> MatrixSpec {
    let s = Duration::from_secs;
    MatrixSpec {
        seeds: vec![7, 8],
        topologies: vec!["ring-4".into()],
        schedules: vec![
            FaultSchedule::none(),
            FaultSchedule::channel_stall(2, s(2), s(3)),
            FaultSchedule::kill_switch(1, s(30)),
            FaultSchedule::kill_revive(1, s(60), s(62)),
            FaultSchedule::link_flap(0, s(60), s(2), 1),
            FaultSchedule::link_loss(0, 30.0, s(90)..s(92)),
        ],
        knobs: vec![
            MatrixKnob::fast("fast"),
            MatrixKnob::fast("fast-k3b4c8")
                .with_provision_width(3)
                .with_fib_batch(4)
                .with_channel_capacity(8),
        ],
        configure_deadline: s(60),
        post_fault_window: s(8),
        settle: s(5),
    }
}

#[test]
fn a_forked_group_runs_its_fault_free_prefix_once() {
    // Each group's capture moves forward to just before the next
    // member's first fault, so a member forks from the latest instant
    // it shares with the rest. The report stays the cold bytes at any
    // thread count, and what the sweep actually simulates is pinned:
    // a capture that stayed at convergence would re-run up to 60 s per
    // member and miss the pinned count by far. The count includes each
    // cell's harvest drain: one pass per cell here, which wakes the
    // controller for the batch flush and the channel drain. No switch
    // port-status tick or SET_CONFIG: 4 696 events fewer than with them.
    // No RouteAdd for a connected route: 104 deliveries fewer.
    let matrix = ScenarioMatrix::new(ladder_spec());
    let (cold, cold_stats) = matrix.run_instrumented(2, ScenarioMatrix::standard_builder);
    let cold_json = cold.to_json();
    assert_eq!(cold_stats.forked, 0);
    assert_eq!(cold_stats.dispatched, cold_stats.total_events());
    for threads in [1, 4, 8] {
        let (report, stats) =
            matrix.run_instrumented_forked(threads, ScenarioMatrix::standard_builder);
        assert_eq!(report.to_json(), cold_json, "forked at {threads} threads");
        assert_eq!(
            stats.forked, 20,
            "4 groups × 5: only the early stall goes cold"
        );
        assert_eq!(stats.total_events(), cold_stats.total_events());
        assert!(stats.dispatched * 2 < cold_stats.total_events());
        assert_eq!(stats.dispatched, 72_084, "events actually simulated");
    }
}

#[test]
fn matrix_report_bytes_identical_across_worker_counts() {
    let matrix = ScenarioMatrix::new(tiny_spec());
    let one = matrix.run(1).to_json();
    let four = matrix.run(4).to_json();
    let eight = matrix.run(8).to_json();
    assert_eq!(one, four, "1-thread and 4-thread reports must match");
    assert_eq!(four, eight, "4-thread and 8-thread reports must match");
}

#[test]
fn instrumented_sweep_matches_plain_run_and_counts_events() {
    // The perf harness rides run_instrumented; its report must be the
    // exact bytes run() produces (work-stealing order and wall-clock
    // probes must not leak into the artifact), its stats keyed like
    // the report, and event counts deterministic.
    let matrix = ScenarioMatrix::new(tiny_spec());
    let plain = matrix.run(2).to_json();
    let (report, stats) = matrix.run_instrumented(2, ScenarioMatrix::standard_builder);
    assert_eq!(report.to_json(), plain);
    assert_eq!(stats.cells.len(), report.cells.len());
    for (stat, cell) in stats.cells.iter().zip(&report.cells) {
        assert_eq!(stat.key, cell.key);
        assert!(stat.events > 0, "cell {} dispatched no events?", stat.key);
    }
    let (_, stats2) = matrix.run_instrumented(4, ScenarioMatrix::standard_builder);
    let ev1: Vec<u64> = stats.cells.iter().map(|c| c.events).collect();
    let ev2: Vec<u64> = stats2.cells.iter().map(|c| c.events).collect();
    assert_eq!(ev1, ev2, "event counts must be thread-count independent");
    assert!(stats.wall.as_nanos() > 0);
}

#[test]
fn counting_never_feeds_back_into_behaviour() {
    // The sweep runs at TraceLevel::Off, the benchmark's traced pass at
    // Info. A faulted ping cell and a packet-traffic cell must report
    // the same record and dispatch the same events either way.
    let spec = MatrixSpec {
        schedules: vec![FaultSchedule::link_flap(
            0,
            Duration::from_secs(12),
            Duration::from_secs(4),
            1,
        )],
        knobs: vec![
            MatrixKnob::fast("fast"),
            MatrixKnob::fast("fast-poisson").with_traffic(
                TrafficSpec::poisson(2, 3.0, FlowSize::fixed(30_000))
                    .window(Duration::from_secs(10), Duration::from_secs(8)),
            ),
        ],
        ..tiny_spec()
    };
    let matrix = ScenarioMatrix::new(spec);
    let at = |level: rf_sim::TraceLevel| {
        let (report, stats) = matrix.run_instrumented(2, |cell| {
            ScenarioMatrix::standard_builder(cell).map(|b| b.trace_level(level))
        });
        let events: Vec<u64> = stats.cells.iter().map(|c| c.events).collect();
        (report.cells, events)
    };
    let (off_cells, off_events) = at(rf_sim::TraceLevel::Off);
    let (info_cells, info_events) = at(rf_sim::TraceLevel::Info);
    assert_eq!(off_cells.len(), 2);
    for cell in &off_cells {
        assert!(cell.metrics.contains_key("all_configured_ns"), "{cell:?}");
    }
    assert_eq!(off_cells, info_cells);
    assert_eq!(off_events, info_events);
}

#[test]
fn matrix_cell_order_is_sorted_not_completion_order() {
    // With more workers than cells, completion order is scheduler
    // noise; the report must come out keyed and sorted regardless. The
    // two schedules sort as flap < kill ('f' < 'k'), while the spec
    // declares kill first — so a report in declaration or completion
    // order would fail this.
    let report = ScenarioMatrix::new(tiny_spec()).run(8);
    let keys: Vec<&str> = report.cells.iter().map(|c| c.key.as_str()).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "cells must be key-sorted");
    assert!(keys[0].contains("fault=flap"), "{}", keys[0]);
    assert!(keys[2].contains("fault=kill"), "{}", keys[2]);
}

#[test]
fn link_flap_soak_heals_end_to_end() {
    // Ring of 4, ping crossing the fabric, and the link on the probe's
    // shortest path flapping twice. While the link is down OSPF must
    // route around it (longer arc); after the final LinkUp the network
    // must keep answering. This drives Fault::LinkDown and
    // Fault::LinkUp through the full stack: sim link state, discovery
    // timeout, OSPF dead interval, RouteFlow FLOW_MOD rewrites.
    let flap = FaultSchedule::link_flap(0, Duration::from_secs(20), Duration::from_secs(8), 2);
    let last_fault = Time::ZERO + flap.last_fault_at().unwrap();
    let mut sc = Scenario::on(ring(4))
        .fast_timers()
        .seed(11)
        .with_workload(Workload::ping(vec![0], 2).expect("one client"))
        .with_faults(flap.faults.iter().cloned())
        .start();
    sc.run_until(last_fault + Duration::from_secs(30));

    let reports = sc.workload_reports();
    let WorkloadReport::Ping(probes) = &reports[0] else {
        unreachable!("ping workload attached above");
    };
    let replies = &probes[0].replies;
    assert!(
        replies.iter().any(|(_, t)| *t < Time::from_secs(20)),
        "network must converge before the first flap"
    );
    assert!(
        replies.iter().any(|(_, t)| *t > last_fault),
        "pings must flow again after the final LinkUp"
    );
    // The victim link comes back: the dataplane must still hold a
    // full mesh of routed flows (no permanent blackhole).
    let m = sc.finish();
    assert_eq!(m.configured_switches, 4, "no switch may die in a flap");
    assert!(
        m.flows_removed > 0,
        "LinkDown must retract routes (got {} removals)",
        m.flows_removed
    );
}

#[test]
fn matrix_records_recovery_metrics_for_fault_cells() {
    let report = ScenarioMatrix::new(tiny_spec()).run(2);
    for cell in &report.cells {
        assert!(
            cell.metrics.contains_key("recovery_ns"),
            "fault cell {} must report recovery (metrics: {:?})",
            cell.key,
            cell.metrics.keys().collect::<Vec<_>>()
        );
        assert!(cell.metrics["recovery_ns"] > 0);
        assert_eq!(cell.metrics["switches"], 4);
    }
    let s = report.summary["recovery_ns"];
    assert_eq!(s.count, 6);
    assert!(s.min <= s.median && s.median <= s.max);
}

#[test]
fn matrix_cells_report_controller_transport_metrics() {
    // Schema v2: every cell carries the controller byte/message/push
    // counters, and the batched knob actually exercises the batch
    // stage (fib_batches > 0, strictly fewer transport writes than
    // messages) while the serial knob reports zero batches.
    let report = ScenarioMatrix::new(tiny_spec()).run(2);
    for cell in &report.cells {
        // Schema v3: transport counters plus the backpressure triple
        // in every cell.
        for metric in [
            "of_msgs_sent",
            "of_bytes_sent",
            "of_pushes",
            "fib_batches",
            "of_deferred",
            "of_dropped",
            "of_queue_hwm",
        ] {
            assert!(
                cell.metrics.contains_key(metric),
                "cell {} must report {metric} (metrics: {:?})",
                cell.key,
                cell.metrics.keys().collect::<Vec<_>>()
            );
        }
        assert!(cell.metrics["of_msgs_sent"] > 0, "{}", cell.key);
        assert!(cell.metrics["of_bytes_sent"] > 0, "{}", cell.key);
        assert_eq!(
            cell.metrics["of_dropped"], 0,
            "channels only defer, so of_dropped reads 0: {}",
            cell.key
        );
        if cell.key.contains("knob=fast-k3b4") {
            assert!(cell.metrics["fib_batches"] > 0, "{}", cell.key);
            assert!(
                cell.metrics["of_pushes"] < cell.metrics["of_msgs_sent"],
                "batched cell {} must coalesce pushes ({} pushes / {} msgs)",
                cell.key,
                cell.metrics["of_pushes"],
                cell.metrics["of_msgs_sent"]
            );
        } else {
            assert_eq!(cell.metrics["fib_batches"], 0, "{}", cell.key);
        }
        if cell.key.contains("fault=stall") {
            assert!(
                cell.metrics["of_queue_hwm"] > 0,
                "a stalled channel must show queue depth: {}",
                cell.key
            );
        }
    }
    // The new metrics roll up into the summary like any other.
    assert!(report.summary.contains_key("of_bytes_sent"));
    assert!(report.summary.contains_key("of_queue_hwm"));
    assert_eq!(report.summary["of_pushes"].count, report.cells.len() as i64);
}

#[test]
fn sustained_loss_soak_degrades_then_heals() {
    // ROADMAP "sustained-loss soak": link 0 (on the ring-4 probe
    // path) drops 40% of frames for a 20 s window, then heals. The
    // probe must log replies before, lose some during, and stream
    // cleanly again after — exercising Fault::LinkLoss end to end
    // (chaos agent → Sim::set_link_loss → per-frame fault model).
    let loss = FaultSchedule::link_loss(0, 40.0, Duration::from_secs(20)..Duration::from_secs(40));
    assert_eq!(loss.faults.len(), 2, "onset and heal");
    assert_eq!(loss.last_fault_at(), Some(Duration::from_secs(40)));
    let heal_at = Time::ZERO + loss.last_fault_at().unwrap();
    let mut sc = Scenario::on(ring(4))
        .fast_timers()
        .seed(11)
        .trace_level(rf_sim::TraceLevel::Off)
        .with_workload(Workload::ping(vec![0], 2).expect("one client"))
        .with_faults(loss.faults.iter().cloned())
        .start();
    sc.run_until(heal_at + Duration::from_secs(30));

    let reports = sc.workload_reports();
    let WorkloadReport::Ping(probes) = &reports[0] else {
        unreachable!("ping workload attached above");
    };
    let (sent, replies) = (&probes[0].sent, &probes[0].replies);
    assert!(
        replies.iter().any(|(_, t)| *t < Time::from_secs(20)),
        "network must converge before the loss window"
    );
    // Inside the window both the echo and its reply cross the lossy
    // link: at 40% per frame some round trips must fail...
    let window_sent: Vec<u16> = sent
        .iter()
        .filter(|(_, t)| *t > Time::from_secs(20) && *t < Time::from_secs(38))
        .map(|(s, _)| *s)
        .collect();
    let window_answered = window_sent
        .iter()
        .filter(|s| replies.iter().any(|(r, _)| r == *s))
        .count();
    assert!(
        window_answered < window_sent.len(),
        "a 40% lossy path must cost round trips ({window_answered}/{})",
        window_sent.len()
    );
    // ... and after the heal the loss profile is really gone: once
    // routing has resettled (the window can trip OSPF's dead interval,
    // so allow a reconvergence margin), every probe completes.
    let healed_sent: Vec<u16> = sent
        .iter()
        .filter(|(_, t)| {
            // ... and not so late that the reply outruns the run end.
            *t > heal_at + Duration::from_secs(15) && *t < heal_at + Duration::from_secs(29)
        })
        .map(|(s, _)| *s)
        .collect();
    assert!(!healed_sent.is_empty());
    assert!(
        healed_sent
            .iter()
            .all(|s| replies.iter().any(|(r, _)| r == s)),
        "after the heal every probe must complete"
    );
    // The loss window may or may not trip OSPF's dead interval (it is
    // seed-dependent); either way no switch dies.
    assert_eq!(sc.finish().configured_switches, 4);
}

#[test]
fn fan_in_knob_reports_per_client_metrics() {
    // The smoke grid's fan-in knob in miniature: one cell, 3 clients
    // converging on the farthest switch, no faults.
    let spec = MatrixSpec {
        seeds: vec![5],
        topologies: vec!["ring-4".into()],
        schedules: vec![FaultSchedule::none()],
        knobs: vec![MatrixKnob::fast("fast-fanin3").with_fan_in(3)],
        configure_deadline: Duration::from_secs(60),
        post_fault_window: Duration::from_secs(10),
        settle: Duration::from_secs(8),
    };
    let report = ScenarioMatrix::new(spec).run(1);
    assert_eq!(report.cells.len(), 1);
    let m = &report.cells[0].metrics;
    assert_eq!(m["fanin_clients"], 3);
    assert_eq!(
        m["fanin_clients_served"], 3,
        "every client must get through"
    );
    assert!(m["fanin_replies"] >= 3 * 3, "a few round trips per client");
    assert!(m.contains_key("fanin_all_served_ns"));
    // The plain-ping metrics stay absent — the fan-in replaces them.
    assert!(!m.contains_key("ping_replies"));
}

#[test]
fn corpus_slice_is_deterministic_across_worker_counts() {
    // A miniature of the `--corpus` grid: two WAN corpus files, a
    // fat-tree and a seeded random graph, fault-free. The determinism
    // contract must hold with the corpus loader and both parametric
    // generator families in the build path.
    let spec = MatrixSpec {
        seeds: vec![3],
        topologies: ["abilene", "nordu", "fat-tree-k4", "er-12-s5"]
            .map(String::from)
            .to_vec(),
        schedules: vec![FaultSchedule::none()],
        knobs: vec![MatrixKnob::fast("fast-k8b16")
            .with_provision_width(8)
            .with_fib_batch(16)],
        configure_deadline: Duration::from_secs(120),
        post_fault_window: Duration::from_secs(10),
        settle: Duration::from_secs(5),
    };
    let matrix = ScenarioMatrix::new(spec);
    let one = matrix.run(1);
    let four = matrix.run(4).to_json();
    let eight = matrix.run(8).to_json();
    assert_eq!(
        one.to_json(),
        four,
        "1-thread and 4-thread reports must match"
    );
    assert_eq!(four, eight, "4-thread and 8-thread reports must match");
    // Every topology configured and answered probes.
    for cell in &one.cells {
        assert!(
            cell.metrics.contains_key("all_configured_ns"),
            "cell {} never configured",
            cell.key
        );
        assert!(cell.metrics["ping_replies"] > 0, "{}", cell.key);
    }
    let medians = one.per_topology_medians("all_configured_ns");
    assert_eq!(medians.len(), 4, "one median row per topology");
}

#[test]
fn malformed_topology_records_build_error_cell() {
    // A typo'd axis value (`grid-4x`) must not panic the sweep or
    // silently vanish: its cells report `build_error = 1` and nothing
    // else, while the well-formed topology's cells run normally.
    let spec = MatrixSpec {
        seeds: vec![1],
        topologies: vec!["ring-4".into(), "grid-4x".into()],
        schedules: vec![FaultSchedule::none()],
        knobs: vec![MatrixKnob::fast("fast")],
        configure_deadline: Duration::from_secs(60),
        post_fault_window: Duration::from_secs(10),
        settle: Duration::from_secs(5),
    };
    let report = ScenarioMatrix::new(spec).run(2);
    assert_eq!(report.cells.len(), 2);
    let bad = report
        .cells
        .iter()
        .find(|c| c.key.starts_with("topo=grid-4x/"))
        .expect("malformed topology still forms a cell");
    assert_eq!(
        bad.metrics,
        std::collections::BTreeMap::from([("build_error".to_string(), 1)])
    );
    let good = report
        .cells
        .iter()
        .find(|c| c.key.starts_with("topo=ring-4/"))
        .unwrap();
    assert!(!good.metrics.contains_key("build_error"));
    assert!(good.metrics["ping_replies"] > 0);
}

#[test]
fn a_panicking_cell_is_a_record_not_a_dead_sweep() {
    // A builder that panics on seed 2: its two cells record `panic = 1`
    // and nothing else, the seed-1 cells run normally, and the bytes
    // are the same cold and forked (where the seed-2 group's capture
    // panics first and sends both members cold), at 1 and 2 threads.
    let spec = MatrixSpec {
        seeds: vec![1, 2],
        topologies: vec!["ring-4".into()],
        schedules: vec![
            FaultSchedule::none(),
            FaultSchedule::kill_switch(1, Duration::from_secs(12)),
        ],
        knobs: vec![MatrixKnob::fast("fast")],
        configure_deadline: Duration::from_secs(60),
        post_fault_window: Duration::from_secs(5),
        settle: Duration::from_secs(5),
    };
    let build = |cell: &MatrixCell| {
        assert_ne!(cell.seed, 2, "the builder refuses seed 2 by panicking");
        ScenarioMatrix::standard_builder(cell)
    };
    let matrix = ScenarioMatrix::new(spec);
    let (report, _) = matrix.run_instrumented(1, build);
    let panicked: Vec<&str> = report
        .cells
        .iter()
        .filter(|c| c.key.ends_with("/seed=2"))
        .map(|c| {
            assert_eq!(
                c.metrics,
                std::collections::BTreeMap::from([("panic".to_string(), 1)]),
                "{}",
                c.key
            );
            c.key.as_str()
        })
        .collect();
    assert_eq!(panicked.len(), 2);
    for cell in report.cells.iter().filter(|c| c.key.ends_with("/seed=1")) {
        assert!(!cell.metrics.contains_key("panic"), "{}", cell.key);
        assert!(cell.metrics["ping_replies"] > 0, "{}", cell.key);
    }
    let cold = report.to_json();
    for threads in [1, 2] {
        assert_eq!(matrix.run_instrumented(threads, build).0.to_json(), cold);
        let (forked, stats) = matrix.run_instrumented_forked(threads, build);
        assert_eq!(forked.to_json(), cold, "forked at {threads} threads");
        assert_eq!(stats.forked, 2, "seed 1's two cells fork; seed 2 went cold");
    }
}

#[test]
fn no_profile_aborts_on_panic() {
    // Catching a cell's panic needs unwinding: a `panic = "abort"` in
    // any profile would turn one bad cell back into a dead sweep.
    for manifest in ["Cargo.toml", "rfbench/Cargo.toml"] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(manifest);
        let text = std::fs::read_to_string(&path).expect("manifest is readable");
        let mut section = String::new();
        for line in text.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line.to_string();
            } else if section.starts_with("[profile") {
                let setting: String = line
                    .split('#')
                    .next()
                    .unwrap_or("")
                    .split_whitespace()
                    .collect();
                assert_ne!(
                    setting, "panic=\"abort\"",
                    "{manifest} {section} must unwind on panic"
                );
            }
        }
    }
}

#[test]
fn expected_cost_orders_cells_like_the_wall_clock() {
    // The scheduler sorts cells by `expected_cost` so the costliest
    // start first. The model needs no precision, but its *ordering*
    // must track reality: a 16-switch grid must be predicted and
    // measured costlier than a 4-ring.
    let spec = MatrixSpec {
        seeds: vec![1],
        topologies: vec!["ring-4".into(), "grid-4x4".into()],
        schedules: vec![FaultSchedule::none()],
        knobs: vec![MatrixKnob::fast("fast")],
        configure_deadline: Duration::from_secs(120),
        post_fault_window: Duration::from_secs(10),
        settle: Duration::from_secs(5),
    };
    let matrix = ScenarioMatrix::new(spec.clone());
    let mut cells = spec.cells();
    cells.sort_by_key(|c| matrix.expected_cell_cost(c));
    let (cheap, costly) = (cells.first().unwrap(), cells.last().unwrap());
    assert!(cheap.key().contains("topo=ring-4"), "{}", cheap.key());
    assert!(costly.key().contains("topo=grid-4x4"), "{}", costly.key());
    let (_, stats) = matrix.run_instrumented(1, ScenarioMatrix::standard_builder);
    let wall_of = |key: &str| {
        stats
            .cells
            .iter()
            .find(|s| s.key == key)
            .expect("stat per cell")
            .wall
    };
    assert!(
        wall_of(&costly.key()) > wall_of(&cheap.key()),
        "predicted-costliest cell must also measure slower \
         ({:?} vs {:?})",
        wall_of(&costly.key()),
        wall_of(&cheap.key()),
    );
}
