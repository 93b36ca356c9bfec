//! Chaos-engine end-to-end tests: kill→revive reconvergence, WAN
//! recovery after link flaps, campaign determinism, shrinker
//! convergence, and typed fault-schedule validation.

use routeflow_autoconf::core::scenario::{MatrixCell, MatrixKnob, MatrixSpec, ScenarioMatrix};
use routeflow_autoconf::core::vnet::VmAgent;
use routeflow_autoconf::prelude::*;
use std::time::Duration;

fn ping_report(sc: &Scenario) -> Option<rf_core::host::PingProbeReport> {
    sc.workload_reports().into_iter().find_map(|r| match r {
        WorkloadReport::Ping(mut p) => p.pop(),
        _ => None,
    })
}

/// Satellite regression: `KillSwitch` is no longer terminal. A killed
/// switch revived by `ReviveSwitch` reconnects, gets a fresh VM, its
/// OSPF adjacencies re-form, and its FIB is re-mirrored into the flow
/// table — the full invariant suite passes on the healed world.
#[test]
fn kill_then_revive_reconverges_on_ring4() {
    let faults = vec![
        Fault::KillSwitch {
            node: 1,
            at: Duration::from_secs(30),
        },
        Fault::ReviveSwitch {
            node: 1,
            at: Duration::from_secs(40),
        },
    ];
    let mut sc = Scenario::on(ring(4))
        .fast_timers()
        .with_workload(Workload::ping(vec![0], 2).expect("one client"))
        .with_faults(faults.iter().cloned())
        .start();
    sc.run_until_configured(Time::from_secs(120))
        .expect("ring-4 configures");
    sc.run_until(Time::from_secs(90));

    // All four switches green again, the revived one included.
    assert_eq!(sc.configured_switches(), 4);

    // The revived switch's fresh VM holds Full adjacencies on both
    // ring interfaces and a non-empty FIB mirrored into its flow table.
    let state = sc.controller().state();
    let rec = state.switches.get(&2).expect("dpid 2 known");
    let vm = sc
        .sim
        .agent_as::<VmAgent>(rec.vm.expect("VM re-provisioned"))
        .expect("VM agent alive");
    let full = vm
        .ospf_neighbors()
        .iter()
        .filter(|(_, _, s)| *s == routeflow_autoconf::routed::ospf::NeighborState::Full)
        .count();
    assert!(full >= 2, "revived VM re-formed {full}/2 adjacencies");
    assert!(vm.fib_len() > 0, "revived VM re-learned routes");

    // The machine-checked invariants agree: nothing is stuck.
    let topo = ring(4);
    let violations = check_invariants(
        &sc,
        &InvariantContext {
            topo: &topo,
            faults: &faults,
        },
    );
    assert!(violations.is_empty(), "clean recovery, got: {violations:?}");

    // Dataplane proof: pings sent after the revive are answered.
    let probe = ping_report(&sc).expect("ping workload reports");
    let after_revive = probe
        .replies
        .iter()
        .filter(|(seq, _)| {
            probe
                .sent
                .iter()
                .any(|(s, t)| s == seq && *t > Time::from_secs(40))
        })
        .count();
    assert!(after_revive > 0, "pings recovered after the revive");
}

/// Regression: a revived switch serves its host again. The controller
/// forgets the hosts learned on a switch that dies, so after the revive
/// it learns them anew and re-installs their /32s. Whether the client's
/// switch (node 0) or the server's (node 2) died, a ping sent after the
/// revive is answered within 10 s.
#[test]
fn a_revived_endpoint_switch_serves_its_host_again() {
    for node in [0, 2] {
        let mut sc = Scenario::on(ring(4))
            .fast_timers()
            .with_workload(Workload::ping(vec![0], 2).expect("one client"))
            .with_faults([
                Fault::KillSwitch {
                    node,
                    at: Duration::from_secs(30),
                },
                Fault::ReviveSwitch {
                    node,
                    at: Duration::from_secs(40),
                },
            ])
            .start();
        sc.run_until(Time::from_secs(60));
        let probe = ping_report(&sc).expect("ping workload reports");
        let back = probe.recovered_after(Time::from_secs(40));
        assert!(
            back.is_some_and(|at| at <= Time::from_secs(50)),
            "node {node} revived at 40 s: first reply to a later ping at {back:?}"
        );
    }
}

/// Pick an edge that lies on a shortest path between `a` and `b` and
/// whose removal keeps the topology connected.
fn transit_edge(topo: &Topology, a: usize, b: usize) -> usize {
    let da = topo.bfs_distances(a);
    let db = topo.bfs_distances(b);
    let d = da[b];
    for (e, edge) in topo.edges().iter().enumerate() {
        let on_path = da[edge.a] + 1 + db[edge.b] == d || da[edge.b] + 1 + db[edge.a] == d;
        if !on_path {
            continue;
        }
        // Removal must keep the graph connected (otherwise "recovery"
        // is impossible by construction).
        let mut seen = vec![false; topo.node_count()];
        seen[0] = true;
        let mut stack = vec![0usize];
        while let Some(u) = stack.pop() {
            for (f, g) in topo.edges().iter().enumerate() {
                if f == e {
                    continue;
                }
                let v = if g.a == u {
                    g.b
                } else if g.b == u {
                    g.a
                } else {
                    continue;
                };
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        if seen.iter().all(|&s| s) {
            return e;
        }
    }
    panic!("no redundant transit edge between {a} and {b}");
}

/// Satellite: `Ping` recovery after `LinkDown → LinkUp` is bounded on
/// real corpus WANs, not just rings.
fn wan_ping_recovers(name: &str) {
    let topo: Topology = name.parse::<TopoSpec>().expect("corpus slug").build();
    let (a, b) = topo.farthest_pair().expect("non-trivial WAN");
    let edge = transit_edge(&topo, a, b);
    let down_at = Duration::from_secs(60);
    let up_at = Duration::from_secs(68);
    let mut sc = Scenario::on(topo)
        .fast_timers()
        .provision_width(8)
        .with_workload(Workload::ping(vec![a], b).expect("one client"))
        .with_faults([
            Fault::LinkDown { edge, at: down_at },
            Fault::LinkUp { edge, at: up_at },
        ])
        .start();
    let done = sc
        .run_until_configured(Time::from_secs(120))
        .expect("WAN configures");
    assert!(done < Time::ZERO + down_at, "flap must land post-config");
    sc.run_until(Time::from_secs(110));

    let probe = ping_report(&sc).expect("ping workload reports");
    // First round trip whose probe left after the heal: recovery is
    // bounded by the OSPF dead interval + SPF + flow push, with slack.
    let recovered = probe
        .replies
        .iter()
        .filter(|(seq, _)| {
            probe
                .sent
                .iter()
                .any(|(s, t)| s == seq && *t > Time::ZERO + up_at)
        })
        .map(|(_, t)| *t)
        .min()
        .unwrap_or_else(|| panic!("{name}: no ping recovered after LinkUp"));
    let bound = Time::ZERO + up_at + Duration::from_secs(20);
    assert!(
        recovered <= bound,
        "{name}: recovery at {recovered:?}, bound {bound:?}"
    );
}

#[test]
fn ping_recovers_after_link_flap_on_geant() {
    wan_ping_recovers("geant");
}

#[test]
fn ping_recovers_after_link_flap_on_abilene() {
    wan_ping_recovers("abilene");
}

/// A healed fault leaves nothing behind to simulate: on ring-8, the
/// 30 s after each of three fault/heal cycles dispatch the same number
/// of kernel events. A VM that re-armed its OSPF timer on a stale
/// wake-up kept one more timer chain alive per cycle, and each window
/// cost more than the last (7 538, 8 078, 8 618 under `fast-k8b16`
/// kill/revive).
#[test]
fn a_healed_world_costs_the_same_after_every_fault() {
    let heals = [80, 220, 360];
    // Down at 60 / 200 / 340 s, up 20 s later.
    let cycles = |down: fn(Duration) -> Fault, up: fn(Duration) -> Fault| -> Vec<Fault> {
        heals
            .iter()
            .flat_map(|&t| {
                [
                    down(Duration::from_secs(t - 20)),
                    up(Duration::from_secs(t)),
                ]
            })
            .collect()
    };
    let kill_revive = cycles(
        |at| Fault::KillSwitch { node: 1, at },
        |at| Fault::ReviveSwitch { node: 1, at },
    );
    let flap = cycles(
        |at| Fault::LinkDown { edge: 0, at },
        |at| Fault::LinkUp { edge: 0, at },
    );
    let knobs = [
        MatrixKnob::fast("fast"),
        MatrixKnob::fast("fast-k8b16")
            .with_provision_width(8)
            .with_fib_batch(16),
    ];
    let mut windows = Vec::new();
    for knob in knobs {
        for schedule in [
            FaultSchedule::new("kill-revive", kill_revive.clone()),
            FaultSchedule::new("flap", flap.clone()),
        ] {
            let key = format!("{}/{}", knob.name, schedule.name);
            let cell = MatrixCell {
                seed: 1,
                topology: "ring-8".into(),
                schedule,
                knob: knob.clone(),
            };
            let mut sc = ScenarioMatrix::standard_builder(&cell)
                .expect("ring-8 builds")
                .start();
            // Each window opens 80 s after its heal.
            let events = heals.map(|up| {
                sc.run_until(Time::from_secs(up + 80));
                let before = sc.sim.events_dispatched();
                sc.run_until(Time::from_secs(up + 110));
                sc.sim.events_dispatched() - before
            });
            windows.push((key, events));
        }
    }
    assert!(
        windows.iter().all(|(_, e)| e.iter().all(|&n| n == e[0])),
        "events per window after each heal: {windows:?}"
    );
}

/// The campaign's report is byte-identical at any worker-thread count
/// and fully reproducible from its seed — and the smoke campaign runs
/// green (no invariant violations).
#[test]
fn chaos_campaign_is_thread_invariant_and_green() {
    let campaign = ChaosCampaign::smoke(7);
    let one = campaign.run(1);
    let four = campaign.run(4);
    let eight = campaign.run(8);
    assert_eq!(one.report.to_json(), four.report.to_json());
    assert_eq!(one.report.to_json(), eight.report.to_json());
    // Reproducibility: a fresh identical campaign is the same bytes.
    let again = ChaosCampaign::smoke(7).run(4);
    assert_eq!(one.report.to_json(), again.report.to_json());

    assert_eq!(one.stats.schedules, 8);
    assert_eq!(one.stats.build_errors, 0);
    assert_eq!(
        one.stats.violations, 0,
        "smoke campaign must run green; repros: {:?}",
        one.repros
    );
    // Every cell carries the chaos accounting columns.
    for cell in &one.report.cells {
        assert!(cell.metrics.contains_key("chaos_faults"), "{}", cell.key);
        assert_eq!(cell.metrics["chaos_violations"], 0, "{}", cell.key);
    }
}

/// Replaying a repro case is deterministic: the same violations (here,
/// none — a kill the ring routes around) come back run after run, and
/// the artifact round-trips through its JSON form.
#[test]
fn repro_replay_is_deterministic() {
    let campaign = ChaosCampaign::smoke(3);
    let repro = ReproCase {
        key: "topo=ring-4/fault=manual/knob=chaos/seed=11".into(),
        topology: "ring-4".into(),
        knob: "chaos".into(),
        seed: 11,
        schedule: "manual".into(),
        faults: vec![Fault::KillSwitch {
            node: 1,
            at: Duration::from_secs(30),
        }],
        violations: Vec::new(),
    };
    let parsed = ReproCase::parse(&repro.to_json()).expect("round trip");
    let a = campaign.replay(&parsed).expect("the repro runs");
    let b = campaign.replay(&parsed).expect("the repro runs");
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert!(
        a.is_empty(),
        "ring-4 routes around a dead transit switch: {a:?}"
    );
}

/// "Could not replay" is an error, never an empty violation list: a
/// repro whose topology does not parse, whose schedule the builder
/// rejects, or which was recorded under another knob must not read as
/// "ran clean".
#[test]
fn replay_reports_why_a_repro_cannot_run() {
    let campaign = ChaosCampaign::smoke(3);
    let good = ReproCase {
        key: "topo=ring-4/fault=manual/knob=chaos/seed=11".into(),
        topology: "ring-4".into(),
        knob: "chaos".into(),
        seed: 11,
        schedule: "manual".into(),
        faults: Vec::new(),
        violations: Vec::new(),
    };
    let bad_topology = ReproCase {
        topology: "hypercube-9".into(),
        ..good.clone()
    };
    let bad_schedule = ReproCase {
        faults: vec![Fault::KillSwitch {
            node: 99,
            at: Duration::from_secs(30),
        }],
        ..good.clone()
    };
    // Fits the topology, but a world cannot take it: the refusal is
    // the answer, not a panic out of `replay`.
    let at_time_zero = ReproCase {
        faults: vec![Fault::LinkDown {
            edge: 0,
            at: Duration::ZERO,
        }],
        ..good.clone()
    };
    let other_knob = ReproCase {
        knob: "paper".into(),
        ..good
    };
    for (repro, needle) in [
        (bad_topology, "hypercube-9"),
        (bad_schedule, "node 99"),
        (at_time_zero, "not strictly after"),
        (other_knob, "\"paper\""),
    ] {
        let why = campaign
            .replay(&repro)
            .expect_err("an unrunnable repro is an error");
        assert!(why.contains(needle), "{why:?} should mention {needle}");
    }
}

/// A repro file is outside input: an instant, node, edge or dpid
/// written as a negative number is refused, naming its field, not read
/// as an instant some 584 years out or an index the file never named.
#[test]
fn negative_instants_in_a_repro_are_refused() {
    let good = ReproCase {
        key: "topo=ring-4/fault=manual/knob=chaos/seed=11".into(),
        topology: "ring-4".into(),
        knob: "chaos".into(),
        seed: 11,
        schedule: "manual".into(),
        faults: vec![
            Fault::LinkDown {
                edge: 1,
                at: Duration::from_secs(30),
            },
            Fault::ChannelStall {
                dpid: 2,
                from: Duration::from_secs(31),
                until: Duration::from_secs(32),
            },
            Fault::KillSwitch {
                node: 3,
                at: Duration::from_secs(33),
            },
        ],
        violations: Vec::new(),
    };
    let text = good.to_json();
    assert_eq!(ReproCase::parse(&text).unwrap().to_json(), text);
    for (field, v) in [
        ("at_ns", 30_000_000_000u64),
        ("from_ns", 31_000_000_000),
        ("until_ns", 32_000_000_000),
        ("node", 3),
        ("edge", 1),
        ("dpid", 2),
    ] {
        let written = format!("\"{field}\": {v}");
        assert!(text.contains(&written), "{text}");
        let bad = text.replace(&written, &format!("\"{field}\": -{v}"));
        let why = ReproCase::parse(&bad).expect_err("a negative field is an error");
        assert!(why.contains(field), "{why:?} should name {field}");
    }
}

/// Tentpole acceptance: the shrinker converges a deliberately seeded
/// violation — a severed line topology buried under healed noise
/// faults — to a minimal (≤3, here exactly 1) fault repro, and does so
/// deterministically.
#[test]
fn shrinker_minimizes_a_seeded_violation() {
    use routeflow_autoconf::core::chaos::shrink_schedule;

    // line-4: the 0↔3 ping needs every edge. The culprit is the
    // un-healed LinkDown on edge 1; everything else heals by t=40s.
    let schedule = vec![
        Fault::ChannelStall {
            dpid: 2,
            from: Duration::from_secs(30),
            until: Duration::from_secs(34),
        },
        Fault::LinkLoss {
            edge: 2,
            loss_pct: 50.0,
            at: Duration::from_secs(31),
        },
        Fault::LinkDown {
            edge: 2,
            at: Duration::from_secs(32),
        },
        Fault::LinkDown {
            edge: 1,
            at: Duration::from_millis(35_250),
        },
        Fault::LinkLoss {
            edge: 2,
            loss_pct: 0.0,
            at: Duration::from_secs(36),
        },
        Fault::LinkUp {
            edge: 2,
            at: Duration::from_secs(37),
        },
        Fault::ChannelStall {
            dpid: 4,
            from: Duration::from_secs(38),
            until: Duration::from_secs(39),
        },
    ];

    // Test-only invariant: "pings sent after t=45s never come back" —
    // true iff the path stays severed.
    let still_fails = |faults: &[Fault]| -> bool {
        let mut sc = Scenario::on(line(4))
            .fast_timers()
            .with_workload(Workload::ping(vec![0], 3).expect("one client"))
            .with_faults(faults.iter().cloned())
            .start();
        sc.run_until_configured(Time::from_secs(120))
            .expect("line-4 configures");
        sc.run_until(Time::from_secs(80));
        let probe = ping_report(&sc).expect("ping workload reports");
        !probe.replies.iter().any(|(seq, _)| {
            probe
                .sent
                .iter()
                .any(|(s, t)| s == seq && *t > Time::from_secs(45))
        })
    };

    assert!(still_fails(&schedule), "seeded schedule must violate");
    let out = shrink_schedule(&schedule, still_fails);
    assert!(
        out.faults.len() <= 3,
        "minimal repro has {} faults: {:?}",
        out.faults.len(),
        out.faults
    );
    assert!(
        out.faults
            .iter()
            .any(|f| matches!(f, Fault::LinkDown { edge: 1, .. })),
        "culprit survives minimization: {:?}",
        out.faults
    );
    // Instant rounding kicked in: 35.25s → 35s.
    assert!(
        out.faults.iter().all(
            |f| !matches!(f, Fault::LinkDown { edge: 1, at } if *at != Duration::from_secs(35))
        ),
        "culprit instant rounded: {:?}",
        out.faults
    );
    // Determinism: the same minimization, run again, lands on the same
    // repro after the same number of predicate evaluations.
    let again = shrink_schedule(&schedule, still_fails);
    assert_eq!(format!("{:?}", out.faults), format!("{:?}", again.faults));
    assert_eq!(out.runs, again.runs);
}

/// Satellite: malformed fault schedules are typed errors at build
/// time, and matrix cells report `build_error = 1` instead of
/// panicking the sweep.
#[test]
fn malformed_fault_schedules_are_typed_build_errors() {
    let knob = MatrixKnob::fast("fast");
    let cases: Vec<(Fault, FaultError)> = vec![
        (
            Fault::KillSwitch {
                node: 9,
                at: Duration::from_secs(30),
            },
            FaultError::NodeOutOfRange { node: 9, nodes: 4 },
        ),
        (
            Fault::LinkDown {
                edge: 99,
                at: Duration::from_secs(30),
            },
            FaultError::EdgeOutOfRange { edge: 99, edges: 4 },
        ),
        (
            Fault::LinkLoss {
                edge: 0,
                loss_pct: 150.0,
                at: Duration::from_secs(30),
            },
            FaultError::LossOutOfRange { loss_pct: 150.0 },
        ),
        (
            Fault::ChannelStall {
                dpid: 1,
                from: Duration::from_secs(30),
                until: Duration::from_secs(30),
            },
            FaultError::EmptyStallWindow {
                from: Duration::from_secs(30),
                until: Duration::from_secs(30),
            },
        ),
        (
            Fault::ChannelStall {
                dpid: 7,
                from: Duration::from_secs(1),
                until: Duration::from_secs(2),
            },
            FaultError::StallDpidOutOfRange { dpid: 7, nodes: 4 },
        ),
    ];
    for (fault, want) in cases {
        let cell = MatrixCell::new(
            1,
            "ring-4".parse::<TopoSpec>().unwrap(),
            FaultSchedule::new("bad", vec![fault.clone()]),
            knob.clone(),
        );
        match ScenarioMatrix::standard_builder(&cell) {
            Err(WorkloadError::BadFault(err)) => assert_eq!(err, want, "for {fault:?}"),
            Err(other) => panic!("{fault:?}: expected BadFault, got {other:?}"),
            Ok(_) => panic!("{fault:?}: builder accepted a malformed schedule"),
        }
    }

    // Through the sweep: the bad cell reports `build_error = 1`, the
    // good cell still runs.
    let spec = MatrixSpec {
        seeds: vec![1],
        topologies: vec!["ring-4".into()],
        schedules: vec![
            FaultSchedule::none(),
            FaultSchedule::new(
                "bad-node9",
                vec![Fault::KillSwitch {
                    node: 9,
                    at: Duration::from_secs(30),
                }],
            ),
        ],
        knobs: vec![MatrixKnob::fast("fast")],
        configure_deadline: Duration::from_secs(120),
        post_fault_window: Duration::from_secs(5),
        settle: Duration::from_secs(5),
    };
    let report = ScenarioMatrix::new(spec).run(2);
    let bad = report
        .cells
        .iter()
        .find(|c| c.key.contains("bad-node9"))
        .expect("bad cell reported");
    assert_eq!(bad.metrics.get("build_error"), Some(&1));
    assert_eq!(bad.metrics.len(), 1, "build-error cells carry no metrics");
    let good = report
        .cells
        .iter()
        .find(|c| c.key.contains("fault=none"))
        .expect("good cell reported");
    assert!(good.metrics.contains_key("configured_switches_final"));
}
