//! The converged-state checkpoint/fork contract at scenario level:
//! quiesce-point preconditions are typed errors (never force-drains,
//! never panics), past faults are refused at injection, and a fork
//! continues byte-identically to the captured run — with or without
//! divergent faults. The matrix-level byte-identity contract rides on
//! these in `tests/matrix_sweeps.rs`.

use rf_core::scenario::{
    Fault, FaultError, FaultSchedule, ForkError, Scenario, Snapshot, SnapshotError, Workload,
};
use rf_sim::Time;
use rf_topo::ring;
use rf_wire::Ipv4Cidr;
use std::time::Duration;

/// Run to convergence, then capture at the first quiesce point.
fn converge_and_snapshot(sc: &mut Scenario) -> Snapshot {
    sc.run_until_configured(Time::from_secs(120))
        .expect("ring-4 converges");
    snapshot_when_quiet(sc)
}

/// Step in 100 ms slices until the snapshot is accepted (a FIB batch
/// waiting out its tick refuses the capture; the matrix's fork path
/// probes the same way).
fn snapshot_when_quiet(sc: &mut Scenario) -> Snapshot {
    loop {
        match sc.snapshot() {
            Ok(s) => return s,
            Err(SnapshotError::UndrainedChannels { .. }) => {
                let t = sc.sim.now() + Duration::from_millis(100);
                sc.run_until(t);
            }
            Err(e) => panic!("unexpected snapshot refusal: {e}"),
        }
    }
}

#[test]
fn snapshot_before_convergence_is_a_typed_refusal() {
    let mut sc = Scenario::on(ring(4)).fast_timers().seed(3).start();
    sc.run_until(Time::from_millis(500));
    match sc.snapshot() {
        Err(SnapshotError::NotConverged {
            configured,
            expected,
        }) => {
            assert_eq!(expected, 4);
            assert!(configured < 4, "nothing converges in 500 ms");
        }
        Err(e) => panic!("expected NotConverged, got {e:?}"),
        Ok(_) => panic!("expected NotConverged, got a capture"),
    }
}

#[test]
fn snapshot_never_force_drains_queued_channel_output() {
    // A credit-capped (capacity 1), batch-8 channel on ring-6 holds
    // queued FLOW_MODs for a stretch shortly after the configured
    // instant, while the routed burst squeezes through one credit at a
    // time. Captures attempted inside that stretch must be refused
    // with the queue depth — and the refusal must be a pure
    // observation: asking twice yields the same answer, and the
    // backlog drains on its own schedule, after which the same call
    // succeeds.
    let mut sc = Scenario::on(ring(6))
        .fast_timers()
        .seed(3)
        .channel_capacity(1)
        .fib_batch(8)
        .start();
    sc.run_until_configured(Time::from_secs(120))
        .expect("a capacity-1 channel still converges");
    let mut saw_refusal = false;
    for _ in 0..100 {
        match sc.snapshot() {
            Ok(_) => {}
            Err(SnapshotError::UndrainedChannels { queued }) => {
                assert!(queued > 0);
                // Pure observation: an immediate retry sees the exact
                // same state, nothing was drained to answer.
                assert_eq!(
                    sc.snapshot().err(),
                    Some(SnapshotError::UndrainedChannels { queued })
                );
                saw_refusal = true;
            }
            Err(e) => panic!("unexpected snapshot refusal: {e}"),
        }
        let t = sc.sim.now() + Duration::from_millis(50);
        sc.run_until(t);
    }
    assert!(
        saw_refusal,
        "the credit-capped burst must refuse at least one capture"
    );
    assert!(
        sc.snapshot().is_ok(),
        "once the backlog drains the capture succeeds"
    );
}

#[test]
fn inject_faults_refuses_past_faults_atomically() {
    let mut sc = Scenario::on(ring(4)).fast_timers().seed(3).start();
    let snap = converge_and_snapshot(&mut sc);
    let now = snap.taken_at();
    let mut fork = Scenario::fork(&snap);

    // One future fault, one already-elapsed fault: the batch is
    // refused naming the elapsed one, and *nothing* is scheduled.
    let past = Duration::from_secs(1);
    let err = fork
        .inject_faults(&[
            Fault::KillSwitch {
                node: 1,
                at: Duration::from_secs(600),
            },
            Fault::KillSwitch { node: 2, at: past },
        ])
        .unwrap_err();
    assert_eq!(err, ForkError::FaultNotAfterFork { at: past, now });

    // The refused batch left no trace: the fork still matches the
    // captured run continuing undisturbed.
    let mut undisturbed = Scenario::fork(&snap);
    let horizon = now + Duration::from_secs(30);
    fork.run_until(horizon);
    undisturbed.run_until(horizon);
    assert_eq!(
        format!("{:?}", fork.peek_metrics()),
        format!("{:?}", undisturbed.peek_metrics()),
        "a refused injection must not perturb the fork"
    );
}

#[test]
fn inject_faults_refuses_malformed_faults_typed_and_atomically() {
    // What the builder path rejects as a `FaultError`, injection must
    // reject the same way — never by panicking in the chaos agent's
    // node/edge lookup or on a stall-window assertion.
    let mut cold = Scenario::on(ring(4)).fast_timers().seed(3).start();
    let snap = converge_and_snapshot(&mut cold);
    let mut fork = Scenario::fork(&snap);

    let later = Duration::from_secs(600);
    let fine = Fault::KillSwitch {
        node: 1,
        at: Duration::from_secs(25),
    };
    let cases = [
        (
            Fault::KillSwitch {
                node: 99,
                at: later,
            },
            FaultError::NodeOutOfRange { node: 99, nodes: 4 },
        ),
        (
            Fault::LinkDown {
                edge: 99,
                at: later,
            },
            FaultError::EdgeOutOfRange { edge: 99, edges: 4 },
        ),
        (
            Fault::ChannelStall {
                dpid: 2,
                from: later,
                until: later,
            },
            FaultError::EmptyStallWindow {
                from: later,
                until: later,
            },
        ),
    ];
    for (bad, why) in cases {
        // A well-formed fault rides in front: the batch is refused as
        // a whole, so its kill must not be scheduled either.
        assert_eq!(
            fork.inject_faults(&[fine.clone(), bad]),
            Err(ForkError::BadFault(why))
        );
    }

    // The refusals left no trace: the fork, and a sibling that never
    // saw an injection, both still equal the cold run continuing.
    let mut sibling = Scenario::fork(&snap);
    let horizon = snap.taken_at() + Duration::from_secs(40);
    for sc in [&mut cold, &mut fork, &mut sibling] {
        sc.run_until(horizon);
    }
    let cold = format!("{:?}", cold.peek_metrics());
    assert_eq!(format!("{:?}", fork.peek_metrics()), cold);
    assert_eq!(format!("{:?}", sibling.peek_metrics()), cold);
}

#[test]
fn a_builder_fault_is_checked_exactly_like_an_injected_one() {
    // A cold run arms its faults through `inject_faults`, so the
    // builder refuses what a fork refuses, with the same error — a
    // stall naming a dpid no switch carries is no longer silently
    // inert on a cold start.
    let mut prefix = Scenario::on(ring(4)).fast_timers().seed(3).start();
    let snap = converge_and_snapshot(&mut prefix);
    let later = Duration::from_secs(600);
    let cases = [
        (
            Fault::ChannelStall {
                dpid: 99,
                from: later,
                until: later + Duration::from_secs(10),
            },
            FaultError::StallDpidOutOfRange { dpid: 99, nodes: 4 },
        ),
        (
            Fault::ChannelStall {
                dpid: 2,
                from: later,
                until: later,
            },
            FaultError::EmptyStallWindow {
                from: later,
                until: later,
            },
        ),
        (
            Fault::LinkLoss {
                edge: 0,
                loss_pct: 150.0,
                at: later,
            },
            FaultError::LossOutOfRange { loss_pct: 150.0 },
        ),
        (
            Fault::KillSwitch { node: 9, at: later },
            FaultError::NodeOutOfRange { node: 9, nodes: 4 },
        ),
        (
            Fault::LinkDown { edge: 9, at: later },
            FaultError::EdgeOutOfRange { edge: 9, edges: 4 },
        ),
    ];
    for (bad, why) in cases {
        let cold = std::panic::catch_unwind(|| {
            Scenario::on(ring(4))
                .fast_timers()
                .seed(3)
                .with_fault(bad.clone())
                .start()
        });
        let payload = cold
            .err()
            .unwrap_or_else(|| panic!("{bad:?} must be refused"));
        assert_eq!(
            payload.downcast_ref::<String>(),
            Some(&why.to_string()),
            "the builder refuses {bad:?} with the fault's error text"
        );
        assert_eq!(
            Scenario::fork(&snap).inject_faults(&[bad]),
            Err(ForkError::BadFault(why))
        );
    }
}

#[test]
fn ip_range_moves_every_link_subnet_into_the_range() {
    // The paper's one administrator input: every /30 the topology
    // controller allocates comes out of the declared range.
    let range: Ipv4Cidr = "10.99.0.0/16".parse().unwrap();
    let mut sc = Scenario::on(ring(4)).fast_timers().ip_range(range).start();
    sc.run_until_configured(Time::from_secs(120))
        .expect("ring-4 converges");
    let links = &sc.controller().state().links;
    assert_eq!(links.len(), 4, "one /30 per ring link");
    for l in links {
        assert_eq!(l.subnet.prefix_len, 30, "{}", l.subnet);
        assert!(
            range.contains(l.subnet.network()),
            "{} outside {range}",
            l.subnet
        );
        assert!(range.contains(l.ip_a) && range.contains(l.ip_b));
    }
}

#[test]
fn unforked_continuation_matches_the_original_run() {
    // Fork with no intervention ≡ the captured scenario continuing:
    // same pending timers, same RNG stream position, same metrics at
    // every later instant.
    let mut sc = Scenario::on(ring(4)).fast_timers().seed(3).start();
    let snap = converge_and_snapshot(&mut sc);
    let mut fork = Scenario::fork(&snap);
    let horizon = snap.taken_at() + Duration::from_secs(40);
    sc.run_until(horizon);
    fork.run_until(horizon);
    assert_eq!(
        format!("{:?}", sc.peek_metrics()),
        format!("{:?}", fork.peek_metrics())
    );
    assert_eq!(sc.total_flows(), fork.total_flows());
}

#[test]
fn forked_fault_run_matches_the_cold_run_with_the_same_schedule() {
    // The tentpole equivalence in miniature: declaring a kill at build
    // time and injecting the same kill into a fork of the fault-free
    // prefix must be observationally identical — same recovery, same
    // flow tables, same metrics.
    let kill_at = Duration::from_secs(25);
    let horizon = Time::from_secs(50);

    let mut cold = Scenario::on(ring(4))
        .fast_timers()
        .seed(3)
        .with_faults([Fault::KillSwitch {
            node: 1,
            at: kill_at,
        }])
        .start();
    cold.run_until(horizon);

    let mut prefix = Scenario::on(ring(4)).fast_timers().seed(3).start();
    let snap = converge_and_snapshot(&mut prefix);
    assert!(
        snap.taken_at() < Time::ZERO + kill_at,
        "the capture must precede the divergence point"
    );
    let mut fork = Scenario::fork(&snap);
    fork.inject_faults(&[Fault::KillSwitch {
        node: 1,
        at: kill_at,
    }])
    .expect("a strictly-future fault injects");
    fork.run_until(horizon);

    assert_eq!(
        format!("{:?}", cold.peek_metrics()),
        format!("{:?}", fork.peek_metrics()),
        "fork-injected kill must be indistinguishable from a cold-declared one"
    );
    assert_eq!(cold.total_flows(), fork.total_flows());
}

#[test]
fn many_forks_from_one_snapshot_are_independent() {
    // The snapshot is immutable: fork twice, disturb one, and the
    // other still matches the undisturbed continuation.
    let mut sc = Scenario::on(ring(4)).fast_timers().seed(3).start();
    let snap = converge_and_snapshot(&mut sc);
    let horizon = snap.taken_at() + Duration::from_secs(35);

    let mut disturbed = Scenario::fork(&snap);
    disturbed
        .inject_faults(&[Fault::KillSwitch {
            node: 1,
            at: Duration::from_secs(25),
        }])
        .unwrap();
    disturbed.run_until(horizon);

    let mut calm = Scenario::fork(&snap);
    calm.run_until(horizon);
    sc.run_until(horizon);

    assert_eq!(
        format!("{:?}", sc.peek_metrics()),
        format!("{:?}", calm.peek_metrics()),
        "the calm fork must not see the disturbed fork's kill"
    );
    assert_ne!(
        format!("{:?}", calm.peek_metrics()),
        format!("{:?}", disturbed.peek_metrics()),
        "the kill must actually change the disturbed fork"
    );
}

#[test]
fn a_capture_just_before_the_fault_matches_cold() {
    // The sweep's capture ladder in miniature: for every fault kind of
    // the benchmark's fork grid, a fork from a capture taken 1 s before
    // the fault ends exactly where the cold run and the convergence
    // fork do — same metrics after `finish()`, same workload reports.
    // The loss window draws from the kernel RNG for every frame it
    // carries, so that case also proves the stream continues across a
    // later capture.
    let at = Duration::from_secs(25);
    let heal = at + Duration::from_secs(10);
    let horizon = Time::from_secs(60);
    let schedules = [
        FaultSchedule::kill_switch(1, at),
        FaultSchedule::kill_revive(1, at, heal),
        FaultSchedule::link_flap(0, at, Duration::from_secs(4), 3),
        FaultSchedule::channel_stall(2, at, heal),
        FaultSchedule::link_loss(0, 30.0, at..heal),
    ];
    let world = || {
        Scenario::on(ring(4))
            .fast_timers()
            .seed(3)
            .with_workload(Workload::ping(vec![0], 2).expect("one client"))
    };
    let outcome = |mut sc: Scenario| {
        sc.run_until(horizon);
        let m = sc.finish();
        format!("{m:?}\n{:?}", sc.workload_reports())
    };

    let mut prefix = world().start();
    let at_convergence = converge_and_snapshot(&mut prefix);
    prefix.run_until(Time::ZERO + (at - Duration::from_secs(1)));
    let before_fault = snapshot_when_quiet(&mut prefix);
    assert!(
        at_convergence.taken_at() + Duration::from_secs(10) < before_fault.taken_at()
            && before_fault.taken_at() < Time::ZERO + at,
        "captures at {} and {}",
        at_convergence.taken_at(),
        before_fault.taken_at()
    );

    for schedule in &schedules {
        let cold = outcome(world().with_faults(schedule.faults.clone()).start());
        for snap in [&at_convergence, &before_fault] {
            let mut fork = Scenario::fork(snap);
            fork.inject_faults(&schedule.faults)
                .expect("every fault lies past both captures");
            assert_eq!(
                outcome(fork),
                cold,
                "{} forked at {}",
                schedule.name,
                snap.taken_at()
            );
        }
    }
}
