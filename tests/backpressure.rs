//! Backpressure end-to-end: bounded, credit-metered switch channels
//! must change *when* control traffic moves, never *what* the data
//! plane ends up holding — a full channel defers, and the producers
//! retry everything it refused.

use rf_core::scenario::{Fault, Scenario, ScenarioBuilder, Workload, WorkloadReport};
use rf_sim::Time;
use rf_switch::OpenFlowSwitch;
use rf_topo::ring;
use std::time::Duration;

/// Canonical cold-start cell used throughout: ring-5, fast timers,
/// fixed seed, run to steady state.
fn base(seed: u64) -> ScenarioBuilder {
    Scenario::on(ring(5))
        .fast_timers()
        .seed(seed)
        .trace_level(rf_sim::TraceLevel::Off)
}

/// Per-switch resident flow entries, formatted and sorted — the
/// byte-identity yardstick (everything except install timestamps).
fn flow_tables(sc: &Scenario) -> Vec<Vec<String>> {
    sc.switches
        .iter()
        .map(|&s| {
            let sw = sc
                .sim
                .agent_as::<OpenFlowSwitch>(s)
                .expect("switch agent alive");
            let mut entries: Vec<String> = sw
                .flow_table()
                .entries()
                .iter()
                .map(|e| {
                    format!(
                        "{:?}|{}|{:#x}|{:?}",
                        e.of_match, e.priority, e.cookie, e.actions
                    )
                })
                .collect();
            entries.sort();
            entries
        })
        .collect()
}

fn run_to_steady(mut sc: Scenario) -> Scenario {
    sc.run_until_configured(Time::from_secs(120))
        .expect("ring-5 must configure");
    let settle = sc.sim.now() + Duration::from_secs(30);
    sc.run_until(settle);
    sc
}

#[test]
fn defer_with_finite_capacity_converges_to_unbounded_fibs() {
    // The acceptance bar: any finite capacity >= 1 ends
    // with final FIBs byte-identical to the unbounded run, because
    // deferral paces the wire but the producers retry everything.
    let mut unbounded = run_to_steady(base(31).start());
    let baseline = flow_tables(&unbounded);
    assert!(baseline.iter().all(|t| !t.is_empty()));
    let um = unbounded.finish();

    for capacity in [1, 2, 4] {
        let mut sc = run_to_steady(base(31).channel_capacity(capacity).start());
        let m = sc.finish();
        assert_eq!(
            flow_tables(&sc),
            baseline,
            "capacity {capacity} final FIBs must match unbounded"
        );
        // Same controller decisions reach the wire, just in different
        // pushes.
        assert_eq!(m.of_msgs_sent, um.of_msgs_sent, "capacity {capacity}");
        assert!(
            m.of_queue_hwm <= capacity as u64,
            "queue bound must hold (hwm {} > {capacity})",
            m.of_queue_hwm
        );
    }
}

#[test]
fn tight_capacity_defers_and_still_converges() {
    // Capacity 1 on a 5-switch cold start has to push back: the
    // reconvergence burst cannot fit a 1-slot credit window.
    let mut sc = run_to_steady(base(31).channel_capacity(1).start());
    let m = sc.finish();
    assert!(
        m.of_deferred > 0,
        "a 1-slot channel must defer under the cold-start burst"
    );
}

#[test]
fn capacity_zero_defers_everything() {
    // The degenerate bound: no queue slots at all, so no OpenFlow
    // message ever reaches any switch — and the accounting says why.
    let mut sc = base(7).channel_capacity(0).start();
    sc.run_until(Time::from_secs(40));
    let m = sc.finish();
    assert_eq!(
        m.of_msgs_sent, 0,
        "nothing can pass a zero-capacity channel"
    );
    assert_eq!(m.of_pushes, 0);
    assert_eq!(m.of_queue_hwm, 0);
    assert!(m.of_deferred > 0, "every attempt must be deferred");
    // The only resident flows are the topology controller's LLDP punt
    // entries (cookie "LLDP"), which ride its own channel — nothing
    // from the RouteFlow side may land.
    assert!(
        flow_tables(&sc)
            .iter()
            .flatten()
            .all(|e| e.contains("0x4c4c4450")),
        "no RouteFlow FLOW_MOD may land"
    );
    // The control plane itself is fine — VMs provision regardless.
    assert_eq!(m.configured_switches, 5);
}

#[test]
fn capacity_one_with_batching_converges_identically() {
    // The batch stage hands multi-message bursts to a channel that can
    // only take one at a time: the split/retry path must still deliver
    // everything, in order.
    let unbatched = run_to_steady(base(13).start());
    let baseline = flow_tables(&unbatched);
    let mut sc = run_to_steady(base(13).fib_batch(4).channel_capacity(1).start());
    let m = sc.finish();
    assert!(m.of_deferred > 0, "batches of 4 into capacity 1 must defer");
    assert_eq!(
        flow_tables(&sc),
        baseline,
        "batching + tight capacity must not change the final FIBs"
    );
}

#[test]
fn channel_stall_queues_then_releases() {
    // Stall one transit switch's control channel across the cold-start
    // burst. During the window its FLOW_MODs pile up (observable as a
    // queue high-water mark) and the probe path through it stays dark;
    // when the window closes the backlog flushes and the network ends
    // byte-identical to a run that never stalled.
    let stall_from = Duration::from_secs(2);
    let stall_until = Duration::from_secs(25);
    let clean = run_to_steady(base(11).start());
    let baseline = flow_tables(&clean);

    let mut sc = base(11)
        .with_fault(Fault::ChannelStall {
            dpid: 2,
            from: stall_from,
            until: stall_until,
        })
        .start();
    sc.run_until(Time::ZERO + (stall_until - Duration::from_secs(1)));
    let mid = sc.peek_metrics();
    assert!(
        mid.of_queue_hwm > 0,
        "the stalled channel must have queued FLOW_MODs"
    );
    let mut sc = run_to_steady(sc);
    sc.finish();
    assert_eq!(
        flow_tables(&sc),
        baseline,
        "post-stall FIBs must match the never-stalled run"
    );
}

#[test]
fn stalled_bounded_channel_recovers_traffic_after_release() {
    // The full story in one cell: bounded channel + stall + ping
    // crossing the stalled switch. Pings must flow once the stall
    // clears and the deferred backlog drains.
    let stall_until = Duration::from_secs(25);
    let mut sc = Scenario::on(ring(4))
        .fast_timers()
        .seed(3)
        .trace_level(rf_sim::TraceLevel::Off)
        .channel_capacity(2)
        .with_workload(Workload::ping(0, 2))
        .with_fault(Fault::ChannelStall {
            dpid: 2,
            from: Duration::from_secs(2),
            until: stall_until,
        })
        .start();
    sc.run_until(Time::ZERO + stall_until + Duration::from_secs(30));
    sc.finish();
    let reports = sc.workload_reports();
    let WorkloadReport::Ping(probe) = &reports[0] else {
        unreachable!("ping workload attached above");
    };
    let replies = &probe.replies;
    assert!(
        replies.iter().any(|(_, t)| *t > Time::ZERO + stall_until),
        "pings must flow after the stall clears (got {} replies)",
        replies.len()
    );
}

#[test]
fn fan_in_workload_reports_every_client() {
    // Three pingers converging on one server: every client must get
    // through, and the per-client report must carry each timeline.
    let mut sc = Scenario::on(ring(4))
        .fast_timers()
        .seed(9)
        .trace_level(rf_sim::TraceLevel::Off)
        .with_workload(Workload::ping_fan_in(vec![0, 1, 3], 2).expect("valid fan-in"))
        .start();
    sc.run_until_configured(Time::from_secs(120))
        .expect("ring-4 must configure");
    let settle = sc.sim.now() + Duration::from_secs(20);
    sc.run_until(settle);
    let reports = sc.workload_reports();
    let WorkloadReport::PingFanIn { clients } = &reports[0] else {
        unreachable!("fan-in workload attached above");
    };
    assert_eq!(clients.len(), 3);
    for (j, c) in clients.iter().enumerate() {
        assert!(
            c.first_reply_at.is_some(),
            "fan-in client {j} must reach the server"
        );
        assert!(!c.replies.is_empty());
    }
    // Fan-in concentrates edge state on the controller: one gateway
    // ARP answered per client (the echo server replies via the MAC it
    // learned from the incoming frame, so it never asks).
    let m = sc.finish();
    assert!(m.arp_replies >= 3, "one gateway ARP per fan-in client");
}
