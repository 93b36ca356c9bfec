//! Workspace-level end-to-end tests: hosts exchanging real traffic
//! across the automatically configured network — the demo scenario.

use rf_core::host::VideoClientReport;
use routeflow_autoconf::prelude::*;
use std::time::Duration;

/// Stream video from a host on `server_node` to one on `client_node`
/// for `secs` seconds; the client's report.
fn video_report(
    topo: Topology,
    server_node: usize,
    client_node: usize,
    fast: bool,
    secs: u64,
) -> VideoClientReport {
    let mut b = Scenario::on(topo).with_workload(Workload::video(server_node, client_node));
    if fast {
        b = b.fast_timers();
    }
    let mut sc = b.start();
    sc.run_until(Time::from_secs(secs));
    let reports = sc.workload_reports();
    let WorkloadReport::Video(report) = &reports[0] else {
        unreachable!("video workload");
    };
    *report
}

#[test]
fn video_crosses_ring4_after_autoconfig() {
    let report = video_report(ring(4), 0, 2, true, 120);
    let first = report.first_byte_at.expect("video must arrive");
    assert!(
        first < Time::from_secs(120),
        "first byte at {first}, too late"
    );
    assert!(report.packets > 100, "stream must flow: {report:?}");
    assert!(report.playback_at.is_some(), "jitter buffer must fill");
}

#[test]
fn ping_works_between_hosts_after_autoconfig() {
    let mut sc = Scenario::on(line(3))
        .with_workload(Workload::ping(vec![0], 2).expect("one client"))
        .fast_timers()
        .start();
    sc.run_until(Time::from_secs(90));
    let reports = sc.workload_reports();
    let WorkloadReport::Ping(probes) = &reports[0] else {
        unreachable!("ping workload");
    };
    let p = &probes[0];
    assert!(
        p.first_reply_at().is_some(),
        "ping must succeed once configured"
    );
    let rtts = p.rtts();
    assert!(!rtts.is_empty());
    // RTT plausibility: 4 hops of 1 ms links each way < 20 ms.
    let (_, rtt) = rtts[rtts.len() - 1];
    assert!(rtt < Duration::from_millis(20), "rtt {rtt:?}");
}

#[test]
fn pan_european_demo_video_within_four_minutes() {
    // The paper's §3 demonstration: 28-node pan-European topology,
    // video from a server to a remote client, arriving "within 4
    // minutes (including the configuration time)" — with the paper's
    // default Quagga timers, not the sped-up test timers.
    let topo = pan_european();
    let (a, b) = topo.farthest_pair().unwrap();
    let report = video_report(topo, a, b, false, 240);
    let first = report
        .first_byte_at
        .expect("video must reach the remote client");
    assert!(
        first < Time::from_secs(240),
        "first byte at {first}, exceeding the paper's 4-minute bound"
    );
}
