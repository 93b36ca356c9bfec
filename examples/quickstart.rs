//! Quickstart: auto-configure a 4-switch ring and ping across it,
//! using the composable scenario API.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use routeflow_autoconf::prelude::*;

fn main() {
    // 1. A physical topology: four OpenFlow switches in a ring, with a
    //    ping workload between hosts on opposite sides (the builder
    //    attaches both endpoints and their subnets). Snappy timers so
    //    the quickstart finishes in seconds of simulated time (the
    //    defaults are Quagga's 10 s hello / 40 s dead).
    let mut sc = Scenario::on(ring(4))
        .fast_timers()
        .with_workload(Workload::ping(vec![0], 2).expect("one client"))
        .start();

    // 2. Cold start. No VM exists, no flow is installed, the pinger
    //    starts pinging into the void.
    sc.run_until(Time::from_secs(60));

    let metrics = sc.finish();
    let configured = metrics.all_configured_at.expect("configuration completes");
    println!("all 4 switches configured (green) at t = {configured}");
    println!(
        "controller pushed {} flows ({} resident in the data plane)",
        metrics.flows_installed, metrics.dataplane_flows
    );

    let reports = sc.workload_reports();
    let WorkloadReport::Ping(probes) = &reports[0] else {
        unreachable!("ping workload");
    };
    let (first_reply_at, rtts) = (probes[0].first_reply_at(), probes[0].rtts());
    let first = first_reply_at.expect("ping succeeds once routed");
    println!("first successful ping at        t = {first}");
    let (seq, rtt) = rtts.last().unwrap();
    println!("steady-state rtt (seq {seq}):          {rtt:?}");
    println!(
        "\ntimeline: {} pings sent before the network came up, then {} round trips completed",
        seq + 1 - rtts.len() as u16,
        rtts.len()
    );
}
