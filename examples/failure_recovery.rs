//! Beyond the paper: kill a transit switch after the network is up and
//! watch the framework heal — discovery notices the dead switch, OSPF
//! routes around it, and RouteFlow reprograms the data plane. The
//! whole experiment is one builder chain: topology, workload, fault.
//!
//! ```sh
//! cargo run --release --example failure_recovery
//! ```

use routeflow_autoconf::prelude::*;
use std::time::Duration;

fn main() {
    // Ring of 5: two disjoint paths between any pair of switches. The
    // ping workload crosses the short arc through switch 1; the fault
    // kills that switch at t = 60 s, well after convergence.
    let mut sc = Scenario::on(ring(5))
        .fast_timers()
        .with_workload(Workload::ping(vec![0], 2).expect("one client"))
        .with_fault(Fault::KillSwitch {
            node: 1,
            at: Duration::from_secs(60),
        })
        .start();

    sc.run_until(Time::from_secs(180));

    let reports = sc.workload_reports();
    let WorkloadReport::Ping(probes) = &reports[0] else {
        unreachable!("ping workload");
    };
    let (first_reply_at, rtts) = (probes[0].first_reply_at(), probes[0].rtts());
    println!("ping timeline (1 ping per second):");
    let mut last_seq: i64 = -1;
    let mut outage: u64 = 0;
    for &(seq, rtt) in &rtts {
        if i64::from(seq) != last_seq + 1 {
            let lost = i64::from(seq) - last_seq - 1;
            outage += lost as u64;
            println!(
                "  ... {lost} pings lost (seq {} to {})",
                last_seq + 1,
                seq - 1
            );
        }
        last_seq = i64::from(seq);
        let _ = rtt;
    }
    println!("\nreplies received: {}", rtts.len());
    println!("pings lost to the failure + reconvergence: {outage}");
    println!(
        "first reply after cold start: {:?}",
        first_reply_at.expect("network converged")
    );
    assert!(
        rtts.iter().any(|(seq, _)| *seq > 70),
        "pings must flow again after the failure"
    );
    println!("the ring healed: traffic flows around the dead switch.");
}
