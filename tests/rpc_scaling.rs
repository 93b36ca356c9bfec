//! Scaling guard for the configuration path: a fault-free cold start
//! carries exactly one RPC per switch and one per link, however dense
//! the topology. A count, not a timing, so it holds on any host.
//!
//! The two shapes are the densest cells of rfbench's `autoconf_corpus`
//! workload, under that workload's knob. Before the topology controller
//! stopped re-sending its whole unacked backlog on every new request,
//! they sent 8 556 and 8 408 RPCs: quadratic in the requests issued
//! inside one relay round trip.

use rf_core::scenario::Scenario;
use rf_sim::{Time, TraceLevel};
use rf_topo::TopoSpec;
use std::time::Duration;

#[test]
fn cold_start_sends_one_rpc_per_switch_and_link() {
    for (name, switches_plus_links) in [("leaf-spine-8x16x0", 152), ("grid-8x8", 176)] {
        let topo = name.parse::<TopoSpec>().expect("a known spec").build();
        assert_eq!(
            topo.node_count() + topo.edge_count(),
            switches_plus_links,
            "{name} changed shape"
        );
        let mut sc = Scenario::on(topo)
            .fast_timers()
            .provision_width(8)
            .fib_batch(16)
            .trace_level(TraceLevel::Info)
            .start();
        sc.run_until_configured(Time::from_secs(900))
            .unwrap_or_else(|| panic!("{name} must configure"));
        let settle = sc.sim.now() + Duration::from_secs(10);
        sc.run_until(settle);
        assert_eq!(
            sc.sim.tracer().counter("rpc.sent"),
            switches_plus_links as u64,
            "{name}: rpc.sent"
        );
    }
}
