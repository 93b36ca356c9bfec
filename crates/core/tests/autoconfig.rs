//! End-to-end automatic-configuration tests: the full Fig. 2 stack on
//! real topologies — discovery → RPC → VM creation → config files →
//! OSPF convergence → flow installation.

use rf_core::apps::ControlPlane;
use rf_core::scenario::Scenario;
use rf_sim::Time;
use rf_switch::OpenFlowSwitch;
use rf_topo::{line, ring};
use std::time::Duration;

#[test]
fn ring4_all_switches_turn_green() {
    let mut sc = Scenario::on(ring(4)).fast_timers().start();
    let done = sc.run_until_configured(Time::from_secs(120));
    let done = done.expect("all switches must configure");
    assert_eq!(sc.configured_switches(), 4);
    // Automatic configuration is sub-minute, vs 1 hour manual (4 × 15').
    assert!(
        done < Time::from_secs(60),
        "configuration took {done} — too slow"
    );
}

#[test]
fn vms_mirror_switch_port_counts() {
    let mut sc = Scenario::on(ring(4)).fast_timers().start();
    sc.run_until_configured(Time::from_secs(120)).unwrap();
    let rf = sc.sim.agent_as::<ControlPlane>(sc.rf_ctrl).unwrap();
    let counts: Vec<(u64, u16)> = rf
        .state()
        .switches
        .iter()
        .map(|(&dpid, rec)| (dpid, rec.num_ports))
        .collect();
    // Every ring node has exactly 2 ports, and VM ids equal dpids.
    assert_eq!(counts, vec![(1, 2), (2, 2), (3, 2), (4, 2)]);
}

#[test]
fn ospf_converges_and_flows_are_installed() {
    let mut sc = Scenario::on(ring(4)).fast_timers().start();
    sc.run_until(Time::from_secs(90));
    assert_eq!(sc.configured_switches(), 4);
    // Each of the 4 VMs sees 4 remote /30s (ring of 4 = 4 link subnets,
    // 2 connected + 2 remote each) → 2 routed flows per switch at
    // steady state (remote subnets), possibly more transiently.
    let flows = sc.total_flows();
    assert!(
        flows >= 8,
        "expected at least 8 routed flows across the ring, got {flows}"
    );
    // Every switch also has at least its routed entries.
    for &sw in &sc.switches {
        let s = sc.sim.agent_as::<OpenFlowSwitch>(sw).unwrap();
        assert!(
            s.flow_count() >= 2,
            "switch {:#x} has {} flows",
            s.dpid(),
            s.flow_count()
        );
    }
}

#[test]
fn line_topology_converges_too() {
    let mut sc = Scenario::on(line(5)).fast_timers().start();
    let done = sc.run_until_configured(Time::from_secs(120));
    assert!(done.is_some());
    sc.run_until(Time::from_secs(90));
    // End switches must route to the far end: 4 subnets, 3 remote from
    // each end → at least 3 flows on each end switch.
    let ends = [sc.switches[0], sc.switches[4]];
    for sw in ends {
        let s = sc.sim.agent_as::<OpenFlowSwitch>(sw).unwrap();
        assert!(s.flow_count() >= 3, "end switch has {}", s.flow_count());
    }
}

#[test]
fn no_flowvisor_ablation_also_configures() {
    let mut sc = Scenario::on(ring(4))
        .fast_timers()
        .without_flowvisor()
        .start();
    let done = sc.run_until_configured(Time::from_secs(120));
    assert!(done.is_some(), "direct multi-controller mode must work");
}

#[test]
fn deterministic_across_runs() {
    let run = |seed: u64| {
        let mut sc = Scenario::on(ring(6)).fast_timers().seed(seed).start();
        let t = sc.run_until_configured(Time::from_secs(120)).unwrap();
        (t, sc.total_flows())
    };
    assert_eq!(run(7), run(7), "same seed ⇒ identical outcome");
}

#[test]
fn vm_boot_delay_shifts_config_time() {
    let time_with_boot = |boot: Duration| {
        let mut sc = Scenario::on(ring(4))
            .fast_timers()
            .vm_boot_delay(boot)
            .start();
        sc.run_until_configured(Time::from_secs(300)).unwrap()
    };
    let fast_boot = time_with_boot(Duration::from_millis(500));
    let slow_boot = time_with_boot(Duration::from_secs(10));
    assert!(
        slow_boot > fast_boot + Duration::from_secs(5),
        "boot delay must dominate: fast {fast_boot} slow {slow_boot}"
    );
}
