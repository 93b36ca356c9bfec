//! The controller's four stages, observed through public state: the
//! order switches turn green in, and that a run is reproducible.

use rf_core::scenario::Scenario;
use rf_sim::Time;
use rf_topo::ring;

/// Cold-start ring-4 at the paper's serial provisioning width, run to
/// all-green and then on to 40 s.
fn cold_start(seed: u64) -> Scenario {
    let mut sc = Scenario::on(ring(4))
        .seed(seed)
        .fast_timers()
        .provision_width(1)
        .trace_level(rf_sim::TraceLevel::Off)
        .start();
    sc.run_until_configured(Time::from_secs(120)).unwrap();
    sc
}

#[test]
fn switches_turn_green_once_in_dpid_order() {
    let mut sc = cold_start(7);
    let at_green = sc.controller().configured_times();
    let dpids: Vec<u64> = at_green.iter().map(|(d, _)| *d).collect();
    assert_eq!(dpids, vec![1, 2, 3, 4]);
    let times: Vec<Time> = at_green
        .iter()
        .map(|(d, t)| t.unwrap_or_else(|| panic!("dpid {d} never turned green")))
        .collect();
    // The serial pipeline provisions in dpid order on a cold start: the
    // next VM is spawned only after the previous one came up.
    assert!(
        times.windows(2).all(|w| w[0] < w[1]),
        "green in ascending dpid order: {at_green:?}"
    );
    // Each switch turns green once: later VmUp traffic (config pushes,
    // reconnects) never moves a stamp.
    sc.run_until(Time::from_secs(40));
    assert_eq!(sc.controller().configured_times(), at_green);
    assert!(sc.controller().switch_states().iter().all(|(_, g)| *g));
}

#[test]
fn same_seed_reproduces_the_controller_run() {
    let run = |seed| {
        let mut sc = cold_start(seed);
        sc.run_until(Time::from_secs(40));
        let ctrl = sc.controller();
        (
            ctrl.configured_times(),
            ctrl.flows_installed(),
            ctrl.of_msgs_sent(),
        )
    };
    let first = run(42);
    assert!(first.1 >= 8, "ring-4 installs at least 8 routed flows");
    assert_eq!(first, run(42));
}

/// Regression: `ScenarioBuilder::ospf_timers` must actually reach the
/// VMs' routing daemons (the knob used to be written into the
/// deployment config and read by no one — every VM silently ran
/// Quagga's 10/40 defaults).
#[test]
fn ospf_timers_reach_the_vm_daemons() {
    let mut sc = Scenario::on(ring(4))
        .ospf_timers(2, 8)
        .trace_level(rf_sim::TraceLevel::Off)
        .start();
    sc.run_until_configured(Time::from_secs(120)).unwrap();
    let mut vms = 0;
    for id in 0..100 {
        if let Some(vm) = sc
            .sim
            .agent_as::<rf_core::vnet::vm::VmAgent>(rf_sim::AgentId(id))
        {
            assert_eq!(
                vm.ospf_timers(),
                Some((
                    std::time::Duration::from_secs(2),
                    std::time::Duration::from_secs(8)
                )),
                "vm {:#x} runs the configured timers",
                vm.dpid()
            );
            vms += 1;
        }
    }
    assert_eq!(vms, 4, "one daemon checked per switch");
}
