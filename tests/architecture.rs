//! E4 — Fig. 1 + Fig. 2 validation: the framework's architectural
//! invariants on the paper's own 4-switch layout (OF-A … OF-D).

use rf_discovery::TopologyController;
use rf_flowvisor::FlowVisor;
use rf_vnet::vm::VmAgent;
use routeflow_autoconf::prelude::*;

/// The Fig. 1 topology: OF-A — OF-B — OF-C — OF-D in a line, mirrored
/// by VM-A … VM-D.
fn fig1() -> Scenario {
    Scenario::on(line(4)).fast_timers().start()
}

#[test]
fn every_switch_gets_a_mirroring_vm_with_matching_id() {
    let mut dep = fig1();
    dep.run_until_configured(Time::from_secs(120)).unwrap();
    let rf = dep.sim.agent_as::<ControlPlane>(dep.rf_ctrl).unwrap();
    let states = rf.switch_states();
    assert_eq!(states.len(), 4);
    assert!(states.iter().all(|(_, green)| *green));
    // VM ids equal switch dpids (paper §2: "a VM with an ID identical
    // to the switch ID").
    let dpids: Vec<u64> = states.iter().map(|(d, _)| *d).collect();
    assert_eq!(dpids, vec![1, 2, 3, 4]);
}

#[test]
fn vm_interconnect_mirrors_physical_topology() {
    let mut dep = fig1();
    dep.run_until_configured(Time::from_secs(120)).unwrap();
    dep.sim.run_until(Time::from_secs(60));
    // VM-A (end of line) must have exactly one OSPF adjacency; VM-B two.
    // VM agent ids: find by name through downcast scan.
    let mut adjacency_counts = Vec::new();
    for id in 0..200 {
        if let Some(vm) = dep.sim.agent_as::<VmAgent>(rf_sim::AgentId(id)) {
            adjacency_counts.push((vm.dpid(), vm.ospf_neighbors().len()));
        }
    }
    adjacency_counts.sort();
    assert_eq!(
        adjacency_counts,
        vec![(1, 1), (2, 2), (3, 2), (4, 1)],
        "VM adjacency degree must mirror the physical line"
    );
}

#[test]
fn flowvisor_proxies_every_switch_for_both_controllers() {
    let mut dep = fig1();
    dep.run_until_configured(Time::from_secs(120)).unwrap();
    let fv = dep
        .sim
        .agent_as::<FlowVisor>(dep.flowvisor.expect("default layout uses FlowVisor"))
        .unwrap();
    assert_eq!(fv.switch_count(), 4, "one session per switch");
    // No slice violation occurred during a clean bootstrap.
    assert_eq!(fv.denied_flow_mods, 0);
}

#[test]
fn topology_controller_only_admin_input_is_the_ip_range() {
    let mut dep = fig1();
    dep.run_until_configured(Time::from_secs(120)).unwrap();
    let tc = dep
        .sim
        .agent_as::<TopologyController>(dep.topo_ctrl)
        .unwrap();
    // Discovery found everything without per-switch configuration.
    assert_eq!(tc.switches().len(), 4);
    assert_eq!(tc.links().len(), 3);
    // All allocated subnets fall inside the administrator's range.
    for ev in &tc.events {
        if let rf_discovery::DiscoveryEvent::LinkUp { subnet, .. } = ev {
            assert!(
                Ipv4Cidr::new("172.31.0.0".parse().unwrap(), 16).contains(subnet.network()),
                "{subnet} outside the admin range"
            );
        }
    }
}

#[test]
fn rpc_path_is_exactly_once_under_retransmission() {
    // The relay retransmits; the server dedups. After a full bootstrap
    // there must be exactly one VM per switch even though rpc.sent can
    // exceed the number of distinct requests.
    let mut dep = fig1();
    dep.run_until_configured(Time::from_secs(120)).unwrap();
    let rf = dep.sim.agent_as::<ControlPlane>(dep.rf_ctrl).unwrap();
    assert_eq!(rf.configured_switches(), 4);
    let mut vm_count = 0;
    for id in 0..200 {
        if dep.sim.agent_as::<VmAgent>(rf_sim::AgentId(id)).is_some() {
            vm_count += 1;
        }
    }
    assert_eq!(vm_count, 4, "exactly one VM per switch");
}

#[test]
fn gui_reflects_controller_state() {
    let mut dep = fig1();
    let topo = line(4);
    let mut view = NetworkView::new(topo);
    view.use_ansi = false;
    // Before anything runs: all red.
    assert_eq!(view.red_count(), 4);
    dep.run_until_configured(Time::from_secs(120)).unwrap();
    let states = dep
        .sim
        .agent_as::<ControlPlane>(dep.rf_ctrl)
        .unwrap()
        .switch_states();
    view.update(&states);
    assert_eq!(view.green_count(), 4);
    let rendered = view.render(60, 12);
    assert!(rendered.contains("configured: 4/4"));
}
