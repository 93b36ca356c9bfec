//! E4 — Fig. 1 + Fig. 2 validation: the framework's architectural
//! invariants on the paper's own 4-switch layout (OF-A … OF-D), and
//! the workspace's crate layering.

use rf_core::discovery::TopologyController;
use rf_core::vnet::vm::VmAgent;
use rf_flowvisor::FlowVisor;
use routeflow_autoconf::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Duration;

/// Every crate under `crates/` and its `[dependencies]`, bottom layer
/// first: a crate depends only on crates listed above it.
const EDGES: &[(&str, &[&str])] = &[
    ("bytes", &[]),
    ("rand", &[]),
    ("proptest", &["rand"]),
    ("rf-wire", &["bytes"]),
    ("rf-sim", &["bytes", "rand"]),
    ("rf-topo", &["rand"]),
    ("rf-openflow", &["bytes", "rf-wire"]),
    ("rf-routed", &["bytes", "rf-sim", "rf-wire"]),
    ("rf-rpc", &["bytes", "rf-sim", "rf-wire"]),
    ("rf-switch", &["bytes", "rf-openflow", "rf-sim", "rf-wire"]),
    (
        "rf-flowvisor",
        &["bytes", "rf-openflow", "rf-sim", "rf-wire"],
    ),
    (
        "rf-core",
        &[
            "bytes",
            "rand",
            "rf-flowvisor",
            "rf-openflow",
            "rf-routed",
            "rf-rpc",
            "rf-sim",
            "rf-switch",
            "rf-topo",
            "rf-wire",
        ],
    ),
    ("rf-bench", &["rf-core", "rf-sim", "rf-topo"]),
];

/// A manifest's package name and its `[dependencies]` keys.
fn package_and_dependencies(manifest: &str) -> (String, BTreeSet<String>) {
    let (mut section, mut name, mut deps) = ("", None, BTreeSet::new());
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
        } else if let Some((key, value)) = line.split_once('=') {
            let key = key.trim();
            match section {
                "[package]" if key == "name" => name = Some(value.trim().trim_matches('"')),
                "[dependencies]" => {
                    deps.insert(key.trim_end_matches(".workspace").to_string());
                }
                _ => {}
            }
        }
    }
    (name.expect("[package] name").to_string(), deps)
}

#[test]
fn workspace_dependency_edges_point_down() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = BTreeMap::new();
    for dir in ["crates", "crates/shims"] {
        for entry in std::fs::read_dir(root.join(dir)).unwrap() {
            let manifest = entry.unwrap().path().join("Cargo.toml");
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                let (name, deps) = package_and_dependencies(&text);
                found.insert(name, deps);
            }
        }
    }
    let expected: BTreeMap<String, BTreeSet<String>> = EDGES
        .iter()
        .map(|(name, deps)| {
            (
                name.to_string(),
                deps.iter().map(|d| d.to_string()).collect(),
            )
        })
        .collect();
    assert_eq!(
        found, expected,
        "a new crate or dependency edge is a deliberate edit of EDGES"
    );
    for (i, (name, deps)) in EDGES.iter().enumerate() {
        for dep in *deps {
            assert!(
                EDGES[..i].iter().any(|(below, _)| below == dep),
                "{name} depends on {dep}, which is not below it"
            );
        }
    }
}

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
    for report in dep.workload_reports() {
        match report {
            rf_core::scenario::WorkloadReport::Traffic(t) => {
                assert!(t.delivered_bytes > 0, "flows crossed the ring")
            }
            other => unreachable!("not attached: {other:?}"),
        }
    }
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
    let rf = dep.sim.agent_as::<ControlPlane>(dep.rf_ctrl).unwrap();
    assert_eq!(rf.state().links.len(), 3);
    for link in &rf.state().links {
        let subnet = link.subnet;
        assert!(
            Ipv4Cidr::new("172.31.0.0".parse().unwrap(), 16).contains(subnet.network()),
            "{subnet} outside the admin range"
        );
    }
}

/// No end of the RPC path fails: through switch kills and revivals,
/// link flaps and a stalled channel, no dial is refused and the RPC
/// server receives every request the topology controller sends, once —
/// with nothing on the path retransmitting, redialling or
/// deduplicating.
#[test]
fn rpc_path_delivers_every_request_once_through_faults() {
    let s = Duration::from_secs;
    let mut dep = Scenario::on(ring(6))
        .fast_timers()
        .trace_level(rf_sim::TraceLevel::Info)
        .with_faults([
            Fault::KillSwitch { node: 2, at: s(20) },
            Fault::LinkDown { edge: 4, at: s(22) },
            Fault::ChannelStall {
                dpid: 1,
                from: s(24),
                until: s(28),
            },
            Fault::ReviveSwitch { node: 2, at: s(30) },
            Fault::LinkUp { edge: 4, at: s(32) },
        ])
        .start();
    dep.run_until(Time::from_secs(90));
    let count = |name| dep.sim.tracer().counter(name);
    assert_eq!(count("conn.refused"), 0);
    let sent = count("topo.rpc_out");
    assert!(
        sent > 12,
        "the faults add requests to the 6 switches and 6 links: {sent}"
    );
    assert_eq!(count("rpc.sent"), sent, "the relay forwards each once");
    assert_eq!(count("rpc.received"), sent, "the server gets each once");
    let rf = dep.sim.agent_as::<ControlPlane>(dep.rf_ctrl).unwrap();
    assert_eq!(rf.configured_switches(), 6);
    let vms = (0..200)
        .filter(|&id| dep.sim.agent_as::<VmAgent>(rf_sim::AgentId(id)).is_some())
        .count();
    assert_eq!(vms, 6, "exactly one VM per switch");
}

/// Ring-6 under Poisson traffic through a switch killed and revived, a
/// link flap and a channel stall, run for 60 s; `layout` picks
/// FlowVisor or not.
fn faulted_ring6(layout: impl FnOnce(ScenarioBuilder) -> ScenarioBuilder) -> Scenario {
    use rf_core::traffic::{FlowSize, TrafficSpec};
    let s = Duration::from_secs;
    let topo = ring(6);
    let traffic =
        TrafficSpec::poisson(3, 4.0, FlowSize::pareto(2_000, 50_000)).window(s(15), s(30));
    let builder = Scenario::on(topo.clone())
        .fast_timers()
        .trace_level(rf_sim::TraceLevel::Info)
        .with_workload(Workload::traffic(traffic, &topo).expect("spec fits the topology"))
        .with_faults([
            Fault::KillSwitch { node: 2, at: s(20) },
            Fault::LinkDown { edge: 4, at: s(22) },
            Fault::ChannelStall {
                dpid: 1,
                from: s(24),
                until: s(28),
            },
            Fault::ReviveSwitch { node: 2, at: s(30) },
            Fault::LinkUp { edge: 4, at: s(32) },
        ]);
    let mut dep = layout(builder).start();
    dep.run_until(Time::from_secs(60));
    dep
}

/// Every switch of `dep` has sent no ERROR.
fn no_switch_refused(dep: &Scenario) {
    for &id in &dep.switches {
        let sw = dep
            .sim
            .agent_as::<rf_switch::OpenFlowSwitch>(id)
            .expect("switch agent");
        assert_eq!(
            sw.errors_sent,
            0,
            "switch {:#x} refused a request",
            sw.dpid()
        );
    }
}

/// The premise of the switch's FLOW_MOD set: the loop sends only ADDs
/// and DELETE_STRICTs of an EtherType or an IPv4 destination prefix,
/// with no `out_port` filter. Through a switch killed and revived, a
/// link flap and a channel stall, under traffic, no switch refuses a
/// request and FlowVisor denies no FLOW_MOD — and withdrawn routes were
/// deleted, so DELETE_STRICT ran.
#[test]
fn every_flow_mod_the_loop_sends_is_taken_through_faults() {
    let dep = faulted_ring6(|b| b);
    let count = |name| dep.sim.tracer().counter(name);
    assert!(count("rf.flow_add") > 0);
    assert!(count("rf.flow_del") > 0, "a withdrawn route was deleted");
    no_switch_refused(&dep);
    let fv = dep
        .sim
        .agent_as::<FlowVisor>(dep.flowvisor.expect("default layout uses FlowVisor"))
        .unwrap();
    assert_eq!(fv.denied_flow_mods, 0);
}

/// The premise of the OpenFlow message set: the switches and the two
/// controllers send each other only messages the far end decodes and
/// takes — no ECHO, no VENDOR, no OUTPUT to a virtual port. Under the
/// faults and traffic above, with FlowVisor between them and wired
/// directly, no switch meets a message it cannot decode or refuses
/// one, and FlowVisor meets nothing it does not expect from either
/// side.
#[test]
fn the_loop_sends_only_what_the_far_end_takes() {
    for (layout, dep) in both_layouts() {
        let count = |name| dep.sim.tracer().counter(name);
        assert!(
            count("of.flow_mod") > 0 && count("of.packet_out") > 0,
            "{layout}"
        );
        assert_eq!(count("switch.decode_error"), 0, "{layout}");
        assert_eq!(count("fv.decode_error"), 0, "{layout}");
        assert_eq!(count("fv.unexpected_from_switch"), 0, "{layout}");
        assert_eq!(count("fv.unexpected_from_controller"), 0, "{layout}");
        no_switch_refused(&dep);
    }
}

/// [`faulted_ring6`] with FlowVisor between the switches and the two
/// controllers, and wired directly.
fn both_layouts() -> [(&'static str, Scenario); 2] {
    let direct = faulted_ring6(ScenarioBuilder::without_flowvisor);
    assert!(direct.flowvisor.is_none());
    [("FlowVisor", faulted_ring6(|b| b)), ("direct", direct)]
}

/// The premise of the switch's one dial: no controller, and not
/// FlowVisor, closes a live switch's control channel. Under the faults
/// and traffic above, in both layouts, every switch — the revived one
/// included — holds every leg it dialled at start, open and past its
/// HELLO (a switch does not redial, so a leg closed at any point stays
/// closed).
#[test]
fn no_live_switch_loses_its_controller_leg() {
    for (layout, dep) in both_layouts() {
        for &id in &dep.switches {
            let sw = dep
                .sim
                .agent_as::<rf_switch::OpenFlowSwitch>(id)
                .expect("switch agent");
            assert!(
                sw.is_connected(),
                "{layout}: switch {:#x} lost a controller leg",
                sw.dpid()
            );
        }
    }
}

/// The premise of the FIB mirror: a VM reports only routed prefixes,
/// so the mirror filters none out. Under the faults and traffic above,
/// in both layouts, every `RouteAdd` the controller decodes becomes a
/// FLOW_MOD but four, each onto a link the controller had already
/// removed: when switch 3 dies (20 s) and when the flapped link's
/// probes time out (24 s), each neighbouring VM, handed a configuration
/// without that link, drops the link's connected /30 before its OSPF
/// interface, and its RIB falls back for that instant to the OSPF route
/// to the /30 through the interface being removed. Any other drop
/// fails this test.
#[test]
fn every_route_add_becomes_a_flow_mod_unless_its_link_is_gone() {
    for (layout, dep) in both_layouts() {
        let count = |name| dep.sim.tracer().counter(name);
        assert!(count("rf.flow_add") > 0, "{layout}");
        assert_eq!(count("rf.route_add_stale"), 4, "{layout}");
    }
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
