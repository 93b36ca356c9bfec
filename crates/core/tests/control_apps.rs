//! Dispatch-core tests: event-bus ordering and determinism, app
//! registration, and the third-party extension point — a custom
//! [`ControlApp`] installed from outside the crate.

use rf_core::apps::{AppCtx, ControlApp, ControlEvent, ControlPlane, FibChange, LinkChange};
use rf_core::rfcontroller::RfControllerConfig;
use rf_core::scenario::Scenario;
use rf_sim::Time;
use rf_topo::ring;
use std::sync::{Arc, Mutex};

/// Records a compact tag for every event it sees, into a log shared
/// with the test.
#[derive(Clone)]
struct Recorder {
    log: Arc<Mutex<Vec<String>>>,
    tag: &'static str,
}

impl ControlApp for Recorder {
    fn name(&self) -> &'static str {
        "recorder"
    }

    fn on_event(&mut self, _cx: &mut AppCtx<'_, '_>, ev: &ControlEvent) {
        let line = match ev {
            ControlEvent::Rpc(_) => "rpc".to_string(),
            ControlEvent::SwitchUp { dpid, .. } => format!("switch_up({dpid})"),
            ControlEvent::SwitchDown { dpid } => format!("switch_down({dpid})"),
            ControlEvent::Link(LinkChange::Up { a, b, .. }) => {
                format!("link_up({}:{},{}:{})", a.0, a.1, b.0, b.1)
            }
            ControlEvent::Link(LinkChange::Down { a, b, .. }) => {
                format!("link_down({}:{},{}:{})", a.0, a.1, b.0, b.1)
            }
            ControlEvent::Link(LinkChange::PortStatus { .. }) => "port_status".to_string(),
            ControlEvent::VmSpawned { dpid } => format!("vm_spawned({dpid})"),
            ControlEvent::VmUp { dpid } => format!("vm_up({dpid})"),
            ControlEvent::ChannelUp { dpid } => format!("channel_up({dpid})"),
            ControlEvent::PacketIn { dpid, .. } => format!("packet_in({dpid})"),
            ControlEvent::Fib(FibChange::Add { dpid, prefix, .. }) => {
                format!("fib_add({dpid},{prefix})")
            }
            ControlEvent::Fib(FibChange::Del { dpid, prefix }) => {
                format!("fib_del({dpid},{prefix})")
            }
            ControlEvent::Timer { token } => format!("timer({token})"),
        };
        self.log
            .lock()
            .unwrap()
            .push(format!("{}:{line}", self.tag));
    }
}

/// A custom app exercising the full extension surface: it watches for
/// switches coming up, raises a follow-up event, and counts FIB
/// traffic — without touching any rf-core internals.
#[derive(Clone)]
struct Auditor {
    log: Arc<Mutex<Vec<String>>>,
    fib_adds: Arc<Mutex<u64>>,
}

impl ControlApp for Auditor {
    fn name(&self) -> &'static str {
        "auditor"
    }

    fn on_switch_up(&mut self, cx: &mut AppCtx<'_, '_>, dpid: u64, _num_ports: u16) {
        self.log
            .lock()
            .unwrap()
            .push(format!("audit:switch({dpid})"));
        // Raised events are dispatched after the current one, to every
        // app in registration order.
        cx.raise(ControlEvent::Timer { token: 9000 + dpid });
    }

    fn on_fib_update(&mut self, _cx: &mut AppCtx<'_, '_>, change: &FibChange) {
        // Count transit routes (connected routes carry no next hop and
        // are not mirrored to the data plane).
        if matches!(
            change,
            FibChange::Add {
                next_hop: Some(_),
                ..
            }
        ) {
            *self.fib_adds.lock().unwrap() += 1;
        }
    }
}

fn event_log_for_run(seed: u64) -> Vec<String> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut sc = Scenario::on(ring(4))
        .seed(seed)
        .fast_timers()
        .trace_level(rf_sim::TraceLevel::Off)
        .with_app(Box::new(Recorder {
            log: Arc::clone(&log),
            tag: "r",
        }))
        .start();
    sc.run_until_configured(Time::from_secs(120)).unwrap();
    sc.run_until(Time::from_secs(40));
    let out = log.lock().unwrap().clone();
    out
}

#[test]
fn standard_apps_register_in_dispatch_order() {
    let cp = ControlPlane::new(RfControllerConfig::default());
    assert_eq!(
        cp.app_names(),
        vec![
            "discovery-bridge",
            "vm-lifecycle",
            "fib-mirror",
            "arp-proxy"
        ]
    );
    let bare = ControlPlane::bare(RfControllerConfig::default());
    assert!(bare.app_names().is_empty());
    let extended = ControlPlane::new(RfControllerConfig::default()).with_app(Box::new(Recorder {
        log: Arc::new(Mutex::new(Vec::new())),
        tag: "x",
    }));
    assert_eq!(extended.app_names().len(), 5);
    assert_eq!(extended.app_names()[4], "recorder");
}

#[test]
fn bus_events_follow_the_lifecycle_order() {
    let log = event_log_for_run(7);
    let pos = |needle: &str| {
        log.iter()
            .position(|l| l == needle)
            .unwrap_or_else(|| panic!("event {needle} missing from {log:?}"))
    };
    for dpid in 1..=4u64 {
        // Refinement chain per switch: raw RPC → SwitchUp → VmSpawned →
        // (boot) → VmUp.
        assert!(pos(&format!("r:switch_up({dpid})")) < pos(&format!("r:vm_spawned({dpid})")));
        assert!(pos(&format!("r:vm_spawned({dpid})")) < pos(&format!("r:vm_up({dpid})")));
    }
    // Links only come up once both end VMs are provisioned, and every
    // link produces FIB traffic afterwards.
    let first_link = log
        .iter()
        .position(|l| l.starts_with("r:link_up"))
        .expect("links discovered");
    let first_fib = log
        .iter()
        .position(|l| l.starts_with("r:fib_add"))
        .expect("routes mirrored");
    assert!(first_link < first_fib);
    // The serial VM pipeline provisions in dpid order on a cold start.
    let spawn_order: Vec<&String> = log
        .iter()
        .filter(|l| l.starts_with("r:vm_spawned"))
        .collect();
    assert_eq!(spawn_order.len(), 4);
    assert!(spawn_order.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn bus_dispatch_is_deterministic() {
    let first = event_log_for_run(42);
    // The bus carried the whole bootstrap of ring-4: every lifecycle
    // stage once per switch (or link), and one raw RPC event per
    // configuration request — 4 switches + 4 links — with no duplicates.
    let count = |prefix: &str| first.iter().filter(|l| l.starts_with(prefix)).count();
    for stage in ["channel_up", "switch_up", "vm_spawned", "vm_up", "link_up"] {
        assert_eq!(count(&format!("r:{stage}(")), 4, "{stage} events");
    }
    assert_eq!(count("r:rpc"), 8);
    assert_eq!(first, event_log_for_run(42));
}

#[test]
fn custom_app_installs_and_cascades() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let fib_adds = Arc::new(Mutex::new(0u64));
    let mut sc = Scenario::on(ring(4))
        .fast_timers()
        .trace_level(rf_sim::TraceLevel::Off)
        .with_app(Box::new(Auditor {
            log: Arc::clone(&log),
            fib_adds: Arc::clone(&fib_adds),
        }))
        .with_app(Box::new(Recorder {
            log: Arc::clone(&log),
            tag: "r",
        }))
        .start();
    sc.run_until_configured(Time::from_secs(120)).unwrap();
    sc.run_until(Time::from_secs(40));

    let log = log.lock().unwrap().clone();
    for dpid in 1..=4u64 {
        // The auditor saw every switch and its raised follow-up event
        // reached the bus (and thus the recorder registered after it).
        let audit = log
            .iter()
            .position(|l| l == &format!("audit:switch({dpid})"))
            .expect("auditor saw the switch");
        let echo = log
            .iter()
            .position(|l| l == &format!("r:timer({})", 9000 + dpid))
            .expect("raised event dispatched to all apps");
        assert!(audit < echo, "raised events dispatch after the current one");
    }
    // The custom app observed the same FIB stream the standard mirror
    // translated into FLOW_MODs.
    let adds = *fib_adds.lock().unwrap();
    assert!(
        adds >= 8,
        "ring-4 produces at least 8 routed adds, saw {adds}"
    );
    assert!(sc.controller().state().flows_installed >= 8);
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
