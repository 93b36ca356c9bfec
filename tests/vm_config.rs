//! A VM handed configuration text it cannot parse says so in a counter
//! and starts nothing.

use rf_core::vnet::{RfMessage, VmAgent, RF_SERVICE};
use rf_routed::config::VmRouterConfig;
use rf_sim::{Agent, ConnId, Ctx, Sim, SimConfig, StreamEvent, Time};
use std::time::Duration;

/// Stands in for the RF-controller: answers the VM's `Booted` with one
/// `WriteConfigs` carrying the given files.
#[derive(Clone)]
struct ConfigServer {
    zebra: String,
    ospf: String,
}

impl Agent for ConfigServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(RF_SERVICE);
    }
    fn on_stream(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, event: StreamEvent) {
        if let StreamEvent::Data(_) = event {
            let msg = RfMessage::WriteConfigs {
                zebra: self.zebra.clone(),
                ospf: self.ospf.clone(),
            };
            ctx.conn_send(conn, msg.encode());
        }
    }
}

/// Boot one VM against a server that writes `(zebra, ospf)`; returns
/// the `vm.bad_config` count and whether an OSPF daemon runs.
fn boot_with(zebra: String, ospf: String) -> (u64, bool) {
    let mut sim = Sim::new(SimConfig::default());
    let server = sim.add_agent("rf-server", Box::new(ConfigServer { zebra, ospf }));
    let vm = sim.add_agent(
        "vm-1",
        Box::new(VmAgent::new(1, server, Duration::from_millis(10))),
    );
    sim.run_until(Time::from_secs(1));
    let daemon = sim.agent_as::<VmAgent>(vm).unwrap().ospf_timers().is_some();
    (sim.tracer().counter("vm.bad_config"), daemon)
}

#[test]
fn unparseable_config_counts_and_starts_no_daemon() {
    let iface = [(1, "172.31.0.1/30".parse().unwrap())];
    let (zebra, ospf) = VmRouterConfig::generate(1, &iface).render_all();
    let garbage = || "this is not a quagga file\n".to_string();

    assert_eq!(boot_with(zebra.clone(), ospf.clone()), (0, true));
    assert_eq!(boot_with(garbage(), ospf), (1, false), "bad zebra.conf");
    assert_eq!(boot_with(zebra, garbage()), (1, false), "bad ospfd.conf");
}
