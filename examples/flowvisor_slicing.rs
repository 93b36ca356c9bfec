//! FlowVisor in isolation: two slice controllers sharing one switch,
//! with flowspace enforcement visible — the topology controller's
//! over-broad FLOW_MOD is narrowed to LLDP, and its attempt to touch
//! IPv4 is rejected with EPERM.
//!
//! ```sh
//! cargo run --release --example flowvisor_slicing
//! ```

use rf_flowvisor::{FlowVisor, SlicePolicy};
use rf_openflow::{
    Action, FlowModCommand, MessageReader, OfMatch, OfMessage, OFPP_NONE, OFP_NO_BUFFER,
};
use rf_sim::{Agent, ConnId, Ctx, Sim, SimConfig, StreamEvent, Time};
use rf_switch::{OpenFlowSwitch, SwitchConfig};
use std::net::Ipv4Addr;
use std::time::Duration;

/// A controller that tries to install one in-space and one out-of-space
/// flow and records what comes back.
#[derive(Clone)]
struct Greedy {
    service: u16,
    conn: Option<ConnId>,
    reader: MessageReader,
    pub errors: u32,
}

impl Agent for Greedy {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(self.service);
        ctx.schedule(Duration::from_secs(1), 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
        let Some(conn) = self.conn else { return };
        let mk = |m: OfMatch| OfMessage::FlowMod {
            of_match: m,
            cookie: 0,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 10,
            buffer_id: OFP_NO_BUFFER,
            out_port: OFPP_NONE,
            flags: 0,
            actions: vec![Action::Output {
                port: rf_openflow::OFPP_CONTROLLER,
                max_len: 0xFFFF,
            }],
        };
        // Within flowspace after narrowing: match-any → becomes LLDP.
        ctx.conn_send(conn, mk(OfMatch::any()).encode(1));
        // Outside flowspace: denied.
        ctx.conn_send(
            conn,
            mk(OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 0, 0, 0), 8)).encode(2),
        );
    }
    fn on_stream(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, ev: StreamEvent) {
        match ev {
            StreamEvent::Opened { .. } => {
                self.conn = Some(conn);
                ctx.conn_send(conn, OfMessage::Hello.encode(0));
            }
            StreamEvent::Data(d) => {
                self.reader.push_bytes(d);
                while let Some(Ok((m, xid))) = self.reader.next() {
                    if let OfMessage::Error { err_type, code, .. } = m {
                        println!("controller got ERROR {err_type:?} code {code} (xid {xid})");
                        self.errors += 1;
                    }
                }
            }
            StreamEvent::Closed => self.conn = None,
        }
    }
}

/// Passive controller for the second slice.
#[derive(Clone)]
struct Passive {
    service: u16,
}
impl Agent for Passive {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(self.service);
    }
    fn on_stream(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, ev: StreamEvent) {
        if let StreamEvent::Opened { .. } = ev {
            ctx.conn_send(conn, OfMessage::Hello.encode(0));
        }
    }
}

fn main() {
    let mut sim = Sim::new(SimConfig::default());
    let greedy = sim.add_agent(
        "lldp-slice-controller",
        Box::new(Greedy {
            service: 7001,
            conn: None,
            reader: MessageReader::new(),
            errors: 0,
        }),
    );
    let passive = sim.add_agent("ip-slice-controller", Box::new(Passive { service: 7002 }));
    let fv = sim.add_agent(
        "flowvisor",
        Box::new(FlowVisor::new(vec![
            SlicePolicy::lldp_slice("topology", greedy, 7001),
            SlicePolicy::ip_slice("routeflow", passive, 7002),
        ])),
    );
    let sw = sim.add_agent(
        "switch",
        Box::new(OpenFlowSwitch::new(SwitchConfig::new(0x1C, 4, fv))),
    );
    // A port so the switch has a data plane (unused here).
    let sink = sim.add_agent("sink", Box::new(Passive { service: 9 }));
    sim.add_link((sw, 1), (sink, 1), rf_sim::LinkProfile::default());

    sim.run_until(Time::from_secs(3));

    let s = sim.agent_as::<OpenFlowSwitch>(sw).unwrap();
    println!("\nswitch flow table after the greedy controller's two FLOW_MODs:");
    for e in s.flow_table().entries() {
        println!(
            "  priority {} dl_type {:#06x} wildcards {:?}",
            e.priority, e.of_match.dl_type, e.of_match.wildcards
        );
    }
    assert_eq!(s.flow_count(), 1, "only the narrowed LLDP rule lands");
    assert_eq!(s.flow_table().entries()[0].of_match, OfMatch::lldp());
    let f = sim.agent_as::<FlowVisor>(fv).unwrap();
    println!(
        "\nflowvisor: {} FLOW_MOD rewritten, {} denied",
        f.rewritten_flow_mods, f.denied_flow_mods
    );
    let g = sim.agent_as::<Greedy>(greedy).unwrap();
    assert_eq!(g.errors, 1, "exactly one EPERM");
    println!("slicing enforced: match-any narrowed to LLDP, IPv4 FLOW_MOD rejected.");
}
