//! Discovery integration: real switches (optionally behind FlowVisor)
//! discovered by the topology controller via LLDP.

use rf_core::discovery::{TopologyController, TopologyControllerConfig, TOPOLOGY_OF_SERVICE};
use rf_rpc::RpcRequest;
use rf_sim::{LinkProfile, Sim, SimConfig, Time};
use rf_switch::{OpenFlowSwitch, SwitchConfig};
use rf_topo::{ring, Topology};
use std::time::Duration;

fn cfg() -> TopologyControllerConfig {
    TopologyControllerConfig::new("172.31.0.0/16".parse().unwrap())
}

/// Build `topo` as switches directly attached to a topology controller.
/// Port numbering: node i's k-th incident edge (in edge order) uses
/// port k+1 on that node.
fn build(topo: &Topology, cfg: TopologyControllerConfig) -> (Sim, rf_sim::AgentId) {
    let mut sim = Sim::new(SimConfig::default());
    let tc = build_into(&mut sim, topo, cfg);
    (sim, tc)
}

/// [`build`] behind a [`RecordingRelay`], added first so that it
/// listens before the controller dials it. Returns the controller and
/// the relay.
fn build_with_relay(
    topo: &Topology,
    cfg: TopologyControllerConfig,
) -> (Sim, rf_sim::AgentId, rf_sim::AgentId) {
    let mut sim = Sim::new(SimConfig::default());
    let relay = sim.add_agent("rpc-client", Box::new(RecordingRelay::default()));
    let tc = build_into(&mut sim, topo, cfg.with_rpc_client(relay));
    (sim, tc, relay)
}

/// The controller, the switches and their links, added to `sim`.
fn build_into(sim: &mut Sim, topo: &Topology, cfg: TopologyControllerConfig) -> rf_sim::AgentId {
    let tc = sim.add_agent("topo-ctrl", Box::new(TopologyController::new(cfg)));
    let mut port_next: Vec<u16> = vec![1; topo.node_count()];
    let mut swcfg: Vec<SwitchConfig> = (0..topo.node_count())
        .map(|i| SwitchConfig::new((i + 1) as u64, 0, tc).with_service(TOPOLOGY_OF_SERVICE))
        .collect();
    let mut links: Vec<(usize, u16, usize, u16)> = Vec::new();
    for e in topo.edges() {
        let pa = port_next[e.a];
        port_next[e.a] += 1;
        let pb = port_next[e.b];
        port_next[e.b] += 1;
        links.push((e.a, pa, e.b, pb));
    }
    for (i, c) in swcfg.iter_mut().enumerate() {
        c.num_ports = port_next[i] - 1;
    }
    let ids: Vec<rf_sim::AgentId> = swcfg
        .into_iter()
        .enumerate()
        .map(|(i, c)| sim.add_agent(&format!("s{}", i + 1), Box::new(OpenFlowSwitch::new(c))))
        .collect();
    for (a, pa, b, pb) in links {
        sim.add_link(
            (ids[a], pa as u32),
            (ids[b], pb as u32),
            LinkProfile::default(),
        );
    }
    tc
}

#[test]
fn ring4_fully_discovered() {
    let topo = ring(4);
    let (mut sim, tc, relay) = build_with_relay(&topo, cfg());
    sim.run_until(Time::from_secs(5));
    let t = sim.agent_as::<TopologyController>(tc).unwrap();
    assert_eq!(t.switches().len(), 4);
    assert_eq!(t.links().len(), 4, "ring-4 has 4 links");
    let joins = relay_requests(&sim, relay)
        .iter()
        .filter(|r| matches!(r, RpcRequest::SwitchDetected { .. }))
        .count();
    assert_eq!(joins, 4);
}

#[test]
fn subnets_are_unique_per_link() {
    let topo = ring(6);
    let (mut sim, _tc, relay) = build_with_relay(&topo, cfg());
    sim.run_until(Time::from_secs(5));
    let mut subnets: Vec<String> = relay_requests(&sim, relay)
        .iter()
        .filter_map(|r| match r {
            RpcRequest::LinkDetected { subnet, .. } => Some(subnet.to_string()),
            _ => None,
        })
        .collect();
    assert_eq!(subnets.len(), 6);
    subnets.sort();
    subnets.dedup();
    assert_eq!(subnets.len(), 6, "each link needs a unique subnet");
}

#[test]
fn discovery_time_scales_with_probe_interval() {
    // With a fast probe interval, a ring should be fully discovered
    // shortly after the switches connect.
    let topo = ring(8);
    let mut fast = cfg();
    fast.probe_interval = Duration::from_millis(200);
    let (mut sim, tc) = build(&topo, fast);
    sim.run_until(Time::from_secs(2));
    let t = sim.agent_as::<TopologyController>(tc).unwrap();
    assert_eq!(t.links().len(), 8);
}

#[test]
fn a_silent_link_lives_three_probe_intervals() {
    // The link lifetime is derived, not set: three probe intervals. A
    // link that stops carrying probes outlives two lost probes and is
    // gone well before six intervals have passed.
    let probe = Duration::from_millis(200);
    let mut fast = cfg();
    fast.probe_interval = probe;
    let (mut sim, tc) = build(&ring(4), fast);
    sim.run_until(Time::from_secs(2));
    let links = |sim: &Sim| {
        sim.agent_as::<TopologyController>(tc)
            .unwrap()
            .links()
            .len()
    };
    assert_eq!(links(&sim), 4);
    // `build` adds no link before the topology's first edge.
    sim.set_link_up(rf_sim::LinkId(0), false);
    let down_at = sim.now();
    sim.run_until(down_at + probe.mul_f64(1.9));
    assert_eq!(links(&sim), 4, "dropped before three probe intervals");
    sim.run_until(down_at + probe * 6);
    assert_eq!(links(&sim), 3, "still listed after six probe intervals");
}

#[test]
fn dead_switch_is_removed_with_its_links() {
    let topo = ring(4);
    let (mut sim, tc, relay) = build_with_relay(&topo, cfg());
    sim.run_until(Time::from_secs(3));
    // Kill switch agent 2 (dpid 1, the first switch added after the
    // relay and tc).
    let victim = rf_sim::AgentId(2);
    assert!(sim.agent_as::<OpenFlowSwitch>(victim).is_some());
    // Find the controller's view before the kill.
    assert_eq!(
        sim.agent_as::<TopologyController>(tc)
            .unwrap()
            .links()
            .len(),
        4
    );
    // Kill via a spawned one-shot agent.
    #[derive(Clone)]
    struct Killer(rf_sim::AgentId);
    impl rf_sim::Agent for Killer {
        fn on_start(&mut self, ctx: &mut rf_sim::Ctx<'_>) {
            ctx.kill(self.0);
        }
    }
    sim.add_agent("killer", Box::new(Killer(victim)));
    sim.run_until(Time::from_secs(10));
    let t = sim.agent_as::<TopologyController>(tc).unwrap();
    assert_eq!(t.switches().len(), 3, "victim gone from switch list");
    assert_eq!(t.links().len(), 2, "its two ring links are down");
    let requests = relay_requests(&sim, relay);
    assert!(requests.contains(&RpcRequest::SwitchRemoved { dpid: 1 }));
    // Its subnets were recycled into the allocator (2 links down).
    let downs = requests
        .iter()
        .filter(|r| matches!(r, RpcRequest::LinkRemoved { .. }))
        .count();
    assert_eq!(downs, 2);
}

#[test]
fn pan_european_topology_discovered() {
    let topo = rf_topo::pan_european();
    let (mut sim, tc) = build(&topo, cfg());
    sim.run_until(Time::from_secs(10));
    let t = sim.agent_as::<TopologyController>(tc).unwrap();
    assert_eq!(t.switches().len(), 28);
    assert_eq!(t.links().len(), 41);
}

/// One connection to the relay: its reader and the requests it has
/// carried, with their ids.
type RelayLeg = (
    rf_sim::ConnId,
    rf_rpc::RpcFrameReader,
    Vec<(u64, RpcRequest)>,
);

/// Stands in for the RPC relay: logs the requests each connection
/// carries, with their ids.
#[derive(Clone, Default)]
struct RecordingRelay {
    conns: Vec<RelayLeg>,
}

impl rf_sim::Agent for RecordingRelay {
    fn on_start(&mut self, ctx: &mut rf_sim::Ctx<'_>) {
        ctx.listen(rf_rpc::RPC_CLIENT_SERVICE);
    }
    fn on_stream(
        &mut self,
        _ctx: &mut rf_sim::Ctx<'_>,
        conn: rf_sim::ConnId,
        event: rf_sim::StreamEvent,
    ) {
        match event {
            rf_sim::StreamEvent::Opened { .. } => {
                self.conns
                    .push((conn, rf_rpc::RpcFrameReader::new(), Vec::new()));
            }
            rf_sim::StreamEvent::Data(data) => {
                let (_, reader, log) = self
                    .conns
                    .iter_mut()
                    .find(|(c, _, _)| *c == conn)
                    .expect("data follows open");
                reader.push_bytes(data);
                while let Some(Ok(rf_rpc::Envelope::Request { req_id, request })) = reader.next() {
                    log.push((req_id, request));
                }
            }
            rf_sim::StreamEvent::Closed => {}
        }
    }
}

/// The controller's request ids, per connection to the relay.
fn relay_log(sim: &Sim, relay: rf_sim::AgentId) -> Vec<Vec<u64>> {
    sim.agent_as::<RecordingRelay>(relay)
        .unwrap()
        .conns
        .iter()
        .map(|(_, _, log)| log.iter().map(|(id, _)| *id).collect())
        .collect()
}

/// Every request the controller sent the relay, in order.
fn relay_requests(sim: &Sim, relay: rf_sim::AgentId) -> Vec<RpcRequest> {
    sim.agent_as::<RecordingRelay>(relay)
        .unwrap()
        .conns
        .iter()
        .flat_map(|(_, _, log)| log.iter().map(|(_, request)| request.clone()))
        .collect()
}

#[test]
fn each_request_goes_to_the_relay_once_per_connection() {
    let (mut sim, _tc, relay) = build_with_relay(&ring(4), cfg());
    sim.run_until(Time::from_secs(8));
    // One connection, dialled once: 4 switches + 4 links, each once.
    assert_eq!(sim.tracer().counter("conn.refused"), 0);
    assert_eq!(relay_log(&sim, relay), [(1..=8).collect::<Vec<u64>>()]);
    assert_eq!(sim.tracer().counter("topo.rpc_out"), 8);
}

#[test]
fn exhausted_range_counts_and_announces_no_link() {
    // One /30 for a ring of four links: the first link discovered gets
    // it, the other three find the pool empty.
    let one_block = TopologyControllerConfig::new("172.31.0.0/30".parse().unwrap());
    let (mut sim, _tc, relay) = build_with_relay(&ring(4), one_block);
    sim.run_until(Time::from_secs(5));

    assert_eq!(sim.tracer().counter("topo.alloc_exhausted"), 3);
    let ups = relay_requests(&sim, relay)
        .iter()
        .filter(|r| matches!(r, RpcRequest::LinkDetected { .. }))
        .count();
    assert_eq!(ups, 1);
    // 4 SwitchDetected + 1 LinkDetected: no RPC for the other three.
    assert_eq!(relay_log(&sim, relay), [(1..=5).collect::<Vec<u64>>()]);
}
