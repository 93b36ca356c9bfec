//! Workspace-level end-to-end tests: hosts exchanging real traffic
//! across the automatically configured network — the demo scenario.

use rf_core::host::video::{VideoClient, VideoServer};
use rf_sim::LinkProfile;
use routeflow_autoconf::prelude::*;
use std::time::Duration;

/// Attach a video server at `server_node` and client at `client_node`,
/// then return (scenario, server agent, client agent).
fn video_world(
    topo: Topology,
    server_node: usize,
    client_node: usize,
    fast: bool,
) -> (Scenario, rf_sim::AgentId, rf_sim::AgentId) {
    let mut b = Scenario::on(topo)
        .with_host(server_node, "10.1.0.0/24")
        .with_host(client_node, "10.2.0.0/24");
    if fast {
        b = b.fast_timers();
    }
    let mut dep = b.start();
    let s = dep.host_slots[0].clone();
    let c = dep.host_slots[1].clone();
    let server = dep.sim.add_agent(
        "video-server",
        Box::new(VideoServer::new(HostConfig {
            mac: MacAddr([2, 0xAA, 0, 0, 0, 1]),
            addr: Ipv4Cidr::new(s.host_ip, s.subnet.prefix_len),
            gateway: s.gateway,
        })),
    );
    let client = dep.sim.add_agent(
        "video-client",
        Box::new(VideoClient::new(
            HostConfig {
                mac: MacAddr([2, 0xBB, 0, 0, 0, 1]),
                addr: Ipv4Cidr::new(c.host_ip, c.subnet.prefix_len),
                gateway: c.gateway,
            },
            s.host_ip,
        )),
    );
    dep.sim.add_link(
        (s.switch, u32::from(s.port)),
        (server, 1),
        LinkProfile::default(),
    );
    dep.sim.add_link(
        (c.switch, u32::from(c.port)),
        (client, 1),
        LinkProfile::default(),
    );
    (dep, server, client)
}

#[test]
fn video_crosses_ring4_after_autoconfig() {
    let (mut dep, _server, client) = video_world(ring(4), 0, 2, true);
    dep.sim.run_until(Time::from_secs(120));
    let report = dep.sim.agent_as::<VideoClient>(client).unwrap().report;
    let first = report.first_byte_at.expect("video must arrive");
    assert!(
        first < Time::from_secs(120),
        "first byte at {first}, too late"
    );
    assert!(report.packets > 100, "stream must flow: {report:?}");
    assert!(report.playback_at.is_some(), "jitter buffer must fill");
}

#[test]
fn ping_works_between_hosts_after_autoconfig() {
    let mut dep = Scenario::on(line(3))
        .with_host(0, "10.1.0.0/24")
        .with_host(2, "10.2.0.0/24")
        .fast_timers()
        .start();
    let a = dep.host_slots[0].clone();
    let b = dep.host_slots[1].clone();
    let echo = dep.sim.add_agent(
        "echo-host",
        Box::new(EchoHost::new(HostConfig {
            mac: MacAddr([2, 0xCC, 0, 0, 0, 1]),
            addr: Ipv4Cidr::new(b.host_ip, b.subnet.prefix_len),
            gateway: b.gateway,
        })),
    );
    let pinger = dep.sim.add_agent(
        "pinger",
        Box::new(Pinger::new(
            HostConfig {
                mac: MacAddr([2, 0xDD, 0, 0, 0, 1]),
                addr: Ipv4Cidr::new(a.host_ip, a.subnet.prefix_len),
                gateway: a.gateway,
            },
            b.host_ip,
        )),
    );
    dep.sim.add_link(
        (a.switch, u32::from(a.port)),
        (pinger, 1),
        LinkProfile::default(),
    );
    dep.sim.add_link(
        (b.switch, u32::from(b.port)),
        (echo, 1),
        LinkProfile::default(),
    );
    dep.sim.run_until(Time::from_secs(90));
    let p = dep.sim.agent_as::<Pinger>(pinger).unwrap();
    assert!(
        p.first_reply_at.is_some(),
        "ping must succeed once configured"
    );
    assert!(!p.rtts.is_empty());
    // RTT plausibility: 4 hops of 1 ms links each way < 20 ms.
    let (_, rtt) = p.rtts[p.rtts.len() - 1];
    assert!(rtt < Duration::from_millis(20), "rtt {rtt:?}");
}

#[test]
fn pan_european_demo_video_within_four_minutes() {
    // The paper's §3 demonstration: 28-node pan-European topology,
    // video from a server to a remote client, arriving "within 4
    // minutes (including the configuration time)" — with the paper's
    // default Quagga timers, not the sped-up test timers.
    let topo = pan_european();
    let (a, b) = topo.farthest_pair().unwrap();
    let (mut dep, _server, client) = video_world(topo, a, b, false);
    dep.sim.run_until(Time::from_secs(240));
    let report = dep.sim.agent_as::<VideoClient>(client).unwrap().report;
    let first = report
        .first_byte_at
        .expect("video must reach the remote client");
    assert!(
        first < Time::from_secs(240),
        "first byte at {first}, exceeding the paper's 4-minute bound"
    );
}
