//! The VM agent: a simulated container running zebra + ospfd.

use super::rfproto::{RfFrameReader, RfMessage, RF_SERVICE};
use bytes::Bytes;
use rf_routed::config::{OspfConfig, ZebraConfig};
use rf_routed::ospf::daemon::{OspfDaemon, OspfEvent};
use rf_routed::ospf::packet::is_hello;
use rf_routed::ospf::ALL_SPF_ROUTERS;
use rf_routed::rib::{Rib, RibChange, Route, RouteProto};
use rf_sim::{Agent, AgentId, ConnId, ConnProfile, Ctx, StreamEvent, Time};
use rf_wire::{
    ipv4_frame, ArpOp, ArpPacket, EtherType, EthernetFrame, IpProtocol, Ipv4Body, Ipv4Cidr,
    Ipv4Packet, MacAddr,
};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::time::Duration;

const T_BOOT: u64 = 1;
const T_OSPF: u64 = 2;

/// MAC address for the AllSPFRouters IPv4 multicast group.
const OSPF_MCAST_MAC: MacAddr = MacAddr([0x01, 0x00, 0x5E, 0x00, 0x00, 0x05]);

/// The frame OSPF `packet` leaves interface `iface` of VM `dpid` in:
/// link-local (TTL 1) to the group MAC, headers and payload written
/// into the one buffer. A flood out of k interfaces is k of these
/// around one shared payload.
pub fn ospf_frame(dpid: u64, iface: u16, src: Ipv4Addr, dst: Ipv4Addr, packet: &[u8]) -> Bytes {
    ipv4_frame(
        OSPF_MCAST_MAC,
        MacAddr::from_dpid_port(dpid, iface),
        src,
        dst,
        1,
        Ipv4Body::Raw(IpProtocol::OSPF, packet),
    )
    .freeze()
}

/// One virtual machine of the virtual environment.
#[derive(Clone)]
pub struct VmAgent {
    dpid: u64,
    rf_server: AgentId,
    boot_delay: Duration,
    conn: Option<ConnId>,
    reader: RfFrameReader,
    /// Configured interfaces: iface index → address.
    ifaces: BTreeMap<u16, Ipv4Cidr>,
    ospf: Option<OspfDaemon>,
    rib: Rib,
    /// The instant of the one armed `T_OSPF` wake-up. A wake-up at any
    /// other instant is a timer an earlier deadline replaced: the
    /// daemon has nothing due before `poll_at()`, so it is ignored.
    ospf_deadline: Option<Time>,
    /// Per-iface cache of the last multicast OSPF Hello:
    /// `payload → emitted frame`. Steady-state hellos repeat the same
    /// payload every interval; comparing ~48 bytes beats re-emitting
    /// OSPF + IPv4 (checksum included) + Ethernet each time. Only
    /// Hellos are kept: an update or ack never repeats, and caching one
    /// would evict the hello between two intervals. The frame is a
    /// pure function of `(dpid, iface, iface address, payload)`, and
    /// the cache is dropped whenever the interface table changes.
    tx_cache: BTreeMap<u16, (Bytes, Bytes)>,
}

impl VmAgent {
    pub fn new(dpid: u64, rf_server: AgentId, boot_delay: Duration) -> VmAgent {
        VmAgent {
            dpid,
            rf_server,
            boot_delay,
            conn: None,
            reader: RfFrameReader::new(),
            ifaces: BTreeMap::new(),
            ospf: None,
            rib: Rib::new(),
            ospf_deadline: None,
            tx_cache: BTreeMap::new(),
        }
    }

    pub fn dpid(&self) -> u64 {
        self.dpid
    }

    /// Number of FIB entries (test accessor).
    pub fn fib_len(&self) -> usize {
        self.rib.fib_len()
    }

    /// The installed FIB — best route per prefix (invariant-checker
    /// probe: the chaos campaign compares these against SPF on the
    /// surviving graph).
    pub fn fib_routes(&self) -> Vec<rf_routed::rib::Route> {
        self.rib.fib()
    }

    /// Effective OSPF (hello, dead) intervals, once configured.
    pub fn ospf_timers(&self) -> Option<(Duration, Duration)> {
        self.ospf.as_ref().map(|d| d.timers())
    }

    /// OSPF neighbor view (test accessor).
    pub fn ospf_neighbors(&self) -> Vec<(u16, u32, rf_routed::ospf::NeighborState)> {
        self.ospf
            .as_ref()
            .map(|d| d.neighbors())
            .unwrap_or_default()
    }

    fn send_rf(&mut self, ctx: &mut Ctx<'_>, msg: RfMessage) {
        if let Some(conn) = self.conn {
            ctx.conn_send(conn, msg.encode());
        }
    }

    fn push_rib_changes(&mut self, ctx: &mut Ctx<'_>, changes: Vec<RibChange>) {
        for ch in changes {
            match ch {
                RibChange::Installed(r) => self.send_rf(
                    ctx,
                    RfMessage::RouteAdd {
                        prefix: r.prefix,
                        next_hop: r.next_hop,
                        out_iface: r.out_iface,
                        metric: r.metric,
                    },
                ),
                RibChange::Withdrawn(prefix) => self.send_rf(ctx, RfMessage::RouteDel { prefix }),
            }
        }
    }

    fn process_ospf_events(&mut self, ctx: &mut Ctx<'_>, events: Vec<OspfEvent>) {
        for ev in events {
            match ev {
                OspfEvent::Transmit { iface, dst, packet } => {
                    let Some(addr) = self.ifaces.get(&iface).copied() else {
                        continue;
                    };
                    if let Some((cached_payload, cached_frame)) = self.tx_cache.get(&iface) {
                        // Cache applies to the multicast path only (all
                        // current daemon output; a unicast dst would
                        // produce a different IP header).
                        if dst == ALL_SPF_ROUTERS && *cached_payload == packet {
                            ctx.send_frame(u32::from(iface), cached_frame.clone());
                            continue;
                        }
                    }
                    let frame = ospf_frame(self.dpid, iface, addr.addr, dst, &packet);
                    if dst == ALL_SPF_ROUTERS && is_hello(&packet) {
                        self.tx_cache.insert(iface, (packet, frame.clone()));
                    }
                    ctx.send_frame(u32::from(iface), frame);
                }
                OspfEvent::RoutesChanged(routes) => {
                    let changes = self.rib.replace_protocol(RouteProto::Ospf, &routes);
                    self.push_rib_changes(ctx, changes);
                }
            }
        }
        self.reschedule_ospf(ctx);
    }

    /// Arm a wake-up at the daemon's `poll_at()` unless the armed one
    /// is still ahead and no later. An earlier deadline arms an earlier
    /// timer; the one it replaces still fires, once, and `on_timer`
    /// ignores it.
    fn reschedule_ospf(&mut self, ctx: &mut Ctx<'_>) {
        let Some(d) = &self.ospf else { return };
        // `schedule_at` clamps to now; the deadline must name the
        // instant the timer actually fires at.
        let Some(at) = d.poll_at().map(|at| at.max(ctx.now())) else {
            return;
        };
        let need = match self.ospf_deadline {
            Some(cur) => at < cur || cur <= ctx.now(),
            None => true,
        };
        if need {
            self.ospf_deadline = Some(at);
            ctx.schedule_at(at, T_OSPF);
        }
    }

    fn apply_configs(&mut self, ctx: &mut Ctx<'_>, zebra: &str, ospf_text: &str) {
        let Ok(zcfg) = ZebraConfig::parse(zebra) else {
            ctx.count("vm.bad_config", 1);
            return;
        };
        let Ok(ocfg) = OspfConfig::parse(ospf_text) else {
            ctx.count("vm.bad_config", 1);
            return;
        };
        // Desired interface set from zebra.conf ("ethN" → N).
        let mut desired: BTreeMap<u16, Ipv4Cidr> = BTreeMap::new();
        for (name, addr) in &zcfg.interfaces {
            if let Some(idx) = name.strip_prefix("eth").and_then(|s| s.parse::<u16>().ok()) {
                desired.insert(idx, *addr);
            }
        }
        let now = ctx.now();
        // Boot the OSPF daemon on first configuration.
        if self.ospf.is_none() {
            let ifaces: Vec<(u16, Ipv4Cidr)> = desired.iter().map(|(i, a)| (*i, *a)).collect();
            let mut d = OspfDaemon::from_config(&ocfg, &ifaces);
            let ev = d.start(now);
            self.ospf = Some(d);
            self.ifaces = desired.clone();
            let changes: Vec<RibChange> = desired
                .iter()
                .flat_map(|(i, a)| {
                    self.rib.add(Route::connected(
                        Ipv4Cidr::new(a.network(), a.prefix_len),
                        *i,
                    ))
                })
                .collect();
            self.push_rib_changes(ctx, changes);
            self.process_ospf_events(ctx, ev);
            return;
        }
        // Incremental reconfiguration: diff interfaces.
        let added: Vec<(u16, Ipv4Cidr)> = desired
            .iter()
            .filter(|(i, a)| self.ifaces.get(i) != Some(a))
            .map(|(i, a)| (*i, *a))
            .collect();
        let removed: Vec<u16> = self
            .ifaces
            .keys()
            .filter(|i| !desired.contains_key(i))
            .copied()
            .collect();
        for (idx, addr) in added {
            self.ifaces.insert(idx, addr);
            self.tx_cache.remove(&idx);
            let ch = self.rib.add(Route::connected(
                Ipv4Cidr::new(addr.network(), addr.prefix_len),
                idx,
            ));
            self.push_rib_changes(ctx, ch);
            let ev = self.ospf.as_mut().unwrap().add_interface(idx, addr, now);
            self.process_ospf_events(ctx, ev);
        }
        for idx in removed {
            self.tx_cache.remove(&idx);
            if let Some(addr) = self.ifaces.remove(&idx) {
                let ch = self.rib.remove(
                    Ipv4Cidr::new(addr.network(), addr.prefix_len),
                    RouteProto::Connected,
                );
                self.push_rib_changes(ctx, ch);
                let ev = self.ospf.as_mut().unwrap().remove_interface(idx, now);
                self.process_ospf_events(ctx, ev);
            }
        }
        self.reschedule_ospf(ctx);
    }
}

impl Agent for VmAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // "Creating a VM" takes time — the boot delay models LXC
        // provisioning (the paper's manual equivalent is 5 minutes).
        ctx.schedule(self.boot_delay, T_BOOT);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            T_BOOT => {
                self.conn = Some(ctx.connect(self.rf_server, RF_SERVICE, ConnProfile::default()));
            }
            T_OSPF => {
                if self.ospf_deadline != Some(ctx.now()) {
                    return;
                }
                self.ospf_deadline = None;
                if let Some(d) = self.ospf.as_mut() {
                    let ev = d.tick(ctx.now());
                    self.process_ospf_events(ctx, ev);
                }
            }
            _ => {}
        }
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: u32, frame: Bytes) {
        let iface = port as u16;
        let Ok(eth) = EthernetFrame::parse_bytes(&frame) else {
            return;
        };
        match eth.ethertype {
            EtherType::ARP => {
                let Ok(arp) = ArpPacket::parse(&eth.payload) else {
                    return;
                };
                let Some(addr) = self.ifaces.get(&iface) else {
                    return;
                };
                if arp.op == ArpOp::Request && arp.target_ip == addr.addr {
                    let my_mac = MacAddr::from_dpid_port(self.dpid, iface);
                    let reply = ArpPacket::reply_to(&arp, my_mac);
                    let out =
                        EthernetFrame::new(arp.sender_mac, my_mac, EtherType::ARP, reply.emit());
                    ctx.send_frame(port, out.emit());
                }
            }
            EtherType::IPV4 => {
                let Ok(ip) = Ipv4Packet::parse_bytes(&eth.payload) else {
                    return;
                };
                if ip.protocol == IpProtocol::OSPF
                    && (ip.dst == ALL_SPF_ROUTERS
                        || self.ifaces.get(&iface).is_some_and(|a| a.addr == ip.dst))
                {
                    if let Some(d) = self.ospf.as_mut() {
                        let ev = d.handle_packet(iface, ip.src, &ip.payload, ctx.now());
                        self.process_ospf_events(ctx, ev);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_stream(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, event: StreamEvent) {
        if Some(conn) != self.conn {
            return;
        }
        match event {
            StreamEvent::Opened { .. } => {
                self.send_rf(ctx, RfMessage::Booted { dpid: self.dpid });
            }
            StreamEvent::Data(data) => {
                self.reader.push_bytes(data);
                while let Some(msg) = self.reader.next() {
                    if let RfMessage::WriteConfigs { zebra, ospf, .. } = msg {
                        self.apply_configs(ctx, &zebra, &ospf);
                    }
                }
            }
            StreamEvent::Closed => {
                self.conn = None;
            }
        }
    }
}
