//! Property-based tests (proptest) on the load-bearing codecs and data
//! structures: decoders must never panic, encode∘decode must be
//! identity, matching must respect the wildcard algebra, and the RIB
//! must keep its best-route invariant under arbitrary operation
//! sequences.

use bytes::Bytes;
use proptest::prelude::*;
use rf_openflow::{Action, OfMatch, OfMessage, PacketKey, Wildcards};
use rf_routed::rib::{Rib, Route, RouteProto};
use rf_wire::{
    internet_checksum, ArpPacket, EthernetFrame, Ipv4Cidr, Ipv4Packet, LldpPacket, MacAddr,
    UdpPacket,
};
use std::net::Ipv4Addr;

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

/// Feed `stream` to a reader in the pieces `cuts` describes — (length,
/// as an owned chunk or a borrowed slice, drain before the next piece)
/// — cycling through `cuts` until the stream is exhausted, and collect
/// everything the reader yields.
fn rechunked<R, M>(
    stream: &[u8],
    cuts: &[(usize, bool, bool)],
    mut reader: R,
    push: impl Fn(&mut R, &[u8]),
    push_bytes: impl Fn(&mut R, Bytes),
    next: impl Fn(&mut R) -> Option<M>,
) -> Vec<M> {
    let mut out = Vec::new();
    let mut rest = stream;
    for &(len, owned, drain) in cuts.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (piece, tail) = rest.split_at(len.min(rest.len()));
        rest = tail;
        if owned {
            push_bytes(&mut reader, Bytes::copy_from_slice(piece));
        } else {
            push(&mut reader, piece);
        }
        if drain {
            out.extend(std::iter::from_fn(|| next(&mut reader)));
        }
    }
    out.extend(std::iter::from_fn(|| next(&mut reader)));
    out
}

// ---------------- RPC relay: reference model and scripted peers ----------------

/// The relay as it was before its queue became an id-ordered
/// `rf_rpc::Outbox`: a `sent` flag per entry, a scan of the whole
/// backlog per flush and a `retain` over it per ack. Kept as the
/// reference the real relay must match message for message.
mod relay_model {
    use rf_rpc::{
        encode_envelope, Envelope, RpcAck, RpcClientConfig, RpcFrameReader, RpcRequest,
        RPC_CLIENT_SERVICE, RPC_SERVER_SERVICE,
    };
    use rf_sim::{Agent, ConnId, Ctx, StreamEvent};
    use std::collections::VecDeque;

    const T_RETX: u64 = 1;
    const T_RECONNECT: u64 = 2;

    #[derive(Clone)]
    struct Pending {
        req_id: u64,
        request: RpcRequest,
        sent: bool,
    }

    #[derive(Clone)]
    pub struct ModelRelay {
        cfg: RpcClientConfig,
        upstream_readers: Vec<(ConnId, RpcFrameReader)>,
        server_conn: Option<ConnId>,
        server_ready: bool,
        server_reader: RpcFrameReader,
        queue: VecDeque<Pending>,
        next_req_id: u64,
        pub acked: u64,
        pub retransmissions: u64,
    }

    impl ModelRelay {
        pub fn new(cfg: RpcClientConfig) -> ModelRelay {
            ModelRelay {
                cfg,
                upstream_readers: Vec::new(),
                server_conn: None,
                server_ready: false,
                server_reader: RpcFrameReader::new(),
                queue: VecDeque::new(),
                next_req_id: 1,
                acked: 0,
                retransmissions: 0,
            }
        }

        fn connect_server(&mut self, ctx: &mut Ctx<'_>) {
            self.server_ready = false;
            self.server_reader = RpcFrameReader::new();
            self.server_conn =
                Some(ctx.connect(self.cfg.server, RPC_SERVER_SERVICE, self.cfg.conn));
        }

        fn flush(&mut self, ctx: &mut Ctx<'_>) {
            let (true, Some(conn)) = (self.server_ready, self.server_conn) else {
                return;
            };
            for p in self.queue.iter_mut().filter(|p| !p.sent) {
                let env = Envelope::Request {
                    req_id: p.req_id,
                    request: p.request.clone(),
                };
                ctx.conn_send(conn, encode_envelope(&env));
                p.sent = true;
            }
        }

        fn mark_all_unsent(&mut self) {
            for p in self.queue.iter_mut() {
                p.sent = false;
            }
        }
    }

    impl Agent for ModelRelay {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.listen(RPC_CLIENT_SERVICE);
            self.connect_server(ctx);
            ctx.schedule(self.cfg.retransmit, T_RETX);
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            match token {
                T_RETX => {
                    if self.queue.iter().any(|p| p.sent) && self.server_ready {
                        self.mark_all_unsent();
                        self.retransmissions += 1;
                        self.flush(ctx);
                    }
                    ctx.schedule(self.cfg.retransmit, T_RETX);
                }
                T_RECONNECT if self.server_conn.is_none() => self.connect_server(ctx),
                _ => {}
            }
        }

        fn on_stream(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, event: StreamEvent) {
            if Some(conn) == self.server_conn {
                match event {
                    StreamEvent::Opened { .. } => {
                        self.server_ready = true;
                        self.mark_all_unsent();
                        self.flush(ctx);
                    }
                    StreamEvent::Data(data) => {
                        self.server_reader.push_bytes(data);
                        while let Some(Ok(env)) = self.server_reader.next() {
                            if let Envelope::Ack(ack) = env {
                                let before = self.queue.len();
                                self.queue.retain(|p| p.req_id != ack.req_id);
                                if self.queue.len() < before {
                                    self.acked += 1;
                                }
                            }
                        }
                    }
                    StreamEvent::Closed => {
                        self.server_conn = None;
                        self.server_ready = false;
                        ctx.schedule(self.cfg.reconnect_backoff, T_RECONNECT);
                    }
                }
                return;
            }
            match event {
                StreamEvent::Opened { .. } => {
                    self.upstream_readers.push((conn, RpcFrameReader::new()));
                }
                StreamEvent::Data(data) => {
                    let mut incoming = Vec::new();
                    if let Some((_, reader)) =
                        self.upstream_readers.iter_mut().find(|(c, _)| *c == conn)
                    {
                        reader.push_bytes(data);
                        while let Some(Ok(env)) = reader.next() {
                            if let Envelope::Request { req_id, request } = env {
                                incoming.push((req_id, request));
                            }
                        }
                    }
                    for (upstream_id, request) in incoming {
                        let ack = Envelope::Ack(RpcAck {
                            req_id: upstream_id,
                            ok: true,
                        });
                        ctx.conn_send(conn, encode_envelope(&ack));
                        let req_id = self.next_req_id;
                        self.next_req_id += 1;
                        self.queue.push_back(Pending {
                            req_id,
                            request,
                            sent: false,
                        });
                        self.flush(ctx);
                    }
                }
                StreamEvent::Closed => self.upstream_readers.retain(|(c, _)| *c != conn),
            }
        }
    }
}

/// One scripted step of the relay test, fired at a scripted instant.
#[derive(Clone, Copy, Debug)]
enum RelayOp {
    /// The topology controller hands the relay this many more requests.
    Submit(u8),
    /// The server acks this id — whether or not the relay ever issued
    /// it, has it outstanding, or had it acked already.
    Ack(u64),
    /// The server acks the oldest request it holds unacked (the
    /// in-order case).
    AckOldest,
    /// The server drops the connection; the relay redials.
    Close,
}

type RelayScript = Vec<(std::time::Duration, RelayOp)>;

/// Plays the `Submit` steps into the relay's upstream port.
#[derive(Clone)]
struct ScriptedUpstream {
    relay: rf_sim::AgentId,
    script: RelayScript,
    conn: Option<rf_sim::ConnId>,
    next_id: u64,
}

impl rf_sim::Agent for ScriptedUpstream {
    fn on_start(&mut self, ctx: &mut rf_sim::Ctx<'_>) {
        let profile = rf_sim::ConnProfile::default();
        self.conn = Some(ctx.connect(self.relay, rf_rpc::RPC_CLIENT_SERVICE, profile));
        for (i, (at, _)) in self.script.iter().enumerate() {
            ctx.schedule(*at, i as u64);
        }
    }
    fn on_timer(&mut self, ctx: &mut rf_sim::Ctx<'_>, token: u64) {
        let (RelayOp::Submit(n), Some(conn)) = (self.script[token as usize].1, self.conn) else {
            return;
        };
        for _ in 0..n {
            let env = rf_rpc::Envelope::Request {
                req_id: self.next_id,
                request: rf_rpc::RpcRequest::SwitchRemoved { dpid: self.next_id },
            };
            self.next_id += 1;
            ctx.conn_send(conn, rf_rpc::encode_envelope(&env));
        }
    }
}

/// Plays the server's steps and logs every envelope the relay sends it.
#[derive(Clone)]
struct ScriptedServer {
    script: RelayScript,
    conn: Option<rf_sim::ConnId>,
    reader: rf_rpc::RpcFrameReader,
    /// Request ids received on any connection and not yet `AckOldest`ed.
    unacked: std::collections::BTreeSet<u64>,
    log: Vec<(rf_sim::Time, rf_rpc::Envelope)>,
}

impl rf_sim::Agent for ScriptedServer {
    fn on_start(&mut self, ctx: &mut rf_sim::Ctx<'_>) {
        ctx.listen(rf_rpc::RPC_SERVER_SERVICE);
        for (i, (at, _)) in self.script.iter().enumerate() {
            ctx.schedule(*at, i as u64);
        }
    }
    fn on_timer(&mut self, ctx: &mut rf_sim::Ctx<'_>, token: u64) {
        let Some(conn) = self.conn else { return };
        let req_id = match self.script[token as usize].1 {
            RelayOp::Submit(_) => return,
            RelayOp::Ack(id) => id,
            RelayOp::AckOldest => match self.unacked.pop_first() {
                Some(id) => id,
                None => return,
            },
            RelayOp::Close => {
                ctx.conn_close(conn);
                self.conn = None;
                return;
            }
        };
        let ack = rf_rpc::Envelope::Ack(rf_rpc::RpcAck { req_id, ok: true });
        ctx.conn_send(conn, rf_rpc::encode_envelope(&ack));
    }
    fn on_stream(
        &mut self,
        ctx: &mut rf_sim::Ctx<'_>,
        conn: rf_sim::ConnId,
        event: rf_sim::StreamEvent,
    ) {
        match event {
            rf_sim::StreamEvent::Opened { .. } => {
                self.conn = Some(conn);
                self.reader = rf_rpc::RpcFrameReader::new();
            }
            rf_sim::StreamEvent::Data(data) => {
                self.reader.push_bytes(data);
                while let Some(Ok(env)) = self.reader.next() {
                    if let rf_rpc::Envelope::Request { req_id, .. } = &env {
                        self.unacked.insert(*req_id);
                    }
                    self.log.push((ctx.now(), env));
                }
            }
            rf_sim::StreamEvent::Closed => {
                if self.conn == Some(conn) {
                    self.conn = None;
                }
            }
        }
    }
}

/// Run `script` against the relay `make_relay` builds; returns what
/// the server saw, when, and the relay's `(acked, retransmissions)`.
fn play_relay<R: rf_sim::Agent>(
    script: &RelayScript,
    make_relay: impl FnOnce(rf_rpc::RpcClientConfig) -> R,
    counters: impl FnOnce(&R) -> (u64, u64),
) -> (Vec<(rf_sim::Time, rf_rpc::Envelope)>, (u64, u64)) {
    let mut sim = rf_sim::Sim::new(rf_sim::SimConfig::default());
    let server = sim.add_agent(
        "rpc-server",
        Box::new(ScriptedServer {
            script: script.clone(),
            conn: None,
            reader: rf_rpc::RpcFrameReader::new(),
            unacked: Default::default(),
            log: Vec::new(),
        }),
    );
    let relay = sim.add_agent(
        "rpc-client",
        Box::new(make_relay(rf_rpc::RpcClientConfig::new(server))),
    );
    sim.add_agent(
        "topo-ctrl",
        Box::new(ScriptedUpstream {
            relay,
            script: script.clone(),
            conn: None,
            next_id: 1,
        }),
    );
    // Past the last step by several retransmission periods.
    let end = script
        .last()
        .map_or(std::time::Duration::ZERO, |(at, _)| *at);
    sim.run_until(rf_sim::Time::ZERO + end + std::time::Duration::from_secs(3));
    let log = sim.agent_as::<ScriptedServer>(server).unwrap().log.clone();
    (log, counters(sim.agent_as::<R>(relay).unwrap()))
}

/// The Fletcher loop as it was before the modulo was deferred: two
/// `% 255` per byte on `i64`.
fn fletcher_checksum_per_byte_modulo(data: &[u8], ck_off: usize) -> u16 {
    let mut c0: i64 = 0;
    let mut c1: i64 = 0;
    for &b in data {
        c0 = (c0 + i64::from(b)) % 255;
        c1 = (c1 + c0) % 255;
    }
    let len = data.len() as i64;
    let mut x = ((len - ck_off as i64 - 1) * c0 - c1) % 255;
    if x <= 0 {
        x += 255;
    }
    let mut y = 510 - c0 - x;
    if y > 255 {
        y -= 255;
    }
    ((x as u16) << 8) | y as u16
}

/// All-0xFF input drives the deferred-modulo accumulators as high as
/// any input of that length can; a block too long would overflow them.
#[test]
fn fletcher_matches_per_byte_modulo_on_saturated_buffers() {
    use rf_routed::ospf::lsa::fletcher_checksum;
    let mut lens: Vec<usize> = (1..=64).collect();
    for shift in 7..=16 {
        let p = 1usize << shift;
        lens.extend([p - 1, p, p + 1]);
    }
    for len in lens.into_iter().filter(|len| *len <= 64 * 1024) {
        let data = vec![0xFFu8; len];
        assert_eq!(
            fletcher_checksum(&data, 0),
            fletcher_checksum_per_byte_modulo(&data, 0),
            "{len} bytes of 0xFF"
        );
    }
}

proptest! {
    // ---------------- decoders never panic ----------------

    #[test]
    fn of_decoder_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = OfMessage::decode(&data);
    }

    #[test]
    fn wire_parsers_never_panic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = EthernetFrame::parse(&data);
        let _ = Ipv4Packet::parse(&data);
        let _ = ArpPacket::parse(&data);
        let _ = LldpPacket::parse(&data);
        let _ = rf_routed::ospf::packet::OspfPacket::parse(&data);
    }

    #[test]
    fn rpc_decoder_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = rf_rpc::decode_envelope(&data);
        let _ = rf_vnet::rfproto::RfMessage::decode(&data);
    }

    // ---------------- stream reassembly ----------------

    /// However the byte stream is cut up, and whichever way the pieces
    /// are pushed, each protocol's reader yields the messages that
    /// were encoded, in order.
    #[test]
    fn readers_are_indifferent_to_chunking(
        cuts in proptest::collection::vec((1usize..48, any::<bool>(), any::<bool>()), 1..24),
    ) {
        use rf_openflow::{MessageReader, PacketInReason};
        use rf_rpc::{encode_envelope, Envelope, RpcAck, RpcFrameReader, RpcRequest};
        use rf_vnet::rfproto::{RfFrameReader, RfMessage};

        let of: Vec<(OfMessage, u32)> = vec![
            (OfMessage::Hello, 1),
            (OfMessage::EchoRequest(Bytes::from_static(b"are you there")), 2),
            (
                OfMessage::PacketIn {
                    buffer_id: 7,
                    total_len: 64,
                    in_port: 3,
                    reason: PacketInReason::NoMatch,
                    data: Bytes::from(vec![0xAB; 64]),
                },
                3,
            ),
            (OfMessage::BarrierRequest, 4),
        ];
        let stream: Vec<u8> = of.iter().flat_map(|(m, xid)| m.encode(*xid).to_vec()).collect();
        let got = rechunked(
            &stream,
            &cuts,
            MessageReader::new(),
            MessageReader::push,
            MessageReader::push_bytes,
            MessageReader::next,
        );
        prop_assert_eq!(got, of.into_iter().map(Ok).collect::<Vec<_>>());

        let request = |req_id, request| Envelope::Request { req_id, request };
        let rpc = vec![
            request(1, RpcRequest::SwitchDetected { dpid: 9, num_ports: 4 }),
            Envelope::Ack(RpcAck { req_id: 1, ok: true }),
            request(2, RpcRequest::PortStatus { dpid: 9, port: 2, up: false }),
            Envelope::Ack(RpcAck { req_id: 2, ok: false }),
        ];
        let stream: Vec<u8> = rpc.iter().flat_map(|e| encode_envelope(e).to_vec()).collect();
        let got = rechunked(
            &stream,
            &cuts,
            RpcFrameReader::new(),
            RpcFrameReader::push,
            RpcFrameReader::push_bytes,
            RpcFrameReader::next,
        );
        prop_assert_eq!(got, rpc.into_iter().map(Ok).collect::<Vec<_>>());

        let rf = vec![
            RfMessage::Booted { dpid: 0x1C },
            RfMessage::WriteConfigs {
                zebra: "hostname vm-1c\n".into(),
                ospf: "router ospf\n network 172.31.0.0/30 area 0\n".into(),
                bgp: String::new(),
            },
            RfMessage::RouteDel { prefix: "172.31.0.4/30".parse().unwrap() },
        ];
        let stream: Vec<u8> = rf.iter().flat_map(|m| m.encode().to_vec()).collect();
        let got = rechunked(
            &stream,
            &cuts,
            RfFrameReader::new(),
            RfFrameReader::push,
            RfFrameReader::push_bytes,
            RfFrameReader::next,
        );
        prop_assert_eq!(got, rf);
    }

    // ---------------- roundtrips ----------------

    #[test]
    fn ethernet_roundtrip(
        dst in arb_mac(),
        src in arb_mac(),
        ethertype in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 46..200),
    ) {
        let f = EthernetFrame::new(dst, src, rf_wire::EtherType(ethertype), Bytes::from(payload));
        let parsed = EthernetFrame::parse(&f.emit()).unwrap();
        prop_assert_eq!(parsed, f);
    }

    #[test]
    fn ipv4_roundtrip_and_checksum(
        src in arb_ip(),
        dst in arb_ip(),
        proto in any::<u8>(),
        ttl in 1u8..=255,
        payload in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut p = Ipv4Packet::new(src, dst, rf_wire::IpProtocol(proto), Bytes::from(payload));
        p.ttl = ttl;
        let wire = p.emit();
        prop_assert_eq!(internet_checksum(&wire[..20]), 0);
        let parsed = Ipv4Packet::parse(&wire).unwrap();
        prop_assert_eq!(parsed, p);
    }

    #[test]
    fn udp_roundtrip(
        src in arb_ip(),
        dst in arb_ip(),
        sp in any::<u16>(),
        dp in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let u = UdpPacket::new(sp, dp, Bytes::from(payload));
        let parsed = UdpPacket::parse(&u.emit(src, dst), src, dst).unwrap();
        prop_assert_eq!(parsed, u);
    }

    #[test]
    fn lldp_discovery_roundtrip(dpid in any::<u64>(), port in any::<u16>()) {
        let p = LldpPacket::discovery_probe(dpid, port);
        let parsed = LldpPacket::parse(&p.emit()).unwrap();
        prop_assert_eq!(parsed.decode_discovery(), Some((dpid, port)));
    }

    #[test]
    fn of_match_roundtrip(
        wildcards in 0u32..(1 << 22),
        in_port in any::<u16>(),
        dl_src in arb_mac(),
        dl_dst in arb_mac(),
        dl_type in any::<u16>(),
        nw_src in arb_ip(),
        nw_dst in arb_ip(),
        tp in any::<(u16, u16)>(),
    ) {
        let m = OfMatch {
            wildcards: Wildcards(wildcards),
            in_port,
            dl_src,
            dl_dst,
            dl_vlan: 0xFFFF,
            dl_vlan_pcp: 0,
            dl_type,
            nw_tos: 0,
            nw_proto: 0,
            nw_src,
            nw_dst,
            tp_src: tp.0,
            tp_dst: tp.1,
        };
        let mut buf = bytes::BytesMut::new();
        m.emit_into(&mut buf);
        prop_assert_eq!(OfMatch::parse(&buf).unwrap(), m);
    }

    #[test]
    fn of_actions_roundtrip(port in 1u16..1000, mac in arb_mac(), ip in arb_ip()) {
        let actions = vec![
            Action::SetDlSrc(mac),
            Action::SetDlDst(mac),
            Action::SetNwDst(ip),
            Action::output(port),
        ];
        let mut buf = bytes::BytesMut::new();
        Action::emit_list(&actions, &mut buf);
        prop_assert_eq!(Action::parse_list(&buf).unwrap(), actions);
    }

    // ---------------- semantic invariants ----------------

    /// A /n prefix match covers exactly the addresses whose top n bits
    /// agree.
    #[test]
    fn prefix_match_semantics(net in arb_ip(), len in 0u8..=32, probe in arb_ip()) {
        let m = OfMatch::ipv4_dst_prefix(net, len);
        let key = PacketKey {
            in_port: 1,
            dl_src: MacAddr::ZERO,
            dl_dst: MacAddr::ZERO,
            dl_type: 0x0800,
            nw_tos: 0,
            nw_proto: 17,
            nw_src: Ipv4Addr::UNSPECIFIED,
            nw_dst: probe,
            tp_src: 0,
            tp_dst: 0,
        };
        let cidr = Ipv4Cidr::new(net, len);
        prop_assert_eq!(m.matches(&key), cidr.contains(probe));
    }

    /// A narrower prefix is always a subset of a wider one on the same
    /// network.
    #[test]
    fn subset_reflexive_and_monotone(net in arb_ip(), len in 1u8..=32) {
        let narrow = OfMatch::ipv4_dst_prefix(net, len);
        let wide = OfMatch::ipv4_dst_prefix(net, len - 1);
        prop_assert!(narrow.is_subset_of(&narrow));
        prop_assert!(narrow.is_subset_of(&wide));
        prop_assert!(narrow.is_subset_of(&OfMatch::any()));
    }

    /// An LSA's checksum verifies on its wire bytes at any age, and
    /// every single-bit flip outside the age field breaks it.
    #[test]
    fn lsa_checksum_invariants(
        adv in any::<u32>(),
        links in proptest::collection::vec((any::<u32>(), any::<u32>(), 1u16..100), 0..8),
        age in 0u16..3600,
    ) {
        use rf_routed::ospf::lsa::{Lsa, RouterLink, RouterLinkType, INITIAL_SEQ};
        let links: Vec<RouterLink> = links
            .into_iter()
            .map(|(id, data, metric)| RouterLink {
                link_type: RouterLinkType::Stub,
                link_id: id,
                link_data: data,
                metric,
            })
            .collect();
        let lsa = Lsa::router(adv, INITIAL_SEQ, 0, links);
        let mut wire = bytes::BytesMut::new();
        lsa.with_age(age).emit_into(&mut wire);
        prop_assert!(Lsa::checksum_ok(&wire));
        for bit in 0..wire.len() * 8 {
            wire[bit / 8] ^= 1 << (bit % 8);
            // The age field (bytes 0..2) is not covered.
            prop_assert_eq!(Lsa::checksum_ok(&wire), bit < 16, "bit {} flipped", bit);
            wire[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// The deferred-modulo Fletcher computes what the per-byte-modulo
    /// loop did.
    #[test]
    fn fletcher_matches_per_byte_modulo(
        data in proptest::collection::vec(any::<u8>(), 1..600),
        ck_off in 0usize..600,
    ) {
        let ck_off = ck_off % data.len();
        prop_assert_eq!(
            rf_routed::ospf::lsa::fletcher_checksum(&data, ck_off),
            fletcher_checksum_per_byte_modulo(&data, ck_off)
        );
    }

    // ---------------- RPC relay ----------------

    /// Whatever the topology controller submits and the server acks
    /// (in order, out of order, twice, ids never issued) or drops,
    /// across retransmission ticks and reconnects, the relay sends the
    /// server the envelopes its reference model sends, at the same
    /// instants, and counts the same acks and retransmissions.
    #[test]
    fn relay_matches_reference_model(
        steps in proptest::collection::vec((0u64..400, 0u8..10, 0u8..24), 1..40),
    ) {
        let mut at = std::time::Duration::ZERO;
        let script: RelayScript = steps
            .into_iter()
            .map(|(dt_ms, kind, arg)| {
                at += std::time::Duration::from_millis(dt_ms);
                let op = match kind {
                    0..=3 => RelayOp::Submit(1 + arg % 4),
                    4..=5 => RelayOp::Ack(u64::from(arg)),
                    6..=8 => RelayOp::AckOldest,
                    _ => RelayOp::Close,
                };
                (at, op)
            })
            .collect();
        let model = play_relay(&script, relay_model::ModelRelay::new, |r| {
            (r.acked, r.retransmissions)
        });
        let real = play_relay(&script, rf_rpc::RpcClientAgent::new, |r| {
            (r.acked, r.retransmissions)
        });
        prop_assert_eq!(real, model);
    }

    /// The RIB always installs the lowest (distance, metric) candidate,
    /// no matter the operation order.
    #[test]
    fn rib_best_route_invariant(ops in proptest::collection::vec(
        (0u8..3, 0u8..4, 1u32..100), 1..40,
    )) {
        let protos = [
            RouteProto::Connected,
            RouteProto::Static,
            RouteProto::Ospf,
            RouteProto::Rip,
        ];
        let prefix: Ipv4Cidr = "10.5.0.0/16".parse().unwrap();
        let mut rib = Rib::new();
        let mut model: std::collections::HashMap<RouteProto, u32> = Default::default();
        for (op, p, metric) in ops {
            let proto = protos[p as usize];
            match op {
                0 | 2 => {
                    rib.add(Route {
                        prefix,
                        next_hop: Some(Ipv4Addr::new(1, 1, 1, 1)),
                        out_iface: 1,
                        proto,
                        metric,
                    });
                    model.insert(proto, metric);
                }
                _ => {
                    rib.remove(prefix, proto);
                    model.remove(&proto);
                }
            }
            let expected = model
                .iter()
                .min_by_key(|(pr, m)| (pr.admin_distance(), **m))
                .map(|(pr, _)| *pr);
            let got = rib.lookup(Ipv4Addr::new(10, 5, 1, 1)).map(|r| r.proto);
            prop_assert_eq!(got, expected);
        }
    }
}
