//! Property-based tests (proptest) on the load-bearing codecs and data
//! structures: decoders must never panic, encode∘decode must be
//! identity, matching must respect prefix containment, and the RIB
//! must keep its best-route invariant under arbitrary operation
//! sequences.

use bytes::Bytes;
use proptest::prelude::*;
use rf_openflow::{Action, OfMatch, OfMessage, PacketKey};
use rf_routed::rib::{Rib, Route, RouteProto};
use rf_wire::{
    internet_checksum, internet_checksum_parts, ipv4_frame, ArpPacket, EthernetFrame,
    EthernetHeader, IcmpHeader, IcmpPacket, Ipv4Body, Ipv4Cidr, Ipv4Header, Ipv4Packet, LldpPacket,
    MacAddr, UdpHeader, UdpPacket,
};
use std::net::Ipv4Addr;

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

/// Feed `stream` to a reader in the pieces `cuts` describes — (length,
/// as a chunk of its own or a slice sharing the stream's storage, drain
/// before the next piece) — cycling through `cuts` until the stream is
/// exhausted, and collect everything the reader yields.
fn rechunked<R, M>(
    stream: &[u8],
    cuts: &[(usize, bool, bool)],
    mut reader: R,
    push_bytes: impl Fn(&mut R, Bytes),
    next: impl Fn(&mut R) -> Option<M>,
) -> Vec<M> {
    let stream = Bytes::copy_from_slice(stream);
    let mut out = Vec::new();
    let mut at = 0;
    for &(len, owned, drain) in cuts.iter().cycle() {
        if at == stream.len() {
            break;
        }
        let piece = stream.slice(at..(at + len).min(stream.len()));
        at += piece.len();
        if owned {
            push_bytes(&mut reader, Bytes::copy_from_slice(&piece));
        } else {
            push_bytes(&mut reader, piece);
        }
        if drain {
            out.extend(std::iter::from_fn(|| next(&mut reader)));
        }
    }
    out.extend(std::iter::from_fn(|| next(&mut reader)));
    out
}

// ---------------- switch datapath: reference model ----------------

/// The action interpreter as it was before it became one loop over the
/// frame's bytes: a fast path for lists without rewrites, and an editor
/// that parsed the frame up front and re-emitted it at each output.
/// Kept as the reference the real `apply_actions` must match byte for
/// byte, less the IPv4 and UDP rewrites it also applied: those actions
/// no longer exist, and what is left of the editor is the Ethernet
/// frame whose MACs it rewrites. Less, too, its virtual output ports
/// (`IN_PORT`, `TABLE`, `FLOOD`, `ALL`): no `OUTPUT` decodes to one,
/// so every port but a physical one and the controller is dropped.
mod datapath_model {
    use bytes::Bytes;
    use rf_openflow::{Action, PortNumber, OFPP_CONTROLLER, OFPP_MAX};
    use rf_switch::Egress;
    use rf_wire::EthernetFrame;

    /// Apply an OF 1.0 action list to `frame`.
    ///
    /// Returns the list of egress operations in action order (ports are
    /// `1..=num_ports`). Unknown or unsupported output ports are
    /// silently dropped (matching OVS).
    pub fn apply_actions(frame: &Bytes, actions: &[Action], num_ports: u16) -> Vec<Egress> {
        // Fast path: an action list without header rewrites (the
        // overwhelmingly common case — plain forwarding, floods, punts)
        // leaves the frame byte-identical, so the parse → re-emit round
        // trip below is pure overhead. `emit` pads to the 60-byte minimum,
        // so only already-padded frames are guaranteed to round-trip to
        // themselves; shorter ones (never produced by `emit`, but possible
        // via hand-built PACKET_OUT data) take the slow path, which pads
        // exactly as before.
        let mutates = actions
            .iter()
            .any(|a| matches!(a, Action::SetDlSrc(_) | Action::SetDlDst(_)));
        let mut out = Vec::new();
        if !mutates && frame.len() >= rf_wire::MIN_FRAME_NO_FCS {
            for action in actions {
                if let Action::Output { port, max_len } = action {
                    route(&mut out, frame.clone(), *port, *max_len, num_ports);
                }
            }
            return out;
        }
        let mut editor = EthernetFrame::parse_bytes(frame).ok();
        for action in actions {
            match action {
                Action::Output { port, max_len } => {
                    let bytes = match &editor {
                        Some(eth) => eth.emit(),
                        None => frame.clone(),
                    };
                    route(&mut out, bytes, *port, *max_len, num_ports);
                }
                Action::SetDlSrc(mac) => {
                    if let Some(eth) = &mut editor {
                        eth.src = *mac;
                    }
                }
                Action::SetDlDst(mac) => {
                    if let Some(eth) = &mut editor {
                        eth.dst = *mac;
                    }
                }
            }
        }
        out
    }

    fn route(out: &mut Vec<Egress>, bytes: Bytes, port: PortNumber, max_len: u16, num_ports: u16) {
        match port {
            OFPP_CONTROLLER => out.push(Egress::Controller {
                max_len,
                frame: bytes,
            }),
            p if (1..=OFPP_MAX).contains(&p) && p <= num_ports => {
                out.push(Egress::Port(p, bytes));
            }
            _ => { /* a virtual port, NONE or invalid: drop */ }
        }
    }
}

// ---------------- host stack: reference model ----------------

/// The list-returning host stack as it stood before `HostStack` took a
/// sink: every call returns what to transmit and what arrived as one
/// `Vec`, and every received frame is sliced per layer by the owning
/// `parse_bytes` chain. Kept verbatim (less two accessors and two
/// counters nothing here reads, and with its datagram handed to
/// `ipv4_frame` as a payload of one part) as the reference model for
/// `host_stack_matches_reference_model`.
mod host_stack_model {
    use bytes::{Bytes, BytesMut};
    use rf_core::host::HostConfig;
    use rf_wire::ipv4::DEFAULT_TTL;
    use rf_wire::{
        ipv4_frame, ArpOp, ArpPacket, EtherType, EthernetFrame, IcmpPacket, IpProtocol, Ipv4Body,
        Ipv4Packet, MacAddr, UdpPacket,
    };
    use std::collections::HashMap;
    use std::net::Ipv4Addr;

    /// What the stack wants done after processing input.
    #[derive(Clone, Debug, PartialEq)]
    pub enum StackOutput {
        /// Transmit this frame on the host's single interface.
        Tx(Bytes),
        /// A UDP datagram arrived for us.
        Udp {
            src: Ipv4Addr,
            src_port: u16,
            dst_port: u16,
            payload: Bytes,
        },
        /// An ICMP echo reply arrived (ident, seq).
        EchoReply {
            from: Ipv4Addr,
            ident: u16,
            seq: u16,
        },
    }

    /// The host stack.
    #[derive(Clone)]
    pub struct HostStack {
        cfg: HostConfig,
        arp_cache: HashMap<Ipv4Addr, MacAddr>,
        /// Frames waiting on ARP resolution, keyed by next-hop IP: built
        /// in full, only the destination MAC (bytes 0..6) still to fill in.
        pending: Vec<(Ipv4Addr, BytesMut)>,
    }

    impl HostStack {
        pub fn new(cfg: HostConfig) -> HostStack {
            HostStack {
                cfg,
                arp_cache: HashMap::new(),
                pending: Vec::new(),
            }
        }

        /// Frames to send at boot: a gratuitous ARP so the network (and
        /// RouteFlow's host learner) knows where we are.
        pub fn boot(&self) -> Vec<StackOutput> {
            let garp = ArpPacket {
                op: ArpOp::Request,
                sender_mac: self.cfg.mac,
                sender_ip: self.cfg.addr.addr,
                target_mac: MacAddr::ZERO,
                target_ip: self.cfg.addr.addr,
            };
            vec![StackOutput::Tx(
                EthernetFrame::new(
                    MacAddr::BROADCAST,
                    self.cfg.mac,
                    EtherType::ARP,
                    garp.emit(),
                )
                .emit(),
            )]
        }

        /// The next hop for `dst`: on-link or via the gateway.
        fn next_hop(&self, dst: Ipv4Addr) -> Ipv4Addr {
            if self.cfg.addr.contains(dst) {
                dst
            } else {
                self.cfg.gateway
            }
        }

        /// The one way an IPv4 packet leaves this host: built as a whole
        /// frame in one buffer, then sent if the next hop's MAC is known
        /// or parked behind an ARP request for it if not.
        fn emit_ip(&mut self, dst: Ipv4Addr, body: Ipv4Body<'_>) -> Vec<StackOutput> {
            let nh = self.next_hop(dst);
            let mac = self.arp_cache.get(&nh).copied();
            let frame = ipv4_frame(
                mac.unwrap_or(MacAddr::ZERO),
                self.cfg.mac,
                self.cfg.addr.addr,
                dst,
                DEFAULT_TTL,
                body,
            );
            if mac.is_some() {
                return vec![StackOutput::Tx(frame.freeze())];
            }
            self.pending.push((nh, frame));
            let req = ArpPacket::request(self.cfg.mac, self.cfg.addr.addr, nh);
            vec![StackOutput::Tx(
                EthernetFrame::new(MacAddr::BROADCAST, self.cfg.mac, EtherType::ARP, req.emit())
                    .emit(),
            )]
        }

        /// Is the next hop for `dst` already in the ARP cache?
        pub fn is_resolved(&self, dst: Ipv4Addr) -> bool {
            self.arp_cache.contains_key(&self.next_hop(dst))
        }

        /// Kick off ARP resolution of `dst`'s next hop without queueing
        /// any data. Bulk senders warm the cache with one request instead
        /// of emitting a request per queued datagram.
        pub fn resolve(&mut self, dst: Ipv4Addr) -> Vec<StackOutput> {
            let nh = self.next_hop(dst);
            if self.arp_cache.contains_key(&nh) {
                return Vec::new();
            }
            let req = ArpPacket::request(self.cfg.mac, self.cfg.addr.addr, nh);
            vec![StackOutput::Tx(
                EthernetFrame::new(MacAddr::BROADCAST, self.cfg.mac, EtherType::ARP, req.emit())
                    .emit(),
            )]
        }

        /// Send a UDP datagram.
        pub fn send_udp(
            &mut self,
            dst: Ipv4Addr,
            src_port: u16,
            dst_port: u16,
            payload: Bytes,
        ) -> Vec<StackOutput> {
            self.emit_ip(
                dst,
                Ipv4Body::Udp {
                    src_port,
                    dst_port,
                    payload: &[&payload],
                },
            )
        }

        /// Send an ICMP echo request.
        pub fn send_ping(&mut self, dst: Ipv4Addr, ident: u16, seq: u16) -> Vec<StackOutput> {
            let icmp = IcmpPacket::echo_request(ident, seq, Bytes::from_static(b"rf-ping"));
            self.emit_ip(dst, Ipv4Body::Raw(IpProtocol::ICMP, &icmp.emit()))
        }

        /// Process a received frame (zero-copy: inner layers slice the
        /// caller's buffer).
        pub fn on_frame(&mut self, frame: &Bytes) -> Vec<StackOutput> {
            let Ok(eth) = EthernetFrame::parse_bytes(frame) else {
                return Vec::new();
            };
            if !eth.dst.is_broadcast() && eth.dst != self.cfg.mac && !eth.dst.is_multicast() {
                return Vec::new();
            }
            match eth.ethertype {
                EtherType::ARP => self.on_arp(&eth),
                EtherType::IPV4 => self.on_ip(&eth),
                _ => Vec::new(),
            }
        }

        fn on_arp(&mut self, eth: &EthernetFrame) -> Vec<StackOutput> {
            let Ok(arp) = ArpPacket::parse(&eth.payload) else {
                return Vec::new();
            };
            let mut out = Vec::new();
            // Learn the sender either way.
            if arp.sender_ip != Ipv4Addr::UNSPECIFIED {
                self.arp_cache.insert(arp.sender_ip, arp.sender_mac);
            }
            if arp.op == ArpOp::Request && arp.target_ip == self.cfg.addr.addr {
                let reply = ArpPacket::reply_to(&arp, self.cfg.mac);
                out.push(StackOutput::Tx(
                    EthernetFrame::new(arp.sender_mac, self.cfg.mac, EtherType::ARP, reply.emit())
                        .emit(),
                ));
            }
            // Flush anything waiting on this resolution.
            for (nh, mut frame) in std::mem::take(&mut self.pending) {
                match self.arp_cache.get(&nh) {
                    Some(mac) => {
                        frame[0..6].copy_from_slice(mac.as_bytes());
                        out.push(StackOutput::Tx(frame.freeze()));
                    }
                    None => self.pending.push((nh, frame)),
                }
            }
            out
        }

        fn on_ip(&mut self, eth: &EthernetFrame) -> Vec<StackOutput> {
            let Ok(ip) = Ipv4Packet::parse_bytes(&eth.payload) else {
                return Vec::new();
            };
            if ip.dst != self.cfg.addr.addr {
                return Vec::new();
            }
            match ip.protocol {
                IpProtocol::UDP => {
                    let Ok(udp) = UdpPacket::parse_bytes(&ip.payload, ip.src, ip.dst) else {
                        return Vec::new();
                    };
                    vec![StackOutput::Udp {
                        src: ip.src,
                        src_port: udp.src_port,
                        dst_port: udp.dst_port,
                        payload: udp.payload,
                    }]
                }
                IpProtocol::ICMP => {
                    let Ok(icmp) = IcmpPacket::parse_bytes(&ip.payload) else {
                        return Vec::new();
                    };
                    match icmp {
                        IcmpPacket::EchoRequest { .. } => {
                            let reply = IcmpPacket::reply_to(&icmp);
                            self.emit_ip(ip.src, Ipv4Body::Raw(IpProtocol::ICMP, &reply.emit()))
                        }
                        IcmpPacket::EchoReply { ident, seq, .. } => {
                            vec![StackOutput::EchoReply {
                                from: ip.src,
                                ident,
                                seq,
                            }]
                        }
                        IcmpPacket::Other { .. } => Vec::new(),
                    }
                }
                _ => Vec::new(),
            }
        }
    }
}

// ---------------- internet checksum: reference model ----------------

/// `rf_wire`'s RFC 1071 sum as it was before it read eight bytes at a
/// time in native order: one big-endian 16-bit word per iteration into
/// a `u32`. Kept verbatim as the reference `internet_checksum` and
/// `internet_checksum_parts` must agree with on every input.
mod checksum_model {
    pub fn internet_checksum(data: &[u8]) -> u16 {
        fold_checksum(accumulate_checksum(data))
    }

    /// Unfolded 16-bit-word sum of `data` (RFC 1071's inner loop).
    fn accumulate_checksum(data: &[u8]) -> u32 {
        let mut sum: u32 = 0;
        let mut chunks = data.chunks_exact(2);
        for c in &mut chunks {
            sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
        }
        if let [last] = chunks.remainder() {
            sum += u32::from(u16::from_be_bytes([*last, 0]));
        }
        sum
    }

    /// Fold the carries and complement (RFC 1071's final step).
    fn fold_checksum(mut sum: u32) -> u16 {
        while sum > 0xFFFF {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }
}

/// Every way a buffer can sit against the 16-byte blocks, 2-byte tail
/// words and odd last byte of the wide loop: each length 0..=70 at each
/// start offset 0..8. And the two ones-complement zeros: all-0x00 sums
/// to 0 (checksum 0xFFFF), all-0xFF to 0xFFFF (checksum 0) — up to the
/// 128 KiB of 0xFF the model's `u32` can hold, twice the largest IPv4
/// packet, where both wide accumulators carry on every add.
#[test]
fn internet_checksum_matches_sixteen_bit_model_at_every_alignment() {
    let mut s = 0x2545_F491_4F6C_DD1Du64;
    let noise: Vec<u8> = (0..80)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 24) as u8
        })
        .collect();
    let big = [1usize << 11, (1 << 16) - 1, 1 << 16, 1 << 17];
    for len in (0..=70).chain(big) {
        for fill in [0x00u8, 0xFF] {
            let data = vec![fill; len];
            assert_eq!(
                internet_checksum(&data),
                checksum_model::internet_checksum(&data),
                "{len} bytes of {fill:#04x}"
            );
        }
    }
    for off in 0..8 {
        for len in 0..=70 {
            let data = &noise[off..off + len];
            assert_eq!(
                internet_checksum(data),
                checksum_model::internet_checksum(data),
                "offset {off}, {len} bytes"
            );
        }
    }
    assert_eq!(internet_checksum(&[0u8; 64]), 0xFFFF);
    assert_eq!(internet_checksum(&[0xFFu8; 64]), 0);
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

/// Uniform input cannot tell which byte of an eight-byte step carries
/// which weight; random bytes at every length and alignment can.
#[test]
fn fletcher_matches_per_byte_modulo_on_random_buffers() {
    use rf_routed::ospf::lsa::fletcher_checksum;
    let mut s = 0x2545_F491_4F6C_DD1Du64;
    let mut data: Vec<u8> = (0..9000)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s as u8
        })
        .collect();
    data[4095] = 0xFF; // straddle a block boundary with a saturated byte
    for len in (0..=80).chain([4095, 4096, 4097, 4103, 8191, 8200, 9000]) {
        for start in 0..8.min(data.len() - len + 1) {
            let slice = &data[start..start + len];
            let ck_off = len.saturating_sub(1) / 2;
            assert_eq!(
                fletcher_checksum(slice, ck_off),
                fletcher_checksum_per_byte_modulo(slice, ck_off),
                "{len} random bytes at offset {start}"
            );
        }
    }
}

/// The raw draws one random frame is built from: (shape, addressing,
/// payload, tweak).
type FrameDraw = (u8, (([u8; 6], [u8; 6]), u32, u32, u16), Vec<u8>, u16);

fn arb_frame_draw() -> impl Strategy<Value = FrameDraw> {
    (
        0u8..14,
        any::<(([u8; 6], [u8; 6]), u32, u32, u16)>(),
        proptest::collection::vec(any::<u8>(), 0..96),
        any::<u16>(),
    )
}

/// One frame of the kinds a switch port can see: valid UDP (with and
/// without a checksum), ICMP, ARP, LLDP, corrupt IPv4 / UDP checksums,
/// IPv4 options and trailing bytes, frames cut below the 60-byte
/// minimum, and garbage shorter than an Ethernet header.
fn build_frame((shape, (macs, src, dst, port), payload, tweak): FrameDraw) -> Bytes {
    use rf_wire::{EtherType, IcmpPacket, IpProtocol};
    let (src, dst) = (Ipv4Addr::from(src), Ipv4Addr::from(dst));
    let eth = |ethertype, payload: Bytes| {
        EthernetFrame::new(MacAddr(macs.0), MacAddr(macs.1), ethertype, payload)
            .emit()
            .to_vec()
    };
    let ipv4 = |protocol, payload: Bytes| {
        let mut ip = Ipv4Packet::new(src, dst, protocol, payload);
        ip.dscp = (tweak >> 8) as u8 & 0x3F;
        ip.identification = tweak;
        ip.ttl = 1 + (tweak & 0x3F) as u8;
        ip.emit()
    };
    let udp = UdpPacket::new(port, tweak, Bytes::from(payload.clone())).emit(src, dst);
    let udp_frame = || eth(EtherType::IPV4, ipv4(IpProtocol::UDP, udp.clone()));
    let frame = match shape {
        0..=3 => udp_frame(),
        4 => {
            // Checksum "not computed".
            let mut u = udp.to_vec();
            u[6..8].fill(0);
            eth(EtherType::IPV4, ipv4(IpProtocol::UDP, Bytes::from(u)))
        }
        5 => {
            let mut u = udp.to_vec();
            u[6] ^= 0x40;
            eth(EtherType::IPV4, ipv4(IpProtocol::UDP, Bytes::from(u)))
        }
        6 => {
            let mut f = udp_frame();
            f[14 + 8] ^= 0x10; // TTL no longer matches the header checksum
            f
        }
        7 => {
            let icmp = IcmpPacket::echo_request(port, tweak, Bytes::from(payload));
            eth(EtherType::IPV4, ipv4(IpProtocol::ICMP, icmp.emit()))
        }
        8 => eth(
            EtherType::ARP,
            ArpPacket::request(MacAddr([2, 0, 0, 0, 0, 1]), src, dst).emit(),
        ),
        9 => eth(
            EtherType::LLDP,
            LldpPacket::discovery_probe(u64::from(tweak), port).emit(),
        ),
        10 => {
            // One 4-byte option (IHL 6) and bytes after the IP packet,
            // around a datagram that is valid, corrupt or not UDP.
            let (protocol, inner) = match tweak % 3 {
                0 => (IpProtocol::UDP, udp),
                1 => {
                    let mut u = udp.to_vec();
                    u[6] ^= 0x40;
                    (IpProtocol::UDP, Bytes::from(u))
                }
                _ => (
                    IpProtocol::ICMP,
                    IcmpPacket::echo_request(port, tweak, Bytes::new()).emit(),
                ),
            };
            let mut ip = ipv4(protocol, inner).to_vec();
            ip.splice(20..20, [1u8, 1, 1, 0]);
            ip[0] = 0x46;
            let total = ip.len() as u16;
            ip[2..4].copy_from_slice(&total.to_be_bytes());
            ip[10..12].fill(0);
            let ck = internet_checksum(&ip[..24]);
            ip[10..12].copy_from_slice(&ck.to_be_bytes());
            ip.resize(ip.len().max(46) + (tweak % 7) as usize, 0xEE);
            eth(EtherType::IPV4, Bytes::from(ip))
        }
        11 | 12 => {
            // Cut below the 60-byte minimum: inside the IP header,
            // inside a datagram short enough to end before byte 60, or
            // behind it.
            let short = Bytes::from(payload[..payload.len().min(port as usize % 16)].to_vec());
            let udp = UdpPacket::new(port, tweak, short).emit(src, dst);
            let mut f = eth(EtherType::IPV4, ipv4(IpProtocol::UDP, udp));
            f.truncate(14 + (tweak % 46) as usize);
            f
        }
        _ => {
            let mut f = payload;
            f.truncate((tweak % 14) as usize);
            f
        }
    };
    Bytes::from(frame)
}

/// One action of any of the three kinds; outputs cover physical,
/// out-of-range and every reserved port.
fn build_action((kind, port, value, mac): (u8, u16, u32, [u8; 6]), num_ports: u16) -> Action {
    use rf_openflow::{OFPP_CONTROLLER, OFPP_NONE};
    // IN_PORT, TABLE, NORMAL, FLOOD, ALL, CONTROLLER, LOCAL, NONE: an
    // OUTPUT to any but the controller does not decode.
    let reserved = [
        0xFFF8,
        0xFFF9,
        0xFFFA,
        0xFFFB,
        0xFFFC,
        OFPP_CONTROLLER,
        0xFFFE,
        OFPP_NONE,
    ];
    // Ports 0 and num_ports + 1 are the two nearest invalid ones.
    let physical = port % (num_ports + 2);
    match kind {
        0..=3 => Action::output(physical),
        4..=6 => Action::Output {
            port: reserved[port as usize % reserved.len()],
            max_len: value as u16,
        },
        7 => Action::Output {
            port,
            max_len: value as u16,
        },
        8 | 9 => Action::SetDlSrc(MacAddr(mac)),
        _ => Action::SetDlDst(MacAddr(mac)),
    }
}

// ---------------- classification: the parent's extractor as the model ----------------

/// `PacketKey::from_frame` against the parent's extractor on one
/// buffer.
fn assert_key_matches_model(in_port: u16, frame: &Bytes) {
    assert_eq!(
        PacketKey::from_frame(in_port, frame),
        key_model::from_frame_bytes(in_port, frame),
        "{frame:?}"
    );
}

/// Each owning `parse_bytes` against the parent's (same value or same
/// error variant) and against its in-place reader plus one slice, on
/// `data` taken as a frame, as a packet, as a datagram and as an ICMP
/// message — and, where an outer layer parses, on what it carries.
fn assert_layer_parsers_agree(data: &Bytes) {
    let (src, dst) = (Ipv4Addr::LOCALHOST, Ipv4Addr::BROADCAST);
    let eth = check_ethernet(data);
    let ip = check_ipv4(data);
    check_udp(data, src, dst);
    check_icmp(data);
    if let Some(ip) = eth.and_then(|eth| check_ipv4(&eth.payload)).or(ip) {
        check_udp(&ip.payload, ip.src, ip.dst);
        check_icmp(&ip.payload);
    }
}

fn check_ethernet(data: &Bytes) -> Option<EthernetFrame> {
    let owned = EthernetFrame::parse_bytes(data);
    assert_eq!(owned, key_model::parse_ethernet(data), "{data:?}");
    let read = EthernetHeader::parse(data).map(|h| EthernetFrame {
        dst: h.dst,
        src: h.src,
        ethertype: h.ethertype,
        payload: data.slice(14..),
    });
    assert_eq!(owned, read, "{data:?}");
    owned.ok()
}

fn check_ipv4(data: &Bytes) -> Option<Ipv4Packet> {
    let owned = Ipv4Packet::parse_bytes(data);
    assert_eq!(owned, key_model::parse_ipv4(data), "{data:?}");
    let read = Ipv4Header::parse(data).map(|h| Ipv4Packet {
        dscp: h.dscp,
        identification: h.identification,
        ttl: h.ttl,
        protocol: h.protocol,
        src: h.src,
        dst: h.dst,
        payload: data.slice(h.ihl..h.total_len),
    });
    assert_eq!(owned, read, "{data:?}");
    owned.ok()
}

fn check_udp(data: &Bytes, src: Ipv4Addr, dst: Ipv4Addr) {
    let owned = UdpPacket::parse_bytes(data, src, dst);
    assert_eq!(owned, key_model::parse_udp(data, src, dst), "{data:?}");
    let read = UdpHeader::parse(data, src, dst).map(|h| UdpPacket {
        src_port: h.src_port,
        dst_port: h.dst_port,
        payload: data.slice(8..h.length),
    });
    assert_eq!(owned, read, "{data:?}");
}

fn check_icmp(data: &Bytes) {
    let owned = IcmpPacket::parse_bytes(data);
    assert_eq!(owned, key_model::parse_icmp(data), "{data:?}");
    let read = IcmpHeader::parse(data).map(|h| (h.ty, h.code));
    let type_code = owned.map(|icmp| match icmp {
        IcmpPacket::EchoRequest { .. } => (8, 0),
        IcmpPacket::EchoReply { .. } => (0, 0),
        IcmpPacket::Other { ty, code, .. } => (ty, code),
    });
    assert_eq!(type_code, read, "{data:?}");
}

/// `frame`, each of its prefixes, and each single-bit flip of its
/// first 42 bytes (the Ethernet, IPv4 and UDP headers; all of an ARP
/// body but its target address).
fn damaged_variants(frame: &Bytes) -> Vec<Bytes> {
    let mut variants = vec![frame.clone()];
    variants.extend((0..frame.len()).map(|len| frame.slice(..len)));
    for bit in 0..frame.len().min(42) * 8 {
        let mut flipped = frame.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        variants.push(Bytes::from(flipped));
    }
    variants
}

/// Each single-bit flip of an IPv4 frame's 20-byte header outside its
/// checksum, with the checksum mended: a header that verifies but has
/// options (IHL ≠ 5), MF or a fragment offset, another length, another
/// address. Nothing for a frame too short to hold the header.
fn mended_header_flips(frame: &Bytes) -> Vec<Bytes> {
    if frame.len() < 34 || frame[12..14] != [0x08, 0x00] {
        return Vec::new();
    }
    (14 * 8..34 * 8)
        .filter(|bit| !(24 * 8..26 * 8).contains(bit))
        .map(|bit| {
            let mut flipped = frame.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            flipped[24..26].fill(0);
            let ck = internet_checksum(&flipped[14..34]);
            flipped[24..26].copy_from_slice(&ck.to_be_bytes());
            Bytes::from(flipped)
        })
        .collect()
}

/// One flow-table match built around `key`, a frame's key: the shapes
/// a switch takes — routes toward the frame's destination, LLDP and ARP
/// punts, the frame's own EtherType, an EtherType-only IPv4 entry and a
/// `/0` beside it.
fn build_table_match(kind: u8, len: u8, key: &PacketKey) -> OfMatch {
    match kind % 16 {
        // Half are routes.
        0..=7 => OfMatch::ipv4_dst_prefix(key.nw_dst, len % 33),
        8 | 9 => OfMatch::lldp(),
        10 | 11 => OfMatch::arp(),
        12 => OfMatch::ethertype(key.dl_type),
        13 => OfMatch::ethertype(0x0800),
        _ => OfMatch::ipv4_dst_prefix(key.nw_dst, 0),
    }
}

// ---------------- control path: reference models and scripted peers ----------------

#[path = "models/parent_flowvisor.rs"]
mod flowvisor_model;
#[path = "models/parent_key.rs"]
mod key_model;
#[path = "models/parent_switch.rs"]
mod switch_model;

const CTRL_SERVICE: u16 = 6641;
const TAP_PORTS: u16 = 4;

/// What stands between the scripted controller and the port taps.
#[derive(Clone, Copy, Debug, PartialEq)]
enum ControlLayout {
    /// Controller – FlowVisor – a stub that logs and answers.
    ProxyOnly,
    /// Controller – switch: the switch reads the stream as it was cut.
    SwitchOnly,
    /// Controller – FlowVisor – switch, the paper's layout.
    Chain,
}

/// Plays a control stream, chunk by chunk, into whatever dials it, and
/// logs every chunk that comes back.
#[derive(Clone)]
struct ScriptedController {
    /// The stream as it is cut, each chunk with the delay since the one
    /// before. A chunk is moved out when it is sent.
    chunks: Vec<(std::time::Duration, Option<Bytes>)>,
    /// Keep a handle on every chunk sent: nothing downstream may then
    /// write to one.
    hold: bool,
    held: Vec<Bytes>,
    conn: Option<rf_sim::ConnId>,
    log: Vec<(rf_sim::Time, Bytes)>,
}

impl rf_sim::Agent for ScriptedController {
    fn on_start(&mut self, ctx: &mut rf_sim::Ctx<'_>) {
        ctx.listen(CTRL_SERVICE);
    }
    fn on_timer(&mut self, ctx: &mut rf_sim::Ctx<'_>, token: u64) {
        let chunk = self.chunks[token as usize].1.take().expect("sent once");
        if self.hold {
            self.held.push(chunk.clone());
        }
        ctx.conn_send(self.conn.expect("timers start on open"), chunk);
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
                ctx.conn_send(conn, OfMessage::Hello.encode(0));
                // After the handshake and the taps' injected frames.
                let mut at = std::time::Duration::from_millis(100);
                for (i, (gap, _)) in self.chunks.iter().enumerate() {
                    at += *gap;
                    ctx.schedule(at, i as u64);
                }
            }
            rf_sim::StreamEvent::Data(data) => self.log.push((ctx.now(), data)),
            rf_sim::StreamEvent::Closed => {}
        }
    }
}

/// The far end of one switch port: sends its frames into the switch
/// early (an empty table punts them) and again every few
/// milliseconds while the control stream plays (whatever the table
/// then holds classifies them), logs what comes out.
#[derive(Clone, Default)]
struct PortTap {
    inject: Vec<Bytes>,
    log: Vec<(rf_sim::Time, Bytes)>,
}

impl rf_sim::Agent for PortTap {
    fn on_start(&mut self, ctx: &mut rf_sim::Ctx<'_>) {
        for i in 0..self.inject.len() as u64 {
            ctx.schedule(std::time::Duration::from_millis(50 + i), i);
            for round in 0..12 {
                ctx.schedule(std::time::Duration::from_millis(101 + 3 * round + i), i);
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut rf_sim::Ctx<'_>, token: u64) {
        ctx.send_frame(1, self.inject[token as usize].clone());
    }
    fn on_frame(&mut self, ctx: &mut rf_sim::Ctx<'_>, _port: u32, frame: Bytes) {
        self.log.push((ctx.now(), frame));
    }
}

/// Stands in for the switch below a FlowVisor: logs every chunk and
/// answers enough to drive each of the proxy's switch→controller arms
/// — FEATURES, an ERROR quoting every other FLOW_MOD, for the rest a
/// bare FLOW_REMOVED header (which no proxy decodes: dropped), the
/// payload of a PACKET_OUT punted back as a PACKET_IN, and a
/// PORT_STATUS and an ECHO_REQUEST (which no proxy decodes either) for
/// one that names a buffer and carries no payload.
#[derive(Clone)]
struct StubSwitch {
    fv: rf_sim::AgentId,
    reader: rf_openflow::MessageReader,
    flow_mods: u32,
    log: Vec<(rf_sim::Time, Bytes)>,
}

impl rf_sim::Agent for StubSwitch {
    fn on_start(&mut self, ctx: &mut rf_sim::Ctx<'_>) {
        ctx.connect(self.fv, 6633, rf_sim::ConnProfile::default());
    }
    fn on_stream(
        &mut self,
        ctx: &mut rf_sim::Ctx<'_>,
        conn: rf_sim::ConnId,
        event: rf_sim::StreamEvent,
    ) {
        use bytes::{BufMut, BytesMut};
        use rf_openflow::{
            ErrorType, MsgType, OfHeader, PacketInReason, SwitchFeatures, OFP_NO_BUFFER,
            OFP_VERSION,
        };
        let data = match event {
            rf_sim::StreamEvent::Opened { .. } => {
                return ctx.conn_send(conn, OfMessage::Hello.encode(0));
            }
            rf_sim::StreamEvent::Data(data) => data,
            rf_sim::StreamEvent::Closed => return,
        };
        self.log.push((ctx.now(), data.clone()));
        self.reader.push_bytes(data);
        while let Some(msg) = self.reader.next() {
            let Ok((msg, xid)) = msg else { continue };
            let reply = match msg {
                OfMessage::FeaturesRequest => OfMessage::FeaturesReply(SwitchFeatures {
                    datapath_id: 7,
                    num_ports: TAP_PORTS,
                }),
                OfMessage::PacketOut {
                    buffer_id,
                    ref data,
                    ..
                } if buffer_id != OFP_NO_BUFFER && data.is_empty() => {
                    // `ofp_header`, the reason (MODIFY) and padding, a
                    // port (number 1, the rest zero); then an ECHO_REQUEST
                    // with a four-byte payload.
                    let mut wire = BytesMut::new();
                    wire.put_slice(&[OFP_VERSION, MsgType::PortStatus as u8, 0, 64]);
                    wire.put_u32(xid);
                    wire.put_slice(&[2, 0, 0, 0, 0, 0, 0, 0]);
                    wire.put_u16(1);
                    wire.put_bytes(0, 46);
                    wire.put_slice(&[OFP_VERSION, MsgType::EchoRequest as u8, 0, 12]);
                    wire.put_u32(xid);
                    wire.put_slice(b"ping");
                    ctx.conn_send(conn, wire.freeze());
                    continue;
                }
                OfMessage::FlowMod { .. } => {
                    self.flow_mods += 1;
                    if !self.flow_mods.is_multiple_of(2) {
                        let header = OfHeader {
                            version: OFP_VERSION,
                            msg_type: MsgType::FlowRemoved,
                            length: 8,
                            xid,
                        };
                        ctx.conn_send(conn, Bytes::copy_from_slice(&header.emit()));
                        continue;
                    }
                    let quoted = msg.encode(xid);
                    OfMessage::Error {
                        err_type: ErrorType::FlowModFailed,
                        code: 0,
                        data: quoted.slice(..quoted.len().min(64)),
                    }
                }
                OfMessage::PacketOut { data, .. } if !data.is_empty() => OfMessage::PacketIn {
                    buffer_id: OFP_NO_BUFFER,
                    total_len: data.len() as u16,
                    in_port: 1 + (xid % u32::from(TAP_PORTS)) as u16,
                    reason: PacketInReason::Action,
                    data,
                },
                _ => continue,
            };
            ctx.conn_send(conn, reply.encode(xid));
        }
    }
}

/// Everything a control-plane run shows from outside.
#[derive(Debug, PartialEq)]
struct ControlTranscript {
    to_controller: Vec<(rf_sim::Time, Bytes)>,
    to_stub: Vec<(rf_sim::Time, Bytes)>,
    out_of_ports: Vec<Vec<(rf_sim::Time, Bytes)>>,
    /// Every named and kernel counter: `fv.packet_out_denied`,
    /// `of.packet_out`, `switch.decode_error`, `sim.events`, …
    counters: std::collections::BTreeMap<String, u64>,
}

/// The stream one case plays: its chunks with their gaps, and the
/// frames each tap injects beforehand.
struct ControlScript {
    chunks: Vec<(std::time::Duration, Vec<u8>)>,
    injected: Vec<Vec<Bytes>>,
}

/// Run `script` through `layout`, built from the parent's agents
/// (`model`) or the real ones. With `hold`, the controller keeps a
/// handle on every chunk it sent, and what it holds comes back too.
fn play_control(
    script: &ControlScript,
    layout: ControlLayout,
    model: bool,
    hold: bool,
) -> (ControlTranscript, Vec<Bytes>) {
    use rf_flowvisor::{FlowVisor, SlicePolicy};
    use rf_sim::{Agent, LinkProfile, Sim, SimConfig, Time};
    use rf_switch::{OpenFlowSwitch, SwitchConfig};

    let mut sim = Sim::new(SimConfig::default());
    let ctrl = sim.add_agent(
        "ctrl",
        Box::new(ScriptedController {
            chunks: script
                .chunks
                .iter()
                .map(|(gap, bytes)| (*gap, Some(Bytes::copy_from_slice(bytes))))
                .collect(),
            hold,
            held: Vec::new(),
            conn: None,
            log: Vec::new(),
        }),
    );
    let fv = (layout != ControlLayout::SwitchOnly).then(|| {
        // LLDP and the lower half of IPv4: payloads and FLOW_MODs fall
        // on both sides of it.
        let slices = vec![SlicePolicy {
            name: "half".into(),
            controller: ctrl,
            service: CTRL_SERVICE,
            flowspace: vec![
                OfMatch::lldp(),
                OfMatch::ipv4_dst_prefix(Ipv4Addr::UNSPECIFIED, 1),
            ],
        }];
        let agent: Box<dyn Agent> = if model {
            Box::new(flowvisor_model::ModelFlowVisor::new(slices))
        } else {
            Box::new(FlowVisor::new(slices))
        };
        sim.add_agent("flowvisor", agent)
    });
    let below = match (layout, fv) {
        (ControlLayout::ProxyOnly, Some(fv)) => sim.add_agent(
            "stub",
            Box::new(StubSwitch {
                fv,
                reader: rf_openflow::MessageReader::new(),
                flow_mods: 0,
                log: Vec::new(),
            }),
        ),
        _ => {
            let cfg = match fv {
                Some(fv) => SwitchConfig::new(7, TAP_PORTS, fv),
                None => SwitchConfig::new(7, TAP_PORTS, ctrl).with_service(CTRL_SERVICE),
            };
            let agent: Box<dyn Agent> = if model {
                Box::new(switch_model::ModelSwitch::new(cfg))
            } else {
                Box::new(OpenFlowSwitch::new(cfg))
            };
            sim.add_agent("sw7", agent)
        }
    };
    let mut taps = Vec::new();
    if layout != ControlLayout::ProxyOnly {
        for (port, inject) in (1..).zip(&script.injected) {
            let tap = sim.add_agent(
                &format!("tap{port}"),
                Box::new(PortTap {
                    inject: inject.clone(),
                    log: Vec::new(),
                }),
            );
            sim.add_link((below, port), (tap, 1), LinkProfile::default());
            taps.push(tap);
        }
    }
    sim.run_until(Time::from_secs(1));

    let controller = sim.agent_as::<ScriptedController>(ctrl).unwrap();
    assert!(
        controller.chunks.iter().all(|(_, chunk)| chunk.is_none()),
        "the whole stream was played"
    );
    let transcript = ControlTranscript {
        to_controller: controller.log.clone(),
        to_stub: sim
            .agent_as::<StubSwitch>(below)
            .map_or(Vec::new(), |stub| stub.log.clone()),
        out_of_ports: taps
            .iter()
            .map(|tap| sim.agent_as::<PortTap>(*tap).unwrap().log.clone())
            .collect(),
        counters: sim.tracer().counters(),
    };
    (transcript, controller.held.clone())
}

/// The raw draws one control message is built from: (kind, two
/// numbers, (mutation, where)), its actions, its frame, and how the
/// stream is cut around it.
type ControlDraw = (
    (u8, u16, u32, (u8, u16)),
    Vec<(u8, u16, u32, [u8; 6])>,
    FrameDraw,
    u8,
);

/// Size of `ofp_match`: a FLOW_MOD's fixed fields follow it.
const OFP_MATCH_LEN: usize = 40;

/// One encoded control message: a PACKET_OUT three times in eight —
/// 0–12 actions of every kind, payload in the message / absent / in a
/// buffer, on either side of the slice's flowspace, below 60 bytes —
/// a FLOW_MOD one time in four — its match a punt, a route, IPv4 or
/// everything, half of them with `tp_dst`, `tp_src`, `nw_proto`,
/// `nw_src`, `dl_src` or `in_port` pinned as well, its command a
/// MODIFY or a loose DELETE two times in five, its `out_port` a data
/// port one time in eight, some with a timeout, a flag or a buffer, all
/// of which a switch refuses — else a SET_CONFIG, a BARRIER, GET_CONFIG,
/// STATS_REQUEST, ECHO or VENDOR (raw bytes: no decoder takes one), or
/// something no controller should send. Five in sixteen are then
/// damaged: cut short under a patched length, one bit flipped anywhere,
/// a first action of length 7 or of a type no switch takes (refused
/// under its xid), a PACKET_OUT's `actions_len` running past the body.
fn control_message(((kind, a, b, (damage, at)), actions, frame, _): &ControlDraw) -> Vec<u8> {
    use rf_openflow::{
        FlowModCommand, MsgType, OFPP_NONE, OFP_HEADER_LEN, OFP_NO_BUFFER, OFP_VERSION,
    };
    let (a, b) = (*a, *b);
    let actions: Vec<Action> = actions
        .iter()
        .map(|&(kind, port, value, mac)| build_action((kind % 12, port, value, mac), TAP_PORTS))
        .collect();
    // One in four names a buffer, which no switch holds.
    let buffer_id = match b % 4 {
        0 => 1 + (b >> 2) % 5,
        _ => OFP_NO_BUFFER,
    };
    let in_port = [OFPP_NONE, 1, 2, 3, 4, 5, 0][a as usize % 7];
    let matches = [
        OfMatch::lldp(),
        OfMatch::ethertype(0x0800), // everything, once written over below
        OfMatch::arp(),
        OfMatch::ipv4_dst_prefix(Ipv4Addr::from(b), (a % 33) as u8),
        OfMatch::ethertype(0x0800),
    ];
    let which = (b >> 8) as usize % matches.len();
    let xid = b.rotate_left(7);
    // Where a PACKET_OUT's or a FLOW_MOD's first action starts, if it
    // has one.
    let first_action = match kind % 16 {
        0..=5 => Some(OFP_HEADER_LEN + 8),
        6..=9 => Some(OFP_HEADER_LEN + OFP_MATCH_LEN + 24),
        _ => None,
    }
    .filter(|_| !actions.is_empty());
    // A bare `ofp_header` of a type nothing encodes any more.
    let bare = |msg_type: MsgType| {
        let mut wire = vec![OFP_VERSION, msg_type as u8, 0, 8];
        wire.extend_from_slice(&xid.to_be_bytes());
        wire
    };
    let mut wire = if kind % 16 == 11 {
        // `ofp_header`, then `ofp_stats_request`'s type (one of OF 1.0's
        // five) and flags.
        let mut wire = vec![OFP_VERSION, MsgType::StatsRequest as u8, 0, 12];
        wire.extend_from_slice(&xid.to_be_bytes());
        wire.extend_from_slice(&[0, (a % 5) as u8, 0, 0]);
        wire
    } else if kind % 16 == 10 {
        bare(MsgType::BarrierRequest)
    } else if kind % 16 == 12 {
        bare(MsgType::GetConfigRequest)
    } else if kind % 16 == 13 {
        // `ofp_header`, then `ofp_switch_config`'s flags and miss cut.
        let mut wire = vec![OFP_VERSION, MsgType::SetConfig as u8, 0, 12];
        wire.extend_from_slice(&xid.to_be_bytes());
        wire.extend_from_slice(&[0, 0]);
        wire.extend_from_slice(&a.to_be_bytes());
        wire
    } else if kind % 16 == 14 {
        // `ofp_header`, then an ECHO's payload: a frame's bytes. A
        // request, or one time in four a reply.
        let echo = match a % 4 {
            3 => MsgType::EchoReply,
            _ => MsgType::EchoRequest,
        };
        let payload = build_frame(frame.clone());
        let length = (OFP_HEADER_LEN + payload.len()) as u16;
        let mut wire = vec![OFP_VERSION, echo as u8];
        wire.extend_from_slice(&length.to_be_bytes());
        wire.extend_from_slice(&xid.to_be_bytes());
        wire.extend_from_slice(&payload);
        wire
    } else if kind % 16 == 15 && a % 4 == 2 {
        bare(MsgType::BarrierReply)
    } else if kind % 16 == 15 && a % 4 == 3 {
        // `ofp_header`, then `ofp_vendor_header`'s vendor id.
        let mut wire = vec![OFP_VERSION, MsgType::Vendor as u8, 0, 12];
        wire.extend_from_slice(&xid.to_be_bytes());
        wire.extend_from_slice(&b.to_be_bytes());
        wire
    } else {
        let msg = match kind % 16 {
            0..=5 => OfMessage::PacketOut {
                buffer_id,
                in_port,
                actions,
                data: match b % 5 {
                    1 => Bytes::new(),
                    _ => build_frame(frame.clone()),
                },
            },
            6..=9 => OfMessage::FlowMod {
                of_match: matches[which],
                cookie: u64::from(a % 4),
                command: FlowModCommand::Add, // written over below
                idle_timeout: 0,
                hard_timeout: u16::from((b >> 20) % 16 == 0),
                priority: a,
                buffer_id,
                out_port: match a >> 13 {
                    0 => 1 + a % TAP_PORTS,
                    _ => OFPP_NONE,
                },
                flags: u16::from((b >> 12) % 8 == 0), // SEND_FLOW_REM
                actions,
            },
            _ => match a % 4 {
                0 => OfMessage::FeaturesRequest,
                _ => OfMessage::Hello,
            },
        };
        msg.encode(xid).to_vec()
    };
    if matches!(kind % 16, 6..=9) {
        // What the encoder does not write, written over its bytes. Half
        // of the matches pin one more field; the values are ones frames
        // carry (0 is also what an unread layer leaves), so a switch
        // that took such an entry would forward by mistake.
        let field = |wire: &mut Vec<u8>, at: usize, bytes: &[u8]| {
            let at = OFP_HEADER_LEN + at;
            wire[at..at + bytes.len()].copy_from_slice(bytes);
        };
        let mut wildcards = u32::from_be_bytes(wire[8..12].try_into().expect("four bytes"));
        if which == 1 {
            wildcards = (1 << 22) - 1; // OFPFW_ALL
        }
        match (b >> 16) % 10 {
            0 => wildcards &= !(1 << 7), // tp_dst 0: an echo's code
            1 => {
                wildcards &= !(3 << 5); // echo requests
                field(&mut wire, 25, &[1]);
                field(&mut wire, 36, &[0, 8]);
            }
            2 => {
                wildcards &= !(1 << 5);
                field(&mut wire, 25, &[[17, 1, 0][a as usize % 3]]);
            }
            3 => wildcards = wildcards & !(0x3F << 8) | 31 << 8, // nw_src 0.0.0.0/1
            4 => {
                wildcards &= !(1 << 2);
                field(&mut wire, 6, &frame.1 .0 .1);
            }
            5 => {
                wildcards &= !1;
                field(&mut wire, 4, &in_port.to_be_bytes());
            }
            6 => {
                wildcards &= !(1 << 7); // a datagram's destination port
                field(&mut wire, 38, &frame.3.to_be_bytes());
            }
            _ => {}
        }
        field(&mut wire, 0, &wildcards.to_be_bytes());
        // ADD, MODIFY, loose DELETE, DELETE_STRICT.
        let command: u16 = [0, 0, 1, 3, 4][(b >> 4) as usize % 5];
        field(&mut wire, OFP_MATCH_LEN + 8, &command.to_be_bytes());
    }
    let at = *at as usize;
    match (damage % 16, first_action) {
        (0, _) => {
            wire.truncate(OFP_HEADER_LEN + at % (wire.len() - OFP_HEADER_LEN + 1));
            let length = wire.len() as u16;
            wire[2..4].copy_from_slice(&length.to_be_bytes());
        }
        (2, Some(action)) => wire[action + 3] = 7,
        (3, Some(action)) => {
            // OF 1.0's SET_VLAN_VID and SET_NW_DST, an unknown type, the
            // last type.
            let ty: u16 = [1, 7, 99, 0xFFFF][at % 4];
            wire[action..action + 2].copy_from_slice(&ty.to_be_bytes());
        }
        (4, Some(_)) if kind % 16 <= 5 => wire[OFP_HEADER_LEN + 6] = 0xFF,
        (1..=4, _) => {
            let bit = at % (wire.len() * 8);
            wire[bit / 8] ^= 1 << (bit % 8);
        }
        _ => {}
    }
    wire
}

/// Concatenate the messages and cut the stream where the draws say: a
/// boundary after the message (it may then be the whole chunk), none
/// (it shares a chunk with the next), or one inside it — in the
/// header, in the action list, in the payload. A new chunk leaves at
/// the same instant as the one before or a millisecond later.
fn control_script(draws: &[ControlDraw], frames: &[FrameDraw]) -> ControlScript {
    let mut chunks = Vec::new();
    let mut open = Vec::new();
    for draw in draws {
        let wire = control_message(draw);
        let cut = draw.3;
        let gap = std::time::Duration::from_millis(u64::from(cut >> 7));
        match cut % 8 {
            0..=3 => {
                open.extend_from_slice(&wire);
                chunks.push((gap, std::mem::take(&mut open)));
            }
            4 | 5 => open.extend_from_slice(&wire),
            _ => {
                let (head, tail) = wire.split_at(cut as usize % wire.len());
                open.extend_from_slice(head);
                chunks.push((gap, std::mem::replace(&mut open, tail.to_vec())));
            }
        }
    }
    chunks.push((std::time::Duration::ZERO, open));
    chunks.retain(|(_, chunk)| !chunk.is_empty());
    let injected = frames
        .chunks(2)
        .map(|pair| pair.iter().cloned().map(build_frame).collect())
        .collect();
    ControlScript { chunks, injected }
}

// ---------------- host stack: scripts ----------------

const HOST: rf_core::host::HostConfig = rf_core::host::HostConfig {
    mac: MacAddr([2, 0, 0, 0, 0, 0x42]),
    addr: Ipv4Cidr {
        addr: Ipv4Addr::new(10, 9, 0, 2),
        prefix_len: 24,
    },
    gateway: Ipv4Addr::new(10, 9, 0, 1),
};

/// Who a script talks to and hears from: the gateway, two on-link
/// peers, two hosts behind the gateway — and the host's own address.
const HOST_PEERS: [Ipv4Addr; 6] = [
    HOST.gateway,
    Ipv4Addr::new(10, 9, 0, 3),
    Ipv4Addr::new(10, 9, 0, 4),
    Ipv4Addr::new(10, 8, 0, 5),
    Ipv4Addr::new(10, 8, 0, 6),
    HOST.addr.addr,
];

/// One call on a host stack.
enum HostCall {
    Boot,
    SendUdp(Ipv4Addr, (u16, u16), Bytes),
    SendPing(Ipv4Addr, u16, u16),
    Resolve(Ipv4Addr),
    Frame(Bytes),
}

/// The raw draws one call is built from: (kind, peer, tweak, payload).
type HostDraw = (u8, u8, u16, Vec<u8>);

/// `send_udp` / `send_ping` / `resolve` toward a peer, or a frame from
/// one: ARP requests and replies for us and for others, UDP, echo
/// requests and replies, a foreign destination MAC or IP — a quarter of
/// the frames cut short, a quarter with one bit flipped.
fn host_call((kind, peer, tweak, payload): HostDraw) -> HostCall {
    use rf_wire::{EtherType, IcmpPacket, IpProtocol};
    let ip = HOST_PEERS[peer as usize % HOST_PEERS.len()];
    let other = HOST_PEERS[(peer as usize + 1) % HOST_PEERS.len()];
    // Two MACs per peer, so that a later ARP can overwrite an earlier.
    let mac = MacAddr([2, 0, 0, 1, tweak as u8 & 1, ip.octets()[3]]);
    let payload = Bytes::from(payload);
    let arp = |dst, arp: ArpPacket| EthernetFrame::new(dst, mac, EtherType::ARP, arp.emit());
    let ipv4 = |dst_mac, dst_ip, protocol, body| {
        let packet = Ipv4Packet::new(ip, dst_ip, protocol, body).emit();
        EthernetFrame::new(dst_mac, mac, EtherType::IPV4, packet)
    };
    let udp = |dst_mac, dst_ip| {
        let datagram = UdpPacket::new(tweak, !tweak, payload.clone()).emit(ip, dst_ip);
        ipv4(dst_mac, dst_ip, IpProtocol::UDP, datagram)
    };
    let us = HOST.addr.addr;
    let frame = match kind % 14 {
        0 | 1 => return HostCall::SendUdp(ip, (tweak, !tweak), payload),
        2 => return HostCall::SendPing(ip, tweak, tweak >> 3),
        3 => return HostCall::Resolve(ip),
        4 => arp(MacAddr::BROADCAST, ArpPacket::request(mac, ip, us)),
        5 => arp(MacAddr::BROADCAST, ArpPacket::request(mac, ip, other)),
        6 | 7 => {
            let asked = ArpPacket::request(HOST.mac, us, ip);
            arp(HOST.mac, ArpPacket::reply_to(&asked, mac))
        }
        8 => {
            let asked = ArpPacket::request(MacAddr([2; 6]), other, ip);
            arp(MacAddr([2; 6]), ArpPacket::reply_to(&asked, mac))
        }
        9 => udp(HOST.mac, us),
        10 => {
            let ping = IcmpPacket::echo_request(tweak, tweak >> 3, payload.clone());
            ipv4(HOST.mac, us, IpProtocol::ICMP, ping.emit())
        }
        11 => {
            let ping = IcmpPacket::echo_request(tweak, tweak >> 3, payload.clone());
            let pong = IcmpPacket::reply_to(&ping);
            ipv4(HOST.mac, us, IpProtocol::ICMP, pong.emit())
        }
        12 => udp(MacAddr([8; 6]), us),
        _ => udp(HOST.mac, other),
    };
    let mut frame = frame.emit().to_vec();
    let (at, len) = ((tweak >> 2) as usize, frame.len());
    match tweak % 4 {
        2 => frame.truncate(at % len),
        3 => frame[at / 8 % len] ^= 1 << (at % 8),
        _ => {}
    }
    HostCall::Frame(Bytes::from(frame))
}

/// What one call did: the frames it transmitted, in order, what it
/// delivered, and which peers' next hops are resolved after it.
type HostOutcome = (Vec<Bytes>, Vec<rf_core::host::Received>, Vec<bool>);

fn play_host_model(calls: &[HostCall]) -> Vec<HostOutcome> {
    use host_stack_model::StackOutput;
    let mut host = host_stack_model::HostStack::new(HOST);
    let play = |call: &HostCall| {
        let outs = match call {
            HostCall::Boot => host.boot(),
            HostCall::SendUdp(dst, ports, payload) => {
                host.send_udp(*dst, ports.0, ports.1, payload.clone())
            }
            HostCall::SendPing(dst, ident, seq) => host.send_ping(*dst, *ident, *seq),
            HostCall::Resolve(dst) => host.resolve(*dst),
            HostCall::Frame(frame) => host.on_frame(frame),
        };
        let (mut sent, mut got) = (Vec::new(), Vec::new());
        for out in outs {
            match out {
                StackOutput::Tx(frame) => sent.push(frame),
                StackOutput::Udp {
                    src,
                    src_port,
                    dst_port,
                    payload,
                } => got.push(rf_core::host::Received::Udp {
                    src,
                    src_port,
                    dst_port,
                    payload,
                }),
                StackOutput::EchoReply { from, ident, seq } => {
                    got.push(rf_core::host::Received::EchoReply { from, ident, seq })
                }
            }
        }
        // What lets the stack return one item instead of a list.
        assert!(got.len() <= 1 && (got.is_empty() || sent.is_empty()));
        let resolved = HOST_PEERS.iter().map(|p| host.is_resolved(*p)).collect();
        (sent, got, resolved)
    };
    calls.iter().map(play).collect()
}

fn play_host_stack(calls: &[HostCall]) -> Vec<HostOutcome> {
    let mut host = rf_core::host::HostStack::new(HOST);
    let play = |call: &HostCall| {
        let mut sent = Vec::new();
        let tx = |frame| sent.push(frame);
        let mut got = None;
        match call {
            HostCall::Boot => host.boot(tx),
            HostCall::SendUdp(dst, ports, payload) => {
                // In two parts, as the traffic senders hand it over.
                let (head, tail) = payload.split_at(payload.len() / 3);
                host.send_udp(*dst, ports.0, ports.1, &[head, tail], tx)
            }
            HostCall::SendPing(dst, ident, seq) => host.send_ping(*dst, *ident, *seq, tx),
            HostCall::Resolve(dst) => host.resolve(*dst, tx),
            HostCall::Frame(frame) => got = host.on_frame(frame, tx),
        }
        let resolved = HOST_PEERS.iter().map(|p| host.is_resolved(*p)).collect();
        (sent, got.into_iter().collect(), resolved)
    };
    calls.iter().map(play).collect()
}

/// The case no workload produces: datagrams parked behind one
/// unresolved next hop leave in send order when it answers, and a
/// datagram waiting on another next hop stays.
#[test]
fn parked_datagrams_flush_in_send_order_after_the_reply() {
    let [_gateway, peer, _, far_a, far_b, _] = HOST_PEERS;
    let send = |dst, tag: &'static [u8]| HostCall::SendUdp(dst, (9, 9), Bytes::from_static(tag));
    let calls = [
        HostCall::Boot,
        send(far_a, b"1"),
        send(peer, b"2"),
        send(far_b, b"3"),
        send(far_a, b"4"),
        host_call((6, 0, 0, vec![])), // the gateway's ARP reply
        host_call((6, 1, 0, vec![])), // the peer's
    ];
    let outcomes = play_host_stack(&calls);
    assert_eq!(outcomes, play_host_model(&calls));
    let flushed = |step: usize| -> Vec<(u8, Bytes)> {
        let frames = outcomes[step].0.iter();
        frames
            .map(|frame| {
                let eth = EthernetFrame::parse_bytes(frame).unwrap();
                let ip = Ipv4Packet::parse_bytes(&eth.payload).unwrap();
                let udp = UdpPacket::parse_bytes(&ip.payload, ip.src, ip.dst).unwrap();
                (eth.dst.0[5], udp.payload)
            })
            .collect()
    };
    let via = |last_octet, tag: &'static [u8]| (last_octet, Bytes::from_static(tag));
    assert_eq!(flushed(5), [via(1, b"1"), via(1, b"3"), via(1, b"4")]);
    assert_eq!(flushed(6), [via(3, b"2")]);
}

/// The parts writer puts a payload into its frame exactly as the owned
/// twins write it whole: at the payload lengths around the 60-byte
/// padding edge (17 bytes pad up to it, 18 fill it), at a traffic
/// header alone (32) and at a chunk with and without one in front
/// (1 024, 1 056) — cut into two parts at every point, and up to 32
/// bytes into three at every pair of points.
#[test]
fn the_parts_writer_matches_the_owned_twins_at_every_split() {
    use rf_wire::ipv4::DEFAULT_TTL;
    use rf_wire::{EtherType, IpProtocol};
    let (src, dst) = (Ipv4Addr::new(10, 0, 1, 2), Ipv4Addr::new(10, 0, 2, 2));
    let (dst_mac, src_mac) = (MacAddr([2, 0, 0, 0, 1, 0]), MacAddr([2, 0, 0, 0, 0, 0xA]));
    let write = |parts: &[&[u8]]| {
        let body = Ipv4Body::Udp {
            src_port: 7701,
            dst_port: 7700,
            payload: parts,
        };
        ipv4_frame(dst_mac, src_mac, src, dst, DEFAULT_TTL, body).freeze()
    };
    for len in [0usize, 1, 17, 18, 31, 32, 1024, 1056] {
        let payload: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
        let udp = UdpPacket::new(7701, 7700, Bytes::copy_from_slice(&payload)).emit(src, dst);
        let ip = Ipv4Packet::new(src, dst, IpProtocol::UDP, udp).emit();
        let owned = EthernetFrame::new(dst_mac, src_mac, EtherType::IPV4, ip).emit();
        assert_eq!(owned.len(), (42 + len).max(60), "{len} bytes");
        assert_eq!(write(&[&payload]), owned, "{len} bytes in one part");
        for i in 0..=len {
            let (head, rest) = payload.split_at(i);
            assert_eq!(write(&[head, rest]), owned, "{len} bytes cut at {i}");
            if len <= 32 {
                for j in 0..=rest.len() {
                    let (mid, tail) = rest.split_at(j);
                    let cut = (i, i + j);
                    assert_eq!(
                        write(&[head, mid, tail]),
                        owned,
                        "{len} bytes cut at {cut:?}"
                    );
                }
            }
        }
    }
    assert_eq!(write(&[]), write(&[&[]]), "no parts is an empty payload");
}

#[path = "models/lldp_tlv.rs"]
mod lldp_model;

/// One TLV to put into an LLDPDU beside a probe's: `kind` picks the
/// type, `value` the bytes. Raw TLVs of the types the reader checks
/// carry what only the wire can — an empty chassis or port id, a short
/// TTL or organizationally specific value, a system name that is not
/// UTF-8 — and a chassis or port id of the probe's subtype may name
/// another port.
fn arb_lldp_tlv(kind: u8, value: &[u8]) -> lldp_model::LldpTlv {
    use lldp_model::LldpTlv;
    use rf_wire::lldp::SUBTYPE_LOCAL;
    let local = |probe_len| value.iter().copied().cycle().take(probe_len).collect();
    let raw = Bytes::copy_from_slice(value);
    match kind % 8 {
        0 => LldpTlv::ChassisId {
            subtype: SUBTYPE_LOCAL,
            id: local(8),
        },
        1 => LldpTlv::PortId {
            subtype: SUBTYPE_LOCAL,
            id: local(2),
        },
        2 => LldpTlv::ChassisId {
            subtype: kind,
            id: raw,
        },
        3 => LldpTlv::SystemName(String::from_utf8_lossy(value).into_owned()),
        4 => LldpTlv::OrgSpecific {
            oui: [0x00, 0x26, 0xE1],
            subtype: kind,
            info: raw,
        },
        5 | 6 => LldpTlv::Unknown {
            ty: [1, 2, 3, 5, 127][usize::from(kind / 8) % 5],
            value: raw,
        },
        _ => LldpTlv::Unknown {
            ty: 4 + kind / 8,
            value: raw,
        },
    }
}

/// Read an OSPF packet the way the daemon can: check it, then walk
/// every record list and decode every LSA in an update.
fn read_all_of_ospf(data: &[u8]) {
    use rf_routed::ospf::packet::{OspfBodyView, OspfView};
    let Ok(view) = OspfView::parse(data) else {
        return;
    };
    match view.body {
        OspfBodyView::Hello { neighbors, .. } => neighbors.for_each(drop),
        OspfBodyView::DatabaseDescription { headers, .. }
        | OspfBodyView::LinkStateAck { headers } => headers.for_each(drop),
        OspfBodyView::LinkStateRequest { keys } => keys.for_each(drop),
        OspfBodyView::LinkStateUpdate { lsas } => lsas.for_each(|l| drop(l.to_lsa())),
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
        // The four owning parsers and their in-place readers, which
        // must also agree on what they accept and why they refuse.
        assert_layer_parsers_agree(&Bytes::from(data.clone()));
        let _ = ArpPacket::parse(&data);
        let _ = LldpPacket::parse_discovery(&data);
        read_all_of_ospf(&data);
        // Random bytes seldom carry a valid OSPF checksum: the same soup
        // once more as an OSPF packet of some type, sealed, so the
        // checks past the common header run too.
        if data.len() >= 24 {
            let mut sealed = data.clone();
            sealed[0] = 2;
            sealed[1] = 1 + sealed[1] % 5;
            sealed[2..4].copy_from_slice(&(data.len() as u16).to_be_bytes());
            sealed[12..14].fill(0);
            let ck = internet_checksum(&sealed);
            sealed[12..14].copy_from_slice(&ck.to_be_bytes());
            read_all_of_ospf(&sealed);
        }
    }

    #[test]
    fn rpc_decoder_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = rf_rpc::decode_envelope(&data);
        let _ = rf_core::vnet::rfproto::RfMessage::decode(&data);
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
        use rf_core::vnet::rfproto::{RfFrameReader, RfMessage};

        let of: Vec<(OfMessage, u32)> = vec![
            (OfMessage::Hello, 1),
            (
                OfMessage::FeaturesReply(rf_openflow::SwitchFeatures {
                    datapath_id: 9,
                    num_ports: 3,
                }),
                2,
            ),
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
            (OfMessage::FeaturesRequest, 4),
        ];
        let stream: Vec<u8> = of.iter().flat_map(|(m, xid)| m.encode(*xid).to_vec()).collect();
        let got = rechunked(
            &stream,
            &cuts,
            MessageReader::new(),
            MessageReader::push_bytes,
            MessageReader::next,
        );
        prop_assert_eq!(got, of.into_iter().map(Ok).collect::<Vec<_>>());

        let request = |req_id, request| Envelope::Request { req_id, request };
        let rpc = vec![
            request(1, RpcRequest::SwitchDetected { dpid: 9, num_ports: 4 }),
            Envelope::Ack(RpcAck { req_id: 1, ok: true }),
            request(2, RpcRequest::SwitchRemoved { dpid: 9 }),
            Envelope::Ack(RpcAck { req_id: 2, ok: false }),
        ];
        let stream: Vec<u8> = rpc.iter().flat_map(|e| encode_envelope(e).to_vec()).collect();
        let got = rechunked(
            &stream,
            &cuts,
            RpcFrameReader::new(),
            RpcFrameReader::push_bytes,
            RpcFrameReader::next,
        );
        prop_assert_eq!(got, rpc.into_iter().map(Ok).collect::<Vec<_>>());

        let rf = vec![
            RfMessage::Booted { dpid: 0x1C },
            RfMessage::WriteConfigs {
                zebra: "hostname vm-1c\n".into(),
                ospf: "router ospf\n network 172.31.0.0/30 area 0\n".into(),
            },
            RfMessage::RouteDel { prefix: "172.31.0.4/30".parse().unwrap() },
        ];
        let stream: Vec<u8> = rf.iter().flat_map(|m| m.encode().to_vec()).collect();
        let got = rechunked(
            &stream,
            &cuts,
            RfFrameReader::new(),
            RfFrameReader::push_bytes,
            RfFrameReader::next,
        );
        prop_assert_eq!(got, rf.into_iter().map(Ok).collect::<Vec<_>>());
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
        let parsed = EthernetFrame::parse_bytes(&f.emit()).unwrap();
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
        let parsed = Ipv4Packet::parse_bytes(&wire).unwrap();
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
        let parsed = UdpPacket::parse_bytes(&u.emit(src, dst), src, dst).unwrap();
        prop_assert_eq!(parsed, u);
    }

    // ---------------- replaced code as the model ----------------

    /// The word-at-a-time checksum is the 16-bit loop it replaced, on
    /// whole buffers and summed in parts split at any even offset.
    #[test]
    fn internet_checksum_matches_sixteen_bit_model(
        data in proptest::collection::vec(any::<u8>(), 0..2049),
        cuts in any::<(usize, usize)>(),
    ) {
        let expected = checksum_model::internet_checksum(&data);
        prop_assert_eq!(internet_checksum(&data), expected);
        let mut at = [cuts.0, cuts.1].map(|cut| (cut % (data.len() + 1)) & !1);
        at.sort_unstable();
        let (head, tail) = data.split_at(at[1]);
        let (head, mid) = head.split_at(at[0]);
        prop_assert_eq!(internet_checksum_parts(&[head, mid, tail]), expected);
    }

    /// The frame a host or a VM builds in one buffer is, byte for byte,
    /// the nested per-layer `emit`s it replaced on the send path — UDP
    /// and raw bodies at any TTL, padded sub-60-byte frames, and the
    /// datagram whose checksum computes to 0 and goes out as 0xFFFF. And
    /// a datagram parked until ARP resolves leaves as the bytes of one
    /// sent after.
    #[test]
    fn one_buffer_frame_matches_nested_emits(
        macs in any::<([u8; 6], [u8; 6])>(),
        src in arb_ip(),
        dst in arb_ip(),
        ports in any::<(u16, u16)>(),
        ttl in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1501),
    ) {
        use rf_wire::{EtherType, IcmpPacket, IpProtocol};
        let (dst_mac, src_mac) = (MacAddr(macs.0), MacAddr(macs.1));
        let nested_at = |ttl, protocol, body: Bytes| {
            let mut ip = Ipv4Packet::new(src, dst, protocol, body);
            ip.ttl = ttl;
            EthernetFrame::new(dst_mac, src_mac, EtherType::IPV4, ip.emit()).emit()
        };
        let nested = |protocol, body| nested_at(ttl, protocol, body);
        let nested_udp_at = |ttl, payload: &[u8]| {
            let udp = UdpPacket::new(ports.0, ports.1, Bytes::copy_from_slice(payload));
            nested_at(ttl, IpProtocol::UDP, udp.emit(src, dst))
        };
        let nested_udp = |payload: &[u8]| nested_udp_at(ttl, payload);
        let one_buffer_udp = |payload: &[u8]| {
            let body = Ipv4Body::Udp { src_port: ports.0, dst_port: ports.1, payload: &[payload] };
            ipv4_frame(dst_mac, src_mac, src, dst, ttl, body).freeze()
        };
        // As drawn, and cut short enough to need padding.
        let short = &payload[..payload.len() % 24];
        prop_assert_eq!(one_buffer_udp(&payload), nested_udp(&payload));
        prop_assert_eq!(one_buffer_udp(short), nested_udp(short));
        if short.len() < 18 {
            prop_assert_eq!(one_buffer_udp(short).len(), 60);
        }
        // A payload word that completes the sum to 0xFFFF: the checksum
        // computes to 0, which the wire reserves for "none".
        let mut zero = payload.clone();
        zero.resize(zero.len().max(2), 0);
        zero[..2].fill(0);
        let ck = nested_udp(&zero).slice(40..42);
        zero[..2].copy_from_slice(&ck);
        let frame = one_buffer_udp(&zero);
        prop_assert_eq!(&frame[40..42], &[0xFF, 0xFF][..]);
        prop_assert_eq!(frame, nested_udp(&zero));
        // A body the builder does not look into.
        let icmp = IcmpPacket::echo_request(ports.0, ports.1, Bytes::copy_from_slice(short)).emit();
        let one_buffer_raw = |protocol, packet: &[u8]| {
            ipv4_frame(dst_mac, src_mac, src, dst, ttl, Ipv4Body::Raw(protocol, packet)).freeze()
        };
        prop_assert_eq!(one_buffer_raw(IpProtocol::ICMP, &icmp), nested(IpProtocol::ICMP, icmp));
        // What a VM sends, OSPF straight over IP: a body short enough for
        // the frame to need padding, and one as long as a full update.
        for ospf in [short, &payload[..]] {
            prop_assert_eq!(
                one_buffer_raw(IpProtocol::OSPF, ospf),
                nested(IpProtocol::OSPF, Bytes::copy_from_slice(ospf))
            );
        }

        // Through the host stack, which sends at TTL 64: before the next
        // hop resolves (parked, destination MAC patched in on the ARP
        // reply) and after.
        let cfg = rf_core::host::HostConfig {
            mac: src_mac,
            addr: Ipv4Cidr::new(src, 24),
            gateway: Ipv4Addr::from(u32::from(src) ^ 1),
        };
        let next_hop = if cfg.addr.contains(dst) { dst } else { cfg.gateway };
        let mut host = rf_core::host::HostStack::new(cfg);
        let send = |host: &mut rf_core::host::HostStack| {
            let mut sent = Vec::new();
            host.send_udp(dst, ports.0, ports.1, &[&payload], |f| sent.push(f));
            sent
        };
        let asked = send(&mut host);
        prop_assert_eq!(asked.len(), 1);
        let request = ArpPacket::parse(&EthernetFrame::parse_bytes(&asked[0]).unwrap().payload).unwrap();
        prop_assert_eq!(request.target_ip, next_hop);
        let reply = ArpPacket::reply_to(&request, dst_mac).emit();
        let mut parked = Vec::new();
        host.on_frame(
            &EthernetFrame::new(src_mac, dst_mac, EtherType::ARP, reply).emit(),
            |f| parked.push(f),
        );
        prop_assert_eq!(&parked, &vec![nested_udp_at(64, &payload)]);
        prop_assert_eq!(send(&mut host), parked);
    }

    /// The probe is written byte for byte as the TLV model writes it,
    /// and both readers find its `(dpid, port)` in it.
    #[test]
    fn lldp_discovery_roundtrip(dpid in any::<u64>(), port in any::<u16>()) {
        let wire = LldpPacket::discovery_probe(dpid, port).emit();
        prop_assert_eq!(&wire, &lldp_model::LldpPdu::discovery_probe(dpid, port).emit());
        let parsed = lldp_model::LldpPdu::parse(&wire).unwrap();
        prop_assert_eq!(parsed.decode_discovery(), Some((dpid, port)));
        prop_assert_eq!(LldpPacket::parse_discovery(&wire), Some((dpid, port)));
    }

    /// The in-place probe reader answers what the TLV model's `parse`
    /// plus `decode_discovery` answer: on a probe with TLVs of every
    /// kind put in among its own, cut short anywhere, with a byte
    /// changed, and on byte soup.
    #[test]
    fn lldp_probe_reader_matches_the_tlv_model(
        dpid in any::<u64>(),
        port in any::<u16>(),
        extra in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), proptest::collection::vec(any::<u8>(), 0..6)),
            0..4,
        ),
        cut in any::<u16>(),
        flip in any::<(u16, u8)>(),
        soup in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let mut pdu = lldp_model::LldpPdu::discovery_probe(dpid, port);
        for (at, kind, value) in &extra {
            let at = usize::from(*at) % (pdu.tlvs.len() + 1);
            pdu.tlvs.insert(at, arb_lldp_tlv(*kind, value));
        }
        let wire = pdu.emit().to_vec();
        let mut flipped = wire.clone();
        flipped[usize::from(flip.0) % wire.len()] ^= flip.1;
        let cut = usize::from(cut) % (wire.len() + 1);
        for data in [&wire[..], &wire[..cut], &flipped[..], &soup[..]] {
            let model = lldp_model::LldpPdu::parse(data).ok().and_then(|p| p.decode_discovery());
            prop_assert_eq!(LldpPacket::parse_discovery(data), model);
        }
    }

    /// A match a switch takes survives a FLOW_MOD's encode and decode;
    /// any other `ofp_match` decodes to `UnsupportedMatch`, never to a
    /// match that would cover other packets.
    #[test]
    fn of_match_roundtrip(
        built in (any::<u16>(), any::<bool>(), arb_ip(), 0u8..=32),
        drawn in (0u32..(1 << 22), any::<bool>()),
        raw in any::<[u8; 36]>(),
    ) {
        use rf_openflow::{FlowModCommand, OfError, OFPP_NONE, OFP_NO_BUFFER};
        let ((dl_type, is_route, net, len), (wildcards, shaped)) = (built, drawn);
        let m = match is_route {
            true => OfMatch::ipv4_dst_prefix(net, len),
            false => OfMatch::ethertype(dl_type),
        };
        let fm = OfMessage::FlowMod {
            of_match: m,
            cookie: 1,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 2,
            buffer_id: OFP_NO_BUFFER,
            out_port: OFPP_NONE,
            flags: 0,
            actions: Vec::new(),
        };
        let wire = fm.encode(3);
        prop_assert_eq!(OfMessage::decode(&wire), Ok((fm, 3)));
        // The same FLOW_MOD over an arbitrary `ofp_match`.
        // Half of them shaped like a supported one but for what the
        // draw leaves in the nw_dst count and the EtherType.
        let wildcards = match shaped {
            true => wildcards & !0x10 | 0x30_00EF | 0x20 << 8,
            false => wildcards,
        };
        let mut other = wire.to_vec();
        other[8..12].copy_from_slice(&wildcards.to_be_bytes());
        other[12..48].copy_from_slice(&raw);
        let dl_type = u16::from_be_bytes([raw[18], raw[19]]);
        let nw_dst_bits = (wildcards >> 14) & 0x3F;
        let supported = wildcards & 0x30_00FF == 0x30_00EF
            && (wildcards >> 8) & 0x3F >= 32
            && (nw_dst_bits >= 32 || dl_type == 0x0800);
        match OfMessage::decode(&other) {
            Ok((OfMessage::FlowMod { of_match, .. }, _)) => {
                prop_assert!(supported);
                prop_assert_eq!(of_match.dl_type(), dl_type);
                let want = (nw_dst_bits <= 32).then(|| {
                    let at = &raw[28..32];
                    (Ipv4Addr::new(at[0], at[1], at[2], at[3]), (32 - nw_dst_bits) as u8)
                });
                prop_assert_eq!(of_match.nw_dst(), want.filter(|_| dl_type == 0x0800));
            }
            decoded => {
                prop_assert!(!supported);
                prop_assert_eq!(decoded, Err(OfError::UnsupportedMatch));
            }
        }
    }

    #[test]
    fn of_actions_roundtrip(port in 1u16..1000, mac in arb_mac()) {
        let actions = vec![
            Action::SetDlSrc(mac),
            Action::SetDlDst(mac),
            Action::output(port),
        ];
        let mut buf = bytes::BytesMut::new();
        Action::emit_list(&actions, &mut buf);
        prop_assert_eq!(Action::parse_list(&buf).unwrap(), actions);
    }

    // ---------------- switch datapath ----------------

    /// Whatever arrives on a port and whatever the action list says,
    /// the one-loop interpreter emits what the parse-everything editor
    /// it replaced emitted: same egresses, same order, same bytes —
    /// whether it was lent the frame, given a handle someone else also
    /// holds, or given the only one (where MAC rewrites go straight
    /// into the frame's storage). And no handle the caller kept ever
    /// sees a byte change.
    #[test]
    fn apply_actions_matches_reference_model(
        cases in proptest::collection::vec(
            (
                arb_frame_draw(),
                proptest::collection::vec(any::<(u8, u16, u32, [u8; 6])>(), 0..8),
                0u16..6,
                any::<u16>(),
            ),
            24..25,
        ),
    ) {
        for (draw, action_draws, num_ports, in_port) in cases {
            let frame = build_frame(draw);
            let drawn: Vec<Action> = action_draws
                .into_iter()
                .map(|(kind, port, value, mac)| build_action((kind % 12, port, value, mac), num_ports))
                .collect();
            // The drawn list, and one that outputs before, between and
            // after MAC rewrites: every copy an earlier output handed
            // out must stay as it was when a later rewrite lands.
            let copying = [
                Action::output(1),
                Action::output(rf_openflow::OFPP_CONTROLLER),
                Action::SetDlSrc(MacAddr([0xAA; 6])),
                Action::output(2),
                Action::SetDlDst(MacAddr([0xBB; 6])),
                Action::output(1),
            ];
            // A real ingress port, the one past the last, or PACKET_OUT's
            // "none".
            let in_port = match in_port % (num_ports + 3) {
                0 => rf_openflow::OFPP_NONE,
                p => p,
            };
            for actions in [&drawn[..], &copying[..]] {
                let expected = datapath_model::apply_actions(&frame, actions, num_ports);
                let context = format!(
                    "frame {:?} ({} bytes), actions {:?}, in_port {}, {} ports",
                    frame, frame.len(), actions, in_port, num_ports
                );
                let held = frame.clone();
                let before = held.to_vec();
                // The switch's entry: the actions as an iterator, the
                // result appended to a list the caller keeps.
                let owned = |frame: Bytes| {
                    let mut out = Vec::new();
                    let actions = actions.iter().copied();
                    rf_switch::apply_actions_owned(frame, actions, num_ports, &mut out);
                    out
                };
                // Lent.
                prop_assert_eq!(
                    &rf_switch::apply_actions(&frame, actions, in_port, num_ports),
                    &expected, "lent: {}", context
                );
                // Given up, but `held` shares the storage.
                prop_assert_eq!(
                    &owned(frame.clone()),
                    &expected, "shared: {}", context
                );
                prop_assert_eq!(&held[..], &before[..], "a held clone changed: {}", context);
                // Given up as the only handle: a fresh buffer, and a view
                // that starts inside one.
                let view = {
                    let mut padded = vec![0x5A; 3];
                    padded.extend_from_slice(&frame);
                    let whole = Bytes::from(padded);
                    whole.slice(3..)
                };
                for unique in [Bytes::copy_from_slice(&frame), view] {
                    prop_assert_eq!(
                        &owned(unique),
                        &expected, "unique: {}", context
                    );
                }
            }
        }
    }

    // ---------------- classification ----------------

    /// A switch reads a frame's Ethernet and IPv4 headers where they
    /// lie. That is, field for field, the key the parent's
    /// slice-per-layer extractor built from those headers — for every
    /// kind of frame a port can see, every prefix of it, every
    /// single-bit flip of its headers, and for random bytes. The owning
    /// parsers the readers were split out of accept, refuse and return
    /// what the parent's did on the same inputs.
    #[test]
    fn key_extraction_matches_parent_model(
        draws in proptest::collection::vec((arb_frame_draw(), any::<u16>()), 4..5),
        soup in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        assert_key_matches_model(1, &Bytes::from(soup));
        for (draw, in_port) in draws {
            for variant in damaged_variants(&build_frame(draw)) {
                assert_key_matches_model(in_port, &variant);
                assert_layer_parsers_agree(&variant);
            }
        }
    }

    /// What a switch hop calls, `FlowTable::classify`, answers a frame
    /// of a flow it has seen from its exact-match cache. Whatever the
    /// cache holds, it finds the entry that the parent's full key finds
    /// in a twin table's `lookup`: for frames that repeat, on several
    /// ports, one header at two lengths (padded past its IP packet, or
    /// cut inside it), and damaged
    /// copies (every prefix, every bit flip of the first 42 bytes, and
    /// flips of the IPv4 header with its checksum mended: IHL ≠ 5, MF
    /// or an offset set, another address), with FLOW_MOD add and
    /// delete between the lookups.
    #[test]
    fn cached_classification_matches_full_key_lookup(
        scripts in proptest::collection::vec(
            (
                proptest::collection::vec(arb_frame_draw(), 4..5),
                proptest::collection::vec(any::<(u8, u16, u8, u8)>(), 32..256),
            ),
            8..9,
        ),
    ) {
        use rf_openflow::{FlowModCommand, OFPP_NONE};
        use rf_sim::Time;
        use rf_switch::FlowTable;
        // What the generator has to reach: hits that found an entry and
        // hits that found none.
        let (mut matched_hits, mut missed_hits) = (0u32, 0u32);
        for (draws, steps) in scripts {
            let mut flows = Vec::new();
            let mut damaged = Vec::new();
            for frame in draws.into_iter().map(build_frame) {
                damaged.extend(damaged_variants(&frame));
                damaged.extend(mended_header_flips(&frame));
                let mut padded = frame.to_vec();
                padded.extend_from_slice(&[0xEE; 9]);
                let cut = if frame.len() >= 39 { frame.len() - 5 } else { frame.len() };
                flows.extend([frame.slice(..cut), Bytes::from(padded), frame]);
            }
            let port_of = |which: usize| 1 + (which % 3) as u16;
            let keys: Vec<PacketKey> = flows
                .iter()
                .enumerate()
                .filter_map(|(which, frame)| key_model::from_frame_bytes(port_of(which), frame))
                .collect();
            let (mut real, mut model) = (FlowTable::new(), FlowTable::new());
            for (step, (op, which, kind, len)) in (1u64..).zip(steps) {
                let now = Time::from_secs(step / 8);
                let which = which as usize;
                let around = keys.get(which % keys.len().max(1));
                match (op % 32, around) {
                    (0..=3, Some(around)) => {
                        let command = match op % 32 {
                            0..=2 => FlowModCommand::Add,
                            _ => FlowModCommand::DeleteStrict,
                        };
                        let of_match = build_table_match(kind >> 1, len, around);
                        let priority = u16::from(len % 4);
                        let out = Action::output(u16::from(op >> 4));
                        for table in [&mut real, &mut model] {
                            table.apply_flow_mod(
                                command, of_match, priority, step, 0, 0, 0, OFPP_NONE,
                                vec![out], now,
                            );
                        }
                    }
                    _ => {
                        // A quarter of the lookups take a damaged copy;
                        // any frame may come in on any of three ports.
                        let frame = if op >> 6 == 0 {
                            &damaged[which % damaged.len()]
                        } else {
                            &flows[which % flows.len()]
                        };
                        let in_port = 1 + (kind % 3) as u16;
                        let hits = real.cache_hits;
                        let got = real.classify(in_port, frame).map(|e| e.cloned());
                        let full = key_model::from_frame_bytes(in_port, frame);
                        let want = full.map(|full| model.lookup(&full, frame.len(), now).cloned());
                        prop_assert_eq!(&got, &want, "step {}, port {}: {:?}", step, in_port, frame);
                        if real.cache_hits > hits {
                            match got {
                                Some(Some(_)) => matched_hits += 1,
                                _ => missed_hits += 1,
                            }
                        }
                    }
                }
                prop_assert_eq!(real.entries(), model.entries(), "after step {}", step);
            }
        }
        prop_assert!(matched_hits > 0 && missed_hits > 0, "{} / {}", matched_hits, missed_hits);
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

    /// A narrower prefix always lies within a wider one on the same
    /// network, and within IPv4 as a whole; and what lies within a
    /// match covers no packet that match does not.
    #[test]
    fn within_reflexive_monotone_and_sound(
        net in arb_ip(),
        len in 1u8..=32,
        other in (arb_ip(), 0u8..=32),
        probe in arb_ip(),
    ) {
        let narrow = OfMatch::ipv4_dst_prefix(net, len);
        let wide = OfMatch::ipv4_dst_prefix(net, len - 1);
        prop_assert!(narrow.within(&narrow));
        prop_assert!(narrow.within(&wide));
        prop_assert!(narrow.within(&OfMatch::ethertype(0x0800)));
        prop_assert!(!narrow.within(&OfMatch::arp()));
        let other = OfMatch::ipv4_dst_prefix(other.0, other.1);
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
        if narrow.within(&other) && narrow.matches(&key) {
            prop_assert!(other.matches(&key));
        }
        if other.within(&narrow) && other.matches(&key) {
            prop_assert!(narrow.matches(&key));
        }
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
        lsa.emit_aged(age, &mut wire);
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

    // ---------------- host stack ----------------

    /// Whatever a host is asked to send and whatever reaches its
    /// interface, the stack transmits the frames its list-returning
    /// reference model returns, in that order, delivers the item the
    /// model delivers, and has resolved the next hops the model has.
    #[test]
    fn host_stack_matches_reference_model(
        draws in proptest::collection::vec(
            (
                any::<u8>(),
                any::<u8>(),
                any::<u16>(),
                proptest::collection::vec(any::<u8>(), 0..64),
            ),
            1..48,
        ),
    ) {
        let mut calls = vec![HostCall::Boot];
        calls.extend(draws.into_iter().map(host_call));
        prop_assert_eq!(play_host_stack(&calls), play_host_model(&calls));
    }

    /// A host reads a received datagram's headers where they lie and
    /// accepts and refuses what the owning `parse_bytes` chain (the
    /// reference model's `on_frame`) does: it
    /// takes a datagram for it as sent, with trailing bytes, with a zero
    /// UDP checksum ("none") or sent to broadcast or multicast, and
    /// refuses a bad UDP or IPv4 checksum, a `total_len` cut short, a
    /// fragment, a foreign destination MAC or IP. What it delivers are
    /// the chain's bytes, a slice of the frame they arrived in.
    #[test]
    fn in_place_receive_matches_the_parse_bytes_chain(
        src in arb_ip(),
        ports in any::<(u16, u16)>(),
        payload in proptest::collection::vec(any::<u8>(), 0..80),
        tweak in any::<u16>(),
    ) {
        use rf_wire::{EtherType, IpProtocol};
        let us = HOST.addr.addr;
        let udp = UdpPacket::new(ports.0, ports.1, Bytes::from(payload.clone())).emit(src, us);
        let ip = Ipv4Packet::new(src, us, IpProtocol::UDP, udp).emit();
        let sent = EthernetFrame::new(HOST.mac, MacAddr([2; 6]), EtherType::IPV4, ip).emit();
        let reseal_ip = |frame: &mut Vec<u8>| {
            frame[24..26].fill(0);
            let ck = internet_checksum(&frame[14..34]);
            frame[24..26].copy_from_slice(&ck.to_be_bytes());
        };
        let bit = 1u8 << (tweak % 8);
        for mutation in 0..9 {
            let mut frame = sent.to_vec();
            // Which of the mutations below leave a datagram for the host.
            let accepted = match mutation {
                // As sent.
                0 => true,
                // A bit of the UDP checksum flipped: refused, unless that
                // made it the zero that means "none".
                1 => {
                    frame[40 + (tweak >> 3) as usize % 2] ^= bit;
                    frame[40..42] == [0, 0]
                }
                // A bit of the IPv4 checksum flipped.
                2 => {
                    frame[24 + (tweak >> 3) as usize % 2] ^= bit;
                    false
                }
                // `total_len` short of the packet, resealed.
                3 => {
                    let short = tweak as usize % (28 + payload.len());
                    frame[16..18].copy_from_slice(&(short as u16).to_be_bytes());
                    reseal_ip(&mut frame);
                    false
                }
                // More fragments, or a fragment offset, resealed.
                4 => {
                    let offset = 1 + (tweak >> 1) % 0x1FFF;
                    let flags_frag = if tweak % 2 == 0 { 0x2000 } else { offset };
                    frame[20..22].copy_from_slice(&flags_frag.to_be_bytes());
                    reseal_ip(&mut frame);
                    false
                }
                // Another destination MAC: someone else's, broadcast or a
                // multicast group.
                5 => {
                    let (mac, taken) = match tweak % 3 {
                        0 => (MacAddr([2, 0, 0, 0, 0, 0x43]), false),
                        1 => (MacAddr::BROADCAST, true),
                        _ => (MacAddr([0x01, 0x00, 0x5E, 0, 0, 5]), true),
                    };
                    frame[0..6].copy_from_slice(mac.as_bytes());
                    taken
                }
                // Another destination IP, resealed, and no UDP checksum
                // to bind the old one: only the address check refuses it.
                6 => {
                    let other = Ipv4Addr::from(u32::from(us) ^ u32::from(tweak | 1));
                    frame[30..34].copy_from_slice(&other.octets());
                    reseal_ip(&mut frame);
                    frame[40..42].fill(0);
                    false
                }
                // No UDP checksum.
                7 => {
                    frame[40..42].fill(0);
                    true
                }
                // Trailing bytes past `total_len`.
                _ => {
                    frame.extend(std::iter::repeat_n(0xA5, 1 + tweak as usize % 16));
                    true
                }
            };
            let frame = Bytes::from(frame);
            let call = [HostCall::Frame(frame.clone())];
            let outcome = play_host_stack(&call);
            prop_assert_eq!(&outcome, &play_host_model(&call));
            let (sent, got, _) = &outcome[0];
            prop_assert!(sent.is_empty());
            prop_assert_eq!(got.len(), usize::from(accepted));
            if let Some(rf_core::host::Received::Udp { payload: delivered, .. }) = got.first() {
                prop_assert_eq!(&delivered[..], &payload[..]);
                let within = frame.as_ptr_range();
                let at = delivered.as_ptr();
                let end = at as usize + delivered.len();
                prop_assert!(within.start <= at && end <= within.end as usize);
            }
        }
    }

    /// FlowVisor and the switch read a PACKET_OUT where it lies, patch
    /// a forwarded message's xid into the buffer it arrived in and look
    /// connections, xids and punt templates up by index. The parent's
    /// agents — every message decoded in full, every forwarded message
    /// copied — put the same bytes on every connection and port at the
    /// same instants and count the same events, whatever the stream
    /// and however it is cut; and when the sender keeps a handle on
    /// its chunks, no byte of them changes.
    #[test]
    fn control_path_matches_reference_models(
        draws in proptest::collection::vec(
            (
                (any::<u8>(), any::<u16>(), any::<u32>(), any::<(u8, u16)>()),
                proptest::collection::vec(any::<(u8, u16, u32, [u8; 6])>(), 0..13),
                arb_frame_draw(),
                any::<u8>(),
            ),
            1..32,
        ),
        frames in proptest::collection::vec(arb_frame_draw(), 8..9),
    ) {
        let script = control_script(&draws, &frames);
        for layout in [ControlLayout::ProxyOnly, ControlLayout::SwitchOnly, ControlLayout::Chain] {
            let (model, _) = play_control(&script, layout, true, false);
            for hold in [false, true] {
                let (real, held) = play_control(&script, layout, false, hold);
                prop_assert_eq!(&real, &model, "{:?}, chunks held: {}", layout, hold);
                let sent: Vec<&[u8]> = script.chunks.iter().map(|(_, c)| &c[..]).collect();
                let held: Vec<&[u8]> = held.iter().map(|c| &c[..]).collect();
                prop_assert_eq!(held, if hold { sent } else { Vec::new() }, "{:?}", layout);
            }
        }
    }

    /// The RIB always installs the lowest (distance, metric) candidate,
    /// no matter the operation order.
    #[test]
    fn rib_best_route_invariant(ops in proptest::collection::vec(
        (0u8..3, 0u8..2, 1u32..100), 1..40,
    )) {
        let protos = [RouteProto::Connected, RouteProto::Ospf];
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

#[path = "models/parent_spf.rs"]
mod spf_model;

/// A seeded xorshift stream for the hand-rolled generators below.
struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn percent(&mut self, p: u64) -> bool {
        self.below(100) < p
    }
}

/// The stub prefixes routers pick from, as (link id, mask): a default
/// route, host routes, and subnets some of whose link ids carry host
/// bits. Shared, so one prefix is often advertised by several routers
/// at several metrics.
const STUB_POOL: [(u32, u32); 8] = [
    (0, 0),
    (0x0A00_0001, 0xFFFF_FFFF),
    (0x0A00_0002, 0xFFFF_FFFF),
    (0xAC1F_0000, 0xFFFF_FFFC),
    (0xAC1F_0001, 0xFFFF_FFFC),
    (0xAC1F_0004, 0xFFFF_FFFC),
    (0xC0A8_0100, 0xFFFF_FF00),
    (0xC0A8_0000, 0xFFFF_0000),
];

type SpfCase = (
    std::collections::BTreeMap<u32, rf_routed::ospf::Lsa>,
    u32,
    std::collections::HashMap<u32, (u16, Ipv4Addr)>,
);

/// One random LSDB: 1–12 routers with scattered ids; links listed by
/// both ends, by one end only, or twice at two metrics; metrics from a
/// small set so that equal-cost paths are common; stubs from
/// [`STUB_POOL`] plus one /32 of each router's own; the computing router
/// usually, not always, in the LSDB; a neighbor now and then missing
/// from the adjacency map.
fn random_lsdb(rng: &mut Xorshift) -> SpfCase {
    use rf_routed::ospf::lsa::{Lsa, RouterLink, RouterLinkType, INITIAL_SEQ};
    let n = 1 + rng.below(12) as usize;
    let mut ids: Vec<u32> = Vec::new();
    while ids.len() < n {
        let id = 1 + rng.below(24) as u32;
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    let self_id = if rng.percent(10) {
        100 // absent from the LSDB
    } else {
        ids[rng.below(n as u64) as usize]
    };
    let metric = |rng: &mut Xorshift| [1u16, 1, 2, 10, 10, 65535][rng.below(6) as usize];
    let mut links: Vec<Vec<RouterLink>> = vec![Vec::new(); n];
    let p2p = |to: u32, cost: u16| RouterLink {
        link_type: RouterLinkType::PointToPoint,
        link_id: to,
        link_data: 0xAC1F_0000 | to,
        metric: cost,
    };
    for _ in 0..rng.below(3 * n as u64 + 1) {
        let (a, b) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
        if a == b {
            continue;
        }
        let cost = metric(rng);
        links[a].push(p2p(ids[b], cost));
        if rng.percent(85) {
            let back = if rng.percent(70) { cost } else { metric(rng) };
            links[b].push(p2p(ids[a], back));
        }
        if rng.percent(10) {
            links[a].push(p2p(ids[b], metric(rng))); // a parallel link
        }
    }
    for (i, l) in links.iter_mut().enumerate() {
        for _ in 0..rng.below(3) {
            let (net, mask) = STUB_POOL[rng.below(STUB_POOL.len() as u64) as usize];
            l.push(RouterLink {
                link_type: RouterLinkType::Stub,
                link_id: net,
                link_data: mask,
                metric: metric(rng),
            });
        }
        l.push(RouterLink {
            link_type: RouterLinkType::Stub,
            link_id: 0xC0A8_6300 | ids[i],
            link_data: 0xFFFF_FFFF,
            metric: 1,
        });
        // Links in no particular order.
        for j in (1..l.len()).rev() {
            l.swap(j, rng.below(j as u64 + 1) as usize);
        }
    }
    let db = ids
        .iter()
        .zip(links)
        .map(|(&id, l)| (id, Lsa::router(id, INITIAL_SEQ, 0, l)))
        .collect();
    let mut adjacent = std::collections::HashMap::new();
    for (k, &id) in ids.iter().enumerate() {
        if rng.percent(90) {
            adjacent.insert(id, (k as u16 + 1, Ipv4Addr::from(0xAC1F_0100 | id)));
        }
    }
    (db, self_id, adjacent)
}

/// Router id → shortest distance from `from`, over the bidirectional
/// point-to-point links of `db` (Bellman–Ford: slow, and plainly right).
fn distances_from(
    db: &std::collections::BTreeMap<u32, rf_routed::ospf::Lsa>,
    from: u32,
) -> std::collections::BTreeMap<u32, u64> {
    use rf_routed::ospf::lsa::{LsaBody, RouterLinkType};
    let p2p = |rid: u32| {
        db.get(&rid).into_iter().flat_map(|lsa| {
            let LsaBody::Router(body) = &lsa.body;
            body.links
                .iter()
                .filter(|l| l.link_type == RouterLinkType::PointToPoint)
        })
    };
    let mut dist = std::collections::BTreeMap::from([(from, 0u64)]);
    for _ in 0..db.len() {
        for &rid in db.keys() {
            let Some(&d) = dist.get(&rid) else { continue };
            for l in p2p(rid) {
                if p2p(l.link_id).any(|back| back.link_id == rid) {
                    let nd = d + u64::from(l.metric);
                    if dist.get(&l.link_id).is_none_or(|&old| nd < old) {
                        dist.insert(l.link_id, nd);
                    }
                }
            }
        }
    }
    dist
}

/// Dijkstra on a dense index over the live LSDB must route exactly as
/// the parent's `HashMap` search over a `BTreeMap` of clones: same
/// routes, same order, on every LSDB — handed over in key order, as the
/// daemon does, or shuffled. The generator's corners are counted, so a
/// narrowed generator fails here rather than passing vacuously.
#[test]
fn spf_matches_the_parent_on_random_lsdbs() {
    use rf_routed::ospf::lsa::{LsaBody, RouterLinkType};
    use rf_routed::ospf::spf;
    let mut rng = Xorshift(0x5EED_0F5F_u64);
    let mut seen = std::collections::BTreeMap::<&str, u32>::new();
    let mut note = |what: &'static str, yes: bool| *seen.entry(what).or_default() += u32::from(yes);
    for case in 0..600 {
        let (db, self_id, adjacent) = random_lsdb(&mut rng);
        let want = spf_model::compute(&db, self_id, &adjacent);
        assert_eq!(spf::compute(&db, self_id, &adjacent), want, "case {case}");
        let mut shuffled: Vec<(&u32, &rf_routed::ospf::Lsa)> = db.iter().collect();
        for j in (1..shuffled.len()).rev() {
            shuffled.swap(j, rng.below(j as u64 + 1) as usize);
        }
        assert_eq!(
            spf::compute(shuffled, self_id, &adjacent),
            want,
            "case {case}, shuffled"
        );

        let links = |rid: u32| match db.get(&rid).map(|lsa| &lsa.body) {
            Some(LsaBody::Router(body)) => body.links.clone(),
            None => Vec::new(),
        };
        let p2p_to = |rid: u32, to: u32| {
            links(rid)
                .iter()
                .filter(|l| l.link_type == RouterLinkType::PointToPoint && l.link_id == to)
                .count()
        };
        note("self absent", !db.contains_key(&self_id));
        note(
            "one-way link",
            db.keys()
                .any(|&a| db.keys().any(|&b| p2p_to(a, b) > 0 && p2p_to(b, a) == 0)),
        );
        note(
            "parallel links",
            db.keys().any(|&a| db.keys().any(|&b| p2p_to(a, b) > 1)),
        );
        let dist = distances_from(&db, self_id);
        note(
            "unreachable router",
            db.keys().any(|rid| !dist.contains_key(rid)),
        );
        // Some router is as near through one first hop as through
        // another.
        let firsts: Vec<(u32, u64)> = links(self_id)
            .iter()
            .filter(|l| l.link_type == RouterLinkType::PointToPoint)
            .filter(|l| p2p_to(l.link_id, self_id) > 0)
            .map(|l| (l.link_id, u64::from(l.metric)))
            .collect();
        let via: Vec<(u32, std::collections::BTreeMap<u32, u64>)> = firsts
            .iter()
            .map(|&(hop, cost)| {
                let d = distances_from(&db, hop);
                (hop, d.into_iter().map(|(r, x)| (r, x + cost)).collect())
            })
            .collect();
        note(
            "equal-cost tie",
            dist.iter().any(|(&r, &d)| {
                let hops: std::collections::BTreeSet<u32> = via
                    .iter()
                    .filter(|(_, v)| v.get(&r) == Some(&d))
                    .map(|(hop, _)| *hop)
                    .collect();
                r != self_id && hops.len() > 1
            }),
        );
        let stubs: Vec<(u32, u8, u16)> = db
            .keys()
            .flat_map(|&rid| links(rid))
            .filter(|l| l.link_type == RouterLinkType::Stub)
            .map(|l| {
                let len = 32 - l.link_data.trailing_zeros() as u8;
                (l.link_id & l.link_data, len, l.metric)
            })
            .collect();
        note("/0 route", want.iter().any(|r| r.prefix.prefix_len == 0));
        note(
            "/32 route",
            want.iter()
                .any(|r| r.prefix.prefix_len == 32 && r.prefix.addr.octets()[2] != 0x63),
        );
        note(
            "one prefix at two metrics",
            stubs
                .iter()
                .any(|a| stubs.iter().any(|b| (a.0, a.1) == (b.0, b.1) && a.2 != b.2)),
        );
    }
    for (what, count) in &seen {
        assert!(*count >= 20, "{what}: only {count} of 600 LSDBs: {seen:?}");
    }
    assert_eq!(seen.len(), 8, "{seen:?}");
}

/// `Rib::replace_protocol` against a map of candidates: after every
/// operation the FIB holds the best candidate of each prefix, and the
/// changes reported are exactly the FIB's moves — the stale prefixes' in
/// prefix order first, then the new set's in the order given.
#[test]
fn rib_replace_protocol_reports_exactly_the_fib_moves() {
    use rf_routed::rib::RibChange;
    use std::collections::BTreeMap;
    let mut rng = Xorshift(0x0B1B_0B1B);
    let prefix = |i: u64| Ipv4Cidr::new(Ipv4Addr::new(10, i as u8, 0, 0), 16);
    let key = |p: Ipv4Cidr| (u32::from(p.network()), p.prefix_len);
    let protos = [RouteProto::Connected, RouteProto::Ospf];
    for _ in 0..40 {
        let mut rib = Rib::new();
        // prefix key → proto → route
        let mut model: BTreeMap<(u32, u8), BTreeMap<RouteProto, Route>> = BTreeMap::new();
        let best = |model: &BTreeMap<(u32, u8), BTreeMap<RouteProto, Route>>| {
            model
                .iter()
                .filter_map(|(k, c)| {
                    let r = c
                        .values()
                        .min_by_key(|r| (r.proto.admin_distance(), r.metric))?;
                    Some((*k, *r))
                })
                .collect::<BTreeMap<_, _>>()
        };
        for _ in 0..60 {
            let route = |rng: &mut Xorshift, proto| Route {
                prefix: prefix(rng.below(8)),
                next_hop: Some(Ipv4Addr::new(1, 1, 1, 1 + rng.below(2) as u8)),
                out_iface: 1 + rng.below(2) as u16,
                proto,
                metric: rng.below(3) as u32,
            };
            let before = best(&model);
            let (changes, touched): (Vec<RibChange>, Vec<(u32, u8)>) = match rng.below(4) {
                0 => {
                    let proto = protos[rng.below(2) as usize];
                    let r = route(&mut rng, proto);
                    model.entry(key(r.prefix)).or_default().insert(r.proto, r);
                    (rib.add(r), vec![key(r.prefix)])
                }
                _ => {
                    let proto = protos[rng.below(2) as usize];
                    let mut set: BTreeMap<(u32, u8), Route> = BTreeMap::new();
                    for _ in 0..rng.below(7) {
                        let r = route(&mut rng, proto);
                        set.insert(key(r.prefix), r);
                    }
                    let mut routes: Vec<Route> = set.values().copied().collect();
                    if rng.percent(30) {
                        routes.reverse();
                    }
                    let stale: Vec<(u32, u8)> = model
                        .iter()
                        .filter(|(k, c)| c.contains_key(&proto) && !set.contains_key(k))
                        .map(|(k, _)| *k)
                        .collect();
                    for k in &stale {
                        model.get_mut(k).unwrap().remove(&proto);
                    }
                    for r in &routes {
                        model.entry(key(r.prefix)).or_default().insert(proto, *r);
                    }
                    let order = stale
                        .into_iter()
                        .chain(routes.iter().map(|r| key(r.prefix)))
                        .collect();
                    (rib.replace_protocol(proto, &routes), order)
                }
            };
            let after = best(&model);
            let want: Vec<RibChange> = touched
                .into_iter()
                .filter_map(|k| match (before.get(&k), after.get(&k)) {
                    (old, Some(new)) if old != Some(new) => Some(RibChange::Installed(*new)),
                    (Some(old), None) => Some(RibChange::Withdrawn(old.prefix)),
                    _ => None,
                })
                .collect();
            assert_eq!(changes, want);
            assert_eq!(rib.fib(), after.values().copied().collect::<Vec<_>>());
        }
    }
}
