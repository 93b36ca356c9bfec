//! A minimal host IP stack (sans-IO): ARP, ICMP echo, UDP.
//!
//! The stack owns no interface. Every call that can transmit takes the
//! caller's sink (`impl FnMut(Bytes)`) and hands it each frame the
//! moment the frame is built; [`HostStack::on_frame`] returns the one
//! thing a frame can deliver, if it delivered anything.

use bytes::{Bytes, BytesMut};
use rf_wire::ethernet::ETHERNET_HEADER_LEN;
use rf_wire::icmp::ICMP_HEADER_LEN;
use rf_wire::ipv4::DEFAULT_TTL;
use rf_wire::udp::UDP_HEADER_LEN;
use rf_wire::{
    ipv4_frame, ArpOp, ArpPacket, EtherType, EthernetFrame, EthernetHeader, IcmpHeader, IcmpPacket,
    IpProtocol, Ipv4Body, Ipv4Cidr, Ipv4Header, MacAddr, UdpHeader,
};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Host addressing.
#[derive(Clone, Copy, Debug)]
pub struct HostConfig {
    pub mac: MacAddr,
    pub addr: Ipv4Cidr,
    pub gateway: Ipv4Addr,
}

/// What a received frame delivered to the application.
#[derive(Clone, Debug, PartialEq)]
pub enum Received {
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
    arp_cache: BTreeMap<Ipv4Addr, MacAddr>,
    /// Frames waiting on ARP resolution, keyed by next-hop IP: built
    /// in full, only the destination MAC (bytes 0..6) still to fill in.
    pending: Vec<(Ipv4Addr, BytesMut)>,
}

impl HostStack {
    pub fn new(cfg: HostConfig) -> HostStack {
        HostStack {
            cfg,
            arp_cache: BTreeMap::new(),
            pending: Vec::new(),
        }
    }

    pub fn ip(&self) -> Ipv4Addr {
        self.cfg.addr.addr
    }

    pub fn mac(&self) -> MacAddr {
        self.cfg.mac
    }

    fn arp_frame(&self, dst: MacAddr, arp: &ArpPacket) -> Bytes {
        EthernetFrame::new(dst, self.cfg.mac, EtherType::ARP, arp.emit()).emit()
    }

    /// Broadcast a request for `target`'s MAC.
    fn arp_request(&self, target: Ipv4Addr) -> Bytes {
        let req = ArpPacket::request(self.cfg.mac, self.cfg.addr.addr, target);
        self.arp_frame(MacAddr::BROADCAST, &req)
    }

    /// Transmit at boot: a gratuitous ARP so the network (and
    /// RouteFlow's host learner) knows where we are.
    pub fn boot(&self, mut tx: impl FnMut(Bytes)) {
        tx(self.arp_request(self.cfg.addr.addr));
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
    fn emit_ip(&mut self, dst: Ipv4Addr, body: Ipv4Body<'_>, mut tx: impl FnMut(Bytes)) {
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
            return tx(frame.freeze());
        }
        self.pending.push((nh, frame));
        tx(self.arp_request(nh));
    }

    /// Is the next hop for `dst` already in the ARP cache?
    pub fn is_resolved(&self, dst: Ipv4Addr) -> bool {
        self.arp_cache.contains_key(&self.next_hop(dst))
    }

    /// Kick off ARP resolution of `dst`'s next hop without queueing
    /// any data. Bulk senders warm the cache with one request instead
    /// of emitting a request per queued datagram.
    pub fn resolve(&mut self, dst: Ipv4Addr, mut tx: impl FnMut(Bytes)) {
        if !self.is_resolved(dst) {
            tx(self.arp_request(self.next_hop(dst)));
        }
    }

    /// Send a UDP datagram whose payload is the concatenation of
    /// `payload`'s parts. The parts are borrowed — a header on the
    /// caller's stack, a fill from a static — and each byte is copied
    /// once, into the frame.
    pub fn send_udp(
        &mut self,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: &[&[u8]],
        tx: impl FnMut(Bytes),
    ) {
        let body = Ipv4Body::Udp {
            src_port,
            dst_port,
            payload,
        };
        self.emit_ip(dst, body, tx);
    }

    /// Send an ICMP echo request.
    pub fn send_ping(&mut self, dst: Ipv4Addr, ident: u16, seq: u16, tx: impl FnMut(Bytes)) {
        let icmp = IcmpPacket::echo_request(ident, seq, Bytes::from_static(b"rf-ping"));
        self.emit_ip(dst, Ipv4Body::Raw(IpProtocol::ICMP, &icmp.emit()), tx);
    }

    /// Process a received frame. Each header is read where it lies in
    /// `frame`; the one slice taken is a delivered datagram's payload
    /// (or an echo request's, to answer it). Whatever it makes the
    /// stack transmit — an ARP or echo reply, datagrams the ARP reply
    /// released — goes to `tx`.
    pub fn on_frame(&mut self, frame: &Bytes, tx: impl FnMut(Bytes)) -> Option<Received> {
        let eth = EthernetHeader::parse(frame).ok()?;
        if !eth.dst.is_broadcast() && eth.dst != self.cfg.mac && !eth.dst.is_multicast() {
            return None;
        }
        match eth.ethertype {
            EtherType::ARP => {
                self.on_arp(&frame[ETHERNET_HEADER_LEN..], tx);
                None
            }
            EtherType::IPV4 => self.on_ip(frame, tx),
            _ => None,
        }
    }

    fn on_arp(&mut self, packet: &[u8], mut tx: impl FnMut(Bytes)) {
        let Ok(arp) = ArpPacket::parse(packet) else {
            return;
        };
        // Learn the sender either way.
        if arp.sender_ip != Ipv4Addr::UNSPECIFIED {
            self.arp_cache.insert(arp.sender_ip, arp.sender_mac);
        }
        if arp.op == ArpOp::Request && arp.target_ip == self.cfg.addr.addr {
            let reply = ArpPacket::reply_to(&arp, self.cfg.mac);
            tx(self.arp_frame(arp.sender_mac, &reply));
        }
        // Flush anything waiting on this resolution.
        for (nh, mut frame) in std::mem::take(&mut self.pending) {
            match self.arp_cache.get(&nh) {
                Some(mac) => {
                    frame[0..6].copy_from_slice(mac.as_bytes());
                    tx(frame.freeze());
                }
                None => self.pending.push((nh, frame)),
            }
        }
    }

    /// An IPv4 frame: the packet starts at [`ETHERNET_HEADER_LEN`] and
    /// its body runs from `ihl` to `total_len` past that (Ethernet
    /// padding cut off).
    fn on_ip(&mut self, frame: &Bytes, tx: impl FnMut(Bytes)) -> Option<Received> {
        let ip = Ipv4Header::parse(&frame[ETHERNET_HEADER_LEN..]).ok()?;
        if ip.dst != self.cfg.addr.addr {
            return None;
        }
        let body = ETHERNET_HEADER_LEN + ip.ihl..ETHERNET_HEADER_LEN + ip.total_len;
        match ip.protocol {
            IpProtocol::UDP => {
                let udp = UdpHeader::parse(&frame[body.clone()], ip.src, ip.dst).ok()?;
                let payload = body.start + UDP_HEADER_LEN..body.start + udp.length;
                Some(Received::Udp {
                    src: ip.src,
                    src_port: udp.src_port,
                    dst_port: udp.dst_port,
                    payload: frame.slice(payload),
                })
            }
            IpProtocol::ICMP => {
                let message = &frame[body.clone()];
                let IcmpHeader { ty, code } = IcmpHeader::parse(message).ok()?;
                let ident = u16::from_be_bytes([message[4], message[5]]);
                let seq = u16::from_be_bytes([message[6], message[7]]);
                match (ty, code) {
                    (8, 0) => {
                        let reply = IcmpPacket::EchoReply {
                            ident,
                            seq,
                            payload: frame.slice(body.start + ICMP_HEADER_LEN..body.end),
                        };
                        self.emit_ip(ip.src, Ipv4Body::Raw(IpProtocol::ICMP, &reply.emit()), tx);
                        None
                    }
                    (0, 0) => Some(Received::EchoReply {
                        from: ip.src,
                        ident,
                        seq,
                    }),
                    _ => None,
                }
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_wire::{Ipv4Packet, UdpPacket};

    fn host(ip: &str, gw: &str) -> HostStack {
        HostStack::new(HostConfig {
            mac: MacAddr([2, 0, 0, 0, 0, 0x42]),
            addr: format!("{ip}/24").parse().unwrap(),
            gateway: gw.parse().unwrap(),
        })
    }

    #[test]
    fn boot_sends_gratuitous_arp() {
        let h = host("10.9.0.2", "10.9.0.1");
        let mut out = Vec::new();
        h.boot(|f| out.push(f));
        assert_eq!(out.len(), 1);
        let eth = EthernetFrame::parse_bytes(&out[0]).unwrap();
        assert_eq!(eth.dst, MacAddr::BROADCAST);
        let arp = ArpPacket::parse(&eth.payload).unwrap();
        assert_eq!(arp.sender_ip, arp.target_ip);
    }

    #[test]
    fn off_link_udp_arps_gateway_then_flushes() {
        let mut h = host("10.9.0.2", "10.9.0.1");
        let mut out = Vec::new();
        h.send_udp("10.8.0.5".parse().unwrap(), 1000, 2000, &[b"x"], |f| {
            out.push(f)
        });
        // First an ARP request for the gateway.
        let eth = EthernetFrame::parse_bytes(&out[0]).unwrap();
        assert_eq!(eth.ethertype, EtherType::ARP);
        let arp = ArpPacket::parse(&eth.payload).unwrap();
        assert_eq!(arp.target_ip, "10.9.0.1".parse::<Ipv4Addr>().unwrap());
        // Gateway answers; the queued datagram goes out.
        let gw_mac = MacAddr([2, 0, 0, 0, 0, 1]);
        let reply = ArpPacket::reply_to(&arp, gw_mac);
        let rf = EthernetFrame::new(h.mac(), gw_mac, EtherType::ARP, reply.emit()).emit();
        let mut out = Vec::new();
        assert_eq!(h.on_frame(&rf, |f| out.push(f)), None);
        assert_eq!(out.len(), 1);
        let eth = EthernetFrame::parse_bytes(&out[0]).unwrap();
        assert_eq!(eth.dst, gw_mac);
        assert_eq!(eth.ethertype, EtherType::IPV4);
    }

    #[test]
    fn on_link_udp_arps_destination() {
        let mut h = host("10.9.0.2", "10.9.0.1");
        let mut out = Vec::new();
        h.send_udp("10.9.0.7".parse().unwrap(), 1, 2, &[], |f| out.push(f));
        let arp = ArpPacket::parse(&EthernetFrame::parse_bytes(&out[0]).unwrap().payload).unwrap();
        assert_eq!(arp.target_ip, "10.9.0.7".parse::<Ipv4Addr>().unwrap());
    }

    #[test]
    fn answers_icmp_echo() {
        let mut h = host("10.9.0.2", "10.9.0.1");
        // Prime ARP cache via request from the pinger.
        let pinger_mac = MacAddr([2, 9, 9, 9, 9, 9]);
        let icmp = IcmpPacket::echo_request(7, 3, Bytes::from_static(b"hi"));
        let src: Ipv4Addr = "10.9.0.9".parse().unwrap();
        let arp = ArpPacket::request(pinger_mac, src, h.ip());
        let arpf = EthernetFrame::new(MacAddr::BROADCAST, pinger_mac, EtherType::ARP, arp.emit());
        h.on_frame(&arpf.emit(), |_| {});
        let ip = Ipv4Packet::new(src, h.ip(), IpProtocol::ICMP, icmp.emit());
        let f = EthernetFrame::new(h.mac(), pinger_mac, EtherType::IPV4, ip.emit());
        let mut out = Vec::new();
        assert_eq!(h.on_frame(&f.emit(), |f| out.push(f)), None);
        assert_eq!(out.len(), 1);
        let eth = EthernetFrame::parse_bytes(&out[0]).unwrap();
        let rip = Ipv4Packet::parse_bytes(&eth.payload).unwrap();
        assert!(matches!(
            IcmpPacket::parse_bytes(&rip.payload).unwrap(),
            IcmpPacket::EchoReply {
                ident: 7,
                seq: 3,
                ..
            }
        ));
    }

    #[test]
    fn udp_delivery_surfaces_payload() {
        let mut h = host("10.9.0.2", "10.9.0.1");
        let src: Ipv4Addr = "10.8.0.1".parse().unwrap();
        let udp = UdpPacket::new(5004, 9000, Bytes::from_static(b"frame-1"));
        let ip = Ipv4Packet::new(src, h.ip(), IpProtocol::UDP, udp.emit(src, h.ip()));
        let f = EthernetFrame::new(h.mac(), MacAddr([1; 6]), EtherType::IPV4, ip.emit());
        let got = h.on_frame(&f.emit(), |f| panic!("transmitted {f:?}"));
        assert_eq!(
            got,
            Some(Received::Udp {
                src,
                src_port: 5004,
                dst_port: 9000,
                payload: Bytes::from_static(b"frame-1"),
            })
        );
    }

    #[test]
    fn ignores_foreign_unicast() {
        let mut h = host("10.9.0.2", "10.9.0.1");
        let src: Ipv4Addr = "10.8.0.1".parse().unwrap();
        let udp = UdpPacket::new(1, 2, Bytes::new());
        let ip = Ipv4Packet::new(src, h.ip(), IpProtocol::UDP, udp.emit(src, h.ip()));
        // Wrong destination MAC.
        let f = EthernetFrame::new(MacAddr([8; 6]), MacAddr([2; 6]), EtherType::IPV4, ip.emit());
        let got = h.on_frame(&f.emit(), |f| panic!("transmitted {f:?}"));
        assert_eq!(got, None);
    }
}
