//! Slice policies: who owns which flowspace.

use rf_openflow::{OfMatch, PacketKey};
use rf_sim::AgentId;

/// One slice: a controller plus the flowspace it controls.
#[derive(Clone, Debug)]
pub struct SlicePolicy {
    /// Human-readable name ("topology", "routeflow").
    pub name: String,
    /// The controller agent to dial.
    pub controller: AgentId,
    /// Service the controller listens on.
    pub service: u16,
    /// The flowspace: a packet belongs to this slice when it matches
    /// any of these. A FLOW_MOD is permitted when its match falls
    /// within one of these.
    pub flowspace: Vec<OfMatch>,
}

impl SlicePolicy {
    /// Slice owning exactly the LLDP ethertype (the topology
    /// controller's slice in the paper's framework).
    pub fn lldp_slice(name: &str, controller: AgentId, service: u16) -> SlicePolicy {
        SlicePolicy {
            name: name.into(),
            controller,
            service,
            flowspace: vec![OfMatch::lldp()],
        }
    }

    /// Slice owning IPv4 + ARP (the RF-controller's slice).
    pub fn ip_slice(name: &str, controller: AgentId, service: u16) -> SlicePolicy {
        SlicePolicy {
            name: name.into(),
            controller,
            service,
            flowspace: vec![
                OfMatch::ipv4_dst_prefix(std::net::Ipv4Addr::UNSPECIFIED, 0),
                OfMatch::arp(),
            ],
        }
    }

    /// Does a packet belong to this slice?
    pub fn owns_packet(&self, key: &PacketKey) -> bool {
        self.flowspace.iter().any(|m| m.matches(key))
    }

    /// Does a FLOW_MOD with this match stay inside the flowspace? One
    /// that does not is refused whole (`EPERM`); none is narrowed.
    pub fn owns_match(&self, m: &OfMatch) -> bool {
        self.flowspace.iter().any(|fs| m.within(fs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_wire::MacAddr;
    use std::net::Ipv4Addr;

    fn key(dl_type: u16) -> PacketKey {
        PacketKey {
            in_port: 1,
            dl_src: MacAddr::ZERO,
            dl_dst: MacAddr::ZERO,
            dl_type,
            nw_tos: 0,
            nw_proto: 0,
            nw_src: Ipv4Addr::UNSPECIFIED,
            nw_dst: Ipv4Addr::UNSPECIFIED,
            tp_src: 0,
            tp_dst: 0,
        }
    }

    #[test]
    fn lldp_slice_owns_only_lldp() {
        let s = SlicePolicy::lldp_slice("topo", AgentId(0), 6633);
        assert!(s.owns_packet(&key(0x88CC)));
        assert!(!s.owns_packet(&key(0x0800)));
        assert!(!s.owns_packet(&key(0x0806)));
    }

    #[test]
    fn ip_slice_owns_ip_and_arp() {
        let s = SlicePolicy::ip_slice("rf", AgentId(0), 6633);
        assert!(s.owns_packet(&key(0x0800)));
        assert!(s.owns_packet(&key(0x0806)));
        assert!(!s.owns_packet(&key(0x88CC)));
    }

    #[test]
    fn flow_mod_inside_flowspace_allowed() {
        let s = SlicePolicy::ip_slice("rf", AgentId(0), 6633);
        for m in [
            OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 1, 0, 0), 16),
            OfMatch::ipv4_dst_prefix(Ipv4Addr::UNSPECIFIED, 0),
            OfMatch::ethertype(0x0800),
            OfMatch::arp(),
        ] {
            assert!(s.owns_match(&m), "{m:?}");
        }
        let topo = SlicePolicy::lldp_slice("topo", AgentId(0), 6633);
        assert!(topo.owns_match(&OfMatch::lldp()));
    }

    #[test]
    fn flow_mod_outside_flowspace_denied() {
        let s = SlicePolicy::lldp_slice("topo", AgentId(0), 6633);
        let m = OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 0, 0, 0), 8);
        assert!(!s.owns_match(&m));
        assert!(!s.owns_match(&OfMatch::arp()));
        let rf = SlicePolicy::ip_slice("rf", AgentId(0), 6633);
        assert!(!rf.owns_match(&OfMatch::lldp()));
    }
}
