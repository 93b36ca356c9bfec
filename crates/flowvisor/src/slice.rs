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
    /// within (or can be narrowed to) one of these.
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

    /// Check a FLOW_MOD match against the flowspace.
    ///
    /// Returns `Allow` when the match is already inside the flowspace,
    /// `Rewrite(m)` when a flowspace entry is strictly narrower and the
    /// flow mod can be restricted to it, and `Deny` otherwise.
    pub fn check_flow_mod(&self, m: &OfMatch) -> FlowSpaceDecision {
        for fs in &self.flowspace {
            if m.is_subset_of(fs) {
                return FlowSpaceDecision::Allow;
            }
        }
        for fs in &self.flowspace {
            if fs.is_subset_of(m) {
                return FlowSpaceDecision::Rewrite(*fs);
            }
        }
        FlowSpaceDecision::Deny
    }
}

/// Outcome of flowspace-checking a FLOW_MOD.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FlowSpaceDecision {
    Allow,
    Rewrite(OfMatch),
    Deny,
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
        let m = OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 1, 0, 0), 16);
        assert_eq!(s.check_flow_mod(&m), FlowSpaceDecision::Allow);
    }

    #[test]
    fn too_wide_flow_mod_gets_rewritten() {
        let s = SlicePolicy::lldp_slice("topo", AgentId(0), 6633);
        // The topology controller asks for match-any: narrowed to LLDP.
        match s.check_flow_mod(&OfMatch::any()) {
            FlowSpaceDecision::Rewrite(m) => assert_eq!(m, OfMatch::lldp()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn disjoint_flow_mod_denied() {
        let s = SlicePolicy::lldp_slice("topo", AgentId(0), 6633);
        let m = OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 0, 0, 0), 8);
        assert_eq!(s.check_flow_mod(&m), FlowSpaceDecision::Deny);
    }
}
