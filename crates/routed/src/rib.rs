//! The RIB/FIB manager — the `zebra` role.
//!
//! Protocol daemons install candidate routes; the RIB picks the best
//! one per prefix (administrative distance, then metric) and reports
//! *changes* to the FIB. RouteFlow subscribes to exactly that change
//! stream: every FIB change on a VM becomes a FLOW_MOD on the mirrored
//! physical switch.

use rf_wire::Ipv4Cidr;
use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Route origin, ordered by administrative distance: what a VM's
/// interfaces and its OSPF daemon install (no daemon originates
/// another kind).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RouteProto {
    /// Directly connected interface subnet (distance 0).
    Connected,
    /// OSPF-computed (distance 110).
    Ospf,
}

impl RouteProto {
    pub fn admin_distance(self) -> u8 {
        match self {
            RouteProto::Connected => 0,
            RouteProto::Ospf => 110,
        }
    }
}

impl fmt::Display for RouteProto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RouteProto::Connected => "connected",
            RouteProto::Ospf => "ospf",
        };
        f.write_str(s)
    }
}

/// One route.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    pub prefix: Ipv4Cidr,
    /// Next-hop IP; `None` for connected routes (deliver directly).
    pub next_hop: Option<Ipv4Addr>,
    /// Outgoing interface index (VM interface = switch port).
    pub out_iface: u16,
    pub proto: RouteProto,
    pub metric: u32,
}

impl Route {
    pub fn connected(prefix: Ipv4Cidr, out_iface: u16) -> Route {
        Route {
            prefix,
            next_hop: None,
            out_iface,
            proto: RouteProto::Connected,
            metric: 0,
        }
    }
}

/// A FIB change notification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RibChange {
    /// This route is now the best for its prefix (add or replace).
    Installed(Route),
    /// The prefix no longer has any route.
    Withdrawn(Ipv4Cidr),
}

/// Key: (network u32, prefix_len) — sortable, hashable.
type PrefixKey = (u32, u8);

fn key(p: Ipv4Cidr) -> PrefixKey {
    (u32::from(p.network()), p.prefix_len)
}

/// The routing information base.
#[derive(Clone, Default)]
pub struct Rib {
    /// All candidate routes per prefix.
    candidates: BTreeMap<PrefixKey, Vec<Route>>,
    /// The currently installed best route per prefix.
    fib: BTreeMap<PrefixKey, Route>,
}

impl Rib {
    pub fn new() -> Rib {
        Rib::default()
    }

    fn best(cands: &[Route]) -> Option<Route> {
        cands
            .iter()
            .min_by_key(|r| (r.proto.admin_distance(), r.metric))
            .copied()
    }

    fn refresh(&mut self, k: PrefixKey, changes: &mut Vec<RibChange>) {
        let best = self.candidates.get(&k).and_then(|c| Self::best(c));
        match (self.fib.get(&k).copied(), best) {
            (Some(old), Some(new)) if old != new => {
                self.fib.insert(k, new);
                changes.push(RibChange::Installed(new));
            }
            (None, Some(new)) => {
                self.fib.insert(k, new);
                changes.push(RibChange::Installed(new));
            }
            (Some(old), None) => {
                self.fib.remove(&k);
                changes.push(RibChange::Withdrawn(old.prefix));
            }
            _ => {}
        }
    }

    /// Add (or update) a candidate route. A protocol has at most one
    /// candidate per prefix; re-adding replaces it.
    pub fn add(&mut self, route: Route) -> Vec<RibChange> {
        let k = key(route.prefix);
        let cands = self.candidates.entry(k).or_default();
        cands.retain(|r| r.proto != route.proto);
        cands.push(route);
        let mut changes = Vec::new();
        self.refresh(k, &mut changes);
        changes
    }

    /// Remove a protocol's candidate for a prefix.
    pub fn remove(&mut self, prefix: Ipv4Cidr, proto: RouteProto) -> Vec<RibChange> {
        let k = key(prefix);
        if let Some(cands) = self.candidates.get_mut(&k) {
            cands.retain(|r| r.proto != proto);
            if cands.is_empty() {
                self.candidates.remove(&k);
            }
        }
        let mut changes = Vec::new();
        self.refresh(k, &mut changes);
        changes
    }

    /// Replace *all* routes of one protocol with a new set (the shape
    /// OSPF delivers after each SPF run). Emits the minimal diff.
    pub fn replace_protocol(&mut self, proto: RouteProto, routes: &[Route]) -> Vec<RibChange> {
        let mut changes = Vec::new();
        // Sorted already when SPF hands them over (it emits in prefix
        // order); the sort is then one pass.
        let mut new_keys: Vec<PrefixKey> = routes.iter().map(|r| key(r.prefix)).collect();
        new_keys.sort_unstable();
        // Remove stale candidates of this protocol.
        let stale: Vec<PrefixKey> = self
            .candidates
            .iter()
            .filter(|(k, cands)| {
                cands.iter().any(|r| r.proto == proto) && new_keys.binary_search(k).is_err()
            })
            .map(|(k, _)| *k)
            .collect();
        for k in stale {
            if let Some(cands) = self.candidates.get_mut(&k) {
                cands.retain(|r| r.proto != proto);
                if cands.is_empty() {
                    self.candidates.remove(&k);
                }
            }
            self.refresh(k, &mut changes);
        }
        // Install/update the new set.
        for r in routes {
            debug_assert_eq!(r.proto, proto);
            let k = key(r.prefix);
            let cands = self.candidates.entry(k).or_default();
            // One candidate per protocol, and no two protocols share a
            // distance: where a candidate sits in the list decides no
            // best route, so it is replaced where it is.
            match cands.iter_mut().find(|c| c.proto == proto) {
                Some(c) if c == r => continue, // unchanged: the FIB stands
                Some(c) => *c = *r,
                None => cands.push(*r),
            }
            self.refresh(k, &mut changes);
        }
        changes
    }

    /// Longest-prefix-match FIB lookup.
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<Route> {
        self.fib
            .values()
            .filter(|r| r.prefix.contains(dst))
            .max_by_key(|r| r.prefix.prefix_len)
            .copied()
    }

    /// Snapshot of the installed FIB.
    pub fn fib(&self) -> Vec<Route> {
        self.fib.values().copied().collect()
    }

    pub fn fib_len(&self) -> usize {
        self.fib.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cidr(s: &str) -> Ipv4Cidr {
        s.parse().unwrap()
    }

    fn ospf(prefix: &str, hop: &str, iface: u16, metric: u32) -> Route {
        Route {
            prefix: cidr(prefix),
            next_hop: Some(hop.parse().unwrap()),
            out_iface: iface,
            proto: RouteProto::Ospf,
            metric,
        }
    }

    #[test]
    fn install_and_lookup_lpm() {
        let mut rib = Rib::new();
        rib.add(ospf("10.0.0.0/8", "1.1.1.1", 1, 10));
        rib.add(ospf("10.2.0.0/16", "2.2.2.2", 2, 10));
        let r = rib.lookup("10.2.3.4".parse().unwrap()).unwrap();
        assert_eq!(r.out_iface, 2, "longest prefix wins");
        let r = rib.lookup("10.9.9.9".parse().unwrap()).unwrap();
        assert_eq!(r.out_iface, 1);
        assert!(rib.lookup("192.168.0.1".parse().unwrap()).is_none());
    }

    #[test]
    fn admin_distance_prefers_connected() {
        let mut rib = Rib::new();
        let ch = rib.add(ospf("10.0.0.0/30", "9.9.9.9", 3, 5));
        assert_eq!(ch.len(), 1);
        let conn = Route::connected(cidr("10.0.0.0/30"), 1);
        let ch = rib.add(conn);
        assert_eq!(ch, vec![RibChange::Installed(conn)]);
        assert_eq!(
            rib.lookup("10.0.0.1".parse().unwrap()).unwrap().proto,
            RouteProto::Connected
        );
    }

    #[test]
    fn withdrawing_best_falls_back() {
        let mut rib = Rib::new();
        rib.add(ospf("10.0.0.0/24", "1.1.1.1", 1, 5));
        rib.add(Route::connected(cidr("10.0.0.0/24"), 2));
        assert_eq!(
            rib.lookup("10.0.0.1".parse().unwrap()).unwrap().proto,
            RouteProto::Connected
        );
        let ch = rib.remove(cidr("10.0.0.0/24"), RouteProto::Connected);
        assert_eq!(ch.len(), 1);
        assert!(matches!(ch[0], RibChange::Installed(r) if r.proto == RouteProto::Ospf));
        let ch = rib.remove(cidr("10.0.0.0/24"), RouteProto::Ospf);
        assert_eq!(ch, vec![RibChange::Withdrawn(cidr("10.0.0.0/24"))]);
        assert_eq!(rib.fib_len(), 0);
    }

    #[test]
    fn metric_breaks_ties_within_protocol_replace() {
        let mut rib = Rib::new();
        rib.add(ospf("10.1.0.0/16", "1.1.1.1", 1, 20));
        // Same proto re-add replaces candidate.
        let ch = rib.add(ospf("10.1.0.0/16", "2.2.2.2", 2, 10));
        assert_eq!(ch.len(), 1);
        assert_eq!(
            rib.lookup("10.1.0.1".parse().unwrap()).unwrap().out_iface,
            2
        );
    }

    #[test]
    fn replace_protocol_emits_minimal_diff() {
        let mut rib = Rib::new();
        rib.replace_protocol(
            RouteProto::Ospf,
            &[
                ospf("10.1.0.0/30", "1.1.1.1", 1, 10),
                ospf("10.2.0.0/30", "1.1.1.1", 1, 20),
            ],
        );
        assert_eq!(rib.fib_len(), 2);
        // Second SPF run: 10.1 unchanged, 10.2 metric changes, 10.3 new,
        // and (implicitly) nothing withdrawn.
        let ch = rib.replace_protocol(
            RouteProto::Ospf,
            &[
                ospf("10.1.0.0/30", "1.1.1.1", 1, 10),
                ospf("10.2.0.0/30", "2.2.2.2", 2, 15),
                ospf("10.3.0.0/30", "1.1.1.1", 1, 30),
            ],
        );
        assert_eq!(ch.len(), 2, "unchanged route must not re-notify: {ch:?}");
        // Third run drops 10.3.
        let ch = rib.replace_protocol(
            RouteProto::Ospf,
            &[
                ospf("10.1.0.0/30", "1.1.1.1", 1, 10),
                ospf("10.2.0.0/30", "2.2.2.2", 2, 15),
            ],
        );
        assert_eq!(ch, vec![RibChange::Withdrawn(cidr("10.3.0.0/30"))]);
    }

    #[test]
    fn connected_survives_protocol_replace() {
        let mut rib = Rib::new();
        rib.add(Route::connected(cidr("10.1.0.0/30"), 1));
        rib.replace_protocol(RouteProto::Ospf, &[ospf("10.1.0.0/30", "9.9.9.9", 2, 10)]);
        assert_eq!(
            rib.lookup("10.1.0.1".parse().unwrap()).unwrap().proto,
            RouteProto::Connected
        );
        let ch = rib.replace_protocol(RouteProto::Ospf, &[]);
        assert!(ch.is_empty(), "withdrawing a shadowed route is silent");
    }
}
