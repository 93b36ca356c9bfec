//! `rf_routed::ospf::spf::compute` as it was before SPF ran in place
//! over the daemon's LSDB (`crates/routed/src/ospf/spf.rs` at 73c566b,
//! verbatim but for the adaptation marked `ADAPTED`): a `BTreeMap` of
//! LSAs in, Dijkstra over three `HashMap`s, the best route per prefix
//! kept in a `BTreeMap`. The dense-index `compute` must return the same
//! `Vec<Route>` — same routes, same order — on every LSDB.

use rf_routed::ospf::lsa::{Lsa, LsaBody, RouterLinkType};
use rf_routed::rib::{Route, RouteProto};
use rf_wire::Ipv4Cidr;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::net::Ipv4Addr;

// ADAPTED: a free function of the test crate, on the real crate's types.
/// Input: the LSDB's router LSAs keyed by router id, the computing
/// router's id, and its directly-connected neighbor map
/// `neighbor router id → (out interface, neighbor interface address)`.
///
/// Output: OSPF candidate routes for every reachable stub prefix, with
/// next hops resolved through the first hop on each shortest path.
pub fn compute(
    router_lsas: &BTreeMap<u32, Lsa>,
    self_id: u32,
    adjacent: &HashMap<u32, (u16, Ipv4Addr)>,
) -> Vec<Route> {
    // Bidirectional adjacency graph.
    let mut edges: HashMap<u32, Vec<(u32, u16)>> = HashMap::new(); // from → (to, cost)
    for (&rid, lsa) in router_lsas {
        let LsaBody::Router(body) = &lsa.body;
        for link in &body.links {
            if link.link_type == RouterLinkType::PointToPoint {
                let to = link.link_id;
                // Check the reverse direction exists.
                let reverse_ok = router_lsas.get(&to).is_some_and(|peer| {
                    let LsaBody::Router(pb) = &peer.body;
                    pb.links
                        .iter()
                        .any(|l| l.link_type == RouterLinkType::PointToPoint && l.link_id == rid)
                });
                if reverse_ok {
                    edges.entry(rid).or_default().push((to, link.metric));
                }
            }
        }
    }

    // Dijkstra from self. `first_hop[rid]` = the adjacent router id the
    // shortest path leaves through.
    let mut dist: HashMap<u32, u32> = HashMap::new();
    let mut first_hop: HashMap<u32, u32> = HashMap::new();
    let mut heap: BinaryHeap<Reverse<(u32, u32, u32)>> = BinaryHeap::new(); // (dist, rid, fh)
    dist.insert(self_id, 0);
    heap.push(Reverse((0, self_id, self_id)));
    while let Some(Reverse((d, rid, fh))) = heap.pop() {
        if dist.get(&rid).copied().unwrap_or(u32::MAX) < d {
            continue;
        }
        if rid != self_id && !first_hop.contains_key(&rid) {
            first_hop.insert(rid, fh);
        }
        for &(to, cost) in edges.get(&rid).into_iter().flatten() {
            let nd = d + u32::from(cost);
            let better = match dist.get(&to) {
                None => true,
                Some(&old) => nd < old,
            };
            if better {
                dist.insert(to, nd);
                let hop = if rid == self_id { to } else { fh };
                heap.push(Reverse((nd, to, hop)));
            }
        }
    }

    // Routes: stub prefixes of every reachable remote router.
    let mut best: BTreeMap<(u32, u8), Route> = BTreeMap::new();
    for (&rid, lsa) in router_lsas {
        if rid == self_id {
            continue; // own stubs are connected routes
        }
        let Some(&d) = dist.get(&rid) else { continue };
        let Some(&fh) = first_hop.get(&rid) else {
            continue;
        };
        let Some(&(iface, nh_addr)) = adjacent.get(&fh) else {
            continue;
        };
        let LsaBody::Router(body) = &lsa.body;
        for link in &body.links {
            if link.link_type != RouterLinkType::Stub {
                continue;
            }
            let prefix_len = 32 - link.link_data.trailing_zeros() as u8;
            // A mask of 0 would be a default route; routers don't emit
            // those as stubs here, but guard anyway.
            let prefix = Ipv4Cidr::new(Ipv4Addr::from(link.link_id), prefix_len.min(32));
            let metric = d + u32::from(link.metric);
            let route = Route {
                prefix,
                next_hop: Some(nh_addr),
                out_iface: iface,
                proto: RouteProto::Ospf,
                metric,
            };
            let key = (u32::from(prefix.network()), prefix.prefix_len);
            match best.get(&key) {
                Some(existing) if existing.metric <= metric => {}
                _ => {
                    best.insert(key, route);
                }
            }
        }
    }
    best.into_values().collect()
}
