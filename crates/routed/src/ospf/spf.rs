//! Shortest-path-first calculation (RFC 2328 §16) over router LSAs.
//!
//! The area is pure point-to-point, so the SPF graph has only router
//! vertices. An edge A→B exists when A's router LSA advertises a
//! point-to-point link to B **and** B's advertises one back (the
//! bidirectional check of §16.1 step 2b). Stub links hang prefixes off
//! their router.
//!
//! The LSAs are read where they lie — the daemon hands in its live LSDB
//! entries, borrowed — and Dijkstra runs on a dense index of the routers
//! in ascending id order: the edges in one array with an offset per
//! router, distances and first hops in `Vec`s. Since index order is id
//! order, the heap pops in the same `(distance, router id, first hop)`
//! order as a search keyed by id, and equal-cost ties break the same
//! way. A run allocates the same handful of buffers whatever the size of
//! the LSDB.

use super::lsa::{Lsa, LsaBody, RouterLinkType, RouterLsa};
use crate::rib::{Route, RouteProto};
use rf_wire::Ipv4Cidr;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::net::Ipv4Addr;

/// The first hop of a router the search has not reached.
const UNREACHED: u32 = u32::MAX;

/// Input: the LSDB's router LSAs as `(router id, LSA)` pairs, one per
/// router — a `&BTreeMap<u32, Lsa>`, or the daemon's live entries — the
/// computing router's id, and its directly-connected neighbor map
/// `neighbor router id → (out interface, neighbor interface address)`.
///
/// Output: OSPF candidate routes for every reachable stub prefix, with
/// next hops resolved through the first hop on each shortest path, in
/// (network, prefix length) order. A prefix advertised more than once
/// takes the lowest metric; on equal metrics, the router with the lowest
/// id.
pub fn compute<'a>(
    router_lsas: impl IntoIterator<Item = (&'a u32, &'a Lsa)>,
    self_id: u32,
    adjacent: &HashMap<u32, (u16, Ipv4Addr)>,
) -> Vec<Route> {
    // The dense index: router `i` is `routers[i]`, ascending id. A
    // filtered LSDB walk knows only an upper bound on its length, which
    // is what the buffer is sized to.
    let lsas = router_lsas.into_iter();
    let (low, high) = lsas.size_hint();
    let mut routers: Vec<(u32, &RouterLsa)> = Vec::with_capacity(high.unwrap_or(low));
    routers.extend(lsas.map(|(&rid, lsa)| {
        let LsaBody::Router(body) = &lsa.body;
        (rid, body)
    }));
    if !routers.is_sorted_by_key(|r| r.0) {
        routers.sort_unstable_by_key(|r| r.0);
    }
    debug_assert!(
        routers.windows(2).all(|w| w[0].0 < w[1].0),
        "one LSA per router"
    );
    let index = |rid: u32| routers.binary_search_by_key(&rid, |r| r.0).ok();
    // Without our own LSA no edge leaves us: nothing is reachable.
    let Some(me) = index(self_id) else {
        return Vec::new();
    };
    let p2p = |body: &'a RouterLsa| {
        body.links
            .iter()
            .filter(|l| l.link_type == RouterLinkType::PointToPoint)
    };

    // Bidirectional adjacency graph: router i's edges are
    // `edges[offsets[i]..offsets[i + 1]]`, as (to, cost) in link order.
    let mut offsets: Vec<u32> = Vec::with_capacity(routers.len() + 1);
    let mut edges: Vec<(u32, u16)> =
        Vec::with_capacity(routers.iter().map(|r| p2p(r.1).count()).sum());
    let mut stubs = 0;
    offsets.push(0);
    for &(rid, body) in &routers {
        for link in &body.links {
            match link.link_type {
                RouterLinkType::PointToPoint => {
                    // Check the reverse direction exists.
                    let reverse = index(link.link_id)
                        .filter(|&to| p2p(routers[to].1).any(|l| l.link_id == rid));
                    if let Some(to) = reverse {
                        edges.push((to as u32, link.metric));
                    }
                }
                RouterLinkType::Stub => stubs += 1,
            }
        }
        offsets.push(edges.len() as u32);
    }

    // Dijkstra from self. `first_hop[i]` = the index of the adjacent
    // router the shortest path to router i leaves through.
    let mut dist = vec![u32::MAX; routers.len()];
    let mut first_hop = vec![UNREACHED; routers.len()];
    // Each router's edges are relaxed once, each relaxation pushes at
    // most one entry: the heap never outgrows this.
    let mut heap: BinaryHeap<Reverse<(u32, u32, u32)>> = BinaryHeap::with_capacity(edges.len() + 1); // (dist, index, fh)
    dist[me] = 0;
    heap.push(Reverse((0, me as u32, me as u32)));
    while let Some(Reverse((d, i, fh))) = heap.pop() {
        let i = i as usize;
        if dist[i] < d {
            continue;
        }
        if i != me && first_hop[i] == UNREACHED {
            first_hop[i] = fh;
        }
        for &(to, cost) in &edges[offsets[i] as usize..offsets[i + 1] as usize] {
            let nd = d + u32::from(cost);
            if nd < dist[to as usize] {
                dist[to as usize] = nd;
                let hop = if i == me { to } else { fh };
                heap.push(Reverse((nd, to, hop)));
            }
        }
    }

    // Routes: stub prefixes of every reachable remote router, each keyed
    // by (network, prefix length, metric, position). The position makes
    // every key distinct, so the unstable sort orders the candidates as
    // a stable sort by the first three would — without a scratch buffer
    // — and the first of each prefix is its lowest metric, advertised by
    // the lowest router id.
    let mut candidates: Vec<((u32, u8, u32, u32), Route)> = Vec::with_capacity(stubs);
    for (i, &(_, body)) in routers.iter().enumerate() {
        if i == me || first_hop[i] == UNREACHED {
            continue; // own stubs are connected routes
        }
        let Some(&(iface, nh_addr)) = adjacent.get(&routers[first_hop[i] as usize].0) else {
            continue;
        };
        for link in &body.links {
            if link.link_type != RouterLinkType::Stub {
                continue;
            }
            let prefix_len = 32 - link.link_data.trailing_zeros() as u8;
            // A mask of 0 would be a default route; routers don't emit
            // those as stubs here, but guard anyway.
            let prefix = Ipv4Cidr::new(Ipv4Addr::from(link.link_id), prefix_len.min(32));
            let metric = dist[i] + u32::from(link.metric);
            let route = Route {
                prefix,
                next_hop: Some(nh_addr),
                out_iface: iface,
                proto: RouteProto::Ospf,
                metric,
            };
            let position = candidates.len() as u32;
            let key = (
                u32::from(prefix.network()),
                prefix.prefix_len,
                metric,
                position,
            );
            candidates.push((key, route));
        }
    }
    candidates.sort_unstable_by_key(|c| c.0);
    candidates.dedup_by_key(|c| (c.0 .0, c.0 .1));
    let mut routes = Vec::with_capacity(candidates.len());
    routes.extend(candidates.into_iter().map(|(_, route)| route));
    routes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ospf::lsa::{RouterLink, INITIAL_SEQ};
    use std::collections::BTreeMap;

    /// Build a router LSA for `rid` with p2p links `(to, cost, my_addr)`
    /// and stub links `(net, mask, cost)`.
    fn rlsa(rid: u32, p2p: &[(u32, u16, u32)], stubs: &[(u32, u32, u16)]) -> Lsa {
        let mut links = Vec::new();
        for &(to, cost, addr) in p2p {
            links.push(RouterLink {
                link_type: RouterLinkType::PointToPoint,
                link_id: to,
                link_data: addr,
                metric: cost,
            });
        }
        for &(net, mask, cost) in stubs {
            links.push(RouterLink {
                link_type: RouterLinkType::Stub,
                link_id: net,
                link_data: mask,
                metric: cost,
            });
        }
        Lsa::router(rid, INITIAL_SEQ, 0, links)
    }

    fn ip(s: &str) -> u32 {
        u32::from(s.parse::<Ipv4Addr>().unwrap())
    }

    /// Line: 1 —10— 2 —10— 3, each link a /30 stub on both ends.
    fn line_db() -> BTreeMap<u32, Lsa> {
        let mut db = BTreeMap::new();
        db.insert(
            1,
            rlsa(
                1,
                &[(2, 10, ip("10.0.0.1"))],
                &[(ip("10.0.0.0"), ip("255.255.255.252"), 10)],
            ),
        );
        db.insert(
            2,
            rlsa(
                2,
                &[(1, 10, ip("10.0.0.2")), (3, 10, ip("10.0.0.5"))],
                &[
                    (ip("10.0.0.0"), ip("255.255.255.252"), 10),
                    (ip("10.0.0.4"), ip("255.255.255.252"), 10),
                ],
            ),
        );
        db.insert(
            3,
            rlsa(
                3,
                &[(2, 10, ip("10.0.0.6"))],
                &[(ip("10.0.0.4"), ip("255.255.255.252"), 10)],
            ),
        );
        db
    }

    #[test]
    fn line_routes_from_end() {
        let db = line_db();
        let mut adj = HashMap::new();
        adj.insert(2u32, (1u16, "10.0.0.2".parse::<Ipv4Addr>().unwrap()));
        let routes = compute(&db, 1, &adj);
        // Remote stubs: 10.0.0.0/30 (via 2, metric 20) and 10.0.0.4/30.
        // 10.0.0.0/30 is also 2's stub — reachable at 10+10=20, but it
        // is our connected subnet; SPF still reports it (RIB prefers
        // connected).
        let far = routes
            .iter()
            .find(|r| r.prefix.to_string() == "10.0.0.4/30")
            .expect("far subnet reachable");
        assert_eq!(far.metric, 20, "10 to router 2 + 10 stub");
        assert_eq!(far.out_iface, 1);
        assert_eq!(far.next_hop, Some("10.0.0.2".parse().unwrap()));
    }

    #[test]
    fn unidirectional_links_are_ignored() {
        let mut db = line_db();
        // Router 3 stops advertising the link back to 2.
        db.insert(
            3,
            rlsa(3, &[], &[(ip("10.0.0.4"), ip("255.255.255.252"), 10)]),
        );
        let mut adj = HashMap::new();
        adj.insert(2u32, (1u16, "10.0.0.2".parse::<Ipv4Addr>().unwrap()));
        let routes = compute(&db, 1, &adj);
        // 10.0.0.4/30 is still advertised by router 2's stub, but router
        // 3 itself is unreachable; the /30 via 2 survives, anything only
        // behind 3 would not. Add a uniquely-3 stub to check:
        let mut db2 = line_db();
        db2.insert(
            3,
            rlsa(
                3,
                &[], // no link back
                &[(ip("192.168.99.0"), ip("255.255.255.0"), 1)],
            ),
        );
        let routes2 = compute(&db2, 1, &adj);
        assert!(
            !routes2
                .iter()
                .any(|r| r.prefix.to_string().starts_with("192.168.99")),
            "stub behind a one-way link must be unreachable"
        );
        let _ = routes;
    }

    #[test]
    fn ring_prefers_shorter_arc() {
        // Square 1-2-3-4-1, cost 10 per hop except 1-4 has cost 1.
        let mut db = BTreeMap::new();
        db.insert(
            1,
            rlsa(1, &[(2, 10, ip("10.0.1.1")), (4, 1, ip("10.0.4.2"))], &[]),
        );
        db.insert(
            2,
            rlsa(2, &[(1, 10, ip("10.0.1.2")), (3, 10, ip("10.0.2.1"))], &[]),
        );
        db.insert(
            3,
            rlsa(
                3,
                &[(2, 10, ip("10.0.2.2")), (4, 10, ip("10.0.3.1"))],
                &[(ip("172.16.3.0"), ip("255.255.255.0"), 1)],
            ),
        );
        db.insert(
            4,
            rlsa(4, &[(3, 10, ip("10.0.3.2")), (1, 1, ip("10.0.4.1"))], &[]),
        );
        let mut adj = HashMap::new();
        adj.insert(2u32, (1u16, "10.0.1.2".parse::<Ipv4Addr>().unwrap()));
        adj.insert(4u32, (2u16, "10.0.4.1".parse::<Ipv4Addr>().unwrap()));
        let routes = compute(&db, 1, &adj);
        let r = routes
            .iter()
            .find(|r| r.prefix.to_string() == "172.16.3.0/24")
            .unwrap();
        // Via 4: 1 + 10 + 1 = 12. Via 2: 10 + 10 + 1 = 21.
        assert_eq!(r.metric, 12);
        assert_eq!(r.out_iface, 2);
        assert_eq!(r.next_hop, Some("10.0.4.1".parse().unwrap()));
    }

    #[test]
    fn empty_db_yields_no_routes() {
        let routes = compute(&BTreeMap::new(), 1, &HashMap::new());
        assert!(routes.is_empty());
    }

    #[test]
    fn equal_cost_picks_deterministically() {
        // Two equal paths; result must be stable across runs.
        let mut db = BTreeMap::new();
        db.insert(1, rlsa(1, &[(2, 10, 1), (3, 10, 2)], &[]));
        db.insert(2, rlsa(2, &[(1, 10, 3), (4, 10, 4)], &[]));
        db.insert(3, rlsa(3, &[(1, 10, 5), (4, 10, 6)], &[]));
        db.insert(
            4,
            rlsa(
                4,
                &[(2, 10, 7), (3, 10, 8)],
                &[(ip("172.16.4.0"), ip("255.255.255.0"), 1)],
            ),
        );
        let mut adj = HashMap::new();
        adj.insert(2u32, (1u16, "10.0.0.2".parse::<Ipv4Addr>().unwrap()));
        adj.insert(3u32, (2u16, "10.0.0.3".parse::<Ipv4Addr>().unwrap()));
        let a = compute(&db, 1, &adj);
        let b = compute(&db, 1, &adj);
        assert_eq!(a, b);
        assert_eq!(a.iter().filter(|r| r.prefix.prefix_len == 24).count(), 1);
    }
}
