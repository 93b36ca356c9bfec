//! The link database: observations, canonicalization and aging.

use rf_sim::Time;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// One endpoint of a link.
pub type EndPoint = (u64, u16); // (dpid, port)

/// A unidirectional observation: a probe from `from` arrived at `to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DirectedLink {
    pub from: EndPoint,
    pub to: EndPoint,
}

/// A canonical undirected link: `a < b` by (dpid, port).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UndirectedLink {
    pub a: EndPoint,
    pub b: EndPoint,
}

impl UndirectedLink {
    pub fn canonical(x: EndPoint, y: EndPoint) -> UndirectedLink {
        if x <= y {
            UndirectedLink { a: x, b: y }
        } else {
            UndirectedLink { a: y, b: x }
        }
    }
}

/// Tracks directed observations, derives undirected link up/down
/// events, and ages out silent links. Everything it returns is in
/// ascending [`UndirectedLink`] order: the order the controller tears
/// links down and sends RPCs in.
#[derive(Clone, Default)]
pub struct LinkDb {
    /// Directed observation → last time a probe confirmed it.
    observations: BTreeMap<DirectedLink, Time>,
    /// Currently-up undirected links.
    up: BTreeSet<UndirectedLink>,
}

impl LinkDb {
    pub fn new() -> LinkDb {
        LinkDb::default()
    }

    /// Record a probe arrival. Returns `Some(link)` if this brought a
    /// new undirected link up.
    ///
    /// A direction seen before only has its time refreshed: every
    /// observation's canonical link is in `up` (each method below keeps
    /// it so), so the insert below would find its link there and return
    /// `None`. That is every probe of a steady network.
    pub fn observe(&mut self, from: EndPoint, to: EndPoint, now: Time) -> Option<UndirectedLink> {
        let seen = DirectedLink { from, to };
        if let Some(last) = self.observations.get_mut(&seen) {
            *last = now;
            return None;
        }
        self.observations.insert(seen, now);
        let link = UndirectedLink::canonical(from, to);
        // NOX-style: a single direction is enough to declare the link
        // (the reverse probe typically confirms within one period).
        self.up.insert(link).then_some(link)
    }

    /// Expire directed observations older than `ttl`; returns
    /// undirected links that went down as a result.
    pub fn expire(&mut self, now: Time, ttl: Duration) -> Vec<UndirectedLink> {
        self.observations.retain(|_, last| now.since(*last) < ttl);
        let mut down = Vec::new();
        self.up.retain(|link| {
            let fwd = DirectedLink {
                from: link.a,
                to: link.b,
            };
            let rev = DirectedLink {
                from: link.b,
                to: link.a,
            };
            let alive =
                self.observations.contains_key(&fwd) || self.observations.contains_key(&rev);
            if !alive {
                down.push(*link);
            }
            alive
        });
        down
    }

    /// Drop everything touching `dpid` (switch departure). Returns the
    /// undirected links removed.
    pub fn remove_switch(&mut self, dpid: u64) -> Vec<UndirectedLink> {
        self.observations
            .retain(|l, _| l.from.0 != dpid && l.to.0 != dpid);
        let mut removed = Vec::new();
        self.up.retain(|link| {
            let hit = link.a.0 == dpid || link.b.0 == dpid;
            if hit {
                removed.push(*link);
            }
            !hit
        });
        removed
    }

    pub fn links(&self) -> Vec<UndirectedLink> {
        self.up.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_brings_link_up() {
        let mut db = LinkDb::new();
        let l = db.observe((1, 2), (2, 1), Time::from_secs(1));
        assert_eq!(
            l,
            Some(UndirectedLink {
                a: (1, 2),
                b: (2, 1)
            })
        );
        // Reverse direction: same undirected link, no new event.
        assert_eq!(db.observe((2, 1), (1, 2), Time::from_secs(1)), None);
        assert_eq!(db.links().len(), 1);
    }

    #[test]
    fn canonicalization_orders_endpoints() {
        let a = UndirectedLink::canonical((5, 1), (2, 9));
        assert_eq!(a.a, (2, 9));
        assert_eq!(a.b, (5, 1));
        assert_eq!(a, UndirectedLink::canonical((2, 9), (5, 1)));
    }

    #[test]
    fn links_expire_without_probes() {
        let mut db = LinkDb::new();
        db.observe((1, 1), (2, 1), Time::from_secs(0));
        db.observe((3, 1), (4, 1), Time::from_secs(9));
        let down = db.expire(Time::from_secs(10), Duration::from_secs(5));
        assert_eq!(down.len(), 1);
        assert_eq!(down[0].a.0, 1);
        assert_eq!(db.links().len(), 1);
    }

    #[test]
    fn one_live_direction_keeps_link_up() {
        let mut db = LinkDb::new();
        db.observe((1, 1), (2, 1), Time::from_secs(0));
        db.observe((2, 1), (1, 1), Time::from_secs(9));
        // Forward observation is stale, reverse is fresh.
        let down = db.expire(Time::from_secs(10), Duration::from_secs(5));
        assert!(down.is_empty());
    }

    #[test]
    fn links_come_back_in_ascending_order() {
        let mut db = LinkDb::new();
        // Observed in an order unrelated to the links' own.
        let seen = [
            (9, 1, 2, 3),
            (1, 2, 9, 2),
            (4, 1, 3, 1),
            (2, 1, 1, 1),
            (9, 3, 5, 1),
        ];
        for (from, fp, to, tp) in seen {
            db.observe((from, fp), (to, tp), Time::from_secs(1));
        }
        let ascending = |links: &[UndirectedLink]| links.windows(2).all(|w| w[0] < w[1]);
        let links = db.links();
        assert_eq!(links.len(), 5);
        assert!(ascending(&links), "{links:?}");
        let removed = db.clone().remove_switch(9);
        assert_eq!(removed.len(), 3);
        assert!(ascending(&removed), "{removed:?}");
        let down = db.expire(Time::from_secs(10), Duration::from_secs(5));
        assert_eq!(down, links);
    }

    /// `observe` as it was before the refresh fast path: always the
    /// insert.
    fn observe_by_insert(
        db: &mut LinkDb,
        from: EndPoint,
        to: EndPoint,
        now: Time,
    ) -> Option<UndirectedLink> {
        db.observations.insert(DirectedLink { from, to }, now);
        let link = UndirectedLink::canonical(from, to);
        db.up.insert(link).then_some(link)
    }

    /// The fast path's premise and its result, over random sequences of
    /// observations (self-loops and both directions included), expiries
    /// and switch departures on a few endpoints: after every step each
    /// observation's canonical link is up, and the database answers and
    /// ends exactly as one whose `observe` always inserts.
    #[test]
    fn every_observation_keeps_its_link_up() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let ttl = Duration::from_secs(3);
        let (mut refreshed, mut brought_up) = (0, 0);
        for seed in 0..50 {
            let mut rng = StdRng::seed_from_u64(seed);
            let endpoint = |rng: &mut StdRng| (rng.gen_range(1..4u64), rng.gen_range(1..3u16));
            let (mut db, mut model) = (LinkDb::new(), LinkDb::new());
            let mut now = Time::ZERO;
            for step in 0..400 {
                now += Duration::from_millis(rng.gen_range(0..500u64));
                match rng.gen_range(0..20u32) {
                    0 | 1 => {
                        let got = db.expire(now, ttl);
                        assert_eq!(got, model.expire(now, ttl), "seed {seed} step {step}");
                    }
                    2 => {
                        let dpid = rng.gen_range(1..4u64);
                        let got = db.remove_switch(dpid);
                        assert_eq!(got, model.remove_switch(dpid), "seed {seed} step {step}");
                    }
                    _ => {
                        let (from, to) = (endpoint(&mut rng), endpoint(&mut rng));
                        if db.observations.contains_key(&DirectedLink { from, to }) {
                            refreshed += 1;
                        }
                        let got = db.observe(from, to, now);
                        brought_up += usize::from(got.is_some());
                        let want = observe_by_insert(&mut model, from, to, now);
                        assert_eq!(got, want, "seed {seed} step {step}");
                    }
                }
                for seen in db.observations.keys() {
                    let link = UndirectedLink::canonical(seen.from, seen.to);
                    assert!(db.up.contains(&link), "seed {seed} step {step}: {seen:?}");
                }
                assert_eq!(
                    db.observations, model.observations,
                    "seed {seed} step {step}"
                );
                assert_eq!(db.up, model.up, "seed {seed} step {step}");
            }
        }
        // Both paths ran, many times.
        assert!(
            refreshed > 4000 && brought_up > 4000,
            "{refreshed} refreshed, {brought_up} up"
        );
    }

    #[test]
    fn remove_switch_tears_down_its_links() {
        let mut db = LinkDb::new();
        db.observe((1, 1), (2, 1), Time::ZERO);
        db.observe((2, 2), (3, 1), Time::ZERO);
        db.observe((3, 2), (4, 1), Time::ZERO);
        let removed = db.remove_switch(2);
        assert_eq!(removed.len(), 2);
        assert_eq!(db.links().len(), 1);
        assert_eq!(db.links()[0], UndirectedLink::canonical((3, 2), (4, 1)));
    }
}
