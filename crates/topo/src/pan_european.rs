//! The 28-node pan-European reference network.
//!
//! The paper's demonstration (Section 3) streams video across "a pan
//! European topology \[5\] consisting of 28 nodes", citing Maesschalck et
//! al., *Pan-European optical transport networks: an availability-based
//! comparison* (2003) — the COST 266 reference networks. We encode a
//! 28-city / 41-link basic-topology variant with real coordinates;
//! minor edge-list differences from the (print-only) original do not
//! affect the reproduction, which only relies on "28 nodes, ~41 links,
//! connected, European-scale latencies".

use crate::graph::Topology;

/// City list: `(name, longitude, latitude)`.
pub const CITIES: [(&str, f64, f64); 28] = [
    ("Amsterdam", 4.90, 52.37),
    ("Athens", 23.73, 37.98),
    ("Barcelona", 2.17, 41.39),
    ("Belgrade", 20.46, 44.80),
    ("Berlin", 13.40, 52.52),
    ("Bordeaux", -0.58, 44.84),
    ("Brussels", 4.35, 50.85),
    ("Budapest", 19.04, 47.50),
    ("Copenhagen", 12.57, 55.69),
    ("Dublin", -6.26, 53.35),
    ("Dusseldorf", 6.78, 51.23),
    ("Frankfurt", 8.68, 50.11),
    ("Glasgow", -4.25, 55.86),
    ("Hamburg", 9.99, 53.55),
    ("Krakow", 19.94, 50.06),
    ("London", -0.13, 51.51),
    ("Lyon", 4.84, 45.76),
    ("Madrid", -3.70, 40.42),
    ("Milan", 9.19, 45.46),
    ("Munich", 11.58, 48.14),
    ("Oslo", 10.75, 59.91),
    ("Paris", 2.35, 48.86),
    ("Prague", 14.44, 50.08),
    ("Rome", 12.50, 41.90),
    ("Stockholm", 18.07, 59.33),
    ("Strasbourg", 7.75, 48.58),
    ("Vienna", 16.37, 48.21),
    ("Zurich", 8.54, 47.37),
];

/// The 41 links, by indices into [`CITIES`].
pub const LINKS: [(usize, usize); 41] = [
    (0, 6),   // Amsterdam–Brussels
    (0, 12),  // Amsterdam–Glasgow
    (0, 13),  // Amsterdam–Hamburg
    (0, 15),  // Amsterdam–London
    (1, 3),   // Athens–Belgrade
    (1, 23),  // Athens–Rome
    (1, 18),  // Athens–Milan
    (2, 17),  // Barcelona–Madrid
    (2, 16),  // Barcelona–Lyon
    (3, 7),   // Belgrade–Budapest
    (3, 26),  // Belgrade–Vienna
    (4, 8),   // Berlin–Copenhagen
    (4, 13),  // Berlin–Hamburg
    (4, 19),  // Berlin–Munich
    (4, 22),  // Berlin–Prague
    (5, 17),  // Bordeaux–Madrid
    (5, 21),  // Bordeaux–Paris
    (6, 10),  // Brussels–Dusseldorf
    (6, 21),  // Brussels–Paris
    (7, 14),  // Budapest–Krakow
    (7, 22),  // Budapest–Prague
    (8, 20),  // Copenhagen–Oslo
    (8, 24),  // Copenhagen–Stockholm
    (9, 12),  // Dublin–Glasgow
    (9, 15),  // Dublin–London
    (10, 11), // Dusseldorf–Frankfurt
    (11, 13), // Frankfurt–Hamburg
    (11, 19), // Frankfurt–Munich
    (11, 25), // Frankfurt–Strasbourg
    (14, 26), // Krakow–Vienna
    (15, 21), // London–Paris
    (16, 21), // Lyon–Paris
    (16, 27), // Lyon–Zurich
    (18, 19), // Milan–Munich
    (18, 23), // Milan–Rome
    (18, 27), // Milan–Zurich
    (19, 26), // Munich–Vienna
    (20, 24), // Oslo–Stockholm
    (21, 25), // Paris–Strasbourg
    (22, 26), // Prague–Vienna
    (25, 27), // Strasbourg–Zurich
];

/// Build the pan-European topology.
pub fn pan_european() -> Topology {
    let mut t = Topology::new();
    for (name, lon, lat) in CITIES {
        t.add_node(name, (lon, lat));
    }
    for (a, b) in LINKS {
        t.add_edge(a, b);
    }
    t
}

/// Propagation latency for an edge, assuming fiber at ~200 km per
/// millisecond and a 1.4 routing detour factor over great-circle
/// distance (standard for terrestrial fiber planning).
pub fn link_latency_us(t: &Topology, a: usize, b: usize) -> u64 {
    let km = t.geo_distance_km(a, b) * 1.4;
    (km / 200.0 * 1000.0).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_28_nodes_and_41_links() {
        let t = pan_european();
        assert_eq!(t.node_count(), 28);
        assert_eq!(t.edge_count(), 41);
    }

    #[test]
    fn is_connected_with_modest_diameter() {
        let t = pan_european();
        assert!(t.is_connected());
        let d = t.diameter().unwrap();
        assert!((4..=9).contains(&d), "diameter {d} out of expected band");
    }

    #[test]
    fn degrees_are_realistic() {
        let t = pan_european();
        for (id, info) in t.nodes() {
            let d = t.degree(id);
            assert!((2..=5).contains(&d), "{} has degree {d}", info.name);
        }
        // Handshake lemma.
        let sum: usize = (0..t.node_count()).map(|n| t.degree(n)).sum();
        assert_eq!(sum, 2 * t.edge_count());
    }

    #[test]
    fn city_names_unique() {
        let t = pan_european();
        let mut names: Vec<&str> = t.nodes().map(|(_, i)| i.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 28);
    }

    #[test]
    fn latencies_in_european_band() {
        let t = pan_european();
        for e in t.edges() {
            let us = link_latency_us(&t, e.a, e.b);
            // 100 km .. 3000 km of fiber → 0.5 .. 21 ms one-way.
            assert!(
                (500..=21_000).contains(&us),
                "{}–{}: {us} µs",
                t.node(e.a).name,
                t.node(e.b).name
            );
        }
    }

    #[test]
    fn london_paris_edge_exists_and_short() {
        let t = pan_european();
        let london = t.nodes().find(|(_, i)| i.name == "London").unwrap().0;
        let paris = t.nodes().find(|(_, i)| i.name == "Paris").unwrap().0;
        assert!(t.has_edge(london, paris));
        let us = link_latency_us(&t, london, paris);
        assert!((1_000..=4_000).contains(&us), "{us} µs");
    }

    #[test]
    fn farthest_pair_spans_continent() {
        let t = pan_european();
        let (a, b) = t.farthest_pair().unwrap();
        let hops = t.bfs_distances(a)[b];
        assert!(hops >= 4, "expected a long path, got {hops} hops");
    }
}
