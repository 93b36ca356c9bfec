//! Named topology resolution for sweep grids.
//!
//! A scenario matrix is keyed by strings so its report diffs cleanly
//! and its axes can come from a CLI flag or a CI config. The grammar
//! and the builders live in [`crate::spec::TopoSpec`]; this module is
//! the thin string-keyed front door: [`try_resolve`] parses and builds
//! with a typed error naming the offending token.
//!
//! Every family is reachable by name, including the seeded random
//! graphs (`er-64-s7`, `waxman-64-s7`), the datacenter fabrics
//! (`fat-tree-k8`, `leaf-spine-4x16x2`) and the checked-in WAN corpus
//! (bare slugs like `abilene`, `geant`).

use crate::graph::Topology;
use crate::spec::{TopoParseError, TopoSpec};

/// Resolve a topology name, with a typed error describing what part
/// of the name was malformed or out of range.
pub fn try_resolve(name: &str) -> Result<Topology, TopoParseError> {
    name.parse::<TopoSpec>().map(|spec| spec.build())
}

/// The names a generic sweep CLI offers, smallest instances first.
pub fn standard_names() -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for n in [4usize, 8, 16, 28] {
        names.push(format!("ring-{n}"));
    }
    names.push("line-8".into());
    names.push("star-8".into());
    names.push("grid-4x4".into());
    names.push("pan-european".into());
    names.push("abilene".into());
    names.push("fat-tree-k4".into());
    names.push("leaf-spine-4x8x0".into());
    names.push("er-24-s1".into());
    names.push("waxman-24-s1".into());
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_every_family() {
        assert_eq!(try_resolve("ring-8").unwrap().node_count(), 8);
        assert_eq!(try_resolve("line-5").unwrap().node_count(), 5);
        assert_eq!(try_resolve("star-9").unwrap().node_count(), 9);
        assert_eq!(try_resolve("mesh-4").unwrap().edge_count(), 6);
        let g = try_resolve("grid-3x2").unwrap();
        assert_eq!(g.node_count(), 6);
        assert_eq!(try_resolve("pan-european").unwrap().node_count(), 28);
        // Families the registry could not reach before the TopoSpec
        // redesign: datacenter fabrics, seeded randoms, the corpus.
        assert_eq!(try_resolve("fat-tree-k4").unwrap().node_count(), 20);
        assert_eq!(try_resolve("leaf-spine-2x4x1").unwrap().node_count(), 10);
        assert!(try_resolve("er-24-s1").unwrap().is_connected());
        assert!(try_resolve("waxman-24-s1").unwrap().is_connected());
        assert_eq!(try_resolve("abilene").unwrap().node_count(), 11);
    }

    #[test]
    fn rejects_unknown_and_out_of_range() {
        assert!(try_resolve("torus-4").is_err());
        assert!(try_resolve("ring-2").is_err()); // generator needs >= 3
        assert!(try_resolve("ring-x").is_err());
        assert!(try_resolve("ring-4000000").is_err());
        assert!(try_resolve("grid-3").is_err()); // missing WxH
        assert!(try_resolve("ring").is_err());
    }

    #[test]
    fn try_resolve_names_the_offending_token() {
        let e = try_resolve("grid-4x").unwrap_err();
        assert_eq!(e.name, "grid-4x");
        let e = try_resolve("ring-x").unwrap_err();
        assert_eq!(e.token, "x");
    }

    #[test]
    fn standard_names_all_resolve() {
        for name in standard_names() {
            assert!(try_resolve(&name).is_ok(), "{name} must resolve");
        }
    }
}
