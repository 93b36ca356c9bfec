//! Typed topology specifications.
//!
//! [`TopoSpec`] is the typed face of every topology the sweeps can
//! build: the deterministic generator families, the datacenter
//! fabrics, the seeded random families and the checked-in WAN corpus.
//! `Display` and `FromStr` are a lossless round-trip, and the
//! `Display` form of the legacy families is byte-identical to the
//! names sweep grids have always used (`ring-8`, `grid-4x4`,
//! `pan-european`, …) so matrix cell keys — and therefore checked-in
//! baseline reports — do not move.
//!
//! Naming scheme:
//!
//! | spec                                  | name                 |
//! |---------------------------------------|----------------------|
//! | `Ring(8)` / `Line`, `Star`, `Mesh`    | `ring-8`, …          |
//! | `Grid { w: 4, h: 4 }`                 | `grid-4x4`           |
//! | `PanEuropean`                         | `pan-european`       |
//! | `FatTree { k: 8 }`                    | `fat-tree-k8`        |
//! | `LeafSpine { 4, 16, 2 }`              | `leaf-spine-4x16x2`  |
//! | `Seeded { ErdosRenyi, 64, 7 }`        | `er-64-s7`           |
//! | `Seeded { Waxman, 64, 7 }`            | `waxman-64-s7`       |
//! | `Corpus("abilene")`                   | `abilene`            |

use crate::corpus;
use crate::generators::{
    erdos_renyi, fat_tree, full_mesh, grid, leaf_spine, line, ring, star, waxman,
};
use crate::graph::Topology;
use crate::pan_european::pan_european;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::str::FromStr;

/// Node-count ceiling for any parsed spec: a typo like `ring-4000000`
/// must fail fast instead of allocating a city-sized graph.
pub const MAX_NODES: usize = 10_000;

/// Seeded random families are resampled until connected, which is
/// quadratic work per try — cap them well below [`MAX_NODES`].
pub const MAX_SEEDED_NODES: usize = 512;

/// Which random-graph family a [`TopoSpec::Seeded`] draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SeededKind {
    /// Erdős–Rényi G(n, p) with p = 6/n (expected degree ≈ 6, kept
    /// rational so the draw is identical on every platform).
    ErdosRenyi,
    /// Waxman on the unit square with α = 0.9, β = 0.4.
    Waxman,
}

/// A typed, buildable topology description. See the module docs for
/// the name grammar; `Display`/`FromStr` round-trip losslessly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TopoSpec {
    Ring(usize),
    Line(usize),
    Star(usize),
    Mesh(usize),
    Grid {
        w: usize,
        h: usize,
    },
    PanEuropean,
    FatTree {
        k: usize,
    },
    LeafSpine {
        spines: usize,
        leaves: usize,
        hosts_per_leaf: usize,
    },
    Seeded {
        kind: SeededKind,
        n: usize,
        seed: u64,
    },
    /// A checked-in WAN network, by slug. Holds the interned slug from
    /// the corpus table, so a constructed value is always loadable.
    Corpus(&'static str),
}

/// A topology name that failed to parse: the full name, the token
/// that broke it, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopoParseError {
    pub name: String,
    pub token: String,
    pub reason: &'static str,
}

impl fmt::Display for TopoParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid topology name {:?}: {} (at {:?})",
            self.name, self.reason, self.token
        )
    }
}

impl std::error::Error for TopoParseError {}

impl fmt::Display for TopoSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopoSpec::Ring(n) => write!(f, "ring-{n}"),
            TopoSpec::Line(n) => write!(f, "line-{n}"),
            TopoSpec::Star(n) => write!(f, "star-{n}"),
            TopoSpec::Mesh(n) => write!(f, "mesh-{n}"),
            TopoSpec::Grid { w, h } => write!(f, "grid-{w}x{h}"),
            TopoSpec::PanEuropean => write!(f, "pan-european"),
            TopoSpec::FatTree { k } => write!(f, "fat-tree-k{k}"),
            TopoSpec::LeafSpine {
                spines,
                leaves,
                hosts_per_leaf,
            } => write!(f, "leaf-spine-{spines}x{leaves}x{hosts_per_leaf}"),
            TopoSpec::Seeded {
                kind: SeededKind::ErdosRenyi,
                n,
                seed,
            } => write!(f, "er-{n}-s{seed}"),
            TopoSpec::Seeded {
                kind: SeededKind::Waxman,
                n,
                seed,
            } => write!(f, "waxman-{n}-s{seed}"),
            TopoSpec::Corpus(name) => f.write_str(name),
        }
    }
}

impl FromStr for TopoSpec {
    type Err = TopoParseError;

    fn from_str(s: &str) -> Result<TopoSpec, TopoParseError> {
        let err = |reason: &'static str, token: &str| TopoParseError {
            name: s.to_string(),
            token: token.to_string(),
            reason,
        };
        let count = |tok: &str, min: usize| -> Result<usize, TopoParseError> {
            let n: usize = tok.parse().map_err(|_| err("expected a node count", tok))?;
            if n < min {
                return Err(err("parameter below the family minimum", tok));
            }
            if n > MAX_NODES {
                return Err(err("parameter above the 10000-node cap", tok));
            }
            Ok(n)
        };

        if s == "pan-european" {
            return Ok(TopoSpec::PanEuropean);
        }
        if let Some(rest) = s.strip_prefix("fat-tree-k") {
            let k: usize = rest.parse().map_err(|_| err("expected a radix", rest))?;
            if k < 2 || !k.is_multiple_of(2) {
                return Err(err("fat-tree radix must be even and ≥ 2", rest));
            }
            if 5 * k * k / 4 > MAX_NODES {
                return Err(err("fat-tree exceeds the 10000-node cap", rest));
            }
            return Ok(TopoSpec::FatTree { k });
        }
        if let Some(rest) = s.strip_prefix("leaf-spine-") {
            let parts: Vec<&str> = rest.split('x').collect();
            let [sp, lv, h] = parts[..] else {
                return Err(err("expected SPINESxLEAVESxHOSTS", rest));
            };
            let dim =
                |tok: &str, what: &'static str, min: usize| -> Result<usize, TopoParseError> {
                    let n: usize = tok.parse().map_err(|_| err(what, tok))?;
                    if n < min {
                        return Err(err(what, tok));
                    }
                    Ok(n)
                };
            let spines = dim(sp, "need at least 1 spine", 1)?;
            let leaves = dim(lv, "need at least 2 leaves", 2)?;
            let hosts_per_leaf = dim(h, "expected a host count", 0)?;
            if spines + leaves * (1 + hosts_per_leaf) > MAX_NODES {
                return Err(err("leaf-spine exceeds the 10000-node cap", rest));
            }
            return Ok(TopoSpec::LeafSpine {
                spines,
                leaves,
                hosts_per_leaf,
            });
        }
        for (prefix, kind) in [
            ("er-", SeededKind::ErdosRenyi),
            ("waxman-", SeededKind::Waxman),
        ] {
            let Some(rest) = s.strip_prefix(prefix) else {
                continue;
            };
            let Some((n, seed)) = rest.split_once("-s") else {
                return Err(err("expected N-sSEED", rest));
            };
            let n = count(n, 4)?;
            if n > MAX_SEEDED_NODES {
                return Err(err("seeded families cap at 512 nodes", rest));
            }
            let seed: u64 = seed.parse().map_err(|_| err("expected a seed", seed))?;
            return Ok(TopoSpec::Seeded { kind, n, seed });
        }
        for (prefix, build) in [
            ("ring-", TopoSpec::Ring as fn(usize) -> TopoSpec),
            ("line-", TopoSpec::Line),
            ("star-", TopoSpec::Star),
            ("mesh-", TopoSpec::Mesh),
        ] {
            let min = if prefix == "ring-" { 3 } else { 2 };
            if let Some(rest) = s.strip_prefix(prefix) {
                return Ok(build(count(rest, min)?));
            }
        }
        if let Some(rest) = s.strip_prefix("grid-") {
            let Some((w, h)) = rest.split_once('x') else {
                return Err(err("expected WxH", rest));
            };
            let (w, h) = (count(w, 1)?, count(h, 1)?);
            if w * h > MAX_NODES {
                return Err(err("grid exceeds the 10000-node cap", rest));
            }
            return Ok(TopoSpec::Grid { w, h });
        }
        // Bare names fall through to the corpus; intern the slug so a
        // parsed Corpus spec is loadable by construction.
        if let Ok(i) = corpus::names().binary_search(&s) {
            return Ok(TopoSpec::Corpus(corpus::names()[i]));
        }
        Err(err("unknown topology family or corpus slug", s))
    }
}

impl TopoSpec {
    /// Build the topology. Infallible: `FromStr` (and the corpus
    /// interning on `Corpus`) already validated every parameter.
    pub fn build(&self) -> Topology {
        match *self {
            TopoSpec::Ring(n) => ring(n),
            TopoSpec::Line(n) => line(n),
            TopoSpec::Star(n) => star(n),
            TopoSpec::Mesh(n) => full_mesh(n),
            TopoSpec::Grid { w, h } => grid(w, h),
            TopoSpec::PanEuropean => pan_european(),
            TopoSpec::FatTree { k } => fat_tree(k),
            TopoSpec::LeafSpine {
                spines,
                leaves,
                hosts_per_leaf,
            } => leaf_spine(spines, leaves, hosts_per_leaf),
            TopoSpec::Seeded { kind, n, seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                match kind {
                    // p = 6/n keeps the expected degree constant as n
                    // grows and stays free of transcendental math, so
                    // the drawn graph is bit-identical everywhere.
                    SeededKind::ErdosRenyi => erdos_renyi(n, (6.0 / n as f64).min(1.0), &mut rng),
                    SeededKind::Waxman => waxman(n, 0.9, 0.4, &mut rng),
                }
            }
            TopoSpec::Corpus(name) => corpus::load(name).expect("Corpus specs hold interned slugs"),
        }
    }

    /// Node count without building the graph — exact for every
    /// variant (corpus files are counted from their raw bytes). Used
    /// by the sweep scheduler to order cells by expected cost.
    pub fn node_count_estimate(&self) -> usize {
        match *self {
            TopoSpec::Ring(n) | TopoSpec::Line(n) | TopoSpec::Star(n) | TopoSpec::Mesh(n) => n,
            TopoSpec::Grid { w, h } => w * h,
            TopoSpec::PanEuropean => 28,
            TopoSpec::FatTree { k } => 5 * k * k / 4,
            TopoSpec::LeafSpine {
                spines,
                leaves,
                hosts_per_leaf,
            } => spines + leaves * (1 + hosts_per_leaf),
            TopoSpec::Seeded { n, .. } => n,
            TopoSpec::Corpus(name) => corpus::raw(name)
                .expect("Corpus specs hold interned slugs")
                .lines()
                .filter(|l| l.starts_with("node "))
                .count(),
        }
    }

    /// Edge count without building the graph. Exact for every variant
    /// except the seeded random families, which report the expected
    /// value of their draw (Erdős–Rényi at p = 6/n, Waxman roughly
    /// likewise). Together with [`TopoSpec::node_count_estimate`] this
    /// drives the sweep scheduler's cost model — denser graphs flood
    /// more LSAs and carry more probe traffic per simulated second.
    pub fn edge_count_estimate(&self) -> usize {
        match *self {
            TopoSpec::Ring(n) => n,
            TopoSpec::Line(n) | TopoSpec::Star(n) => n - 1,
            TopoSpec::Mesh(n) => n * (n - 1) / 2,
            TopoSpec::Grid { w, h } => 2 * w * h - w - h,
            TopoSpec::PanEuropean => crate::pan_european::LINKS.len(),
            TopoSpec::FatTree { k } => k * k * k / 2,
            TopoSpec::LeafSpine {
                spines,
                leaves,
                hosts_per_leaf,
            } => leaves * (spines + hosts_per_leaf),
            // Expected degree ≈ 6 for both seeded families.
            TopoSpec::Seeded { n, .. } => 3 * n,
            TopoSpec::Corpus(name) => corpus::raw(name)
                .expect("Corpus specs hold interned slugs")
                .lines()
                .filter(|l| l.starts_with("link "))
                .count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(name: &str) -> TopoSpec {
        let spec: TopoSpec = name.parse().unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(spec.to_string(), name, "Display must invert FromStr");
        spec
    }

    #[test]
    fn display_fromstr_round_trip() {
        // Every variant, including each corpus slug.
        let mut names = vec![
            "ring-8".to_string(),
            "line-2".into(),
            "star-9".into(),
            "mesh-4".into(),
            "grid-4x4".into(),
            "pan-european".into(),
            "fat-tree-k8".into(),
            "leaf-spine-4x16x2".into(),
            "leaf-spine-2x4x0".into(),
            "er-64-s7".into(),
            "waxman-24-s0".into(),
        ];
        names.extend(corpus::names().iter().map(|s| s.to_string()));
        for name in names {
            let spec = roundtrip(&name);
            // And the other direction: FromStr must invert Display.
            assert_eq!(spec.to_string().parse::<TopoSpec>().unwrap(), spec);
        }
    }

    #[test]
    fn parse_produces_typed_variants() {
        assert_eq!(roundtrip("ring-8"), TopoSpec::Ring(8));
        assert_eq!(roundtrip("grid-3x2"), TopoSpec::Grid { w: 3, h: 2 });
        assert_eq!(roundtrip("fat-tree-k4"), TopoSpec::FatTree { k: 4 });
        assert_eq!(
            roundtrip("er-64-s7"),
            TopoSpec::Seeded {
                kind: SeededKind::ErdosRenyi,
                n: 64,
                seed: 7
            }
        );
        assert_eq!(roundtrip("abilene"), TopoSpec::Corpus("abilene"));
    }

    #[test]
    fn malformed_names_report_the_offending_token() {
        let cases = [
            ("grid-4x", ""),
            ("ring-x", "x"),
            ("ring-2", "2"),
            ("ring-4000000", "4000000"),
            ("grid-3", "3"),
            ("ring", "ring"),
            ("torus-4", "torus-4"),
            ("fat-tree-k7", "7"),
            ("fat-tree-k200", "200"),
            ("leaf-spine-4x8", "4x8"),
            ("er-64", "64"),
            ("er-1000-s1", "1000-s1"),
            ("waxman-64-sx", "x"),
            ("atlantis", "atlantis"),
        ];
        for (name, token) in cases {
            let e = name.parse::<TopoSpec>().unwrap_err();
            assert_eq!(e.name, name);
            assert_eq!(e.token, token, "token for {name:?}");
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn build_matches_estimate() {
        for name in [
            "ring-8",
            "line-5",
            "star-9",
            "mesh-4",
            "grid-3x2",
            "grid-4x4",
            "pan-european",
            "fat-tree-k4",
            "fat-tree-k8",
            "leaf-spine-2x4x1",
            "leaf-spine-4x16x2",
            "er-24-s1",
            "er-32-s3",
            "waxman-24-s1",
            "abilene",
            "geant",
        ] {
            let spec: TopoSpec = name.parse().unwrap();
            let t = spec.build();
            assert_eq!(
                t.node_count(),
                spec.node_count_estimate(),
                "estimate for {name}"
            );
            if !matches!(spec, TopoSpec::Seeded { .. }) {
                assert_eq!(
                    t.edge_count(),
                    spec.edge_count_estimate(),
                    "edge estimate for {name}"
                );
            }
            assert!(t.is_connected(), "{name} must be connected");
        }
        assert_eq!(
            TopoSpec::FatTree { k: 8 }.node_count_estimate(),
            80,
            "the corpus's headline fat-tree"
        );
        assert_eq!(TopoSpec::Mesh(4).build().edge_count(), 6);
    }

    #[test]
    fn seeded_builds_are_reproducible() {
        let a = roundtrip("er-64-s7").build();
        let b = roundtrip("er-64-s7").build();
        let c = roundtrip("er-64-s8").build();
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.edges(), b.edges(), "same seed must draw the same graph");
        // Different seed, almost surely a different draw.
        assert_ne!(a.edges(), c.edges());
    }

    #[test]
    fn corpus_slugs_do_not_shadow_family_prefixes() {
        // Families are tried before the corpus, so a slug starting
        // with a family prefix would be unreachable (or worse, parse
        // as a malformed family). Keep the namespaces disjoint.
        let prefixes = [
            "ring-",
            "line-",
            "star-",
            "mesh-",
            "grid-",
            "fat-tree-",
            "leaf-spine-",
            "er-",
            "waxman-",
            "pan-european",
        ];
        for slug in corpus::names() {
            for p in prefixes {
                assert!(
                    !slug.starts_with(p),
                    "corpus slug {slug:?} shadows family prefix {p:?}"
                );
            }
        }
    }
}
