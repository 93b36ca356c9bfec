//! Checked-in WAN topology corpus.
//!
//! A compact TopologyZoo-style format, one file per network under
//! `crates/topo/corpus/*.topo`:
//!
//! ```text
//! # free-form comment lines (only at the top)
//! name abilene
//! node Seattle -122.33 47.61
//! node Sunnyvale -122.04 37.37
//! link 0 1
//! ```
//!
//! `node` lines carry a whitespace-free name and a (lon, lat) position
//! in degrees; `link` lines reference nodes by zero-based index in
//! declaration order. Parsing is strict — unknown keywords, bad
//! numbers, out-of-range indices, self-loops and duplicate links are
//! typed errors, not panics — and [`emit`](CorpusFile::emit) regenerates the canonical
//! bytes so every checked-in file round-trips exactly (see the tests).

use crate::graph::Topology;
use std::fmt;

/// All checked-in corpus files, sorted by slug. `include_str!` keeps
/// the loader dependency-free: the corpus travels inside the binary.
static CORPUS: &[(&str, &str)] = &[
    ("aarnet", include_str!("../corpus/aarnet.topo")),
    ("abilene", include_str!("../corpus/abilene.topo")),
    ("ansnet", include_str!("../corpus/ansnet.topo")),
    ("arpanet", include_str!("../corpus/arpanet.topo")),
    ("att-na", include_str!("../corpus/att-na.topo")),
    ("bellcanada", include_str!("../corpus/bellcanada.topo")),
    ("belnet", include_str!("../corpus/belnet.topo")),
    ("bt-europe", include_str!("../corpus/bt-europe.topo")),
    ("canarie", include_str!("../corpus/canarie.topo")),
    ("cernet", include_str!("../corpus/cernet.topo")),
    ("cesnet", include_str!("../corpus/cesnet.topo")),
    ("claranet", include_str!("../corpus/claranet.topo")),
    ("cogent-us", include_str!("../corpus/cogent-us.topo")),
    ("dfn", include_str!("../corpus/dfn.topo")),
    ("ebone", include_str!("../corpus/ebone.topo")),
    ("ernet", include_str!("../corpus/ernet.topo")),
    ("esnet", include_str!("../corpus/esnet.topo")),
    ("funet", include_str!("../corpus/funet.topo")),
    ("garr", include_str!("../corpus/garr.topo")),
    ("geant", include_str!("../corpus/geant.topo")),
    ("grnet", include_str!("../corpus/grnet.topo")),
    ("heanet", include_str!("../corpus/heanet.topo")),
    ("janet", include_str!("../corpus/janet.topo")),
    ("kreonet", include_str!("../corpus/kreonet.topo")),
    ("level3", include_str!("../corpus/level3.topo")),
    ("nordu", include_str!("../corpus/nordu.topo")),
    ("nsfnet", include_str!("../corpus/nsfnet.topo")),
    ("os3e", include_str!("../corpus/os3e.topo")),
    ("pionier", include_str!("../corpus/pionier.topo")),
    ("reannz", include_str!("../corpus/reannz.topo")),
    ("redclara", include_str!("../corpus/redclara.topo")),
    ("rediris", include_str!("../corpus/rediris.topo")),
    ("renater", include_str!("../corpus/renater.topo")),
    ("rnp", include_str!("../corpus/rnp.topo")),
    ("sanet", include_str!("../corpus/sanet.topo")),
    ("sanren", include_str!("../corpus/sanren.topo")),
    ("sinet", include_str!("../corpus/sinet.topo")),
    ("sprint", include_str!("../corpus/sprint.topo")),
    ("sunet", include_str!("../corpus/sunet.topo")),
    ("surfnet", include_str!("../corpus/surfnet.topo")),
    ("switch", include_str!("../corpus/switch.topo")),
    ("tein", include_str!("../corpus/tein.topo")),
    ("uninett", include_str!("../corpus/uninett.topo")),
    ("uunet", include_str!("../corpus/uunet.topo")),
];

/// What went wrong while parsing a `.topo` file. Every variant names
/// the 1-based line and the offending token so malformed files are
/// debuggable from the message alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CorpusError {
    /// First non-comment line was not `name <slug>`.
    MissingName { line: usize },
    /// Slug contains characters outside `[a-z0-9-]`.
    BadSlug { line: usize, slug: String },
    /// Line does not start with a known keyword.
    UnknownKeyword { line: usize, token: String },
    /// Line has the wrong number of fields for its keyword.
    BadArity { line: usize, keyword: &'static str },
    /// A coordinate or index failed to parse.
    BadNumber { line: usize, token: String },
    /// A `link` endpoint is out of range or a self-loop.
    BadEndpoint {
        line: usize,
        index: usize,
        nodes: usize,
    },
    /// The same undirected link appears twice.
    DuplicateLink { line: usize, a: usize, b: usize },
    /// Two `node` lines share a name.
    DuplicateNode { line: usize, name: String },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::MissingName { line } => {
                write!(
                    f,
                    "line {line}: expected `name <slug>` before other records"
                )
            }
            CorpusError::BadSlug { line, slug } => {
                write!(f, "line {line}: slug {slug:?} must match [a-z0-9-]+")
            }
            CorpusError::UnknownKeyword { line, token } => {
                write!(f, "line {line}: unknown keyword {token:?}")
            }
            CorpusError::BadArity { line, keyword } => {
                write!(f, "line {line}: wrong number of fields for `{keyword}`")
            }
            CorpusError::BadNumber { line, token } => {
                write!(f, "line {line}: {token:?} is not a number")
            }
            CorpusError::BadEndpoint { line, index, nodes } => {
                write!(f, "line {line}: endpoint {index} invalid for {nodes} nodes")
            }
            CorpusError::DuplicateLink { line, a, b } => {
                write!(f, "line {line}: duplicate link {a}-{b}")
            }
            CorpusError::DuplicateNode { line, name } => {
                write!(f, "line {line}: duplicate node name {name:?}")
            }
        }
    }
}

impl std::error::Error for CorpusError {}

/// A parsed corpus file: leading comments, the declared slug, and the
/// topology itself. Enough state to [`emit`](CorpusFile::emit) the
/// canonical bytes back.
#[derive(Clone, Debug)]
pub struct CorpusFile {
    /// Top-of-file comment lines, without the `# ` prefix.
    pub comments: Vec<String>,
    /// The slug declared by the `name` line.
    pub name: String,
    pub topology: Topology,
}

impl CorpusFile {
    /// Canonical serialization: comments, `name`, `node` lines in id
    /// order, `link` lines in insertion order, trailing newline.
    /// `emit(parse(f)) == f` holds for every checked-in file.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        for c in &self.comments {
            out.push_str("# ");
            out.push_str(c);
            out.push('\n');
        }
        out.push_str("name ");
        out.push_str(&self.name);
        out.push('\n');
        for (_, info) in self.topology.nodes() {
            let (lon, lat) = info.pos;
            out.push_str(&format!("node {} {} {}\n", info.name, lon, lat));
        }
        for e in self.topology.edges() {
            out.push_str(&format!("link {} {}\n", e.a, e.b));
        }
        out
    }
}

/// Parse one `.topo` file.
pub fn parse(text: &str) -> Result<CorpusFile, CorpusError> {
    let mut comments = Vec::new();
    let mut name: Option<String> = None;
    let mut topo = Topology::new();
    let mut last = 0;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        last = line;
        if raw.trim().is_empty() {
            continue;
        }
        if let Some(rest) = raw.strip_prefix('#') {
            comments.push(rest.strip_prefix(' ').unwrap_or(rest).to_string());
            continue;
        }
        let fields: Vec<&str> = raw.split_whitespace().collect();
        match fields[0] {
            "name" => {
                let [_, slug] = fields[..] else {
                    return Err(CorpusError::BadArity {
                        line,
                        keyword: "name",
                    });
                };
                if slug.is_empty()
                    || !slug
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
                {
                    return Err(CorpusError::BadSlug {
                        line,
                        slug: slug.to_string(),
                    });
                }
                name = Some(slug.to_string());
            }
            "node" => {
                if name.is_none() {
                    return Err(CorpusError::MissingName { line });
                }
                let [_, node_name, lon, lat] = fields[..] else {
                    return Err(CorpusError::BadArity {
                        line,
                        keyword: "node",
                    });
                };
                let coord = |tok: &str| {
                    tok.parse::<f64>().map_err(|_| CorpusError::BadNumber {
                        line,
                        token: tok.to_string(),
                    })
                };
                if topo.nodes().any(|(_, info)| info.name == node_name) {
                    return Err(CorpusError::DuplicateNode {
                        line,
                        name: node_name.to_string(),
                    });
                }
                topo.add_node(node_name, (coord(lon)?, coord(lat)?));
            }
            "link" => {
                if name.is_none() {
                    return Err(CorpusError::MissingName { line });
                }
                let [_, a, b] = fields[..] else {
                    return Err(CorpusError::BadArity {
                        line,
                        keyword: "link",
                    });
                };
                let index = |tok: &str| {
                    tok.parse::<usize>().map_err(|_| CorpusError::BadNumber {
                        line,
                        token: tok.to_string(),
                    })
                };
                let (a, b) = (index(a)?, index(b)?);
                let nodes = topo.node_count();
                for end in [a, b] {
                    if end >= nodes {
                        return Err(CorpusError::BadEndpoint {
                            line,
                            index: end,
                            nodes,
                        });
                    }
                }
                if a == b {
                    return Err(CorpusError::BadEndpoint {
                        line,
                        index: a,
                        nodes,
                    });
                }
                if topo.has_edge(a, b) {
                    return Err(CorpusError::DuplicateLink { line, a, b });
                }
                topo.add_edge(a, b);
            }
            other => {
                return Err(CorpusError::UnknownKeyword {
                    line,
                    token: other.to_string(),
                });
            }
        }
    }
    let name = name.ok_or(CorpusError::MissingName { line: last + 1 })?;
    Ok(CorpusFile {
        comments,
        name,
        topology: topo,
    })
}

/// Slugs of every checked-in network, sorted.
pub fn names() -> Vec<&'static str> {
    CORPUS.iter().map(|&(n, _)| n).collect()
}

/// Raw file bytes for `name`, if checked in.
pub fn raw(name: &str) -> Option<&'static str> {
    CORPUS
        .binary_search_by(|&(n, _)| n.cmp(name))
        .ok()
        .map(|i| CORPUS[i].1)
}

/// Build the named corpus topology. Checked-in files are verified by
/// the test suite, so a present name always parses.
pub fn load(name: &str) -> Option<Topology> {
    raw(name).map(|text| {
        parse(text)
            .unwrap_or_else(|e| panic!("checked-in corpus file {name:?} invalid: {e}"))
            .topology
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_large_sorted_and_connected() {
        assert!(CORPUS.len() >= 40, "corpus has {} files", CORPUS.len());
        for w in CORPUS.windows(2) {
            assert!(w[0].0 < w[1].0, "corpus not sorted at {:?}", w[1].0);
        }
        for &(name, text) in CORPUS {
            let file = parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(file.name, name, "slug must match file name");
            assert!(file.topology.is_connected(), "{name} is disconnected");
            assert!(file.topology.node_count() >= 5, "{name} too small");
        }
    }

    #[test]
    fn every_file_round_trips_byte_exact() {
        for &(name, text) in CORPUS {
            let file = parse(text).unwrap();
            assert_eq!(file.emit(), text, "{name} does not round-trip");
        }
    }

    #[test]
    fn load_and_names_agree() {
        assert_eq!(names().len(), CORPUS.len());
        for name in names() {
            assert!(load(name).is_some());
        }
        assert!(load("atlantis").is_none());
        assert_eq!(raw("abilene").map(|t| t.is_empty()), Some(false));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        let missing = parse("node A 0 0\n").unwrap_err();
        assert!(matches!(missing, CorpusError::MissingName { line: 1 }));

        let bad_slug = parse("name Big_Net\n").unwrap_err();
        assert!(matches!(bad_slug, CorpusError::BadSlug { line: 1, .. }));

        let keyword = parse("name x\nedge 0 1\n").unwrap_err();
        assert_eq!(
            keyword,
            CorpusError::UnknownKeyword {
                line: 2,
                token: "edge".into()
            }
        );

        let arity = parse("name x\nnode A 0\n").unwrap_err();
        assert!(matches!(
            arity,
            CorpusError::BadArity {
                line: 2,
                keyword: "node"
            }
        ));

        let number = parse("name x\nnode A east 0\n").unwrap_err();
        assert_eq!(
            number,
            CorpusError::BadNumber {
                line: 2,
                token: "east".into()
            }
        );

        let range = parse("name x\nnode A 0 0\nlink 0 3\n").unwrap_err();
        assert_eq!(
            range,
            CorpusError::BadEndpoint {
                line: 3,
                index: 3,
                nodes: 1
            }
        );

        let dup = parse("name x\nnode A 0 0\nnode B 1 0\nlink 0 1\nlink 1 0\n").unwrap_err();
        assert_eq!(
            dup,
            CorpusError::DuplicateLink {
                line: 5,
                a: 1,
                b: 0
            }
        );

        let dup_node = parse("name x\nnode A 0 0\nnode A 1 0\n").unwrap_err();
        assert!(matches!(
            dup_node,
            CorpusError::DuplicateNode { line: 3, .. }
        ));

        let empty = parse("# just a comment\n").unwrap_err();
        assert!(matches!(empty, CorpusError::MissingName { .. }));
    }

    #[test]
    fn positions_round_trip_through_f64_display() {
        // The emitter prints positions with `{}`; the authoring rule is
        // that every checked-in coordinate survives parse → Display
        // unchanged (≤2 decimals keeps this trivially true).
        for &(name, text) in CORPUS {
            for line in text.lines().filter(|l| l.starts_with("node ")) {
                let f: Vec<&str> = line.split_whitespace().collect();
                for tok in &f[2..] {
                    let v: f64 = tok.parse().unwrap();
                    assert_eq!(&format!("{v}"), tok, "{name}: {tok}");
                }
            }
        }
    }
}
