//! Determinism allow-list: which non-shim source files may mention
//! `HashMap` / `HashSet` at all. The default hasher is seeded per
//! process, so iterating one of these on a path that emits events,
//! messages or report bytes makes runs differ across processes — PR 10's
//! cross-process nondeterminism was exactly that. Every file below was
//! read and carries the reason it is safe; a file that starts using one
//! fails here until it is reviewed and listed, and a listed file that
//! stops must be struck, so the list only shrinks. Within a listed
//! file, the "lookup-only" reason is checked too: no name bound to a
//! `HashMap` / `HashSet` there may be iterated. `ControlState`'s maps
//! are bound in one file and used in the stages' files, so those are
//! checked for iterating one through `state.<field>`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Sorted by path. "lookup-only" means the map is only probed by key
/// (`get` / `insert` / `remove` / `contains_key` / `entry` / `len`, or an
/// order-independent `retain`) and never iterated — which
/// `allow_listed_hash_collections_are_never_iterated` checks.
const ALLOWED: &[(&str, &str)] = &[
    (
        "crates/core/src/apps/channel.rs",
        "lookup-only: dpid_of, the connection of each switch's channel",
    ),
    (
        "crates/core/src/apps/engine.rs",
        "lookup-only: per-connection readers and dpids",
    ),
    (
        "crates/core/src/apps/state.rs",
        "lookup-only: ControlState's port_peer / hosts / installed, which no stage iterates \
         through `state.` (their order-independent retains emit nothing)",
    ),
    (
        "crates/core/src/chaos/invariants.rs",
        "lookup-only: subnet owners, filled from the link list and probed by prefix",
    ),
    (
        "crates/routed/src/ospf/daemon.rs",
        "lookup-only: the adjacency map handed to SPF, filled in ascending ifindex order",
    ),
    (
        "crates/routed/src/ospf/spf.rs",
        "lookup-only: the adjacency map, probed once per reachable router; routes are emitted in prefix order",
    ),
    (
        "crates/sim/src/kernel.rs",
        "lookup-only: listeners; the kill-path retain emits nothing",
    ),
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn hash_collections_stay_on_the_reviewed_allow_list() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let krate = krate.expect("readable directory entry").path();
        if krate.file_name().is_some_and(|n| n != "shims") {
            rust_files(&krate.join("src"), &mut files);
        }
    }
    let mut using: Vec<String> = files
        .iter()
        .filter(|path| {
            let text = std::fs::read_to_string(path).expect("source file is UTF-8");
            text.contains("HashMap") || text.contains("HashSet")
        })
        .map(|path| {
            let rel = path.strip_prefix(root).expect("walked from the root");
            rel.to_string_lossy().into_owned()
        })
        .collect();
    using.sort();
    let allowed: Vec<&str> = ALLOWED.iter().map(|(path, _)| *path).collect();
    let unlisted: Vec<&String> = using
        .iter()
        .filter(|f| !allowed.contains(&f.as_str()))
        .collect();
    assert!(
        unlisted.is_empty(),
        "new HashMap/HashSet users — use a BTreeMap, or review the iteration and list the file: {unlisted:?}"
    );
    let stale: Vec<&&str> = allowed
        .iter()
        .filter(|a| !using.iter().any(|f| f == *a))
        .collect();
    assert!(
        stale.is_empty(),
        "no longer use HashMap/HashSet — strike them from ALLOWED: {stale:?}"
    );
    assert_eq!(using, allowed, "ALLOWED must stay sorted by path");
    assert!(ALLOWED.iter().all(|(_, reason)| !reason.is_empty()));
}

/// Calls that walk a collection in its (per-process, for a hash
/// collection) storage order.
const ITERATING: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".values()",
    ".values_mut()",
    ".keys()",
    ".into_keys()",
    ".into_values()",
    ".drain()",
    ".into_iter()",
];

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The names a file binds to a `HashMap` / `HashSet`: fields, params
/// and annotated locals (`name: [&[mut ]]HashMap<..>`) and locals or
/// fields built from one (`name = HashMap::new()`).
fn hash_bound_names(text: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for line in text.lines() {
        let code = line.trim_start();
        if code.starts_with("//") || code.starts_with("use ") {
            continue;
        }
        for kind in ["HashMap", "HashSet"] {
            for (at, _) in line.match_indices(kind) {
                let before = line[..at].trim_end_matches("std::collections::").trim_end();
                let before = before
                    .strip_suffix("&mut")
                    .or_else(|| before.strip_suffix('&'))
                    .unwrap_or(before)
                    .trim_end();
                let Some(binder) = before
                    .strip_suffix(':')
                    .or_else(|| before.strip_suffix('='))
                else {
                    continue;
                };
                let binder = binder.trim_end();
                let start = binder.rfind(|c| !is_ident(c)).map_or(0, |i| i + 1);
                let name = &binder[start..];
                if !name.is_empty() && !name.starts_with(|c: char| c.is_ascii_digit()) {
                    names.insert(name.to_string());
                }
            }
        }
    }
    names
}

/// Every place `text` iterates one of `names`: an [`ITERATING`] call
/// on it (whitespace, line breaks included, may sit before the dot),
/// or a `for .. in [&[mut ]][path.]name` loop. As `(line, name, how)`.
/// With `through`, only a name reached as a field of it counts
/// (`cx.state.hosts`, `state\n    .hosts`).
fn iterations(
    text: &str,
    names: &BTreeSet<String>,
    through: Option<&str>,
) -> Vec<(usize, String, String)> {
    let mut found = Vec::new();
    for name in names {
        for (at, _) in text.match_indices(name.as_str()) {
            let end = at + name.len();
            let bounded = !text[..at].ends_with(is_ident) && !text[end..].starts_with(is_ident);
            let reached = through.is_none_or(|owner| {
                text[..at]
                    .trim_end()
                    .strip_suffix('.')
                    .and_then(|path| path.trim_end().strip_suffix(owner))
                    .is_some_and(|path| !path.ends_with(is_ident))
            });
            if !bounded || !reached {
                continue;
            }
            let line = text[..at].matches('\n').count() + 1;
            let after = text[end..].trim_start();
            if let Some(call) = ITERATING.iter().find(|c| after.starts_with(**c)) {
                found.push((line, name.clone(), call.to_string()));
                continue;
            }
            // `for x in &self.name {`: walk back over the path and the
            // borrow to the `in` keyword.
            let path = text[..at].trim_end_matches(|c: char| is_ident(c) || c == '.');
            let borrow = path.trim_end();
            let borrow = borrow
                .strip_suffix("&mut")
                .or_else(|| borrow.strip_suffix('&'))
                .unwrap_or(borrow)
                .trim_end();
            let looped = borrow
                .strip_suffix("in")
                .is_some_and(|b| b.ends_with(char::is_whitespace));
            if looped && !after.starts_with(['.', '(', '[']) {
                found.push((line, name.clone(), "for .. in".to_string()));
            }
        }
    }
    found.sort();
    found
}

#[test]
fn the_iteration_lint_sees_loops_and_walks_but_not_lookups() {
    let src = "\
use std::collections::HashMap;
/// A `HashMap` in a comment binds nothing.
struct S {
    pub(crate) peers: HashMap<u64, u64>,
    by_port: &mut std::collections::HashSet<u16>,
}
fn f(s: &S, routes: Vec<u32>) {
    let mut seen = HashSet::new();
    let n = compute(&HashMap::new());
    for (k, v) in &s.peers {}
    let total: u64 = s
        .peers
        .values()
        .sum();
    for r in &routes {}
    for p in s.by_port.get(&1) {}
    seen.insert(1);
    let peers_len = s.peers.len();
}
";
    let names = hash_bound_names(src);
    assert_eq!(
        names.iter().map(String::as_str).collect::<Vec<_>>(),
        ["by_port", "peers", "seen"]
    );
    let found = iterations(src, &names, None);
    assert_eq!(
        found,
        [
            (10, "peers".to_string(), "for .. in".to_string()),
            (12, "peers".to_string(), ".values()".to_string()),
        ]
    );
    let through = "\
fn g(cx: &mut Cx, hosts: Vec<u32>) {
    for h in &cx.state.hosts {}
    let n = cx
        .state
        .hosts
        .keys()
        .count();
    cx.state.hosts.retain(|_, h| h.0 != 1);
    for h in &hosts {}
    let m = other_state.hosts.iter();
}
";
    let fields = BTreeSet::from(["hosts".to_string()]);
    assert_eq!(
        iterations(through, &fields, Some("state")),
        [
            (2, "hosts".to_string(), "for .. in".to_string()),
            (5, "hosts".to_string(), ".keys()".to_string()),
        ]
    );
}

#[test]
fn allow_listed_hash_collections_are_never_iterated() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = Vec::new();
    for (path, _) in ALLOWED {
        let text = std::fs::read_to_string(root.join(path)).expect("source file is UTF-8");
        let names = hash_bound_names(&text);
        assert!(
            !names.is_empty(),
            "{path} is allow-listed but binds no HashMap/HashSet name the lint can see"
        );
        for (line, name, how) in iterations(&text, &names, None) {
            found.push(format!("{path}:{line}: `{how}` over `{name}`"));
        }
    }
    assert!(
        found.is_empty(),
        "a hash collection's order is per-process — iterate a BTreeMap, or sort first: {found:#?}"
    );
}

/// The file that holds `ControlState`, whose hash maps every stage
/// reaches through `cx.state`.
const CONTROL_STATE: &str = "crates/core/src/apps/state.rs";

/// A `ControlState` map bound in one file and iterated in another is
/// out of the per-file check's sight: no stage may iterate one
/// through `state.<field>`.
#[test]
fn control_state_maps_are_never_iterated_through_state() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join(CONTROL_STATE)).expect("source file is UTF-8");
    assert!(
        text.contains("pub struct ControlState"),
        "{CONTROL_STATE} holds ControlState"
    );
    let fields = hash_bound_names(&text);
    for field in ["port_peer", "hosts", "installed"] {
        assert!(
            fields.contains(field),
            "the lint sees ControlState::{field}"
        );
    }
    let mut files = Vec::new();
    rust_files(&root.join("crates/core/src/apps"), &mut files);
    files.sort();
    let mut found = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("source file is UTF-8");
        let rel = path
            .strip_prefix(root)
            .expect("walked from the root")
            .display();
        for (line, name, how) in iterations(&text, &fields, Some("state")) {
            found.push(format!("{rel}:{line}: `{how}` over `state.{name}`"));
        }
    }
    assert!(
        found.is_empty(),
        "a hash collection's order is per-process — iterate a BTreeMap, or sort first: {found:#?}"
    );
}
