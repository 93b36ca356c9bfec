//! Determinism allow-list: which non-shim source files may mention
//! `HashMap` / `HashSet` at all. The default hasher is seeded per
//! process, so iterating one of these on a path that emits events,
//! messages or report bytes makes runs differ across processes — PR 10's
//! cross-process nondeterminism was exactly that. Every file below was
//! read and carries the reason it is safe; a file that starts using one
//! fails here until it is reviewed and listed, and a listed file that
//! stops must be struck, so the list only shrinks.

use std::path::{Path, PathBuf};

/// Sorted by path. "lookup-only" means the map is only probed by key
/// (`get` / `insert` / `remove` / `contains_key` / `entry` / `len`, or an
/// order-independent `retain`) and never iterated.
const ALLOWED: &[(&str, &str)] = &[
    (
        "crates/core/src/apps/bus.rs",
        "lookup-only: port_peer / hosts / installed / dpid_of; port_peer's one retain emits nothing",
    ),
    (
        "crates/core/src/apps/engine.rs",
        "lookup-only: per-connection readers and dpids",
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
