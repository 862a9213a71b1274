//! Knob inventory: the `C3_*` environment variables the workspace reads
//! are exactly the rows of `docs/KNOBS.md`, so a knob cannot be added or
//! removed without its doc row.

use std::collections::BTreeSet;
use std::path::Path;

/// Every `C3_*` name passed as a string literal to `std::env::var` (or
/// `var_os`) in the Rust sources under `dir`.
fn knobs_read(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            knobs_read(&path, out);
            continue;
        }
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("readable source file");
        for call in ["env::var(", "env::var_os("] {
            for (at, _) in src.match_indices(call) {
                let arg = src[at + call.len()..].trim_start();
                if let Some(rest) = arg.strip_prefix("\"C3_") {
                    let end = rest.find('"').expect("a closed string literal");
                    out.insert(format!("C3_{}", &rest[..end]));
                }
            }
        }
    }
}

#[test]
fn knobs_read_in_crate_sources_are_exactly_the_doc_rows() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut read = BTreeSet::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            knobs_read(&src, &mut read);
        }
    }
    let doc = std::fs::read_to_string(root.join("docs/KNOBS.md")).expect("docs/KNOBS.md");
    let rows: Vec<&str> = doc
        .lines()
        .filter_map(|l| l.strip_prefix("| `C3_"))
        .map(|rest| &rest[..rest.find('`').expect("a closed knob name")])
        .collect();
    let documented: BTreeSet<String> = rows.iter().map(|r| format!("C3_{r}")).collect();
    assert_eq!(documented.len(), rows.len(), "a knob has two rows in docs/KNOBS.md");
    assert_eq!(read, documented, "docs/KNOBS.md rows vs std::env::var reads under crates/*/src");
}
