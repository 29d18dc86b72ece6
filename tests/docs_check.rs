//! Keeps the architecture documentation honest.
//!
//! ARCHITECTURE.md names crates and test files by path; this test fails
//! the build when a named path stops existing (doc rot) or a workspace
//! crate is missing from the document (coverage rot), and checks that
//! README links to both ARCHITECTURE.md and docs/PROTOCOL.md.
//!
//! It also machine-checks the code names the two documents use: every
//! backticked CamelCase, `path::qualified`, `call()`-style or `macro!`
//! identifier in README.md and ARCHITECTURE.md must resolve to a `pub`
//! item, enum variant or `pub` field defined in the workspace sources,
//! and every name in ARCHITECTURE.md's crate table must also be used
//! somewhere other than where it is defined.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(repo_root().join(rel))
        .unwrap_or_else(|e| panic!("{rel} must exist: {e}"))
}

/// Every `crates/...` path-like token in the text. Trailing punctuation
/// and markdown syntax are trimmed; `crates/<name>` placeholders are
/// skipped.
fn named_crate_paths(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for raw in text.split(|c: char| c.is_whitespace() || "()[]|`\"',".contains(c)) {
        let Some(rest) = raw.strip_prefix("crates/") else { continue };
        let rest = rest.trim_end_matches(|c: char| !c.is_alphanumeric());
        if rest.is_empty() || rest.contains('<') {
            continue;
        }
        // A path may point into a crate (crates/service/src/wal.rs);
        // existence of the full path is what's claimed.
        out.insert(format!("crates/{rest}"));
    }
    out
}

#[test]
fn architecture_md_names_only_real_paths_and_every_crate() {
    let arch = read("ARCHITECTURE.md");

    let named = named_crate_paths(&arch);
    assert!(!named.is_empty(), "ARCHITECTURE.md no longer names any crates/ paths");
    for path in &named {
        assert!(
            repo_root().join(path).exists(),
            "ARCHITECTURE.md names {path}, which does not exist — update the doc"
        );
    }

    // Coverage: every workspace member must appear. Vendor stand-ins
    // count as covered by naming their subdirectory.
    let manifest = read("Cargo.toml");
    for line in manifest.lines() {
        let line = line.trim().trim_start_matches('"');
        let Some(member) = line.strip_prefix("crates/") else { continue };
        let member = member.trim_end_matches(|c: char| !c.is_alphanumeric() && c != '/');
        let member = format!("crates/{member}");
        assert!(
            named.iter().any(|n| *n == member || n.starts_with(&format!("{member}/"))),
            "workspace member {member} is not named in ARCHITECTURE.md — document it"
        );
    }

    // The docs that ARCHITECTURE.md delegates to must exist too.
    for rel in ["docs/PROTOCOL.md", "README.md", "tests/docs_check.rs"] {
        assert!(arch.contains(rel), "ARCHITECTURE.md must reference {rel}");
        assert!(repo_root().join(rel).exists(), "{rel} must exist");
    }
}

#[test]
fn readme_links_the_architecture_and_protocol_docs() {
    let readme = read("README.md");
    for rel in ["ARCHITECTURE.md", "docs/PROTOCOL.md"] {
        assert!(readme.contains(&format!("({rel})")), "README.md must markdown-link {rel}");
        assert!(repo_root().join(rel).exists(), "{rel} must exist");
    }
}

/// Standard-library names the documents use without a workspace
/// definition: `Arc`-shared epoch views, the `Acquire` load of a lookup,
/// the `OnceLock` hierarchy cache, `AtomicU64` histogram buckets and the
/// `eprintln!`s that structured logging replaced.
const STD_NAMES: &[&str] = &["Acquire", "Arc", "AtomicU64", "OnceLock", "eprintln"];

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The leading identifier of `s` (possibly empty).
fn ident_prefix(s: &str) -> &str {
    let end = s.find(|c: char| !is_ident_char(c)).unwrap_or(s.len());
    &s[..end]
}

/// Every file below `dir` (recursively, build output skipped) that
/// `keep` accepts.
fn files(dir: &Path, keep: &dyn Fn(&Path) -> bool, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                files(&path, keep, out);
            }
        } else if keep(&path) {
            out.push(path);
        }
    }
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    files(dir, &|p| p.extension().is_some_and(|e| e == "rs"), out);
}

/// Library sources: every `src` tree under `crates/` plus the facade's.
fn library_sources() -> Vec<PathBuf> {
    let mut out = Vec::new();
    rust_files(&repo_root().join("src"), &mut out);
    let mut crates = Vec::new();
    rust_files(&repo_root().join("crates"), &mut crates);
    out.extend(crates.into_iter().filter(|p| p.components().any(|c| c.as_os_str() == "src")));
    out
}

/// Public names defined in one source file: `pub` items and fields,
/// variants of `pub` enums, members of `pub` traits, and `macro_rules!`
/// macros. Relies on rustfmt's layout (one item per line, bodies closed
/// at the opening line's indentation).
fn defined_names(text: &str) -> BTreeSet<String> {
    const ITEM_KEYWORDS: &[&str] =
        &["fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union"];
    let mut out = BTreeSet::new();
    // (indentation, is_enum) of the `pub enum` / `pub trait` body being read.
    let mut body: Option<(usize, bool)> = None;
    for line in text.lines() {
        let t = line.trim_start();
        let indent = line.len() - t.len();
        if let Some((at, is_enum)) = body {
            if indent == at && t.starts_with('}') {
                body = None;
            } else if indent == at + 4 {
                let member = if is_enum {
                    Some(t).filter(|t| t.starts_with(|c: char| c.is_ascii_uppercase()))
                } else {
                    ["fn ", "type ", "const ", "unsafe fn "].iter().find_map(|k| t.strip_prefix(k))
                };
                if let Some(m) = member {
                    out.insert(ident_prefix(m).to_string());
                }
            }
            continue;
        }
        if let Some(rest) = t.strip_prefix("macro_rules! ") {
            out.insert(ident_prefix(rest).to_string());
            continue;
        }
        let Some(rest) = t.strip_prefix("pub ") else { continue };
        let words: Vec<&str> = rest.split_whitespace().collect();
        let mut i = 0;
        while i < words.len() && ["unsafe", "async", "extern"].contains(&words[i]) {
            i += 1;
        }
        if words.get(i) == Some(&"const") && words.get(i + 1) == Some(&"fn") {
            i += 1;
        }
        match words.get(i) {
            Some(&"use") | None => {}
            Some(kw) if ITEM_KEYWORDS.contains(kw) => {
                let Some(name) = words.get(i + 1).map(|w| ident_prefix(w)) else { continue };
                out.insert(name.to_string());
                let opens_body = t.ends_with('{') && !t.ends_with("{}");
                if opens_body && (*kw == "enum" || *kw == "trait") {
                    body = Some((indent, *kw == "enum"));
                }
            }
            Some(field) if field.ends_with(':') => {
                out.insert(ident_prefix(field).to_string());
            }
            Some(_) => {}
        }
    }
    out
}

/// Public name → the files defining it.
fn workspace_definitions() -> BTreeMap<String, BTreeSet<PathBuf>> {
    let mut defs: BTreeMap<String, BTreeSet<PathBuf>> = BTreeMap::new();
    for file in library_sources() {
        let text = std::fs::read_to_string(&file).expect("readable source");
        for name in defined_names(&text) {
            defs.entry(name).or_default().insert(file.clone());
        }
    }
    defs
}

/// Package names of the workspace (and the vendored stand-ins), as they
/// appear in Rust paths (`hdsd-graph` → `hdsd_graph`).
fn crate_names() -> BTreeSet<String> {
    let mut manifests = vec![repo_root().join("Cargo.toml")];
    files(&repo_root().join("crates"), &|p| p.ends_with("Cargo.toml"), &mut manifests);
    let mut out = BTreeSet::new();
    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest).expect("readable manifest");
        let package = text.split("[package]").nth(1).unwrap_or("");
        for line in package.lines() {
            if let Some(v) = line.trim().strip_prefix("name = ") {
                out.insert(v.trim_matches('"').replace('-', "_"));
                break;
            }
        }
    }
    out
}

/// Inline code spans of a markdown document (fenced blocks excluded).
fn code_spans(md: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in md.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push(' ');
        }
    }
    prose.split('`').skip(1).step_by(2).map(str::to_string).collect()
}

/// The code identifiers a span names: `path::qualified` tokens, `call()`
/// and `macro!` tokens, and CamelCase words. Quoted strings, flags, file
/// names and plain snake_case words (JSON fields, metric names) are not
/// code names and are skipped, and so are formulas: spans with non-ASCII
/// symbols (`Σ d_S(R)`, `κ(q)`) and one-letter names (`O(n)`).
fn code_identifiers(span: &str) -> Vec<String> {
    if !span.is_ascii() {
        return Vec::new();
    }
    let chars: Vec<char> = span.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    let mut quoted = false;
    while i < chars.len() {
        let c = chars[i];
        if c == '"' {
            quoted = !quoted;
        }
        let starts = (c.is_alphabetic() || c == '_') && (i == 0 || !is_ident_char(chars[i - 1]));
        if quoted || !starts {
            i += 1;
            continue;
        }
        let prev = if i == 0 { ' ' } else { chars[i - 1] };
        let start = i;
        loop {
            while i < chars.len() && is_ident_char(chars[i]) {
                i += 1;
            }
            let more = i + 2 < chars.len() && chars[i] == ':' && chars[i + 1] == ':';
            if more && (chars[i + 2].is_alphabetic() || chars[i + 2] == '_') {
                i += 2;
            } else {
                break;
            }
        }
        let token: String = chars[start..i].iter().collect();
        let next = chars.get(i).copied().unwrap_or(' ');
        let after = chars.get(i + 1).copied().unwrap_or(' ');
        if token.len() == 1 || matches!(prev, '-' | '/' | '$') {
            continue; // a formula variable, a flag or a file path
        }
        if next == '.' && after.is_alphabetic() {
            continue; // a file name
        }
        let camel = token.starts_with(|c: char| c.is_ascii_uppercase())
            && token.contains(|c: char| c.is_lowercase())
            && !token.contains('_');
        let macro_call = next == '!' && after != '=';
        if token.contains("::") || next == '(' || macro_call || camel {
            out.push(token);
        }
    }
    out
}

/// Why `ident` does not resolve, or `None` when every path segment is a
/// crate, a workspace definition or an allowed std name.
fn unresolved(
    ident: &str,
    defs: &BTreeMap<String, BTreeSet<PathBuf>>,
    crates: &BTreeSet<String>,
) -> Option<String> {
    let segments: Vec<&str> = ident.split("::").collect();
    if ["std", "core", "alloc"].contains(&segments[0]) {
        return None;
    }
    segments
        .iter()
        .find(|s| {
            !(defs.contains_key(**s)
                || crates.contains(**s)
                || STD_NAMES.contains(s)
                || ["crate", "self", "super"].contains(s))
        })
        .map(|s| format!("`{ident}` ({s} is not a pub item, variant or field)"))
}

#[test]
fn docs_name_only_real_code() {
    let defs = workspace_definitions();
    let crates = crate_names();
    assert!(defs.contains_key("Engine") && crates.contains("hdsd_nucleus"), "scanner broke");
    let mut bad = Vec::new();
    for doc in ["README.md", "ARCHITECTURE.md"] {
        for span in code_spans(&read(doc)) {
            for ident in code_identifiers(&span) {
                if let Some(why) = unresolved(&ident, &defs, &crates) {
                    bad.push(format!("{doc}: {why}"));
                }
            }
        }
    }
    bad.sort();
    bad.dedup();
    assert!(bad.is_empty(), "docs name code that does not exist:\n{}", bad.join("\n"));
}

/// Source text with comment lines and `pub use` re-exports removed, so
/// what remains of a name is a real use.
fn code_without_reexports(text: &str) -> String {
    let mut out = String::new();
    let mut in_reexport = false;
    for line in text.lines() {
        let t = line.trim_start();
        if t.starts_with("pub use ") {
            in_reexport = true;
        }
        if !in_reexport && !t.starts_with("//") {
            out.push_str(line);
            out.push('\n');
        }
        if in_reexport && t.ends_with(';') {
            in_reexport = false;
        }
    }
    out
}

fn uses_word(text: &str, word: &str) -> bool {
    text.match_indices(word).any(|(at, _)| {
        let before = text[..at].chars().next_back().is_none_or(|c| !is_ident_char(c));
        let after = text[at + word.len()..].chars().next().is_none_or(|c| !is_ident_char(c));
        before && after
    })
}

#[test]
fn crate_table_names_load_bearing_code() {
    let defs = workspace_definitions();
    let crates = crate_names();
    let mut sources = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&repo_root().join(dir), &mut sources);
    }
    let texts: Vec<(PathBuf, String)> = sources
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("readable source");
            (p, code_without_reexports(&text))
        })
        .collect();

    let arch = read("ARCHITECTURE.md");
    let rows: Vec<&str> = arch.lines().filter(|l| l.starts_with("| `crates/")).collect();
    assert!(!rows.is_empty(), "ARCHITECTURE.md lost its crate table");
    let mut bad = Vec::new();
    for row in rows {
        let column = row.split('|').nth(3).unwrap_or("");
        for span in code_spans(column) {
            // `span!`, `Incremental<K>` and `f()` name `span`, `Incremental`, `f`.
            let code = span.trim_end_matches(['!', '(', ')']);
            let name = code.split('<').next().unwrap_or(code);
            if !name.chars().all(is_ident_char) || crates.contains(name) {
                continue; // not a single code name (e.g. `BENCH_*.json`), or a crate
            }
            let Some(homes) = defs.get(name) else {
                bad.push(format!("`{name}` is not a pub item of the workspace"));
                continue;
            };
            let used = texts.iter().any(|(p, t)| !homes.contains(p) && uses_word(t, name));
            if !used {
                bad.push(format!("`{name}` is defined but never used outside its definition"));
            }
        }
    }
    assert!(bad.is_empty(), "ARCHITECTURE.md crate table:\n{}", bad.join("\n"));
}
