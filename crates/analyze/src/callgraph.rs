//! The parsed workspace every source pass runs on, and the intra-workspace
//! call-graph approximation the dataflow passes use.
//!
//! [`Workspace`] loads every `crates/*/src/**/*.rs` file once, lexes it,
//! extracts items, and pre-computes its line index and per-line
//! code/comment views. Vendor trees are excluded by design — third-party
//! idiom is not held to workspace contracts — except that each vendored
//! crate root is kept as text for the unsafe-code check.
//! [`CallGraph::build`] then links call sites to workspace functions:
//!
//! * `foo(…)` — a free call: candidates are same-crate functions named
//!   `foo`, falling back to the whole workspace (imports are not tracked).
//! * `Type::foo(…)` / `module::foo(…)` — qualified: the last path segment
//!   before the name is matched against impl types, then crate/module
//!   names (`fg_core::hash::trace_id` resolves through the `fg_` alias).
//! * `recv.foo(…)` — a method call: matched against *every* workspace impl
//!   carrying `foo`, except for names on [`METHOD_SKIP`] (std-prelude
//!   collisions like `.get(`/`.push(` that would otherwise wire unrelated
//!   types together).
//!
//! The result over-approximates: edges may exist that no execution takes
//! (two unrelated `decide` methods share a name). The passes that consume
//! it are designed for that bias — taint and panic-surface findings are
//! waivable at the site, and an over-approximate graph errs toward
//! reporting, never toward silence. Macro-generated calls and fn-pointer
//! values (`map(Self::helper)`) are invisible; those are accepted misses,
//! documented in DESIGN.md.

use crate::items::{extract_fns, FnItem};
use crate::lexer::{lex, strip_lines, LineIndex, LineView, TokKind, Token};
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io;
use std::path::Path;

/// One parsed source file.
pub struct SourceFile {
    /// Crate directory name (`"serve"`, `"core"`, …).
    pub krate: String,
    /// Root-relative path with `/` separators.
    pub path: String,
    /// The file contents.
    pub src: String,
    /// Token stream over `src`.
    pub tokens: Vec<Token>,
    /// Maps byte offsets in `src` to lines.
    pub line_index: LineIndex,
    /// Per-line code/comment views (1-based line `n` is `lines[n-1]`).
    pub lines: Vec<LineView>,
    /// Function items found in this file.
    pub fns: Vec<FnItem>,
}

impl SourceFile {
    /// Parses one file from memory.
    pub fn parse(krate: &str, path: &str, src: String) -> SourceFile {
        let tokens = lex(&src);
        let line_index = LineIndex::new(&src);
        let fns = extract_fns(krate, path, &src, &tokens, &line_index);
        let lines = strip_lines(&src, &tokens);
        SourceFile {
            krate: krate.to_owned(),
            path: path.to_owned(),
            src,
            tokens,
            line_index,
            lines,
            fns,
        }
    }

    /// The 1-based line on which token `tok` starts.
    pub fn line_of(&self, tok: usize) -> usize {
        self.line_index.line(self.tokens[tok].start)
    }

    /// The code/comment view of 1-based line `n`.
    pub fn line(&self, n: usize) -> &LineView {
        static EMPTY: LineView = LineView {
            code: String::new(),
            comment: String::new(),
        };
        self.lines.get(n.wrapping_sub(1)).unwrap_or(&EMPTY)
    }

    /// `true` when line `n` is waived for `lint`: the marker sits either in
    /// a trailing comment on the line itself, or alone on the line directly
    /// above it (a standalone marker line carries no code of its own).
    pub fn allows(&self, n: usize, lint: &str) -> bool {
        let marker = format!("fg-analyze: allow({lint})");
        if self.line(n).comment.contains(&marker) {
            return true;
        }
        if n >= 2 {
            let prev = self.line(n - 1);
            return prev.code.trim().is_empty() && prev.comment.contains(&marker);
        }
        false
    }
}

/// The workspace every source pass analyzes.
pub struct Workspace {
    /// All parsed files, in path order.
    pub files: Vec<SourceFile>,
    /// `(path, contents)` of each vendored crate root (`vendor/*/src/lib.rs`),
    /// in path order: read only for the unsafe-code check, never parsed.
    pub vendor_roots: Vec<(String, String)>,
}

impl Workspace {
    /// Loads every workspace crate under `root/crates`, plus the vendored
    /// crate roots under `root/vendor`.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let rel = |p: &Path| {
            p.strip_prefix(root)
                .unwrap_or(p)
                .to_string_lossy()
                .replace('\\', "/")
        };
        let mut files = Vec::new();
        for crate_dir in sorted_dirs(&root.join("crates"))? {
            let krate = crate_dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_owned();
            let src_dir = crate_dir.join("src");
            if !src_dir.is_dir() {
                continue;
            }
            let mut paths = Vec::new();
            collect_rs(&src_dir, &mut paths)?;
            paths.sort();
            for p in paths {
                files.push(SourceFile::parse(&krate, &rel(&p), fs::read_to_string(&p)?));
            }
        }
        let mut vendor_roots = Vec::new();
        for crate_dir in sorted_dirs(&root.join("vendor"))? {
            let lib = crate_dir.join("src/lib.rs");
            if lib.is_file() {
                vendor_roots.push((rel(&lib), fs::read_to_string(&lib)?));
            }
        }
        Ok(Workspace {
            files,
            vendor_roots,
        })
    }

    /// Builds a workspace from in-memory sources — the fixture entry point
    /// for unit tests: `(crate, path, source)` triples.
    pub fn from_sources(sources: Vec<(&str, &str, &str)>) -> Workspace {
        Workspace {
            files: sources
                .into_iter()
                .map(|(k, p, s)| SourceFile::parse(k, p, s.to_owned()))
                .collect(),
            vendor_roots: Vec::new(),
        }
    }
}

/// The subdirectories of `dir`, sorted.
fn sorted_dirs(dir: &Path) -> io::Result<Vec<std::path::PathBuf>> {
    let mut dirs: Vec<_> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    Ok(dirs)
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Method names never linked through bare `.name(` calls: they collide with
/// std/prelude methods on maps, vecs, strings, locks, and iterators, and
/// linking them would wire unrelated types together. Qualified calls
/// (`Type::name(…)`) resolve regardless of this list.
pub const METHOD_SKIP: &[&str] = &[
    "new",
    "default",
    "clone",
    "fmt",
    "from",
    "into",
    "try_into",
    "get",
    "get_mut",
    "insert",
    "remove",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "push",
    "pop",
    "contains",
    "contains_key",
    "entry",
    "next",
    "extend",
    "clear",
    "eq",
    "cmp",
    "partial_cmp",
    "hash",
    "drop",
    "to_string",
    "to_owned",
    "as_str",
    "as_bytes",
    "parse",
    "lock",
    "read",
    "write",
    "flush",
    "send",
    "recv",
    "join",
    "map",
    "filter",
    "find",
    "position",
    "sort",
    "sort_by",
    "first",
    "last",
    "split",
    "trim",
    "min",
    "max",
    "abs",
    "floor",
    "ceil",
    "keys",
    "values",
    "start",
    "end",
    // Workspace-internal collisions: `record` (velocity counters vs the
    // serve circuit breaker) and `try_acquire` (limiter shards vs the same
    // breaker) would wire every detection/mitigation hot path to the
    // wall-clock-reading breaker convenience methods.
    "record",
    "try_acquire",
];

/// A call site inside some function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallSite {
    /// Index of the called function in [`CallGraph::fns`].
    pub callee: usize,
    /// 1-based line of the call.
    pub line: usize,
}

/// The resolved call graph: one node per non-test workspace function.
pub struct CallGraph {
    /// Node table; indices are stable handles.
    pub fns: Vec<NodeRef>,
    /// Outgoing resolved call edges per node.
    pub calls: Vec<Vec<CallSite>>,
    by_path: HashMap<String, usize>,
}

/// A node's identity: which file and which item within it.
#[derive(Clone, Copy, Debug)]
pub struct NodeRef {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Index into that file's [`SourceFile::fns`].
    pub item: usize,
}

impl CallGraph {
    /// Builds the graph over every non-test function in `ws`.
    pub fn build(ws: &Workspace) -> CallGraph {
        let mut fns = Vec::new();
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut by_type_method: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
        let mut by_crate_name: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
        let mut by_path: HashMap<String, usize> = HashMap::new();
        for (fi, file) in ws.files.iter().enumerate() {
            for (ii, item) in file.fns.iter().enumerate() {
                if item.is_test {
                    continue;
                }
                let id = fns.len();
                fns.push(NodeRef { file: fi, item: ii });
                by_name.entry(&item.name).or_default().push(id);
                by_crate_name
                    .entry((&file.krate, &item.name))
                    .or_default()
                    .push(id);
                if let Some(ty) = &item.impl_type {
                    by_type_method.entry((ty, &item.name)).or_default().push(id);
                }
                by_path.insert(item.path.clone(), id);
            }
        }

        let mut calls: Vec<Vec<CallSite>> = vec![Vec::new(); fns.len()];
        for (id, node) in fns.iter().enumerate() {
            let file = &ws.files[node.file];
            let item = &file.fns[node.item];
            let nested: Vec<std::ops::Range<usize>> = file
                .fns
                .iter()
                .enumerate()
                .filter(|(k, f)| {
                    *k != node.item && f.body.start > item.body.start && f.body.end <= item.body.end
                })
                .map(|(_, f)| f.body.clone())
                .collect();
            for site in extract_calls(file, item.body.clone(), &nested) {
                let candidates =
                    resolve(&site, file, item, &by_name, &by_type_method, &by_crate_name);
                for callee in candidates {
                    if callee != id {
                        calls[id].push(CallSite {
                            callee,
                            line: site.line,
                        });
                    }
                }
            }
            calls[id].sort_by_key(|c| (c.line, c.callee));
            calls[id].dedup();
        }
        CallGraph {
            fns,
            calls,
            by_path,
        }
    }

    /// Finds the node whose crate-qualified path ends with `suffix`
    /// (full-segment match: `server::handle_connection` matches
    /// `serve::server::handle_connection` but not `…::mishandle_connection`).
    pub fn find(&self, ws: &Workspace, suffix: &str) -> Option<usize> {
        if let Some(&id) = self.by_path.get(suffix) {
            return Some(id);
        }
        (0..self.fns.len()).find(|&id| {
            let path = &self.item(ws, id).path;
            path.ends_with(suffix) && path[..path.len() - suffix.len()].ends_with("::")
        })
    }

    /// The item behind node `id`.
    pub fn item<'w>(&self, ws: &'w Workspace, id: usize) -> &'w FnItem {
        let node = self.fns[id];
        &ws.files[node.file].fns[node.item]
    }

    /// The file behind node `id`.
    pub fn file<'w>(&self, ws: &'w Workspace, id: usize) -> &'w SourceFile {
        &ws.files[self.fns[id].file]
    }

    /// Breadth-first reachability from `entries`; returns, per reached node,
    /// the predecessor edge used to reach it (for witness chains).
    pub fn reachable(&self, entries: &[usize]) -> HashMap<usize, Option<usize>> {
        let mut seen: HashMap<usize, Option<usize>> = HashMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &e in entries {
            if let std::collections::hash_map::Entry::Vacant(slot) = seen.entry(e) {
                slot.insert(None);
                queue.push_back(e);
            }
        }
        while let Some(id) = queue.pop_front() {
            for call in &self.calls[id] {
                if let std::collections::hash_map::Entry::Vacant(slot) = seen.entry(call.callee) {
                    slot.insert(Some(id));
                    queue.push_back(call.callee);
                }
            }
        }
        seen
    }

    /// Renders the witness chain `entry → … → id` using the predecessor map
    /// from [`CallGraph::reachable`].
    pub fn chain(
        &self,
        ws: &Workspace,
        preds: &HashMap<usize, Option<usize>>,
        id: usize,
    ) -> String {
        let mut parts = vec![self.item(ws, id).path.clone()];
        let mut cur = id;
        while let Some(Some(prev)) = preds.get(&cur) {
            parts.push(self.item(ws, *prev).path.clone());
            cur = *prev;
        }
        parts.reverse();
        parts.join(" → ")
    }

    /// A deterministic textual dump of every edge, for snapshot tests.
    pub fn snapshot(&self, ws: &Workspace) -> String {
        let mut out = String::new();
        let mut rows: Vec<String> = Vec::new();
        for id in 0..self.fns.len() {
            for call in &self.calls[id] {
                rows.push(format!(
                    "{} -> {}",
                    self.item(ws, id).path,
                    self.item(ws, call.callee).path
                ));
            }
        }
        rows.sort();
        rows.dedup();
        for row in rows {
            out.push_str(&row);
            out.push('\n');
        }
        out
    }
}

/// An unresolved call reference found in a body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawCall {
    /// Path segments before the name (`["fg_core", "hash"]`), empty for
    /// free and method calls.
    pub segments: Vec<String>,
    /// The called name.
    pub name: String,
    /// `true` for `.name(…)` method syntax.
    pub is_method: bool,
    /// 1-based line of the call.
    pub line: usize,
}

/// Extracts raw call references from the token range `body`, skipping the
/// `nested` sub-ranges (bodies of nested fn items).
pub fn extract_calls(
    file: &SourceFile,
    body: std::ops::Range<usize>,
    nested: &[std::ops::Range<usize>],
) -> Vec<RawCall> {
    let toks = &file.tokens;
    // Significant tokens within the body, outside nested fn bodies.
    let idx: Vec<usize> = body
        .clone()
        .filter(|i| {
            !matches!(
                toks[*i].kind,
                TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment
            ) && !nested.iter().any(|r| r.contains(i))
        })
        .collect();
    let text = |k: usize| toks[idx[k]].text(&file.src);
    let mut out = Vec::new();
    for k in 0..idx.len() {
        if toks[idx[k]].kind != TokKind::Ident {
            continue;
        }
        // Must be directly followed by `(` — and not `!` (macro).
        if k + 1 >= idx.len() || text(k + 1) != "(" {
            continue;
        }
        let name = text(k).to_owned();
        if matches!(
            name.as_str(),
            "if" | "while" | "match" | "for" | "return" | "fn"
        ) {
            continue;
        }
        // Walk backwards: `.` → method; `::`-joined idents → path.
        let prev = k.checked_sub(1).map(text);
        if prev == Some(".") {
            out.push(RawCall {
                segments: Vec::new(),
                name,
                is_method: true,
                line: file.line_of(idx[k]),
            });
            continue;
        }
        let mut segments: Vec<String> = Vec::new();
        let mut j = k;
        while j >= 2 && text(j - 1) == ":" && text(j - 2) == ":" {
            // Skip a possible turbofish `::<…>` — the segment before `::<`
            // is not an ident, so resolution simply stops there.
            if j >= 3 && toks[idx[j - 3]].kind == TokKind::Ident {
                segments.push(text(j - 3).to_owned());
                j -= 3;
            } else {
                break;
            }
        }
        segments.reverse();
        out.push(RawCall {
            segments,
            name,
            is_method: false,
            line: file.line_of(idx[k]),
        });
    }
    out
}

/// Maps a `fg_xxx` path segment to the crate directory name (`xxx`).
fn crate_alias(segment: &str) -> Option<&str> {
    segment.strip_prefix("fg_")
}

fn resolve(
    site: &RawCall,
    file: &SourceFile,
    caller: &FnItem,
    by_name: &HashMap<&str, Vec<usize>>,
    by_type_method: &HashMap<(&str, &str), Vec<usize>>,
    by_crate_name: &HashMap<(&str, &str), Vec<usize>>,
) -> Vec<usize> {
    let name = site.name.as_str();
    if site.is_method {
        if METHOD_SKIP.contains(&name) {
            return Vec::new();
        }
        // All workspace impls carrying this method (over-approximation).
        return by_type_method
            .iter()
            .filter(|((_, m), _)| *m == name)
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect();
    }
    if let Some(last) = site.segments.last() {
        let seg = last.as_str();
        // `Self::helper(…)` — the caller's own impl type.
        if seg == "Self" {
            if let Some(ty) = &caller.impl_type {
                if let Some(ids) = by_type_method.get(&(ty.as_str(), name)) {
                    return ids.clone();
                }
            }
            return Vec::new();
        }
        // `Type::method(…)` — a type segment starts uppercase.
        if seg.chars().next().is_some_and(char::is_uppercase) {
            return by_type_method
                .get(&(seg, name))
                .cloned()
                .unwrap_or_default();
        }
        // `fg_other::module::f(…)` — cross-crate module call.
        if let Some(krate) = site.segments.iter().find_map(|s| crate_alias(s)) {
            return by_crate_name
                .get(&(krate, name))
                .cloned()
                .unwrap_or_default();
        }
        // `self::f` / `crate::m::f` / `module::f` — same crate.
        return by_crate_name
            .get(&(file.krate.as_str(), name))
            .cloned()
            .unwrap_or_default();
    }
    // Free call: prefer same-crate, fall back to the whole workspace.
    if let Some(ids) = by_crate_name.get(&(file.krate.as_str(), name)) {
        return ids.clone();
    }
    by_name.get(name).cloned().unwrap_or_default()
}

/// Deterministically ordered `(path → path)` edge list for one crate, used
/// by the fixture snapshot test.
pub fn crate_edges(
    ws: &Workspace,
    graph: &CallGraph,
    krate: &str,
) -> BTreeMap<String, Vec<String>> {
    let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for id in 0..graph.fns.len() {
        let item = graph.item(ws, id);
        if item.krate != krate {
            continue;
        }
        let mut callees: Vec<String> = graph.calls[id]
            .iter()
            .map(|c| graph.item(ws, c.callee).path.clone())
            .collect();
        callees.sort();
        callees.dedup();
        out.insert(item.path.clone(), callees);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        Workspace::from_sources(vec![("demo", "crates/demo/src/lib.rs", src)])
    }

    #[test]
    fn free_calls_resolve_within_the_crate() {
        let w = ws("fn a() { b(); }\nfn b() {}\n");
        let g = CallGraph::build(&w);
        let a = g.find(&w, "demo::a").unwrap();
        let b = g.find(&w, "demo::b").unwrap();
        assert_eq!(g.calls[a], vec![CallSite { callee: b, line: 1 }]);
    }

    #[test]
    fn qualified_and_self_calls_resolve_to_impl_methods() {
        let w = ws("struct S;\n\
                    impl S {\n\
                        fn run(&self) { S::helper(); Self::helper(); }\n\
                        fn helper() {}\n\
                    }\n");
        let g = CallGraph::build(&w);
        let run = g.find(&w, "S::run").unwrap();
        let helper = g.find(&w, "S::helper").unwrap();
        assert_eq!(
            g.calls[run],
            vec![CallSite {
                callee: helper,
                line: 3
            }],
            "both spellings deduplicate to one edge"
        );
    }

    #[test]
    fn method_calls_overapproximate_but_skip_std_collisions() {
        let w = ws("struct A; struct B;\n\
                    impl A { fn score(&self) -> u8 { 1 } }\n\
                    impl B { fn score(&self) -> u8 { 2 } }\n\
                    fn f(x: &A) -> u8 { x.score() }\n\
                    fn g(v: &Vec<u8>) -> usize { v.len() }\n");
        let g = CallGraph::build(&w);
        let f = g.find(&w, "demo::f").unwrap();
        assert_eq!(g.calls[f].len(), 2, "links to every `score` impl");
        let gg = g.find(&w, "demo::g").unwrap();
        assert!(
            g.calls[gg].is_empty(),
            "`.len()` is a std collision, skipped"
        );
    }

    #[test]
    fn cross_crate_calls_resolve_through_the_fg_alias() {
        let w = Workspace::from_sources(vec![
            (
                "core",
                "crates/core/src/lib.rs",
                "pub fn trace_id() -> u64 { 7 }",
            ),
            (
                "serve",
                "crates/serve/src/lib.rs",
                "fn handler() { let _ = fg_core::trace_id(); }",
            ),
        ]);
        let g = CallGraph::build(&w);
        let h = g.find(&w, "serve::handler").unwrap();
        let t = g.find(&w, "core::trace_id").unwrap();
        assert_eq!(g.calls[h], vec![CallSite { callee: t, line: 1 }]);
    }

    #[test]
    fn reachability_reports_witness_chains() {
        let w = ws("fn entry() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn island() {}\n");
        let g = CallGraph::build(&w);
        let entry = g.find(&w, "demo::entry").unwrap();
        let leaf = g.find(&w, "demo::leaf").unwrap();
        let island = g.find(&w, "demo::island").unwrap();
        let preds = g.reachable(&[entry]);
        assert!(preds.contains_key(&leaf));
        assert!(!preds.contains_key(&island));
        assert_eq!(
            g.chain(&w, &preds, leaf),
            "demo::entry → demo::mid → demo::leaf"
        );
    }

    #[test]
    fn test_code_is_not_in_the_graph() {
        let w = ws("fn real() {}\n#[cfg(test)]\nmod tests { fn t() { super::real(); } }\n");
        let g = CallGraph::build(&w);
        assert!(g.find(&w, "tests::t").is_none());
        assert_eq!(g.fns.len(), 1);
    }

    #[test]
    fn macro_invocations_are_not_calls() {
        let w = ws("fn f() { println!(\"x\"); vec![1]; }\nfn println() {}\n");
        let g = CallGraph::build(&w);
        let f = g.find(&w, "demo::f").unwrap();
        assert!(g.calls[f].is_empty(), "{:?}", g.calls[f]);
    }
}
