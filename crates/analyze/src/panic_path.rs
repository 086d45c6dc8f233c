//! Pass 5 — the fg-serve request-path panic surface.
//!
//! The serving layer's contract (DESIGN.md, "fg-serve") is that a malformed
//! or adversarial request can never take down a worker: every request-path
//! failure becomes a 4xx/5xx answer. `catch_unwind` in the worker loop is
//! the airbag, not the seatbelt — this pass enforces the seatbelt
//! statically. Starting from the request-path entry points
//! ([`ENTRY_POINTS`]: the connection handler, `/v1/decide`, `/v1/report`,
//! and hot-reload apply), every function reachable through the
//! [`crate::callgraph::CallGraph`] is scanned for panic sites:
//!
//! * [`Severity::Deny`] — `.unwrap()`, `.expect(…)`, `panic!`, `todo!`,
//!   `unimplemented!`: an explicit decision to crash. Waivable only with
//!   `// fg-analyze: allow(panic-path): <why>` (the sanctioned reasons are
//!   boot-only paths and invariants the type system cannot carry).
//! * [`Severity::Warn`] — `unreachable!`: an impossibility claim; the pass
//!   keeps it visible because "impossible" inputs are exactly what abuse
//!   traffic supplies.
//! * [`Severity::Info`] — `partial-op`: slice indexing and `/` / `%` with a
//!   non-literal divisor. Individually reviewed, collectively tracked by
//!   the committed diagnostics baseline rather than gated, because an
//!   index proven in range two lines up is not a defect.
//!
//! Every finding carries the witness chain (`entry → … → fn`) so the
//! reviewer can see *how* the handler reaches the site. The call graph
//! over-approximates (same-named methods conflate), so a finding is a
//! question, not a verdict — but the workspace answers every question
//! either by removing the panic or waiving it with a reason.

use crate::callgraph::{CallGraph, Workspace};
use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokKind;

/// Stable lint ids for the panic-surface pass.
pub mod lints {
    /// A panicking operation reachable from a request-path entry point.
    pub const PANIC_PATH: &str = "panic-path";
    /// A partial operation (indexing, division) on the request path.
    pub const PARTIAL_OP: &str = "partial-op";
}

/// Crate-qualified suffixes of the fg-serve request-path entry points.
/// `accept_loop`/`worker_loop`/`shed` are covered transitively through
/// `handle_connection`; `background_loop` is the background thread (config
/// watcher and embedded-sentinel tick); `try_reload` is the hot-reload
/// apply path it drives.
pub const ENTRY_POINTS: &[&str] = &[
    "serve::handle_connection",
    "serve::accept_loop",
    "serve::worker_loop",
    "serve::shed",
    "serve::background_loop",
    "serve::ServeState::decide",
    "serve::ServeState::report",
    "serve::ServeState::try_reload",
];

/// Macro names that unconditionally panic when reached.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented"];

/// Runs the pass over every function reachable from [`ENTRY_POINTS`].
pub fn run(ws: &Workspace, graph: &CallGraph) -> Vec<Diagnostic> {
    let mut entries = Vec::new();
    let mut diags = Vec::new();
    for suffix in ENTRY_POINTS {
        match graph.find(ws, suffix) {
            Some(id) => entries.push(id),
            None => diags.push(Diagnostic::new(
                lints::PANIC_PATH,
                Severity::Deny,
                format!("entry:{suffix}"),
                format!(
                    "request-path entry point `{suffix}` not found in the call \
                     graph: the panic-surface pass would silently cover nothing \
                     — update ENTRY_POINTS after renaming serve internals"
                ),
            )),
        }
    }
    let preds = graph.reachable(&entries);
    let mut ids: Vec<usize> = preds.keys().copied().collect();
    ids.sort();
    for id in ids {
        scan_fn(ws, graph, id, &preds, &mut diags);
    }
    diags
}

fn scan_fn(
    ws: &Workspace,
    graph: &CallGraph,
    id: usize,
    preds: &std::collections::HashMap<usize, Option<usize>>,
    diags: &mut Vec<Diagnostic>,
) {
    let file = graph.file(ws, id);
    let item = graph.item(ws, id);
    let toks = &file.tokens;
    let idx: Vec<usize> = item
        .body
        .clone()
        .filter(|i| {
            !matches!(
                toks[*i].kind,
                TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment
            )
        })
        .collect();
    let text = |k: usize| toks[idx[k]].text(&file.src);
    let mut emit = |k: usize, lint: &str, severity: Severity, what: &str, msg: String| {
        let line_no = file.line_of(idx[k]);
        if file.allows(line_no, lint) {
            return;
        }
        diags.push(
            Diagnostic::new(lint, severity, format!("{}:{}", file.path, line_no), msg)
                .note("operation", what)
                .note("function", &item.path)
                .note("reached_via", graph.chain(ws, preds, id)),
        );
    };

    for k in 0..idx.len() {
        match toks[idx[k]].kind {
            TokKind::Ident => {
                let name = text(k);
                let next = if k + 1 < idx.len() { text(k + 1) } else { "" };
                // `.unwrap()` / `.expect(…)` — postfix method, exact name.
                if (name == "unwrap" || name == "expect")
                    && next == "("
                    && k >= 1
                    && text(k - 1) == "."
                {
                    emit(
                        k,
                        lints::PANIC_PATH,
                        Severity::Deny,
                        name,
                        format!(
                            "`.{name}(…)` reachable from the fg-serve request path: \
                             a malformed request must produce an error answer, \
                             not a worker panic"
                        ),
                    );
                } else if next == "!" && PANIC_MACROS.contains(&name) {
                    emit(
                        k,
                        lints::PANIC_PATH,
                        Severity::Deny,
                        name,
                        format!("`{name}!` reachable from the fg-serve request path"),
                    );
                } else if next == "!" && name == "unreachable" {
                    emit(
                        k,
                        lints::PANIC_PATH,
                        Severity::Warn,
                        name,
                        "`unreachable!` on the fg-serve request path: abuse traffic \
                         specialises in reaching the unreachable — prefer an error \
                         answer, or waive with the invariant that protects it"
                            .to_owned(),
                    );
                }
            }
            TokKind::Punct => {
                let p = text(k);
                // Index expressions: `expr[` where expr ends in ident/`)`/`]`.
                if p == "["
                    && k >= 1
                    && (is_expr_ident(toks[idx[k - 1]].kind, text(k - 1))
                        || text(k - 1) == ")"
                        || text(k - 1) == "]")
                    && !is_attr_open(&idx, toks, &file.src, k)
                {
                    emit(
                        k,
                        lints::PARTIAL_OP,
                        Severity::Info,
                        "index",
                        "slice/array indexing on the request path panics when out \
                         of range; prefer `.get(…)` unless the bound is local"
                            .to_owned(),
                    );
                }
                // `/` or `%` with a non-literal right-hand side, unless an
                // operand is visibly a float: a cast just before it
                // (`a as f64 / b`), a float literal on its left, or a right
                // operand cast to float (`a / b as f64`).
                if (p == "/" || p == "%")
                    && k >= 1
                    && k + 1 < idx.len()
                    && (toks[idx[k - 1]].kind == TokKind::Ident
                        || toks[idx[k - 1]].kind == TokKind::Num
                        || text(k - 1) == ")"
                        || text(k - 1) == "]")
                    && toks[idx[k + 1]].kind != TokKind::Num
                    && !matches!(text(k - 1), "f64" | "f32")
                    && !is_float_literal(toks[idx[k - 1]].kind, text(k - 1))
                    && !(k + 3 < idx.len()
                        && toks[idx[k + 1]].kind == TokKind::Ident
                        && text(k + 2) == "as"
                        && matches!(text(k + 3), "f64" | "f32"))
                {
                    emit(
                        k,
                        lints::PARTIAL_OP,
                        Severity::Info,
                        "division",
                        format!(
                            "integer `{p}` with a non-literal divisor panics on zero; \
                             guard the divisor or use `checked_{}`",
                            if p == "/" { "div" } else { "rem" }
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

/// A float literal: a fraction, an exponent or a float suffix (`1.5`,
/// `1e3`, `2f64`); a hex literal's `e` and `f` are digits.
fn is_float_literal(kind: TokKind, text: &str) -> bool {
    kind == TokKind::Num
        && !text.starts_with("0x")
        && (text.contains(['.', 'e', 'E']) || text.ends_with("f64") || text.ends_with("f32"))
}

/// An ident that can end an indexable expression — keywords (`let [a, b]`
/// slice patterns, `in [..]` array literals) cannot.
fn is_expr_ident(kind: TokKind, text: &str) -> bool {
    kind == TokKind::Ident
        && !matches!(
            text,
            "let"
                | "in"
                | "if"
                | "else"
                | "match"
                | "return"
                | "mut"
                | "ref"
                | "as"
                | "move"
                | "while"
                | "for"
                | "loop"
                | "break"
                | "continue"
                | "where"
                | "impl"
                | "dyn"
                | "fn"
                | "static"
                | "const"
                | "use"
                | "pub"
                | "type"
                | "struct"
                | "enum"
                | "unsafe"
                | "extern"
                | "async"
                | "await"
        )
}

/// `#[…]` / `#![…]` attribute openers are not index expressions.
fn is_attr_open(idx: &[usize], toks: &[crate::lexer::Token], src: &str, k: usize) -> bool {
    (k >= 1 && toks[idx[k - 1]].text(src) == "#")
        || (k >= 2 && toks[idx[k - 1]].text(src) == "!" && toks[idx[k - 2]].text(src) == "#")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::Workspace;

    fn serve_ws(body: &str) -> Vec<Diagnostic> {
        // A miniature serve crate exposing the real entry-point names, so
        // ENTRY_POINTS resolves without the full workspace.
        let src = format!(
            "struct ServeState;\n\
             impl ServeState {{\n\
                 fn decide(&self) {{ step() }}\n\
                 fn report(&self) {{}}\n\
                 fn try_reload(&self) {{}}\n\
             }}\n\
             fn handle_connection() {{}}\n\
             fn accept_loop() {{}}\n\
             fn worker_loop() {{}}\n\
             fn shed() {{}}\n\
             fn background_loop() {{}}\n\
             {body}\n"
        );
        let ws =
            Workspace::from_sources(vec![("serve", "crates/serve/src/server.rs", src.as_str())]);
        let graph = CallGraph::build(&ws);
        run(&ws, &graph)
    }

    #[test]
    fn handler_unwrap_is_denied_with_a_witness_chain() {
        let diags = serve_ws(
            "fn step() { helper() }\nfn helper() { let v: Option<u8> = None; v.unwrap(); }",
        );
        let hit = diags
            .iter()
            .find(|d| d.lint == lints::PANIC_PATH && d.explanation["operation"] == "unwrap")
            .unwrap_or_else(|| panic!("{diags:?}"));
        assert_eq!(hit.severity, Severity::Deny);
        assert!(
            hit.explanation["reached_via"].contains("ServeState::decide"),
            "{hit:?}"
        );
    }

    #[test]
    fn unrelated_functions_are_not_scanned() {
        let diags = serve_ws("fn offline_tool() { let v: Option<u8> = None; v.unwrap(); }");
        assert!(
            diags.iter().all(|d| d.lint != lints::PANIC_PATH),
            "{diags:?}"
        );
    }

    #[test]
    fn unwrap_or_variants_do_not_trip() {
        let diags = serve_ws(
            "fn step() { let v: Option<u8> = None; v.unwrap_or(0); v.unwrap_or_default(); }",
        );
        assert!(
            diags.iter().all(|d| d.lint != lints::PANIC_PATH),
            "{diags:?}"
        );
    }

    #[test]
    fn waivers_silence_with_a_reason() {
        let diags = serve_ws(
            "fn step() { boot() }\n\
             fn boot() { spawn().expect(\"x\"); } // fg-analyze: allow(panic-path): boot-only\n\
             fn spawn() -> Result<u8, u8> { Ok(1) }",
        );
        assert!(
            diags.iter().all(|d| d.lint != lints::PANIC_PATH),
            "{diags:?}"
        );
    }

    #[test]
    fn partial_ops_report_at_info() {
        let diags = serve_ws("fn step(v: &[u8], n: usize) -> u8 { v[n] + v[0] / n as u8 }");
        let partial: Vec<_> = diags
            .iter()
            .filter(|d| d.lint == lints::PARTIAL_OP)
            .collect();
        assert!(partial.iter().all(|d| d.severity == Severity::Info));
        assert!(
            partial
                .iter()
                .any(|d| d.explanation["operation"] == "index"),
            "{diags:?}"
        );
        assert!(
            partial
                .iter()
                .any(|d| d.explanation["operation"] == "division"),
            "{diags:?}"
        );
    }

    #[test]
    fn float_division_is_not_a_partial_op() {
        let divisions = |body: &str| {
            serve_ws(&format!("fn step(a: u32, b: u32, n: f64) {{ {body}; }}"))
                .into_iter()
                .filter(|d| d.lint == lints::PARTIAL_OP)
                .filter(|d| d.explanation["operation"] == "division")
                .count()
        };
        for float in [
            "a as f64 / b",
            "a / b as f64",
            "n / 2.0",
            "1.5 / n",
            "1e3 % n",
        ] {
            assert_eq!(divisions(float), 0, "{float}");
        }
        for integer in ["a / b", "a % b", "0xe / a"] {
            assert_eq!(divisions(integer), 1, "{integer}");
        }
    }

    #[test]
    fn missing_entry_point_is_itself_a_deny() {
        let ws = Workspace::from_sources(vec![(
            "serve",
            "crates/serve/src/server.rs",
            "fn nothing_here() {}",
        )]);
        let graph = CallGraph::build(&ws);
        let diags = run(&ws, &graph);
        assert!(
            diags
                .iter()
                .any(|d| d.lint == lints::PANIC_PATH && d.source.starts_with("entry:")),
            "{diags:?}"
        );
    }
}
