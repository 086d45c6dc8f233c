//! Pass 4 — determinism taint, propagated through the call graph.
//!
//! The source pass ([`crate::source`]) flags a wall-clock or entropy read
//! *on the line it occurs*, which a one-line helper defeats: wrap
//! `Instant::now()` in a function and every caller is clean. This pass
//! closes that hole with a transitive taint analysis over the
//! [`crate::callgraph::CallGraph`]:
//!
//! * A function is **directly tainted** when its body reads a
//!   non-deterministic source — a pattern of any
//!   [`source::PATTERN_LINTS`] row that governs the determinism-critical
//!   crates — without the corresponding sanitizing
//!   `fg-analyze: allow(<lint>)` marker. Exempt crates (`telemetry`,
//!   `serve`, …) never need markers, so their clock-reading APIs are
//!   tainted *as propagation sources* even though they are legal locally.
//! * Taint flows caller-ward: a function that calls a tainted function is
//!   itself tainted, unless the call line carries
//!   `// fg-analyze: allow(determinism-taint): <why>` — the sanction that
//!   says "this call's non-determinism never reaches sim state".
//! * Findings are emitted only where the contract is at stake: a call site
//!   in a [`crate::source::DETERMINISM_CRITICAL`] crate whose callee is
//!   tainted is a [`Severity::Deny`], with the taint's root source in the
//!   explanation so the chain is auditable.
//!
//! The same pass owns the **stale-allow** lint: an inline
//! `fg-analyze: allow(...)` marker whose line no longer matches the lint it
//! waives (the clock read was refactored away, the lint id was typo'd) is
//! dead sanction — reported at [`Severity::Warn`] so waivers cannot quietly
//! outlive the code they justified.

use crate::callgraph::{CallGraph, SourceFile, Workspace};
use crate::diag::{Diagnostic, Severity};
use crate::source;
use std::collections::BTreeMap;

/// Stable lint ids for the taint pass.
pub mod lints {
    /// A determinism-critical function calls a (transitively) tainted one.
    pub const DETERMINISM_TAINT: &str = "determinism-taint";
    /// An inline `allow(...)` marker whose line no longer matches its lint.
    pub const STALE_ALLOW: &str = "stale-allow";
}

/// Why a function is tainted: the root non-deterministic read.
#[derive(Clone, Debug)]
pub struct TaintCause {
    /// The source-pass pattern that matched (`"Instant::now"`,
    /// `"thread_rng"`, …).
    pub pattern: String,
    /// `path:line` of the root read.
    pub at: String,
}

/// Per-node taint state for the whole graph, in node-id order.
pub fn taint_map(ws: &Workspace, graph: &CallGraph) -> Vec<Option<TaintCause>> {
    let mut tainted: Vec<Option<TaintCause>> = vec![None; graph.fns.len()];

    // Seed: direct non-deterministic reads inside each body. Only the rows
    // that guard the determinism contract seed taint — the std-hash row is
    // a performance contract, not a source.
    let sources: Vec<&source::PatternLint> = source::PATTERN_LINTS
        .iter()
        .filter(|row| row.crates == source::DETERMINISM_CRITICAL)
        .collect();
    for (id, slot) in tainted.iter_mut().enumerate() {
        let file = graph.file(ws, id);
        let item = graph.item(ws, id);
        'lines: for line_no in body_lines(file, item.body.clone()) {
            let code = &file.line(line_no).code;
            for row in &sources {
                if let Some(pattern) = row.first_match(code) {
                    if !file.allows(line_no, row.id)
                        && !file.allows(line_no, lints::DETERMINISM_TAINT)
                    {
                        *slot = Some(TaintCause {
                            pattern: pattern.to_owned(),
                            at: format!("{}:{}", file.path, line_no),
                        });
                        break 'lines;
                    }
                }
            }
        }
    }

    // Propagate caller-ward to a fixpoint. A sanitized call line stops the
    // flow; everything else conducts.
    loop {
        let mut changed = false;
        for id in 0..graph.fns.len() {
            if tainted[id].is_some() {
                continue;
            }
            let file = graph.file(ws, id);
            for call in &graph.calls[id] {
                if let Some(cause) = &tainted[call.callee] {
                    if !file.allows(call.line, lints::DETERMINISM_TAINT) {
                        tainted[id] = Some(cause.clone());
                        changed = true;
                        break;
                    }
                }
            }
        }
        if !changed {
            return tainted;
        }
    }
}

/// Runs the taint pass: flags tainted call sites in determinism-critical
/// crates, then sweeps the whole workspace for stale allow markers.
pub fn run(ws: &Workspace, graph: &CallGraph) -> Vec<Diagnostic> {
    let tainted = taint_map(ws, graph);
    let mut diags = Vec::new();

    // Call-site findings, deduplicated per (site, callee) — the same line
    // may resolve to several same-named methods.
    let mut seen: BTreeMap<(String, String), ()> = BTreeMap::new();
    for id in 0..graph.fns.len() {
        let file = graph.file(ws, id);
        if !source::DETERMINISM_CRITICAL.contains(&file.krate.as_str()) {
            continue;
        }
        let caller = graph.item(ws, id);
        for call in &graph.calls[id] {
            let Some(cause) = &tainted[call.callee] else {
                continue;
            };
            if file.allows(call.line, lints::DETERMINISM_TAINT) {
                continue;
            }
            let callee = graph.item(ws, call.callee);
            let site = format!("{}:{}", file.path, call.line);
            if seen
                .insert((site.clone(), callee.path.clone()), ())
                .is_some()
            {
                continue;
            }
            diags.push(
                Diagnostic::new(
                    lints::DETERMINISM_TAINT,
                    Severity::Deny,
                    site,
                    format!(
                        "`{}` calls `{}`, which (transitively) reads `{}`: \
                         non-determinism reaches a determinism-critical crate",
                        caller.path, callee.path, cause.pattern
                    ),
                )
                .note("callee", &callee.path)
                .note("root_source", &cause.at)
                .note("root_pattern", &cause.pattern),
            );
        }
    }

    diags.extend(stale_allows(ws, graph, &tainted));
    diags
}

/// Does `code` (the code a marker waives) still justify an `allow(lint)`
/// marker? `None` when no pass emits `lint`. A pattern lint's marker is
/// checked against its [`source::PATTERN_LINTS`] row; markers for
/// file-scoped lints (`missing-forbid-unsafe`) are trusted as written.
fn marker_is_live(
    lint: &str,
    code: &str,
    file_path: &str,
    line_no: usize,
    tainted_call_lines: &std::collections::BTreeSet<(String, usize)>,
) -> Option<bool> {
    use crate::locks::lints as locks;
    use crate::panic_path::lints as panics;
    if let Some(row) = source::PATTERN_LINTS.iter().find(|row| row.id == lint) {
        return Some(row.first_match(code).is_some());
    }
    Some(match lint {
        lints::DETERMINISM_TAINT => tainted_call_lines.contains(&(file_path.to_owned(), line_no)),
        panics::PANIC_PATH => [
            "unwrap",
            "expect",
            "panic!",
            "todo!",
            "unimplemented!",
            "unreachable!",
        ]
        .iter()
        .any(|p| code.contains(p)),
        panics::PARTIAL_OP => code.contains('[') || code.contains('/') || code.contains('%'),
        locks::SHARD_DISCIPLINE => code.contains("shards_mut"),
        locks::NESTED_SHARD_BORROW => code.contains("shard_mut"),
        locks::LOCK_ORDER_INVERSION => code.contains(".lock"),
        locks::ATOMIC_ORDERING => code.contains("Ordering::"),
        source::lints::MISSING_FORBID_UNSAFE | lints::STALE_ALLOW => true,
        _ => return None,
    })
}

/// Reports `allow(...)` markers that no longer match their line, and markers
/// naming a lint id no pass has ever emitted (typos never waive anything).
fn stale_allows(
    ws: &Workspace,
    graph: &CallGraph,
    tainted: &[Option<TaintCause>],
) -> Vec<Diagnostic> {
    // Call-site lines that actually conduct taint — a marker there is live.
    let mut tainted_call_lines = std::collections::BTreeSet::new();
    for id in 0..graph.fns.len() {
        let file = graph.file(ws, id);
        for call in &graph.calls[id] {
            if tainted[call.callee].is_some() {
                tainted_call_lines.insert((file.path.clone(), call.line));
            }
        }
    }

    let mut diags = Vec::new();
    for file in &ws.files {
        for (idx, view) in file.lines.iter().enumerate() {
            let line_no = idx + 1;
            // A standalone marker line waives the line below it — check the
            // marker against the code it actually applies to.
            let (code_line, code) = if view.code.trim().is_empty() {
                (line_no + 1, file.line(line_no + 1).code.as_str())
            } else {
                (line_no, view.code.as_str())
            };
            let mut rest = view.comment.as_str();
            while let Some(pos) = rest.find("fg-analyze: allow(") {
                rest = &rest[pos + "fg-analyze: allow(".len()..];
                let Some(close) = rest.find(')') else { break };
                let lint = &rest[..close];
                rest = &rest[close..];
                let message =
                    match marker_is_live(lint, code, &file.path, code_line, &tainted_call_lines) {
                        Some(true) => continue,
                        Some(false) => format!(
                            "allow({lint}) marker is dead: the line no longer \
                         matches what it waives — remove the marker"
                        ),
                        None => format!(
                            "allow marker names unknown lint `{lint}`: \
                         a typo'd marker waives nothing"
                        ),
                    };
                diags.push(
                    Diagnostic::new(
                        lints::STALE_ALLOW,
                        Severity::Warn,
                        format!("{}:{}", file.path, line_no),
                        message,
                    )
                    .note("marker_lint", lint),
                );
            }
        }
    }
    diags
}

/// The 1-based lines spanned by the token range `body` in `file`, as a
/// half-open range.
fn body_lines(file: &SourceFile, body: std::ops::Range<usize>) -> std::ops::Range<usize> {
    if body.is_empty() {
        return 0..0;
    }
    file.line_of(body.start)..file.line_of(body.end - 1) + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::Workspace;

    fn run_on(sources: Vec<(&str, &str, &str)>) -> Vec<Diagnostic> {
        let ws = Workspace::from_sources(sources);
        let graph = CallGraph::build(&ws);
        run(&ws, &graph)
    }

    #[test]
    fn helper_wrapped_clock_is_flagged_at_the_call_site() {
        let diags = run_on(vec![(
            "detection",
            "crates/detection/src/lib.rs",
            "fn stamp() -> u64 { let t = std::time::Instant::now(); 0 }\n\
             fn score() -> u64 { stamp() }\n",
        )]);
        let taints: Vec<_> = diags
            .iter()
            .filter(|d| d.lint == lints::DETERMINISM_TAINT)
            .collect();
        assert_eq!(taints.len(), 1, "{diags:?}");
        assert!(taints[0].source.ends_with(":2"), "{:?}", taints[0]);
        assert_eq!(taints[0].explanation["root_pattern"], "Instant::now");
    }

    #[test]
    fn taint_crosses_crates_into_exempt_apis() {
        // telemetry may read clocks (exempt from v1), but a sim-path call
        // into that API still carries the taint into the critical crate.
        let diags = run_on(vec![
            (
                "telemetry",
                "crates/telemetry/src/lib.rs",
                "pub fn wall_ms() -> u64 { let t = std::time::SystemTime::now(); 0 }\n",
            ),
            (
                "scenario",
                "crates/scenario/src/lib.rs",
                "fn step() { let _ = fg_telemetry::wall_ms(); }\n",
            ),
        ]);
        let taints: Vec<_> = diags
            .iter()
            .filter(|d| d.lint == lints::DETERMINISM_TAINT)
            .collect();
        assert_eq!(taints.len(), 1, "{diags:?}");
        assert!(taints[0].source.starts_with("crates/scenario/"));
        assert!(taints[0].explanation["root_source"].starts_with("crates/telemetry/"));
    }

    #[test]
    fn sanitizing_markers_stop_propagation_and_waive_sites() {
        // An allow(wall-clock) on the read keeps the helper clean, so
        // callers see no taint at all.
        let clean = run_on(vec![(
            "detection",
            "crates/detection/src/lib.rs",
            "fn stamp() -> u64 { let t = Instant::now(); 0 } // fg-analyze: allow(wall-clock): profiling only\n\
             fn score() -> u64 { stamp() }\n",
        )]);
        assert!(
            clean.iter().all(|d| d.lint != lints::DETERMINISM_TAINT),
            "{clean:?}"
        );

        // An allow(determinism-taint) on the call site waives that edge and
        // stops the flow there.
        let waived = run_on(vec![(
            "detection",
            "crates/detection/src/lib.rs",
            "fn stamp() -> u64 { let t = Instant::now(); 0 }\n\
             fn score() -> u64 { stamp() } // fg-analyze: allow(determinism-taint): telemetry only\n\
             fn outer() -> u64 { score() }\n",
        )]);
        assert!(
            waived.iter().all(|d| d.lint != lints::DETERMINISM_TAINT),
            "sanitized call stops the flow before `outer`:\n{waived:?}"
        );
    }

    #[test]
    fn stale_markers_and_unknown_lints_are_reported() {
        let diags = run_on(vec![(
            "detection",
            "crates/detection/src/lib.rs",
            "fn a() -> u64 { 0 } // fg-analyze: allow(wall-clock): refactored away\n\
             fn b() -> u64 { 0 } // fg-analyze: allow(wall-clocks): typo'd id\n",
        )]);
        let stale: Vec<_> = diags
            .iter()
            .filter(|d| d.lint == lints::STALE_ALLOW)
            .collect();
        assert_eq!(stale.len(), 2, "{diags:?}");
        assert!(stale.iter().any(|d| d.source.ends_with(":1")));
        assert!(stale
            .iter()
            .any(|d| d.message.contains("unknown lint `wall-clocks`")));
    }

    #[test]
    fn live_markers_are_not_stale() {
        let diags = run_on(vec![(
            "scenario",
            "crates/scenario/src/lib.rs",
            "fn stamp() -> u64 { let t = Instant::now(); 0 } // fg-analyze: allow(wall-clock): profiling\n",
        )]);
        assert!(
            diags.iter().all(|d| d.lint != lints::STALE_ALLOW),
            "{diags:?}"
        );
    }
}
