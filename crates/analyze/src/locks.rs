//! Pass 6 — shard and lock discipline for the concurrent layers.
//!
//! PR 7 sharded the defence state (`fg_core`'s `ShardedStore`) and PR 8
//! put a worker pool in front of it; this pass enforces the access rules
//! those designs rely on:
//!
//! * **`nested-shard-borrow`** ([`Severity::Deny`]) — two `shard_mut`
//!   borrows of the same store inside one statement. Today's `&mut self`
//!   API makes this a compile error for a single store, but the lint keeps
//!   the rule when shards grow interior mutability or per-shard locks,
//!   where nesting becomes a deadlock instead of a borrow error.
//! * **`shard-discipline`** ([`Severity::Warn`]) — `shards_mut` hands out
//!   every shard at once and therefore bypasses key→shard routing. The one
//!   documented use is full-sweep maintenance (idle eviction, compaction,
//!   decay purges), which visits every shard; every call site must say so
//!   with `// fg-analyze: allow(shard-discipline): <why>`. Only the
//!   accessor's own definition is exempt.
//! * **`lock-order-inversion`** ([`Severity::Deny`]) — two named `Mutex`es
//!   in `fg-serve` acquired in opposite orders in two code paths. Lock
//!   traces are per-function acquisition sequences with one level of
//!   same-crate call inlining (enough to see `try_reload → reload_inner`
//!   compose `active` then `last_reload`); an inversion between any two
//!   traces is a potential deadlock under the worker pool.
//! * **`atomic-ordering`** ([`Severity::Warn`]) — `Ordering::Relaxed` is
//!   reserved for the allowlisted monotone counters ([`RELAXED_COUNTERS`]);
//!   `Ordering::SeqCst` is banned outright (the workspace uses explicit
//!   acquire/release pairs — a stray SeqCst usually marks reasoning by
//!   superstition). `fg-telemetry` is exempt wholesale: its counters are
//!   statistical by contract.

use crate::callgraph::{CallGraph, SourceFile, Workspace};
use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokKind;

/// Stable lint ids for the discipline pass.
pub mod lints {
    /// Two `shard_mut` borrows of one store in a single statement.
    pub const NESTED_SHARD_BORROW: &str = "nested-shard-borrow";
    /// `shards_mut` without a documented-pattern waiver.
    pub const SHARD_DISCIPLINE: &str = "shard-discipline";
    /// Two fg-serve mutexes acquired in opposite orders.
    pub const LOCK_ORDER_INVERSION: &str = "lock-order-inversion";
    /// Relaxed/SeqCst atomics outside the counter policy.
    pub const ATOMIC_ORDERING: &str = "atomic-ordering";
}

/// Fields whose `Ordering::Relaxed` loads/stores are sanctioned: monotone
/// statistics counters and latched flags where staleness is harmless and
/// no other memory is published through them.
pub const RELAXED_COUNTERS: &[&str] = &[
    "decisions",
    "reports",
    "generation",
    "draining",
    "next_index",
    "shutdown",
    "cursor",
    // Flight-recorder sequence numbers: display ordering only, nothing is
    // published through them.
    "request_seq",
];

/// Runs all four discipline checks.
pub fn run(ws: &Workspace, graph: &CallGraph) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    shard_checks(ws, graph, &mut diags);
    lock_order(ws, graph, &mut diags);
    atomic_ordering(ws, graph, &mut diags);
    diags
}

/// Significant-token indices of a node's body.
fn sig_tokens(file: &SourceFile, body: std::ops::Range<usize>) -> Vec<usize> {
    body.filter(|i| {
        !matches!(
            file.tokens[*i].kind,
            TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment
        )
    })
    .collect()
}

/// The receiver ident directly before `.name(` at significant index `k` of
/// `name` — `self.active.lock()` → `active`, `rx.lock()` → `rx`,
/// `self.lock()` → `self`.
fn receiver<'a>(file: &'a SourceFile, idx: &[usize], k: usize) -> Option<&'a str> {
    if k < 2 || file.tokens[idx[k - 1]].text(&file.src) != "." {
        return None;
    }
    let prev = &file.tokens[idx[k - 2]];
    (prev.kind == TokKind::Ident || prev.text(&file.src) == ")").then(|| prev.text(&file.src))
}

fn shard_checks(ws: &Workspace, graph: &CallGraph, diags: &mut Vec<Diagnostic>) {
    for id in 0..graph.fns.len() {
        let file = graph.file(ws, id);
        let item = graph.item(ws, id);
        let idx = sig_tokens(file, item.body.clone());
        let text = |k: usize| file.tokens[idx[k]].text(&file.src);

        // Statement-scoped shard_mut borrows, keyed by receiver.
        let mut in_stmt: Vec<(String, usize)> = Vec::new();
        for k in 0..idx.len() {
            let t = text(k);
            if t == ";" {
                in_stmt.clear();
                continue;
            }
            if file.tokens[idx[k]].kind != TokKind::Ident {
                continue;
            }
            let next = if k + 1 < idx.len() { text(k + 1) } else { "" };
            if next != "(" {
                continue;
            }
            let line_no = file.line_of(idx[k]);
            if t == "shard_mut" {
                let recv = receiver(file, &idx, k).unwrap_or("").to_owned();
                if let Some((_, first_line)) =
                    in_stmt.iter().find(|(r, _)| *r == recv && !recv.is_empty())
                {
                    if !file.allows(line_no, lints::NESTED_SHARD_BORROW) {
                        diags.push(
                            Diagnostic::new(
                                lints::NESTED_SHARD_BORROW,
                                Severity::Deny,
                                format!("{}:{}", file.path, line_no),
                                format!(
                                    "`{}` borrows `{recv}.shard_mut(…)` twice in one \
                                     statement: with per-shard locking this is a \
                                     self-deadlock — split the statement",
                                    item.path
                                ),
                            )
                            .note("receiver", &recv)
                            .note("first_borrow_line", first_line),
                        );
                    }
                } else {
                    in_stmt.push((recv, line_no));
                }
            } else if t == "shards_mut" {
                // The accessor's own definition defines the pattern; call
                // sites justify it.
                if item.name == "shards_mut" {
                    continue;
                }
                if !file.allows(line_no, lints::SHARD_DISCIPLINE) {
                    diags.push(
                        Diagnostic::new(
                            lints::SHARD_DISCIPLINE,
                            Severity::Warn,
                            format!("{}:{}", file.path, line_no),
                            format!(
                                "`{}` takes `shards_mut()` without a documented \
                                 pattern: annotate the site as the full-sweep \
                                 maintenance it does, or route by key instead",
                                item.path
                            ),
                        )
                        .note("function", &item.path),
                    );
                }
            }
        }
    }
}

/// One lock acquisition in a trace.
#[derive(Clone, Debug)]
struct Acq {
    name: String,
    line: usize,
}

/// Per-function acquisition sequence: syntactic `.lock()` receivers, with
/// `self.lock()` helpers named by their impl type.
fn own_trace(file: &SourceFile, item: &crate::items::FnItem) -> Vec<Acq> {
    let idx = sig_tokens(file, item.body.clone());
    let mut out = Vec::new();
    for k in 0..idx.len() {
        let tok = &file.tokens[idx[k]];
        if tok.kind != TokKind::Ident || tok.text(&file.src) != "lock" {
            continue;
        }
        if k + 1 >= idx.len() || file.tokens[idx[k + 1]].text(&file.src) != "(" {
            continue;
        }
        let Some(recv) = receiver(file, &idx, k) else {
            continue;
        };
        let name = if recv == "self" {
            // A `fn lock(&self)` convenience wrapper: the mutex is the
            // impl type's single inner lock.
            item.impl_type.clone().unwrap_or_else(|| "self".to_owned())
        } else {
            recv.to_owned()
        };
        out.push(Acq {
            name,
            line: file.line_of(idx[k]),
        });
    }
    out
}

fn lock_order(ws: &Workspace, graph: &CallGraph, diags: &mut Vec<Diagnostic>) {
    // Own traces for every serve fn, then one level of same-crate inlining.
    let mut own: Vec<Vec<Acq>> = Vec::with_capacity(graph.fns.len());
    for id in 0..graph.fns.len() {
        let file = graph.file(ws, id);
        own.push(if file.krate == "serve" {
            own_trace(file, graph.item(ws, id))
        } else {
            Vec::new()
        });
    }
    // pair (a, b) → first witness "fn path (a@line, b@line)"
    let mut pairs: std::collections::BTreeMap<(String, String), (usize, String)> =
        std::collections::BTreeMap::new();
    for id in 0..graph.fns.len() {
        let file = graph.file(ws, id);
        if file.krate != "serve" {
            continue;
        }
        let mut trace = own[id].clone();
        for call in &graph.calls[id] {
            if graph.file(ws, call.callee).krate == "serve" {
                for acq in &own[call.callee] {
                    trace.push(Acq {
                        name: acq.name.clone(),
                        line: call.line,
                    });
                }
            }
        }
        trace.sort_by_key(|a| a.line);
        let item = graph.item(ws, id);
        for i in 0..trace.len() {
            for j in i + 1..trace.len() {
                let (a, b) = (&trace[i], &trace[j]);
                if a.name == b.name {
                    continue;
                }
                let witness = format!(
                    "{} ({}@{} then {}@{})",
                    item.path, a.name, a.line, b.name, b.line
                );
                pairs
                    .entry((a.name.clone(), b.name.clone()))
                    .or_insert((id, witness));
            }
        }
    }
    let mut reported = std::collections::BTreeSet::new();
    for ((a, b), (id, witness)) in &pairs {
        let Some((other_id, other_witness)) = pairs.get(&(b.clone(), a.clone())) else {
            continue;
        };
        let key = if a < b {
            (a.clone(), b.clone())
        } else {
            (b.clone(), a.clone())
        };
        if !reported.insert(key) {
            continue;
        }
        let item = graph.item(ws, *id);
        let line = own[*id].first().map_or(item.line, |acq| acq.line);
        let file = graph.file(ws, *id);
        if file.allows(line, lints::LOCK_ORDER_INVERSION) {
            continue;
        }
        diags.push(
            Diagnostic::new(
                lints::LOCK_ORDER_INVERSION,
                Severity::Deny,
                format!("{}:{}", file.path, line),
                format!(
                    "mutexes `{a}` and `{b}` are acquired in opposite orders in \
                     two fg-serve code paths — a deadlock window under the \
                     worker pool; pick one order",
                ),
            )
            .note("order_one", witness)
            .note("order_two", other_witness)
            .note("also_in", &graph.item(ws, *other_id).path),
        );
    }
}

fn atomic_ordering(ws: &Workspace, graph: &CallGraph, diags: &mut Vec<Diagnostic>) {
    for id in 0..graph.fns.len() {
        let file = graph.file(ws, id);
        // Telemetry counters are statistical by contract.
        if file.krate == "telemetry" {
            continue;
        }
        let item = graph.item(ws, id);
        let idx = sig_tokens(file, item.body.clone());
        let text = |k: usize| file.tokens[idx[k]].text(&file.src);
        for (k, &ti) in idx.iter().enumerate() {
            if file.tokens[ti].kind != TokKind::Ident {
                continue;
            }
            let name = file.tokens[ti].text(&file.src);
            if name != "Relaxed" && name != "SeqCst" {
                continue;
            }
            // Require the `Ordering::` qualifier so a stray ident (an enum
            // variant in domain code) cannot trip the lint.
            if k < 3 || text(k - 1) != ":" || text(k - 2) != ":" || text(k - 3) != "Ordering" {
                continue;
            }
            let line_no = file.line_of(ti);
            if file.allows(line_no, lints::ATOMIC_ORDERING) {
                continue;
            }
            if name == "Relaxed" {
                let code = &file.line(line_no).code;
                if RELAXED_COUNTERS.iter().any(|c| code.contains(c)) {
                    continue;
                }
                diags.push(
                    Diagnostic::new(
                        lints::ATOMIC_ORDERING,
                        Severity::Warn,
                        format!("{}:{}", file.path, line_no),
                        format!(
                            "`Ordering::Relaxed` in `{}` outside the counter policy: \
                             Relaxed is reserved for allowlisted monotone counters — \
                             use acquire/release, extend RELAXED_COUNTERS, or waive",
                            item.path
                        ),
                    )
                    .note("function", &item.path),
                );
            } else {
                diags.push(
                    Diagnostic::new(
                        lints::ATOMIC_ORDERING,
                        Severity::Warn,
                        format!("{}:{}", file.path, line_no),
                        format!(
                            "`Ordering::SeqCst` in `{}`: the workspace uses explicit \
                             acquire/release pairs — justify with a waiver or weaken",
                            item.path
                        ),
                    )
                    .note("function", &item.path),
                );
            }
        }
    }
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
    fn nested_shard_borrow_in_one_statement_is_denied() {
        let diags = run_on(vec![(
            "core",
            "crates/core/src/lib.rs",
            "fn merge(store: &mut Store, a: u64, b: u64) {\n\
                 combine(store.shard_mut(&a), store.shard_mut(&b));\n\
             }\n",
        )]);
        let hit: Vec<_> = diags
            .iter()
            .filter(|d| d.lint == lints::NESTED_SHARD_BORROW)
            .collect();
        assert_eq!(hit.len(), 1, "{diags:?}");
        assert_eq!(hit[0].severity, Severity::Deny);
        assert_eq!(hit[0].explanation["receiver"], "store");
    }

    #[test]
    fn sequential_statements_and_distinct_stores_are_fine() {
        let diags = run_on(vec![(
            "core",
            "crates/core/src/lib.rs",
            "fn ok(a_store: &mut Store, b_store: &mut Store, k: u64) {\n\
                 a_store.shard_mut(&k).push(k);\n\
                 a_store.shard_mut(&k).push(k);\n\
                 combine(a_store.shard_mut(&k), b_store.shard_mut(&k));\n\
             }\n",
        )]);
        assert!(
            diags.iter().all(|d| d.lint != lints::NESTED_SHARD_BORROW),
            "{diags:?}"
        );
    }

    #[test]
    fn shards_mut_requires_a_pattern_waiver() {
        let bare = run_on(vec![(
            "mitigation",
            "crates/mitigation/src/lib.rs",
            "fn sweep(s: &mut Store) { for shard in s.shards_mut() { shard.gc(); } }\n",
        )]);
        assert!(
            bare.iter().any(|d| d.lint == lints::SHARD_DISCIPLINE),
            "{bare:?}"
        );
        let waived = run_on(vec![(
            "mitigation",
            "crates/mitigation/src/lib.rs",
            "fn sweep(s: &mut Store) {\n\
                 // fg-analyze: allow(shard-discipline): full-sweep gc\n\
                 for shard in s.shards_mut() { shard.gc(); } // fg-analyze: allow(shard-discipline): full-sweep gc\n\
             }\n",
        )]);
        assert!(
            waived.iter().all(|d| d.lint != lints::SHARD_DISCIPLINE),
            "{waived:?}"
        );
    }

    #[test]
    fn inverted_lock_order_across_serve_paths_is_denied() {
        let diags = run_on(vec![(
            "serve",
            "crates/serve/src/server.rs",
            "fn path_one(s: &State) {\n\
                 let a = s.active.lock();\n\
                 let b = s.last_reload.lock();\n\
             }\n\
             fn path_two(s: &State) {\n\
                 let b = s.last_reload.lock();\n\
                 let a = s.active.lock();\n\
             }\n",
        )]);
        let hit: Vec<_> = diags
            .iter()
            .filter(|d| d.lint == lints::LOCK_ORDER_INVERSION)
            .collect();
        assert_eq!(hit.len(), 1, "one inversion, reported once: {diags:?}");
        assert!(hit[0].message.contains("active"), "{:?}", hit[0]);
    }

    #[test]
    fn consistent_order_and_inlined_callees_are_clean() {
        // path_two takes `active` via a callee, still before `last_reload`.
        let diags = run_on(vec![(
            "serve",
            "crates/serve/src/server.rs",
            "fn path_one(s: &State) {\n\
                 let a = s.active.lock();\n\
                 let b = s.last_reload.lock();\n\
             }\n\
             fn take_active(s: &State) { let a = s.active.lock(); }\n\
             fn path_two(s: &State) {\n\
                 take_active(s);\n\
                 let b = s.last_reload.lock();\n\
             }\n",
        )]);
        assert!(
            diags.iter().all(|d| d.lint != lints::LOCK_ORDER_INVERSION),
            "{diags:?}"
        );
    }

    #[test]
    fn atomic_policy_allows_counters_and_flags_the_rest() {
        let diags = run_on(vec![(
            "serve",
            "crates/serve/src/lib.rs",
            "fn f(s: &S) {\n\
                 s.decisions.fetch_add(1, Ordering::Relaxed);\n\
                 s.shared_ptr.store(p, Ordering::Relaxed);\n\
                 s.flag.store(true, Ordering::SeqCst);\n\
             }\n",
        )]);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.lint == lints::ATOMIC_ORDERING)
            .collect();
        assert_eq!(hits.len(), 2, "{diags:?}");
        assert!(hits.iter().any(|d| d.source.ends_with(":3")));
        assert!(hits.iter().any(|d| d.source.ends_with(":4")));
    }

    #[test]
    fn telemetry_is_exempt_from_the_atomic_policy() {
        let diags = run_on(vec![(
            "telemetry",
            "crates/telemetry/src/lib.rs",
            "fn f(s: &S) { s.anything.store(1, Ordering::Relaxed); }\n",
        )]);
        assert!(
            diags.iter().all(|d| d.lint != lints::ATOMIC_ORDERING),
            "{diags:?}"
        );
    }
}
