//! Pass 2 — the workspace source invariants, checked line by line over the
//! parsed [`Workspace`].
//!
//! One table, [`PATTERN_LINTS`], states the line-pattern lints that enforce
//! the contracts the simulation's reproducibility rests on:
//!
//! * **No wall clocks or entropy in determinism-critical crates.** The
//!   multi-seed harness promises byte-identical artifacts per seed; one
//!   `Instant::now()` or `thread_rng()` on a sim path silently breaks that.
//!   Profiling sites that feed telemetry (and never influence sim state) are
//!   acknowledged with `// fg-analyze: allow(wall-clock): <why>`.
//! * **No host-topology queries in determinism-critical crates.** A shard or
//!   worker count derived from `available_parallelism` makes the replay a
//!   function of the machine, not the seed; partitioning is configured
//!   through `ConcurrencyMode` instead.
//! * **No SipHash maps in hot-path crates.** `fg_core::hash` (Fx) is
//!   mandated where map operations dominate the per-request budget
//!   (detection, mitigation).
//!
//! The pass also requires **`#![forbid(unsafe_code)]` in every crate root**,
//! workspace and vendor alike. The single escape hatch is a root carrying
//! both `// fg-analyze: allow(missing-forbid-unsafe): <why>` and
//! `#![deny(unsafe_code)]` with scoped `#[allow]`s — required only by the
//! signal-handler FFI shim, which `forbid` cannot express.
//!
//! Patterns match each line's code with comments and literal contents
//! stripped ([`SourceFile::lines`](crate::callgraph::SourceFile::lines)), so
//! prose mentioning `Instant::now` never trips them. A finding is waived as
//! every pass waives one, by
//! [`SourceFile::allows`](crate::callgraph::SourceFile::allows): a marker in
//! the line's own comment or alone on the line directly above it.

use crate::callgraph::Workspace;
use crate::diag::{Diagnostic, Severity};

/// Stable lint ids for pass 2.
pub mod lints {
    /// `Instant::now` / `SystemTime` in a determinism-critical crate.
    pub const WALL_CLOCK: &str = "wall-clock";
    /// Entropy-seeded randomness in a determinism-critical crate.
    pub const ENTROPY_RNG: &str = "entropy-rng";
    /// Host-topology queries (`available_parallelism`, `num_cpus`) in a
    /// determinism-critical crate.
    pub const MACHINE_DEPENDENT: &str = "machine-dependent";
    /// Crate root missing `#![forbid(unsafe_code)]`.
    pub const MISSING_FORBID_UNSAFE: &str = "missing-forbid-unsafe";
    /// `std::collections::HashMap`/`HashSet` in a hot-path crate where
    /// `fg_core::hash` is mandated.
    pub const STD_HASH_COLLECTIONS: &str = "std-hash-collections";
}

/// Crates whose behaviour must be a pure function of the seed.
///
/// The other workspace crates are exempt from the determinism and hashing
/// lints: telemetry and benchmarking measure wall-clock by design, the
/// analyzer itself names the forbidden patterns, and the serving layer
/// (`serve`) is where determinism deliberately stops — request latency,
/// socket timeouts, and drain deadlines are wall-clock phenomena, while
/// every decision it returns still comes from the deterministic core
/// underneath. (`#![forbid(unsafe_code)]` still applies to all of them.)
pub const DETERMINISM_CRITICAL: &[&str] = &[
    "behavior",
    "core",
    "detection",
    "fingerprint",
    "inventory",
    "mitigation",
    "netsim",
    "scenario",
    "smsgw",
];

/// Crates where `fg_core::hash` is mandated for map-heavy request paths.
pub const HOT_PATH: &[&str] = &["detection", "mitigation"];

/// One line-pattern lint: a line of code in a governed crate that contains
/// one of the patterns is a finding.
pub struct PatternLint {
    /// The lint id.
    pub id: &'static str,
    /// The severity of a finding.
    pub severity: Severity,
    /// The crates the lint governs ([`DETERMINISM_CRITICAL`] or [`HOT_PATH`]).
    pub crates: &'static [&'static str],
    /// The code fragments that trip it; a line reports the first it contains.
    pub patterns: &'static [&'static str],
    /// The finding's message; `{pattern}` and `{crate}` stand for the
    /// fragment matched and the crate it was found in.
    pub message: &'static str,
}

impl PatternLint {
    /// The first of the lint's patterns that `code` contains.
    pub fn first_match(&self, code: &str) -> Option<&'static str> {
        self.patterns.iter().copied().find(|p| code.contains(p))
    }
}

/// Every line-pattern lint, in reporting order. The source pass reports from
/// this table, the taint pass ([`crate::taint`]) seeds from the rows that
/// govern [`DETERMINISM_CRITICAL`], and `stale-allow` checks a marker for one
/// of these lints against its row.
pub const PATTERN_LINTS: &[PatternLint] = &[
    PatternLint {
        id: lints::WALL_CLOCK,
        severity: Severity::Deny,
        crates: DETERMINISM_CRITICAL,
        patterns: &["Instant::now", "SystemTime"],
        message: "`{pattern}` in determinism-critical crate `{crate}`: \
                  wall-clock reads break byte-identical multi-seed runs",
    },
    PatternLint {
        id: lints::ENTROPY_RNG,
        severity: Severity::Deny,
        crates: DETERMINISM_CRITICAL,
        patterns: &["thread_rng", "from_entropy", "OsRng", "rand::random"],
        message: "`{pattern}` in determinism-critical crate `{crate}`: \
                  all randomness must derive from the run seed",
    },
    // Host-topology queries make shard/worker counts follow the machine, so
    // the same seed would replay differently on different hardware. Shard
    // counts must come from config (`ConcurrencyMode`), never from the host.
    PatternLint {
        id: lints::MACHINE_DEPENDENT,
        severity: Severity::Deny,
        crates: DETERMINISM_CRITICAL,
        patterns: &["available_parallelism", "num_cpus"],
        message: "`{pattern}` in determinism-critical crate `{crate}`: \
                  shard and worker counts must come from config, \
                  not the host's core count",
    },
    PatternLint {
        id: lints::STD_HASH_COLLECTIONS,
        severity: Severity::Warn,
        crates: HOT_PATH,
        patterns: &[
            "HashMap::new(",
            "HashSet::new(",
            "HashMap::with_capacity(",
            "HashSet::with_capacity(",
            "collections::HashMap",
            "collections::HashSet",
        ],
        message: "std SipHash collections in hot-path crate `{crate}`: \
                  use `fg_core::hash::FxHashMap`/`FxHashSet`",
    },
];

/// Runs the pass over `ws`: each workspace file's crate-root check and
/// pattern lints, then the vendored crate roots' crate-root check. Paths in
/// diagnostics are root-relative.
pub fn run(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in &ws.files {
        diags.extend(missing_forbid_unsafe(&file.path, &file.src));
        let rows: Vec<&PatternLint> = PATTERN_LINTS
            .iter()
            .filter(|row| row.crates.contains(&file.krate.as_str()))
            .collect();
        for (idx, view) in file.lines.iter().enumerate() {
            let line_no = idx + 1;
            for row in &rows {
                let Some(pattern) = row.first_match(&view.code) else {
                    continue;
                };
                if file.allows(line_no, row.id) {
                    continue;
                }
                let message = row
                    .message
                    .replace("{pattern}", pattern)
                    .replace("{crate}", &file.krate);
                diags.push(
                    Diagnostic::new(
                        row.id,
                        row.severity,
                        format!("{}:{line_no}", file.path),
                        message,
                    )
                    .note("pattern", pattern)
                    .note("crate", &file.krate),
                );
            }
        }
    }
    for (path, src) in &ws.vendor_roots {
        diags.extend(missing_forbid_unsafe(path, src));
    }
    diags
}

/// The crate-root check for the file at `path`. A root may trade `forbid`
/// down to `deny` only when it both says so with an allow-marker and
/// actually carries the `deny` attribute — the single FFI shim
/// (`vendor/unix-signal`) needs scoped `#[allow(unsafe_code)]` blocks, which
/// `forbid` cannot coexist with.
fn missing_forbid_unsafe(path: &str, src: &str) -> Option<Diagnostic> {
    let waived = src.contains("fg-analyze: allow(missing-forbid-unsafe)")
        && src.contains("#![deny(unsafe_code)]");
    if !path.ends_with("src/lib.rs") || src.contains("#![forbid(unsafe_code)]") || waived {
        return None;
    }
    Some(Diagnostic::new(
        lints::MISSING_FORBID_UNSAFE,
        Severity::Deny,
        path,
        "crate root does not `#![forbid(unsafe_code)]`",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use std::path::Path;

    /// Runs the pass over a one-file workspace.
    fn scan_file(crate_name: &str, path: &str, content: &str) -> Vec<Diagnostic> {
        run(&Workspace::from_sources(vec![(crate_name, path, content)]))
    }

    fn lints_of(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.lint.as_str()).collect()
    }

    #[test]
    fn wall_clock_fires_in_critical_crates_only() {
        let code = "let t = std::time::Instant::now();\n";
        assert_eq!(
            lints_of(&scan_file("detection", "x.rs", code)),
            vec![lints::WALL_CLOCK]
        );
        assert!(scan_file("telemetry", "x.rs", code).is_empty());
        assert!(scan_file("vendor", "x.rs", code).is_empty());
    }

    #[test]
    fn allow_marker_suppresses_on_its_line_only() {
        let code = "let t = Instant::now(); // fg-analyze: allow(wall-clock): profiling\n\
                    let u = Instant::now();\n";
        let diags = scan_file("scenario", "x.rs", code);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].source.ends_with(":2"));
    }

    #[test]
    fn standalone_marker_waives_the_line_below_only() {
        let code = "// fg-analyze: allow(wall-clock): profiling\n\
                    let t = Instant::now();\n\
                    let u = Instant::now();\n";
        let diags = scan_file("scenario", "x.rs", code);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].source.ends_with(":3"));
    }

    /// The source, taint and stale-allow passes read one waiver rule: a
    /// standalone marker above a clock read in a determinism-critical crate
    /// raises no source finding, seeds no taint into the read's callers and
    /// is not stale.
    #[test]
    fn standalone_waiver_holds_in_every_pass() {
        let ws = Workspace::from_sources(vec![(
            "core",
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             fn stamp() -> u64 {\n\
                 // fg-analyze: allow(wall-clock): profiling only\n\
                 let _t = std::time::Instant::now();\n\
                 0\n\
             }\n\
             fn score() -> u64 { stamp() }\n",
        )]);
        let graph = CallGraph::build(&ws);
        let source = run(&ws);
        assert!(source.is_empty(), "{source:?}");
        assert!(crate::taint::taint_map(&ws, &graph)
            .iter()
            .all(Option::is_none));
        let taint = crate::taint::run(&ws, &graph);
        assert!(taint.is_empty(), "{taint:?}");
    }

    #[test]
    fn entropy_rng_fires() {
        for pat in ["rand::thread_rng()", "StdRng::from_entropy()", "OsRng"] {
            let code = format!("let r = {pat};\n");
            assert_eq!(
                lints_of(&scan_file("behavior", "x.rs", &code)),
                vec![lints::ENTROPY_RNG],
                "{pat}"
            );
        }
        // Seeded RNG is the contract, not a violation.
        assert!(scan_file("behavior", "x.rs", "StdRng::seed_from_u64(7)\n").is_empty());
    }

    #[test]
    fn machine_dependent_queries_fire_in_critical_crates_only() {
        for pat in ["std::thread::available_parallelism()", "num_cpus::get()"] {
            let code = format!("let n = {pat};\n");
            assert_eq!(
                lints_of(&scan_file("scenario", "x.rs", &code)),
                vec![lints::MACHINE_DEPENDENT],
                "{pat}"
            );
            // The bench harness may size its worker pool from the host.
            assert!(scan_file("bench", "x.rs", &code).is_empty(), "{pat}");
        }
        // A config-driven shard count is the contract, not a violation.
        assert!(scan_file("scenario", "x.rs", "let n = config.shards.max(1);\n").is_empty());
    }

    #[test]
    fn std_hash_collections_fire_only_in_hot_path_crates() {
        let code = "let m: HashMap<u32, u32> = HashMap::new();\n";
        assert_eq!(
            lints_of(&scan_file("mitigation", "x.rs", code)),
            vec![lints::STD_HASH_COLLECTIONS]
        );
        // behavior is determinism-critical but not hash-mandated.
        assert!(scan_file("behavior", "x.rs", code).is_empty());
        let import = "use std::collections::HashMap;\n";
        assert_eq!(
            lints_of(&scan_file("detection", "x.rs", import)),
            vec![lints::STD_HASH_COLLECTIONS]
        );
    }

    #[test]
    fn missing_forbid_unsafe_is_deny_for_lib_roots() {
        let diags = scan_file("newcrate", "crates/newcrate/src/lib.rs", "pub fn f() {}\n");
        assert_eq!(lints_of(&diags), vec![lints::MISSING_FORBID_UNSAFE]);
        assert_eq!(diags[0].severity, Severity::Deny);
        // Non-root files are not required to repeat it.
        assert!(scan_file("newcrate", "crates/newcrate/src/other.rs", "fn f() {}\n").is_empty());
        // A compliant root passes.
        assert!(scan_file(
            "newcrate",
            "crates/newcrate/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}\n"
        )
        .is_empty());
    }

    #[test]
    fn unsafe_waiver_needs_both_marker_and_deny() {
        // Marker + deny: the scoped-FFI escape hatch.
        assert!(scan_file(
            "unix-signal",
            "vendor/unix-signal/src/lib.rs",
            "// fg-analyze: allow(missing-forbid-unsafe): scoped FFI shim\n\
             #![deny(unsafe_code)]\npub fn f() {}\n"
        )
        .is_empty());
        // Marker alone is not enough...
        assert_eq!(
            lints_of(&scan_file(
                "unix-signal",
                "vendor/unix-signal/src/lib.rs",
                "// fg-analyze: allow(missing-forbid-unsafe): scoped FFI shim\npub fn f() {}\n"
            )),
            vec![lints::MISSING_FORBID_UNSAFE]
        );
        // ...and neither is `deny` alone.
        assert_eq!(
            lints_of(&scan_file(
                "unix-signal",
                "vendor/unix-signal/src/lib.rs",
                "#![deny(unsafe_code)]\npub fn f() {}\n"
            )),
            vec![lints::MISSING_FORBID_UNSAFE]
        );
    }

    #[test]
    fn comments_and_strings_do_not_trip_patterns() {
        let code = "// Instant::now is forbidden here\n\
                    /* SystemTime too,\n\
                       across lines */\n\
                    let s = \"thread_rng\";\n\
                    let ok = 1;\n";
        assert!(
            scan_file("detection", "x.rs", code).is_empty(),
            "prose is not code"
        );
    }

    #[test]
    fn raw_strings_do_not_trip_patterns() {
        // The pass-1 stripper treated `r#"..."#` like a plain string and got
        // derailed by the unescaped interior quote; pattern text smuggled in a
        // raw string must stay invisible, and real code after it must not.
        let code = "let doc = r#\"call Instant::now() to \"time\" it\"#;\n\
                    let multi = r##\"thread_rng\n\
                    spans \"lines\" too\"##;\n\
                    let ok = 1;\n";
        assert!(
            scan_file("detection", "x.rs", code).is_empty(),
            "raw-string contents are not code"
        );
        let trailing = "let doc = r#\"no \"clock\" here\"#; let t = Instant::now();\n";
        assert_eq!(
            lints_of(&scan_file("detection", "x.rs", trailing)),
            vec![lints::WALL_CLOCK],
            "code after a raw string on the same line is still scanned"
        );
    }

    #[test]
    fn nested_block_comments_do_not_trip_patterns() {
        // Rust block comments nest; a naive depth counter that misses the
        // inner `/*` would resurface the tail of the outer comment as code.
        let code = "/* outer /* Instant::now() inner */ still comment */\n\
                    let ok = 1;\n\
                    /* a /* b /* SystemTime::now() */ c */ d */ let t = Instant::now();\n";
        assert_eq!(
            lints_of(&scan_file("detection", "x.rs", code)),
            vec![lints::WALL_CLOCK],
            "only the real call after the fully closed comment fires"
        );
    }

    #[test]
    fn char_literals_and_lifetimes_do_not_derail_the_scanner() {
        let code = "fn f<'a>(x: &'a str) -> char { let q = '\"'; let t = Instant::now(); q }\n";
        assert_eq!(
            lints_of(&scan_file("detection", "x.rs", code)),
            vec![lints::WALL_CLOCK]
        );
    }

    #[test]
    fn workspace_is_clean_under_the_allowlist() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let diags = run(&Workspace::load(&root).expect("workspace scan reads all sources"));
        assert!(
            diags.is_empty(),
            "source invariants violated:\n{}",
            crate::diag::render_pretty(&diags)
        );
    }
}
