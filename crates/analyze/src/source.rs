//! Pass 2 — the workspace source invariant checker.
//!
//! A lightweight line scanner (no parser, no new dependencies) enforcing the
//! contracts the simulation's reproducibility rests on:
//!
//! * **No wall clocks or entropy in determinism-critical crates.** The
//!   multi-seed harness promises byte-identical artifacts per seed; one
//!   `Instant::now()` or `thread_rng()` on a sim path silently breaks that.
//!   Profiling sites that feed telemetry (and never influence sim state) are
//!   acknowledged inline with `// fg-analyze: allow(wall-clock): <why>`.
//! * **No host-topology queries in determinism-critical crates.** A shard or
//!   worker count derived from `available_parallelism` makes the replay a
//!   function of the machine, not the seed; partitioning is configured
//!   through `ConcurrencyMode` instead.
//! * **`#![forbid(unsafe_code)]` in every crate root**, workspace and vendor
//!   alike. The single escape hatch is a root carrying both
//!   `// fg-analyze: allow(missing-forbid-unsafe): <why>` and
//!   `#![deny(unsafe_code)]` with scoped `#[allow]`s — required only by the
//!   signal-handler FFI shim, which `forbid` cannot express.
//! * **No SipHash maps in hot-path crates.** `fg_core::hash` (Fx) is
//!   mandated where map operations dominate the per-request budget
//!   (detection, mitigation).
//!
//! The scanner strips comments and string literals before matching, so prose
//! mentioning `Instant::now` never trips it; the allow-marker is read from
//! the comment part of the same line.

use crate::diag::{Diagnostic, Severity};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

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

/// The per-lint pattern classes shared with the taint pass ([`crate::taint`]),
/// which uses them both to seed direct taint and to verify that inline allow
/// markers still match the line they waive.
pub fn pattern_classes() -> [(&'static str, &'static [&'static str]); 4] {
    [
        (lints::WALL_CLOCK, WALL_CLOCK_PATTERNS),
        (lints::ENTROPY_RNG, ENTROPY_PATTERNS),
        (lints::MACHINE_DEPENDENT, MACHINE_DEPENDENT_PATTERNS),
        (lints::STD_HASH_COLLECTIONS, STD_HASH_PATTERNS),
    ]
}

const WALL_CLOCK_PATTERNS: &[&str] = &["Instant::now", "SystemTime"];
const ENTROPY_PATTERNS: &[&str] = &["thread_rng", "from_entropy", "OsRng", "rand::random"];
// Host-topology queries make shard/worker counts follow the machine, so the
// same seed would replay differently on different hardware. Shard counts must
// come from config (`ConcurrencyMode`), never from the host.
const MACHINE_DEPENDENT_PATTERNS: &[&str] = &["available_parallelism", "num_cpus"];
const STD_HASH_PATTERNS: &[&str] = &[
    "HashMap::new(",
    "HashSet::new(",
    "HashMap::with_capacity(",
    "HashSet::with_capacity(",
    "collections::HashMap",
    "collections::HashSet",
];

/// Scans every workspace crate under `root` (both `crates/` and `vendor/`)
/// and returns the findings. Paths in diagnostics are root-relative.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut diags = Vec::new();
    for tree in ["crates", "vendor"] {
        let dir = root.join(tree);
        let mut crates: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crates.sort();
        for crate_dir in crates {
            let crate_name = crate_dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_owned();
            let src = crate_dir.join("src");
            if !src.is_dir() {
                continue;
            }
            let mut files = Vec::new();
            collect_rs_files(&src, &mut files)?;
            files.sort();
            for file in files {
                let content = fs::read_to_string(&file)?;
                let rel = file
                    .strip_prefix(root)
                    .unwrap_or(&file)
                    .to_string_lossy()
                    .replace('\\', "/");
                // Vendored subsets are third-party idiom kept API-compatible;
                // only the unsafe-code contract applies to them.
                let name_for_rules = if tree == "vendor" {
                    "vendor"
                } else {
                    &crate_name
                };
                diags.extend(scan_file(name_for_rules, &rel, &content));
            }
        }
    }
    Ok(diags)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans one file's content under the rules for `crate_name`. `path` is used
/// only for diagnostic spans, so fixtures can pass any label.
pub fn scan_file(crate_name: &str, path: &str, content: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // A crate root may trade `forbid` down to `deny` only when it both says
    // so with an allow-marker and actually carries the `deny` attribute —
    // the single FFI shim (`vendor/unix-signal`) needs scoped
    // `#[allow(unsafe_code)]` blocks, which `forbid` cannot coexist with.
    let unsafe_waived = content.contains("fg-analyze: allow(missing-forbid-unsafe)")
        && content.contains("#![deny(unsafe_code)]");
    if path.ends_with("src/lib.rs")
        && !content.contains("#![forbid(unsafe_code)]")
        && !unsafe_waived
    {
        diags.push(Diagnostic::new(
            lints::MISSING_FORBID_UNSAFE,
            Severity::Deny,
            path,
            "crate root does not `#![forbid(unsafe_code)]`",
        ));
    }

    let critical = DETERMINISM_CRITICAL.contains(&crate_name);
    let hot = HOT_PATH.contains(&crate_name);
    if !critical && !hot {
        return diags;
    }

    for (idx, view) in crate::lexer::strip_lines(content).iter().enumerate() {
        let line_no = idx + 1;
        let (code, comment) = (&view.code, &view.comment);
        let allow = |lint: &str| comment.contains(&format!("fg-analyze: allow({lint})"));

        if critical {
            for pat in WALL_CLOCK_PATTERNS {
                if code.contains(pat) && !allow(lints::WALL_CLOCK) {
                    diags.push(
                        Diagnostic::new(
                            lints::WALL_CLOCK,
                            Severity::Deny,
                            format!("{path}:{line_no}"),
                            format!(
                                "`{pat}` in determinism-critical crate `{crate_name}`: \
                                 wall-clock reads break byte-identical multi-seed runs"
                            ),
                        )
                        .note("pattern", pat)
                        .note("crate", crate_name),
                    );
                    break;
                }
            }
            for pat in ENTROPY_PATTERNS {
                if code.contains(pat) && !allow(lints::ENTROPY_RNG) {
                    diags.push(
                        Diagnostic::new(
                            lints::ENTROPY_RNG,
                            Severity::Deny,
                            format!("{path}:{line_no}"),
                            format!(
                                "`{pat}` in determinism-critical crate `{crate_name}`: \
                                 all randomness must derive from the run seed"
                            ),
                        )
                        .note("pattern", pat)
                        .note("crate", crate_name),
                    );
                    break;
                }
            }
            for pat in MACHINE_DEPENDENT_PATTERNS {
                if code.contains(pat) && !allow(lints::MACHINE_DEPENDENT) {
                    diags.push(
                        Diagnostic::new(
                            lints::MACHINE_DEPENDENT,
                            Severity::Deny,
                            format!("{path}:{line_no}"),
                            format!(
                                "`{pat}` in determinism-critical crate `{crate_name}`: \
                                 shard and worker counts must come from config, \
                                 not the host's core count"
                            ),
                        )
                        .note("pattern", pat)
                        .note("crate", crate_name),
                    );
                    break;
                }
            }
        }
        if hot {
            for pat in STD_HASH_PATTERNS {
                if code.contains(pat) && !allow(lints::STD_HASH_COLLECTIONS) {
                    diags.push(
                        Diagnostic::new(
                            lints::STD_HASH_COLLECTIONS,
                            Severity::Warn,
                            format!("{path}:{line_no}"),
                            format!(
                                "std SipHash collections in hot-path crate \
                                 `{crate_name}`: use `fg_core::hash::FxHashMap`/`FxHashSet`"
                            ),
                        )
                        .note("pattern", pat)
                        .note("crate", crate_name),
                    );
                    break;
                }
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let diags = scan_workspace(&root).expect("workspace scan reads all sources");
        assert!(
            diags.is_empty(),
            "source invariants violated:\n{}",
            crate::diag::render_pretty(&diags)
        );
    }
}
