//! `fg-analyze` — static analysis for the defence stack.
//!
//! [`full_report`] runs six passes with one diagnostic model, in this order:
//!
//! * **Config pass** ([`config`]): semantic lints over [`fg_mitigation`]
//!   policy configurations *in the context of the scenario they defend* — a
//!   rate limit is not judged in isolation but against the modeled traffic
//!   it must catch. Run over the three built-in presets and every
//!   [`DefenceProfile`] declared by the experiment registry.
//! * **Alerts pass** ([`alerts`]): each experiment's [`fg_sentinel`] alert
//!   policy judged against the scenario traffic its profiles declare — dead
//!   alert rules and unwatched abuse channels.
//!
//! The other four run over one [`callgraph::Workspace`], which parses every
//! workspace source file once:
//!
//! * **Source pass** ([`source`]): the line-pattern lints — no wall clocks,
//!   entropy RNG or host-topology queries in determinism-critical crates, no
//!   std hash collections on hot paths — and `#![forbid(unsafe_code)]` in
//!   every crate root.
//! * **Taint pass** ([`taint`]): non-determinism that reaches a
//!   determinism-critical crate through calls, and stale allow markers.
//! * **Panic-surface pass** ([`panic_path`]): panics and partial operations
//!   reachable from fg-serve's request path.
//! * **Discipline pass** ([`locks`]): shard borrows, lock order and atomic
//!   orderings.
//!
//! All passes emit [`Diagnostic`]s; `--deny <severity>` turns any unwaived
//! finding at or above that severity into a CI failure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alerts;
pub mod baseline;
pub mod callgraph;
pub mod config;
pub mod diag;
pub mod items;
pub mod lexer;
pub mod locks;
pub mod panic_path;
pub mod sarif;
pub mod source;
pub mod taint;

pub use baseline::Baseline;
pub use diag::{render_json, render_pretty, Diagnostic, Severity};
use fg_mitigation::policy::PolicyConfig;
use fg_mitigation::profile::DefenceProfile;
pub use sarif::render_sarif;

/// Every defence deployment committed to this workspace: the three built-in
/// presets (judged against the default airline scenario) plus each profile
/// declared by the ten registered experiments.
pub fn workspace_profiles() -> Vec<DefenceProfile> {
    let mut profiles = vec![
        DefenceProfile::airline("preset:unprotected", PolicyConfig::unprotected()),
        DefenceProfile::airline(
            "preset:traditional_antibot",
            PolicyConfig::traditional_antibot(),
        ),
        DefenceProfile::airline("preset:recommended", PolicyConfig::recommended()),
    ];
    for spec in fg_scenario::experiments::all_specs() {
        for mut profile in (spec.profiles)() {
            profile.name = format!("spec:{}/{}", spec.name, profile.name);
            profiles.push(profile);
        }
    }
    profiles
}

/// Runs the config pass over every committed deployment.
pub fn analyze_workspace_configs() -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for profile in workspace_profiles() {
        diags.extend(config::analyze_profile(&profile));
    }
    diags
}

/// Runs the alerts pass over every registered experiment's alert policy.
pub fn analyze_workspace_alerts() -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for spec in fg_scenario::experiments::all_specs() {
        let policy = (spec.alerts)();
        let profiles = (spec.profiles)();
        diags.extend(alerts::analyze_policy(
            &policy,
            &profiles,
            &format!("spec:{}/alerts:{}", spec.name, policy.name),
        ));
    }
    diags
}

/// Validates a policy intended for the online decision service (`fg-serve`).
///
/// This is the gate behind config hot-reload: the config pass judges the
/// policy against the default airline serving scenario, and a policy with
/// any finding at [`Severity::Warn`] or above — a structurally invalid one
/// ([`PolicyConfig::validate`]) included — is rejected, so the service keeps
/// running on its previous config. Waived findings never gate, matching the
/// CI `--deny warn` contract.
pub fn validate_serve_policy(policy: &PolicyConfig) -> Result<(), Vec<Diagnostic>> {
    let profile = DefenceProfile::airline("serve:policy", policy.clone());
    let diags: Vec<Diagnostic> = config::analyze_profile(&profile)
        .into_iter()
        .filter(|d| d.gates_at(Severity::Warn))
        .collect();
    if diags.is_empty() {
        Ok(())
    } else {
        Err(diags)
    }
}

/// Runs all passes: the config pass over all committed deployments, the
/// alerts pass over all committed alert policies, then the source pass and
/// the call-graph dataflow passes over the workspace rooted at `root`,
/// which is loaded once.
pub fn full_report(root: &std::path::Path) -> std::io::Result<Vec<Diagnostic>> {
    let ws = callgraph::Workspace::load(root)?;
    let graph = callgraph::CallGraph::build(&ws);
    let mut diags = analyze_workspace_configs();
    diags.extend(analyze_workspace_alerts());
    diags.extend(source::run(&ws));
    diags.extend(taint::run(&ws, &graph));
    diags.extend(panic_path::run(&ws, &graph));
    diags.extend(locks::run(&ws, &graph));
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// ISSUE 4 acceptance: `fg-analyze` reports zero deny-level (and, with
    /// waivers honoured, zero warn-level) diagnostics on the committed
    /// workspace.
    #[test]
    fn committed_workspace_gates_clean_at_warn() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let diags = full_report(&root).expect("workspace sources readable");
        let gating: Vec<_> = diags
            .iter()
            .filter(|d| d.gates_at(Severity::Warn))
            .collect();
        assert!(
            gating.is_empty(),
            "committed workspace must be clean at --deny warn:\n{}",
            render_pretty(&gating.into_iter().cloned().collect::<Vec<_>>())
        );
    }

    /// The committed `ANALYZE_baseline.json` matches the current report
    /// exactly — no regressions (new findings) and no stale entries (burned
    /// down but still recorded). Re-bless with
    /// `fg-analyze --bless-baseline ANALYZE_baseline.json` when findings
    /// change deliberately.
    #[test]
    fn committed_baseline_matches_current_report() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let diags = full_report(&root).expect("workspace sources readable");
        let text = std::fs::read_to_string(root.join("ANALYZE_baseline.json"))
            .expect("ANALYZE_baseline.json is committed at the workspace root");
        let committed = Baseline::parse(&text).expect("committed baseline parses");
        let cmp = committed.compare(&diags);
        assert!(
            cmp.regressions.is_empty(),
            "new diagnostics over the committed baseline:\n{}",
            cmp.regressions.join("\n")
        );
        assert!(
            cmp.stale.is_empty(),
            "stale baseline entries (findings burned down — re-bless):\n{}",
            cmp.stale.join("\n")
        );
    }

    /// The hot-reload gate: the recommended posture loads, a structurally
    /// broken or semantically misconfigured one is rejected with the
    /// diagnostics that justify keeping the old config.
    #[test]
    fn serve_policy_validation_accepts_recommended_and_rejects_bad_configs() {
        assert!(validate_serve_policy(&PolicyConfig::recommended()).is_ok());

        // Structural: a NaN threshold fails PolicyConfig::validate.
        let mut broken = PolicyConfig::recommended();
        broken.block_threshold = f64::NAN;
        let diags = validate_serve_policy(&broken).unwrap_err();
        assert!(diags.iter().any(|d| d.lint == "invalid-config"));

        // Semantic: challenge at/above block makes challenges unreachable —
        // valid structurally, but the config pass flags it at warn+.
        let mut shadowed = PolicyConfig::recommended();
        shadowed.challenge_threshold = shadowed.block_threshold;
        let diags = validate_serve_policy(&shadowed).unwrap_err();
        assert!(
            diags.iter().all(|d| d.gates_at(Severity::Warn)),
            "only gating findings reject:\n{}",
            render_pretty(&diags)
        );
        assert!(!diags.is_empty());
    }

    /// The paper-accurate misconfigurations are still *reported* — waivers
    /// keep them visible without failing the gate.
    #[test]
    fn paper_misconfigurations_surface_as_waived_findings() {
        let diags = analyze_workspace_configs();
        let waived: Vec<_> = diags.iter().filter(|d| d.waived).collect();
        assert!(
            waived
                .iter()
                .any(|d| d.lint == config::lints::LIMITER_NEVER_FIRES
                    && d.source.contains("ablation/traditional")),
            "ablation's era path limit should surface as a waived finding:\n{}",
            render_pretty(&diags)
        );
        assert!(
            waived
                .iter()
                .any(|d| d.lint == config::lints::UNGUARDED_CHANNEL),
            "era postures leave the hold path unguarded (waived):\n{}",
            render_pretty(&diags)
        );
    }

    /// ISSUE 5: the detectors experiment's deliberately volumetric alert
    /// rule is dead monitoring by design — reported by the alerts pass,
    /// waived so it never gates.
    #[test]
    fn detectors_blind_spot_surfaces_as_waived_alert_finding() {
        let diags = analyze_workspace_alerts();
        let d = diags
            .iter()
            .find(|d| {
                d.lint == alerts::lints::ALERT_RULE_NEVER_FIRES && d.source.contains("detectors")
            })
            .unwrap_or_else(|| {
                panic!(
                    "detectors' volume rule should be a waived finding:\n{}",
                    render_pretty(&diags)
                )
            });
        assert!(d.waived, "{d:?}");
        assert!(
            !diags.iter().any(|d| d.gates_at(Severity::Warn)),
            "{diags:?}"
        );
    }

    #[test]
    fn every_registered_spec_declares_profiles() {
        for spec in fg_scenario::experiments::all_specs() {
            let profiles = (spec.profiles)();
            assert!(
                !profiles.is_empty(),
                "spec {} declares no defence profiles",
                spec.name
            );
            for profile in &profiles {
                profile
                    .policy
                    .validate()
                    .unwrap_or_else(|e| panic!("{}/{}: {e:?}", spec.name, profile.name));
            }
        }
    }
}
