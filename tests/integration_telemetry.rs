//! Cross-crate integration: the telemetry pipeline on a full seeded
//! Airline-A run — the audit trail explains every non-Allow decision, the
//! counter-backed decision totals agree with the scenario report, and the
//! exporters produce well-formed artifacts.

use fg_scenario::experiments::case_a::{run_observed, CaseAConfig, CaseAReport};
use fg_telemetry::Telemetry;
use std::sync::Arc;

/// Runs Case A against a fresh hub and returns the report with the hub.
fn run_with_telemetry(config: CaseAConfig) -> (CaseAReport, Arc<Telemetry>) {
    let telemetry = Telemetry::shared();
    let (report, _) = run_observed(config, telemetry.clone());
    (report, telemetry)
}

#[test]
fn case_a_audit_trail_explains_the_defence() {
    let (report, telemetry) = run_with_telemetry(CaseAConfig::default());
    let snapshot = telemetry.snapshot();

    // The run produced a non-empty audit trail.
    let audit = telemetry.audit();
    assert!(!audit.is_empty(), "audit trail empty after a 14-day run");

    // The report's blocked count is the audit trail's blocked count is the
    // exported counter: three views of the same cells.
    assert!(report.blocked_requests > 0, "{report}");
    assert_eq!(audit.decision_total("block"), report.blocked_requests);
    assert_eq!(
        snapshot
            .metrics
            .counter_value("fg_decisions_total", &[("decision", "block")]),
        Some(report.blocked_requests)
    );

    // At least one non-Allow decision is explained end-to-end: the record
    // names the signal that fired and carries a triggered reason link.
    let explained = audit.non_allow().find(|r| {
        r.triggering_signal().is_some()
            && r.reasons
                .iter()
                .any(|reason| reason.contains(":triggered("))
    });
    let record = explained.expect("no non-allow decision carries a triggering signal");
    assert!(!record.endpoint.is_empty());

    // Stage profiles cover the whole gate path.
    let stages: Vec<&str> = snapshot.stages.iter().map(|s| s.stage.as_str()).collect();
    for expected in [
        "mitigation.honeypot-check",
        "detect.assess",
        "policy.decide",
        "team.review",
    ] {
        assert!(stages.contains(&expected), "missing stage {expected}");
    }

    // Exporters render without panicking and carry the decision family.
    let json = snapshot.to_json();
    assert!(json.contains("fg_decisions_total"));
    let prom = snapshot.to_prometheus();
    assert!(prom.contains("# TYPE fg_decisions_total counter"));
    assert!(prom.contains("fg_decisions_total{decision=\"block\"}"));
}

#[test]
fn case_a_telemetry_is_deterministic_in_sim_terms() {
    // Two runs with the same seed produce identical audit trails (wall-clock
    // stage timings differ, sim-side observations must not).
    let (_, t1) = run_with_telemetry(CaseAConfig::default());
    let (_, t2) = run_with_telemetry(CaseAConfig::default());
    assert_eq!(t1.audit().recorded(), t2.audit().recorded());
    assert_eq!(t1.audit().decision_totals(), t2.audit().decision_totals());
    let (s1, s2) = (t1.snapshot(), t2.snapshot());
    assert_eq!(s1.metrics.counters, s2.metrics.counters);
}
