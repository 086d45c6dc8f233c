//! End-to-end sentinel pinning: exact time-to-detection and incident-event
//! sequences for the seeded smoke scenarios, plus thread-count independence
//! of the alerts artifact (ISSUE 5 acceptance).
//!
//! These values are properties of the committed seeds: any change to the
//! traffic models, detector stack, or sentinel rules that shifts detection
//! must re-pin them deliberately.

use fg_core::time::{SimDuration, SimTime};
use fg_scenario::experiments::{case_a, table1};
use fg_scenario::harness::{run_matrix, HarnessConfig};
use fg_sentinel::engine::AlertTransition;

/// Case A (seat-spinner with fingerprint rotation) under the default smoke
/// seed: the NiP-distribution drift sentinel first fires at d1 22:05:00 —
/// a time-to-detection of exactly 2 765 sim-minutes.
#[test]
fn case_a_smoke_ttd_and_timeline_are_pinned() {
    let (_, _, alerts) = case_a::run_observed(case_a::smoke_config(), false);

    assert_eq!(alerts.time_to_detection, Some(SimDuration::from_mins(2765)));
    assert_eq!(alerts.first_firing, Some(SimTime::from_mins(2765)));
    assert_eq!(alerts.events.len(), 10);
    assert_eq!(alerts.active_at_end, 0);

    // The incident narrative interleaves the mined evidence (campaign start,
    // rotation epochs, first mitigation) with the alert lifecycle, in order.
    let kinds: Vec<&str> = alerts
        .incident
        .entries
        .iter()
        .map(|e| e.kind.as_str())
        .collect();
    assert_eq!(kinds[0], "campaign-start");
    assert_eq!(kinds[1], "fingerprint-rotation");
    assert_eq!(kinds[2], "mitigation-engaged");
    assert_eq!(kinds.last(), Some(&"incident-end"));
    assert_eq!(
        kinds.iter().filter(|k| **k == "alert-firing").count(),
        5,
        "five distinct drift excursions in the smoke horizon"
    );
    assert_eq!(
        kinds
            .iter()
            .filter(|k| **k == "fingerprint-rotation")
            .count(),
        11,
        "ten detailed rotation epochs plus the summarised tail"
    );

    let first_alert = alerts
        .incident
        .entries
        .iter()
        .find(|e| e.kind == "alert-firing")
        .expect("timeline records the detection");
    assert_eq!(first_alert.at.to_string(), "d1 22:05:00");
    assert!(first_alert.detail.contains("nip-distribution-drift"));

    let mitigation = &alerts.incident.entries[2];
    assert_eq!(mitigation.at.to_string(), "d0 01:05:00");
    assert!(
        first_alert.at > mitigation.at,
        "inline defence engages before the offline sentinel confirms"
    );
}

/// Table I (SMS pumping) under the default smoke seed: the burn-rate rule
/// fires 16 min 54 s after the week-1 campaign start, and the per-country
/// surge follows for each premium-rate destination. This is the paper's
/// §V framing made measurable: the operator invoice surfaced the fraud a
/// month later; the sentinel surfaces it within sim-minutes.
#[test]
fn table1_smoke_surge_fires_within_minutes_of_campaign_start() {
    let (_, alerts, _) = table1::run_observed(table1::smoke_config(), false);

    let campaign = SimTime::from_weeks(1);
    let ttd = alerts.time_to_detection.expect("pumping must be detected");
    assert_eq!(ttd, SimDuration::from_millis(1_014_172));
    assert_eq!(alerts.first_firing, Some(campaign + ttd));
    assert!(
        ttd < SimDuration::from_mins(20),
        "detection within sim-minutes of campaign start, got {ttd:?}"
    );

    // First blood goes to the aggregate burn-rate rule ...
    let first = alerts
        .events
        .iter()
        .find(|e| e.event == AlertTransition::Firing)
        .expect("at least one firing");
    assert_eq!(first.rule, "sms-burn-rate");

    // ... then each abused premium-rate corridor trips its own surge alert.
    let surge_countries: Vec<&str> = alerts
        .events
        .iter()
        .filter(|e| e.rule == "sms-country-surge" && e.event == AlertTransition::Firing)
        .map(|e| e.series.as_str())
        .collect();
    for corridor in [
        "fg_sms_sent_total{country=\"IR\"}",
        "fg_sms_sent_total{country=\"UZ\"}",
        "fg_sms_sent_total{country=\"KG\"}",
    ] {
        assert!(
            surge_countries.contains(&corridor),
            "expected a surge firing on {corridor}, got {surge_countries:?}"
        );
    }
    let first_surge = alerts
        .events
        .iter()
        .find(|e| e.rule == "sms-country-surge" && e.event == AlertTransition::Firing)
        .expect("per-country surge fires");
    assert_eq!(first_surge.at.to_string(), "d7 00:38:29");
}

/// The alerts artifact — the exact JSON the experiments binary writes to
/// `results/<name>.alerts.json` — is byte-identical whatever `--jobs` is.
#[test]
fn alerts_artifact_is_thread_count_independent() {
    let specs: Vec<_> = fg_scenario::experiments::all_specs()
        .into_iter()
        .filter(|s| s.name == "table1" || s.name == "case_a")
        .collect();
    let run = |jobs| {
        run_matrix(
            &specs,
            &HarnessConfig {
                seeds: 2,
                jobs,
                smoke: true,
                alerts: true,
                ..HarnessConfig::default()
            },
        )
    };
    let sequential = run(1);
    let parallel = run(4);
    for (s, p) in sequential.iter().zip(&parallel) {
        let s_json = s.alerts_json().expect("alerts captured");
        let p_json = p.alerts_json().expect("alerts captured");
        assert_eq!(
            s_json, p_json,
            "{} alerts artifact diverged across jobs",
            s.name
        );
        assert!(!s.detection_missing(), "{} missed detection", s.name);
    }
}
