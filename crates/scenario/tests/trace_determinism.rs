//! End-to-end tracing determinism: the `--traces` artifact is a pure
//! function of (experiment, seed) — byte-identical whatever `--jobs` is —
//! valid Chrome trace-event JSON, and every incident's exemplar trace ids
//! resolve inside it.
//!
//! The smoke subset covers the three module shapes: a direct-body
//! experiment (fig1), a multi-cell grid tracing only its designated cell
//! (ablation), and a telemetry-capable module whose spec snapshots through
//! the shared sink (case_a).

use fg_scenario::experiments::{ablation, case_a, fig1};
use fg_scenario::harness::{run_matrix, ExperimentSpec, HarnessConfig};

fn traced_smoke(jobs: usize) -> HarnessConfig {
    HarnessConfig {
        seeds: 2,
        seed_offset: 0,
        jobs,
        smoke: true,
        telemetry: false,
        alerts: true,
        traces: true,
        shards: 1,
    }
}

fn specs() -> [ExperimentSpec; 3] {
    [fig1::spec(), ablation::spec(), case_a::spec()]
}

/// The artifact must parse as a Chrome trace-event object with complete
/// `ph: "X"` events, so Perfetto / `chrome://tracing` load it directly.
fn assert_valid_chrome_trace(name: &str, json: &str) {
    let value: serde_json::Value = serde_json::from_str(json).expect("artifact parses");
    let serde_json::Value::Object(fields) = &value else {
        panic!("{name}: top level must be an object");
    };
    let events = fields
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .expect("traceEvents present");
    let serde_json::Value::Array(events) = events else {
        panic!("{name}: traceEvents must be an array");
    };
    assert!(!events.is_empty(), "{name}: no spans exported");
    for event in events {
        let serde_json::Value::Object(ev) = event else {
            panic!("{name}: event must be an object");
        };
        for required in ["name", "ph", "ts", "dur", "pid", "tid"] {
            assert!(
                ev.iter().any(|(k, _)| k == required),
                "{name}: event missing {required}"
            );
        }
    }
}

#[test]
fn trace_artifacts_are_deterministic_valid_and_exemplars_resolve() {
    let sequential = run_matrix(&specs(), &traced_smoke(1));
    let parallel = run_matrix(&specs(), &traced_smoke(4));
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s.name, p.name);
        let s_json = s.traces_json().expect("traces requested");
        let p_json = p.traces_json().expect("traces requested");
        assert_eq!(
            s_json, p_json,
            "{}: traces.json diverged between jobs=1 and jobs=4",
            s.name
        );
        // The report artifacts stay byte-identical too: tracing reads the
        // decision path, it never perturbs it.
        for (sc, pc) in s.cells.iter().zip(&p.cells) {
            assert_eq!(sc.json, pc.json, "{} seed {:#x}", s.name, sc.seed);
        }

        assert_valid_chrome_trace(s.name, &s_json);

        // The `--traces` CI gate condition, plus the stronger claim that
        // exemplars actually exist: the attacker session is pinned, so its
        // decision records are always retained.
        assert!(
            !s.exemplars_unresolved(),
            "{}: an exemplar trace id does not resolve",
            s.name
        );
        let cell = s
            .cells
            .iter()
            .find(|c| c.traces.is_some())
            .expect("replicate 0 is traced");
        assert_eq!(cell.replicate, 0, "{}: only replicate 0 is traced", s.name);
        let alerts = cell.alerts.as_ref().expect("alerts requested");
        assert!(
            !alerts.incident.exemplar_trace_ids.is_empty(),
            "{}: incident has no exemplar traces",
            s.name
        );
    }
}

#[test]
fn run_traced_reports_match_plain_runs() {
    // The tentpole's behavioural invariant at module level: enabling the
    // tracer does not change a single reported number.
    let (plain, _, _) = fig1::run_observed(fig1::smoke_config(), false);
    let (traced, _, snapshot) = fig1::run_observed(fig1::smoke_config(), true);
    let snapshot = snapshot.expect("tracing was enabled");
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&traced).unwrap()
    );
    assert!(snapshot.kept > 0, "smoke run retains spans");
}
