//! Property tests for the tracer's retention policy.
//!
//! The guarantee exemplar correlation depends on: whatever mix of sessions,
//! sequence numbers, and decisions a run produces, a trace that ended in a
//! non-`allow` decision is never sampled out — only `allow` traces pass
//! through the hash coin. Capacity eviction is exercised separately (unit
//! tests in `trace.rs`); here capacity is sized above the generated load so
//! the property isolates the sampling stage.

use fg_core::time::SimTime;
use fg_telemetry::{RequestTrace, TraceConfig, Tracer};
use proptest::prelude::*;

const DECISIONS: [&str; 4] = ["allow", "block", "challenge", "honeypot"];

fn build(session: u64, seq: u64, decision: &'static str) -> RequestTrace {
    let id = fg_core::hash::trace_id(session, seq);
    let mut t = RequestTrace::new(id, session, "/booking/hold", SimTime::from_millis(seq));
    let stage = t.stage("policy.decide");
    t.attr(stage, "decision", decision);
    t.finish(decision);
    t
}

proptest! {
    #[test]
    fn non_allow_traces_are_always_retained(
        requests in proptest::collection::vec((0u64..32, 0usize..4), 1..200),
        rate_millis in 0u32..1001,
    ) {
        let mut tracer = Tracer::new();
        tracer.enable(TraceConfig {
            allow_sample_rate: f64::from(rate_millis) / 1000.0,
            ..TraceConfig::default()
        });
        let mut expected = Vec::new();
        for (seq, &(session, decision_idx)) in requests.iter().enumerate() {
            let decision = DECISIONS[decision_idx];
            let trace = build(session, seq as u64, decision);
            if decision != "allow" {
                expected.push(trace.trace_id());
            }
            tracer.submit(trace);
        }
        let retained = tracer.retained_ids();
        for id in expected {
            prop_assert!(retained.contains(&id), "non-allow trace {id:#x} was dropped");
        }
    }

    #[test]
    fn allow_sampling_is_a_pure_function_of_the_trace_id(
        requests in proptest::collection::vec(0u64..64, 1..100),
    ) {
        // Two tracers fed the same traces in different orders retain exactly
        // the same allow subset: the coin depends on the id alone.
        let mut forward = Tracer::new();
        let mut backward = Tracer::new();
        forward.enable(TraceConfig::default());
        backward.enable(TraceConfig::default());
        for (seq, &session) in requests.iter().enumerate() {
            forward.submit(build(session, seq as u64, "allow"));
        }
        for (seq, &session) in requests.iter().enumerate().rev() {
            backward.submit(build(session, seq as u64, "allow"));
        }
        prop_assert_eq!(forward.retained_ids(), backward.retained_ids());
    }
}
