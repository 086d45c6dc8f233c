//! Serve configuration: a JSON file split into boot-only topology and
//! hot-reloadable posture.
//!
//! Boot-only fields (`listen`, `workers`, `queue_depth`, `shards`, `seed`,
//! `observe`) shape threads, rings and store partitioning; changing them
//! requires a restart and a hot-reload that touches them is rejected. Hot
//! fields (`policy`, `breaker`) swap atomically after validation: the
//! policy must pass `fg_analyze::validate_serve_policy` (structural
//! validity plus the semantic config lints at warn+), or the running
//! service keeps its previous config — reject-and-keep-old, never
//! reject-and-die.
//!
//! Unknown keys are ignored, so a file with the per-endpoint `limits`
//! block older versions wrote still parses; each worker serves one request
//! at a time, so `workers` already bounds what is in flight.

use crate::breaker::BreakerConfig;
use fg_mitigation::policy::PolicyConfig;
use serde::{Deserialize, Serialize};

/// Version stamp on the serialized config format.
pub const SERVE_CONFIG_SCHEMA: u32 = 1;

/// Live-observability tunables (boot-only: the tracer ring, flight
/// recorder, and sentinel thread are shaped at start).
///
/// A config file without an `observe` block parses with these defaults, so
/// pre-observability config files keep working unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObserveConfig {
    /// Requests at or above this wall-clock latency are pinned into the
    /// trace ring and flagged `slow` in the flight recorder.
    pub slow_request_ms: u64,
    /// Flight-recorder ring size (last N request summaries).
    pub flight_recorder_entries: usize,
    /// Request-trace retention budget for the live tracer ring.
    pub trace_capacity: usize,
    /// How often the embedded sentinel evaluates the SLO policy and the
    /// p99 gauges refresh, milliseconds.
    pub sentinel_poll_ms: u64,
    /// The served-p99 SLO the `serve-p99-slo` alert enforces, milliseconds.
    pub p99_slo_ms: u64,
}

impl Default for ObserveConfig {
    fn default() -> Self {
        ObserveConfig {
            slow_request_ms: 250,
            flight_recorder_entries: 256,
            trace_capacity: 4096,
            sentinel_poll_ms: 500,
            p99_slo_ms: 250,
        }
    }
}

/// The full service configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Format version ([`SERVE_CONFIG_SCHEMA`]).
    pub schema: u32,
    /// Bind address, e.g. `"127.0.0.1:8080"` (boot-only).
    pub listen: String,
    /// Worker threads handling connections (boot-only).
    pub workers: usize,
    /// Bounded accept-queue depth; a full queue sheds with 429 (boot-only).
    pub queue_depth: usize,
    /// Defence-store shard count, as in the simulator's `ConcurrencyMode`
    /// (boot-only — decisions are identical at any count).
    pub shards: usize,
    /// Master seed for the decision core (boot-only).
    pub seed: u64,
    /// The defensive posture (hot-reloadable, fg-analyze-gated).
    pub policy: PolicyConfig,
    /// Circuit-breaker tunables (hot-reloadable).
    pub breaker: BreakerConfig,
    /// Live-observability tunables (boot-only).
    pub observe: ObserveConfig,
}

impl ServeConfig {
    /// The recommended posture on loopback with a small worker pool.
    pub fn recommended() -> Self {
        ServeConfig {
            schema: SERVE_CONFIG_SCHEMA,
            listen: "127.0.0.1:8080".to_owned(),
            workers: 4,
            queue_depth: 128,
            shards: 1,
            seed: 42,
            policy: PolicyConfig::recommended(),
            breaker: BreakerConfig::default(),
            observe: ObserveConfig::default(),
        }
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("serve config serializes")
    }

    /// Parses JSON without validating; callers follow with
    /// [`ServeConfig::validate`]. A missing `observe` block is filled with
    /// defaults so configs written before the observability layer existed
    /// keep parsing.
    pub fn from_json(s: &str) -> Result<ServeConfig, String> {
        let mut value: serde_json::Value = serde_json::from_str(s).map_err(|e| e.to_string())?;
        if let serde_json::Value::Object(fields) = &mut value {
            if !fields.iter().any(|(k, _)| k == "observe") {
                let defaults =
                    serde_json::to_value(&ObserveConfig::default()).map_err(|e| e.to_string())?;
                fields.push(("observe".to_owned(), defaults));
            }
        }
        serde_json::from_value(value).map_err(|e| e.to_string())
    }

    /// Full validation: schema and topology sanity, then the fg-analyze
    /// policy gate. Returns every problem, not just the first.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut errors = Vec::new();
        if self.schema != SERVE_CONFIG_SCHEMA {
            errors.push(format!(
                "unsupported config schema {} (expected {SERVE_CONFIG_SCHEMA})",
                self.schema
            ));
        }
        if self.workers == 0 {
            errors.push("workers must be >= 1".to_owned());
        }
        if self.queue_depth == 0 {
            errors.push("queue_depth must be >= 1".to_owned());
        }
        if self.shards == 0 {
            errors.push("shards must be >= 1".to_owned());
        }
        if self.breaker.failure_threshold == 0 {
            errors.push("breaker.failure_threshold must be >= 1".to_owned());
        }
        if self.observe.flight_recorder_entries == 0 || self.observe.trace_capacity == 0 {
            errors.push("observe ring sizes must be >= 1".to_owned());
        }
        if self.observe.sentinel_poll_ms < 50 {
            errors.push("observe.sentinel_poll_ms must be >= 50".to_owned());
        }
        if self.observe.slow_request_ms == 0 || self.observe.p99_slo_ms == 0 {
            errors.push("observe latency thresholds must be >= 1 ms".to_owned());
        }
        if let Err(diags) = fg_analyze::validate_serve_policy(&self.policy) {
            errors.extend(
                diags
                    .into_iter()
                    .map(|d| format!("policy {}: {} ({})", d.lint, d.message, d.source)),
            );
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// Whether `next` may be hot-applied over `self` (boot-only fields
    /// unchanged).
    pub fn hot_compatible(&self, next: &ServeConfig) -> Result<(), String> {
        let mut frozen = Vec::new();
        if self.listen != next.listen {
            frozen.push("listen");
        }
        if self.workers != next.workers {
            frozen.push("workers");
        }
        if self.queue_depth != next.queue_depth {
            frozen.push("queue_depth");
        }
        if self.shards != next.shards {
            frozen.push("shards");
        }
        if self.seed != next.seed {
            frozen.push("seed");
        }
        if self.observe != next.observe {
            frozen.push("observe");
        }
        if frozen.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "boot-only fields changed (restart required): {}",
                frozen.join(", ")
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommended_round_trips_and_validates() {
        let c = ServeConfig::recommended();
        assert!(c.validate().is_ok());
        let parsed = ServeConfig::from_json(&c.to_json()).unwrap();
        assert_eq!(parsed, c);
    }

    #[test]
    fn analyze_gate_rejects_a_semantically_broken_policy() {
        let mut c = ServeConfig::recommended();
        // Challenge at the block threshold: structurally valid, but the
        // config pass flags challenges as unreachable — the exact shape the
        // CI hot-reload rejection step feeds the watcher.
        c.policy.challenge_threshold = c.policy.block_threshold;
        let errors = c.validate().unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("unreachable-challenge")),
            "{errors:?}"
        );
    }

    #[test]
    fn topology_zeroes_are_rejected() {
        let mut c = ServeConfig::recommended();
        c.workers = 0;
        c.queue_depth = 0;
        let errors = c.validate().unwrap_err();
        assert_eq!(errors.len(), 2, "{errors:?}");
    }

    #[test]
    fn pre_observability_configs_parse_with_defaults() {
        let c = ServeConfig::recommended();
        // Strip the observe block to simulate a config written before the
        // observability layer existed.
        let json = c.to_json();
        let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
        if let serde_json::Value::Object(fields) = &mut v {
            fields.retain(|(k, _)| k != "observe");
        }
        let old = serde_json::to_string(&v).unwrap();
        let parsed = ServeConfig::from_json(&old).unwrap();
        assert_eq!(parsed.observe, ObserveConfig::default());
        assert_eq!(parsed, c);
    }

    #[test]
    fn configs_with_the_retired_limits_block_still_parse() {
        let c = ServeConfig::recommended();
        let json = c.to_json();
        assert!(!json.contains("limits"), "{json}");
        let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
        if let serde_json::Value::Object(fields) = &mut v {
            let limits = r#"{"decide": 64, "report": 32, "observe": 8}"#;
            fields.push(("limits".to_owned(), serde_json::from_str(limits).unwrap()));
        }
        let old = serde_json::to_string(&v).unwrap();
        assert!(old.contains("\"limits\""), "{old}");
        let parsed = ServeConfig::from_json(&old).unwrap();
        assert!(parsed.validate().is_ok());
        assert_eq!(parsed, c);
    }

    #[test]
    fn observe_bounds_are_validated() {
        let mut c = ServeConfig::recommended();
        c.observe.trace_capacity = 0;
        c.observe.sentinel_poll_ms = 0;
        let errors = c.validate().unwrap_err();
        assert_eq!(errors.len(), 2, "{errors:?}");
    }

    #[test]
    fn hot_compat_freezes_observe() {
        let boot = ServeConfig::recommended();
        let mut next = boot.clone();
        next.observe.slow_request_ms = 10;
        let err = boot.hot_compatible(&next).unwrap_err();
        assert!(err.contains("observe"), "{err}");
    }

    #[test]
    fn hot_compat_freezes_topology_fields() {
        let boot = ServeConfig::recommended();
        let mut next = boot.clone();
        next.breaker.open_ms = 250;
        assert!(boot.hot_compatible(&next).is_ok());
        next.workers = 8;
        let err = boot.hot_compatible(&next).unwrap_err();
        assert!(err.contains("workers"), "{err}");
    }
}
