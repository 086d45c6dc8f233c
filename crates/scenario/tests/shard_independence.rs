//! End-to-end shard-count independence: every artifact the harness exports —
//! report JSON, alerts JSON, trace exports — is byte-identical between the
//! deterministic single-shard mode and an N-shard `ShardedStore` run, when
//! both replay single-threaded.
//!
//! This is the tentpole's safety rail. Hash-partitioning the keyed defence
//! stores (limiter buckets, velocity windows, reputation evidence,
//! fingerprint populations) must not change a single decision or aggregate:
//! per-key state is untouched by where it lives, and every exported total is
//! an order-insensitive fold over shards. The smoke subset mirrors
//! `trace_determinism.rs`: a direct-body experiment (fig1), a multi-cell
//! grid (ablation), and a telemetry-capable module (case_a).

use fg_core::shard::ConcurrencyMode;
use fg_scenario::experiments::{ablation, case_a, fig1};
use fg_scenario::harness::{run_matrix, ExperimentSpec, HarnessConfig};

fn smoke(shards: usize) -> HarnessConfig {
    HarnessConfig {
        seeds: 2,
        jobs: 1,
        smoke: true,
        traces: true,
        shards,
        ..HarnessConfig::default()
    }
}

fn specs() -> [ExperimentSpec; 3] {
    [fig1::spec(), ablation::spec(), case_a::spec()]
}

#[test]
fn sharded_artifacts_are_byte_identical_to_deterministic_mode() {
    let flat = run_matrix(&specs(), &smoke(1));
    let sharded = run_matrix(&specs(), &smoke(4));
    for (f, s) in flat.iter().zip(&sharded) {
        assert_eq!(f.name, s.name);
        for (fc, sc) in f.cells.iter().zip(&s.cells) {
            assert_eq!(fc.seed, sc.seed);
            assert_eq!(
                fc.json, sc.json,
                "{} seed {:#x}: report diverged between 1 and 4 shards",
                f.name, fc.seed
            );
        }
        assert_eq!(
            f.alerts_json(),
            s.alerts_json(),
            "{}: alerts.json diverged between 1 and 4 shards",
            f.name
        );
        assert_eq!(
            f.traces_json(),
            s.traces_json(),
            "{}: traces.json diverged between 1 and 4 shards",
            f.name
        );
        assert_eq!(f.aggregate, s.aggregate, "{}", f.name);
    }
}

#[test]
fn sharded_mode_composes_with_parallel_replay() {
    // Shard count and worker count are orthogonal: a 4-shard sweep replayed
    // on 4 harness threads still lands on the deterministic artifacts.
    let flat = run_matrix(&specs(), &smoke(1));
    let config = HarnessConfig {
        jobs: 4,
        ..smoke(4)
    };
    let sharded_parallel = run_matrix(&specs(), &config);
    for (f, s) in flat.iter().zip(&sharded_parallel) {
        for (fc, sc) in f.cells.iter().zip(&s.cells) {
            assert_eq!(
                fc.json, sc.json,
                "{} seed {:#x}: shards=4/jobs=4 diverged from shards=1/jobs=1",
                f.name, fc.seed
            );
        }
        assert_eq!(f.alerts_json(), s.alerts_json(), "{}", f.name);
    }
}

#[test]
fn module_level_reports_match_across_shard_counts() {
    // The same invariant without the harness in the loop: flipping a config
    // to `Sharded` changes no reported number.
    let flat = case_a::run(case_a::smoke_config());
    let mut sharded_cfg = case_a::smoke_config();
    sharded_cfg.concurrency = ConcurrencyMode::Sharded { shards: 8 };
    let sharded = case_a::run(sharded_cfg);
    assert_eq!(
        serde_json::to_string(&flat).unwrap(),
        serde_json::to_string(&sharded).unwrap()
    );
}
