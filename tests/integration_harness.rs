//! Cross-crate integration: the parallel multi-seed harness.
//!
//! The acceptance bar is determinism — a cell's report JSON is a pure
//! function of (experiment, seed), so sweeping with any `--jobs` produces
//! byte-identical artifacts, and a `--seeds 1 --seed-offset K` run
//! regenerates exactly cell `K` of a larger sweep.

use fg_scenario::experiments::{ablation, case_b, proxies};
use fg_scenario::harness::{run_matrix, HarnessConfig};

fn smoke(seeds: usize, seed_offset: usize, jobs: usize, telemetry: bool) -> HarnessConfig {
    HarnessConfig {
        seeds,
        seed_offset,
        jobs,
        smoke: true,
        telemetry,
        traces: false,
        shards: 1,
    }
}

#[test]
fn ablation_cells_are_thread_count_independent() {
    let specs = [ablation::spec()];
    let sequential = run_matrix(&specs, &smoke(2, 0, 1, false));
    let parallel = run_matrix(&specs, &smoke(2, 0, 4, false));
    assert_eq!(sequential[0].cells.len(), 2);
    for (s, p) in sequential[0].cells.iter().zip(&parallel[0].cells) {
        assert_eq!(s.seed, p.seed);
        assert_eq!(
            s.json, p.json,
            "replicate {} diverged between jobs=1 and jobs=4",
            s.replicate
        );
    }
    assert_eq!(sequential[0].aggregate, parallel[0].aggregate);
    // Replicate 0 runs the module's historical default seed.
    assert_eq!(
        sequential[0].cells[0].seed,
        ablation::AblationConfig::default().seed
    );
}

#[test]
fn seed_offset_reproduces_any_cell_of_a_sweep() {
    let specs = [proxies::spec()];
    let sweep = run_matrix(&specs, &smoke(3, 0, 3, false));
    for replicate in 0..3 {
        let lone = run_matrix(&specs, &smoke(1, replicate, 1, false));
        assert_eq!(lone[0].cells[0].seed, sweep[0].cells[replicate].seed);
        assert_eq!(
            lone[0].cells[0].json, sweep[0].cells[replicate].json,
            "cell {replicate} not reproduced by --seed-offset"
        );
    }
}

#[test]
fn replicates_diverge_but_aggregate_over_all_seeds() {
    let specs = [proxies::spec()];
    let runs = run_matrix(&specs, &smoke(3, 0, 2, false));
    let cells = &runs[0].cells;
    assert!(
        cells.windows(2).any(|w| w[0].json != w[1].json),
        "different seeds should produce different reports"
    );
    assert!(!runs[0].aggregate.is_empty());
    for row in &runs[0].aggregate {
        assert_eq!(row.n, 3, "{} missing replicates", row.metric);
        assert!(row.min <= row.max, "{}", row.metric);
    }
}

#[test]
fn telemetry_merges_across_replicates() {
    let specs = [case_b::spec()];
    let runs = run_matrix(&specs, &smoke(2, 0, 2, true));
    let run = &runs[0];
    let merged = run
        .merged_telemetry
        .as_ref()
        .expect("case_b is telemetry-capable");
    let per_cell: u64 = run
        .cells
        .iter()
        .map(|c| c.telemetry.as_ref().unwrap().audit.recorded)
        .sum();
    assert_eq!(
        merged.audit.recorded, per_cell,
        "merged audit totals must sum the replicates"
    );
    assert!(per_cell > 0, "case_b records policy decisions");
}
