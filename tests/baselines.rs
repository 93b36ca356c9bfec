//! The refactoring licence, in tier-1: every checked-in byte-gate
//! baseline is regenerated in-process and compared byte for byte. CI
//! runs the same gates through the `matrix_sweep` / `chaos_sweep`
//! binaries (which write `report.to_json()` verbatim, so the
//! comparison here is exact); this file makes a plain `cargo test`
//! fail on any change that moves a report byte, whichever execution
//! strategy — cold, forked, chaos — it moved it through.

use routeflow_autoconf::core::chaos::ChaosCampaign;
use routeflow_autoconf::core::scenario::{MatrixReport, MatrixSpec, ScenarioMatrix};

/// Assert `report` renders to exactly `baseline`, naming the first
/// cell whose record differs when it does not.
fn assert_matches(report: &MatrixReport, baseline: &str, what: &str) {
    let got = report.to_json();
    if got == baseline {
        return;
    }
    let want = MatrixReport::parse(baseline).expect("checked-in baseline parses");
    let differing = report
        .cells
        .iter()
        .zip(&want.cells)
        .find(|(g, w)| g.key != w.key || g.metrics != w.metrics)
        .map(|(g, w)| format!("{} (baseline has {})", g.key, w.key));
    panic!(
        "{what}: report differs from the checked-in baseline; first differing cell: {}",
        differing.unwrap_or_else(|| format!(
            "none in common — {} cells vs {} in the baseline, or the header/summary moved",
            report.cells.len(),
            want.cells.len()
        ))
    );
}

const SMOKE: &str = include_str!("../crates/bench/baselines/smoke.json");

#[test]
fn smoke_grid_reproduces_its_baseline_cold() {
    let report = ScenarioMatrix::new(MatrixSpec::smoke()).run(2);
    assert_matches(&report, SMOKE, "smoke, cold, 2 threads");
}

#[test]
fn smoke_grid_reproduces_its_baseline_forked() {
    let (report, stats) = ScenarioMatrix::new(MatrixSpec::smoke())
        .run_instrumented_forked(4, ScenarioMatrix::standard_builder);
    assert!(stats.forked > 0, "the smoke grid has forkable members");
    assert_matches(&report, SMOKE, "smoke, forked, 4 threads");
}

#[test]
fn corpus_smoke_grid_reproduces_its_baseline() {
    let baseline = include_str!("../crates/bench/baselines/corpus-smoke.json");
    let report = ScenarioMatrix::new(MatrixSpec::corpus_smoke()).run(3);
    assert_matches(&report, baseline, "corpus-smoke, cold, 3 threads");
}

#[test]
fn chaos_smoke_campaign_reproduces_its_baseline() {
    let baseline = include_str!("../crates/bench/baselines/chaos-smoke.json");
    // Sixteen workers asked for, eight cells: a sweep with more
    // threads than units must not move a byte.
    for threads in [1, 16] {
        let outcome = ChaosCampaign::smoke(1).run(threads);
        assert_matches(
            &outcome.report,
            baseline,
            &format!("chaos-smoke, {threads} threads"),
        );
    }
}
