//! The scenario-matrix sweep harness: fan a (seed × topology ×
//! fault-schedule × knob) grid out over worker threads and emit the
//! stable [`MatrixReport`](rf_core::scenario::MatrixReport) JSON that CI
//! diffs against a checked-in baseline.
//!
//! ```sh
//! # CI smoke grid (seconds), report to stdout:
//! cargo run --release -p rf-bench --bin matrix_sweep -- --smoke
//!
//! # Gate against the checked-in baseline (exit 1 unless byte-identical):
//! cargo run --release -p rf-bench --bin matrix_sweep -- --smoke \
//!     --out report.json --check crates/bench/baselines/smoke.json
//!
//! # The long trend-tracking grid:
//! cargo run --release -p rf-bench --bin matrix_sweep -- --full
//!
//! # Checkpoint/fork execution: cells sharing a (topology × knob ×
//! # seed) group run their fault-free prefix once and fork, each from
//! # just before its first fault; stderr says how many of the logical
//! # (cold-equivalent) events were actually dispatched. The report is
//! # byte-identical to the cold run's — CI gates on that:
//! cargo run --release -p rf-bench --bin matrix_sweep -- --smoke --fork \
//!     --check crates/bench/baselines/smoke.json
//!
//! # The topology-corpus breadth grid (50+ named topologies, with a
//! # per-topology configuration-median table on stderr):
//! cargo run --release -p rf-bench --bin matrix_sweep -- --corpus
//! ```
//!
//! The report is byte-identical at any `--threads` value; see the
//! `matrix determinism` tests and README §sweeps.

use rf_core::scenario::{MatrixSpec, ScenarioMatrix};
use std::process::ExitCode;

struct Args {
    spec: MatrixSpec,
    grid_name: &'static str,
    threads: usize,
    out: Option<String>,
    check: Option<String>,
    summary_md: Option<String>,
    fork: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        spec: MatrixSpec::smoke(),
        grid_name: "smoke",
        threads: rf_bench::default_threads(),
        out: None,
        check: None,
        summary_md: None,
        fork: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--smoke" => {
                args.spec = MatrixSpec::smoke();
                args.grid_name = "smoke";
            }
            "--full" => {
                args.spec = MatrixSpec::full();
                args.grid_name = "full";
            }
            "--corpus" => {
                args.spec = MatrixSpec::corpus();
                args.grid_name = "corpus";
            }
            "--corpus-smoke" => {
                args.spec = MatrixSpec::corpus_smoke();
                args.grid_name = "corpus-smoke";
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--fork" => args.fork = true,
            "--out" => args.out = Some(value("--out")?),
            "--check" => args.check = Some(value("--check")?),
            "--summary-md" => args.summary_md = Some(value("--summary-md")?),
            other => {
                return Err(format!(
                    "unknown argument {other}\n\
                     usage: matrix_sweep [--smoke|--full|--corpus|--corpus-smoke] \
                     [--fork] [--threads N] [--out FILE] [--check BASELINE] \
                     [--summary-md FILE]"
                ))
            }
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let cells = args.spec.cells().len();
    eprintln!(
        "sweeping the {} grid: {cells} cells on {} threads{}",
        args.grid_name,
        args.threads,
        if args.fork { " (checkpoint/fork)" } else { "" }
    );
    let started = std::time::Instant::now();
    let matrix = ScenarioMatrix::new(args.spec);
    let report = if args.fork {
        let (report, stats) =
            matrix.run_instrumented_forked(args.threads, ScenarioMatrix::standard_builder);
        eprintln!(
            "{} of {cells} cells forked; dispatched {} of {} logical events",
            stats.forked,
            stats.dispatched,
            stats.total_events()
        );
        report
    } else {
        matrix.run(args.threads)
    };
    eprintln!(
        "swept {cells} cells in {:.1}s wall clock",
        started.elapsed().as_secs_f64()
    );
    for (name, s) in &report.summary {
        eprintln!(
            "  {name}: min {} / median {} / max {} (n={})",
            s.min, s.median, s.max, s.count
        );
    }
    let corpus_grid = args.grid_name.starts_with("corpus");
    if corpus_grid {
        // The corpus grids are read per topology, not per metric: the
        // whole point is how configuration scales across shapes.
        eprintln!("per-topology configuration medians (ns of simulated time):");
        for (topo, s) in report.per_topology_medians("all_configured_ns") {
            eprintln!("  {topo}: median {} (n={})", s.median, s.count);
        }
        let failed: Vec<&str> = report
            .cells
            .iter()
            .filter(|c| c.metrics.get("build_error") == Some(&1))
            .map(|c| c.key.as_str())
            .collect();
        if !failed.is_empty() {
            eprintln!("build errors in {} cells:", failed.len());
            for key in failed {
                eprintln!("  {key}");
            }
        }
    }

    if let Some(path) = &args.summary_md {
        // A GitHub-flavoured markdown trend summary, written for
        // `$GITHUB_STEP_SUMMARY` in the scheduled sweep-full job.
        let mut md = format!(
            "## `{}` sweep — {} cells\n\n\
             | metric | n | min | median | max |\n\
             |---|---|---|---|---|\n",
            args.grid_name,
            report.cells.len()
        );
        for (name, s) in &report.summary {
            md.push_str(&format!(
                "| `{name}` | {} | {} | {} | {} |\n",
                s.count, s.min, s.median, s.max
            ));
        }
        if corpus_grid {
            md.push_str(
                "\n### Per-topology configuration medians\n\n\
                 | topology | n | median `all_configured_ns` | median `green_median_ns` |\n\
                 |---|---|---|---|\n",
            );
            let greens = report.per_topology_medians("green_median_ns");
            for (topo, s) in report.per_topology_medians("all_configured_ns") {
                let green = greens
                    .iter()
                    .find(|(t, _)| *t == topo)
                    .map(|(_, g)| g.median.to_string())
                    .unwrap_or_else(|| "-".into());
                md.push_str(&format!(
                    "| `{topo}` | {} | {} | {green} |\n",
                    s.count, s.median
                ));
            }
        }
        md.push_str(
            "\nTimes are nanoseconds of simulated time; byte/message counts are totals per cell.\n",
        );
        if let Err(e) = std::fs::write(path, md) {
            eprintln!("writing {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("markdown summary written to {path}");
    }

    let json = report.to_json();
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("writing {path}: {e}");
                return ExitCode::from(2);
            }
            eprintln!("report written to {path}");
        }
        None => print!("{json}"),
    }

    if let Some(path) = &args.check {
        let mut grid_args = vec![format!("--{}", args.grid_name)];
        if args.fork {
            grid_args.push("--fork".to_string());
        }
        if let Err(code) = rf_bench::check_baseline(&report, path, "matrix_sweep", &grid_args) {
            return code;
        }
    }
    ExitCode::SUCCESS
}
