//! `perf_sweep` — the wall-clock performance harness.
//!
//! Everything else in this repo measures *simulated* time, which is
//! deterministic and machine-independent; nothing measured how many
//! simulated cells the machine pushes through per wall-clock second —
//! the quantity that actually gates bigger grids and more topologies.
//! This binary runs the smoke/traffic/full matrix grids several times
//! through [`ScenarioMatrix::run_instrumented`] and emits `BENCH_perf.json`:
//! cells/sec, events/sec, per-cell wall-time percentiles and
//! thread-scaling efficiency — the first point of a perf trajectory CI
//! can trend (see README § Performance).
//!
//! ```sh
//! # Full harness (smoke + full grids, 3 runs per config, 1/4/8 threads):
//! cargo run --release -p rf-bench --bin perf_sweep
//!
//! # CI-sized: smoke + traffic grids, 2 runs, 1/4 threads (the traffic
//! # grid tracks events/sec under stochastic packet/flow load):
//! cargo run --release -p rf-bench --bin perf_sweep -- --quick --out BENCH_perf.json
//! ```
//!
//! Wall-clock numbers are machine-dependent by nature; the emitted
//! file is a trajectory point, not a determinism artifact. As a side
//! effect the harness *does* re-prove the determinism contract: every
//! run of a grid must produce byte-identical `MatrixReport` JSON at
//! every thread count — and the checkpoint/fork execution mode
//! (`ScenarioMatrix::run_instrumented_forked`, which runs each
//! (topology × knob × seed) group's convergence prefix once and forks
//! the divergent fault cells) must reproduce the cold report
//! byte-for-byte too, or the harness exits non-zero. The fork pass's
//! wall ratio is emitted as `fork.speedup_x1000`, the trended
//! `fork_speedup` number.
//!
//! Schema v3 adds the intra-scenario axis: `host_cores` at the top
//! level, and per grid a `parallel` block — the grid's costliest
//! fault-free cell re-run serially and with the conservative parallel
//! kernel (`parallel_cores = 4`). The two single-cell reports must be
//! byte-identical (the kernel's core contract) or the harness exits
//! non-zero; the wall ratio is the trended `parallel_speedup`. On
//! hosts with fewer than four cores the probe is skipped and the
//! block records why, so flat scaling on small runners never reads as
//! a regression.

use rf_core::json::Json;
use rf_core::scenario::{MatrixSpec, ScenarioMatrix, SweepStats};
use std::process::ExitCode;
use std::time::Duration;

/// Bump when the emitted shape changes. v2 added the per-grid `fork`
/// block (checkpoint/fork wall, speedup and forked-cell count); v3
/// added `host_cores` and the per-grid `parallel` block (serial vs
/// 4-core parallel-kernel wall on the costliest fault-free cell).
const PERF_SCHEMA_VERSION: i64 = 3;

/// Cores granted to the parallel-kernel probe. Matches the 4-thread
/// point of the thread-scaling table so the two axes are comparable.
const PROBE_CORES: usize = 4;

struct Args {
    grids: Vec<(&'static str, MatrixSpec)>,
    runs: usize,
    threads: Vec<usize>,
    out: String,
    /// Cores granted to the parallel-kernel probe; `None` means
    /// auto (`PROBE_CORES`, skipped when the host has fewer).
    probe_cores: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        grids: vec![
            ("smoke", MatrixSpec::smoke()),
            ("traffic", MatrixSpec::traffic()),
            ("full", MatrixSpec::full()),
        ],
        runs: 3,
        threads: vec![1, 4, 8],
        out: "BENCH_perf.json".to_string(),
        probe_cores: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--quick" => {
                args.grids = vec![
                    ("smoke", MatrixSpec::smoke()),
                    ("traffic", MatrixSpec::traffic()),
                ];
                args.runs = 2;
                args.threads = vec![1, 4];
            }
            "--smoke-only" => args.grids = vec![("smoke", MatrixSpec::smoke())],
            "--traffic-only" => args.grids = vec![("traffic", MatrixSpec::traffic())],
            "--full-only" => args.grids = vec![("full", MatrixSpec::full())],
            "--runs" => {
                args.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .split(',')
                    .map(|t| t.parse().map_err(|e| format!("--threads: {e}")))
                    .collect::<Result<_, _>>()?;
                if args.threads.is_empty() {
                    return Err("--threads needs at least one value".into());
                }
            }
            "--out" => args.out = value("--out")?,
            "--probe-cores" => {
                let n: usize = value("--probe-cores")?
                    .parse()
                    .map_err(|e| format!("--probe-cores: {e}"))?;
                if n < 2 {
                    return Err("--probe-cores must be at least 2".into());
                }
                args.probe_cores = Some(n);
            }
            other => {
                return Err(format!(
                    "unknown argument {other}\n\
                     usage: perf_sweep [--quick] \
                     [--smoke-only|--traffic-only|--full-only] \
                     [--runs N] [--threads 1,4,8] [--probe-cores N] [--out FILE]"
                ))
            }
        }
    }
    Ok(args)
}

/// Best (minimum-wall) stats across `runs` repetitions at `threads`,
/// plus the report JSON for the determinism cross-check. With
/// `forked`, the repetitions go through the checkpoint/fork executor
/// instead of the cold one.
fn best_of_with(
    matrix: &ScenarioMatrix,
    threads: usize,
    runs: usize,
    forked: bool,
) -> Result<(SweepStats, String), String> {
    let mut best: Option<SweepStats> = None;
    let mut report_json: Option<String> = None;
    for run in 0..runs {
        let (report, stats) = if forked {
            matrix.run_instrumented_forked(threads, ScenarioMatrix::standard_builder)
        } else {
            matrix.run_instrumented(threads, ScenarioMatrix::standard_builder)
        };
        let json = report.to_json();
        if let Some(prev) = &report_json {
            if *prev != json {
                return Err(format!(
                    "DETERMINISM VIOLATION: report bytes differ between runs \
                     (threads={threads}, forked={forked}, run={run})"
                ));
            }
        } else {
            report_json = Some(json);
        }
        if best.as_ref().is_none_or(|b| stats.wall < b.wall) {
            best = Some(stats);
        }
    }
    Ok((best.expect("runs >= 1"), report_json.expect("runs >= 1")))
}

fn best_of(
    matrix: &ScenarioMatrix,
    threads: usize,
    runs: usize,
) -> Result<(SweepStats, String), String> {
    best_of_with(matrix, threads, runs, false)
}

/// `p`-th percentile (0..=100, nearest-rank) of sorted `sorted_us`.
fn percentile_us(sorted_us: &[u64], p: usize) -> i64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = (p * sorted_us.len()).div_ceil(100).max(1) - 1;
    sorted_us[rank.min(sorted_us.len() - 1)] as i64
}

fn per_sec(count: u64, wall: Duration) -> i64 {
    (count as f64 / wall.as_secs_f64().max(1e-9)) as i64
}

/// Wall-clock of one run of `cell` as a single-cell grid with the
/// knob granting `cores` to the intra-scenario parallel kernel,
/// plus the report JSON for the identity cross-check.
fn run_probe_cell(
    spec: &MatrixSpec,
    cell: &rf_core::scenario::MatrixCell,
    cores: usize,
) -> (Duration, String) {
    let single = MatrixSpec {
        seeds: vec![cell.seed],
        topologies: vec![cell.topology.clone()],
        schedules: vec![cell.schedule.clone()],
        knobs: vec![cell.knob.clone().with_parallel_cores(cores)],
        configure_deadline: spec.configure_deadline,
        post_fault_window: spec.post_fault_window,
        settle: spec.settle,
    };
    let matrix = ScenarioMatrix::new(single);
    let (report, stats) = matrix.run_instrumented(1, ScenarioMatrix::standard_builder);
    (stats.wall, report.to_json())
}

/// The per-grid parallel-kernel probe: pick the grid's costliest
/// fault-free cell (by the matrix's own cost model, key as the
/// deterministic tie-break), run it serially and with `cores` regions,
/// and demand byte-identical reports. Fault-free because faults force
/// the kernel's serial fallback, which would probe nothing.
fn parallel_probe(
    name: &str,
    spec: &MatrixSpec,
    matrix: &ScenarioMatrix,
    cores: Option<usize>,
    host_cores: usize,
) -> Result<Json, String> {
    let skip = |reason: String| {
        eprintln!("  parallel probe: skipped — {reason}");
        Ok(Json::obj([("skipped".to_string(), Json::Str(reason))]))
    };
    // An explicit --probe-cores overrides the host-size skip (useful
    // for exercising the probe on small machines; the identity check
    // is meaningful at any core count, only the speedup isn't).
    let cores = match cores {
        Some(n) => n,
        None if host_cores < PROBE_CORES => {
            return skip(format!(
                "host has {host_cores} cores, probe wants {PROBE_CORES}"
            ));
        }
        None => PROBE_CORES,
    };
    let cells = spec.cells();
    let Some(probe) = cells
        .iter()
        .filter(|c| c.schedule.faults.is_empty())
        .max_by_key(|c| (matrix.expected_cell_cost(c), std::cmp::Reverse(c.key())))
    else {
        return skip("no fault-free cell in grid".to_string());
    };
    let (serial_wall, serial_report) = run_probe_cell(spec, probe, 1);
    let (parallel_wall, parallel_report) = run_probe_cell(spec, probe, cores);
    if serial_report != parallel_report {
        return Err(format!(
            "PARALLEL-KERNEL IDENTITY VIOLATION: {name} grid probe cell \
             {} differs between serial and {cores}-core reports",
            probe.key()
        ));
    }
    let speedup_x1000 =
        (1000.0 * serial_wall.as_secs_f64() / parallel_wall.as_secs_f64().max(1e-9)) as i64;
    eprintln!(
        "  parallel probe ({}): serial {:.2}s vs {cores}-core {:.2}s \
         (speedup {:.2}x, reports byte-identical)",
        probe.key(),
        serial_wall.as_secs_f64(),
        parallel_wall.as_secs_f64(),
        speedup_x1000 as f64 / 1000.0,
    );
    Ok(Json::obj([
        ("cell".to_string(), Json::Str(probe.key())),
        ("cores".to_string(), Json::Int(cores as i64)),
        (
            "serial_wall_ms".to_string(),
            Json::Int(serial_wall.as_millis() as i64),
        ),
        (
            "parallel_wall_ms".to_string(),
            Json::Int(parallel_wall.as_millis() as i64),
        ),
        ("speedup_x1000".to_string(), Json::Int(speedup_x1000)),
    ]))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    // Recorded so downstream gates (CI thread-scaling step,
    // trend_collect) can tell "flat because small runner" from "flat
    // because regression".
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("perf_sweep: host has {host_cores} cores");

    let mut grids_json = std::collections::BTreeMap::new();
    for (name, spec) in &args.grids {
        let matrix = ScenarioMatrix::new(spec.clone());
        let cells = spec.cells().len();
        eprintln!(
            "perf_sweep: {name} grid — {cells} cells × {} runs × threads {:?}",
            args.runs, args.threads
        );

        // Single-threaded pass first: its best run anchors cells/sec,
        // events/sec and the per-cell percentiles.
        let (single, single_report) = match best_of(&matrix, 1, args.runs) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let mut cell_us: Vec<u64> = single
            .cells
            .iter()
            .map(|c| c.wall.as_micros() as u64)
            .collect();
        cell_us.sort_unstable();
        let events = single.total_events();
        eprintln!(
            "  1 thread: {:.2}s wall, {} cells/sec, {} events/sec",
            single.wall.as_secs_f64(),
            per_sec(cells as u64, single.wall),
            per_sec(events, single.wall),
        );

        let mut scaling = Vec::new();
        for &t in &args.threads {
            let (stats, report) = if t == 1 {
                (single.clone(), single_report.clone())
            } else {
                match best_of(&matrix, t, args.runs) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            };
            if report != single_report {
                eprintln!(
                    "DETERMINISM VIOLATION: {name} grid report at {t} threads \
                     differs from the single-threaded report"
                );
                return ExitCode::FAILURE;
            }
            let speedup_x1000 =
                (1000.0 * single.wall.as_secs_f64() / stats.wall.as_secs_f64().max(1e-9)) as i64;
            let efficiency_x1000 = speedup_x1000 / t as i64;
            eprintln!(
                "  {t} threads: {:.2}s wall (speedup {:.2}x, efficiency {:.0}%)",
                stats.wall.as_secs_f64(),
                speedup_x1000 as f64 / 1000.0,
                efficiency_x1000 as f64 / 10.0,
            );
            scaling.push(Json::obj([
                ("threads".to_string(), Json::Int(t as i64)),
                (
                    "wall_ms".to_string(),
                    Json::Int(stats.wall.as_millis() as i64),
                ),
                ("speedup_x1000".to_string(), Json::Int(speedup_x1000)),
                ("efficiency_x1000".to_string(), Json::Int(efficiency_x1000)),
            ]));
        }

        // Checkpoint/fork pass, single-threaded (the clean total-compute
        // ratio, un-muddied by scheduling): every repeat must reproduce
        // the cold report byte-for-byte — the tentpole identity
        // contract, re-proven on every perf run — and the wall ratio is
        // the trended fork_speedup.
        let (fork, fork_report) = match best_of_with(&matrix, 1, args.runs, true) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        if fork_report != single_report {
            eprintln!(
                "DETERMINISM VIOLATION: {name} grid checkpoint/fork report \
                 differs from the cold report"
            );
            return ExitCode::FAILURE;
        }
        let fork_speedup_x1000 =
            (1000.0 * single.wall.as_secs_f64() / fork.wall.as_secs_f64().max(1e-9)) as i64;
        eprintln!(
            "  fork (1 thread): {:.2}s wall (speedup {:.2}x, {} of {} cells forked)",
            fork.wall.as_secs_f64(),
            fork_speedup_x1000 as f64 / 1000.0,
            fork.forked,
            cells,
        );

        // Intra-scenario parallel-kernel probe: serial vs
        // `probe_cores`-region wall on the costliest fault-free cell,
        // byte-identity enforced. Skipped (with the reason recorded)
        // on hosts too small for it to mean anything.
        let parallel = match parallel_probe(name, spec, &matrix, args.probe_cores, host_cores) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };

        grids_json.insert(
            name.to_string(),
            Json::obj([
                ("cells".to_string(), Json::Int(cells as i64)),
                ("parallel".to_string(), parallel),
                (
                    "fork".to_string(),
                    Json::obj([
                        (
                            "wall_ms".to_string(),
                            Json::Int(fork.wall.as_millis() as i64),
                        ),
                        ("speedup_x1000".to_string(), Json::Int(fork_speedup_x1000)),
                        ("forked_cells".to_string(), Json::Int(fork.forked as i64)),
                        (
                            "cold_cells".to_string(),
                            Json::Int(cells as i64 - fork.forked as i64),
                        ),
                    ]),
                ),
                ("runs_per_config".to_string(), Json::Int(args.runs as i64)),
                ("events_per_run".to_string(), Json::Int(events as i64)),
                (
                    "single_thread".to_string(),
                    Json::obj([
                        (
                            "wall_ms".to_string(),
                            Json::Int(single.wall.as_millis() as i64),
                        ),
                        (
                            "cells_per_sec".to_string(),
                            Json::Int(per_sec(cells as u64, single.wall)),
                        ),
                        (
                            "events_per_sec".to_string(),
                            Json::Int(per_sec(events, single.wall)),
                        ),
                        (
                            "cell_wall_us_p50".to_string(),
                            Json::Int(percentile_us(&cell_us, 50)),
                        ),
                        (
                            "cell_wall_us_p95".to_string(),
                            Json::Int(percentile_us(&cell_us, 95)),
                        ),
                    ]),
                ),
                ("thread_scaling".to_string(), Json::Arr(scaling)),
            ]),
        );
    }

    let doc = Json::obj([
        ("schema_version".to_string(), Json::Int(PERF_SCHEMA_VERSION)),
        ("host_cores".to_string(), Json::Int(host_cores as i64)),
        ("grids".to_string(), Json::Obj(grids_json)),
    ]);
    if let Err(e) = std::fs::write(&args.out, doc.render()) {
        eprintln!("writing {}: {e}", args.out);
        return ExitCode::from(2);
    }
    eprintln!("perf trajectory written to {}", args.out);
    ExitCode::SUCCESS
}
