//! `rfbench` — the repository's benchmark: four fixed-work workloads,
//! eight end-to-end metrics, per-layer probes and a traced run.
//!
//! ```sh
//! # What the driver runs (see BENCHMARK.json), once per workload:
//! cargo run --release --quiet --manifest-path rfbench/Cargo.toml -- \
//!     --workload fault_fork --seed 1 --seconds 20 --trace 0
//!
//! # Everything, every workload in its own child process, all checks:
//! cargo run --release --manifest-path rfbench/Cargo.toml
//! ```
//!
//! See README.md beside this crate for the workloads, the metric
//! interaction table and how to read the trace file.

mod adapter;
mod catalog;
mod hostcal;
mod probes;
mod spans;
mod stats;
mod timed;
mod traced;
mod workloads;

use catalog::{END_TO_END, PER_LAYER, RUN_SECONDS, SETUP_SAMPLES};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use timed::SetupSample;
use workloads::{Workload, DEFAULT_SEED};

const USAGE: &str = "usage: rfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
               [--repeat K] [--bless] [--layers-only] [--list]

  (no --workload)  run every workload, timed and traced, each in a child process
  --workload NAME  run one workload in this process and print its result line
  --trace 1        the traced run (per-layer metrics) instead of the timed one
  --repeat K       run the timed set K times; print min/median/max per metric
                   and fail if any max/min spread exceeds the metric's bound
  --bless          rewrite expected/<workload>.digest (default seed only)
  --layers-only    run only the workload-independent layer probes
  --list           print every workload and metric";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    bless: bool,
    layers_only: bool,
    list: bool,
    emit_benchmark_json: bool,
    /// Internal: perform the set-up of `--workload` and print how long
    /// it took since process start.
    setup_probe: bool,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        repeat: None,
        bless: false,
        layers_only: false,
        list: false,
        emit_benchmark_json: false,
        setup_probe: false,
    };
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if workloads::by_name(&name).is_none() {
                    return Err(format!("unknown workload {name:?} (see --list)"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
                // Cell seeds count up from here.
                if args.seed > u64::MAX - 64 {
                    return Err("--seed: too large".into());
                }
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--repeat" => {
                let k: usize = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if !(2..=100).contains(&k) {
                    return Err("--repeat must be between 2 and 100".into());
                }
                args.repeat = Some(k);
            }
            "--bless" => args.bless = true,
            "--layers-only" => args.layers_only = true,
            "--list" => args.list = true,
            "--emit-benchmark-json" => args.emit_benchmark_json = true,
            "--setup-probe" => args.setup_probe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.bless && args.seed != DEFAULT_SEED {
        return Err(format!(
            "--bless only applies at the default seed {DEFAULT_SEED}"
        ));
    }
    if args.setup_probe && args.workload.is_none() {
        return Err("--setup-probe needs --workload".into());
    }
    Ok(args)
}

fn list() {
    println!("workloads:");
    for w in &workloads::ALL {
        println!("  {:<16} {}", w.name, w.why);
    }
    println!("\nend-to-end metrics (same on every workload):");
    for m in &END_TO_END {
        println!(
            "  {:<18} {:<6} {:<6} bound {:>4.0} %  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("\nper-layer metrics (no bound; what each should move):");
    for m in &PER_LAYER {
        println!(
            "  {:<32} {:<7} {:<6} {:<26} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.layer,
            m.moves
        );
    }
}

/// The result line the driver reads: one JSON object, last on stdout.
fn result_line(attempted: usize, failed: usize, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        assert!(value.is_finite(), "metric {name} is not a number: {value}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Read one metric back out of a [`result_line`].
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let marker = format!("\"{name}\": {{\"value\": ");
    let tail = &line[line.find(&marker)? + marker.len()..];
    tail[..tail.find(',')?].parse().ok()
}

/// Read `attempted` or `failed` back out of a [`result_line`].
fn count_in(line: &str, field: &str) -> Option<usize> {
    let marker = format!("\"{field}\": ");
    let tail = &line[line.find(&marker)? + marker.len()..];
    tail[..tail.find(',')?].parse().ok()
}

/// Every catalogue metric with its measured value, in catalogue order.
/// A metric the run did not produce is a bug in the benchmark.
fn in_catalogue_order<'a>(
    names_units: impl Iterator<Item = (&'a str, &'a str)>,
    values: &BTreeMap<&'static str, f64>,
) -> Vec<(&'a str, f64, &'a str)> {
    names_units
        .map(|(name, unit)| {
            let value = values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (name, *value, unit)
        })
        .collect()
}

fn print_metrics(title: &str, metrics: &[(&str, f64, &str)]) {
    println!("{title}");
    for (name, value, unit) in metrics {
        println!("  {name:<34} {value:>18.4} {unit}");
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end of a single-workload run: the check tally, then the result
/// line, last on stdout.
fn report(checks: &timed::Checks, metrics: &[(&str, f64, &str)]) -> ExitCode {
    let failed = checks.failed.len();
    println!("  checks: {failed} failed of {}", checks.attempted);
    println!("{}", result_line(checks.attempted, failed, metrics));
    exit_code(failed == 0)
}

/// Re-run this executable with `args`, stderr passed through. Returns
/// its stdout if it exited successfully.
fn child(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable path: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if out.status.success() {
        Ok(stdout)
    } else {
        Err(format!(
            "child {args:?} exited with {}\n{stdout}",
            out.status
        ))
    }
}

fn workload_args(w: &Workload, args: &Args, extra: &[&str]) -> Vec<String> {
    let mut v = vec![
        "--workload".to_string(),
        w.name.to_string(),
        "--seed".to_string(),
        args.seed.to_string(),
        "--seconds".to_string(),
        args.seconds.to_string(),
    ];
    v.extend(extra.iter().map(|s| s.to_string()));
    v
}

/// Read back what a `--setup-probe` child printed.
fn parse_setup(out: &str) -> Result<SetupSample, String> {
    let mut fields = out.split_whitespace().map(str::parse::<f64>);
    match (fields.next(), fields.next(), fields.next()) {
        (Some(Ok(seconds)), Some(Ok(measured_seconds)), Some(Ok(peak_rss_mb))) => Ok(SetupSample {
            seconds,
            measured_seconds,
            peak_rss_mb,
        }),
        _ => Err(format!("unreadable set-up sample {out:?}")),
    }
}

/// The timed run of one workload in this process, plus fresh processes
/// that only set up, so `setup_s` and `peak_rss_mb` are medians of
/// [`SETUP_SAMPLES`].
fn run_timed(w: &Workload, args: &Args, process_start: Instant) -> ExitCode {
    let run = timed::run(w, args.seed, args.seconds, args.bless, process_start);
    let mut setups = vec![run.setup];
    while setups.len() < SETUP_SAMPLES {
        match child(&workload_args(w, args, &["--setup-probe"])).and_then(|out| parse_setup(&out)) {
            Ok(sample) => setups.push(sample),
            Err(e) => {
                eprintln!("rfbench: set-up probe failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let median_of =
        |f: fn(&SetupSample) -> f64| stats::median(&setups.iter().map(f).collect::<Vec<_>>());
    let mut values = run.metrics;
    values.insert("setup_s", median_of(|s| s.seconds));
    values.insert("peak_rss_mb", median_of(|s| s.peak_rss_mb));
    let metrics = in_catalogue_order(END_TO_END.iter().map(|m| (m.name, m.unit)), &values);

    print_metrics(
        &format!(
            "{} seed {}: {} timed passes, tracing off, 1 thread, times at reference host speed",
            w.name, args.seed, run.passes
        ),
        &metrics,
    );
    println!(
        "  as measured: pass {:.4} s, set-up {:.4} s, calibration step {:.1} ns (reference {:.1} ns)",
        run.measured_wall_s,
        median_of(|s| s.measured_seconds),
        run.host_step_ns,
        hostcal::REFERENCE_STEP_NS,
    );
    report(&run.checks, &metrics)
}

fn run_traced(w: &Workload, args: &Args) -> ExitCode {
    let run = traced::run(w, args.seed, args.seconds);
    let metrics = in_catalogue_order(PER_LAYER.iter().map(|m| (m.name, m.unit)), &run.metrics);
    print_metrics(
        &format!(
            "{} seed {}: traced pass and layer probes",
            w.name, args.seed
        ),
        &metrics,
    );
    println!("  spans written to {}", run.trace_file.display());
    report(&run.checks, &metrics)
}

fn run_layers_only(args: &Args) -> ExitCode {
    let mut failures = Vec::new();
    let values = probes::run_all(args.seed, args.seconds, &mut failures);
    let metrics: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .filter_map(|m| values.get(m.name).map(|v| (m.name, *v, m.unit)))
        .collect();
    print_metrics("layer probes", &metrics);
    for f in &failures {
        eprintln!("rfbench: CHECK FAILED {f}");
    }
    exit_code(failures.is_empty())
}

/// Every workload, each in its own child process so peak memory and
/// lazy initialisation are per workload: the timed run, then the
/// traced run.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in &workloads::ALL {
        let bless: &[&str] = if args.bless { &["--bless"] } else { &[] };
        for extra in [[bless, &["--trace", "0"]].concat(), vec!["--trace", "1"]] {
            match child(&workload_args(w, args, &extra)) {
                Ok(out) => print!("{out}"),
                Err(e) => {
                    eprintln!("rfbench: {e}");
                    ok = false;
                }
            }
        }
    }
    exit_code(ok)
}

/// The timed set `k` times over; per (workload, metric) the spread of
/// the `k` values, against the metric's bound.
fn run_repeat(args: &Args, k: usize) -> ExitCode {
    let mut ok = true;
    // (workload, metric) → one value per repetition.
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for rep in 1..=k {
        for w in &workloads::ALL {
            eprintln!("rfbench: repetition {rep} of {k}: {}", w.name);
            let out = match child(&workload_args(w, args, &["--trace", "0"])) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("rfbench: {e}");
                    ok = false;
                    continue;
                }
            };
            let line = out.lines().last().unwrap_or_default();
            ok &= count_in(line, "failed") == Some(0);
            for m in &END_TO_END {
                match metric_in(line, m.name) {
                    Some(v) => values.entry((w.name, m.name)).or_default().push(v),
                    None => {
                        eprintln!("rfbench: {} printed no {}", w.name, m.name);
                        ok = false;
                    }
                }
            }
        }
    }
    // `iqr/med` is the quartile spread the driver accepts a benchmark
    // by; `max/min` is the stricter figure this command fails on.
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>14} {:>8} {:>8} {:>6}",
        "workload", "metric", "min", "median", "max", "max/min", "iqr/med", "bound"
    );
    for w in &workloads::ALL {
        for m in &END_TO_END {
            let Some(v) = values.get(&(w.name, m.name)) else {
                continue;
            };
            let min = v.iter().copied().fold(f64::INFINITY, f64::min);
            let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let within = max <= min * (1.0 + m.bound);
            ok &= within;
            println!(
                "{:<16} {:<18} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>8.4} {:>5.0}%{}",
                w.name,
                m.name,
                min,
                stats::median(v),
                max,
                max / min,
                stats::quartile_spread(v),
                m.bound * 100.0,
                if within { "" } else { "  SPREAD EXCEEDS BOUND" }
            );
        }
    }
    exit_code(ok)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        list();
        return ExitCode::SUCCESS;
    }
    if args.emit_benchmark_json {
        print!("{}", catalog::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.layers_only {
        return run_layers_only(&args);
    }
    let workload = args.workload.as_deref().and_then(workloads::by_name);
    match (workload, args.repeat) {
        (Some(w), _) if args.setup_probe => {
            let (_, _, sample) = timed::setup(w, args.seed, process_start);
            println!(
                "{} {} {}",
                sample.seconds, sample.measured_seconds, sample.peak_rss_mb
            );
            ExitCode::SUCCESS
        }
        (Some(w), _) if args.trace => run_traced(w, &args),
        (Some(w), _) => run_timed(w, &args, process_start),
        (None, Some(k)) => run_repeat(&args, k),
        (None, None) => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_invocation_parses() {
        let a = parse(&[
            "--workload",
            "fault_fork",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("fault_fork"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
        let d = parse(&[]).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (DEFAULT_SEED, RUN_SECONDS as f64, false)
        );
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for argv in [
            &["--workload", "nope"][..],
            &["--workload"],
            &["--trace", "2"],
            &["--seed", "x"],
            &["--seed", "18446744073709551615"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--repeat", "1"],
            &["--bless", "--seed", "2"],
            &["--setup-probe"],
            &["--frobnicate"],
        ] {
            assert!(parse(argv).is_err(), "{argv:?} should be rejected");
        }
    }

    #[test]
    fn result_line_round_trips() {
        let line = result_line(
            72,
            0,
            &[
                ("wall_s", 1.8034, "s"),
                ("events_per_sec", 3593376.25, "1/s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 72, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.8034, \"unit\": \"s\"}, \
             \"events_per_sec\": {\"value\": 3593376.25, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(metric_in(&line, "wall_s"), Some(1.8034));
        assert_eq!(metric_in(&line, "events_per_sec"), Some(3593376.25));
        assert_eq!(metric_in(&line, "missing"), None);
        assert_eq!(count_in(&line, "attempted"), Some(72));
        assert_eq!(count_in(&line, "failed"), Some(0));
        assert!(result_line(3, 1, &[]).starts_with("{\"correct\": false"));
    }
}
