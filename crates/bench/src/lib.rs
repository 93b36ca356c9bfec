//! # rf-bench — the experiment harness
//!
//! What the `--bin` table generators share: the sweep CLI shape, the
//! manual-configuration baseline and table rendering. The README's
//! "Examples" section lists the binaries; wall-clock numbers are
//! `rfbench`'s (README § Performance).

#![forbid(unsafe_code)]

use rf_core::manual::ManualConfigModel;
use rf_core::scenario::{CellRecord, MatrixReport};
use std::process::ExitCode;
use std::time::Duration;

/// The manual baseline for `n` switches (paper model).
pub fn manual_config_time(n: usize) -> Duration {
    ManualConfigModel::default().total(n)
}

/// Shared CLI shape of the sweep-emitting table binaries: worker
/// thread count (`--threads N`), report destination (`--json FILE`)
/// and whatever positional arguments remain for the caller.
pub struct SweepArgs {
    pub threads: usize,
    pub json_out: Option<String>,
    pub rest: Vec<String>,
}

/// Default sweep worker count: one per core, capped — past the cap
/// the single-threaded cells just contend for cache.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4)
}

/// Parse `--threads`/`--json` out of `std::env::args`, defaults
/// matching `matrix_sweep`. A bad or missing value is reported on
/// stderr and exits 2, like the sweep binaries.
pub fn sweep_args() -> SweepArgs {
    parse_sweep_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

fn parse_sweep_args(mut it: impl Iterator<Item = String>) -> Result<SweepArgs, String> {
    let mut args = SweepArgs {
        threads: default_threads(),
        json_out: None,
        rest: Vec::new(),
    };
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--json" => args.json_out = Some(value("--json")?),
            _ => args.rest.push(arg),
        }
    }
    Ok(args)
}

/// `--check BASELINE` of the sweep binaries: the report must equal the
/// checked-in file byte for byte, which is what tier-1
/// `tests/baselines.rs` demands of the same files. On a mismatch, name
/// every cell and metric that moved and say how to refresh; the error
/// is the process exit code. `bin` and `grid_args` are the binary and
/// the arguments that select what it swept — grid, execution mode,
/// seed — e.g. `"matrix_sweep"`, `["--smoke", "--fork"]`.
pub fn check_baseline(
    report: &MatrixReport,
    path: &str,
    bin: &str,
    grid_args: &[String],
) -> Result<(), ExitCode> {
    let (code, message) = baseline_verdict(report, path, bin, grid_args);
    eprintln!("{message}");
    match code {
        0 => Ok(()),
        _ => Err(ExitCode::from(code)),
    }
}

/// [`check_baseline`]'s exit code and what it prints: 0 identical,
/// 1 differs, 2 no baseline to compare with.
fn baseline_verdict(
    report: &MatrixReport,
    path: &str,
    bin: &str,
    grid_args: &[String],
) -> (u8, String) {
    let baseline = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return (2, format!("reading baseline {path}: {e}")),
    };
    if baseline == report.to_json() {
        let message = format!("baseline check passed: report is byte-identical to {path}");
        return (0, message);
    }
    let mut lines = vec![format!("baseline check FAILED: report differs from {path}")];
    match MatrixReport::parse(&baseline) {
        Ok(parsed) => {
            let diffs = report.diff_against(&parsed);
            if diffs.is_empty() {
                lines.push(
                    "  no cell metric differs: the grid header or the file's formatting does"
                        .to_string(),
                );
            }
            lines.extend(diffs.iter().map(|d| format!("  {d}")));
        }
        Err(e) => lines.push(format!("  the baseline does not parse: {e}")),
    }
    lines.push(refresh_hint(bin, grid_args, path));
    (1, lines.join("\n"))
}

/// What to run to overwrite `path` with the report that was just
/// checked: the same binary, grid and execution mode.
fn refresh_hint(bin: &str, grid_args: &[String], path: &str) -> String {
    format!(
        "if these changes are intended, refresh the baseline:\n  \
         cargo run --release -p rf-bench --bin {bin} -- {} --out {path}",
        grid_args.join(" ")
    )
}

/// Read a nanosecond metric off a matrix cell as a [`Duration`].
pub fn report_duration(rec: &CellRecord, metric: &str) -> Option<Duration> {
    rec.metrics
        .get(metric)
        .map(|&ns| Duration::from_nanos(ns as u64))
}

/// Render seconds for table output.
pub fn fmt_dur(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64())
}

/// Print a markdown-style table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<SweepArgs, String> {
        parse_sweep_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn sweep_args_report_bad_values_instead_of_panicking() {
        let ok = parse(&["a1", "--threads", "3", "--json", "out", "a2"]).unwrap();
        assert_eq!(ok.threads, 3);
        assert_eq!(ok.json_out.as_deref(), Some("out"));
        assert_eq!(ok.rest, ["a1", "a2"]);
        assert_eq!(parse(&[]).unwrap().threads, default_threads());

        let err = |args: &[&str]| parse(args).err().expect("must be rejected");
        assert_eq!(err(&["a1", "--threads"]), "--threads needs a value");
        assert_eq!(err(&["--json"]), "--json needs a value");
        assert!(err(&["--threads", "x"]).starts_with("--threads: invalid digit"));
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn refresh_hint_names_the_grid_and_mode_that_were_checked() {
        let cmd = "cargo run --release -p rf-bench --bin";
        let hint = refresh_hint(
            "matrix_sweep",
            &strings(&["--corpus-smoke"]),
            "crates/bench/baselines/corpus-smoke.json",
        );
        assert!(
            hint.ends_with(&format!(
                "\n  {cmd} matrix_sweep -- --corpus-smoke \
                 --out crates/bench/baselines/corpus-smoke.json"
            )),
            "{hint}"
        );
        let hint = refresh_hint("matrix_sweep", &strings(&["--smoke", "--fork"]), "b.json");
        assert!(
            hint.ends_with(&format!(
                "\n  {cmd} matrix_sweep -- --smoke --fork --out b.json"
            )),
            "{hint}"
        );
        let hint = refresh_hint("chaos_sweep", &strings(&["--smoke", "--seed 7"]), "c.json");
        assert!(
            hint.ends_with(&format!(
                "\n  {cmd} chaos_sweep -- --smoke --seed 7 --out c.json"
            )),
            "{hint}"
        );
    }

    #[test]
    fn check_is_byte_exact_and_names_the_cell_and_metric_that_moved() {
        let cell = |key: &str, flows: i64| CellRecord {
            key: key.to_string(),
            metrics: [("configured_ns", 2_014_000_000), ("flows_installed", flows)]
                .map(|(name, value)| (name.to_string(), value))
                .into(),
        };
        let grid = [("topologies".to_string(), strings(&["ring-4", "ring-8"]))].into();
        let report = MatrixReport::new(grid, vec![cell("ring-4", 40), cell("ring-8", 112)]);
        let path = std::env::temp_dir().join(format!("rf-bench-check-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let args = strings(&["--smoke", "--fork"]);
        let verdict = |baseline: &str| {
            std::fs::write(path, baseline).unwrap();
            baseline_verdict(&report, path, "matrix_sweep", &args)
        };

        let (code, message) = verdict(&report.to_json());
        assert_eq!(code, 0, "{message}");
        assert!(check_baseline(&report, path, "matrix_sweep", &args).is_ok());

        // One edited metric, 1 % off: the old ±20 % check let it pass.
        let edited = report.to_json().replacen("112", "113", 1);
        let (code, message) = verdict(&edited);
        assert_eq!(code, 1, "{message}");
        let lines: Vec<&str> = message.lines().collect();
        assert_eq!(
            lines[1..],
            [
                "  cell ring-8: flows_installed = 112, baseline 113 (-0.9%)",
                "if these changes are intended, refresh the baseline:",
                &format!(
                    "  cargo run --release -p rf-bench --bin matrix_sweep -- \
                     --smoke --fork --out {path}"
                ),
            ],
            "{message}"
        );
        assert!(check_baseline(&report, path, "matrix_sweep", &args).is_err());

        // Same values, different bytes: still a failure, and it says why.
        let (code, message) = verdict(&format!("{}\n", report.to_json()));
        assert_eq!(code, 1, "{message}");
        assert!(message.contains("no cell metric differs"), "{message}");
        let (code, message) = verdict("{");
        assert_eq!(code, 1, "{message}");
        assert!(message.contains("the baseline does not parse"), "{message}");

        std::fs::remove_file(path).unwrap();
        let (code, message) = baseline_verdict(&report, path, "matrix_sweep", &args);
        assert_eq!(code, 2, "{message}");
        assert!(message.starts_with("reading baseline "), "{message}");
    }
}
