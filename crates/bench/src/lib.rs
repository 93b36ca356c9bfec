//! # rf-bench — the experiment harness
//!
//! What the `--bin` table generators share: the sweep CLI shape, the
//! manual-configuration baseline and table rendering. The README's
//! "Examples" section lists the binaries; wall-clock numbers are
//! `rfbench`'s (README § Performance).

use rf_core::manual::ManualConfigModel;
use rf_core::scenario::CellRecord;
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
}
