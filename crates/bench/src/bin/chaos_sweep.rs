//! The chaos-campaign harness: fan N seeded random fault schedules ×
//! M topologies over worker threads, machine-check every cell's
//! invariants, shrink any violation to a minimal repro, and emit the
//! byte-stable campaign report.
//!
//! ```sh
//! # CI-sized campaign (2 rings × 4 schedules), report to stdout:
//! cargo run --release -p rf-bench --bin chaos_sweep -- --smoke
//!
//! # The acceptance-scale campaign: 7 topologies × 30 schedules:
//! cargo run --release -p rf-bench --bin chaos_sweep -- --full
//!
//! # Gate + artifacts: nonzero exit on any invariant violation, one
//! # minimized repro JSON per violating cell under --repro-dir:
//! cargo run --release -p rf-bench --bin chaos_sweep -- --smoke \
//!     --out chaos.json --repro-dir repros/
//!
//! # Replay a minimized repro byte-for-byte:
//! cargo run --release -p rf-bench --bin chaos_sweep -- --replay repros/r0.json
//! ```
//!
//! The report is byte-identical at any `--threads` value and fully
//! determined by `--seed`; see README §"Chaos campaigns".

use rf_core::chaos::ChaosCampaign;
use std::process::ExitCode;

struct Args {
    campaign: ChaosCampaign,
    grid_name: &'static str,
    seed: u64,
    threads: usize,
    out: Option<String>,
    check: Option<String>,
    summary_md: Option<String>,
    repro_dir: Option<String>,
    replay: Option<String>,
    no_shrink: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut seed = 1u64;
    let mut args = Args {
        campaign: ChaosCampaign::smoke(seed),
        grid_name: "smoke",
        seed,
        threads: rf_bench::default_threads(),
        out: None,
        check: None,
        summary_md: None,
        repro_dir: None,
        replay: None,
        no_shrink: false,
    };
    let mut full = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--smoke" => full = false,
            "--full" => full = true,
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--out" => args.out = Some(value("--out")?),
            "--check" => args.check = Some(value("--check")?),
            "--summary-md" => args.summary_md = Some(value("--summary-md")?),
            "--repro-dir" => args.repro_dir = Some(value("--repro-dir")?),
            "--replay" => args.replay = Some(value("--replay")?),
            "--no-shrink" => args.no_shrink = true,
            other => {
                return Err(format!(
                    "unknown argument {other}\n\
                     usage: chaos_sweep [--smoke|--full] [--seed N] [--threads N] \
                     [--out FILE] [--check BASELINE] [--summary-md FILE] \
                     [--repro-dir DIR] [--no-shrink] [--replay REPRO.json]"
                ))
            }
        }
    }
    args.campaign = if full {
        args.grid_name = "full";
        ChaosCampaign::full(seed)
    } else {
        ChaosCampaign::smoke(seed)
    };
    args.seed = seed;
    args.campaign.shrink = !args.no_shrink;
    Ok(args)
}

/// Re-run a minimized repro and compare the violations it provokes
/// against the recorded ones.
fn replay(campaign: &ChaosCampaign, path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("reading {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let repro = match rf_core::chaos::ReproCase::parse(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("parsing {path}: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "replaying {}: {} fault(s) on {} (seed {})",
        repro.key,
        repro.faults.len(),
        repro.topology,
        repro.seed
    );
    let replayed = match campaign.replay(&repro) {
        Ok(v) => v,
        Err(why) => {
            eprintln!("could not replay {path}: {why}");
            return ExitCode::from(2);
        }
    };
    let got: Vec<(String, String)> = replayed
        .iter()
        .map(|v| (v.code().to_string(), v.to_string()))
        .collect();
    for (code, detail) in &got {
        eprintln!("  [{code}] {detail}");
    }
    if got == repro.violations {
        eprintln!("replay matches the recorded violations exactly");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "replay DIVERGED: recorded {:?}, got {:?}",
            repro.violations, got
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.replay {
        return replay(&args.campaign, path);
    }

    let schedules = args.campaign.topologies.len() * args.campaign.schedules_per_topology;
    eprintln!(
        "chaos {} campaign: {schedules} schedules across {} topologies on {} threads (seed {})",
        args.grid_name,
        args.campaign.topologies.len(),
        args.threads,
        args.seed
    );
    let started = std::time::Instant::now();
    let outcome = args.campaign.run(args.threads);
    eprintln!(
        "ran {} schedules in {:.1}s wall clock: {} violation(s) in {} cell(s), {} build error(s), {} panic(s)",
        outcome.stats.schedules,
        started.elapsed().as_secs_f64(),
        outcome.stats.violations,
        outcome.stats.cells_with_violations,
        outcome.stats.build_errors,
        outcome.stats.panics,
    );
    for s in &outcome.stats.shrinks {
        eprintln!(
            "  shrink {}: {} -> {} fault(s) in {} re-run(s)",
            s.key, s.from, s.to, s.runs
        );
    }

    if let Some(dir) = &args.repro_dir {
        if !outcome.repros.is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("creating {dir}: {e}");
                return ExitCode::from(2);
            }
        }
        for (i, repro) in outcome.repros.iter().enumerate() {
            let path = format!("{dir}/repro-{i:03}.json");
            if let Err(e) = std::fs::write(&path, repro.to_json()) {
                eprintln!("writing {path}: {e}");
                return ExitCode::from(2);
            }
            eprintln!("minimized repro written to {path} ({})", repro.key);
        }
    } else {
        for repro in &outcome.repros {
            eprintln!("--- minimized repro ({}) ---", repro.key);
            eprint!("{}", repro.to_json());
        }
    }

    if let Some(path) = &args.summary_md {
        let mut md = format!(
            "## chaos `{}` campaign — {} schedules, {} violation(s)\n\n\
             | metric | n | min | median | max |\n\
             |---|---|---|---|---|\n",
            args.grid_name, outcome.stats.schedules, outcome.stats.violations
        );
        for (name, s) in &outcome.report.summary {
            if name.starts_with("chaos_") || name.starts_with("inv_") || name == "recovery_ns" {
                md.push_str(&format!(
                    "| `{name}` | {} | {} | {} | {} |\n",
                    s.count, s.min, s.median, s.max
                ));
            }
        }
        if let Err(e) = std::fs::write(path, md) {
            eprintln!("writing {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("markdown summary written to {path}");
    }

    let json = outcome.report.to_json();
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
        let grid_args = [
            format!("--{}", args.grid_name),
            format!("--seed {}", args.seed),
        ];
        if let Err(code) =
            rf_bench::check_baseline(&outcome.report, path, "chaos_sweep", &grid_args)
        {
            return code;
        }
    }

    if outcome.stats.violations > 0 || outcome.stats.build_errors > 0 || outcome.stats.panics > 0 {
        eprintln!("campaign NOT green");
        return ExitCode::FAILURE;
    }
    eprintln!("campaign green: every invariant held on every schedule");
    ExitCode::SUCCESS
}
