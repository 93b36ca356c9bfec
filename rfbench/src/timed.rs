//! The timed run of one workload: set-up, repeated untraced passes
//! over the fixed grid for the measuring budget, then the correctness
//! checks. Produces the eight end-to-end metrics. Every host time is
//! stated at the reference host speed (see `hostcal`).

use crate::adapter::{self, CellRecord, MatrixReport, MatrixSpec, ScenarioMatrix, SweepStats};
use crate::hostcal::{HostCal, Reading};
use crate::stats::{fnv1a_hex, median};
use crate::workloads::{self, Workload, DEFAULT_SEED};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One pass with calibration slices between its cells: the report, the
/// executor's stats, the seconds the program itself took, and the
/// calibration reading taken alongside.
fn calibrated_pass(
    matrix: &ScenarioMatrix,
    forked: bool,
    cal: &Mutex<HostCal>,
) -> (MatrixReport, SweepStats, f64, Reading) {
    cal.lock().unwrap().begin();
    let (report, stats) = adapter::run_pass(matrix, forked, 1, &|| cal.lock().unwrap().keep_pace());
    let mut cal = cal.lock().unwrap();
    let program_s = cal.program_time().as_secs_f64();
    cal.keep_pace();
    (report, stats, program_s, cal.reading())
}

/// What one fresh process observed of the set-up: seconds from its
/// start to the first timed instant at the reference host speed (and
/// as measured), and its peak memory at that instant.
#[derive(Clone, Copy)]
pub struct SetupSample {
    pub seconds: f64,
    pub measured_seconds: f64,
    pub peak_rss_mb: f64,
}

/// Everything before the first timed instant, so a later change that
/// moves work there shows: grid definition (corpus parse, spec
/// expansion), `ScenarioMatrix::new`, and one untimed warm-up pass
/// over the first seed's cells, which also pays whatever the process
/// initialises lazily. Returns the matrix the timed passes reuse, the
/// calibrator, and what the set-up cost. The calibrator's own time and
/// resident memory are the benchmark's, not the program's, and are
/// taken out of both figures.
pub fn setup(
    workload: &Workload,
    seed: u64,
    process_start: Instant,
) -> (ScenarioMatrix, Mutex<HostCal>, SetupSample) {
    let rss_before = status_mib("VmRSS:");
    let cal = Mutex::new(HostCal::new());
    let cal_rss = status_mib("VmRSS:") - rss_before;
    let warmup = ScenarioMatrix::new(workload.warmup_spec(seed));
    let (_, _, _, reading) = calibrated_pass(&warmup, workload.forked, &cal);
    let matrix = ScenarioMatrix::new(workload.spec(seed));
    let measured_seconds = (process_start.elapsed() - cal.lock().unwrap().overhead()).as_secs_f64();
    let sample = SetupSample {
        seconds: reading.at_reference_speed(measured_seconds),
        measured_seconds,
        peak_rss_mb: status_mib("VmHWM:") - cal_rss,
    };
    (matrix, cal, sample)
}

/// Failed checks, by cell key or report-level check name, out of the
/// number attempted.
#[derive(Default)]
pub struct Checks {
    pub attempted: usize,
    pub failed: BTreeSet<String>,
}

impl Checks {
    pub fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            eprintln!("rfbench: CHECK FAILED {what}: {}", detail());
            self.failed.insert(what.to_string());
        }
    }

    /// A breach attributed to an already-counted cell.
    pub fn fail_cell(&mut self, key: &str, detail: &str) {
        eprintln!("rfbench: CHECK FAILED {key}: {detail}");
        self.failed.insert(key.to_string());
    }
}

pub struct TimedRun {
    pub metrics: BTreeMap<&'static str, f64>,
    pub checks: Checks,
    pub passes: usize,
    /// This process's own set-up sample; the caller pools it with the
    /// samples of fresh processes into `setup_s` and `peak_rss_mb`.
    pub setup: SetupSample,
    /// Median pass time as measured, and the median cost of a
    /// calibration step during the passes: what the host did.
    pub measured_wall_s: f64,
    pub host_step_ns: f64,
}

/// A `/proc/self/status` line of this process in MiB. `VmHWM` is only
/// read at the end of set-up, after exactly one pass in a fresh
/// process: every later pass runs on a new worker thread, which may or
/// may not be handed the previous one's malloc arena depending on how
/// fast that thread finished exiting, so the high-water mark after
/// several passes is a matter of timing (24 or 38 MiB on the same
/// input).
fn status_mib(line: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(line))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{line} line present"));
    kib / 1024.0
}

fn metric(rec: &CellRecord, name: &str) -> Option<i64> {
    rec.metrics.get(name).copied()
}

/// Simulated seconds all cells of `report` cover: each cell runs from
/// zero to its horizon.
fn simulated_seconds(spec: &MatrixSpec, report: &MatrixReport) -> f64 {
    let by_key: BTreeMap<String, &CellRecord> =
        report.cells.iter().map(|c| (c.key.clone(), c)).collect();
    spec.cells()
        .iter()
        .map(|cell| {
            let config_now = by_key
                .get(&cell.key())
                .and_then(|rec| metric(rec, "all_configured_ns"))
                .map_or(adapter::Time::ZERO + spec.configure_deadline, |ns| {
                    adapter::config_now_of(ns as u64)
                });
            adapter::horizon(spec, cell, config_now).as_secs_f64()
        })
        .sum()
}

/// Where `--bless` writes a workload's report digest; the build
/// compiles the file in (`Workload::expected_digest`).
fn digest_path(workload: &Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{}.digest", workload.name))
}

/// Per-cell checks every workload shares: the cell built, and every
/// switch turned green before the deadline.
fn check_cells(report: &MatrixReport, checks: &mut Checks) {
    for rec in &report.cells {
        let ok = metric(rec, "build_error").is_none() && metric(rec, "all_configured_ns").is_some();
        checks.check(&rec.key, ok, || {
            "build error or not configured by the deadline".to_string()
        });
        if let (Some(offered), Some(delivered)) = (
            metric(rec, "traffic_offered_bytes"),
            metric(rec, "traffic_delivered_bytes"),
        ) {
            if offered <= 0 || delivered <= 0 {
                checks.fail_cell(&rec.key, "traffic workload offered or delivered nothing");
            }
        }
    }
}

/// The checks that need a second execution of the grid, run after the
/// timed passes: `fault_fork` cold vs forked byte-for-byte, and
/// `traffic_packet` against its flow-level twin, offered bytes per
/// cell.
fn cross_checks(
    workload: &Workload,
    spec: &MatrixSpec,
    report: &MatrixReport,
    json: &str,
    checks: &mut Checks,
) {
    if workload.forked {
        let (cold, _) = adapter::run_pass(&ScenarioMatrix::new(spec.clone()), false, 1, &|| ());
        checks.check("fork-equals-cold", cold.to_json() == json, || {
            "forked report differs from the cold run".to_string()
        });
    }
    if workload.name == "traffic_packet" {
        let twin = workloads::flow_twin(spec);
        let (flow, _) = adapter::run_pass(&ScenarioMatrix::new(twin), false, 1, &|| ());
        for (p, f) in report.cells.iter().zip(&flow.cells) {
            let same = p.key == f.key
                && metric(p, "traffic_offered_bytes").is_some()
                && metric(p, "traffic_offered_bytes") == metric(f, "traffic_offered_bytes");
            if !same {
                checks.fail_cell(&p.key, "packet and flow level offered bytes differ");
            }
        }
    }
}

/// Compare the report with the checked-in digest (default seed only),
/// or rewrite the digest under `bless`.
fn digest_check(workload: &Workload, seed: u64, json: &str, bless: bool, checks: &mut Checks) {
    if seed != DEFAULT_SEED {
        return;
    }
    let digest = fnv1a_hex(json.as_bytes());
    let path = digest_path(workload);
    if bless {
        std::fs::create_dir_all(path.parent().expect("digest path has a parent"))
            .and_then(|()| std::fs::write(&path, format!("{digest}\n")))
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("rfbench: blessed {} = {digest}", path.display());
        return;
    }
    let expected = workload.expected_digest.trim();
    checks.check("report-digest", expected == digest, || {
        format!(
            "report digest {digest} != {expected} in {} (rfbench --bless rewrites it)",
            path.display()
        )
    });
}

/// Run `workload` at `seed`: set up, take timed passes for `seconds`,
/// check. `process_start` is the instant `main` began.
pub fn run(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    bless: bool,
    process_start: Instant,
) -> TimedRun {
    let (matrix, cal, setup) = setup(workload, seed, process_start);
    let spec = matrix.spec().clone();

    let budget = Duration::from_secs_f64(seconds);
    let mut walls = Vec::new();
    let mut measured_walls = Vec::new();
    let mut step_ns = Vec::new();
    let mut first: Option<(MatrixReport, String, SweepStats)> = None;
    let mut deterministic = true;
    let measuring = Instant::now();
    while walls.is_empty() || measuring.elapsed() < budget {
        let (report, stats, program_s, reading) = calibrated_pass(&matrix, workload.forked, &cal);
        eprintln!(
            "rfbench: {} pass {}: {:.4} s at {:.1} ns per calibration step",
            workload.name,
            walls.len() + 1,
            program_s,
            reading.step_ns()
        );
        walls.push(reading.at_reference_speed(program_s));
        measured_walls.push(program_s);
        step_ns.push(reading.step_ns());
        let json = report.to_json();
        match &first {
            None => first = Some((report, json, stats)),
            Some((_, first_json, _)) => deterministic &= json == *first_json,
        }
    }
    let (report, json, stats) = first.expect("at least one pass ran");

    let mut checks = Checks::default();
    checks.check("pass-equals-pass", deterministic, || {
        "report bytes differ between passes".to_string()
    });
    check_cells(&report, &mut checks);
    if workload.forked {
        checks.check(
            "all-cells-forked",
            stats.forked == report.cells.len(),
            || format!("{} of {} cells forked", stats.forked, report.cells.len()),
        );
    }
    cross_checks(workload, &spec, &report, &json, &mut checks);
    digest_check(workload, seed, &json, bless, &mut checks);

    let wall_s = median(&walls);
    let cells = report.cells.len() as f64;
    let mut configured: Vec<f64> = report
        .cells
        .iter()
        .filter_map(|c| metric(c, "all_configured_ns"))
        .map(|ns| ns as f64 / 1e9)
        .collect();
    if configured.is_empty() {
        configured.push(spec.configure_deadline.as_secs_f64());
    }
    let ok = checks.attempted.saturating_sub(checks.failed.len()) as f64;
    let metrics = BTreeMap::from([
        ("wall_s", wall_s),
        ("events_per_sec", stats.total_events() as f64 / wall_s),
        ("cells_per_sec", cells / wall_s),
        (
            "sim_s_per_wall_s",
            simulated_seconds(&spec, &report) / wall_s,
        ),
        ("config_time_sim_s", median(&configured)),
        ("ok_cell_share", ok / checks.attempted as f64),
    ]);
    TimedRun {
        metrics,
        checks,
        passes: walls.len(),
        setup,
        measured_wall_s: median(&measured_walls),
        host_step_ns: median(&step_ns),
    }
}
