//! The scenario-level surface of the program that the benchmark pins.
//!
//! Everything `rfbench` does to a simulation goes through the
//! functions below and the types re-exported here, so the list of
//! public items a later change must keep working is this file (the
//! layer probes in `probes.rs` pin the per-crate functions they time).
//! Timed passes use `ScenarioMatrix::{new, standard_builder,
//! run_instrumented, run_instrumented_forked}`; the hand-driven traced
//! pass uses `MatrixCell::{key, topo_spec}`, `TopoSpec::build`,
//! `ScenarioBuilder::{trace_level, start}` and
//! `Scenario::{run_until_configured, run_until, snapshot, fork,
//! inject_faults, set_parallel_cores, finish, workload_reports}`,
//! `Scenario::last_parallel`, `Sim::{now, events_dispatched, tracer}`
//! and `Tracer::counters`.

pub use rf_core::scenario::{
    CellRecord, FaultSchedule, MatrixCell, MatrixKnob, MatrixReport, MatrixSpec, MatrixWorkload,
    Scenario, ScenarioMatrix, ScenarioMetrics, Snapshot, SweepStats,
};
pub use rf_core::traffic::{FlowSize, TrafficSpec};
pub use rf_sim::{ParallelOutcome, Time, TraceLevel};

use rf_core::scenario::{Fault, SnapshotError, WorkloadReport};
use std::collections::BTreeMap;
use std::time::Duration;

/// One pass over the whole grid with the standard builder
/// (`TraceLevel::Off`), cold or through checkpoint/fork. `before_build`
/// runs on the worker thread each time the executor is about to build
/// a world (every cell, or every fork group's prefix): the seam where
/// the timed run interleaves its host calibration.
pub fn run_pass(
    matrix: &ScenarioMatrix,
    forked: bool,
    threads: usize,
    before_build: &(dyn Fn() + Sync),
) -> (MatrixReport, SweepStats) {
    let build = |cell: &MatrixCell| {
        before_build();
        ScenarioMatrix::standard_builder(cell)
    };
    if forked {
        matrix.run_instrumented_forked(threads, build)
    } else {
        matrix.run_instrumented(threads, build)
    }
}

/// Build the cell's topology on its own (the standard builder builds
/// its own copy); returns the switch count.
pub fn build_topology(cell: &MatrixCell) -> Result<usize, String> {
    cell.topo_spec()
        .map(|spec| spec.build().node_count())
        .map_err(|e| format!("{e:?}"))
}

/// Assemble one cell's world with the standard builder at `level`.
pub fn start(cell: &MatrixCell, level: TraceLevel) -> Result<Scenario, String> {
    ScenarioMatrix::standard_builder(cell)
        .map(|b| b.trace_level(level).start())
        .map_err(|e| format!("{e:?}"))
}

/// Cold start until every switch is green. Returns the instant the
/// last switch configured, if it did before `deadline`.
pub fn converge(sc: &mut Scenario, deadline: Duration) -> Option<Time> {
    sc.run_until_configured(Time::ZERO + deadline)
}

/// Current simulated time.
pub fn now(sc: &Scenario) -> Time {
    sc.sim.now()
}

/// The configuration phase observes convergence in 100 ms slices, so
/// it hands the scenario over at the first slice boundary at or after
/// the instant the last switch turned green.
pub fn config_now_of(all_configured_ns: u64) -> Time {
    const SLICE_NS: u64 = 100_000_000;
    Time::from_nanos(all_configured_ns.div_ceil(SLICE_NS) * SLICE_NS)
}

/// How far a matrix cell is simulated once configuration ended at
/// `config_now`: the settle window, every scheduled fault plus the
/// post-fault window, and the whole offered-load window plus a drain
/// tail, whichever ends last. This mirrors what the sweep executor
/// does with the same public `MatrixSpec` fields; the traced pass
/// checks the mirror by comparing its event counts with the
/// executor's.
pub fn horizon(spec: &MatrixSpec, cell: &MatrixCell, config_now: Time) -> Time {
    let mut run_to = config_now + spec.settle;
    if let Some(last) = cell.schedule.last_fault_at() {
        run_to = run_to.max(Time::ZERO + last + spec.post_fault_window);
    }
    if let MatrixWorkload::Traffic(ref traffic) = cell.knob.workload {
        run_to = run_to.max(Time::ZERO + traffic.stop_at() + Duration::from_secs(2));
    }
    run_to
}

pub fn run_to(sc: &mut Scenario, t: Time) {
    sc.run_until(t);
}

/// Capture a converged scenario, stepping 100 ms at a time while the
/// controller still holds queued output, no further than `limit`.
pub fn quiesced_snapshot(sc: &mut Scenario, limit: Time) -> Option<Snapshot> {
    loop {
        match sc.snapshot() {
            Ok(snap) => return Some(snap),
            Err(SnapshotError::UndrainedChannels { .. })
                if sc.sim.now() + Duration::from_millis(100) <= limit =>
            {
                let t = sc.sim.now() + Duration::from_millis(100);
                sc.run_until(t);
            }
            Err(_) => return None,
        }
    }
}

pub fn taken_at(snap: &Snapshot) -> Time {
    snap.taken_at()
}

pub fn fork(snap: &Snapshot) -> Scenario {
    Scenario::fork(snap)
}

/// Whether every fault of `schedule` first takes effect strictly after
/// `t` — the condition under which a fork taken at `t` can still
/// receive it.
pub fn starts_after(schedule: &FaultSchedule, t: Time) -> bool {
    schedule.faults.iter().all(|f| {
        let first_effect = match *f {
            Fault::KillSwitch { at, .. }
            | Fault::ReviveSwitch { at, .. }
            | Fault::LinkDown { at, .. }
            | Fault::LinkUp { at, .. }
            | Fault::LinkLoss { at, .. } => at,
            Fault::ChannelStall { from, .. } => from,
        };
        Time::ZERO + first_effect > t
    })
}

pub fn inject(sc: &mut Scenario, schedule: &FaultSchedule) -> bool {
    sc.inject_faults(&schedule.faults).is_ok()
}

pub fn set_parallel_cores(sc: &mut Scenario, cores: usize) {
    sc.set_parallel_cores(cores);
}

/// Offered and carried load of a cell's traffic workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrafficTotals {
    pub offered_bytes: u64,
    pub delivered_bytes: u64,
    pub flows_completed: u64,
    pub fct_p50_ns: Option<u64>,
}

/// What a finished cell yields.
pub struct Harvest {
    pub metrics: ScenarioMetrics,
    /// Kernel events dispatched (a fork inherits its prefix's count).
    pub events: u64,
    /// Kernel and agent counters; empty at `TraceLevel::Off`.
    pub counters: BTreeMap<String, u64>,
    pub traffic: Option<TrafficTotals>,
    pub last_parallel: Option<ParallelOutcome>,
}

/// Drain the controller and read everything off the scenario. A
/// terminal read, like `Scenario::finish`.
pub fn harvest(sc: &mut Scenario) -> Harvest {
    let metrics = sc.finish();
    let traffic = sc.workload_reports().into_iter().find_map(|r| match r {
        WorkloadReport::Traffic(t) => Some(TrafficTotals {
            offered_bytes: t.offered_bytes,
            delivered_bytes: t.delivered_bytes,
            flows_completed: t.flows_completed,
            fct_p50_ns: t.fct_percentile(50).map(|d| d.as_nanos() as u64),
        }),
        _ => None,
    });
    Harvest {
        metrics,
        events: sc.sim.events_dispatched(),
        counters: sc.sim.tracer().counters(),
        traffic,
        last_parallel: sc.last_parallel.clone(),
    }
}
