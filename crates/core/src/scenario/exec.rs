//! The one sweep executor: every grid in the crate — cold matrix
//! sweeps, checkpoint/fork sweeps, chaos campaigns, the shrinker's
//! re-runs — is this worker pool, this prefix capture and this cold
//! cell runner.
//!
//! A sweep is a list of cells cut into *units*, the thing a worker
//! pulls from the shared cursor. A unit of one cell is a cold start. A
//! unit of several cells (a forked sweep's `(topology × knob × seed)`
//! group, whose members differ only in fault schedule) shares one
//! [`Prefix`]: the fault-free world is built and converged once,
//! captured at a quiesce point, and each member continues from a fork
//! of the capture — or falls back to a cold start when its faults fire
//! at or before the capture, or when the prefix never converged or
//! quiesced. Forking is therefore a pure optimisation: the records are
//! byte-identical to cold ones, at any thread count.
//!
//! A panic is caught per cell: the cell records `panic = 1`, the sweep
//! goes on, and a panicking capture sends its whole group cold.

use super::matrix::{expected_cost, finish_cell, CellStat, FaultSchedule, MatrixCell, MatrixSpec};
use super::report::CellRecord;
use super::{Scenario, ScenarioBuilder, Snapshot, SnapshotError};
use crate::traffic::WorkloadError;
use rf_sim::Time;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A cell run to its horizon and harvested.
pub(crate) struct Finished {
    pub rec: CellRecord,
    /// Kernel events the cell's simulation dispatched.
    pub events: u64,
    /// The finished world, for post-run probing — a terminal read,
    /// never snapshot it again. `None` for a `build_error` cell.
    pub scenario: Option<Scenario>,
}

/// One cell's outcome as the pool reports it.
pub(crate) struct Done<T> {
    pub rec: CellRecord,
    pub stat: CellStat,
    /// What the sweep's hook made of the finished scenario
    /// (`T::default()` for a `build_error` cell, which has none).
    pub post: T,
    /// Whether the cell ran as a fork of a shared prefix.
    pub forked: bool,
    /// Index into the sweep's cell list.
    index: usize,
}

/// Run `cells`, cut into `units`, over `threads` workers (one per unit
/// when there are fewer units). Units are pulled from a shared atomic
/// cursor, costliest first (work stealing: a worker that lands a cheap
/// unit immediately takes another; the expensive ones all start
/// early). `build` assembles each world on
/// the worker thread — once per cold cell, once per shared prefix —
/// and `hook` sees every finished scenario with its cell index and may
/// extend the record. Returns the outcomes in cell-list order — they do
/// not depend on `threads` — and the end-to-end wall time.
pub(crate) fn sweep<B, H, T>(
    spec: &MatrixSpec,
    cells: &[MatrixCell],
    mut units: Vec<Vec<usize>>,
    threads: usize,
    build: &B,
    hook: &H,
) -> (Vec<Done<T>>, Duration)
where
    B: Fn(&MatrixCell) -> Result<ScenarioBuilder, WorkloadError> + Sync,
    H: Fn(usize, &mut CellRecord, &Scenario) -> T + Sync,
    T: Default + Send,
{
    let threads = threads.max(1);
    let cost: Vec<u64> = cells.iter().map(|c| expected_cost(spec, c)).collect();
    // Ties keep declaration order, so the schedule is deterministic.
    units.sort_by_cached_key(|u| {
        let total: u64 = u.iter().map(|&i| cost[i]).sum();
        (std::cmp::Reverse(total), u[0])
    });
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<Done<T>>> = Mutex::new(Vec::with_capacity(cells.len()));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(units.len()) {
            scope.spawn(|| loop {
                let pos = next.fetch_add(1, Ordering::SeqCst);
                let Some(unit) = units.get(pos) else { break };
                let out = run_unit(spec, cells, unit, build, hook);
                done.lock().expect("a worker panicked").extend(out);
            });
        }
    });
    let wall = started.elapsed();
    let mut done = done.into_inner().expect("a worker panicked");
    done.sort_by_key(|d| d.index);
    (done, wall)
}

fn run_unit<B, H, T>(
    spec: &MatrixSpec,
    cells: &[MatrixCell],
    unit: &[usize],
    build: &B,
    hook: &H,
) -> Vec<Done<T>>
where
    B: Fn(&MatrixCell) -> Result<ScenarioBuilder, WorkloadError>,
    H: Fn(usize, &mut CellRecord, &Scenario) -> T,
    T: Default,
{
    // A singleton unit has no prefix worth sharing. A capture that
    // panics sends every member to a cold start, where each records
    // its own outcome.
    let first = &cells[unit[0]];
    let mut prefix = (unit.len() >= 2)
        .then(|| caught(first, || Prefix::capture(spec, first, build)).flatten())
        .flatten();
    unit.iter()
        .map(|&index| {
            let cell = &cells[index];
            let t0 = Instant::now();
            let outcome = caught(cell, || {
                let resumed = prefix.as_mut().and_then(|p| p.resume(spec, cell));
                let forked = resumed.is_some();
                let mut fin = resumed.unwrap_or_else(|| run_cold(spec, cell, build));
                let post = match fin.scenario {
                    Some(sc) => hook(index, &mut fin.rec, &sc),
                    None => T::default(),
                };
                (fin.rec, fin.events, post, forked)
            });
            // A panicking cell records `panic = 1` and nothing else,
            // like a `build_error` cell.
            let (rec, events, post, forked) = outcome.unwrap_or_else(|| {
                let metrics = BTreeMap::from([("panic".to_string(), 1)]);
                let rec = CellRecord {
                    key: cell.key(),
                    metrics,
                };
                (rec, 0, T::default(), false)
            });
            let stat = CellStat {
                key: rec.key.clone(),
                wall: t0.elapsed(),
                events,
            };
            Done {
                rec,
                stat,
                post,
                forked,
                index,
            }
        })
        .collect()
}

/// Run `f`, one cell's (or one capture's) work, turning a panic into
/// `None` so the rest of the sweep goes on. The message goes to stderr
/// only: its file:line moves with every edit, so it is not byte-stable
/// and never enters a report.
fn caught<R>(cell: &MatrixCell, f: impl FnOnce() -> R) -> Option<R> {
    let payload = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => return Some(r),
        Err(payload) => payload,
    };
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(no message)");
    eprintln!("cell {} panicked: {msg}", cell.key());
    None
}

/// Build `cell`'s world on this thread and run its configuration
/// phase. Returns the scenario, when (if) the last switch turned
/// green, and the instant the phase handed over; `None` if the builder
/// rejected the cell.
fn converge<B>(
    spec: &MatrixSpec,
    cell: &MatrixCell,
    build: &B,
) -> Option<(Scenario, Option<Time>, Time)>
where
    B: Fn(&MatrixCell) -> Result<ScenarioBuilder, WorkloadError>,
{
    let mut sc = build(cell).ok()?.start();
    let configured_at = sc.run_until_configured(Time::ZERO + spec.configure_deadline);
    let config_now = sc.sim.now();
    Some((sc, configured_at, config_now))
}

/// Build, run and harvest one cell from a cold start. A cell whose
/// builder returns an error reports `build_error = 1` and nothing
/// else: a bad axis value marks this cell, not the sweep, so `--check`
/// diffs surface exactly which cells failed to assemble.
pub(crate) fn run_cold<B>(spec: &MatrixSpec, cell: &MatrixCell, build: &B) -> Finished
where
    B: Fn(&MatrixCell) -> Result<ScenarioBuilder, WorkloadError>,
{
    match converge(spec, cell, build) {
        Some((sc, configured_at, config_now)) => {
            finish_cell(spec, cell, sc, configured_at, config_now)
        }
        None => Finished {
            rec: CellRecord {
                key: cell.key(),
                metrics: BTreeMap::from([("build_error".to_string(), 1)]),
            },
            events: 0,
            scenario: None,
        },
    }
}

/// A converged, quiesced, fault-free world, captured once and continued
/// by every cell that differs from it only in fault schedule.
pub(crate) struct Prefix {
    snap: Snapshot,
    /// The prefix scenario *is* the snapshot state — it goes to the
    /// first member that forks, instead of cloning one more world.
    live: Option<Scenario>,
    configured_at: Time,
    /// The instant a cold run's settle window starts from; forks must
    /// measure from here, not from any later quiesce-probe instant.
    config_now: Time,
}

impl Prefix {
    /// Build `cell` with its fault schedule erased, converge it and
    /// snapshot at a quiesce point. Every cell of the same (topology,
    /// knob, seed) builds the identical world apart from that axis
    /// (the chaos agent is present either way, with an empty op list
    /// here), so one capture serves them all. `None` if the builder
    /// rejects the cell, the world never converges, or it never
    /// quiesces — a cold start is then the answer for every member.
    pub(crate) fn capture<B>(spec: &MatrixSpec, cell: &MatrixCell, build: &B) -> Option<Prefix>
    where
        B: Fn(&MatrixCell) -> Result<ScenarioBuilder, WorkloadError>,
    {
        let bare = MatrixCell {
            schedule: FaultSchedule::none(),
            ..cell.clone()
        };
        let (mut sc, configured_at, config_now) = converge(spec, &bare, build)?;
        let configured_at = configured_at?;
        // The capture is refused while a tail batch waits out its
        // tick, so step in short slices — bounded well inside the
        // settle window every member runs through anyway, which keeps
        // the probe invisible to the determinism contract.
        let probe_limit = config_now + spec.settle;
        let snap = loop {
            let next = sc.sim.now() + Duration::from_millis(100);
            match sc.snapshot() {
                Ok(snap) => break snap,
                Err(SnapshotError::UndrainedChannels { .. }) if next <= probe_limit => {
                    sc.run_until(next)
                }
                Err(_) => return None,
            }
        };
        Some(Prefix {
            snap,
            live: Some(sc),
            configured_at,
            config_now,
        })
    }

    /// Continue `cell` from the capture: fork, inject its faults, run
    /// to the horizon, harvest. `None` — run it cold instead — when
    /// `inject_faults` refuses the schedule: a fault fires at or before
    /// the capture (a cold run would already have dispatched it), or
    /// does not fit the topology (the cold path then records the
    /// `build_error`).
    pub(crate) fn resume(&mut self, spec: &MatrixSpec, cell: &MatrixCell) -> Option<Finished> {
        let mut sc = self
            .live
            .take()
            .unwrap_or_else(|| Scenario::fork(&self.snap));
        if sc.inject_faults(&cell.schedule.faults).is_err() {
            // A refused injection schedules nothing: this world is
            // still the capture, so the next member can have it.
            self.live = Some(sc);
            return None;
        }
        Some(finish_cell(
            spec,
            cell,
            sc,
            Some(self.configured_at),
            self.config_now,
        ))
    }
}
