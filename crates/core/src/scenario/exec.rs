//! The one sweep executor: every grid in the crate — cold matrix
//! sweeps, checkpoint/fork sweeps, chaos campaigns, the shrinker's
//! re-runs — is this worker pool, this prefix capture and this cold
//! cell runner.
//!
//! A sweep is a list of cells cut into *units*, the thing a worker
//! pulls from the shared cursor. A unit of one cell is a cold start. A
//! unit of several cells (a forked sweep's `(topology × knob × seed)`
//! group, whose members differ only in fault schedule) shares one
//! [`Prefix`]: the fault-free world is built and converged once and
//! captured at a quiesce point. Members are served in the order their
//! faults first take effect, and before each one the capture moves
//! forward to a quiesce point just before that member's first fault,
//! so each continues from a fork of the latest fault-free instant it
//! shares with the rest — or falls back to a cold start when its
//! faults fire at or before the capture, or when the prefix never
//! converged or quiesced. Forking is therefore a pure optimisation:
//! the records are byte-identical to cold ones, at any thread count.
//!
//! A worker holds at most two worlds: the capture and the member
//! running from it. An advance runs the captured world on, snapshots
//! it and drops it while no member runs, and the last member takes
//! the capture by value.
//!
//! A panic is caught per cell: the cell records `panic = 1`, the sweep
//! goes on, and a panicking capture sends the rest of its group cold.

use super::matrix::{expected_cost, finish_cell, CellStat, FaultSchedule, MatrixCell, MatrixSpec};
use super::report::CellRecord;
use super::{Fault, Scenario, ScenarioBuilder, Snapshot, SnapshotError};
use crate::traffic::WorkloadError;
use rf_sim::Time;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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

/// What a sweep produced.
pub(crate) struct Swept<T> {
    /// One outcome per cell, in cell-list order.
    pub done: Vec<Done<T>>,
    /// Kernel events the sweep actually simulated: each shared prefix
    /// once, each forked cell from its fork point on, each cold cell
    /// whole.
    pub dispatched: u64,
    /// End-to-end wall time.
    pub wall: Duration,
}

/// Run `cells`, cut into `units`, over `threads` workers (one per unit
/// when there are fewer units). Units are pulled from a shared atomic
/// cursor, costliest first (work stealing: a worker that lands a cheap
/// unit immediately takes another; the expensive ones all start
/// early). `build` assembles each world on the worker thread — once
/// per cold cell, once per shared prefix —
/// and `hook` sees every finished scenario with its cell index and may
/// extend the record. The outcomes come back in cell-list order — they
/// do not depend on `threads`.
pub(crate) fn sweep<B, H, T>(
    spec: &MatrixSpec,
    cells: &[MatrixCell],
    mut units: Vec<Vec<usize>>,
    threads: usize,
    build: &B,
    hook: &H,
) -> Swept<T>
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
    let dispatched = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(units.len()) {
            scope.spawn(|| loop {
                let pos = next.fetch_add(1, Ordering::SeqCst);
                let Some(unit) = units.get(pos) else { break };
                let (out, events) = run_unit(spec, cells, unit, build, hook);
                dispatched.fetch_add(events, Ordering::Relaxed);
                done.lock().expect("a worker panicked").extend(out);
            });
        }
    });
    let wall = started.elapsed();
    let mut done = done.into_inner().expect("a worker panicked");
    done.sort_by_key(|d| d.index);
    Swept {
        done,
        dispatched: dispatched.into_inner(),
        wall,
    }
}

/// Serve one unit: its outcomes, and the kernel events it actually
/// simulated.
fn run_unit<B, H, T>(
    spec: &MatrixSpec,
    cells: &[MatrixCell],
    unit: &[usize],
    build: &B,
    hook: &H,
) -> (Vec<Done<T>>, u64)
where
    B: Fn(&MatrixCell) -> Result<ScenarioBuilder, WorkloadError>,
    H: Fn(usize, &mut CellRecord, &Scenario) -> T,
    T: Default,
{
    // Members are served in the order their faults first take effect,
    // ties by index, so the capture only ever moves forward. Members
    // with no fault must come first (`None` sorts before any instant):
    // `finish_cell` runs a fault-free cell only to the end of its
    // settle window, so it must fork before any advance.
    let mut order = unit.to_vec();
    order.sort_by_key(|&i| (first_effect(&cells[i]), i));
    // A singleton unit has no prefix worth sharing. A capture that
    // panics sends every member to a cold start, where each records
    // its own outcome.
    let mut prefix = None;
    if order.len() >= 2 {
        let first = &cells[order[0]];
        prefix = caught(first, || Prefix::capture(spec, first, build))
            .ok()
            .flatten();
    }
    let mut done = Vec::with_capacity(order.len());
    // `shared` is what the latest capture's world has dispatched: the
    // unit's common work, counted once. A prefix abandoned after its
    // last capture (it never converged or quiesced, or it panicked)
    // goes uncounted. `own` is what the members dispatched past their
    // fork points.
    let (mut shared, mut own) = (0, 0);
    for (served, &index) in order.iter().enumerate() {
        let cell = &cells[index];
        let last = served + 1 == order.len();
        if let Some(limit) = first_effect(cell).filter(|_| !last) {
            prefix = prefix
                .take()
                .and_then(|p| caught(cell, || p.advance(limit)).ok().flatten());
        }
        let fork_point = prefix.as_ref().map_or(0, Prefix::events);
        shared = shared.max(fork_point);
        let t0 = Instant::now();
        let outcome = caught(cell, || {
            // The last member continues in the captured world itself.
            let resumed = if last {
                prefix.take().and_then(|p| p.resume_last(spec, cell))
            } else {
                prefix.as_ref().and_then(|p| p.resume(spec, cell))
            };
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
        let (rec, events, post, forked) = outcome.unwrap_or_else(|_| {
            let metrics = BTreeMap::from([("panic".to_string(), 1)]);
            let rec = CellRecord {
                key: cell.key(),
                metrics,
            };
            (rec, 0, T::default(), false)
        });
        own += if forked { events - fork_point } else { events };
        let stat = CellStat {
            key: rec.key.clone(),
            wall: t0.elapsed(),
            events,
        };
        done.push(Done {
            rec,
            stat,
            post,
            forked,
            index,
        });
    }
    (done, shared + own)
}

/// When `cell`'s faults first disturb the world; `None` if it has none.
fn first_effect(cell: &MatrixCell) -> Option<Duration> {
    cell.schedule.faults.iter().map(Fault::first_effect).min()
}

/// Run `f`, one cell's (or one capture's, or one replay's) work, turning
/// a panic into `Err` with its message so the rest of the sweep goes on.
/// The message also goes to stderr, and a sweep keeps it nowhere else:
/// its file:line moves with every edit, so it is not byte-stable and
/// never enters a report.
pub(crate) fn caught<R>(cell: &MatrixCell, f: impl FnOnce() -> R) -> Result<R, String> {
    let payload = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => return Ok(r),
        Err(payload) => payload,
    };
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(no message)");
    eprintln!("cell {} panicked: {msg}", cell.key());
    Err(msg.to_string())
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

/// Quiesce probes step the world this far at a time.
const PROBE_SLICE: Duration = Duration::from_millis(100);
/// An advance runs the capture to this long before the next member's
/// first fault, then probes for a quiesce point in the remaining gap.
const ADVANCE_LEAD: Duration = Duration::from_secs(1);

/// A converged, quiesced, fault-free world that every cell differing
/// from it only in fault schedule continues from.
///
/// The capture is a ladder: taken at convergence, then moved forward
/// ([`Prefix::advance`]) to just before each next member's first
/// fault, so a member forks from the latest fault-free instant it
/// shares with the others instead of re-simulating it. A worker holds
/// at most two worlds: the capture and the member running from it.
pub(crate) struct Prefix {
    snap: Snapshot,
    configured_at: Time,
    /// The instant a cold run's settle window starts from; forks must
    /// measure from here, not from any later capture instant.
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
        let (sc, configured_at, config_now) = converge(spec, &bare, build)?;
        let configured_at = configured_at?;
        // Probing stays well inside the settle window every member
        // runs through anyway, which keeps it invisible to the
        // determinism contract.
        let snap = quiesce(sc, |next| next <= config_now + spec.settle)?;
        Some(Prefix {
            snap,
            configured_at,
            config_now,
        })
    }

    /// Move the capture forward to a quiesce point just before
    /// `first_fault`, the next member's: run the captured world to
    /// [`ADVANCE_LEAD`] before it, then probe in [`PROBE_SLICE`]s
    /// strictly before it. Every member still to be served faults no
    /// earlier, and nothing has faulted in this world, so each of them
    /// forks from the new capture exactly as from the old one. A gap of
    /// at most twice the lead is not worth the probe and leaves the
    /// capture where it is. The old capture is consumed: its world runs
    /// on and is captured again, so no member may still need it. `None`
    /// if no quiesce point comes before `first_fault`: the old capture
    /// is gone by then, so the remaining members go cold.
    pub(crate) fn advance(self, first_fault: Duration) -> Option<Prefix> {
        let limit = Time::ZERO + first_fault;
        if limit <= self.snap.taken_at() + 2 * ADVANCE_LEAD {
            return Some(self);
        }
        let mut sc = self.snap.scenario;
        sc.run_until(Time::ZERO + (first_fault - ADVANCE_LEAD));
        Some(Prefix {
            snap: quiesce(sc, |next| next < limit)?,
            ..self
        })
    }

    /// Kernel events the captured world has dispatched — where a fork
    /// of it starts counting.
    pub(crate) fn events(&self) -> u64 {
        self.snap.scenario.sim.events_dispatched()
    }

    /// Continue `cell` from a fork of the capture: inject its faults,
    /// run to the horizon, harvest. The capture itself is untouched.
    /// `None` — run it cold instead — when `inject_faults` refuses the
    /// schedule: a fault fires at or before the capture (a cold run
    /// would already have dispatched it), or does not fit the topology
    /// (the cold path then records the `build_error`).
    pub(crate) fn resume(&self, spec: &MatrixSpec, cell: &MatrixCell) -> Option<Finished> {
        let sc = Scenario::fork(&self.snap);
        resume_in(spec, cell, sc, self.configured_at, self.config_now)
    }

    /// [`Prefix::resume`] for the capture's last member, which
    /// continues in the captured world itself instead of a copy.
    pub(crate) fn resume_last(self, spec: &MatrixSpec, cell: &MatrixCell) -> Option<Finished> {
        let sc = self.snap.scenario;
        resume_in(spec, cell, sc, self.configured_at, self.config_now)
    }
}

fn resume_in(
    spec: &MatrixSpec,
    cell: &MatrixCell,
    mut sc: Scenario,
    configured_at: Time,
    config_now: Time,
) -> Option<Finished> {
    sc.inject_faults(&cell.schedule.faults).ok()?;
    Some(finish_cell(spec, cell, sc, Some(configured_at), config_now))
}

/// Snapshot `sc` at its first quiesce point, stepping [`PROBE_SLICE`]
/// at a time while the controller still holds queued channel output
/// (a tail batch waiting out its tick), for as long as `in_window`
/// admits the end of the next slice. `sc` itself is dropped; `None`
/// if it never quiesced.
fn quiesce(mut sc: Scenario, in_window: impl Fn(Time) -> bool) -> Option<Snapshot> {
    loop {
        let next = sc.sim.now() + PROBE_SLICE;
        match sc.snapshot() {
            Ok(snap) => return Some(snap),
            Err(SnapshotError::UndrainedChannels { .. }) if in_window(next) => sc.run_until(next),
            Err(_) => return None,
        }
    }
}
