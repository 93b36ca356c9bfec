//! The chaos campaign runner: N seeded schedules × M topologies,
//! fanned over worker threads, every cell invariant-checked, every
//! violation shrunk to a minimal repro.
//!
//! A campaign is an experiment like any sweep — same byte-stable
//! [`MatrixReport`], same thread-count independence — with two
//! additions: per-cell `chaos_*`/`inv_*` metrics from the invariant
//! checker, and a [`ReproCase`] artifact per violating cell whose
//! minimized schedule replays the violation deterministically.

use super::invariants::{check_invariants, InvariantContext, InvariantViolation};
use super::shrink::shrink_schedule;
use super::{fault_from_json, fault_to_json, ChaosSpec};
use crate::json::Json;
use crate::scenario::{
    caught, run_cold, sweep, CellRecord, Fault, FaultSchedule, MatrixCell, MatrixKnob,
    MatrixReport, MatrixSpec, Prefix, Scenario, ScenarioMatrix,
};
use rf_topo::Topology;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Duration;

/// A campaign definition: which topologies, how many seeded schedules
/// on each, what the schedules may contain, and the per-cell run
/// policy.
#[derive(Clone, Debug)]
pub struct ChaosCampaign {
    /// Topology names (any [`rf_topo::TopoSpec`] spelling, including
    /// the corpus WANs).
    pub topologies: Vec<String>,
    /// Seeded schedules drawn per topology.
    pub schedules_per_topology: usize,
    /// Campaign master seed; every cell's seed is a deterministic mix
    /// of it with the topology and schedule indices.
    pub seed: u64,
    /// Schedule-shape template. Its `seed` is overridden per cell and
    /// its `protect` list is extended with each topology's standard
    /// workload endpoints (the farthest pair), so the probe traffic
    /// always has two live endpoints to speak between.
    pub template: ChaosSpec,
    /// Scenario parameters for every cell.
    pub knob: MatrixKnob,
    pub configure_deadline: Duration,
    /// Slack after the last fault heals; must comfortably cover an
    /// OSPF dead interval plus reconvergence.
    pub post_fault_window: Duration,
    pub settle: Duration,
    /// Minimize each violating schedule with the shrinker.
    pub shrink: bool,
}

/// Campaign-wide accounting.
#[derive(Clone, Debug, Default)]
pub struct CampaignStats {
    /// Cells that ran (schedules × topologies, minus nothing).
    pub schedules: usize,
    /// Cells whose builder rejected the axes.
    pub build_errors: usize,
    /// Cells that panicked (recorded as `panic = 1`).
    pub panics: usize,
    /// Cells with at least one invariant violation.
    pub cells_with_violations: usize,
    /// Total violations across all cells.
    pub violations: usize,
    /// One entry per shrunk cell.
    pub shrinks: Vec<ShrinkRecord>,
}

/// How one violating schedule minimized.
#[derive(Clone, Debug)]
pub struct ShrinkRecord {
    pub key: String,
    /// Faults before/after minimization.
    pub from: usize,
    pub to: usize,
    /// Cell re-runs the minimization cost.
    pub runs: usize,
}

/// Everything a campaign produces.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// The byte-stable per-cell report (standard metrics plus
    /// `chaos_faults`, `chaos_violations` and `inv_<code>` counts).
    pub report: MatrixReport,
    pub stats: CampaignStats,
    /// One minimized repro per violating cell, in cell-key order.
    pub repros: Vec<ReproCase>,
}

/// A self-contained, replayable account of one violation: topology +
/// seed + (minimized) schedule. [`ChaosCampaign::replay`] re-runs it
/// and returns the violations it provokes — deterministically, byte
/// for byte, which is what makes the artifact a *repro* rather than a
/// war story.
#[derive(Clone, Debug)]
pub struct ReproCase {
    /// The originating cell key.
    pub key: String,
    pub topology: String,
    /// Knob name (replay uses the campaign's knob and refuses a repro
    /// recorded under another name).
    pub knob: String,
    pub seed: u64,
    /// Original generated schedule name (`chaos-<i>-s<seed>`).
    pub schedule: String,
    /// The minimized fault schedule.
    pub faults: Vec<Fault>,
    /// Violation codes + rendered accounts from the minimized replay.
    pub violations: Vec<(String, String)>,
}

impl ReproCase {
    /// Byte-stable JSON (integer-only, sorted keys).
    pub fn to_json(&self) -> String {
        Json::obj([
            ("key".to_string(), Json::Str(self.key.clone())),
            ("topology".to_string(), Json::Str(self.topology.clone())),
            ("knob".to_string(), Json::Str(self.knob.clone())),
            ("seed".to_string(), Json::Int(self.seed as i64)),
            ("schedule".to_string(), Json::Str(self.schedule.clone())),
            (
                "faults".to_string(),
                Json::Arr(self.faults.iter().map(fault_to_json).collect()),
            ),
            (
                "violations".to_string(),
                Json::Arr(
                    self.violations
                        .iter()
                        .map(|(code, detail)| {
                            Json::obj([
                                ("code".to_string(), Json::Str(code.clone())),
                                ("detail".to_string(), Json::Str(detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// Parse a [`ReproCase::to_json`] document back.
    pub fn parse(text: &str) -> Result<ReproCase, String> {
        let j = Json::parse(text)?;
        let s = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("repro missing string field {k:?}"))
        };
        let faults = j
            .get("faults")
            .and_then(Json::as_arr)
            .ok_or("repro missing faults array")?
            .iter()
            .map(fault_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let violations = j
            .get("violations")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|v| {
                Ok((
                    v.get("code")
                        .and_then(Json::as_str)
                        .ok_or("violation missing code")?
                        .to_string(),
                    v.get("detail")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ReproCase {
            key: s("key")?,
            topology: s("topology")?,
            knob: s("knob")?,
            seed: j
                .get("seed")
                .and_then(Json::as_i64)
                .ok_or("repro missing seed")? as u64,
            schedule: s("schedule")?,
            faults,
            violations,
        })
    }
}

/// Deterministic per-cell seed: a splitmix-style mix of the campaign
/// seed with the topology and schedule indices.
fn mix_seed(base: u64, ti: u64, i: u64) -> u64 {
    let mut z = base
        ^ ti.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ i.wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(17);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ChaosCampaign {
    /// CI-sized campaign: the two smoke rings, a handful of schedules
    /// each, full fault-class mix.
    pub fn smoke(seed: u64) -> ChaosCampaign {
        ChaosCampaign {
            topologies: vec!["ring-4".into(), "ring-5".into()],
            schedules_per_topology: 4,
            seed,
            template: ChaosSpec::smoke(0),
            knob: MatrixKnob::fast("chaos").with_provision_width(4),
            configure_deadline: Duration::from_secs(120),
            post_fault_window: Duration::from_secs(45),
            settle: Duration::from_secs(10),
            shrink: true,
        }
    }

    /// The acceptance-scale campaign: 7 topologies (rings, a grid, the
    /// pan-European reference network and two corpus WANs) × 30 seeded
    /// schedules = 210 schedules.
    pub fn full(seed: u64) -> ChaosCampaign {
        ChaosCampaign {
            topologies: vec![
                "ring-4".into(),
                "ring-5".into(),
                "ring-8".into(),
                "grid-4x4".into(),
                "pan-european".into(),
                "geant".into(),
                "abilene".into(),
            ],
            schedules_per_topology: 30,
            template: ChaosSpec::full(0),
            ..ChaosCampaign::smoke(seed)
        }
    }

    /// The internal [`MatrixSpec`] that carries the run-policy windows
    /// into the shared cell-finishing code (its grid axes are unused —
    /// the campaign builds its own cells).
    fn matrix_spec(&self) -> MatrixSpec {
        MatrixSpec {
            seeds: Vec::new(),
            topologies: Vec::new(),
            schedules: Vec::new(),
            knobs: Vec::new(),
            configure_deadline: self.configure_deadline,
            post_fault_window: self.post_fault_window,
            settle: self.settle,
        }
    }

    /// Build every cell of the campaign: parse each topology, draw its
    /// schedules. A topology whose name does not parse still yields
    /// cells (with empty schedules) so it surfaces as `build_error`
    /// records rather than vanishing.
    fn cells(&self) -> Vec<(MatrixCell, Option<Topology>)> {
        let mut out = Vec::with_capacity(self.topologies.len() * self.schedules_per_topology);
        for (ti, name) in self.topologies.iter().enumerate() {
            let topo = name.parse::<rf_topo::TopoSpec>().ok().map(|s| s.build());
            for i in 0..self.schedules_per_topology {
                let seed = mix_seed(self.seed, ti as u64, i as u64);
                let schedule = match &topo {
                    Some(t) => {
                        let mut protect = self.template.protect.clone();
                        if let Some((a, b)) = t.farthest_pair() {
                            // The standard probe workload pings between
                            // the farthest pair; killing an endpoint
                            // would make "did traffic recover?"
                            // unanswerable.
                            protect.push(a);
                            protect.push(b);
                        }
                        let spec = ChaosSpec {
                            seed,
                            protect,
                            ..self.template.clone()
                        };
                        let mut s = spec.generate(t);
                        // The index keys the cell even in the
                        // astronomically-unlikely event of a seed
                        // collision within one topology.
                        s.name = format!("chaos-{i:03}-s{seed}");
                        s
                    }
                    None => FaultSchedule::new(format!("chaos-{i:03}-s{seed}"), Vec::new()),
                };
                out.push((
                    MatrixCell {
                        seed,
                        topology: name.clone(),
                        schedule,
                        knob: self.knob.clone(),
                    },
                    topo.clone(),
                ));
            }
        }
        out
    }

    fn check(&self, sc: &Scenario, topo: &Topology, faults: &[Fault]) -> Vec<InvariantViolation> {
        check_invariants(sc, &InvariantContext { topo, faults })
    }

    /// Re-run `cell` with `faults` as its schedule — from a fork of
    /// `base` when every fault lies past the capture, from a cold start
    /// otherwise — and return the violations the finished world shows.
    /// `base` is neither consumed nor advanced, so every candidate
    /// forks from the same convergence capture. `None` if the builder
    /// rejects the cell.
    fn run_candidate(
        &self,
        mspec: &MatrixSpec,
        cell: &MatrixCell,
        topo: &Topology,
        faults: &[Fault],
        base: Option<&Prefix>,
    ) -> Option<Vec<InvariantViolation>> {
        let cand = MatrixCell {
            schedule: FaultSchedule::new(cell.schedule.name.clone(), faults.to_vec()),
            ..cell.clone()
        };
        let fin = base
            .and_then(|b| b.resume(mspec, &cand))
            .unwrap_or_else(|| run_cold(mspec, &cand, &ScenarioMatrix::standard_builder));
        Some(self.check(&fin.scenario?, topo, faults))
    }

    /// Run the whole campaign over `threads` workers. The report (and
    /// every repro) is byte-identical whatever the thread count and
    /// fully determined by the campaign definition.
    pub fn run(&self, threads: usize) -> ChaosOutcome {
        let mspec = self.matrix_spec();
        let (cells, topos): (Vec<MatrixCell>, Vec<Option<Topology>>) =
            self.cells().into_iter().unzip();

        // Phase 1: the fan-out, every cell its own cold-start unit
        // (seeds differ per cell, so no two share a prefix). The hook
        // invariant-checks each finished world and folds the verdict
        // into its record.
        let verdict = |i: usize, rec: &mut CellRecord, sc: &Scenario| {
            let faults = &cells[i].schedule.faults;
            let violations = match &topos[i] {
                Some(t) => self.check(sc, t, faults),
                None => Vec::new(),
            };
            annotate(rec, faults, &violations);
            violations
        };
        let units = (0..cells.len()).map(|i| vec![i]).collect();
        let build = ScenarioMatrix::standard_builder;
        let done = sweep(&mspec, &cells, units, threads, &build, &verdict).done;

        let mut stats = CampaignStats {
            schedules: cells.len(),
            ..CampaignStats::default()
        };
        let mut records = Vec::with_capacity(cells.len());
        let mut violating: Vec<(usize, Vec<InvariantViolation>)> = Vec::new();
        for (i, done) in done.into_iter().enumerate() {
            let (rec, violations) = (done.rec, done.post);
            if rec.metrics.contains_key("build_error") {
                stats.build_errors += 1;
            }
            if rec.metrics.contains_key("panic") {
                stats.panics += 1;
            }
            if !violations.is_empty() {
                stats.cells_with_violations += 1;
                stats.violations += violations.len();
                violating.push((i, violations));
            }
            records.push(rec);
        }

        // Phase 2: shrink each violating schedule (serial — the
        // shrinker is itself a sequential search, and violating cells
        // should be rare).
        let mut repros = Vec::new();
        violating.sort_by(|a, b| cells[a.0].key().cmp(&cells[b.0].key()));
        for (i, violations) in violating {
            let cell = &cells[i];
            let Some(topo) = &topos[i] else { continue };
            let codes: Vec<&'static str> = violations.iter().map(|v| v.code()).collect();
            let (min_faults, runs) = if self.shrink && !cell.schedule.faults.is_empty() {
                let base = caught(cell, || Prefix::capture(&mspec, cell, &build))
                    .ok()
                    .flatten();
                let out = shrink_schedule(&cell.schedule.faults, |cand| {
                    reproduces(cell, || {
                        self.run_candidate(&mspec, cell, topo, cand, base.as_ref())
                            .is_some_and(|vs| vs.iter().any(|v| codes.contains(&v.code())))
                    })
                });
                (out.faults, out.runs)
            } else {
                (cell.schedule.faults.clone(), 0)
            };
            stats.shrinks.push(ShrinkRecord {
                key: cell.key(),
                from: cell.schedule.faults.len(),
                to: min_faults.len(),
                runs,
            });
            // The repro records the violations the *minimized* schedule
            // provokes (re-derived so the artifact is self-consistent).
            let final_violations = if min_faults.len() == cell.schedule.faults.len() {
                violations
            } else {
                self.run_candidate(&mspec, cell, topo, &min_faults, None)
                    .unwrap_or_default()
            };
            repros.push(ReproCase {
                key: cell.key(),
                topology: cell.topology.clone(),
                knob: self.knob.name.clone(),
                seed: cell.seed,
                schedule: cell.schedule.name.clone(),
                faults: min_faults,
                violations: final_violations
                    .iter()
                    .map(|v| (v.code().to_string(), v.to_string()))
                    .collect(),
            });
        }

        let grid = BTreeMap::from([
            ("knobs".to_string(), vec![self.knob.name.clone()]),
            ("seeds".to_string(), vec![self.seed.to_string()]),
            (
                "schedules".to_string(),
                (0..self.schedules_per_topology)
                    .map(|i| format!("chaos-{i:03}"))
                    .collect(),
            ),
            ("topologies".to_string(), self.topologies.clone()),
        ]);
        ChaosOutcome {
            report: MatrixReport::new(grid, records),
            stats,
            repros,
        }
    }

    /// Re-run a repro case under this campaign's knob and windows;
    /// returns the violations it provokes (the repro is confirmed when
    /// they match the artifact's recorded ones). `Err` says why the
    /// repro could not be run at all — recorded under another knob, an
    /// unparseable topology, a schedule the builder rejects or the
    /// world refuses (a fault at t = 0), a run that panics — which is
    /// not the same thing as running it and finding nothing.
    pub fn replay(&self, repro: &ReproCase) -> Result<Vec<InvariantViolation>, String> {
        if repro.knob != self.knob.name {
            return Err(format!(
                "repro was recorded under knob {:?}, this campaign runs {:?}",
                repro.knob, self.knob.name
            ));
        }
        let topo = repro
            .topology
            .parse::<rf_topo::TopoSpec>()
            .map_err(|e| e.to_string())?
            .build();
        let cell = MatrixCell {
            seed: repro.seed,
            topology: repro.topology.clone(),
            schedule: FaultSchedule::new(repro.schedule.clone(), repro.faults.clone()),
            knob: self.knob.clone(),
        };
        let rejected = RefCell::new(String::new());
        let build = |c: &MatrixCell| {
            ScenarioMatrix::standard_builder(c)
                .inspect_err(|e| *rejected.borrow_mut() = e.to_string())
        };
        let run = caught(&cell, || {
            let sc = run_cold(&self.matrix_spec(), &cell, &build).scenario?;
            Some(self.check(&sc, &topo, &repro.faults))
        })?;
        run.ok_or_else(|| rejected.into_inner())
    }
}

/// Whether a shrink candidate still reproduces, run inside the
/// executor's catch: a candidate that panics counts as not
/// reproducing, and its text goes to stderr only, so one panicking
/// subset cannot take the campaign down.
fn reproduces(cell: &MatrixCell, run: impl FnOnce() -> bool) -> bool {
    caught(cell, run).unwrap_or(false)
}

/// Fold the chaos accounting into a cell's metric map.
fn annotate(rec: &mut CellRecord, faults: &[Fault], violations: &[InvariantViolation]) {
    rec.metrics
        .insert("chaos_faults".to_string(), faults.len() as i64);
    rec.metrics
        .insert("chaos_violations".to_string(), violations.len() as i64);
    for v in violations {
        *rec.metrics.entry(format!("inv_{}", v.code())).or_insert(0) += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_mix_is_stable_and_spread() {
        let a = mix_seed(1, 0, 0);
        assert_eq!(a, mix_seed(1, 0, 0));
        assert_ne!(a, mix_seed(1, 0, 1));
        assert_ne!(a, mix_seed(1, 1, 0));
        assert_ne!(a, mix_seed(2, 0, 0));
    }

    #[test]
    fn campaign_cells_are_unique_and_deterministic() {
        let c = ChaosCampaign::smoke(9);
        let cells = c.cells();
        assert_eq!(cells.len(), 8);
        let keys: std::collections::BTreeSet<String> = cells.iter().map(|(c, _)| c.key()).collect();
        assert_eq!(keys.len(), cells.len(), "cell keys must be unique");
        let again = c.cells();
        for (x, y) in cells.iter().zip(&again) {
            assert_eq!(x.0.key(), y.0.key());
            assert_eq!(
                format!("{:?}", x.0.schedule.faults),
                format!("{:?}", y.0.schedule.faults)
            );
        }
    }

    #[test]
    fn a_panicking_candidate_does_not_reproduce_and_the_shrink_goes_on() {
        // "Fails" iff node 2's kill is present — except that the
        // subset {kill 2, kill 3}, ddmin's first candidate, panics.
        // Through the campaign's wrapper it counts as not reproducing,
        // and the search still ends at the culprit.
        let kill = |node: usize| Fault::KillSwitch {
            node,
            at: Duration::from_secs(30 + node as u64),
        };
        let faults: Vec<Fault> = (0..4).map(kill).collect();
        let cell = MatrixCell {
            seed: 1,
            topology: "ring-4".into(),
            schedule: FaultSchedule::new("culprit", faults.clone()),
            knob: MatrixKnob::fast("fast"),
        };
        let has = |cand: &[Fault], n: usize| {
            cand.iter()
                .any(|f| matches!(f, Fault::KillSwitch { node, .. } if *node == n))
        };
        let panicked = std::cell::Cell::new(0);
        let out = shrink_schedule(&faults, |cand| {
            reproduces(&cell, || {
                if cand.len() == 2 && has(cand, 2) && has(cand, 3) {
                    panicked.set(panicked.get() + 1);
                    panic!("candidate {{kill 2, kill 3}} panics");
                }
                has(cand, 2)
            })
        });
        assert!(panicked.get() > 0, "the panicking subset was tried");
        assert_eq!(format!("{:?}", out.faults), format!("{:?}", [kill(2)]));
    }

    #[test]
    fn repro_json_round_trips() {
        let repro = ReproCase {
            key: "topo=ring-4/fault=chaos-000-s5/knob=chaos/seed=5".into(),
            topology: "ring-4".into(),
            knob: "chaos".into(),
            seed: 5,
            schedule: "chaos-000-s5".into(),
            faults: vec![
                Fault::KillSwitch {
                    node: 1,
                    at: Duration::from_secs(30),
                },
                Fault::ReviveSwitch {
                    node: 1,
                    at: Duration::from_secs(40),
                },
            ],
            violations: vec![("reconverge".into(), "switch 1 never reconfigured".into())],
        };
        let text = repro.to_json();
        let back = ReproCase::parse(&text).unwrap();
        assert_eq!(back.key, repro.key);
        assert_eq!(back.seed, repro.seed);
        assert_eq!(format!("{:?}", back.faults), format!("{:?}", repro.faults));
        assert_eq!(back.violations, repro.violations);
        assert_eq!(back.to_json(), text, "render is byte-stable");
    }
}
