//! The diffable sweep report: one record per matrix cell, a
//! min/median/max roll-up per metric, and byte-stable JSON in both
//! directions (emit for artifacts, parse for CI baseline gating).
//!
//! Stability contract (what "diffable" means here):
//! * `schema_version` bumps on any shape change;
//! * cells appear sorted by key, never by completion order;
//! * every number is an integer (times are nanoseconds), so no float
//!   formatting can wobble;
//! * serialization is [`crate::json::Json::render`], which sorts
//!   object keys — the same report is the same bytes, whatever thread
//!   count produced it.

use crate::json::Json;
use std::collections::BTreeMap;

/// Version of the report shape; bump when fields change meaning.
/// v2: controller-transport metrics (`of_msgs_sent`, `of_bytes_sent`,
/// `of_pushes`, `fib_batches`) joined every cell, and grids may carry
/// `provision_width`/`fib_batch` knob axes.
/// v3: backpressure metrics (`of_deferred`, `of_dropped`,
/// `of_queue_hwm`) joined every cell; grids may carry
/// `channel_capacity` knob axes, `stall*` fault schedules
/// and fan-in workload knobs (`fanin_*` metrics).
/// v4: traffic-engine knobs joined the grids (`traffic_*` metrics:
/// offered/delivered bytes, flow counts, frame loss, FCT and latency
/// percentiles), and a cell whose workload constructor rejects its
/// axes reports `build_error = 1` instead of panicking the sweep.
pub const SCHEMA_VERSION: i64 = 4;

/// One matrix cell's harvest: a key identifying the grid point and a
/// flat name → integer metric map (times in nanoseconds).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellRecord {
    pub key: String,
    pub metrics: BTreeMap<String, i64>,
}

/// Distribution of one metric across all cells that reported it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricSummary {
    pub count: i64,
    pub min: i64,
    /// Lower median (element `(count-1)/2` of the sorted values) — an
    /// actual observed value, so it stays an integer.
    pub median: i64,
    pub max: i64,
}

/// The aggregated sweep result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatrixReport {
    pub schema_version: i64,
    /// Grid axes, by name (`seeds`, `topologies`, ...), as the cell-key
    /// fragments they contribute.
    pub grid: BTreeMap<String, Vec<String>>,
    /// Sorted by key; keys are unique.
    pub cells: Vec<CellRecord>,
    /// Per-metric roll-up across cells.
    pub summary: BTreeMap<String, MetricSummary>,
}

impl MatrixReport {
    /// Assemble from raw cell records: sorts by key, rejects duplicate
    /// keys, computes the summary.
    pub fn new(grid: BTreeMap<String, Vec<String>>, mut cells: Vec<CellRecord>) -> MatrixReport {
        cells.sort_by(|a, b| a.key.cmp(&b.key));
        for pair in cells.windows(2) {
            assert_ne!(pair[0].key, pair[1].key, "duplicate cell key in matrix");
        }
        let mut by_metric: BTreeMap<String, Vec<i64>> = BTreeMap::new();
        for c in &cells {
            for (name, value) in &c.metrics {
                by_metric.entry(name.clone()).or_default().push(*value);
            }
        }
        let summary = by_metric
            .into_iter()
            .map(|(name, mut vals)| {
                vals.sort_unstable();
                let s = MetricSummary {
                    count: vals.len() as i64,
                    min: vals[0],
                    median: vals[(vals.len() - 1) / 2],
                    max: vals[vals.len() - 1],
                };
                (name, s)
            })
            .collect();
        MatrixReport {
            schema_version: SCHEMA_VERSION,
            grid,
            cells,
            summary,
        }
    }

    /// Serialize to the canonical byte-stable JSON document.
    pub fn to_json(&self) -> String {
        let grid = Json::Obj(
            self.grid
                .iter()
                .map(|(k, vs)| {
                    (
                        k.clone(),
                        Json::Arr(vs.iter().map(|v| Json::Str(v.clone())).collect()),
                    )
                })
                .collect(),
        );
        let cells = Json::Arr(
            self.cells
                .iter()
                .map(|c| {
                    Json::obj([
                        ("key".to_string(), Json::Str(c.key.clone())),
                        (
                            "metrics".to_string(),
                            Json::Obj(
                                c.metrics
                                    .iter()
                                    .map(|(k, v)| (k.clone(), Json::Int(*v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let summary = Json::Obj(
            self.summary
                .iter()
                .map(|(k, s)| {
                    (
                        k.clone(),
                        Json::obj([
                            ("count".to_string(), Json::Int(s.count)),
                            ("min".to_string(), Json::Int(s.min)),
                            ("median".to_string(), Json::Int(s.median)),
                            ("max".to_string(), Json::Int(s.max)),
                        ]),
                    )
                })
                .collect(),
        );
        Json::obj([
            ("schema_version".to_string(), Json::Int(self.schema_version)),
            ("grid".to_string(), grid),
            ("cells".to_string(), cells),
            ("summary".to_string(), summary),
        ])
        .render()
    }

    /// Parse a document produced by [`MatrixReport::to_json`] (for the
    /// CI baseline gate). The summary is recomputed from the cells, so
    /// a hand-edited baseline cannot disagree with itself.
    pub fn parse(text: &str) -> Result<MatrixReport, String> {
        let doc = Json::parse(text)?;
        let version = doc
            .get("schema_version")
            .and_then(Json::as_i64)
            .ok_or("missing schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {version} (this build reads {SCHEMA_VERSION}); \
                 regenerate the baseline"
            ));
        }
        let grid = doc
            .get("grid")
            .and_then(Json::as_obj)
            .ok_or("missing grid")?
            .iter()
            .map(|(k, v)| {
                let vals = v
                    .as_arr()
                    .ok_or("grid axis must be an array")?
                    .iter()
                    .map(|s| {
                        s.as_str()
                            .map(String::from)
                            .ok_or("axis value must be a string")
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok((k.clone(), vals))
            })
            .collect::<Result<BTreeMap<_, _>, &str>>()?;
        let cells = doc
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("missing cells")?
            .iter()
            .map(|c| {
                let key = c
                    .get("key")
                    .and_then(Json::as_str)
                    .ok_or("cell missing key")?
                    .to_string();
                let metrics = c
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .ok_or("cell missing metrics")?
                    .iter()
                    .map(|(k, v)| {
                        v.as_i64()
                            .map(|n| (k.clone(), n))
                            .ok_or("metric must be an integer")
                    })
                    .collect::<Result<BTreeMap<_, _>, &str>>()?;
                Ok(CellRecord { key, metrics })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(MatrixReport::new(grid, cells))
    }

    /// Lower-median of `metric` per topology, in the cells' sorted
    /// order. The topology is read back out of the cell key
    /// (`topo=<name>/...`), so this works on parsed baselines too; a
    /// cell without the metric (e.g. a `build_error` cell) simply does
    /// not contribute. Computed on demand — never serialized — so the
    /// report schema and checked-in baselines are unaffected.
    pub fn per_topology_medians(&self, metric: &str) -> Vec<(String, MetricSummary)> {
        let mut by_topo: Vec<(String, Vec<i64>)> = Vec::new();
        for cell in &self.cells {
            let Some(topo) = cell
                .key
                .strip_prefix("topo=")
                .and_then(|rest| rest.split('/').next())
            else {
                continue;
            };
            let Some(&value) = cell.metrics.get(metric) else {
                continue;
            };
            match by_topo.last_mut() {
                Some((name, vals)) if name == topo => vals.push(value),
                _ => by_topo.push((topo.to_string(), vec![value])),
            }
        }
        by_topo
            .into_iter()
            .map(|(name, mut vals)| {
                vals.sort_unstable();
                let s = MetricSummary {
                    count: vals.len() as i64,
                    min: vals[0],
                    median: vals[(vals.len() - 1) / 2],
                    max: vals[vals.len() - 1],
                };
                (name, s)
            })
            .collect()
    }

    /// Compare against a baseline, metric by metric.
    ///
    /// Returns human-readable deviations: cells or metrics present on
    /// one side only, and every metric whose value differs. Runs are
    /// deterministic, so any difference — an improvement too — means
    /// the checked-in baseline no longer describes the code, and should
    /// be refreshed deliberately.
    pub fn diff_against(&self, baseline: &MatrixReport) -> Vec<String> {
        let mut out = Vec::new();
        let ours: BTreeMap<&str, &CellRecord> =
            self.cells.iter().map(|c| (c.key.as_str(), c)).collect();
        let theirs: BTreeMap<&str, &CellRecord> =
            baseline.cells.iter().map(|c| (c.key.as_str(), c)).collect();
        for key in theirs.keys() {
            if !ours.contains_key(key) {
                out.push(format!("cell {key}: in baseline but not in this run"));
            }
        }
        for (key, cell) in &ours {
            let Some(base) = theirs.get(key) else {
                out.push(format!("cell {key}: new (not in baseline)"));
                continue;
            };
            for (name, want) in &base.metrics {
                if !cell.metrics.contains_key(name) {
                    out.push(format!(
                        "cell {key}: metric {name} disappeared (baseline {want})"
                    ));
                }
            }
            for (name, &value) in &cell.metrics {
                let Some(&want) = base.metrics.get(name) else {
                    out.push(format!(
                        "cell {key}: metric {name} = {value} is new (not in baseline)"
                    ));
                    continue;
                };
                if value != want {
                    out.push(format!(
                        "cell {key}: {name} = {value}, baseline {want} ({:+.1}%)",
                        100.0 * (value - want) as f64 / want.abs().max(1) as f64,
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(key: &str, metrics: &[(&str, i64)]) -> CellRecord {
        CellRecord {
            key: key.to_string(),
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    fn grid() -> BTreeMap<String, Vec<String>> {
        [("seeds".to_string(), vec!["1".to_string(), "2".to_string()])]
            .into_iter()
            .collect()
    }

    #[test]
    fn cells_sort_by_key_not_insertion_order() {
        let fwd = MatrixReport::new(grid(), vec![rec("a", &[("m", 1)]), rec("b", &[("m", 2)])]);
        let rev = MatrixReport::new(grid(), vec![rec("b", &[("m", 2)]), rec("a", &[("m", 1)])]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd.to_json(), rev.to_json());
        assert_eq!(fwd.cells[0].key, "a");
    }

    #[test]
    fn summary_min_median_max() {
        let r = MatrixReport::new(
            grid(),
            vec![
                rec("a", &[("t", 30)]),
                rec("b", &[("t", 10)]),
                rec("c", &[("t", 20)]),
                rec("d", &[("t", 40)]),
            ],
        );
        let s = r.summary["t"];
        assert_eq!((s.count, s.min, s.median, s.max), (4, 10, 20, 40));
    }

    #[test]
    fn json_round_trip() {
        let r = MatrixReport::new(
            grid(),
            vec![rec("a", &[("t", 30), ("n", 2)]), rec("b", &[("t", 10)])],
        );
        let parsed = MatrixReport::parse(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_json(), r.to_json());
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let text = MatrixReport::new(grid(), vec![]).to_json().replace(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": 999",
        );
        let err = MatrixReport::parse(&text).unwrap_err();
        assert!(err.contains("regenerate"), "{err}");
    }

    #[test]
    fn diff_flags_value_and_shape_changes() {
        let base = MatrixReport::new(
            grid(),
            vec![
                rec("a", &[("t", 100), ("gone", 1)]),
                rec("dropped", &[("t", 5)]),
            ],
        );
        let cur = MatrixReport::new(
            grid(),
            vec![
                rec("a", &[("t", 130), ("fresh", 1)]),
                rec("added", &[("t", 5)]),
            ],
        );
        let diffs = cur.diff_against(&base);
        let text = diffs.join("\n");
        assert!(text.contains("t = 130"), "{text}");
        assert!(text.contains("dropped"), "{text}");
        assert!(text.contains("added"), "{text}");
        assert!(text.contains("gone"), "{text}");
        assert!(text.contains("fresh"), "{text}");
        // Off by one is reported; equal is not.
        let near = MatrixReport::new(
            grid(),
            vec![
                rec("a", &[("t", 101), ("gone", 1)]),
                rec("dropped", &[("t", 5)]),
            ],
        );
        assert_eq!(
            near.diff_against(&base),
            ["cell a: t = 101, baseline 100 (+1.0%)"]
        );
        assert!(base.diff_against(&base).is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate cell key")]
    fn duplicate_keys_panic() {
        MatrixReport::new(grid(), vec![rec("a", &[]), rec("a", &[])]);
    }

    #[test]
    fn per_topology_medians_group_contiguous_cells() {
        let r = MatrixReport::new(
            grid(),
            vec![
                rec("topo=abilene/fault=none/knob=f/seed=1", &[("t", 30)]),
                rec("topo=abilene/fault=none/knob=f/seed=2", &[("t", 10)]),
                rec("topo=ring-4/fault=none/knob=f/seed=1", &[("t", 7)]),
                // A build_error cell contributes nothing to `t`.
                rec(
                    "topo=zzz-bad/fault=none/knob=f/seed=1",
                    &[("build_error", 1)],
                ),
            ],
        );
        let med = r.per_topology_medians("t");
        assert_eq!(med.len(), 2);
        assert_eq!(med[0].0, "abilene");
        assert_eq!(
            (med[0].1.count, med[0].1.min, med[0].1.median, med[0].1.max),
            (2, 10, 10, 30)
        );
        assert_eq!(med[1].0, "ring-4");
        assert_eq!(med[1].1.median, 7);
    }
}
