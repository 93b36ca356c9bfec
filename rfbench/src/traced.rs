//! The traced run of one workload: every cell driven by hand through
//! the public scenario API at `TraceLevel::Info`, so the kernel and
//! agent counters count, with a span around each call into a layer
//! boundary. Separate from the timed passes, which run with tracing
//! off; the difference between the two is the tracing overhead.

use crate::adapter::{self, Harvest, MatrixCell, MatrixSpec, ScenarioMatrix, TraceLevel};
use crate::probes::{self, Values};
use crate::spans::{self, Recorder, Span};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::timed::Checks;
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// One hand-driven cell: its harvest, and whether it ran as a fork.
struct TracedCell {
    harvest: Harvest,
    configured: bool,
    forked: bool,
}

/// Cold start → all green → steady state to the horizon → harvest.
fn cold_cell(rec: &mut Recorder, spec: &MatrixSpec, cell: &MatrixCell) -> Option<TracedCell> {
    let key = cell.key();
    rec.enter("cell", &key);
    let out = (|| {
        rec.span("topo.build", &key, || adapter::build_topology(cell))
            .ok()?;
        let mut sc = rec
            .span("scenario.build", &key, || {
                adapter::start(cell, TraceLevel::Info)
            })
            .ok()?;
        let configured = rec
            .span("scenario.converge", &key, || {
                adapter::converge(&mut sc, spec.configure_deadline)
            })
            .is_some();
        let until = adapter::horizon(spec, cell, adapter::now(&sc));
        rec.span("scenario.steady", &key, || adapter::run_to(&mut sc, until));
        let harvest = rec.span("scenario.finish", &key, || adapter::harvest(&mut sc));
        Some(TracedCell {
            harvest,
            configured,
            forked: false,
        })
    })();
    rec.exit();
    out
}

/// One (topology × knob × seed) group the way the fork executor runs
/// it: the fault-free prefix once to a quiesced snapshot, then a fork
/// per member with its schedule injected. Anything that cannot fork
/// (prefix never green or never quiet, a fault due before the
/// snapshot) starts cold instead.
fn forked_group(
    rec: &mut Recorder,
    spec: &MatrixSpec,
    members: &[MatrixCell],
) -> Vec<(String, Option<TracedCell>)> {
    let prefix_cell = MatrixCell {
        schedule: adapter::FaultSchedule::none(),
        ..members[0].clone()
    };
    let prefix_key = format!("prefix:{}", prefix_cell.key());
    rec.enter("group", &prefix_key);
    let prefix = (|| {
        rec.span("topo.build", &prefix_key, || {
            adapter::build_topology(&prefix_cell)
        })
        .ok()?;
        let mut sc = rec
            .span("scenario.build", &prefix_key, || {
                adapter::start(&prefix_cell, TraceLevel::Info)
            })
            .ok()?;
        rec.span("scenario.converge", &prefix_key, || {
            adapter::converge(&mut sc, spec.configure_deadline)
        })?;
        let config_now = adapter::now(&sc);
        let snap = rec.span("scenario.snapshot", &prefix_key, || {
            adapter::quiesced_snapshot(&mut sc, config_now + spec.settle)
        })?;
        Some((snap, config_now))
    })();
    let mut out = Vec::new();
    for cell in members {
        let forkable = prefix.as_ref().is_some_and(|(snap, _)| {
            adapter::starts_after(&cell.schedule, adapter::taken_at(snap))
        });
        let key = cell.key();
        let Some((snap, config_now)) = prefix.as_ref().filter(|_| forkable) else {
            out.push((key, cold_cell(rec, spec, cell)));
            continue;
        };
        rec.enter("cell", &key);
        let mut sc = rec.span("scenario.fork", &key, || adapter::fork(snap));
        let injected = rec.span("scenario.inject", &key, || {
            adapter::inject(&mut sc, &cell.schedule)
        });
        let until = adapter::horizon(spec, cell, *config_now);
        rec.span("scenario.steady", &key, || adapter::run_to(&mut sc, until));
        let harvest = rec.span("scenario.finish", &key, || adapter::harvest(&mut sc));
        rec.exit();
        let traced = injected.then_some(TracedCell {
            harvest,
            configured: true,
            forked: true,
        });
        out.push((key, traced));
    }
    rec.exit();
    out
}

/// Drive every cell of `spec` once. Returns the spans, the wall
/// seconds of the whole pass, and the cells by key (`None` = the cell
/// could not be built or driven).
fn traced_pass(
    workload: &Workload,
    spec: &MatrixSpec,
) -> (Vec<Span>, f64, BTreeMap<String, Option<TracedCell>>) {
    let cells = spec.cells();
    let mut rec = Recorder::new();
    let mut out = BTreeMap::new();
    let started = Instant::now();
    rec.enter("workload", "");
    if workload.forked {
        let mut groups: BTreeMap<String, Vec<MatrixCell>> = BTreeMap::new();
        for c in cells {
            groups
                .entry(format!("{}|{}|{}", c.topology, c.knob.name, c.seed))
                .or_default()
                .push(c);
        }
        for members in groups.values() {
            out.extend(forked_group(&mut rec, spec, members));
        }
    } else {
        for cell in &cells {
            out.insert(cell.key(), cold_cell(&mut rec, spec, cell));
        }
    }
    rec.exit();
    let wall_s = started.elapsed().as_secs_f64();
    (rec.finish(), wall_s, out)
}

/// Sum the named tracer counter over all cells.
fn counter_sum(cells: &[TracedCell], name: &str) -> f64 {
    cells
        .iter()
        .map(|c| c.harvest.counters.get(name).copied().unwrap_or(0))
        .sum::<u64>() as f64
}

/// The count metrics: tracer counters and `ScenarioMetrics` summed
/// over cells (a fork inherits its prefix's counts, as it inherits its
/// events).
fn count_metrics(cells: &[TracedCell], out: &mut Values) {
    let sum = |f: fn(&Harvest) -> u64| cells.iter().map(|c| f(&c.harvest)).sum::<u64>() as f64;
    out.insert("sim.events", sum(|h| h.events));
    for (metric, counter) in [
        ("sim.link_tx_frames", "link.tx_frames"),
        ("sim.link_tx_bytes", "link.tx_bytes"),
        ("sim.conn_tx_bytes", "conn.tx_bytes"),
        ("rpc.sent", "rpc.sent"),
        ("vnet.configs_written", "rf.configs_written"),
        ("discovery.lldp_out", "topo.lldp_out"),
        ("discovery.lldp_in", "topo.lldp_in"),
        ("flowvisor.packet_in", "fv.packet_in"),
    ] {
        out.insert(metric, counter_sum(cells, counter));
    }
    let frames = counter_sum(cells, "link.tx_frames");
    out.insert(
        "switch.punt_ratio",
        counter_sum(cells, "of.packet_in") / frames.max(1.0),
    );
    out.insert("openflow.msgs_sent", sum(|h| h.metrics.of_msgs_sent));
    out.insert("openflow.bytes_sent", sum(|h| h.metrics.of_bytes_sent));
    out.insert("openflow.pushes", sum(|h| h.metrics.of_pushes));
    out.insert("switch.flows_installed", sum(|h| h.metrics.flows_installed));
    out.insert("switch.flows_removed", sum(|h| h.metrics.flows_removed));
    out.insert("apps.fib_batches", sum(|h| h.metrics.fib_batches));
    out.insert("apps.of_deferred", sum(|h| h.metrics.of_deferred));
    out.insert("apps.arp_replies", sum(|h| h.metrics.arp_replies));
    out.insert(
        "apps.of_queue_hwm",
        cells
            .iter()
            .map(|c| c.harvest.metrics.of_queue_hwm)
            .max()
            .unwrap_or(0) as f64,
    );
    let traffic = |f: fn(&adapter::TrafficTotals) -> u64| {
        cells
            .iter()
            .filter_map(|c| c.harvest.traffic.as_ref().map(f))
            .sum::<u64>() as f64
    };
    out.insert("traffic.offered_bytes", traffic(|t| t.offered_bytes));
    out.insert("traffic.delivered_bytes", traffic(|t| t.delivered_bytes));
    out.insert("traffic.flows_completed", traffic(|t| t.flows_completed));
    let fct_ms: Vec<f64> = cells
        .iter()
        .filter_map(|c| c.harvest.traffic.as_ref()?.fct_p50_ns)
        .map(|ns| ns as f64 / 1e6)
        .collect();
    out.insert(
        "traffic.fct_p50_sim_ms",
        if fct_ms.is_empty() {
            0.0
        } else {
            median(&fct_ms)
        },
    );
    out.insert(
        "scenario.forked_cells",
        cells.iter().filter(|c| c.forked).count() as f64,
    );
}

/// The span-derived metrics: per-phase self time, and how far the
/// self times are from adding up to the wall of the pass.
fn span_metrics(all: &[Span], wall_s: f64, out: &mut Values) {
    let rollup = spans::self_time_by_name(all);
    let total_s = |name: &str| rollup.get(name).map_or(0.0, |(_, ns)| *ns as f64 / 1e9);
    let mean_us = |name: &str| {
        rollup
            .get(name)
            .map_or(0.0, |(calls, ns)| *ns as f64 / 1e3 / *calls as f64)
    };
    out.insert("scenario.build_us", mean_us("scenario.build"));
    out.insert("scenario.converge_s", total_s("scenario.converge"));
    out.insert("scenario.steady_s", total_s("scenario.steady"));
    out.insert("scenario.finish_us", mean_us("scenario.finish"));
    out.insert("trace.spans", all.len() as f64);
    let self_sum_s = rollup.values().map(|(_, ns)| *ns as f64 / 1e9).sum::<f64>();
    out.insert(
        "trace.self_time_gap_pct",
        (self_sum_s - wall_s).abs() / wall_s * 100.0,
    );
}

pub struct TracedRun {
    pub metrics: Values,
    pub checks: Checks,
    pub trace_file: PathBuf,
}

/// Where the span file goes: beside the executable, which is inside
/// the build directory of whichever checkout built it.
fn trace_path(workload: &Workload, seed: u64) -> PathBuf {
    let exe = std::env::current_exe().expect("own executable path");
    exe.parent()
        .expect("executable lives in a directory")
        .join("rfbench-trace")
        .join(format!("{}-seed{seed}.json", workload.name))
}

/// The traced run: untraced reference passes, the traced pass, the
/// layer probes; every per-layer metric.
pub fn run(workload: &Workload, seed: u64, seconds: f64) -> TracedRun {
    let spec = workload.spec(seed);
    let matrix = ScenarioMatrix::new(spec.clone());
    let mut checks = Checks::default();

    // Reference: what the timed run executes, once before and once
    // after the traced pass, so a drift in the host's speed falls on
    // both sides of it. Gives the untraced wall the overhead is taken
    // against, the per-cell event counts the hand-driven pass must
    // reproduce, and per-cell walls.
    let mut ref_walls = Vec::new();
    let mut cell_wall_ms = Vec::new();
    let mut ref_events: BTreeMap<String, u64> = BTreeMap::new();
    let mut reference_pass = || {
        let (_, stats) = adapter::run_pass(&matrix, workload.forked, 1, &|| ());
        ref_walls.push(stats.wall.as_secs_f64());
        cell_wall_ms.extend(stats.cells.iter().map(|c| c.wall.as_secs_f64() * 1e3));
        ref_events = stats.cells.into_iter().map(|c| (c.key, c.events)).collect();
    };
    reference_pass();
    let (all_spans, traced_wall_s, mut cells) = traced_pass(workload, &spec);
    reference_pass();

    let mut ok_cells = Vec::new();
    for (key, events) in &ref_events {
        let cell = cells.remove(key).flatten();
        let same = cell
            .as_ref()
            .is_some_and(|c| c.configured && c.harvest.events == *events);
        checks.check(key, same, || {
            "hand-driven cell failed, or its event count differs from the executor's".to_string()
        });
        ok_cells.extend(cell);
    }

    let mut metrics = Values::new();
    count_metrics(&ok_cells, &mut metrics);
    span_metrics(&all_spans, traced_wall_s, &mut metrics);
    let gap = metrics["trace.self_time_gap_pct"];
    checks.check("self-times-sum-to-wall", gap <= 2.0, || {
        format!("span self times are {gap:.2} % off the traced wall")
    });
    metrics.insert(
        "trace.overhead_pct",
        (traced_wall_s / median(&ref_walls) - 1.0) * 100.0,
    );

    // Median, and the highest percentile with ten samples beyond it.
    let tail_pct = highest_supported_percentile(cell_wall_ms.len()).unwrap_or(50.0);
    metrics.insert("matrix.cell_wall_ms_p50", percentile(&cell_wall_ms, 50.0));
    metrics.insert(
        "matrix.cell_wall_ms_tail",
        percentile(&cell_wall_ms, tail_pct),
    );
    metrics.insert("matrix.cell_wall_tail_pct", tail_pct);
    metrics.insert("matrix.cell_wall_samples", cell_wall_ms.len() as f64);

    let mut probe_failures = Vec::new();
    metrics.extend(probes::run_all(seed, seconds, &mut probe_failures));
    for failure in probe_failures {
        checks.check("layer-probe", false, || failure);
    }

    let trace_file = trace_path(workload, seed);
    let header = [
        ("workload", format!("\"{}\"", workload.name)),
        ("seed", seed.to_string()),
        ("traced_wall_ns", ((traced_wall_s * 1e9) as u64).to_string()),
        (
            "untraced_wall_ns",
            ((median(&ref_walls) * 1e9) as u64).to_string(),
        ),
    ];
    std::fs::create_dir_all(trace_file.parent().expect("trace path has a parent"))
        .and_then(|()| std::fs::write(&trace_file, spans::render_trace(&header, &all_spans)))
        .unwrap_or_else(|e| panic!("writing {}: {e}", trace_file.display()));

    TracedRun {
        metrics,
        checks,
        trace_file,
    }
}
