//! A1–A5 — ablations over the framework's design parameters, each one
//! a `ScenarioMatrix` sweep emitting the standard report type:
//!
//! * A1: LLDP probe interval vs. configuration time (ring-16)
//! * A2: OSPF hello/dead timers vs. time-to-video (pan-European)
//! * A3: VM boot latency vs. configuration time (ring-28)
//! * A4: FlowVisor proxy vs. direct multi-controller attachment
//! * A5: topology family at ~28 nodes
//!
//! Run: `cargo run --release -p rf-bench --bin ablations [a1|..|a5]`
//! (add `--json PREFIX` to save each selected ablation's report as
//! `PREFIX.<ablation>.json`, `--threads N` for the worker count)

use rf_bench::{fmt_dur, print_table, report_duration, sweep_args, SweepArgs};
use rf_core::scenario::{
    FaultSchedule, MatrixKnob, MatrixReport, MatrixSpec, Scenario, ScenarioMatrix, Workload,
};
use std::time::Duration;

/// One-topology, no-fault spec with a knob axis — the shape of every
/// parameter ablation.
fn knob_sweep(topology: &str, knobs: Vec<MatrixKnob>) -> MatrixSpec {
    MatrixSpec {
        seeds: vec![0xC0FFEE],
        topologies: vec![topology.into()],
        schedules: vec![FaultSchedule::none()],
        knobs,
        configure_deadline: Duration::from_secs(3600),
        post_fault_window: Duration::ZERO,
        settle: Duration::from_secs(5),
    }
}

/// Run the matrix and return (report, one table row per cell built by
/// `row`, which receives each cell's record).
fn sweep_rows(
    args: &SweepArgs,
    spec: MatrixSpec,
    row: impl Fn(&rf_core::scenario::MatrixCell, &rf_core::scenario::CellRecord) -> Vec<String>,
) -> (MatrixReport, Vec<Vec<String>>) {
    let matrix = ScenarioMatrix::new(spec);
    let report = matrix.run(args.threads);
    let rows = matrix
        .spec()
        .cells()
        .iter()
        .map(|cell| {
            let rec = report
                .cells
                .iter()
                .find(|c| c.key == cell.key())
                .expect("every cell reports");
            row(cell, rec)
        })
        .collect();
    (report, rows)
}

fn save(args: &SweepArgs, name: &str, report: &MatrixReport) {
    if let Some(prefix) = &args.json_out {
        let path = format!("{prefix}.{name}.json");
        std::fs::write(&path, report.to_json()).expect("write report");
        eprintln!("matrix report written to {path}");
    }
}

fn a1(args: &SweepArgs) {
    let knobs = [100u64, 250, 500, 1000, 2000, 5000]
        .iter()
        .map(|&ms| {
            MatrixKnob::paper(format!("probe{ms}ms")).with_probe_interval(Duration::from_millis(ms))
        })
        .collect();
    let (report, rows) = sweep_rows(args, knob_sweep("ring-16", knobs), |cell, rec| {
        vec![
            cell.knob.probe_interval.as_millis().to_string(),
            fmt_dur(report_duration(rec, "all_configured_ns").expect("configures")),
        ]
    });
    print_table(
        "A1 — LLDP probe interval vs. configuration time (ring-16)",
        &["probe interval (ms)", "config time (s)"],
        &rows,
    );
    save(args, "a1", &report);
}

fn a2(args: &SweepArgs) {
    let knobs = [(1u16, 4u32), (2, 8), (5, 20), (10, 40)]
        .iter()
        .map(|&(hello, dead)| {
            MatrixKnob::paper(format!("hello{hello}dead{dead}"))
                .with_ospf_timers(hello, dead as u16)
        })
        .collect();
    let mut spec = knob_sweep("pan-european", knobs);
    spec.settle = Duration::from_secs(30); // let the stream start
    let matrix = ScenarioMatrix::new(spec);
    // The §3 demo probe: a video stream across the farthest city pair
    // instead of the standard ping.
    let (report, _) = matrix.run_instrumented(args.threads, |cell| {
        let topo = cell.topo_spec().expect("grid topology names parse").build();
        let (server, client) = topo.farthest_pair().expect("non-trivial topology");
        Ok(cell
            .knob
            .apply(Scenario::on(topo))
            .seed(cell.seed)
            .trace_level(rf_sim::TraceLevel::Off)
            .with_workload(Workload::video(server, client)))
    });
    let rows = matrix
        .spec()
        .cells()
        .iter()
        .map(|cell| {
            let rec = report
                .cells
                .iter()
                .find(|c| c.key == cell.key())
                .expect("every cell reports");
            vec![
                format!("{}/{}", cell.knob.ospf_hello, cell.knob.ospf_dead),
                report_duration(rec, "all_configured_ns")
                    .map(fmt_dur)
                    .unwrap_or_else(|| "-".into()),
                report_duration(rec, "video_first_byte_ns")
                    .map(fmt_dur)
                    .unwrap_or_else(|| "-".into()),
            ]
        })
        .collect::<Vec<_>>();
    print_table(
        "A2 — OSPF hello/dead vs. time-to-video (pan-European)",
        &["hello/dead (s)", "configured (s)", "first video byte (s)"],
        &rows,
    );
    save(args, "a2", &report);
}

fn a3(args: &SweepArgs) {
    let knobs = [500u64, 1000, 2000, 5000, 10000]
        .iter()
        .map(|&ms| {
            MatrixKnob::paper(format!("boot{ms}ms")).with_vm_boot_delay(Duration::from_millis(ms))
        })
        .collect();
    let (report, rows) = sweep_rows(args, knob_sweep("ring-28", knobs), |cell, rec| {
        vec![
            format!("{:.1}", cell.knob.vm_boot_delay.as_secs_f64()),
            fmt_dur(report_duration(rec, "all_configured_ns").expect("configures")),
        ]
    });
    print_table(
        "A3 — VM boot latency vs. configuration time (ring-28)",
        &["VM boot (s)", "config time (s)"],
        &rows,
    );
    save(args, "a3", &report);
}

fn a4(args: &SweepArgs) {
    let knobs = vec![
        MatrixKnob::paper("flowvisor"),
        MatrixKnob::paper("direct").without_flowvisor(),
    ];
    let (report, rows) = sweep_rows(args, knob_sweep("ring-16", knobs), |cell, rec| {
        let label = if cell.knob.use_flowvisor {
            "via FlowVisor (paper)"
        } else {
            "direct (OVS multi-controller)"
        };
        vec![
            label.into(),
            fmt_dur(report_duration(rec, "all_configured_ns").expect("configures")),
        ]
    });
    print_table(
        "A4 — FlowVisor proxy overhead (ring-16)",
        &["attachment", "config time (s)"],
        &rows,
    );
    save(args, "a4", &report);
}

fn a5(args: &SweepArgs) {
    let mut spec = knob_sweep("ring-28", vec![MatrixKnob::paper("paper")]);
    spec.topologies = vec![
        "ring-28".into(),
        "line-28".into(),
        "star-28".into(),
        "grid-7x4".into(),
        "pan-european".into(),
    ];
    let (report, rows) = sweep_rows(args, spec, |cell, rec| {
        let links = cell
            .topo_spec()
            .expect("grid topology names parse")
            .build()
            .edge_count();
        vec![
            cell.topology.clone(),
            links.to_string(),
            fmt_dur(report_duration(rec, "all_configured_ns").expect("configures")),
        ]
    });
    print_table(
        "A5 — topology family vs. configuration time (~28 nodes)",
        &["topology", "links", "config time (s)"],
        &rows,
    );
    save(args, "a5", &report);
}

fn main() {
    let args = sweep_args();
    let which = args.rest.first().map(String::as_str).unwrap_or("");
    match which {
        "a1" => a1(&args),
        "a2" => a2(&args),
        "a3" => a3(&args),
        "a4" => a4(&args),
        "a5" => a5(&args),
        "" => {
            a1(&args);
            a2(&args);
            a3(&args);
            a4(&args);
            a5(&args);
        }
        other => {
            eprintln!(
                "unknown argument {other}\n\
                 usage: ablations [a1|a2|a3|a4|a5] [--threads N] [--json PREFIX]"
            );
            std::process::exit(2);
        }
    }
}
