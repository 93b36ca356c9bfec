//! E1 / Fig. 3 — automatic vs. manual configuration time on ring
//! topologies of increasing size (plus the pan-European reference
//! network), swept through the `ScenarioMatrix` harness.
//!
//! The paper's Fig. 3 plots both curves for rings run on the OFELIA
//! testbed; the manual curve is the 15-minutes-per-switch model. We
//! reproduce the *shape*: automatic configuration stays within seconds
//! to low minutes and grows gently, the manual model grows linearly at
//! 900 s per switch, so the gap widens from ~2 orders of magnitude.
//!
//! Beyond the paper, the sweep adds two axes:
//!
//! * `provision_width` — the paper's pipeline provisions VMs serially
//!   (k=1); the k-wide pipeline (k=2/4/8) overlaps create/boot latency,
//!   and the k=8 curve must sit strictly below the serial one.
//! * `channel_capacity` — the same curves under a bounded (capacity-4)
//!   control channel. Config time barely moves (it is VM-side) but
//!   the *channel pressure* explodes with k: a wider pipeline slams its
//!   cold-start FLOW_MOD burst into the bounded channel all at once,
//!   visible as `of_queue_hwm`/`of_deferred` growing with k — the
//!   Fig. 3 story under constrained channels.
//!
//! Cells run in parallel worker threads and land in the same stable
//! [`MatrixReport`](rf_core::scenario::MatrixReport) JSON the CI sweep
//! uses, so Fig. 3 runs can be diffed across commits.
//!
//! Run: `cargo run --release -p rf-bench --bin fig3_config_time`
//! (add `--json FILE` to save the report, `--threads N` to override
//! the worker count)

use rf_bench::{fmt_dur, print_table, report_duration, sweep_args};
use rf_core::scenario::{FaultSchedule, MatrixCell, MatrixKnob, MatrixSpec, ScenarioMatrix};
use std::time::Duration;

/// The provisioning-pipeline widths swept per topology.
const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// The bounded-channel capacity of the constrained variants.
const CAP: usize = 4;

fn knob_name(k: usize, capped: bool) -> String {
    if capped {
        format!("paper-k{k}cap{CAP}")
    } else {
        format!("paper-k{k}")
    }
}

fn knob(k: usize, capped: bool) -> MatrixKnob {
    let kn = MatrixKnob::paper(knob_name(k, capped)).with_provision_width(k);
    if capped {
        kn.with_channel_capacity(CAP)
    } else {
        kn
    }
}

fn main() {
    let args = sweep_args();
    let mut topologies: Vec<String> = [4usize, 8, 12, 16, 20, 24, 28, 40, 64]
        .iter()
        .map(|n| format!("ring-{n}"))
        .collect();
    topologies.push("pan-european".into());
    // Unbounded channels across every width, plus the capacity-bounded
    // variant at the serial and widest pipelines.
    let mut knobs: Vec<MatrixKnob> = WIDTHS.iter().map(|&k| knob(k, false)).collect();
    knobs.push(knob(1, true));
    knobs.push(knob(8, true));
    let spec = MatrixSpec {
        seeds: vec![0xC0FFEE],
        topologies: topologies.clone(),
        schedules: vec![FaultSchedule::none()],
        knobs,
        configure_deadline: Duration::from_secs(3600),
        post_fault_window: Duration::ZERO,
        settle: Duration::from_secs(5),
    };
    let matrix = ScenarioMatrix::new(spec);
    let report = matrix.run(args.threads);

    // Cell lookup by (topology, knob name).
    let rec_named = |topology: &str, name: String| {
        let key = MatrixCell {
            seed: 0xC0FFEE,
            topology: topology.into(),
            schedule: FaultSchedule::none(),
            knob: MatrixKnob::paper(name),
        }
        .key();
        report
            .cells
            .iter()
            .find(|c| c.key == key)
            .expect("every cell reports")
    };
    let rec_of = |topology: &str, k: usize| rec_named(topology, knob_name(k, false));
    let rec_cap = |topology: &str, k: usize| rec_named(topology, knob_name(k, true));

    let mut rows = Vec::new();
    for topology in &topologies {
        let n = topology
            .parse::<rf_topo::TopoSpec>()
            .expect("grid topology names parse")
            .build()
            .node_count();
        let mut cols = vec![topology.clone(), n.to_string()];
        for &k in &WIDTHS {
            let auto = report_duration(rec_of(topology, k), "all_configured_ns")
                .expect("configuration must complete within an hour");
            cols.push(fmt_dur(auto));
        }
        let median_k1 =
            report_duration(rec_of(topology, 1), "green_median_ns").expect("switches configured");
        let median_k8 =
            report_duration(rec_of(topology, 8), "green_median_ns").expect("switches configured");
        let manual = rf_core::manual::total(n);
        let auto_k8 = report_duration(rec_of(topology, 8), "all_configured_ns").unwrap();
        cols.push(fmt_dur(median_k1));
        cols.push(fmt_dur(median_k8));
        cols.push(manual.as_secs().to_string());
        cols.push(format!(
            "{:.0}x",
            manual.as_secs_f64() / auto_k8.as_secs_f64()
        ));
        // The constrained-channel story: queue pressure vs. width.
        let hwm_k1 = rec_cap(topology, 1).metrics["of_queue_hwm"];
        let hwm_k8 = rec_cap(topology, 8).metrics["of_queue_hwm"];
        let def_k1 = rec_cap(topology, 1).metrics["of_deferred"];
        let def_k8 = rec_cap(topology, 8).metrics["of_deferred"];
        cols.push(format!("{hwm_k1}/{def_k1}"));
        cols.push(format!("{hwm_k8}/{def_k8}"));
        rows.push(cols);
        eprintln!(
            "{topology}: auto k=1 {}s / k=8 {}s (median green k=1 {}s -> k=8 {}s), manual {}s, \
             cap{CAP} hwm/deferred k=1 {hwm_k1}/{def_k1} -> k=8 {hwm_k8}/{def_k8}",
            fmt_dur(report_duration(rec_of(topology, 1), "all_configured_ns").unwrap()),
            fmt_dur(auto_k8),
            fmt_dur(median_k1),
            fmt_dur(median_k8),
            manual.as_secs()
        );
    }
    print_table(
        "Fig. 3 — configuration time vs. provisioning width (seconds, simulated)",
        &[
            "topology",
            "switches",
            "auto k=1 (s)",
            "auto k=2 (s)",
            "auto k=4 (s)",
            "auto k=8 (s)",
            "median green k=1 (s)",
            "median green k=8 (s)",
            "manual (s)",
            "speedup (k=8)",
            "cap4 k=1 hwm/defer",
            "cap4 k=8 hwm/defer",
        ],
        &rows,
    );
    println!("\nManual model: 5 min VM + 2 min mapping + 8 min routing per switch (paper §2.1).");
    println!("k = provision_width: VM create/configure operations in flight at once (paper = 1).");
    println!(
        "cap{CAP} columns: bounded (capacity {CAP}, Defer) control channels — queue high-water \
         mark and deferrals grow with k as the wider pipeline front-loads the FLOW_MOD burst."
    );
    if let Some(path) = args.json_out {
        std::fs::write(&path, report.to_json()).expect("write report");
        eprintln!("matrix report written to {path}");
    }
}
