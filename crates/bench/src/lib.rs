//! # rf-bench — the experiment harness
//!
//! One function per experiment, shared by the `--bin` table
//! generators, all built on the composable
//! [`ScenarioBuilder`](rf_core::scenario::ScenarioBuilder) API. The
//! README's "Examples" section lists the binaries; wall-clock numbers
//! are `rfbench`'s (README § Performance).

use rf_core::manual::ManualConfigModel;
use rf_core::scenario::{
    CellRecord, Scenario, ScenarioBuilder, ScenarioMetrics, Workload, WorkloadReport,
};
use rf_sim::Time;
use rf_topo::Topology;
use std::time::Duration;

/// Parameters shared by the configuration-time experiments.
#[derive(Clone)]
pub struct ExpParams {
    pub seed: u64,
    pub probe_interval: Duration,
    pub vm_boot_delay: Duration,
    pub ospf_hello: u16,
    pub ospf_dead: u16,
    pub use_flowvisor: bool,
}

impl Default for ExpParams {
    fn default() -> Self {
        ExpParams {
            seed: 0xC0FFEE,
            probe_interval: Duration::from_secs(1),
            vm_boot_delay: Duration::from_secs(1),
            ospf_hello: 10,
            ospf_dead: 40,
            use_flowvisor: true,
        }
    }
}

/// A scenario builder pre-loaded with the experiment parameters.
pub fn scenario(topo: Topology, p: &ExpParams) -> ScenarioBuilder {
    let mut b = Scenario::on(topo)
        .seed(p.seed)
        .probe_interval(p.probe_interval)
        .vm_boot_delay(p.vm_boot_delay)
        .ospf_timers(p.ospf_hello, p.ospf_dead)
        .trace_level(rf_sim::TraceLevel::Off);
    if !p.use_flowvisor {
        b = b.without_flowvisor();
    }
    b
}

/// E1 / Fig. 3: simulated time until every switch of `topo` is
/// configured (has its VM), from a cold start.
pub fn auto_config_time(topo: Topology, p: &ExpParams) -> Duration {
    let mut sc = scenario(topo, p).start();
    let done = sc
        .run_until_configured(Time::from_secs(3600))
        .expect("configuration must complete within an hour");
    Duration::from_nanos(done.as_nanos())
}

/// E1 with the full metric set: run to completion, then snapshot
/// per-switch configuration times and flow counts.
pub fn auto_config_metrics(topo: Topology, p: &ExpParams) -> ScenarioMetrics {
    let mut sc = scenario(topo, p).start();
    sc.run_until_configured(Time::from_secs(3600))
        .expect("configuration must complete within an hour");
    sc.finish()
}

/// The manual baseline for `n` switches (paper model).
pub fn manual_config_time(n: usize) -> Duration {
    ManualConfigModel::default().total(n)
}

/// Result of the video demo experiment.
#[derive(Clone, Copy, Debug)]
pub struct VideoResult {
    pub configured_at: Option<Duration>,
    pub first_byte_at: Option<Duration>,
    pub playback_at: Option<Duration>,
    pub packets: u64,
    pub gaps: u64,
}

/// E2 / §3 demo: cold-start the deployment with a video server and a
/// remote client attached, stream, and report the timeline.
pub fn video_demo(
    topo: Topology,
    server_node: usize,
    client_node: usize,
    p: &ExpParams,
    horizon: Duration,
) -> VideoResult {
    let mut sc = scenario(topo, p)
        .with_workload(Workload::video(server_node, client_node))
        .start();
    sc.run_until(Time::from_nanos(horizon.as_nanos() as u64));
    let reports = sc.workload_reports();
    let WorkloadReport::Video(report) = &reports[0] else {
        unreachable!("video workload attached above");
    };
    let to_dur = |t: Option<Time>| t.map(|t| Duration::from_nanos(t.as_nanos()));
    VideoResult {
        configured_at: to_dur(sc.all_configured_at()),
        first_byte_at: to_dur(report.first_byte_at),
        playback_at: to_dur(report.playback_at),
        packets: report.packets,
        gaps: report.gaps,
    }
}

/// Shared CLI shape of the sweep-emitting table binaries: worker
/// thread count (`--threads N`), report destination (`--json FILE`)
/// and whatever positional arguments remain for the caller.
pub struct SweepArgs {
    pub threads: usize,
    pub json_out: Option<String>,
    pub rest: Vec<String>,
}

/// Default sweep worker count: one per core, capped — past the cap
/// the single-threaded cells just contend for cache.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4)
}

/// Parse `--threads`/`--json` out of `std::env::args`, defaults
/// matching `matrix_sweep`.
pub fn sweep_args() -> SweepArgs {
    let mut args = SweepArgs {
        threads: default_threads(),
        json_out: None,
        rest: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => {
                args.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs a number")
            }
            "--json" => args.json_out = Some(it.next().expect("--json needs a path")),
            other => args.rest.push(other.to_string()),
        }
    }
    args
}

/// Read a nanosecond metric off a matrix cell as a [`Duration`].
pub fn report_duration(rec: &CellRecord, metric: &str) -> Option<Duration> {
    rec.metrics
        .get(metric)
        .map(|&ns| Duration::from_nanos(ns as u64))
}

/// Render seconds for table output.
pub fn fmt_dur(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64())
}

/// Render an optional duration.
pub fn fmt_opt(d: Option<Duration>) -> String {
    d.map(fmt_dur).unwrap_or_else(|| "-".into())
}

/// Print a markdown-style table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_topo::ring;

    #[test]
    fn auto_is_orders_of_magnitude_faster_than_manual() {
        let p = ExpParams {
            ospf_hello: 1,
            ospf_dead: 4,
            ..ExpParams::default()
        };
        let auto = auto_config_time(ring(4), &p);
        let manual = manual_config_time(4);
        assert!(auto < Duration::from_secs(120));
        assert!(manual == Duration::from_secs(3600));
        assert!(manual.as_secs_f64() / auto.as_secs_f64() > 50.0);
    }

    #[test]
    fn video_demo_smoke() {
        let p = ExpParams {
            ospf_hello: 1,
            ospf_dead: 4,
            probe_interval: Duration::from_millis(500),
            ..ExpParams::default()
        };
        let r = video_demo(ring(4), 0, 2, &p, Duration::from_secs(120));
        assert!(r.first_byte_at.is_some());
        assert!(r.packets > 0);
    }

    #[test]
    fn metrics_report_per_switch_times() {
        let p = ExpParams {
            ospf_hello: 1,
            ospf_dead: 4,
            probe_interval: Duration::from_millis(500),
            ..ExpParams::default()
        };
        let m = auto_config_metrics(ring(4), &p);
        assert_eq!(m.configured_switches, 4);
        assert_eq!(m.per_switch_config_time.len(), 4);
        assert!(m.per_switch_config_time.iter().all(|(_, t)| t.is_some()));
    }
}
