//! Fig. 3 in miniature: print automatic vs. manual configuration time
//! for a few ring sizes (the full sweep lives in
//! `cargo run -p rf-bench --bin fig3_config_time`).
//!
//! ```sh
//! cargo run --release --example manual_vs_auto
//! ```

use routeflow_autoconf::core::manual;
use routeflow_autoconf::prelude::*;

fn main() {
    println!(
        "{:>10} {:>16} {:>14} {:>10}",
        "switches", "automatic (s)", "manual (min)", "speedup"
    );
    for n in [4usize, 8, 16, 28] {
        let mut sc = Scenario::on(ring(n)).start();
        let done = sc
            .run_until_configured(Time::from_secs(1800))
            .expect("must configure");
        let auto_s = done.as_secs_f64();
        let manual_s = manual::total(n).as_secs_f64();
        println!(
            "{n:>10} {auto_s:>16.1} {:>14.0} {:>9.0}x",
            manual_s / 60.0,
            manual_s / auto_s
        );
    }
    println!(
        "\nmanual model (paper §2.1): {}s VM + {}s mapping + {}s routing per switch",
        manual::VM_CREATION.as_secs(),
        manual::INTERFACE_MAPPING.as_secs(),
        manual::ROUTING_CONFIG.as_secs()
    );
}
