//! The red/green configuration view.
//!
//! The paper demonstrates automatic configuration "by showing switches
//! with red and green colors in a GUI. The color of a switch remains
//! red until it is configured by the RPC server. Otherwise, it changes
//! to green. Note that a switch is considered as configured when it has
//! a corresponding VM." (§3)
//!
//! This module renders that view in the terminal: an ANSI canvas with
//! the topology laid out by node coordinates (the pan-European map uses
//! real longitude/latitude), switches drawn red (`●` unconfigured) or
//! green (`●` configured), plus an event timeline. A monochrome mode
//! keeps CI logs readable.

use rf_topo::Topology;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The GUI state model, fed by the harness from RF-controller state.
pub struct NetworkView {
    topo: Topology,
    /// Green (has a corresponding VM) or red, per dpid; dpid = node + 1
    /// by bootstrap convention.
    green: BTreeMap<u64, bool>,
    timeline: Vec<(String, String)>, // (time, event)
    pub use_ansi: bool,
}

impl NetworkView {
    pub fn new(topo: Topology) -> NetworkView {
        let green = (0..topo.node_count())
            .map(|i| ((i + 1) as u64, false))
            .collect();
        NetworkView {
            topo,
            green,
            timeline: Vec::new(),
            use_ansi: true,
        }
    }

    /// Update one switch's state (true = configured/green).
    pub fn set_configured(&mut self, dpid: u64, configured: bool) {
        if let Some(green) = self.green.get_mut(&dpid) {
            *green = configured;
        }
    }

    /// Bulk update from `ControlPlane::switch_states()`-shaped input.
    pub fn update(&mut self, states: &[(u64, bool)]) {
        for &(dpid, ok) in states {
            self.set_configured(dpid, ok);
        }
    }

    /// Append a timeline entry.
    pub fn log(&mut self, time: impl Into<String>, event: impl Into<String>) {
        self.timeline.push((time.into(), event.into()));
    }

    pub fn green_count(&self) -> usize {
        self.green.values().filter(|&&green| green).count()
    }

    pub fn red_count(&self) -> usize {
        self.green.len() - self.green_count()
    }

    fn dot(&self, green: bool) -> &'static str {
        match (self.use_ansi, green) {
            (true, true) => "\x1b[32m\u{25CF}\x1b[0m",
            (true, false) => "\x1b[31m\u{25CF}\x1b[0m",
            (false, true) => "G",
            (false, false) => "r",
        }
    }

    /// Render the map onto a `width × height` character canvas with
    /// node names, followed by a legend and the last timeline entries.
    pub fn render(&self, width: usize, height: usize) -> String {
        assert!(width >= 16 && height >= 8, "canvas too small");
        // Scale node positions into the canvas.
        let (mut min_x, mut max_x) = (f64::MAX, f64::MIN);
        let (mut min_y, mut max_y) = (f64::MAX, f64::MIN);
        for (_, info) in self.topo.nodes() {
            min_x = min_x.min(info.pos.0);
            max_x = max_x.max(info.pos.0);
            min_y = min_y.min(info.pos.1);
            max_y = max_y.max(info.pos.1);
        }
        let spread_x = (max_x - min_x).max(1e-9);
        let spread_y = (max_y - min_y).max(1e-9);
        let mut grid: Vec<Vec<Option<usize>>> = vec![vec![None; width]; height];
        let mut coords = Vec::new();
        for (id, info) in self.topo.nodes() {
            let x = ((info.pos.0 - min_x) / spread_x * (width - 12) as f64) as usize + 1;
            // Screen y grows downward; latitude grows upward.
            let y = ((max_y - info.pos.1) / spread_y * (height - 3) as f64) as usize + 1;
            grid[y.min(height - 1)][x.min(width - 1)] = Some(id);
            coords.push((id, x, y));
        }
        let mut out = String::new();
        for row in &grid {
            let mut line = String::new();
            let mut col = 0;
            while col < width {
                match row[col] {
                    Some(id) => {
                        let dpid = (id + 1) as u64;
                        line.push_str(self.dot(self.green[&dpid]));
                        // Short label next to the dot.
                        let name = &self.topo.node(id).name;
                        let label: String = name.chars().take(3).collect();
                        line.push_str(&label);
                        col += 1 + label.len();
                    }
                    None => {
                        line.push(' ');
                        col += 1;
                    }
                }
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        let _ = writeln!(
            out,
            "configured: {}/{} (green)",
            self.green_count(),
            self.green.len()
        );
        for (t, e) in self.timeline.iter().rev().take(5).rev() {
            let _ = writeln!(out, "  [{t}] {e}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_topo::{pan_european, ring};

    #[test]
    fn starts_all_red() {
        let v = NetworkView::new(ring(6));
        assert_eq!(v.red_count(), 6);
        assert_eq!(v.green_count(), 0);
    }

    #[test]
    fn transitions_to_green() {
        let mut v = NetworkView::new(ring(4));
        v.update(&[(1, true), (3, true)]);
        assert_eq!(v.green_count(), 2);
        v.set_configured(1, false);
        assert_eq!(v.green_count(), 1);
    }

    #[test]
    fn render_monochrome_shows_counts() {
        let mut v = NetworkView::new(ring(4));
        v.use_ansi = false;
        v.update(&[(1, true)]);
        let s = v.render(40, 12);
        assert!(s.contains("configured: 1/4"));
        assert!(s.contains('G'));
        assert!(s.contains('r'));
    }

    #[test]
    fn render_ansi_uses_colors() {
        let mut v = NetworkView::new(ring(3));
        v.update(&[(1, true)]);
        let s = v.render(40, 10);
        assert!(s.contains("\x1b[32m"), "green escape present");
        assert!(s.contains("\x1b[31m"), "red escape present");
    }

    #[test]
    fn pan_european_fits_canvas() {
        let mut v = NetworkView::new(pan_european());
        v.use_ansi = false;
        for d in 1..=28 {
            v.set_configured(d, d % 2 == 0);
        }
        let s = v.render(100, 30);
        assert_eq!(v.green_count(), 14);
        // Some city labels appear.
        assert!(s.contains("Lon") || s.contains("Par") || s.contains("Ber"));
    }

    #[test]
    fn timeline_shows_last_entries() {
        let mut v = NetworkView::new(ring(3));
        v.use_ansi = false;
        for i in 0..10 {
            v.log(format!("{i}.0s"), format!("event {i}"));
        }
        let s = v.render(30, 8);
        assert!(s.contains("event 9"));
        assert!(!s.contains("event 2"), "only the tail is shown");
    }

    #[test]
    #[should_panic(expected = "canvas too small")]
    fn tiny_canvas_rejected() {
        NetworkView::new(ring(3)).render(4, 2);
    }
}
