//! Topology-independent traffic axes for the scenario matrix.
//!
//! A [`TrafficSpec`] names a load *shape* without naming nodes — the
//! matrix multiplies knobs across topologies of wildly different sizes,
//! so a knob cannot hard-code "senders 0..5". [`TrafficSpec::
//! instantiate`] places the endpoints on a concrete topology at cell
//! build time: servers and multicast roots go to one end of the
//! diameter (maximum path stress, mirroring how the demo places its
//! video server), and endpoint *counts are caps* — a 6-sender incast on
//! a 4-node ring becomes a 3-sender incast rather than a permanently
//! failed cell. Genuinely impossible placements (fewer than two nodes)
//! still fail, as a typed [`WorkloadError`] that marks the cell, not
//! the sweep.

use super::demand::FlowSize;
use super::{TrafficConfig, TrafficMode, TrafficPattern, WorkloadError, MAX_ENDPOINTS};
use rf_topo::Topology;
use std::time::Duration;

/// The shape of a traffic knob, sized in endpoint *caps*.
#[derive(Clone, Debug, PartialEq)]
pub enum TrafficShape {
    /// Open-loop request/response: up to `clients` clients send
    /// Poisson requests, `rate_per_sec` a second each, and fetch
    /// `response`-sized flows from one far-away server.
    RequestResponse {
        clients: usize,
        rate_per_sec: f64,
        response: FlowSize,
    },
    /// Up to `senders` synchronized senders blast `flow`-sized
    /// transfers at one far-away receiver, every `period`, `waves`
    /// times.
    Incast {
        senders: usize,
        flow: FlowSize,
        period: Duration,
        waves: u32,
    },
    /// One far-away source paces a `rate_bps` stream to up to
    /// `receivers` receivers.
    Multicast { receivers: usize, rate_bps: u64 },
}

/// A topology-independent traffic workload: shape + granularity +
/// offered-load window. This is what [`MatrixKnob::with_traffic`]
/// carries.
///
/// [`MatrixKnob::with_traffic`]: crate::scenario::MatrixKnob::with_traffic
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficSpec {
    pub shape: TrafficShape,
    pub mode: TrafficMode,
    pub start_at: Duration,
    pub duration: Duration,
}

impl TrafficSpec {
    fn new(shape: TrafficShape) -> TrafficSpec {
        TrafficSpec {
            shape,
            mode: TrafficMode::Packet,
            start_at: Duration::from_secs(25),
            duration: Duration::from_secs(15),
        }
    }

    /// Poisson request/response at `rate_per_sec` per client.
    pub fn poisson(clients: usize, rate_per_sec: f64, response: FlowSize) -> TrafficSpec {
        TrafficSpec::new(TrafficShape::RequestResponse {
            clients,
            rate_per_sec,
            response,
        })
    }

    /// SCDP-style incast.
    pub fn incast(senders: usize, flow: FlowSize, period: Duration, waves: u32) -> TrafficSpec {
        TrafficSpec::new(TrafficShape::Incast {
            senders,
            flow,
            period,
            waves,
        })
    }

    /// SRMCA-style multicast fan-out.
    pub fn multicast(receivers: usize, rate_bps: u64) -> TrafficSpec {
        TrafficSpec::new(TrafficShape::Multicast {
            receivers,
            rate_bps,
        })
    }

    /// Simulate at flow granularity instead of per-frame.
    pub fn flow_level(mut self) -> Self {
        self.mode = TrafficMode::Flow;
        self
    }

    /// Offer load over `[start, start + duration)`.
    pub fn window(mut self, start: Duration, duration: Duration) -> Self {
        self.start_at = start;
        self.duration = duration;
        self
    }

    /// When the last source stops offering load.
    pub fn stop_at(&self) -> Duration {
        self.start_at + self.duration
    }

    /// Place the shape's endpoints on `topo` and produce a validated
    /// [`TrafficConfig`].
    pub fn instantiate(&self, topo: &Topology) -> Result<TrafficConfig, WorkloadError> {
        let n = topo.node_count();
        if n < 2 {
            return Err(WorkloadError::TopologyTooSmall { need: 2, have: n });
        }
        // Far end of the diameter hosts the hot endpoint.
        let (near, far) = topo.farthest_pair().expect("non-empty topology");
        // Everyone else, nearest slots first.
        let others = |exclude: usize, cap: usize| -> Vec<usize> {
            (0..n)
                .filter(|&v| v != exclude)
                .take(cap.min(MAX_ENDPOINTS))
                .collect()
        };
        let pattern = match &self.shape {
            TrafficShape::RequestResponse {
                clients,
                rate_per_sec,
                response,
            } => TrafficPattern::RequestResponse {
                clients: others(far, *clients),
                server: far,
                rate_per_sec: *rate_per_sec,
                response: *response,
            },
            TrafficShape::Incast {
                senders,
                flow,
                period,
                waves,
            } => TrafficPattern::Incast {
                senders: others(far, *senders),
                receiver: far,
                flow: *flow,
                period: *period,
                waves: *waves,
            },
            TrafficShape::Multicast {
                receivers,
                rate_bps,
            } => TrafficPattern::Multicast {
                source: near,
                receivers: others(near, *receivers),
                rate_bps: *rate_bps,
            },
        };
        let cfg = TrafficConfig {
            pattern,
            mode: self.mode,
            start_at: self.start_at,
            stop_at: self.stop_at(),
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_topo::{ring, star};

    #[test]
    fn endpoint_counts_clamp_to_the_topology() {
        let spec = TrafficSpec::incast(6, FlowSize::fixed(10_000), Duration::from_secs(2), 3);
        let small = spec.instantiate(&ring(4)).unwrap();
        match &small.pattern {
            TrafficPattern::Incast {
                senders, receiver, ..
            } => {
                assert_eq!(
                    senders.len(),
                    3,
                    "6 senders clamp to ring-4's 3 non-receivers"
                );
                assert!(!senders.contains(receiver));
            }
            p => panic!("wrong pattern: {p:?}"),
        }
        let big = spec.instantiate(&ring(16)).unwrap();
        match &big.pattern {
            TrafficPattern::Incast { senders, .. } => assert_eq!(senders.len(), 6),
            p => panic!("wrong pattern: {p:?}"),
        }
    }

    #[test]
    fn server_lands_on_the_far_end_of_the_diameter() {
        let topo = star(8);
        let (_, far) = topo.farthest_pair().unwrap();
        let cfg = TrafficSpec::poisson(3, 5.0, FlowSize::fixed(20_000))
            .instantiate(&topo)
            .unwrap();
        match &cfg.pattern {
            TrafficPattern::RequestResponse {
                clients, server, ..
            } => {
                assert_eq!(*server, far);
                assert_eq!(clients.len(), 3);
            }
            p => panic!("wrong pattern: {p:?}"),
        }
    }

    #[test]
    fn impossible_placements_fail_typed() {
        let mut lonely = Topology::new();
        lonely.add_node("s0", (0.0, 0.0));
        let spec = TrafficSpec::multicast(4, 1_000_000);
        let err = spec.instantiate(&lonely).unwrap_err();
        assert_eq!(err, WorkloadError::TopologyTooSmall { need: 2, have: 1 });
        // Bad distribution parameters also surface as errors, not
        // panics.
        let bad = TrafficSpec::poisson(2, 0.0, FlowSize::fixed(1_000));
        assert!(matches!(
            bad.instantiate(&ring(4)),
            Err(WorkloadError::BadDistribution(_))
        ));
    }

    #[test]
    fn window_and_mode_carry_through() {
        let cfg = TrafficSpec::multicast(2, 5_000_000)
            .flow_level()
            .window(Duration::from_secs(30), Duration::from_secs(20))
            .instantiate(&ring(6))
            .unwrap();
        assert_eq!(cfg.mode, TrafficMode::Flow);
        assert_eq!(cfg.start_at, Duration::from_secs(30));
        assert_eq!(cfg.stop_at, Duration::from_secs(50));
    }
}
