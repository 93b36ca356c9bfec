//! Topology-independent traffic axes for the scenario matrix.
//!
//! A [`TrafficSpec`] names a load *shape* without naming nodes — the
//! matrix multiplies knobs across topologies of wildly different sizes,
//! so a knob cannot hard-code "senders 0..5". [`Workload::traffic`]
//! places the endpoints on a concrete topology at cell build time:
//! servers and multicast roots go to one end of the
//! diameter (maximum path stress, mirroring how the demo places its
//! video server), and endpoint *counts are caps* — a 6-sender incast on
//! a 4-node ring becomes a 3-sender incast rather than a permanently
//! failed cell. Genuinely impossible placements (fewer than two nodes)
//! still fail, as a typed [`WorkloadError`] that marks the cell, not
//! the sweep.
//!
//! [`Workload::traffic`]: crate::scenario::Workload::traffic

use super::demand::FlowSize;
use super::{paced_interval, TrafficMode, WorkloadError, MAX_ENDPOINTS};
use rand::distributions::Exp;
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

    /// Place the shape's endpoints on `topo` and check the spec: the
    /// topology nodes hosting them, in host-slot order — the fan
    /// (clients, senders) before the far-end server or receiver, the
    /// multicast source before its receivers. What
    /// [`Workload::traffic`] holds.
    ///
    /// [`Workload::traffic`]: crate::scenario::Workload::traffic
    pub(crate) fn place(&self, topo: &Topology) -> Result<Vec<usize>, WorkloadError> {
        let n = topo.node_count();
        if n < 2 {
            return Err(WorkloadError::TopologyTooSmall { need: 2, have: n });
        }
        // Far end of the diameter hosts the hot endpoint.
        let (near, far) = topo.farthest_pair().expect("non-empty topology");
        // Everyone else, nearest slots first.
        let others = |exclude: usize, cap: usize| {
            (0..n)
                .filter(move |&v| v != exclude)
                .take(cap.min(MAX_ENDPOINTS))
        };
        let nodes: Vec<usize> = match self.shape {
            TrafficShape::RequestResponse { clients: fan, .. }
            | TrafficShape::Incast { senders: fan, .. } => others(far, fan).chain([far]).collect(),
            TrafficShape::Multicast { receivers, .. } => {
                [near].into_iter().chain(others(near, receivers)).collect()
            }
        };
        self.validate(nodes.len() - 1)?;
        Ok(nodes)
    }

    /// The spec's checks, given the `fan` endpoints placement found:
    /// window, fan size, distribution, wave period and count, paced
    /// rate — the first failure wins.
    fn validate(&self, fan: usize) -> Result<(), WorkloadError> {
        if self.duration.is_zero() {
            return Err(WorkloadError::EmptyWindow);
        }
        let fan_of = |what| match fan {
            0 => Err(WorkloadError::NoEndpoints(what)),
            _ => Ok(()),
        };
        match self.shape {
            TrafficShape::RequestResponse {
                rate_per_sec,
                response,
                ..
            } => {
                fan_of("request/response needs clients")?;
                Exp::new(rate_per_sec).map_err(WorkloadError::BadDistribution)?;
                response.validate()
            }
            TrafficShape::Incast {
                flow,
                period,
                waves,
                ..
            } => {
                fan_of("incast needs senders")?;
                flow.validate()?;
                if period.is_zero() {
                    Err(WorkloadError::ZeroRate("incast wave period"))
                } else if waves == 0 {
                    Err(WorkloadError::EmptyWindow)
                } else {
                    Ok(())
                }
            }
            // A paced stream must offer something, and no faster than a
            // frame per nanosecond: `paced_interval` rounds anything
            // faster to zero, which the flow model divides by and the
            // packet-level pacer re-arms at.
            TrafficShape::Multicast { rate_bps, .. } => {
                fan_of("multicast needs receivers")?;
                if rate_bps == 0 {
                    Err(WorkloadError::ZeroRate("multicast stream rate"))
                } else if paced_interval(rate_bps).is_zero() {
                    Err(WorkloadError::ZeroInterval("multicast stream rate"))
                } else {
                    Ok(())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Workload;
    use rf_topo::{ring, star};

    /// The three shapes, sized to fill ring-4 or to overflow it.
    fn shapes() -> [TrafficSpec; 3] {
        [
            TrafficSpec::poisson(3, 5.0, FlowSize::fixed(20_000)),
            TrafficSpec::incast(6, FlowSize::fixed(10_000), Duration::from_secs(2), 3),
            TrafficSpec::multicast(4, 1_000_000),
        ]
    }

    /// Where `Workload::traffic` puts `spec`'s endpoints, slot by slot.
    fn placed(spec: &TrafficSpec, topo: &Topology) -> Result<Vec<usize>, WorkloadError> {
        match Workload::traffic(spec.clone(), topo)? {
            Workload::Traffic { nodes, .. } => Ok(nodes),
            w => panic!("wrong workload: {w:?}"),
        }
    }

    #[test]
    fn endpoint_counts_clamp_to_the_topology() {
        // ring-4's diameter is (0, 2), ring-16's (0, 8): a cap larger
        // than the topology takes every other node, in index order.
        let [poisson, incast, mcast] = shapes();
        let small = ring(4);
        assert_eq!(placed(&poisson, &small), Ok(vec![0, 1, 3, 2]));
        assert_eq!(placed(&incast, &small), Ok(vec![0, 1, 3, 2]));
        assert_eq!(placed(&mcast, &small), Ok(vec![0, 1, 2, 3]));
        let big = ring(16);
        assert_eq!(placed(&poisson, &big), Ok(vec![0, 1, 2, 8]));
        assert_eq!(placed(&incast, &big), Ok(vec![0, 1, 2, 3, 4, 5, 8]));
        assert_eq!(placed(&mcast, &big), Ok(vec![0, 1, 2, 3, 4]));
    }

    #[test]
    fn server_lands_on_the_far_end_of_the_diameter() {
        // star-8's diameter runs leaf 1 → hub → leaf 2: the server and
        // the incast receiver take slot last on node 2, the multicast
        // source slot 0 on node 1.
        let topo = star(8);
        assert_eq!(topo.farthest_pair(), Some((1, 2)));
        let [poisson, incast, mcast] = shapes();
        assert_eq!(placed(&poisson, &topo), Ok(vec![0, 1, 3, 2]));
        assert_eq!(placed(&incast, &topo), Ok(vec![0, 1, 3, 4, 5, 6, 2]));
        assert_eq!(placed(&mcast, &topo), Ok(vec![1, 0, 2, 3, 4]));
    }

    #[test]
    fn impossible_placements_fail_typed() {
        let mut lonely = Topology::new();
        lonely.add_node("s0", (0.0, 0.0));
        for spec in shapes() {
            assert_eq!(
                placed(&spec, &lonely),
                Err(WorkloadError::TopologyTooSmall { need: 2, have: 1 })
            );
        }
        // Bad distribution parameters also surface as errors, not
        // panics.
        let bad = TrafficSpec::poisson(2, 0.0, FlowSize::fixed(1_000));
        assert!(matches!(
            placed(&bad, &ring(4)),
            Err(WorkloadError::BadDistribution(_))
        ));
    }
}
