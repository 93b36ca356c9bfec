//! Stochastic traffic engine: production-shaped load for the matrix.
//!
//! Every workload the scenario layer previously knew was fixed-cadence
//! (1 Hz pings, one CBR video). This module generates the shapes real
//! deployments see — Poisson request/response flows, SCDP-style incast
//! and SRMCA-style multicast fan-out — under the same determinism
//! contract as everything else in the matrix: all randomness flows
//! from per-endpoint [`rand`] generators seeded by `(cell seed,
//! workload index, endpoint index)` alone, so a cell's offered load is
//! a pure function of its key.
//!
//! Two simulation granularities share one demand model:
//!
//! * **Packet level** ([`packet`]) — real host agents blast UDP frames
//!   through the switch fabric; congestion, queueing and loss emerge
//!   from the link model.
//! * **Flow level** ([`flow`]) — one event per flow start/stop, with
//!   throughput modeled by max-min fair sharing over the endpoints'
//!   access links. Orders of magnitude fewer events; validated against
//!   packet-level runs in `tests/traffic.rs`.
//!
//! Both modes draw arrivals and flow sizes from the *same*
//! [`demand::ArrivalStream`]s, so offered load is identical between
//! them by construction, not by coincidence.

pub mod demand;
pub mod flow;
pub mod packet;
pub mod report;
pub mod spec;

pub use demand::{ArrivalStream, FlowSize, WaveStream};
pub use flow::FlowLevelEngine;
pub use report::{percentile, TrafficReport};
pub use spec::{TrafficShape, TrafficSpec};

use rand::distributions::Exp;
use std::fmt;
use std::time::Duration;

/// UDP port traffic servers listen on for flow requests.
pub const REQ_PORT: u16 = 7700;
/// UDP port traffic sinks listen on for data frames.
pub const DATA_PORT: u16 = 7701;

/// Data bytes carried per traffic frame (flows are chunked into frames
/// of this size; the last frame may be shorter).
pub const CHUNK_BYTES: u64 = 1024;
/// Traffic header inside each UDP payload:
/// `[flow_id u64][flow_bytes u64][flow_start_ns u64][send_ns u64]`.
pub const HEADER_BYTES: u64 = 32;
/// Ethernet (14) + IPv4 (20) + UDP (8) framing per frame.
pub const STACK_OVERHEAD: u64 = 42;

/// Frames needed to carry `data` bytes.
pub fn frames_for(data: u64) -> u64 {
    data.div_ceil(CHUNK_BYTES).max(1)
}

/// Wire bytes of a flow carrying `data` bytes (payload + per-frame
/// header and stack overhead). The flow-level model drains exactly
/// this many bytes, so both granularities agree on what a flow costs.
pub fn wire_bytes(data: u64) -> u64 {
    data + frames_for(data) * (HEADER_BYTES + STACK_OVERHEAD)
}

/// Wire bytes of one full-chunk data frame.
pub const fn chunk_wire_bytes() -> u64 {
    CHUNK_BYTES + HEADER_BYTES + STACK_OVERHEAD
}

/// Inter-frame interval of a paced stream offering `rate_bps` of
/// payload data, in whole nanoseconds. Shared by the packet-level
/// pacer and the flow-level delivery formula — integer math, so both
/// count the same frames.
pub fn paced_interval(rate_bps: u64) -> Duration {
    Duration::from_nanos((CHUNK_BYTES * 8 * 1_000_000_000) / rate_bps.max(1))
}

/// Mix `(cell seed, workload index, endpoint index)` into an
/// independent per-endpoint seed (splitmix64 finalizer over the
/// concatenation). Endpoints never share a generator, so adding one
/// endpoint cannot shift another's draw stream.
pub fn endpoint_seed(cell_seed: u64, workload: usize, endpoint: usize) -> u64 {
    let mut z = cell_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((workload as u64) << 32 | endpoint as u64)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Simulation granularity of a traffic workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficMode {
    /// Per-frame simulation through the switch fabric.
    Packet,
    /// One event per flow start/stop with modeled throughput.
    Flow,
}

/// The load shape a traffic workload generates.
#[derive(Clone, Debug, PartialEq)]
pub enum TrafficPattern {
    /// Open-loop request/response: each client sends Poisson requests,
    /// `rate_per_sec` a second on average, and asks the server for a
    /// response flow whose size is drawn from `response`.
    RequestResponse {
        clients: Vec<usize>,
        server: usize,
        rate_per_sec: f64,
        response: FlowSize,
    },
    /// `senders` synchronized onto one receiver (SCDP-style): every
    /// `period`, each sender blasts a flow drawn from `flow` at the
    /// receiver, `waves` times.
    Incast {
        senders: Vec<usize>,
        receiver: usize,
        flow: FlowSize,
        period: Duration,
        waves: u32,
    },
    /// One source paces a stream to every receiver (SRMCA-style
    /// multicast delivery, replicated at the source's access link).
    Multicast {
        source: usize,
        receivers: Vec<usize>,
        rate_bps: u64,
    },
}

impl TrafficPattern {
    /// Topology nodes hosting the pattern's endpoints, in host-slot
    /// allocation order. Senders/clients first, sinks after — except
    /// request/response and incast, whose single server/receiver slot
    /// is allocated last (mirroring `PingFanIn`).
    pub fn endpoint_nodes(&self) -> Vec<usize> {
        match self {
            TrafficPattern::RequestResponse {
                clients, server, ..
            } => {
                let mut v = clients.clone();
                v.push(*server);
                v
            }
            TrafficPattern::Incast {
                senders, receiver, ..
            } => {
                let mut v = senders.clone();
                v.push(*receiver);
                v
            }
            TrafficPattern::Multicast {
                source, receivers, ..
            } => {
                let mut v = vec![*source];
                v.extend(receivers);
                v
            }
        }
    }

    fn validate(&self) -> Result<(), WorkloadError> {
        let check_count = |n: usize, what: &'static str| {
            if n == 0 {
                Err(WorkloadError::NoEndpoints(what))
            } else if n > MAX_ENDPOINTS {
                Err(WorkloadError::TooManyEndpoints {
                    given: n,
                    max: MAX_ENDPOINTS,
                })
            } else {
                Ok(())
            }
        };
        match self {
            TrafficPattern::RequestResponse {
                clients,
                rate_per_sec,
                response,
                ..
            } => {
                check_count(clients.len(), "request/response needs clients")?;
                Exp::new(*rate_per_sec).map_err(WorkloadError::BadDistribution)?;
                response.validate()
            }
            TrafficPattern::Incast {
                senders,
                flow,
                period,
                waves,
                ..
            } => {
                check_count(senders.len(), "incast needs senders")?;
                flow.validate()?;
                if period.is_zero() {
                    return Err(WorkloadError::ZeroRate("incast wave period"));
                }
                if *waves == 0 {
                    return Err(WorkloadError::EmptyWindow);
                }
                Ok(())
            }
            TrafficPattern::Multicast {
                receivers,
                rate_bps,
                ..
            } => {
                check_count(receivers.len(), "multicast needs receivers")?;
                check_paced_rate(*rate_bps, "multicast stream rate")
            }
        }
    }
}

/// A paced stream must offer something, and no faster than a frame per
/// nanosecond: [`paced_interval`] rounds anything faster to zero, which
/// the flow model divides by and the packet-level pacer re-arms at.
fn check_paced_rate(rate_bps: u64, what: &'static str) -> Result<(), WorkloadError> {
    if rate_bps == 0 {
        Err(WorkloadError::ZeroRate(what))
    } else if paced_interval(rate_bps).is_zero() {
        Err(WorkloadError::ZeroInterval(what))
    } else {
        Ok(())
    }
}

/// Endpoint cap per traffic workload — bounds the MAC/subnet scheme
/// (the traffic MAC encodes the endpoint index in two bytes, but the
/// subnet third octet is the real ceiling).
pub const MAX_ENDPOINTS: usize = 120;

/// A fully-specified traffic workload, ready for
/// `Workload::traffic(..)`.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficConfig {
    pub pattern: TrafficPattern,
    pub mode: TrafficMode,
    /// When sources start offering load (simulated time from t = 0).
    /// Leave room for the cell's configuration phase: traffic into an
    /// unconfigured fabric is simply lost at packet level, while the
    /// flow model assumes a converged network.
    pub start_at: Duration,
    /// When sources stop offering load.
    pub stop_at: Duration,
}

impl TrafficConfig {
    pub fn new(pattern: TrafficPattern) -> TrafficConfig {
        TrafficConfig {
            pattern,
            mode: TrafficMode::Packet,
            start_at: Duration::from_secs(25),
            stop_at: Duration::from_secs(40),
        }
    }

    /// Switch to the flow-level abstraction.
    pub fn flow_level(mut self) -> Self {
        self.mode = TrafficMode::Flow;
        self
    }

    /// Offer load over `[start, start + duration)`.
    pub fn window(mut self, start: Duration, duration: Duration) -> Self {
        self.start_at = start;
        self.stop_at = start + duration;
        self
    }

    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.stop_at <= self.start_at {
            return Err(WorkloadError::EmptyWindow);
        }
        self.pattern.validate()
    }
}

/// Why a workload constructor rejected its parameters. Surfaced as a
/// failed matrix *cell* (`build_error = 1`), never a sweep panic: one
/// bad axis value must not take down the other few hundred cells.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkloadError {
    /// A pattern with an empty endpoint list.
    NoEndpoints(&'static str),
    /// More endpoints than the addressing scheme can host.
    TooManyEndpoints { given: usize, max: usize },
    /// A rate or period of zero.
    ZeroRate(&'static str),
    /// A paced rate so high that the interval between two frames rounds
    /// to zero nanoseconds.
    ZeroInterval(&'static str),
    /// `stop_at <= start_at`, or zero waves.
    EmptyWindow,
    /// A distribution with invalid parameters.
    BadDistribution(&'static str),
    /// The topology cannot host the requested endpoint placement.
    TopologyTooSmall { need: usize, have: usize },
    /// A topology name that does not parse (see
    /// [`rf_topo::TopoParseError`]) — carried here so a malformed grid
    /// axis value fails its cells, not the whole sweep.
    BadTopology(rf_topo::TopoParseError),
    /// A fault schedule that cannot apply to the cell's topology
    /// (out-of-range node/edge index, loss outside `[0,100]`, empty
    /// stall window — see [`crate::scenario::FaultError`]).
    BadFault(crate::scenario::FaultError),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::NoEndpoints(what) => write!(f, "{what}"),
            WorkloadError::TooManyEndpoints { given, max } => {
                write!(f, "{given} endpoints exceed the per-workload cap of {max}")
            }
            WorkloadError::ZeroRate(what) => write!(f, "{what} must be positive"),
            WorkloadError::ZeroInterval(what) => {
                write!(f, "{what} paces frames less than a nanosecond apart")
            }
            WorkloadError::EmptyWindow => write!(f, "traffic window is empty"),
            WorkloadError::BadDistribution(what) => write!(f, "bad distribution: {what}"),
            WorkloadError::TopologyTooSmall { need, have } => {
                write!(f, "workload needs {need} nodes, topology has {have}")
            }
            WorkloadError::BadTopology(err) => write!(f, "{err}"),
            WorkloadError::BadFault(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

impl From<crate::scenario::FaultError> for WorkloadError {
    fn from(err: crate::scenario::FaultError) -> WorkloadError {
        WorkloadError::BadFault(err)
    }
}

impl From<rf_topo::TopoParseError> for WorkloadError {
    fn from(err: rf_topo::TopoParseError) -> WorkloadError {
        WorkloadError::BadTopology(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_math() {
        assert_eq!(frames_for(1), 1);
        assert_eq!(frames_for(1024), 1);
        assert_eq!(frames_for(1025), 2);
        assert_eq!(wire_bytes(1024), 1024 + 32 + 42);
        assert_eq!(wire_bytes(2048), 2048 + 2 * (32 + 42));
        assert_eq!(chunk_wire_bytes(), 1098);
        // 1 Mbps of payload: one 1024-byte chunk every 8.192 ms.
        assert_eq!(paced_interval(1_000_000), Duration::from_nanos(8_192_000));
    }

    #[test]
    fn endpoint_seeds_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for w in 0..4 {
            for e in 0..16 {
                assert!(seen.insert(endpoint_seed(7, w, e)));
            }
        }
        assert_eq!(endpoint_seed(7, 1, 2), endpoint_seed(7, 1, 2));
        assert_ne!(endpoint_seed(7, 1, 2), endpoint_seed(8, 1, 2));
    }

    #[test]
    fn validation_catches_bad_axes() {
        let empty = TrafficPattern::Incast {
            senders: vec![],
            receiver: 0,
            flow: FlowSize::fixed(1000),
            period: Duration::from_secs(1),
            waves: 3,
        };
        assert_eq!(
            TrafficConfig::new(empty).validate(),
            Err(WorkloadError::NoEndpoints("incast needs senders"))
        );
        let zero_rate = TrafficPattern::Multicast {
            source: 0,
            receivers: vec![1, 2],
            rate_bps: 0,
        };
        assert!(matches!(
            TrafficConfig::new(zero_rate).validate(),
            Err(WorkloadError::ZeroRate(_))
        ));
        let ok = TrafficPattern::Multicast {
            source: 0,
            receivers: vec![1, 2],
            rate_bps: 1_000_000,
        };
        let inverted = TrafficConfig::new(ok).window(Duration::from_secs(10), Duration::ZERO);
        assert_eq!(inverted.validate(), Err(WorkloadError::EmptyWindow));
    }
}
