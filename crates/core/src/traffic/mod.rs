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
//! A workload is described once, by a topology-free [`TrafficSpec`]
//! (shape, granularity, offered-load window), and placed on a topology
//! by [`Workload::traffic`], which checks it in the same call. Both
//! engines read the spec and the placed endpoint nodes.
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
//!
//! [`Workload::traffic`]: crate::scenario::Workload::traffic

pub mod demand;
pub mod flow;
pub mod packet;
pub mod report;
pub mod spec;

pub use demand::{ArrivalStream, FlowSize, WaveStream};
pub use flow::FlowLevelEngine;
pub use report::{percentile, TrafficReport};
pub use spec::{TrafficShape, TrafficSpec};

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

/// Cap on a traffic workload's fan (clients, senders or receivers;
/// placement takes no more) — bounds the MAC/subnet scheme
/// (the traffic MAC encodes the endpoint index in two bytes, but the
/// subnet third octet is the real ceiling).
pub const MAX_ENDPOINTS: usize = 120;

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
        let placed =
            |spec: TrafficSpec| crate::scenario::Workload::traffic(spec, &rf_topo::ring(4)).err();
        let incast = |senders| {
            TrafficSpec::incast(senders, FlowSize::fixed(1000), Duration::from_secs(1), 3)
        };
        assert_eq!(
            placed(incast(0)),
            Some(WorkloadError::NoEndpoints("incast needs senders"))
        );
        assert_eq!(
            placed(TrafficSpec::multicast(2, 0)),
            Some(WorkloadError::ZeroRate("multicast stream rate"))
        );
        // The window is checked first, before the empty sender list.
        let inverted = incast(0).window(Duration::from_secs(10), Duration::ZERO);
        assert_eq!(placed(inverted), Some(WorkloadError::EmptyWindow));
    }
}
