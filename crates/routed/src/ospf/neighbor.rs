//! Neighbor state (RFC 2328 §10) for point-to-point interfaces.

use super::lsa::LsaKey;
use rf_sim::Time;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// Neighbor FSM states. `TwoWay` is skipped on point-to-point links —
/// bidirectional communication goes straight to `ExStart` (RFC 2328
/// §10.4: p2p interfaces always form adjacencies).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum NeighborState {
    Down,
    Init,
    ExStart,
    Exchange,
    Loading,
    Full,
}

/// Per-neighbor adjacency state.
#[derive(Clone, Debug)]
pub struct Neighbor {
    /// The neighbor's router id.
    pub id: u32,
    /// Its interface address on this link (source of its packets).
    pub addr: Ipv4Addr,
    pub state: NeighborState,
    /// Last time any OSPF packet arrived from it (inactivity timer).
    pub last_heard: Time,
    /// Master/slave for the DBD exchange: higher router id is master.
    pub we_are_master: bool,
    /// DD sequence number in use.
    pub dd_seq: u32,
    /// LSAs to request (Loading).
    pub ls_requests: BTreeSet<LsaKey>,
    /// LSAs flooded but not yet acked (retransmission list).
    pub retransmit: BTreeSet<LsaKey>,
    /// Next retransmission deadline (DBD in ExStart/Exchange, LSR in
    /// Loading, LSU retransmissions in Exchange+).
    pub next_rxmt: Time,
}

impl Neighbor {
    pub fn new(id: u32, addr: Ipv4Addr, now: Time) -> Neighbor {
        Neighbor {
            id,
            addr,
            state: NeighborState::Init,
            last_heard: now,
            we_are_master: false,
            dd_seq: 0,
            ls_requests: BTreeSet::new(),
            retransmit: BTreeSet::new(),
            next_rxmt: Time::MAX,
        }
    }

    /// Adjacency is usable for flooding from Exchange onward.
    pub fn floods(&self) -> bool {
        self.state >= NeighborState::Exchange
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_ordering_matches_fsm_progression() {
        assert!(NeighborState::Down < NeighborState::Init);
        assert!(NeighborState::Init < NeighborState::ExStart);
        assert!(NeighborState::ExStart < NeighborState::Exchange);
        assert!(NeighborState::Exchange < NeighborState::Loading);
        assert!(NeighborState::Loading < NeighborState::Full);
    }

    #[test]
    fn flooding_eligibility() {
        let mut n = Neighbor::new(1, Ipv4Addr::new(10, 0, 0, 2), Time::ZERO);
        assert!(!n.floods());
        n.state = NeighborState::Exchange;
        assert!(n.floods());
        n.state = NeighborState::Full;
        assert!(n.floods());
    }
}
