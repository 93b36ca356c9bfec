//! The unacked-request queue both RPC senders keep: the topology
//! controller toward the relay, and the relay toward the RPC server.

use crate::codec::{encode_envelope, Envelope};
use crate::msg::RpcRequest;
use bytes::Bytes;
use std::collections::VecDeque;

/// Requests awaiting their ack on a stream that may reconnect.
///
/// Ids are assigned ascending in [`Outbox::push`] order and entries only
/// leave through [`Outbox::ack`], so the queue stays sorted by id: an
/// ack is a binary search (the front entry, when acks arrive in order)
/// and a flush starts at the first entry not yet sent, instead of both
/// scanning the whole backlog.
#[derive(Clone, Default)]
pub struct Outbox {
    /// `(req_id, encoded request envelope)`, ascending by `req_id`.
    pending: VecDeque<(u64, Bytes)>,
    /// Ids handed out so far; the first request gets id 1.
    issued: u64,
    /// `pending[..unsent_from]` went out since the last [`Outbox::rewind`].
    unsent_from: usize,
}

impl Outbox {
    pub fn new() -> Outbox {
        Outbox::default()
    }

    /// Queue `request` under the next id.
    pub fn push(&mut self, request: RpcRequest) {
        self.issued += 1;
        let req_id = self.issued;
        let frame = encode_envelope(&Envelope::Request { req_id, request });
        self.pending.push_back((req_id, frame));
    }

    /// Drop the entry `req_id` acknowledges. False for an id that is
    /// not (or no longer) queued.
    pub fn ack(&mut self, req_id: u64) -> bool {
        let Ok(i) = self.pending.binary_search_by_key(&req_id, |(id, _)| *id) else {
            return false;
        };
        self.pending.remove(i);
        if i < self.unsent_from {
            self.unsent_from -= 1;
        }
        true
    }

    /// Has anything still queued been sent since the last rewind?
    pub fn awaits_ack(&self) -> bool {
        self.unsent_from > 0
    }

    /// Everything still queued is to be sent again: the stream
    /// reconnected, or the retransmission timer fired.
    pub fn rewind(&mut self) {
        self.unsent_from = 0;
    }

    /// The frames not yet sent, in id order; they count as sent from
    /// here on.
    pub fn take_unsent(&mut self) -> impl Iterator<Item = Bytes> + '_ {
        let from = std::mem::replace(&mut self.unsent_from, self.pending.len());
        self.pending.range(from..).map(|(_, frame)| frame.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode_envelope;

    fn ids(frames: impl Iterator<Item = Bytes>) -> Vec<u64> {
        frames
            .map(|f| match decode_envelope(&f).unwrap() {
                Envelope::Request { req_id, .. } => req_id,
                Envelope::Ack(_) => panic!("outbox holds requests only"),
            })
            .collect()
    }

    fn filled(n: u64) -> Outbox {
        let mut o = Outbox::new();
        for dpid in 0..n {
            o.push(RpcRequest::SwitchRemoved { dpid });
        }
        o
    }

    #[test]
    fn each_entry_goes_out_once_until_rewound() {
        let mut o = filled(3);
        assert_eq!(ids(o.take_unsent()), vec![1, 2, 3]);
        assert_eq!(ids(o.take_unsent()), Vec::<u64>::new());
        o.push(RpcRequest::SwitchRemoved { dpid: 9 });
        assert_eq!(ids(o.take_unsent()), vec![4]);
        o.rewind();
        assert_eq!(ids(o.take_unsent()), vec![1, 2, 3, 4]);
    }

    #[test]
    fn acks_in_any_order_keep_the_send_cursor_on_the_same_entry() {
        let mut o = filled(4);
        assert_eq!(ids(o.take_unsent()), vec![1, 2, 3, 4]);
        o.push(RpcRequest::SwitchRemoved { dpid: 9 });
        assert!(o.ack(3));
        assert!(!o.ack(3), "a repeated ack finds nothing");
        assert!(!o.ack(77), "nor does an unknown id");
        assert!(o.ack(1));
        assert!(o.awaits_ack());
        assert_eq!(ids(o.take_unsent()), vec![5]);
        // An ack may overtake the send of its own entry.
        o.push(RpcRequest::SwitchRemoved { dpid: 10 });
        assert!(o.ack(6));
        assert_eq!(ids(o.take_unsent()), Vec::<u64>::new());
        o.rewind();
        assert!(!o.awaits_ack());
        assert_eq!(ids(o.take_unsent()), vec![2, 4, 5]);
    }
}
