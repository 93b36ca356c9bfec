//! The embeddable RPC-server half.
//!
//! The RPC server "resides in the RF-controller", so rather than being
//! its own agent it is a state machine the RF-controller embeds: feed
//! it stream bytes, get back the requests and an ack frame for each.

use crate::codec::{encode_envelope, Envelope, RpcFrameReader};
use crate::msg::{RpcAck, RpcRequest};
use bytes::Bytes;

/// Decodes RPC requests and encodes their acks.
///
/// The relay forwards each request once over one stream that never
/// closes, so every request decoded is delivered.
#[derive(Clone, Default)]
pub struct RpcServerEndpoint {
    reader: RpcFrameReader,
    pub decode_errors: u64,
}

impl RpcServerEndpoint {
    pub fn new() -> RpcServerEndpoint {
        RpcServerEndpoint::default()
    }

    /// Feed raw stream bytes, copied once into a chunk of their own.
    /// Returns `(requests, ack_frames)`: every well-formed request
    /// appears in `requests` and produces an ack frame.
    pub fn feed(&mut self, data: &[u8]) -> (Vec<RpcRequest>, Vec<Bytes>) {
        self.feed_bytes(Bytes::copy_from_slice(data))
    }

    /// [`RpcServerEndpoint::feed`] over an owned chunk (zero-copy).
    pub fn feed_bytes(&mut self, data: Bytes) -> (Vec<RpcRequest>, Vec<Bytes>) {
        self.reader.push_bytes(data);
        self.drain_frames()
    }

    fn drain_frames(&mut self) -> (Vec<RpcRequest>, Vec<Bytes>) {
        let mut requests = Vec::new();
        let mut acks = Vec::new();
        loop {
            match self.reader.next() {
                Some(Ok(Envelope::Request { req_id, request })) => {
                    acks.push(encode_envelope(&Envelope::Ack(RpcAck { req_id, ok: true })));
                    requests.push(request);
                }
                Some(Ok(Envelope::Ack(_))) => { /* servers ignore stray acks */ }
                Some(Err(_)) => {
                    self.decode_errors += 1;
                }
                None => break,
            }
        }
        (requests, acks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req_frame(req_id: u64) -> Bytes {
        encode_envelope(&Envelope::Request {
            req_id,
            request: RpcRequest::SwitchDetected {
                dpid: req_id,
                num_ports: 2,
            },
        })
    }

    #[test]
    fn acks_every_request_delivers_once() {
        let mut s = RpcServerEndpoint::new();
        let (fresh, acks) = s.feed(&req_frame(1));
        assert_eq!(fresh.len(), 1);
        assert_eq!(acks.len(), 1);
    }

    #[test]
    fn handles_split_frames() {
        let mut s = RpcServerEndpoint::new();
        let frame = req_frame(9);
        let (f1, a1) = s.feed(&frame[..5]);
        assert!(f1.is_empty() && a1.is_empty());
        let (f2, a2) = s.feed(&frame[5..]);
        assert_eq!(f2.len(), 1);
        assert_eq!(a2.len(), 1);
    }

    #[test]
    fn multiple_requests_in_one_chunk() {
        let mut s = RpcServerEndpoint::new();
        let mut stream = req_frame(1).to_vec();
        stream.extend_from_slice(&req_frame(2));
        stream.extend_from_slice(&req_frame(3));
        let (fresh, acks) = s.feed(&stream);
        assert_eq!(fresh.len(), 3);
        assert_eq!(acks.len(), 3);
    }
}
