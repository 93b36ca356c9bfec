//! Stream framing: reassemble OpenFlow messages from a TCP byte stream.
//!
//! The control channel delivers arbitrary byte chunks; `ofp_header.length`
//! delimits messages. [`MessageReader`] buffers partial input and yields
//! complete messages, the same job `ofpbuf` does inside Open vSwitch.

use crate::header::{OfHeader, OFP_HEADER_LEN};
use crate::messages::OfMessage;
use crate::OfError;
use bytes::{Bytes, BytesMut};
use rf_wire::FrameBuf;

/// Re-frame `raw` — a complete encoded message — under a different
/// transaction id: one patched field. Because the encoder is canonical
/// (every message in the simulation was produced by
/// [`OfMessage::encode`]), this equals `decode(raw)` re-encoded with
/// `xid`, which is exactly what a proxy rewriting xids needs.
///
/// The four bytes are written where the message lies when `raw` is the
/// only handle to its storage — a proxy passing on the one message of
/// a chunk it received — and into a copy when anything else can still
/// read it: a template the caller keeps (pass a clone), a message that
/// shared its chunk with others, a decoded [`OfMessage`] whose tail
/// still points into it.
pub fn reframe_with_xid(raw: Bytes, xid: u32) -> Bytes {
    debug_assert!(raw.len() >= OFP_HEADER_LEN);
    let mut out = raw
        .try_into_mut()
        .unwrap_or_else(|shared| BytesMut::from(&shared[..]));
    out[4..8].copy_from_slice(&xid.to_be_bytes());
    out.freeze()
}

/// Incremental OpenFlow message reassembler: [`FrameBuf`] framed by
/// `ofp_header.length`.
#[derive(Clone, Default)]
pub struct MessageReader {
    frames: FrameBuf,
}

impl MessageReader {
    pub fn new() -> MessageReader {
        MessageReader::default()
    }

    /// Feed a whole stream chunk, zero-copy when the reader is drained.
    pub fn push_bytes(&mut self, data: Bytes) {
        self.frames.push_bytes(data);
    }

    /// Pop the next complete message, if any. Decoding errors consume
    /// the offending message's bytes (resynchronizing on the length
    /// field) and surface the error.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Result<(OfMessage, u32), OfError>> {
        self.next_frame().map(|raw| OfMessage::decode_bytes(&raw?))
    }

    /// Pop the next complete message undecoded: its exact wire bytes,
    /// `ofp_header.length` of them. A proxy that forwards a message
    /// unmodified (or with only a patched xid) reuses them instead of
    /// paying a re-encode — our encoder is canonical, so they equal
    /// `msg.encode(xid)` of what they decode to — and the one message
    /// of a one-message chunk comes out as that chunk's only handle
    /// (see [`reframe_with_xid`]). A header that does not parse is
    /// unrecoverable framing: the buffer is dropped with the error.
    pub fn next_frame(&mut self) -> Option<Result<Bytes, OfError>> {
        let frame = self.frames.take_frame(|avail| {
            if avail.len() < OFP_HEADER_LEN {
                return Ok(None);
            }
            OfHeader::parse(avail).map(|h| Some(h.length as usize))
        });
        frame.transpose()
    }

    /// Bytes currently buffered (diagnostics).
    pub fn buffered(&self) -> usize {
        self.frames.buffered()
    }

    /// Drain all complete messages, stopping at the first error.
    pub fn drain(&mut self) -> Result<Vec<(OfMessage, u32)>, OfError> {
        let mut out = Vec::new();
        while let Some(r) = self.next() {
            out.push(r?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn single_message() {
        let mut r = MessageReader::new();
        r.push_bytes(OfMessage::Hello.encode(7));
        let (msg, xid) = r.next().unwrap().unwrap();
        assert_eq!(msg, OfMessage::Hello);
        assert_eq!(xid, 7);
        assert!(r.next().is_none());
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn coalesced_messages() {
        let mut r = MessageReader::new();
        let mut stream = Vec::new();
        stream.extend_from_slice(&OfMessage::Hello.encode(1));
        stream.extend_from_slice(&OfMessage::FeaturesRequest.encode(2));
        let features = crate::SwitchFeatures {
            datapath_id: 3,
            num_ports: 2,
        };
        stream.extend_from_slice(&OfMessage::FeaturesReply(features).encode(3));
        r.push_bytes(Bytes::from(stream));
        let msgs = r.drain().unwrap();
        assert_eq!(msgs.len(), 3);
        assert_eq!(msgs[1], (OfMessage::FeaturesRequest, 2));
    }

    #[test]
    fn error_resynchronizes() {
        let mut r = MessageReader::new();
        // A well-formed header with an unknown reason byte inside
        // PACKET_IN: decode error, but length-delimited, so the next
        // message survives.
        let mut bad = OfMessage::PacketIn {
            buffer_id: 1,
            total_len: 4,
            in_port: 1,
            reason: crate::messages::PacketInReason::NoMatch,
            data: Bytes::from_static(b"abcd"),
        }
        .encode(1)
        .to_vec();
        bad[16] = 99; // reason byte → invalid
        r.push_bytes(Bytes::from(bad));
        r.push_bytes(OfMessage::Hello.encode(2));
        assert!(r.next().unwrap().is_err());
        assert_eq!(r.next().unwrap().unwrap(), (OfMessage::Hello, 2));
    }

    #[test]
    fn garbage_clears_buffer() {
        let mut r = MessageReader::new();
        r.push_bytes(Bytes::from_static(&[0xFF; 32])); // bad version
        assert!(r.next().unwrap().is_err());
        assert_eq!(r.buffered(), 0);
    }
}
