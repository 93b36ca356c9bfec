//! Stream reassembly for length-delimited protocols.
//!
//! The control channels (OpenFlow, RPC, RF-proto) deliver arbitrary
//! byte chunks; each protocol's header says how long the frame at the
//! head of the stream is. [`FrameBuf`] owns the buffering and hands out
//! one complete frame at a time; the protocol supplies only that
//! length rule.

use bytes::{Bytes, BytesMut};

/// Incremental frame reassembler.
///
/// Two representations, one at a time: the common case — each stream
/// chunk carrying whole frames — keeps the chunk as [`Bytes`] and
/// yields zero-copy slices of it; only a chunk ending mid-frame falls
/// back to the accumulation buffer (`buf`), which pays the copies. The
/// observable frame sequence is identical either way.
///
/// A frame that is all that is left of its chunk *is* the chunk, moved
/// out: the reader keeps no handle on the storage, so whoever receives
/// a one-message chunk is its only owner and may patch it where it
/// lies (`Bytes::try_into_mut`).
#[derive(Clone, Default)]
pub struct FrameBuf {
    /// Unconsumed tail of the most recent chunk (fast path). Invariant:
    /// `Some` and non-empty only while `buf` is empty.
    chunk: Option<Bytes>,
    /// Reassembly buffer for fragmented input (slow path).
    buf: BytesMut,
}

impl FrameBuf {
    /// Feed raw bytes from the stream.
    pub fn push(&mut self, data: &[u8]) {
        self.spill();
        self.buf.extend_from_slice(data);
    }

    /// Feed a whole stream chunk, keeping it zero-copy when the buffer
    /// is drained (the overwhelmingly common case: one `conn_send` per
    /// message, delivered as one chunk).
    pub fn push_bytes(&mut self, data: Bytes) {
        if self.buf.is_empty() && self.chunk.is_none() {
            self.chunk = Some(data).filter(|d| !d.is_empty());
        } else {
            self.spill();
            self.buf.extend_from_slice(&data);
        }
    }

    /// Move any fast-path remainder into the accumulation buffer.
    fn spill(&mut self) {
        if let Some(chunk) = self.chunk.take() {
            self.buf.extend_from_slice(&chunk);
        }
    }

    /// Bytes currently buffered (diagnostics).
    pub fn buffered(&self) -> usize {
        self.chunk.as_ref().map_or(0, |c| c.len()) + self.buf.len()
    }

    /// Drop everything buffered.
    pub fn clear(&mut self) {
        self.chunk = None;
        self.buf.clear();
    }

    /// Split the next complete frame off the stream.
    ///
    /// `frame_len` sees the bytes buffered so far and answers with the
    /// total length (header included, at least 1) of the frame at their
    /// head, `Ok(None)` while the header itself is incomplete, or an
    /// error when the header cannot be framed at all — the stream is
    /// then unrecoverable, so the buffer is dropped and the error
    /// surfaced.
    #[inline]
    pub fn take_frame<E>(
        &mut self,
        frame_len: impl FnOnce(&[u8]) -> Result<Option<usize>, E>,
    ) -> Result<Option<Bytes>, E> {
        let avail: &[u8] = match &self.chunk {
            Some(chunk) => chunk,
            None => &self.buf,
        };
        let need = match frame_len(avail) {
            Ok(Some(need)) if need <= avail.len() => need,
            Ok(_) => return Ok(None),
            Err(e) => {
                self.clear();
                return Err(e);
            }
        };
        debug_assert!(need > 0, "a zero-length frame would never drain");
        if let Some(whole) = self.chunk.take_if(|c| c.len() == need) {
            return Ok(Some(whole));
        }
        Ok(Some(match &mut self.chunk {
            Some(chunk) => chunk.split_to(need),
            None => self.buf.split_to(need).freeze(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    /// Toy protocol: one length byte counting the payload after it;
    /// 0xFF is an unframeable header.
    fn rule(avail: &[u8]) -> Result<Option<usize>, &'static str> {
        match avail.first() {
            None => Ok(None),
            Some(0xFF) => Err("bad header"),
            Some(&n) => Ok(Some(1 + n as usize)),
        }
    }

    /// Two-byte big-endian length header, counting the payload.
    fn wide_rule(avail: &[u8]) -> Result<Option<usize>, Infallible> {
        Ok((avail.len() >= 2).then(|| 2 + u16::from_be_bytes([avail[0], avail[1]]) as usize))
    }

    fn drain(fb: &mut FrameBuf) -> Vec<Vec<u8>> {
        std::iter::from_fn(|| fb.take_frame(rule).unwrap().map(|f| f.to_vec())).collect()
    }

    #[test]
    fn whole_chunk_is_handed_back_without_copying() {
        let mut fb = FrameBuf::default();
        let chunk = Bytes::from(vec![3, b'a', b'b', b'c']);
        fb.push_bytes(chunk.clone());
        let frame = fb.take_frame(rule).unwrap().unwrap();
        assert_eq!(frame, chunk);
        // Same storage, not a copy.
        assert_eq!(frame.as_ptr(), chunk.as_ptr());
        assert_eq!(fb.buffered(), 0);
        assert_eq!(fb.take_frame(rule), Ok(None));
    }

    #[test]
    fn a_one_frame_chunk_leaves_the_reader_entirely() {
        let mut fb = FrameBuf::default();
        let chunk = Bytes::from(vec![3, b'a', b'b', b'c']);
        let storage = chunk.as_ptr();
        fb.push_bytes(chunk);
        let frame = fb.take_frame(rule).unwrap().unwrap();
        assert_eq!(frame.as_ptr(), storage);
        // No other handle is alive: the storage can be written.
        let mut open = frame.try_into_mut().expect("sole owner");
        open[1] = b'z';
        assert_eq!(open.freeze().as_ptr(), storage);
    }

    #[test]
    fn the_last_frame_of_a_chunk_is_owned_once_the_others_are_dropped() {
        let mut fb = FrameBuf::default();
        fb.push_bytes(Bytes::from(vec![1, b'x', 2, b'y', b'z']));
        let first = fb.take_frame(rule).unwrap().unwrap();
        let second = fb.take_frame(rule).unwrap().unwrap();
        assert_eq!(fb.buffered(), 0);
        let second = second.try_into_mut().expect_err("the first frame is alive");
        drop(first);
        assert_eq!(&second.try_into_mut().expect("sole owner")[..], b"\x02yz");
    }

    #[test]
    fn several_frames_per_chunk() {
        let mut fb = FrameBuf::default();
        fb.push_bytes(Bytes::from(vec![1, b'x', 0, 2, b'y', b'z']));
        assert_eq!(
            drain(&mut fb),
            vec![vec![1, b'x'], vec![0], vec![2, b'y', b'z']]
        );
        assert_eq!(fb.buffered(), 0);
    }

    #[test]
    fn frame_split_across_three_pushes() {
        let mut fb = FrameBuf::default();
        fb.push_bytes(Bytes::from(vec![4, b'a']));
        assert_eq!(fb.take_frame(rule), Ok(None));
        fb.push(b"bc");
        assert_eq!(fb.take_frame(rule), Ok(None));
        assert_eq!(fb.buffered(), 4);
        // The last piece also carries the start of the next frame.
        fb.push_bytes(Bytes::from(vec![b'd', 1]));
        assert_eq!(drain(&mut fb), vec![vec![4, b'a', b'b', b'c', b'd']]);
        assert_eq!(fb.buffered(), 1);
        fb.push(b"e");
        assert_eq!(drain(&mut fb), vec![vec![1, b'e']]);
    }

    #[test]
    fn header_split_across_two_pushes() {
        let mut fb = FrameBuf::default();
        fb.push_bytes(Bytes::from(vec![0]));
        assert_eq!(fb.take_frame(wide_rule), Ok(None));
        fb.push_bytes(Bytes::from(vec![2, b'h', b'i']));
        let frame = fb.take_frame(wide_rule).unwrap().unwrap();
        assert_eq!(&frame[..], &[0, 2, b'h', b'i']);
        assert_eq!(fb.take_frame(wide_rule), Ok(None));
    }

    #[test]
    fn framing_error_leaves_the_buffer_empty() {
        for fragmented in [false, true] {
            let mut fb = FrameBuf::default();
            if fragmented {
                fb.push(&[1]);
                fb.push(&[b'k', 0xFF, 9, 9]);
            } else {
                fb.push_bytes(Bytes::from(vec![1, b'k', 0xFF, 9, 9]));
            }
            assert_eq!(fb.take_frame(rule).unwrap().unwrap(), [1, b'k'][..]);
            assert_eq!(fb.take_frame(rule), Err("bad header"));
            assert_eq!(fb.buffered(), 0);
            assert_eq!(fb.take_frame(rule), Ok(None));
        }
    }
}
