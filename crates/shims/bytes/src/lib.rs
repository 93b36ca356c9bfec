//! Offline stand-in for the `bytes` crate: the subset of its API this
//! workspace uses, with the same semantics (big-endian integer codecs,
//! cheap `Bytes` clones, front-consuming `Buf` reads on `BytesMut`).
//! Everything here exists in `bytes` 1.0 except [`Bytes::try_into_mut`],
//! which the real crate has from 1.6 on.
//!
//! The container this workspace builds in has no crates.io access, so
//! the real `bytes` crate cannot be vendored; this shim keeps the
//! dependency surface identical so swapping the real crate back in is a
//! one-line Cargo change.
//!
//! # One block per buffer
//!
//! A buffer is one heap allocation, as in the real crate: a 16-byte
//! header — an atomic reference count and the capacity — followed by
//! the bytes. [`BytesMut::with_capacity`] makes that block and
//! [`BytesMut::freeze`] turns it into a [`Bytes`] by a move, so a frame
//! or message built into a sized buffer costs one `malloc`. Clones,
//! slices and splits of a `Bytes` bump the count; [`Bytes::try_into_mut`]
//! takes the block back when the count is 1, which is how a routed hop
//! patches MACs and a forwarded control message its xid where they lie.
//! Growth past the capacity `realloc`s the whole block. The empty
//! buffers ([`Bytes::new`], [`BytesMut::new`]) point at a static header
//! and allocate nothing.
//!
//! The handle stays 16 bytes — a pointer to the header and two `u32`
//! offsets — because the header sits *in* the block: a safe single
//! block (`Arc<[u8]>`) is a fat pointer and would make it 24, and a
//! `Bytes` rides in every queued simulator event. `Option<Bytes>` is 16
//! bytes too, and a `BytesMut` (pointer, length, capacity) is 24.
//!
//! The count is ordered as `Arc`'s: `Relaxed` increment, `Release`
//! decrement with an `Acquire` fence before the free, and an `Acquire`
//! load for the uniqueness check in `try_into_mut`. It is atomic
//! because `Bytes` is `Send + Sync`. All `unsafe` code is in the private
//! `block` module, each block with its `SAFETY:` argument.
//!
//! `From<Vec<u8>>`, `From<&[u8]>`, [`Bytes::copy_from_slice`] and
//! [`Bytes::from_static`] copy into a fresh block (one allocation);
//! hot paths build into a sized `BytesMut` instead.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

mod block;

pub use block::{Bytes, BytesMut};

use std::fmt;
use std::hash::{Hash, Hasher};

#[cfg(target_pointer_width = "64")]
const _: () = {
    assert!(std::mem::size_of::<Bytes>() == 16);
    assert!(std::mem::size_of::<Option<Bytes>>() == 16);
    assert!(std::mem::size_of::<BytesMut>() == 24);
};

/// Shared `Debug` body for `Bytes`/`BytesMut`: hex dump capped at 32
/// bytes, matching the readability of the real crate's output.
macro_rules! fmt_bytes_debug {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "b\"")?;
            for &b in self.iter().take(32) {
                write!(f, "\\x{b:02x}")?;
            }
            if self.len() > 32 {
                write!(f, "..{} bytes", self.len())?;
            }
            write!(f, "\"")
        }
    };
}

impl Bytes {
    pub fn from_static(s: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }

    pub fn copy_from_slice(s: &[u8]) -> Bytes {
        BytesMut::from(s).freeze()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        self.view(lo, hi)
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self[..].to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::copy_from_slice(&v)
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Bytes {
        b.freeze()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self[..].cmp(&other[..])
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl fmt::Debug for Bytes {
    fmt_bytes_debug!();
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl BytesMut {
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&mut self) {
        self.truncate(0);
    }

    pub fn resize(&mut self, new_len: usize, value: u8) {
        match new_len.checked_sub(self.len()) {
            Some(more) => self.fill(value, more),
            None => self.truncate(new_len),
        }
    }

    /// Remove and return the first `at` bytes.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        let head = BytesMut::from(&self[..at]);
        self.advance(at);
        head
    }

    /// Remove and return everything after `at`.
    pub fn split_off(&mut self, at: usize) -> BytesMut {
        let tail = BytesMut::from(&self[at..]);
        self.truncate(at);
        tail
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self[..].to_vec()
    }
}

impl Default for BytesMut {
    fn default() -> BytesMut {
        BytesMut::new()
    }
}

/// A buffer of its own, sized to the contents as a `Vec` clone is.
impl Clone for BytesMut {
    fn clone(&self) -> BytesMut {
        BytesMut::from(&self[..])
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &BytesMut) -> bool {
        self[..] == other[..]
    }
}
impl Eq for BytesMut {}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> BytesMut {
        let mut b = BytesMut::with_capacity(s.len());
        b.extend_from_slice(s);
        b
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(v: Vec<u8>) -> BytesMut {
        BytesMut::from(&v[..])
    }
}

impl fmt::Debug for BytesMut {
    fmt_bytes_debug!();
}

/// Read cursor over a byte source. Integer reads are big-endian, as in
/// the real `bytes` crate.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        let n = dst.len();
        dst.copy_from_slice(&self.chunk()[..n]);
        self.advance(n);
    }

    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_be_bytes(b)
    }

    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }

    fn get_i32(&mut self) -> i32 {
        self.get_u32() as i32
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "buffer underflow");
        *self = &self[cnt..];
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        self.skip(cnt);
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "buffer underflow");
        self.copy_within(cnt.., 0);
        self.truncate(self.len() - cnt);
    }
}

/// Write cursor. Integer writes are big-endian.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_i32(&mut self, v: i32) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Write `cnt` copies of `val`.
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        for _ in 0..cnt {
            self.put_u8(val);
        }
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
    #[inline]
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.fill(val, cnt);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
    /// One fill, not `cnt` one-byte appends.
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.resize(self.len() + cnt, val);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_ints_are_big_endian() {
        let mut b = BytesMut::new();
        b.put_u8(1);
        b.put_u16(0x0203);
        b.put_u32(0x0405_0607);
        b.put_u64(0x0809_0a0b_0c0d_0e0f);
        assert_eq!(&b[..3], &[1, 2, 3]);
        let mut r = &b[..];
        assert_eq!(r.get_u8(), 1);
        assert_eq!(r.get_u16(), 0x0203);
        assert_eq!(r.get_u32(), 0x0405_0607);
        assert_eq!(r.get_u64(), 0x0809_0a0b_0c0d_0e0f);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn bytesmut_buf_consumes_front() {
        let mut b = BytesMut::from(&[9u8, 8, 7, 6][..]);
        assert_eq!(b.get_u8(), 9);
        assert_eq!(b.len(), 3);
        b.advance(1);
        assert_eq!(&b[..], &[7, 6]);
    }

    #[test]
    fn bytes_split_and_slice() {
        let mut b = Bytes::from(vec![0u8, 1, 2, 3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(&head[..], &[0, 1]);
        assert_eq!(&b[..], &[2, 3, 4, 5]);
        let tail = b.split_off(2);
        assert_eq!(&b[..], &[2, 3]);
        assert_eq!(&tail[..], &[4, 5]);
        assert_eq!(&tail.slice(1..2)[..], &[5]);
    }

    #[test]
    fn put_bytes_fills() {
        let mut b = BytesMut::from(&[1u8][..]);
        b.put_bytes(7, 3);
        b.put_bytes(9, 0);
        assert_eq!(&b[..], &[1, 7, 7, 7]);
    }

    #[test]
    fn try_into_mut_needs_the_only_handle() {
        let b = Bytes::from(vec![1u8, 2, 3, 4]);
        let held = b.clone();
        let b = b.try_into_mut().expect_err("a clone is alive");
        drop(held);
        let tail = b.slice(1..3);
        let b = b.try_into_mut().expect_err("a slice is alive");
        drop(b);
        // The view, not the storage behind it, is what comes back.
        let mut m = tail.try_into_mut().expect("last handle");
        assert_eq!(&m[..], &[2, 3]);
        m[0] = 9;
        assert_eq!(&m.freeze()[..], &[9, 3]);
    }

    #[test]
    fn a_patched_buffer_is_edited_where_it_lies() {
        let b = Bytes::from(vec![1u8, 2, 3, 4]);
        let storage = b.as_ptr();
        let mut m = b.try_into_mut().expect("only handle");
        m[1] = 9;
        let b = m.freeze();
        assert_eq!(&b[..], &[1, 9, 3, 4]);
        assert_eq!(b.as_ptr(), storage, "edited where it lay");
        // A clone taken after the freeze shares the storage, and while
        // it, a slice or a split lives the buffer is not writable.
        let clone = b.clone();
        assert_eq!(clone.as_ptr(), storage);
        let b = b.try_into_mut().expect_err("a clone is alive");
        drop(clone);
        let slice = b.slice(2..);
        let mut b = b.try_into_mut().expect_err("a slice is alive");
        drop(slice);
        let head = b.split_to(1);
        let b = b.try_into_mut().expect_err("a split is alive");
        assert_eq!((&head[..], &b[..]), (&[1u8][..], &[9u8, 3, 4][..]));
        drop(head);
        assert_eq!(&b.try_into_mut().expect("last handle")[..], &[9, 3, 4]);
    }

    #[test]
    fn a_reopened_buffer_grows_by_reallocating_its_block() {
        let mut m = Bytes::from(vec![7u8; 4]).try_into_mut().unwrap();
        assert_eq!(m.capacity(), 4);
        m.extend_from_slice(&[8u8; 4096]);
        m.put_u8(9);
        assert!(m.capacity() >= 4101);
        let tail = m.split_off(4100);
        let b = m.freeze();
        assert_eq!(b.len(), 4100);
        assert_eq!((&b[..4], &b[4..]), (&[7u8; 4][..], &[8u8; 4096][..]));
        assert_eq!(&tail.freeze()[..], &[9]);
    }

    #[test]
    fn a_view_from_mid_buffer_moves_to_the_front_and_keeps_the_capacity() {
        let mut m = BytesMut::with_capacity(16);
        m.extend_from_slice(b"0123456789");
        let b = m.freeze();
        let front = b.as_ptr();
        let mid = b.slice(3..7);
        drop(b);
        let mut m = mid.try_into_mut().expect("last handle");
        assert_eq!((&m[..], m.capacity()), (&b"3456"[..], 16));
        assert_eq!(m.as_ptr(), front, "moved down, not copied out");
        m.extend_from_slice(b"abcdefghijkl");
        assert_eq!(m.capacity(), 16, "room that was behind the view");
        assert_eq!(&m.freeze()[..], b"3456abcdefghijkl");
    }

    #[test]
    fn a_clone_of_a_bytesmut_is_a_buffer_of_its_own() {
        let reopened = Bytes::from(vec![1u8, 2]).try_into_mut().unwrap();
        let fresh = BytesMut::from(&[1u8, 2][..]);
        assert_eq!(reopened, fresh);
        assert_eq!(format!("{reopened:?}"), format!("{fresh:?}"));
        let clone = reopened.clone();
        assert_eq!(clone, reopened);
        let (a, b) = (reopened.freeze(), clone.freeze());
        assert_eq!(a, b);
        assert_ne!(a.as_ptr(), b.as_ptr());
        a.try_into_mut().expect("the clone holds no handle to it");
    }

    #[test]
    fn empty_buffers_share_one_static_block() {
        let (a, b) = (Bytes::new(), BytesMut::new().freeze());
        assert_eq!(a.as_ptr(), b.as_ptr());
        assert_eq!(BytesMut::with_capacity(0).capacity(), 0);
        // Never counted, so always writable, clones or not.
        let held = a.clone();
        let mut m = a.try_into_mut().expect("the empty block is never shared");
        m.put_u16(0x0102);
        assert_eq!((&m.freeze()[..], held.len()), (&[1u8, 2][..], 0));
    }

    /// Tiny deterministic PRNG so the model drive needs no seeds from
    /// outside (xorshift64*).
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    /// A frozen buffer in the model: its contents, and which block it
    /// shares (`None` for the never-counted empty block) of what
    /// capacity.
    struct View {
        bytes: Bytes,
        model: Vec<u8>,
        block: Option<(usize, usize)>,
    }

    /// How often a drive's `try_into_mut` was refused, succeeded, and
    /// succeeded on a view that had to be moved to the block's front.
    #[derive(Default)]
    struct Reopened {
        refused: usize,
        whole: usize,
        moved: usize,
    }

    /// Random sequences of every operation on `Bytes` / `BytesMut`
    /// against a `Vec<u8>` per live buffer, compared after every step.
    /// `try_into_mut` must succeed exactly when no other view of the
    /// same block is alive, hand back the view's bytes whatever its
    /// offset, and keep the block's capacity.
    fn model_drive(seed: u64, steps: usize, seen: &mut Reopened) {
        let mut rng = XorShift(seed | 1);
        let mut muts: Vec<(BytesMut, Vec<u8>)> = Vec::new();
        let mut views: Vec<View> = Vec::new();
        let mut blocks = 0usize;
        for step in 0..steps {
            let roll = rng.below(100);
            if muts.is_empty() || roll < 8 {
                let cap = [0, 1, 7, 8, 64, 300][rng.below(6)];
                let m = BytesMut::with_capacity(cap);
                assert_eq!((m.capacity(), m.len()), (cap, 0));
                muts.push((m, Vec::new()));
                continue;
            }
            let i = rng.below(muts.len());
            let (m, model) = &mut muts[i];
            match roll {
                8..=27 => {
                    // Puts, often past the capacity.
                    let n = rng.below(m.capacity() - m.len() + 24);
                    let src: Vec<u8> = (0..n).map(|_| rng.next() as u8).collect();
                    let op = rng.below(4);
                    match op {
                        0 => m.extend_from_slice(&src),
                        1 => m.put_slice(&src),
                        2 => m.put_bytes(0xA5, n),
                        _ => m.put_u32(0xDEAD_BEEF),
                    }
                    match op {
                        0 | 1 => model.extend_from_slice(&src),
                        2 => model.resize(model.len() + n, 0xA5),
                        _ => model.extend_from_slice(&0xDEAD_BEEFu32.to_be_bytes()),
                    }
                }
                28..=31 => {
                    let more = rng.below(200);
                    m.reserve(more);
                    assert!(m.capacity() >= m.len() + more);
                }
                32..=37 => {
                    let (n, v) = (rng.below(m.len() + 40), rng.next() as u8);
                    m.resize(n, v);
                    model.resize(n, v);
                }
                38..=41 => {
                    let n = rng.below(m.len() + 4);
                    m.truncate(n);
                    model.truncate(n);
                }
                42..=45 => {
                    let n = rng.below(m.len() + 1);
                    m.advance(n);
                    model.drain(..n);
                }
                46..=51 => {
                    let at = rng.below(m.len() + 1);
                    let part = if rng.below(2) == 0 {
                        (m.split_to(at), model.drain(..at).collect())
                    } else {
                        (m.split_off(at), model.split_off(at))
                    };
                    muts.push(part);
                }
                52..=61 => {
                    let (m, model) = muts.swap_remove(i);
                    let block = (m.capacity() != 0).then(|| {
                        blocks += 1;
                        (blocks, m.capacity())
                    });
                    let bytes = m.freeze();
                    views.push(View {
                        bytes,
                        model,
                        block,
                    });
                }
                _ if views.is_empty() => {}
                62..=69 => {
                    let v = &views[rng.below(views.len())];
                    let (bytes, model) = if rng.below(3) == 0 {
                        (v.bytes.clone(), v.model.clone())
                    } else {
                        let (a, b) = (rng.below(v.model.len() + 1), rng.below(v.model.len() + 1));
                        let (lo, hi) = (a.min(b), a.max(b));
                        (v.bytes.slice(lo..hi), v.model[lo..hi].to_vec())
                    };
                    let block = v.block;
                    views.push(View {
                        bytes,
                        model,
                        block,
                    });
                }
                70..=75 => {
                    let j = rng.below(views.len());
                    let v = &mut views[j];
                    let at = rng.below(v.model.len() + 1);
                    let part = match rng.below(3) {
                        0 => Some((v.bytes.split_to(at), v.model.drain(..at).collect())),
                        1 => Some((v.bytes.split_off(at), v.model.split_off(at))),
                        _ => {
                            v.bytes.advance(at);
                            v.model.drain(..at);
                            None
                        }
                    };
                    if let Some((bytes, model)) = part {
                        let block = v.block;
                        views.push(View {
                            bytes,
                            model,
                            block,
                        });
                    }
                }
                76..=89 => {
                    let v = views.swap_remove(rng.below(views.len()));
                    let shared =
                        v.block.is_some() && views.iter().any(|other| other.block == v.block);
                    let at = v.bytes.as_ptr();
                    match v.bytes.try_into_mut() {
                        Ok(m) => {
                            assert!(!shared, "step {step}: reopened a shared block");
                            assert_eq!(m[..], v.model[..], "step {step}");
                            assert_eq!(m.capacity(), v.block.map_or(0, |(_, cap)| cap));
                            if m.as_ptr() == at {
                                seen.whole += 1;
                            } else {
                                seen.moved += 1;
                            }
                            muts.push((m, v.model));
                        }
                        Err(bytes) => {
                            assert!(shared, "step {step}: refused the last handle");
                            seen.refused += 1;
                            views.push(View { bytes, ..v });
                        }
                    }
                }
                _ => {
                    views.swap_remove(rng.below(views.len()));
                }
            }
            for (m, model) in &muts {
                assert_eq!(m[..], model[..], "step {step}");
                assert!(m.len() <= m.capacity());
            }
            for v in &views {
                assert_eq!(v.bytes[..], v.model[..], "step {step}");
            }
        }
    }

    #[test]
    fn bytes_and_bytesmut_match_a_vec_model() {
        let mut seen = Reopened::default();
        for seed in 1..=16 {
            model_drive(seed, 4000, &mut seen);
        }
        // Every outcome was reached, many times.
        assert!(seen.refused > 100 && seen.whole > 100 && seen.moved > 100);
    }

    #[test]
    fn handles_cloned_and_dropped_on_eight_threads_count_exactly() {
        let contents: Vec<u8> = (0..=255).collect();
        let shared = Bytes::from(contents.clone());
        std::thread::scope(|s| {
            for t in 0..8usize {
                let mine = shared.clone();
                let contents = &contents;
                s.spawn(move || {
                    for i in 0..2000usize {
                        let lo = (i * 7 + t) % 256;
                        let clone = mine.clone();
                        let slice = clone.slice(lo..);
                        assert_eq!(slice[..], contents[lo..]);
                        drop(clone);
                        drop(slice);
                    }
                });
            }
        });
        let m = shared
            .try_into_mut()
            .expect("every thread's handle is gone");
        assert_eq!(m[..], contents[..]);
    }

    #[test]
    fn freeze_is_cheap_to_clone() {
        let mut m = BytesMut::new();
        m.extend_from_slice(b"hello");
        let f = m.freeze();
        let g = f.clone();
        assert_eq!(f, g);
        assert_eq!(&g[..], b"hello");
    }
}
