//! Offline stand-in for the `bytes` crate: the subset of its API this
//! workspace uses, with the same semantics (big-endian integer codecs,
//! cheap `Bytes` clones, front-consuming `Buf` reads on `BytesMut`).
//! Everything here exists in `bytes` 1.0 except [`Bytes::try_into_mut`],
//! which the real crate has from 1.6 on. A `try_into_mut` →
//! [`BytesMut::freeze`] round trip reuses the handle the storage was
//! taken out of, so patching a uniquely owned buffer — a routed hop's
//! MACs, a forwarded control message's xid — allocates nothing.
//!
//! The container this workspace builds in has no crates.io access, so
//! the real `bytes` crate cannot be vendored; this shim keeps the
//! dependency surface identical so swapping the real crate back in is a
//! one-line Cargo change.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

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

/// Cheaply cloneable, immutable byte buffer (a view into shared storage).
///
/// The storage is `Arc<Vec<u8>>`, not `Arc<[u8]>`: converting a `Vec`
/// into `Arc<[u8]>` re-allocates and copies the contents (the refcount
/// header must precede the data), which made every `freeze()` — i.e.
/// every emitted frame and encoded message in the simulator — pay a
/// second full copy. Wrapping the `Vec` moves it instead; the price is
/// one extra pointer hop on reads, which profiles far cheaper.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    /// u32 offsets keep `Bytes` at 16 bytes — it rides inside every
    /// queued simulator event, so its size is part of the event
    /// queue's cache footprint. 4 GiB per buffer is far beyond any
    /// frame or message this workspace constructs.
    start: u32,
    end: u32,
}

impl Bytes {
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// A view of all of `data`.
    fn whole(data: Arc<Vec<u8>>) -> Bytes {
        assert!(data.len() <= u32::MAX as usize, "Bytes buffer too large");
        let end = data.len() as u32;
        Bytes {
            data,
            start: 0,
            end,
        }
    }

    pub fn from_static(s: &'static [u8]) -> Bytes {
        Bytes::from(s.to_vec())
    }

    pub fn copy_from_slice(s: &[u8]) -> Bytes {
        Bytes::from(s.to_vec())
    }

    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Split off the bytes after `at`, leaving `self` with `[0, at)`.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len());
        let tail = Bytes {
            data: Arc::clone(&self.data),
            start: self.start + at as u32,
            end: self.end,
        };
        self.end = self.start + at as u32;
        tail
    }

    /// Split off the first `at` bytes, leaving `self` with the rest.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len());
        let head = Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.start + at as u32,
        };
        self.start += at as u32;
        head
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
        assert!(lo <= hi && hi <= self.len());
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo as u32,
            end: self.start + hi as u32,
        }
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self[..].to_vec()
    }

    /// Take the storage back for writing if this is the only handle to
    /// it (no clone, slice or split of it is alive); otherwise hand
    /// `self` back untouched. Same contract as `bytes` ≥ 1.6. The
    /// view's bytes become the `BytesMut`'s contents — no copy when the
    /// view starts at the front of its storage, which is every buffer
    /// that came out of `freeze()`.
    ///
    /// The emptied handle rides along in the `BytesMut` and is refilled
    /// by its `freeze`, so the round trip neither frees nor allocates.
    pub fn try_into_mut(mut self) -> Result<BytesMut, Bytes> {
        let Some(storage) = Arc::get_mut(&mut self.data) else {
            return Err(self);
        };
        let mut inner = std::mem::take(storage);
        inner.truncate(self.end as usize);
        inner.drain(..self.start as usize);
        Ok(BytesMut {
            inner,
            handle: Some(self.data),
        })
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start as usize..self.end as usize]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::whole(Arc::new(v))
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        Bytes::from(s.to_vec())
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Bytes {
        Bytes::from(s.as_bytes().to_vec())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
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

/// Growable byte buffer; reads (via [`Buf`]) consume from the front.
#[derive(Default)]
pub struct BytesMut {
    inner: Vec<u8>,
    /// The uniquely owned, emptied handle [`Bytes::try_into_mut`] took
    /// `inner` out of; [`BytesMut::freeze`] puts the storage back into
    /// it. Not part of the value: `Clone`, `PartialEq` and `Debug` see
    /// `inner` only.
    handle: Option<Arc<Vec<u8>>>,
}

impl Clone for BytesMut {
    fn clone(&self) -> BytesMut {
        BytesMut::from(self.inner.clone())
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &BytesMut) -> bool {
        self.inner == other.inner
    }
}
impl Eq for BytesMut {}

impl BytesMut {
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut::from(Vec::with_capacity(cap))
    }

    pub fn len(&self) -> usize {
        self.inner.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    pub fn reserve(&mut self, additional: usize) {
        self.inner.reserve(additional);
    }

    pub fn clear(&mut self) {
        self.inner.clear();
    }

    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.inner.resize(new_len, value);
    }

    pub fn truncate(&mut self, len: usize) {
        self.inner.truncate(len);
    }

    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.inner.extend_from_slice(s);
    }

    pub fn freeze(self) -> Bytes {
        let BytesMut { inner, handle } = self;
        let Some(mut data) = handle else {
            return Bytes::from(inner);
        };
        *Arc::get_mut(&mut data).expect("try_into_mut took the only handle") = inner;
        Bytes::whole(data)
    }

    /// Remove and return the first `at` bytes.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len());
        BytesMut::from(self.inner.drain(..at).collect::<Vec<u8>>())
    }

    /// Remove and return everything after `at`.
    pub fn split_off(&mut self, at: usize) -> BytesMut {
        BytesMut::from(self.inner.split_off(at))
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.inner.clone()
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.inner
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.inner
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.inner
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> BytesMut {
        BytesMut::from(s.to_vec())
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(inner: Vec<u8>) -> BytesMut {
        BytesMut {
            inner,
            handle: None,
        }
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
        assert!(cnt <= self.len(), "buffer underflow");
        self.start += cnt as u32;
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
        self.inner.drain(..cnt);
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
    fn put_slice(&mut self, src: &[u8]) {
        self.inner.extend_from_slice(src);
    }
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.inner.put_bytes(val, cnt);
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
    fn a_patched_buffer_comes_back_in_the_handle_it_left() {
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
    fn a_reused_handle_takes_a_buffer_that_outgrew_it() {
        let mut m = Bytes::from(vec![7u8; 4]).try_into_mut().unwrap();
        m.extend_from_slice(&[8u8; 4096]);
        m.put_u8(9);
        let tail = m.split_off(4100);
        let b = m.freeze();
        assert_eq!(b.len(), 4100);
        assert_eq!((&b[..4], &b[4..]), (&[7u8; 4][..], &[8u8; 4096][..]));
        assert_eq!(&tail.freeze()[..], &[9]);
    }

    #[test]
    fn the_spare_handle_is_not_part_of_a_bytesmut() {
        let reused = Bytes::from(vec![1u8, 2]).try_into_mut().unwrap();
        let fresh = BytesMut::from(&[1u8, 2][..]);
        assert_eq!(reused, fresh);
        assert_eq!(format!("{reused:?}"), format!("{fresh:?}"));
        // A clone is a buffer of its own: freezing both yields two
        // storages, and the original still goes back into its handle.
        let clone = reused.clone();
        assert_eq!(clone, reused);
        let (a, b) = (reused.freeze(), clone.freeze());
        assert_eq!(a, b);
        assert_ne!(a.as_ptr(), b.as_ptr());
        a.try_into_mut().expect("the clone holds no handle to it");
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
