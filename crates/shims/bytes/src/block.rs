//! The storage behind [`Bytes`] and [`BytesMut`], and the only code in
//! the workspace that touches raw memory. Every buffer is one heap
//! block: a [`Header`] (reference count, capacity) followed by the
//! bytes. Everything that reads or writes a handle's fields lives here,
//! so the invariants below are kept by this module's privacy alone:
//!
//! - A block is [`EMPTY`] (capacity 0: never counted, freed or written)
//!   or was allocated with `layout(cap)` for the capacity its header
//!   holds.
//! - A `BytesMut` is its block's only handle; its bytes `[0, len)` are
//!   initialised.
//! - A `Bytes` counts once in its block's `refs`, and the block's bytes
//!   `[0, end)` are initialised: every view comes from a `freeze` whose
//!   length was at least `end`. No handle writes them while a second
//!   one is alive.
//!
//! The count follows `Arc`: a new handle is made from a live one, so
//! the increment is `Relaxed`; the decrement is `Release`, and the
//! handle that takes the count to zero fences with `Acquire` before it
//! frees, so every other handle's reads happen before the free. Taking
//! a block back for writing loads the count with `Acquire`, which pairs
//! with those same `Release` decrements. The count stays atomic because
//! `Bytes` is `Send + Sync`: checkpoint/fork hands the same frames to
//! simulations on other threads.

use std::alloc::{self, Layout};
use std::mem::{self, ManuallyDrop};
use std::ops::{Deref, DerefMut};
use std::ptr::{self, NonNull};
use std::slice;
use std::sync::atomic::{self, AtomicUsize, Ordering};

/// What precedes a buffer's bytes in its block: 16 bytes, the same
/// alignment as the `usize`s in it.
#[repr(C)]
struct Header {
    /// Handles to the block: `Bytes` views, or the one `BytesMut`.
    refs: AtomicUsize,
    /// Bytes the block holds after the header; 0 only for [`EMPTY`].
    cap: usize,
}

impl Header {
    const fn new(cap: usize) -> Header {
        Header {
            refs: AtomicUsize::new(1),
            cap,
        }
    }
}

/// The block of every buffer that never had capacity. Its count is
/// never touched, so it is shared by all threads without contention.
static EMPTY: Header = Header::new(0);

/// Past this many handles the count could wrap; `Arc` aborts here too.
const MAX_REFS: usize = isize::MAX as usize;

fn layout(cap: usize) -> Layout {
    mem::size_of::<Header>()
        .checked_add(cap)
        .and_then(|size| Layout::from_size_align(size, mem::align_of::<Header>()).ok())
        .expect("capacity overflow")
}

fn empty() -> NonNull<Header> {
    NonNull::from(&EMPTY)
}

/// The first byte after the header. Computing it reads nothing; the
/// address is inside the block, or one past [`EMPTY`].
#[inline]
fn data(block: NonNull<Header>) -> *mut u8 {
    block
        .as_ptr()
        .cast::<u8>()
        .wrapping_add(mem::size_of::<Header>())
}

/// A fresh block of `cap > 0` bytes, counted once.
fn allocate(cap: usize) -> NonNull<Header> {
    let layout = layout(cap);
    // SAFETY: the layout is never zero-sized: it holds the header.
    let raw = unsafe { alloc::alloc(layout) };
    let Some(block) = NonNull::new(raw.cast::<Header>()) else {
        alloc::handle_alloc_error(layout)
    };
    // SAFETY: the block is fresh, sized and aligned for a header, and
    // nothing else can reach it yet.
    unsafe { block.as_ptr().write(Header::new(cap)) };
    block
}

/// Cheaply cloneable, immutable byte buffer: a counted handle to a
/// block and the `[start, end)` of its bytes this view sees.
pub struct Bytes {
    block: NonNull<Header>,
    /// u32 offsets keep `Bytes` at 16 bytes — it rides inside every
    /// queued simulator event, so its size is part of the event
    /// queue's cache footprint. 4 GiB per buffer is far beyond any
    /// frame or message this workspace constructs.
    start: u32,
    end: u32,
}

// SAFETY: a `Bytes` only reads its block's bytes, and shares the block
// through an atomic count, as `Arc<[u8]>` does.
unsafe impl Send for Bytes {}
// SAFETY: `&Bytes` reads the bytes and bumps the count atomically.
unsafe impl Sync for Bytes {}

impl Bytes {
    /// An empty buffer; allocates nothing.
    #[inline]
    pub fn new() -> Bytes {
        Bytes {
            block: empty(),
            start: 0,
            end: 0,
        }
    }

    #[inline]
    fn header(&self) -> &Header {
        // SAFETY: the block lives at least as long as this handle.
        unsafe { self.block.as_ref() }
    }

    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// A new handle to `[lo, hi)` of this view.
    #[inline]
    pub(crate) fn view(&self, lo: usize, hi: usize) -> Bytes {
        assert!(lo <= hi && hi <= self.len(), "range out of bounds");
        let mut view = self.clone();
        view.start = self.start + lo as u32;
        view.end = self.start + hi as u32;
        view
    }

    /// Split off the bytes after `at`, leaving `self` with `[0, at)`.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        let tail = self.view(at, self.len());
        self.end = tail.start;
        tail
    }

    /// Split off the first `at` bytes, leaving `self` with the rest.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        let head = self.view(0, at);
        self.start = head.end;
        head
    }

    /// Drop the first `cnt` bytes from this view.
    #[inline]
    pub(crate) fn skip(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "buffer underflow");
        self.start += cnt as u32;
    }

    /// Take the block back for writing if this is its only handle (no
    /// clone, slice or split of it is alive); otherwise hand `self`
    /// back untouched. Same contract as `bytes` ≥ 1.6. The view's bytes
    /// become the `BytesMut`'s contents, moved to the front of the
    /// block if the view started further in; the capacity is kept. The
    /// round trip through [`BytesMut::freeze`] neither frees nor
    /// allocates.
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        let cap = self.header().cap;
        if cap != 0 && self.header().refs.load(Ordering::Acquire) != 1 {
            return Err(self);
        }
        let this = ManuallyDrop::new(self);
        let len = this.len();
        if this.start != 0 {
            // SAFETY: this is the block's only handle, and both ranges
            // lie in its initialised `[0, end)`; `copy` allows overlap.
            unsafe {
                ptr::copy(
                    data(this.block).add(this.start as usize),
                    data(this.block),
                    len,
                )
            };
        }
        Ok(BytesMut {
            block: this.block,
            len,
            cap,
        })
    }
}

impl Clone for Bytes {
    #[inline]
    fn clone(&self) -> Bytes {
        let header = self.header();
        if header.cap != 0 && header.refs.fetch_add(1, Ordering::Relaxed) > MAX_REFS {
            std::process::abort();
        }
        Bytes {
            block: self.block,
            start: self.start,
            end: self.end,
        }
    }
}

impl Drop for Bytes {
    #[inline]
    fn drop(&mut self) {
        // Read before the decrement: once it is done, another handle
        // may free the block.
        let cap = self.header().cap;
        if cap == 0 || self.header().refs.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        atomic::fence(Ordering::Acquire);
        // SAFETY: that was the last handle, and the block was allocated
        // with the layout of the capacity its header holds.
        unsafe { alloc::dealloc(self.block.as_ptr().cast(), layout(cap)) };
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        // SAFETY: `[start, end)` is initialised and nobody writes it
        // while this handle lives.
        unsafe { slice::from_raw_parts(data(self.block).add(self.start as usize), self.len()) }
    }
}

/// Growable byte buffer, the only handle to its block; reads (via
/// [`Buf`](crate::Buf)) consume from the front.
pub struct BytesMut {
    block: NonNull<Header>,
    len: usize,
    /// The header's capacity, kept here so a `put_*` reads no header.
    cap: usize,
}

// SAFETY: a `BytesMut` owns its block outright, as a `Vec<u8>` does.
unsafe impl Send for BytesMut {}
// SAFETY: `&BytesMut` only reads.
unsafe impl Sync for BytesMut {}

impl BytesMut {
    /// An empty buffer; allocates nothing.
    #[inline]
    pub fn new() -> BytesMut {
        BytesMut {
            block: empty(),
            len: 0,
            cap: 0,
        }
    }

    /// An empty buffer with room for exactly `cap` bytes: its one
    /// allocation, unless more than `cap` bytes are written to it.
    #[inline]
    pub fn with_capacity(cap: usize) -> BytesMut {
        if cap == 0 {
            return BytesMut::new();
        }
        BytesMut {
            block: allocate(cap),
            len: 0,
            cap,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Make room for `additional` more bytes, growing as `Vec` does:
    /// to at least twice the capacity, and to at least 8 bytes.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        if additional > self.cap - self.len {
            self.grow(additional);
        }
    }

    #[cold]
    fn grow(&mut self, additional: usize) {
        let need = self.len.checked_add(additional).expect("capacity overflow");
        let cap = need.max(2 * self.cap).max(8);
        if self.cap == 0 {
            self.block = allocate(cap);
        } else {
            let new = layout(cap);
            // SAFETY: this is the block's only handle, it was allocated
            // with `layout(self.cap)`, and the new size is non-zero.
            let raw =
                unsafe { alloc::realloc(self.block.as_ptr().cast(), layout(self.cap), new.size()) };
            let Some(block) = NonNull::new(raw.cast::<Header>()) else {
                alloc::handle_alloc_error(new)
            };
            // SAFETY: the reallocated block is ours alone and starts
            // with the header it had; only its capacity changed.
            unsafe { (*block.as_ptr()).cap = cap };
            self.block = block;
        }
        self.cap = cap;
    }

    pub fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }

    #[inline]
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.reserve(src.len());
        // SAFETY: `reserve` left room for `src` after `len`, and `src`
        // cannot point into a block only `&mut self` reaches.
        unsafe {
            ptr::copy_nonoverlapping(src.as_ptr(), data(self.block).add(self.len), src.len())
        };
        self.len += src.len();
    }

    /// Append `cnt` copies of `val`.
    #[inline]
    pub(crate) fn fill(&mut self, val: u8, cnt: usize) {
        self.reserve(cnt);
        // SAFETY: `reserve` left room for `cnt` bytes after `len`.
        unsafe { ptr::write_bytes(data(self.block).add(self.len), val, cnt) };
        self.len += cnt;
    }

    /// The buffer as an immutable [`Bytes`]: a move, not a copy.
    #[inline]
    pub fn freeze(self) -> Bytes {
        let end = u32::try_from(self.len).expect("Bytes buffer too large");
        let this = ManuallyDrop::new(self);
        Bytes {
            block: this.block,
            start: 0,
            end,
        }
    }
}

impl Drop for BytesMut {
    fn drop(&mut self) {
        if self.cap != 0 {
            // SAFETY: this is the block's only handle, and it was
            // allocated with `layout(self.cap)`.
            unsafe { alloc::dealloc(self.block.as_ptr().cast(), layout(self.cap)) };
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        // SAFETY: `[0, len)` is initialised.
        unsafe { slice::from_raw_parts(data(self.block), self.len) }
    }
}

impl DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: `[0, len)` is initialised, and `&mut self` is the
        // only way to the block (a zero-length slice for `EMPTY`).
        unsafe { slice::from_raw_parts_mut(data(self.block), self.len) }
    }
}
