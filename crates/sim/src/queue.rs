//! The simulation event queue: a tick wheel with a heap overflow.
//!
//! Every entry is keyed by `(time, sequence)`. The sequence number is
//! assigned at insertion and breaks ties between events scheduled for
//! the same instant, which keeps dispatch order — and therefore every
//! downstream RNG draw — fully deterministic.
//!
//! ## Structure
//!
//! Most of a simulation's events live in the *near* future: frame
//! deliveries a few link latencies out, the controller's 25/50 ms
//! drain and FIB-flush ticks, sub-second protocol timers. A single
//! `BinaryHeap` pays `O(log n)` pointer-chasing for each of them
//! against the whole future-event set. Instead, the near future — a
//! `WHEEL_SPAN`-wide window starting at the last dispatched instant —
//! is a circular array of `WHEEL_SLOTS` slots, each covering
//! 2^`SLOT_NS_SHIFT` ns. Pushing into the window indexes a slot
//! directly; popping scans an occupancy bitmap for the first live slot.
//! Events beyond the window (OSPF dead intervals, scheduled faults tens
//! of seconds out) go to an overflow `BinaryHeap`, which stays small
//! because the hot traffic never touches it; pops compare the wheel's
//! minimum against the overflow's and take the smaller, so ordering is
//! *exactly* the `(time, seq)` total order a single heap would produce
//! (see the equivalence tests).
//!
//! **Buckets are kept ascending.** Pushes arrive almost in order: the
//! sequence number always grows, and a fixed link or channel latency
//! keeps time order, so nearly every push lands at or after the tail
//! of its slot's entries. A bucket is a `VecDeque` in ascending
//! `(time, seq)` order: the in-order push appends, the pop takes the
//! front, and only a push below the tail clears the bucket's `sorted`
//! flag, for one sort on its next read.
//!
//! **Buckets are pooled, not per slot.** Only a handful of the 8 192
//! slots are live at once (7–16 on average over the benchmark's
//! workloads), so a slot is a 4-byte index into a small pool of
//! buckets. A drained bucket goes back to the pool with its capacity,
//! and the next slot to open takes it. Memory is the pool's high-water
//! mark, not every slot's, and a forked world (the queue is `Clone`)
//! copies only the live buckets' entries.
//!
//! **A pop knows the next minimum without a scan.** The popped entry
//! was the global minimum, so every entry of every other slot is later
//! and lies in a later slot: if its bucket still holds entries, the
//! bucket's new front — compared with the overflow's minimum — is the
//! new minimum. Only a pop that drains its bucket scans the bitmap.
//!
//! **The wheel does not grow.** With a slot at 4 bytes the full
//! `WHEEL_SPAN` window costs 32 KiB up front, so every world routes
//! pushes between wheel and overflow by the same fixed window.

use crate::time::Time;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// log2 of a wheel slot's width in nanoseconds (2^18 ≈ 262 µs) —
/// narrower than the 1 ms control-channel latency, so frames scheduled
/// from the currently-draining instant land in *later* slots.
const SLOT_NS_SHIFT: u32 = 18;
/// Number of wheel slots; must be a power of two.
const WHEEL_SLOTS: usize = 8192;
/// The wheel's window width: ≈ 2.15 s of simulated time.
const WHEEL_SPAN: u64 = (WHEEL_SLOTS as u64) << SLOT_NS_SHIFT;
/// The `slots` entry of a slot that holds no bucket.
const NO_BUCKET: u32 = u32::MAX;

/// Sequence numbers below this bound are handed out by
/// [`EventQueue::push_reserved`]; ordinary pushes start above it. A
/// reserved entry therefore sorts *before* every ordinary entry at the
/// same instant, no matter when either was scheduled — which is what
/// lets one injection path (`rf_core::scenario::Scenario::inject_faults`)
/// arm a cold run's fault timers before its first step and a fork's
/// mid-run, with the same dispatch order.
const RESERVED_SEQS: u64 = 1 << 32;

/// An entry in the event queue. `T` is the kernel's event payload.
#[derive(Clone)]
struct Entry<T> {
    at: Time,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Where the queue's current minimum entry lives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Loc {
    /// At the front of wheel slot `slot`'s bucket once that is sorted.
    Wheel {
        slot: u32,
    },
    Overflow,
}

/// A queue key: `(time, seq, location)`.
type Key = (Time, u64, Loc);

/// The entries of one live wheel slot, ascending by `(at, seq)` when
/// `sorted` holds. A push below the tail clears the flag; the next
/// read sorts once.
#[derive(Clone)]
struct Bucket<T> {
    entries: VecDeque<Entry<T>>,
    sorted: bool,
}

impl<T> Bucket<T> {
    fn ensure_sorted(&mut self) {
        if !self.sorted {
            // Keys are unique, so an unstable sort is deterministic.
            self.entries
                .make_contiguous()
                .sort_unstable_by_key(|e| (e.at, e.seq));
            self.sorted = true;
        }
    }
}

/// Deterministic future-event list (tick wheel + overflow heap).
#[derive(Clone)]
pub struct EventQueue<T> {
    /// Index into `buckets` of each wheel slot's bucket, or
    /// [`NO_BUCKET`]; slot `(at >> SLOT_NS_SHIFT) % WHEEL_SLOTS`.
    slots: Vec<u32>,
    /// One bit per wheel slot that holds a bucket.
    occupied: Vec<u64>,
    /// The pool: live buckets and drained ones.
    buckets: Vec<Bucket<T>>,
    /// Drained (empty, sorted) buckets, which keep their capacity.
    free: Vec<u32>,
    /// Slot-aligned start of the wheel window. Invariant: every wheel
    /// entry's time lies in `[window_start, window_start + WHEEL_SPAN)`,
    /// so the slot mapping never collides across window cycles.
    window_start: u64,
    /// Events at or beyond the window's end (and the rare push into
    /// the past, which the kernel never does but the API allows).
    overflow: BinaryHeap<Entry<T>>,
    /// Memoized minimum — the kernel peeks before every pop, and
    /// without this each of those would scan the occupancy bitmap
    /// again. Kept exact: a push can only *lower* the minimum (compared
    /// directly), a pop sets it or invalidates it.
    cached_min: Option<Key>,
    next_seq: u64,
    /// Next sequence in the reserved (always-first-at-an-instant) lane;
    /// stays below [`RESERVED_SEQS`].
    next_reserved: u64,
    len: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    pub fn new() -> Self {
        EventQueue {
            slots: vec![NO_BUCKET; WHEEL_SLOTS],
            occupied: vec![0; WHEEL_SLOTS / 64],
            buckets: Vec::new(),
            free: Vec::new(),
            window_start: 0,
            overflow: BinaryHeap::new(),
            cached_min: None,
            next_seq: RESERVED_SEQS,
            next_reserved: 0,
            len: 0,
        }
    }

    /// Schedule `payload` at absolute time `at`.
    pub fn push(&mut self, at: Time, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_with_seq(at, seq, payload);
    }

    /// Schedule `payload` at `at` in the reserved lane: it dispatches
    /// before every [`push`](Self::push)ed entry at the same instant,
    /// and reserved entries order among themselves by reservation
    /// order. Insertion *time* is irrelevant to the resulting order,
    /// which is what checkpoint/fork relies on.
    pub fn push_reserved(&mut self, at: Time, payload: T) {
        let seq = self.next_reserved;
        assert!(seq < RESERVED_SEQS, "reserved sequence lane exhausted");
        self.next_reserved += 1;
        self.push_with_seq(at, seq, payload);
    }

    fn push_with_seq(&mut self, at: Time, seq: u64, payload: T) {
        let t = at.as_nanos();
        if self.len == 0 {
            // Empty queue: re-anchor the window so a long quiet gap
            // doesn't strand near-future pushes in the overflow.
            self.window_start = (t >> SLOT_NS_SHIFT) << SLOT_NS_SHIFT;
        }
        self.len += 1;
        let entry = Entry { at, seq, payload };
        let loc = if t >= self.window_start && t - self.window_start < WHEEL_SPAN {
            let slot = ((t >> SLOT_NS_SHIFT) as usize) & (WHEEL_SLOTS - 1);
            let bucket = self.bucket_of(slot);
            if bucket
                .entries
                .back()
                .is_some_and(|last| (at, seq) < (last.at, last.seq))
            {
                bucket.sorted = false;
            }
            bucket.entries.push_back(entry);
            Loc::Wheel { slot: slot as u32 }
        } else {
            self.overflow.push(entry);
            Loc::Overflow
        };
        if let Some(min) = self.cached_min {
            if (at, seq) < (min.0, min.1) {
                self.cached_min = Some((at, seq, loc));
            }
        }
    }

    /// The bucket of wheel slot `slot`, which takes one from the pool
    /// (or a new one) if it holds none.
    fn bucket_of(&mut self, slot: usize) -> &mut Bucket<T> {
        if self.slots[slot] == NO_BUCKET {
            self.slots[slot] = self.free.pop().unwrap_or_else(|| {
                self.buckets.push(Bucket {
                    entries: VecDeque::new(),
                    sorted: true,
                });
                (self.buckets.len() - 1) as u32
            });
            self.occupied[slot / 64] |= 1 << (slot % 64);
        }
        &mut self.buckets[self.slots[slot] as usize]
    }

    /// First occupied wheel slot in circular time order from the
    /// window start — the slot holding the wheel's earliest entry.
    fn first_occupied_slot(&self) -> Option<usize> {
        let words = self.occupied.len();
        let start = ((self.window_start >> SLOT_NS_SHIFT) as usize) & (WHEEL_SLOTS - 1);
        let (word0, bit0) = (start / 64, start % 64);
        // Scan the partial first word, the remaining words wrapping
        // around, then the first word's low bits again.
        let masked = self.occupied[word0] & (!0u64 << bit0);
        if masked != 0 {
            return Some(word0 * 64 + masked.trailing_zeros() as usize);
        }
        for i in 1..words {
            let w = (word0 + i) % words;
            if self.occupied[w] != 0 {
                return Some(w * 64 + self.occupied[w].trailing_zeros() as usize);
            }
        }
        let low = self.occupied[word0] & !(!0u64 << bit0);
        if low != 0 {
            return Some(word0 * 64 + low.trailing_zeros() as usize);
        }
        None
    }

    /// Key of the earliest pending event.
    fn peek_key(&mut self) -> Option<Key> {
        if self.cached_min.is_none() {
            let wheel_min = self.first_occupied_slot().map(|slot| {
                let bucket = &mut self.buckets[self.slots[slot] as usize];
                bucket.ensure_sorted();
                let e = bucket.entries.front().expect("occupied slot is non-empty");
                (e.at, e.seq, Loc::Wheel { slot: slot as u32 })
            });
            self.cached_min = self.or_overflow(wheel_min);
        }
        self.cached_min
    }

    /// The smaller of the wheel's minimum `wheel` and the overflow's.
    fn or_overflow(&self, wheel: Option<Key>) -> Option<Key> {
        let over = self.overflow.peek().map(|e| (e.at, e.seq, Loc::Overflow));
        match (wheel, over) {
            (Some(w), Some(o)) if (o.0, o.1) < (w.0, w.1) => over,
            (None, _) => over,
            _ => wheel,
        }
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Time, T)> {
        let (_, _, loc) = self.peek_key()?;
        let entry = match loc {
            Loc::Wheel { slot } => {
                let slot = slot as usize;
                let b = self.slots[slot];
                let bucket = &mut self.buckets[b as usize];
                // A push after the peek may have dirtied the bucket;
                // the cached minimum is exact either way, and sorting
                // puts it back at the front.
                bucket.ensure_sorted();
                let e = bucket.entries.pop_front().expect("peeked wheel slot");
                // `e` was the global minimum, so the bucket's new
                // front is the wheel's (module docs).
                self.cached_min = match bucket.entries.front() {
                    Some(next) => {
                        let next = (next.at, next.seq, loc);
                        self.or_overflow(Some(next))
                    }
                    None => {
                        self.slots[slot] = NO_BUCKET;
                        self.occupied[slot / 64] &= !(1 << (slot % 64));
                        self.free.push(b);
                        None
                    }
                };
                e
            }
            Loc::Overflow => {
                self.cached_min = None;
                self.overflow.pop().expect("peeked overflow")
            }
        };
        self.len -= 1;
        // Advance the window to the dispatched instant — but never
        // backward (an overflow pop of a before-the-window event must
        // not strand wheel entries outside the window): forward-only
        // keeps every wheel entry inside `[window_start, +SPAN)`.
        let aligned = (entry.at.as_nanos() >> SLOT_NS_SHIFT) << SLOT_NS_SHIFT;
        self.window_start = self.window_start.max(aligned);
        Some((entry.at, entry.payload))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.peek_key().map(|(at, _, _)| at)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_secs(3), "c");
        q.push(Time::from_secs(1), "a");
        q.push(Time::from_secs(2), "b");
        assert_eq!(q.pop(), Some((Time::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((Time::from_secs(2), "b")));
        assert_eq!(q.pop(), Some((Time::from_secs(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = Time::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn reserved_entries_sort_first_at_an_instant() {
        let mut q = EventQueue::new();
        let t = Time::from_secs(1);
        q.push(t, "normal-0");
        q.push_reserved(t, "reserved-0");
        q.push(t, "normal-1");
        q.push_reserved(t, "reserved-1");
        // Reserved entries beat ordinary ones at the same instant
        // regardless of insertion order, and order among themselves by
        // reservation order.
        assert_eq!(q.pop(), Some((t, "reserved-0")));
        assert_eq!(q.pop(), Some((t, "reserved-1")));
        assert_eq!(q.pop(), Some((t, "normal-0")));
        assert_eq!(q.pop(), Some((t, "normal-1")));
        // Time still dominates: an earlier ordinary entry beats a later
        // reserved one.
        q.push_reserved(Time::from_secs(3), "late-reserved");
        q.push(Time::from_secs(2), "early-normal");
        assert_eq!(q.pop(), Some((Time::from_secs(2), "early-normal")));
        assert_eq!(q.pop(), Some((Time::from_secs(3), "late-reserved")));
    }

    #[test]
    fn peek_time_tracks_minimum() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_secs(5), ());
        q.push(Time::from_secs(2), ());
        assert_eq!(q.peek_time(), Some(Time::from_secs(2)));
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Time::ZERO, 1);
        q.push(Time::ZERO, 2);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Time::from_secs(10), 10);
        q.push(Time::from_secs(1), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(Time::from_secs(5), 5);
        q.push(Time::from_secs(2), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 10);
    }

    #[test]
    fn far_future_crosses_overflow_and_back() {
        // An event far beyond the wheel window must pop in its right
        // place relative to near events pushed before and after it.
        let mut q = EventQueue::new();
        q.push(Time::from_secs(60), "far");
        q.push(Time::from_millis(1), "near-1");
        q.push(Time::from_millis(2), "near-2");
        assert_eq!(q.pop().unwrap().1, "near-1");
        // After the wheel advances, a near-the-far-event push is
        // within a *later* window; both orders must still hold.
        q.push(Time::from_secs(59), "late-but-earlier");
        assert_eq!(q.pop().unwrap().1, "near-2");
        assert_eq!(q.pop().unwrap().1, "late-but-earlier");
        assert_eq!(q.pop().unwrap().1, "far");
        assert!(q.is_empty());
    }

    #[test]
    fn window_reanchors_after_drain() {
        let mut q = EventQueue::new();
        q.push(Time::from_millis(5), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        // Hours later, near-future traffic resumes; the window must
        // re-anchor so ordering (and the wheel fast path) still work.
        let base = Time::from_secs(7200);
        q.push(base + Duration::from_millis(2), 3);
        q.push(base + Duration::from_millis(1), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    /// The pre-overhaul queue: one `BinaryHeap` over the same entries,
    /// with the same reserved lane. The equivalence tests drive it in
    /// lockstep with the tick wheel.
    #[derive(Clone)]
    struct ReferenceQueue<T> {
        heap: BinaryHeap<Entry<T>>,
        next_seq: u64,
        next_reserved: u64,
    }

    impl<T> ReferenceQueue<T> {
        fn new() -> Self {
            ReferenceQueue {
                heap: BinaryHeap::new(),
                next_seq: RESERVED_SEQS,
                next_reserved: 0,
            }
        }
        fn push(&mut self, at: Time, payload: T) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { at, seq, payload });
        }
        fn push_reserved(&mut self, at: Time, payload: T) {
            let seq = self.next_reserved;
            self.next_reserved += 1;
            self.heap.push(Entry { at, seq, payload });
        }
        fn pop(&mut self) -> Option<(Time, T)> {
            self.heap.pop().map(|e| (e.at, e.payload))
        }
        fn peek_time(&self) -> Option<Time> {
            self.heap.peek().map(|e| e.at)
        }
    }

    /// Tiny deterministic PRNG so the equivalence drive needs no seeds
    /// from outside (xorshift64*).
    #[derive(Clone)]
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
    }

    /// A tick wheel and the reference heap, driven in lockstep.
    #[derive(Clone)]
    struct Pair {
        wheel: EventQueue<u64>,
        reference: ReferenceQueue<u64>,
        /// Time of the last pop: kernel-like pushes never go below it.
        floor: u64,
    }

    impl Pair {
        fn new() -> Pair {
            Pair {
                wheel: EventQueue::new(),
                reference: ReferenceQueue::new(),
                floor: 0,
            }
        }

        /// One random push (ordinary or reserved) or pop, checked
        /// against the reference. Times mix sub-slot jitter,
        /// same-instant ties, whole-window jumps and far-future spikes —
        /// every path between wheel and overflow.
        fn step(&mut self, rng: &mut XorShift, id: u64, monotonic: bool) {
            let roll = rng.next() % 100;
            if roll < 60 || self.wheel.is_empty() {
                let jitter = match rng.next() % 5 {
                    0 => 0,                                         // exact tie with floor
                    1 => rng.next() % 1_000,                        // sub-microsecond
                    2 => rng.next() % 40_000_000,                   // within a few slots
                    3 => rng.next() % WHEEL_SPAN,                   // anywhere in window
                    _ => WHEEL_SPAN + rng.next() % 100_000_000_000, // overflow
                };
                let base = if monotonic { self.floor } else { 0 };
                let at = Time::from_nanos(base.saturating_add(jitter));
                if roll < 6 {
                    self.wheel.push_reserved(at, id);
                    self.reference.push_reserved(at, id);
                } else {
                    self.wheel.push(at, id);
                    self.reference.push(at, id);
                }
            } else {
                assert_eq!(self.wheel.peek_time(), self.reference.peek_time());
                let got = self.wheel.pop();
                assert_eq!(got, self.reference.pop());
                if let (Some((at, _)), true) = (got, monotonic) {
                    self.floor = at.as_nanos();
                }
                assert_eq!(self.wheel.len(), self.reference.heap.len());
            }
        }

        /// Drain both and compare the full remaining order.
        fn drain(mut self) {
            while let Some(want) = self.reference.pop() {
                assert_eq!(self.wheel.pop(), Some(want));
            }
            assert_eq!(self.wheel.pop(), None);
            assert!(self.wheel.is_empty());
        }
    }

    /// Drive a pair with an identical random push/pop sequence and
    /// assert identical pop streams. Halfway, both queues are cloned —
    /// as a fork clones a world — and the copy is driven on by a
    /// stream of its own, then each is drained against its reference.
    fn equivalence_drive(seed: u64, ops: usize, monotonic: bool) {
        let mut pair = Pair::new();
        let mut rng = XorShift(seed | 1);
        for id in 0..ops as u64 / 2 {
            pair.step(&mut rng, id, monotonic);
        }
        let mut fork = pair.clone();
        let mut fork_rng = XorShift(rng.next() | 1);
        for id in ops as u64 / 2..ops as u64 {
            pair.step(&mut rng, id, monotonic);
            fork.step(&mut fork_rng, id, monotonic);
        }
        pair.drain();
        fork.drain();
    }

    #[test]
    fn equivalence_with_reference_heap_kernel_like() {
        // Monotonic pushes (never before the last pop), as the kernel
        // schedules: 16 seeds × 4000 ops.
        for seed in 0..16 {
            equivalence_drive(0xA11CE + seed, 4000, true);
        }
    }

    #[test]
    fn equivalence_with_reference_heap_unrestricted() {
        // Fully random times, including pushes into the "past" (the
        // raw queue API allows them; they ride the overflow heap).
        for seed in 0..16 {
            equivalence_drive(0xB0B + seed, 4000, false);
        }
    }

    #[test]
    fn equivalence_same_instant_bursts() {
        // Heavy tie traffic: many events at identical instants must
        // pop in exact insertion order from both implementations.
        let mut wheel = EventQueue::new();
        let mut reference = ReferenceQueue::new();
        let mut rng = XorShift(0xDEAD_BEEF);
        for i in 0..2000u64 {
            let at = Time::from_millis(25 * (rng.next() % 8));
            wheel.push(at, i);
            reference.push(at, i);
        }
        for _ in 0..2000 {
            assert_eq!(wheel.pop(), reference.pop());
        }
    }

    /// Two latencies interleaved: each dispatched event re-schedules
    /// itself 1 ms out or 150–250 µs out, so a short hop pushed later
    /// often lands in the same slot *before* a long one pushed earlier.
    /// Those buckets go dirty and sort on read; over 5 s the window
    /// wraps twice and the same few buckets serve every slot.
    #[test]
    fn equivalence_with_two_latencies_out_of_order() {
        let mut wheel = EventQueue::new();
        let mut reference = ReferenceQueue::new();
        for id in 0..64u64 {
            let at = Time::from_nanos(id * 7_000);
            wheel.push(at, id);
            reference.push(at, id);
        }
        let (mut dirtied, mut now) = (0, Time::ZERO);
        while now < Time::from_secs(5) {
            assert_eq!(wheel.peek_time(), reference.peek_time());
            let (at, id) = wheel.pop().expect("standing events");
            assert_eq!(Some((at, id)), reference.pop());
            now = at;
            let hop = if id % 2 == 0 {
                1_000_000
            } else {
                150_000 + at.as_nanos() % 100_000
            };
            let next = at + Duration::from_nanos(hop);
            wheel.push(next, id);
            reference.push(next, id);
            dirtied += wheel.buckets.iter().filter(|b| !b.sorted).count();
        }
        assert!(dirtied > 1000, "{dirtied} dirty buckets seen");
        assert!(wheel.buckets.len() <= 16, "{} buckets", wheel.buckets.len());
        Pair {
            wheel,
            reference,
            floor: 0,
        }
        .drain();
    }

    /// The kernel peeks, then its handler pushes, then it pops: a push
    /// below the cached minimum in between — into the same slot, an
    /// earlier slot, or the overflow — is what the pop returns.
    #[test]
    fn a_push_below_the_peeked_minimum_pops_first() {
        let ns = Time::from_nanos;
        let mut q = EventQueue::new();
        q.push(ns(100_000_000), "first");
        assert_eq!(q.pop(), Some((ns(100_000_000), "first")));
        q.push(ns(110_000_000), "a");
        q.push(ns(110_000_001), "b");
        assert_eq!(q.peek_time(), Some(ns(110_000_000)));
        // Same slot, below the tail: the bucket goes dirty.
        q.push(ns(109_999_999), "same slot");
        assert!(q.buckets.iter().any(|b| !b.sorted));
        assert_eq!(q.peek_time(), Some(ns(109_999_999)));
        // An earlier slot.
        q.push(ns(105_000_000), "earlier slot");
        // Before the window start (the last pop): the overflow.
        q.push(ns(50_000_000), "overflow");
        assert_eq!(q.pop(), Some((ns(50_000_000), "overflow")));
        assert_eq!(q.pop(), Some((ns(105_000_000), "earlier slot")));
        assert_eq!(q.pop(), Some((ns(109_999_999), "same slot")));
        assert_eq!(q.pop(), Some((ns(110_000_000), "a")));
        assert_eq!(q.pop(), Some((ns(110_000_001), "b")));
        assert!(q.is_empty());
    }

    /// An event pushed beyond the window waits in the overflow; once the
    /// window has moved over it, wheel entries can land in its slot on
    /// both sides of it. A pop that leaves its bucket non-empty must
    /// still compare the bucket's next entry with the overflow's.
    #[test]
    fn an_overflow_entry_inside_a_live_slot_pops_in_its_place() {
        let far = WHEEL_SPAN + 1_000_000;
        let mut q = EventQueue::new();
        q.push(Time::ZERO, "anchor");
        q.push(Time::from_nanos(far), "far");
        assert_eq!(q.pop().map(|(_, v)| v), Some("anchor"));
        q.push(Time::from_millis(2), "step");
        assert_eq!(q.pop().map(|(_, v)| v), Some("step"));
        // The window now covers `far`'s slot; both land in it.
        q.push(Time::from_nanos(far - 1_000), "before");
        q.push(Time::from_nanos(far + 1_000), "after");
        assert_eq!(q.pop().map(|(_, v)| v), Some("before"));
        assert_eq!(q.pop().map(|(_, v)| v), Some("far"));
        assert_eq!(q.pop().map(|(_, v)| v), Some("after"));
    }

    /// 10 000 standing events, each re-pushed a little over 10 ms after
    /// it pops, churned through 1 s of simulated time: about 40 slots
    /// are live at once, and the pool never holds many more buckets
    /// than that.
    #[test]
    fn standing_churn_keeps_the_pool_small() {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.push(Time::from_nanos(1_000 * i), i);
        }
        let mut last = Time::ZERO;
        while last < Time::from_secs(1) {
            let (at, i) = q.pop().expect("standing events");
            assert!(at >= last);
            last = at;
            q.push(at + Duration::from_nanos(10_000_000 + i % 1_000), i);
        }
        assert_eq!(q.len(), 10_000);
        assert!(q.buckets.len() <= 64, "{} buckets", q.buckets.len());
    }
}
