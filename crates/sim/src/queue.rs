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
//! is a circular array of buckets (`MIN_WHEEL_SLOTS` at first,
//! doubling on demand up to `MAX_WHEEL_SLOTS`), each covering
//! 2^`SLOT_NS_SHIFT` ns. Pushing into the window indexes a bucket
//! directly; popping scans an occupancy bitmap for the first live
//! bucket. Buckets are `Vec`s sorted lazily (descending) on first
//! read, so a same-instant burst costs one sort and then O(1) pops
//! from the back — cheaper than per-entry heap sifting at the burst
//! sizes this simulation produces. Events beyond the window (OSPF dead
//! intervals, scheduled faults tens of seconds out) go to an overflow
//! `BinaryHeap`, which stays small because the hot traffic never
//! touches it; pops compare the wheel's minimum against the overflow's
//! and take the smaller, so ordering is *exactly* the `(time, seq)`
//! total order a single heap would produce (see the equivalence
//! tests).

use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of a wheel slot's width in nanoseconds (2^18 ≈ 262 µs) —
/// narrower than the 1 ms control-channel latency, so frames scheduled
/// from the currently-draining instant land in *later* slots and
/// rarely dirty a sorted slot mid-drain.
const SLOT_NS_SHIFT: u32 = 18;
/// Initial number of wheel slots (a power of two): ≈ 134 ms of window.
/// Corpus sweeps build one simulator per matrix cell — and a fat-tree
/// cell holds hundreds of switch agents each owning timer state — so
/// the queue starts small and [grows](EventQueue::grow_to_cover) only
/// when a push actually needs a wider window.
const MIN_WHEEL_SLOTS: usize = 512;
/// Maximum number of wheel slots; must be a power of two.
const MAX_WHEEL_SLOTS: usize = 8192;
/// The wheel's maximum window width: ≈ 2.15 s of simulated time.
const WHEEL_SPAN: u64 = (MAX_WHEEL_SLOTS as u64) << SLOT_NS_SHIFT;

/// Sequence numbers below this bound are handed out by
/// [`EventQueue::push_reserved`]; ordinary pushes start above it. A
/// reserved entry therefore sorts *before* every ordinary entry at the
/// same instant, no matter when either was scheduled — which is what
/// lets a forked scenario inject a fault timer mid-run and still match
/// a cold run that scheduled the same timer at t=0 (see
/// `rf-core::scenario::Snapshot`).
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
    /// At the back of `wheel[slot]` once that slot is sorted.
    Wheel {
        slot: u32,
    },
    Overflow,
}

/// One wheel bucket: entries sorted descending by `(at, seq)` when
/// `sorted` holds, so the minimum pops from the back in O(1). A push
/// that lands out of order just clears the flag; the next read
/// re-sorts once.
#[derive(Clone)]
struct Slot<T> {
    entries: Vec<Entry<T>>,
    sorted: bool,
}

impl<T> Slot<T> {
    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.entries
                .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
            self.sorted = true;
        }
    }
}

/// Deterministic future-event list (tick wheel + overflow heap).
#[derive(Clone)]
pub struct EventQueue<T> {
    /// Near-future buckets, indexed by
    /// `(at >> SLOT_NS_SHIFT) % wheel.len()`. The length is a power of
    /// two between [`MIN_WHEEL_SLOTS`] and [`MAX_WHEEL_SLOTS`].
    wheel: Vec<Slot<T>>,
    /// One bit per non-empty wheel slot (`wheel.len() / 64` words).
    occupied: Vec<u64>,
    /// Slot-aligned start of the wheel window. Invariant: every wheel
    /// entry's time lies in `[window_start, window_start + span())`,
    /// so the global slot mapping never collides across window cycles.
    window_start: u64,
    /// Events at or beyond the window's end (and the rare push into
    /// the past, which the kernel never does but the API allows).
    overflow: BinaryHeap<Entry<T>>,
    /// Memoized minimum `(time, seq, location)` — the kernel peeks
    /// before every pop, and without this each of those would scan the
    /// occupancy bitmap again. Kept exact: a push can only *lower* the
    /// minimum (compared directly), a pop invalidates it.
    cached_min: Option<(Time, u64, Loc)>,
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
            wheel: (0..MIN_WHEEL_SLOTS)
                .map(|_| Slot {
                    entries: Vec::new(),
                    sorted: true,
                })
                .collect(),
            occupied: vec![0; MIN_WHEEL_SLOTS / 64],
            window_start: 0,
            overflow: BinaryHeap::new(),
            cached_min: None,
            next_seq: RESERVED_SEQS,
            next_reserved: 0,
            len: 0,
        }
    }

    /// Current width of the wheel window in nanoseconds.
    fn span(&self) -> u64 {
        (self.wheel.len() as u64) << SLOT_NS_SHIFT
    }

    /// Double the slot count until the window covers `offset` (or the
    /// wheel hits [`MAX_WHEEL_SLOTS`]), re-bucketing existing entries
    /// under the widened slot mapping. `cached_min` may name a wheel
    /// slot by index, so it is invalidated.
    fn grow_to_cover(&mut self, offset: u64) {
        let mut slots = self.wheel.len();
        while slots < MAX_WHEEL_SLOTS && (slots as u64) << SLOT_NS_SHIFT <= offset {
            slots *= 2;
        }
        if slots == self.wheel.len() {
            return;
        }
        let old: Vec<Entry<T>> = self
            .wheel
            .iter_mut()
            .flat_map(|s| s.entries.drain(..))
            .collect();
        self.wheel = (0..slots)
            .map(|_| Slot {
                entries: Vec::new(),
                sorted: true,
            })
            .collect();
        self.occupied = vec![0; slots / 64];
        for entry in old {
            let slot_idx = ((entry.at.as_nanos() >> SLOT_NS_SHIFT) as usize) & (slots - 1);
            let slot = &mut self.wheel[slot_idx];
            if let Some(last) = slot.entries.last() {
                if (last.at, last.seq) < (entry.at, entry.seq) {
                    slot.sorted = false;
                }
            }
            slot.entries.push(entry);
            self.occupied[slot_idx / 64] |= 1 << (slot_idx % 64);
        }
        self.cached_min = None;
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
        if t >= self.window_start {
            let offset = t - self.window_start;
            // In the full window but past the current capacity: widen
            // the wheel rather than spill to overflow, so routing (and
            // memory ceiling) match a fixed max-size wheel.
            if offset >= self.span() && offset < WHEEL_SPAN {
                self.grow_to_cover(offset);
            }
        }
        let entry = Entry { at, seq, payload };
        let loc = if t >= self.window_start && t - self.window_start < self.span() {
            let slot_idx = ((t >> SLOT_NS_SHIFT) as usize) & (self.wheel.len() - 1);
            let slot = &mut self.wheel[slot_idx];
            // Appending keeps descending order only if the new key is
            // smaller than the current tail's.
            if let Some(last) = slot.entries.last() {
                if (last.at, last.seq) < (at, seq) {
                    slot.sorted = false;
                }
            }
            slot.entries.push(entry);
            self.occupied[slot_idx / 64] |= 1 << (slot_idx % 64);
            Loc::Wheel {
                slot: slot_idx as u32,
            }
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

    /// First occupied wheel slot in circular time order from the
    /// window start — the slot holding the wheel's earliest entry.
    fn first_occupied_slot(&self) -> Option<usize> {
        let words = self.occupied.len();
        let start = ((self.window_start >> SLOT_NS_SHIFT) as usize) & (self.wheel.len() - 1);
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

    /// Key of the earliest pending event: wheel minimum vs overflow
    /// minimum, whichever is smaller in `(time, seq)` order.
    fn peek_key(&mut self) -> Option<(Time, u64, Loc)> {
        if let Some(min) = self.cached_min {
            return Some(min);
        }
        let key = self.compute_min();
        self.cached_min = key;
        key
    }

    fn compute_min(&mut self) -> Option<(Time, u64, Loc)> {
        let wheel_min = self.first_occupied_slot().map(|s| {
            let slot = &mut self.wheel[s];
            slot.ensure_sorted();
            let e = slot.entries.last().expect("occupied slot is non-empty");
            (e.at, e.seq, Loc::Wheel { slot: s as u32 })
        });
        let over_min = self.overflow.peek().map(|e| (e.at, e.seq, Loc::Overflow));
        match (wheel_min, over_min) {
            (None, None) => None,
            (Some(w), None) => Some(w),
            (None, Some(o)) => Some(o),
            (Some(w), Some(o)) => {
                if (w.0, w.1) <= (o.0, o.1) {
                    Some(w)
                } else {
                    Some(o)
                }
            }
        }
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Time, T)> {
        let (_at, _seq, loc) = self.peek_key()?;
        self.cached_min = None;
        let entry = match loc {
            Loc::Wheel { slot } => {
                let slot_idx = slot as usize;
                let slot = &mut self.wheel[slot_idx];
                // A push after the peek may have dirtied the slot; the
                // cached (time, seq) minimum stays correct either way,
                // and sorting puts it back at the tail.
                slot.ensure_sorted();
                let e = slot.entries.pop().expect("peeked wheel slot");
                if slot.entries.is_empty() {
                    self.occupied[slot_idx / 64] &= !(1 << (slot_idx % 64));
                }
                e
            }
            Loc::Overflow => self.overflow.pop().expect("peeked overflow"),
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
    fn wheel_grows_on_demand_and_stays_ordered() {
        let mut q = EventQueue::new();
        assert_eq!(q.wheel.len(), MIN_WHEEL_SLOTS);
        // Fill the minimal window, then push progressively farther out
        // so the wheel must re-bucket live entries as it doubles.
        let mut expected = Vec::new();
        for i in 0..64u64 {
            let at = Time::from_nanos(i * ((MIN_WHEEL_SLOTS as u64) << SLOT_NS_SHIFT) / 64);
            q.push(at, i);
            expected.push((at, i));
        }
        let min_span = (MIN_WHEEL_SLOTS as u64) << SLOT_NS_SHIFT;
        for i in 64..128u64 {
            let at = Time::from_nanos(min_span + (i - 64) * (WHEEL_SPAN - min_span) / 64);
            q.push(at, i);
            expected.push((at, i));
        }
        assert_eq!(q.wheel.len(), MAX_WHEEL_SLOTS);
        assert_eq!(q.occupied.len(), MAX_WHEEL_SLOTS / 64);
        // Beyond the maximum span the overflow heap still catches it.
        q.push(Time::from_nanos(WHEEL_SPAN * 3), 128);
        expected.push((Time::from_nanos(WHEEL_SPAN * 3), 128));
        assert_eq!(q.wheel.len(), MAX_WHEEL_SLOTS);
        expected.sort_by_key(|&(at, i)| (at, i));
        for want in expected {
            assert_eq!(q.pop(), Some(want));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn growth_preserves_cached_min_correctness() {
        // Peek (priming the memoized minimum, which names a wheel slot
        // index), then force a growth that shifts slot indices; the
        // next pop must still return the true minimum.
        let mut q = EventQueue::new();
        q.push(Time::from_millis(1), 1);
        q.push(Time::from_millis(2), 2);
        assert_eq!(q.peek_time(), Some(Time::from_millis(1)));
        q.push(Time::from_millis(500), 3); // beyond the 134 ms minimal window
        assert!(q.wheel.len() > MIN_WHEEL_SLOTS);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn window_reanchors_after_drain() {
        let mut q = EventQueue::new();
        q.push(Time::from_millis(5), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        // Hours later, near-future traffic resumes; the window must
        // re-anchor so ordering (and the wheel fast path) still work.
        let base = Time::from_secs(7200);
        q.push(base + std::time::Duration::from_millis(2), 3);
        q.push(base + std::time::Duration::from_millis(1), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    /// The pre-overhaul queue: one `BinaryHeap` over the same entries.
    /// The equivalence tests drive it in lockstep with the tick wheel.
    struct ReferenceQueue<T> {
        heap: BinaryHeap<Entry<T>>,
        next_seq: u64,
    }

    impl<T> ReferenceQueue<T> {
        fn new() -> Self {
            ReferenceQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }
        fn push(&mut self, at: Time, payload: T) {
            let seq = self.next_seq;
            self.next_seq += 1;
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

    /// Drive both queues with an identical random push/pop sequence
    /// and assert identical pop streams. Times mix sub-slot jitter,
    /// same-instant ties, whole-window jumps and far-future spikes —
    /// every path between wheel and overflow.
    fn equivalence_drive(seed: u64, ops: usize, monotonic: bool) {
        let mut wheel = EventQueue::new();
        let mut reference = ReferenceQueue::new();
        let mut rng = XorShift(seed | 1);
        let mut id = 0u64;
        let mut floor = 0u64; // pops so far never exceed pushes ≥ floor
        for _ in 0..ops {
            let roll = rng.next() % 100;
            if roll < 60 || wheel.is_empty() {
                let jitter = match rng.next() % 5 {
                    0 => 0,                                         // exact tie with floor
                    1 => rng.next() % 1_000,                        // sub-microsecond
                    2 => rng.next() % 40_000_000,                   // within a few slots
                    3 => rng.next() % WHEEL_SPAN,                   // anywhere in window
                    _ => WHEEL_SPAN + rng.next() % 100_000_000_000, // overflow
                };
                let base = if monotonic { floor } else { 0 };
                let at = Time::from_nanos(base.saturating_add(jitter));
                wheel.push(at, id);
                reference.push(at, id);
                id += 1;
            } else {
                assert_eq!(wheel.peek_time(), reference.peek_time());
                let got = wheel.pop();
                let want = reference.pop();
                match (&got, &want) {
                    (Some((at, v)), Some((rat, rv))) => {
                        assert_eq!((at, v), (rat, rv));
                        if monotonic {
                            floor = at.as_nanos();
                        }
                    }
                    _ => assert_eq!(got.is_none(), want.is_none()),
                }
                assert_eq!(wheel.len(), reference.heap.len());
            }
        }
        // Drain both and compare the full remaining order.
        loop {
            let got = wheel.pop();
            let want = reference.pop();
            assert_eq!(got.is_some(), want.is_some());
            match (got, want) {
                (Some(g), Some(w)) => assert_eq!(g, w),
                _ => break,
            }
        }
        assert!(wheel.is_empty());
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
}
