//! Metric counters for simulations.
//!
//! A [`Tracer`] holds the kernel's hot-path slots ([`KernelCounter`])
//! and the agents' named counters ([`Ctx::count`](crate::Ctx::count)),
//! read back through [`Tracer::counters`] — and nothing else. What
//! happened *when* is typed state the agents keep.

use std::collections::BTreeMap;

/// Whether the tracer counts.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TraceLevel {
    /// Count nothing.
    Off,
    /// Count everything, exactly.
    #[default]
    Info,
}

/// The kernel's hot-path counters, as dense array slots.
///
/// Frame and stream transmission count on every single event, so the
/// kernel must not pay a string hash or a `BTreeMap` walk per
/// increment. Each variant owns one slot in a fixed array inside
/// [`Tracer`]; the string-keyed readout API ([`Tracer::counter`],
/// [`Tracer::counters`]) resolves these names transparently, so
/// harvesting code cannot tell the slots from ordinary named counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum KernelCounter {
    /// `link.tx_frames` — frames handed to a link transmitter.
    TxFrames,
    /// `link.tx_bytes` — payload bytes of those frames.
    TxBytes,
    /// `link.tx_no_link` — sends on an unwired port.
    TxNoLink,
    /// `link.tx_down` — sends on an administratively-down link.
    TxDown,
    /// `link.dropped` — frames lost to the link's `drop_chance`.
    Dropped,
    /// `conn.opened` — stream handshakes completed.
    ConnOpened,
    /// `conn.refused` — connects to a non-listening peer.
    ConnRefused,
    /// `conn.tx_closed` — sends on an already-closed stream.
    ConnTxClosed,
    /// `conn.tx_bytes` — stream payload bytes sent.
    ConnTxBytes,
}

impl KernelCounter {
    /// Number of slots (the array length inside [`Tracer`]).
    pub const COUNT: usize = 9;

    /// Every variant, in slot order.
    pub const ALL: [KernelCounter; KernelCounter::COUNT] = [
        KernelCounter::TxFrames,
        KernelCounter::TxBytes,
        KernelCounter::TxNoLink,
        KernelCounter::TxDown,
        KernelCounter::Dropped,
        KernelCounter::ConnOpened,
        KernelCounter::ConnRefused,
        KernelCounter::ConnTxClosed,
        KernelCounter::ConnTxBytes,
    ];

    /// The public counter name this slot answers to.
    pub const fn name(self) -> &'static str {
        match self {
            KernelCounter::TxFrames => "link.tx_frames",
            KernelCounter::TxBytes => "link.tx_bytes",
            KernelCounter::TxNoLink => "link.tx_no_link",
            KernelCounter::TxDown => "link.tx_down",
            KernelCounter::Dropped => "link.dropped",
            KernelCounter::ConnOpened => "conn.opened",
            KernelCounter::ConnRefused => "conn.refused",
            KernelCounter::ConnTxClosed => "conn.tx_closed",
            KernelCounter::ConnTxBytes => "conn.tx_bytes",
        }
    }

    /// Reverse lookup for the string readout API (cold path only).
    pub fn from_name(name: &str) -> Option<KernelCounter> {
        KernelCounter::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// Named monotonic counters.
///
/// Counting is gated on the trace level: at [`TraceLevel::Off`] (the
/// release-sweep setting) both the kernel slots and the named map are
/// frozen, so the hot path pays one branch and nothing else; at
/// [`TraceLevel::Info`] the values are exact.
#[derive(Clone, Default)]
pub struct Tracer {
    level: TraceLevel,
    counters: BTreeMap<String, u64>,
    /// Dense slots for [`KernelCounter`] (no hashing on the hot path).
    kernel: [u64; KernelCounter::COUNT],
}

impl Tracer {
    pub fn new(level: TraceLevel) -> Self {
        Tracer {
            level,
            ..Tracer::default()
        }
    }

    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Increment a named counter. Gated on the level: `Off` counts
    /// nothing (the release-sweep fast path), `Info` counts exactly.
    /// Only a name's first increment allocates its key.
    pub fn count(&mut self, name: &str, delta: u64) {
        if self.level == TraceLevel::Off {
            return;
        }
        match self.counters.get_mut(name) {
            Some(value) => *value += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Increment a kernel counter slot — a bounds-check-free array add,
    /// no hashing, no allocation. Same `Off` gate as [`Tracer::count`].
    #[inline]
    pub fn count_kernel(&mut self, slot: KernelCounter, delta: u64) {
        if self.level == TraceLevel::Off {
            return;
        }
        self.kernel[slot as usize] += delta;
    }

    /// Read a counter by name; kernel slot names resolve to their
    /// array slots, everything else to the named map.
    pub fn counter(&self, name: &str) -> u64 {
        if let Some(slot) = KernelCounter::from_name(name) {
            return self.kernel[slot as usize];
        }
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Every counter (named and kernel slots) as one name → value map.
    /// Kernel slots appear only once non-zero, mirroring how named
    /// counters only exist after their first increment.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let mut all = self.counters.clone();
        for slot in KernelCounter::ALL {
            let v = self.kernel[slot as usize];
            if v != 0 {
                all.insert(slot.name().to_string(), v);
            }
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut tr = Tracer::new(TraceLevel::Info);
        tr.count("of.flow_mod", 1);
        tr.count("of.flow_mod", 2);
        assert_eq!(tr.counter("of.flow_mod"), 3);
        assert_eq!(tr.counter("missing"), 0);
    }

    #[test]
    fn off_gates_all_counting() {
        let mut tr = Tracer::new(TraceLevel::Off);
        tr.count("of.flow_mod", 5);
        tr.count_kernel(KernelCounter::TxFrames, 5);
        assert_eq!(tr.counter("of.flow_mod"), 0);
        assert_eq!(tr.counter("link.tx_frames"), 0);
        assert!(tr.counters().is_empty());
    }

    #[test]
    fn kernel_slots_answer_to_their_names() {
        let mut tr = Tracer::new(TraceLevel::Info);
        tr.count_kernel(KernelCounter::TxFrames, 2);
        tr.count_kernel(KernelCounter::TxBytes, 300);
        tr.count("rf.flow_add", 1);
        assert_eq!(tr.counter("link.tx_frames"), 2);
        assert_eq!(tr.counter("link.tx_bytes"), 300);
        let all = tr.counters();
        assert_eq!(all.get("link.tx_frames"), Some(&2));
        assert_eq!(all.get("link.tx_bytes"), Some(&300));
        assert_eq!(all.get("rf.flow_add"), Some(&1));
        // Zero slots stay invisible, like never-incremented named ones.
        assert!(!all.contains_key("link.dropped"));
    }

    #[test]
    fn kernel_counter_names_round_trip() {
        for slot in KernelCounter::ALL {
            assert_eq!(KernelCounter::from_name(slot.name()), Some(slot));
        }
        assert_eq!(KernelCounter::from_name("link.unknown"), None);
    }
}
