//! Host-speed calibration: a fixed piece of work, owned by the
//! benchmark, that is timed in thin slices between the cells of every
//! pass, so that a pass's time can be stated at a reference host speed.
//!
//! Why: the machines this runs on are a few cores of a shared host
//! whose speed moves by up to 1.45x (twice that in bursts) for seconds
//! to minutes at a time — a neighbour filling the shared cache, not a
//! stolen core, so CPU time shows it as much as wall time does. No
//! median, minimum or quartile over the passes of one run removes a
//! plateau longer than the run, and two sets of runs of identical code
//! then differ by more than any bound worth having. The slow-down hits
//! whatever executes, so the ratio of a pass's time to the time of
//! calibration slices interleaved with it cancels it to first order.
//!
//! The work is shaped like the program under test — a discrete-event
//! loop: pop the earliest event off a binary heap, fill a message-sized
//! buffer, update a hash-map entry, read the buffer it replaces,
//! reschedule — and its working set stays within the private caches.
//! That shape was chosen by measurement: of five candidates timed in
//! between the passes of all four workloads for half an hour each, it
//! followed their slow-downs most nearly one for one (pure arithmetic
//! under-reacts, random reads over 4 MiB and more over-react by up to
//! 2x). It uses nothing of the program, so a change to the program
//! cannot move it, and it allocates only when constructed, so it does
//! not perturb the program's allocator or its peak memory.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::{Duration, Instant};

/// What one calibration step costs on the reference host (2 vCPUs of
/// an Intel Xeon @ 2.10 GHz) in its quiet state. Times are scaled by
/// this over the measured step cost, so they read as seconds on that
/// host; the constant only fixes the scale.
pub const REFERENCE_STEP_NS: f64 = 92.0;

/// Calibration time as a share of the time spent on the program.
const SHARE: f64 = 0.2;

/// Steps per slice: about a millisecond, far above timer resolution
/// and far below the length of a cell.
const SLICE_STEPS: u64 = 8_192;

const STANDING_EVENTS: u32 = 4_096;
const MAP_KEYS: u32 = 1_024;
const SLAB_BYTES: usize = 128 << 10;
/// Buffers are 64 to 1087 bytes, as frames and control messages are.
const MAX_BUFFER: usize = 64 + 1_023;

/// Steps executed and the time they took.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Reading {
    pub steps: u64,
    pub busy: Duration,
}

impl Reading {
    pub fn step_ns(&self) -> f64 {
        assert!(self.steps > 0, "no calibration slice ran");
        self.busy.as_secs_f64() * 1e9 / self.steps as f64
    }

    /// `measured` seconds of program time, taken while this reading's
    /// slices ran in between, restated at the reference host speed.
    pub fn at_reference_speed(&self, measured: f64) -> f64 {
        measured * REFERENCE_STEP_NS / self.step_ns()
    }
}

pub struct HostCal {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Key to the buffer last written under it: (offset, length).
    map: HashMap<u32, (u32, u32)>,
    slab: Vec<u8>,
    rng: u64,
    /// Keeps the reads observable.
    sink: u64,
    /// Start of the interval being calibrated, and what ran in it.
    since: Instant,
    reading: Reading,
    /// Everything this calibrator ever cost, construction included: not
    /// the program's time.
    overhead: Duration,
}

impl HostCal {
    pub fn new() -> HostCal {
        let started = Instant::now();
        let mut cal = HostCal {
            heap: (0..STANDING_EVENTS)
                .map(|id| Reverse((u64::from(id) * 7 % 1_000, id)))
                .collect(),
            map: (0..MAP_KEYS).map(|k| (k, (0, 64))).collect(),
            slab: vec![0; SLAB_BYTES],
            rng: 0x9E37_79B9_7F4A_7C15,
            sink: 0,
            since: started,
            reading: Reading::default(),
            overhead: Duration::ZERO,
        };
        // Fault the slab in and let the heap reach its steady shape.
        for _ in 0..16 {
            cal.slice();
        }
        cal.begin();
        cal.overhead = started.elapsed();
        cal
    }

    /// Start calibrating a new interval.
    pub fn begin(&mut self) {
        self.since = Instant::now();
        self.reading = Reading::default();
    }

    /// Run slices until calibration has had its share of the interval
    /// so far. Called between cells, so the slices spread evenly over
    /// the pass and see the same host as the cells do.
    pub fn keep_pace(&mut self) {
        while self.reading.busy.as_secs_f64()
            < SHARE * (self.since.elapsed() - self.reading.busy).as_secs_f64()
        {
            self.slice();
        }
    }

    /// Program time in the interval so far: elapsed minus calibration.
    pub fn program_time(&self) -> Duration {
        self.since.elapsed() - self.reading.busy
    }

    pub fn reading(&self) -> Reading {
        self.reading
    }

    pub fn overhead(&self) -> Duration {
        self.overhead
    }

    fn next_random(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    fn slice(&mut self) {
        let started = Instant::now();
        for _ in 0..SLICE_STEPS {
            let Reverse((at, id)) = self.heap.pop().expect("standing events never drain");
            let x = self.next_random();
            let len = 64 + (x >> 20) as usize % (MAX_BUFFER - 63);
            let offset = ((x >> 8) as usize % (SLAB_BYTES - MAX_BUFFER)) & !63;
            self.slab[offset..offset + len].fill(x as u8);
            let replaced = self.map.insert(id % MAP_KEYS, (offset as u32, len as u32));
            let (old, old_len) = replaced.expect("every key present");
            self.sink = self
                .sink
                .wrapping_add(u64::from(self.slab[old as usize]))
                .wrapping_add(u64::from(self.slab[(old + old_len - 1) as usize]));
            self.heap.push(Reverse((at + 1 + (x >> 40) % 1_000, id)));
        }
        let took = started.elapsed();
        std::hint::black_box(self.sink);
        self.reading.steps += SLICE_STEPS;
        self.reading.busy += took;
        self.overhead += took;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_by_the_measured_step_cost_cancels_a_uniform_slowdown() {
        let quiet = Reading {
            steps: 1_000,
            busy: Duration::from_nanos(100_000),
        };
        let slow = Reading {
            steps: 2_000,
            busy: Duration::from_nanos(290_000),
        };
        assert!((quiet.step_ns() - 100.0).abs() < 1e-9);
        let (a, b) = (quiet.at_reference_speed(2.0), slow.at_reference_speed(2.9));
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn calibration_keeps_its_share_of_an_interval() {
        let mut cal = HostCal::new();
        cal.begin();
        let started = Instant::now();
        while started.elapsed() < Duration::from_millis(50) {
            std::hint::spin_loop();
        }
        cal.keep_pace();
        let (busy, program) = (cal.reading().busy, cal.program_time());
        assert!(cal.reading().steps >= SLICE_STEPS);
        assert!(busy.as_secs_f64() >= SHARE * 0.05, "{busy:?}");
        assert!(busy < program, "{busy:?} vs {program:?}");
        assert!(cal.overhead() >= busy);
    }
}
