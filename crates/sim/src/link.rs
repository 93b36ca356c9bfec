//! Link profiles: latency, bandwidth and fault injection.
//!
//! Data-plane links between switches (and between virtual machines in
//! the mirrored environment) are modelled as full-duplex pipes. Each
//! direction serializes frames at `bandwidth_bps` and then propagates
//! them after `latency`. Fault injection follows the smoltcp example
//! conventions: independent per-frame drop, corruption and duplication
//! probabilities.

use bytes::{Bytes, BytesMut};
use rand::Rng;
use std::time::Duration;

/// Stochastic fault model applied per frame, per direction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultProfile {
    /// Probability in `[0,1]` that a frame is silently dropped.
    pub drop_chance: f64,
    /// Probability in `[0,1]` that one octet of the frame is flipped.
    pub corrupt_chance: f64,
    /// Probability in `[0,1]` that the frame is delivered twice.
    pub duplicate_chance: f64,
    /// Frames longer than this many octets are dropped (0 = no limit).
    pub size_limit: usize,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            drop_chance: 0.0,
            corrupt_chance: 0.0,
            duplicate_chance: 0.0,
            size_limit: 0,
        }
    }
}

impl FaultProfile {
    /// A perfectly reliable link.
    pub const fn reliable() -> Self {
        FaultProfile {
            drop_chance: 0.0,
            corrupt_chance: 0.0,
            duplicate_chance: 0.0,
            size_limit: 0,
        }
    }

    /// A lossy link dropping `pct` percent of frames.
    pub fn lossy(pct: f64) -> Self {
        FaultProfile {
            drop_chance: (pct / 100.0).clamp(0.0, 1.0),
            ..Self::reliable()
        }
    }

    /// Outcome of passing one frame through the fault model. The frame
    /// is taken by value and handed back in the outcome: only a
    /// corrupted delivery copies it.
    pub fn apply<R: Rng>(&self, rng: &mut R, frame: Bytes) -> FaultOutcome {
        if self.size_limit != 0 && frame.len() > self.size_limit {
            return FaultOutcome::Dropped;
        }
        if self.drop_chance > 0.0 && rng.gen_bool(self.drop_chance.clamp(0.0, 1.0)) {
            return FaultOutcome::Dropped;
        }
        let frame = if self.corrupt_chance > 0.0
            && !frame.is_empty()
            && rng.gen_bool(self.corrupt_chance.clamp(0.0, 1.0))
        {
            let mut buf = BytesMut::from(&frame[..]);
            let idx = rng.gen_range(0..buf.len());
            let bit = 1u8 << rng.gen_range(0..8);
            buf[idx] ^= bit;
            buf.freeze()
        } else {
            frame
        };
        let duplicate =
            self.duplicate_chance > 0.0 && rng.gen_bool(self.duplicate_chance.clamp(0.0, 1.0));
        FaultOutcome::Deliver { frame, duplicate }
    }
}

/// Result of [`FaultProfile::apply`].
#[derive(Clone, Debug, PartialEq)]
pub enum FaultOutcome {
    Dropped,
    Deliver { frame: Bytes, duplicate: bool },
}

/// Static properties of a point-to-point link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkProfile {
    /// One-way propagation delay.
    pub latency: Duration,
    /// Serialization rate in bits per second (0 = infinite).
    pub bandwidth_bps: u64,
    /// Fault injection model.
    pub faults: FaultProfile,
}

impl Default for LinkProfile {
    fn default() -> Self {
        // 1 ms / 1 Gbps: a sensible default for an emulated testbed link.
        LinkProfile {
            latency: Duration::from_millis(1),
            bandwidth_bps: 1_000_000_000,
            faults: FaultProfile::reliable(),
        }
    }
}

impl LinkProfile {
    /// A link with the given one-way latency and infinite bandwidth.
    pub fn with_latency(latency: Duration) -> Self {
        LinkProfile {
            latency,
            bandwidth_bps: 0,
            ..Default::default()
        }
    }

    /// Serialization delay for a frame of `len` octets.
    pub fn serialization_delay(&self, len: usize) -> Duration {
        match (len as u64 * 8)
            .saturating_mul(1_000_000_000)
            .checked_div(self.bandwidth_bps)
        {
            Some(ns) => Duration::from_nanos(ns),
            None => Duration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn frame(n: usize) -> Bytes {
        Bytes::from(vec![0xAAu8; n])
    }

    #[test]
    fn reliable_link_delivers_unchanged() {
        let mut rng = StdRng::seed_from_u64(1);
        let f = frame(64);
        match FaultProfile::reliable().apply(&mut rng, f.clone()) {
            FaultOutcome::Deliver { frame, duplicate } => {
                assert_eq!(frame, f);
                assert!(!duplicate);
            }
            FaultOutcome::Dropped => panic!("reliable link dropped a frame"),
        }
    }

    #[test]
    fn drop_chance_one_always_drops() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = FaultProfile {
            drop_chance: 1.0,
            ..FaultProfile::reliable()
        };
        assert_eq!(p.apply(&mut rng, frame(10)), FaultOutcome::Dropped);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = FaultProfile {
            corrupt_chance: 1.0,
            ..FaultProfile::reliable()
        };
        let f = frame(32);
        match p.apply(&mut rng, f.clone()) {
            FaultOutcome::Deliver { frame: out, .. } => {
                let diff: u32 = out
                    .iter()
                    .zip(f.iter())
                    .map(|(a, b)| (a ^ b).count_ones())
                    .sum();
                assert_eq!(diff, 1, "exactly one bit must differ");
            }
            _ => panic!("corruption must still deliver"),
        }
    }

    #[test]
    fn size_limit_drops_oversize() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = FaultProfile {
            size_limit: 100,
            ..FaultProfile::reliable()
        };
        assert_eq!(p.apply(&mut rng, frame(101)), FaultOutcome::Dropped);
        assert!(matches!(
            p.apply(&mut rng, frame(100)),
            FaultOutcome::Deliver { .. }
        ));
    }

    #[test]
    fn lossy_drops_roughly_expected_fraction() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = FaultProfile::lossy(25.0);
        let f = frame(8);
        let n = 10_000;
        let dropped = (0..n)
            .filter(|_| p.apply(&mut rng, f.clone()) == FaultOutcome::Dropped)
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "observed drop rate {rate}");
    }

    #[test]
    fn serialization_delay_math() {
        let p = LinkProfile {
            latency: Duration::ZERO,
            bandwidth_bps: 1_000_000, // 1 Mbps
            faults: FaultProfile::reliable(),
        };
        // 125 bytes = 1000 bits = 1 ms at 1 Mbps.
        assert_eq!(p.serialization_delay(125), Duration::from_millis(1));
        let inf = LinkProfile::with_latency(Duration::from_millis(5));
        assert_eq!(inf.serialization_delay(1_000_000), Duration::ZERO);
    }

    #[test]
    fn duplicate_chance_one_duplicates() {
        let mut rng = StdRng::seed_from_u64(6);
        let p = FaultProfile {
            duplicate_chance: 1.0,
            ..FaultProfile::reliable()
        };
        match p.apply(&mut rng, frame(9)) {
            FaultOutcome::Deliver { duplicate, .. } => assert!(duplicate),
            _ => panic!(),
        }
    }
}
