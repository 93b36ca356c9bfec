//! Link profiles: latency, bandwidth and loss.
//!
//! Data-plane links between switches (and between virtual machines in
//! the mirrored environment) are modelled as full-duplex pipes. Each
//! direction serializes frames at `bandwidth_bps` and then propagates
//! them after `latency`. A link drops each frame independently with
//! probability `drop_chance`, the sustained-loss fault.

use rand::Rng;
use std::time::Duration;

/// Static properties of a point-to-point link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkProfile {
    /// One-way propagation delay.
    pub latency: Duration,
    /// Serialization rate in bits per second (0 = infinite).
    pub bandwidth_bps: u64,
    /// Probability in `[0,1]` that a frame is silently dropped, per
    /// frame and direction.
    pub drop_chance: f64,
}

impl Default for LinkProfile {
    fn default() -> Self {
        // 1 ms / 1 Gbps: a sensible default for an emulated testbed link.
        LinkProfile {
            latency: Duration::from_millis(1),
            bandwidth_bps: 1_000_000_000,
            drop_chance: 0.0,
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

    /// Whether the next frame is lost. Draws from `rng` only on a lossy
    /// link, so a clean link leaves the stream untouched.
    pub fn drops<R: Rng>(&self, rng: &mut R) -> bool {
        self.drop_chance > 0.0 && rng.gen_bool(self.drop_chance.clamp(0.0, 1.0))
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

    fn lossy(drop_chance: f64) -> LinkProfile {
        LinkProfile {
            drop_chance,
            ..LinkProfile::default()
        }
    }

    #[test]
    fn clean_link_never_drops_or_draws() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut untouched = rng.clone();
        assert!(!LinkProfile::default().drops(&mut rng));
        assert_eq!(rng.gen::<u64>(), untouched.gen::<u64>());
    }

    #[test]
    fn drop_chance_one_always_drops() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!((0..100).all(|_| lossy(1.0).drops(&mut rng)));
    }

    #[test]
    fn lossy_drops_roughly_expected_fraction() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = lossy(0.25);
        let n = 10_000;
        let dropped = (0..n).filter(|_| p.drops(&mut rng)).count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "observed drop rate {rate}");
    }

    #[test]
    fn serialization_delay_math() {
        let p = LinkProfile {
            latency: Duration::ZERO,
            bandwidth_bps: 1_000_000, // 1 Mbps
            drop_chance: 0.0,
        };
        // 125 bytes = 1000 bits = 1 ms at 1 Mbps.
        assert_eq!(p.serialization_delay(125), Duration::from_millis(1));
        let inf = LinkProfile::with_latency(Duration::from_millis(5));
        assert_eq!(inf.serialization_delay(1_000_000), Duration::ZERO);
    }
}
