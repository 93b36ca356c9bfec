//! The seeded demand model shared by both traffic granularities.
//!
//! Packet-level agents and the flow-level engine consume the *same*
//! [`ArrivalStream`]/[`WaveStream`] types, drawing from per-endpoint
//! generators in the same order — so switching `TrafficMode` changes
//! how load moves through the network, never how much load there is.

use super::WorkloadError;
use rand::distributions::{BoundedPareto, Exp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// How many payload bytes a flow carries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FlowSize {
    Fixed {
        bytes: u64,
    },
    /// Bounded Pareto on `[min_bytes, max_bytes]` with shape
    /// `alpha_milli / 1000` — many mice, occasional elephants.
    Pareto {
        min_bytes: u64,
        max_bytes: u64,
        alpha_milli: u32,
    },
}

impl FlowSize {
    pub fn fixed(bytes: u64) -> FlowSize {
        FlowSize::Fixed { bytes }
    }

    /// The canonical heavy-tailed mix: shape 1.2 between `min` and
    /// `max` bytes.
    pub fn pareto(min_bytes: u64, max_bytes: u64) -> FlowSize {
        FlowSize::Pareto {
            min_bytes,
            max_bytes,
            alpha_milli: 1200,
        }
    }

    pub fn validate(&self) -> Result<(), WorkloadError> {
        match *self {
            FlowSize::Fixed { bytes } => {
                if bytes == 0 {
                    return Err(WorkloadError::ZeroRate("flow size"));
                }
            }
            FlowSize::Pareto {
                min_bytes,
                max_bytes,
                alpha_milli,
            } => {
                BoundedPareto::new(
                    f64::from(alpha_milli) / 1000.0,
                    min_bytes as f64,
                    max_bytes as f64,
                )
                .map_err(WorkloadError::BadDistribution)?;
            }
        }
        Ok(())
    }

    /// Draw a flow size in bytes (at least 1).
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        match *self {
            FlowSize::Fixed { bytes } => bytes,
            FlowSize::Pareto {
                min_bytes,
                max_bytes,
                alpha_milli,
            } => {
                let p = BoundedPareto::new(
                    f64::from(alpha_milli) / 1000.0,
                    min_bytes as f64,
                    max_bytes as f64,
                )
                .expect("validated size distribution");
                (p.sample(rng) as u64).max(1)
            }
        }
    }
}

/// One endpoint's Poisson arrival timeline: absolute offsets from
/// t = 0, exponential gaps, a flow size drawn per arrival. Both
/// granularities step this with identical draw order, so the offered
/// load matches exactly.
#[derive(Clone, Debug)]
pub struct ArrivalStream {
    gaps: Exp,
    size: FlowSize,
    rng: StdRng,
    cursor: Duration,
    stop: Duration,
}

impl ArrivalStream {
    /// `rate_per_sec` arrivals a second on average; the rate must pass
    /// [`Exp::new`], which [`Workload::traffic`] checks.
    ///
    /// [`Workload::traffic`]: crate::scenario::Workload::traffic
    pub fn new(
        seed: u64,
        rate_per_sec: f64,
        size: FlowSize,
        start: Duration,
        stop: Duration,
    ) -> ArrivalStream {
        ArrivalStream {
            gaps: Exp::new(rate_per_sec).expect("validated rate"),
            size,
            rng: StdRng::seed_from_u64(seed),
            cursor: start,
            stop,
        }
    }

    /// The next `(arrival offset, flow bytes)`, or `None` once the
    /// window is exhausted. The gap is drawn before the bounds check
    /// and the size only after it, so every consumer observes the same
    /// stream positions. A gap is at least 1 µs, so a pathological rate
    /// cannot collapse the event loop into zero-width steps.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(Duration, u64)> {
        let gap_ns = (self.gaps.sample(&mut self.rng) * 1e9) as u64;
        let at = self.cursor + Duration::from_nanos(gap_ns.max(1_000));
        if at >= self.stop {
            return None;
        }
        self.cursor = at;
        let bytes = self.size.sample(&mut self.rng);
        Some((at, bytes))
    }
}

/// One incast sender's wave timeline: `waves` blasts, `period` apart,
/// each with an independently drawn flow size.
#[derive(Clone, Debug)]
pub struct WaveStream {
    size: FlowSize,
    rng: StdRng,
    start: Duration,
    period: Duration,
    waves: u32,
    fired: u32,
}

impl WaveStream {
    pub fn new(seed: u64, size: FlowSize, start: Duration, period: Duration, waves: u32) -> Self {
        WaveStream {
            size,
            rng: StdRng::seed_from_u64(seed),
            start,
            period,
            waves,
            fired: 0,
        }
    }

    /// The next `(wave offset, flow bytes)`, or `None` after the last
    /// wave.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(Duration, u64)> {
        if self.fired >= self.waves {
            return None;
        }
        let at = self.start + self.period * self.fired;
        self.fired += 1;
        let bytes = self.size.sample(&mut self.rng);
        Some((at, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    #[test]
    fn poisson_stream_is_reproducible_and_windowed() {
        let mk = || {
            ArrivalStream::new(
                42,
                10.0,
                FlowSize::pareto(1_000, 100_000),
                secs(5),
                secs(15),
            )
        };
        let mut a = mk();
        let mut b = mk();
        let mut count = 0;
        while let Some((at, bytes)) = a.next() {
            assert_eq!(b.next(), Some((at, bytes)));
            assert!(at >= secs(5) && at < secs(15));
            assert!((1_000..=100_000).contains(&bytes));
            count += 1;
        }
        assert!(b.next().is_none());
        // ~10/s over 10 s, loosely.
        assert!((50..200).contains(&count), "{count} arrivals");
    }

    #[test]
    fn different_seeds_diverge() {
        let size = FlowSize::pareto(1_000, 50_000);
        let mut a = ArrivalStream::new(1, 5.0, size, secs(0), secs(10));
        let mut b = ArrivalStream::new(2, 5.0, size, secs(0), secs(10));
        assert_ne!(a.next(), b.next());
    }

    #[test]
    fn waves_fire_on_schedule() {
        let mut w = WaveStream::new(3, FlowSize::fixed(9_000), secs(2), secs(4), 3);
        let times: Vec<Duration> = std::iter::from_fn(|| w.next()).map(|(t, _)| t).collect();
        assert_eq!(times, vec![secs(2), secs(6), secs(10)]);
    }
}
