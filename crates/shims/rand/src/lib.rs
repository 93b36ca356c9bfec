//! Offline stand-in for the `rand` crate: the subset this workspace
//! uses (`StdRng::seed_from_u64`, `gen`, `gen_bool`, `gen_range`),
//! backed by the splitmix64 generator. Determinism is the only property
//! the simulator relies on; statistical quality is secondary, and
//! splitmix64 passes the bar for fault injection and random topologies.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Raw generator interface.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// High-level sampling helpers, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// True with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen::<f64>() < p.clamp(0.0, 1.0)
    }

    /// Uniform sample from a half-open integer range.
    fn gen_range<T: SampleRange>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_range(self, range)
    }
}

impl<R: RngCore> Rng for R {}

/// Types samplable uniformly from their full domain (`rng.gen()`).
pub trait Standard {
    fn sample<R: RngCore>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore>(rng: &mut R) -> f64 {
        // 53 mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn sample<R: RngCore>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl Standard for bool {
    fn sample<R: RngCore>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Integer types usable with `gen_range(lo..hi)`.
pub trait SampleRange: Sized {
    fn sample_range<R: RngCore>(rng: &mut R, range: Range<Self>) -> Self;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample_range<R: RngCore>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty gen_range");
                let span = (range.end as u64).wrapping_sub(range.start as u64);
                // Modulo bias is negligible for the tiny spans used here.
                range.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}
impl_sample_range!(u8, u16, u32, u64, usize, i32);

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Non-uniform samplers used by the traffic engine. Inverse-transform
/// only: one `next_u64` per draw, so stream positions stay easy to
/// reason about when replaying a seed.
pub mod distributions {
    use super::{RngCore, Standard};

    fn unit<R: RngCore>(rng: &mut R) -> f64 {
        f64::sample(rng)
    }

    /// Exponential distribution with rate `lambda` (mean `1/lambda`).
    /// The inter-arrival law of a Poisson process.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct Exp {
        lambda: f64,
    }

    impl Exp {
        /// `lambda` must be positive and finite.
        pub fn new(lambda: f64) -> Result<Exp, &'static str> {
            if lambda.is_finite() && lambda > 0.0 {
                Ok(Exp { lambda })
            } else {
                Err("Exp rate must be positive and finite")
            }
        }

        pub fn sample<R: RngCore>(&self, rng: &mut R) -> f64 {
            // 1 - U keeps the argument in (0, 1]: ln never sees zero.
            -(1.0 - unit(rng)).ln() / self.lambda
        }
    }

    /// Pareto distribution truncated to `[min, max]` with shape
    /// `alpha` — the classic heavy-tailed flow-size / burst-gap law,
    /// bounded so a single draw cannot run a cell forever.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct BoundedPareto {
        alpha: f64,
        min: f64,
        max: f64,
    }

    impl BoundedPareto {
        /// Requires `0 < min < max` and a positive finite `alpha`.
        pub fn new(alpha: f64, min: f64, max: f64) -> Result<BoundedPareto, &'static str> {
            if !(alpha.is_finite() && alpha > 0.0) {
                Err("BoundedPareto shape must be positive and finite")
            } else if !(min.is_finite() && max.is_finite() && 0.0 < min && min < max) {
                Err("BoundedPareto needs 0 < min < max")
            } else {
                Ok(BoundedPareto { alpha, min, max })
            }
        }

        pub fn sample<R: RngCore>(&self, rng: &mut R) -> f64 {
            // Inverse CDF of the bounded Pareto: U=0 -> min, U->1 -> max.
            let u = unit(rng);
            let la = self.min.powf(self.alpha);
            let ha = self.max.powf(self.alpha);
            let x = (ha + u * (la - ha)) / (ha * la);
            x.powf(-1.0 / self.alpha).clamp(self.min, self.max)
        }
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic 64-bit generator (splitmix64).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            StdRng { state: seed }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn determinism_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn unit_interval_and_ranges() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let f: f64 = r.gen();
            assert!((0.0..1.0).contains(&f));
            let v = r.gen_range(3usize..10);
            assert!((3..10).contains(&v));
        }
    }

    #[test]
    fn exp_mean_and_determinism() {
        use distributions::Exp;
        let d = Exp::new(4.0).unwrap();
        let mut r = StdRng::seed_from_u64(5);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        assert!(
            (mean - 0.25).abs() < 0.01,
            "Exp(4) mean should be ~0.25, got {mean}"
        );
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
        assert!(Exp::new(0.0).is_err());
        assert!(Exp::new(f64::NAN).is_err());
    }

    #[test]
    fn bounded_pareto_stays_in_bounds_and_skews_low() {
        use distributions::BoundedPareto;
        let d = BoundedPareto::new(1.2, 1_000.0, 1_000_000.0).unwrap();
        let mut r = StdRng::seed_from_u64(11);
        let mut below_10k = 0usize;
        for _ in 0..10_000 {
            let x = d.sample(&mut r);
            assert!((1_000.0..=1_000_000.0).contains(&x), "out of bounds: {x}");
            if x < 10_000.0 {
                below_10k += 1;
            }
        }
        // Shape 1.2 over three decades: the bulk of the mass sits in
        // the lowest decade (heavy tail = rare elephants, many mice).
        assert!(
            below_10k > 8_000,
            "expected mouse-dominated draw, got {below_10k}/10000 below 10k"
        );
        assert!(BoundedPareto::new(1.0, 10.0, 10.0).is_err());
        assert!(BoundedPareto::new(-1.0, 1.0, 2.0).is_err());
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = StdRng::seed_from_u64(2);
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }
}
