//! Offline stand-in for `proptest`: the strategy/macro subset the
//! workspace's property tests use. Each `proptest!` test runs a fixed
//! number of deterministic random cases (no shrinking — a failing case
//! panics with its iteration seed so it can be replayed by reading the
//! test output).

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Cases generated per property (the real crate's default is 256; 64
/// keeps `cargo test` fast on the heavier codec roundtrips).
pub const CASES: u64 = 64;

/// A value generator. Unlike the real crate there is no value tree:
/// strategies sample directly and failures do not shrink.
pub trait Strategy {
    type Value;

    fn sample(&self, rng: &mut StdRng) -> Self::Value;

    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// `strategy.prop_map(f)` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Uniform sample over a type's whole domain, like `any::<T>()`.
pub struct Any<T>(PhantomData<T>);

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

pub trait Arbitrary {
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> $t {
                rng.gen::<u64>() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rng.gen::<u64>() & 1 == 1
    }
}

impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
    fn arbitrary(rng: &mut StdRng) -> [T; N] {
        std::array::from_fn(|_| T::arbitrary(rng))
    }
}

macro_rules! impl_arbitrary_tuple {
    ($($name:ident),+) => {
        impl<$($name: Arbitrary),+> Arbitrary for ($($name,)+) {
            fn arbitrary(rng: &mut StdRng) -> Self {
                ($($name::arbitrary(rng),)+)
            }
        }
    };
}
impl_arbitrary_tuple!(A, B);
impl_arbitrary_tuple!(A, B, C);
impl_arbitrary_tuple!(A, B, C, D);

// Integer ranges are strategies, as in the real crate.
macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                if hi == <$t>::MAX {
                    if lo == <$t>::MIN {
                        return <$t as Arbitrary>::arbitrary(rng);
                    }
                    return lo + rng.gen_range(0..(hi - lo)) + (rng.gen::<u64>() & 1 == 1) as $t;
                }
                rng.gen_range(lo..hi + 1)
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize);

// Tuples of strategies are strategies over tuples of their values.
macro_rules! impl_tuple_strategy {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

pub mod collection {
    use super::*;

    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    /// `collection::vec(strategy, len_range)`.
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = if self.len.start + 1 >= self.len.end {
                self.len.start
            } else {
                rng.gen_range(self.len.clone())
            };
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }
}

/// Run one property over [`CASES`] deterministic cases.
pub fn run_cases<F: FnMut(&mut StdRng, u64)>(test_name: &str, mut f: F) {
    // Seed differs per property so unrelated tests don't see identical
    // byte streams, but is stable run-to-run.
    let base = test_name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(base ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        f(&mut rng, case);
    }
}

/// The proptest test-definition macro: each embedded function runs its
/// body once per generated case.
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            $crate::run_cases(stringify!($name), |rng, case| {
                $(let $arg = $crate::Strategy::sample(&$strat, rng);)+
                let guard = $crate::CaseGuard::new(stringify!($name), case);
                $body
                guard.disarm();
            });
        }
    )*};
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

pub mod prelude {
    pub use crate::{any, prop_assert, prop_assert_eq, proptest, Strategy};
}

/// Prints which case was being run if the property panics, since there
/// is no shrinker to minimize it.
pub struct CaseGuard {
    name: &'static str,
    case: u64,
    armed: bool,
}

impl CaseGuard {
    pub fn new(name: &'static str, case: u64) -> CaseGuard {
        CaseGuard {
            name,
            case,
            armed: true,
        }
    }

    pub fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for CaseGuard {
    fn drop(&mut self) {
        if self.armed {
            eprintln!(
                "proptest shim: property `{}` failed on case {}/{}",
                self.name, self.case, CASES
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_in_bounds(x in 3u8..10, y in 0u16..=u16::MAX, v in crate::collection::vec(any::<u8>(), 2..5)) {
            prop_assert!((3..10).contains(&x));
            let _ = y;
            prop_assert!((2..5).contains(&v.len()));
        }

        #[test]
        fn maps_apply(ip in any::<u32>().prop_map(std::net::Ipv4Addr::from)) {
            prop_assert_eq!(u32::from(ip), u32::from(ip));
        }
    }
}
