//! `mjoin-ptest` — an in-tree stand-in for the `proptest` crate.
//!
//! The build environment has no cargo registry access, so external crates
//! can never resolve; this crate keeps the workspace's property tests
//! runnable by reimplementing the slice of the `proptest` API they use. It
//! is wired into dependents under the package rename
//! `proptest = { package = "mjoin-ptest" }`, so the test files read as
//! ordinary proptest.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **No shrinking.** A failing case reports its seed and generated inputs
//!   via `Debug`; rerunning is deterministic (seeds derive from the test
//!   name and case index), so failures reproduce exactly.
//! * **`prop_assume` skips rather than resamples**, which slightly lowers
//!   the effective case count for tests that use it.

#![warn(missing_docs)]

use mjoin_xrand::rngs::StdRng;
use mjoin_xrand::Rng;
use std::marker::PhantomData;
use std::ops::Range;

// Re-exported so the `proptest!` macro can name the RNG traits from inside
// dependent crates (which see this crate as `proptest`, not `mjoin_ptest`,
// and need not depend on `mjoin-xrand` themselves).
#[doc(hidden)]
pub use mjoin_xrand as xrand;

/// The RNG handed to strategies by the [`proptest!`] macro.
pub type TestRng = StdRng;

/// Per-test configuration (the `proptest!` inner attribute).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A generator of values of type `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Keep only values satisfying `pred`, resampling up to a bounded number
    /// of times (panics if the predicate is too selective, like proptest's
    /// rejection limit).
    fn prop_filter<F>(self, whence: impl Into<String>, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            reason: whence.into(),
            pred,
        }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    reason: String,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!("prop_filter({:?}): rejection limit exceeded", self.reason);
    }
}

/// A strategy producing one fixed value (cloned per case).
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical whole-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Sample from the whole domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_via_standard {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.gen()
            }
        }
    )*};
}

impl_arbitrary_via_standard!(u64, u32, usize, i64, bool, f64);

/// The strategy returned by [`any`].
pub struct AnyStrategy<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the whole-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

macro_rules! impl_strategy_for_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_strategy_for_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_strategy_for_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_strategy_for_tuple!(A: 0);
impl_strategy_for_tuple!(A: 0, B: 1);
impl_strategy_for_tuple!(A: 0, B: 1, C: 2);
impl_strategy_for_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_strategy_for_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use mjoin_xrand::Rng;

    /// Length specification for [`fn@vec`]: a fixed `usize` or a `Range<usize>`.
    pub trait IntoSizeRange {
        /// Lower and upper bound (half-open).
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self + 1)
        }
    }

    impl IntoSizeRange for core::ops::Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            (self.start, self.end)
        }
    }

    impl IntoSizeRange for core::ops::RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end() + 1)
        }
    }

    /// See [`fn@vec`].
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.min + 1 >= self.max {
                self.min
            } else {
                rng.gen_range(self.min..self.max)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A `Vec` of values from `element`, with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        assert!(min < max, "empty size range for prop::collection::vec");
        VecStrategy { element, min, max }
    }
}

/// Deterministic per-test seed: FNV-1a over the test path.
pub fn seed_for(test_name: &str, case: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Everything the property-test files import.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary, Just,
        ProptestConfig, Strategy,
    };

    /// The `prop::` namespace (`prop::collection::vec` etc.).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Assert inside a property body; on failure the enclosing case fails with
/// the formatted message (no panic unwinding needed).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(format!($($fmt)*));
        }
    };
}

/// Assert equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($lhs),
            stringify!($rhs),
            l,
            r
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// Assert inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($lhs),
            stringify!($rhs),
            l
        );
    }};
}

/// Skip the current case when its inputs don't satisfy a hypothesis.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Ok(());
        }
    };
}

/// The test-declaration macro. Each `#[test] fn name(pat in strategy, ...)`
/// item becomes a `#[test]` running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    // The `#[test]` attribute written in the source is captured by the
    // `$meta` repetition (matching it literally as well would be ambiguous)
    // and re-emitted onto the generated zero-argument function.
    (@with_config ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for case in 0..config.cases as u64 {
                    let seed = $crate::seed_for(concat!(module_path!(), "::", stringify!($name)), case);
                    let mut ptest_rng = <$crate::TestRng as $crate::xrand::SeedableRng>::seed_from_u64(seed);
                    $(let $pat = $crate::Strategy::generate(&$strat, &mut ptest_rng);)*
                    let outcome: ::core::result::Result<(), ::std::string::String> =
                        (|| { $body ::core::result::Result::Ok(()) })();
                    if let ::core::result::Result::Err(msg) = outcome {
                        panic!(
                            "property `{}` failed at case {} (seed {:#x}):\n{}",
                            stringify!($name), case, seed, msg
                        );
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn seeds_are_stable_and_distinct() {
        assert_eq!(crate::seed_for("a::b", 0), crate::seed_for("a::b", 0));
        assert_ne!(crate::seed_for("a::b", 0), crate::seed_for("a::b", 1));
        assert_ne!(crate::seed_for("a::b", 0), crate::seed_for("a::c", 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_vecs(x in 0usize..10, v in prop::collection::vec(0..5i64, 0..8)) {
            prop_assert!(x < 10);
            prop_assert!(v.len() < 8);
            for e in &v {
                prop_assert!((0..5).contains(e));
            }
        }

        #[test]
        fn tuples_maps_filters_and_assume(
            (a, b) in (0u32..100, 0u32..100).prop_map(|(x, y)| (x.min(y), x.max(y))),
            c in (0i64..50).prop_filter("even", |v| v % 2 == 0),
            w in any::<u64>(),
        ) {
            prop_assume!(a != b);
            prop_assert!(a < b);
            prop_assert_eq!(c % 2, 0);
            prop_assert_eq!(w, w);
            prop_assert_ne!((a, b), (b, a));
        }

        #[test]
        fn just_clones((..) in Just(()), v in Just(vec![1, 2, 3])) {
            prop_assert_eq!(v, vec![1, 2, 3]);
        }
    }

    #[test]
    fn prop_assert_produces_err_not_panic() {
        let failing = || -> Result<(), String> {
            let x = 1;
            prop_assert!(x > 10, "x too small: {}", x);
            Ok(())
        };
        assert_eq!(failing(), Err("x too small: 1".to_string()));
        let eq_failing = || -> Result<(), String> {
            prop_assert_eq!(1 + 1, 3);
            Ok(())
        };
        assert!(eq_failing().unwrap_err().contains("1 + 1"));
    }
}
