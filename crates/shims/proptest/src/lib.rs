//! Offline shim for the `proptest` API subset this workspace uses.
//!
//! The build container has no crates.io access, so this crate provides a
//! minimal property-testing runner: deterministic pseudo-random generation
//! (seeded per test name and case index, so failures reproduce), the
//! [`Strategy`] trait with `prop_map`/`prop_flat_map`, range and tuple
//! strategies, `collection::vec`, `option::of`, `any`, and the
//! [`proptest!`]/[`prop_assert!`]/[`prop_assert_eq!`] macros.
//!
//! Deviations from real proptest: no shrinking (a failing case reports its
//! seed, not a minimized input) and panics instead of error returns.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Deterministic generator handed to strategies (splitmix64 core).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator for one test case; deterministic in `(name, case)`.
    pub fn for_case(name: &str, case: u32) -> TestRng {
        let mut h = 0xcbf29ce484222325u64; // FNV-1a over the test name
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng {
            state: h ^ ((case as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15)),
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "cannot sample empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Runner configuration (`ProptestConfig` subset).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

/// A generation strategy for values of `Self::Value`.
pub trait Strategy {
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> MapStrategy<Self, F>
    where
        Self: Sized,
    {
        MapStrategy { inner: self, f }
    }

    /// Feeds generated values into a strategy-producing `f`.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMapStrategy<Self, F>
    where
        Self: Sized,
    {
        FlatMapStrategy { inner: self, f }
    }

    /// Type-erases the strategy (`BoxedStrategy` compatibility).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: std::rc::Rc::new(self),
        }
    }
}

/// `Strategy::prop_map` adapter.
pub struct MapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for MapStrategy<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// `Strategy::prop_flat_map` adapter.
pub struct FlatMapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMapStrategy<S, F> {
    type Value = T::Value;

    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// A type-erased strategy.
#[derive(Clone)]
pub struct BoxedStrategy<T> {
    inner: std::rc::Rc<dyn Strategy<Value = T>>,
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        self.inner.generate(rng)
    }
}

/// A strategy always yielding clones of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                lo + rng.below((hi - lo) as u64 + 1) as $t
            }
        }
    )*};
}
int_strategy!(u8, u16, u32, u64, usize, i32, i64);

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// Values with a canonical "any" strategy (`proptest::arbitrary` subset).
pub trait Arbitrary {
    type Strategy: Strategy<Value = Self>;
    fn arbitrary() -> Self::Strategy;
}

/// The full-range strategy for primitives.
pub struct AnyStrategy<T> {
    _marker: std::marker::PhantomData<T>,
}

macro_rules! arb_prim {
    ($($t:ty => $gen:expr),* $(,)?) => {$(
        impl Strategy for AnyStrategy<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let f: fn(&mut TestRng) -> $t = $gen;
                f(rng)
            }
        }
        impl Arbitrary for $t {
            type Strategy = AnyStrategy<$t>;
            fn arbitrary() -> AnyStrategy<$t> {
                AnyStrategy { _marker: std::marker::PhantomData }
            }
        }
    )*};
}
arb_prim! {
    bool => |rng| rng.next_u64() & 1 == 1,
    u8 => |rng| rng.next_u64() as u8,
    u16 => |rng| rng.next_u64() as u16,
    u32 => |rng| rng.next_u64() as u32,
    u64 => |rng| rng.next_u64(),
    usize => |rng| rng.next_u64() as usize,
    i32 => |rng| rng.next_u64() as i32,
    i64 => |rng| rng.next_u64() as i64,
}

/// The `any::<T>()` entry point.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Element-count specification for [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// A strategy for vectors of `element` values.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_inclusive - self.size.lo) as u64 + 1;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    use super::{Strategy, TestRng};

    /// A strategy yielding `None` about a quarter of the time (matching
    /// real proptest's default weighting), else `Some(inner)`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// The strategy returned by [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 3 == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Assertion macro; in this shim it panics like `assert!` (no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Equality assertion macro; panics like `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Inequality assertion macro; panics like `assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// The `proptest!` block macro: an optional `#![proptest_config(..)]`
/// attribute followed by `#[test] fn name(arg in strategy, ...) { .. }`
/// items. Each function runs `config.cases` deterministic random cases;
/// a failure reports the case index so it can be re-run.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Error type test bodies may early-return with `Ok(())`/`Err(..)`.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr); $( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut rng = $crate::TestRng::for_case(stringify!($name), case);
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                    // Mirror real proptest: the body runs in a
                    // Result-returning closure (so `return Ok(())` works)
                    // with an implicit trailing Ok.
                    let run = || -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        Ok(())
                    };
                    if let Err(e) = run() {
                        panic!("proptest case {case} of {} failed: {e:?}", stringify!($name));
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..9, y in 1u32..=4) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((1..=4).contains(&y));
        }

        #[test]
        fn vec_and_tuple_strategies(v in crate::collection::vec(0u32..5, 1..8), pair in (0u8..3, crate::Just(7i32))) {
            prop_assert!(!v.is_empty() && v.len() < 8);
            prop_assert!(v.iter().all(|&x| x < 5));
            let (a, b) = pair;
            prop_assert!(a < 3);
            prop_assert_eq!(b, 7);
        }

        #[test]
        fn flat_map_links_sizes(v in (1usize..5).prop_flat_map(|n| crate::collection::vec(crate::any::<bool>(), n)).prop_map(|v| v.len()), )  {
            prop_assert!((1..5).contains(&v));
        }

        #[test]
        fn option_of_produces_both(opts in crate::collection::vec(crate::option::of(0u32..9), 64)) {
            prop_assert!(opts.iter().any(Option::is_some));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let s = crate::collection::vec(0u64..1000, 5..10);
        let mut a = crate::TestRng::for_case("det", 3);
        let mut b = crate::TestRng::for_case("det", 3);
        assert_eq!(
            crate::Strategy::generate(&s, &mut a),
            crate::Strategy::generate(&s, &mut b)
        );
    }
}
