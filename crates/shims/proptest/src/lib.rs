//! Offline stand-in for `proptest`.
//!
//! The build environment has no network access, so this workspace ships a
//! small, dependency-free property-testing harness covering exactly the
//! API surface its tests use: the [`proptest!`] macro, `prop_assert*`
//! macros, [`Strategy`] with `prop_map` / `prop_flat_map`, integer-range
//! and tuple strategies, [`any`], [`Just`], [`prop_oneof!`], and
//! `prop::collection::{vec, btree_set}`.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **no shrinking** — a failing case reports its case index and seed so
//!   it can be re-run, but is not minimized;
//! * generation is plain uniform sampling (no bias toward edge cases);
//! * the per-test RNG is seeded from the test name, so runs are fully
//!   deterministic across processes.
//!
//! Set `PROPTEST_CASES` to override every test's case count (useful to
//! smoke-test quickly or soak-test longer).

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// Deterministic SplitMix64 generator driving all value generation.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn from_seed(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// FNV-1a hash of a test name, for stable per-test seeds.
pub fn seed_for(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Errors & config
// ---------------------------------------------------------------------------

/// A failed property case (no shrinking: carries the message only).
#[derive(Clone, Debug)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Builds a failure from a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Result alias matching real proptest's.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Per-`proptest!` block configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of cases to run per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }

    /// The case count, honoring a `PROPTEST_CASES` env override.
    pub fn resolved_cases(&self) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(self.cases)
    }
}

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates an intermediate value and runs a second strategy built
    /// from it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// Object-safe generation, backing [`BoxedStrategy`].
trait DynStrategy<V> {
    fn dyn_generate(&self, rng: &mut TestRng) -> V;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn dyn_generate(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<V>(Box<dyn DynStrategy<V>>);

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        self.0.dyn_generate(rng)
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

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Always generates a clone of the wrapped value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among boxed alternatives (the [`prop_oneof!`] backend).
pub struct OneOf<V> {
    alternatives: Vec<BoxedStrategy<V>>,
}

impl<V> OneOf<V> {
    /// Builds from a non-empty alternative list.
    pub fn new(alternatives: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!alternatives.is_empty(), "prop_oneof! needs alternatives");
        OneOf { alternatives }
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.alternatives.len() as u64) as usize;
        self.alternatives[i].generate(rng)
    }
}

// Integer ranges.
macro_rules! impl_range_strategy {
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
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.below(span + 1) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

/// Marker for types [`any`] can generate.
pub trait Arbitrary: Sized {
    /// Draws a uniform value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}
impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> u8 {
        (rng.next_u64() >> 56) as u8
    }
}
impl Arbitrary for u16 {
    fn arbitrary(rng: &mut TestRng) -> u16 {
        (rng.next_u64() >> 48) as u16
    }
}
impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}
impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}
impl Arbitrary for usize {
    fn arbitrary(rng: &mut TestRng) -> usize {
        rng.next_u64() as usize
    }
}

/// Strategy generating any value of `T` uniformly.
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — uniform values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

// Tuple strategies.
macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);

// ---------------------------------------------------------------------------
// Collections
// ---------------------------------------------------------------------------

/// Length specification for collection strategies.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    hi_inclusive: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange {
            lo: n,
            hi_inclusive: n,
        }
    }
}
impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange {
            lo: r.start,
            hi_inclusive: r.end - 1,
        }
    }
}
impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty collection size range");
        SizeRange {
            lo: *r.start(),
            hi_inclusive: *r.end(),
        }
    }
}

impl SizeRange {
    fn sample(&self, rng: &mut TestRng) -> usize {
        self.lo + rng.below((self.hi_inclusive - self.lo + 1) as u64) as usize
    }
}

/// `prop::collection` and `prop::sample` namespaces.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{BTreeSet, SizeRange, Strategy, TestRng};

        /// Vectors of `element` with length drawn from `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        /// See [`vec()`].
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let len = self.size.sample(rng);
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// Ordered sets of `element` with target size drawn from `size`
        /// (duplicates are retried a bounded number of times).
        pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
        where
            S: Strategy,
            S::Value: Ord,
        {
            BTreeSetStrategy {
                element,
                size: size.into(),
            }
        }

        /// See [`btree_set`].
        pub struct BTreeSetStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S> Strategy for BTreeSetStrategy<S>
        where
            S: Strategy,
            S::Value: Ord,
        {
            type Value = BTreeSet<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
                let target = self.size.sample(rng);
                let mut out = BTreeSet::new();
                let mut attempts = 0usize;
                while out.len() < target && attempts < target * 10 + 10 {
                    out.insert(self.element.generate(rng));
                    attempts += 1;
                }
                out
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Asserts a condition inside a property, failing the case (not the whole
/// process) via `TestCaseError`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` == `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` == `{:?}`: {}",
            l,
            r,
            format!($($fmt)+)
        );
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{:?}` != `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{:?}` != `{:?}`: {}",
            l,
            r,
            format!($($fmt)+)
        );
    }};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal recursion for [`proptest!`] — not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let cases = config.resolved_cases();
            let base = $crate::seed_for(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..cases {
                let seed = base ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut rng = $crate::TestRng::from_seed(seed);
                let ($($pat,)+) = (
                    $($crate::Strategy::generate(&($strategy), &mut rng),)+
                );
                let outcome: ::core::result::Result<(), $crate::TestCaseError> =
                    (|| { $body ::core::result::Result::Ok(()) })();
                if let ::core::result::Result::Err(e) = outcome {
                    panic!(
                        "property '{}' failed at case {}/{} (seed {:#x}): {}",
                        stringify!($name),
                        case,
                        cases,
                        seed,
                        e
                    );
                }
            }
        }
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
}

/// The customary glob import.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Any, Arbitrary,
        BoxedStrategy, Just, OneOf, ProptestConfig, Strategy, TestCaseError, TestCaseResult,
        TestRng,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = TestRng::from_seed(1);
        let s = (1usize..=6, 10u32..20);
        for _ in 0..200 {
            let (a, b) = s.generate(&mut rng);
            assert!((1..=6).contains(&a));
            assert!((10..20).contains(&b));
        }
    }

    #[test]
    fn flat_map_threads_the_intermediate() {
        let mut rng = TestRng::from_seed(2);
        let s = (1usize..=5).prop_flat_map(|n| (Just(n), prop::collection::vec(0u32..10, n..=n)));
        for _ in 0..100 {
            let (n, v) = s.generate(&mut rng);
            assert_eq!(v.len(), n);
        }
    }

    #[test]
    fn oneof_picks_every_arm() {
        let mut rng = TestRng::from_seed(3);
        let s = prop_oneof![Just(1u32), Just(2u32), (5u32..8).prop_map(|x| x)];
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..300 {
            seen.insert(s.generate(&mut rng));
        }
        assert!(seen.contains(&1) && seen.contains(&2) && seen.len() >= 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_end_to_end(n in 2usize..=8, seed in any::<u64>(), flag in any::<bool>()) {
            prop_assert!((2..=8).contains(&n));
            let _ = (seed, flag);
            prop_assert_eq!(n + 1, 1 + n, "commutativity for n={}", n);
            prop_assert_ne!(n, 0);
        }

        #[test]
        fn macro_with_pattern((a, b) in (0u32..10, 0u32..10)) {
            prop_assert!(a < 10 && b < 10);
        }
    }
}
