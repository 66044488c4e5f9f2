//! Offline stand-in for the `proptest` crate.
//!
//! The build environment for this workspace has no network access, so the
//! real `proptest` cannot be fetched. This crate implements the subset of
//! its API that the workspace's property tests use:
//!
//! * the [`proptest!`] macro with the `#![proptest_config(..)]` header,
//!   test functions of the form `fn name(x in strategy, ..) { .. }`,
//! * range strategies over the primitive numeric types (`0usize..10`,
//!   `-1.0..1.0f64`, ...),
//! * [`prop_assert!`]/[`prop_assert_eq!`],
//! * [`ProptestConfig::with_cases`].
//!
//! Sampling is deterministic: each `(test name, case index)` pair seeds a
//! SplitMix64 generator, so failures are reproducible run-to-run while
//! still covering a spread of the input space. The `PROPTEST_CASES`
//! environment variable caps the case count (used by CI quick mode).

#![forbid(unsafe_code)]

use std::ops::Range;

/// Configuration accepted by `#![proptest_config(..)]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of sampled cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` sampled inputs.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }

    /// The effective case count: the configured value, capped by the
    /// `PROPTEST_CASES` environment variable when set.
    #[must_use]
    pub fn effective_cases(&self) -> u32 {
        match std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse::<u32>().ok())
        {
            Some(cap) => self.cases.min(cap.max(1)),
            None => self.cases,
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// Deterministic SplitMix64 generator used to sample strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds a generator for one `(test, case)` pair.
    #[must_use]
    pub fn for_case(test_name: &str, case: u32) -> Self {
        // FNV-1a over the test name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        Self {
            state: h ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A source of sampled values — the subset of proptest's `Strategy` this
/// workspace needs (half-open numeric ranges).
pub trait Strategy {
    /// The sampled value type.
    type Value;
    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let span = self.end.wrapping_sub(self.start).max(1) as u64;
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}

impl_int_strategy!(usize, u64, u32, u16, u8);

macro_rules! impl_signed_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128 - self.start as i128).max(1) as u128;
                let off = (u128::from(rng.next_u64()) % span) as i128;
                (self.start as i128 + off) as $t
            }
        }
    )*};
}

impl_signed_strategy!(isize, i64, i32, i16, i8);

/// `proptest::collection` — vector strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// A strategy producing `Vec`s of sampled elements.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Vectors with lengths drawn from `size` and elements from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = Strategy::sample(&self.size, rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Skips the current sampled case when the assumption does not hold.
///
/// Expands to a `continue` of the per-case loop generated by
/// [`proptest!`], so it must be used at the top level of a test body.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

/// Declares property tests. See the crate docs for the supported grammar.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_items! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`]; not for direct use.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( cfg = ($cfg:expr); ) => {};
    (
        cfg = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident ( $( $arg:ident in $strat:expr ),* $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            for __case in 0..__cfg.effective_cases() {
                let mut __rng = $crate::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                $( let $arg = $crate::Strategy::sample(&($strat), &mut __rng); )*
                $body
            }
        }
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// The usual `use proptest::prelude::*;` import surface.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, Strategy, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn rng_is_deterministic_per_case() {
        let mut a = TestRng::for_case("x", 3);
        let mut b = TestRng::for_case("x", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::for_case("x", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::for_case("bounds", 0);
        for _ in 0..1000 {
            let f = Strategy::sample(&(-2.0..3.0f64), &mut rng);
            assert!((-2.0..3.0).contains(&f));
            let u = Strategy::sample(&(5usize..9), &mut rng);
            assert!((5..9).contains(&u));
            let i = Strategy::sample(&(-4i32..7), &mut rng);
            assert!((-4..7).contains(&i));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_expansion_works(x in 0.0..1.0f64, n in 1usize..5) {
            prop_assert!((0.0..1.0).contains(&x));
            prop_assert_eq!(n.min(4), n);
        }
    }
}
