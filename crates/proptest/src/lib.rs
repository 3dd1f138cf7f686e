//! A self-contained, offline stand-in for the `proptest` crate.
//!
//! The workspace must build with zero network access, so the registry
//! `proptest` cannot be fetched. This shim implements the subset of its
//! API that the test suites use — `proptest!`, `prop_assert!`,
//! `prop_assert_eq!`, `prop_oneof!`, `Just`, `any`, range and tuple
//! strategies, `prop::collection::vec`, and `ProptestConfig` — on top of
//! a deterministic SplitMix64 generator seeded from the test name, so
//! every run explores the same cases (reproducible failures, hermetic
//! CI).
//!
//! Shrinking is intentionally not implemented: on failure the panic
//! message reports the raw case, which is already deterministic.

/// Deterministic pseudo-random generation.
pub mod rng {
    /// SplitMix64: tiny, fast, and plenty for test-case generation.
    pub struct Rng {
        state: u64,
    }

    impl Rng {
        /// Seeds from an arbitrary byte string (e.g. the test name) via FNV-1a.
        pub fn from_name(name: &str) -> Rng {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            Rng { state: h }
        }

        /// Next 64 uniform bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[lo, hi)`. Panics if the range is empty.
        pub fn below(&mut self, lo: u64, hi: u64) -> u64 {
            assert!(lo < hi, "empty strategy range {lo}..{hi}");
            let span = hi - lo;
            // Rejection sampling keeps the distribution uniform.
            let zone = u64::MAX - u64::MAX % span;
            loop {
                let v = self.next_u64();
                if v < zone {
                    return lo + v % span;
                }
            }
        }
    }
}

/// Run configuration, mirroring `proptest::test_runner::ProptestConfig`.
pub mod config {
    /// Only the `cases` knob is honored.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 64 }
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use crate::rng::Rng;
    use std::ops::Range;

    /// Generates values of an output type from random bits.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut Rng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy (used by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// Object-safe alias used behind `Box<dyn …>`.
    pub type BoxedStrategy<V> = Box<dyn DynStrategy<Value = V>>;

    /// Object-safe mirror of [`Strategy`].
    pub trait DynStrategy {
        /// The generated type.
        type Value;
        /// Draws one value.
        fn generate_dyn(&self, rng: &mut Rng) -> Self::Value;
    }

    impl<S: Strategy> DynStrategy for S {
        type Value = S::Value;
        fn generate_dyn(&self, rng: &mut Rng) -> S::Value {
            self.generate(rng)
        }
    }

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut Rng) -> V {
            self.as_ref().generate_dyn(rng)
        }
    }

    /// Always yields a clone of one value.
    #[allow(non_snake_case)]
    pub fn Just<T: Clone>(value: T) -> JustStrategy<T> {
        JustStrategy { value }
    }

    /// Strategy returned by [`Just`].
    pub struct JustStrategy<T: Clone> {
        value: T,
    }

    impl<T: Clone> Strategy for JustStrategy<T> {
        type Value = T;
        fn generate(&self, _rng: &mut Rng) -> T {
            self.value.clone()
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut Rng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut Rng) -> $t {
                    rng.below(self.start as u64, self.end as u64) as $t
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+))+) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut Rng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )+};
    }
    impl_tuple_strategy! { (A) (A, B) (A, B, C) (A, B, C, D) }

    /// Weighted choice among boxed strategies (built by `prop_oneof!`).
    pub struct Union<V> {
        arms: Vec<(u32, BoxedStrategy<V>)>,
        total: u64,
    }

    impl<V> Union<V> {
        /// Builds a union; weights must not all be zero.
        pub fn new(arms: Vec<(u32, BoxedStrategy<V>)>) -> Union<V> {
            let total: u64 = arms.iter().map(|(w, _)| *w as u64).sum();
            assert!(total > 0, "prop_oneof! needs a positive total weight");
            Union { arms, total }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut Rng) -> V {
            let mut pick = rng.below(0, self.total);
            for (w, strat) in &self.arms {
                if pick < *w as u64 {
                    return strat.generate(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("weight accounting")
        }
    }
}

/// `any::<T>()` — full-range generation for primitive types.
pub mod arbitrary {
    use crate::rng::Rng;
    use crate::strategy::Strategy;
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut Rng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut Rng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut Rng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The `any::<T>()` entry point.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }

    /// Strategy returned by [`any`].
    pub struct AnyStrategy<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut Rng) -> T {
            T::arbitrary(rng)
        }
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use crate::rng::Rng;
    use crate::strategy::Strategy;
    use std::ops::Range;

    /// A length specification: a fixed size or a half-open range.
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// `Vec` of values drawn from `element`, with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut Rng) -> Vec<S::Value> {
            let len = rng.below(self.size.lo as u64, self.size.hi as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The glob-import surface test files use: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::config::ProptestConfig;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Re-export of the crate root so `prop::collection::vec` resolves.
    pub use crate as prop;
}

/// Defines `#[test]` functions that run a property over generated cases.
///
/// Supports the same shape the real crate does for the suites in this
/// workspace: an optional `#![proptest_config(…)]` header followed by
/// one or more `#[test] fn name(pat in strategy, …) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            cfg = <$crate::config::ProptestConfig as ::std::default::Default>::default();
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
macro_rules! __proptest_items {
    (cfg = $cfg:expr;) => {};
    (cfg = $cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let cfg = $cfg;
            let mut rng = $crate::rng::Rng::from_name(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..cfg.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                // Render the case up front: the body may consume the values.
                let case_desc = format!(
                    concat!($("\n  ", stringify!($arg), " = {:?}"),+),
                    $(&$arg),+
                );
                let result = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| $body));
                if let Err(panic) = result {
                    eprintln!(
                        "proptest case {case} of {} failed:{case_desc}",
                        stringify!($name)
                    );
                    ::std::panic::resume_unwind(panic);
                }
            }
        }
        $crate::__proptest_items! { cfg = $cfg; $($rest)* }
    };
}

/// `assert!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Weighted (or unweighted) choice among strategies yielding one type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn determinism() {
        let mut a = crate::rng::Rng::from_name("x");
        let mut b = crate::rng::Rng::from_name("x");
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::rng::Rng::from_name("bounds");
        let strat = (3u64..17).prop_map(|v| v * 2);
        for _ in 0..1000 {
            let v = strat.generate(&mut rng);
            assert!((6..34).contains(&v) && v % 2 == 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn macro_end_to_end(
            xs in prop::collection::vec((0u8..4, any::<bool>()), 1..20),
            pick in prop_oneof![3 => Just(1u32), 1 => 5u32..9],
        ) {
            prop_assert!(!xs.is_empty() && xs.len() < 20);
            for (x, _) in &xs {
                prop_assert!(*x < 4);
            }
            prop_assert!(pick == 1 || (5..9).contains(&pick));
        }
    }
}
