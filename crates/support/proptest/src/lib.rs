//! Minimal offline stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest 1.x API the repo's property
//! tests use: the [`proptest!`] macro with `#![proptest_config(...)]`,
//! range/`Just`/tuple strategies, [`Strategy::prop_map`],
//! [`Strategy::prop_recursive`], [`prop_oneof!`], and
//! [`collection::vec`]. Values are generated from a deterministic PRNG
//! seeded by the test name, so failures reproduce across runs. There is
//! no shrinking — a failing case panics with the generated inputs left in
//! the assertion message.

use std::ops::Range;
use std::rc::Rc;

/// Per-test configuration (`cases` = generated inputs per property).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Deterministic generator driving all strategies (SplitMix64).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeded from an arbitrary string (the test name).
    pub fn from_name(name: &str) -> Self {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        name.hash(&mut h);
        TestRng {
            state: h.finish() | 1,
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

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

/// A value generator. The subset of proptest's `Strategy` the tests use.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (needed by [`prop_oneof!`] and
    /// [`Strategy::prop_recursive`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy(Rc::new(move |rng| self.generate(rng)))
    }

    /// Recursive strategy: `f` receives the strategy for the next-smaller
    /// depth and returns the composite level. `depth` bounds nesting;
    /// `_desired_size`/`_expected_branch` are accepted for API parity.
    fn prop_recursive<S, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch: u32,
        f: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S + 'static,
    {
        let leaf = self.boxed();
        let mut level = leaf.clone();
        for _ in 0..depth {
            let expanded = f(level).boxed();
            let l = leaf.clone();
            level = BoxedStrategy(Rc::new(move |rng: &mut TestRng| {
                // Mix leaves back in at every level so generated trees
                // vary in depth instead of always bottoming out.
                if rng.below(4) == 0 {
                    l.generate(rng)
                } else {
                    expanded.generate(rng)
                }
            }));
        }
        level
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Always yields a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// [`Strategy::prop_map`]'s return type.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice between boxed alternatives ([`prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union over the given (non-empty) alternatives.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.arms.len());
        self.arms[i].generate(rng)
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let r = (rng.next_u64() as u128) % span;
                (self.start as i128 + r as i128) as $t
            }
        }
    )*};
}
impl_int_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        // Sample the exponent uniformly when the range spans many decades
        // (like proptest's f64 strategies, this exercises small and large
        // magnitudes instead of only values near the upper bound).
        let (lo, hi) = (self.start, self.end);
        if lo > 0.0 && hi / lo > 1e3 {
            let (llo, lhi) = (lo.ln(), hi.ln());
            (llo + rng.unit_f64() * (lhi - llo)).exp().clamp(lo, hi)
        } else {
            lo + rng.unit_f64() * (hi - lo)
        }
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        let r64 = (self.start as f64)..(self.end as f64);
        r64.generate(rng) as f32
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($S:ident . $idx:tt),+))*) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Vec of `len` (sampled from `lens`) elements of `elem`.
    pub fn vec<S: Strategy>(elem: S, lens: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, lens }
    }

    /// [`vec()`]'s return type.
    pub struct VecStrategy<S> {
        elem: S,
        lens: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.lens.end - self.lens.start;
            let n = self.lens.start + rng.below(span.max(1));
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Everything a property-test file needs, mirroring `proptest::prelude`.
pub mod prelude {
    /// Alias so `prop::collection::vec(...)` resolves, as in real proptest.
    pub use crate as prop;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy,
    };
}

/// Asserts inside a property (no shrinking; panics with the message).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Inequality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Uniform choice between strategies of a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// The property-test entry macro: declares `#[test]` functions whose
/// arguments are drawn from strategies for `cases` iterations.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($cfg:expr); $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
                for _case in 0..cfg.cases {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                    $body
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
        fn ranges_stay_in_bounds(x in -5.0f64..5.0, n in 1usize..10) {
            prop_assert!((-5.0..5.0).contains(&x));
            prop_assert!((1..10).contains(&n));
        }

        #[test]
        fn maps_apply(v in (0u32..10).prop_map(|v| v * 2)) {
            prop_assert!(v % 2 == 0 && v < 20);
        }

        #[test]
        fn oneof_picks_an_arm(s in prop_oneof![Just("a"), Just("b")]) {
            prop_assert!(s == "a" || s == "b");
        }

        #[test]
        fn vecs_have_requested_lengths(v in prop::collection::vec(0i64..100, 1..8)) {
            prop_assert!(!v.is_empty() && v.len() < 8);
            prop_assert!(v.iter().all(|&x| (0..100).contains(&x)));
        }
    }

    #[test]
    fn recursion_is_depth_bounded() {
        #[derive(Clone, Debug)]
        enum Tree {
            Leaf,
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf => 0,
                Tree::Node(l, r) => 1 + depth(l).max(depth(r)),
            }
        }
        let strat = Just(Tree::Leaf).prop_recursive(4, 16, 2, |inner| {
            (inner.clone(), inner).prop_map(|(l, r)| Tree::Node(Box::new(l), Box::new(r)))
        });
        let mut rng = TestRng::from_name("recursion");
        for _ in 0..200 {
            assert!(depth(&strat.generate(&mut rng)) <= 4);
        }
    }

    use super::{Just, Strategy, TestRng};
}
