//! Minimal in-repo stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this shim implements
//! the subset of proptest the workspace's property tests use:
//!
//! * the [`proptest!`] macro (`fn name(arg in strategy, ...) { body }`),
//! * [`prop_assert!`] / [`prop_assert_eq!`] (plain assertion wrappers),
//! * [`any`] for `i32` / `f32` / `u32`,
//! * integer range strategies (`-50i32..50`),
//! * tuple strategies (`(0i32..4, 1u32..9)`), pairs and triples,
//! * simple character-class string patterns (`"[A-Z]{1,8}"`),
//! * [`collection::vec`].
//!
//! Unlike real proptest there is no shrinking and no persisted failure seeds:
//! every test runs a fixed number of deterministic cases (seeded from the
//! test name), which keeps the suite reproducible without any external state.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Cases each `proptest!` test executes.
pub const NUM_CASES: usize = 64;

/// Deterministic per-test RNG.
pub struct TestRng(StdRng);

impl TestRng {
    /// Builds the RNG for a named test; equal names yield equal sequences.
    pub fn deterministic(name: &str) -> TestRng {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in name.bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng(StdRng::seed_from_u64(hash))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// A value generator (subset of proptest's `Strategy`).
pub trait Strategy {
    /// The type of generated values.
    type Value;
    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.0.gen_range(self.clone())
            }
        }
    )*};
}

impl_int_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize);

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng), self.2.generate(rng))
    }
}

/// `any::<T>()` — arbitrary values of a type.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Strategy returned by [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Types with a full-domain generator (subset of proptest's `Arbitrary`).
pub trait Arbitrary {
    /// Draws an arbitrary value (any bit pattern is fair game).
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for i32 {
    fn arbitrary(rng: &mut TestRng) -> i32 {
        rng.next_u64() as i32
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        rng.next_u64() as u32
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> f32 {
        // Any bit pattern, NaNs included — callers comparing generated floats
        // do so via to_bits(), like real proptest's any::<f32>() users must.
        f32::from_bits(rng.next_u64() as u32)
    }
}

/// String strategies from simple character-class patterns.
///
/// Supports exactly the `"[CLASS]{min,max}"` shape (e.g. `"[A-Z]{1,8}"`,
/// `"[a-z0-9]{2,4}"`); anything else panics, loudly, so an unsupported
/// pattern is caught the first time a test runs.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (alphabet, min, max) = parse_class_pattern(self)
            .unwrap_or_else(|| panic!("proptest shim: unsupported string pattern {self:?}"));
        let len = rng.0.gen_range(min..=max);
        (0..len).map(|_| alphabet[rng.0.gen_range(0..alphabet.len())]).collect()
    }
}

fn parse_class_pattern(pattern: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pattern.strip_prefix('[')?;
    let (class, rest) = rest.split_once(']')?;
    let counts = rest.strip_prefix('{')?.strip_suffix('}')?;
    let (min, max) = counts.split_once(',')?;
    let (min, max) = (min.parse().ok()?, max.parse().ok()?);
    if min > max {
        return None;
    }
    let mut alphabet = Vec::new();
    let mut chars = class.chars().peekable();
    while let Some(c) = chars.next() {
        if chars.peek() == Some(&'-') {
            chars.next();
            let end = chars.next()?;
            if (c as u32) > (end as u32) {
                return None;
            }
            for code in (c as u32)..=(end as u32) {
                alphabet.push(char::from_u32(code)?);
            }
        } else {
            alphabet.push(c);
        }
    }
    if alphabet.is_empty() {
        return None;
    }
    Some((alphabet, min, max))
}

/// Collection strategies (subset of `proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::Range;

    /// Vectors of `element` values with a length drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.0.gen_range(self.len.clone());
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::{any, prop_assert, prop_assert_eq, proptest, Arbitrary, Strategy};
}

/// Defines property tests: `proptest! { #[test] fn f(x in strat) { .. } }`.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident ($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut prop_rng = $crate::TestRng::deterministic(stringify!($name));
                for prop_case in 0..$crate::NUM_CASES {
                    let _ = prop_case;
                    $(let $arg = $crate::Strategy::generate(&$strat, &mut prop_rng);)+
                    $body
                }
            }
        )*
    };
}

/// Condition assertion inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assertion inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[cfg(test)]
mod tests {

    #[test]
    fn pattern_parser_handles_classes_and_ranges() {
        let (alphabet, min, max) = super::parse_class_pattern("[A-Z]{1,8}").unwrap();
        assert_eq!(alphabet.len(), 26);
        assert_eq!((min, max), (1, 8));
        let (alphabet, _, _) = super::parse_class_pattern("[a-c9]{2,2}").unwrap();
        assert_eq!(alphabet, vec!['a', 'b', 'c', '9']);
        assert!(super::parse_class_pattern("plain").is_none());
    }

    proptest! {
        #[test]
        fn generated_values_respect_strategies(
            xs in super::collection::vec(-50i32..50, 0..300),
            s in "[A-Z]{1,8}",
            probe in -60i32..60,
        ) {
            prop_assert!(xs.len() < 300);
            prop_assert!(xs.iter().all(|x| (-50..50).contains(x)));
            prop_assert!((1..=8).contains(&s.len()));
            prop_assert!(s.chars().all(|c| c.is_ascii_uppercase()));
            prop_assert!((-60..60).contains(&probe));
        }
    }
}
