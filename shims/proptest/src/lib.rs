//! In-tree stand-in for the subset of the [`proptest`] crate API used by
//! the limba workspace: the [`Strategy`] trait with `prop_map` /
//! `prop_flat_map` / `prop_filter` combinators, range and tuple
//! strategies, `collection::vec`, `option::of`, `bool::ANY`, the
//! [`proptest!`] / [`prop_oneof!`] / `prop_assert*` macros, and a
//! deterministic test runner.
//!
//! The build environment has no network access to crates.io, so this
//! crate keeps the workspace self-contained. Two deliberate differences
//! from upstream:
//!
//! * **No shrinking.** A failing case reports the deterministic case
//!   seed instead of a minimized input; rerunning is exact because the
//!   runner derives every case from a hash of the test name and the case
//!   index, never from ambient entropy.
//! * **Fully deterministic by construction.** There is no persistence
//!   file and no environment-dependent seeding, which suits a workspace
//!   whose test suite proves bit-reproducibility claims.
//!
//! [`proptest`]: https://docs.rs/proptest

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strategy;
pub mod test_runner;

pub use strategy::{Just, Strategy};

/// Non-keyword module name mirroring `proptest::bool`.
pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::{Rejection, TestRng};
    use rand::RngCore;

    /// Strategy producing uniformly random booleans.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// Any boolean, each with probability one half.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;

        fn generate(&self, rng: &mut TestRng) -> Result<bool, Rejection> {
            Ok(rng.next_u64() & 1 == 1)
        }
    }
}

/// Collection strategies mirroring `proptest::collection`.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::{Rejection, TestRng};
    use rand::Rng;
    use std::ops::Range;

    /// Anything usable as the size argument of [`vec()`]: an exact length
    /// or a half-open range of lengths.
    pub trait IntoSizeRange {
        /// Inclusive lower and upper length bounds.
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec size range");
            (self.start, self.end - 1)
        }
    }

    /// Strategy producing vectors of values from an element strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    /// A vector whose length is drawn from `size` and whose elements are
    /// drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Result<Vec<S::Value>, Rejection> {
            let len = if self.min == self.max {
                self.min
            } else {
                rng.gen_range(self.min..=self.max)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Option strategies mirroring `proptest::option`.
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::{Rejection, TestRng};
    use rand::RngCore;

    /// Strategy producing `Option`s of an inner strategy's values.
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `Some` of the inner strategy or `None`, each with probability one
    /// half.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Result<Option<S::Value>, Rejection> {
            if rng.next_u64() & 1 == 1 {
                Ok(Some(self.inner.generate(rng)?))
            } else {
                Ok(None)
            }
        }
    }
}

/// The glob-importable prelude, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Defines property tests: an optional `#![proptest_config(..)]` inner
/// attribute followed by `#[test]` functions whose arguments are
/// `pattern in strategy` bindings.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $( $(#[$meta:meta])* fn $name:ident ( $( $pat:pat in $strat:expr ),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $cfg;
                $crate::test_runner::run(&__config, stringify!($name), |__rng| {
                    $( let $pat = $crate::Strategy::generate(&($strat), __rng)?; )+
                    $body
                    Ok(())
                });
            }
        )*
    };
}

/// Uniform choice among strategies that produce the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::boxed($strat)),+])
    };
}

/// Like `assert!`, but reports the failure through the property runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Like `assert_eq!`, but reports the failure through the property
/// runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion failed: `{:?}` != `{:?}`",
                left, right
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion failed: `{:?}` != `{:?}`: {}",
                left,
                right,
                format!($($fmt)+)
            )));
        }
    }};
}

/// Discards the current case (without failing) when `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::Reject(format!(
                "assumption failed: {}",
                stringify!($cond)
            )));
        }
    };
}
