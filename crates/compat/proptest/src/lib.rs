//! Offline stand-in for `proptest`.
//!
//! Implements the subset of the proptest surface this workspace uses: the
//! `proptest! { #[test] fn f(x in strategy, ...) { ... } }` macro,
//! `prop_assert!`-style assertions, numeric-range strategies and
//! `proptest::collection::vec`. Cases are generated from a deterministic
//! RNG seeded from the test name, so failures are reproducible; there is no
//! shrinking — a failing case panics with the values visible in the
//! assertion message, and names itself on stderr as
//! `<test>: case i of N failed (seed 0x…)`.

#![forbid(unsafe_code)]

pub mod collection;
pub mod strategy;
pub mod test_runner;

/// Boolean strategies (`proptest::bool::ANY`).
pub mod bool {
    /// Uniformly random `true` / `false`.
    pub const ANY: crate::strategy::AnyBool = crate::strategy::AnyBool;
}

/// Runtime re-exports used by the generated code. Not part of the public API.
#[doc(hidden)]
pub mod __rt {
    pub use rand::rngs::SmallRng;
    pub use rand::SeedableRng;
    use std::io::Write;

    /// FNV-1a of the test name: a stable per-test seed.
    pub fn seed_for(name: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Lives for one case of a property; if the case panics, its drop names
    /// the case (1-based) and the property's seed on stderr.
    pub struct CaseGuard {
        /// The property's name.
        pub name: &'static str,
        /// This case's number, from 1.
        pub case: u32,
        /// Cases the property runs.
        pub cases: u32,
        /// The property's seed (see [`seed_for`]).
        pub seed: u64,
    }

    impl Drop for CaseGuard {
        fn drop(&mut self) {
            if std::thread::panicking() {
                // `eprintln!` would panic on a closed stderr, and a second
                // panic while unwinding aborts.
                let _ = writeln!(
                    std::io::stderr(),
                    "{}: case {} of {} failed (seed {:#x})",
                    self.name,
                    self.case,
                    self.cases,
                    self.seed
                );
                #[cfg(test)]
                FAILED_CASE.with(|c| c.set(Some(self.case)));
            }
        }
    }

    #[cfg(test)]
    thread_local! {
        /// The case the last failing property on this thread named.
        pub static FAILED_CASE: std::cell::Cell<Option<u32>> = const { std::cell::Cell::new(None) };
    }
}

/// The proptest prelude.
pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Property-test macro: runs each body for `cases` deterministic samples.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            cfg = ($crate::test_runner::ProptestConfig::default())
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = ($cfg:expr)) => {};
    (cfg = ($cfg:expr)
     $(#[$attr:meta])*
     fn $name:ident ( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
     $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let __config = $cfg;
            let __seed = $crate::__rt::seed_for(stringify!($name));
            let mut __rng =
                <$crate::__rt::SmallRng as $crate::__rt::SeedableRng>::seed_from_u64(__seed);
            for __case in 1..=__config.cases {
                let __guard = $crate::__rt::CaseGuard {
                    name: stringify!($name),
                    case: __case,
                    cases: __config.cases,
                    seed: __seed,
                };
                $(let $arg = $crate::strategy::Strategy::sample(&($strategy), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_items! { cfg = ($cfg) $($rest)* }
    };
}

/// `prop_assert!`: plain `assert!` (no shrinking in the offline shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `prop_assert_eq!`: plain `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `prop_assert_ne!`: plain `assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_sample_within_bounds(x in 3u64..10, y in -2.5f64..2.5, z in 0usize..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-2.5..2.5).contains(&y));
            prop_assert!(z <= 4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        #[test]
        fn vec_strategy_obeys_length(values in crate::collection::vec(0f64..1.0, 2..6)) {
            prop_assert!(values.len() >= 2 && values.len() < 6);
            prop_assert!(values.iter().all(|v| (0.0..1.0).contains(v)));
        }
    }

    #[test]
    fn a_failing_case_names_itself() {
        use std::cell::Cell;
        thread_local! {
            static CALLS: Cell<u32> = const { Cell::new(0) };
        }
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(5))]

            fn deliberately_fails_on_the_third_case(x in 0u64..10) {
                prop_assert!(x < 10);
                CALLS.with(|c| c.set(c.get() + 1));
                prop_assert!(CALLS.with(Cell::get) < 3, "deliberate failure");
            }
        }
        assert!(std::panic::catch_unwind(deliberately_fails_on_the_third_case).is_err());
        assert_eq!(crate::__rt::FAILED_CASE.with(Cell::get), Some(3));
    }

    #[test]
    fn seeds_differ_per_name() {
        assert_ne!(crate::__rt::seed_for("a"), crate::__rt::seed_for("b"));
        assert_eq!(crate::__rt::seed_for("a"), crate::__rt::seed_for("a"));
    }
}
