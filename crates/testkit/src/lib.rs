//! Deterministic, dependency-free property-testing support.
//!
//! The build environment has no access to a crate registry, so the
//! workspace's property tests cannot use `proptest`. This crate provides
//! the small subset we actually need: a seeded [`Rng`] (SplitMix64), value
//! generators built on it, and a [`cases`] runner that executes a fixed
//! number of cases with *reproducible* per-case seeds and, on failure,
//! names the seed to re-run.
//!
//! Regression policy: when a case fails, the runner prints
//! `testkit: case <k> of <test> failed (seed 0x<seed>)`. To pin that case
//! forever, add a plain `#[test]` that calls the test body with
//! [`Rng::from_seed`]`(0x<seed>)` — regressions live in the test source
//! itself, not in a side-car file.
//!
//! # Examples
//!
//! ```
//! pdc_testkit::cases(64, "doubling", |rng| {
//!     let x = rng.range_i64(-100, 100);
//!     assert_eq!(x + x, 2 * x);
//! });
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

pub mod fault;

/// A SplitMix64 pseudo-random generator: tiny, fast, and statistically
/// good enough for test-case generation. Deterministic across platforms.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator with an explicit seed (use the seed printed by a
    /// failing [`cases`] run to reproduce it).
    pub fn from_seed(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in the half-open range `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = (hi as i128 - lo as i128) as u128;
        let v = (self.next_u64() as u128) % span;
        (lo as i128 + v as i128) as i64
    }

    /// Uniform value in the half-open range `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + (self.next_u64() as usize) % (hi - lo)
    }

    /// A uniformly random boolean.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// `true` with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    /// A uniformly random element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range_usize(0, items.len())]
    }

    /// A random string of length `0..max_len` drawn from `alphabet`.
    pub fn string_from(&mut self, alphabet: &[char], max_len: usize) -> String {
        let len = self.range_usize(0, max_len + 1);
        (0..len).map(|_| *self.pick(alphabet)).collect()
    }

    /// A random string of arbitrary Unicode scalar values (for
    /// never-panics robustness tests).
    pub fn unicode_string(&mut self, max_len: usize) -> String {
        let len = self.range_usize(0, max_len + 1);
        (0..len)
            .map(|_| loop {
                // Bias toward ASCII so syntax-shaped inputs appear often.
                let v = if self.chance(3, 4) {
                    self.next_u64() as u32 % 0x80
                } else {
                    self.next_u64() as u32 % 0x11_0000
                };
                if let Some(c) = char::from_u32(v) {
                    break c;
                }
            })
            .collect()
    }
}

/// Golden constant mixed into per-case seeds so different tests with the
/// same case index still see different streams.
fn case_seed(name: &str, case: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Run `body` for `n` deterministic cases. On a panic inside a case, the
/// case index and seed are printed (so the failure can be reproduced with
/// [`Rng::from_seed`]) and the panic is re-raised.
pub fn cases(n: u64, name: &str, body: impl Fn(&mut Rng)) {
    for case in 0..n {
        let seed = case_seed(name, case);
        let mut rng = Rng::from_seed(seed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(&mut rng))) {
            eprintln!("testkit: case {case} of `{name}` failed (seed {seed:#x})");
            resume_unwind(payload);
        }
    }
}

/// The [`within`] limit for tests that start endpoint threads: generous
/// next to their healthy run time (seconds at most), so a loaded host
/// does not trip it, yet a hang fails the suite in minutes, not never.
pub const THREADS_DEADLINE: Duration = Duration::from_secs(120);

/// Run `body` on its own thread and give it `limit` of wall clock: the
/// harness deadline for every test that starts endpoint threads, so a
/// protocol regression that would park forever fails in seconds and
/// names the test instead of blocking the suite. A panic in `body`
/// resurfaces on the caller; on expiry the body's thread is abandoned
/// (a hung thread cannot be joined) and the test process reaps it at
/// exit.
///
/// # Panics
///
/// Panics when `limit` expires, naming the calling test (libtest names
/// each test's thread after it).
pub fn within<R: Send + 'static>(limit: Duration, body: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => {
            worker.join().expect("body already returned");
            value
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            let me = std::thread::current();
            panic!(
                "testkit: `{}` still running after {limit:?} - hung?",
                me.name().unwrap_or("test")
            )
        }
        // The sender dropped without a value: the body panicked.
        Err(mpsc::RecvTimeoutError::Disconnected) => match worker.join() {
            Err(payload) => resume_unwind(payload),
            Ok(()) => unreachable!("body returned without sending"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_returns_the_value_and_propagates_panics() {
        assert_eq!(within(Duration::from_secs(5), || 6 * 7), 42);
        let boom = catch_unwind(|| within(Duration::from_secs(5), || panic!("boom")));
        let payload = boom.expect_err("the body's panic resurfaces");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }

    #[test]
    #[should_panic(expected = "still running after")]
    fn within_fails_a_body_that_outlives_its_limit() {
        // Blocks on a channel nobody sends on: forced, not slept.
        let (_keep, never) = mpsc::channel::<()>();
        within(Duration::from_millis(20), move || {
            let _ = never.recv_timeout(Duration::from_secs(30));
        });
    }

    #[test]
    fn deterministic_across_clones() {
        let mut a = Rng::from_seed(42);
        let mut b = Rng::from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::from_seed(7);
        for _ in 0..10_000 {
            let v = rng.range_i64(-5, 17);
            assert!((-5..17).contains(&v));
            let u = rng.range_usize(3, 9);
            assert!((3..9).contains(&u));
        }
    }

    #[test]
    fn range_hits_every_value() {
        let mut rng = Rng::from_seed(1);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.range_usize(0, 8)] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut rng = Rng::from_seed(3);
        let hits = (0..10_000).filter(|_| rng.chance(1, 4)).count();
        assert!((2_000..3_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn unicode_strings_are_valid() {
        let mut rng = Rng::from_seed(9);
        for _ in 0..200 {
            let s = rng.unicode_string(50);
            assert!(s.chars().count() <= 50);
        }
    }

    #[test]
    fn cases_seeds_differ_per_test_name() {
        assert_ne!(case_seed("a", 0), case_seed("b", 0));
        assert_ne!(case_seed("a", 0), case_seed("a", 1));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn cases_propagates_panics() {
        cases(4, "panicky", |rng| {
            let _ = rng.next_u64();
            panic!("boom");
        });
    }
}
