//! testkit — in-tree property-testing harness.
//!
//! A small, zero-dependency stand-in for the registry `proptest` crate:
//! seeded generators on top of [`Xoshiro256`], a greedy "shrinking-lite"
//! pass that minimizes failing inputs, and the [`prop_check!`] macro that
//! ties them together. Every workspace crate's property tests run through
//! this module, so the whole test suite builds offline.
//!
//! # Model
//!
//! A property test is two closures:
//!
//! * a **generator** `|rng: &mut Xoshiro256| -> T` that draws one input
//!   (compose the helpers in [`gen`] freely);
//! * a **property** `|input: &T|` whose body uses plain `assert!` /
//!   `assert_eq!`; a panic is a counterexample.
//!
//! The runner draws `cases` inputs from deterministic per-case seeds. On
//! the first failure it asks the input's [`Shrink`] implementation for
//! structurally smaller candidates, greedily descending while the property
//! keeps failing, then panics with the minimal counterexample, the case
//! seed, and the original assertion message — everything needed to replay
//! the failure by seed.
//!
//! ```
//! use mkp::prop_check;
//! use mkp::testkit::gen;
//!
//! prop_check!(|rng| gen::vec_of(rng, 0, 30, |r| gen::i64_in(r, -50, 50)),
//!     |xs| {
//!         let mut sorted = xs.clone();
//!         sorted.sort_unstable();
//!         assert_eq!(sorted.len(), xs.len());
//!         assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
//!     });
//! ```
//!
//! # Environment knobs
//!
//! * `TESTKIT_CASES` — override the per-property case count (CI can turn
//!   the crank up; `--smoke` style runs can turn it down);
//! * `TESTKIT_SEED` — override the base seed to replay a reported failure.

use crate::rng::Xoshiro256;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runner configuration. [`Config::default`] honors the `TESTKIT_CASES`
/// and `TESTKIT_SEED` environment variables.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Base seed; case `i` derives its own stream from `seed` and `i`.
    pub seed: u64,
    /// Upper bound on property executions spent shrinking a failure.
    pub max_shrink_steps: u32,
}

impl Default for Config {
    fn default() -> Self {
        let cases = std::env::var("TESTKIT_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        let seed = std::env::var("TESTKIT_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_SEED);
        Config {
            cases,
            seed,
            max_shrink_steps: 512,
        }
    }
}

/// Base seed used when `TESTKIT_SEED` is unset ("test" in hexspeak).
pub const DEFAULT_SEED: u64 = 0x7e57_0123_4567_89ab;

/// Structurally smaller variants of a failing input ("shrinking-lite").
///
/// Implementations return a *finite* list of candidates, each plausibly
/// simpler than `self`; the runner keeps any candidate on which the
/// property still fails and recurses. An empty list (the default) means
/// the value is atomic for shrinking purposes.
pub trait Shrink: Sized {
    /// Candidate simplifications, simplest first.
    fn shrink(&self) -> Vec<Self> {
        Vec::new()
    }
}

// Integers shrink toward 0 with halving deltas (`v − v/2, v − v/4, …,
// v − 1`), so the greedy descent converges in O(log²|v|) probes instead
// of walking unit steps.
macro_rules! impl_shrink_uint {
    ($($t:ty),*) => {$(
        impl Shrink for $t {
            fn shrink(&self) -> Vec<Self> {
                let v = *self;
                if v == 0 {
                    return Vec::new();
                }
                let mut out = vec![0];
                let mut delta = v / 2;
                while delta != 0 {
                    out.push(v - delta);
                    delta /= 2;
                }
                out.dedup();
                out
            }
        }
    )*};
}
impl_shrink_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_shrink_int {
    ($($t:ty),*) => {$(
        impl Shrink for $t {
            fn shrink(&self) -> Vec<Self> {
                let v = *self;
                if v == 0 {
                    return Vec::new();
                }
                let mut out = vec![0];
                if v == <$t>::MIN {
                    return out; // |MIN| overflows below; 0 is enough
                }
                if v < 0 {
                    out.push(-v); // prefer positive counterexamples
                }
                let mut delta = v / 2;
                while delta != 0 {
                    out.push(v - delta);
                    delta /= 2;
                }
                out.dedup();
                out
            }
        }
    )*};
}
impl_shrink_int!(i8, i16, i32, i64, isize);

impl Shrink for bool {
    fn shrink(&self) -> Vec<Self> {
        if *self {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

impl Shrink for f64 {
    fn shrink(&self) -> Vec<Self> {
        let v = *self;
        if v == 0.0 || !v.is_finite() {
            return Vec::new();
        }
        let mut out = vec![0.0, v / 2.0];
        if v < 0.0 {
            out.push(-v);
        }
        out
    }
}

// Whole instances shrink as atoms: element-wise shrinking would break the
// n·m weight-matrix invariants. Replaying the reported seed is the tool
// for minimizing instance-shaped counterexamples.
impl Shrink for crate::Instance {}

impl Shrink for char {
    fn shrink(&self) -> Vec<Self> {
        if *self == 'a' {
            Vec::new()
        } else {
            vec!['a']
        }
    }
}

impl Shrink for String {
    fn shrink(&self) -> Vec<Self> {
        let n = self.chars().count();
        if n == 0 {
            return Vec::new();
        }
        let take = |k: usize| -> String { self.chars().take(k).collect() };
        let mut out = vec![String::new()];
        if n > 1 {
            out.push(take(n / 2));
        }
        out.push(take(n - 1));
        out
    }
}

impl<T: Shrink + Clone> Shrink for Vec<T> {
    fn shrink(&self) -> Vec<Self> {
        let n = self.len();
        let mut out = Vec::new();
        if n == 0 {
            return out;
        }
        // Structural: empty, halves, drop-one (bounded).
        out.push(Vec::new());
        if n > 1 {
            out.push(self[..n / 2].to_vec());
            out.push(self[n / 2..].to_vec());
        }
        for k in 0..n.min(8) {
            let mut v = self.clone();
            v.remove(k);
            out.push(v);
        }
        // Element-wise: first shrink candidate of each element (bounded).
        for k in 0..n.min(8) {
            if let Some(smaller) = self[k].shrink().into_iter().next() {
                let mut v = self.clone();
                v[k] = smaller;
                out.push(v);
            }
        }
        out
    }
}

macro_rules! impl_shrink_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Shrink + Clone),+> Shrink for ($($name,)+) {
            fn shrink(&self) -> Vec<Self> {
                let mut out = Vec::new();
                $(
                    for candidate in self.$idx.shrink() {
                        let mut t = self.clone();
                        t.$idx = candidate;
                        out.push(t);
                    }
                )+
                out
            }
        }
    )*};
}
impl_shrink_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

/// Run `prop` under `catch_unwind`, turning a panic into the panic
/// message. `Ok(())` means the property held on this input.
fn run_one<T, P>(prop: &P, input: &T) -> Result<(), String>
where
    P: Fn(&T),
{
    match catch_unwind(AssertUnwindSafe(|| prop(input))) {
        Ok(()) => Ok(()),
        // `as_ref`, not `&payload`: a `&Box<dyn Any>` would itself coerce
        // to `&dyn Any` and every downcast of the *box* would miss.
        Err(payload) => Err(panic_message(payload.as_ref())),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Check a property over `cfg.cases` generated inputs; panic with a
/// shrunk counterexample on the first failure. Prefer the [`prop_check!`]
/// macro, which supplies the closure plumbing.
pub fn check<T, G, P>(cfg: &Config, mut generator: G, prop: P)
where
    T: Shrink + Clone + Debug,
    G: FnMut(&mut Xoshiro256) -> T,
    P: Fn(&T),
{
    for case in 0..cfg.cases {
        // Independent stream per case: replaying `case` needs only the
        // base seed, not the generator state of earlier cases.
        let case_seed = cfg.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(case as u64 + 1));
        let mut rng = Xoshiro256::seed_from_u64(case_seed);
        let input = generator(&mut rng);
        if let Err(first_msg) = run_one(&prop, &input) {
            // Shrinking happens with the default panic hook suppressed:
            // every probe that still fails would otherwise spray its
            // backtrace over the test output.
            let prev_hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let (minimal, minimal_msg, steps) =
                shrink_failure(&prop, input, first_msg.clone(), cfg.max_shrink_steps);
            std::panic::set_hook(prev_hook);
            panic!(
                "property failed at case {case}/{cases} (base seed {seed:#x}, \
                 case seed {case_seed:#x}, {steps} shrink steps)\n\
                 minimal input: {minimal:?}\n\
                 failure: {minimal_msg}\n\
                 original failure: {first_msg}\n\
                 replay with TESTKIT_SEED={seed}",
                cases = cfg.cases,
                seed = cfg.seed,
            );
        }
    }
}

/// Greedy descent: keep the first shrink candidate that still fails.
fn shrink_failure<T, P>(prop: &P, mut current: T, mut msg: String, budget: u32) -> (T, String, u32)
where
    T: Shrink + Clone + Debug,
    P: Fn(&T),
{
    let mut spent = 0u32;
    'outer: loop {
        for candidate in current.shrink() {
            if spent >= budget {
                break 'outer;
            }
            spent += 1;
            if let Err(candidate_msg) = run_one(prop, &candidate) {
                current = candidate;
                msg = candidate_msg;
                continue 'outer; // restart from the smaller input
            }
        }
        break; // no candidate fails: local minimum
    }
    (current, msg, spent)
}

/// `inst` with every weight and capacity multiplied by `factor`: the same
/// feasible sets under bigger numbers. Once a weight exceeds
/// [`crate::soa::LANE_MAX`] (GK weights reach 1,000, so ×40 does it), every
/// fits test on the copy takes the scalar route.
pub fn widened(inst: &crate::Instance, factor: i64) -> crate::Instance {
    let weights = (0..inst.m())
        .flat_map(|i| inst.constraint_row(i).iter().map(|&a| a * factor))
        .collect();
    let capacities = inst.capacities().iter().map(|&b| b * factor).collect();
    crate::Instance::new(
        inst.name(),
        inst.n(),
        inst.m(),
        inst.profits().to_vec(),
        weights,
        capacities,
    )
    .expect("a widened instance stays valid")
}

/// Seeded generator helpers. All draw from the caller's [`Xoshiro256`],
/// so a test's whole input derives from one reported seed.
pub mod gen {
    use crate::rng::Xoshiro256;

    /// Uniform `usize` in `[lo, hi)`. `hi` must exceed `lo`.
    pub fn usize_in(rng: &mut Xoshiro256, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + rng.index(hi - lo)
    }

    /// Uniform `i64` in the inclusive range `[lo, hi]`.
    pub fn i64_in(rng: &mut Xoshiro256, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        lo.wrapping_add(rng.range_inclusive(0, hi.wrapping_sub(lo) as u64) as i64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64_in(rng: &mut Xoshiro256, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + rng.next_f64() * (hi - lo)
    }

    /// Fair coin.
    pub fn boolean(rng: &mut Xoshiro256) -> bool {
        rng.next_u64() & 1 == 1
    }

    /// An instance of up to 59 items and 5 constraints built to hit the
    /// degenerate cases of ranking kernels: values are small, so scores
    /// tie often; about one item in four weighs nothing on every
    /// constraint; profits may be zero; and a capacity may be zero.
    pub fn tied_instance(rng: &mut Xoshiro256) -> crate::Instance {
        let n = usize_in(rng, 2, 60);
        let m = usize_in(rng, 1, 6);
        let profits: Vec<i64> = (0..n).map(|_| i64_in(rng, 0, 9)).collect();
        let weightless: Vec<bool> = (0..n).map(|_| usize_in(rng, 0, 4) == 0).collect();
        let weights: Vec<i64> = (0..n * m)
            .map(|k| {
                if weightless[k % n] {
                    0
                } else {
                    i64_in(rng, 1, 9)
                }
            })
            .collect();
        let caps: Vec<i64> = (0..m).map(|_| i64_in(rng, 0, 80)).collect();
        crate::Instance::new("tied", n, m, profits, weights, caps).unwrap()
    }

    /// Vector with a uniform length in `[min_len, max_len]`, elements
    /// drawn by `element`.
    pub fn vec_of<T>(
        rng: &mut Xoshiro256,
        min_len: usize,
        max_len: usize,
        mut element: impl FnMut(&mut Xoshiro256) -> T,
    ) -> Vec<T> {
        assert!(min_len <= max_len);
        let len = rng.range_inclusive(min_len as u64, max_len as u64) as usize;
        (0..len).map(|_| element(rng)).collect()
    }

    /// String of up to `max_chars` characters mixing ASCII (common case)
    /// with multi-byte code points (boundary case for codecs/parsers).
    pub fn string_any(rng: &mut Xoshiro256, max_chars: usize) -> String {
        let len = rng.range_inclusive(0, max_chars as u64) as usize;
        (0..len)
            .map(|_| match rng.index(8) {
                // Printable ASCII most of the time.
                0..=5 => char::from(rng.range_inclusive(0x20, 0x7e) as u8),
                // Latin-1 / BMP multi-byte.
                6 => char::from_u32(rng.range_inclusive(0xa0, 0x2fff) as u32).unwrap_or('¤'),
                // Occasional control char / newline / tab.
                _ => *rng.choose(&['\n', '\t', '\r', '\0', '\u{7f}']),
            })
            .collect()
    }
}

/// Check a property over generated inputs (see [`check`]).
///
/// ```ignore
/// prop_check!(|rng| gen::i64_in(rng, 0, 100), |x| assert!(*x <= 100));
/// prop_check!(cases = 16, |rng| generate(rng), |input| { ... });
/// ```
///
/// The generator's value must implement [`Shrink`] + `Clone` + `Debug`
/// (tuples of the provided implementations cover the usual shapes). The
/// property body takes the input **by reference** and signals failure by
/// panicking (`assert!`, `assert_eq!`, …).
#[macro_export]
macro_rules! prop_check {
    (cases = $cases:expr, |$rng:ident| $generator:expr, |$input:ident| $body:expr) => {{
        let cfg = $crate::testkit::Config {
            cases: $cases,
            ..$crate::testkit::Config::default()
        };
        $crate::testkit::check(
            &cfg,
            |$rng: &mut $crate::Xoshiro256| $generator,
            |$input| {
                $body;
            },
        );
    }};
    (|$rng:ident| $generator:expr, |$input:ident| $body:expr) => {{
        let cfg = $crate::testkit::Config::default();
        $crate::testkit::check(
            &cfg,
            |$rng: &mut $crate::Xoshiro256| $generator,
            |$input| {
                $body;
            },
        );
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut ran = 0u32;
        let cfg = Config {
            cases: 17,
            seed: 1,
            max_shrink_steps: 10,
        };
        check(
            &cfg,
            |_rng| {
                ran += 1;
                0u64
            },
            |_| {},
        );
        assert_eq!(ran, 17);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = Config {
            cases: 8,
            seed: 42,
            max_shrink_steps: 0,
        };
        let mut a = Vec::new();
        let mut b = Vec::new();
        check(
            &cfg,
            |rng| {
                let v = rng.next_u64();
                a.push(v);
                v
            },
            |_| {},
        );
        check(
            &cfg,
            |rng| {
                let v = rng.next_u64();
                b.push(v);
                v
            },
            |_| {},
        );
        assert_eq!(a, b);
    }

    #[test]
    fn failure_reports_minimal_counterexample() {
        // Property "all vecs have fewer than 3 elements" fails on most
        // generated inputs; shrinking must land on exactly 3 elements.
        let cfg = Config {
            cases: 64,
            seed: 7,
            max_shrink_steps: 512,
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            check(
                &cfg,
                |rng| gen::vec_of(rng, 0, 40, |r| gen::i64_in(r, 0, 9)),
                |xs| assert!(xs.len() < 3, "vec too long: {}", xs.len()),
            );
        }));
        let msg = panic_message(result.unwrap_err().as_ref());
        assert!(msg.contains("minimal input: [0, 0, 0]"), "got: {msg}");
        assert!(msg.contains("replay with TESTKIT_SEED="), "got: {msg}");
    }

    #[test]
    fn shrink_descends_scalars_toward_zero() {
        let cfg = Config {
            cases: 32,
            seed: 3,
            max_shrink_steps: 512,
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            check(
                &cfg,
                |rng| gen::i64_in(rng, 0, 1_000_000),
                |x| assert!(*x < 500, "too big"),
            );
        }));
        let msg = panic_message(result.unwrap_err().as_ref());
        // Greedy halving from anywhere in [500, 1e6] must end at 500.
        assert!(msg.contains("minimal input: 500"), "got: {msg}");
    }

    #[test]
    fn tuple_shrink_covers_components() {
        let shrunk = (4u64, vec![1i64]).shrink();
        assert!(shrunk.contains(&(0u64, vec![1i64])));
        assert!(shrunk.contains(&(4u64, vec![])));
    }

    #[test]
    fn vec_shrink_candidates_are_smaller_or_equal() {
        let v = vec![5i64, -3, 7, 0];
        for c in v.shrink() {
            assert!(c.len() <= v.len());
        }
    }

    #[test]
    fn string_shrink_terminates() {
        let mut s = "héllo wörld".to_string();
        let mut steps = 0;
        while let Some(next) = s.shrink().into_iter().next() {
            s = next;
            steps += 1;
            assert!(steps < 100, "string shrink does not terminate");
        }
        assert_eq!(s, "");
    }

    #[test]
    fn gen_ranges_respected() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        for _ in 0..2_000 {
            assert!((5..9).contains(&gen::usize_in(&mut rng, 5, 9)));
            assert!((-3..=3).contains(&gen::i64_in(&mut rng, -3, 3)));
            let f = gen::f64_in(&mut rng, 0.25, 0.75);
            assert!((0.25..0.75).contains(&f));
            let v = gen::vec_of(&mut rng, 2, 5, |r| r.next_u64());
            assert!((2..=5).contains(&v.len()));
            let s = gen::string_any(&mut rng, 12);
            assert!(s.chars().count() <= 12);
        }
    }
}
