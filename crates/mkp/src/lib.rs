//! # mkp — 0–1 multidimensional knapsack substrate
//!
//! Problem model, benchmark generators, constructive heuristics and cheap
//! bounds shared by every other crate in the workspace:
//!
//! * [`instance::Instance`] — immutable problem data with dual (row/item
//!   major) weight layouts;
//! * [`solution::Solution`] — assignments with O(m) incremental add/drop
//!   evaluation, the hot kernel of the tabu search;
//! * [`bitset::BitVec`] — packed bit vectors (Hamming distances between
//!   slave solutions drive the master's strategy adaptation);
//! * [`eval::Ranking`] — precomputed pseudo-utility/burden tables and the
//!   utility ranking, all a construction reads;
//! * [`eval::Ratios`] — a ranking plus the evaluation view a search reads;
//! * [`soa::SoaView`] — structure-of-arrays evaluation view: lane-packed
//!   weight columns and cached residual capacities for word-parallel
//!   (SWAR) feasibility tests in the move kernels;
//! * [`greedy`] — constructive heuristics and the feasibility projection;
//! * [`generate`] — seeded re-creations of the paper's benchmark suites;
//! * [`bounds`] — Dantzig-style upper bounds;
//! * [`stats`] — instance-class statistics (tightness, correlation, …);
//! * [`restrict`] — variable-fixing subproblems for search-space decomposition;
//! * [`mod@format`] — OR-Library-compatible text I/O;
//! * [`rng::Xoshiro256`] — deterministic, forkable PRNG;
//! * [`testkit`] — in-tree property-testing harness ([`prop_check!`]).
//!
//! ```
//! use mkp::generate::{gk_instance, GkSpec};
//! use mkp::eval::Ranking;
//! use mkp::greedy::greedy;
//!
//! let inst = gk_instance("demo", GkSpec { n: 50, m: 5, tightness: 0.5, seed: 1 });
//! let sol = greedy(&inst, &Ranking::new(&inst));
//! assert!(sol.is_feasible(&inst));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitset;
pub mod bounds;
pub mod eval;
pub mod format;
pub mod generate;
pub mod greedy;
pub mod instance;
pub mod restrict;
pub mod rng;
pub mod soa;
pub mod solution;
pub mod stats;
pub mod testkit;

pub use bitset::BitVec;
pub use instance::{Instance, InstanceError};
pub use rng::Xoshiro256;
pub use solution::Solution;
