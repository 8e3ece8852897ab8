//! # mkp-exact — exact solvers and relaxation bounds for the 0–1 MKP
//!
//! The paper's experiment on the Fréville–Plateau suite claims the heuristic
//! reaches *the optimum* on all 57 problems; checking that claim requires a
//! certifying exact solver. This crate provides:
//!
//! * [`bounds::lp_bound`] — the LP relaxation bound via `simplex-lp`, plus
//!   the dual values used everywhere else;
//! * [`bounds::Surrogate`] — surrogate-relaxation machinery: integer
//!   multipliers derived from LP duals, and the O(n) Dantzig bound on the
//!   surrogate constraint that the branch & bound evaluates at every node;
//! * [`dp`] — textbook dynamic programming for the single-constraint case
//!   (an independent oracle used to cross-check the B&B);
//! * [`reduce`] — reduced-cost variable fixing (the "size reduction" of
//!   Fréville & Plateau, whose benchmark suite the paper uses);
//! * [`branch_bound`] — depth-first branch & bound over a surrogate-ratio
//!   variable order, returning certified optima with node statistics: one
//!   search, which [`solve_parallel`] proves cell by cell on many threads
//!   against a shared incumbent;
//! * [`best_first`] — the oracle the depth-first search is checked against.
//!
//! ```
//! use mkp::generate::uncorrelated_instance;
//! use mkp_exact::branch_bound::{solve, BbConfig};
//!
//! let inst = uncorrelated_instance("demo", 20, 3, 0.5, 7);
//! let result = solve(&inst, &BbConfig::default());
//! assert!(result.proven);
//! assert!(result.solution.is_feasible(&inst));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod best_first;
pub mod bounds;
pub mod branch_bound;
pub mod dp;
pub mod reduce;

pub use best_first::solve_best_first;
pub use branch_bound::{solve, solve_parallel, solve_with_incumbent, BbConfig, BbResult};
