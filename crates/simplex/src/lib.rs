//! # simplex-lp — dense bounded-variable primal simplex
//!
//! A compact LP solver for problems of the shape that MKP relaxations
//! produce:
//!
//! ```text
//! maximize    c·x
//! subject to  A x ≤ b,   0 ≤ x_j ≤ u_j,   b ≥ 0
//! ```
//!
//! Because `b ≥ 0`, the all-slack basis is primal feasible and no phase-1 is
//! needed. The implementation is a revised simplex with an explicitly
//! maintained basis inverse (m×m, with `m ≤ 100` for every instance in this
//! workspace, against `n` up to 2,500 columns), Dantzig pricing with an
//! automatic switch to Bland's rule for anti-cycling, and full
//! bounded-variable ratio tests including bound flips.
//!
//! The cost sits in pricing `d = c − Aᵀy` over the wide matrix, so it
//! covers only the *tight* rows, those whose dual is nonzero: `y` is exactly
//! zero on every row whose slack is basic. The tight rows are priced four
//! per pass over the row-major matrix, each `d_j` kept in a register across
//! the block, then the leftover rows one at a time. Each `d_j` subtracts its
//! terms in ascending row order, so it has the bits of a plain column walk
//! up to the sign of an exact zero, which no pivot decision reads: the
//! pivot path does not depend on the skipping or the blocking. The
//! entering choice is a branch-free scan of `sign · d_q`, with
//! the sign taken from the variable's status (+1 at its lower bound, −1 at
//! its upper bound, 0 when basic): Dantzig's rule takes the first maximum
//! above the tolerance, Bland's rule the first score above it.
//!
//! The solver returns the primal solution *and* the dual values `y`, which
//! the exact solver reuses as surrogate-relaxation multipliers.
//!
//! ```
//! use simplex_lp::{LpProblem, solve};
//!
//! // max 3x + 2y  s.t.  x + y ≤ 4,  x ≤ 3,  0 ≤ x,y ≤ 10
//! let p = LpProblem::new(
//!     vec![3.0, 2.0],
//!     vec![1.0, 1.0,
//!          1.0, 0.0],
//!     vec![4.0, 3.0],
//!     vec![10.0, 10.0],
//! ).unwrap();
//! let s = solve(&p).unwrap();
//! assert!((s.objective - 11.0).abs() < 1e-9); // x=3, y=1
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod problem;
pub mod solver;

pub use problem::{LpError, LpProblem, LpSolution};
pub use solver::solve;
