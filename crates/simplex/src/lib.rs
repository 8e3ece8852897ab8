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
//! maintained basis inverse (`m ≤ ~30` for every instance in this workspace,
//! so the m×m inverse is tiny), Dantzig pricing with an automatic switch to
//! Bland's rule for anti-cycling, and full bounded-variable ratio tests
//! including bound flips.
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
