//! LP problem and solution containers.

use std::fmt;

/// A maximization LP: `max c·x` s.t. `A x ≤ b`, `0 ≤ x ≤ u`, with `b ≥ 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct LpProblem {
    n: usize,
    m: usize,
    c: Vec<f64>,
    /// Row-major `m × n`.
    a: Vec<f64>,
    b: Vec<f64>,
    upper: Vec<f64>,
}

/// Solver failure modes.
#[allow(missing_docs)] // field names are self-describing
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// Dimensions of `c`, `a`, `b`, `upper` are inconsistent.
    BadShape(String),
    /// Some `b_i < 0` (the solver requires a feasible slack basis).
    NegativeRhs { row: usize, value: f64 },
    /// Some upper bound is negative or NaN appears in the data.
    BadBound { index: usize, value: f64 },
    /// Data contains NaN/∞.
    NotFinite { what: &'static str, index: usize },
    /// The LP is unbounded above (cannot happen when all `u_j` are finite).
    Unbounded,
    /// Pivot limit exceeded (numerical trouble).
    IterationLimit { limit: usize },
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::BadShape(s) => write!(f, "inconsistent LP shape: {s}"),
            LpError::NegativeRhs { row, value } => {
                write!(f, "rhs b[{row}] = {value} is negative")
            }
            LpError::BadBound { index, value } => {
                write!(f, "upper bound u[{index}] = {value} invalid")
            }
            LpError::NotFinite { what, index } => write!(f, "{what}[{index}] not finite"),
            LpError::Unbounded => write!(f, "LP unbounded above"),
            LpError::IterationLimit { limit } => {
                write!(f, "simplex exceeded {limit} pivots")
            }
        }
    }
}

impl std::error::Error for LpError {}

/// An optimal solution with primal values, duals and pivot statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal objective value.
    pub objective: f64,
    /// Primal values, one per structural variable.
    pub x: Vec<f64>,
    /// Dual values (shadow prices), one per constraint; non-negative for
    /// a maximization with `≤` rows.
    pub duals: Vec<f64>,
    /// Simplex pivots performed.
    pub pivots: usize,
}

impl LpProblem {
    /// Validate and build a problem. `a` is row-major `m × n` where
    /// `m = b.len()` and `n = c.len()`.
    pub fn new(c: Vec<f64>, a: Vec<f64>, b: Vec<f64>, upper: Vec<f64>) -> Result<Self, LpError> {
        let n = c.len();
        let m = b.len();
        if n == 0 || m == 0 {
            return Err(LpError::BadShape(format!("n={n}, m={m}")));
        }
        if a.len() != n * m {
            return Err(LpError::BadShape(format!(
                "matrix holds {} entries, expected {}",
                a.len(),
                n * m
            )));
        }
        if upper.len() != n {
            return Err(LpError::BadShape(format!(
                "upper bounds hold {} entries, expected {n}",
                upper.len()
            )));
        }
        for (k, v) in c.iter().enumerate() {
            if !v.is_finite() {
                return Err(LpError::NotFinite {
                    what: "c",
                    index: k,
                });
            }
        }
        for (k, v) in a.iter().enumerate() {
            if !v.is_finite() {
                return Err(LpError::NotFinite {
                    what: "a",
                    index: k,
                });
            }
        }
        for (i, &v) in b.iter().enumerate() {
            if !v.is_finite() {
                return Err(LpError::NotFinite {
                    what: "b",
                    index: i,
                });
            }
            if v < 0.0 {
                return Err(LpError::NegativeRhs { row: i, value: v });
            }
        }
        for (j, &u) in upper.iter().enumerate() {
            if u.is_nan() || u < 0.0 {
                return Err(LpError::BadBound { index: j, value: u });
            }
        }
        Ok(LpProblem {
            n,
            m,
            c,
            a,
            b,
            upper,
        })
    }

    /// Number of structural variables.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of constraints.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Objective coefficients.
    #[inline]
    pub fn c(&self) -> &[f64] {
        &self.c
    }

    /// Matrix entry `a_ij`.
    #[inline]
    pub fn a(&self, i: usize, j: usize) -> f64 {
        self.a[i * self.n + j]
    }

    /// Row `i` of the matrix, one entry per structural variable.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        &self.a[i * self.n..(i + 1) * self.n]
    }

    /// Right-hand sides.
    #[inline]
    pub fn b(&self) -> &[f64] {
        &self.b
    }

    /// Variable upper bounds.
    #[inline]
    pub fn upper(&self) -> &[f64] {
        &self.upper
    }

    /// Check a primal point for feasibility within tolerance `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.n {
            return false;
        }
        for (j, &v) in x.iter().enumerate() {
            if v < -tol || v > self.upper[j] + tol {
                return false;
            }
        }
        for i in 0..self.m {
            let lhs: f64 = (0..self.n).map(|j| self.a(i, j) * x[j]).sum();
            if lhs > self.b[i] + tol {
                return false;
            }
        }
        true
    }

    /// Objective value of a primal point.
    pub fn objective_of(&self, x: &[f64]) -> f64 {
        self.c.iter().zip(x).map(|(c, v)| c * v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_shape_mismatch() {
        assert!(matches!(
            LpProblem::new(vec![1.0], vec![1.0, 2.0], vec![1.0], vec![1.0]),
            Err(LpError::BadShape(_))
        ));
        assert!(matches!(
            LpProblem::new(vec![1.0], vec![1.0], vec![1.0], vec![]),
            Err(LpError::BadShape(_))
        ));
        assert!(matches!(
            LpProblem::new(vec![], vec![], vec![], vec![]),
            Err(LpError::BadShape(_))
        ));
    }

    #[test]
    fn rejects_negative_rhs() {
        assert!(matches!(
            LpProblem::new(vec![1.0], vec![1.0], vec![-1.0], vec![1.0]),
            Err(LpError::NegativeRhs { row: 0, .. })
        ));
    }

    #[test]
    fn rejects_nan() {
        assert!(matches!(
            LpProblem::new(vec![f64::NAN], vec![1.0], vec![1.0], vec![1.0]),
            Err(LpError::NotFinite { what: "c", .. })
        ));
    }

    #[test]
    fn rejects_negative_bound() {
        assert!(matches!(
            LpProblem::new(vec![1.0], vec![1.0], vec![1.0], vec![-0.5]),
            Err(LpError::BadBound { .. })
        ));
    }

    #[test]
    fn feasibility_checker() {
        let p = LpProblem::new(vec![1.0, 1.0], vec![1.0, 1.0], vec![1.5], vec![1.0, 1.0]).unwrap();
        assert!(p.is_feasible(&[0.5, 1.0], 1e-9));
        assert!(!p.is_feasible(&[1.0, 1.0], 1e-9)); // row sum 2 > 1.5
        assert!(!p.is_feasible(&[-0.1, 0.0], 1e-9));
        assert!(!p.is_feasible(&[0.0, 1.1], 1e-9));
        assert!(!p.is_feasible(&[0.0], 1e-9));
    }

    #[test]
    fn objective_of_point() {
        let p = LpProblem::new(vec![2.0, 3.0], vec![1.0, 1.0], vec![10.0], vec![5.0, 5.0]).unwrap();
        assert!((p.objective_of(&[1.0, 2.0]) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn error_display() {
        let e = LpError::NegativeRhs {
            row: 3,
            value: -2.0,
        };
        assert!(e.to_string().contains("b[3]"));
    }
}
