//! Revised primal simplex with bounded variables and explicit basis inverse.

// Dense matrix code reads clearest with explicit row/column indices.
#![allow(clippy::needless_range_loop)]

use crate::problem::{LpError, LpProblem, LpSolution};

const TOL: f64 = 1e-9;
/// Switch from Dantzig to Bland pricing after this many consecutive
/// degenerate pivots (guarantees termination).
const BLAND_AFTER_DEGENERATE: usize = 40;
/// Reinvert the basis from scratch this often for numerical hygiene.
const REINVERT_EVERY: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Basic,
    AtLower,
    AtUpper,
}

/// Solve a bounded-variable LP. See the crate docs for the accepted form.
pub fn solve(p: &LpProblem) -> Result<LpSolution, LpError> {
    Simplex::new(p).run()
}

struct Simplex<'a> {
    p: &'a LpProblem,
    n: usize,
    m: usize,
    /// Variable status; indices `0..n` structural, `n..n+m` slack.
    status: Vec<Status>,
    /// Basic variable per row.
    basis: Vec<usize>,
    /// Row-major m×m basis inverse.
    binv: Vec<f64>,
    /// Values of the basic variables, aligned with `basis`.
    xb: Vec<f64>,
    pivots: usize,
    degenerate_streak: usize,
}

impl<'a> Simplex<'a> {
    fn new(p: &'a LpProblem) -> Self {
        let (n, m) = (p.n(), p.m());
        let mut status = vec![Status::AtLower; n + m];
        let mut basis = Vec::with_capacity(m);
        for i in 0..m {
            status[n + i] = Status::Basic;
            basis.push(n + i);
        }
        let mut binv = vec![0.0; m * m];
        for i in 0..m {
            binv[i * m + i] = 1.0;
        }
        Simplex {
            p,
            n,
            m,
            status,
            basis,
            binv,
            xb: p.b().to_vec(),
            pivots: 0,
            degenerate_streak: 0,
        }
    }

    #[inline]
    fn cost(&self, q: usize) -> f64 {
        if q < self.n {
            self.p.c()[q]
        } else {
            0.0
        }
    }

    #[inline]
    fn upper(&self, q: usize) -> f64 {
        if q < self.n {
            self.p.upper()[q]
        } else {
            f64::INFINITY
        }
    }

    /// Column of variable `q` in the original constraint matrix.
    #[inline]
    fn column(&self, q: usize, out: &mut [f64]) {
        if q < self.n {
            for i in 0..self.m {
                out[i] = self.p.a(i, q);
            }
        } else {
            out.fill(0.0);
            out[q - self.n] = 1.0;
        }
    }

    /// Dual values `y = c_B B⁻¹`, written into `y`.
    fn duals(&self, y: &mut [f64]) {
        y.fill(0.0);
        for (k, &bk) in self.basis.iter().enumerate() {
            let cb = self.cost(bk);
            if cb != 0.0 {
                for i in 0..self.m {
                    y[i] += cb * self.binv[k * self.m + i];
                }
            }
        }
    }

    /// Reduced costs `d = c − Aᵀy` of all `n + m` variables, priced one
    /// constraint row at a time: the matrix is row-major, so this reads it
    /// sequentially. Each `d_j` still subtracts its terms in row order and
    /// skips zero entries, so its bits are those of a column walk.
    fn price(&self, y: &[f64], d: &mut [f64]) {
        let n = self.n;
        d[..n].copy_from_slice(self.p.c());
        for i in 0..self.m {
            let yi = y[i];
            for (dj, &a) in d[..n].iter_mut().zip(self.p.row(i)) {
                // `x − 0.0` is `x` for every x, so this is the skip,
                // written so the loop vectorizes.
                *dj -= if a != 0.0 { yi * a } else { 0.0 };
            }
            d[n + i] = -yi;
        }
    }

    fn run(mut self) -> Result<LpSolution, LpError> {
        let limit = 200 * (self.n + self.m + 10);
        let mut col = vec![0.0; self.m];
        let mut w = vec![0.0; self.m];
        let mut y = vec![0.0; self.m];
        let mut d = vec![0.0; self.n + self.m];
        self.duals(&mut y);
        self.price(&y, &mut d);
        loop {
            if self.pivots > limit {
                return Err(LpError::IterationLimit { limit });
            }
            let entering = self.choose_entering(&d);
            let Some((q, dq)) = entering else {
                return Ok(self.extract(&y));
            };
            // Direction of change of x_q: +1 when rising from lower bound.
            let dir: f64 = if dq > 0.0 { 1.0 } else { -1.0 };
            self.column(q, &mut col);
            // w = B⁻¹ A_q
            for (k, wk) in w.iter_mut().enumerate() {
                let row = &self.binv[k * self.m..(k + 1) * self.m];
                *wk = row.iter().zip(&col).map(|(r, c)| r * c).sum();
            }

            // Ratio test over v = dir · w (basic values move as xb − t·v).
            let mut t_max = self.upper(q); // bound-flip distance
            let mut leaving: Option<(usize, Status)> = None;
            for k in 0..self.m {
                let v = dir * w[k];
                if v > TOL {
                    let t = self.xb[k] / v;
                    if t < t_max - TOL {
                        t_max = t;
                        leaving = Some((k, Status::AtLower));
                    }
                } else if v < -TOL {
                    let ub = self.upper(self.basis[k]);
                    if ub.is_finite() {
                        let t = (ub - self.xb[k]) / (-v);
                        if t < t_max - TOL {
                            t_max = t;
                            leaving = Some((k, Status::AtUpper));
                        }
                    }
                }
            }
            if t_max.is_infinite() {
                return Err(LpError::Unbounded);
            }
            let t = t_max.max(0.0);
            self.degenerate_streak = if t <= TOL {
                self.degenerate_streak + 1
            } else {
                0
            };

            match leaving {
                None => {
                    // Bound flip: x_q jumps to its other bound. The basis is
                    // unchanged, and with it y and d.
                    for k in 0..self.m {
                        self.xb[k] -= t * dir * w[k];
                    }
                    self.status[q] = if dir > 0.0 {
                        Status::AtUpper
                    } else {
                        Status::AtLower
                    };
                    self.pivots += 1;
                }
                Some((r, leave_status)) => {
                    let entering_value = if dir > 0.0 { t } else { self.upper(q) - t };
                    for k in 0..self.m {
                        if k != r {
                            self.xb[k] -= t * dir * w[k];
                        }
                    }
                    self.xb[r] = entering_value;
                    self.status[self.basis[r]] = leave_status;
                    self.status[q] = Status::Basic;
                    self.basis[r] = q;
                    self.update_inverse(r, &w);
                    self.pivots += 1;
                    if self.pivots.is_multiple_of(REINVERT_EVERY) {
                        self.reinvert();
                    }
                    self.duals(&mut y);
                    self.price(&y, &mut d);
                }
            }
        }
    }

    /// Entering-variable choice over the reduced costs `d`: Dantzig
    /// (largest |reduced cost|) normally, Bland (lowest eligible index)
    /// under a degenerate streak.
    fn choose_entering(&self, d: &[f64]) -> Option<(usize, f64)> {
        let bland = self.degenerate_streak >= BLAND_AFTER_DEGENERATE;
        let mut best: Option<(usize, f64)> = None;
        for (q, &dq) in d.iter().enumerate() {
            let eligible = match self.status[q] {
                Status::Basic => false,
                Status::AtLower => dq > TOL,
                Status::AtUpper => dq < -TOL,
            };
            if eligible {
                if bland {
                    return Some((q, dq));
                }
                if best.is_none_or(|(_, bd)| dq.abs() > bd.abs()) {
                    best = Some((q, dq));
                }
            }
        }
        best
    }

    /// Product-form update of B⁻¹ after the pivot row `r` with direction `w`.
    fn update_inverse(&mut self, r: usize, w: &[f64]) {
        let m = self.m;
        let pivot = w[r];
        debug_assert!(pivot.abs() > TOL, "pivot {pivot} too small");
        for i in 0..m {
            self.binv[r * m + i] /= pivot;
        }
        for k in 0..m {
            if k != r && w[k] != 0.0 {
                let factor = w[k];
                for i in 0..m {
                    self.binv[k * m + i] -= factor * self.binv[r * m + i];
                }
            }
        }
    }

    /// Rebuild B⁻¹ and the basic values from scratch (numerical hygiene).
    fn reinvert(&mut self) {
        let m = self.m;
        // Assemble B column-by-column, then invert by Gauss–Jordan with
        // partial pivoting into `inv`.
        let mut bmat = vec![0.0; m * m]; // row-major
        let mut col = vec![0.0; m];
        for (k, &q) in self.basis.iter().enumerate() {
            self.column(q, &mut col);
            for i in 0..m {
                bmat[i * m + k] = col[i];
            }
        }
        let mut inv = vec![0.0; m * m];
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        for coli in 0..m {
            // Partial pivot.
            let mut piv = coli;
            for r in coli + 1..m {
                if bmat[r * m + coli].abs() > bmat[piv * m + coli].abs() {
                    piv = r;
                }
            }
            if bmat[piv * m + coli].abs() <= TOL {
                // Singular basis should be impossible; keep the old inverse.
                return;
            }
            if piv != coli {
                for j in 0..m {
                    bmat.swap(coli * m + j, piv * m + j);
                    inv.swap(coli * m + j, piv * m + j);
                }
            }
            let d = bmat[coli * m + coli];
            for j in 0..m {
                bmat[coli * m + j] /= d;
                inv[coli * m + j] /= d;
            }
            for r in 0..m {
                if r != coli {
                    let f = bmat[r * m + coli];
                    if f != 0.0 {
                        for j in 0..m {
                            bmat[r * m + j] -= f * bmat[coli * m + j];
                            inv[r * m + j] -= f * inv[coli * m + j];
                        }
                    }
                }
            }
        }
        self.binv = inv;
        self.recompute_xb();
    }

    /// xb = B⁻¹ (b − Σ_{q at upper} A_q u_q).
    fn recompute_xb(&mut self) {
        let m = self.m;
        let mut rhs = self.p.b().to_vec();
        let mut col = vec![0.0; m];
        for q in 0..self.n + self.m {
            if self.status[q] == Status::AtUpper {
                let u = self.upper(q);
                self.column(q, &mut col);
                for i in 0..m {
                    rhs[i] -= col[i] * u;
                }
            }
        }
        for k in 0..m {
            let row = &self.binv[k * m..(k + 1) * m];
            self.xb[k] = row.iter().zip(&rhs).map(|(r, v)| r * v).sum();
        }
    }

    fn extract(&self, y: &[f64]) -> LpSolution {
        let mut x = vec![0.0; self.n];
        for q in 0..self.n {
            x[q] = match self.status[q] {
                Status::AtLower => 0.0,
                Status::AtUpper => self.p.upper()[q],
                Status::Basic => 0.0, // filled below
            };
        }
        for (k, &q) in self.basis.iter().enumerate() {
            if q < self.n {
                // Clamp tiny numerical excursions back into the box.
                x[q] = self.xb[k].clamp(0.0, self.p.upper()[q]);
            }
        }
        let objective = self.p.objective_of(&x);
        LpSolution {
            objective,
            x,
            duals: y.to_vec(),
            pivots: self.pivots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkp::prop_check;
    use mkp::testkit::gen;

    fn lp(c: Vec<f64>, a: Vec<f64>, b: Vec<f64>, u: Vec<f64>) -> LpSolution {
        solve(&LpProblem::new(c, a, b, u).unwrap()).unwrap()
    }

    #[test]
    fn single_variable() {
        // max 5x s.t. 2x ≤ 3, x ≤ 1 → x = 1 (bound flip) → 5.
        let s = lp(vec![5.0], vec![2.0], vec![3.0], vec![1.0]);
        assert!((s.objective - 5.0).abs() < 1e-9);
        assert!((s.x[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_variable_constraint_binding() {
        // max 5x s.t. 2x ≤ 1, x ≤ 1 → x = 0.5 → 2.5.
        let s = lp(vec![5.0], vec![2.0], vec![1.0], vec![1.0]);
        assert!((s.objective - 2.5).abs() < 1e-9);
        // Dual of the binding row = 2.5.
        assert!((s.duals[0] - 2.5).abs() < 1e-9);
    }

    #[test]
    fn two_variables_textbook() {
        // max 3x + 2y s.t. x + y ≤ 4, x ≤ 3; 0 ≤ x,y ≤ 10 → (3, 1) → 11.
        let s = lp(
            vec![3.0, 2.0],
            vec![1.0, 1.0, 1.0, 0.0],
            vec![4.0, 3.0],
            vec![10.0, 10.0],
        );
        assert!((s.objective - 11.0).abs() < 1e-9);
        assert!((s.x[0] - 3.0).abs() < 1e-9);
        assert!((s.x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fractional_knapsack_relaxation() {
        // max 10a + 6b s.t. 5a + 4b ≤ 7; 0 ≤ a,b ≤ 1.
        // Ratios 2 vs 1.5 → a = 1, b = 0.5 → 13 (matches the Dantzig bound).
        let s = lp(vec![10.0, 6.0], vec![5.0, 4.0], vec![7.0], vec![1.0, 1.0]);
        assert!((s.objective - 13.0).abs() < 1e-9);
    }

    #[test]
    fn all_items_fit() {
        let s = lp(vec![4.0, 5.0], vec![3.0, 4.0], vec![10.0], vec![1.0, 1.0]);
        assert!((s.objective - 9.0).abs() < 1e-9);
    }

    #[test]
    fn zero_objective() {
        let s = lp(vec![0.0, 0.0], vec![1.0, 1.0], vec![1.0], vec![1.0, 1.0]);
        assert!(s.objective.abs() < 1e-9);
    }

    #[test]
    fn degenerate_rhs_zero() {
        // b = 0 forces x = 0 for any weight-positive variable.
        let s = lp(vec![3.0, 1.0], vec![1.0, 2.0], vec![0.0], vec![1.0, 1.0]);
        assert!(s.objective.abs() < 1e-9);
    }

    #[test]
    fn multi_constraint_binding_mix() {
        // max x + y s.t. x ≤ 1 (row), y ≤ 1 (row), x + y ≤ 1.5.
        let s = lp(
            vec![1.0, 1.0],
            vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0],
            vec![1.0, 1.0, 1.5],
            vec![5.0, 5.0],
        );
        assert!((s.objective - 1.5).abs() < 1e-9);
    }

    #[test]
    fn duals_nonnegative_at_optimum() {
        let s = lp(
            vec![3.0, 2.0, 4.0],
            vec![1.0, 1.0, 2.0, 2.0, 1.0, 1.0],
            vec![4.0, 5.0],
            vec![1.0, 1.0, 1.0],
        );
        for &d in &s.duals {
            assert!(d >= -1e-9, "negative dual {d}");
        }
    }

    #[test]
    fn weak_duality_holds() {
        // For max c·x with Ax ≤ b, 0 ≤ x ≤ u:
        // obj ≤ y·b + Σ_j max(0, c_j − y·A_j)·u_j for the optimal duals.
        let p = LpProblem::new(
            vec![7.0, 2.0, 5.0, 4.0],
            vec![
                3.0, 1.0, 4.0, 2.0, //
                1.0, 2.0, 1.0, 3.0,
            ],
            vec![6.0, 5.0],
            vec![1.0; 4],
        )
        .unwrap();
        let s = solve(&p).unwrap();
        let mut dual_bound: f64 = s.duals.iter().zip(p.b()).map(|(y, b)| y * b).sum();
        for j in 0..p.n() {
            let mut d = p.c()[j];
            for i in 0..p.m() {
                d -= s.duals[i] * p.a(i, j);
            }
            dual_bound += d.max(0.0) * p.upper()[j];
        }
        assert!(s.objective <= dual_bound + 1e-6);
        assert!(
            (s.objective - dual_bound).abs() < 1e-6,
            "strong duality at optimum"
        );
    }

    #[test]
    fn unbounded_detected_with_infinite_upper_bound() {
        // max x with a constraint that never binds x (zero coefficient) and
        // u = ∞: the LP is unbounded above.
        let p = LpProblem::new(
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![5.0],
            vec![f64::INFINITY, 1.0],
        )
        .unwrap();
        assert!(matches!(solve(&p), Err(LpError::Unbounded)));
    }

    #[test]
    fn infinite_upper_bound_bounded_by_constraint() {
        // u = ∞ but the row binds: max 3x s.t. 2x ≤ 4 → x = 2 → 6.
        let p = LpProblem::new(vec![3.0], vec![2.0], vec![4.0], vec![f64::INFINITY]).unwrap();
        let s = solve(&p).unwrap();
        assert!((s.objective - 6.0).abs() < 1e-9);
    }

    #[test]
    fn zero_upper_bound_pins_variable() {
        // u = 0 fixes x at 0; only y contributes.
        let p =
            LpProblem::new(vec![100.0, 1.0], vec![1.0, 1.0], vec![10.0], vec![0.0, 1.0]).unwrap();
        let s = solve(&p).unwrap();
        assert!(s.x[0].abs() < 1e-9);
        assert!((s.objective - 1.0).abs() < 1e-9);
    }

    #[test]
    fn highly_degenerate_lp_terminates() {
        // Many identical rows force degenerate pivots; Bland's rule must
        // still terminate at the optimum.
        let n = 6;
        let m = 8;
        let c: Vec<f64> = (0..n).map(|j| (j + 1) as f64).collect();
        let mut a = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                a[i * n + j] = 1.0; // identical rows
            }
        }
        let b = vec![3.0; m];
        let p = LpProblem::new(c, a, b, vec![1.0; n]).unwrap();
        let s = solve(&p).unwrap();
        // Take the 3 most valuable variables fully: 6 + 5 + 4 = 15.
        assert!((s.objective - 15.0).abs() < 1e-6);
    }

    #[test]
    fn matches_mkp_dantzig_bound_when_m_is_1() {
        // The LP relaxation of a single-constraint knapsack IS the Dantzig
        // bound; cross-check on a few seeded instances.
        use mkp::bounds::dantzig_bound_single;
        use mkp::generate::uncorrelated_instance;
        for seed in 0..10 {
            let inst = uncorrelated_instance("x", 30, 1, 0.5, seed);
            let c: Vec<f64> = inst.profits().iter().map(|&v| v as f64).collect();
            let a: Vec<f64> = inst.constraint_row(0).iter().map(|&v| v as f64).collect();
            let b = vec![inst.capacity(0) as f64];
            let s = lp(c, a, b, vec![1.0; inst.n()]);
            let dz = dantzig_bound_single(&inst, 0);
            assert!(
                (s.objective - dz).abs() < 1e-6,
                "seed {seed}: LP {} vs Dantzig {dz}",
                s.objective
            );
        }
    }

    #[test]
    fn solution_reported_feasible() {
        let p = LpProblem::new(
            vec![2.0, 3.0, 1.0],
            vec![1.0, 2.0, 1.0, 2.0, 1.0, 3.0],
            vec![4.0, 5.0],
            vec![1.0, 1.0, 1.0],
        )
        .unwrap();
        let s = solve(&p).unwrap();
        assert!(p.is_feasible(&s.x, 1e-7));
        assert!((p.objective_of(&s.x) - s.objective).abs() < 1e-9);
    }

    /// The LP relaxation of an MKP instance (`0 ≤ x_j ≤ 1`).
    fn mkp_lp(inst: &mkp::Instance) -> LpProblem {
        let c: Vec<f64> = inst.profits().iter().map(|&v| v as f64).collect();
        let a: Vec<f64> = (0..inst.m())
            .flat_map(|i| inst.constraint_row(i).iter().map(|&w| w as f64))
            .collect();
        let b: Vec<f64> = inst.capacities().iter().map(|&v| v as f64).collect();
        LpProblem::new(c, a, b, vec![1.0; inst.n()]).unwrap()
    }

    #[test]
    fn larger_random_lp_is_stable() {
        // 30 constraints × 200 vars exercises reinversion and bound flips.
        use mkp::generate::gk_instance;
        use mkp::generate::GkSpec;
        let inst = gk_instance(
            "big",
            GkSpec {
                n: 200,
                m: 30,
                tightness: 0.5,
                seed: 5,
            },
        );
        let p = mkp_lp(&inst);
        let s = solve(&p).unwrap();
        assert!(p.is_feasible(&s.x, 1e-5));
        // Bound must dominate the greedy feasible integer value.
        let ratios = mkp::eval::Ratios::new(&inst);
        let g = mkp::greedy::greedy(&inst, &ratios);
        assert!(s.objective + 1e-6 >= g.value() as f64);
    }

    /// FNV-1a over the little-endian bit patterns of `values`.
    fn fnv_bits(values: &[f64]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in values {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The pivot path is pinned across versions: pivot count, objective
    /// bits, and hashes of the x and dual bits, as the column-priced
    /// solver produced them. A pricing or ratio-test change that moves
    /// any pivot changes these.
    #[test]
    fn pivot_paths_are_pinned() {
        use mkp::generate::{gk_instance, large_instance, GkSpec, LargeSpec};
        let gk = |n, m| {
            gk_instance(
                "gk",
                GkSpec {
                    n,
                    m,
                    tightness: 0.5,
                    seed: 4,
                },
            )
        };
        let large = large_instance(
            "large",
            LargeSpec {
                n: 500,
                m: 25,
                tightness: 0.25,
                correlation: 0.5,
                seed: 12,
            },
        );
        let cases = [
            (
                gk(250, 10),
                235,
                0x40fa_556e_7774_0f37,
                0x299f_1a8d_dc7c_0410,
                0x0f2f_dc25_b919_e57c,
            ),
            (
                gk(500, 25),
                468,
                0x410a_fa2a_00b2_ff9f,
                0xad22_27ba_1c41_5bfc,
                0x78b4_a4fb_644f_7aba,
            ),
            (
                large,
                330,
                0x40f4_c685_489f_aace,
                0x9f0b_8d92_355b_70ff,
                0x66b5_a59a_28bf_5191,
            ),
        ];
        for (inst, pivots, objective, x, duals) in cases {
            let s = solve(&mkp_lp(&inst)).unwrap();
            let shape = format!("{} {}x{}", inst.name(), inst.m(), inst.n());
            assert_eq!(s.pivots, pivots, "{shape}: pivots");
            assert_eq!(s.objective.to_bits(), objective, "{shape}: objective");
            assert_eq!(fnv_bits(&s.x), x, "{shape}: x");
            assert_eq!(fnv_bits(&s.duals), duals, "{shape}: duals");
        }
    }

    /// Random LPs: solver returns a feasible point whose objective
    /// dominates every vertex of a crude inner sample.
    #[test]
    fn prop_solver_feasible_and_dominant() {
        prop_check!(
            |rng| {
                let n = gen::usize_in(rng, 1, 8);
                let m = gen::usize_in(rng, 1, 5);
                let cs = gen::vec_of(rng, 8, 8, |r| gen::f64_in(r, 0.0, 20.0));
                let aw = gen::vec_of(rng, 40, 40, |r| gen::f64_in(r, 0.0, 10.0));
                let bs = gen::vec_of(rng, 5, 5, |r| gen::f64_in(r, 1.0, 30.0));
                (n, m, cs, aw, bs)
            },
            |input| {
                let (n, m, cs, aw, bs) = input;
                let (n, m) = (*n, *m);
                if !(1..8).contains(&n)
                    || !(1..5).contains(&m)
                    || cs.len() < n
                    || bs.len() < m
                    || aw.is_empty()
                {
                    return; // shrinking may void the shape invariants
                }
                let c: Vec<f64> = cs[..n].to_vec();
                let a: Vec<f64> = (0..m * n).map(|k| aw[k % aw.len()]).collect();
                let b: Vec<f64> = bs[..m].to_vec();
                let p = LpProblem::new(c, a, b, vec![1.0; n]).unwrap();
                let s = solve(&p).unwrap();
                assert!(p.is_feasible(&s.x, 1e-6));
                // Compare against all 0/1 corner points that are feasible (n ≤ 7).
                for mask in 0u32..(1 << n) {
                    let x: Vec<f64> = (0..n).map(|j| ((mask >> j) & 1) as f64).collect();
                    if p.is_feasible(&x, 1e-9) {
                        assert!(
                            s.objective + 1e-6 >= p.objective_of(&x),
                            "LP {} below integral point {}",
                            s.objective,
                            p.objective_of(&x)
                        );
                    }
                }
            }
        );
    }
}
