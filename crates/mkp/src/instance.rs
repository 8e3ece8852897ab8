//! The 0–1 multidimensional knapsack problem instance.
//!
//! ```text
//! maximize    Σ_j c_j x_j
//! subject to  Σ_j a_ij x_j ≤ b_i   for i = 1..m
//!             x_j ∈ {0, 1}
//! ```
//!
//! All data are non-negative integers (`i64`), matching the classic benchmark
//! suites; integer arithmetic keeps incremental evaluation exact and lets the
//! exact solver certify optima without rounding concerns. Magnitudes are
//! bounded by [`Instance::MAX_MAGNITUDE`] so that this arithmetic cannot
//! overflow.

use std::fmt;

/// Errors raised when constructing an [`Instance`] from raw data.
#[allow(missing_docs)] // field names are self-describing
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceError {
    /// The instance has no items or no constraints.
    EmptyDimension { n: usize, m: usize },
    /// `weights.len()` is not `n * m`.
    WeightShape { expected: usize, got: usize },
    /// `capacities.len()` is not `m`.
    CapacityShape { expected: usize, got: usize },
    /// A profit, weight or capacity is negative.
    NegativeData {
        what: &'static str,
        index: usize,
        value: i64,
    },
    /// A capacity, the profit sum or the weight sum exceeds
    /// [`Instance::MAX_MAGNITUDE`]; `index` names the capacity.
    TooLarge {
        what: &'static str,
        index: Option<usize>,
    },
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::EmptyDimension { n, m } => {
                write!(f, "instance must have items and constraints (n={n}, m={m})")
            }
            InstanceError::WeightShape { expected, got } => {
                write!(f, "weight matrix must hold {expected} entries, got {got}")
            }
            InstanceError::CapacityShape { expected, got } => {
                write!(f, "capacity vector must hold {expected} entries, got {got}")
            }
            InstanceError::NegativeData { what, index, value } => {
                write!(f, "{what}[{index}] = {value} is negative")
            }
            InstanceError::TooLarge { what, index } => {
                match index {
                    Some(i) => write!(f, "{what}[{i}]")?,
                    None => write!(f, "{what}")?,
                }
                write!(
                    f,
                    " exceeds {}, so loads or objective values could overflow",
                    Instance::MAX_MAGNITUDE
                )
            }
        }
    }
}

impl std::error::Error for InstanceError {}

/// An immutable 0–1 MKP instance.
///
/// The weight matrix is stored twice: once row-major by constraint (for
/// whole-constraint scans such as finding the most saturated constraint) and
/// once item-major (for the hot add/drop load updates, which touch all `m`
/// weights of a single item — keeping them contiguous is the cache-friendly
/// layout). `m` is small next to `n` (≤ 30 in the paper's benchmarks, 100
/// in the large class's 100×2500 instances), so the duplication costs at
/// most one more copy of the weight matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    name: String,
    n: usize,
    m: usize,
    profits: Vec<i64>,
    /// Row-major: `by_constraint[i * n + j] = a_ij`.
    by_constraint: Vec<i64>,
    /// Item-major: `by_item[j * m + i] = a_ij`.
    by_item: Vec<i64>,
    capacities: Vec<i64>,
    best_known: Option<i64>,
}

impl Instance {
    /// Largest admissible capacity, profit sum and weight sum (the sum of
    /// every `a_ij`): `i64::MAX / 2`.
    ///
    /// A load is a sum of distinct items' weights, so `load_i + a_ij`
    /// never exceeds the weight sum, and a value never exceeds the profit
    /// sum. A slack `b_i − load_i` lies in `[−MAX_MAGNITUDE,
    /// MAX_MAGNITUDE]`, so `slack + 1` and the sum or difference of any two
    /// such quantities fit in `i64`; so does a per-item weight sum
    /// `Σ_i a_ij`. The lazy dynamic greedy relies on this: its monotone
    /// utilities assume these never wrap.
    pub const MAX_MAGNITUDE: i64 = i64::MAX / 2;

    /// Construct an instance from row-major weights (`weights[i * n + j]`).
    pub fn new(
        name: impl Into<String>,
        n: usize,
        m: usize,
        profits: Vec<i64>,
        weights: Vec<i64>,
        capacities: Vec<i64>,
    ) -> Result<Self, InstanceError> {
        if n == 0 || m == 0 {
            return Err(InstanceError::EmptyDimension { n, m });
        }
        if profits.len() != n {
            return Err(InstanceError::WeightShape {
                expected: n,
                got: profits.len(),
            });
        }
        let cells = n.checked_mul(m);
        if cells != Some(weights.len()) {
            return Err(InstanceError::WeightShape {
                expected: cells.unwrap_or(usize::MAX),
                got: weights.len(),
            });
        }
        if capacities.len() != m {
            return Err(InstanceError::CapacityShape {
                expected: m,
                got: capacities.len(),
            });
        }
        check_entries(&profits, "profit", "profit sum")?;
        check_entries(&weights, "weight", "weight sum")?;
        for (i, &b) in capacities.iter().enumerate() {
            if b < 0 {
                return Err(InstanceError::NegativeData {
                    what: "capacity",
                    index: i,
                    value: b,
                });
            }
            if b > Self::MAX_MAGNITUDE {
                return Err(InstanceError::TooLarge {
                    what: "capacity",
                    index: Some(i),
                });
            }
        }
        let mut by_item = vec![0i64; n * m];
        for i in 0..m {
            for j in 0..n {
                by_item[j * m + i] = weights[i * n + j];
            }
        }
        Ok(Instance {
            name: name.into(),
            n,
            m,
            profits,
            by_constraint: weights,
            by_item,
            capacities,
            best_known: None,
        })
    }

    /// Attach a best-known objective value (used by report tooling).
    pub fn with_best_known(mut self, value: i64) -> Self {
        self.best_known = Some(value);
        self
    }

    /// Instance label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of items (variables).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of knapsack constraints.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Profit `c_j`.
    #[inline]
    pub fn profit(&self, j: usize) -> i64 {
        self.profits[j]
    }

    /// All profits.
    #[inline]
    pub fn profits(&self) -> &[i64] {
        &self.profits
    }

    /// Weight `a_ij`.
    #[inline]
    pub fn weight(&self, i: usize, j: usize) -> i64 {
        self.by_constraint[i * self.n + j]
    }

    /// Row `i` of the weight matrix, one entry per item.
    #[inline]
    pub fn constraint_row(&self, i: usize) -> &[i64] {
        &self.by_constraint[i * self.n..(i + 1) * self.n]
    }

    /// The `m` weights of item `j`, one entry per constraint (contiguous).
    #[inline]
    pub fn item_weights(&self, j: usize) -> &[i64] {
        &self.by_item[j * self.m..(j + 1) * self.m]
    }

    /// Capacity `b_i`.
    #[inline]
    pub fn capacity(&self, i: usize) -> i64 {
        self.capacities[i]
    }

    /// All capacities.
    #[inline]
    pub fn capacities(&self) -> &[i64] {
        &self.capacities
    }

    /// Best objective value known for this instance, if recorded.
    pub fn best_known(&self) -> Option<i64> {
        self.best_known
    }

    /// Sum of weights of item `j` across all constraints, `Σ_i a_ij`.
    pub fn item_weight_sum(&self, j: usize) -> i64 {
        self.item_weights(j).iter().sum()
    }

    /// Upper bound on the objective: sum of all profits.
    pub fn profit_sum(&self) -> i64 {
        self.profits.iter().sum()
    }

    /// True when item `j` alone violates some constraint (can never be packed).
    pub fn item_oversized(&self, j: usize) -> bool {
        self.item_weights(j)
            .iter()
            .zip(&self.capacities)
            .any(|(&a, &b)| a > b)
    }

    /// Tightness ratio per constraint: `b_i / Σ_j a_ij` (1.0 when the row is
    /// all-zero). Benchmarks usually sit around 0.25–0.75; used by tests and
    /// generator validation.
    pub fn tightness(&self) -> Vec<f64> {
        (0..self.m)
            .map(|i| {
                let total: i64 = self.constraint_row(i).iter().sum();
                if total == 0 {
                    1.0
                } else {
                    self.capacity(i) as f64 / total as f64
                }
            })
            .collect()
    }
}

/// Check that `values` are non-negative and that their sum stays within
/// [`Instance::MAX_MAGNITUDE`], in one pass.
fn check_entries(
    values: &[i64],
    what: &'static str,
    sum_what: &'static str,
) -> Result<(), InstanceError> {
    let mut sum = 0u64;
    for (index, &value) in values.iter().enumerate() {
        if value < 0 {
            return Err(InstanceError::NegativeData { what, index, value });
        }
        // `sum` ≤ MAX_MAGNITUDE < 2^62 and `value` < 2^63: no wrap in u64.
        sum += value as u64;
        if sum > Instance::MAX_MAGNITUDE as u64 {
            return Err(InstanceError::TooLarge {
                what: sum_what,
                index: None,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Instance {
        // 3 items, 2 constraints.
        Instance::new(
            "tiny",
            3,
            2,
            vec![10, 6, 4],
            vec![
                5, 4, 3, // constraint 0
                1, 2, 3, // constraint 1
            ],
            vec![8, 4],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let inst = tiny();
        assert_eq!(inst.n(), 3);
        assert_eq!(inst.m(), 2);
        assert_eq!(inst.profit(0), 10);
        assert_eq!(inst.weight(0, 2), 3);
        assert_eq!(inst.weight(1, 0), 1);
        assert_eq!(inst.capacity(1), 4);
        assert_eq!(inst.constraint_row(0), &[5, 4, 3]);
        assert_eq!(inst.item_weights(1), &[4, 2]);
        assert_eq!(inst.profit_sum(), 20);
        assert_eq!(inst.item_weight_sum(2), 6);
    }

    #[test]
    fn item_major_layout_matches_row_major() {
        let inst = tiny();
        for i in 0..inst.m() {
            for j in 0..inst.n() {
                assert_eq!(inst.weight(i, j), inst.item_weights(j)[i]);
            }
        }
    }

    #[test]
    fn rejects_empty() {
        let err = Instance::new("e", 0, 1, vec![], vec![], vec![1]).unwrap_err();
        assert!(matches!(err, InstanceError::EmptyDimension { .. }));
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(matches!(
            Instance::new("e", 2, 1, vec![1, 2], vec![1], vec![1]).unwrap_err(),
            InstanceError::WeightShape { .. }
        ));
        assert!(matches!(
            Instance::new("e", 2, 1, vec![1, 2], vec![1, 2], vec![]).unwrap_err(),
            InstanceError::CapacityShape { .. }
        ));
        assert!(matches!(
            Instance::new("e", 2, 1, vec![1], vec![1, 2], vec![3]).unwrap_err(),
            InstanceError::WeightShape { .. }
        ));
    }

    #[test]
    fn rejects_negative_data() {
        let err = Instance::new("e", 2, 1, vec![1, -2], vec![1, 2], vec![3]).unwrap_err();
        assert!(matches!(
            err,
            InstanceError::NegativeData { what: "profit", .. }
        ));
        let err = Instance::new("e", 2, 1, vec![1, 2], vec![1, -2], vec![3]).unwrap_err();
        assert!(matches!(
            err,
            InstanceError::NegativeData { what: "weight", .. }
        ));
        let err = Instance::new("e", 2, 1, vec![1, 2], vec![1, 2], vec![-3]).unwrap_err();
        assert!(matches!(
            err,
            InstanceError::NegativeData {
                what: "capacity",
                ..
            }
        ));
    }

    #[test]
    fn rejects_data_that_could_overflow() {
        let max = i64::MAX;
        let err = Instance::new("e", 3, 1, vec![5, 4, 3], vec![1, 1, 1], vec![max]).unwrap_err();
        assert_eq!(
            err,
            InstanceError::TooLarge {
                what: "capacity",
                index: Some(0)
            }
        );
        // Two items of weight i64::MAX: their load would wrap.
        let err = Instance::new("e", 2, 1, vec![1, 1], vec![max, max], vec![max / 2]).unwrap_err();
        assert!(matches!(
            err,
            InstanceError::TooLarge {
                what: "weight sum",
                ..
            }
        ));
        // The sum, not a single entry, must stay within the limit.
        let half = Instance::MAX_MAGNITUDE / 2 + 1;
        let err = Instance::new("e", 2, 1, vec![half, half], vec![1, 1], vec![2]).unwrap_err();
        assert!(matches!(
            err,
            InstanceError::TooLarge {
                what: "profit sum",
                ..
            }
        ));
        assert!(err.to_string().contains("overflow"), "{err}");
        // Exactly at the limit is fine.
        let lim = Instance::MAX_MAGNITUDE;
        Instance::new("e", 2, 1, vec![lim, 0], vec![lim - 1, 1], vec![lim]).unwrap();
    }

    #[test]
    fn rejects_a_shape_whose_cell_count_overflows() {
        let err = Instance::new("e", 2, usize::MAX, vec![1, 2], vec![1, 2], vec![]).unwrap_err();
        assert!(matches!(err, InstanceError::WeightShape { .. }));
    }

    #[test]
    fn oversized_item_detection() {
        let inst = Instance::new("o", 2, 1, vec![5, 5], vec![10, 3], vec![4]).unwrap();
        assert!(inst.item_oversized(0));
        assert!(!inst.item_oversized(1));
    }

    #[test]
    fn tightness_computation() {
        let inst = tiny();
        let t = inst.tightness();
        assert!((t[0] - 8.0 / 12.0).abs() < 1e-12);
        assert!((t[1] - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn best_known_roundtrip() {
        let inst = tiny().with_best_known(16);
        assert_eq!(inst.best_known(), Some(16));
    }

    #[test]
    fn error_display_is_informative() {
        let err = Instance::new("e", 0, 0, vec![], vec![], vec![]).unwrap_err();
        assert!(err.to_string().contains("n=0"));
    }
}
