//! Strategy Generation Procedure (paper §4.2).
//!
//! Produces the P strategies for the next search iteration. A slave whose
//! score survives keeps its strategy; a slave whose score hit zero gets a
//! new one, steered by the *dispersion* of its B best solutions:
//!
//! * clustered elite (small mean pairwise Hamming distance) — the slave is
//!   stuck in one area → **diversify** (longer tenure, wider moves, less
//!   patience);
//! * dispersed elite — the slave sprays over many areas → **intensify**
//!   (shorter tenure, narrower moves, more patience);
//! * in between → draw a fresh random strategy.

use mkp::{BitVec, Xoshiro256};
use mkp_tabu::{Strategy, StrategyBounds};

/// Dispersion thresholds as fractions of `n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgpConfig {
    /// Elite dispersion below this fraction of `n` counts as clustered.
    pub cluster_below: f64,
    /// Elite dispersion above this fraction of `n` counts as dispersed.
    pub disperse_above: f64,
}

impl Default for SgpConfig {
    fn default() -> Self {
        SgpConfig {
            cluster_below: 0.05,
            disperse_above: 0.25,
        }
    }
}

/// What the SGP decided for one slave's strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adaptation {
    /// Strategy kept unchanged (score still positive).
    Keep,
    /// Regenerated towards diversification (elite was clustered).
    Diversified,
    /// Regenerated towards intensification (elite was dispersed).
    Intensified,
    /// Regenerated uniformly at random (no clear signal).
    Random,
}

/// Mean pairwise Hamming distance of the elite assignments (0 for fewer
/// than two solutions), computed on a slave report's raw wire bits: the
/// dispersion statistic the SGP adapts strategies by.
pub fn elite_dispersion(elite: &[BitVec]) -> f64 {
    let k = elite.len();
    if k < 2 {
        return 0.0;
    }
    let mut total = 0usize;
    let mut pairs = 0usize;
    for a in 0..k {
        for b in a + 1..k {
            total += elite[a].hamming(&elite[b]);
            pairs += 1;
        }
    }
    total as f64 / pairs as f64
}

/// Produce the slave's next strategy.
///
/// `regenerate` is the zero-score signal from [`crate::score::Score`];
/// `dispersion` is the slave's elite dispersion in items (absolute Hamming);
/// `n` the instance size.
pub fn next_strategy(
    current: Strategy,
    regenerate: bool,
    dispersion: f64,
    n: usize,
    cfg: &SgpConfig,
    bounds: &StrategyBounds,
    rng: &mut Xoshiro256,
) -> (Strategy, Adaptation) {
    if !regenerate {
        return (current, Adaptation::Keep);
    }
    let rel = dispersion / n as f64;
    if rel < cfg.cluster_below {
        (current.diversify_step(bounds), Adaptation::Diversified)
    } else if rel > cfg.disperse_above {
        (current.intensify_step(bounds), Adaptation::Intensified)
    } else {
        (bounds.random(rng), Adaptation::Random)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(pattern: &[bool]) -> BitVec {
        BitVec::from_bools(pattern.iter().copied())
    }

    #[test]
    fn dispersion_of_singleton_is_zero() {
        assert_eq!(elite_dispersion(&[bits(&[true, false])]), 0.0);
        assert_eq!(elite_dispersion(&[]), 0.0);
    }

    #[test]
    fn dispersion_matches_hand_computation() {
        let e = [
            bits(&[true, false, false, false]),
            bits(&[false, true, false, false]),
            bits(&[true, true, false, false]),
        ];
        // pairwise distances 2, 1, 1 → mean 4/3
        assert!((elite_dispersion(&e) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn positive_score_keeps_strategy() {
        let bounds = StrategyBounds::for_instance_size(100);
        let mut rng = Xoshiro256::seed_from_u64(1);
        let s = Strategy {
            tabu_tenure: 10,
            nb_drop: 2,
            nb_local: 50,
        };
        let (next, what) = next_strategy(
            s,
            false,
            50.0,
            100,
            &SgpConfig::default(),
            &bounds,
            &mut rng,
        );
        assert_eq!(next, s);
        assert_eq!(what, Adaptation::Keep);
    }

    #[test]
    fn clustered_elite_diversifies() {
        let bounds = StrategyBounds::for_instance_size(100);
        let mut rng = Xoshiro256::seed_from_u64(2);
        let s = Strategy {
            tabu_tenure: 10,
            nb_drop: 2,
            nb_local: 50,
        };
        let (next, what) =
            next_strategy(s, true, 1.0, 100, &SgpConfig::default(), &bounds, &mut rng);
        assert_eq!(what, Adaptation::Diversified);
        assert!(next.tabu_tenure > s.tabu_tenure);
        assert!(next.nb_drop > s.nb_drop);
    }

    #[test]
    fn dispersed_elite_intensifies() {
        let bounds = StrategyBounds::for_instance_size(100);
        let mut rng = Xoshiro256::seed_from_u64(3);
        let s = Strategy {
            tabu_tenure: 12,
            nb_drop: 3,
            nb_local: 50,
        };
        let (next, what) =
            next_strategy(s, true, 40.0, 100, &SgpConfig::default(), &bounds, &mut rng);
        assert_eq!(what, Adaptation::Intensified);
        assert!(next.tabu_tenure < s.tabu_tenure);
        assert!(next.nb_drop < s.nb_drop);
        assert!(next.nb_local > s.nb_local);
    }

    #[test]
    fn mid_dispersion_randomizes_within_bounds() {
        let bounds = StrategyBounds::for_instance_size(100);
        let mut rng = Xoshiro256::seed_from_u64(4);
        let s = Strategy {
            tabu_tenure: 12,
            nb_drop: 3,
            nb_local: 50,
        };
        let (next, what) =
            next_strategy(s, true, 15.0, 100, &SgpConfig::default(), &bounds, &mut rng);
        assert_eq!(what, Adaptation::Random);
        assert!((bounds.tenure.0..=bounds.tenure.1).contains(&next.tabu_tenure));
    }
}
