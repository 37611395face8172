use serde::{Deserialize, Serialize};

/// FedBuff-style polynomial staleness discount: the contribution weight of
/// an update that arrives `staleness` rounds after the aggregation it was
/// computed for, `w(s) = (1 + s)^(-decay)`.
///
/// `decay = 0` ignores staleness entirely (every late update counts fully);
/// larger decays discount late updates harder. The weight is 1 at zero
/// staleness and strictly decreasing in `staleness` for positive decay —
/// the monotonicity the aggregation-mode comparisons rely on (semi-sync
/// stragglers and async late finishers contribute less learning progress
/// per round than the synchronous barrier's always-fresh cohort).
///
/// # Example
///
/// ```
/// use comdml_core::staleness_weight;
///
/// assert_eq!(staleness_weight(0.0, 0.5), 1.0);
/// assert!(staleness_weight(1.0, 0.5) < 1.0);
/// assert!(staleness_weight(2.0, 0.5) < staleness_weight(1.0, 0.5));
/// ```
pub fn staleness_weight(staleness: f64, decay: f64) -> f64 {
    // A fresh update weighs exactly 1 (`pow(1, y) == 1` for every `y`);
    // skipping the `powf` keeps per-round efficiency cheap when most of a
    // large cohort is fresh.
    let staleness = staleness.max(0.0);
    if staleness == 0.0 {
        return 1.0;
    }
    (1.0 + staleness).powf(-decay.max(0.0))
}

/// A saturating-exponential accuracy model:
/// `acc(r) = a_max · (1 − exp(−r / τ))`.
///
/// The paper's tables measure *time to reach a target accuracy*. For the
/// synchronous model-averaging methods (FedAvg, BrainTorrent, AllReduce,
/// ComDML) the number of *rounds* to a target is nearly method-independent —
/// they all compute the same average of one-local-epoch updates — so the
/// methods differ through their per-round wall-clock time, which the
/// simulator provides. Gossip converges slower per round (partial mixing),
/// expressed as a rounds multiplier. Curve constants are calibrated per
/// dataset/IID-ness so round counts land in the paper's regime; see
/// EXPERIMENTS.md for the calibration table.
///
/// # Example
///
/// ```
/// use comdml_core::LearningCurve;
///
/// let curve = LearningCurve::cifar10(true);
/// let r90 = curve.rounds_to(0.90, 1.0);
/// let r80 = curve.rounds_to(0.80, 1.0);
/// assert!(r80 < r90);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LearningCurve {
    /// Asymptotic accuracy of the model/dataset combination.
    pub a_max: f64,
    /// Round constant of the exponential.
    pub tau: f64,
}

impl LearningCurve {
    /// Creates a curve from its constants.
    ///
    /// # Panics
    ///
    /// Panics if `a_max` is outside `(0, 1]` or `tau` is not positive.
    pub fn new(a_max: f64, tau: f64) -> Self {
        assert!(a_max > 0.0 && a_max <= 1.0, "a_max must be in (0, 1], got {a_max}");
        assert!(tau > 0.0, "tau must be positive, got {tau}");
        Self { a_max, tau }
    }

    /// ResNet-56 on CIFAR-10 (IID or Dirichlet-0.5 non-IID).
    pub fn cifar10(iid: bool) -> Self {
        if iid {
            Self::new(0.93, 11.0)
        } else {
            Self::new(0.88, 13.0)
        }
    }

    /// ResNet-56 on CIFAR-100.
    pub fn cifar100(iid: bool) -> Self {
        if iid {
            Self::new(0.68, 9.0)
        } else {
            Self::new(0.635, 12.0)
        }
    }

    /// ResNet-56 on CINIC-10.
    pub fn cinic10(iid: bool) -> Self {
        if iid {
            Self::new(0.79, 8.0)
        } else {
            Self::new(0.70, 11.0)
        }
    }

    /// Curve lookup by dataset name ("cifar10", "cifar100", "cinic10").
    ///
    /// # Panics
    ///
    /// Panics on an unknown dataset name.
    pub fn for_dataset(name: &str, iid: bool) -> Self {
        match name {
            "cifar10" => Self::cifar10(iid),
            "cifar100" => Self::cifar100(iid),
            "cinic10" => Self::cinic10(iid),
            other => panic!("no learning curve calibrated for dataset {other:?}"),
        }
    }

    /// ResNet-110 variant: deeper model, slightly higher ceiling, slower
    /// early progress.
    pub fn deeper(self) -> Self {
        Self::new((self.a_max + 0.012).min(1.0), self.tau * 1.25)
    }

    /// Linear interpolation between two curves: `frac = 0` gives `self`,
    /// `frac = 1` gives `other`. Used for non-I.I.D. *mixes* — a fleet
    /// whose data skew sits between the calibrated I.I.D. and
    /// Dirichlet-0.5 endpoints gets a proportionally blended asymptote and
    /// round constant.
    ///
    /// # Panics
    ///
    /// Panics if `frac` is outside `[0, 1]`.
    pub fn blend(self, other: Self, frac: f64) -> Self {
        assert!((0.0..=1.0).contains(&frac), "blend fraction must be in [0, 1], got {frac}");
        Self::new(
            self.a_max + frac * (other.a_max - self.a_max),
            self.tau + frac * (other.tau - self.tau),
        )
    }

    /// Accuracy after `r` rounds.
    pub fn accuracy_at(&self, r: f64) -> f64 {
        self.a_max * (1.0 - (-r / self.tau).exp())
    }

    /// Fits a curve to observed `(round, accuracy)` points by grid search
    /// over `(a_max, tau)` minimizing squared error — used to calibrate the
    /// simulator's curves against real training runs (e.g. the accuracy
    /// trajectory of a [`crate::RealSplitFleet`]).
    ///
    /// Returns `None` for fewer than two points or degenerate accuracies.
    pub fn fit(points: &[(f64, f64)]) -> Option<Self> {
        if points.len() < 2 {
            return None;
        }
        let max_acc = points.iter().map(|&(_, a)| a).fold(0.0f64, f64::max);
        if !(0.0..=1.0).contains(&max_acc) || max_acc <= 0.0 {
            return None;
        }
        let mut best: Option<(f64, Self)> = None;
        // a_max must sit at or above the best observation.
        let mut a = (max_acc + 1e-3).min(1.0);
        while a <= 1.0 {
            let mut tau = 0.5;
            while tau <= 200.0 {
                let curve = Self::new(a, tau);
                let sse: f64 =
                    points.iter().map(|&(r, acc)| (curve.accuracy_at(r) - acc).powi(2)).sum();
                if best.as_ref().is_none_or(|(b, _)| sse < *b) {
                    best = Some((sse, curve));
                }
                tau *= 1.07;
            }
            a += 0.005;
        }
        best.map(|(_, c)| c)
    }

    /// Rounds needed to reach `target` accuracy, with a method-specific
    /// efficiency (1.0 = full synchronous averaging; gossip < 1).
    ///
    /// # Panics
    ///
    /// Panics if `target >= a_max` (the curve never reaches it) or
    /// `efficiency` is not positive.
    pub fn rounds_to(&self, target: f64, efficiency: f64) -> usize {
        assert!(target < self.a_max, "target {target} is unreachable (asymptote {})", self.a_max);
        assert!(efficiency > 0.0, "efficiency must be positive, got {efficiency}");
        let r = -self.tau * (1.0 - target / self.a_max).ln();
        (r / efficiency).ceil().max(1.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_is_monotone_and_saturating() {
        let c = LearningCurve::cifar10(true);
        let mut prev = 0.0;
        for r in 0..200 {
            let a = c.accuracy_at(r as f64);
            assert!(a >= prev);
            prev = a;
        }
        assert!(prev < c.a_max);
        assert!(c.accuracy_at(1e6) > 0.9999 * c.a_max);
    }

    #[test]
    fn rounds_to_inverts_accuracy_at() {
        let c = LearningCurve::cifar10(true);
        let r = c.rounds_to(0.90, 1.0);
        assert!(c.accuracy_at(r as f64) >= 0.90);
        assert!(c.accuracy_at((r - 1) as f64) < 0.90);
    }

    #[test]
    fn paper_targets_are_reachable() {
        // Table II's targets must be below each curve's asymptote.
        assert!(LearningCurve::cifar10(true).rounds_to(0.90, 1.0) > 0);
        assert!(LearningCurve::cifar10(false).rounds_to(0.85, 1.0) > 0);
        assert!(LearningCurve::cifar100(true).rounds_to(0.65, 1.0) > 0);
        assert!(LearningCurve::cifar100(false).rounds_to(0.60, 1.0) > 0);
        assert!(LearningCurve::cinic10(true).rounds_to(0.75, 1.0) > 0);
        assert!(LearningCurve::cinic10(false).rounds_to(0.65, 1.0) > 0);
    }

    #[test]
    fn round_counts_are_in_a_plausible_fl_regime() {
        // Tens of rounds, not thousands: matches the paper's time scales.
        let r = LearningCurve::cifar10(true).rounds_to(0.90, 1.0);
        assert!((20..120).contains(&r), "rounds {r}");
    }

    #[test]
    fn lower_efficiency_needs_more_rounds() {
        let c = LearningCurve::cifar10(true);
        assert!(c.rounds_to(0.80, 0.7) > c.rounds_to(0.80, 1.0));
    }

    #[test]
    fn non_iid_needs_more_rounds_than_iid() {
        let iid = LearningCurve::cifar10(true).rounds_to(0.80, 1.0);
        let non = LearningCurve::cifar10(false).rounds_to(0.80, 1.0);
        assert!(non > iid);
    }

    #[test]
    fn blend_interpolates_between_endpoints() {
        let iid = LearningCurve::cifar10(true);
        let non = LearningCurve::cifar10(false);
        assert_eq!(iid.blend(non, 0.0), iid);
        assert_eq!(iid.blend(non, 1.0), non);
        let mid = iid.blend(non, 0.5);
        assert!((mid.a_max - (iid.a_max + non.a_max) / 2.0).abs() < 1e-12);
        assert!((mid.tau - (iid.tau + non.tau) / 2.0).abs() < 1e-12);
        // A more skewed mix converges slower to a lower ceiling.
        assert!(iid.blend(non, 0.8).tau > iid.blend(non, 0.2).tau);
        assert!(iid.blend(non, 0.8).a_max < iid.blend(non, 0.2).a_max);
    }

    #[test]
    #[should_panic(expected = "blend fraction")]
    fn blend_rejects_out_of_range_fraction() {
        let _ = LearningCurve::cifar10(true).blend(LearningCurve::cifar10(false), 1.5);
    }

    #[test]
    fn deeper_model_raises_ceiling() {
        let base = LearningCurve::cifar10(true);
        let deep = base.deeper();
        assert!(deep.a_max > base.a_max);
        assert!(deep.tau > base.tau);
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn unreachable_target_panics() {
        let _ = LearningCurve::cifar10(true).rounds_to(0.99, 1.0);
    }

    #[test]
    fn fit_recovers_a_known_curve() {
        let truth = LearningCurve::new(0.9, 12.0);
        let points: Vec<(f64, f64)> =
            (1..40).step_by(3).map(|r| (r as f64, truth.accuracy_at(r as f64))).collect();
        let fitted = LearningCurve::fit(&points).expect("fit succeeds");
        assert!((fitted.a_max - truth.a_max).abs() < 0.02, "a_max {}", fitted.a_max);
        assert!((fitted.tau - truth.tau).abs() / truth.tau < 0.15, "tau {}", fitted.tau);
    }

    #[test]
    fn fit_handles_noisy_observations() {
        let truth = LearningCurve::new(0.85, 8.0);
        let points: Vec<(f64, f64)> = (1..30)
            .map(|r| {
                let noise = if r % 2 == 0 { 0.01 } else { -0.01 };
                (r as f64, (truth.accuracy_at(r as f64) + noise).clamp(0.0, 1.0))
            })
            .collect();
        let fitted = LearningCurve::fit(&points).expect("fit succeeds");
        // Prediction error at unseen rounds stays small.
        for r in [35.0f64, 50.0] {
            assert!((fitted.accuracy_at(r) - truth.accuracy_at(r)).abs() < 0.04);
        }
    }

    #[test]
    fn staleness_weight_is_monotone_decreasing() {
        let mut prev = staleness_weight(0.0, 0.5);
        assert_eq!(prev, 1.0);
        for s in 1..50 {
            let w = staleness_weight(s as f64 * 0.25, 0.5);
            assert!(w < prev, "weight must strictly decrease: {w} vs {prev}");
            assert!(w > 0.0);
            prev = w;
        }
    }

    #[test]
    fn staleness_weight_decay_zero_ignores_staleness() {
        for s in [0.0, 1.0, 10.0, 1e6] {
            assert_eq!(staleness_weight(s, 0.0), 1.0);
        }
    }

    #[test]
    fn staleness_weight_larger_decay_discounts_harder() {
        assert!(staleness_weight(3.0, 1.0) < staleness_weight(3.0, 0.5));
        assert!(staleness_weight(3.0, 0.5) < staleness_weight(3.0, 0.1));
    }

    #[test]
    fn fit_rejects_degenerate_input() {
        assert!(LearningCurve::fit(&[]).is_none());
        assert!(LearningCurve::fit(&[(1.0, 0.5)]).is_none());
        assert!(LearningCurve::fit(&[(1.0, 0.0), (2.0, 0.0)]).is_none());
    }
}
