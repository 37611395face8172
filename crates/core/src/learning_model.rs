//! Round-driven learning dynamics: accuracy as a state advanced by what
//! each simulated round *actually* delivered, not a post-hoc projection.
//!
//! The paper's headline metric is *time to reach a target accuracy*. The
//! sweep engine used to compute it as a closed-form projection —
//! `mean_round_s × rounds_to_target(curve, realized factor, sampling)` —
//! which throws away all round-to-round structure the simulator produces:
//! per-round staleness-weighted efficiency, participation sets, membership
//! disruptions. [`LearningModel`] replaces the projection: it consumes one
//! [`RoundProgress`] per simulated round and advances an accuracy state,
//! so time-to-target is read off the simulated clock the moment the state
//! crosses the target (enabling early stopping), and round-varying
//! efficiency, non-IID curve mixes and churn-coupled accuracy dips all
//! become expressible.
//!
//! **Equivalence anchor.** With constant per-round efficiency `f`, a fixed
//! sampling rate `s` and no churn coupling, the state after `n` rounds is
//! `n · f · s^0.35` effective rounds, so the first round reaching the
//! target is exactly `ceil(needed / (f · s^0.35))` — the old closed form.
//! The round-driven path therefore reproduces the projection bit-for-bit
//! in the static regime (pinned to 1e-9 in `crates/exp/tests/learning.rs`)
//! while diverging from it exactly when the simulation has structure the
//! projection could not see.
//!
//! # Example
//!
//! ```
//! use comdml_core::{LearningCurve, LearningModel, RoundProgress};
//!
//! let curve = LearningCurve::cifar10(true);
//! let mut model = LearningModel::new(curve, 0.80);
//! let mut rounds = 0;
//! while !model.reached() {
//!     model.observe(&RoundProgress::fresh(12.0, 1.0, 10));
//!     rounds += 1;
//! }
//! assert_eq!(rounds, curve.rounds_to(0.80, 1.0));
//! assert!(model.accuracy() >= 0.80);
//! ```

use comdml_simnet::AgentId;
use serde::{Deserialize, Serialize};

use crate::LearningCurve;

/// The sub-linear participation-sampling penalty: when only a `rate`
/// fraction of agents contributes per round, the global model sees
/// proportionally less data, shrinking per-round progress — sub-linearly,
/// because overlapping updates still transfer. This is the single source
/// of truth for the exponent.
pub fn sampling_penalty(rate: f64) -> f64 {
    rate.clamp(0.01, 1.0).powf(0.35)
}

/// What one simulated round contributed to learning — the
/// effective-progress inputs every [`crate::RoundEngine::round`] reports
/// alongside its round time, consumed by [`LearningModel::observe`], plus
/// the engine-side facts the [`crate::FleetSim`] harness books (events,
/// repairs, and the head starts the round spills into the next one).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundProgress {
    /// Simulated seconds the round took.
    pub round_s: f64,
    /// Staleness-weighted learning efficiency of the round in `[0, 1]`:
    /// 1 for a fully fresh synchronous barrier, less when updates arrive
    /// stale (semi-sync/async spill) or mix partially (gossip), 0 for a
    /// round that advanced nothing (extinct fleet).
    pub efficiency: f64,
    /// Agents that entered the round (after participation sampling).
    pub participants: usize,
    /// Agents whose update made the round's aggregation.
    pub cohort: usize,
    /// Mid-round membership disruptions (departures among participants) —
    /// what churn-coupled accuracy dips
    /// ([`LearningModel::with_churn_dip`]) charge for.
    pub disruptions: usize,
    /// Events the round engine executed (0 for the closed-form baselines).
    pub events_processed: u64,
    /// Successful helper re-pairings after mid-round departures.
    pub repairs: usize,
    /// Unfinished work carried into the next round, ascending by agent:
    /// `(agent, seconds)` for every agent still busy when the round ended
    /// (semi-sync/async stragglers). Empty under a barrier.
    pub spill: Vec<(AgentId, f64)>,
}

impl RoundProgress {
    /// An undisrupted round where every participant aggregated.
    pub fn fresh(round_s: f64, efficiency: f64, participants: usize) -> Self {
        Self { efficiency, participants, cohort: participants, ..Self::idle(round_s) }
    }

    /// An empty round (extinct fleet fast-forward): time may pass, but no
    /// learning happens.
    pub fn idle(round_s: f64) -> Self {
        Self {
            round_s,
            efficiency: 0.0,
            participants: 0,
            cohort: 0,
            disruptions: 0,
            events_processed: 0,
            repairs: 0,
            spill: Vec::new(),
        }
    }

    /// Sets the disruption count.
    pub fn with_disruptions(mut self, n: usize) -> Self {
        self.disruptions = n;
        self
    }
}

/// First-class accuracy state advanced round by round. See the module docs
/// for the semantics and the equivalence anchor.
#[derive(Debug, Clone, PartialEq)]
pub struct LearningModel {
    curve: LearningCurve,
    target: f64,
    /// Effective rounds the curve demands for `target`.
    needed: f64,
    sampling_rate: f64,
    churn_dip: f64,
    /// Accumulated effective rounds (the curve's argument).
    effective: f64,
    rounds: usize,
}

impl LearningModel {
    /// Tolerance for the target-reached comparison: accumulating per-round
    /// gains instead of dividing once must not cost a spurious extra round
    /// to float noise (same guard as [`crate::ComDml::run`]).
    const EPS: f64 = 1e-9;

    /// A model tracking progress toward `target` on `curve`, with no
    /// sampling penalty and no churn coupling.
    ///
    /// # Panics
    ///
    /// Panics if `target` is at or above the curve's asymptote (the state
    /// could never reach it).
    pub fn new(curve: LearningCurve, target: f64) -> Self {
        assert!(target < curve.a_max, "target {target} is unreachable (asymptote {})", curve.a_max);
        let needed = -curve.tau * (1.0 - target / curve.a_max).ln();
        Self {
            curve,
            target,
            needed,
            sampling_rate: 1.0,
            churn_dip: 0.0,
            effective: 0.0,
            rounds: 0,
        }
    }

    /// Applies the participation-sampling penalty ([`sampling_penalty`]) to
    /// every observed round.
    pub fn with_sampling_rate(mut self, rate: f64) -> Self {
        self.sampling_rate = rate;
        self
    }

    /// Couples accuracy to membership churn: every mid-round disruption
    /// ([`RoundProgress::disruptions`]) forfeits `dip` effective rounds of
    /// progress (floored at zero total) — departing agents take their
    /// un-averaged contribution with them.
    ///
    /// # Panics
    ///
    /// Panics if `dip` is negative or not finite.
    pub fn with_churn_dip(mut self, dip: f64) -> Self {
        assert!(dip.is_finite() && dip >= 0.0, "churn dip must be finite and >= 0, got {dip}");
        self.churn_dip = dip;
        self
    }

    /// The curve being advanced.
    pub fn curve(&self) -> &LearningCurve {
        &self.curve
    }

    /// The target accuracy.
    pub fn target(&self) -> f64 {
        self.target
    }

    /// Effective rounds the curve demands for the target.
    pub fn needed_effective_rounds(&self) -> f64 {
        self.needed
    }

    /// Effective rounds accumulated so far.
    pub fn effective_rounds(&self) -> f64 {
        self.effective
    }

    /// Rounds observed so far.
    pub fn rounds_observed(&self) -> usize {
        self.rounds
    }

    /// Current accuracy.
    pub fn accuracy(&self) -> f64 {
        self.curve.accuracy_at(self.effective)
    }

    /// Whether the accumulated state has reached the target.
    pub fn reached(&self) -> bool {
        self.effective + Self::EPS >= self.needed
    }

    /// Advances the state by one simulated round and returns the new
    /// accuracy. The round contributes `efficiency · sampling_penalty`
    /// effective rounds, minus `churn_dip` per disruption, floored so the
    /// state never goes negative.
    pub fn observe(&mut self, progress: &RoundProgress) -> f64 {
        let gain = progress.efficiency.clamp(0.0, 1.0) * sampling_penalty(self.sampling_rate);
        let dip = self.churn_dip * progress.disruptions as f64;
        self.effective = (self.effective + gain - dip).max(0.0);
        self.rounds += 1;
        self.accuracy()
    }

    /// Total rounds to target: the observed count when the target was
    /// reached, otherwise the observed count plus an extrapolation of the
    /// remaining effective rounds at the realized mean pace — exactly the
    /// old closed-form projection when per-round progress was constant.
    ///
    /// Returns at least 1 (the old `rounds_to` floor).
    pub fn projected_rounds_to_target(&self) -> usize {
        if self.reached() {
            return self.rounds.max(1);
        }
        let mean_gain = if self.rounds == 0 {
            sampling_penalty(self.sampling_rate)
        } else {
            self.effective / self.rounds as f64
        }
        .max(1e-6 * sampling_penalty(self.sampling_rate));
        let extra = ((self.needed - self.effective) / mean_gain).ceil().max(0.0) as usize;
        (self.rounds + extra).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive_constant(model: &mut LearningModel, eff: f64, cap: usize) -> usize {
        let mut rounds = 0;
        while !model.reached() && rounds < cap {
            model.observe(&RoundProgress::fresh(10.0, eff, 8));
            rounds += 1;
        }
        rounds
    }

    #[test]
    fn constant_efficiency_reproduces_the_closed_form() {
        // The equivalence anchor: for a grid of (curve, target, efficiency,
        // sampling) combinations, accumulating per-round gains stops at
        // exactly the round the old projection predicted.
        for curve in [
            LearningCurve::cifar10(true),
            LearningCurve::cifar10(false),
            LearningCurve::cifar100(true),
            LearningCurve::cinic10(false),
        ] {
            for target in [0.5, 0.6, curve.a_max * 0.9] {
                for eff in [1.0, 0.8826, 0.55] {
                    for rate in [1.0, 0.5, 0.2] {
                        let mut model = LearningModel::new(curve, target).with_sampling_rate(rate);
                        let rounds = drive_constant(&mut model, eff, 10_000);
                        let expect = curve.rounds_to(target, eff * sampling_penalty(rate));
                        assert_eq!(
                            rounds, expect,
                            "curve {curve:?} target {target} eff {eff} rate {rate}"
                        );
                        assert!(model.accuracy() >= target - 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn projection_before_reaching_matches_closed_form() {
        let curve = LearningCurve::cifar10(true);
        for eff in [1.0, 0.7, 0.55] {
            let mut model = LearningModel::new(curve, 0.90);
            for _ in 0..8 {
                model.observe(&RoundProgress::fresh(10.0, eff, 8));
            }
            assert!(!model.reached());
            assert_eq!(model.projected_rounds_to_target(), curve.rounds_to(0.90, eff));
        }
    }

    #[test]
    fn trajectory_is_monotone_without_churn_coupling() {
        let mut model = LearningModel::new(LearningCurve::cifar100(false), 0.6);
        let mut prev = 0.0;
        for r in 0..100 {
            // Round-varying efficiency, still monotone.
            let eff = 0.3 + 0.7 * ((r % 7) as f64 / 6.0);
            let acc = model.observe(&RoundProgress::fresh(5.0, eff, 4));
            assert!(acc >= prev, "round {r}: {acc} < {prev}");
            prev = acc;
        }
    }

    #[test]
    fn trajectory_is_bounded_by_the_ideal_curve() {
        let curve = LearningCurve::cinic10(true);
        let mut model = LearningModel::new(curve, 0.75).with_sampling_rate(0.4).with_churn_dip(0.3);
        for r in 0..200 {
            let eff = if r % 5 == 0 { 0.0 } else { 0.9 };
            let disruptions = usize::from(r % 11 == 0);
            let acc =
                model.observe(&RoundProgress::fresh(5.0, eff, 4).with_disruptions(disruptions));
            assert!(
                acc <= curve.accuracy_at((r + 1) as f64) + 1e-12,
                "round {r}: realized {acc} above ideal"
            );
        }
    }

    #[test]
    fn churn_dips_cost_progress_but_never_go_negative() {
        let curve = LearningCurve::cifar10(true);
        let mut dipped = LearningModel::new(curve, 0.8).with_churn_dip(0.5);
        let mut clean = LearningModel::new(curve, 0.8);
        // A disruption storm at the very start cannot push accuracy below 0.
        dipped.observe(&RoundProgress::fresh(5.0, 0.1, 4).with_disruptions(10));
        assert_eq!(dipped.effective_rounds(), 0.0);
        for _ in 0..10 {
            dipped.observe(&RoundProgress::fresh(5.0, 1.0, 4).with_disruptions(1));
            clean.observe(&RoundProgress::fresh(5.0, 1.0, 4));
        }
        assert!(dipped.effective_rounds() < clean.effective_rounds());
        assert!(dipped.accuracy() < clean.accuracy());
    }

    #[test]
    fn accuracy_can_dip_under_churn_coupling() {
        let mut model = LearningModel::new(LearningCurve::cifar10(true), 0.8).with_churn_dip(2.0);
        for _ in 0..5 {
            model.observe(&RoundProgress::fresh(5.0, 1.0, 4));
        }
        let before = model.accuracy();
        let after = model.observe(&RoundProgress::fresh(5.0, 1.0, 4).with_disruptions(2));
        assert!(after < before, "a 2-departure round at dip 2.0 must cost accuracy");
    }

    #[test]
    fn idle_rounds_advance_nothing() {
        let mut model = LearningModel::new(LearningCurve::cifar10(true), 0.8);
        model.observe(&RoundProgress::idle(500.0));
        assert_eq!(model.effective_rounds(), 0.0);
        assert_eq!(model.rounds_observed(), 1);
    }

    #[test]
    fn sampling_penalty_matches_the_historic_formula() {
        for rate in [1.0, 0.75, 0.5, 0.2, 0.01, 0.001] {
            assert_eq!(sampling_penalty(rate), rate.clamp(0.01, 1.0).powf(0.35));
        }
        assert_eq!(sampling_penalty(1.0), 1.0);
    }

    #[test]
    fn zero_progress_projection_stays_finite() {
        let mut model = LearningModel::new(LearningCurve::cifar10(true), 0.9);
        for _ in 0..5 {
            model.observe(&RoundProgress::idle(1.0));
        }
        let projected = model.projected_rounds_to_target();
        assert!(projected >= 5, "projection includes observed rounds");
        assert!(projected < usize::MAX / 2, "clamped mean keeps it finite");
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn unreachable_target_panics() {
        let _ = LearningModel::new(LearningCurve::cifar10(true), 0.95);
    }

    #[test]
    #[should_panic(expected = "churn dip")]
    fn negative_dip_rejected() {
        let _ = LearningModel::new(LearningCurve::cifar10(true), 0.8).with_churn_dip(-0.1);
    }
}
