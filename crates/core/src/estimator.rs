use comdml_cost::{CostCalibration, ModelSpec, SplitProfile};
use comdml_simnet::{AgentId, AgentState};

/// The outcome of evaluating all candidate splits for one (slow, fast) pair:
/// the best estimated round time and the split that achieves it.
///
/// `offload == 0` means pairing does not help — the slow agent should train
/// alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitDecision {
    /// Estimated training time of the pair under the best split (seconds).
    pub est_time_s: f64,
    /// Number of layers to offload (`m*`).
    pub offload: usize,
}

/// Algorithm 1's `AgentTrainingTime` function.
///
/// For every candidate split `m` the estimator converts full-model
/// processing speeds into split speeds via the profile's relative times
/// (`pᵐ = p / Tᵐ`, lines 16–17) and evaluates
///
/// ```text
/// τ̂ᵢⱼᵐ = max( Ñᵢ / pᵢᵐ ,  τ̂ⱼ + Ñᵢ·νₘ / cᵢⱼ + Ñᵢ / pⱼᵐ )   (line 18)
/// ```
///
/// — the slow side computes its prefix in parallel (left arm) while the
/// fast side first finishes its own task `τ̂ⱼ`, receives `Ñᵢ` activations of
/// `νₘ` bytes over the `cᵢⱼ` link, and trains the offloaded suffix (right
/// arm). The returned decision minimizes over `m` (lines 20–21).
///
/// # Cost
///
/// The scheduler prices one slow agent against many helpers, so the
/// estimator splits line 18 at the helper. Speeds and solo times come from
/// each agent's broadcast, computed once per pairing call. Per slow agent
/// the estimator computes, once, `Ñᵢ·Tₛᵐ/pᵢ`, `Ñᵢ·νₘ` and `Ñᵢ·T_fᵐ` for
/// every split; per helper a split then costs
/// `(τ̂ⱼ + Ñᵢνₘ/cᵢⱼ) + Ñᵢ·T_fᵐ/pⱼ`, two divisions.
/// Those are the operations a direct evaluation performs, in the same order,
/// so every estimate is bit for bit what line 18 gives. The model's training
/// FLOPs, which set every `p`, are summed once when its [`ModelSpec`] is
/// built. Nothing is memoized: the one pricing form is cheap enough on the
/// paper's CPU grid and on continuous CPU distributions alike.
///
/// # Example
///
/// ```
/// use comdml_core::TrainingTimeEstimator;
/// use comdml_cost::{CostCalibration, ModelSpec, SplitProfile};
/// use comdml_simnet::{AgentId, AgentProfile, AgentState};
///
/// let spec = ModelSpec::resnet56();
/// let profile = SplitProfile::new(&spec, 100);
/// let cal = CostCalibration::default();
/// let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
///
/// let slow = AgentState::new(AgentId(0), AgentProfile::new(0.25, 50.0), 5000, 100);
/// let fast = AgentState::new(AgentId(1), AgentProfile::new(2.0, 50.0), 5000, 100);
/// let solo = est.solo_time_s(&slow);
/// let d = est.estimate(&slow, &fast, est.solo_time_s(&fast), 50.0);
/// assert!(d.est_time_s < solo); // offloading helps a 8x-slower agent
/// assert!(d.offload > 0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TrainingTimeEstimator<'a> {
    spec: &'a ModelSpec,
    profile: &'a SplitProfile,
    cal: &'a CostCalibration,
}

impl<'a> TrainingTimeEstimator<'a> {
    /// Creates an estimator over a model spec, its split profile and a cost
    /// calibration.
    pub fn new(spec: &'a ModelSpec, profile: &'a SplitProfile, cal: &'a CostCalibration) -> Self {
        Self { spec, profile, cal }
    }

    /// The model spec being scheduled.
    pub fn spec(&self) -> &ModelSpec {
        self.spec
    }

    /// The split profile in use.
    pub fn profile(&self) -> &SplitProfile {
        self.profile
    }

    /// Full-model processing speed of an agent in batches per second
    /// (the paper's `p`).
    pub fn batches_per_s(&self, agent: &AgentState) -> f64 {
        batches_per_s(self.spec, self.cal, agent)
    }

    /// Solo training time `τ̂ = Ñ / p`: one local epoch without offloading.
    pub fn solo_time_s(&self, agent: &AgentState) -> f64 {
        solo_time_s(self.spec, self.cal, agent)
    }

    /// What `agent` broadcasts each round (Algorithm 1, line 2): its speed
    /// `p` and solo time `τ̂ = Ñ / p`, computed once. `p` is
    /// [`TrainingTimeEstimator::batches_per_s`] and `τ̂` is
    /// [`TrainingTimeEstimator::solo_time_s`], bit for bit: the same IEEE
    /// operations in the same order.
    pub(crate) fn broadcast(&self, agent: &AgentState) -> Broadcast {
        let batches = agent.num_batches();
        let p = self.batches_per_s(agent);
        Broadcast { id: agent.id, p, solo_s: batches as f64 / p, batches }
    }

    /// Evaluates all splits for slow agent `i` offloading to fast agent `j`
    /// whose own task takes `fast_solo_s`, over a `link_mbps` link.
    ///
    /// Returns the best decision; with a dead link (0 Mbps) or when no split
    /// beats training alone, the decision has `offload == 0` and the solo
    /// time. Among equally fast splits the smallest offload wins.
    pub fn estimate(
        &self,
        slow: &AgentState,
        fast: &AgentState,
        fast_solo_s: f64,
        link_mbps: f64,
    ) -> SplitDecision {
        let mut side = SlowSide::default();
        self.prepare(&self.broadcast(slow), &mut side);
        self.price(&side, self.batches_per_s(fast), fast_solo_s, link_mbps)
    }

    /// Fills `side` with the terms of line 18 that depend only on the slow
    /// agent's broadcast, reusing its buffer. Those terms read only `Ñᵢ`
    /// and `pᵢ`, so a side already holding them is left as it is.
    pub(crate) fn prepare(&self, slow: &Broadcast, side: &mut SlowSide) {
        let key = (slow.p.to_bits(), slow.batches);
        if side.key == Some(key) {
            return;
        }
        side.key = Some(key);
        let (n_i, p_i) = (slow.batches as f64, slow.p);
        side.solo_s = slow.solo_s;
        side.splits.clear();
        // Lines 16-17: convert full-model speeds into split-side speeds.
        side.splits.extend(self.profile.iter().filter(|e| e.offload > 0).map(|e| SlowSplit {
            offload: e.offload,
            slow_arm_s: if e.t_slow_rel > 0.0 { n_i * e.t_slow_rel / p_i } else { 0.0 },
            bytes: n_i * e.nu_bytes_per_batch as f64,
            fast_batches: n_i * e.t_fast_rel,
        }));
    }

    /// [`TrainingTimeEstimator::estimate`] for a slow agent already
    /// [`prepare`](Self::prepare)d into `side` and a helper of speed `p_j`.
    pub(crate) fn price(
        &self,
        side: &SlowSide,
        p_j: f64,
        fast_solo_s: f64,
        link_mbps: f64,
    ) -> SplitDecision {
        let mut best = SplitDecision { est_time_s: side.solo_s, offload: 0 };
        let link_bytes_s = self.cal.bytes_per_s(link_mbps);
        if link_bytes_s <= 0.0 {
            return best;
        }
        for s in &side.splits {
            // Line 18: parallel arms.
            let fast_arm = fast_solo_s + s.bytes / link_bytes_s + s.fast_batches / p_j;
            let t = s.slow_arm_s.max(fast_arm);
            if t < best.est_time_s {
                best = SplitDecision { est_time_s: t, offload: s.offload };
            }
        }
        best
    }
}

/// One agent's round broadcast (Algorithm 1, line 2), from
/// [`TrainingTimeEstimator::broadcast`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Broadcast {
    /// The broadcasting agent.
    pub id: AgentId,
    /// Full-model speed `p` in batches per second.
    pub p: f64,
    /// Solo training time `τ̂ = Ñ / p` in seconds.
    pub solo_s: f64,
    /// Local batches `Ñ`.
    pub batches: usize,
}

/// The helper-independent terms of line 18 for one slow agent `i`: built
/// once per visit, then priced against every candidate helper.
#[derive(Debug, Default)]
pub(crate) struct SlowSide {
    /// `(pᵢ bits, Ñᵢ)` of the broadcast the terms belong to.
    key: Option<(u64, usize)>,
    /// `Ñᵢ / pᵢ`, training alone.
    solo_s: f64,
    /// One entry per offloading split, in profile order.
    splits: Vec<SlowSplit>,
}

#[derive(Debug)]
struct SlowSplit {
    offload: usize,
    /// `Ñᵢ·Tₛᵐ / pᵢ`: the slow arm, which no helper changes.
    slow_arm_s: f64,
    /// `Ñᵢ·νₘ`: the activation bytes the cut ships.
    bytes: f64,
    /// `Ñᵢ·T_fᵐ`: the offloaded suffix in full-model batches.
    fast_batches: f64,
}

/// [`TrainingTimeEstimator::batches_per_s`] without a split profile.
fn batches_per_s(spec: &ModelSpec, cal: &CostCalibration, agent: &AgentState) -> f64 {
    cal.batches_per_s(spec.train_flops_per_sample(), agent.batch_size, agent.profile.cpus)
}

/// [`TrainingTimeEstimator::solo_time_s`] without a split profile, for the
/// round harness's planning horizon.
pub(crate) fn solo_time_s(spec: &ModelSpec, cal: &CostCalibration, agent: &AgentState) -> f64 {
    agent.num_batches() as f64 / batches_per_s(spec, cal, agent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use comdml_cost::LayerSpec;
    use comdml_simnet::{AgentId, AgentProfile};
    use proptest::prelude::*;

    fn fixtures() -> (ModelSpec, SplitProfile, CostCalibration) {
        let spec = ModelSpec::resnet56();
        let profile = SplitProfile::new(&spec, 100);
        (spec, profile, CostCalibration::default())
    }

    fn agent(id: usize, cpus: f64, link: f64, samples: usize) -> AgentState {
        AgentState::new(AgentId(id), AgentProfile::new(cpus, link), samples, 100)
    }

    #[test]
    fn solo_time_scales_with_batches_and_speed() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let a = agent(0, 1.0, 50.0, 5000);
        let b = agent(1, 2.0, 50.0, 5000);
        assert!((est.solo_time_s(&a) / est.solo_time_s(&b) - 2.0).abs() < 1e-9);
        let c = agent(2, 1.0, 50.0, 10_000);
        assert!((est.solo_time_s(&c) / est.solo_time_s(&a) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn slow_agent_offloads_to_fast_idle_agent() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let slow = agent(0, 0.2, 100.0, 5000);
        let fast = agent(1, 4.0, 100.0, 5000);
        let d = est.estimate(&slow, &fast, est.solo_time_s(&fast), 100.0);
        assert!(d.offload > 0, "should offload, got {d:?}");
        assert!(d.est_time_s < est.solo_time_s(&slow) * 0.5, "should cut time at least in half");
    }

    #[test]
    fn equal_agents_gain_little() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let a = agent(0, 1.0, 50.0, 5000);
        let b = agent(1, 1.0, 50.0, 5000);
        let d = est.estimate(&a, &b, est.solo_time_s(&b), 50.0);
        // The partner is equally busy: any offload mostly queues behind the
        // partner's own task.
        assert!(d.est_time_s >= est.solo_time_s(&a) * 0.8);
    }

    #[test]
    fn dead_link_forces_solo_training() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let slow = agent(0, 0.2, 0.0, 5000);
        let fast = agent(1, 4.0, 100.0, 5000);
        let d = est.estimate(&slow, &fast, est.solo_time_s(&fast), 0.0);
        assert_eq!(d.offload, 0);
        assert!((d.est_time_s - est.solo_time_s(&slow)).abs() < 1e-9);
    }

    #[test]
    fn faster_link_never_hurts() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let slow = agent(0, 0.5, 100.0, 5000);
        let fast = agent(1, 4.0, 100.0, 5000);
        let solo_fast = est.solo_time_s(&fast);
        let mut prev = f64::INFINITY;
        for mbps in [10.0, 20.0, 50.0, 100.0] {
            let d = est.estimate(&slow, &fast, solo_fast, mbps);
            assert!(d.est_time_s <= prev + 1e-9, "time should not increase with bandwidth");
            prev = d.est_time_s;
        }
    }

    #[test]
    fn busier_partner_reduces_offload_benefit() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let slow = agent(0, 0.2, 100.0, 5000);
        let fast = agent(1, 4.0, 100.0, 5000);
        let d_idle = est.estimate(&slow, &fast, 0.0, 100.0);
        let d_busy = est.estimate(&slow, &fast, 10_000.0, 100.0);
        assert!(d_idle.est_time_s < d_busy.est_time_s);
    }

    /// Line 18 written out on its own: every term recomputed from the two
    /// agents' states on each call, with the model's training FLOPs summed
    /// from its layers, independent of the prepared slow side.
    fn line18(
        spec: &ModelSpec,
        profile: &SplitProfile,
        cal: &CostCalibration,
        slow: &AgentState,
        fast: &AgentState,
        fast_solo_s: f64,
        link_mbps: f64,
    ) -> SplitDecision {
        let flops: f64 = spec.layers().iter().map(LayerSpec::flops_train).sum();
        let n_i = slow.num_batches() as f64;
        let p_i = cal.batches_per_s(flops, slow.batch_size, slow.profile.cpus);
        let p_j = cal.batches_per_s(flops, fast.batch_size, fast.profile.cpus);
        let link_bytes_s = cal.bytes_per_s(link_mbps);
        let solo = n_i / p_i;

        let mut best = SplitDecision { est_time_s: solo, offload: 0 };
        if link_bytes_s <= 0.0 {
            return best;
        }
        for e in profile.iter() {
            if e.offload == 0 {
                continue;
            }
            let slow_arm = if e.t_slow_rel > 0.0 { n_i * e.t_slow_rel / p_i } else { 0.0 };
            let comm = n_i * e.nu_bytes_per_batch as f64 / link_bytes_s;
            let fast_arm = fast_solo_s + comm + n_i * e.t_fast_rel / p_j;
            let t = slow_arm.max(fast_arm);
            if t < best.est_time_s {
                best = SplitDecision { est_time_s: t, offload: e.offload };
            }
        }
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `estimate` equals the written-out line 18 bit for bit on
        /// ResNet-20/56/110, full and restricted profiles, any speeds,
        /// batch sizes, shares, links (dead ones too) and helper loads. The
        /// helper's own task is a fraction of the slow agent's, so many
        /// cases offload and the fast arm decides the result.
        #[test]
        fn estimate_is_line_18_bit_for_bit(
            depth in 0usize..3,
            cuts in prop::collection::vec(1usize..110, 0..8),
            restrict in 0usize..2,
            profile_batch in 16usize..257,
            cpus in (0.05f64..2.0, 0.5f64..8.0),
            batches in (1usize..257, 1usize..257),
            samples in (1usize..20_000, 1usize..20_000),
            link in (0usize..4, 0.0f64..200.0),
            load in 0.0f64..1.0,
        ) {
            // ResNet-20, -56 or -110.
            let spec = ModelSpec::resnet_cifar([3, 9, 18][depth], "resnet");
            let full = SplitProfile::new(&spec, profile_batch);
            let profile = if restrict == 1 { full.restrict_to(&cuts) } else { full };
            let cal = CostCalibration::default();
            let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
            let slow = AgentState::new(
                AgentId(0), AgentProfile::new(cpus.0, 50.0), samples.0, batches.0,
            );
            let fast = AgentState::new(
                AgentId(1), AgentProfile::new(cpus.1, 50.0), samples.1, batches.1,
            );
            // One case in four prices a dead link.
            let link_mbps = if link.0 == 0 { 0.0 } else { link.1 };
            let fast_solo_s = load * line18(&spec, &profile, &cal, &slow, &fast, 0.0, 0.0).est_time_s;
            let want = line18(&spec, &profile, &cal, &slow, &fast, fast_solo_s, link_mbps);
            let got = est.estimate(&slow, &fast, fast_solo_s, link_mbps);
            prop_assert_eq!(got.offload, want.offload);
            prop_assert_eq!(got.est_time_s.to_bits(), want.est_time_s.to_bits());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// An agent's broadcast is what the per-agent accessors give, bit
        /// for bit: `p` is `batches_per_s`, `τ̂` is `solo_time_s`.
        #[test]
        fn broadcast_is_batches_per_s_and_solo_time_bit_for_bit(
            depth in 0usize..3,
            id in 0usize..1_000_000,
            cpus in 0.01f64..16.0,
            batch in 1usize..513,
            samples in 0usize..100_000,
        ) {
            let spec = ModelSpec::resnet_cifar([3, 9, 18][depth], "resnet");
            let profile = SplitProfile::new(&spec, 100);
            let cal = CostCalibration::default();
            let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
            let a = AgentState::new(AgentId(id), AgentProfile::new(cpus, 50.0), samples, batch);
            let b = est.broadcast(&a);
            prop_assert_eq!(b.id, a.id);
            prop_assert_eq!(b.batches, a.num_batches());
            prop_assert_eq!(b.p.to_bits(), est.batches_per_s(&a).to_bits());
            prop_assert_eq!(b.solo_s.to_bits(), est.solo_time_s(&a).to_bits());
        }
    }

    #[test]
    fn restricting_splits_still_finds_a_decision() {
        let (spec, profile, cal) = fixtures();
        let restricted = profile.restrict_to(&[10, 28, 46]);
        let est = TrainingTimeEstimator::new(&spec, &restricted, &cal);
        let slow = agent(0, 0.2, 100.0, 5000);
        let fast = agent(1, 4.0, 100.0, 5000);
        let d = est.estimate(&slow, &fast, est.solo_time_s(&fast), 100.0);
        assert!([0, 10, 28, 46].contains(&d.offload));
    }
}
