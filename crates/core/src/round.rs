use comdml_collective::AllReduceAlgorithm;
use comdml_cost::CostCalibration;
use comdml_simnet::{AgentId, World};

use crate::{Pairing, TrainingTimeEstimator};

/// Per-batch pipeline simulation of one paired round (Fig. 1's anatomy).
///
/// The slow side produces activation batches at its split-side rate; the
/// link serializes transfers; the fast agent first finishes its own local
/// task and then consumes guest batches as they arrive. This reproduces the
/// overlap structure that makes the communication column of Table I
/// non-monotone in the split point: transfers hidden behind compute cost
/// nothing on the critical path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairRoundSim {
    /// Number of guest (slow-agent) batches.
    pub n_slow_batches: usize,
    /// Number of the fast agent's own batches.
    pub n_fast_batches: usize,
    /// Seconds per slow-side batch on the slow agent (`T_s^m / p_i`).
    pub slow_batch_s: f64,
    /// Seconds per own full-model batch on the fast agent (`1 / p_j`).
    pub fast_own_batch_s: f64,
    /// Seconds per guest fast-side batch on the fast agent (`T_f^m / p_j`).
    pub fast_guest_batch_s: f64,
    /// Seconds to push one activation batch over the link (`ν_m / c_ij`).
    pub transfer_s: f64,
    /// Seconds to ship the trained suffix parameters back at round end.
    pub suffix_return_s: f64,
}

/// Timing breakdown of one simulated pair round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairTimes {
    /// When the joint task completes (both sides synchronized), seconds.
    pub pair_done_s: f64,
    /// Slow agent compute-busy seconds.
    pub slow_busy_s: f64,
    /// Fast agent compute-busy seconds (own task + guest suffix).
    pub fast_busy_s: f64,
    /// Communication seconds visible on the critical path (stalls + model
    /// return), not transfers hidden behind compute.
    pub comm_s: f64,
}

impl PairRoundSim {
    /// Completion time of the compute/transfer pipeline for a given
    /// per-batch transfer time (excluding the suffix-parameter return).
    pub(crate) fn completion(&self, transfer_s: f64) -> f64 {
        self.completion_from(transfer_s, 0.0, 0.0)
    }

    /// Like [`PairRoundSim::completion`] but with the two sides starting at
    /// `slow_start` / `fast_start` (carry-over from a previous round under
    /// semi-synchronous or asynchronous aggregation).
    pub(crate) fn completion_from(&self, transfer_s: f64, slow_start: f64, fast_start: f64) -> f64 {
        let n = self.n_slow_batches;
        let own_done = fast_start + self.n_fast_batches as f64 * self.fast_own_batch_s;
        if n == 0 {
            return own_done;
        }
        let mut send_done = 0.0f64;
        let mut guest_done = own_done;
        for b in 0..n {
            let produced = slow_start + (b + 1) as f64 * self.slow_batch_s;
            let send_start = produced.max(send_done);
            send_done = send_start + transfer_s;
            guest_done = send_done.max(guest_done) + self.fast_guest_batch_s;
        }
        guest_done
    }

    /// O(1) closed form of [`PairRoundSim::completion_from`].
    ///
    /// The per-batch recurrence is max-plus linear with constant service
    /// times, so the completion is the max over the pipeline's possible
    /// bottlenecks: the helper's own task, the first batch followed by
    /// guest-rate-bound training, production-bound arrival of the last
    /// batch, and link-bound arrival of the last batch. Each candidate uses
    /// the same products as the event engine's multiplicative anchoring, so
    /// the coarse event granularity matches the fine one to within normal
    /// floating-point summation error (≪ 1e-9 relative).
    pub(crate) fn completion_closed_form(
        &self,
        transfer_s: f64,
        slow_start: f64,
        fast_start: f64,
    ) -> f64 {
        let n = self.n_slow_batches;
        let own_done = fast_start + self.n_fast_batches as f64 * self.fast_own_batch_s;
        if n == 0 {
            return own_done;
        }
        let nf = n as f64;
        let a = self.slow_batch_s;
        let c = transfer_s;
        let g = self.fast_guest_batch_s;
        // guest_done(n) = max(own_done + n·g, max_b send_done(b) + (n−b+1)·g)
        // and send_done(b) = slow_start + max(a + b·c, b·a + c); the inner
        // expression is convex in b, so only b = 1 and b = n can win.
        (own_done + nf * g)
            .max(slow_start + a + c + nf * g)
            .max(slow_start + a + nf * c + g)
            .max(slow_start + nf * a + c + g)
    }

    /// Runs the pipeline and returns the timing breakdown.
    ///
    /// The communication column is *counterfactual*: the extra critical-path
    /// seconds the real link costs compared to an infinitely fast link (plus
    /// the suffix-parameter return). Transfers fully hidden behind compute
    /// therefore cost zero, which is what makes Table I's communication
    /// column non-monotone in the split point.
    pub fn run(&self) -> PairTimes {
        let n = self.n_slow_batches;
        let slow_busy = n as f64 * self.slow_batch_s;
        let own_done = self.n_fast_batches as f64 * self.fast_own_batch_s;
        let guest_total = n as f64 * self.fast_guest_batch_s;
        let done_real = self.completion(self.transfer_s);
        let done_ideal = self.completion(0.0);
        let comm = (done_real - done_ideal).max(0.0) + self.suffix_return_s;
        PairTimes {
            pair_done_s: done_real + self.suffix_return_s,
            slow_busy_s: slow_busy,
            fast_busy_s: own_done + guest_total,
            comm_s: comm,
        }
    }
}

/// Per-agent timing within one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentRoundStats {
    /// The agent.
    pub id: AgentId,
    /// Compute-busy seconds.
    pub train_s: f64,
    /// Critical-path communication seconds attributed to this agent.
    pub comm_s: f64,
    /// Idle seconds (waiting within the pair plus waiting for the round's
    /// straggler before aggregation).
    pub idle_s: f64,
    /// When this agent's task finished (seconds from round start).
    pub finish_s: f64,
}

/// Outcome of one simulated training round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// Per-agent breakdowns, in pairing order (slow agents before helpers).
    pub agent_stats: Vec<AgentRoundStats>,
    /// Compute/communication phase length (the slowest pairing), seconds.
    pub compute_s: f64,
    /// AllReduce aggregation seconds.
    pub allreduce_s: f64,
    /// Number of pairings that actually offloaded work.
    pub num_offloads: usize,
}

impl RoundOutcome {
    /// Total round time: compute phase plus aggregation.
    pub fn round_s(&self) -> f64 {
        self.compute_s + self.allreduce_s
    }

    /// Combined idle seconds across agents.
    pub fn total_idle_s(&self) -> f64 {
        self.agent_stats.iter().map(|a| a.idle_s).sum()
    }

    /// Combined communication seconds across agents.
    pub fn total_comm_s(&self) -> f64 {
        self.agent_stats.iter().map(|a| a.comm_s).sum()
    }

    /// Renders an ASCII timeline of the round (Fig. 1 style): one bar per
    /// agent, `#` for compute, `~` for critical-path communication, `.` for
    /// idle, scaled to `width` characters.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn render_timeline(&self, width: usize) -> String {
        assert!(width > 0, "timeline needs a positive width");
        let total = self.round_s().max(1e-9);
        let mut out = String::new();
        for s in &self.agent_stats {
            let cells = |v: f64| ((v / total) * width as f64).round() as usize;
            let train = cells(s.train_s);
            let comm = cells(s.comm_s);
            let idle = width.saturating_sub(train + comm);
            out.push_str(&format!(
                "{:>9} |{}{}{}|\n",
                s.id.to_string(),
                "#".repeat(train),
                "~".repeat(comm),
                ".".repeat(idle)
            ));
        }
        out.push_str(&format!(
            "{:>9}  (#{} compute  ~ comm  . idle; round {:.1}s = compute {:.1}s + allreduce {:.1}s)\n",
            "", "", self.round_s(), self.compute_s, self.allreduce_s
        ));
        out
    }
}

/// Simulates one full round: every pairing's pipeline, synchronization on
/// the slowest, and the AllReduce aggregation (§IV-B).
///
/// Agents with a dead link are excluded from aggregation (they "train
/// independently", §V-B.5) but still contribute compute time.
///
/// This is a thin synchronous wrapper over the discrete-event engine
/// ([`crate::EventRound`]): the per-pair pipelines run as `BatchProduced` /
/// `TransferComplete` / `SuffixReturn` events on a shared clock, and the
/// result matches the historical closed-form implementation to within 1e-9.
/// Callers needing semi-synchronous or asynchronous aggregation, failure
/// injection, or per-agent carry-over should use [`crate::EventRound`]
/// directly.
pub fn simulate_round(
    world: &World,
    pairings: &[Pairing],
    estimator: &TrainingTimeEstimator<'_>,
    cal: &CostCalibration,
    algorithm: AllReduceAlgorithm,
) -> RoundOutcome {
    crate::EventRound::new(world, pairings, estimator, cal, algorithm).run().outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PairingScheduler;
    use comdml_cost::{ModelSpec, SplitProfile};
    use comdml_simnet::{Adjacency, AgentProfile, AgentState, WorldConfig};

    fn fixtures() -> (ModelSpec, SplitProfile, CostCalibration) {
        let spec = ModelSpec::resnet56();
        let profile = SplitProfile::new(&spec, 100);
        (spec, profile, CostCalibration::default())
    }

    #[test]
    fn pipeline_with_instant_link_is_compute_bound() {
        let sim = PairRoundSim {
            n_slow_batches: 10,
            n_fast_batches: 0,
            slow_batch_s: 1.0,
            fast_own_batch_s: 1.0,
            fast_guest_batch_s: 0.5,
            transfer_s: 0.0,
            suffix_return_s: 0.0,
        };
        let t = sim.run();
        // Guest batches arrive as produced (1s apart) but take only 0.5s:
        // the fast agent is arrival-bound, finishing 0.5s after the last
        // batch is produced at t=10.
        assert!((t.pair_done_s - 10.5).abs() < 1e-9);
        assert!((t.slow_busy_s - 10.0).abs() < 1e-9);
    }

    #[test]
    fn slow_link_shifts_time_to_comm() {
        let base = PairRoundSim {
            n_slow_batches: 10,
            n_fast_batches: 0,
            slow_batch_s: 0.1,
            fast_own_batch_s: 1.0,
            fast_guest_batch_s: 0.1,
            transfer_s: 0.0,
            suffix_return_s: 0.0,
        };
        let fast_link = base.run();
        let slow_link = PairRoundSim { transfer_s: 2.0, ..base }.run();
        assert!(slow_link.pair_done_s > fast_link.pair_done_s);
        assert!(slow_link.comm_s > fast_link.comm_s);
    }

    #[test]
    fn busy_fast_agent_hides_transfers() {
        // The fast agent's own task takes 100s; transfers (10 * 1s) finish
        // long before, so comm stall is zero.
        let sim = PairRoundSim {
            n_slow_batches: 10,
            n_fast_batches: 100,
            slow_batch_s: 0.5,
            fast_own_batch_s: 1.0,
            fast_guest_batch_s: 0.2,
            transfer_s: 1.0,
            suffix_return_s: 0.0,
        };
        let t = sim.run();
        assert!(t.comm_s < 1e-9, "transfers fully hidden, got {}", t.comm_s);
        assert!((t.pair_done_s - 102.0).abs() < 1e-9);
    }

    #[test]
    fn zero_guest_batches_is_own_work_only() {
        let sim = PairRoundSim {
            n_slow_batches: 0,
            n_fast_batches: 5,
            slow_batch_s: 1.0,
            fast_own_batch_s: 2.0,
            fast_guest_batch_s: 1.0,
            transfer_s: 1.0,
            suffix_return_s: 0.0,
        };
        let t = sim.run();
        assert_eq!(t.pair_done_s, 10.0);
        assert_eq!(t.slow_busy_s, 0.0);
    }

    #[test]
    fn closed_form_matches_batch_loop() {
        // Sweep bottleneck regimes: production-bound, link-bound,
        // guest-rate-bound, own-task-bound, plus carry-over offsets.
        let mut checked = 0usize;
        for &n in &[1usize, 2, 7, 500] {
            for &a in &[0.01, 0.5, 2.0] {
                for &c in &[0.0, 0.05, 1.0, 3.0] {
                    for &g in &[0.02, 0.4, 2.5] {
                        for &(own, slow_start, fast_start) in
                            &[(0.0, 0.0, 0.0), (40.0, 0.0, 0.0), (3.0, 1.5, 0.25)]
                        {
                            let sim = PairRoundSim {
                                n_slow_batches: n,
                                n_fast_batches: 1,
                                slow_batch_s: a,
                                fast_own_batch_s: own,
                                fast_guest_batch_s: g,
                                transfer_s: c,
                                suffix_return_s: 0.1,
                            };
                            let loop_t = sim.completion_from(c, slow_start, fast_start);
                            let closed = sim.completion_closed_form(c, slow_start, fast_start);
                            assert!(
                                (loop_t - closed).abs() <= 1e-9 * loop_t.max(1.0),
                                "n={n} a={a} c={c} g={g} own={own}: {loop_t} vs {closed}"
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 100);
    }

    #[test]
    fn closed_form_zero_guests_is_own_task() {
        let sim = PairRoundSim {
            n_slow_batches: 0,
            n_fast_batches: 4,
            slow_batch_s: 1.0,
            fast_own_batch_s: 2.0,
            fast_guest_batch_s: 1.0,
            transfer_s: 1.0,
            suffix_return_s: 0.0,
        };
        assert_eq!(sim.completion_closed_form(1.0, 0.0, 3.0), 11.0);
    }

    #[test]
    fn round_with_hetero_pair_beats_unbalanced() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let agents = vec![
            AgentState::new(AgentId(0), AgentProfile::new(0.25, 50.0), 5000, 100),
            AgentState::new(AgentId(1), AgentProfile::new(2.0, 50.0), 5000, 100),
        ];
        let adj = Adjacency::from_matrix(vec![vec![false, true], vec![true, false]]);
        let world = World::from_parts(agents, adj, 0);
        let pairings = PairingScheduler::new().pair(&world, &[AgentId(0), AgentId(1)], &est);
        let outcome =
            simulate_round(&world, &pairings, &est, &cal, AllReduceAlgorithm::HalvingDoubling);
        // Without balancing, the 0.25-CPU agent would run the full epoch.
        let solo_straggler = est.solo_time_s(world.agent(AgentId(0)));
        assert!(
            outcome.compute_s < solo_straggler * 0.7,
            "{} vs {solo_straggler}",
            outcome.compute_s
        );
        assert_eq!(outcome.num_offloads, 1);
        assert!(outcome.allreduce_s > 0.0);
    }

    #[test]
    fn round_accounts_every_agent() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let world = WorldConfig::heterogeneous(10, 5).build();
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        let pairings = PairingScheduler::new().pair(&world, &ids, &est);
        let outcome =
            simulate_round(&world, &pairings, &est, &cal, AllReduceAlgorithm::HalvingDoubling);
        assert_eq!(outcome.agent_stats.len(), 10);
        for s in &outcome.agent_stats {
            assert!(s.finish_s <= outcome.compute_s + 1e-9);
            assert!(s.train_s >= 0.0 && s.idle_s >= 0.0 && s.comm_s >= 0.0);
        }
    }

    #[test]
    fn timeline_renders_one_bar_per_agent() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let world = WorldConfig::heterogeneous(6, 1).build();
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        let pairings = PairingScheduler::new().pair(&world, &ids, &est);
        let outcome =
            simulate_round(&world, &pairings, &est, &cal, AllReduceAlgorithm::HalvingDoubling);
        let text = outcome.render_timeline(40);
        assert_eq!(text.lines().count(), 7, "6 bars + legend:\n{text}");
        assert!(text.contains('#'), "some compute must appear");
    }

    #[test]
    fn solo_agents_have_no_comm() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let agents = vec![
            AgentState::new(AgentId(0), AgentProfile::new(1.0, 50.0), 1000, 100),
            AgentState::new(AgentId(1), AgentProfile::new(1.0, 50.0), 1000, 100),
        ];
        let adj = Adjacency::from_matrix(vec![vec![false, true], vec![true, false]]);
        let world = World::from_parts(agents, adj, 0);
        let pairings = PairingScheduler::new().pair(&world, &[AgentId(0), AgentId(1)], &est);
        let outcome = simulate_round(&world, &pairings, &est, &cal, AllReduceAlgorithm::Ring);
        assert_eq!(outcome.num_offloads, 0);
        assert!(outcome.agent_stats.iter().all(|s| s.comm_s == 0.0));
    }
}
