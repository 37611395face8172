//! The parallel sweep engine.
//!
//! [`SweepRunner`] expands a [`SweepSpec`] into its scenario × method ×
//! seed job matrix and burns through it on a `std::thread` worker pool:
//! the job list is a shared queue (an atomic cursor), and every idle
//! worker steals the next unclaimed job, so stragglers never serialize the
//! sweep. Each job is a *pure function* of its `(scenario, method, seed)`
//! coordinates — all randomness flows from the per-job seed through the
//! deterministic simulation stack — and results land in the job's own
//! pre-assigned slot, so the assembled [`SweepReport`] is byte-identical
//! whatever the worker count or completion order (proven by the property
//! tests in `tests/sweep.rs`).
//!
//! Per job, one loop drives every method: [`FleetSim`] owns membership,
//! hostile shaping, profile churn, participation sampling and the clock,
//! and hands each method's [`RoundEngine`] the *same* participant sets —
//! which is what makes the per-cell comparisons apples-to-apples.
//!
//! # Round-driven accuracy
//!
//! Time-to-target is no longer a post-hoc projection
//! (`mean_round_s × rounds_to_target`): every round's realized
//! effective-progress inputs ([`comdml_core::RoundProgress`] — duration,
//! staleness-weighted efficiency, participant set, disruptions) advance a
//! [`LearningModel`], and the job **stops early** the round the realized
//! trajectory reaches the scenario's target. Only when the round budget
//! runs out first is the remainder extrapolated at the realized mean pace
//! — which, for constant efficiency, full participation and no churn, is
//! *exactly* the old closed form (pinned to 1e-9 in `tests/learning.rs`).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use comdml_baselines::{
    AllReduceDml, BaselineConfig, BrainTorrent, ClassicSplitLearning, DropStragglers, FedAvg,
    FedProx, GossipLearning, TierBased,
};
use comdml_bench::Value;
use comdml_core::{ComDml, ComDmlConfig, FleetSim, LearningModel, RoundEngine};
use comdml_simnet::FleetConfig;

use crate::{Method, ScenarioSpec, SweepReport, SweepSpec};

/// One cell-replication of the sweep matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Index into the sweep's scenario list.
    pub scenario: usize,
    /// The method to run.
    pub method: Method,
    /// The world/fleet seed.
    pub seed: u64,
}

/// What one job measured. Every field is a deterministic function of the
/// job's coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Scenario name.
    pub scenario: String,
    /// Method run.
    pub method: Method,
    /// Seed used.
    pub seed: u64,
    /// Rounds actually simulated: the early-stop round when the realized
    /// trajectory reached the target, the scenario's budget otherwise.
    pub rounds_run: usize,
    /// Total simulated seconds over the simulated rounds.
    pub sim_s: f64,
    /// Mean simulated seconds per simulated round.
    pub mean_round_s: f64,
    /// The engine's learning efficiency per round (ComDML: mean realized
    /// staleness-weighted efficiency; baselines: their analytic factor).
    pub rounds_factor: f64,
    /// Total rounds to the target: realized when the trajectory got there,
    /// extrapolated at the realized mean pace otherwise.
    pub rounds_to_target: usize,
    /// Time to target accuracy — the paper's Table II quantity. Read off
    /// the simulated clock when the trajectory reached the target;
    /// `sim_s + remaining_rounds × mean_round_s` otherwise.
    pub time_to_target_s: f64,
    /// Whether the realized trajectory reached the target inside the
    /// simulated round budget (i.e. `time_to_target_s` is exact, not
    /// extrapolated).
    pub reached_target: bool,
    /// Accuracy at the end of the simulated rounds.
    pub final_accuracy: f64,
    /// Realized accuracy after each simulated round.
    pub accuracy_trajectory: Vec<f64>,
    /// Simulation events executed (0 for closed-form baselines).
    pub events_processed: u64,
    /// Peak concurrent fleet membership.
    pub peak_agents: usize,
    /// Arrivals activated during the simulated rounds.
    pub arrivals: usize,
    /// Departures committed during the simulated rounds.
    pub departures: usize,
}

impl JobResult {
    /// The JSON value of one job row — the exact object embedded in the
    /// `jobs` array of `BENCH_sweep_*.json`, streamed by farm workers and
    /// kept in the coordinator's journal, so a fetched report re-renders
    /// the same bytes.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("scenario".into(), Value::Str(self.scenario.clone())),
            ("method".into(), Value::Str(self.method.token().into())),
            ("seed".into(), Value::Num(self.seed as f64)),
            ("rounds_run".into(), Value::Num(self.rounds_run as f64)),
            ("sim_s".into(), Value::Num(self.sim_s)),
            ("mean_round_s".into(), Value::Num(self.mean_round_s)),
            ("rounds_factor".into(), Value::Num(self.rounds_factor)),
            ("rounds_to_target".into(), Value::Num(self.rounds_to_target as f64)),
            ("time_to_target_s".into(), Value::Num(self.time_to_target_s)),
            ("reached_target".into(), Value::Bool(self.reached_target)),
            ("final_accuracy".into(), Value::Num(self.final_accuracy)),
            (
                "trajectory".into(),
                Value::Arr(self.accuracy_trajectory.iter().map(|&a| Value::Num(a)).collect()),
            ),
            ("events_processed".into(), Value::Num(self.events_processed as f64)),
            ("peak_agents".into(), Value::Num(self.peak_agents as f64)),
            ("arrivals".into(), Value::Num(self.arrivals as f64)),
            ("departures".into(), Value::Num(self.departures as f64)),
        ])
    }

    /// Rebuilds a job row from its [`JobResult::to_value`] form. Numbers
    /// survive exactly: [`Value`] renders floats in Rust's shortest
    /// round-trip representation, so `from_value ∘ parse ∘ render ∘
    /// to_value` is the identity — the property the farm's byte-identical
    /// reports and journal replay rest on.
    ///
    /// # Errors
    ///
    /// Describes the first missing or ill-typed field.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let f = |key: &str| {
            v.get(key).and_then(Value::as_f64).ok_or_else(|| format!("job missing number {key:?}"))
        };
        let n = |key: &str| {
            v.get(key)
                .and_then(Value::as_usize)
                .ok_or_else(|| format!("job missing integer {key:?}"))
        };
        Ok(Self {
            scenario: v
                .get("scenario")
                .and_then(Value::as_str)
                .ok_or("job missing \"scenario\"")?
                .to_string(),
            method: Method::from_token(
                v.get("method").and_then(Value::as_str).ok_or("job missing \"method\"")?,
            )?,
            seed: v.get("seed").and_then(Value::as_u64).ok_or("job missing \"seed\"")?,
            rounds_run: n("rounds_run")?,
            sim_s: f("sim_s")?,
            mean_round_s: f("mean_round_s")?,
            rounds_factor: f("rounds_factor")?,
            rounds_to_target: n("rounds_to_target")?,
            time_to_target_s: f("time_to_target_s")?,
            reached_target: v
                .get("reached_target")
                .and_then(Value::as_bool)
                .ok_or("job missing \"reached_target\"")?,
            final_accuracy: f("final_accuracy")?,
            accuracy_trajectory: v
                .get("trajectory")
                .and_then(Value::as_array)
                .ok_or("job missing \"trajectory\"")?
                .iter()
                .map(|a| a.as_f64().ok_or_else(|| "trajectory must be numbers".to_string()))
                .collect::<Result<Vec<_>, _>>()?,
            events_processed: v
                .get("events_processed")
                .and_then(Value::as_u64)
                .ok_or("job missing \"events_processed\"")?,
            peak_agents: n("peak_agents")?,
            arrivals: n("arrivals")?,
            departures: n("departures")?,
        })
    }
}

impl ScenarioSpec {
    /// The fleet configuration of this scenario under `seed`.
    pub fn fleet_config(&self, seed: u64) -> FleetConfig {
        let mut cfg = FleetConfig::new(self.agents, seed)
            .samples_per_agent(self.samples_per_agent)
            .batch_size(self.batch_size)
            .topology(self.topology)
            .arrivals(self.arrivals.clone())
            .lifetime(self.lifetime)
            .recycle_slots(self.recycle_slots);
        if let Some(j) = self.join_topology {
            cfg = cfg.join_topology(j);
        }
        if let Some(m) = self.max_agents {
            cfg = cfg.max_agents(m);
        }
        if let Some(d) = &self.cpu_dist {
            cfg = cfg.cpu_dist(d.clone());
        }
        if let Some(d) = &self.link_dist {
            cfg = cfg.link_dist(d.clone());
        }
        if let Some(d) = &self.lifetime_dist {
            cfg = cfg.lifetime_dist(d.clone());
        }
        cfg
    }

    /// The ComDML configuration of this scenario.
    pub fn comdml_config(&self) -> ComDmlConfig {
        ComDmlConfig {
            churn: self.churn,
            sampling_rate: self.sampling_rate,
            threads: self.threads,
            aggregation: self.aggregation,
            granularity: self.granularity,
            batch_size: self.batch_size,
            staleness_decay: self.method_params.staleness_decay,
            diurnal: self.diurnal,
            partition: self.partition,
            byzantine: self.byzantine,
            ..ComDmlConfig::default()
        }
    }

    /// The round-driven accuracy model of this scenario: its resolved
    /// learning curve, sampling penalty and churn coupling.
    pub fn learning_model(&self) -> LearningModel {
        LearningModel::new(self.learning_curve(), self.target_accuracy)
            .with_sampling_rate(self.sampling_rate)
            .with_churn_dip(self.churn_dip)
    }
}

/// Builds the engine for a job, applying the scenario's per-method
/// parameter overrides. Policies (churn, sampling, hostile shaping) belong
/// to the harness, which feeds every engine explicit participant sets.
fn engine(
    scenario: &ScenarioSpec,
    method: Method,
    seed: u64,
    density: f64,
) -> Box<dyn RoundEngine> {
    let base = BaselineConfig::default();
    let params = &scenario.method_params;
    match method {
        Method::ComDml => Box::new(ComDml::seeded(scenario.comdml_config(), seed)),
        Method::FedAvg => Box::new(FedAvg::new(base)),
        Method::AllReduce => Box::new(AllReduceDml::new(base)),
        Method::BrainTorrent => Box::new(BrainTorrent::new(base).with_seed(seed ^ 0x000b_7a10)),
        Method::Gossip => {
            Box::new(GossipLearning::new(base).with_topology_density(density.clamp(0.01, 1.0)))
        }
        Method::FedProx => Box::new(FedProx::new(base, params.fedprox_min_work)),
        Method::DropStragglers => Box::new(DropStragglers::new(base, params.drop_fraction)),
        Method::Tiered => Box::new(TierBased::new(base, params.tiers)),
        Method::SplitLearning => {
            Box::new(ClassicSplitLearning::new(base, params.sl_agent_layers, params.sl_server_cpus))
        }
    }
}

/// Runs one job to completion: the method's engine on the scenario's
/// fleet, round by round, stopping the round the model reaches the target.
/// Pure in `(scenario, method, seed)`.
pub fn run_job(scenario: &ScenarioSpec, method: Method, seed: u64) -> JobResult {
    let fleet = scenario.fleet_config(seed).build();
    let density = fleet.world().adjacency().density();
    let engine = engine(scenario, method, seed, density);
    let mut sim = FleetSim::with_engine(fleet, scenario.comdml_config(), engine);
    let mut model = scenario.learning_model();
    let trajectory = sim.run_to_target(&mut model, scenario.rounds);
    let run = sim.report();
    let mean_round_s = run.total_sim_s / run.rounds.max(1) as f64;
    let rounds_to_target = model.projected_rounds_to_target();
    let time_to_target_s = if model.reached() {
        // Exact: the simulated clock the round the trajectory got there.
        run.total_sim_s
    } else {
        // Budget exhausted first: extrapolate the remaining rounds at the
        // realized mean pace (the old projection, exactly, when per-round
        // progress was constant).
        run.total_sim_s + rounds_to_target.saturating_sub(run.rounds) as f64 * mean_round_s
    };
    JobResult {
        scenario: scenario.name.clone(),
        method,
        seed,
        rounds_run: run.rounds,
        sim_s: run.total_sim_s,
        mean_round_s,
        rounds_factor: sim.engine().rounds_factor(),
        rounds_to_target,
        time_to_target_s,
        reached_target: model.reached(),
        final_accuracy: model.accuracy(),
        accuracy_trajectory: trajectory,
        events_processed: run.events_processed,
        peak_agents: run.peak_agents,
        arrivals: run.arrivals,
        departures: run.departures,
    }
}

/// A claimable queue of index-tagged jobs — the one execution path every
/// consumer of the worker pool shares.
///
/// The local [`SweepRunner`] wraps the whole job matrix in a `JobSource`;
/// a farm worker wraps the slice its coordinator handed it. Both drain it
/// through [`SweepRunner::execute_source`], so work-stealing semantics,
/// purity and result placement are defined exactly once. Each entry pairs
/// a **global job-matrix index** with its [`JobSpec`]; claims hand out
/// entries in order via an atomic cursor (idle threads steal the next
/// unclaimed entry), and an optional cancel flag lets a consumer abandon
/// the tail of the queue (a farm worker hitting its job budget).
#[derive(Debug)]
pub struct JobSource {
    jobs: Vec<(usize, JobSpec)>,
    cursor: AtomicUsize,
    cancel: Option<Arc<AtomicBool>>,
}

impl JobSource {
    /// Wraps `(global index, job)` entries in claim order.
    pub fn new(jobs: Vec<(usize, JobSpec)>) -> Self {
        Self { jobs, cursor: AtomicUsize::new(0), cancel: None }
    }

    /// Attaches a cancel flag: once it reads `true`, no further claims are
    /// handed out (claims already made keep running).
    pub fn with_cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Number of entries in the queue (claimed or not).
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the queue was empty to begin with.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Claims the next unclaimed entry: `(position, global index, job)`.
    /// `None` once the queue is exhausted or cancelled.
    pub fn claim(&self) -> Option<(usize, usize, JobSpec)> {
        if self.cancel.as_ref().is_some_and(|c| c.load(Ordering::SeqCst)) {
            return None;
        }
        let pos = self.cursor.fetch_add(1, Ordering::Relaxed);
        self.jobs.get(pos).map(|&(gi, job)| (pos, gi, job))
    }
}

/// The parallel sweep executor. See the module docs for the determinism
/// contract.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    threads: usize,
    progress: bool,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepRunner {
    /// A runner using every available core, with progress reporting on.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self { threads, progress: true }
    }

    /// Overrides the worker count (clamped to at least 1).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Enables or disables the stderr progress line.
    pub fn progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    /// Expands the spec's job matrix in report order (scenario-major, then
    /// method, then seed): [`SweepSpec::job`] at every index.
    pub fn jobs(spec: &SweepSpec) -> Vec<JobSpec> {
        (0..spec.num_jobs()).map_while(|i| spec.job(i)).collect()
    }

    /// Drains a [`JobSource`] on the worker pool, calling `on_done` with
    /// `(global index, result)` as each job finishes (from the finishing
    /// pool thread — the farm worker streams rows over the wire from
    /// here), and returning results in source order. `None` slots mark
    /// entries never claimed because the source was cancelled.
    ///
    /// This is the one execution path: the local full run and the farm
    /// worker both come through here, so they share the same
    /// work-stealing claim loop and purity contract.
    pub fn execute_source(
        &self,
        spec: &SweepSpec,
        source: &JobSource,
        on_done: &(dyn Fn(usize, &JobResult) + Sync),
    ) -> Vec<Option<JobResult>> {
        let total = source.len();
        let results: Vec<Mutex<Option<JobResult>>> = (0..total).map(|_| Mutex::new(None)).collect();
        let workers = self.threads.min(total.max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    // The shared queue: an idle worker steals the next
                    // unclaimed entry.
                    while let Some((pos, global, job)) = source.claim() {
                        let timer = comdml_obs::phase("job.run");
                        let result = run_job(&spec.scenarios[job.scenario], job.method, job.seed);
                        drop(timer);
                        comdml_obs::counter_add("sweep.jobs", 1);
                        comdml_obs::trace_event(
                            "job",
                            vec![
                                ("scenario", Value::Str(result.scenario.clone())),
                                ("method", Value::Str(job.method.token().to_string())),
                                ("seed", Value::Num(job.seed as f64)),
                                ("rounds_run", Value::Num(result.rounds_run as f64)),
                                ("sim_s", Value::Num(result.sim_s)),
                                ("reached", Value::Bool(result.reached_target)),
                            ],
                        );
                        on_done(global, &result);
                        *results[pos].lock().expect("no poisoned result slot") = Some(result);
                    }
                });
            }
        });
        results.into_iter().map(|m| m.into_inner().expect("no poisoned slot")).collect()
    }

    /// Runs the whole sweep and aggregates the report. Results land in
    /// pre-assigned slots keyed by job index, independent of completion
    /// order.
    ///
    /// # Errors
    ///
    /// Returns the spec's validation error, if any.
    pub fn run(&self, spec: &SweepSpec) -> Result<SweepReport, String> {
        spec.validate()?;
        let source = JobSource::new(Self::jobs(spec).into_iter().enumerate().collect());
        let total = source.len();
        let done = AtomicUsize::new(0);
        let results = self.execute_source(spec, &source, &|_, _| {
            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
            if self.progress {
                eprint!("\rsweep {}: {finished}/{total} jobs", spec.name);
                if finished == total {
                    eprintln!();
                }
            }
        });
        let results =
            results.into_iter().map(|r| r.expect("uncancelled source runs every job")).collect();
        Ok(SweepReport::assemble(spec, results))
    }
}
