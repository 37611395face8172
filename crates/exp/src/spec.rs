//! The declarative scenario model.
//!
//! A [`ScenarioSpec`] names one experimental condition by composing
//! everything the stack exposes — world size and topology,
//! [`ArrivalProcess`]/[`SessionLifetime`] membership churn, profile churn,
//! aggregation mode, event granularity, participation sampling, and the
//! round/accuracy budget. A [`SweepSpec`] is a grid: scenarios × methods ×
//! a seed range, exactly the shape of the paper's Tables II/III.
//!
//! Specs are plain JSON (parsed with the dependency-free
//! [`comdml_bench::Value`] model) with builder-style programmatic
//! construction, and `parse` ∘ `render` round-trips exactly — the property
//! tests in `tests/sweep.rs` hold this for arbitrary specs.
//!
//! # Spec file format
//!
//! ```json
//! {
//!   "name": "smoke",
//!   "seeds": { "base": 1, "count": 5 },
//!   "methods": ["comdml", "gossip", "allreduce", "fedavg"],
//!   "scenarios": [
//!     {
//!       "name": "churny_er20",
//!       "agents": 24,
//!       "rounds": 30,
//!       "topology": { "kind": "random", "p": 0.2 },
//!       "arrivals": { "kind": "poisson", "rate_per_s": 0.005 },
//!       "lifetime": { "kind": "exponential", "mean_s": 4000 },
//!       "aggregation": { "kind": "semi_synchronous", "quorum": 0.8 },
//!       "sampling_rate": 0.5,
//!       "dataset": "cifar10",
//!       "noniid_mix": 0.4,
//!       "churn_dip": 0.25,
//!       "target_accuracy": 0.8,
//!       "method_params": { "fedprox_min_work": 0.3, "tiers": 4 }
//!     }
//!   ]
//! }
//! ```
//!
//! Every scenario field except `name` has a default (see
//! [`ScenarioSpec::new`]), so terse specs stay terse. The accuracy model is
//! *round-driven*: `dataset`/`iid` pick a calibrated learning curve
//! (overridable with an explicit `curve: {a_max, tau}`, or blended between
//! the I.I.D. and non-I.I.D. endpoints with `noniid_mix`), each simulated
//! round advances it by its realized staleness-weighted efficiency, and
//! `churn_dip` charges effective rounds for mid-round departures. Jobs stop
//! the round the trajectory reaches `target_accuracy`.

use comdml_bench::Value;
use comdml_core::{AggregationMode, ChurnPolicy, EventGranularity, LearningCurve};
use comdml_simnet::{
    ArrivalProcess, ByzantineConfig, DistributionConfig, DiurnalCycle, JoinTopology,
    PartitionSchedule, SessionLifetime, Topology,
};

use crate::JobSpec;

/// The methods a sweep can run, by their paper-table identities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// The paper's contribution: pairing + split training + AllReduce.
    ComDml,
    /// Server-coordinated federated averaging \[1\].
    FedAvg,
    /// Decentralized AllReduce DML \[34\].
    AllReduce,
    /// Rotating-aggregator peer-to-peer \[10\].
    BrainTorrent,
    /// Pairwise gossip averaging \[11\].
    Gossip,
    /// Heterogeneity-aware partial local work \[27\].
    FedProx,
    /// Drop the slowest 30% each round \[26\].
    DropStragglers,
    /// TiFL-style speed tiers \[5\].
    Tiered,
    /// Classic server-based split learning \[2\] — the per-batch round-trip
    /// design ComDML's local-loss training replaces.
    SplitLearning,
}

impl Method {
    /// Every method the harness can run, in table order.
    pub const ALL: [Method; 9] = [
        Method::ComDml,
        Method::Gossip,
        Method::BrainTorrent,
        Method::AllReduce,
        Method::FedAvg,
        Method::FedProx,
        Method::DropStragglers,
        Method::Tiered,
        Method::SplitLearning,
    ];

    /// The spec-file token (`"comdml"`, `"fedavg"`, …).
    pub fn token(&self) -> &'static str {
        match self {
            Method::ComDml => "comdml",
            Method::FedAvg => "fedavg",
            Method::AllReduce => "allreduce",
            Method::BrainTorrent => "braintorrent",
            Method::Gossip => "gossip",
            Method::FedProx => "fedprox",
            Method::DropStragglers => "drop_stragglers",
            Method::Tiered => "tiered",
            Method::SplitLearning => "split_learning",
        }
    }

    /// The display name used in the paper's tables.
    pub fn display(&self) -> &'static str {
        match self {
            Method::ComDml => "ComDML",
            Method::FedAvg => "FedAvg",
            Method::AllReduce => "AllReduce",
            Method::BrainTorrent => "BrainTorrent",
            Method::Gossip => "Gossip Learning",
            Method::FedProx => "FedProx",
            Method::DropStragglers => "Drop-30%",
            Method::Tiered => "TiFL (tiers)",
            Method::SplitLearning => "Split Learning",
        }
    }

    /// Parses a spec-file token.
    ///
    /// # Errors
    ///
    /// Returns the unknown token.
    pub fn from_token(s: &str) -> Result<Self, String> {
        Method::ALL
            .into_iter()
            .find(|m| m.token() == s)
            .ok_or_else(|| format!("unknown method {s:?}"))
    }
}

/// The seeds of a sweep: `base, base+1, …, base+count-1`. Each seed is a
/// complete replication of the scenario grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedRange {
    /// First seed.
    pub base: u64,
    /// Number of consecutive seeds.
    pub count: usize,
}

/// Per-method parameter overrides a scenario can carry instead of the
/// harness's historical fixed constants. The defaults are exactly those
/// constants, so a spec that says nothing runs exactly what it always ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodParams {
    /// FedProx γ-inexactness floor: the minimum fraction of a local epoch a
    /// straggler performs (μ-controlled partial work; default 0.5).
    pub fedprox_min_work: f64,
    /// Straggler-dropping threshold: the slowest fraction ignored each
    /// round (default 0.3, the reference system's ~30%).
    pub drop_fraction: f64,
    /// TiFL speed-tier count (default 5).
    pub tiers: usize,
    /// ComDML's FedBuff staleness-discount exponent (default 0.5).
    pub staleness_decay: f64,
    /// Classic split learning: layers kept on the agent side (default 19).
    pub sl_agent_layers: usize,
    /// Classic split learning: server capacity in CPU units (default 8).
    pub sl_server_cpus: f64,
}

impl Default for MethodParams {
    fn default() -> Self {
        Self {
            fedprox_min_work: 0.5,
            drop_fraction: 0.3,
            tiers: 5,
            staleness_decay: 0.5,
            sl_agent_layers: 19,
            sl_server_cpus: 8.0,
        }
    }
}

/// One named experimental condition. See the module docs for the file
/// format; [`ScenarioSpec::new`] documents the defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (table row/column label).
    pub name: String,
    /// Initial fleet size.
    pub agents: usize,
    /// Local dataset size per agent.
    pub samples_per_agent: usize,
    /// Local mini-batch size.
    pub batch_size: usize,
    /// Construction-time link topology.
    pub topology: Topology,
    /// How arrivals wire in (`None` = the policy matching `topology`).
    pub join_topology: Option<JoinTopology>,
    /// Membership arrivals.
    pub arrivals: ArrivalProcess,
    /// Session lifetimes (departures).
    pub lifetime: SessionLifetime,
    /// World-slot capacity (`None` = the fleet default of 4× agents).
    pub max_agents: Option<usize>,
    /// Reuse departed agents' world slots (default on: sweeps run long).
    pub recycle_slots: bool,
    /// Round aggregation trigger.
    pub aggregation: AggregationMode,
    /// Event engine granularity (default coarse — fleet-scale sweeps).
    pub granularity: EventGranularity,
    /// Per-round participation sampling rate (Table III uses 0.2).
    pub sampling_rate: f64,
    /// Pair-batch threads for the event engine (default 1 = inline).
    /// Results are bit-for-bit identical for any value; raise it for
    /// large worlds where per-pair preparation dominates the round.
    pub threads: usize,
    /// Profile churn policy (`None` = static profiles).
    pub churn: Option<ChurnPolicy>,
    /// Measured rounds per job.
    pub rounds: usize,
    /// Learning-curve dataset: `cifar10`, `cifar100` or `cinic10`.
    pub dataset: String,
    /// I.I.D. or Dirichlet-skewed data distribution (curve selection).
    pub iid: bool,
    /// Accuracy the round-driven learning model targets (jobs stop early
    /// the round the realized trajectory reaches it).
    pub target_accuracy: f64,
    /// Explicit learning-curve override (`None` = the dataset/`iid`
    /// calibration, possibly blended by `noniid_mix`).
    pub curve: Option<LearningCurve>,
    /// Non-I.I.D. mix in `[0, 1]`: blends the dataset's I.I.D. (0) and
    /// Dirichlet-0.5 (1) curves for skews between the calibrated
    /// endpoints. `None` = pure `iid` selection.
    pub noniid_mix: Option<f64>,
    /// Churn-coupled accuracy: effective rounds forfeited per mid-round
    /// departure (default 0 = membership churn costs time, not accuracy).
    pub churn_dip: f64,
    /// Per-method parameter overrides.
    pub method_params: MethodParams,
    /// CPU-speed distribution override (`None` = the paper's 5-point grid).
    /// Applies to the initial world and to every later arrival.
    pub cpu_dist: Option<DistributionConfig>,
    /// Link-bandwidth distribution override (`None` = the paper's grid).
    pub link_dist: Option<DistributionConfig>,
    /// Session-lifetime distribution override in seconds (`None` = the
    /// `lifetime` policy). Wins over `lifetime` for every duration draw.
    pub lifetime_dist: Option<DistributionConfig>,
    /// Diurnal time-varying bandwidth (`None` = stationary links).
    pub diurnal: Option<DiurnalCycle>,
    /// Rotating correlated regional outages (`None` = never partitioned).
    pub partition: Option<PartitionSchedule>,
    /// Byzantine agents misreporting speed to the pairing broadcast
    /// (`None` = everyone honest).
    pub byzantine: Option<ByzantineConfig>,
}

impl ScenarioSpec {
    /// A scenario with the paper's defaults: 10 agents, full mesh, static
    /// membership and profiles, synchronous aggregation, coarse events, no
    /// sampling, 30 measured rounds, CIFAR-10 I.I.D. at 80% target.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            agents: 10,
            samples_per_agent: 500,
            batch_size: 100,
            topology: Topology::Full,
            join_topology: None,
            arrivals: ArrivalProcess::None,
            lifetime: SessionLifetime::Infinite,
            max_agents: None,
            recycle_slots: true,
            aggregation: AggregationMode::Synchronous,
            granularity: EventGranularity::Coarse,
            sampling_rate: 1.0,
            threads: 1,
            churn: None,
            rounds: 30,
            dataset: "cifar10".to_string(),
            iid: true,
            target_accuracy: 0.8,
            curve: None,
            noniid_mix: None,
            churn_dip: 0.0,
            method_params: MethodParams::default(),
            cpu_dist: None,
            link_dist: None,
            lifetime_dist: None,
            diurnal: None,
            partition: None,
            byzantine: None,
        }
    }

    /// Sets the initial fleet size.
    pub fn agents(mut self, k: usize) -> Self {
        self.agents = k;
        self
    }

    /// Sets the topology.
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = t;
        self
    }

    /// Sets the arrival process.
    pub fn arrivals(mut self, a: ArrivalProcess) -> Self {
        self.arrivals = a;
        self
    }

    /// Sets the session-lifetime distribution.
    pub fn lifetime(mut self, l: SessionLifetime) -> Self {
        self.lifetime = l;
        self
    }

    /// Sets the aggregation mode.
    pub fn aggregation(mut self, m: AggregationMode) -> Self {
        self.aggregation = m;
        self
    }

    /// Sets the participation sampling rate.
    pub fn sampling_rate(mut self, r: f64) -> Self {
        self.sampling_rate = r;
        self
    }

    /// Sets the event-engine pair-batch thread count.
    pub fn threads(mut self, t: usize) -> Self {
        self.threads = t;
        self
    }

    /// Sets the profile-churn policy.
    pub fn churn(mut self, c: ChurnPolicy) -> Self {
        self.churn = Some(c);
        self
    }

    /// Sets the measured round budget.
    pub fn rounds(mut self, r: usize) -> Self {
        self.rounds = r;
        self
    }

    /// Sets the learning-curve dataset and distribution.
    pub fn dataset(mut self, name: &str, iid: bool) -> Self {
        self.dataset = name.to_string();
        self.iid = iid;
        self
    }

    /// Sets the target accuracy.
    pub fn target(mut self, a: f64) -> Self {
        self.target_accuracy = a;
        self
    }

    /// Overrides the learning curve (wins over `dataset`/`iid`/mix).
    pub fn curve(mut self, c: LearningCurve) -> Self {
        self.curve = Some(c);
        self
    }

    /// Sets the non-I.I.D. curve mix fraction.
    pub fn noniid_mix(mut self, frac: f64) -> Self {
        self.noniid_mix = Some(frac);
        self
    }

    /// Sets the churn-coupled accuracy dip per mid-round departure.
    pub fn churn_dip(mut self, dip: f64) -> Self {
        self.churn_dip = dip;
        self
    }

    /// Sets the per-method parameter overrides.
    pub fn method_params(mut self, p: MethodParams) -> Self {
        self.method_params = p;
        self
    }

    /// Overrides the CPU-speed distribution.
    pub fn cpu_dist(mut self, d: DistributionConfig) -> Self {
        self.cpu_dist = Some(d);
        self
    }

    /// Overrides the link-bandwidth distribution.
    pub fn link_dist(mut self, d: DistributionConfig) -> Self {
        self.link_dist = Some(d);
        self
    }

    /// Overrides the session-lifetime distribution (seconds).
    pub fn lifetime_dist(mut self, d: DistributionConfig) -> Self {
        self.lifetime_dist = Some(d);
        self
    }

    /// Enables diurnal time-varying bandwidth.
    pub fn diurnal(mut self, d: DiurnalCycle) -> Self {
        self.diurnal = Some(d);
        self
    }

    /// Enables rotating correlated regional outages.
    pub fn partition(mut self, p: PartitionSchedule) -> Self {
        self.partition = Some(p);
        self
    }

    /// Enables Byzantine speed misreports.
    pub fn byzantine(mut self, b: ByzantineConfig) -> Self {
        self.byzantine = Some(b);
        self
    }

    /// The learning curve this scenario's round-driven model advances:
    /// the explicit override if present, otherwise the dataset calibration
    /// — blended between the I.I.D. and non-I.I.D. endpoints when
    /// `noniid_mix` is set, the pure `iid` selection otherwise.
    ///
    /// # Panics
    ///
    /// Panics on an unknown dataset or an out-of-range mix; call
    /// [`ScenarioSpec::validate`] first.
    pub fn learning_curve(&self) -> LearningCurve {
        if let Some(c) = self.curve {
            return c;
        }
        if let Some(mix) = self.noniid_mix {
            return LearningCurve::for_dataset(&self.dataset, true)
                .blend(LearningCurve::for_dataset(&self.dataset, false), mix);
        }
        LearningCurve::for_dataset(&self.dataset, self.iid)
    }

    /// Validates ranges that the execution layer assumes.
    ///
    /// # Errors
    ///
    /// Describes the first out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        let ctx = &self.name;
        if self.name.is_empty() {
            return Err("scenario name must not be empty".into());
        }
        if self.agents == 0 {
            return Err(format!("{ctx}: agents must be positive"));
        }
        if self.batch_size == 0 {
            return Err(format!("{ctx}: batch_size must be positive"));
        }
        if self.rounds == 0 {
            return Err(format!("{ctx}: rounds must be positive"));
        }
        if !(self.sampling_rate > 0.0 && self.sampling_rate <= 1.0) {
            return Err(format!("{ctx}: sampling_rate must be in (0, 1]"));
        }
        if self.threads == 0 {
            return Err(format!("{ctx}: threads must be positive"));
        }
        if !(self.target_accuracy > 0.0 && self.target_accuracy < 1.0) {
            return Err(format!("{ctx}: target_accuracy must be in (0, 1)"));
        }
        if !matches!(self.dataset.as_str(), "cifar10" | "cifar100" | "cinic10") {
            return Err(format!("{ctx}: unknown dataset {:?}", self.dataset));
        }
        if let Some(c) = self.curve {
            if !(c.a_max > 0.0 && c.a_max <= 1.0 && c.tau > 0.0) {
                return Err(format!("{ctx}: curve needs a_max in (0, 1] and tau > 0"));
            }
        }
        if let Some(mix) = self.noniid_mix {
            if !(0.0..=1.0).contains(&mix) {
                return Err(format!("{ctx}: noniid_mix must be in [0, 1]"));
            }
        }
        if !(self.churn_dip.is_finite() && self.churn_dip >= 0.0) {
            return Err(format!("{ctx}: churn_dip must be finite and >= 0"));
        }
        // A target at or above the resolved curve's asymptote could never
        // be reached; fail here instead of panicking in a worker thread.
        if self.target_accuracy >= self.learning_curve().a_max {
            return Err(format!(
                "{ctx}: target_accuracy {} is unreachable (curve asymptote {})",
                self.target_accuracy,
                self.learning_curve().a_max
            ));
        }
        let p = &self.method_params;
        if !(p.fedprox_min_work > 0.0 && p.fedprox_min_work <= 1.0) {
            return Err(format!("{ctx}: fedprox_min_work must be in (0, 1]"));
        }
        if !(0.0..1.0).contains(&p.drop_fraction) {
            return Err(format!("{ctx}: drop_fraction must be in [0, 1)"));
        }
        if p.tiers == 0 {
            return Err(format!("{ctx}: tiers must be positive"));
        }
        if !(p.staleness_decay.is_finite() && p.staleness_decay >= 0.0) {
            return Err(format!("{ctx}: staleness_decay must be finite and >= 0"));
        }
        if !(1..56).contains(&p.sl_agent_layers) {
            return Err(format!("{ctx}: sl_agent_layers must be in 1..56 (ResNet-56)"));
        }
        if !(p.sl_server_cpus.is_finite() && p.sl_server_cpus > 0.0) {
            return Err(format!("{ctx}: sl_server_cpus must be positive"));
        }
        if let AggregationMode::SemiSynchronous { quorum, .. } = self.aggregation {
            if !(quorum > 0.0 && quorum <= 1.0) {
                return Err(format!("{ctx}: semi-sync quorum must be in (0, 1]"));
            }
        }
        // Probabilities and distribution parameters the simulation layer
        // asserts on (a bad spec must fail here, not panic in a worker).
        if let Topology::Random { p } = self.topology {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{ctx}: topology p must be in [0, 1]"));
            }
        }
        if let Some(JoinTopology::ErdosRenyi { p }) = self.join_topology {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{ctx}: join_topology p must be in [0, 1]"));
            }
        }
        match &self.arrivals {
            ArrivalProcess::Poisson { rate_per_s } if rate_per_s.is_nan() || *rate_per_s < 0.0 => {
                return Err(format!("{ctx}: arrival rate must be non-negative"));
            }
            ArrivalProcess::Trace(times)
                if times.iter().any(|t| !t.is_finite() || *t < 0.0)
                    || times.windows(2).any(|w| w[0] > w[1]) =>
            {
                return Err(format!("{ctx}: trace times must be non-negative and ascending"));
            }
            _ => {}
        }
        // `is_positive` form rejects NaN alongside zero/negative values.
        let positive = |v: f64| v.is_finite() && v > 0.0;
        match self.lifetime {
            SessionLifetime::Exponential { mean_s } if !positive(mean_s) => {
                return Err(format!("{ctx}: lifetime mean_s must be positive"));
            }
            SessionLifetime::Weibull { scale_s, shape }
                if !positive(scale_s) || !positive(shape) =>
            {
                return Err(format!("{ctx}: weibull scale_s and shape must be positive"));
            }
            SessionLifetime::Fixed { duration_s } if !positive(duration_s) => {
                return Err(format!("{ctx}: lifetime duration_s must be positive"));
            }
            _ => {}
        }
        if let Some(churn) = self.churn {
            if !(0.0..=1.0).contains(&churn.fraction) {
                return Err(format!("{ctx}: churn fraction must be in [0, 1]"));
            }
        }
        // Heterogeneity distributions and hostile-world knobs carry their
        // own parameter validation; surface it under this scenario's name.
        for (key, d) in [
            ("cpu_dist", &self.cpu_dist),
            ("link_dist", &self.link_dist),
            ("lifetime_dist", &self.lifetime_dist),
        ] {
            if let Some(d) = d {
                d.validate(&format!("{ctx}: {key}"))?;
            }
        }
        if let ArrivalProcess::Gaps(d) = &self.arrivals {
            d.validate(&format!("{ctx}: arrivals gap"))?;
        }
        if let Some(d) = self.diurnal {
            d.validate(&format!("{ctx}: diurnal"))?;
        }
        if let Some(p) = self.partition {
            p.validate(&format!("{ctx}: partition"))?;
        }
        if let Some(b) = self.byzantine {
            b.validate(&format!("{ctx}: byzantine"))?;
        }
        Ok(())
    }
}

/// A full sweep: scenarios × methods × seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Sweep name (output file stem).
    pub name: String,
    /// The seed range; every (scenario, method) cell runs once per seed.
    pub seeds: SeedRange,
    /// Methods to run, in table order.
    pub methods: Vec<Method>,
    /// Scenarios to run.
    pub scenarios: Vec<ScenarioSpec>,
}

impl SweepSpec {
    /// An empty sweep with 5 seeds from 1.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            seeds: SeedRange { base: 1, count: 5 },
            methods: Vec::new(),
            scenarios: Vec::new(),
        }
    }

    /// Sets the seed range.
    pub fn seeds(mut self, base: u64, count: usize) -> Self {
        self.seeds = SeedRange { base, count };
        self
    }

    /// Adds a method.
    pub fn method(mut self, m: Method) -> Self {
        self.methods.push(m);
        self
    }

    /// Adds a scenario.
    pub fn scenario(mut self, s: ScenarioSpec) -> Self {
        self.scenarios.push(s);
        self
    }

    /// Most jobs one sweep may expand to. [`SweepSpec::validate`] rejects
    /// larger matrices, so nothing sized by a job count can be asked for an
    /// absurd allocation.
    pub const MAX_JOBS: usize = 1 << 20;

    /// Total jobs the sweep expands to, saturating at `usize::MAX`.
    pub fn num_jobs(&self) -> usize {
        self.scenarios.len().saturating_mul(self.methods.len()).saturating_mul(self.seeds.count)
    }

    /// The job at global index `i` of the matrix in report order
    /// (scenario-major, then method, then seed); `None` past the end. The
    /// one index→job mapping: the local runner, farm workers and the
    /// coordinator's row check all read it.
    pub fn job(&self, i: usize) -> Option<JobSpec> {
        let (seeds, methods) = (self.seeds.count, self.methods.len());
        if seeds == 0 || methods == 0 {
            return None;
        }
        let cell = i / seeds;
        let scenario = cell / methods;
        (scenario < self.scenarios.len()).then(|| JobSpec {
            scenario,
            method: self.methods[cell % methods],
            seed: self.seeds.base + (i % seeds) as u64,
        })
    }

    /// Validates the sweep and every scenario.
    ///
    /// # Errors
    ///
    /// Describes the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("sweep name must not be empty".into());
        }
        if self.seeds.count == 0 {
            return Err("seed count must be positive".into());
        }
        if self.seeds.base.checked_add(self.seeds.count as u64).is_none() {
            return Err("seed range overflows u64".into());
        }
        if self.methods.is_empty() {
            return Err("at least one method is required".into());
        }
        if self.scenarios.is_empty() {
            return Err("at least one scenario is required".into());
        }
        let mut names: Vec<&str> = self.scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        if names.windows(2).any(|w| w[0] == w[1]) {
            return Err("scenario names must be unique".into());
        }
        let mut methods = self.methods.clone();
        methods.sort_unstable_by_key(Method::token);
        if methods.windows(2).any(|w| w[0] == w[1]) {
            return Err("methods must be unique".into());
        }
        if self.num_jobs() > Self::MAX_JOBS {
            return Err(format!(
                "{} scenarios x {} methods x {} seeds exceeds the {}-job cap",
                self.scenarios.len(),
                self.methods.len(),
                self.seeds.count,
                Self::MAX_JOBS
            ));
        }
        for s in &self.scenarios {
            s.validate()?;
        }
        Ok(())
    }

    /// Parses a spec file.
    ///
    /// # Errors
    ///
    /// Describes the first syntax or validation problem.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = Value::parse(text)?;
        let spec = Self::from_value(&v)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Renders the spec as a JSON document (the exact input format of
    /// [`SweepSpec::parse`]; round-trips losslessly).
    pub fn render(&self) -> String {
        self.to_value().render()
    }

    /// Builds the spec from a parsed JSON value.
    ///
    /// # Errors
    ///
    /// Describes the first missing or ill-typed field.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let name = req_str(v, "name")?;
        let seeds_v = v.get("seeds").ok_or("missing \"seeds\"")?;
        let seeds = SeedRange {
            base: seeds_v.get("base").and_then(Value::as_u64).ok_or("seeds.base must be a u64")?,
            count: seeds_v
                .get("count")
                .and_then(Value::as_usize)
                .ok_or("seeds.count must be a usize")?,
        };
        let methods = v
            .get("methods")
            .and_then(Value::as_array)
            .ok_or("missing \"methods\" array")?
            .iter()
            .map(|m| {
                m.as_str().ok_or("methods must be strings".to_string()).and_then(Method::from_token)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let scenarios = v
            .get("scenarios")
            .and_then(Value::as_array)
            .ok_or("missing \"scenarios\" array")?
            .iter()
            .map(scenario_from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { name, seeds, methods, scenarios })
    }

    /// The JSON value form of the spec.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("name".into(), Value::Str(self.name.clone())),
            (
                "seeds".into(),
                Value::Obj(vec![
                    ("base".into(), Value::Num(self.seeds.base as f64)),
                    ("count".into(), Value::Num(self.seeds.count as f64)),
                ]),
            ),
            (
                "methods".into(),
                Value::Arr(self.methods.iter().map(|m| Value::Str(m.token().into())).collect()),
            ),
            (
                "scenarios".into(),
                Value::Arr(self.scenarios.iter().map(scenario_to_value).collect()),
            ),
        ])
    }
}

fn req_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn kind_of(v: &Value) -> Result<&str, String> {
    v.get("kind").and_then(Value::as_str).ok_or_else(|| "missing \"kind\"".to_string())
}

fn req_f64(v: &Value, key: &str, ctx: &str) -> Result<f64, String> {
    v.get(key).and_then(Value::as_f64).ok_or_else(|| format!("{ctx}: missing number {key:?}"))
}

fn dist_from_value(v: &Value, ctx: &str) -> Result<DistributionConfig, String> {
    Ok(match kind_of(v)? {
        "fixed" => DistributionConfig::Fixed { value: req_f64(v, "value", ctx)? },
        "uniform" => DistributionConfig::Uniform {
            min: req_f64(v, "min", ctx)?,
            max: req_f64(v, "max", ctx)?,
        },
        "normal" => DistributionConfig::Normal {
            mean: req_f64(v, "mean", ctx)?,
            std_dev: req_f64(v, "std_dev", ctx)?,
        },
        "lognormal" => DistributionConfig::LogNormal {
            mu: req_f64(v, "mu", ctx)?,
            sigma: req_f64(v, "sigma", ctx)?,
        },
        "trace" => DistributionConfig::Trace {
            values: v
                .get("values")
                .and_then(Value::as_array)
                .ok_or_else(|| format!("{ctx}: trace needs a \"values\" array"))?
                .iter()
                .map(|t| t.as_f64().ok_or_else(|| format!("{ctx}: trace values must be numbers")))
                .collect::<Result<Vec<_>, _>>()?,
        },
        other => return Err(format!("{ctx}: unknown distribution kind {other:?}")),
    })
}

fn dist_to_value(d: &DistributionConfig) -> Value {
    let kind = |k: &str| ("kind".to_string(), Value::Str(k.into()));
    match d {
        DistributionConfig::Fixed { value } => {
            Value::Obj(vec![kind("fixed"), ("value".into(), Value::Num(*value))])
        }
        DistributionConfig::Uniform { min, max } => Value::Obj(vec![
            kind("uniform"),
            ("min".into(), Value::Num(*min)),
            ("max".into(), Value::Num(*max)),
        ]),
        DistributionConfig::Normal { mean, std_dev } => Value::Obj(vec![
            kind("normal"),
            ("mean".into(), Value::Num(*mean)),
            ("std_dev".into(), Value::Num(*std_dev)),
        ]),
        DistributionConfig::LogNormal { mu, sigma } => Value::Obj(vec![
            kind("lognormal"),
            ("mu".into(), Value::Num(*mu)),
            ("sigma".into(), Value::Num(*sigma)),
        ]),
        DistributionConfig::Trace { values } => Value::Obj(vec![
            kind("trace"),
            ("values".into(), Value::Arr(values.iter().map(|&t| Value::Num(t)).collect())),
        ]),
    }
}

fn scenario_from_value(v: &Value) -> Result<ScenarioSpec, String> {
    let mut s = ScenarioSpec::new(&req_str(v, "name")?);
    if let Some(n) = v.get("agents") {
        s.agents = n.as_usize().ok_or("agents must be a usize")?;
    }
    if let Some(n) = v.get("samples_per_agent") {
        s.samples_per_agent = n.as_usize().ok_or("samples_per_agent must be a usize")?;
    }
    if let Some(n) = v.get("batch_size") {
        s.batch_size = n.as_usize().ok_or("batch_size must be a usize")?;
    }
    if let Some(t) = v.get("topology") {
        s.topology = match kind_of(t)? {
            "full" => Topology::Full,
            "ring" => Topology::Ring,
            "random" => Topology::Random { p: req_f64(t, "p", "topology")? },
            other => return Err(format!("unknown topology kind {other:?}")),
        };
    }
    if let Some(j) = v.get("join_topology") {
        s.join_topology = Some(match kind_of(j)? {
            "full_mesh" => JoinTopology::FullMesh,
            "erdos_renyi" => JoinTopology::ErdosRenyi { p: req_f64(j, "p", "join_topology")? },
            other => return Err(format!("unknown join_topology kind {other:?}")),
        });
    }
    if let Some(a) = v.get("arrivals") {
        s.arrivals = match kind_of(a)? {
            "none" => ArrivalProcess::None,
            "poisson" => {
                ArrivalProcess::Poisson { rate_per_s: req_f64(a, "rate_per_s", "arrivals")? }
            }
            "trace" => ArrivalProcess::Trace(
                a.get("times")
                    .and_then(Value::as_array)
                    .ok_or("arrivals.times must be an array")?
                    .iter()
                    .map(|t| t.as_f64().ok_or("arrival times must be numbers".to_string()))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            "gaps" => ArrivalProcess::Gaps(dist_from_value(
                a.get("gap").ok_or("arrivals.gap must be a distribution object")?,
                "arrivals.gap",
            )?),
            other => return Err(format!("unknown arrivals kind {other:?}")),
        };
    }
    if let Some(l) = v.get("lifetime") {
        s.lifetime = match kind_of(l)? {
            "infinite" => SessionLifetime::Infinite,
            "exponential" => {
                SessionLifetime::Exponential { mean_s: req_f64(l, "mean_s", "lifetime")? }
            }
            "weibull" => SessionLifetime::Weibull {
                scale_s: req_f64(l, "scale_s", "lifetime")?,
                shape: req_f64(l, "shape", "lifetime")?,
            },
            "fixed" => SessionLifetime::Fixed { duration_s: req_f64(l, "duration_s", "lifetime")? },
            other => return Err(format!("unknown lifetime kind {other:?}")),
        };
    }
    if let Some(n) = v.get("max_agents") {
        s.max_agents = Some(n.as_usize().ok_or("max_agents must be a usize")?);
    }
    if let Some(b) = v.get("recycle_slots") {
        s.recycle_slots = b.as_bool().ok_or("recycle_slots must be a bool")?;
    }
    if let Some(m) = v.get("aggregation") {
        s.aggregation = match kind_of(m)? {
            "synchronous" => AggregationMode::Synchronous,
            "semi_synchronous" => AggregationMode::SemiSynchronous {
                quorum: req_f64(m, "quorum", "aggregation")?,
                // Absent = no staleness bound, the common configuration
                // (infinity is not representable in JSON).
                staleness_s: m.get("staleness_s").and_then(Value::as_f64).unwrap_or(f64::MAX),
            },
            "asynchronous" => AggregationMode::Asynchronous,
            other => return Err(format!("unknown aggregation kind {other:?}")),
        };
    }
    if let Some(g) = v.get("granularity") {
        s.granularity = match g.as_str() {
            Some("fine") => EventGranularity::Fine,
            Some("coarse") => EventGranularity::Coarse,
            other => return Err(format!("unknown granularity {other:?}")),
        };
    }
    if let Some(r) = v.get("sampling_rate") {
        s.sampling_rate = r.as_f64().ok_or("sampling_rate must be a number")?;
    }
    if let Some(t) = v.get("threads") {
        s.threads = t.as_usize().ok_or("threads must be a positive integer")?;
    }
    if let Some(c) = v.get("churn") {
        s.churn = Some(ChurnPolicy {
            interval: c.get("interval").and_then(Value::as_usize).ok_or("churn.interval")?,
            fraction: req_f64(c, "fraction", "churn")?,
        });
    }
    if let Some(r) = v.get("rounds") {
        s.rounds = r.as_usize().ok_or("rounds must be a usize")?;
    }
    if let Some(d) = v.get("dataset") {
        s.dataset = d.as_str().ok_or("dataset must be a string")?.to_string();
    }
    if let Some(i) = v.get("iid") {
        s.iid = i.as_bool().ok_or("iid must be a bool")?;
    }
    if let Some(t) = v.get("target_accuracy") {
        s.target_accuracy = t.as_f64().ok_or("target_accuracy must be a number")?;
    }
    if let Some(c) = v.get("curve") {
        let a_max = req_f64(c, "a_max", "curve")?;
        let tau = req_f64(c, "tau", "curve")?;
        if !(a_max > 0.0 && a_max <= 1.0 && tau > 0.0) {
            return Err("curve needs a_max in (0, 1] and tau > 0".into());
        }
        s.curve = Some(LearningCurve::new(a_max, tau));
    }
    if let Some(m) = v.get("noniid_mix") {
        s.noniid_mix = Some(m.as_f64().ok_or("noniid_mix must be a number")?);
    }
    if let Some(d) = v.get("churn_dip") {
        s.churn_dip = d.as_f64().ok_or("churn_dip must be a number")?;
    }
    for (key, slot) in [
        ("cpu_dist", &mut s.cpu_dist as &mut Option<DistributionConfig>),
        ("link_dist", &mut s.link_dist),
        ("lifetime_dist", &mut s.lifetime_dist),
    ] {
        if let Some(d) = v.get(key) {
            *slot = Some(dist_from_value(d, key)?);
        }
    }
    if let Some(d) = v.get("diurnal") {
        s.diurnal = Some(DiurnalCycle {
            period_s: req_f64(d, "period_s", "diurnal")?,
            min_factor: req_f64(d, "min_factor", "diurnal")?,
        });
    }
    if let Some(p) = v.get("partition") {
        s.partition = Some(PartitionSchedule {
            groups: p.get("groups").and_then(Value::as_usize).ok_or("partition.groups")?,
            period_s: req_f64(p, "period_s", "partition")?,
            outage_s: req_f64(p, "outage_s", "partition")?,
        });
    }
    if let Some(b) = v.get("byzantine") {
        s.byzantine = Some(ByzantineConfig {
            fraction: req_f64(b, "fraction", "byzantine")?,
            speed_factor: req_f64(b, "speed_factor", "byzantine")?,
        });
    }
    if let Some(p) = v.get("method_params") {
        let mut mp = MethodParams::default();
        if let Some(x) = p.get("fedprox_min_work") {
            mp.fedprox_min_work = x.as_f64().ok_or("fedprox_min_work must be a number")?;
        }
        if let Some(x) = p.get("drop_fraction") {
            mp.drop_fraction = x.as_f64().ok_or("drop_fraction must be a number")?;
        }
        if let Some(x) = p.get("tiers") {
            mp.tiers = x.as_usize().ok_or("tiers must be a usize")?;
        }
        if let Some(x) = p.get("staleness_decay") {
            mp.staleness_decay = x.as_f64().ok_or("staleness_decay must be a number")?;
        }
        if let Some(x) = p.get("sl_agent_layers") {
            mp.sl_agent_layers = x.as_usize().ok_or("sl_agent_layers must be a usize")?;
        }
        if let Some(x) = p.get("sl_server_cpus") {
            mp.sl_server_cpus = x.as_f64().ok_or("sl_server_cpus must be a number")?;
        }
        s.method_params = mp;
    }
    Ok(s)
}

fn scenario_to_value(s: &ScenarioSpec) -> Value {
    let mut fields: Vec<(String, Value)> = vec![
        ("name".into(), Value::Str(s.name.clone())),
        ("agents".into(), Value::Num(s.agents as f64)),
        ("samples_per_agent".into(), Value::Num(s.samples_per_agent as f64)),
        ("batch_size".into(), Value::Num(s.batch_size as f64)),
    ];
    fields.push((
        "topology".into(),
        match s.topology {
            Topology::Full => Value::Obj(vec![("kind".into(), Value::Str("full".into()))]),
            Topology::Ring => Value::Obj(vec![("kind".into(), Value::Str("ring".into()))]),
            Topology::Random { p } => Value::Obj(vec![
                ("kind".into(), Value::Str("random".into())),
                ("p".into(), Value::Num(p)),
            ]),
        },
    ));
    if let Some(j) = s.join_topology {
        fields.push((
            "join_topology".into(),
            match j {
                JoinTopology::FullMesh => {
                    Value::Obj(vec![("kind".into(), Value::Str("full_mesh".into()))])
                }
                JoinTopology::ErdosRenyi { p } => Value::Obj(vec![
                    ("kind".into(), Value::Str("erdos_renyi".into())),
                    ("p".into(), Value::Num(p)),
                ]),
            },
        ));
    }
    fields.push((
        "arrivals".into(),
        match &s.arrivals {
            ArrivalProcess::None => Value::Obj(vec![("kind".into(), Value::Str("none".into()))]),
            ArrivalProcess::Poisson { rate_per_s } => Value::Obj(vec![
                ("kind".into(), Value::Str("poisson".into())),
                ("rate_per_s".into(), Value::Num(*rate_per_s)),
            ]),
            ArrivalProcess::Trace(times) => Value::Obj(vec![
                ("kind".into(), Value::Str("trace".into())),
                ("times".into(), Value::Arr(times.iter().map(|&t| Value::Num(t)).collect())),
            ]),
            ArrivalProcess::Gaps(d) => Value::Obj(vec![
                ("kind".into(), Value::Str("gaps".into())),
                ("gap".into(), dist_to_value(d)),
            ]),
        },
    ));
    fields.push((
        "lifetime".into(),
        match s.lifetime {
            SessionLifetime::Infinite => {
                Value::Obj(vec![("kind".into(), Value::Str("infinite".into()))])
            }
            SessionLifetime::Exponential { mean_s } => Value::Obj(vec![
                ("kind".into(), Value::Str("exponential".into())),
                ("mean_s".into(), Value::Num(mean_s)),
            ]),
            SessionLifetime::Weibull { scale_s, shape } => Value::Obj(vec![
                ("kind".into(), Value::Str("weibull".into())),
                ("scale_s".into(), Value::Num(scale_s)),
                ("shape".into(), Value::Num(shape)),
            ]),
            SessionLifetime::Fixed { duration_s } => Value::Obj(vec![
                ("kind".into(), Value::Str("fixed".into())),
                ("duration_s".into(), Value::Num(duration_s)),
            ]),
        },
    ));
    if let Some(m) = s.max_agents {
        fields.push(("max_agents".into(), Value::Num(m as f64)));
    }
    fields.push(("recycle_slots".into(), Value::Bool(s.recycle_slots)));
    fields.push((
        "aggregation".into(),
        match s.aggregation {
            AggregationMode::Synchronous => {
                Value::Obj(vec![("kind".into(), Value::Str("synchronous".into()))])
            }
            AggregationMode::SemiSynchronous { quorum, staleness_s } => {
                let mut f = vec![
                    ("kind".into(), Value::Str("semi_synchronous".into())),
                    ("quorum".into(), Value::Num(quorum)),
                ];
                if staleness_s.is_finite() && staleness_s != f64::MAX {
                    f.push(("staleness_s".into(), Value::Num(staleness_s)));
                }
                Value::Obj(f)
            }
            AggregationMode::Asynchronous => {
                Value::Obj(vec![("kind".into(), Value::Str("asynchronous".into()))])
            }
        },
    ));
    fields.push((
        "granularity".into(),
        Value::Str(match s.granularity {
            EventGranularity::Fine => "fine".into(),
            EventGranularity::Coarse => "coarse".into(),
        }),
    ));
    fields.push(("sampling_rate".into(), Value::Num(s.sampling_rate)));
    if s.threads != 1 {
        fields.push(("threads".into(), Value::Num(s.threads as f64)));
    }
    if let Some(c) = s.churn {
        fields.push((
            "churn".into(),
            Value::Obj(vec![
                ("interval".into(), Value::Num(c.interval as f64)),
                ("fraction".into(), Value::Num(c.fraction)),
            ]),
        ));
    }
    fields.push(("rounds".into(), Value::Num(s.rounds as f64)));
    fields.push(("dataset".into(), Value::Str(s.dataset.clone())));
    fields.push(("iid".into(), Value::Bool(s.iid)));
    fields.push(("target_accuracy".into(), Value::Num(s.target_accuracy)));
    if let Some(c) = s.curve {
        fields.push((
            "curve".into(),
            Value::Obj(vec![
                ("a_max".into(), Value::Num(c.a_max)),
                ("tau".into(), Value::Num(c.tau)),
            ]),
        ));
    }
    if let Some(m) = s.noniid_mix {
        fields.push(("noniid_mix".into(), Value::Num(m)));
    }
    if s.churn_dip != 0.0 {
        fields.push(("churn_dip".into(), Value::Num(s.churn_dip)));
    }
    for (key, d) in [
        ("cpu_dist", &s.cpu_dist),
        ("link_dist", &s.link_dist),
        ("lifetime_dist", &s.lifetime_dist),
    ] {
        if let Some(d) = d {
            fields.push((key.into(), dist_to_value(d)));
        }
    }
    if let Some(d) = s.diurnal {
        fields.push((
            "diurnal".into(),
            Value::Obj(vec![
                ("period_s".into(), Value::Num(d.period_s)),
                ("min_factor".into(), Value::Num(d.min_factor)),
            ]),
        ));
    }
    if let Some(p) = s.partition {
        fields.push((
            "partition".into(),
            Value::Obj(vec![
                ("groups".into(), Value::Num(p.groups as f64)),
                ("period_s".into(), Value::Num(p.period_s)),
                ("outage_s".into(), Value::Num(p.outage_s)),
            ]),
        ));
    }
    if let Some(b) = s.byzantine {
        fields.push((
            "byzantine".into(),
            Value::Obj(vec![
                ("fraction".into(), Value::Num(b.fraction)),
                ("speed_factor".into(), Value::Num(b.speed_factor)),
            ]),
        ));
    }
    if s.method_params != MethodParams::default() {
        let p = &s.method_params;
        fields.push((
            "method_params".into(),
            Value::Obj(vec![
                ("fedprox_min_work".into(), Value::Num(p.fedprox_min_work)),
                ("drop_fraction".into(), Value::Num(p.drop_fraction)),
                ("tiers".into(), Value::Num(p.tiers as f64)),
                ("staleness_decay".into(), Value::Num(p.staleness_decay)),
                ("sl_agent_layers".into(), Value::Num(p.sl_agent_layers as f64)),
                ("sl_server_cpus".into(), Value::Num(p.sl_server_cpus)),
            ]),
        ));
    }
    Value::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_indices_run_scenario_major_then_method_then_seed() {
        let spec = SweepSpec::new("order")
            .seeds(7, 2)
            .method(Method::ComDml)
            .method(Method::FedAvg)
            .scenario(ScenarioSpec::new("a"))
            .scenario(ScenarioSpec::new("b"));
        let jobs: Vec<(usize, Method, u64)> = (0..spec.num_jobs())
            .map(|i| spec.job(i).map(|j| (j.scenario, j.method, j.seed)).unwrap())
            .collect();
        let mut expected = Vec::new();
        for scenario in 0..2 {
            for method in [Method::ComDml, Method::FedAvg] {
                expected.extend([(scenario, method, 7), (scenario, method, 8)]);
            }
        }
        assert_eq!(jobs, expected);
        assert_eq!(spec.job(spec.num_jobs()), None);
    }

    #[test]
    fn validate_caps_the_job_matrix_and_the_seed_range() {
        let spec = |base: u64, count: usize| {
            SweepSpec::new("cap")
                .seeds(base, count)
                .method(Method::ComDml)
                .scenario(ScenarioSpec::new("a"))
        };
        assert!(spec(1, SweepSpec::MAX_JOBS).validate().is_ok());
        assert!(spec(1, SweepSpec::MAX_JOBS + 1).validate().unwrap_err().contains("cap"));
        assert!(spec(0, usize::MAX).validate().unwrap_err().contains("cap"));
        assert_eq!(spec(1, usize::MAX).method(Method::FedAvg).num_jobs(), usize::MAX);
        assert!(spec(u64::MAX - 2, 2).validate().is_ok());
        assert!(spec(u64::MAX - 2, 3).validate().unwrap_err().contains("overflows"));
    }

    fn full_spec() -> SweepSpec {
        SweepSpec::new("demo")
            .seeds(7, 3)
            .method(Method::ComDml)
            .method(Method::FedAvg)
            .scenario(ScenarioSpec::new("static"))
            .scenario(
                ScenarioSpec::new("churny")
                    .agents(24)
                    .topology(Topology::random(0.2))
                    .arrivals(ArrivalProcess::Poisson { rate_per_s: 0.01 })
                    .lifetime(SessionLifetime::Weibull { scale_s: 900.0, shape: 0.7 })
                    .aggregation(AggregationMode::SemiSynchronous {
                        quorum: 0.8,
                        staleness_s: f64::MAX,
                    })
                    .sampling_rate(0.2)
                    .churn(ChurnPolicy { interval: 10, fraction: 0.2 })
                    .rounds(12)
                    .dataset("cifar100", false)
                    .target(0.6)
                    .noniid_mix(0.35)
                    .churn_dip(0.4)
                    .method_params(MethodParams {
                        fedprox_min_work: 0.25,
                        drop_fraction: 0.4,
                        tiers: 3,
                        staleness_decay: 0.75,
                        sl_agent_layers: 24,
                        sl_server_cpus: 12.5,
                    }),
            )
            .scenario(
                ScenarioSpec::new("custom_curve").curve(LearningCurve::new(0.82, 9.5)).target(0.7),
            )
    }

    #[test]
    fn spec_round_trips_through_text() {
        let spec = full_spec();
        let text = spec.render();
        let back = SweepSpec::parse(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.render(), text, "render is deterministic");
    }

    #[test]
    fn terse_specs_fill_defaults() {
        let text = r#"{
            "name": "t",
            "seeds": {"base": 1, "count": 2},
            "methods": ["comdml"],
            "scenarios": [{"name": "s"}]
        }"#;
        let spec = SweepSpec::parse(text).unwrap();
        assert_eq!(spec.scenarios[0], ScenarioSpec::new("s"));
        assert_eq!(spec.num_jobs(), 2);
    }

    #[test]
    fn trace_arrivals_round_trip() {
        let spec = SweepSpec::new("t").seeds(1, 1).method(Method::Gossip).scenario(
            ScenarioSpec::new("traced")
                .arrivals(ArrivalProcess::Trace(vec![5.0, 10.5, 400.0]))
                .lifetime(SessionLifetime::Fixed { duration_s: 60.0 }),
        );
        assert_eq!(SweepSpec::parse(&spec.render()).unwrap(), spec);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        assert!(SweepSpec::new("x").validate().is_err(), "no methods/scenarios");
        let dup = SweepSpec::new("x")
            .method(Method::ComDml)
            .scenario(ScenarioSpec::new("a"))
            .scenario(ScenarioSpec::new("a"));
        assert!(dup.validate().unwrap_err().contains("unique"));
        let bad_rate = SweepSpec::new("x")
            .method(Method::ComDml)
            .scenario(ScenarioSpec::new("a").sampling_rate(0.0));
        assert!(bad_rate.validate().is_err());
        let bad_dataset = SweepSpec::new("x")
            .method(Method::ComDml)
            .scenario(ScenarioSpec::new("a").dataset("mnist", true));
        assert!(bad_dataset.validate().is_err());
    }

    #[test]
    fn validation_rejects_out_of_range_distribution_parameters() {
        let wrap = |s: ScenarioSpec| SweepSpec::new("x").method(Method::ComDml).scenario(s);
        // A struct-literal Random { p } bypasses Topology::random's assert,
        // so validate() must catch it before a worker thread panics.
        let bad_p = wrap(ScenarioSpec::new("a").topology(Topology::Random { p: 1.5 }));
        assert!(bad_p.validate().unwrap_err().contains("topology p"));
        let mut s = ScenarioSpec::new("a");
        s.join_topology = Some(JoinTopology::ErdosRenyi { p: -0.1 });
        assert!(wrap(s).validate().unwrap_err().contains("join_topology"));
        let bad_life =
            wrap(ScenarioSpec::new("a").lifetime(SessionLifetime::Exponential { mean_s: 0.0 }));
        assert!(bad_life.validate().unwrap_err().contains("mean_s"));
        let bad_trace =
            wrap(ScenarioSpec::new("a").arrivals(ArrivalProcess::Trace(vec![5.0, 1.0])));
        assert!(bad_trace.validate().unwrap_err().contains("ascending"));
        let bad_churn =
            wrap(ScenarioSpec::new("a").churn(ChurnPolicy { interval: 5, fraction: 1.5 }));
        assert!(bad_churn.validate().unwrap_err().contains("churn"));
        let bad_rate =
            wrap(ScenarioSpec::new("a").arrivals(ArrivalProcess::Poisson { rate_per_s: f64::NAN }));
        assert!(bad_rate.validate().unwrap_err().contains("arrival rate"));
    }

    #[test]
    fn unknown_fields_and_tokens_error() {
        assert!(Method::from_token("sgd").is_err());
        let bad = r#"{"name":"t","seeds":{"base":1,"count":1},"methods":["comdml"],
                      "scenarios":[{"name":"s","topology":{"kind":"torus"}}]}"#;
        assert!(SweepSpec::parse(bad).unwrap_err().contains("torus"));
    }

    #[test]
    fn method_tokens_are_bijective() {
        assert_eq!(Method::ALL.len(), 9, "ComDML plus all eight baselines");
        for m in Method::ALL {
            assert_eq!(Method::from_token(m.token()).unwrap(), m);
        }
    }

    #[test]
    fn learning_curve_resolves_override_mix_and_selection() {
        let s = ScenarioSpec::new("a").dataset("cifar100", false);
        assert_eq!(s.learning_curve(), LearningCurve::cifar100(false));
        let mixed = ScenarioSpec::new("a").noniid_mix(0.5);
        let iid = LearningCurve::cifar10(true);
        let non = LearningCurve::cifar10(false);
        assert_eq!(mixed.learning_curve(), iid.blend(non, 0.5));
        // Endpoints match the pure selections exactly.
        assert_eq!(ScenarioSpec::new("a").noniid_mix(0.0).learning_curve(), iid);
        assert_eq!(ScenarioSpec::new("a").noniid_mix(1.0).learning_curve(), non);
        // An explicit curve wins over everything.
        let forced = ScenarioSpec::new("a").noniid_mix(0.5).curve(LearningCurve::new(0.7, 4.0));
        assert_eq!(forced.learning_curve(), LearningCurve::new(0.7, 4.0));
    }

    #[test]
    fn validation_rejects_bad_accuracy_model_knobs() {
        let wrap = |s: ScenarioSpec| SweepSpec::new("x").method(Method::ComDml).scenario(s);
        let bad_mix = wrap(ScenarioSpec::new("a").noniid_mix(1.5));
        assert!(bad_mix.validate().unwrap_err().contains("noniid_mix"));
        let bad_dip = wrap(ScenarioSpec::new("a").churn_dip(-0.5));
        assert!(bad_dip.validate().unwrap_err().contains("churn_dip"));
        // Target at/above the resolved asymptote must fail validation, not
        // panic in a worker.
        let unreachable = wrap(ScenarioSpec::new("a").curve(LearningCurve::new(0.6, 5.0)));
        assert!(unreachable.validate().unwrap_err().contains("unreachable"));
        let with_params =
            |p: MethodParams| wrap(ScenarioSpec::new("a").method_params(p)).validate().unwrap_err();
        let d = MethodParams::default();
        assert!(with_params(MethodParams { drop_fraction: 1.0, ..d }).contains("drop_fraction"));
        assert!(with_params(MethodParams { tiers: 0, ..d }).contains("tiers"));
        assert!(with_params(MethodParams { sl_agent_layers: 56, ..d }).contains("sl_agent_layers"));
        assert!(
            with_params(MethodParams { fedprox_min_work: 0.0, ..d }).contains("fedprox_min_work")
        );
    }

    #[test]
    fn curve_json_rejects_out_of_range_constants() {
        let bad = r#"{"name":"t","seeds":{"base":1,"count":1},"methods":["comdml"],
            "scenarios":[{"name":"s","curve":{"a_max":1.5,"tau":3.0}}]}"#;
        assert!(SweepSpec::parse(bad).unwrap_err().contains("curve"));
    }

    #[test]
    fn default_method_params_render_tersely() {
        let spec =
            SweepSpec::new("t").seeds(1, 1).method(Method::ComDml).scenario(ScenarioSpec::new("s"));
        let text = spec.render();
        assert!(!text.contains("method_params"), "defaults stay out of rendered specs");
        assert!(!text.contains("churn_dip"));
        assert!(!text.contains("noniid_mix"));
    }

    #[test]
    fn semi_sync_staleness_defaults_to_unbounded() {
        let text = r#"{"name":"t","seeds":{"base":1,"count":1},"methods":["comdml"],
            "scenarios":[{"name":"s","aggregation":{"kind":"semi_synchronous","quorum":0.5}}]}"#;
        let spec = SweepSpec::parse(text).unwrap();
        assert_eq!(
            spec.scenarios[0].aggregation,
            AggregationMode::SemiSynchronous { quorum: 0.5, staleness_s: f64::MAX }
        );
    }
}
