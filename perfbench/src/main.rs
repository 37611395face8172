//! The ComDML workspace benchmark: drives one workload through the
//! workspace's public entry points, checks every output, and prints the
//! raw measurements as one JSON line.
//!
//! ```sh
//! perfbench --workload fleet_1m_cohort --seed 42 --seconds 10
//! COMDML_TRACE=trace.jsonl perfbench --workload farm_paper_grid --seed 42 --seconds 10
//! ```
//!
//! `run.py` next to this package builds it, runs it once with
//! observability off (end-to-end metrics) or twice, off and traced
//! (per-layer metrics plus tracing overhead), and prints the result in the
//! benchmark's output format. See `README.md` for the workloads and the
//! meaning of every metric.

mod farm;
mod fleet;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use comdml_obs::Value;

/// The seed the pinned digests were captured at. Other seeds skip the pins
/// and keep the invariants.
pub const DEFAULT_SEED: u64 = 42;

/// What one workload run measured. Times are host time.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall milliseconds of each timed op.
    pub op_ms: Vec<f64>,
    /// Work units (participant-rounds or fetched rows) per host second of
    /// each window of the timed section: a fleet step or a farm op. Their
    /// median is the reported throughput.
    pub rates: Vec<f64>,
    /// Wall seconds of the timed section.
    pub timed_s: f64,
    /// Minor page faults the process took in the timed section.
    pub timed_faults: u64,
    /// Ops attempted, in and around the timed section.
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// Run-level checks (pins, determinism, pairing coverage) that failed.
    pub check_failures: Vec<String>,
    /// Per-layer metrics, filled only when observability is on.
    pub layers: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records a failed run-level check.
    pub fn fail_check(&mut self, what: String) {
        comdml_obs::error!("perfbench", "check failed: {what}");
        self.check_failures.push(what);
    }

    /// Counts one op and whether its output check passed.
    pub fn op_checked(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.failed += 1;
            comdml_obs::error!("perfbench", "op {} failed its check: {e}", self.attempted);
        }
    }
}

/// Median of a sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank `q`-quantile of a sample (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The tail percentile of `n` samples: the highest one with at least ten
/// samples beyond it, capped at p90. Above p90 a run's tail is a handful of
/// ops that met a host scheduling hiccup or the one slowest input of the
/// seed: the fleets' p98 spread 45-50 % between runs of one commit.
pub fn tail_q(n: usize) -> f64 {
    if n <= 10 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.9)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-up times that are microseconds long are timed in batches of `batch`
/// repetitions, each sample the batch mean, so timer resolution and one-off
/// stalls do not dominate.
pub fn batched_setup_times(samples: usize, batch: usize, mut setup: impl FnMut()) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                setup();
            }
            start.elapsed().as_secs_f64() / batch as f64
        })
        .collect()
}

/// Minor page faults this process has taken (`minflt` of
/// `/proc/self/stat`; 0 where that file is missing).
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The fields after the parenthesised command name start at `state`
    // (field 3); `minflt` is field 10.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// Calls `op` at least once and until `budget` has elapsed, returning the
/// timed section's wall seconds and the minor page faults taken in it.
pub fn closed_loop(budget: Duration, mut op: impl FnMut()) -> (f64, u64) {
    let faults = minor_faults();
    let start = Instant::now();
    loop {
        op();
        if start.elapsed() >= budget {
            return (start.elapsed().as_secs_f64(), minor_faults() - faults);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    op_jobs: Option<usize>,
}

const USAGE: &str = "usage: perfbench --workload <fleet_1m_cohort|fleet_lognormal_1k|\
                     farm_paper_grid> [--seed N] [--seconds S] [--op-jobs N]";

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, op_jobs: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--op-jobs" => {
                args.op_jobs = Some(value()?.parse().map_err(|e| format!("--op-jobs: {e}"))?)
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if args.workload.is_empty() {
        return Err(USAGE.into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The traced run is configured through `COMDML_TRACE`; read it now so
    // every later observability site sees the final state.
    let traced = comdml_obs::metrics_enabled();
    let budget = Duration::from_secs_f64(args.seconds);
    let outcome = match args.workload.as_str() {
        "fleet_1m_cohort" => fleet::run(fleet::Fleet::Cohort1m, args.seed, budget, traced),
        "fleet_lognormal_1k" => fleet::run(fleet::Fleet::Lognormal1k, args.seed, budget, traced),
        "farm_paper_grid" => farm::run(args.seed, budget, traced, args.op_jobs),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    comdml_obs::flush_trace();

    let n = outcome.op_ms.len();
    let q = tail_q(n);
    let mut metrics: Vec<(&str, f64)> = vec![
        ("setup_s", median(&outcome.setup_s)),
        ("throughput_per_s", median(&outcome.rates)),
        ("latency_ms_p50", median(&outcome.op_ms)),
        ("latency_ms_tail", quantile(&outcome.op_ms, q)),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    metrics.extend(outcome.layers.iter().copied());
    if traced {
        metrics.push(("mem.minor_faults_per_op", outcome.timed_faults as f64 / n.max(1) as f64));
    }
    println!(
        "{}: {n} ops in {:.2} s, tail = p{:.2} of {n} samples, setup median of {}",
        args.workload,
        outcome.timed_s,
        q * 100.0,
        outcome.setup_s.len()
    );
    for (name, v) in &metrics {
        println!("  {name:<36} {v:.6}");
    }
    let correct = outcome.check_failures.is_empty() && outcome.failed == 0;
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(outcome.attempted as f64)),
        ("failed".into(), Value::Num(outcome.failed as f64)),
        ("tail_percentile".into(), Value::Num(q * 100.0)),
        ("samples".into(), Value::Num(n as f64)),
        (
            "metrics".into(),
            Value::Obj(metrics.iter().map(|(k, v)| (k.to_string(), Value::Num(*v))).collect()),
        ),
    ]);
    println!("{}", line.render_compact());
    ExitCode::SUCCESS
}
