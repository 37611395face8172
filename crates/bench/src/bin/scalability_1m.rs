//! Million-agent scalability benchmark: a 1,000,000-agent fleet under
//! continuous Poisson arrival / exponential-departure churn, driven for 100
//! semi-synchronous rounds end to end through `FleetSim` at the coarse
//! event granularity.
//!
//! Per-round participation sampling (5% cohorts, the cross-device regime
//! the paper's fleet sections assume) keeps each round's pairing and event
//! load at the ~50k-agent scale while the membership process, world state
//! and churn run over the full million agents. The target is < 60 s wall
//! for the whole run; the measured wall lands in
//! `target/experiments/BENCH_scalability_1m.json`, which the CI perf gate
//! compares against `ci/bench-baselines/BENCH_scalability_1m.json`.
//!
//! ```sh
//! cargo run --release --bin scalability_1m            # full 1M benchmark
//! cargo run --release --bin scalability_1m -- --smoke # 100k determinism check
//! ```
//!
//! `--smoke` runs a reduced 100,000-agent × 10-round fleet twice — pair
//! batches inline (threads = 1) and on 8 threads — and fails (exit code 1)
//! unless the two report digests match bit for bit: the parallel path must
//! be indistinguishable from the sequential one.
//!
//! `--smoke` then runs the cohort-scaling leg: a 1M-agent world at 1%
//! sampling and a 10M-agent world at 0.1% sampling — the same ~10k cohort,
//! and the same absolute churn (100 arrivals/s against sessions sized to
//! hold each world in equilibrium), so only the world size differs. After
//! one untimed opening round (it scans every agent's solo time for the
//! planning horizon), each world steps [`SCALING_ROUNDS`] rounds, and the
//! leg fails unless the 10M median per-round wall outside `fleet.sample`
//! (the participation sampler, which must shuffle the whole active list to
//! keep its pinned output) is within [`SCALING_BOUND`]× of the 1M one: a
//! round must cost O(cohort + membership events), not O(world).
//!
//! After each leg the binary prints the process's peak resident set
//! (`VmHWM`) in MiB and per agent of the largest world built so far, so a
//! smoke log shows the 10M-agent footprint. It is reported, not gated.

use std::time::Instant;

use comdml_bench::{BenchEntry, BenchRecord};
use comdml_core::{AggregationMode, ComDmlConfig, EventGranularity, FleetSim};
use comdml_simnet::{ArrivalProcess, FleetConfig, SessionLifetime};

const AGENTS: usize = 1_000_000;
const ROUNDS: usize = 100;
const SEED: u64 = 42;
/// Cross-device cohort: 5% of the live fleet participates per round.
const SAMPLING_RATE: f64 = 0.05;
/// Wall-clock budget for the full run (the tentpole target).
const TARGET_WALL_S: f64 = 60.0;
/// Timed rounds per world of the cohort-scaling leg.
const SCALING_ROUNDS: usize = 5;
/// Largest allowed 10M / 1M ratio of per-round wall outside sampling.
const SCALING_BOUND: f64 = 2.0;
/// Absolute arrival rate of both cohort-scaling worlds, agents per second.
const SCALING_ARRIVALS_PER_S: f64 = 100.0;

/// Same birth-death equilibrium as `fleet_churn`, scaled to the fleet:
/// ~1 arrival/s per 10,000 agents against 10,000 s mean sessions.
fn fleet(agents: usize) -> FleetConfig {
    FleetConfig::new(agents, SEED)
        .arrivals(ArrivalProcess::Poisson { rate_per_s: agents as f64 / 10_000.0 })
        .lifetime(SessionLifetime::Exponential { mean_s: 10_000.0 })
        .samples_per_agent(500)
        .batch_size(100)
        .max_agents(2 * agents)
        .recycle_slots(true)
}

fn config(threads: usize) -> ComDmlConfig {
    ComDmlConfig {
        churn: None, // membership churn is the subject; profiles stay fixed
        aggregation: AggregationMode::SemiSynchronous { quorum: 0.8, staleness_s: f64::MAX },
        candidate_offloads: Some(vec![8, 16, 24, 32, 40, 48]),
        granularity: EventGranularity::Coarse,
        sampling_rate: SAMPLING_RATE,
        threads,
        ..ComDmlConfig::default()
    }
}

struct RunStats {
    digest: u64,
    wall_s: f64,
    events: u64,
    peak_agents: usize,
    sim_total_s: f64,
    phases: Vec<(String, f64)>,
    /// Agents in the world when the run ended (departed slots included).
    world_agents: usize,
}

fn run(name: &str, agents: usize, rounds: usize, threads: usize) -> RunStats {
    let build = Instant::now();
    let mut sim = FleetSim::new(fleet(agents), config(threads));
    let build_s = build.elapsed().as_secs_f64();
    comdml_obs::metrics().reset();
    let start = Instant::now();
    let report = sim.run(rounds);
    let wall_s = start.elapsed().as_secs_f64();
    let phases = comdml_obs::metrics().snapshot().phase_totals();
    // Order-sensitive digest over the quantities that must reproduce
    // (same fold as `fleet_churn`).
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for v in [
        report.total_sim_s.to_bits(),
        report.effective_rounds.to_bits(),
        report.events_processed,
        report.peak_agents as u64,
        report.arrivals as u64,
        report.departures as u64,
    ] {
        digest = (digest ^ v).wrapping_mul(0x1000_0000_01b3);
    }
    println!(
        "{name:<22} {rounds:>3} rounds of {agents}: sim {:>10.1}s, {:>9} events, \
         peak {} agents, +{}/-{} churn, build {build_s:.2}s, wall {wall_s:.2}s \
         ({:.2} M events/s)",
        report.total_sim_s,
        report.events_processed,
        report.peak_agents,
        report.arrivals,
        report.departures,
        report.events_processed as f64 / wall_s / 1e6,
    );
    RunStats {
        digest,
        wall_s,
        events: report.events_processed,
        peak_agents: report.peak_agents,
        sim_total_s: report.total_sim_s,
        phases,
        world_agents: sim.fleet().world().num_agents(),
    }
}

/// Prints the process's peak resident set (`VmHWM` of `/proc/self/status`,
/// absent on systems without it) after `leg`, in MiB and per agent of the
/// largest world the process has built, `world_agents`.
fn print_peak_rss(leg: &str, world_agents: usize) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    match kib {
        Some(kib) => println!(
            "{leg}: peak RSS {:.0} MiB, {:.0} B per agent of the {world_agents}-agent world",
            kib / 1024.0,
            kib * 1024.0 / world_agents as f64
        ),
        None => println!("{leg}: peak RSS unavailable (no VmHWM in /proc/self/status)"),
    }
}

/// Median per-round wall, in ms, outside `fleet.sample` for a world of
/// `agents` sampled at `rate`, with churn fixed at
/// [`SCALING_ARRIVALS_PER_S`] both ways, and the world's final size.
fn cohort_round_ms(agents: usize, rate: f64) -> (f64, usize) {
    let fleet = FleetConfig::new(agents, SEED)
        .arrivals(ArrivalProcess::Poisson { rate_per_s: SCALING_ARRIVALS_PER_S })
        .lifetime(SessionLifetime::Exponential { mean_s: agents as f64 / SCALING_ARRIVALS_PER_S })
        .samples_per_agent(500)
        .batch_size(100)
        .max_agents(2 * agents)
        .recycle_slots(true);
    let mut sim = FleetSim::new(fleet, ComDmlConfig { sampling_rate: rate, ..config(1) });
    sim.step();
    let sample_ms = || comdml_obs::metrics().histogram("phase.fleet.sample").map_or(0.0, |h| h.sum);
    let mut per_round: Vec<f64> = (0..SCALING_ROUNDS)
        .map(|_| {
            let before = sample_ms();
            let start = Instant::now();
            let s = sim.step();
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            let outside = wall_ms - (sample_ms() - before);
            println!(
                "  {agents:>9} agents: {:>5} sampled, wall {wall_ms:>7.1} ms, outside sampling \
                 {outside:>7.1} ms",
                s.sampled
            );
            outside
        })
        .collect();
    per_round.sort_by(f64::total_cmp);
    (per_round[per_round.len() / 2], sim.fleet().world().num_agents())
}

fn main() -> std::process::ExitCode {
    comdml_obs::set_metrics_enabled(true);
    let smoke = std::env::args().any(|a| a == "--smoke");

    if smoke {
        // Reduced-size determinism check: the parallel pair-batch path must
        // reproduce the sequential digests bit for bit.
        println!("scalability_1m --smoke: 100,000 agents x 10 rounds, threads 1 vs 8\n");
        let sequential = run("smoke_sequential", 100_000, 10, 1);
        let parallel = run("smoke_parallel_t8", 100_000, 10, 8);
        if sequential.digest != parallel.digest {
            comdml_obs::error!(
                "scalability_1m",
                "digest mismatch: sequential {:016x} != 8-thread {:016x}",
                sequential.digest,
                parallel.digest
            );
            return std::process::ExitCode::FAILURE;
        }
        println!("\nsmoke: ok (digest {:016x}, threads 1 == threads 8)", sequential.digest);
        print_peak_rss("smoke", sequential.world_agents);

        println!("\ncohort scaling: ~10k cohorts of 1M and 10M worlds\n");
        let (small, _) = cohort_round_ms(1_000_000, 0.01);
        let (large, large_agents) = cohort_round_ms(10_000_000, 0.001);
        print_peak_rss("\ncohort scaling", large_agents);
        let ratio = large / small;
        println!(
            "\nper-round wall outside sampling (median of {SCALING_ROUNDS}): 1M {small:.1} ms, \
             10M {large:.1} ms, ratio {ratio:.2} (bound {SCALING_BOUND})"
        );
        if ratio > SCALING_BOUND {
            comdml_obs::error!(
                "scalability_1m",
                "10M world's round costs {ratio:.2}x the 1M world's outside sampling \
                 (bound {SCALING_BOUND}x): a round is paying for the world, not the cohort"
            );
            return std::process::ExitCode::FAILURE;
        }
        println!("cohort scaling: ok");
        return std::process::ExitCode::SUCCESS;
    }

    println!(
        "scalability_1m: {AGENTS} agents, {ROUNDS} semi-sync churning rounds, \
         {:.0}% cohorts\n",
        SAMPLING_RATE * 100.0
    );
    let stats = run("semi_sync_q80", AGENTS, ROUNDS, 1);
    print_peak_rss("\nsemi_sync_q80", stats.world_agents);
    let verdict = if stats.wall_s < TARGET_WALL_S { "within" } else { "OVER" };
    println!("\ntarget: {verdict} the {TARGET_WALL_S:.0} s budget ({:.2} s)", stats.wall_s);

    let mut record = BenchRecord::new("scalability_1m", AGENTS, ROUNDS);
    record.push(BenchEntry {
        mode: "semi_sync_q80".into(),
        wall_ms: stats.wall_s * 1e3,
        events_processed: stats.events,
        peak_agents: stats.peak_agents,
        sim_total_s: stats.sim_total_s,
        rounds: ROUNDS,
        phases: stats.phases,
    });
    match record.write_default() {
        Ok(path) => println!("bench record written to {}", path.display()),
        Err(e) => comdml_obs::error!("scalability_1m", "failed to write bench record: {e}"),
    }
    std::process::ExitCode::SUCCESS
}
