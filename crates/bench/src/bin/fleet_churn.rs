//! Elastic-fleet stress test: 10,000 agents, 1,000 rounds of continuous
//! Poisson arrival / exponential-departure churn, driven end to end through
//! `FleetSim` (membership process → pairing → event round → staleness-aware
//! learning accounting) at the coarse event granularity.
//!
//! Emits both the human-readable summary and the machine-readable
//! `target/experiments/BENCH_fleet.json` the CI perf-regression gate
//! compares against `ci/bench-baselines/BENCH_fleet.json`.
//!
//! The headline configuration (semi-synchronous, 1,000 rounds) runs after a
//! two-run same-seed determinism check on a shorter prefix; the remaining
//! aggregation modes and a FedAvg barrier driven by the *same* membership
//! process run shorter sweeps for the mode-divergence comparison.
//!
//! ```sh
//! cargo run --release --bin fleet_churn
//! ```

use std::time::Instant;

use comdml_baselines::{BaselineConfig, FedAvg};
use comdml_bench::{BenchEntry, BenchRecord};
use comdml_core::{AggregationMode, ComDmlConfig, EventGranularity, FleetSim, RoundEngine};
use comdml_simnet::{ArrivalProcess, FleetConfig, SessionLifetime};

const AGENTS: usize = 10_000;
const ROUNDS: usize = 1_000;
const SEED: u64 = 42;
/// ~1 arrival/s against a 10,000-agent fleet with 10,000 s mean sessions:
/// the birth-death equilibrium sits at the initial size, with roughly 20
/// joins and 20 leaves per ~20 s round.
const ARRIVAL_RATE: f64 = 1.0;
const MEAN_SESSION_S: f64 = 10_000.0;

fn fleet(agents: usize) -> FleetConfig {
    FleetConfig::new(agents, SEED)
        .arrivals(ArrivalProcess::Poisson { rate_per_s: ARRIVAL_RATE * agents as f64 / 10_000.0 })
        .lifetime(SessionLifetime::Exponential { mean_s: MEAN_SESSION_S })
        .samples_per_agent(500)
        .batch_size(100)
        .max_agents(4 * agents)
}

fn config(mode: AggregationMode) -> ComDmlConfig {
    ComDmlConfig {
        churn: None, // membership churn is the subject; profiles stay fixed
        aggregation: mode,
        candidate_offloads: Some(vec![8, 16, 24, 32, 40, 48]),
        granularity: EventGranularity::Coarse,
        ..ComDmlConfig::default()
    }
}

/// Runs one configuration and returns (report digest bits, entry).
fn run_mode<E: RoundEngine>(name: &str, mut sim: FleetSim<E>, rounds: usize) -> (u64, BenchEntry) {
    comdml_obs::metrics().reset();
    let start = Instant::now();
    let report = sim.run(rounds);
    let wall = start.elapsed();
    let phases = comdml_obs::metrics().snapshot().phase_totals();
    // Order-sensitive digest over the quantities that must reproduce.
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
        "{name:<16} {rounds:>4} rounds: sim {:>9.1}s, eff rounds {:>7.1} (factor {:.3}), \
         {:>9} events, peak {} agents, +{}/-{} churn, wall {:.2}s",
        report.total_sim_s,
        report.effective_rounds,
        report.rounds_factor,
        report.events_processed,
        report.peak_agents,
        report.arrivals,
        report.departures,
        wall.as_secs_f64()
    );
    (
        digest,
        BenchEntry {
            mode: name.to_string(),
            wall_ms: wall.as_secs_f64() * 1e3,
            events_processed: report.events_processed,
            peak_agents: report.peak_agents,
            sim_total_s: report.total_sim_s,
            rounds,
            phases,
        },
    )
}

fn main() {
    // Phase attribution for the bench record; spans observe the run and
    // never touch its RNG or event order, so the determinism gate below
    // still holds bit for bit.
    comdml_obs::set_metrics_enabled(true);
    println!("fleet_churn: {AGENTS} agents, Poisson churn, coarse granularity\n");

    // Determinism gate: two same-seed runs of a shorter prefix must agree
    // bit for bit before the headline numbers mean anything.
    let semi = AggregationMode::SemiSynchronous { quorum: 0.8, staleness_s: f64::MAX };
    let comdml = |mode| FleetSim::new(fleet(AGENTS), config(mode));
    let (d1, _) = run_mode("determinism_a", comdml(semi), 100);
    let (d2, _) = run_mode("determinism_b", comdml(semi), 100);
    assert_eq!(d1, d2, "same-seed fleet runs must reproduce exactly");
    println!("determinism: ok (digest {d1:016x})\n");

    let mut record = BenchRecord::new("fleet", AGENTS, ROUNDS);

    // Headline: the full 1,000-round churn simulation.
    let (_, entry) = run_mode("semi_sync_q80", comdml(semi), ROUNDS);
    record.push(entry);

    // Mode divergence on a shorter sweep.
    for (name, mode) in [
        ("synchronous", AggregationMode::Synchronous),
        ("asynchronous", AggregationMode::Asynchronous),
    ] {
        let (_, entry) = run_mode(name, comdml(mode), ROUNDS / 4);
        record.push(entry);
    }

    // FedAvg barrier under the *same* membership process: same seed, same
    // arrival/departure timeline, round boundaries at FedAvg's own pace.
    // Slot recycling keeps the barrier run from saturating `max_agents` and
    // silently dropping arrivals (FedAvg rounds are far longer than
    // ComDML's, so its world sees many more sessions).
    let fedavg = FleetSim::with_engine(
        fleet(AGENTS).recycle_slots(true).build(),
        config(AggregationMode::Synchronous),
        FedAvg::new(BaselineConfig::default()),
    );
    let (_, entry) = run_mode("fedavg_barrier", fedavg, ROUNDS / 4);
    record.push(entry);

    match record.write_default() {
        Ok(path) => println!("\nbench record written to {}", path.display()),
        Err(e) => comdml_obs::error!("fleet_churn", "failed to write bench record: {e}"),
    }
}
