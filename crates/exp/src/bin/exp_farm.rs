//! The distributed sweep farm's command surface: one binary, five
//! subcommands, all speaking the shared `exp::cli` dialect.
//!
//! ```sh
//! # On the coordinating host (the journal lets a restart resume the sweep):
//! cargo run --release --bin exp_farm -- coordinator --addr 0.0.0.0:7700 \
//!     --journal farm.jsonl
//!
//! # On every compute host (heterogeneous is fine — that's the point):
//! cargo run --release --bin exp_farm -- worker --addr coord:7700
//!
//! # From anywhere:
//! cargo run --release --bin exp_farm -- submit @table3 --addr coord:7700 --wait
//! cargo run --release --bin exp_farm -- status 1 --addr coord:7700
//! cargo run --release --bin exp_farm -- fetch 1 --addr coord:7700
//! ```
//!
//! `submit --wait` polls progress and, once the sweep completes, fetches
//! the report and writes the standard artifacts — byte-identical to a
//! single-process `exp_sweep` run of the same spec, whatever the worker
//! fleet did along the way. A coordinator restarted on the same
//! `--journal` keeps its sweep ids and recomputes only the jobs whose rows
//! it had not yet journaled, so the artifacts stay byte-identical across a
//! crash too.

use std::process::ExitCode;
use std::time::Duration;

use comdml_exp::cli::{self, FlagSpec};
use comdml_exp::{farm, FarmConfig, WorkerOptions};

const SLICE: FlagSpec = FlagSpec {
    name: "slice",
    aliases: &[],
    takes_value: true,
    help: "jobs per work slice (default: 4)",
};
const TIMEOUT_S: FlagSpec = FlagSpec {
    name: "timeout-s",
    aliases: &[],
    takes_value: true,
    help: "seconds of worker silence before a slice is requeued (default: 10)",
};
const NAME: FlagSpec = FlagSpec {
    name: "name",
    aliases: &[],
    takes_value: true,
    help: "worker name shown in the coordinator log (default: hostname-ish)",
};
const MAX_JOBS: FlagSpec = FlagSpec {
    name: "max-jobs",
    aliases: &[],
    takes_value: true,
    help: "die abruptly after N jobs (fault-injection aid)",
};
const JOURNAL: FlagSpec = FlagSpec {
    name: "journal",
    aliases: &[],
    takes_value: true,
    help: "append-only JSONL journal, replayed on restart (default: none)",
};
const WAIT: FlagSpec = FlagSpec {
    name: "wait",
    aliases: &[],
    takes_value: false,
    help: "poll until complete, then fetch and write artifacts",
};

const USAGE: &str = "coordinator|worker|submit|status|fetch [flags]
  coordinator [--addr A] [--slice N] [--timeout-s S] [--journal PATH] [--quiet]
  worker      [--addr A] [--workers N] [--name S] [--max-jobs N]
  submit      <spec.json | @preset> [--addr A] [--seeds N] [--wait] [--out-dir D] [--quiet]
  status      <sweep-id> [--addr A]
  fetch       <sweep-id> [--addr A] [--out-dir D]";

fn addr_of(args: &cli::ParsedArgs) -> String {
    args.value("addr").unwrap_or(farm::DEFAULT_ADDR).to_string()
}

fn write_artifacts(
    report: &comdml_exp::SweepReport,
    out_dir: &std::path::Path,
) -> Result<(), String> {
    print!("{}", report.render_table());
    let (json, csv) = report.write_to(out_dir).map_err(|e| format!("write report: {e}"))?;
    println!("report written to {} and {}", json.display(), csv.display());
    let (json, csv, svgs) =
        report.write_curves_to(out_dir).map_err(|e| format!("write curves: {e}"))?;
    println!(
        "curves written to {}, {} and {} scenario panel(s)",
        json.display(),
        csv.display(),
        svgs.len()
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let mut argv = std::env::args().skip(1);
    let sub = argv.next().ok_or_else(|| format!("usage: exp_farm {USAGE}"))?;
    match sub.as_str() {
        "coordinator" => {
            let args = cli::parse(
                "exp_farm coordinator",
                "[flags]",
                &[cli::ADDR, SLICE, TIMEOUT_S, JOURNAL, cli::QUIET],
                argv,
            )?;
            // The coordinator's event log is the whole point of running it
            // in a terminal: default to `info` unless the operator chose a
            // filter (COMDML_LOG) or asked for quiet.
            if !args.has("quiet") && std::env::var("COMDML_LOG").is_err() {
                comdml_obs::set_log_filter("info");
            }
            let mut cfg = FarmConfig {
                quiet: args.has("quiet"),
                journal: args.value("journal").map(Into::into),
                ..FarmConfig::default()
            };
            if let Some(n) = args.parsed::<usize>("slice")? {
                cfg.slice_size = n.max(1);
            }
            if let Some(s) = args.parsed::<f64>("timeout-s")? {
                cfg.worker_timeout = Duration::from_secs_f64(s.max(0.1));
            }
            let coordinator =
                farm::Coordinator::bind(&addr_of(&args), cfg).map_err(|e| format!("bind: {e}"))?;
            println!("farm coordinator listening on {}", coordinator.local_addr());
            // Serve until the process is killed; sessions run on their
            // own threads.
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        "worker" => {
            let args = cli::parse(
                "exp_farm worker",
                "[flags]",
                &[cli::ADDR, cli::WORKERS, NAME, MAX_JOBS],
                argv,
            )?;
            let mut opts = WorkerOptions::default();
            if let Some(n) = args.workers()? {
                opts.threads = n;
            }
            if let Some(name) = args.value("name") {
                opts.name = name.to_string();
            }
            opts.max_jobs = args.parsed::<usize>("max-jobs")?;
            let summary = farm::run_worker(&addr_of(&args), &opts)?;
            println!(
                "worker {} finished: {} jobs over {} slices ({})",
                summary.worker_id,
                summary.jobs_run,
                summary.slices_run,
                if summary.clean_shutdown { "coordinator shutdown" } else { "job budget hit" }
            );
            Ok(())
        }
        "submit" => {
            let args = cli::parse(
                "exp_farm submit",
                "<spec.json | @preset> [flags]",
                &[cli::ADDR, cli::SEEDS, WAIT, cli::OUT_DIR, cli::QUIET, cli::LIST_PRESETS],
                argv,
            )?;
            if args.has("list-presets") {
                print!("{}", cli::preset_listing());
                return Ok(());
            }
            let spec =
                cli::resolve_spec(args.one_positional("spec (a file or @preset)")?, args.seeds()?)?;
            let addr = addr_of(&args);
            let (sweep_id, total) = farm::submit(&addr, &spec)?;
            println!("sweep {sweep_id} submitted: {total} jobs");
            if args.has("wait") {
                let report = farm::wait_and_fetch(
                    &addr,
                    sweep_id,
                    Duration::from_millis(250),
                    !args.has("quiet"),
                )?;
                write_artifacts(&report, &args.out_dir())?;
            }
            Ok(())
        }
        "status" => {
            let args = cli::parse("exp_farm status", "<sweep-id> [flags]", &[cli::ADDR], argv)?;
            let sweep_id: u64 = args
                .one_positional("sweep id")?
                .parse()
                .map_err(|e| format!("bad sweep id: {e}"))?;
            let s = farm::status(&addr_of(&args), sweep_id)?;
            let eta = if s.eta_s < 0.0 { "?".into() } else { format!("{:.0}s", s.eta_s) };
            println!(
                "sweep {}: {}/{} done, {} in flight, {} queued, {} requeued, {} workers, \
                 elapsed {:.1}s, eta {eta}{}",
                s.sweep_id,
                s.done,
                s.total,
                s.in_flight,
                s.queued,
                s.requeued,
                s.workers,
                s.elapsed_s,
                if s.complete { " — complete" } else { "" }
            );
            println!(
                "slices requeued {} (reaper timeouts {}), unknown frames skipped {}",
                s.requeued_slices, s.timed_out_slices, s.skipped_unknown
            );
            for w in &s.worker_rows {
                println!(
                    "  worker {} ({}): {} jobs / {} slices, {:.2} jobs/s, \
                     slice p50 {:.1}ms p90 {:.1}ms, skipped {}",
                    w.worker_id,
                    w.name,
                    w.jobs_done,
                    w.slices_done,
                    w.jobs_per_s,
                    w.slice_p50_ms,
                    w.slice_p90_ms,
                    w.skipped_unknown
                );
            }
            Ok(())
        }
        "fetch" => {
            let args = cli::parse(
                "exp_farm fetch",
                "<sweep-id> [flags]",
                &[cli::ADDR, cli::OUT_DIR],
                argv,
            )?;
            let sweep_id: u64 = args
                .one_positional("sweep id")?
                .parse()
                .map_err(|e| format!("bad sweep id: {e}"))?;
            match farm::fetch(&addr_of(&args), sweep_id)? {
                Some(report) => write_artifacts(&report, &args.out_dir()),
                None => Err(format!("sweep {sweep_id} is still running (try status)")),
            }
        }
        "--help" | "-h" => {
            println!("usage: exp_farm {USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other}\nusage: exp_farm {USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            comdml_obs::error!("exp_farm", "{e}");
            ExitCode::FAILURE
        }
    }
}
