//! Runs one sweep spec end to end: parse → job matrix → parallel execution
//! → paper-style table + `BENCH_sweep_*.json` + CSV + the figure-ready
//! curve artifacts (`BENCH_curves_*.json`, CSV, one SVG per scenario).
//!
//! ```sh
//! cargo run --release --bin exp_sweep -- ci/specs/smoke.json
//! cargo run --release --bin exp_sweep -- @table3 --seeds 5 --workers 8
//! ```
//!
//! A `@name` argument resolves a built-in preset (`@table2`, `@table3`,
//! `@extended`, `@convergence`, `@smoke`) instead of reading a file;
//! `--print-spec` renders the resolved spec (useful for turning a preset
//! into an editable starting file). Jobs run round-driven: per-job realized
//! accuracy trajectories land in the `BENCH_sweep_*.json` artifact, and
//! jobs stop early once they reach the scenario's target accuracy.
//!
//! To spread one sweep over several processes or hosts, submit it to an
//! `exp_farm` coordinator instead: its fetched artifacts are
//! byte-identical to this binary's.

use std::process::ExitCode;

use comdml_exp::cli::{self, FlagSpec};

const PRINT_SPEC: FlagSpec = FlagSpec {
    name: "print-spec",
    aliases: &[],
    takes_value: false,
    help: "render the resolved spec and exit",
};

fn run() -> Result<(), String> {
    let args = cli::parse_env(
        "exp_sweep",
        "<spec.json | @preset> [flags]",
        &[cli::SEEDS, cli::WORKERS, cli::OUT_DIR, cli::QUIET, cli::LIST_PRESETS, PRINT_SPEC],
    )?;
    if args.has("list-presets") {
        print!("{}", cli::preset_listing());
        return Ok(());
    }
    let spec = cli::resolve_spec(args.one_positional("spec (a file or @preset)")?, args.seeds()?)?;
    if args.has("print-spec") {
        print!("{}", spec.render());
        return Ok(());
    }

    let runner = args.runner()?;
    println!(
        "sweep {}: {} scenarios x {} methods x {} seeds = {} jobs",
        spec.name,
        spec.scenarios.len(),
        spec.methods.len(),
        spec.seeds.count,
        spec.num_jobs()
    );
    let report = runner.run(&spec)?;
    print!("{}", report.render_table());
    let (json, csv) = report.write_to(args.out_dir()).map_err(|e| format!("write report: {e}"))?;
    println!("report written to {} and {}", json.display(), csv.display());
    let (json, csv, svgs) =
        report.write_curves_to(args.out_dir()).map_err(|e| format!("write curves: {e}"))?;
    println!(
        "curves written to {}, {} and {} scenario panel(s)",
        json.display(),
        csv.display(),
        svgs.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            comdml_obs::error!("exp_sweep", "{e}");
            ExitCode::FAILURE
        }
    }
}
