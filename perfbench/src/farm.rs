//! `farm_paper_grid`: a fixed slice of the paper grid submitted again and
//! again to an in-process `Coordinator` (default `FarmConfig`: slices of 4
//! jobs, 200 ms `NoWork` retry) served by one single-threaded `run_worker`
//! thread (default 500 ms heartbeat) over loopback. Set-up is coordinator
//! bind + worker connect/handshake; an op is one submitted sweep, from
//! `submit` to its fetched report; a fetched row is the work unit. The
//! client polls `status` between the two, one connection at a time.
//!
//! The traced run also measures the runner layer the wire hides: after the
//! farm stops, the slice runs locally through `exp::run_job` and
//! `SweepReport::assemble` + curves, each pass checked against the local
//! reference run.

use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use comdml_exp::cli::resolve_spec;
use comdml_exp::farm::{fetch, status, submit};
use comdml_exp::{
    run_job, run_worker, Coordinator, FarmConfig, Method, SweepReport, SweepRunner, SweepSpec,
    WorkerOptions, WorkerSummary,
};
use comdml_obs::phase;

use crate::{closed_loop, median, Outcome};

/// Jobs per submitted sweep: three slices of the default size. Op times
/// fall into modes about 100 ms apart (the `status` round trip); with two
/// slices the tail percentile sat between two modes and flipped from run
/// to run, with three it stays inside the main one.
const OP_JOBS: usize = 12;
/// Farm set-ups per run; the median is reported.
const SETUP_REPS: usize = 3;
/// Local passes over the slice for the runner-layer metrics.
const LOCAL_PASSES: usize = 50;
/// Pause between two `status` polls, so polling never competes with the
/// worker for a core.
const POLL: Duration = Duration::from_millis(1);

/// The submitted slice of the `@table2` grid: its first two scenarios,
/// ComDML against FedAvg, and `jobs / 4` seeds from a block of seeds
/// chosen by `seed`, so different seeds run different worlds.
fn op_spec(seed: u64, jobs: usize) -> Result<SweepSpec, String> {
    let seeds = (jobs / 4).max(1);
    let mut spec = resolve_spec("@table2", Some(seeds))?;
    spec.seeds.base = 1 + seed.wrapping_mul(1_000) % (u64::MAX / 2);
    spec.name = "farm_slice".into();
    spec.scenarios.truncate(2);
    spec.methods = vec![Method::ComDml, Method::FedAvg];
    spec.validate()?;
    Ok(spec)
}

/// A running farm: the coordinator and its one worker thread.
struct Farm {
    coordinator: Coordinator,
    addr: String,
    worker: JoinHandle<Result<WorkerSummary, String>>,
}

impl Farm {
    /// Binds a coordinator on an ephemeral loopback port, starts the worker
    /// and returns once the coordinator lists it, with the id of `first`
    /// (submitted to observe the registration) and the bind time.
    fn start(first: &SweepSpec) -> Result<(Self, u64, f64), String> {
        let start = Instant::now();
        let coordinator = {
            let _span = phase("bench.bind");
            Coordinator::bind("127.0.0.1:0", FarmConfig { quiet: true, ..FarmConfig::default() })
                .map_err(|e| format!("bind: {e}"))?
        };
        let bind_s = start.elapsed().as_secs_f64();
        let addr = coordinator.local_addr().to_string();
        let worker = {
            let addr = addr.clone();
            let opts = WorkerOptions { threads: 1, name: "perfbench".into(), ..Default::default() };
            std::thread::spawn(move || run_worker(&addr, &opts))
        };
        let farm = Self { coordinator, addr, worker };
        let (id, _) = submit(&farm.addr, first)?;
        while status(&farm.addr, id)?.workers == 0 {
            std::thread::sleep(POLL);
        }
        Ok((farm, id, bind_s))
    }

    /// Shuts the coordinator down and joins the worker, which must have
    /// left cleanly.
    fn stop(self) -> Result<(), String> {
        self.coordinator.shutdown();
        let summary = self.worker.join().map_err(|_| "worker thread panicked".to_string())??;
        if !summary.clean_shutdown {
            return Err(format!("worker stopped uncleanly: {summary:?}"));
        }
        Ok(())
    }
}

/// Per-call wall times of the client API.
#[derive(Default)]
struct Calls {
    status_ms: Vec<f64>,
    fetch_ms: Vec<f64>,
}

/// Waits for sweep `id` to complete and fetches it; the rendered report
/// must match the local run byte for byte.
fn finish(addr: &str, id: u64, reference: &str, calls: &mut Calls) -> Result<(), String> {
    wait_complete(addr, id, calls)?;
    fetch_checked(addr, id, reference, calls)
}

/// Polls `status` until sweep `id` is complete.
fn wait_complete(addr: &str, id: u64, calls: &mut Calls) -> Result<(), String> {
    loop {
        let start = Instant::now();
        let s = {
            let _span = phase("bench.status");
            status(addr, id)?
        };
        calls.status_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if s.complete {
            break;
        }
        std::thread::sleep(POLL);
    }
    Ok(())
}

/// Fetches the complete sweep `id`; the rendered report must match the
/// local run byte for byte.
fn fetch_checked(addr: &str, id: u64, reference: &str, calls: &mut Calls) -> Result<(), String> {
    let start = Instant::now();
    let report = {
        let _span = phase("bench.fetch");
        fetch(addr, id)?
    };
    calls.fetch_ms.push(start.elapsed().as_secs_f64() * 1e3);
    let report = report.ok_or("a complete sweep fetched as still running")?;
    if report.to_value().render() != reference {
        return Err(format!("sweep {id}: fetched report differs from the local run"));
    }
    Ok(())
}

/// Runs the slice locally [`LOCAL_PASSES`] times, timing each `run_job`
/// (split by method) and the report assembly; every pass must render the
/// reference report.
fn runner_layer(
    spec: &SweepSpec,
    reference: &str,
    out: &mut Outcome,
) -> Vec<(&'static str, f64)> {
    let jobs = SweepRunner::jobs(spec);
    let (mut comdml_ms, mut baseline_ms, mut assemble_ms) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..LOCAL_PASSES {
        let mut rows = Vec::with_capacity(jobs.len());
        for job in &jobs {
            let start = Instant::now();
            let r = {
                let _span = phase("bench.run_job");
                run_job(&spec.scenarios[job.scenario], job.method, job.seed)
            };
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let by_method =
                if job.method == Method::ComDml { &mut comdml_ms } else { &mut baseline_ms };
            by_method.push(ms);
            rows.push(r);
        }
        let start = Instant::now();
        let report = {
            let _span = phase("bench.assemble");
            SweepReport::assemble(spec, rows)
        };
        {
            let _span = phase("bench.curves");
            std::hint::black_box(report.curves_value());
        }
        assemble_ms.push(start.elapsed().as_secs_f64() * 1e3);
        out.op_checked(if report.to_value().render() == reference {
            Ok(())
        } else {
            Err("a local pass rendered a different report".into())
        });
    }
    vec![
        ("job.comdml_ms_p50", median(&comdml_ms)),
        ("job.baseline_ms_p50", median(&baseline_ms)),
        ("sweep.assemble_ms", median(&assemble_ms)),
    ]
}

/// Runs the farm workload; `op_jobs` overrides the jobs per op (for the
/// scaling check in the README).
pub fn run(
    seed: u64,
    budget: Duration,
    traced: bool,
    op_jobs: Option<usize>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let spec = op_spec(seed, op_jobs.unwrap_or(OP_JOBS))?;
    let reference = SweepRunner::new().threads(1).progress(false).run(&spec)?.to_value().render();
    let mut calls = Calls::default();
    let mut connect_ms = Vec::new();

    // Each set-up's registration sweep doubles as an untimed warm-up op.
    let mut farm = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = farm.take() {
            Farm::stop(old)?;
        }
        let start = Instant::now();
        let (started, first, bind_s) = Farm::start(&spec)?;
        let setup_s = start.elapsed().as_secs_f64();
        out.setup_s.push(setup_s);
        connect_ms.push((setup_s - bind_s) * 1e3);
        out.op_checked(finish(&started.addr, first, &reference, &mut calls));
        farm = Some(started);
    }
    let farm = farm.expect("at least one set-up");
    calls = Calls::default();

    comdml_obs::metrics().reset();
    let mut op_ms = Vec::new();
    let mut rates = Vec::new();
    // The next sweep goes in as soon as the current one completes, before
    // the current one is fetched. Submitted after the fetch, it raced the
    // idle worker's 200 ms `NoWork` retry (a `status` round trip plus a
    // fetch take about as long), so on a slow host some ops waited one
    // retry more and the tail flipped between ~510 and ~710 ms from run to
    // run.
    let mut pending = submit(&farm.addr, &spec).map(|sub| (sub, Instant::now()));
    let (timed_s, timed_faults) = closed_loop(budget, || {
        let current = std::mem::replace(&mut pending, Err("no sweep pending".into()));
        let result = current.and_then(|((id, total), start)| {
            wait_complete(&farm.addr, id, &mut calls)?;
            pending = submit(&farm.addr, &spec).map(|sub| (sub, Instant::now()));
            fetch_checked(&farm.addr, id, &reference, &mut calls)?;
            Ok((total as f64, start.elapsed().as_secs_f64()))
        });
        if let Ok((rows, wall_s)) = result {
            op_ms.push(wall_s * 1e3);
            rates.push(rows / wall_s);
        }
        out.op_checked(result.map(drop));
    });
    let compute_ms = comdml_obs::metrics().histogram("phase.job.run").map_or(0.0, |h| h.sum);
    // The sweep still pending is finished untimed, so the worker stops idle.
    if let Ok(((id, _), _)) = pending {
        out.op_checked(finish(&farm.addr, id, &reference, &mut Calls::default()));
    }
    farm.stop()?;

    out.timed_s = timed_s;
    out.timed_faults = timed_faults;
    out.rates = rates;
    if traced {
        out.layers = vec![
            ("farm.connect_ms", median(&connect_ms)),
            ("farm.status_rtt_ms_p50", median(&calls.status_ms)),
            ("farm.fetch_ms", median(&calls.fetch_ms)),
            ("farm.compute_share", compute_ms / op_ms.iter().sum::<f64>()),
        ];
        let runner = runner_layer(&spec, &reference, &mut out);
        out.layers.extend(runner);
    }
    out.op_ms = op_ms;
    Ok(out)
}
