//! End-to-end properties of the distributed sweep farm, on localhost:
//!
//! * the fetched report is **byte-identical** to the single-process run
//!   for arbitrary worker counts × slice sizes (the farm's acceptance
//!   bar);
//! * a worker killed mid-sweep (abrupt connection drop, no goodbye)
//!   forfeits only its unfinished jobs — they are requeued, a surviving
//!   worker finishes them, and the bytes still match;
//! * a worker that goes silent holding a slice (no rows, no heartbeats)
//!   trips the reaper's timeout path, with the same outcome;
//! * client-facing errors (unknown sweeps, malformed or oversized specs)
//!   come back described, not as hangs, disconnects or aborts;
//! * a coordinator restarted on its journal keeps the rows it had folded,
//!   skips garbage and torn lines, and still fetches the same bytes.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use comdml_exp::{farm, FarmConfig, Method, ScenarioSpec, SweepRunner, SweepSpec, WorkerOptions};
use comdml_net::{FramedStream, Message};
use proptest::prelude::*;

/// A 2-scenario × 3-method grid: `6 × seeds` jobs, each a few milliseconds.
fn farm_spec(name: &str, seeds: usize) -> SweepSpec {
    SweepSpec::new(name)
        .seeds(11, seeds)
        .method(Method::ComDml)
        .method(Method::FedAvg)
        .method(Method::Gossip)
        .scenario(ScenarioSpec::new("mini").agents(5).rounds(3))
        .scenario(ScenarioSpec::new("churny").agents(7).rounds(4).sampling_rate(0.5))
}

fn test_config(slice_size: usize) -> FarmConfig {
    FarmConfig {
        slice_size,
        worker_timeout: Duration::from_secs(10),
        reaper_tick: Duration::from_millis(50),
        retry_ms: 20,
        quiet: true,
        journal: None,
    }
}

fn worker_opts(name: &str) -> WorkerOptions {
    WorkerOptions {
        threads: 2,
        name: name.into(),
        max_jobs: None,
        heartbeat: Duration::from_millis(50),
    }
}

fn local_bytes(spec: &SweepSpec) -> String {
    SweepRunner::new().progress(false).run(spec).expect("spec validates").to_value().render()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // The acceptance property: whatever the worker count and slice size,
    // the farm's report renders the same bytes as the local run.
    #[test]
    fn farm_report_is_byte_identical_to_local(
        workers in 1usize..4,
        slice_size in 1usize..6,
        seeds in 1usize..3,
    ) {
        let spec = farm_spec("farm_prop", seeds);
        let local = local_bytes(&spec);
        let coordinator = farm::Coordinator::bind("127.0.0.1:0", test_config(slice_size)).unwrap();
        let addr = coordinator.local_addr().to_string();
        let (sweep_id, total) = farm::submit(&addr, &spec).unwrap();
        prop_assert_eq!(total as usize, spec.num_jobs());
        let fleet: Vec<_> = (0..workers)
            .map(|i| {
                let addr = addr.clone();
                std::thread::spawn(move || farm::run_worker(&addr, &worker_opts(&format!("w{i}"))))
            })
            .collect();
        let report =
            farm::wait_and_fetch(&addr, sweep_id, Duration::from_millis(20), false).unwrap();
        prop_assert_eq!(report.to_value().render(), local);
        coordinator.stop(); // workers see Shutdown on their next poll
        for worker in fleet {
            let summary = worker.join().unwrap().unwrap();
            prop_assert!(summary.clean_shutdown);
        }
    }
}

/// Kill a worker mid-sweep: it runs exactly one job of a three-job slice,
/// then drops the connection with no goodbye. The coordinator must requeue
/// the two unfinished jobs, a rescuer must finish everything, and the
/// bytes must still match the local run.
#[test]
fn killed_worker_mid_sweep_is_requeued_and_bytes_match() {
    let spec = farm_spec("farm_kill", 2); // 12 jobs
    let local = local_bytes(&spec);
    let coordinator = farm::Coordinator::bind("127.0.0.1:0", test_config(3)).unwrap();
    let addr = coordinator.local_addr().to_string();
    let (sweep_id, _) = farm::submit(&addr, &spec).unwrap();

    let flaky = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let opts = WorkerOptions { threads: 1, max_jobs: Some(1), ..worker_opts("flaky") };
            farm::run_worker(&addr, &opts)
        })
    };
    let summary = flaky.join().unwrap().unwrap();
    assert!(!summary.clean_shutdown, "budgeted worker must die, not drain");
    assert_eq!(summary.jobs_run, 1);

    // The session thread notices the drop and requeues the slice's two
    // unfinished jobs.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = farm::status(&addr, sweep_id).unwrap();
        if s.requeued >= 2 {
            break;
        }
        assert!(Instant::now() < deadline, "death never requeued: {s:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        farm::fetch(&addr, sweep_id).unwrap().is_none(),
        "fetch of an unfinished sweep must say so"
    );

    let rescuer = {
        let addr = addr.clone();
        std::thread::spawn(move || farm::run_worker(&addr, &worker_opts("rescuer")))
    };
    let report = farm::wait_and_fetch(&addr, sweep_id, Duration::from_millis(20), false).unwrap();
    assert_eq!(report.to_value().render(), local, "post-recovery report diverged");
    let s = farm::status(&addr, sweep_id).unwrap();
    assert!(s.complete);
    assert!(s.requeued >= 2);
    // Exactly one slice was forfeited, by the drop path — the reaper
    // (10s timeout here) never fired.
    assert_eq!(s.requeued_slices, 1, "one slice forfeited by the death: {s:?}");
    assert_eq!(s.timed_out_slices, 0, "drop path, not the reaper: {s:?}");
    // Heartbeat-piggybacked telemetry: the survivor has a live row; the
    // dead worker's row went with its session.
    let row = s
        .worker_rows
        .iter()
        .find(|w| w.name == "rescuer")
        .expect("rescuer telemetry row in StatusDetail");
    assert!(row.jobs_done >= 1, "rescuer metrics never arrived: {row:?}");
    assert!(row.slices_done >= 1 && row.jobs_per_s > 0.0 && row.slice_p50_ms > 0.0, "{row:?}");
    assert!(row.slice_p90_ms >= row.slice_p50_ms, "{row:?}");
    assert!(s.worker_rows.iter().all(|w| w.name != "flaky"), "dead worker still listed: {s:?}");
    coordinator.stop();
    assert!(rescuer.join().unwrap().unwrap().clean_shutdown);
}

/// A worker that claims a slice and then goes silent — no rows, no
/// heartbeats, but the connection stays open — must trip the reaper's
/// timeout path (the connection-drop path never fires).
#[test]
fn hung_worker_times_out_and_slice_is_requeued() {
    let spec = farm_spec("farm_hang", 1); // 6 jobs
    let local = local_bytes(&spec);
    let cfg = FarmConfig { worker_timeout: Duration::from_millis(300), ..test_config(2) };
    let coordinator = farm::Coordinator::bind("127.0.0.1:0", cfg).unwrap();
    let addr = coordinator.local_addr().to_string();
    let (sweep_id, _) = farm::submit(&addr, &spec).unwrap();

    // Hand-rolled wedged worker: hello, one grant, then silence.
    let mut wedged = FramedStream::new(TcpStream::connect(&addr).unwrap());
    wedged.handshake().unwrap();
    wedged.send(&Message::WorkerHello { name: "wedged".into(), threads: 1 }).unwrap();
    let Message::WorkerWelcome { worker_id } = wedged.recv().unwrap() else {
        panic!("expected a welcome")
    };
    wedged.send(&Message::WorkRequest { worker_id }).unwrap();
    let Message::WorkSlice { indices, .. } = wedged.recv().unwrap() else {
        panic!("expected a grant")
    };
    assert_eq!(indices.len(), 2);

    let real = {
        let addr = addr.clone();
        std::thread::spawn(move || farm::run_worker(&addr, &worker_opts("real")))
    };
    let report = farm::wait_and_fetch(&addr, sweep_id, Duration::from_millis(20), false).unwrap();
    assert_eq!(report.to_value().render(), local, "post-timeout report diverged");
    let s = farm::status(&addr, sweep_id).unwrap();
    assert!(s.requeued >= 2, "reaper never requeued the wedged slice: {s:?}");
    // The reaper requeued exactly one slice, so both counters moved
    // exactly once — a reaped slice is counted when it is pulled back,
    // never again on the worker's eventual disconnect.
    assert_eq!(s.timed_out_slices, 1, "one reap, one timeout count: {s:?}");
    assert_eq!(s.requeued_slices, 1, "one reap, one requeue count: {s:?}");
    drop(wedged);
    coordinator.stop();
    assert!(real.join().unwrap().unwrap().clean_shutdown);
}

/// The ETA published in `StatusReport` is the linear completion estimate,
/// with its two sentinel states (unknown before the first job, zero once
/// complete) and saturation on `done > total`.
#[test]
fn eta_seconds_math() {
    assert_eq!(farm::eta_seconds(0, 10, 5.0, false), -1.0, "no data yet");
    assert_eq!(farm::eta_seconds(5, 10, 5.0, false), 5.0, "half done, half to go");
    assert_eq!(farm::eta_seconds(2, 10, 1.0, false), 4.0);
    assert_eq!(farm::eta_seconds(10, 10, 5.0, true), 0.0, "complete pins to zero");
    assert_eq!(farm::eta_seconds(0, 10, 5.0, true), 0.0, "complete wins over unknown");
    assert_eq!(farm::eta_seconds(10, 10, 5.0, false), 0.0, "nothing remaining");
    assert_eq!(farm::eta_seconds(12, 10, 6.0, false), 0.0, "overshoot saturates");
}

#[test]
fn wire_errors_come_back_described() {
    let coordinator = farm::Coordinator::bind("127.0.0.1:0", test_config(4)).unwrap();
    let addr = coordinator.local_addr().to_string();
    assert!(farm::status(&addr, 42).unwrap_err().contains("unknown sweep"));
    assert!(farm::fetch(&addr, 42).unwrap_err().contains("unknown sweep"));
    // A malformed submission (impossible through the typed client, which
    // renders a real spec) earns a FarmError, not a hang or a disconnect.
    let mut s = FramedStream::new(TcpStream::connect(&addr).unwrap());
    s.handshake().unwrap();
    s.send(&Message::SubmitSweep { spec_json: "nonsense".into() }).unwrap();
    let Message::FarmError { detail } = s.recv().unwrap() else {
        panic!("expected a described error")
    };
    assert!(!detail.is_empty());
    coordinator.shutdown();
}

/// A submit whose job matrix is absurdly large, or whose seed range
/// overflows `u64`, is refused with a description — it must not abort the
/// coordinator — and a normal sweep submitted next still completes.
#[test]
fn oversized_submits_are_refused_and_the_coordinator_lives() {
    let coordinator = farm::Coordinator::bind("127.0.0.1:0", test_config(4)).unwrap();
    let addr = coordinator.local_addr().to_string();
    let huge = farm_spec("farm_huge", 1_000_000_000_000_000_000);
    assert!(farm::submit(&addr, &huge).unwrap_err().contains("cap"));
    let over_cap = farm_spec("farm_over_cap", SweepSpec::MAX_JOBS / 6 + 1);
    assert!(farm::submit(&addr, &over_cap).unwrap_err().contains("cap"));
    let wrapping = farm_spec("farm_wrap", 2).seeds(u64::MAX - 1, 2);
    assert!(farm::submit(&addr, &wrapping).unwrap_err().contains("overflows"));

    let spec = farm_spec("farm_after_huge", 1);
    let (sweep_id, total) = farm::submit(&addr, &spec).unwrap();
    assert_eq!(total as usize, spec.num_jobs());
    let worker = {
        let addr = addr.clone();
        std::thread::spawn(move || farm::run_worker(&addr, &worker_opts("after")))
    };
    let report = farm::wait_and_fetch(&addr, sweep_id, Duration::from_millis(20), false).unwrap();
    assert_eq!(report.to_value().render(), local_bytes(&spec));
    coordinator.stop();
    assert!(worker.join().unwrap().unwrap().clean_shutdown);
}

/// Kill the coordinator mid-sweep and restart it on its journal: a worker
/// dies after `k` rows, the coordinator goes away, the journal gains a
/// garbage line and a torn half-line, and a new coordinator binds on it.
/// The replay must keep exactly the `k` folded rows under the same sweep
/// id, a fresh worker must run only the missing jobs, and the fetched
/// report must match the local run byte for byte — again after a second
/// restart with no workers at all.
#[test]
fn restarted_coordinator_resumes_from_its_journal() {
    let spec = farm_spec("farm_restart", 2); // 12 jobs
    let total = spec.num_jobs();
    let k = 5;
    let local = local_bytes(&spec);
    let dir = std::env::temp_dir().join(format!("comdml_farm_journal_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("farm.jsonl");
    let _ = std::fs::remove_file(&journal);
    let cfg = FarmConfig { journal: Some(journal.clone()), ..test_config(3) };

    let coordinator = farm::Coordinator::bind("127.0.0.1:0", cfg.clone()).unwrap();
    let addr = coordinator.local_addr().to_string();
    assert_eq!(farm::submit(&addr, &spec).unwrap(), (1, total as u64));
    let opts = WorkerOptions { threads: 1, max_jobs: Some(k), ..worker_opts("doomed") };
    let summary = farm::run_worker(&addr, &opts).unwrap();
    assert_eq!((summary.jobs_run, summary.clean_shutdown), (k, false));
    let deadline = Instant::now() + Duration::from_secs(10);
    while farm::status(&addr, 1).unwrap().done < k as u64 {
        assert!(Instant::now() < deadline, "the doomed worker's rows never folded");
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(coordinator);

    let text = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(text.lines().count(), 1 + k, "one submit line and one line per row");
    let last = text.lines().last().unwrap();
    let mut file = std::fs::OpenOptions::new().append(true).open(&journal).unwrap();
    writeln!(file, "{{\"sweep\":1,\"index\":\"garbage").unwrap();
    file.write_all(&last.as_bytes()[..last.len() / 2]).unwrap();
    drop(file);

    let coordinator = farm::Coordinator::bind("127.0.0.1:0", cfg.clone()).unwrap();
    let addr = coordinator.local_addr().to_string();
    let s = farm::status(&addr, 1).unwrap();
    assert_eq!((s.done, s.queued, s.total), (k as u64, (total - k) as u64, total as u64));
    let rescuer = {
        let addr = addr.clone();
        std::thread::spawn(move || farm::run_worker(&addr, &worker_opts("rescuer")))
    };
    let report = farm::wait_and_fetch(&addr, 1, Duration::from_millis(20), false).unwrap();
    assert_eq!(report.to_value().render(), local, "post-restart report diverged");
    coordinator.stop();
    let summary = rescuer.join().unwrap().unwrap();
    assert!(summary.clean_shutdown);
    assert_eq!(summary.jobs_run, total - k, "only the missing jobs are recomputed");
    drop(coordinator);

    let coordinator = farm::Coordinator::bind("127.0.0.1:0", cfg).unwrap();
    let addr = coordinator.local_addr().to_string();
    let report = farm::fetch(&addr, 1).unwrap().expect("every row was journaled");
    assert_eq!(report.to_value().render(), local, "second replay diverged");
    // Sweep ids continue after the journaled ones.
    assert_eq!(farm::submit(&addr, &farm_spec("farm_next", 1)).unwrap().0, 2);
    coordinator.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
