//! The distributed sweep farm: a work-stealing coordinator/worker service
//! over [`comdml_net`]'s versioned wire protocol, and the one way to spread
//! a sweep over several processes or hosts.
//!
//! The farm stretches the pull-based work stealing of the in-process
//! [`SweepRunner`] pool over TCP, so heterogeneous hosts self-balance
//! instead of waiting on the slowest one:
//!
//! * A [`Coordinator`] accepts [`submit`]ted [`SweepSpec`]s, expands each
//!   into its job matrix, and hands out small **slices** of global job
//!   indices to whichever worker asks next — workers that finish early
//!   simply ask again.
//! * [`run_worker`] connects, pulls slices, drains each through
//!   [`SweepRunner::execute_source`] on the local thread pool, and streams
//!   every finished row back immediately (one `JobDone` per job), so a
//!   worker lost mid-slice forfeits only its unfinished jobs.
//! * The coordinator folds streamed rows into per-job slots keyed by
//!   **global index** — the same slots a local run fills — after checking
//!   that each row's `(scenario, method, seed)` is the job
//!   [`SweepSpec::job`] names for that index. It detects failures two
//!   ways: a dropped connection requeues the worker's in-flight slices at
//!   once, and a reaper thread requeues slices whose worker stopped
//!   heartbeating. Folding ignores rows for slots already filled, so
//!   duplicate execution after a requeue is harmless.
//! * A `WorkRequest` that finds nothing queued is **parked**: its session
//!   waits on a condition variable that every submit, requeue and stop
//!   notifies, so an idle worker starts a new sweep the moment it lands.
//!   The wait is bounded by half the worker timeout; when it runs out the
//!   worker is told `NoWork { retry_ms: 0 }` and asks again at once.
//! * [`fetch`] reassembles the finished sweep client-side via
//!   [`JobResult::from_value`] + [`SweepReport::assemble`], so the farm's
//!   `BENCH_sweep_*.json` is **byte-identical** to a single-process run
//!   whatever the worker count, slice size, worker deaths or coordinator
//!   restarts along the way (proven by the tests in `tests/farm.rs`).
//!   [`submit`], [`status`] and [`fetch`] reuse one connection per thread
//!   and coordinator address; a cached connection whose peer has closed
//!   is replaced before the request goes out, and no request is retried.
//! * A fetched sweep stays resident until 8 newer sweeps have been
//!   fetched, then the coordinator releases it; asking for it
//!   afterwards answers "fetched and released". Sweeps nobody has fetched
//!   are never released.
//!
//! # Journal
//!
//! With [`FarmConfig::journal`] set, the coordinator appends one compact
//! JSON line per accepted submit (`{"sweep":id,"spec":{..}}`) and one per
//! folded row (`{"sweep":id,"index":i,"row":{..}}`), each written before the
//! submit is acknowledged (and synced to disk) or the fold returns.
//! [`Coordinator::bind`] replays an existing journal through the same
//! submit and fold code, so a coordinator restarted after a crash keeps its
//! sweep ids and queues only the jobs with no journaled row. A line that does not parse or fold — a
//! torn last line included — is skipped with a warning and its job is
//! recomputed, which is safe because jobs are pure. Releases are not
//! journaled, so a restarted coordinator serves every journaled sweep again.
//!
//! Jobs are pure functions of `(scenario, method, seed)`; determinism
//! needs no coordination beyond putting each row in its pre-assigned slot.
//! Specs and rows cross the wire as their canonical JSON text —
//! [`comdml_bench::Value`] renders floats in shortest round-trip form, so
//! `parse ∘ render` is the identity and the text *is* the value.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use comdml_bench::Value;
use comdml_net::{
    serve, FramedStream, Message, NetError, ServerHandle, WorkerRow, PROTOCOL_VERSION,
};
use comdml_obs::Histogram;

use crate::{JobResult, JobSource, JobSpec, SweepReport, SweepRunner, SweepSpec};

/// The farm's default coordinator endpoint.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7700";

/// Fetched sweeps the coordinator keeps resident: fetching one more
/// releases the oldest-fetched. Unfetched sweeps are never released.
const RETAIN_FETCHED: usize = 8;

/// Coordinator tuning knobs.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Jobs per work slice. Small slices steal better; 1 is the perfect
    /// balance / maximum chatter extreme.
    pub slice_size: usize,
    /// How long a slice may go without any sign of life from its worker
    /// (heartbeat, row, or grant) before the reaper requeues it. The
    /// reaper scans every quarter of it, and a parked work request waits
    /// at most half of it.
    pub worker_timeout: Duration,
    /// Suppresses the coordinator's stderr event log.
    pub quiet: bool,
    /// Append-only JSONL journal of accepted submits and folded rows (see
    /// the module docs). `None` keeps the coordinator's state in memory
    /// only.
    pub journal: Option<PathBuf>,
}

impl Default for FarmConfig {
    fn default() -> Self {
        Self { slice_size: 4, worker_timeout: Duration::from_secs(10), quiet: false, journal: None }
    }
}

/// One outstanding slice: who holds it, which global indices it covers,
/// and when the worker last showed signs of life on it.
#[derive(Debug)]
struct SliceInfo {
    worker: u64,
    indices: Vec<usize>,
    last_activity: Instant,
}

/// Everything the coordinator tracks for one submitted sweep.
#[derive(Debug)]
struct SweepState {
    spec: SweepSpec,
    /// The canonical text of `spec`, as sent to workers.
    spec_json: String,
    /// One slot per job matrix entry, filled in any order, read in order.
    slots: Vec<Option<JobResult>>,
    done: usize,
    /// Unclaimed slices, front = next to grant. Requeues go to the front
    /// so recovered work finishes before fresh work starts.
    queue: VecDeque<Vec<usize>>,
    in_flight: HashMap<u64, SliceInfo>,
    /// Jobs handed out more than once (requeued after a death/timeout).
    requeued: usize,
    /// Slices re-queued (each may cover several jobs); the slice-granular
    /// twin of `requeued`.
    requeued_slices: u64,
    /// Slices re-queued specifically by the heartbeat reaper.
    timed_out_slices: u64,
    submitted: Instant,
    /// Elapsed seconds frozen at the moment the last slot filled.
    finished_in_s: Option<f64>,
    /// A complete report has been fetched, so the sweep may be released.
    fetched: bool,
}

impl SweepState {
    fn total(&self) -> usize {
        self.slots.len()
    }

    fn complete(&self) -> bool {
        self.done == self.total()
    }

    /// Requeues the slice's still-unfilled indices. Returns how many.
    fn requeue(&mut self, info: SliceInfo) -> usize {
        let unfinished: Vec<usize> =
            info.indices.into_iter().filter(|&i| self.slots[i].is_none()).collect();
        let n = unfinished.len();
        if n > 0 {
            self.requeued += n;
            self.requeued_slices += 1;
            comdml_obs::counter_add("farm.slices_requeued", 1);
            self.queue.push_front(unfinished);
        }
        n
    }
}

/// The coordinator's live view of one connected worker: identity plus the
/// latest telemetry snapshot it piggybacked on a heartbeat or slice
/// completion ([`Message::WorkerMetrics`], protocol ≥ 2 — workers from a
/// protocol-1 build simply never update the zeros).
#[derive(Debug)]
struct WorkerStats {
    name: String,
    first_seen: Instant,
    jobs_done: u64,
    slices_done: u64,
    slice_p50_ms: f64,
    slice_p90_ms: f64,
    skipped_unknown: u64,
}

/// Linear completion estimate from realized pace: `0` once complete, `-1`
/// (unknown) before the first job lands, otherwise
/// `elapsed / done * remaining`.
pub fn eta_seconds(done: u64, total: u64, elapsed_s: f64, complete: bool) -> f64 {
    if complete {
        0.0
    } else if done == 0 {
        -1.0 // unknown yet
    } else {
        elapsed_s / done as f64 * total.saturating_sub(done) as f64
    }
}

/// The coordinator's whole mutable world, behind one mutex. Sessions are
/// request/response and every transition is a short critical section, so
/// one lock is simpler and plenty.
#[derive(Debug)]
struct FarmState {
    cfg: FarmConfig,
    sweeps: BTreeMap<u64, SweepState>,
    workers: HashMap<u64, WorkerStats>,
    /// Unknown-kind frames skipped across every coordinator session
    /// (deltas folded in by the session loops).
    skipped_unknown: u64,
    /// The open journal; `None` while replaying and when journaling is off.
    journal: Option<File>,
    /// Resident fetched sweeps, oldest fetch first (at most
    /// [`RETAIN_FETCHED`]).
    fetched: VecDeque<u64>,
    /// Ids below `next_sweep_id` that a journal replay skipped over, so they
    /// name no sweep rather than a released one.
    never_submitted: Vec<Range<u64>>,
    /// Sockets of the sessions that are not workers, closed at stop so a
    /// client's cached connection cannot outlive the coordinator.
    clients: HashMap<u64, TcpStream>,
    next_client_id: u64,
    next_sweep_id: u64,
    next_slice_id: u64,
    next_worker_id: u64,
}

/// Cuts `indices` into work slices of `size` jobs (at least 1), in order.
fn slices(indices: impl Iterator<Item = usize>, size: usize) -> VecDeque<Vec<usize>> {
    let indices: Vec<usize> = indices.collect();
    indices.chunks(size.max(1)).map(<[usize]>::to_vec).collect()
}

/// Checks that `row` is the result of job `i` of `spec`.
fn check_row(spec: &SweepSpec, i: usize, row: &JobResult) -> Result<(), String> {
    let job = spec.job(i).ok_or_else(|| format!("no job {i} in the matrix"))?;
    let scenario = &spec.scenarios[job.scenario].name;
    if (&row.scenario, row.method, row.seed) == (scenario, job.method, job.seed) {
        Ok(())
    } else {
        Err(format!(
            "row is ({}, {}, {}) but job {i} is ({scenario}, {}, {})",
            row.scenario,
            row.method.token(),
            row.seed,
            job.method.token(),
            job.seed
        ))
    }
}

impl FarmState {
    fn new(cfg: FarmConfig) -> Self {
        Self {
            cfg,
            sweeps: BTreeMap::new(),
            workers: HashMap::new(),
            skipped_unknown: 0,
            journal: None,
            fetched: VecDeque::new(),
            never_submitted: Vec::new(),
            clients: HashMap::new(),
            next_client_id: 1,
            next_sweep_id: 1,
            next_slice_id: 1,
            next_worker_id: 1,
        }
    }

    fn log(&self, msg: std::fmt::Arguments<'_>) {
        if !self.cfg.quiet {
            comdml_obs::info!("comdml_exp::farm", "{msg}");
        }
    }

    /// Appends the line `line()` builds to the journal, if one is open; with
    /// `sync`, returns only once the line is on disk.
    fn record(&mut self, sync: bool, line: impl FnOnce() -> Value) -> std::io::Result<()> {
        let Some(journal) = &mut self.journal else {
            return Ok(());
        };
        let mut text = line().render_compact();
        text.push('\n');
        journal.write_all(text.as_bytes())?;
        if sync {
            journal.sync_data()?;
        }
        Ok(())
    }

    /// Replays the journal at `path` through [`FarmState::submit`] and
    /// [`FarmState::fold`], requeues every job without a row, then opens
    /// the file for appending.
    fn open_journal(&mut self, path: &Path) -> std::io::Result<()> {
        let bytes = match std::fs::read(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            read => read?,
        };
        for (n, line) in bytes.split(|&b| b == b'\n').enumerate() {
            if line.is_empty() {
                continue;
            }
            if let Err(e) = self.replay(line) {
                comdml_obs::warn!(
                    "comdml_exp::farm",
                    "journal {} line {}: skipped ({e}); its job will be recomputed",
                    path.display(),
                    n + 1
                );
            }
        }
        let slice = self.cfg.slice_size;
        for sweep in self.sweeps.values_mut() {
            sweep.queue = slices((0..sweep.total()).filter(|&i| sweep.slots[i].is_none()), slice);
        }
        let mut journal = OpenOptions::new().create(true).append(true).open(path)?;
        if bytes.last().is_some_and(|&b| b != b'\n') {
            // End a torn last line, so the next record starts a line of its own.
            journal.write_all(b"\n")?;
        }
        self.journal = Some(journal);
        Ok(())
    }

    /// Replays one journal line.
    fn replay(&mut self, line: &[u8]) -> Result<(), String> {
        let v = Value::parse(std::str::from_utf8(line).map_err(|e| e.to_string())?)?;
        let sweep_id = v.get("sweep").and_then(Value::as_u64).ok_or("missing \"sweep\" id")?;
        if let Some(spec) = v.get("spec") {
            if sweep_id < self.next_sweep_id {
                return Err(format!("sweep {sweep_id} was already submitted"));
            }
            if sweep_id > self.next_sweep_id {
                self.never_submitted.push(self.next_sweep_id..sweep_id);
            }
            self.next_sweep_id = sweep_id;
            return self.submit(&spec.render()).map(drop);
        }
        let index = v.get("index").and_then(Value::as_u64).ok_or("missing \"index\"")?;
        let row = v.get("row").ok_or("missing \"row\"")?;
        if self.fold(sweep_id, 0, index, &row.render_compact()) {
            Ok(())
        } else {
            Err(format!("row {index} of sweep {sweep_id} did not fold"))
        }
    }

    /// Validates, journals and enqueues a sweep; returns `(sweep id, total
    /// jobs)`.
    fn submit(&mut self, spec_json: &str) -> Result<(u64, u64), String> {
        let spec = SweepSpec::parse(spec_json)?;
        let id = self.next_sweep_id;
        // An acknowledged sweep must survive a host crash; a lost row line
        // only costs a recomputation, so rows skip the sync.
        self.record(true, || {
            Value::Obj(vec![
                ("sweep".into(), Value::Num(id as f64)),
                ("spec".into(), spec.to_value()),
            ])
        })
        .map_err(|e| format!("journal write failed: {e}"))?;
        self.next_sweep_id += 1;
        let total = spec.num_jobs();
        let queue = slices(0..total, self.cfg.slice_size);
        self.log(format_args!(
            "sweep {id} ({}): {total} jobs queued in {} slices",
            spec.name,
            queue.len()
        ));
        self.sweeps.insert(
            id,
            SweepState {
                // Store the *canonical* text so every worker parses the
                // same bytes regardless of the submitter's formatting.
                spec_json: spec.render(),
                spec,
                slots: (0..total).map(|_| None).collect(),
                done: 0,
                queue,
                in_flight: HashMap::new(),
                requeued: 0,
                requeued_slices: 0,
                timed_out_slices: 0,
                submitted: Instant::now(),
                finished_in_s: None,
                fetched: false,
            },
        );
        Ok((id, total as u64))
    }

    fn register_worker(&mut self, name: &str, threads: u32) -> u64 {
        let id = self.next_worker_id;
        self.next_worker_id += 1;
        self.workers.insert(
            id,
            WorkerStats {
                name: name.to_string(),
                first_seen: Instant::now(),
                jobs_done: 0,
                slices_done: 0,
                slice_p50_ms: 0.0,
                slice_p90_ms: 0.0,
                skipped_unknown: 0,
            },
        );
        self.log(format_args!("worker {id} ({name}) joined with {threads} threads"));
        id
    }

    /// Folds a worker's piggybacked telemetry snapshot, which also counts
    /// as a sign of life for every slice it holds.
    fn worker_metrics(&mut self, msg: &Message) {
        let Message::WorkerMetrics {
            worker_id,
            jobs_done,
            slices_done,
            slice_p50_ms,
            slice_p90_ms,
            skipped_unknown,
        } = msg
        else {
            return;
        };
        if let Some(stats) = self.workers.get_mut(worker_id) {
            stats.jobs_done = *jobs_done;
            stats.slices_done = *slices_done;
            stats.slice_p50_ms = *slice_p50_ms;
            stats.slice_p90_ms = *slice_p90_ms;
            stats.skipped_unknown = *skipped_unknown;
        }
        self.heartbeat(*worker_id);
    }

    /// Grants the next queued slice of the oldest unfinished sweep.
    fn grant(&mut self, worker: u64) -> Option<Message> {
        for (&sweep_id, sweep) in self.sweeps.iter_mut() {
            if let Some(indices) = sweep.queue.pop_front() {
                let slice_id = self.next_slice_id;
                self.next_slice_id += 1;
                sweep.in_flight.insert(
                    slice_id,
                    SliceInfo { worker, indices: indices.clone(), last_activity: Instant::now() },
                );
                return Some(Message::WorkSlice {
                    sweep_id,
                    slice_id,
                    spec_json: sweep.spec_json.clone(),
                    indices: indices.iter().map(|&i| i as u64).collect(),
                });
            }
        }
        None
    }

    /// Folds one streamed row into its global slot and journals it; returns
    /// whether the row filled the slot. Rows for slots already filled
    /// (duplicate execution after a requeue) are ignored — folding is
    /// idempotent, which is what makes at-least-once delivery safe.
    fn fold(&mut self, sweep_id: u64, slice_id: u64, index: u64, row_json: &str) -> bool {
        let Some(sweep) = self.sweeps.get_mut(&sweep_id) else {
            return false;
        };
        if let Some(slice) = sweep.in_flight.get_mut(&slice_id) {
            slice.last_activity = Instant::now();
        }
        let i = index as usize;
        if i >= sweep.slots.len() || sweep.slots[i].is_some() {
            return false;
        }
        let row = Value::parse(row_json)
            .and_then(|v| JobResult::from_value(&v))
            .and_then(|row| check_row(&sweep.spec, i, &row).map(|()| row));
        let row = match row {
            Ok(row) => row,
            Err(e) => {
                // Leave the slot empty: the slice-done sweep below (or the
                // reaper) will requeue it. A malformed or misplaced row is
                // an anomaly worth surfacing even on quiet coordinators.
                comdml_obs::warn!(
                    "comdml_exp::farm",
                    "sweep {sweep_id}: dropping row {index}: {e}"
                );
                return false;
            }
        };
        let journaled = self.record(false, || {
            Value::Obj(vec![
                ("sweep".into(), Value::Num(sweep_id as f64)),
                ("index".into(), Value::Num(i as f64)),
                ("row".into(), row.to_value()),
            ])
        });
        if let Err(e) = journaled {
            // The row still counts; only a restart would recompute it.
            comdml_obs::warn!("comdml_exp::farm", "sweep {sweep_id}: journal write failed: {e}");
        }
        let sweep = self.sweeps.get_mut(&sweep_id).expect("sweep checked above");
        sweep.slots[i] = Some(row);
        sweep.done += 1;
        if sweep.complete() {
            let elapsed = sweep.submitted.elapsed().as_secs_f64();
            sweep.finished_in_s = Some(elapsed);
            let requeued = sweep.requeued;
            self.log(format_args!(
                "sweep {sweep_id} complete: {} jobs in {elapsed:.2}s ({requeued} requeued)",
                self.sweeps[&sweep_id].total()
            ));
        }
        true
    }

    /// Retires a slice the worker reports fully sent. Any index still
    /// empty (a row lost or malformed en route) goes back on the queue;
    /// returns how many.
    fn slice_done(&mut self, sweep_id: u64, slice_id: u64) -> usize {
        let Some(sweep) = self.sweeps.get_mut(&sweep_id) else {
            return 0;
        };
        let Some(info) = sweep.in_flight.remove(&slice_id) else {
            return 0;
        };
        let n = sweep.requeue(info);
        if n > 0 {
            self.log(format_args!(
                "sweep {sweep_id}: slice {slice_id} retired with {n} missing rows — requeued"
            ));
        }
        n
    }

    /// A live worker refreshes every slice it holds.
    fn heartbeat(&mut self, worker: u64) {
        let now = Instant::now();
        for sweep in self.sweeps.values_mut() {
            for slice in sweep.in_flight.values_mut() {
                if slice.worker == worker {
                    slice.last_activity = now;
                }
            }
        }
    }

    /// Connection-drop path: requeues everything the worker held,
    /// immediately.
    fn worker_gone(&mut self, worker: u64) {
        let name = self.workers.remove(&worker).map(|w| w.name).unwrap_or_default();
        let mut requeues: Vec<(u64, usize)> = Vec::new();
        for (&sweep_id, sweep) in self.sweeps.iter_mut() {
            let held: Vec<u64> = sweep
                .in_flight
                .iter()
                .filter(|(_, s)| s.worker == worker)
                .map(|(&id, _)| id)
                .collect();
            for slice_id in held {
                let info = sweep.in_flight.remove(&slice_id).expect("slice id just listed");
                let n = sweep.requeue(info);
                if n > 0 {
                    requeues.push((sweep_id, n));
                }
            }
        }
        for (sweep_id, n) in requeues {
            self.log(format_args!(
                "worker {worker} ({name}) disconnected: requeued {n} jobs of sweep {sweep_id}"
            ));
        }
    }

    /// Heartbeat-timeout path: requeues slices nobody has touched within
    /// the timeout (worker hung, wedged, or silently partitioned). Returns
    /// whether anything went back on a queue.
    fn reap(&mut self) -> bool {
        let timeout = self.cfg.worker_timeout;
        let mut requeues: Vec<(u64, u64, u64, usize)> = Vec::new();
        for (&sweep_id, sweep) in self.sweeps.iter_mut() {
            let stale: Vec<u64> = sweep
                .in_flight
                .iter()
                .filter(|(_, s)| s.last_activity.elapsed() > timeout)
                .map(|(&id, _)| id)
                .collect();
            for slice_id in stale {
                let info = sweep.in_flight.remove(&slice_id).expect("slice id just listed");
                let worker = info.worker;
                let n = sweep.requeue(info);
                if n > 0 {
                    sweep.timed_out_slices += 1;
                    comdml_obs::counter_add("farm.slices_timed_out", 1);
                    requeues.push((sweep_id, slice_id, worker, n));
                }
            }
        }
        for &(sweep_id, slice_id, worker, n) in &requeues {
            self.log(format_args!(
                "sweep {sweep_id}: slice {slice_id} timed out on worker {worker} — requeued {n} jobs"
            ));
        }
        !requeues.is_empty()
    }

    /// Why `sweep_id` names no resident sweep.
    fn missing(&self, sweep_id: u64) -> String {
        let issued = (1..self.next_sweep_id).contains(&sweep_id)
            && !self.never_submitted.iter().any(|r| r.contains(&sweep_id));
        if issued {
            format!("sweep {sweep_id} was fetched and released")
        } else {
            format!("unknown sweep {sweep_id}")
        }
    }

    fn status_message(&self, sweep_id: u64) -> Result<Message, String> {
        let sweep = self.sweeps.get(&sweep_id).ok_or_else(|| self.missing(sweep_id))?;
        let total = sweep.total();
        let done = sweep.done;
        let complete = sweep.complete();
        let in_flight: usize = sweep
            .in_flight
            .values()
            .map(|s| s.indices.iter().filter(|&&i| sweep.slots[i].is_none()).count())
            .sum();
        let queued: usize = sweep.queue.iter().map(Vec::len).sum();
        let elapsed_s =
            sweep.finished_in_s.unwrap_or_else(|| sweep.submitted.elapsed().as_secs_f64());
        let eta_s = eta_seconds(done as u64, total as u64, elapsed_s, complete);
        Ok(Message::StatusReport {
            sweep_id,
            total: total as u64,
            done: done as u64,
            in_flight: in_flight as u64,
            queued: queued as u64,
            requeued: sweep.requeued as u64,
            workers: self.workers.len() as u64,
            complete,
            elapsed_s,
            eta_s,
            requeued_slices: sweep.requeued_slices,
            timed_out_slices: sweep.timed_out_slices,
            skipped_unknown: self.skipped_unknown,
        })
    }

    /// Per-worker telemetry rows accompanying a status report (protocol
    /// ≥ 2). Throughput is computed here, at report time, from the job
    /// count the worker last snapshotted and its connected lifetime.
    fn detail_message(&self, sweep_id: u64) -> Message {
        let mut rows: Vec<WorkerRow> = self
            .workers
            .iter()
            .map(|(&worker_id, stats)| WorkerRow {
                worker_id,
                name: stats.name.clone(),
                jobs_done: stats.jobs_done,
                slices_done: stats.slices_done,
                jobs_per_s: stats.jobs_done as f64
                    / stats.first_seen.elapsed().as_secs_f64().max(1e-9),
                slice_p50_ms: stats.slice_p50_ms,
                slice_p90_ms: stats.slice_p90_ms,
                skipped_unknown: stats.skipped_unknown,
            })
            .collect();
        rows.sort_by_key(|r| r.worker_id);
        Message::StatusDetail { sweep_id, rows }
    }

    /// The fetch reply for `sweep_id`. The first complete fetch marks the
    /// sweep fetched, which releases the oldest-fetched sweep once more
    /// than [`RETAIN_FETCHED`] are resident.
    fn fetch_message(&mut self, sweep_id: u64) -> Result<Message, String> {
        let missing = self.missing(sweep_id);
        let sweep = self.sweeps.get_mut(&sweep_id).ok_or(missing)?;
        if !sweep.complete() {
            return Ok(Message::FetchReport {
                sweep_id,
                complete: false,
                spec_json: String::new(),
                rows_json: String::new(),
            });
        }
        // Rows in global (report) order, as one canonical JSON array.
        let rows = Value::Arr(
            sweep.slots.iter().map(|s| s.as_ref().expect("complete sweep").to_value()).collect(),
        );
        let report = Message::FetchReport {
            sweep_id,
            complete: true,
            spec_json: sweep.spec_json.clone(),
            rows_json: rows.render(),
        };
        if !std::mem::replace(&mut sweep.fetched, true) {
            self.fetched.push_back(sweep_id);
            if self.fetched.len() > RETAIN_FETCHED {
                if let Some(released) = self.fetched.pop_front() {
                    self.sweeps.remove(&released);
                    self.log(format_args!("sweep {released} released"));
                }
            }
        }
        Ok(report)
    }
}

/// The coordinator's shared core: the state behind its one lock, and the
/// condition variable that parked work requests and the reaper wait on.
#[derive(Debug)]
struct Farm {
    state: Mutex<FarmState>,
    /// Notified, under the state lock, whenever a slice may have become
    /// grantable (a submit or a requeue) and at stop.
    wake: Condvar,
}

impl Farm {
    fn lock(&self) -> MutexGuard<'_, FarmState> {
        self.state.lock().expect("farm state lock never poisoned")
    }

    /// Waits on [`Farm::wake`] for at most `timeout`.
    fn wait<'a>(
        &self,
        st: MutexGuard<'a, FarmState>,
        timeout: Duration,
    ) -> MutexGuard<'a, FarmState> {
        self.wake.wait_timeout(st, timeout).expect("farm state lock never poisoned").0
    }
}

/// A running farm coordinator: the TCP service plus the reaper thread.
///
/// Dropping (or [`Coordinator::shutdown`]) stops the accept loop and the
/// reaper; workers see `Shutdown` on their next (or parked) `WorkRequest`
/// and drain politely, and client connections are closed.
#[derive(Debug)]
pub struct Coordinator {
    handle: ServerHandle,
    farm: Arc<Farm>,
    reaper: Option<JoinHandle<()>>,
}

impl Coordinator {
    /// Replays the configured journal, if any, then binds `addr` (e.g.
    /// `"127.0.0.1:0"` for an ephemeral port) and starts serving.
    ///
    /// # Errors
    ///
    /// Propagates journal I/O and bind failures.
    pub fn bind(addr: &str, cfg: FarmConfig) -> std::io::Result<Self> {
        let period = (cfg.worker_timeout / 4).max(Duration::from_millis(1));
        let mut state = FarmState::new(cfg);
        if let Some(path) = state.cfg.journal.clone() {
            state.open_journal(&path)?;
        }
        let farm = Arc::new(Farm { state: Mutex::new(state), wake: Condvar::new() });
        let session_farm = Arc::clone(&farm);
        let handle = serve(addr, move |stream, _peer, stop| {
            session(&session_farm, stream, stop);
        })?;
        let stop = handle.stop_flag();
        let reaper_farm = Arc::clone(&farm);
        let reaper = std::thread::spawn(move || {
            let mut st = reaper_farm.lock();
            let mut next = Instant::now() + period;
            while !stop.load(Ordering::SeqCst) {
                let now = Instant::now();
                if now >= next {
                    if st.reap() {
                        reaper_farm.wake.notify_all();
                    }
                    next = now + period;
                }
                st = reaper_farm.wait(st, next.saturating_duration_since(now));
            }
        });
        Ok(Self { handle, farm, reaper: Some(reaper) })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.handle.local_addr()
    }

    /// Signals shutdown without waiting: sets the stop flag, then, under
    /// the state lock (so no parked request misses it), wakes every parked
    /// request and the reaper, and closes every client connection.
    pub fn stop(&self) {
        self.handle.stop();
        let mut st = self.farm.lock();
        self.farm.wake.notify_all();
        for (_, client) in st.clients.drain() {
            let _ = client.shutdown(Shutdown::Both);
        }
    }

    /// Stops and joins the service threads.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.stop();
        if let Some(t) = self.reaper.take() {
            let _ = t.join();
        }
    }
}

/// Answers a `WorkRequest`: a slice if one is queued; otherwise the
/// request parks until a submit, requeue or stop wakes it, for at most half
/// the worker timeout, after which the worker is told to ask again at once.
fn work_reply(farm: &Farm, worker_id: u64, stop: &AtomicBool) -> Message {
    let mut st = farm.lock();
    let deadline = Instant::now() + st.cfg.worker_timeout / 2;
    loop {
        // Checked under the lock `Coordinator::stop` notifies under, so a
        // stop can never fall between this check and the wait.
        if stop.load(Ordering::SeqCst) {
            return Message::Shutdown;
        }
        if let Some(slice) = st.grant(worker_id) {
            return slice;
        }
        let now = Instant::now();
        if now >= deadline {
            return Message::NoWork { retry_ms: 0 };
        }
        st = farm.wait(st, deadline - now);
    }
}

/// One connection's session loop: pure request/response, with the
/// fire-and-forget worker messages (`JobDone`, `SliceDone`, `Heartbeat`)
/// folded in between. The state lock is never held across a send.
fn session(farm: &Farm, mut stream: FramedStream, stop: &AtomicBool) {
    let Ok(proto) = stream.handshake() else {
        return;
    };
    // Until it says `WorkerHello`, the peer is a client, hung up on at stop.
    let client_id = {
        let mut st = farm.lock();
        let Ok(sock) = stream.get_ref().try_clone() else {
            return;
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let id = st.next_client_id;
        st.next_client_id += 1;
        st.clients.insert(id, sock);
        id
    };
    let mut worker_id: Option<u64> = None;
    let mut skipped_folded = 0u64;
    // Loop until the peer vanishes (or speaks garbage) or says Shutdown.
    'session: while let Ok(msg) = stream.recv() {
        // Fold this stream's unknown-kind skips into the farm-wide count
        // (delta since last fold, so the total is exact across sessions).
        let skipped = stream.skipped_unknown();
        if skipped > skipped_folded {
            farm.lock().skipped_unknown += skipped - skipped_folded;
            skipped_folded = skipped;
        }
        let mut replies: Vec<Message> = Vec::new();
        match msg {
            Message::SubmitSweep { spec_json } => {
                let mut st = farm.lock();
                replies.push(match st.submit(&spec_json) {
                    Ok((sweep_id, total_jobs)) => {
                        farm.wake.notify_all();
                        Message::SweepQueued { sweep_id, total_jobs }
                    }
                    Err(detail) => Message::FarmError { detail },
                })
            }
            Message::StatusRequest { sweep_id } => {
                let st = farm.lock();
                match st.status_message(sweep_id) {
                    Ok(report) => {
                        replies.push(report);
                        // Per-worker rows only when the negotiated revision
                        // carries them — a protocol-1 client isn't waiting
                        // for a second frame.
                        if proto >= 2 {
                            replies.push(st.detail_message(sweep_id));
                        }
                    }
                    Err(detail) => replies.push(Message::FarmError { detail }),
                }
            }
            Message::FetchRequest { sweep_id } => replies.push(
                farm.lock()
                    .fetch_message(sweep_id)
                    .unwrap_or_else(|detail| Message::FarmError { detail }),
            ),
            Message::WorkerHello { name, threads } => {
                let mut st = farm.lock();
                // Workers are drained with `Shutdown`, not hung up on.
                st.clients.remove(&client_id);
                let id = st.register_worker(&name, threads);
                worker_id = Some(id);
                replies.push(Message::WorkerWelcome { worker_id: id });
            }
            Message::WorkRequest { worker_id } => replies.push(work_reply(farm, worker_id, stop)),
            Message::JobDone { sweep_id, slice_id, index, row_json } => {
                farm.lock().fold(sweep_id, slice_id, index, &row_json);
            }
            Message::SliceDone { sweep_id, slice_id } => {
                let mut st = farm.lock();
                if st.slice_done(sweep_id, slice_id) > 0 {
                    farm.wake.notify_all();
                }
            }
            Message::Heartbeat { worker_id } => {
                farm.lock().heartbeat(worker_id);
            }
            msg @ Message::WorkerMetrics { .. } => {
                farm.lock().worker_metrics(&msg);
            }
            Message::Shutdown => break,
            other => replies
                .push(Message::FarmError { detail: format!("unexpected {} here", other.name()) }),
        }
        for reply in replies {
            if stream.send(&reply).is_err() {
                break 'session;
            }
        }
    }
    let mut st = farm.lock();
    st.clients.remove(&client_id);
    if let Some(id) = worker_id {
        st.worker_gone(id);
        farm.wake.notify_all();
    }
}

/// Worker tuning knobs.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Local pool threads; 0 means every available core.
    pub threads: usize,
    /// Name reported to the coordinator (for its event log).
    pub name: String,
    /// Die abruptly — drop the connection mid-slice, no goodbye — after
    /// running this many jobs. A deterministic stand-in for a crashed
    /// host, used by the fault-injection tests and `--max-jobs`.
    pub max_jobs: Option<usize>,
    /// Heartbeat interval; keep well under the coordinator's
    /// `worker_timeout`.
    pub heartbeat: Duration,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        Self {
            threads: 0,
            name: "worker".into(),
            max_jobs: None,
            heartbeat: Duration::from_millis(500),
        }
    }
}

/// What a worker did before it stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Identity the coordinator assigned.
    pub worker_id: u64,
    /// Jobs fully executed and streamed back.
    pub jobs_run: usize,
    /// Slices drained to completion.
    pub slices_run: usize,
    /// `true` when the coordinator said `Shutdown`; `false` when the
    /// worker hit its `max_jobs` budget and died on purpose.
    pub clean_shutdown: bool,
}

fn wire_err(context: &str, e: impl std::fmt::Display) -> String {
    format!("{context}: {e}")
}

/// Worker-side telemetry shared between the slice loop and the heartbeat
/// thread. Always on: it times whole slices (never individual jobs), so
/// the cost is one `Instant` pair per slice — nothing the byte-identity
/// contract can see, since rows carry no wall times.
#[derive(Debug, Default)]
struct WorkerTelemetry {
    jobs: AtomicU64,
    slices: AtomicU64,
    skipped_unknown: AtomicU64,
    slice_ms: Mutex<Histogram>,
}

impl WorkerTelemetry {
    /// The current snapshot as a wire message.
    fn snapshot(&self, worker_id: u64) -> Message {
        let hist = self.slice_ms.lock().expect("telemetry hist lock never poisoned");
        Message::WorkerMetrics {
            worker_id,
            jobs_done: self.jobs.load(Ordering::SeqCst),
            slices_done: self.slices.load(Ordering::SeqCst),
            slice_p50_ms: hist.p50(),
            slice_p90_ms: hist.p90(),
            skipped_unknown: self.skipped_unknown.load(Ordering::SeqCst),
        }
    }
}

/// Runs a worker against the coordinator at `addr` until the coordinator
/// says `Shutdown` (or the `max_jobs` budget trips). Pulls one slice at a
/// time, executes it on the local [`SweepRunner`] pool, and streams every
/// row back the moment it finishes.
///
/// # Errors
///
/// Connection and protocol failures, described.
pub fn run_worker(addr: &str, opts: &WorkerOptions) -> Result<WorkerSummary, String> {
    let threads = if opts.threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        opts.threads
    };
    let sock = TcpStream::connect(addr).map_err(|e| wire_err(addr, e))?;
    let mut reader = FramedStream::new(sock);
    // The hello rides behind our `Version`: registration costs one round
    // trip, not two.
    let hello = Message::WorkerHello { name: opts.name.clone(), threads: threads as u32 };
    let proto = reader.handshake_with(&hello).map_err(|e| wire_err("handshake", e))?;
    // Split the connection: this thread reads grants; pool threads, the
    // heartbeat thread and the request path share the write half.
    let writer = Arc::new(Mutex::new(reader.try_clone().map_err(|e| wire_err("clone stream", e))?));
    let send = |msg: &Message| -> Result<(), String> {
        writer
            .lock()
            .expect("worker writer lock never poisoned")
            .send(msg)
            .map_err(|e| wire_err("send", e))
    };
    let worker_id = match reader.recv().map_err(|e| wire_err("recv", e))? {
        Message::WorkerWelcome { worker_id } => worker_id,
        Message::FarmError { detail } => return Err(detail),
        other => return Err(format!("expected WorkerWelcome, got {}", other.name())),
    };

    let telemetry = Arc::new(WorkerTelemetry::default());
    // Dropping `hb_stop` ends the heartbeat thread's wait at once.
    let (hb_stop, hb_stopped) = mpsc::channel::<()>();
    let hb_thread = {
        let writer = Arc::clone(&writer);
        let telemetry = Arc::clone(&telemetry);
        let interval = opts.heartbeat;
        std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = hb_stopped.recv_timeout(interval) {
                let mut w = writer.lock().expect("worker writer lock never poisoned");
                if w.send(&Message::Heartbeat { worker_id }).is_err() {
                    break;
                }
                // Piggyback the telemetry snapshot on every heartbeat when
                // the coordinator speaks protocol 2 (it doubles as a sign
                // of life for slices whose jobs outlast the timeout).
                if proto >= 2 && w.send(&telemetry.snapshot(worker_id)).is_err() {
                    break;
                }
            }
        })
    };

    let runner = SweepRunner::new().progress(false).threads(threads);
    // The current sweep's parsed spec, so a thousand slices don't re-parse.
    let mut current: Option<(u64, SweepSpec)> = None;
    let jobs_run = AtomicUsize::new(0);
    let mut slices_run = 0usize;

    let outcome = loop {
        if let Err(e) = send(&Message::WorkRequest { worker_id }) {
            break Err(e);
        }
        let received = reader.recv();
        telemetry.skipped_unknown.store(reader.skipped_unknown(), Ordering::SeqCst);
        match received {
            Ok(Message::WorkSlice { sweep_id, slice_id, spec_json, indices }) => {
                let spec = match current.take() {
                    Some((id, spec)) if id == sweep_id => spec,
                    _ => match SweepSpec::parse(&spec_json) {
                        Ok(parsed) => parsed,
                        Err(e) => break Err(format!("bad spec for sweep {sweep_id}: {e}")),
                    },
                };
                let spec = &current.insert((sweep_id, spec)).1;
                let entries: Vec<(usize, JobSpec)> = indices
                    .iter()
                    .filter_map(|&gi| spec.job(gi as usize).map(|job| (gi as usize, job)))
                    .collect();
                let cancel = Arc::new(AtomicBool::new(false));
                let source = JobSource::new(entries).with_cancel(Arc::clone(&cancel));
                let send_error: Mutex<Option<String>> = Mutex::new(None);
                let slice_start = Instant::now();
                runner.execute_source(spec, &source, &|global, row| {
                    let msg = Message::JobDone {
                        sweep_id,
                        slice_id,
                        index: global as u64,
                        row_json: row.to_value().render(),
                    };
                    if let Err(e) = send(&msg) {
                        *send_error.lock().expect("send error slot") = Some(e);
                        cancel.store(true, Ordering::SeqCst);
                        return;
                    }
                    telemetry.jobs.fetch_add(1, Ordering::SeqCst);
                    let n = jobs_run.fetch_add(1, Ordering::SeqCst) + 1;
                    if opts.max_jobs.is_some_and(|budget| n >= budget) {
                        cancel.store(true, Ordering::SeqCst);
                    }
                });
                if let Some(e) = send_error.lock().expect("send error slot").take() {
                    break Err(e);
                }
                if cancel.load(Ordering::SeqCst) {
                    // Budget tripped: die like a crashed host — no
                    // SliceDone, no goodbye, just a dropped connection.
                    break Ok(WorkerSummary {
                        worker_id,
                        jobs_run: jobs_run.load(Ordering::SeqCst),
                        slices_run,
                        clean_shutdown: false,
                    });
                }
                slices_run += 1;
                telemetry
                    .slice_ms
                    .lock()
                    .expect("telemetry hist lock never poisoned")
                    .record(slice_start.elapsed().as_secs_f64() * 1e3);
                telemetry.slices.fetch_add(1, Ordering::SeqCst);
                if let Err(e) = send(&Message::SliceDone { sweep_id, slice_id }) {
                    break Err(e);
                }
                // Fresh numbers right behind the completion, so status
                // output reflects finished slices without a heartbeat wait.
                if proto >= 2 {
                    if let Err(e) = send(&telemetry.snapshot(worker_id)) {
                        break Err(e);
                    }
                }
            }
            Ok(Message::NoWork { retry_ms }) => {
                std::thread::sleep(Duration::from_millis(u64::from(retry_ms.min(2000))));
            }
            Ok(Message::Shutdown) => {
                break Ok(WorkerSummary {
                    worker_id,
                    jobs_run: jobs_run.load(Ordering::SeqCst),
                    slices_run,
                    clean_shutdown: true,
                });
            }
            Ok(Message::FarmError { detail }) => break Err(detail),
            Ok(other) => break Err(format!("unexpected {} from coordinator", other.name())),
            Err(e) => break Err(wire_err("coordinator connection lost", e)),
        }
    };
    drop(hb_stop);
    let _ = hb_thread.join();
    outcome
    // The socket (reader + cloned writer) closes here; a coordinator
    // watching this worker sees the drop immediately.
}

/// Live progress of a submitted sweep, as reported by [`status`].
#[derive(Debug, Clone, PartialEq)]
pub struct FarmStatus {
    /// Sweep queried.
    pub sweep_id: u64,
    /// Total jobs in the matrix.
    pub total: u64,
    /// Jobs folded into their slots.
    pub done: u64,
    /// Jobs currently out with workers (unfilled only).
    pub in_flight: u64,
    /// Jobs still queued, never (or re-)granted.
    pub queued: u64,
    /// Jobs granted more than once after a death or timeout.
    pub requeued: u64,
    /// Workers currently connected.
    pub workers: u64,
    /// Every slot filled.
    pub complete: bool,
    /// Seconds since submission (frozen at completion).
    pub elapsed_s: f64,
    /// Linear completion estimate; negative while unknown, 0 when done.
    pub eta_s: f64,
    /// Slices re-queued after a worker death or timeout (slice-granular).
    pub requeued_slices: u64,
    /// Slices re-queued specifically by the heartbeat reaper.
    pub timed_out_slices: u64,
    /// Unknown-kind frames the coordinator skipped across its sessions.
    pub skipped_unknown: u64,
    /// Per-worker live telemetry (empty against a protocol-1 coordinator).
    pub worker_rows: Vec<WorkerRow>,
}

thread_local! {
    /// This thread's open coordinator connections for [`submit`],
    /// [`status`] and [`fetch`], one per address.
    static CONNECTIONS: RefCell<HashMap<String, FramedStream>> = RefCell::new(HashMap::new());
}

/// Runs one request/response `exchange` on this thread's connection to
/// `addr`. A missing connection, or a cached one whose peer has closed, is
/// replaced by a fresh, handshaken one before anything is sent. A
/// connection on which the exchange fails is dropped, and the request is
/// not retried.
fn with_connection<T>(
    addr: &str,
    exchange: impl FnOnce(&mut FramedStream) -> Result<T, NetError>,
) -> Result<T, String> {
    let cached = CONNECTIONS.with_borrow_mut(|conns| conns.remove(addr));
    let mut stream = match cached.filter(|s| !s.peer_closed()) {
        Some(stream) => stream,
        None => {
            let sock = TcpStream::connect(addr).map_err(|e| wire_err(addr, e))?;
            let mut stream = FramedStream::new(sock);
            stream.handshake().map_err(|e| wire_err("handshake", e))?;
            stream
        }
    };
    let out = exchange(&mut stream).map_err(|e| wire_err(addr, e))?;
    CONNECTIONS.with_borrow_mut(|conns| conns.insert(addr.to_string(), stream));
    Ok(out)
}

fn request(addr: &str, msg: &Message) -> Result<Message, String> {
    let reply = with_connection(addr, |stream| {
        stream.send(msg)?;
        stream.recv()
    })?;
    match reply {
        Message::FarmError { detail } => Err(detail),
        reply => Ok(reply),
    }
}

/// Submits a sweep to the coordinator at `addr`; returns
/// `(sweep id, total jobs)`.
///
/// # Errors
///
/// Connection failures and spec validation errors, described.
pub fn submit(addr: &str, spec: &SweepSpec) -> Result<(u64, u64), String> {
    match request(addr, &Message::SubmitSweep { spec_json: spec.render() })? {
        Message::SweepQueued { sweep_id, total_jobs } => Ok((sweep_id, total_jobs)),
        other => Err(format!("expected SweepQueued, got {}", other.name())),
    }
}

/// Queries a sweep's progress. Against a protocol-2 coordinator the
/// report arrives with per-worker telemetry rows; against protocol 1 the
/// rows are simply empty.
///
/// # Errors
///
/// Connection failures and unknown sweep ids, described.
pub fn status(addr: &str, sweep_id: u64) -> Result<FarmStatus, String> {
    let (report, detail) = with_connection(addr, |stream| {
        let proto = stream.peer_version().unwrap_or(1).min(PROTOCOL_VERSION);
        stream.send(&Message::StatusRequest { sweep_id })?;
        let report = stream.recv()?;
        // Per-worker rows follow a report when the revision carries them.
        let detail = match report {
            Message::StatusReport { .. } if proto >= 2 => Some(stream.recv()?),
            _ => None,
        };
        Ok((report, detail))
    })?;
    match report {
        Message::FarmError { detail } => Err(detail),
        Message::StatusReport {
            sweep_id,
            total,
            done,
            in_flight,
            queued,
            requeued,
            workers,
            complete,
            elapsed_s,
            eta_s,
            requeued_slices,
            timed_out_slices,
            skipped_unknown,
        } => {
            let worker_rows = match detail {
                Some(Message::StatusDetail { rows, .. }) => rows,
                Some(other) => return Err(format!("expected StatusDetail, got {}", other.name())),
                None => Vec::new(),
            };
            Ok(FarmStatus {
                sweep_id,
                total,
                done,
                in_flight,
                queued,
                requeued,
                workers,
                complete,
                elapsed_s,
                eta_s,
                requeued_slices,
                timed_out_slices,
                skipped_unknown,
                worker_rows,
            })
        }
        other => Err(format!("expected StatusReport, got {}", other.name())),
    }
}

/// Fetches a finished sweep and reassembles the [`SweepReport`] — the
/// byte-identical twin of the single-process run. `Ok(None)` while the
/// sweep is still running.
///
/// # Errors
///
/// Connection failures, unknown sweep ids, and malformed payloads,
/// described.
pub fn fetch(addr: &str, sweep_id: u64) -> Result<Option<SweepReport>, String> {
    match request(addr, &Message::FetchRequest { sweep_id })? {
        Message::FetchReport { complete: false, .. } => Ok(None),
        Message::FetchReport { spec_json, rows_json, .. } => {
            let spec = SweepSpec::parse(&spec_json)?;
            let rows = Value::parse(&rows_json)?;
            let jobs = rows
                .as_array()
                .ok_or("rows payload must be a JSON array")?
                .iter()
                .map(JobResult::from_value)
                .collect::<Result<Vec<_>, _>>()?;
            if jobs.len() != spec.num_jobs() {
                return Err(format!(
                    "fetched {} rows for a {}-job matrix",
                    jobs.len(),
                    spec.num_jobs()
                ));
            }
            Ok(Some(SweepReport::assemble(&spec, jobs)))
        }
        other => Err(format!("expected FetchReport, got {}", other.name())),
    }
}

/// Polls [`status`] every `poll` until the sweep completes, then
/// [`fetch`]es the report. With `progress` on, writes a live counter line
/// to stderr.
///
/// # Errors
///
/// Whatever [`status`] or [`fetch`] report.
pub fn wait_and_fetch(
    addr: &str,
    sweep_id: u64,
    poll: Duration,
    progress: bool,
) -> Result<SweepReport, String> {
    loop {
        let s = status(addr, sweep_id)?;
        if progress {
            let eta = if s.eta_s < 0.0 { "?".into() } else { format!("{:.0}s", s.eta_s) };
            eprint!(
                "\rfarm sweep {}: {}/{} done, {} in flight, {} queued, {} workers, eta {eta}   ",
                s.sweep_id, s.done, s.total, s.in_flight, s.queued, s.workers
            );
            if s.complete {
                eprintln!();
            }
        }
        if s.complete {
            return fetch(addr, sweep_id)?
                .ok_or_else(|| "sweep reported complete but fetch says running".to_string());
        }
        std::thread::sleep(poll);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Method, ScenarioSpec};

    fn tiny_spec() -> SweepSpec {
        SweepSpec::new("farm_unit")
            .seeds(1, 2)
            .method(Method::ComDml)
            .method(Method::FedAvg)
            .scenario(ScenarioSpec::new("tiny").agents(5).rounds(3))
    }

    #[test]
    fn submit_slices_the_matrix() {
        let mut state = FarmState::new(FarmConfig { slice_size: 3, ..FarmConfig::default() });
        let (id, total) = state.submit(&tiny_spec().render()).unwrap();
        assert_eq!(total, 4);
        let sweep = &state.sweeps[&id];
        assert_eq!(sweep.queue.len(), 2); // 3 + 1
        assert_eq!(sweep.queue[0], vec![0, 1, 2]);
        assert_eq!(sweep.queue[1], vec![3]);
    }

    #[test]
    fn submit_rejects_garbage() {
        let mut state = FarmState::new(FarmConfig::default());
        assert!(state.submit("not json").is_err());
    }

    #[test]
    fn fold_is_idempotent_and_requeue_skips_filled_slots() {
        let mut state =
            FarmState::new(FarmConfig { slice_size: 4, quiet: true, ..FarmConfig::default() });
        let (id, _) = state.submit(&tiny_spec().render()).unwrap();
        let w = state.register_worker("w", 1);
        let Some(Message::WorkSlice { slice_id, spec_json, indices, .. }) = state.grant(w) else {
            panic!("expected a slice");
        };
        assert_eq!(indices, vec![0, 1, 2, 3]);
        let spec = SweepSpec::parse(&spec_json).unwrap();
        let job = spec.job(0).unwrap();
        let row = crate::run_job(&spec.scenarios[job.scenario], job.method, job.seed);
        let row_json = row.to_value().render();
        state.fold(id, slice_id, 0, &row_json);
        state.fold(id, slice_id, 0, &row_json); // duplicate: ignored
        assert_eq!(state.sweeps[&id].done, 1);
        // Worker dies: only the three unfilled indices come back.
        state.worker_gone(w);
        let sweep = &state.sweeps[&id];
        assert_eq!(sweep.queue.front().unwrap(), &vec![1, 2, 3]);
        assert_eq!(sweep.requeued, 3);
        assert_eq!(sweep.done, 1);
    }

    #[test]
    fn fold_drops_rows_for_the_wrong_job() {
        let mut state =
            FarmState::new(FarmConfig { slice_size: 4, quiet: true, ..FarmConfig::default() });
        let spec = tiny_spec();
        let (id, _) = state.submit(&spec.render()).unwrap();
        let row = |i: usize| {
            let job = spec.job(i).unwrap();
            crate::run_job(&spec.scenarios[job.scenario], job.method, job.seed).to_value().render()
        };
        // Job 1's row (another seed) and job 2's (another method) do not
        // belong in slot 0; the slot stays empty for the requeue.
        assert!(!state.fold(id, 0, 0, &row(1)));
        assert!(!state.fold(id, 0, 0, &row(2)));
        assert_eq!(state.sweeps[&id].done, 0);
        assert!(state.sweeps[&id].slots[0].is_none());
        assert!(state.fold(id, 0, 0, &row(0)));
        assert_eq!(state.sweeps[&id].done, 1);
    }

    /// The rendered rows of `spec`, in global order.
    fn rows_of(spec: &SweepSpec) -> Vec<String> {
        SweepRunner::jobs(spec)
            .iter()
            .map(|job| {
                crate::run_job(&spec.scenarios[job.scenario], job.method, job.seed)
                    .to_value()
                    .render()
            })
            .collect()
    }

    /// Submits `spec` and folds every row; returns the sweep id.
    fn complete_sweep(state: &mut FarmState, spec: &SweepSpec, rows: &[String]) -> u64 {
        let (id, _) = state.submit(&spec.render()).unwrap();
        for (i, row) in rows.iter().enumerate() {
            assert!(state.fold(id, 0, i as u64, row));
        }
        id
    }

    fn fetched_resident(state: &FarmState) -> usize {
        state.sweeps.values().filter(|s| s.fetched).count()
    }

    #[test]
    fn fetched_sweeps_are_released_and_memory_stays_bounded() {
        let mut state = FarmState::new(FarmConfig { quiet: true, ..FarmConfig::default() });
        let spec = tiny_spec();
        let rows = rows_of(&spec);
        for cycle in 1..=1000u64 {
            let id = complete_sweep(&mut state, &spec, &rows);
            assert_eq!(id, cycle);
            assert!(matches!(
                state.fetch_message(id),
                Ok(Message::FetchReport { complete: true, .. })
            ));
            assert!(fetched_resident(&state) <= RETAIN_FETCHED, "cycle {cycle}");
            assert_eq!(state.sweeps.len(), fetched_resident(&state), "cycle {cycle}");
        }
        assert_eq!(state.sweeps.len(), RETAIN_FETCHED);
        // The newest fetches are still served; the rest say why they are not.
        assert!(state.fetch_message(1000).is_ok() && state.status_message(993).is_ok());
        for id in [1, 992] {
            assert!(state.status_message(id).unwrap_err().contains("fetched and released"));
            assert!(state.fetch_message(id).unwrap_err().contains("fetched and released"));
        }
        for id in [0, 1001, u64::MAX] {
            assert!(state.status_message(id).unwrap_err().contains("unknown sweep"));
            assert!(state.fetch_message(id).unwrap_err().contains("unknown sweep"));
        }
        // Fetching a resident sweep again does not count as a newer fetch.
        state.fetch_message(993).unwrap();
        assert!(state.status_message(993).is_ok());
    }

    #[test]
    fn an_unfetched_complete_sweep_is_never_released() {
        let mut state = FarmState::new(FarmConfig { quiet: true, ..FarmConfig::default() });
        let spec = tiny_spec();
        let rows = rows_of(&spec);
        let kept = complete_sweep(&mut state, &spec, &rows);
        for _ in 0..3 * RETAIN_FETCHED {
            let id = complete_sweep(&mut state, &spec, &rows);
            state.fetch_message(id).unwrap();
        }
        let Ok(Message::StatusReport { complete: true, .. }) = state.status_message(kept) else {
            panic!("the unfetched sweep was released");
        };
        assert!(matches!(
            state.fetch_message(kept),
            Ok(Message::FetchReport { complete: true, .. })
        ));
    }

    #[test]
    fn ids_a_journal_replay_skipped_are_unknown_not_released() {
        let mut state = FarmState::new(FarmConfig { quiet: true, ..FarmConfig::default() });
        let line = format!("{{\"sweep\":3,\"spec\":{}}}", tiny_spec().to_value().render_compact());
        state.replay(line.as_bytes()).unwrap();
        for id in [1, 2] {
            assert!(state.status_message(id).unwrap_err().contains("unknown sweep"));
        }
        assert!(state.status_message(3).is_ok());
    }

    #[test]
    fn status_and_fetch_track_completion() {
        let mut state =
            FarmState::new(FarmConfig { slice_size: 64, quiet: true, ..FarmConfig::default() });
        let spec = tiny_spec();
        let (id, _) = state.submit(&spec.render()).unwrap();
        let w = state.register_worker("w", 1);
        let Some(Message::WorkSlice { slice_id, .. }) = state.grant(w) else {
            panic!("expected a slice");
        };
        let jobs = SweepRunner::jobs(&spec);
        for (gi, job) in jobs.iter().enumerate() {
            let row = crate::run_job(&spec.scenarios[job.scenario], job.method, job.seed);
            state.fold(id, slice_id, gi as u64, &row.to_value().render());
        }
        let Message::StatusReport { done, complete, eta_s, .. } = state.status_message(id).unwrap()
        else {
            panic!("expected status");
        };
        assert_eq!(done, 4);
        assert!(complete);
        assert_eq!(eta_s, 0.0);
        let Message::FetchReport { complete: true, spec_json, rows_json, .. } =
            state.fetch_message(id).unwrap()
        else {
            panic!("expected a complete fetch");
        };
        // The fetched payload reassembles to exactly the local report.
        let fetched_spec = SweepSpec::parse(&spec_json).unwrap();
        let rows = Value::parse(&rows_json).unwrap();
        let fetched_jobs: Vec<JobResult> =
            rows.as_array().unwrap().iter().map(|v| JobResult::from_value(v).unwrap()).collect();
        let fetched = SweepReport::assemble(&fetched_spec, fetched_jobs);
        let local = SweepRunner::new().progress(false).run(&spec).unwrap();
        assert_eq!(fetched.to_value().render(), local.to_value().render());
    }
}
