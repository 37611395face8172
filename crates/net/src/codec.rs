//! The typed message codec: [`Message`] over the versioned frame layer.
//!
//! [`FramedStream`] is a thin typed layer over [`crate::frame`]: `send`
//! encodes a message into one frame, `recv` reads frames until it finds a
//! kind this build knows — unknown kinds are *skipped with a warning*
//! (forward compatibility between adjacent builds) instead of raised as a
//! hard [`NetError`]. Use [`FramedStream::handshake`] right after
//! connecting to agree on a protocol revision.

use std::io::Write;
use std::net::TcpStream;

use crate::frame::{read_frame, write_frame, NetError, PROTOCOL_VERSION};

/// Little-endian cursor over a received frame body.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], NetError> {
        if self.buf.len() < n {
            return Err(NetError::BadFrame(format!("truncated {what}")));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn get_u8(&mut self, what: &str) -> Result<u8, NetError> {
        Ok(self.take(1, what)?[0])
    }

    fn get_bool(&mut self, what: &str) -> Result<bool, NetError> {
        match self.get_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(NetError::BadFrame(format!("{what}: bool byte {other}"))),
        }
    }

    fn get_u16_le(&mut self, what: &str) -> Result<u16, NetError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn get_u32_le(&mut self, what: &str) -> Result<u32, NetError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn get_u64_le(&mut self, what: &str) -> Result<u64, NetError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a u64 appended to a message after its first release: a body
    /// from an older peer simply ends before the field, which decodes as
    /// zero. A *partially* present field still errors (corruption, not
    /// version skew).
    fn get_u64_le_or_zero(&mut self, what: &str) -> Result<u64, NetError> {
        if self.remaining() == 0 {
            return Ok(0);
        }
        self.get_u64_le(what)
    }

    fn get_f64_le(&mut self, what: &str) -> Result<f64, NetError> {
        let b = self.take(8, what)?;
        Ok(f64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn get_f32_le(&mut self, what: &str) -> Result<f32, NetError> {
        let b = self.take(4, what)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn get_str(&mut self, what: &str) -> Result<String, NetError> {
        let n = self.get_u32_le(what)? as usize;
        let raw = self.take(n, what)?;
        String::from_utf8(raw.to_vec())
            .map_err(|e| NetError::BadFrame(format!("{what}: invalid utf-8: {e}")))
    }

    fn get_u64s(&mut self, what: &str) -> Result<Vec<u64>, NetError> {
        let n = self.get_u32_le(what)? as usize;
        if self.remaining() < n * 8 {
            return Err(NetError::BadFrame(format!(
                "{what} claims {n} u64s but only {} bytes remain",
                self.remaining()
            )));
        }
        (0..n).map(|_| self.get_u64_le(what)).collect()
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_u64s(buf: &mut Vec<u8>, vs: &[u64]) {
    put_u32(buf, vs.len() as u32);
    for &v in vs {
        put_u64(buf, v);
    }
}

fn put_f32s(buf: &mut Vec<u8>, data: &[f32]) {
    buf.extend_from_slice(&(data.len() as u32).to_le_bytes());
    buf.reserve(data.len() * 4);
    for &v in data {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn get_f32s(r: &mut Reader<'_>) -> Result<Vec<f32>, NetError> {
    let n = r.get_u32_le("vector length")? as usize;
    if r.remaining() < n * 4 {
        return Err(NetError::BadFrame(format!(
            "vector claims {n} floats but only {} bytes remain",
            r.remaining()
        )));
    }
    (0..n).map(|_| r.get_f32_le("vector")).collect()
}

/// One worker's live telemetry inside a [`Message::StatusDetail`] reply
/// (protocol ≥ 2): the coordinator's view of a connected worker, built
/// from the snapshots the worker piggybacks on its heartbeats.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerRow {
    /// The registered worker.
    pub worker_id: u64,
    /// Free-form worker name (host/pid by default).
    pub name: String,
    /// Jobs the worker has finished since connecting.
    pub jobs_done: u64,
    /// Slices the worker has finished since connecting.
    pub slices_done: u64,
    /// Realized throughput (jobs finished / seconds connected).
    pub jobs_per_s: f64,
    /// Median wall milliseconds per finished slice.
    pub slice_p50_ms: f64,
    /// 90th-percentile wall milliseconds per finished slice.
    pub slice_p90_ms: f64,
    /// Unknown-kind frames the worker's stream has skipped.
    pub skipped_unknown: u64,
}

/// Protocol messages exchanged between ComDML peers.
///
/// Two families share the wire format:
///
/// * the **training protocol** (kinds 0–8) — profile broadcasts, pairing
///   handshakes, activation streaming and model exchange;
/// * the **sweep-farm service** (kinds 9–27) — the version handshake plus
///   the coordinator/worker/client request–response vocabulary of the
///   distributed sweep farm (`comdml-exp`'s `exp_farm`). Farm payloads
///   that carry experiment objects (specs, job rows) travel as JSON text:
///   the farm's byte-identity guarantee rests on the exact rendered text,
///   so the wire never re-encodes them.
///
/// The encoding is a u16 kind tag (carried in the frame header) followed
/// by little-endian body fields; strings and vectors are length-prefixed.
/// Everything round-trips through [`Message::encode`] /
/// [`Message::decode`]. Kinds are append-only: never reuse a retired
/// number, so skip-unknown forward compatibility stays sound.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Initial identification after connecting.
    Hello {
        /// Sender's agent id.
        agent_id: u32,
    },
    /// Capability broadcast (Algorithm 1 line 2).
    Profile {
        /// Sender's agent id.
        agent_id: u32,
        /// Full-model processing speed in batches per second.
        batches_per_s: f64,
        /// Estimated solo training time in seconds.
        solo_time_s: f64,
    },
    /// Slow agent asks a fast agent to host `offload` layers.
    PairRequest {
        /// Requesting (slow) agent.
        slow_id: u32,
        /// Number of layers to offload.
        offload: u32,
    },
    /// Fast agent accepts the pairing.
    PairAccept {
        /// Accepting (fast) agent.
        fast_id: u32,
    },
    /// Fast agent declines (already paired).
    PairReject {
        /// Declining agent.
        fast_id: u32,
    },
    /// One batch of intermediate activations (slow → fast, §III-B), with
    /// the batch's labels so the fast side can evaluate its local loss
    /// (eq. 3 trains on `(z_n, y_n)` pairs).
    Activations {
        /// Batch index within the round.
        batch_idx: u32,
        /// Flattened activation values.
        data: Vec<f32>,
        /// Class labels of the batch (may be empty for inference traffic).
        labels: Vec<u32>,
    },
    /// Trained suffix parameters returned at the end of a round.
    SuffixParams {
        /// Flattened parameter values.
        data: Vec<f32>,
    },
    /// A model (or model chunk) exchanged during aggregation.
    ModelChunk {
        /// AllReduce step this chunk belongs to.
        step: u32,
        /// Chunk values.
        data: Vec<f32>,
    },
    /// End-of-round marker.
    Done,

    // ── Sweep-farm service (kinds 9+) ───────────────────────────────────
    /// Protocol-version handshake; both sides send it first and adopt the
    /// minimum (see [`FramedStream::handshake`]).
    Version {
        /// The sender's [`PROTOCOL_VERSION`].
        proto: u16,
    },
    /// Client → coordinator: queue a sweep (the spec's rendered JSON).
    SubmitSweep {
        /// `SweepSpec::render()` text.
        spec_json: String,
    },
    /// Coordinator → client: the sweep was accepted.
    SweepQueued {
        /// Handle for status/fetch calls.
        sweep_id: u64,
        /// Size of the expanded job matrix.
        total_jobs: u64,
    },
    /// Client → coordinator: how is sweep `sweep_id` doing?
    StatusRequest {
        /// The sweep to report on.
        sweep_id: u64,
    },
    /// Coordinator → client: live progress counters.
    StatusReport {
        /// The sweep reported on.
        sweep_id: u64,
        /// Job-matrix size.
        total: u64,
        /// Jobs with a folded result.
        done: u64,
        /// Jobs assigned to a live worker and not yet folded.
        in_flight: u64,
        /// Jobs waiting in the queue.
        queued: u64,
        /// Jobs re-queued from dead or hung workers (cumulative).
        requeued: u64,
        /// Workers currently connected to the coordinator.
        workers: u64,
        /// Whether every job has been folded.
        complete: bool,
        /// Seconds since submission (frozen at completion).
        elapsed_s: f64,
        /// Estimated seconds to completion at the realized pace
        /// (negative while no job has finished yet; 0 when complete).
        eta_s: f64,
        /// Slices re-queued after their worker died or hung (cumulative;
        /// appended in protocol 2, decoded as 0 from older peers).
        requeued_slices: u64,
        /// Slices re-queued specifically by the heartbeat reaper
        /// (cumulative; appended in protocol 2, decoded as 0).
        timed_out_slices: u64,
        /// Unknown-kind frames the coordinator has skipped across all its
        /// sessions (appended in protocol 2, decoded as 0).
        skipped_unknown: u64,
    },
    /// Client → coordinator: collect sweep `sweep_id`.
    FetchRequest {
        /// The sweep to collect.
        sweep_id: u64,
    },
    /// Coordinator → client: the collected sweep. When `complete`,
    /// `spec_json` + `rows_json` reassemble into a report byte-identical
    /// to a single-process run; otherwise both payloads are empty (poll
    /// status and retry).
    FetchReport {
        /// The sweep collected.
        sweep_id: u64,
        /// Whether every job has been folded.
        complete: bool,
        /// `SweepSpec::render()` text (empty if incomplete).
        spec_json: String,
        /// JSON array of job rows in global order (empty if incomplete).
        rows_json: String,
    },
    /// Worker → coordinator: register for work.
    WorkerHello {
        /// Free-form worker name (host/pid by default).
        name: String,
        /// The worker's local thread-pool width.
        threads: u32,
    },
    /// Coordinator → worker: registration accepted.
    WorkerWelcome {
        /// Id the worker uses in subsequent requests.
        worker_id: u64,
    },
    /// Worker → coordinator: give me a slice (sent whenever idle — this
    /// pull is what makes the farm work-stealing).
    WorkRequest {
        /// The registered worker.
        worker_id: u64,
    },
    /// Coordinator → worker: run these jobs.
    WorkSlice {
        /// The sweep the slice belongs to.
        sweep_id: u64,
        /// Handle for results/requeue bookkeeping.
        slice_id: u64,
        /// `SweepSpec::render()` text (workers cache per sweep).
        spec_json: String,
        /// Global job-matrix indices to run.
        indices: Vec<u64>,
    },
    /// Coordinator → worker: nothing queued; ask again after `retry_ms`.
    NoWork {
        /// Suggested poll delay.
        retry_ms: u32,
    },
    /// Worker → coordinator: one finished job row (streamed as each job
    /// completes, so partial results fold incrementally and double as
    /// liveness evidence).
    JobDone {
        /// The sweep the job belongs to.
        sweep_id: u64,
        /// The slice it was assigned under.
        slice_id: u64,
        /// Global job-matrix index.
        index: u64,
        /// `JobResult::to_value().render()` text.
        row_json: String,
    },
    /// Worker → coordinator: every job of the slice was reported.
    SliceDone {
        /// The sweep the slice belongs to.
        sweep_id: u64,
        /// The finished slice.
        slice_id: u64,
    },
    /// Worker → coordinator: periodic liveness signal (covers jobs whose
    /// single-job runtime exceeds the coordinator's requeue timeout).
    Heartbeat {
        /// The registered worker.
        worker_id: u64,
    },
    /// Coordinator → client/worker: the request failed.
    FarmError {
        /// Human-readable reason.
        detail: String,
    },
    /// Coordinator → worker: drain and exit (sent when the coordinator is
    /// shutting down).
    Shutdown,
    /// Worker → coordinator: telemetry snapshot piggybacked on heartbeats
    /// and slice completions (protocol ≥ 2; older coordinators skip it).
    WorkerMetrics {
        /// The registered worker.
        worker_id: u64,
        /// Jobs finished since connecting.
        jobs_done: u64,
        /// Slices finished since connecting.
        slices_done: u64,
        /// Median wall milliseconds per finished slice (0 until one
        /// finishes).
        slice_p50_ms: f64,
        /// 90th-percentile wall milliseconds per finished slice.
        slice_p90_ms: f64,
        /// Unknown-kind frames this worker's stream has skipped.
        skipped_unknown: u64,
    },
    /// Coordinator → client: per-worker telemetry rows following a
    /// [`Message::StatusReport`] (protocol ≥ 2; sent only when the
    /// negotiated revision carries it, so protocol-1 clients never block
    /// waiting for a frame that isn't coming).
    StatusDetail {
        /// The sweep reported on.
        sweep_id: u64,
        /// One row per connected worker, ordered by worker id.
        rows: Vec<WorkerRow>,
    },
}

impl Message {
    /// The wire kind tag of this message.
    pub fn kind(&self) -> u16 {
        match self {
            Message::Hello { .. } => 0,
            Message::Profile { .. } => 1,
            Message::PairRequest { .. } => 2,
            Message::PairAccept { .. } => 3,
            Message::PairReject { .. } => 4,
            Message::Activations { .. } => 5,
            Message::SuffixParams { .. } => 6,
            Message::ModelChunk { .. } => 7,
            Message::Done => 8,
            Message::Version { .. } => 9,
            Message::SubmitSweep { .. } => 10,
            Message::SweepQueued { .. } => 11,
            Message::StatusRequest { .. } => 12,
            Message::StatusReport { .. } => 13,
            Message::FetchRequest { .. } => 14,
            Message::FetchReport { .. } => 15,
            Message::WorkerHello { .. } => 16,
            Message::WorkerWelcome { .. } => 17,
            Message::WorkRequest { .. } => 18,
            Message::WorkSlice { .. } => 19,
            Message::NoWork { .. } => 20,
            Message::JobDone { .. } => 21,
            Message::SliceDone { .. } => 22,
            Message::Heartbeat { .. } => 23,
            Message::FarmError { .. } => 24,
            Message::Shutdown => 25,
            Message::WorkerMetrics { .. } => 26,
            Message::StatusDetail { .. } => 27,
        }
    }

    /// A short human-readable name (for error messages).
    pub fn name(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "Hello",
            Message::Profile { .. } => "Profile",
            Message::PairRequest { .. } => "PairRequest",
            Message::PairAccept { .. } => "PairAccept",
            Message::PairReject { .. } => "PairReject",
            Message::Activations { .. } => "Activations",
            Message::SuffixParams { .. } => "SuffixParams",
            Message::ModelChunk { .. } => "ModelChunk",
            Message::Done => "Done",
            Message::Version { .. } => "Version",
            Message::SubmitSweep { .. } => "SubmitSweep",
            Message::SweepQueued { .. } => "SweepQueued",
            Message::StatusRequest { .. } => "StatusRequest",
            Message::StatusReport { .. } => "StatusReport",
            Message::FetchRequest { .. } => "FetchRequest",
            Message::FetchReport { .. } => "FetchReport",
            Message::WorkerHello { .. } => "WorkerHello",
            Message::WorkerWelcome { .. } => "WorkerWelcome",
            Message::WorkRequest { .. } => "WorkRequest",
            Message::WorkSlice { .. } => "WorkSlice",
            Message::NoWork { .. } => "NoWork",
            Message::JobDone { .. } => "JobDone",
            Message::SliceDone { .. } => "SliceDone",
            Message::Heartbeat { .. } => "Heartbeat",
            Message::FarmError { .. } => "FarmError",
            Message::Shutdown => "Shutdown",
            Message::WorkerMetrics { .. } => "WorkerMetrics",
            Message::StatusDetail { .. } => "StatusDetail",
        }
    }

    /// Serializes the message body (the frame body *after* the kind tag).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16);
        match self {
            Message::Hello { agent_id } => put_u32(&mut buf, *agent_id),
            Message::Profile { agent_id, batches_per_s, solo_time_s } => {
                put_u32(&mut buf, *agent_id);
                buf.extend_from_slice(&batches_per_s.to_le_bytes());
                buf.extend_from_slice(&solo_time_s.to_le_bytes());
            }
            Message::PairRequest { slow_id, offload } => {
                put_u32(&mut buf, *slow_id);
                put_u32(&mut buf, *offload);
            }
            Message::PairAccept { fast_id } | Message::PairReject { fast_id } => {
                put_u32(&mut buf, *fast_id)
            }
            Message::Activations { batch_idx, data, labels } => {
                put_u32(&mut buf, *batch_idx);
                put_f32s(&mut buf, data);
                put_u32(&mut buf, labels.len() as u32);
                for &y in labels {
                    put_u32(&mut buf, y);
                }
            }
            Message::SuffixParams { data } => put_f32s(&mut buf, data),
            Message::ModelChunk { step, data } => {
                put_u32(&mut buf, *step);
                put_f32s(&mut buf, data);
            }
            Message::Done | Message::Shutdown => {}
            Message::Version { proto } => buf.extend_from_slice(&proto.to_le_bytes()),
            Message::SubmitSweep { spec_json } => put_str(&mut buf, spec_json),
            Message::SweepQueued { sweep_id, total_jobs } => {
                put_u64(&mut buf, *sweep_id);
                put_u64(&mut buf, *total_jobs);
            }
            Message::StatusRequest { sweep_id } | Message::FetchRequest { sweep_id } => {
                put_u64(&mut buf, *sweep_id)
            }
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
                put_u64(&mut buf, *sweep_id);
                put_u64(&mut buf, *total);
                put_u64(&mut buf, *done);
                put_u64(&mut buf, *in_flight);
                put_u64(&mut buf, *queued);
                put_u64(&mut buf, *requeued);
                put_u64(&mut buf, *workers);
                buf.push(u8::from(*complete));
                buf.extend_from_slice(&elapsed_s.to_le_bytes());
                buf.extend_from_slice(&eta_s.to_le_bytes());
                // Protocol-2 counters ride at the tail: decode ignores
                // trailing bytes, so protocol-1 peers read right past them.
                put_u64(&mut buf, *requeued_slices);
                put_u64(&mut buf, *timed_out_slices);
                put_u64(&mut buf, *skipped_unknown);
            }
            Message::FetchReport { sweep_id, complete, spec_json, rows_json } => {
                put_u64(&mut buf, *sweep_id);
                buf.push(u8::from(*complete));
                put_str(&mut buf, spec_json);
                put_str(&mut buf, rows_json);
            }
            Message::WorkerHello { name, threads } => {
                put_str(&mut buf, name);
                put_u32(&mut buf, *threads);
            }
            Message::WorkerWelcome { worker_id }
            | Message::WorkRequest { worker_id }
            | Message::Heartbeat { worker_id } => put_u64(&mut buf, *worker_id),
            Message::WorkSlice { sweep_id, slice_id, spec_json, indices } => {
                put_u64(&mut buf, *sweep_id);
                put_u64(&mut buf, *slice_id);
                put_str(&mut buf, spec_json);
                put_u64s(&mut buf, indices);
            }
            Message::NoWork { retry_ms } => put_u32(&mut buf, *retry_ms),
            Message::JobDone { sweep_id, slice_id, index, row_json } => {
                put_u64(&mut buf, *sweep_id);
                put_u64(&mut buf, *slice_id);
                put_u64(&mut buf, *index);
                put_str(&mut buf, row_json);
            }
            Message::SliceDone { sweep_id, slice_id } => {
                put_u64(&mut buf, *sweep_id);
                put_u64(&mut buf, *slice_id);
            }
            Message::FarmError { detail } => put_str(&mut buf, detail),
            Message::WorkerMetrics {
                worker_id,
                jobs_done,
                slices_done,
                slice_p50_ms,
                slice_p90_ms,
                skipped_unknown,
            } => {
                put_u64(&mut buf, *worker_id);
                put_u64(&mut buf, *jobs_done);
                put_u64(&mut buf, *slices_done);
                buf.extend_from_slice(&slice_p50_ms.to_le_bytes());
                buf.extend_from_slice(&slice_p90_ms.to_le_bytes());
                put_u64(&mut buf, *skipped_unknown);
            }
            Message::StatusDetail { sweep_id, rows } => {
                put_u64(&mut buf, *sweep_id);
                put_u32(&mut buf, rows.len() as u32);
                for row in rows {
                    put_u64(&mut buf, row.worker_id);
                    put_str(&mut buf, &row.name);
                    put_u64(&mut buf, row.jobs_done);
                    put_u64(&mut buf, row.slices_done);
                    buf.extend_from_slice(&row.jobs_per_s.to_le_bytes());
                    buf.extend_from_slice(&row.slice_p50_ms.to_le_bytes());
                    buf.extend_from_slice(&row.slice_p90_ms.to_le_bytes());
                    put_u64(&mut buf, row.skipped_unknown);
                }
            }
        }
        buf
    }

    /// Serializes kind tag + body (the full frame payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = self.kind().to_le_bytes().to_vec();
        buf.extend_from_slice(&self.encode_body());
        buf
    }

    /// Decodes a message body for a known `kind`. Returns `Ok(None)` for a
    /// kind this build does not know — the forward-compatible path callers
    /// skip with a warning.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::BadFrame`] on any structural problem in a
    /// *known* kind's body.
    pub fn decode_body(kind: u16, body: &[u8]) -> Result<Option<Self>, NetError> {
        let mut r = Reader::new(body);
        let msg = match kind {
            0 => Message::Hello { agent_id: r.get_u32_le("Hello")? },
            1 => Message::Profile {
                agent_id: r.get_u32_le("Profile")?,
                batches_per_s: r.get_f64_le("Profile")?,
                solo_time_s: r.get_f64_le("Profile")?,
            },
            2 => Message::PairRequest {
                slow_id: r.get_u32_le("PairRequest")?,
                offload: r.get_u32_le("PairRequest")?,
            },
            3 => Message::PairAccept { fast_id: r.get_u32_le("PairAccept")? },
            4 => Message::PairReject { fast_id: r.get_u32_le("PairReject")? },
            5 => {
                let batch_idx = r.get_u32_le("Activations")?;
                let data = get_f32s(&mut r)?;
                let n = r.get_u32_le("Activations labels")? as usize;
                let raw = r.take(n * 4, "Activations labels")?;
                let labels = raw
                    .chunks_exact(4)
                    .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                    .collect();
                Message::Activations { batch_idx, data, labels }
            }
            6 => Message::SuffixParams { data: get_f32s(&mut r)? },
            7 => {
                let step = r.get_u32_le("ModelChunk")?;
                Message::ModelChunk { step, data: get_f32s(&mut r)? }
            }
            8 => Message::Done,
            9 => Message::Version { proto: r.get_u16_le("Version")? },
            10 => Message::SubmitSweep { spec_json: r.get_str("SubmitSweep")? },
            11 => Message::SweepQueued {
                sweep_id: r.get_u64_le("SweepQueued")?,
                total_jobs: r.get_u64_le("SweepQueued")?,
            },
            12 => Message::StatusRequest { sweep_id: r.get_u64_le("StatusRequest")? },
            13 => Message::StatusReport {
                sweep_id: r.get_u64_le("StatusReport")?,
                total: r.get_u64_le("StatusReport")?,
                done: r.get_u64_le("StatusReport")?,
                in_flight: r.get_u64_le("StatusReport")?,
                queued: r.get_u64_le("StatusReport")?,
                requeued: r.get_u64_le("StatusReport")?,
                workers: r.get_u64_le("StatusReport")?,
                complete: r.get_bool("StatusReport")?,
                elapsed_s: r.get_f64_le("StatusReport")?,
                eta_s: r.get_f64_le("StatusReport")?,
                requeued_slices: r.get_u64_le_or_zero("StatusReport")?,
                timed_out_slices: r.get_u64_le_or_zero("StatusReport")?,
                skipped_unknown: r.get_u64_le_or_zero("StatusReport")?,
            },
            14 => Message::FetchRequest { sweep_id: r.get_u64_le("FetchRequest")? },
            15 => Message::FetchReport {
                sweep_id: r.get_u64_le("FetchReport")?,
                complete: r.get_bool("FetchReport")?,
                spec_json: r.get_str("FetchReport")?,
                rows_json: r.get_str("FetchReport")?,
            },
            16 => Message::WorkerHello {
                name: r.get_str("WorkerHello")?,
                threads: r.get_u32_le("WorkerHello")?,
            },
            17 => Message::WorkerWelcome { worker_id: r.get_u64_le("WorkerWelcome")? },
            18 => Message::WorkRequest { worker_id: r.get_u64_le("WorkRequest")? },
            19 => Message::WorkSlice {
                sweep_id: r.get_u64_le("WorkSlice")?,
                slice_id: r.get_u64_le("WorkSlice")?,
                spec_json: r.get_str("WorkSlice")?,
                indices: r.get_u64s("WorkSlice indices")?,
            },
            20 => Message::NoWork { retry_ms: r.get_u32_le("NoWork")? },
            21 => Message::JobDone {
                sweep_id: r.get_u64_le("JobDone")?,
                slice_id: r.get_u64_le("JobDone")?,
                index: r.get_u64_le("JobDone")?,
                row_json: r.get_str("JobDone")?,
            },
            22 => Message::SliceDone {
                sweep_id: r.get_u64_le("SliceDone")?,
                slice_id: r.get_u64_le("SliceDone")?,
            },
            23 => Message::Heartbeat { worker_id: r.get_u64_le("Heartbeat")? },
            24 => Message::FarmError { detail: r.get_str("FarmError")? },
            25 => Message::Shutdown,
            26 => Message::WorkerMetrics {
                worker_id: r.get_u64_le("WorkerMetrics")?,
                jobs_done: r.get_u64_le("WorkerMetrics")?,
                slices_done: r.get_u64_le("WorkerMetrics")?,
                slice_p50_ms: r.get_f64_le("WorkerMetrics")?,
                slice_p90_ms: r.get_f64_le("WorkerMetrics")?,
                skipped_unknown: r.get_u64_le("WorkerMetrics")?,
            },
            27 => {
                let sweep_id = r.get_u64_le("StatusDetail")?;
                let n = r.get_u32_le("StatusDetail")? as usize;
                if r.remaining() < n * 8 {
                    return Err(NetError::BadFrame(format!(
                        "StatusDetail claims {n} rows but only {} bytes remain",
                        r.remaining()
                    )));
                }
                let rows = (0..n)
                    .map(|_| {
                        Ok(WorkerRow {
                            worker_id: r.get_u64_le("StatusDetail row")?,
                            name: r.get_str("StatusDetail row")?,
                            jobs_done: r.get_u64_le("StatusDetail row")?,
                            slices_done: r.get_u64_le("StatusDetail row")?,
                            jobs_per_s: r.get_f64_le("StatusDetail row")?,
                            slice_p50_ms: r.get_f64_le("StatusDetail row")?,
                            slice_p90_ms: r.get_f64_le("StatusDetail row")?,
                            skipped_unknown: r.get_u64_le("StatusDetail row")?,
                        })
                    })
                    .collect::<Result<Vec<_>, NetError>>()?;
                Message::StatusDetail { sweep_id, rows }
            }
            _ => return Ok(None),
        };
        Ok(Some(msg))
    }

    /// Decodes a full kind-tagged payload produced by [`Message::encode`],
    /// erroring on unknown kinds (the strict path; transports prefer
    /// [`Message::decode_body`]'s skip-friendly contract).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::BadFrame`] on any structural problem or an
    /// unknown kind.
    pub fn decode(buf: &[u8]) -> Result<Self, NetError> {
        if buf.len() < 2 {
            return Err(NetError::BadFrame("payload too short for a kind tag".into()));
        }
        let kind = u16::from_le_bytes([buf[0], buf[1]]);
        Self::decode_body(kind, &buf[2..])?
            .ok_or_else(|| NetError::BadFrame(format!("unknown kind {kind}")))
    }
}

/// A TCP stream carrying length-prefixed, kind-tagged [`Message`] frames.
///
/// Blocking: `send` and `recv` run on the calling thread. Peers that must
/// send and receive concurrently (e.g. ring AllReduce steps, or a farm
/// worker streaming results while its heartbeat thread ticks) either do so
/// from separate threads or split the stream with
/// [`FramedStream::try_clone`].
#[derive(Debug)]
pub struct FramedStream {
    stream: TcpStream,
    peer_version: Option<u16>,
    skipped_unknown: u64,
}

impl FramedStream {
    /// Wraps a connected stream and turns Nagle's algorithm off
    /// (`TCP_NODELAY`): every frame is one write and most exchanges are
    /// request/response, so batching small writes only adds the peer's
    /// delayed-ACK wait to each round trip.
    pub fn new(stream: TcpStream) -> Self {
        // Best effort: a socket that refuses the option still works.
        let _ = stream.set_nodelay(true);
        Self { stream, peer_version: None, skipped_unknown: 0 }
    }

    /// The underlying socket.
    pub fn get_ref(&self) -> &TcpStream {
        &self.stream
    }

    /// Whether the connection can no longer carry a request/response
    /// exchange: the peer closed it, the socket failed, or unread bytes
    /// are waiting (a reply nobody consumed). Checked with a non-blocking
    /// peek, so it never waits.
    pub fn peer_closed(&self) -> bool {
        if self.stream.set_nonblocking(true).is_err() {
            return true;
        }
        let peeked = self.stream.peek(&mut [0u8; 1]);
        let restored = self.stream.set_nonblocking(false).is_ok();
        !restored || !matches!(peeked, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock)
    }

    /// Clones the underlying socket into an independent framed handle
    /// (shared kernel-level stream: one side may read while the other
    /// writes — the farm worker splits its connection this way).
    ///
    /// # Errors
    ///
    /// Propagates the socket duplication failure.
    pub fn try_clone(&self) -> std::io::Result<Self> {
        Ok(Self {
            stream: self.stream.try_clone()?,
            peer_version: self.peer_version,
            skipped_unknown: 0,
        })
    }

    /// Sends one message as a single frame.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] on socket failure.
    pub fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        write_frame(&mut self.stream, msg.kind(), &msg.encode_body())
    }

    /// Receives the next message *this build understands*.
    ///
    /// Frames of unknown kind — e.g. sent by a newer peer — are skipped
    /// instead of raised as an error, so adjacent builds interoperate as
    /// long as the messages they need are mutually known. Each skip bumps
    /// [`FramedStream::skipped_unknown`] and the `net.skipped_unknown`
    /// metrics counter, and logs at debug under `COMDML_LOG` (skipping is
    /// the *designed* forward-compatibility path, not an anomaly).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] on socket failure,
    /// [`NetError::FrameTooLarge`] on a corrupt length prefix, or
    /// [`NetError::BadFrame`] if a *known* kind's body does not decode.
    pub fn recv(&mut self) -> Result<Message, NetError> {
        loop {
            let frame = read_frame(&mut self.stream)?;
            match Message::decode_body(frame.kind, &frame.body)? {
                Some(msg) => return Ok(msg),
                None => {
                    self.skipped_unknown += 1;
                    comdml_obs::counter_add("net.skipped_unknown", 1);
                    comdml_obs::debug!(
                        "comdml_net::codec",
                        "skipping unknown message kind {} ({} bytes) — peer speaks a \
                         newer protocol",
                        frame.kind,
                        frame.body.len()
                    );
                }
            }
        }
    }

    /// Receives a message, erroring unless it matches `expected_name`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Unexpected`] on a protocol violation, or any
    /// receive error.
    pub fn expect(&mut self, expected_name: &'static str) -> Result<Message, NetError> {
        let msg = self.recv()?;
        if msg.name() != expected_name {
            return Err(NetError::Unexpected { expected: expected_name, got: msg.name().into() });
        }
        Ok(msg)
    }

    /// Runs the symmetric version handshake: sends our
    /// [`PROTOCOL_VERSION`], receives the peer's, records it and returns
    /// the negotiated (minimum) revision. Call once, right after
    /// connecting, from both ends.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Unexpected`] if the peer's first known message
    /// is not `Version`, or any send/receive error.
    pub fn handshake(&mut self) -> Result<u16, NetError> {
        self.send(&Message::Version { proto: PROTOCOL_VERSION })?;
        self.recv_version()
    }

    /// [`FramedStream::handshake`] for a peer with something to say
    /// first: writes our `Version` frame and `first` right behind it, in
    /// one write, then receives the peer's `Version`. The peer's reply to
    /// `first` is the next [`FramedStream::recv`], so no round trip is
    /// spent between the handshake and the first request.
    ///
    /// # Errors
    ///
    /// As [`FramedStream::handshake`].
    pub fn handshake_with(&mut self, first: &Message) -> Result<u16, NetError> {
        let mut frames = Vec::new();
        for msg in [&Message::Version { proto: PROTOCOL_VERSION }, first] {
            write_frame(&mut frames, msg.kind(), &msg.encode_body())?;
        }
        self.stream.write_all(&frames)?;
        self.recv_version()
    }

    /// Receives the peer's `Version`, records it and returns the
    /// negotiated (minimum) revision.
    fn recv_version(&mut self) -> Result<u16, NetError> {
        let Message::Version { proto } = self.expect("Version")? else {
            unreachable!("expect checked the variant")
        };
        self.peer_version = Some(proto);
        Ok(proto.min(PROTOCOL_VERSION))
    }

    /// The peer's protocol version, once [`FramedStream::handshake`] ran.
    pub fn peer_version(&self) -> Option<u16> {
        self.peer_version
    }

    /// How many unknown-kind frames [`FramedStream::recv`] has skipped.
    pub fn skipped_unknown(&self) -> u64 {
        self.skipped_unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Message) {
        let decoded = Message::decode(&msg.encode()).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn training_variants_round_trip() {
        round_trip(Message::Hello { agent_id: 7 });
        round_trip(Message::Profile { agent_id: 1, batches_per_s: 0.25, solo_time_s: 812.5 });
        round_trip(Message::PairRequest { slow_id: 3, offload: 37 });
        round_trip(Message::PairAccept { fast_id: 4 });
        round_trip(Message::PairReject { fast_id: 4 });
        round_trip(Message::Activations {
            batch_idx: 12,
            data: vec![1.5, -2.0, 0.0],
            labels: vec![0, 2, 1],
        });
        round_trip(Message::SuffixParams { data: vec![0.125; 33] });
        round_trip(Message::ModelChunk { step: 2, data: vec![] });
        round_trip(Message::Done);
    }

    #[test]
    fn farm_variants_round_trip() {
        round_trip(Message::Version { proto: 1 });
        round_trip(Message::SubmitSweep { spec_json: "{\"name\":\"x\"}".into() });
        round_trip(Message::SweepQueued { sweep_id: 3, total_jobs: 250 });
        round_trip(Message::StatusRequest { sweep_id: 3 });
        round_trip(Message::StatusReport {
            sweep_id: 3,
            total: 250,
            done: 100,
            in_flight: 8,
            queued: 142,
            requeued: 4,
            workers: 2,
            complete: false,
            elapsed_s: 1.5,
            eta_s: 2.25,
            requeued_slices: 1,
            timed_out_slices: 1,
            skipped_unknown: 0,
        });
        round_trip(Message::FetchRequest { sweep_id: 3 });
        round_trip(Message::FetchReport {
            sweep_id: 3,
            complete: true,
            spec_json: "{}".into(),
            rows_json: "[]".into(),
        });
        round_trip(Message::WorkerHello { name: "w0".into(), threads: 8 });
        round_trip(Message::WorkerWelcome { worker_id: 11 });
        round_trip(Message::WorkRequest { worker_id: 11 });
        round_trip(Message::WorkSlice {
            sweep_id: 3,
            slice_id: 9,
            spec_json: "{\"name\":\"x\"}".into(),
            indices: vec![0, 17, 34],
        });
        round_trip(Message::NoWork { retry_ms: 250 });
        round_trip(Message::JobDone {
            sweep_id: 3,
            slice_id: 9,
            index: 17,
            row_json: "{\"seed\":1}".into(),
        });
        round_trip(Message::SliceDone { sweep_id: 3, slice_id: 9 });
        round_trip(Message::Heartbeat { worker_id: 11 });
        round_trip(Message::FarmError { detail: "unknown sweep 5".into() });
        round_trip(Message::Shutdown);
        round_trip(Message::WorkerMetrics {
            worker_id: 11,
            jobs_done: 40,
            slices_done: 10,
            slice_p50_ms: 120.5,
            slice_p90_ms: 340.25,
            skipped_unknown: 1,
        });
        round_trip(Message::StatusDetail {
            sweep_id: 3,
            rows: vec![
                WorkerRow {
                    worker_id: 11,
                    name: "host/123".into(),
                    jobs_done: 40,
                    slices_done: 10,
                    jobs_per_s: 3.5,
                    slice_p50_ms: 120.5,
                    slice_p90_ms: 340.25,
                    skipped_unknown: 0,
                },
                WorkerRow {
                    worker_id: 12,
                    name: "host/456".into(),
                    jobs_done: 0,
                    slices_done: 0,
                    jobs_per_s: 0.0,
                    slice_p50_ms: 0.0,
                    slice_p90_ms: 0.0,
                    skipped_unknown: 2,
                },
            ],
        });
        round_trip(Message::StatusDetail { sweep_id: 9, rows: vec![] });
    }

    /// A protocol-1 `StatusReport` body ends right after `eta_s`; the
    /// protocol-2 decoder must read the appended counters as zero rather
    /// than erroring, or mixed-build farms break.
    #[test]
    fn status_report_without_trailing_counters_decodes_as_zeros() {
        let full = Message::StatusReport {
            sweep_id: 3,
            total: 250,
            done: 100,
            in_flight: 8,
            queued: 142,
            requeued: 4,
            workers: 2,
            complete: false,
            elapsed_s: 1.5,
            eta_s: 2.25,
            requeued_slices: 7,
            timed_out_slices: 5,
            skipped_unknown: 3,
        };
        let body = full.encode_body();
        let v1_body = &body[..body.len() - 24]; // strip the three appended u64s
        let decoded = Message::decode_body(13, v1_body).unwrap().unwrap();
        match decoded {
            Message::StatusReport {
                sweep_id,
                requeued_slices,
                timed_out_slices,
                skipped_unknown,
                ..
            } => {
                assert_eq!(sweep_id, 3);
                assert_eq!(requeued_slices, 0);
                assert_eq!(timed_out_slices, 0);
                assert_eq!(skipped_unknown, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A torn counter (partial trailing u64) is corruption, not skew.
        assert!(Message::decode_body(13, &body[..body.len() - 4]).is_err());
    }

    #[test]
    fn truncated_frames_error() {
        let full = Message::Profile { agent_id: 1, batches_per_s: 1.0, solo_time_s: 2.0 }.encode();
        for cut in 2..full.len() {
            assert!(Message::decode(&full[..cut]).is_err());
        }
    }

    #[test]
    fn unknown_kind_is_strict_error_but_lenient_none() {
        let mut raw = 999u16.to_le_bytes().to_vec();
        raw.extend_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(Message::decode(&raw), Err(NetError::BadFrame(_))));
        assert_eq!(Message::decode_body(999, &[0, 0, 0, 0]).unwrap(), None);
    }

    #[test]
    fn lying_vector_length_errors() {
        let mut raw = 6u16.to_le_bytes().to_vec(); // SuffixParams
        raw.extend_from_slice(&1000u32.to_le_bytes()); // claims 1000 floats
        raw.extend_from_slice(&1.0f32.to_le_bytes()); // provides one
        assert!(Message::decode(&raw).is_err());
    }

    #[test]
    fn lying_string_length_errors() {
        let mut raw = 24u16.to_le_bytes().to_vec(); // FarmError
        raw.extend_from_slice(&1000u32.to_le_bytes()); // claims 1000 bytes
        raw.extend_from_slice(b"oops");
        assert!(Message::decode(&raw).is_err());
    }

    #[test]
    fn connected_and_accepted_streams_turn_nagle_off() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let connected =
            FramedStream::new(TcpStream::connect(listener.local_addr().unwrap()).unwrap());
        let accepted = FramedStream::new(listener.accept().unwrap().0);
        assert!(connected.get_ref().nodelay().unwrap());
        assert!(accepted.get_ref().nodelay().unwrap());
    }

    #[test]
    fn peer_closed_sees_a_hang_up_and_unread_bytes() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client =
            FramedStream::new(TcpStream::connect(listener.local_addr().unwrap()).unwrap());
        let mut server = FramedStream::new(listener.accept().unwrap().0);
        let eventually_closed = |s: &FramedStream| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while !s.peer_closed() {
                assert!(std::time::Instant::now() < deadline, "peer_closed never turned true");
                std::thread::yield_now();
            }
        };
        assert!(!client.peer_closed(), "an idle open connection is usable");
        server.send(&Message::Done).unwrap();
        eventually_closed(&client); // a stray frame is waiting
        assert_eq!(client.recv().unwrap(), Message::Done);
        assert!(!client.peer_closed());
        drop(server);
        eventually_closed(&client); // the hang-up arrived
    }

    #[test]
    fn framed_stream_round_trips_over_tcp() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = FramedStream::new(TcpStream::connect(addr).unwrap());
            s.send(&Message::Hello { agent_id: 42 }).unwrap();
            s.send(&Message::Activations {
                batch_idx: 0,
                data: vec![1.0; 1024],
                labels: vec![7; 16],
            })
            .unwrap();
            s.expect("Done").unwrap();
        });
        let (sock, _) = listener.accept().unwrap();
        let mut s = FramedStream::new(sock);
        assert_eq!(s.recv().unwrap(), Message::Hello { agent_id: 42 });
        match s.recv().unwrap() {
            Message::Activations { data, .. } => assert_eq!(data.len(), 1024),
            other => panic!("unexpected {other:?}"),
        }
        s.send(&Message::Done).unwrap();
        client.join().unwrap();
    }
}
