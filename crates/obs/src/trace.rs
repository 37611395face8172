//! The JSONL trace sink behind `COMDML_TRACE`.
//!
//! When active, every trace event is one single-line JSON object appended
//! to the configured file — `{"t":"<kind>","seq":N,...}` — rendered with
//! the shared [`Value`] writer so floats round-trip exactly. The `seq`
//! counter orders events across threads (wall-clock timestamps would make
//! trace files non-comparable; durations appear as explicit `ms` fields).
//!
//! Event kinds emitted by the workspace:
//!
//! | `t`      | fields                                    | emitted by |
//! |----------|-------------------------------------------|------------|
//! | `span`   | `name`, `ms`                              | [`crate::phase`] guards |
//! | `log`    | `level`, `target`, `msg`                  | the log macros |
//! | `round`  | `round`, `participants`, `round_s`, …     | `core::FleetSim` |
//! | `job`    | `scenario`, `method`, `seed`, …           | `exp::SweepRunner` |
//!
//! Unknown kinds are legal — `trace_check` validates the envelope
//! (`t` + `seq`) for every line and field shapes for the kinds it knows.
//!
//! Tracing observes the run and never perturbs it: the sink is fed only
//! already-computed values, touches no RNG stream, and simulation digests
//! stay byte-identical with it on (pinned by `crates/exp/tests/obs.rs`
//! and the CI `obs-smoke` diff).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::json::Value;
use crate::Level;

#[derive(Debug)]
struct TraceState {
    on: AtomicBool,
    seq: AtomicU64,
    sink: Mutex<Option<BufWriter<File>>>,
}

fn state() -> &'static TraceState {
    static STATE: OnceLock<TraceState> = OnceLock::new();
    STATE.get_or_init(|| TraceState {
        on: AtomicBool::new(false),
        seq: AtomicU64::new(0),
        sink: Mutex::new(None),
    })
}

/// Whether the trace sink is active.
pub fn trace_enabled() -> bool {
    crate::ensure_init();
    state().on.load(Ordering::Relaxed)
}

/// Opens (truncating) `path` as the trace sink and enables tracing and
/// metrics. `COMDML_TRACE=<path>` does this automatically on first use;
/// this is the programmatic path for tests and bins.
///
/// # Errors
///
/// Propagates the file-creation failure; tracing stays off.
pub fn set_trace_path(path: impl AsRef<Path>) -> std::io::Result<()> {
    crate::ensure_init();
    set_trace_path_inner(path.as_ref())?;
    crate::set_metrics_enabled(true);
    Ok(())
}

/// The non-initializing core of [`set_trace_path`] (also called from env
/// init, where re-entering `ensure_init` would deadlock).
pub(crate) fn set_trace_path_inner(path: &Path) -> std::io::Result<()> {
    let file = File::create(path)?;
    let st = state();
    *st.sink.lock().expect("trace sink lock never poisoned") = Some(BufWriter::new(file));
    st.seq.store(0, Ordering::Relaxed);
    st.on.store(true, Ordering::Relaxed);
    Ok(())
}

/// Flushes and closes the sink; tracing goes inactive.
pub fn disable_trace() {
    let st = state();
    st.on.store(false, Ordering::Relaxed);
    if let Some(mut w) = st.sink.lock().expect("trace sink lock never poisoned").take() {
        let _ = w.flush();
    }
}

/// Flushes buffered trace lines to disk.
pub fn flush_trace() {
    if let Some(w) = &mut *state().sink.lock().expect("trace sink lock never poisoned") {
        let _ = w.flush();
    }
}

/// Appends one `{"t":kind,"seq":N,...fields}` line — no-op when tracing
/// is inactive. Field order is preserved as given.
pub fn trace_event(kind: &str, fields: Vec<(&str, Value)>) {
    if !trace_enabled() {
        return;
    }
    let st = state();
    // `seq` is drawn under the sink lock, so lines land in `seq` order
    // whichever threads emit them.
    if let Some(w) = &mut *st.sink.lock().expect("trace sink lock never poisoned") {
        let seq = st.seq.fetch_add(1, Ordering::Relaxed);
        let mut obj: Vec<(String, Value)> = Vec::with_capacity(fields.len() + 2);
        obj.push(("t".to_string(), Value::Str(kind.to_string())));
        obj.push(("seq".to_string(), Value::Num(seq as f64)));
        obj.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        let _ = writeln!(w, "{}", Value::Obj(obj).render_compact());
        let _ = w.flush(); // one line per event; crash-safe and cheap at trace rates
    }
}

pub(crate) fn span_event(name: &str, ms: f64) {
    trace_event("span", vec![("name", Value::Str(name.to_string())), ("ms", Value::Num(ms))]);
}

pub(crate) fn log_event(target: &str, level: Level, msg: &str) {
    trace_event(
        "log",
        vec![
            ("level", Value::Str(level.name().to_string())),
            ("target", Value::Str(target.to_string())),
            ("msg", Value::Str(msg.to_string())),
        ],
    );
}
