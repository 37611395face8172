//! Concurrent emitters must write trace lines in `seq` order: line *i*
//! carries `seq` *i*. This file is its own test binary, so it owns the
//! process-global trace sink.

use comdml_obs::Value;

#[test]
fn concurrent_events_land_in_seq_order() {
    const THREADS: usize = 8;
    const EVENTS: usize = 2_000;
    let path =
        std::env::temp_dir().join(format!("comdml_trace_order_{}.jsonl", std::process::id()));
    comdml_obs::set_trace_path(&path).unwrap();
    // All emitters start together, so their events interleave.
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let start = &start;
            scope.spawn(move || {
                start.wait();
                for i in 0..EVENTS {
                    comdml_obs::trace_event(
                        "probe",
                        vec![
                            ("thread", Value::Num(t as f64)),
                            ("i", Value::Num(i as f64)),
                            ("label", Value::Str(format!("thread {t} event {i}"))),
                        ],
                    );
                }
            });
        }
    });
    comdml_obs::disable_trace();
    comdml_obs::set_metrics_enabled(false);

    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), THREADS * EVENTS);
    for (i, line) in lines.iter().enumerate() {
        let v = Value::parse(line).unwrap_or_else(|e| panic!("line {i}: {e}: {line}"));
        assert_eq!(v.get("seq").and_then(Value::as_u64), Some(i as u64), "line {i}: {line}");
    }
}
