//! The JSONL recorder under contention: events emitted concurrently
//! from eight threads must land as whole lines with a contiguous
//! sequence — no torn writes, no dropped or duplicated records.
//!
//! Lives in its own integration-test binary because installing the
//! process-global recorder resets the shared registries; sharing a
//! process with the counter-delta tests would race them.

use mars_json::Json;

#[test]
fn concurrent_events_are_whole_lines_with_exact_seqs() {
    const TASKS: usize = 1_500;
    let sink = mars_telemetry::install_memory();

    std::thread::scope(|scope| {
        for w in 0..8 {
            scope.spawn(move || {
                for i in (w..TASKS).step_by(8) {
                    mars_telemetry::event("test.pool.event", &[("task", (i as f64).into())]);
                }
            });
        }
    });

    mars_telemetry::uninstall();
    let lines = sink.lock().expect("sink");
    let events: Vec<Json> = lines
        .iter()
        .map(|l| Json::parse(l).expect("every recorded line is complete JSON"))
        .filter(|j| j.get("kind").and_then(Json::as_str) == Some("event"))
        .collect();
    assert_eq!(events.len(), TASKS, "one line per event");

    let mut seqs: Vec<u64> =
        events.iter().map(|j| j.get("seq").and_then(Json::as_u64).expect("seq")).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (1..=TASKS as u64).collect::<Vec<_>>(), "seqs are a contiguous permutation");

    let mut tasks: Vec<u64> =
        events.iter().map(|j| j.get("task").and_then(Json::as_u64).expect("task")).collect();
    tasks.sort_unstable();
    assert_eq!(tasks, (0..TASKS as u64).collect::<Vec<_>>(), "every task recorded exactly once");
}
