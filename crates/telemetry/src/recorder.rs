//! The JSONL run recorder.
//!
//! One record per line, encoded by [`mars_json`]. Two record shapes:
//!
//! * **events** — emitted live by instrumentation points:
//!   `{"seq": 12, "kind": "event", "name": "ppo.update", <fields…>}`.
//!   Field keys are flattened into the object; `seq`, `kind` and `name`
//!   are reserved.
//! * **summary records** — appended once by [`uninstall`]: the span
//!   tree (`"kind": "spans"`), counter totals (`"kind": "counters"`),
//!   last gauge readings (`"kind": "gauges"`), and histogram buckets
//!   (`"kind": "histograms"`).
//!
//! Installing a recorder resets the span and metric registries and
//! enables span collection, so every run's file is self-contained.
//! With no recorder installed, [`event`] returns after one relaxed
//! atomic load — instrumentation can stay in place permanently.
//!
//! File sinks flush after every record: events are low-rate (per
//! update / per evaluation round, never per kernel), and a line-
//! complete file is what lets `mars-cli metrics tail --follow` watch
//! a run live.

use crate::{metrics, spans};
use mars_json::Json;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// In-memory sink handle: one recorded JSONL line per element.
pub type MemorySink = Arc<Mutex<Vec<String>>>;

enum Sink {
    File(BufWriter<File>),
    Memory(MemorySink),
}

impl Sink {
    fn write_line(&mut self, line: &str) {
        match self {
            Sink::File(w) => {
                // Recording must never abort training; a full disk just
                // loses telemetry. Flush per record so a live tail (or
                // a post-crash summarize) sees every complete line.
                let _ = writeln!(w, "{line}");
                let _ = w.flush();
            }
            Sink::Memory(buf) => {
                buf.lock().unwrap_or_else(|e| e.into_inner()).push(line.to_string());
            }
        }
    }

    fn flush(&mut self) {
        if let Sink::File(w) = self {
            let _ = w.flush();
        }
    }
}

struct Recorder {
    sink: Sink,
    seq: u64,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

fn slot() -> &'static Mutex<Option<Recorder>> {
    static SLOT: OnceLock<Mutex<Option<Recorder>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Whether a recorder is installed. Check this before computing
/// expensive event fields (gradient norms, advantage statistics).
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

fn install(sink: Sink) {
    let mut slot = slot().lock().unwrap_or_else(|e| e.into_inner());
    spans::reset();
    metrics::reset();
    spans::enable_spans(true);
    *slot = Some(Recorder { sink, seq: 0 });
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Install a recorder writing JSONL to `path` (truncating it), reset
/// spans/metrics, and enable span collection.
pub fn install_file<P: AsRef<Path>>(path: P) -> std::io::Result<()> {
    let file = File::create(path)?;
    install(Sink::File(BufWriter::new(file)));
    Ok(())
}

/// Install an in-memory recorder (for tests) and return its buffer.
pub fn install_memory() -> MemorySink {
    let buf: MemorySink = Arc::new(Mutex::new(Vec::new()));
    install(Sink::Memory(Arc::clone(&buf)));
    buf
}

/// Emit one structured event. No-op without an installed recorder.
pub fn event(name: &str, fields: &[(&str, Json)]) {
    if !active() {
        return;
    }
    let mut slot = slot().lock().unwrap_or_else(|e| e.into_inner());
    let Some(rec) = slot.as_mut() else { return };
    rec.seq += 1;
    let mut pairs: Vec<(String, Json)> = Vec::with_capacity(fields.len() + 3);
    pairs.push(("seq".into(), Json::from(rec.seq)));
    pairs.push(("kind".into(), Json::from("event")));
    pairs.push(("name".into(), Json::from(name)));
    for (k, v) in fields {
        pairs.push(((*k).to_string(), v.clone()));
    }
    let line = Json::Obj(pairs).to_string();
    rec.sink.write_line(&line);
}

fn span_summary_record() -> Json {
    let spans = spans::snapshot();
    Json::obj([
        ("kind", Json::from("spans")),
        (
            "spans",
            Json::arr(spans.into_iter().map(|(path, s)| {
                Json::obj([
                    ("path", Json::from(path)),
                    ("count", Json::from(s.count)),
                    ("total_ns", Json::from(s.total_ns)),
                    ("self_ns", Json::from(s.self_ns)),
                ])
            })),
        ),
    ])
}

fn metric_summary_records() -> Vec<Json> {
    let counters = Json::Obj(
        metrics::counter_snapshot().into_iter().map(|(k, v)| (k, Json::from(v))).collect(),
    );
    let gauges =
        Json::Obj(metrics::gauge_snapshot().into_iter().map(|(k, v)| (k, Json::from(v))).collect());
    let histograms = Json::arr(metrics::histogram_snapshot().into_iter().map(
        |(name, edges, buckets, count, sum)| {
            Json::obj([
                ("name", Json::from(name)),
                ("edges", Json::from(edges)),
                ("buckets", Json::from(buckets)),
                ("count", Json::from(count)),
                ("sum", Json::from(sum)),
            ])
        },
    ));
    vec![
        Json::obj([("kind", Json::from("counters")), ("counters", counters)]),
        Json::obj([("kind", Json::from("gauges")), ("gauges", gauges)]),
        Json::obj([("kind", Json::from("histograms")), ("histograms", histograms)]),
    ]
}

/// Append the span/counter/gauge/histogram summary records, flush, and
/// remove the recorder. Span collection is disabled again. Returns
/// `false` if no recorder was installed.
pub fn uninstall() -> bool {
    let mut slot = slot().lock().unwrap_or_else(|e| e.into_inner());
    let Some(mut rec) = slot.take() else {
        return false;
    };
    ACTIVE.store(false, Ordering::Relaxed);
    spans::enable_spans(false);
    rec.sink.write_line(&span_summary_record().to_string());
    for record in metric_summary_records() {
        rec.sink.write_line(&record.to_string());
    }
    rec.sink.flush();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn events_are_noops_without_recorder() {
        let _serial = test_lock();
        assert!(!active());
        event("test.recorder.dropped", &[("x", Json::from(1u64))]);
        assert!(!uninstall());
    }

    #[test]
    fn events_roundtrip_through_mars_json() {
        let _serial = test_lock();
        let sink = install_memory();
        event(
            "test.recorder.step",
            &[("loss", Json::from(0.25)), ("iter", Json::from(3u64)), ("tag", Json::from("a"))],
        );
        event("test.recorder.step", &[("loss", Json::from(0.125))]);
        assert!(uninstall());

        let lines = sink.lock().expect("sink").clone();
        // 2 events + spans + counters + gauges + histograms.
        assert_eq!(lines.len(), 6);
        let first = Json::parse(&lines[0]).expect("valid JSON");
        assert_eq!(first["kind"].as_str(), Some("event"));
        assert_eq!(first["name"].as_str(), Some("test.recorder.step"));
        assert_eq!(first["seq"].as_u64(), Some(1));
        assert_eq!(first["loss"].as_f64(), Some(0.25));
        assert_eq!(first["iter"].as_u64(), Some(3));
        assert_eq!(first["tag"].as_str(), Some("a"));
        let second = Json::parse(&lines[1]).expect("valid JSON");
        assert_eq!(second["seq"].as_u64(), Some(2));
        // Bit-exact float round-trip via mars-json.
        assert_eq!(second["loss"].as_f64().map(f64::to_bits), Some(0.125f64.to_bits()));
    }

    #[test]
    fn uninstall_appends_summary_records() {
        let _serial = test_lock();
        let sink = install_memory();
        {
            let _g = crate::span("test.recorder.span");
        }
        crate::counter("test.recorder.counter").add(2);
        crate::gauge("test.recorder.gauge", 1.5);
        crate::histogram("test.recorder.hist", &[1.0]).observe(0.5);
        assert!(uninstall());

        let lines = sink.lock().expect("sink").clone();
        let parsed: Vec<Json> = lines.iter().map(|l| Json::parse(l).expect("valid JSON")).collect();
        let spans_rec =
            parsed.iter().find(|j| j["kind"].as_str() == Some("spans")).expect("spans record");
        assert!(spans_rec["spans"]
            .as_array()
            .expect("array")
            .iter()
            .any(|s| s["path"].as_str() == Some("test.recorder.span")));
        let counters = parsed
            .iter()
            .find(|j| j["kind"].as_str() == Some("counters"))
            .expect("counters record");
        assert_eq!(counters["counters"]["test.recorder.counter"].as_u64(), Some(2));
        let gauges =
            parsed.iter().find(|j| j["kind"].as_str() == Some("gauges")).expect("gauges record");
        assert_eq!(gauges["gauges"]["test.recorder.gauge"].as_f64(), Some(1.5));
        let hists = parsed
            .iter()
            .find(|j| j["kind"].as_str() == Some("histograms"))
            .expect("histograms record");
        let h = &hists["histograms"][0];
        assert_eq!(h["name"].as_str(), Some("test.recorder.hist"));
        assert_eq!(h["count"].as_u64(), Some(1));
    }

    #[test]
    fn install_resets_previous_run_state() {
        let _serial = test_lock();
        let _first = install_memory();
        crate::counter("test.recorder.reset").inc();
        assert!(uninstall());

        let sink = install_memory();
        assert!(uninstall());
        let lines = sink.lock().expect("sink").clone();
        let counters = lines
            .iter()
            .map(|l| Json::parse(l).expect("valid JSON"))
            .find(|j| j["kind"].as_str() == Some("counters"))
            .expect("counters record");
        assert!(counters["counters"]["test.recorder.reset"].is_null());
    }

    /// Many threads hammering `event` concurrently must interleave
    /// whole lines: exactly one line per event, every line valid JSON,
    /// and the seq numbers a contiguous 1..=N permutation.
    #[test]
    fn concurrent_writers_interleave_whole_lines_with_exact_seqs() {
        let _serial = test_lock();
        const THREADS: usize = 8;
        const EVENTS: usize = 250;
        let sink = install_memory();
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..EVENTS {
                        event(
                            "test.recorder.contend",
                            &[("t", Json::from(t as u64)), ("i", Json::from(i as u64))],
                        );
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("writer thread");
        }
        assert!(uninstall());
        let lines = sink.lock().expect("sink").clone();
        let events: Vec<Json> = lines
            .iter()
            .map(|l| Json::parse(l).expect("every line parses — no torn interleaving"))
            .filter(|j| j["kind"].as_str() == Some("event"))
            .collect();
        assert_eq!(events.len(), THREADS * EVENTS, "exactly one line per event");
        let mut seqs: Vec<u64> =
            events.iter().map(|j| j["seq"].as_u64().expect("seq present")).collect();
        seqs.sort_unstable();
        let want: Vec<u64> = (1..=(THREADS * EVENTS) as u64).collect();
        assert_eq!(seqs, want, "seqs must be a contiguous permutation — no losses, no dups");
        // Per-thread payloads all arrived.
        for t in 0..THREADS as u64 {
            let n = events.iter().filter(|j| j["t"].as_u64() == Some(t)).count();
            assert_eq!(n, EVENTS, "thread {t} lost events");
        }
    }

    #[test]
    fn file_sink_writes_lines() {
        let _serial = test_lock();
        let path = std::env::temp_dir().join("mars-telemetry-recorder-test.jsonl");
        install_file(&path).expect("create file sink");
        event("test.recorder.file", &[("v", Json::from(1u64))]);
        assert!(uninstall());
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(text.lines().count() >= 5);
        assert!(text.contains("test.recorder.file"));
        let _ = std::fs::remove_file(&path);
    }
}
