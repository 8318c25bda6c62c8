#![warn(missing_docs)]
//! Hermetic observability for the Mars pipeline: scoped timing spans,
//! named metrics, and a per-step JSONL event recorder.
//!
//! The paper's artifacts (Fig. 7 convergence curves, Table 2 training
//! times) are derived from *traces* of training runs; this crate is the
//! structured replacement for the ad-hoc `println!`s those traces used
//! to come from. It is std-only and serializes through the in-repo
//! [`mars_json`] crate, so the workspace stays zero-external-dependency.
//!
//! Three layers, all global (process-wide) so instrumentation points
//! never have to thread handles through call signatures:
//!
//! * [`spans`] — RAII wall-clock timers forming a per-thread call tree,
//!   aggregated by span *path* (count / total / self time). Disabled by
//!   default; when off, [`span`] costs one relaxed atomic load.
//! * [`metrics`] — process-wide counters, gauges, and fixed-bucket
//!   histograms. Counters are atomic and safe to bump from the tensor
//!   thread pool.
//! * [`recorder`] — a JSONL sink (file or in-memory buffer) for
//!   structured per-step events ([`event`]). When no recorder is
//!   installed, [`event`] is a cheap no-op; guard expensive field
//!   computation with [`active`].
//!
//! [`summary`] parses a recorded run back into metric rollups and a
//! span tree — `mars-cli metrics summarize <run.jsonl>` is a thin shell
//! around it, as are `metrics tail` ([`summary::tail_line`]) and
//! `metrics flame` ([`RunSummary::collapsed_stacks`]).
//!
//! Span naming convention: `crate.module.fn` (e.g.
//! `tensor.ops.matmul`); the aggregation key is the `/`-joined call
//! path, so the same kernel shows up separately under each caller.
//!
//! Determinism contract: nothing in this crate touches an RNG stream or
//! feeds back into numerics — a run with telemetry enabled must produce
//! bit-identical results to one without (see
//! `tests/telemetry_determinism.rs` at the workspace root).
//!
//! ```
//! use mars_telemetry as telemetry;
//!
//! let sink = telemetry::install_memory();
//! {
//!     let _outer = telemetry::span("doc.outer");
//!     let _inner = telemetry::span("doc.inner");
//!     telemetry::event("doc.step", &[("loss", 0.5.into())]);
//!     telemetry::counter("doc.steps").inc();
//! }
//! telemetry::uninstall();
//! let lines = sink.lock().unwrap().join("\n");
//! let run = telemetry::summary::summarize(&lines).unwrap();
//! assert_eq!(run.events, 1);
//! assert!(run.spans.iter().any(|s| s.path == "doc.outer/doc.inner"));
//! ```

pub mod metrics;
pub mod recorder;
pub mod spans;
pub mod summary;

pub use metrics::{counter, gauge, gauge_value, histogram, Counter, Histogram};
pub use recorder::{active, event, install_file, install_memory, uninstall, MemorySink};
pub use spans::{enable_spans, span, spans_enabled, SpanGuard};
pub use summary::{summarize, RolloutReport, RunSummary, ServeReport};

/// Serializes tests that flip process-global telemetry state (span
/// enablement, recorder installation, metric resets).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
