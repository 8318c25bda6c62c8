//! The telemetry determinism contract: a training run with a recorder
//! installed and spans enabled must be bit-identical to the same run
//! with telemetry fully disabled. Telemetry only *observes* — it never
//! touches an RNG stream or feeds back into numerics.

mod common;

use common::{run, trace_bits};
use mars::core::agent::TrainingLog;
use mars::telemetry;

/// The recorder is process-global: tests that install one take turns.
static RECORDER: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// [`run`] with a memory recorder installed and spans on; also returns
/// the captured JSONL.
fn run_instrumented(seed: u64, samples: usize) -> (Vec<f32>, TrainingLog, String) {
    let sink = telemetry::install_memory();
    let (losses, log) = run(seed, samples);
    assert!(telemetry::uninstall(), "recorder was installed");
    let text = sink.lock().unwrap().join("\n");
    (losses, log, text)
}

#[test]
fn telemetry_does_not_perturb_training() {
    let _turn = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    // Plain run: no recorder, spans off.
    let (losses_off, log_off) = run(42, 48);

    // Instrumented run: memory recorder + spans on, full event stream.
    let (losses_on, log_on, text) = run_instrumented(42, 48);

    // The capture must actually contain the instrumentation output…
    let summary = telemetry::summarize(&text).expect("capture parses");
    assert!(summary.events > 0, "no events recorded");
    assert!(
        summary.spans.iter().any(|s| s.path.contains("tensor.ops.")),
        "no tensor kernel spans recorded"
    );
    assert!(
        summary.rollups.iter().any(|r| r.event == "ppo.update"),
        "no PPO update events recorded"
    );

    // …while the numerics stay bit-identical.
    assert_eq!(losses_off.len(), losses_on.len());
    for (i, (a, b)) in losses_off.iter().zip(&losses_on).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "DGI loss diverged at iter {i}: {a} vs {b}");
    }
    assert_eq!(trace_bits(&log_off), trace_bits(&log_on));
    assert_eq!(log_off.best_placement, log_on.best_placement);
    assert_eq!(log_off.best_reading_s.map(f64::to_bits), log_on.best_reading_s.map(f64::to_bits));
}

/// `grad_norm` of every `ppo.update` event in a capture, as bits.
fn grad_norm_bits(text: &str) -> Vec<u64> {
    text.lines()
        .map(|line| mars::json::Json::parse(line).expect("capture line parses"))
        .filter(|rec| rec.get("name").and_then(|n| n.as_str()) == Some("ppo.update"))
        .map(|rec| rec.get("grad_norm").and_then(|g| g.as_f64()).expect("grad_norm").to_bits())
        .collect()
}

/// The trace itself repeats: `grad_norm` is an f64 sum over the
/// parameter gradients in the order `FwdCtx` drains them, which must
/// not depend on a hasher's per-instance state.
#[test]
fn same_seed_traces_agree_on_grad_norm_bits() {
    let _turn = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    let (_, _, first) = run_instrumented(7, 40);
    let (_, _, second) = run_instrumented(7, 40);
    let norms = grad_norm_bits(&first);
    assert!(norms.len() >= 2, "expected several PPO updates, got {}", norms.len());
    assert_eq!(norms, grad_norm_bits(&second), "ppo.update grad_norm differs between reruns");
}

/// The fields of a `ppo.update` event: the PPO step's own, then the
/// round summary `Rounds` keeps (counts, valid readings, eval time).
const PPO_UPDATE_FIELDS: [&str; 16] = [
    "samples_so_far",
    "reward_mean",
    "baseline",
    "adv_mean",
    "adv_std",
    "clip_fraction",
    "approx_kl",
    "entropy",
    "grad_norm",
    "policy_entropy",
    "oom_count",
    "bad_count",
    "valid_fraction",
    "mean_valid_reading_s",
    "best_so_far_s",
    "eval_wall_s",
];

#[test]
fn every_ppo_update_carries_its_fields_once_per_round() {
    let _turn = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    let (_, log, text) = run_instrumented(5, 60);
    let events: Vec<mars::json::Json> = text
        .lines()
        .map(|line| mars::json::Json::parse(line).expect("capture line parses"))
        .filter(|rec| rec.get("name").and_then(|n| n.as_str()) == Some("ppo.update"))
        .collect();
    assert_eq!(events.len(), log.records.len(), "one ppo.update per round");
    for (event, record) in events.iter().zip(&log.records) {
        let mars::json::Json::Obj(pairs) = event else { panic!("event is an object") };
        let fields: Vec<&str> = pairs
            .iter()
            .map(|(k, _)| k.as_str())
            .filter(|k| !matches!(*k, "seq" | "kind" | "name"))
            .collect();
        assert_eq!(fields, PPO_UPDATE_FIELDS);
        let samples = event.get("samples_so_far").and_then(|v| v.as_f64());
        assert_eq!(samples, Some(record.samples_so_far as f64));
    }
}
