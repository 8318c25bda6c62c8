//! Bit-level reproducibility of the full pipeline: with the in-repo RNG
//! the entire run — DGI pre-training losses, PPO training trace, and
//! the final placement — must be byte-identical across same-seed runs,
//! and must diverge across seeds. An armed fault plan changes *what*
//! happens (a device failure, then remaps off the dead device) without
//! breaking that.

mod common;

use common::{pretrain_and_train, run, tiny_cfg, trace_bits};
use mars::core::agent::TrainingLog;

#[test]
fn same_seed_runs_are_byte_identical() {
    let (losses_a, log_a) = run(42, 48);
    let (losses_b, log_b) = run(42, 48);

    // DGI pre-training loss curve, bit for bit.
    assert_eq!(losses_a.len(), losses_b.len());
    for (i, (a, b)) in losses_a.iter().zip(&losses_b).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "DGI loss diverged at iter {i}: {a} vs {b}");
    }

    // PPO trace, bit for bit.
    assert_eq!(trace_bits(&log_a), trace_bits(&log_b));
    assert_eq!(log_a.total_samples, log_b.total_samples);

    // Final placement and its reading.
    assert_eq!(log_a.best_placement, log_b.best_placement);
    assert_eq!(log_a.best_reading_s.map(f64::to_bits), log_b.best_reading_s.map(f64::to_bits));
}

#[test]
fn scalar_and_dispatched_backends_produce_identical_traces() {
    // The SIMD dispatch seam must be invisible in the bits: a full
    // pretrain + PPO run under the forced scalar backend reproduces the
    // auto-dispatched trace exactly (the default tier's core claim —
    // lanes change how many elements one instruction touches, never the
    // per-element operation sequence).
    use mars_tensor::kernel::{self, Backend};
    let (losses_auto, log_auto) = run(42, 48);
    kernel::set_backend_override(Some(Backend::Scalar));
    let scalar_run = std::panic::catch_unwind(|| run(42, 48));
    kernel::set_backend_override(None);
    let (losses_scalar, log_scalar) = scalar_run.expect("scalar-backend run panicked");

    assert_eq!(
        losses_auto.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        losses_scalar.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        "DGI losses diverged between scalar and dispatched backends"
    );
    assert_eq!(
        trace_bits(&log_auto),
        trace_bits(&log_scalar),
        "training trace diverged between scalar and dispatched backends"
    );
    assert_eq!(log_auto.best_placement, log_scalar.best_placement);
    assert_eq!(
        log_auto.best_reading_s.map(f64::to_bits),
        log_scalar.best_reading_s.map(f64::to_bits)
    );
}

#[test]
fn different_seeds_diverge() {
    let (losses_a, log_a) = run(42, 48);
    let (losses_c, log_c) = run(43, 48);

    // Different seeds must produce different random initializations,
    // so the very first DGI loss already differs.
    assert_ne!(
        losses_a.first().map(|l| l.to_bits()),
        losses_c.first().map(|l| l.to_bits()),
        "different seeds produced identical initial DGI loss"
    );
    assert_ne!(
        trace_bits(&log_a),
        trace_bits(&log_c),
        "different seeds produced identical training traces"
    );
}

#[test]
fn training_in_whole_round_calls_equals_one_call() {
    // `generalize` trains in calls of one round each; the log a run
    // leaves must not depend on how its budget was split.
    let (_, whole) = run(9, 100);
    let (_, split, _) = pretrain_and_train(tiny_cfg(), 9, &[20, 40, 60, 80, 100], None);
    assert_eq!(trace_bits(&whole), trace_bits(&split));
    assert_eq!(whole.total_samples, split.total_samples);
    assert_eq!(whole.machine_s.to_bits(), split.machine_s.to_bits());
    assert_eq!(whole.best_placement, split.best_placement);
    assert_eq!(whole.best_reading_s.map(f64::to_bits), split.best_reading_s.map(f64::to_bits));
}

/// A 48-sample training run under an optional fault plan; returns the
/// log and the devices left dead.
fn run_faulty(plan: Option<&str>) -> (TrainingLog, Vec<usize>) {
    let (_, log, failed) = pretrain_and_train(tiny_cfg(), 42, &[48], plan);
    (log, failed)
}

const PLAN: &str = "fail:2@10";

#[test]
fn faulty_run_is_bit_identical_across_reruns() {
    let (log_ref, failed_ref) = run_faulty(Some(PLAN));
    assert_eq!(failed_ref, vec![2], "the planned device failure fired");
    let (log, failed) = run_faulty(Some(PLAN));
    assert_eq!(trace_bits(&log_ref), trace_bits(&log), "faulty trace diverged on a rerun");
    assert_eq!(log_ref.best_placement, log.best_placement);
    assert_eq!(log_ref.best_reading_s.map(f64::to_bits), log.best_reading_s.map(f64::to_bits));
    assert_eq!(failed_ref, failed, "degraded cluster diverged");
}

#[test]
fn fault_plan_changes_the_trace() {
    // Sanity: the plan above is not a no-op — a healthy run reads
    // differently.
    let (faulty, _) = run_faulty(Some(PLAN));
    let (clean, failed) = run_faulty(None);
    assert_eq!(failed, Vec::<usize>::new());
    assert_ne!(trace_bits(&faulty), trace_bits(&clean), "fault plan had no effect");
}
