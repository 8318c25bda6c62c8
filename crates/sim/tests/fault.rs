//! Integration tests for the fault-injection subsystem: remapping
//! correctness (property-tested), retry/straggler semantics, the
//! degraded cluster after a device failure, and same-seed reruns under
//! an active fault plan.

use mars_graph::generators::{Profile, Workload};
use mars_rng::Rng;
use mars_sim::{Cluster, Environment, EvalOutcome, FaultPlan, Placement, SimEnv, BAD_CUTOFF_S};

fn env(w: Workload, seed: u64) -> SimEnv {
    SimEnv::new(w.build(Profile::Reduced), Cluster::p100_quad(), seed)
}

fn outcome_bits(o: &EvalOutcome) -> (u8, u64) {
    match o {
        EvalOutcome::Valid { per_step_s } => (0, per_step_s.to_bits()),
        EvalOutcome::Bad { cutoff_s } => (1, cutoff_s.to_bits()),
        EvalOutcome::Invalid { oom } => (2, oom.required_bytes),
        EvalOutcome::TransientError { attempts, .. } => (3, *attempts as u64),
        EvalOutcome::Straggler { slowdown, .. } => (4, slowdown.to_bits()),
    }
}

mars_rng::props! {
    /// Every remapped placement references only live devices, moves
    /// nothing that was alive, and is idempotent — for random
    /// placements under random failure sets (never killing the CPU,
    /// sometimes killing every GPU).
    fn remap_references_only_live_devices(rng, 48) {
        let graph = Workload::InceptionV3.build(Profile::Reduced);
        let mut cluster = Cluster::p100_quad();
        let kill_count = rng.gen_range(1..=cluster.gpu_ids().len());
        let mut gpus = cluster.gpu_ids();
        for _ in 0..kill_count {
            let k = rng.gen_range(0..gpus.len());
            cluster.fail_device(gpus.swap_remove(k));
        }
        let mut p = Placement::random(&graph, &cluster, rng);
        let before = p.clone();
        p.remap_failed(&graph, &cluster);
        for i in 0..p.len() {
            assert!(cluster.is_alive(p.device(i)), "op {i} on dead device {}", p.device(i));
            if cluster.is_alive(before.device(i)) {
                assert_eq!(p.device(i), before.device(i), "op {i} moved off a live device");
            }
        }
        let again = {
            let mut q = p.clone();
            q.remap_failed(&graph, &cluster);
            q
        };
        assert_eq!(again, p, "remap must be idempotent");
    }
}

#[test]
fn device_failure_degrades_cluster_and_remaps() {
    let mut e = env(Workload::InceptionV3, 7);
    e.set_fault_plan(FaultPlan::parse("fail:2@2").unwrap()).unwrap();
    let p = Placement::all_on(e.graph(), 2);
    let healthy = e.evaluate(&p);
    assert!(healthy.is_valid());
    assert_eq!(e.evaluate(&p), healthy);
    // Evaluation 2 fires the failure first: device 2 dies and the
    // placement is remapped off the dead device.
    let degraded = e.evaluate(&p);
    assert!(!e.cluster().is_alive(2));
    assert!(degraded.is_valid(), "remapped placement still runs");
    assert_ne!(
        outcome_bits(&degraded),
        outcome_bits(&healthy),
        "different devices, different reading"
    );
}

#[test]
fn transient_fault_retries_and_succeeds() {
    let mut e = env(Workload::InceptionV3, 7);
    let mut clean = env(Workload::InceptionV3, 7);
    e.set_fault_plan(FaultPlan::parse("transient@0").unwrap()).unwrap();
    let p = Placement::all_on(e.graph(), 1);
    let faulted = e.evaluate(&p);
    let baseline = clean.evaluate(&p);
    assert_eq!(faulted, baseline, "a retried transient recovers the identical reading");
    // One wasted attempt plus backoff: strictly more machine time.
    assert!(e.machine_seconds() > 2.0 * clean.machine_seconds() - 1e-9);
}

#[test]
fn transient_fault_exhausts_retry_budget() {
    let mut e = env(Workload::InceptionV3, 7);
    e.set_fault_plan(FaultPlan {
        events: vec![mars_sim::Fault {
            at_eval: 0,
            kind: mars_sim::FaultKind::Transient { failures: 99 },
        }],
        ..FaultPlan::none()
    })
    .unwrap();
    let p = Placement::all_on(e.graph(), 1);
    match e.evaluate(&p) {
        EvalOutcome::TransientError { attempts, cutoff_s } => {
            assert_eq!(attempts, e.retry.max_retries + 1);
            assert_eq!(cutoff_s, BAD_CUTOFF_S);
        }
        other => panic!("expected retry exhaustion, got {other:?}"),
    }
}

#[test]
fn timeout_budget_bounds_retry_spend() {
    let mut e = env(Workload::InceptionV3, 7);
    e.eval_timeout_s = 1.0; // tighter than even one backoff
    e.set_fault_plan(FaultPlan::parse("transient@0").unwrap()).unwrap();
    let p = Placement::all_on(e.graph(), 1);
    let out = e.evaluate(&p);
    assert!(matches!(out, EvalOutcome::TransientError { .. }), "{out:?}");
    assert!(e.machine_seconds() <= 1.0 + 1e-9, "spend capped by the timeout budget");
}

#[test]
fn straggler_slows_machine_time_and_aborts_past_cutoff() {
    let p = Placement::all_on(env(Workload::InceptionV3, 7).graph(), 1);
    // Mild straggler: reading unchanged, machine time scaled.
    let mut mild = env(Workload::InceptionV3, 7);
    let mut clean = env(Workload::InceptionV3, 7);
    mild.set_fault_plan(FaultPlan::parse("straggler:3@0").unwrap()).unwrap();
    let out_mild = mild.evaluate(&p);
    let out_clean = clean.evaluate(&p);
    assert_eq!(out_mild, out_clean, "sub-cutoff straggler keeps the reading");
    let ratio = mild.machine_seconds() / clean.machine_seconds();
    assert!((ratio - 3.0).abs() < 1e-9, "machine time scaled by the slowdown: {ratio}");
    // Catastrophic straggler: slowed per-step blows the cutoff.
    let mut abort = env(Workload::InceptionV3, 7);
    abort.set_fault_plan(FaultPlan::parse("straggler:100000@0").unwrap()).unwrap();
    match abort.evaluate(&p) {
        EvalOutcome::Straggler { slowdown, cutoff_s } => {
            assert_eq!(slowdown, 100000.0);
            assert_eq!(cutoff_s, BAD_CUTOFF_S);
        }
        other => panic!("expected straggler abort, got {other:?}"),
    }
}

#[test]
fn fault_readings_feed_the_cutoff_penalty() {
    let t = EvalOutcome::TransientError { attempts: 4, cutoff_s: 20.0 };
    let s = EvalOutcome::Straggler { slowdown: 8.0, cutoff_s: 20.0 };
    assert_eq!(t.reading_s(), 20.0);
    assert_eq!(s.reading_s(), 20.0);
    assert!(!t.is_valid() && !s.is_valid());
}

#[test]
fn faulty_round_is_identical_across_same_seed_reruns() {
    let g = Workload::InceptionV3.build(Profile::Reduced);
    let ps: Vec<Placement> = (0..12)
        .map(|i| match i % 3 {
            0 => Placement::all_on(&g, 1 + i % 4),
            1 => Placement::round_robin(&g, &[1, 1 + i % 4]),
            _ => Placement::blocked(&g, &[1 + i % 2, 3]),
        })
        .collect();
    let plan = "fail:2@5, transient:0.3, straggler:0.2x5, straggler:30@3";
    let run = || {
        let mut e = env(Workload::InceptionV3, 33);
        e.set_fault_plan(FaultPlan::parse(plan).unwrap()).unwrap();
        let out = e.evaluate_batch(&ps);
        (out, e.machine_seconds().to_bits(), e.cluster().failed_ids())
    };
    let first = run();
    assert_eq!(first.2, vec![2], "the planned device failure fired");
    assert_eq!(first, run());
}

#[test]
fn crash_fault_is_consumed_once() {
    let mut e = env(Workload::InceptionV3, 7);
    e.set_fault_plan(FaultPlan::parse("crash@1").unwrap()).unwrap();
    let p = Placement::all_on(e.graph(), 1);
    e.evaluate(&p);
    assert!(!e.take_crash(), "no crash before its index");
    e.evaluate(&p);
    assert!(e.take_crash(), "crash fired before evaluation 1");
    assert!(!e.take_crash(), "consumed");
}

#[test]
fn cpu_failure_plan_is_rejected_at_install() {
    let mut e = env(Workload::InceptionV3, 7);
    let err = e.set_fault_plan(FaultPlan::parse("fail:0@1").unwrap()).unwrap_err();
    assert!(err.contains("CPU"), "{err}");
}

#[test]
fn all_gpus_failing_still_trains_on_cpu() {
    let mut e = env(Workload::InceptionV3, 7);
    e.set_fault_plan(FaultPlan::parse("fail:1@0, fail:2@0, fail:3@0, fail:4@0").unwrap()).unwrap();
    let p = Placement::round_robin(e.graph(), &[1, 2, 3, 4]);
    let out = e.evaluate(&p);
    // Everything lands on the CPU: slow (bad) but defined.
    assert!(matches!(out, EvalOutcome::Bad { .. } | EvalOutcome::Valid { .. }), "{out:?}");
    assert_eq!(e.cluster().live_gpu_ids(), Vec::<usize>::new());
}
