//! Integration tests for device failure: remapping correctness
//! (property-tested), the degraded cluster after a failure, and
//! same-seed reruns under an active fault plan.

use mars_graph::generators::{Profile, Workload};
use mars_rng::Rng;
use mars_sim::{Cluster, Environment, EvalOutcome, FaultPlan, Placement, SimEnv};

fn env(w: Workload, seed: u64) -> SimEnv {
    SimEnv::new(w.build(Profile::Reduced), Cluster::p100_quad(), seed)
}

fn outcome_bits(o: &EvalOutcome) -> (u8, u64) {
    match o {
        EvalOutcome::Valid { per_step_s } => (0, per_step_s.to_bits()),
        EvalOutcome::Bad { cutoff_s } => (1, cutoff_s.to_bits()),
        EvalOutcome::Invalid { oom } => (2, oom.required_bytes),
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
fn faulty_round_is_identical_across_same_seed_reruns() {
    let g = Workload::InceptionV3.build(Profile::Reduced);
    let ps: Vec<Placement> = (0..12)
        .map(|i| match i % 3 {
            0 => Placement::all_on(&g, 1 + i % 4),
            1 => Placement::round_robin(&g, &[1, 1 + i % 4]),
            _ => Placement::blocked(&g, &[1 + i % 2, 3]),
        })
        .collect();
    let plan = "fail:2@5";
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
