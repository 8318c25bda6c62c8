//! Evaluation is a pure function of `(graph, cluster, env seed,
//! placement)`: re-evaluating a placement reads the same bits — in the
//! same environment or in a fresh one of the same seed — for valid,
//! bad and OOM outcomes alike, and costs the same machine time again.

use mars_graph::generators::{Profile, Workload};
use mars_rng::rngs::StdRng;
use mars_rng::{props, Rng};
use mars_sim::{Cluster, Environment, EvalOutcome, Placement, SimEnv};

fn env(w: Workload, seed: u64) -> SimEnv {
    SimEnv::new(w.build(Profile::Reduced), Cluster::p100_quad(), seed)
}

/// Arbitrary placement biased to also produce OOM and bad outcomes:
/// sometimes piles everything on one device (GNMT all-on-GPU OOMs,
/// BERT all-on-CPU is bad), sometimes scatters uniformly.
fn arb_placement(rng: &mut StdRng, w: Workload) -> Placement {
    let graph = w.build(Profile::Reduced);
    let cluster = Cluster::p100_quad();
    match rng.gen_range(0..4u32) {
        0 => Placement::all_on(&graph, rng.gen_range(0..cluster.num_devices())),
        1 => Placement::blocked(&graph, &[1, 1 + rng.gen_range(0..4usize)]),
        _ => Placement::random(&graph, &cluster, rng),
    }
}

fn arb_workload(rng: &mut StdRng) -> Workload {
    [Workload::InceptionV3, Workload::Gnmt4, Workload::BertBase][rng.gen_range(0..3usize)]
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

props! {
    fn reevaluation_reads_the_same_bits_and_costs_the_same_again(rng, 24) {
        let w = arb_workload(rng);
        let seed = rng.gen::<u64>();
        let p = arb_placement(rng, w);
        let mut same = env(w, seed);
        let first = same.evaluate(&p);
        let one = same.machine_seconds();
        let again = same.evaluate(&p);
        let fresh = env(w, seed).evaluate(&p);
        assert_eq!(outcome_bits(&first), outcome_bits(&again), "same env");
        assert_eq!(outcome_bits(&first), outcome_bits(&fresh), "fresh env of the same seed");
        assert_eq!(same.machine_seconds().to_bits(), (2.0 * one).to_bits());
        assert_eq!(same.evaluations(), 2);
    }
}
