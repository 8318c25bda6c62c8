//! Property tests of the placement-evaluation memo cache: a cached
//! reading must be indistinguishable from a fresh one for arbitrary
//! placements — valid, bad, and OOM/invalid outcomes alike — and a
//! round with duplicates must be observably identical with the cache
//! on or off.

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
    fn cached_reading_equals_fresh_reading(rng, 24) {
        // Evaluate the same placement in a caching env (second call is
        // a hit) and in a cache-free env twice: all four readings and
        // both machine-second totals must agree bit for bit.
        let w = arb_workload(rng);
        let seed = rng.gen::<u64>();
        let p = arb_placement(rng, w);
        let mut cached = env(w, seed);
        let mut fresh = env(w, seed);
        fresh.set_cache_enabled(false);
        let c1 = cached.evaluate(&p);
        let c2 = cached.evaluate(&p);
        let f1 = fresh.evaluate(&p);
        let f2 = fresh.evaluate(&p);
        assert_eq!(cached.cache_stats().expect("cache on").0, 1, "second eval hits");
        assert_eq!(outcome_bits(&c1), outcome_bits(&f1));
        assert_eq!(outcome_bits(&c2), outcome_bits(&f2));
        assert_eq!(outcome_bits(&c1), outcome_bits(&c2), "pure evaluation");
        assert_eq!(
            cached.machine_seconds().to_bits(),
            fresh.machine_seconds().to_bits(),
            "hits must replay the stored machine-time cost"
        );
        assert_eq!(cached.evaluations(), fresh.evaluations());
    }

    fn round_with_duplicates_is_cache_invisible(rng, 12) {
        // A round with duplicates, evaluated with and without the
        // cache: identical observables.
        let w = arb_workload(rng);
        let seed = rng.gen::<u64>();
        let distinct: Vec<Placement> =
            (0..4).map(|_| arb_placement(rng, w)).collect();
        let round: Vec<Placement> =
            (0..10).map(|_| distinct[rng.gen_range(0..distinct.len())].clone()).collect();

        let mut cached = env(w, seed);
        let mut plain = env(w, seed);
        plain.set_cache_enabled(false);
        let cached_out: Vec<_> = cached.evaluate_batch(&round).iter().map(outcome_bits).collect();
        let plain_out: Vec<_> = plain.evaluate_batch(&round).iter().map(outcome_bits).collect();
        assert_eq!(cached_out, plain_out);
        assert_eq!(cached.machine_seconds().to_bits(), plain.machine_seconds().to_bits());
    }
}

#[test]
fn batch_with_duplicates_matches_cache_free_serial_loop() {
    let w = Workload::InceptionV3;
    let g = w.build(Profile::Reduced);
    let round: Vec<Placement> = vec![
        Placement::all_on(&g, 1),
        Placement::all_on(&g, 2),
        Placement::all_on(&g, 1),
        Placement::all_on(&g, 2),
        Placement::all_on(&g, 1),
    ];
    let mut cached = env(w, 9);
    let mut plain = env(w, 9);
    plain.set_cache_enabled(false);
    let expect: Vec<_> = round.iter().map(|p| outcome_bits(&plain.evaluate(p))).collect();
    let got: Vec<_> = cached.evaluate_batch(&round).iter().map(outcome_bits).collect();
    assert_eq!(expect, got);
    let (hits, misses, _) = cached.cache_stats().expect("cache on");
    assert_eq!((hits, misses), (3, 2), "duplicates hit, first occurrences miss");
}

#[test]
fn capacity_one_cache_evicts_lru_on_every_distinct_insert() {
    use mars_sim::{env_fingerprint, EvalCache, EvalComputation};
    let g = Workload::InceptionV3.build(Profile::Reduced);
    let fp = env_fingerprint(&g, &Cluster::p100_quad());
    let mut c = EvalCache::new(1, fp);
    assert_eq!(c.capacity(), 1);
    let comp = EvalComputation {
        outcome: EvalOutcome::Valid { per_step_s: 0.1 },
        machine_s: 1.0,
        makespan_s: 0.1,
        comm_s: 0.0,
        num_transfers: 0,
        peak_mem_utilization: 0.2,
    };
    let (p1, p2) = (Placement::all_on(&g, 1), Placement::all_on(&g, 2));
    c.insert(p1.clone(), comp.clone(), fp);
    c.insert(p2.clone(), comp, fp);
    assert_eq!(c.len(), 1);
    assert_eq!(c.stats().2, 1, "insert over capacity evicts the LRU entry");
    assert!(c.get(&p2, fp).is_some() && c.get(&p1, fp).is_none());
}
