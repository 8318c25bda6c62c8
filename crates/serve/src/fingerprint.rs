//! Cache-key derivation: stable 64-bit fingerprints for the two halves
//! of a placement query.
//!
//! The serve cache is keyed by `(graph_fingerprint, cluster_fingerprint)`,
//! each a SplitMix64 fold. The halves are separate because a serve cache
//! spans many environments, so each must be independently reusable. A
//! query cluster arrives over the wire from an arbitrary client, so
//! every field that could distinguish two clusters (per-device compute
//! model, per-pair links, failure mask) folds into the key.

use mars_graph::CompGraph;
use mars_rng::rngs::SplitMix64;
use mars_rng::RngCore;
use mars_sim::Cluster;

fn fold(h: &mut u64, v: u64) {
    *h = SplitMix64::new(*h ^ v).next_u64();
}

/// Fingerprint of the graph half of a query: workload name plus node
/// and edge counts. Graphs are generated from canonical
/// `(workload, profile)` recipes, so identity of the recipe implies
/// identity of the graph.
pub fn graph_fingerprint(graph: &CompGraph) -> u64 {
    let mut h: u64 = 0x4d41_5253_4752_4148; // "MARSGRAH"
    for b in graph.name.bytes() {
        fold(&mut h, b as u64);
    }
    fold(&mut h, graph.num_nodes() as u64);
    fold(&mut h, graph.num_edges() as u64);
    h
}

/// Fingerprint of the cluster half of a query: every device's full
/// compute/memory model, every (overridden) link, and the failure
/// mask. Floats fold as raw bits, so any observable cluster difference
/// changes the key.
pub fn cluster_fingerprint(cluster: &Cluster) -> u64 {
    let mut h: u64 = 0x4d41_5253_434c_5553; // "MARSCLUS"
    let nd = cluster.num_devices();
    fold(&mut h, nd as u64);
    for d in 0..nd {
        let spec = cluster.device(d);
        for b in spec.name.bytes() {
            fold(&mut h, b as u64);
        }
        fold(&mut h, spec.kind as u64);
        fold(&mut h, spec.peak_gflops.to_bits());
        fold(&mut h, spec.util_knee_flops.to_bits());
        fold(&mut h, spec.op_overhead_s.to_bits());
        fold(&mut h, spec.memory_bytes);
        fold(&mut h, cluster.is_alive(d) as u64);
    }
    for from in 0..nd {
        for to in 0..nd {
            if from != to {
                let link = cluster.link(from, to);
                fold(&mut h, link.bandwidth_bps.to_bits());
                fold(&mut h, link.latency_s.to_bits());
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_graph::generators::{Profile, Workload};
    use mars_sim::LinkSpec;

    #[test]
    fn graph_fingerprint_distinguishes_workloads_and_profiles() {
        let a = graph_fingerprint(&Workload::InceptionV3.build(Profile::Reduced));
        let b = graph_fingerprint(&Workload::Vgg16.build(Profile::Reduced));
        let c = graph_fingerprint(&Workload::InceptionV3.build(Profile::Paper));
        let a2 = graph_fingerprint(&Workload::InceptionV3.build(Profile::Reduced));
        assert_eq!(a, a2, "same recipe, same fingerprint");
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn cluster_fingerprint_sees_failures_links_and_specs() {
        let base = Cluster::p100_quad();
        assert_eq!(cluster_fingerprint(&base), cluster_fingerprint(&Cluster::p100_quad()));
        assert_ne!(cluster_fingerprint(&base), cluster_fingerprint(&Cluster::heterogeneous()));

        let mut failed = Cluster::p100_quad();
        failed.fail_device(2);
        assert_ne!(cluster_fingerprint(&base), cluster_fingerprint(&failed));

        let mut linked = Cluster::p100_quad();
        linked.set_link(0, 1, LinkSpec { bandwidth_bps: 1e9, latency_s: 1e-3 });
        assert_ne!(cluster_fingerprint(&base), cluster_fingerprint(&linked));
    }

    #[test]
    fn fingerprint_survives_a_wire_roundtrip() {
        let mut c = Cluster::heterogeneous();
        c.fail_device(1);
        let wire = mars_json::Json::parse(&c.to_json_value().to_string()).expect("parses");
        let back = Cluster::from_json_value(&wire).expect("roundtrips");
        assert_eq!(cluster_fingerprint(&c), cluster_fingerprint(&back));
    }
}
