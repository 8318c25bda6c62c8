//! Golden bits of DGI pre-training: `f32::to_bits` of every loss of a
//! short `pretrain`, pinned so that a restructuring of the iteration
//! (its tapes, lanes or gradient order) cannot move a bit unnoticed.
//! The values were taken from the one-tape iteration that preceded the
//! two-lane one; the same bits under every kernel backend and thread
//! count.

use mars_core::dgi::{pretrain, Dgi};
use mars_core::encoder::GcnEncoder;
use mars_core::WorkloadInput;
use mars_graph::features::FEATURE_DIM;
use mars_graph::generators::{Profile, Workload};
use mars_graph::{shape, GraphBuilder, OpKind};
use mars_nn::ParamStore;
use mars_rng::rngs::StdRng;
use mars_rng::SeedableRng;

/// Loss bits of a 20-iteration pretrain at width 32, three GCN layers.
fn loss_bits(input: &WorkloadInput, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let enc = GcnEncoder::new(&mut store, FEATURE_DIM, 32, 3, &mut rng);
    let dgi = Dgi::new(&mut store, 32, &mut rng);
    let report = pretrain(&mut store, &enc, &dgi, input, 20, 2e-3, &mut rng);
    report.losses.iter().map(|l| l.to_bits()).collect()
}

#[test]
fn paper_gnmt_losses_keep_their_bits() {
    let gnmt = WorkloadInput::from_graph(&Workload::Gnmt4.build(Profile::Paper));
    let golden = [
        1060306973, 1060215664, 1060158825, 1060098205, 1060045480, 1059985491, 1059944264,
        1059902767, 1059850160, 1059767061, 1059683822, 1059564618, 1059464796, 1059381351,
        1059224700, 1059112272, 1058924935, 1058846051, 1058672076, 1058536355,
    ];
    assert_eq!(loss_bits(&gnmt, 7), golden);
}

#[test]
fn two_op_graph_losses_keep_their_bits() {
    let mut b = GraphBuilder::new("pair");
    let a = b.compute(OpKind::Input, "a", shape![64, 32], 1e6, &[]);
    b.compute(OpKind::MatMul, "b", shape![64, 32], 4e6, &[a]);
    let pair = WorkloadInput::from_graph(&b.build());
    let golden = [
        1060570424, 1060231916, 1060243232, 1060303149, 1060289996, 1060261472, 1060231534,
        1060211804, 1060205281, 1060207139, 1060213540, 1060220058, 1060223577, 1060223753,
        1060220634, 1060215802, 1060210993, 1060207459, 1060205526, 1060205097,
    ];
    assert_eq!(loss_bits(&pair, 8), golden);
}
