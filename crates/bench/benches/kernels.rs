//! Microbenchmarks of the substrate kernels: dense/sparse matmul, GCN
//! encoder forward, segment placer forward, and the discrete-event
//! simulator. Uses the in-repo timing harness
//! ([`mars_bench::harness`]); pass `--smoke` for a one-iteration
//! correctness pass.
//!
//! A print-only developer tool: the ledger (`BENCHMARK.json`) is the
//! performance gate. An arm is kept only while it isolates one code path
//! that a ledger per-layer metric or a traced span times; the comment
//! above each names it.

use mars_autograd::Tape;
use mars_bench::harness::{bench, BenchOpts};
use mars_core::config::MarsConfig;
use mars_core::dgi::{Dgi, DgiTapes};
use mars_core::encoder::{Encoder, GcnEncoder};
use mars_core::placers::segment::SegmentSeq2Seq;
use mars_core::placers::PlacerNet;
use mars_core::workload_input::WorkloadInput;
use mars_graph::features::FEATURE_DIM;
use mars_graph::generators::{Profile, Workload};
use mars_nn::decode::decode;
use mars_nn::{Attention, BiLstm, FwdCtx, Linear, LstmCell, ParamStore};
use mars_rng::rngs::StdRng;
use mars_rng::SeedableRng;
use mars_sim::{simulate, Cluster, Placement};
use mars_tensor::ops::{matmul, matmul_nt, matmul_tn, CsrMatrix};
use mars_tensor::{init, Matrix};
use std::hint::black_box;

/// The GCN's widest product, `H · W` at the paper's width: 528 ops
/// (Paper GNMT) by 256 features.
const LEDGER_SHAPE: (usize, usize, usize) = (528, 256, 256);

/// `tensor.ops.{matmul,matmul_tn,matmul_nt}.self_s` at square sizes
/// and at the ledger's shape: `matmul` is `A·B` with `A: m×k`,
/// `matmul_tn` the backward's `grad_w = xᵀ · grad_y` with `x: m×k`
/// (at `528x256x1` the DGI head's `Hᵀ · g`), `matmul_nt` the backward's
/// `grad_x = grad_y · wᵀ` with `grad_y: m×k`.
fn bench_products(opts: &BenchOpts) {
    let (m, k, n) = LEDGER_SHAPE;
    let sq = |n| (n, n, n);
    type Product = fn(&Matrix, &Matrix) -> Matrix;
    // `b`'s shape for the arm's `(m, k, n)`.
    type BShape = fn(usize, usize, usize) -> (usize, usize);
    let arms: [(&str, Product, BShape, Vec<_>); 3] = [
        ("matmul", matmul, |_, k, n| (k, n), vec![sq(32), sq(128), sq(256), sq(512), (m, k, n)]),
        ("matmul_tn", matmul_tn, |m, _, n| (m, n), vec![sq(128), sq(256), (m, k, n), (m, k, 1)]),
        ("matmul_nt", matmul_nt, |_, k, n| (n, k), vec![sq(128), sq(256), (m, k, n)]),
    ];
    for (op, product, b_shape, shapes) in arms {
        for (m, k, n) in shapes {
            let (b_rows, b_cols) = b_shape(m, k, n);
            let mut rng = StdRng::seed_from_u64(1);
            let a = init::uniform(m, k, 1.0, &mut rng);
            let b = init::uniform(b_rows, b_cols, 1.0, &mut rng);
            let name =
                if m == k && k == n { format!("{op}/{n}") } else { format!("{op}/{m}x{k}x{n}") };
            bench(opts, &name, || {
                black_box(product(black_box(&a), black_box(&b)));
            });
        }
    }
}

// `core.pretrain.busy_s`, one iteration of it: DGI's loss on Paper
// GNMT at the paper's encoder width (256, three layers), and its
// backward, the two views on the pool's lanes — what `pretrain_corpus`
// repeats on its largest graph, without the optimizer step.
fn bench_dgi_iteration(opts: &BenchOpts) {
    let g = Workload::Gnmt4.build(Profile::Paper);
    let input = WorkloadInput::from_graph(&g);
    let mut rng = StdRng::seed_from_u64(12);
    let mut store = ParamStore::new();
    let enc = GcnEncoder::new(&mut store, FEATURE_DIM, 256, 3, &mut rng);
    let dgi = Dgi::new(&mut store, 256, &mut rng);
    let perm: Vec<usize> = (0..input.num_ops).rev().collect();
    let mut tapes = DgiTapes::default();
    bench(opts, "dgi_iteration/gnmt_paper_256", || {
        black_box(dgi.step(&mut tapes, &mut store, &enc, &input, &perm));
        store.zero_grads();
    });
}

// `tensor.ops.spmm.self_s`.
fn bench_spmm(opts: &BenchOpts) {
    let g = Workload::BertBase.build(Profile::Reduced);
    let input = WorkloadInput::from_graph(&g);
    let mut rng = StdRng::seed_from_u64(2);
    let x = init::uniform(input.num_ops, 64, 1.0, &mut rng);
    bench(opts, "spmm_bert_adjacency_64", || {
        black_box(CsrMatrix::spmm(black_box(&input.adj), black_box(&x)));
    });
}

// `nn.gcn.forward.self_s`.
fn bench_gcn_forward(opts: &BenchOpts) {
    let g = Workload::InceptionV3.build(Profile::Reduced);
    let input = WorkloadInput::from_graph(&g);
    let mut rng = StdRng::seed_from_u64(3);
    let mut store = ParamStore::new();
    let enc = GcnEncoder::new(&mut store, FEATURE_DIM, 48, 3, &mut rng);
    bench(opts, "gcn_encoder_forward_inception", || {
        let mut ctx = FwdCtx::new(Tape::new(), &store);
        let h = enc.encode(&mut ctx, black_box(&input));
        black_box(ctx.tape.value(h).sum());
    });
}

fn bench_segment_placer(opts: &BenchOpts) {
    let cfg = MarsConfig::small();
    let mut rng = StdRng::seed_from_u64(4);
    let mut store = ParamStore::new();
    let placer = SegmentSeq2Seq::new(
        &mut store,
        "seg",
        cfg.encoder_hidden,
        cfg.placer_hidden,
        cfg.attn_dim,
        5,
        &mut rng,
    )
    .with_segment_size(cfg.segment_size);
    let reps = init::uniform(128, cfg.encoder_hidden, 1.0, &mut rng);
    // `core.policy_forward.ms`, its placer half: the forward without
    // the GCN encoder.
    bench(opts, "segment_placer_forward_128ops", || {
        let mut ctx = FwdCtx::new(Tape::new(), &store);
        let r = ctx.tape.constant(reps.clone());
        let l = placer.logits(&mut ctx, r);
        black_box(ctx.tape.value(l).sum());
    });
    // `autograd.tape.backward.self_s`: one PPO minibatch's worth of
    // placer work, the forward above plus the reverse sweep, on a
    // persistent tape as `Agent::train` runs it.
    let mut tape = Tape::new();
    bench(opts, "segment_placer_forward_backward_128ops", || {
        let mut ctx = FwdCtx::new(std::mem::take(&mut tape), &store);
        let r = ctx.tape.constant(reps.clone());
        let l = placer.logits(&mut ctx, r);
        let loss = ctx.tape.mean_all(l);
        let grads;
        (grads, tape) = ctx.into_grads(loss, 1.0);
        black_box(grads.len());
        tape.reset_for_reuse();
    });
}

// `nn.lstm.bi_run.self_s`: one segment of the placer's encoder at the
// `small` widths (32 ops, 48 wide in, 24 per direction), forward and
// reverse sweep — both directions one `Tape::bilstm` node, on two lanes.
fn bench_bilstm(opts: &BenchOpts) {
    let cfg = MarsConfig::small();
    let mut rng = StdRng::seed_from_u64(7);
    let mut store = ParamStore::new();
    let (rep, hd) = (cfg.encoder_hidden, cfg.placer_hidden / 2);
    let bi = BiLstm::new(&mut store, "enc", rep, hd, &mut rng);
    let xs = init::uniform(cfg.segment_size, rep, 0.8, &mut rng);
    bench(opts, "bilstm/segment", || {
        let mut ctx = FwdCtx::new(Tape::new(), &store);
        let x = ctx.tape.constant(xs.clone());
        let (out, _) = bi.run(&mut ctx, x, None);
        let loss = ctx.tape.mean_all(out);
        black_box(ctx.into_grads(loss, 1.0).0.len());
    });
}

// `nn.decode`: the placer's fused decoder over one gnmt4 pass — 528
// ops in 17 segments (16 of 32, one of 16) at the `small` widths,
// forward + backward, so the per-segment replay runs at the size
// `train_gnmt4` trains.
fn bench_attn_decode(opts: &BenchOpts) {
    let cfg = MarsConfig::small();
    let (hd, ad) = (cfg.placer_hidden, cfg.attn_dim);
    let mut rng = StdRng::seed_from_u64(11);
    let mut store = ParamStore::new();
    let cell = LstmCell::new(&mut store, "dec", 2 * hd, hd, &mut rng);
    let attn = Attention::new(&mut store, "attn", hd, hd, ad, &mut rng);
    let head = Linear::new(&mut store, "head", hd, 5, true, &mut rng);
    let seg_rows = (0..528).step_by(cfg.segment_size).map(|s| cfg.segment_size.min(528 - s));
    let encs: Vec<Matrix> = seg_rows.map(|t| init::uniform(t, hd, 0.8, &mut rng)).collect();
    assert_eq!(encs.len(), 17);
    bench(opts, "attn_decode/fused", || {
        let mut ctx = FwdCtx::new(Tape::new(), &store);
        let keys: Vec<_> = encs
            .iter()
            .map(|enc| {
                let enc = ctx.tape.leaf_from(enc, true);
                attn.precompute(&mut ctx, enc)
            })
            .collect();
        let state = cell.zero_state(&mut ctx);
        let logits = decode(&mut ctx, &cell, &attn, &head, &keys, state);
        let loss = ctx.tape.mean_all(logits);
        black_box(ctx.into_grads(loss, 1.0).0.len());
    });
}

// `sim.engine.simulate.self_s`.
fn bench_simulator(opts: &BenchOpts) {
    let cluster = Cluster::p100_quad();
    for w in [Workload::InceptionV3, Workload::BertBase] {
        let g = w.build(Profile::Reduced);
        let mut p = Placement::round_robin(&g, &[1, 2, 3, 4]);
        p.enforce_compatibility(&g, &cluster);
        bench(opts, &format!("simulate_step/{}", w.name()), || {
            black_box(simulate(black_box(&g), black_box(&p), black_box(&cluster)));
        });
    }
}

// `autograd.tape.backward.self_s`: full forward+backward of a GCN
// layer stack, DGI pre-training's inner loop.
fn bench_backward(opts: &BenchOpts) {
    let g = Workload::InceptionV3.build(Profile::Reduced);
    let input = WorkloadInput::from_graph(&g);
    let mut rng = StdRng::seed_from_u64(5);
    let mut store = ParamStore::new();
    let enc = GcnEncoder::new(&mut store, FEATURE_DIM, 48, 3, &mut rng);
    let targets = std::sync::Arc::new(Matrix::full(input.num_ops, 48, 0.5));
    bench(opts, "gcn_forward_backward_inception", || {
        let mut ctx = FwdCtx::new(Tape::new(), &store);
        let h = enc.encode(&mut ctx, &input);
        let loss = ctx.tape.bce_with_logits(h, targets.clone());
        black_box(ctx.into_grads(loss, 1.0).0.len());
    });
}

fn main() {
    let opts = BenchOpts::from_args();
    bench_products(&opts);
    bench_dgi_iteration(&opts);
    bench_spmm(&opts);
    bench_gcn_forward(&opts);
    bench_segment_placer(&opts);
    bench_bilstm(&opts);
    bench_attn_decode(&opts);
    bench_simulator(&opts);
    bench_backward(&opts);
}
