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

use mars_bench::harness::{bench, BenchOpts};
use mars_core::config::MarsConfig;
use mars_core::encoder::{Encoder, GcnEncoder};
use mars_core::placers::segment::SegmentSeq2Seq;
use mars_core::placers::PlacerNet;
use mars_core::workload_input::WorkloadInput;
use mars_graph::features::FEATURE_DIM;
use mars_graph::generators::{Profile, Workload};
use mars_nn::decode::decode;
use mars_nn::{Attention, FwdCtx, Linear, LstmCell, ParamStore};
use mars_rng::rngs::StdRng;
use mars_rng::SeedableRng;
use mars_sim::{simulate, Cluster, Placement};
use mars_tensor::ops::{matmul, matmul_nt, matmul_tn, CsrMatrix};
use mars_tensor::{init, Matrix};
use std::hint::black_box;

// `tensor.ops.matmul.self_s`.
fn bench_matmul(opts: &BenchOpts) {
    for n in [32usize, 128, 256, 512] {
        let mut rng = StdRng::seed_from_u64(1);
        let a = init::uniform(n, n, 1.0, &mut rng);
        let b = init::uniform(n, n, 1.0, &mut rng);
        bench(opts, &format!("matmul/{n}"), || {
            black_box(matmul(black_box(&a), black_box(&b)));
        });
    }
}

// `tensor.ops.matmul_tn.self_s`: the backward's grad_w = xᵀ · grad_y.
fn bench_matmul_tn(opts: &BenchOpts) {
    for n in [128usize, 256] {
        let mut rng = StdRng::seed_from_u64(6);
        let a = init::uniform(n, n, 1.0, &mut rng);
        let b = init::uniform(n, n, 1.0, &mut rng);
        bench(opts, &format!("matmul_tn/{n}"), || {
            black_box(matmul_tn(black_box(&a), black_box(&b)));
        });
    }
}

// `tensor.ops.matmul_nt.self_s`: the backward's grad_x = grad_y · wᵀ.
fn bench_matmul_nt(opts: &BenchOpts) {
    for n in [128usize, 256] {
        let mut rng = StdRng::seed_from_u64(10);
        let a = init::uniform(n, n, 1.0, &mut rng);
        let b = init::uniform(n, n, 1.0, &mut rng);
        bench(opts, &format!("matmul_nt/{n}"), || {
            black_box(matmul_nt(black_box(&a), black_box(&b)));
        });
    }
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
        let mut ctx = FwdCtx::new(&store);
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
        cfg.encoder_hidden,
        cfg.placer_hidden,
        cfg.attn_dim,
        cfg.segment_size,
        5,
        &mut rng,
    );
    let reps = init::uniform(128, cfg.encoder_hidden, 1.0, &mut rng);
    // `core.policy_forward.ms`, its placer half: the forward without
    // the GCN encoder.
    bench(opts, "segment_placer_forward_128ops", || {
        let mut ctx = FwdCtx::new(&store);
        let r = ctx.tape.constant(reps.clone());
        let l = placer.logits(&mut ctx, r);
        black_box(ctx.tape.value(l).sum());
    });
    // `autograd.tape.backward.self_s`: one PPO minibatch's worth of
    // placer work, the forward above plus the reverse sweep, on a
    // persistent tape as `Agent::train` runs it.
    let mut tape: Option<mars_autograd::Tape> = None;
    bench(opts, "segment_placer_forward_backward_128ops", || {
        let mut ctx = match tape.take() {
            Some(prev) => FwdCtx::with_tape(prev, &store),
            None => FwdCtx::new(&store),
        };
        let r = ctx.tape.constant(reps.clone());
        let l = placer.logits(&mut ctx, r);
        let loss = ctx.tape.mean_all(l);
        let (grads, mut reclaimed) = ctx.into_grads_and_tape(loss, 1.0);
        black_box(grads.len());
        reclaimed.reset_for_reuse();
        tape = Some(reclaimed);
    });
}

// `nn.lstm.bi_run.self_s`: one step of the fused `lstm_seq` node each
// direction of the placer's encoder runs.
fn bench_lstm_cell(opts: &BenchOpts) {
    let hd = 96usize;
    let mut rng = StdRng::seed_from_u64(7);
    let x = init::uniform(1, hd, 0.8, &mut rng);
    let w_ih = init::uniform(hd, 4 * hd, 0.5, &mut rng);
    let w_hh = init::uniform(hd, 4 * hd, 0.5, &mut rng);
    let b = init::uniform(1, 4 * hd, 0.3, &mut rng);
    let h0 = init::uniform(1, hd, 0.5, &mut rng);
    let c0 = init::uniform(1, hd, 0.5, &mut rng);
    bench(opts, "lstm_cell/fused", || {
        let mut t = mars_autograd::Tape::new();
        let vs: Vec<_> =
            [&x, &w_ih, &w_hh, &b, &h0, &c0].iter().map(|m| t.constant((*m).clone())).collect();
        let out_v = t.lstm_seq(vs[0], vs[1], vs[2], vs[3], vs[4], vs[5]);
        black_box(t.value(out_v).sum());
    });
}

// `nn.decode`: one 32-op segment of the placer's fused decoder at the
// `small` widths, forward + backward.
fn bench_attn_decode(opts: &BenchOpts) {
    let cfg = MarsConfig::small();
    let (hd, ad) = (cfg.placer_hidden, cfg.attn_dim);
    let mut rng = StdRng::seed_from_u64(11);
    let mut store = ParamStore::new();
    let cell = LstmCell::new(&mut store, "dec", 2 * hd, hd, &mut rng);
    let attn = Attention::new(&mut store, "attn", hd, hd, ad, &mut rng);
    let head = Linear::new(&mut store, "head", hd, 5, true, &mut rng);
    let enc = init::uniform(cfg.segment_size, hd, 0.8, &mut rng);
    bench(opts, "attn_decode/fused", || {
        let mut ctx = FwdCtx::new(&store);
        let enc = ctx.tape.leaf_from(&enc, true);
        let keys = attn.precompute(&mut ctx, enc);
        let state = cell.zero_state(&mut ctx);
        let logits = decode(&mut ctx, &cell, &attn, &head, &[keys], state);
        let loss = ctx.tape.mean_all(logits);
        black_box(ctx.into_grads(loss, 1.0).len());
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
        let mut ctx = FwdCtx::new(&store);
        let h = enc.encode(&mut ctx, &input);
        let loss = ctx.tape.bce_with_logits(h, targets.clone());
        black_box(ctx.into_grads(loss, 1.0).len());
    });
}

fn main() {
    let opts = BenchOpts::from_args();
    bench_matmul(&opts);
    bench_matmul_tn(&opts);
    bench_matmul_nt(&opts);
    bench_spmm(&opts);
    bench_gcn_forward(&opts);
    bench_segment_placer(&opts);
    bench_lstm_cell(&opts);
    bench_attn_decode(&opts);
    bench_simulator(&opts);
    bench_backward(&opts);
}
