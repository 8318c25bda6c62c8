//! Microbenchmarks of the substrate kernels: dense/sparse matmul, GCN
//! encoder forward, segment placer forward, and the discrete-event
//! simulator. Uses the in-repo timing harness
//! ([`mars_bench::harness`]); pass `--smoke` for a one-iteration
//! correctness pass.

use mars_bench::harness::{bench, write_baseline, BenchOpts, Sample};
use mars_core::config::MarsConfig;
use mars_core::encoder::{Encoder, GcnEncoder};
use mars_core::placers::segment::SegmentSeq2Seq;
use mars_core::placers::PlacerNet;
use mars_core::workload_input::WorkloadInput;
use mars_graph::features::FEATURE_DIM;
use mars_graph::generators::{Profile, Workload};
use mars_nn::decode::{decode, decode_composed};
use mars_nn::{Attention, FwdCtx, Linear, LstmCell, ParamStore};
use mars_rng::rngs::StdRng;
use mars_rng::SeedableRng;
use mars_sim::{simulate, Cluster, Placement};
use mars_tensor::ops::{matmul, matmul_nt, matmul_tn, CsrMatrix};
use mars_tensor::{init, Matrix};
use std::hint::black_box;

fn bench_matmul(opts: &BenchOpts, out: &mut Vec<Sample>) {
    for n in [32usize, 128, 256, 512] {
        let mut rng = StdRng::seed_from_u64(1);
        let a = init::uniform(n, n, 1.0, &mut rng);
        let b = init::uniform(n, n, 1.0, &mut rng);
        out.extend(bench(opts, &format!("matmul/{n}"), || {
            black_box(matmul(black_box(&a), black_box(&b)));
        }));
    }
}

fn bench_matmul_tn(opts: &BenchOpts, out: &mut Vec<Sample>) {
    // The backward hot path: grad_w = xᵀ · grad_y.
    for n in [128usize, 256] {
        let mut rng = StdRng::seed_from_u64(6);
        let a = init::uniform(n, n, 1.0, &mut rng);
        let b = init::uniform(n, n, 1.0, &mut rng);
        out.extend(bench(opts, &format!("matmul_tn/{n}"), || {
            black_box(matmul_tn(black_box(&a), black_box(&b)));
        }));
    }
}

fn bench_matmul_nt(opts: &BenchOpts, out: &mut Vec<Sample>) {
    // The other half of the backward pass: grad_x = grad_y · wᵀ.
    for n in [128usize, 256] {
        let mut rng = StdRng::seed_from_u64(10);
        let a = init::uniform(n, n, 1.0, &mut rng);
        let b = init::uniform(n, n, 1.0, &mut rng);
        out.extend(bench(opts, &format!("matmul_nt/{n}"), || {
            black_box(matmul_nt(black_box(&a), black_box(&b)));
        }));
    }
}

fn bench_spmm(opts: &BenchOpts, out: &mut Vec<Sample>) {
    let g = Workload::BertBase.build(Profile::Reduced);
    let input = WorkloadInput::from_graph(&g);
    let mut rng = StdRng::seed_from_u64(2);
    let x = init::uniform(input.num_ops, 64, 1.0, &mut rng);
    out.extend(bench(opts, "spmm_bert_adjacency_64", || {
        black_box(CsrMatrix::spmm(black_box(&input.adj), black_box(&x)));
    }));
}

fn bench_gcn_forward(opts: &BenchOpts, out: &mut Vec<Sample>) {
    let g = Workload::InceptionV3.build(Profile::Reduced);
    let input = WorkloadInput::from_graph(&g);
    let mut rng = StdRng::seed_from_u64(3);
    let mut store = ParamStore::new();
    let enc = GcnEncoder::new(&mut store, FEATURE_DIM, 48, 3, &mut rng);
    out.extend(bench(opts, "gcn_encoder_forward_inception", || {
        let mut ctx = FwdCtx::new(&store);
        let h = enc.encode(&mut ctx, black_box(&input));
        black_box(ctx.tape.value(h).sum());
    }));
}

fn bench_segment_placer(opts: &BenchOpts, out: &mut Vec<Sample>) {
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
    out.extend(bench(opts, "segment_placer_forward_128ops", || {
        let mut ctx = FwdCtx::new(&store);
        let r = ctx.tape.constant(reps.clone());
        let l = placer.logits(&mut ctx, r);
        black_box(ctx.tape.value(l).sum());
    }));
    // One PPO minibatch's worth of placer work: the forward above plus
    // the reverse sweep, on a persistent tape as `Agent::train` runs it.
    let mut tape: Option<mars_autograd::Tape> = None;
    out.extend(bench(opts, "segment_placer_forward_backward_128ops", || {
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
    }));
}

fn bench_lstm_cell(opts: &BenchOpts, out: &mut Vec<Sample>) {
    // The fused lstm_seq node against the same cell composed from
    // primitive tape ops — the pair documents what the fusion buys.
    let hd = 96usize;
    let mut rng = StdRng::seed_from_u64(7);
    let x = init::uniform(1, hd, 0.8, &mut rng);
    let w_ih = init::uniform(hd, 4 * hd, 0.5, &mut rng);
    let w_hh = init::uniform(hd, 4 * hd, 0.5, &mut rng);
    let b = init::uniform(1, 4 * hd, 0.3, &mut rng);
    let h0 = init::uniform(1, hd, 0.5, &mut rng);
    let c0 = init::uniform(1, hd, 0.5, &mut rng);

    out.extend(bench(opts, "lstm_cell/fused", || {
        let mut t = mars_autograd::Tape::new();
        let vs: Vec<_> =
            [&x, &w_ih, &w_hh, &b, &h0, &c0].iter().map(|m| t.constant((*m).clone())).collect();
        let out_v = t.lstm_seq(vs[0], vs[1], vs[2], vs[3], vs[4], vs[5]);
        black_box(t.value(out_v).sum());
    }));

    out.extend(bench(opts, "lstm_cell/unfused", || {
        let mut t = mars_autograd::Tape::new();
        let vs: Vec<_> =
            [&x, &w_ih, &w_hh, &b, &h0, &c0].iter().map(|m| t.constant((*m).clone())).collect();
        let slice_cols = |t: &mut mars_autograd::Tape, m, a, bb| {
            let mt = t.transpose(m);
            let s = t.slice_rows(mt, a, bb);
            t.transpose(s)
        };
        let xi = t.matmul(vs[0], vs[1]);
        let hh = t.matmul(vs[4], vs[2]);
        let z0 = t.add(xi, hh);
        let z = t.add_bias(z0, vs[3]);
        let i_pre = slice_cols(&mut t, z, 0, hd);
        let f_pre = slice_cols(&mut t, z, hd, 2 * hd);
        let g_pre = slice_cols(&mut t, z, 2 * hd, 3 * hd);
        let o_pre = slice_cols(&mut t, z, 3 * hd, 4 * hd);
        let i = t.sigmoid(i_pre);
        let f = t.sigmoid(f_pre);
        let g = t.tanh(g_pre);
        let o = t.sigmoid(o_pre);
        let fc = t.mul(f, vs[5]);
        let ig = t.mul(i, g);
        let c2 = t.add(fc, ig);
        let ct = t.tanh(c2);
        let h2 = t.mul(o, ct);
        black_box(t.value(h2).sum() + t.value(c2).sum());
    }));
}

fn bench_attn_decode(opts: &BenchOpts, out: &mut Vec<Sample>) {
    // One 32-op segment of the placer's decoder at the `small` widths,
    // forward + backward: the fused `decode` node against the
    // twelve-ops-per-step loop it replaced (`decode_composed`, the test
    // oracle; same bits either way) — the pair documents what the
    // fusion buys.
    let cfg = MarsConfig::small();
    let (hd, ad) = (cfg.placer_hidden, cfg.attn_dim);
    let mut rng = StdRng::seed_from_u64(11);
    let mut store = ParamStore::new();
    let cell = LstmCell::new(&mut store, "dec", 2 * hd, hd, &mut rng);
    let attn = Attention::new(&mut store, "attn", hd, hd, ad, &mut rng);
    let head = Linear::new(&mut store, "head", hd, 5, true, &mut rng);
    let enc = init::uniform(cfg.segment_size, hd, 0.8, &mut rng);
    let run = |fused: bool| {
        let mut ctx = FwdCtx::new(&store);
        let enc = ctx.tape.leaf_from(&enc, true);
        let keys = attn.precompute(&mut ctx, enc);
        let state = cell.zero_state(&mut ctx);
        let logits = if fused {
            decode(&mut ctx, &cell, &attn, &head, &[keys], state)
        } else {
            let mut rows = Vec::with_capacity(cfg.segment_size);
            decode_composed(&mut ctx, &cell, &attn, &head, keys, state, &mut rows);
            ctx.tape.stack_rows(rows)
        };
        let loss = ctx.tape.mean_all(logits);
        black_box(ctx.into_grads(loss, 1.0).len());
    };
    out.extend(bench(opts, "attn_decode/fused", || run(true)));
    out.extend(bench(opts, "attn_decode/composed", || run(false)));
}

fn bench_softmax(opts: &BenchOpts, out: &mut Vec<Sample>) {
    let mut rng = StdRng::seed_from_u64(8);
    let row = init::uniform(1, 4096, 4.0, &mut rng);
    out.extend(bench(opts, "softmax/4096", || {
        let mut xs = row.as_slice().to_vec();
        mars_tensor::stats::softmax_inplace(black_box(&mut xs));
        black_box(xs[0]);
    }));
}

fn bench_simulator(opts: &BenchOpts, out: &mut Vec<Sample>) {
    let cluster = Cluster::p100_quad();
    for w in [Workload::InceptionV3, Workload::BertBase] {
        let g = w.build(Profile::Reduced);
        let mut p = Placement::round_robin(&g, &[1, 2, 3, 4]);
        p.enforce_compatibility(&g, &cluster);
        out.extend(bench(opts, &format!("simulate_step/{}", w.name()), || {
            black_box(simulate(black_box(&g), black_box(&p), black_box(&cluster)));
        }));
    }
}

fn bench_backward(opts: &BenchOpts, out: &mut Vec<Sample>) {
    // Full forward+backward of a GCN layer stack, the PPO inner loop's
    // dominant cost.
    let g = Workload::InceptionV3.build(Profile::Reduced);
    let input = WorkloadInput::from_graph(&g);
    let mut rng = StdRng::seed_from_u64(5);
    let mut store = ParamStore::new();
    let enc = GcnEncoder::new(&mut store, FEATURE_DIM, 48, 3, &mut rng);
    let targets = std::sync::Arc::new(Matrix::full(input.num_ops, 48, 0.5));
    out.extend(bench(opts, "gcn_forward_backward_inception", || {
        let mut ctx = FwdCtx::new(&store);
        let h = enc.encode(&mut ctx, &input);
        let loss = ctx.tape.bce_with_logits(h, targets.clone());
        black_box(ctx.into_grads(loss, 1.0).len());
    }));
}

fn main() {
    let opts = BenchOpts::from_args();
    opts.install_telemetry();
    let mut samples = Vec::new();
    bench_matmul(&opts, &mut samples);
    bench_matmul_tn(&opts, &mut samples);
    bench_matmul_nt(&opts, &mut samples);
    bench_spmm(&opts, &mut samples);
    bench_gcn_forward(&opts, &mut samples);
    bench_segment_placer(&opts, &mut samples);
    bench_lstm_cell(&opts, &mut samples);
    bench_attn_decode(&opts, &mut samples);
    bench_softmax(&opts, &mut samples);
    bench_simulator(&opts, &mut samples);
    bench_backward(&opts, &mut samples);
    // Only a full unfiltered run is a baseline worth comparing against.
    if !opts.smoke && opts.filter.is_none() {
        write_baseline("BENCH_kernels.json", &samples, &[]);
    }
    opts.finish();
}
