//! The fused attention decoder (`Tape::attn_decode`) against the
//! primitive-op chain of `mars-oracle`: logits and every gradient
//! compared by `to_bits`, plus inference/arena parity and finite
//! differences.
//!
//! CI's `verify-scalar` job runs this file with `MARS_KERNEL=scalar`,
//! so the same equalities are pinned on the portable backend.

use mars_autograd::check::check_gradients_default;
use mars_autograd::{Tape, Var};
use mars_rng::rngs::StdRng;
use mars_rng::SeedableRng;
use mars_tensor::{init, Matrix};

/// Segment lengths and layer widths of one decode.
#[derive(Clone, Copy)]
struct Shape<'a> {
    segs: &'a [usize],
    ed: usize,
    hd: usize,
    ad: usize,
    nd: usize,
}

const RAGGED: Shape<'static> = Shape { segs: &[4, 4, 3], ed: 6, hd: 5, ad: 4, nd: 3 };

/// Everything a decode reads, in the order [`decode`] binds it:
/// the segments' encoder blocks, then `w_enc`, the seven decoder
/// parameters `[w_dec, v, w_ih, w_hh, b, head_w, head_b]`, `h0`, `c0`.
fn inputs(s: Shape<'_>, seed: u64) -> Vec<Matrix> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m: Vec<Matrix> =
        s.segs.iter().map(|&t| init::uniform(t, s.ed, 0.8, &mut rng)).collect();
    m.push(init::uniform(s.ed, s.ad, 0.5, &mut rng));
    m.push(init::uniform(s.hd, s.ad, 0.5, &mut rng));
    m.push(init::uniform(s.ad, 1, 0.8, &mut rng));
    m.push(init::uniform(2 * s.ed, 4 * s.hd, 0.4, &mut rng));
    m.push(init::uniform(s.hd, 4 * s.hd, 0.4, &mut rng));
    m.push(init::uniform(1, 4 * s.hd, 0.3, &mut rng));
    m.push(init::uniform(s.hd, s.nd, 0.6, &mut rng));
    m.push(init::uniform(1, s.nd, 0.3, &mut rng));
    m.push(init::uniform(1, s.hd, 0.5, &mut rng));
    m.push(init::uniform(1, s.hd, 0.5, &mut rng));
    m
}

/// Which implementation records the decode.
#[derive(Clone, Copy, PartialEq)]
enum Path {
    Fused,
    Composed,
}

/// Record a decode over `vars` (laid out as [`inputs`]) and return the
/// `N × D` logits. `Composed` is the oracle's primitive-op chain, each
/// segment's key projection right before its steps.
fn decode(t: &mut Tape, n_segs: usize, vars: &[Var], path: Path) -> Var {
    let encs = &vars[..n_segs];
    let w_enc = vars[n_segs];
    let params: [Var; 7] = vars[n_segs + 1..n_segs + 8].try_into().expect("seven parameters");
    let mut state = (vars[n_segs + 8], vars[n_segs + 9]);
    if path == Path::Fused {
        let segs: Vec<(Var, Var)> = encs.iter().map(|&e| (e, t.matmul(e, w_enc))).collect();
        return t.attn_decode(&segs, params, state.0, state.1);
    }
    let mut rows = Vec::new();
    for &enc in encs {
        let proj = t.matmul(enc, w_enc);
        state = mars_oracle::decode_segment(t, (enc, proj), params, state, &mut rows);
    }
    t.stack_rows(rows)
}

/// A scalar loss that gives every logit its own weight.
fn loss(t: &mut Tape, logits: Var, seed: u64) -> Var {
    let (r, c) = t.value(logits).shape();
    let mix = t.constant(init::uniform(r, c, 1.0, &mut StdRng::seed_from_u64(seed ^ 0x9e37)));
    let weighted = t.mul(logits, mix);
    t.sum_all(weighted)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// One forward + backward on `t` with every input a `requires_grad`
/// leaf: the logits and each input's gradient, as bits.
fn pass(t: &mut Tape, ins: &[Matrix], n_segs: usize, path: Path, seed: u64) -> Vec<Vec<u32>> {
    let vars: Vec<Var> = ins.iter().map(|m| t.leaf_from(m, true)).collect();
    let logits = decode(t, n_segs, &vars, path);
    let l = loss(t, logits, seed);
    t.backward(l);
    let mut out = vec![bits(t.value(logits))];
    out.extend(vars.iter().map(|&v| bits(t.grad(v).expect("every input gets a gradient"))));
    out
}

fn assert_paths_agree(ins: &[Matrix], n_segs: usize, seed: u64, what: &str) {
    let fused = pass(&mut Tape::new(), ins, n_segs, Path::Fused, seed);
    let composed = pass(&mut Tape::new(), ins, n_segs, Path::Composed, seed);
    for (k, (f, c)) in fused.iter().zip(&composed).enumerate() {
        let name =
            if k == 0 { "logits".to_string() } else { format!("gradient of input {}", k - 1) };
        assert_eq!(f, c, "{what}, seed {seed}: {name} not bit-identical");
    }
}

#[test]
fn fused_matches_composed_bitwise() {
    let one_step = Shape { segs: &[3, 1, 2], ..RAGGED };
    let single = Shape { segs: &[7], ed: 4, hd: 6, ad: 3, nd: 5 };
    for seed in 0..6 {
        assert_paths_agree(&inputs(RAGGED, seed), 3, seed, "ragged last segment");
        assert_paths_agree(&inputs(one_step, seed), 3, seed, "one-step segment");
        assert_paths_agree(&inputs(single, seed), 1, seed, "single segment");
    }
}

/// The `== 0.0` skips of the rank-1 and sweep terms: a zero encoder row
/// (zero `dec_in` entries and a zero `enc` coefficient row) and the
/// placers' all-zero initial state (zero `h_prev` on the first step).
#[test]
fn zero_rows_and_zero_state_take_the_skip_paths_bitwise() {
    for seed in 0..3 {
        let mut ins = inputs(RAGGED, seed);
        ins[1].row_mut(2).fill(0.0);
        let n = ins.len();
        ins[n - 2].fill_zero();
        ins[n - 1].fill_zero();
        assert_paths_agree(&ins, 3, seed, "zero row and zero state");
    }
}

/// The placers' segment length and two ragged ones, at widths off every
/// lane boundary: the score rows fill whole 8-row blocks and leave
/// remainders, the per-segment replay adds 32, 17 and 9 steps' terms
/// through 4-row tiles with ragged row and column tails. Zero `enc`
/// rows and elements, zero `v` entries and the zero initial state put
/// zero coefficients and zero activations in every replayed sum.
#[test]
fn placer_segments_at_ragged_widths_match_composed_bitwise() {
    let shape = Shape { segs: &[32, 17, 9], ed: 13, hd: 11, ad: 45, nd: 5 };
    for seed in 0..2 {
        let mut ins = inputs(shape, 30 + seed);
        ins[0].row_mut(0).fill(0.0);
        ins[1].row_mut(16).fill(0.0);
        ins[2].set(3, 7, 0.0);
        let v = 3 + 1 + 1;
        ins[v].set(0, 0, 0.0);
        ins[v].set(44, 0, 0.0);
        let n = ins.len();
        ins[n - 2].fill_zero();
        ins[n - 1].fill_zero();
        assert_paths_agree(&ins, 3, seed, "placer segments, ragged widths");
    }
}

#[test]
fn inference_tape_matches_recording_tape() {
    let ins = inputs(RAGGED, 11);
    let mut rec = Tape::new();
    let vars: Vec<Var> = ins.iter().map(|m| rec.leaf(m.clone(), true)).collect();
    let want = decode(&mut rec, 3, &vars, Path::Fused);
    let mut inf = Tape::inference();
    for round in 0..3 {
        let vars: Vec<Var> = ins.iter().map(|m| inf.leaf_from(m, false)).collect();
        let got = decode(&mut inf, 3, &vars, Path::Fused);
        assert_eq!(bits(rec.value(want)), bits(inf.value(got)), "inference round {round}");
        // The step caches went back to the pool: nothing but the
        // leaves, the key projections and the logits is on the tape.
        assert_eq!(inf.len(), ins.len() + 3 + 1);
        inf.reset_for_reuse();
    }
}

/// A persistent training tape serving graphs of different sizes (the
/// two-generation arena turns its stock over between them) produces
/// the bits a fresh tape does, pass after pass.
#[test]
fn reused_training_tape_is_bit_stable_across_graphs() {
    let graphs: [(Shape<'_>, usize); 3] = [
        (RAGGED, 3),
        (Shape { segs: &[9], ed: 6, hd: 5, ad: 4, nd: 3 }, 1),
        (Shape { segs: &[2, 2], ed: 6, hd: 5, ad: 4, nd: 3 }, 2),
    ];
    let mut reused = Tape::new();
    for round in 0..3 {
        for (k, &(shape, n_segs)) in graphs.iter().enumerate() {
            let ins = inputs(shape, 20 + k as u64);
            let want = pass(&mut Tape::new(), &ins, n_segs, Path::Fused, 5);
            let got = pass(&mut reused, &ins, n_segs, Path::Fused, 5);
            assert_eq!(want, got, "arena reuse changed graph {k} in round {round}");
            reused.reset_for_reuse();
            assert!(reused.is_empty());
        }
    }
    assert!(reused.arena_high_water() > 0, "arena high water never recorded");
}

#[test]
fn gradcheck_through_every_input() {
    let shape = Shape { segs: &[2, 3], ed: 3, hd: 3, ad: 2, nd: 2 };
    let ins = inputs(shape, 3);
    check_gradients_default(&ins, |t, vars| {
        let logits = decode(t, 2, vars, Path::Fused);
        loss(t, logits, 3)
    });
}
