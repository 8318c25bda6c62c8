//! Transformer-XL-style placer (the GDP baseline's placer [33, 5]).
//!
//! Segment-level self-attention with a recurrence memory: each segment
//! attends over `[previous segment's hidden states ‖ current segment]`.
//! Substitution note (DESIGN.md §2): this is a single-head, two-block
//! rendering of Transformer-XL — it keeps the property the paper
//! discusses (segment recurrence, heavier than the segment seq2seq,
//! slower to converge) without the full multi-head/relative-position
//! machinery.

use crate::placers::PlacerNet;
use mars_autograd::Var;
use mars_nn::{FwdCtx, Linear, ParamStore};
use mars_rng::Rng;

struct Block {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    ff1: Linear,
    ff2: Linear,
}

impl Block {
    fn new(store: &mut ParamStore, name: &str, hidden: usize, rng: &mut impl Rng) -> Self {
        Block {
            wq: Linear::new(store, &format!("{name}.wq"), hidden, hidden, false, rng),
            wk: Linear::new(store, &format!("{name}.wk"), hidden, hidden, false, rng),
            wv: Linear::new(store, &format!("{name}.wv"), hidden, hidden, false, rng),
            ff1: Linear::new(store, &format!("{name}.ff1"), hidden, 4 * hidden, true, rng),
            ff2: Linear::new(store, &format!("{name}.ff2"), 4 * hidden, hidden, true, rng),
        }
    }

    /// One segment pass: queries from `cur`, keys/values over
    /// `[mem ‖ cur]`. Returns the block output for `cur`'s rows.
    fn forward(&self, ctx: &mut FwdCtx<'_>, cur: Var, mem: Option<Var>, inv_sqrt_d: f32) -> Var {
        let kv_src = match mem {
            Some(m) => ctx.tape.concat_rows(m, cur),
            None => cur,
        };
        let q = self.wq.forward(ctx, cur);
        let k = self.wk.forward(ctx, kv_src);
        let v = self.wv.forward(ctx, kv_src);
        let kt = ctx.tape.transpose(k);
        let scores_raw = ctx.tape.matmul(q, kt);
        let scores = ctx.tape.scale(scores_raw, inv_sqrt_d);
        let attn = ctx.tape.softmax_rows(scores);
        let mixed = ctx.tape.matmul(attn, v);
        let resid = ctx.tape.add(mixed, cur);
        let f1 = self.ff1.forward(ctx, resid);
        let act = ctx.tape.relu(f1);
        let f2 = self.ff2.forward(ctx, act);
        ctx.tape.add(f2, resid)
    }
}

/// Segment-recurrent attention placer.
pub struct TrfXlPlacer {
    in_proj: Linear,
    blocks: Vec<Block>,
    head: Linear,
    hidden: usize,
    segment_size: usize,
    num_devices: usize,
}

impl TrfXlPlacer {
    /// Register parameters; two attention blocks of width `hidden`.
    pub fn new(
        store: &mut ParamStore,
        rep_dim: usize,
        hidden: usize,
        segment_size: usize,
        num_devices: usize,
        rng: &mut impl Rng,
    ) -> Self {
        TrfXlPlacer {
            in_proj: Linear::new(store, "txl.in", rep_dim, hidden, true, rng),
            blocks: vec![
                Block::new(store, "txl.b0", hidden, rng),
                Block::new(store, "txl.b1", hidden, rng),
            ],
            head: Linear::new(store, "txl.head", hidden, num_devices, true, rng),
            hidden,
            segment_size,
            num_devices,
        }
    }
}

impl PlacerNet for TrfXlPlacer {
    fn logits(&self, ctx: &mut FwdCtx<'_>, reps: Var) -> Var {
        let n = ctx.tape.value(reps).rows();
        let inv_sqrt_d = 1.0 / (self.hidden as f32).sqrt();
        // Memory per block: previous segment's output of that block.
        let mut mems: Vec<Option<Var>> = vec![None; self.blocks.len()];
        let mut out_rows: Vec<Var> = Vec::with_capacity(n);

        let mut start = 0;
        while start < n {
            let end = (start + self.segment_size).min(n);
            let seg = ctx.tape.slice_rows(reps, start, end);
            let mut h = self.in_proj.forward(ctx, seg);
            h = ctx.tape.tanh(h);
            for (bi, block) in self.blocks.iter().enumerate() {
                let out = block.forward(ctx, h, mems[bi], inv_sqrt_d);
                mems[bi] = Some(out);
                h = out;
            }
            let logits = self.head.forward(ctx, h);
            for i in 0..(end - start) {
                out_rows.push(ctx.tape.slice_rows(logits, i, i + 1));
            }
            start = end;
        }
        ctx.tape.stack_rows(out_rows)
    }

    fn num_devices(&self) -> usize {
        self.num_devices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_rng::rngs::StdRng;
    use mars_rng::SeedableRng;
    use mars_tensor::init;

    #[test]
    fn logits_shape_multiple_segments() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let p = TrfXlPlacer::new(&mut store, 5, 8, 4, 5, &mut rng);
        let mut ctx = FwdCtx::new(&store);
        let reps = ctx.tape.constant(init::uniform(11, 5, 1.0, &mut rng));
        let l = p.logits(&mut ctx, reps);
        assert_eq!(ctx.tape.value(l).shape(), (11, 5));
        assert!(ctx.tape.value(l).is_finite());
    }

    #[test]
    fn memory_links_segments() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let p = TrfXlPlacer::new(&mut store, 4, 8, 4, 3, &mut rng);
        let base = init::uniform(8, 4, 1.0, &mut rng);
        let mut altered = base.clone();
        altered.set(0, 0, altered.get(0, 0) + 1.0); // segment 0

        let mut c1 = FwdCtx::new(&store);
        let r1 = c1.tape.constant(base);
        let l1 = p.logits(&mut c1, r1);
        let mut c2 = FwdCtx::new(&store);
        let r2 = c2.tape.constant(altered);
        let l2 = p.logits(&mut c2, r2);
        let s2a = c1.tape.value(l1).slice_rows(4, 8);
        let s2b = c2.tape.value(l2).slice_rows(4, 8);
        assert!(s2a.max_abs_diff(&s2b) > 1e-7, "memory not linking segments");
    }

    #[test]
    fn heavier_than_segment_seq2seq() {
        // The paper calls Trf-XL "a little heavy" — check it carries
        // more parameters than the segment seq2seq at equal width.
        let mut rng = StdRng::seed_from_u64(2);
        let mut s1 = ParamStore::new();
        let _ = TrfXlPlacer::new(&mut s1, 16, 32, 8, 5, &mut rng);
        let mut s2 = ParamStore::new();
        let _ = crate::placers::segment::SegmentSeq2Seq::new(&mut s2, 16, 32, 16, 8, 5, &mut rng);
        assert!(
            s1.num_scalars() > s2.num_scalars(),
            "{} vs {}",
            s1.num_scalars(),
            s2.num_scalars()
        );
    }
}
