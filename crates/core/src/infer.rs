//! Inference-only policy evaluation: the serving-path fast forward.
//!
//! Training runs the encoder–placer forward on a recording [`Tape`](
//! mars_autograd::Tape) that clones every parameter onto the tape and
//! retains backward caches (LSTM gates, attention activations) for the
//! reverse sweep. A placement *query* needs none of that: a
//! [`PolicyInference`] owns one inference tape whose pooled activation
//! buffers are recycled across requests, binds parameters by copy into
//! recycled buffers, and never records ops.
//!
//! **Bit-exactness contract.** The inference tape runs the same tensor
//! kernels in the same order as a recording tape (the record flag only
//! changes what is *retained*, never what is *computed*), so
//! [`PolicyInference::policy_probs`] is bit-identical to
//! [`Agent::policy_probs`] for the same weights — pinned by the parity
//! tests below and relied on by the serve layer's claim that hot-cache,
//! warm-store, and cold-inference responses are byte-identical.

use crate::agent::Agent;
use crate::ppo::greedy_actions;
use crate::workload_input::WorkloadInput;
use mars_autograd::Tape;
use mars_sim::Placement;
use mars_tensor::Matrix;

/// Reusable inference state: one tape whose activation buffers survive
/// across requests. Construction is free; the pool warms up on the
/// first forward.
pub struct PolicyInference {
    tape: Tape,
}

impl Default for PolicyInference {
    fn default() -> Self {
        Self::new()
    }
}

impl PolicyInference {
    /// Fresh inference state with an empty buffer pool.
    pub fn new() -> Self {
        PolicyInference { tape: Tape::inference() }
    }

    /// Device probabilities (`N × D`) under `agent`'s current policy,
    /// computed without autograd recording. Bit-identical to
    /// [`Agent::policy_probs`].
    pub fn policy_probs(&mut self, agent: &Agent, input: &WorkloadInput) -> Matrix {
        let _span = mars_telemetry::span("core.infer.policy_probs");
        let tape = std::mem::replace(&mut self.tape, Tape::inference());
        let (probs, mut tape) = agent.policy_probs_on(tape, input);
        tape.reset_for_reuse();
        self.tape = tape;
        probs
    }

    /// Greedy placement under the current policy — bit-identical to
    /// [`Agent::greedy_placement`].
    pub fn greedy_placement(&mut self, agent: &Agent, input: &WorkloadInput) -> Placement {
        Placement(greedy_actions(&self.policy_probs(agent, input)))
    }

    /// Full decode: per-op device ranking (row `r` lists every device,
    /// most probable first). See [`rank_devices`].
    pub fn rank_placements(&mut self, agent: &Agent, input: &WorkloadInput) -> Vec<Vec<usize>> {
        rank_devices(&self.policy_probs(agent, input))
    }
}

/// Per-op device ranking from a probability table: for each row, the
/// device indices sorted by descending probability with ties broken by
/// ascending index. `ranking[r][0]` therefore equals
/// [`mars_tensor::stats::argmax`] of row `r` (first maximum wins), so
/// truncating a ranking to its first column reproduces the greedy
/// placement exactly.
pub fn rank_devices(probs: &Matrix) -> Vec<Vec<usize>> {
    (0..probs.rows())
        .map(|r| {
            let row = probs.row(r);
            let mut idx: Vec<usize> = (0..row.len()).collect();
            // Stable sort + strict descending comparator: equal
            // probabilities keep ascending device order.
            idx.sort_by(|&a, &b| row[b].total_cmp(&row[a]));
            idx
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentKind;
    use crate::config::MarsConfig;
    use crate::placers::PlacerChoice;
    use mars_graph::features::FEATURE_DIM;
    use mars_graph::generators::{Profile, Workload};
    use mars_rng::rngs::StdRng;
    use mars_rng::SeedableRng;

    fn tiny_cfg() -> MarsConfig {
        let mut c = MarsConfig::small();
        c.encoder_hidden = 16;
        c.placer_hidden = 16;
        c.attn_dim = 8;
        c.segment_size = 16;
        c.num_groups = 4;
        c.dgi_iters = 10;
        c
    }

    #[test]
    fn inference_probs_bit_match_training_forward_for_all_kinds() {
        let g = Workload::InceptionV3.build(Profile::Reduced);
        let input = WorkloadInput::from_graph(&g);
        for kind in [
            AgentKind::Mars,
            AgentKind::EncoderPlacer,
            AgentKind::GrouperPlacer,
            AgentKind::FixedEncoder(PlacerChoice::Mlp),
        ] {
            let mut rng = StdRng::seed_from_u64(9);
            let agent = Agent::new(kind, tiny_cfg(), FEATURE_DIM, 5, &mut rng);
            let want = agent.policy_probs(&input);
            let mut inf = PolicyInference::new();
            let got = inf.policy_probs(&agent, &input);
            assert_eq!(want.as_slice(), got.as_slice(), "{kind:?} probs diverged");
            assert_eq!(agent.greedy_placement(&input).0, inf.greedy_placement(&agent, &input).0);
        }
    }

    #[test]
    fn reused_buffers_and_interleaved_graphs_stay_bit_stable() {
        let ga = Workload::InceptionV3.build(Profile::Reduced);
        let gb = Workload::Vgg16.build(Profile::Reduced);
        let ia = WorkloadInput::from_graph(&ga);
        let ib = WorkloadInput::from_graph(&gb);
        let mut rng = StdRng::seed_from_u64(10);
        let agent = Agent::new(AgentKind::Mars, tiny_cfg(), FEATURE_DIM, 5, &mut rng);
        let wa = agent.policy_probs(&ia);
        let wb = agent.policy_probs(&ib);
        let mut inf = PolicyInference::new();
        for _ in 0..3 {
            assert_eq!(wa.as_slice(), inf.policy_probs(&agent, &ia).as_slice());
            assert_eq!(wb.as_slice(), inf.policy_probs(&agent, &ib).as_slice());
        }
    }

    #[test]
    fn ranking_head_matches_greedy_and_covers_all_devices() {
        let g = Workload::InceptionV3.build(Profile::Reduced);
        let input = WorkloadInput::from_graph(&g);
        let mut rng = StdRng::seed_from_u64(12);
        let agent = Agent::new(AgentKind::Mars, tiny_cfg(), FEATURE_DIM, 5, &mut rng);
        let mut inf = PolicyInference::new();
        let ranking = inf.rank_placements(&agent, &input);
        let greedy = inf.greedy_placement(&agent, &input);
        assert_eq!(ranking.len(), g.num_nodes());
        for (r, row) in ranking.iter().enumerate() {
            assert_eq!(row[0], greedy.0[r], "op {r} head != greedy");
            let mut sorted = row.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..5).collect::<Vec<_>>(), "op {r} not a permutation");
        }
    }

    #[test]
    fn ties_rank_lowest_device_first() {
        let probs = Matrix::from_vec(2, 4, vec![0.25, 0.25, 0.25, 0.25, 0.1, 0.4, 0.4, 0.1]);
        let ranking = rank_devices(&probs);
        assert_eq!(ranking[0], vec![0, 1, 2, 3]);
        assert_eq!(ranking[1], vec![1, 2, 0, 3]);
    }
}
