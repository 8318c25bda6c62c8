//! The parameter layout of every agent kind, pinned: names, shapes and
//! registration order, plus the weights fingerprint at a fixed seed.
//!
//! A checkpoint line is matched to a parameter by name, and the serve
//! store stamps its entries with `checkpoint::fingerprint`, which
//! hashes the names too. A renamed or reordered parameter would make a
//! saved checkpoint load nothing and a persisted store skip every line,
//! without an error; this test fails instead.

use mars::core::agent::{Agent, AgentKind};
use mars::core::config::MarsConfig;
use mars::core::placers::PlacerChoice;
use mars::graph::features::FEATURE_DIM;
use mars::nn::checkpoint;
use mars_rng::rngs::StdRng;
use mars_rng::SeedableRng;

/// The GCN encoder and its DGI discriminator at `MarsConfig::small()`.
const GCN: &str = "gcn0.w 39x48, gcn0.b 1x48, gcn0.alpha 1x1, gcn1.w 48x48, gcn1.b 1x48, \
    gcn1.alpha 1x1, gcn2.w 48x48, gcn2.b 1x48, gcn2.alpha 1x1, dgi.w 48x48";

/// The Transformer-XL placer over 48-wide representations, 5 devices.
const TXL: &str = "txl.in.w 48x48, txl.in.b 1x48, \
    txl.b0.wq.w 48x48, txl.b0.wk.w 48x48, txl.b0.wv.w 48x48, \
    txl.b0.ff1.w 48x192, txl.b0.ff1.b 1x192, txl.b0.ff2.w 192x48, txl.b0.ff2.b 1x48, \
    txl.b1.wq.w 48x48, txl.b1.wk.w 48x48, txl.b1.wv.w 48x48, \
    txl.b1.ff1.w 48x192, txl.b1.ff1.b 1x192, txl.b1.ff2.w 192x48, txl.b1.ff2.b 1x48, \
    txl.head.w 48x5, txl.head.b 1x5";

/// A seq2seq placer under prefix `p` over `rep`-wide inputs: hidden
/// 48 (24 per BiLSTM direction), attention 32, 5 devices.
fn seq2seq(p: &str, rep: usize) -> String {
    format!(
        "{p}.enc.fwd.w_ih {rep}x96, {p}.enc.fwd.w_hh 24x96, {p}.enc.fwd.b 1x96, \
         {p}.enc.bwd.w_ih {rep}x96, {p}.enc.bwd.w_hh 24x96, {p}.enc.bwd.b 1x96, \
         {p}.dec.w_ih 96x192, {p}.dec.w_hh 48x192, {p}.dec.b 1x192, \
         {p}.attn.w_enc 48x32, {p}.attn.w_dec 48x32, {p}.attn.v 32x1, \
         {p}.head.w 48x5, {p}.head.b 1x5"
    )
}

#[test]
fn every_agent_kind_keeps_its_parameter_names_and_weights() {
    let mars = format!("{GCN}, {}", seq2seq("seg", 48));
    let expected: [(AgentKind, String, u64); 8] = [
        (AgentKind::Mars, mars.clone(), 0xde49f8e7ba27f5f3),
        (AgentKind::MarsNoPretrain, mars.clone(), 0xde49f8e7ba27f5f3),
        (
            AgentKind::EncoderPlacer,
            "sage0.self.w 39x48, sage0.self.b 1x48, sage0.neigh.w 39x48, \
             sage1.self.w 48x48, sage1.self.b 1x48, sage1.neigh.w 48x48, \
             sage2.self.w 48x48, sage2.self.b 1x48, sage2.neigh.w 48x48, "
                .to_string()
                + TXL,
            0x2e98138231cbafe4,
        ),
        (
            AgentKind::GrouperPlacer,
            format!(
                "grp.fc1.w 39x48, grp.fc1.b 1x48, grp.fc2.w 48x16, grp.fc2.b 1x16, {}",
                seq2seq("grp", 39)
            ),
            0xffd4d4e15bd2e3be,
        ),
        (
            AgentKind::FixedEncoder(PlacerChoice::Seq2Seq),
            format!("{GCN}, {}", seq2seq("s2s", 48)),
            0x7ff85ef73096c91f,
        ),
        (AgentKind::FixedEncoder(PlacerChoice::Segment), mars, 0xde49f8e7ba27f5f3),
        (AgentKind::FixedEncoder(PlacerChoice::TrfXl), format!("{GCN}, {TXL}"), 0x8dbe97d82781cd5a),
        (
            AgentKind::FixedEncoder(PlacerChoice::Mlp),
            format!("{GCN}, mlp.fc1.w 48x48, mlp.fc1.b 1x48, mlp.fc2.w 48x5, mlp.fc2.b 1x5"),
            0x4ecf4aa5199b8984,
        ),
    ];
    for (kind, layout, fp) in expected {
        let mut rng = StdRng::seed_from_u64(0);
        let agent = Agent::new(kind, MarsConfig::small(), FEATURE_DIM, 5, &mut rng);
        let store = &agent.store;
        let got: Vec<String> = store
            .ids()
            .map(|id| {
                let (r, c) = store.value(id).shape();
                format!("{} {r}x{c}", store.name(id))
            })
            .collect();
        assert_eq!(got.join(", "), layout, "{kind:?}: parameter layout");
        assert_eq!(checkpoint::fingerprint(store), fp, "{kind:?}: weights fingerprint");
    }
}
