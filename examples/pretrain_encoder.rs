//! Deep Graph Infomax pre-training demo (§3.2).
//!
//! Pre-trains the GCN encoder on the GNMT-4 graph and shows (a) the
//! contrastive loss decreasing, and (b) that the learned
//! representations separate operation kinds — LSTM chunks end up
//! closer to each other than to softmax ops, which is exactly the
//! structure the placer exploits.
//!
//! ```text
//! cargo run --release --example pretrain_encoder
//! ```

use mars::core::config::MarsConfig;
use mars::core::dgi::{pretrain, Dgi};
use mars::core::encoder::{Encoder, GcnEncoder};
use mars::core::workload_input::WorkloadInput;
use mars::graph::features::FEATURE_DIM;
use mars::graph::generators::{Profile, Workload};
use mars::graph::OpKind;
use mars::nn::{FwdCtx, ParamStore};
use mars::tensor::Matrix;
use mars_rng::rngs::StdRng;
use mars_rng::SeedableRng;

fn main() {
    let cfg = MarsConfig::small();
    let graph = Workload::Gnmt4.build(Profile::Reduced);
    let input = WorkloadInput::from_graph(&graph);
    let mut rng = StdRng::seed_from_u64(1);

    let mut store = ParamStore::new();
    let encoder =
        GcnEncoder::new(&mut store, FEATURE_DIM, cfg.encoder_hidden, cfg.encoder_layers, &mut rng);
    let dgi = Dgi::new(&mut store, cfg.encoder_hidden, &mut rng);

    println!(
        "Pre-training on {} ({} ops) for {} iterations…",
        graph.name, input.num_ops, cfg.dgi_iters
    );
    let report =
        pretrain(&mut store, &encoder, &dgi, &input, cfg.dgi_iters, cfg.dgi_lr, 1.0, &mut rng);
    for (i, chunk) in report.losses.chunks(cfg.dgi_iters / 10).enumerate() {
        let mean = chunk.iter().sum::<f32>() / chunk.len() as f32;
        println!("  iters {:>4}-{:<4} mean loss {mean:.4}", i * chunk.len(), (i + 1) * chunk.len());
    }
    println!("Best loss {:.4} at iteration {} (restored)", report.best_loss, report.best_iter);

    // Representation structure: intra-kind vs inter-kind distances.
    let mut ctx = FwdCtx::new(&store);
    let h = encoder.encode(&mut ctx, &input);
    let reps = ctx.tape.value(h).clone();
    let lstm: Vec<usize> = ids_of_kind(&graph, OpKind::LstmCell);
    let softmax: Vec<usize> = ids_of_kind(&graph, OpKind::Softmax);
    let intra = mean_pairwise(&reps, &lstm, &lstm);
    let inter = mean_pairwise(&reps, &lstm, &softmax);
    println!(
        "\nMean representation distance: LSTM↔LSTM {intra:.3}, LSTM↔Softmax {inter:.3} \
         (ratio {:.2}× — similar ops cluster)",
        inter / intra
    );
    assert!(inter > intra, "pre-trained representations should cluster by op kind");
}

fn ids_of_kind(graph: &mars::graph::CompGraph, kind: OpKind) -> Vec<usize> {
    graph.nodes().iter().enumerate().filter(|(_, n)| n.kind == kind).map(|(i, _)| i).collect()
}

fn mean_pairwise(reps: &Matrix, a: &[usize], b: &[usize]) -> f32 {
    let mut total = 0.0;
    let mut count = 0usize;
    for &i in a {
        for &j in b {
            if i == j {
                continue;
            }
            let d: f32 = reps
                .row(i)
                .iter()
                .zip(reps.row(j))
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f32>()
                .sqrt();
            total += d;
            count += 1;
        }
    }
    total / count.max(1) as f32
}
