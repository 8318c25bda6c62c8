//! The paper's tables and figures and four ablations, one function
//! each. Every table cell is a mean over `cfg.seeds` seed cells, named
//! by what they train ([`Cells`]): a configuration two tables show is
//! one set of cells, trained by whichever table asks first.

use crate::report::{Cell, Table};
use crate::{
    bench_label, cell, mean_best, mean_found, measure_placement, run_agent_multi, train_cell,
    Cells, ExpConfig, Experiment, BENCHMARKS,
};
use mars_core::agent::{AgentKind, TrainingRecord};
use mars_core::baselines::{gpu_only, human_expert};
use mars_core::generalize::{different_source, generalize, similar_source, GeneralizeResult};
use mars_core::partitioner::best_min_cut;
use mars_core::placers::PlacerChoice;
use mars_core::ppo::RewardShaping;
use mars_graph::generators::{Profile, Workload};
use mars_sim::Cluster;
use std::io;

/// Every experiment, in the order `all` runs them.
pub const EXPERIMENTS: [Experiment; 9] = [
    Experiment { name: "table1_placers", run: table1_placers },
    Experiment { name: "table2_final", run: table2_final },
    Experiment { name: "table3_generalization", run: table3_generalization },
    Experiment { name: "fig7_curves", run: fig7_curves },
    Experiment { name: "fig8_training_time", run: fig8_training_time },
    Experiment { name: "ablation_rl", run: ablation_rl },
    Experiment { name: "ablation_segment", run: ablation_segment },
    Experiment { name: "ablation_partitioner", run: ablation_partitioner },
    Experiment { name: "ablation_reward", run: ablation_reward },
];

fn text(s: impl Into<String>) -> Cell {
    Cell::Text(s.into())
}

/// Table 1 — per-step training time (s) of placements found by the
/// agent with a *trained graph encoder* and different placers (§3.3).
///
/// Protocol: pre-train the GCN encoder with DGI, freeze its output
/// representations, then train each placer on the frozen
/// representations and report the best placement found.
///
/// Paper reference values:
/// | Models       | Seq2seq | Trf-XL | Seq2seq (segment) |
/// |--------------|---------|--------|-------------------|
/// | Inception-V3 | 0.100   | 0.067  | 0.067             |
/// | GNMT-4       | 2.040   | 1.449  | 1.440             |
/// | BERT         | 12.529  | 11.363 | 9.821             |
fn table1_placers(cfg: &ExpConfig, cells: &mut Cells) -> io::Result<Vec<Table>> {
    let mut table = Table::new(
        "Table 1: per-step time (s) by placer (frozen trained encoder); MLP column is the §3.3 ablation",
        &["Models", "Seq2seq", "Trf-XL", "Seq2seq (segment)", "MLP (§3.3)"],
    );
    for w in BENCHMARKS {
        let mut row = vec![text(bench_label(w))];
        for choice in
            [PlacerChoice::Seq2Seq, PlacerChoice::TrfXl, PlacerChoice::Segment, PlacerChoice::Mlp]
        {
            let logs = run_agent_multi(cfg, cells, AgentKind::FixedEncoder(choice), w)?;
            row.push(Cell::Best(mean_best(&logs)));
        }
        table.push(row);
    }
    Ok(vec![table])
}

/// Table 2 — per-step runtime (s) of the best placements found by each
/// approach.
///
/// Paper reference values:
/// | Model        | Human | GPU-Only | Grouper | Encoder | Mars  | Mars (no pre) |
/// |--------------|-------|----------|---------|---------|-------|----------------|
/// | Inception-V3 | 0.071 | 0.071    | 0.067   | 0.067   | 0.067 | 0.067          |
/// | GNMT-4       | 1.661 | OOM      | 1.418   | 1.437   | 1.379 | 1.396          |
/// | BERT         | OOM   | OOM      | 12.661  | 11.737  | 9.214 | 11.363         |
fn table2_final(cfg: &ExpConfig, cells: &mut Cells) -> io::Result<Vec<Table>> {
    let mut table = Table::new(
        "Table 2: per-step runtime (s) of best placements",
        &[
            "Models",
            "Human Experts",
            "GPU Only",
            "Grouper-Placer",
            "Encoder-Placer",
            "Mars",
            "Mars (no pre-training)",
        ],
    );
    let cluster = Cluster::p100_quad();
    for w in BENCHMARKS {
        let graph = w.build(cfg.profile);
        let human = measure_placement(cfg, w, &human_expert(w, &graph, &cluster));
        let gpu = measure_placement(cfg, w, &gpu_only(&graph, &cluster));
        let mut row = vec![text(bench_label(w)), text(cell(&human)), text(cell(&gpu))];
        for kind in [
            AgentKind::GrouperPlacer,
            AgentKind::EncoderPlacer,
            AgentKind::Mars,
            AgentKind::MarsNoPretrain,
        ] {
            let logs = run_agent_multi(cfg, cells, kind, w)?;
            row.push(Cell::Best(mean_best(&logs)));
        }
        table.push(row);
    }
    Ok(vec![table])
}

/// Table 3 — generalizability: per-step time (s) of placements found
/// by direct training vs. a policy generalized from a similar-type or
/// different-type workload. Sources train for up to `cfg.budget`
/// samples, stopping after 100 without improvement; each policy then
/// fine-tunes for 100 samples on the unseen workload. Direct training
/// gets the same total budget as the similar-type arm.
///
/// Paper reference values:
/// | Unseen       | Direct | Similar type | Different type |
/// |--------------|--------|--------------|----------------|
/// | Inception-V3 | 0.067  | 0.067        | 0.067          |
/// | GNMT-4       | 1.379  | 1.422        | 1.472          |
/// | BERT         | 9.214  | 10.127       | 12.426         |
fn table3_generalization(cfg: &ExpConfig, cells: &mut Cells) -> io::Result<Vec<Table>> {
    let finetune = 100;
    let patience = 100;
    let mut table = Table::with_recorded(
        "Table 3: generalization (100 fine-tune steps on the unseen workload)",
        &[
            "Unseen workloads",
            "Direct training",
            "Generalized from similar type",
            "Generalized from different type",
        ],
        &["Similar source", "Different source"],
    );
    for w in BENCHMARKS {
        let sim_src = similar_source(w);
        let dif_src = different_source(w);
        // Two arms generalize, from the similar source and from the
        // different one; the third trains directly for as many samples
        // as the similar arm spent in all.
        let (mut sim_bests, mut dif_bests, mut dir_bests) = (Vec::new(), Vec::new(), Vec::new());
        for s in 0..cfg.seeds as u64 {
            let mut from = |src: Workload| -> io::Result<GeneralizeResult> {
                let arm = format!("Mars-from-{}", src.name());
                cells.run(&arm, w, cfg.budget, &cfg.mars, s, |seed| {
                    generalize(&cfg.mars, src, w, cfg.profile, cfg.budget, patience, finetune, seed)
                })
            };
            let sim = from(sim_src)?;
            let dif = from(dif_src)?;
            let total = sim.train_samples + finetune;
            let dir = train_cell(cfg, cells, AgentKind::Mars, w, total, s)?;
            dir_bests.push(dir.best_reading_s);
            sim_bests.push(sim.best_s);
            dif_bests.push(dif.best_s);
        }
        table.push(vec![
            text(bench_label(w)),
            Cell::Best(mean_found(dir_bests)),
            Cell::Best(mean_found(sim_bests)),
            Cell::Best(mean_found(dif_bests)),
            text(sim_src.name()),
            text(dif_src.name()),
        ]);
    }
    Ok(vec![table])
}

/// Fig. 7 — per-step runtime of the placements found during training,
/// for Inception-V3 (7a) and GNMT-4 (7b), comparing Mars against the
/// grouper-placer and encoder-placer structures: one row per update
/// round, each a mean over seeds.
///
/// Paper shapes to reproduce:
/// * 7a: Mars finds the Inception optimum quickly; the encoder-placer
///   converges far more slowly (paper: ~2500 steps vs Mars < 100).
/// * 7b: Mars starts from better placements (all < 4 s even at the
///   beginning) and finds the best final placement.
fn fig7_curves(cfg: &ExpConfig, cells: &mut Cells) -> io::Result<Vec<Table>> {
    let mut series = Table::new(
        "Fig. 7: per update round, mean over seeds of the round's valid readings and of the best so far",
        &["Workload", "Agent", "Samples", "Mean valid (s)", "Best so far (s)", "Policy entropy"],
    );
    let mut summary = Table::new(
        "Fig. 7: final best and samples until within 10% of it",
        &["Workload", "Agent", "Final best (s)", "Samples to converge"],
    );
    for w in [Workload::InceptionV3, Workload::Gnmt4] {
        for kind in [AgentKind::Mars, AgentKind::GrouperPlacer, AgentKind::EncoderPlacer] {
            let logs = run_agent_multi(cfg, cells, kind, w)?;
            let rounds = logs.iter().map(|l| l.records.len()).min().unwrap_or(0);
            for i in 0..rounds {
                let mean = |f: fn(&TrainingRecord) -> Option<f64>| {
                    mean_found(logs.iter().map(|l| f(&l.records[i])))
                };
                series.push(vec![
                    text(bench_label(w)),
                    text(kind.label()),
                    Cell::Num(Some(logs[0].records[i].samples_so_far as f64), 0),
                    Cell::Num(mean(|rec| rec.mean_valid_reading_s), 3),
                    Cell::Num(mean(|rec| rec.best_so_far_s), 3),
                    Cell::Num(mean(|rec| Some(rec.policy_entropy)), 2),
                ]);
            }
            let converge =
                mean_found(logs.iter().map(|l| l.samples_to_converge(1.10).map(|s| s as f64)));
            summary.push(vec![
                text(bench_label(w)),
                text(kind.label()),
                Cell::Best(mean_best(&logs)),
                Cell::Num(converge, 0),
            ]);
        }
    }
    Ok(vec![series, summary])
}

/// Fig. 8 — training time of the agent under each RL approach,
/// including Mars without self-supervised pre-training.
///
/// Training time = environment machine time (dominant: each placement
/// evaluation runs the workload for 15 steps on the machine) + agent
/// compute + DGI pre-training (which needs *no* machine interaction).
///
/// Metric: time until the agent first found a placement within 10% of
/// the best placement found by *any* agent on that workload (a common
/// quality target, as the paper's "train until the optimal placement is
/// found" protocol implies). Agents that never reach the target are
/// charged their full budget (censored). Averaged over seeds.
///
/// Paper shape: Mars trains fastest on Inception-V3; self-supervised
/// pre-training saves ~13.2% of training time on average.
fn fig8_training_time(cfg: &ExpConfig, cells: &mut Cells) -> io::Result<Vec<Table>> {
    const AGENTS: [AgentKind; 4] = [
        AgentKind::GrouperPlacer,
        AgentKind::EncoderPlacer,
        AgentKind::Mars,
        AgentKind::MarsNoPretrain,
    ];
    let mut times = Table::new(
        "Fig. 8: machine + agent time until within 10% of the best placement any agent found \
         (censored at the full budget)",
        &[
            "Workload",
            "Agent",
            "Time to target (s)",
            "Hours",
            "Samples to target",
            "Reached",
            "Seeds",
        ],
    );
    let mut savings = Table::new(
        "Fig. 8: pre-training saving, Mars vs Mars (no pre-training) (paper: 13.2% on average)",
        &["Workload", "Global best (s)", "Saving (%)"],
    );
    let mut saved = Vec::new();
    for w in BENCHMARKS {
        let runs = AGENTS
            .iter()
            .map(|&kind| Ok((kind, run_agent_multi(cfg, cells, kind, w)?)))
            .collect::<io::Result<Vec<_>>>()?;
        let global_best = runs
            .iter()
            .flat_map(|(_, logs)| logs.iter().filter_map(|l| l.best_reading_s))
            .fold(f64::INFINITY, f64::min);
        let target = global_best * 1.10;

        let mut hours_by_agent = Vec::new();
        for (kind, logs) in &runs {
            let hits: Vec<Option<&TrainingRecord>> = logs
                .iter()
                .map(|l| {
                    l.records.iter().find(|rec| rec.best_so_far_s.is_some_and(|b| b <= target))
                })
                .collect();
            let time = mean_found(logs.iter().zip(&hits).map(|(l, hit)| {
                Some(match hit {
                    Some(rec) => rec.machine_s + (rec.agent_wall_s + l.pretrain_wall_s),
                    None => l.total_training_time_s(),
                })
            }));
            let samples = mean_found(logs.iter().zip(&hits).map(|(l, hit)| {
                Some(hit.map_or(l.total_samples, |rec| rec.samples_so_far) as f64)
            }));
            let reached = hits.iter().flatten().count();
            let hours = time.map(|t| t / 3600.0);
            hours_by_agent.push((*kind, hours));
            times.push(vec![
                text(bench_label(w)),
                text(kind.label()),
                Cell::Num(time, 1),
                Cell::Num(hours, 2),
                Cell::Num(samples, 0),
                Cell::Num(Some(reached as f64), 0),
                Cell::Num(Some(logs.len() as f64), 0),
            ]);
        }
        let hours_of = |k| hours_by_agent.iter().find(|(kind, _)| *kind == k).and_then(|(_, h)| *h);
        let saving = hours_of(AgentKind::Mars)
            .zip(hours_of(AgentKind::MarsNoPretrain))
            .map(|(pre, nopre)| 1.0 - pre / nopre);
        saved.push(saving);
        savings.push(vec![
            text(bench_label(w)),
            Cell::Num(global_best.is_finite().then_some(global_best), 3),
            Cell::Num(saving.map(|s| s * 100.0), 1),
        ]);
    }
    let average = mean_found(saved).map(|s| s * 100.0);
    savings.push(vec![text("Average"), Cell::Num(None, 3), Cell::Num(average, 1)]);
    Ok(vec![times, savings])
}

/// Ablation: PPO vs. plain REINFORCE (§2 motivates PPO by the "slow
/// convergence of reinforcement learning based on REINFORCE").
///
/// REINFORCE is realized as the degenerate PPO configuration: one
/// epoch, one minibatch, effectively-unbounded clip — the first (and
/// only) update then uses ratio ≡ 1, i.e. the vanilla policy gradient
/// `∇ log π × Â`.
fn ablation_rl(cfg: &ExpConfig, cells: &mut Cells) -> io::Result<Vec<Table>> {
    let mut reinforce = cfg.clone();
    reinforce.mars.ppo_epochs = 1;
    reinforce.mars.minibatches = 1;
    reinforce.mars.clip_eps = 1e6;
    let mut table = Table::new(
        "Ablation: PPO vs REINFORCE (Mars agent)",
        &["Workload", "Algorithm", "Mean best (s)", "Samples to converge"],
    );
    for w in [Workload::InceptionV3, Workload::Gnmt4] {
        for (algo, exp) in [("PPO", cfg), ("REINFORCE", &reinforce)] {
            let logs = run_agent_multi(exp, cells, AgentKind::Mars, w)?;
            let converge =
                mean_found(logs.iter().map(|l| l.samples_to_converge(1.05).map(|s| s as f64)));
            table.push(vec![
                text(bench_label(w)),
                text(algo),
                Cell::Best(mean_best(&logs)),
                Cell::Num(converge, 0),
            ]);
        }
    }
    Ok(vec![table])
}

/// Ablation: segment size `s` of the Mars placer (§3.3 fixes s = 128
/// at paper scale; the reduced profile uses 32). Sweeps s to show the
/// sweet spot between per-op context (small s ⇒ more recurrence
/// carry-over) and encoding efficiency (large s ⇒ full-sequence
/// seq2seq behaviour, which Table 1 shows degrading).
fn ablation_segment(cfg: &ExpConfig, cells: &mut Cells) -> io::Result<Vec<Table>> {
    let sweep: &[usize] = match cfg.profile {
        Profile::Paper => &[32, 64, 128, 256, 4096],
        Profile::Reduced => &[8, 16, 32, 64, 4096],
    };
    let mut table = Table::with_recorded(
        "Ablation: Mars placer segment size",
        &["Workload", "Segment size", "Mean best (s)"],
        &["Segment size (ops)"],
    );
    for w in [Workload::Gnmt4, Workload::BertBase] {
        for &s in sweep {
            let mut exp = cfg.clone();
            exp.mars.segment_size = s;
            let logs = run_agent_multi(&exp, cells, AgentKind::Mars, w)?;
            table.push(vec![
                text(bench_label(w)),
                text(if s >= 4096 { "whole-seq".into() } else { s.to_string() }),
                Cell::Best(mean_best(&logs)),
                Cell::Num(Some(s as f64), 0),
            ]);
        }
    }
    Ok(vec![table])
}

/// Ablation: classical min-cut graph partitioning vs. the RL agent
/// (§2: cost-model-driven solvers like Scotch "fail to achieve
/// satisfactory results").
///
/// The partitioner optimizes cut bytes + compute balance — a proxy
/// that ignores scheduling/pipelining — while Mars optimizes measured
/// step time directly.
fn ablation_partitioner(cfg: &ExpConfig, cells: &mut Cells) -> io::Result<Vec<Table>> {
    let mut table = Table::with_recorded(
        "Ablation: min-cut partitioner vs Mars (per-step s)",
        &["Workload", "Min-cut partitioner", "Mars"],
        &["Cut (MB)"],
    );
    let cluster = Cluster::p100_quad();
    for w in BENCHMARKS {
        let graph = w.build(cfg.profile);
        let (cut_cell, cut_mb) = match best_min_cut(&graph, &cluster) {
            Some(p) => {
                let out = measure_placement(cfg, w, &p);
                (cell(&out), p.cut_bytes(&graph) as f64 / (1 << 20) as f64)
            }
            None => ("infeasible".to_string(), 0.0),
        };
        let mars = run_agent_multi(cfg, cells, AgentKind::Mars, w)?;
        table.push(vec![
            text(bench_label(w)),
            text(cut_cell),
            Cell::Best(mean_best(&mars)),
            Cell::Num(Some(cut_mb), 1),
        ]);
    }
    Ok(vec![table])
}

/// Ablation: reward shaping (Eq. 7 uses `R = −√t`; compare against
/// `−t` and `−ln(1+t)`). The square root compresses the 100 s invalid
/// penalty relative to good readings, keeping advantages from being
/// dominated by OOM samples — linear shaping should be noisier on
/// memory-constrained workloads.
fn ablation_reward(cfg: &ExpConfig, cells: &mut Cells) -> io::Result<Vec<Table>> {
    let mut table = Table::new(
        "Ablation: reward shaping (Mars agent)",
        &["Workload", "Shaping", "Mean best (s)"],
    );
    for w in [Workload::Gnmt4, Workload::BertBase] {
        for shaping in [RewardShaping::NegSqrt, RewardShaping::NegLinear, RewardShaping::NegLog] {
            let mut exp = cfg.clone();
            exp.mars.reward_shaping = shaping;
            let logs = run_agent_multi(&exp, cells, AgentKind::Mars, w)?;
            table.push(vec![
                text(bench_label(w)),
                text(format!("{shaping:?}")),
                Cell::Best(mean_best(&logs)),
            ]);
        }
    }
    Ok(vec![table])
}
