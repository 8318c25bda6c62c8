//! Workload generators.
//!
//! Each module builds an op-level [`CompGraph`](crate::CompGraph) for
//! one of the paper's benchmark or generalization workloads. Costs
//! (FLOPs, parameter bytes, activation bytes) are computed from the
//! real architectures' dimensions; two calibration constants per
//! generator (`flop_scale`, `mem_scale`) absorb framework overheads the
//! op-level shapes cannot capture (optimizer slots, workspace, cuDNN
//! autotuning buffers) so that the simulated footprints match what the
//! paper reports (e.g. GNMT-4 "requires more than 12GB", BERT "about
//! 24GB").
//!
//! Two structural profiles are available:
//!
//! * [`Profile::Paper`] — fine-grained graphs (hundreds to thousands of
//!   ops), matching the paper's experimental scale.
//! * [`Profile::Reduced`] — coarser chunking with *identical total
//!   cost*; the default for tests and quick experiments on a CPU-only
//!   box.

pub mod bert;
pub mod gnmt;
pub mod gpt2;
pub mod inception;
pub mod resnet;
pub mod seq2seq;
pub mod transformer;
pub mod vgg;

use crate::CompGraph;

/// Structural granularity of a generated graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Profile {
    /// Fine-grained, paper-scale op counts.
    Paper,
    /// Coarser chunking, identical total cost.
    Reduced,
}

impl Profile {
    /// Canonical lowercase name (`"paper"` / `"reduced"`), stable for
    /// wire protocols and config files.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Paper => "paper",
            Profile::Reduced => "reduced",
        }
    }

    /// Parse a canonical name back into a profile.
    pub fn parse(s: &str) -> Option<Profile> {
        match s {
            "paper" => Some(Profile::Paper),
            "reduced" => Some(Profile::Reduced),
            _ => None,
        }
    }
}

/// The workloads used in the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Inception-V3, batch 1 (benchmark 1).
    InceptionV3,
    /// GNMT 4-layer, batch 256 (benchmark 2).
    Gnmt4,
    /// BERT-Base, seq 384, batch 24 (benchmark 3).
    BertBase,
    /// VGG16 (Table 3 training workload).
    Vgg16,
    /// Plain seq2seq (Table 3 training workload).
    Seq2Seq,
    /// Small Transformer (Table 3 training workload).
    Transformer,
    /// ResNet-50 (extra vision workload, this repo's addition).
    Resnet50,
    /// GPT-2 Small (extra language workload, this repo's addition).
    Gpt2Small,
}

impl Workload {
    /// All workloads.
    pub const ALL: [Workload; 8] = [
        Workload::InceptionV3,
        Workload::Gnmt4,
        Workload::BertBase,
        Workload::Vgg16,
        Workload::Seq2Seq,
        Workload::Transformer,
        Workload::Resnet50,
        Workload::Gpt2Small,
    ];

    /// Parse a workload from its canonical name or the short aliases
    /// the CLI accepts (`"inception"`, `"gnmt"`, …). The single
    /// name→workload mapping shared by the CLI and the serve daemon.
    pub fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "inception" | "inception_v3" => Workload::InceptionV3,
            "gnmt" | "gnmt4" => Workload::Gnmt4,
            "bert" | "bert_base" => Workload::BertBase,
            "vgg" | "vgg16" => Workload::Vgg16,
            "seq2seq" => Workload::Seq2Seq,
            "transformer" => Workload::Transformer,
            "resnet" | "resnet50" => Workload::Resnet50,
            "gpt2" | "gpt2_small" => Workload::Gpt2Small,
            _ => return None,
        })
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::InceptionV3 => "inception_v3",
            Workload::Gnmt4 => "gnmt4",
            Workload::BertBase => "bert_base",
            Workload::Vgg16 => "vgg16",
            Workload::Seq2Seq => "seq2seq",
            Workload::Transformer => "transformer",
            Workload::Resnet50 => "resnet50",
            Workload::Gpt2Small => "gpt2_small",
        }
    }

    /// Build the workload graph.
    pub fn build(self, profile: Profile) -> CompGraph {
        match self {
            Workload::InceptionV3 => inception::build(profile),
            Workload::Gnmt4 => gnmt::build(profile),
            Workload::BertBase => bert::build(profile),
            Workload::Vgg16 => vgg::build(profile),
            Workload::Seq2Seq => seq2seq::build(profile),
            Workload::Transformer => transformer::build(profile),
            Workload::Resnet50 => resnet::build(profile),
            Workload::Gpt2Small => gpt2::build(profile),
        }
    }
}

/// Forward→training FLOP multiplier (forward + backward ≈ 3× forward).
pub(crate) const TRAIN_FLOPS_FACTOR: f64 = 3.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_build_valid_graphs() {
        for w in Workload::ALL {
            for p in [Profile::Reduced, Profile::Paper] {
                let g = w.build(p);
                assert!(g.validate().is_ok(), "{} {:?}", w.name(), p);
                assert!(g.num_nodes() > 10, "{} {:?} too small", w.name(), p);
                assert!(g.num_edges() >= g.num_nodes() - 2, "{} {:?} too sparse", w.name(), p);
            }
        }
    }

    #[test]
    fn profiles_preserve_total_cost() {
        for w in Workload::ALL {
            let r = w.build(Profile::Reduced);
            let p = w.build(Profile::Paper);
            let ratio = r.total_flops() / p.total_flops();
            assert!(
                (0.8..=1.25).contains(&ratio),
                "{}: reduced/paper flops ratio {ratio}",
                w.name()
            );
            let mem_ratio = r.total_memory_bytes() as f64 / p.total_memory_bytes() as f64;
            assert!(
                (0.7..=1.4).contains(&mem_ratio),
                "{}: reduced/paper memory ratio {mem_ratio}",
                w.name()
            );
        }
    }

    #[test]
    fn paper_profile_is_finer_grained() {
        for w in Workload::ALL {
            let r = w.build(Profile::Reduced);
            let p = w.build(Profile::Paper);
            assert!(
                p.num_nodes() >= r.num_nodes(),
                "{}: paper {} < reduced {}",
                w.name(),
                p.num_nodes(),
                r.num_nodes()
            );
        }
    }

    #[test]
    fn every_graph_is_weakly_connected() {
        for w in Workload::ALL {
            let g = w.build(Profile::Reduced);
            let n = g.num_nodes();
            let mut parent: Vec<usize> = (0..n).collect();
            fn find(p: &mut [usize], mut x: usize) -> usize {
                while p[x] != x {
                    p[x] = p[p[x]];
                    x = p[x];
                }
                x
            }
            for e in g.edges() {
                let (a, b) = (find(&mut parent, e.src), find(&mut parent, e.dst));
                parent[a] = b;
            }
            let root = find(&mut parent, 0);
            for i in 1..n {
                assert_eq!(find(&mut parent, i), root, "{}: node {i} disconnected", w.name());
            }
        }
    }
}
