//! Operation kinds.
//!
//! The kind drives the one-hot part of the node features (§3.1 of the
//! paper: "we encode the operation types by one-hot encoding") and the
//! CPU/GPU compatibility flag used by the GPU-Only baseline and the
//! simulator.

/// Kind of a computational-graph operation.
///
/// The list covers everything the six workload generators emit. Order
/// is stable — it defines the one-hot feature layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Input placeholder (data tensors entering the graph).
    Input,
    /// Constant tensor.
    Const,
    /// Trainable variable read.
    Variable,
    /// Host-side input pipeline (decode/augment). CPU-only.
    DataPipeline,
    /// Host-side preprocessing (tokenize/bucket). CPU-only.
    Preprocess,
    /// 2-D convolution.
    Conv2d,
    /// Depthwise / separable convolution.
    DepthwiseConv,
    /// Dense matrix multiply.
    MatMul,
    /// Batched matrix multiply (attention score/context).
    BatchMatMul,
    /// Batch normalization.
    BatchNorm,
    /// Layer normalization.
    LayerNorm,
    /// ReLU activation.
    Relu,
    /// GELU activation.
    Gelu,
    /// Tanh activation.
    Tanh,
    /// Sigmoid activation.
    Sigmoid,
    /// Softmax.
    Softmax,
    /// Max pooling.
    MaxPool,
    /// Average pooling.
    AvgPool,
    /// Tensor concatenation.
    Concat,
    /// Tensor split/slice.
    Split,
    /// Elementwise addition (residual connections).
    Add,
    /// Elementwise multiplication (gating).
    Mul,
    /// Shape-only ops (reshape/expand).
    Reshape,
    /// Transpose/permute.
    Transpose,
    /// Fused LSTM cell step (or a chunk of steps).
    LstmCell,
    /// Embedding lookup.
    Embedding,
    /// Attention score computation.
    AttentionScore,
    /// Attention-weighted context computation.
    AttentionContext,
    /// Dropout.
    Dropout,
    /// Loss computation (cross-entropy etc.).
    Loss,
    /// Optimizer parameter update (apply-gradients).
    ApplyGradient,
    /// Identity / control edge placeholder.
    Identity,
}

impl OpKind {
    /// All kinds, in one-hot feature order.
    pub const ALL: [OpKind; 32] = [
        OpKind::Input,
        OpKind::Const,
        OpKind::Variable,
        OpKind::DataPipeline,
        OpKind::Preprocess,
        OpKind::Conv2d,
        OpKind::DepthwiseConv,
        OpKind::MatMul,
        OpKind::BatchMatMul,
        OpKind::BatchNorm,
        OpKind::LayerNorm,
        OpKind::Relu,
        OpKind::Gelu,
        OpKind::Tanh,
        OpKind::Sigmoid,
        OpKind::Softmax,
        OpKind::MaxPool,
        OpKind::AvgPool,
        OpKind::Concat,
        OpKind::Split,
        OpKind::Add,
        OpKind::Mul,
        OpKind::Reshape,
        OpKind::Transpose,
        OpKind::LstmCell,
        OpKind::Embedding,
        OpKind::AttentionScore,
        OpKind::AttentionContext,
        OpKind::Dropout,
        OpKind::Loss,
        OpKind::ApplyGradient,
        OpKind::Identity,
    ];

    /// Number of kinds (width of the one-hot feature block).
    pub const COUNT: usize = Self::ALL.len();

    /// Index into the one-hot feature block.
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&k| k == self).expect("every OpKind is listed in ALL")
    }

    /// Whether a GPU kernel exists for this op. Host-side pipeline ops
    /// must run on the CPU (the paper's GPU-Only baseline "places all
    /// GPU compatible operations on a single GPU while running
    /// incompatible operations on CPUs").
    pub fn gpu_compatible(self) -> bool {
        !matches!(self, OpKind::DataPipeline | OpKind::Preprocess)
    }

    /// Compute-heavy kinds (useful for analyses and tests).
    pub fn is_compute_heavy(self) -> bool {
        matches!(
            self,
            OpKind::Conv2d
                | OpKind::DepthwiseConv
                | OpKind::MatMul
                | OpKind::BatchMatMul
                | OpKind::LstmCell
                | OpKind::AttentionScore
                | OpKind::AttentionContext
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_stable() {
        for (i, k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        assert_eq!(OpKind::COUNT, 32);
    }

    #[test]
    fn cpu_only_ops() {
        assert!(!OpKind::DataPipeline.gpu_compatible());
        assert!(!OpKind::Preprocess.gpu_compatible());
        assert!(OpKind::Conv2d.gpu_compatible());
        assert!(OpKind::ApplyGradient.gpu_compatible());
    }

    #[test]
    fn compute_heavy_classification() {
        assert!(OpKind::Conv2d.is_compute_heavy());
        assert!(OpKind::LstmCell.is_compute_heavy());
        assert!(!OpKind::Relu.is_compute_heavy());
        assert!(!OpKind::Identity.is_compute_heavy());
    }
}
