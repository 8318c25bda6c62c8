//! The differentiable operation set.
//!
//! Each variant stores the parent [`Var`]s (and any constant payload)
//! needed to run its backward rule. Forward evaluation happens eagerly
//! in [`crate::tape::Tape`]'s builder methods; this module only defines
//! the recorded structure.

use crate::tape::Var;
use mars_tensor::ops::CsrMatrix;
use mars_tensor::Matrix;
use std::sync::Arc;

/// A recorded differentiable operation.
#[derive(Clone)]
pub enum Op {
    /// A leaf: input data or a parameter. No parents.
    Leaf,
    /// Dense matrix product `A · B`.
    MatMul(Var, Var),
    /// Sparse-constant × dense product `S · X`. The sparse operand is a
    /// constant (the normalized graph adjacency), so only `X` receives a
    /// gradient.
    Spmm(Arc<CsrMatrix>, Var),
    /// Elementwise sum of two equally-shaped matrices.
    Add(Var, Var),
    /// Elementwise difference.
    Sub(Var, Var),
    /// Elementwise (Hadamard) product.
    Mul(Var, Var),
    /// Broadcast addition of a `1 × n` bias row to every row of an `m × n` matrix.
    AddBias(Var, Var),
    /// Multiplication by a scalar constant.
    Scale(Var, f32),
    /// Addition of a scalar constant.
    AddScalar(Var, f32),
    /// Logistic sigmoid, elementwise.
    Sigmoid(Var),
    /// Hyperbolic tangent, elementwise.
    Tanh(Var),
    /// Rectified linear unit, elementwise.
    Relu(Var),
    /// Parametric ReLU with a learnable scalar slope (`1 × 1` parameter).
    PRelu(Var, Var),
    /// Elementwise exponential.
    Exp(Var),
    /// Elementwise natural logarithm.
    Ln(Var),
    /// Row-wise softmax.
    SoftmaxRows(Var),
    /// Row-wise log-softmax.
    LogSoftmaxRows(Var),
    /// Mean over all elements (`1 × 1` output).
    MeanAll(Var),
    /// Sum over all elements (`1 × 1` output).
    SumAll(Var),
    /// Column means (`1 × n` output).
    MeanRows(Var),
    /// Column sums (`1 × n` output).
    SumRows(Var),
    /// Horizontal concatenation `[A | B]`; payload is A's width.
    ConcatCols(Var, Var, usize),
    /// Vertical concatenation (A stacked over B); payload is A's height.
    ConcatRows(Var, Var, usize),
    /// Row slice `[start, end)`.
    SliceRows(Var, usize, usize),
    /// Row gather (duplicates allowed; backward scatter-adds).
    GatherRows(Var, Arc<Vec<usize>>),
    /// Per-row element selection: output `m × 1` with `out[r] = x[r, idx[r]]`.
    SelectPerRow(Var, Arc<Vec<usize>>),
    /// Stack many `1 × n` rows into an `m × n` matrix.
    StackRows(Arc<Vec<Var>>),
    /// Matrix transpose.
    Transpose(Var),
    /// Elementwise clamp into `[lo, hi]` (zero gradient outside).
    Clamp(Var, f32, f32),
    /// Elementwise minimum of two matrices (gradient to the smaller; ties → first).
    MinElem(Var, Var),
    /// Mean binary-cross-entropy with logits against a constant target
    /// matrix (`1 × 1` output). Numerically stable form.
    BceWithLogits(Var, Arc<Matrix>),
    /// Fused LSTM over a whole sequence with hand-written BPTT.
    ///
    /// Parents: `(x, w_ih, w_hh, b, h0, c0)`. Output is `(T+1) × H`:
    /// rows `0..T` are the hidden states, row `T` is the final cell
    /// state (so callers can carry `(h_T, c_T)` across segments).
    /// The forward pass caches the gate activations needed by the
    /// backward rule.
    LstmSeq {
        /// Input sequence (`T × F`).
        x: Var,
        /// Fused input weights (`F × 4H`), gate order `[i|f|g|o]`.
        w_ih: Var,
        /// Fused recurrent weights (`H × 4H`).
        w_hh: Var,
        /// Fused bias (`1 × 4H`).
        b: Var,
        /// Initial hidden state (`1 × H`).
        h0: Var,
        /// Initial cell state (`1 × H`).
        c0: Var,
        /// Forward-pass activations cached for BPTT.
        cache: Arc<LstmCache>,
    },
    /// Both directions of a bidirectional LSTM layer over one
    /// sequence, the second reading it backwards; built by
    /// [`crate::Tape::bilstm`].
    ///
    /// Output is `(T+1) × 2H`: row `t < T` is `[h_fwd(t) ‖ h_bwd(t)]`,
    /// row `T` the forward direction's final `[h ‖ c]`.
    BiLstm {
        /// Input sequence (`T × F`).
        x: Var,
        /// Forward direction's `[w_ih, w_hh, b]`.
        fwd: [Var; 3],
        /// Reversed direction's `[w_ih, w_hh, b]`.
        bwd: [Var; 3],
        /// The forward direction's initial `[h ‖ c]` (`1 × 2H`); zeros
        /// when absent.
        carry: Option<Var>,
        /// Each direction's activations, in its own step order.
        cache: Arc<[LstmCache; 2]>,
    },
    /// The whole attention decoder as one node: for every step of every
    /// segment, an additive-attention read over the segment's encoder
    /// block, one LSTM step on `[enc row ‖ context]` and the device
    /// head (`N × D` output, `N = Σ T_s`). Bit-identical, forward and
    /// backward, to the same loop recorded op by op from primitive ops
    /// and stacked (the `mars-oracle` crate's `decode_segment`).
    AttnDecode {
        /// Per segment, the encoder outputs (`T_s × E`) and their
        /// attention projection (`T_s × A`).
        segs: Arc<Vec<(Var, Var)>>,
        /// `[w_dec (H × A), v (A × 1), w_ih (2E × 4H), w_hh (H × 4H),
        /// b (1 × 4H), head_w (H × D), head_b (1 × D)]`.
        params: [Var; 7],
        /// Initial hidden state (`1 × H`).
        h0: Var,
        /// Initial cell state (`1 × H`).
        c0: Var,
        /// Forward-pass activations cached for the reverse sweep.
        cache: Arc<AttnDecodeCache>,
    },
}

/// Activations cached by the fused decoder forward pass. Step `n` of
/// the decode (segments in order, rows in order) owns row `n` of the
/// row-shaped members; `weights` and `act` are flat, a step of a
/// `T`-row segment holding `T` and `T · A` values respectively.
pub struct AttnDecodeCache {
    /// LSTM gate activations and cell states, `N × H` each.
    pub gates: LstmCache,
    /// Hidden states `h_n`, `N × H`.
    pub h: Matrix,
    /// Decoder inputs `[enc row ‖ context]`, `N × 2E`.
    pub dec_in: Matrix,
    /// Attention weights (softmax over the segment), `1 × Σ T_s²`.
    pub weights: Matrix,
    /// `tanh(proj ⊕ dproj)` activations, `1 × Σ T_s² · A`.
    pub act: Matrix,
}

/// Activations cached by the fused LSTM forward pass.
pub struct LstmCache {
    /// Input-gate activations, `T × H`.
    pub i: Matrix,
    /// Forget-gate activations, `T × H`.
    pub f: Matrix,
    /// Candidate activations (tanh), `T × H`.
    pub g: Matrix,
    /// Output-gate activations, `T × H`.
    pub o: Matrix,
    /// Cell states `c_t`, `T × H`.
    pub c: Matrix,
    /// `tanh(c_t)`, `T × H`.
    pub tanh_c: Matrix,
}
