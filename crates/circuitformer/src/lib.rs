//! # sns-circuitformer
//!
//! The *Circuitformer* (§3.3 of the SNS paper): a lightweight Transformer
//! that regresses the physical characteristics (timing, area, power) of a
//! complete circuit path from its token sequence.
//!
//! Architecture, following the paper's Table 2:
//!
//! | hyperparameter        | Circuitformer |
//! |-----------------------|---------------|
//! | vocabulary            | 79 (+1 CLS)   |
//! | hidden layers         | 2             |
//! | attention heads       | 2             |
//! | embedding size        | 128           |
//! | maximum input size    | 512           |
//! | total parameters      | ≈ 1.4 M       |
//!
//! The model is a pre-LN Transformer encoder with learned positional
//! embeddings; a CLS token is prepended and its final representation feeds
//! a small regression head producing the three targets in normalized log
//! space (see [`LabelScaler`]).
//!
//! Two forward passes share the weights. [`Circuitformer::forward`] (and
//! [`Circuitformer::predict_raw`]) is the f32 training forward and the
//! reference. [`Circuitformer::predict_batch`], the inference path every
//! prediction takes, runs a prepacked plan whose feed-forward layers are
//! integer: FF1 and FF2 quantized to s8 per column, activations to u8 per
//! row, exact i32 sums ([`sns_nn::qgemm`]). Attention, LayerNorm and the
//! regression head stay f32 under the GEMM FMA contract. So a batched
//! prediction approximates `predict_raw` rather than matching it bit for
//! bit, and it is bit-identical to the same path predicted alone, in any
//! batch and at every ISA level.
//!
//! # Example
//!
//! ```rust
//! use sns_circuitformer::{Circuitformer, CircuitformerConfig};
//!
//! let mut rng = sns_rt::rng::StdRng::seed_from_u64(0);
//! let model = Circuitformer::new(CircuitformerConfig::fast(), &mut rng);
//! let out = model.predict_raw(&[3, 40, 44, 9]); // token ids of a path
//! assert_eq!(out.len(), 3); // timing, area, power (normalized log space)
//! ```

pub mod scaler;
pub mod train;

pub use scaler::LabelScaler;
pub use train::{train, EpochStats, TrainConfig, TrainHistory};

use sns_rt::rng::StdRng;

use sns_nn::{
    ByteReader, Embedding, Gelu, Grads, LayerNorm, Linear, Mat, MultiHeadAttention,
    PackedAttention, Param, ParamRegistry, QuantLinear, QuantRows, SeqSpan,
};

/// Hyperparameters of the Circuitformer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitformerConfig {
    /// Vocabulary size *excluding* the CLS token (79 for Table 1).
    pub vocab: usize,
    /// Model width (embedding vector size).
    pub dim: usize,
    /// Attention heads per layer.
    pub heads: usize,
    /// Encoder layers.
    pub layers: usize,
    /// Feed-forward inner width.
    pub ffn_dim: usize,
    /// Maximum input length (positions in the positional table).
    pub max_len: usize,
}

impl CircuitformerConfig {
    /// The paper's Table 2 configuration (≈ 1.4 M parameters).
    pub fn paper() -> Self {
        CircuitformerConfig { vocab: 79, dim: 128, heads: 2, layers: 2, ffn_dim: 2304, max_len: 512 }
    }

    /// A reduced feed-forward width for fast CI/bench runs. Same depth,
    /// heads and width — only the FFN inner size shrinks.
    pub fn fast() -> Self {
        CircuitformerConfig { ffn_dim: 512, ..CircuitformerConfig::paper() }
    }

    /// Whether a [`Circuitformer`] of this shape can be built and run:
    /// positive heads dividing `dim`, room for a path token after CLS,
    /// FFN reduction depths (`dim` for FF1, `ffn_dim` for FF2) within the
    /// integer kernels' [`sns_nn::qgemm::MAX_K`], and a parameter count
    /// that fits `usize`.
    ///
    /// # Errors
    ///
    /// Describes the first violated condition.
    pub fn check(&self) -> Result<(), String> {
        if self.heads == 0 || self.dim == 0 || !self.dim.is_multiple_of(self.heads) {
            return Err(format!(
                "dim {} is not a positive multiple of heads {}",
                self.dim, self.heads
            ));
        }
        if self.max_len < 2 {
            return Err(format!("max_len {} leaves no room for a path token", self.max_len));
        }
        let max_k = sns_nn::qgemm::MAX_K;
        if self.dim.max(self.ffn_dim) > max_k {
            return Err(format!(
                "dim {} / ffn_dim {}: the integer FFN sums K·255·127 in i32, so K ≤ {max_k}",
                self.dim, self.ffn_dim
            ));
        }
        if self.parameter_count().is_none() {
            return Err(format!("{self:?} has more parameters than usize holds"));
        }
        Ok(())
    }

    /// The scalar parameter count a [`Circuitformer`] of this shape holds,
    /// or `None` if it overflows `usize`. Computed from the shape alone, so
    /// a loader can check an untrusted header against the bytes it has
    /// before building anything that size.
    pub fn parameter_count(&self) -> Option<usize> {
        let d = self.dim;
        let linear = |i: usize, o: usize| i.checked_mul(o)?.checked_add(o);
        let norm = d.checked_mul(2)?;
        let block = [
            norm,
            linear(d, d)?.checked_mul(4)?,
            norm,
            linear(d, self.ffn_dim)?,
            linear(self.ffn_dim, d)?,
        ];
        let blocks = block
            .into_iter()
            .try_fold(0usize, usize::checked_add)?
            .checked_mul(self.layers)?;
        [
            self.vocab.checked_add(1)?.checked_mul(d)?,
            self.max_len.checked_mul(d)?,
            blocks,
            norm,
            linear(d, d)?,
            linear(d, 3)?,
        ]
        .into_iter()
        .try_fold(0usize, usize::checked_add)
    }
}

/// One pre-LN encoder block.
#[derive(Debug, Clone)]
struct Block {
    ln1: LayerNorm,
    attn: sns_nn::MultiHeadAttention,
    ln2: LayerNorm,
    ff1: Linear,
    ff2: Linear,
}

#[derive(Debug)]
struct BlockCtx {
    ln1: sns_nn::LayerNormCtx,
    attn: sns_nn::AttentionCtx,
    ln2: sns_nn::LayerNormCtx,
    ff1: sns_nn::LinearCtx,
    gelu: sns_nn::act::ActCtx,
    ff2: sns_nn::LinearCtx,
}

impl Block {
    /// A block with random initial weights, or all-zero ones (no draws)
    /// when `rng` is `None`.
    fn new(reg: &mut ParamRegistry, cfg: &CircuitformerConfig, rng: Option<&mut StdRng>) -> Self {
        let (d, f) = (cfg.dim, cfg.ffn_dim);
        match rng {
            Some(rng) => Block {
                ln1: LayerNorm::new(reg, d),
                attn: MultiHeadAttention::new(reg, d, cfg.heads, rng),
                ln2: LayerNorm::new(reg, d),
                ff1: Linear::new(reg, d, f, rng),
                ff2: Linear::new(reg, f, d, rng),
            },
            None => Block {
                ln1: LayerNorm::new(reg, d),
                attn: MultiHeadAttention::zeros(reg, d, cfg.heads),
                ln2: LayerNorm::new(reg, d),
                ff1: Linear::zeros(reg, d, f),
                ff2: Linear::zeros(reg, f, d),
            },
        }
    }

    fn forward(&self, x: &Mat) -> (Mat, BlockCtx) {
        let (n1, ln1) = self.ln1.forward(x);
        let (a, attn) = self.attn.forward(&n1);
        let x1 = x.add(&a);
        let (n2, ln2) = self.ln2.forward(&x1);
        let (h, ff1) = self.ff1.forward(&n2);
        let (g, gelu) = Gelu.forward(&h);
        let (f, ff2) = self.ff2.forward(&g);
        let y = x1.add(&f);
        (y, BlockCtx { ln1, attn, ln2, ff1, gelu, ff2 })
    }

    /// Inference-only forward over a packed batch described by `spans`,
    /// with attention and the FFN on this block's prepacked snapshot.
    ///
    /// Attention and the LayerNorms are [`Block::forward`]'s f32
    /// arithmetic. The FFN is integer: `ln2`'s output is quantized per
    /// row, FF1's sums are dequantized, biased, passed through GELU and
    /// requantized one row at a time, and FF2's sums are dequantized and
    /// biased. Every sub-layer is row-wise except attention, which is
    /// evaluated per span, so each packed sequence's rows come out
    /// bit-identical to running this on that sequence alone.
    fn infer(&self, x: &Mat, spans: &[SeqSpan], packed: &PackedBlock) -> Mat {
        let n1 = self.ln1.infer(x);
        let x1 = x.add(&packed.attn.infer_masked(&n1, spans));
        let n2 = QuantRows::quantize(&self.ln2.infer(&x1));
        let g = packed.ff1.infer_gelu_quantized(&n2);
        x1.add(&packed.ff2.infer_quantized(&g))
    }

    /// Snapshots this block's attention weights into prepacked form and
    /// its FFN weights into quantized form.
    fn pack(&self) -> PackedBlock {
        PackedBlock {
            attn: PackedAttention::pack(&self.attn),
            ff1: QuantLinear::pack(&self.ff1),
            ff2: QuantLinear::pack(&self.ff2),
        }
    }

    fn backward(&self, ctx: &BlockCtx, dy: &Mat, grads: &mut Grads) -> Mat {
        // y = x1 + ff2(gelu(ff1(ln2(x1))))
        let dg = self.ff2.backward(&ctx.ff2, dy, grads);
        let dh = Gelu.backward(&ctx.gelu, &dg);
        let dn2 = self.ff1.backward(&ctx.ff1, &dh, grads);
        let dx1_ffn = self.ln2.backward(&ctx.ln2, &dn2, grads);
        let dx1 = dy.add(&dx1_ffn);
        // x1 = x + attn(ln1(x))
        let dn1 = self.attn.backward(&ctx.attn, &dx1, grads);
        let dx_attn = self.ln1.backward(&ctx.ln1, &dn1, grads);
        dx1.add(&dx_attn)
    }

    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.ln1.visit(f);
        self.attn.visit(f);
        self.ln2.visit(f);
        self.ff1.visit(f);
        self.ff2.visit(f);
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.ln1.visit_mut(f);
        self.attn.visit_mut(f);
        self.ln2.visit_mut(f);
        self.ff1.visit_mut(f);
        self.ff2.visit_mut(f);
    }
}

/// One encoder block's weights in inference-ready form: f32 attention
/// prepacked, the FFN quantized.
#[derive(Debug, Clone)]
struct PackedBlock {
    attn: PackedAttention,
    ff1: QuantLinear,
    ff2: QuantLinear,
}

/// The Circuitformer model.
#[derive(Debug, Clone)]
pub struct Circuitformer {
    config: CircuitformerConfig,
    registry: ParamRegistry,
    tok: Embedding,
    pos: Embedding,
    blocks: Vec<Block>,
    final_ln: LayerNorm,
    head1: Linear,
    head2: Linear,
    /// The inference plan, one [`PackedBlock`] per block. Built by
    /// [`Circuitformer::new`] and rebuilt at the end of every
    /// [`Circuitformer::visit_mut`] (parameter load, optimizer step), so
    /// it always matches the weights and [`Circuitformer::predict_batch`]
    /// has no other path. The integer FFN is its only FFN: there is no f32
    /// one to fall back to. The regression head is a few `[B, dim]` rows
    /// and runs on its [`Linear`] layers directly.
    packed: Vec<PackedBlock>,
}

/// Saved forward state for [`Circuitformer::backward`].
#[derive(Debug)]
pub struct ForwardCtx {
    tok: sns_nn::EmbeddingCtx,
    pos: sns_nn::EmbeddingCtx,
    blocks: Vec<BlockCtx>,
    final_ln: sns_nn::LayerNormCtx,
    head1: sns_nn::LinearCtx,
    gelu: sns_nn::act::ActCtx,
    head2: sns_nn::LinearCtx,
    seq_len: usize,
}

impl Circuitformer {
    /// Builds a freshly initialized model.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`CircuitformerConfig::check`].
    pub fn new(config: CircuitformerConfig, rng: &mut StdRng) -> Self {
        let mut m = Circuitformer::build(config, Some(rng));
        m.packed = m.blocks.iter().map(Block::pack).collect();
        m
    }

    /// Reads a model of shape `config` from `r`, its tensors in
    /// [`visit`](Self::visit) order as [`sns_nn::write_params`] writes
    /// them. The layers are allocated without drawing initial weights,
    /// and the inference plan is packed once, after the last tensor.
    ///
    /// # Errors
    ///
    /// `config` fails [`CircuitformerConfig::check`], or a tensor is
    /// missing, truncated or the wrong shape. Bytes after the last tensor
    /// are the caller's to check.
    pub fn read(config: CircuitformerConfig, r: &mut ByteReader<'_>) -> Result<Self, String> {
        config.check()?;
        let mut m = Circuitformer::build(config, None);
        // `visit_mut` packs the plan once the visitor is done.
        sns_nn::read_params(r, |f| m.visit_mut(f))?;
        Ok(m)
    }

    /// The layers with random initial weights, or all-zero ones (no draws)
    /// when `rng` is `None`. The plan is left empty for the caller to
    /// pack once the weights are final.
    fn build(config: CircuitformerConfig, mut rng: Option<&mut StdRng>) -> Self {
        let r = config.check();
        assert!(r.is_ok(), "{r:?}");
        let mut reg = ParamRegistry::new();
        let (d, v) = (config.dim, config.vocab);
        let embedding = |reg: &mut ParamRegistry, rows: usize, rng: Option<&mut StdRng>| match rng
        {
            Some(rng) => Embedding::new(reg, rows, d, rng),
            None => Embedding::zeros(reg, rows, d),
        };
        // +1 vocabulary slot for the CLS token (id = config.vocab).
        let tok = embedding(&mut reg, v + 1, rng.as_deref_mut());
        let pos = embedding(&mut reg, config.max_len, rng.as_deref_mut());
        let blocks: Vec<Block> =
            (0..config.layers).map(|_| Block::new(&mut reg, &config, rng.as_deref_mut())).collect();
        let final_ln = LayerNorm::new(&mut reg, d);
        let (head1, head2) = match rng {
            Some(rng) => (Linear::new(&mut reg, d, d, rng), Linear::new(&mut reg, d, 3, rng)),
            None => (Linear::zeros(&mut reg, d, d), Linear::zeros(&mut reg, d, 3)),
        };
        Circuitformer {
            config,
            registry: reg,
            tok,
            pos,
            blocks,
            final_ln,
            head1,
            head2,
            packed: Vec::new(),
        }
    }

    /// Resident bytes of the inference plan: attention's prepacked f32
    /// panels plus the FFN's quantized weights, column sums and scales.
    pub fn prepack_bytes(&self) -> usize {
        self.packed.iter().map(|b| b.attn.bytes() + b.ff1.bytes() + b.ff2.bytes()).sum()
    }

    /// The model configuration.
    pub fn config(&self) -> &CircuitformerConfig {
        &self.config
    }

    /// The parameter registry (needed to allocate [`Grads`] buffers).
    pub fn registry(&self) -> &ParamRegistry {
        &self.registry
    }

    /// Total scalar parameter count (Table 2's "Total #Parameters").
    pub fn parameter_count(&self) -> usize {
        self.registry.scalar_count()
    }

    /// The CLS token id.
    pub fn cls_id(&self) -> usize {
        self.config.vocab
    }

    /// Full forward pass over a token sequence; returns the three
    /// normalized-log-space outputs and the backward context.
    ///
    /// Sequences longer than `max_len - 1` are truncated (the paper's
    /// maximum input size is 512; real circuit paths top out around 500).
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or contains an id ≥ vocab.
    pub fn forward(&self, tokens: &[usize]) -> ([f32; 3], ForwardCtx) {
        assert!(!tokens.is_empty(), "cannot run the Circuitformer on an empty path");
        let take = tokens.len().min(self.config.max_len - 1);
        let mut ids = Vec::with_capacity(take + 1);
        ids.push(self.cls_id());
        ids.extend_from_slice(&tokens[..take]);
        let positions: Vec<usize> = (0..ids.len()).collect();

        let (te, tok_ctx) = self.tok.forward(&ids);
        let (pe, pos_ctx) = self.pos.forward(&positions);
        let mut x = te.add(&pe);
        let mut block_ctxs = Vec::with_capacity(self.blocks.len());
        for b in &self.blocks {
            let (y, c) = b.forward(&x);
            x = y;
            block_ctxs.push(c);
        }
        let (n, final_ln) = self.final_ln.forward(&x);
        let cls = n.rows_slice(0, 1);
        let (h, head1) = self.head1.forward(&cls);
        let (g, gelu) = Gelu.forward(&h);
        let (out, head2) = self.head2.forward(&g);
        let result = [out.get(0, 0), out.get(0, 1), out.get(0, 2)];
        (
            result,
            ForwardCtx {
                tok: tok_ctx,
                pos: pos_ctx,
                blocks: block_ctxs,
                final_ln,
                head1,
                gelu,
                head2,
                seq_len: ids.len(),
            },
        )
    }

    /// Inference-only forward: the three outputs in normalized log space.
    pub fn predict_raw(&self, tokens: &[usize]) -> [f32; 3] {
        self.forward(tokens).0
    }

    /// Batched inference: packs all `paths` (CLS-prefixed, truncated to
    /// `max_len - 1` like [`forward`](Self::forward)) into one `[ΣT, dim]`
    /// matrix and runs a single forward pass on the prepacked plan, so the
    /// big FFN and projection GEMMs see tall batched operands instead of
    /// one short sequence at a time.
    ///
    /// The FFN runs on the integer kernels, so the outputs approximate
    /// [`predict_raw`](Self::predict_raw) (the f32 reference) rather than
    /// equal it. Attention is evaluated per sequence span
    /// (block-diagonal), every other sub-layer is row-wise, and
    /// activations are quantized per row, so `predict_batch(paths)[i]` is
    /// **bit-identical** to `predict_batch(&[paths[i]])[0]` for every `i`,
    /// at any batch size or composition and at every ISA level.
    ///
    /// # Panics
    ///
    /// Panics if any path is empty or contains an id ≥ vocab.
    pub fn predict_batch(&self, paths: &[&[usize]]) -> Vec<[f32; 3]> {
        if paths.is_empty() {
            return Vec::new();
        }
        let mut ids = Vec::new();
        let mut positions = Vec::new();
        let mut spans = Vec::with_capacity(paths.len());
        for &tokens in paths {
            assert!(!tokens.is_empty(), "cannot run the Circuitformer on an empty path");
            let take = tokens.len().min(self.config.max_len - 1);
            spans.push(SeqSpan { start: ids.len(), len: take + 1 });
            ids.push(self.cls_id());
            ids.extend_from_slice(&tokens[..take]);
            positions.extend(0..take + 1);
        }
        let te = self.tok.infer(&ids);
        let pe = self.pos.infer(&positions);
        let mut x = te.add(&pe);
        for (b, p) in self.blocks.iter().zip(&self.packed) {
            x = b.infer(&x, &spans, p);
        }
        let n = self.final_ln.infer(&x);
        // Gather every sequence's CLS row into one [B, dim] head input.
        let mut cls = Mat::zeros(spans.len(), self.config.dim);
        for (i, span) in spans.iter().enumerate() {
            cls.row_mut(i).copy_from_slice(n.row(span.start));
        }
        let g = Gelu.infer(&self.head1.infer(&cls));
        let out = self.head2.infer(&g);
        (0..spans.len()).map(|i| [out.get(i, 0), out.get(i, 1), out.get(i, 2)]).collect()
    }

    /// Backpropagates the output gradient, accumulating into `grads`.
    pub fn backward(&self, ctx: &ForwardCtx, d_out: [f32; 3], grads: &mut Grads) {
        let d = Mat::from_rows(&[&d_out]);
        let dg = self.head2.backward(&ctx.head2, &d, grads);
        let dh = Gelu.backward(&ctx.gelu, &dg);
        let dcls = self.head1.backward(&ctx.head1, &dh, grads);
        // Scatter the CLS gradient into a full-sequence gradient.
        let mut dn = Mat::zeros(ctx.seq_len, self.config.dim);
        dn.row_mut(0).copy_from_slice(dcls.row(0));
        let mut dx = self.final_ln.backward(&ctx.final_ln, &dn, grads);
        for (b, c) in self.blocks.iter().zip(&ctx.blocks).rev() {
            dx = b.backward(c, &dx, grads);
        }
        self.tok.backward(&ctx.tok, &dx, grads);
        self.pos.backward(&ctx.pos, &dx, grads);
    }

    /// Visits all parameters.
    pub fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.tok.visit(f);
        self.pos.visit(f);
        for b in &self.blocks {
            b.visit(f);
        }
        self.final_ln.visit(f);
        self.head1.visit(f);
        self.head2.visit(f);
    }

    /// Visits all parameters mutably, then rebuilds the prepacked
    /// inference plan from whatever the visitor left (optimizer step,
    /// parameter load), so the next prediction sees the new weights.
    pub fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.tok.visit_mut(f);
        self.pos.visit_mut(f);
        for b in &mut self.blocks {
            b.visit_mut(f);
        }
        self.final_ln.visit_mut(f);
        self.head1.visit_mut(f);
        self.head2.visit_mut(f);
        // Free the stale panels before packing the new ones, so a re-pack
        // never holds two plans at once (peak RSS during training/load).
        self.packed.clear();
        self.packed = self.blocks.iter().map(Block::pack).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Circuitformer {
        let mut rng = StdRng::seed_from_u64(7);
        Circuitformer::new(CircuitformerConfig::fast(), &mut rng)
    }

    #[test]
    fn paper_config_matches_table_2() {
        let cfg = CircuitformerConfig::paper();
        assert_eq!(cfg.vocab, 79);
        assert_eq!(cfg.layers, 2);
        assert_eq!(cfg.heads, 2);
        assert_eq!(cfg.dim, 128);
        assert_eq!(cfg.max_len, 512);
        let mut rng = StdRng::seed_from_u64(0);
        let m = Circuitformer::new(cfg, &mut rng);
        let n = m.parameter_count();
        assert!(
            (1_300_000..1_500_000).contains(&n),
            "paper config should be ≈1.4M parameters, got {n}"
        );
    }

    #[test]
    fn forward_is_deterministic_and_finite() {
        let m = model();
        let a = m.predict_raw(&[1, 2, 3, 4, 5]);
        let b = m.predict_raw(&[1, 2, 3, 4, 5]);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn order_changes_the_prediction() {
        // The §3.3 motivating property: [mul, add] ≠ [add, mul].
        let m = model();
        let a = m.predict_raw(&[3, 40, 44, 9]);
        let b = m.predict_raw(&[3, 44, 40, 9]);
        assert_ne!(a, b, "Circuitformer must be order-sensitive");
    }

    #[test]
    fn long_sequences_are_truncated() {
        let m = model();
        let long = vec![5usize; 600];
        let out = m.predict_raw(&long);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn gradients_flow_to_every_parameter_tensor() {
        let m = model();
        let mut grads = Grads::new(m.registry());
        let (_, ctx) = m.forward(&[1, 2, 3]);
        m.backward(&ctx, [1.0, -1.0, 0.5], &mut grads);
        let mut zero_tensors = Vec::new();
        m.visit(&mut |p| {
            if grads.get(p.id).norm() == 0.0 {
                zero_tensors.push(p.name.clone());
            }
        });
        // The positional table only gets gradient at used positions; every
        // *tensor* should still be nonzero except none.
        assert!(zero_tensors.is_empty(), "no gradient reached: {zero_tensors:?}");
    }

    fn params_bytes(m: &Circuitformer) -> Vec<u8> {
        let mut out = Vec::new();
        sns_nn::write_params(&mut out, |f| m.visit(f));
        out
    }

    fn load_bytes(m: &mut Circuitformer, bytes: &[u8]) -> Result<(), String> {
        let mut r = sns_nn::ByteReader::new(bytes);
        sns_nn::read_params(&mut r, |f| m.visit_mut(f))?;
        r.finish()
    }

    #[test]
    fn parameter_count_from_the_shape_matches_the_built_model() {
        let tiny = CircuitformerConfig {
            dim: 32,
            ffn_dim: 64,
            max_len: 64,
            layers: 3,
            ..CircuitformerConfig::fast()
        };
        for cfg in [CircuitformerConfig::paper(), CircuitformerConfig::fast(), tiny] {
            let mut rng = StdRng::seed_from_u64(0);
            let built = Circuitformer::new(cfg.clone(), &mut rng).parameter_count();
            assert_eq!(cfg.parameter_count(), Some(built), "{cfg:?}");
        }
        let huge = CircuitformerConfig { layers: usize::MAX, ..CircuitformerConfig::fast() };
        assert_eq!(huge.parameter_count(), None);
    }

    #[test]
    fn save_load_round_trip_preserves_predictions() {
        let m = model();
        let bytes = params_bytes(&m);
        let mut rng = StdRng::seed_from_u64(999);
        let mut m2 = Circuitformer::new(CircuitformerConfig::fast(), &mut rng);
        assert_ne!(m.predict_raw(&[1, 2, 3]), m2.predict_raw(&[1, 2, 3]));
        load_bytes(&mut m2, &bytes).unwrap();
        assert_eq!(m.predict_raw(&[1, 2, 3]), m2.predict_raw(&[1, 2, 3]));
    }

    #[test]
    fn load_rejects_wrong_architecture() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(1);
        let mut other = Circuitformer::new(
            CircuitformerConfig { ffn_dim: 256, ..CircuitformerConfig::fast() },
            &mut rng,
        );
        assert!(load_bytes(&mut other, &params_bytes(&m)).is_err());
    }

    #[test]
    #[should_panic(expected = "empty path")]
    fn empty_path_panics() {
        let _ = model().predict_raw(&[]);
    }

    /// How far the integer-FFN inference path may sit from the f32
    /// reference forward, per output in normalized log space.
    fn within_quantization_bound(batched: [f32; 3], raw: [f32; 3]) -> bool {
        batched.iter().zip(&raw).all(|(b, r)| (b - r).abs() <= 0.02 + 0.02 * r.abs())
    }

    #[test]
    fn predict_batch_is_batch_invariant_and_near_predict_raw() {
        // Random length-mixed batches: every batched output must equal the
        // same path predicted alone bit for bit, whatever the batch mix,
        // and stay within the quantization bound of the f32 forward.
        let m = model();
        let mut rng = StdRng::seed_from_u64(2024);
        for round in 0..5 {
            let batch_size = rng.gen_range(1usize..9);
            let paths: Vec<Vec<usize>> = (0..batch_size)
                .map(|_| {
                    let len = rng.gen_range(1usize..40);
                    (0..len).map(|_| rng.gen_range(0usize..79)).collect()
                })
                .collect();
            let refs: Vec<&[usize]> = paths.iter().map(|p| p.as_slice()).collect();
            let batched = m.predict_batch(&refs);
            assert_eq!(batched.len(), batch_size);
            for (i, path) in paths.iter().enumerate() {
                let solo = m.predict_batch(&[path.as_slice()])[0];
                for d in 0..3 {
                    assert_eq!(
                        batched[i][d].to_bits(),
                        solo[d].to_bits(),
                        "round {round} path {i} dim {d}: batched={} solo={}",
                        batched[i][d],
                        solo[d]
                    );
                }
                let raw = m.predict_raw(path);
                assert!(
                    within_quantization_bound(solo, raw),
                    "round {round} path {i}: batched {solo:?} raw {raw:?}"
                );
            }
        }
    }

    #[test]
    fn packed_plan_follows_every_weight_change() {
        let mut m = model();
        assert!(m.prepack_bytes() > 0);
        let path = [1usize, 2, 3];
        let batch = |m: &Circuitformer| m.predict_batch(&[&path[..]])[0].map(f32::to_bits);
        // A model read from `m`'s bytes packs its plan anew.
        let fresh = |m: &Circuitformer| {
            let bytes = params_bytes(m);
            let read = Circuitformer::read(m.config().clone(), &mut sns_nn::ByteReader::new(&bytes));
            batch(&read.unwrap())
        };
        let before = batch(&m);
        assert_eq!(before, fresh(&m));
        // A visit that rewrites every projection (all packed weights) is
        // visible in the very next batched prediction.
        let bytes = params_bytes(&m);
        m.visit_mut(&mut |p| {
            if p.name.starts_with("linear") {
                for v in p.value.as_mut_slice() {
                    *v *= 1.5;
                }
            }
        });
        assert_ne!(batch(&m), before);
        assert_eq!(batch(&m), fresh(&m));
        // So is a load.
        load_bytes(&mut m, &bytes).unwrap();
        assert_eq!(batch(&m), before);
    }

    #[test]
    fn predict_batch_handles_empty_and_truncated_inputs() {
        let m = model();
        assert!(m.predict_batch(&[]).is_empty());
        // A >max_len path batches identically to its truncated solo run.
        let long = vec![5usize; 600];
        let truncated = vec![5usize; m.config().max_len - 1];
        let short = vec![3usize, 40, 44];
        let batched = m.predict_batch(&[&long, &short]);
        assert_eq!(batched[0], m.predict_batch(&[&truncated])[0]);
        assert_eq!(batched[1], m.predict_batch(&[&short])[0]);
    }
}
