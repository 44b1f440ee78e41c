//! # sns-nn
//!
//! A small, dependency-free neural-network library built for SNS: the
//! substrate that replaces PyTorch + HuggingFace in this reproduction.
//!
//! Design points:
//!
//! * **Manual backprop, functional style.** Layers own their parameters
//!   (values only); `forward` returns an output plus a context struct, and
//!   `backward` consumes the context and accumulates into an external
//!   [`Grads`] buffer. Because nothing mutable lives in the layer during
//!   the pass, whole models are `Sync` and minibatches can be split across
//!   threads (each thread owns its own `Grads`, summed afterwards).
//! * **Matrix-centric.** Everything is a 2-D [`Mat`]. Training processes
//!   one sequence at a time (circuit paths are short); inference can pack
//!   many sequences into one matrix as block-diagonal spans ([`SeqSpan`])
//!   so they share the blocked GEMM kernels in [`gemm`].
//! * **Integer feed-forward inference.** [`QuantLinear`] runs a linear
//!   layer on u8 × s8 GEMMs with exact i32 sums ([`qgemm`]): weights
//!   quantized per column at pack time, activations per row at run time,
//!   so a row's outputs do not depend on its batch and every ISA level
//!   gives the same bits. Everything else stays f32 under the GEMM FMA
//!   contract.
//! * **Everything SNS needs, nothing more:** linear, embedding, layer norm,
//!   multi-head self-attention, GELU/ReLU/tanh/sigmoid, GRU (for SeqGAN),
//!   MSE / BCE / cross-entropy losses, SGD with momentum and Adam, and
//!   little-endian byte serialization of parameters ([`serialize`]).
//!
//! # Example: fitting a tiny regression
//!
//! ```rust
//! use sns_nn::{Adam, Grads, Linear, Mat, Optimizer, ParamRegistry, Relu};
//!
//! let mut rng = sns_rt::rng::StdRng::seed_from_u64(1);
//! let mut reg = ParamRegistry::new();
//! let mut l1 = Linear::new(&mut reg, 2, 16, &mut rng);
//! let mut l2 = Linear::new(&mut reg, 16, 1, &mut rng);
//! let mut opt = Adam::new(0.01);
//! let x = Mat::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
//! let t = Mat::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]); // XOR
//! let mut last = f32::MAX;
//! for _ in 0..500 {
//!     let mut grads = Grads::new(&reg);
//!     let (h, c1) = l1.forward(&x);
//!     let (a, ca) = Relu.forward(&h);
//!     let (y, c2) = l2.forward(&a);
//!     let (loss, dy) = sns_nn::mse_loss(&y, &t);
//!     let da = l2.backward(&c2, &dy, &mut grads);
//!     let dh = Relu.backward(&ca, &da);
//!     l1.backward(&c1, &dh, &mut grads);
//!     opt.step_visit(&mut grads, |f| { l1.visit_mut(f); l2.visit_mut(f); });
//!     last = loss;
//! }
//! assert!(last < 0.05, "XOR did not converge: {last}");
//! ```

pub mod act;
pub mod attention;
pub mod embedding;
pub mod fma;
pub mod gemm;
pub mod gru;
pub mod isa;
pub mod linear;
pub mod loss;
pub mod mat;
pub mod norm;
pub mod optim;
pub mod param;
pub mod qgemm;
pub mod serialize;

pub use act::{Gelu, Relu, Sigmoid, Tanh};
pub use attention::{AttentionCtx, MultiHeadAttention, PackedAttention, SeqSpan};
pub use embedding::{Embedding, EmbeddingCtx};
pub use fma::fma32;
pub use gemm::PackedB;
pub use gru::{Gru, GruCtx};
pub use isa::Isa;
pub use linear::{Linear, LinearCtx, QuantLinear};
pub use loss::{bce_with_logits_loss, mse_loss, softmax_cross_entropy};
pub use mat::Mat;
pub use norm::{LayerNorm, LayerNormCtx};
pub use optim::{Adam, Optimizer, Sgd};
pub use param::{Grads, Param, ParamId, ParamRegistry};
pub use qgemm::{PackedS8, QuantRows};
pub use serialize::{read_params, write_params, ByteReader};
