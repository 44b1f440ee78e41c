//! Token embedding lookup.

use sns_rt::rng::StdRng;

use crate::mat::Mat;
use crate::param::{Grads, Param, ParamRegistry};

/// An embedding table mapping token ids to learned vectors.
///
/// Used twice in the Circuitformer: token embeddings over the 79-entry
/// GraphIR vocabulary and learned positional embeddings over the 512
/// positions.
#[derive(Debug, Clone)]
pub struct Embedding {
    table: Param,
    dim: usize,
}

/// Saved forward state for [`Embedding::backward`].
#[derive(Debug, Clone)]
pub struct EmbeddingCtx {
    ids: Vec<usize>,
}

impl Embedding {
    /// Creates a table of `vocab` rows of dimension `dim`, N(0, 0.02).
    pub fn new(reg: &mut ParamRegistry, vocab: usize, dim: usize, rng: &mut StdRng) -> Self {
        let mut e = Embedding::zeros(reg, vocab, dim);
        for v in e.table.value.as_mut_slice() {
            *v = rng.normal_f32(0.02);
        }
        e
    }

    /// Creates an all-zero table, for a model whose weights are about to
    /// be loaded: no random draws.
    pub fn zeros(reg: &mut ParamRegistry, vocab: usize, dim: usize) -> Self {
        Embedding { table: reg.alloc(format!("embedding{vocab}x{dim}"), Mat::zeros(vocab, dim)), dim }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows (vocabulary size).
    pub fn vocab(&self) -> usize {
        self.table.value.rows()
    }

    /// Looks up a sequence of token ids, producing `[len, dim]`.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn forward(&self, ids: &[usize]) -> (Mat, EmbeddingCtx) {
        (self.infer(ids), EmbeddingCtx { ids: ids.to_vec() })
    }

    /// Inference-only lookup: same rows as [`forward`](Self::forward)
    /// without recording the ids for backward.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn infer(&self, ids: &[usize]) -> Mat {
        let mut out = Mat::zeros(ids.len(), self.dim);
        for (r, &id) in ids.iter().enumerate() {
            assert!(id < self.table.value.rows(), "token id {id} out of range");
            out.row_mut(r).copy_from_slice(self.table.value.row(id));
        }
        out
    }

    /// Scatters `dy` back into the table gradient.
    pub fn backward(&self, ctx: &EmbeddingCtx, dy: &Mat, grads: &mut Grads) {
        let g = grads.get_mut(self.table.id);
        for (r, &id) in ctx.ids.iter().enumerate() {
            for (gv, dv) in g.row_mut(id).iter_mut().zip(dy.row(r)) {
                *gv += dv;
            }
        }
    }

    /// Visits the table parameter.
    pub fn visit(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.table);
    }

    /// Visits the table parameter mutably.
    pub fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_copies_rows() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut reg = ParamRegistry::new();
        let e = Embedding::new(&mut reg, 10, 4, &mut rng);
        let (out, _) = e.forward(&[3, 3, 7]);
        assert_eq!(out.rows(), 3);
        assert_eq!(out.row(0), out.row(1));
        assert_ne!(out.row(0), out.row(2));
        assert_eq!(e.vocab(), 10);
        assert_eq!(e.dim(), 4);
    }

    #[test]
    fn backward_scatters_and_accumulates() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut reg = ParamRegistry::new();
        let e = Embedding::new(&mut reg, 5, 2, &mut rng);
        let (_, ctx) = e.forward(&[1, 1, 2]);
        let mut grads = Grads::new(&reg);
        let dy = Mat::from_rows(&[&[1.0, 0.0], &[1.0, 0.0], &[0.0, 5.0]]);
        e.backward(&ctx, &dy, &mut grads);
        let mut gid = None;
        e.visit(&mut |p| gid = Some(p.id));
        let g = grads.get(gid.unwrap());
        assert_eq!(g.row(1), &[2.0, 0.0]); // two hits on token 1
        assert_eq!(g.row(2), &[0.0, 5.0]);
        assert_eq!(g.row(0), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_token_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut reg = ParamRegistry::new();
        let e = Embedding::new(&mut reg, 3, 2, &mut rng);
        let _ = e.forward(&[3]);
    }
}
