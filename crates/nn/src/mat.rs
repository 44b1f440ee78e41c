//! Row-major 2-D matrices with the operations the layers need.

use std::fmt;

use crate::fma::fma32;

/// A row-major matrix of `f32`.
///
/// # Example
///
/// ```rust
/// use sns_nn::Mat;
///
/// let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Mat::eye(2);
/// assert_eq!(a.matmul(&b).as_slice(), a.as_slice());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Mat {
    /// A matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// A matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Mat { rows, cols, data: vec![value; rows * cols] }
    }

    /// The identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Mat { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths or no rows are given.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "no rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Mat { rows: rows.len(), cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The flat row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row, mutably.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// `self @ other` via the blocked GEMM kernel ([`crate::gemm`]).
    ///
    /// Bit-identical to [`matmul_ref`](Self::matmul_ref): the kernel keeps
    /// the naive loop's chain of fused multiply-adds and only re-tiles the
    /// output loops for cache and register reuse.
    ///
    /// # Panics
    ///
    /// Panics on an inner-dimension mismatch.
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.rows, "matmul inner dims {} vs {}", self.cols, other.rows);
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Mat::zeros(m, n);
        crate::gemm::gemm_nn(m, k, n, &self.data, &other.data, &mut out.data);
        out
    }

    /// `selfᵀ @ other` without materializing the transpose (blocked;
    /// bit-identical to [`matmul_tn_ref`](Self::matmul_tn_ref)).
    ///
    /// # Panics
    ///
    /// Panics on a row-count mismatch.
    pub fn matmul_tn(&self, other: &Mat) -> Mat {
        assert_eq!(self.rows, other.rows, "matmul_tn outer dims");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let mut out = Mat::zeros(m, n);
        crate::gemm::gemm_tn(m, k, n, &self.data, &other.data, &mut out.data);
        out
    }

    /// `self @ otherᵀ` without materializing the transpose (blocked;
    /// bit-identical to [`matmul_nt_ref`](Self::matmul_nt_ref)).
    ///
    /// # Panics
    ///
    /// Panics on a column-count mismatch.
    pub fn matmul_nt(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.cols, "matmul_nt inner dims");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Mat::zeros(m, n);
        crate::gemm::gemm_nt(m, k, n, &self.data, &other.data, &mut out.data);
        out
    }

    /// `self @ B` against a weight matrix repacked once at model load
    /// ([`crate::gemm::PackedB`]). Runs the blocked schedule with the
    /// per-call `pack_b` stage deleted, so it is bit-identical to
    /// [`matmul`](Self::matmul) and [`matmul_ref`](Self::matmul_ref) while
    /// skipping the packing traffic that dominates small-`m` calls.
    ///
    /// # Panics
    ///
    /// Panics on an inner-dimension mismatch.
    pub fn matmul_prepacked(&self, pb: &crate::gemm::PackedB) -> Mat {
        assert_eq!(self.cols, pb.k(), "matmul_prepacked inner dims {} vs {}", self.cols, pb.k());
        let mut out = Mat::zeros(self.rows, pb.n());
        crate::gemm::gemm_prepacked_nn(self.rows, &self.data, pb, &mut out.data);
        out
    }

    /// Reference `self @ other`: the naive ikj triple loop. This is the
    /// semantic contract the blocked kernel must match bit-for-bit — each
    /// `out[i][j]` takes `acc = fma(a(i,l), b(l,j), acc)` from `0.0` with
    /// `l` strictly ascending, each step rounded once to `f32` (through the
    /// portable [`fma32`]). Kept for equivalence tests and as
    /// the micro-benchmark baseline.
    ///
    /// # Panics
    ///
    /// Panics on an inner-dimension mismatch.
    pub fn matmul_ref(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.rows, "matmul inner dims {} vs {}", self.cols, other.rows);
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Mat::zeros(m, n);
        for i in 0..m {
            let arow = &self.data[i * k..(i + 1) * k];
            let crow = &mut out.data[i * n..(i + 1) * n];
            for (l, &a) in arow.iter().enumerate() {
                let brow = &other.data[l * n..(l + 1) * n];
                for j in 0..n {
                    crow[j] = fma32(a, brow[j], crow[j]);
                }
            }
        }
        out
    }

    /// Reference `selfᵀ @ other` (naive loop; see [`matmul_ref`](Self::matmul_ref)).
    ///
    /// # Panics
    ///
    /// Panics on a row-count mismatch.
    pub fn matmul_tn_ref(&self, other: &Mat) -> Mat {
        assert_eq!(self.rows, other.rows, "matmul_tn outer dims");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let mut out = Mat::zeros(m, n);
        for l in 0..k {
            let arow = &self.data[l * m..(l + 1) * m];
            let brow = &other.data[l * n..(l + 1) * n];
            for (i, &a) in arow.iter().enumerate() {
                let crow = &mut out.data[i * n..(i + 1) * n];
                for j in 0..n {
                    crow[j] = fma32(a, brow[j], crow[j]);
                }
            }
        }
        out
    }

    /// Reference `self @ otherᵀ` (naive loop; see [`matmul_ref`](Self::matmul_ref)).
    ///
    /// # Panics
    ///
    /// Panics on a column-count mismatch.
    pub fn matmul_nt_ref(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.cols, "matmul_nt inner dims");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Mat::zeros(m, n);
        for i in 0..m {
            let arow = &self.data[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &other.data[j * k..(j + 1) * k];
                let mut acc = 0.0;
                for l in 0..k {
                    acc = fma32(arow[l], brow[l], acc);
                }
                out.data[i * n + j] = acc;
            }
        }
        out
    }

    /// The explicit transpose, tiled `TB × TB` so both the read and the
    /// write side stay within a few cache lines per tile.
    pub fn transposed(&self) -> Mat {
        const TB: usize = 32;
        let (rows, cols) = (self.rows, self.cols);
        let mut out = Mat::zeros(cols, rows);
        let mut ib = 0;
        while ib < rows {
            let ie = (ib + TB).min(rows);
            let mut jb = 0;
            while jb < cols {
                let je = (jb + TB).min(cols);
                for i in ib..ie {
                    for j in jb..je {
                        out.data[j * rows + i] = self.data[i * cols + j];
                    }
                }
                jb = je;
            }
            ib = ie;
        }
        out
    }

    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch.
    pub fn add(&self, other: &Mat) -> Mat {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "add shapes");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Mat { rows: self.rows, cols: self.cols, data }
    }

    /// In-place elementwise accumulate.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch.
    pub fn add_assign(&mut self, other: &Mat) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "add shapes");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Adds a row vector to every row, in place on `self` (callers pass
    /// the fresh GEMM output they own, so nothing is cloned).
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != self.cols()`.
    pub fn add_row_broadcast(mut self, bias: &[f32]) -> Mat {
        assert_eq!(bias.len(), self.cols, "bias width");
        for r in 0..self.rows {
            for (x, b) in self.row_mut(r).iter_mut().zip(bias) {
                *x += b;
            }
        }
        self
    }

    /// Elementwise product.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch.
    pub fn hadamard(&self, other: &Mat) -> Mat {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "hadamard shapes");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a * b).collect();
        Mat { rows: self.rows, cols: self.cols, data }
    }

    /// Scalar multiply.
    pub fn scale(&self, s: f32) -> Mat {
        let data = self.data.iter().map(|a| a * s).collect();
        Mat { rows: self.rows, cols: self.cols, data }
    }

    /// Applies `f` elementwise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Mat {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Mat { rows: self.rows, cols: self.cols, data }
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&self) -> Mat {
        let mut out = self.clone();
        for r in 0..self.rows {
            let row = out.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            for x in row.iter_mut() {
                *x /= sum;
            }
        }
        out
    }

    /// Mean over rows → a 1×cols matrix.
    pub fn mean_rows(&self) -> Mat {
        let mut out = Mat::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, x) in out.data.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
        let inv = 1.0 / self.rows.max(1) as f32;
        for o in out.data.iter_mut() {
            *o *= inv;
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Vertical concatenation of rows from `mats`.
    ///
    /// # Panics
    ///
    /// Panics if column counts differ or the list is empty.
    pub fn vstack(mats: &[&Mat]) -> Mat {
        assert!(!mats.is_empty(), "vstack of nothing");
        let cols = mats[0].cols;
        let rows = mats.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in mats {
            assert_eq!(m.cols, cols, "vstack widths differ");
            data.extend_from_slice(&m.data);
        }
        Mat { rows, cols, data }
    }

    /// A copy of a row range `[start, end)` as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn rows_slice(&self, start: usize, end: usize) -> Mat {
        assert!(start <= end && end <= self.rows, "row range");
        Mat {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }
}

impl fmt::Display for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{}", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", &self.row(r)[..self.cols.min(8)])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        assert_eq!(a.matmul(&b), Mat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    /// Each reference step is one fused multiply-add: `l = 0` leaves
    /// `-(1 + 2⁻¹¹)`, then `x·x + acc` with `x = 1 + 2⁻¹²` is exactly
    /// `2⁻²⁴`. Rounding `x·x` first would tie to `1 + 2⁻¹¹` and give 0.
    #[test]
    fn references_fuse_each_step() {
        let x = 1.0 + 1.0 / 4096.0;
        let c = -(1.0 + 1.0 / 2048.0);
        let want = 1.0 / 16_777_216.0;
        let a = Mat::from_rows(&[&[1.0, x]]);
        let b = Mat::from_rows(&[&[c], &[x]]);
        assert_eq!(a.matmul_ref(&b).get(0, 0), want);
        assert_eq!(a.matmul_nt_ref(&b.transposed()).get(0, 0), want);
        assert_eq!(a.transposed().matmul_tn_ref(&b).get(0, 0), want);
        assert_eq!(a.matmul(&b).get(0, 0), want);
    }

    #[test]
    fn transpose_variants_agree() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Mat::from_rows(&[&[1.0, 0.5], &[2.0, -1.0], &[0.0, 3.0]]);
        // a @ b == a.matmul_nt(bᵀ)
        assert_eq!(a.matmul_nt(&b.transposed()), a.matmul(&b));
        // a @ b == (aᵀ).matmul_tn(b)
        assert_eq!(a.transposed().matmul_tn(&b), a.matmul(&b));
        // (aᵀ)ᵀ == a
        assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let m = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, 0.0, 0.0]]);
        let s = m.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        assert!(s.get(0, 2) > s.get(0, 0));
        assert!((s.get(1, 0) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn broadcast_and_reductions() {
        let m = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = m.clone().add_row_broadcast(&[10.0, 20.0]);
        assert_eq!(b, Mat::from_rows(&[&[11.0, 22.0], &[13.0, 24.0]]));
        assert_eq!(m.mean_rows(), Mat::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(m.sum(), 10.0);
        assert!((m.norm() - 30f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn stack_and_slice_round_trip() {
        let a = Mat::from_rows(&[&[1.0, 2.0]]);
        let b = Mat::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let s = Mat::vstack(&[&a, &b]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.rows_slice(1, 3), b);
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_shape_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
