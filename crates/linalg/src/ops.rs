//! Matrix-level arithmetic: products, transposed products, broadcasting and
//! element-wise combinations.
//!
//! Contrastive divergence needs three product shapes per mini-batch:
//! `V · W` (visible → hidden pre-activations), `H · Wᵀ` (hidden → visible
//! reconstruction) and `Vᵀ · H` (the positive/negative statistics
//! `<v_i h_j>`). [`Matrix::matmul_transpose_left`] reads its left operand
//! down its columns, without materialising the transpose;
//! [`Matrix::matmul_transpose_right`] transposes its right operand once per
//! call and runs the `matmul` kernel on the copy.

use crate::{LinalgError, Matrix, ParallelPolicy, Result};

impl Matrix {
    /// Standard matrix product `self · other`.
    ///
    /// Runs under the process-wide [`ParallelPolicy::global`] (serial unless
    /// configured otherwise); see [`Matrix::matmul_with`] for an explicit
    /// policy. All products are IEEE-faithful: a NaN or infinity anywhere in
    /// either operand propagates into the result, even when the matching
    /// element of the other operand is zero.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        self.matmul_with(other, &ParallelPolicy::global())
    }

    /// Product with the right operand transposed: `self · otherᵀ`.
    ///
    /// Both operands must have the same number of columns. Runs under the
    /// process-wide [`ParallelPolicy::global`]; see
    /// [`Matrix::matmul_transpose_right_with`] for an explicit policy.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != other.cols()`.
    pub fn matmul_transpose_right(&self, other: &Matrix) -> Result<Matrix> {
        self.matmul_transpose_right_with(other, &ParallelPolicy::global())
    }

    /// Product with the left operand transposed: `selfᵀ · other`.
    ///
    /// Both operands must have the same number of rows. This is the shape of
    /// the CD statistics `Vᵀ H` (a `n_visible x n_hidden` matrix). Runs under
    /// the process-wide [`ParallelPolicy::global`]; see
    /// [`Matrix::matmul_transpose_left_with`] for an explicit policy.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.rows() != other.rows()`.
    pub fn matmul_transpose_left(&self, other: &Matrix) -> Result<Matrix> {
        self.matmul_transpose_left_with(other, &ParallelPolicy::global())
    }

    /// Element-wise sum `self + other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Combines two equally-shaped matrices element-wise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn zip_with(
        &self,
        other: &Matrix,
        op: &'static str,
        mut f: impl FnMut(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op,
                left: self.shape(),
                right: other.shape(),
            });
        }
        let data = self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Matrix::from_vec(self.rows(), self.cols(), data)
    }

    /// Multiplies every element by `alpha`, returning a new matrix.
    pub fn scale(&self, alpha: f64) -> Matrix {
        self.map(|x| alpha * x)
    }

    /// Adds `row` to every row of `self` (broadcasting along the row axis).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `row.len() != self.cols()`.
    pub fn add_row_broadcast(&self, row: &[f64]) -> Result<Matrix> {
        if row.len() != self.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "add_row_broadcast",
                left: self.shape(),
                right: (1, row.len()),
            });
        }
        let mut out = self.clone();
        for i in 0..out.rows() {
            for (x, y) in out.row_mut(i).iter_mut().zip(row) {
                *x += y;
            }
        }
        Ok(out)
    }

    /// Column sums as a vector of length `cols`.
    pub fn column_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols()];
        for row in self.row_iter() {
            for (sum, x) in sums.iter_mut().zip(row) {
                *sum += x;
            }
        }
        sums
    }

    /// Column means as a vector of length `cols`; zeros if there are no rows.
    pub fn column_means(&self) -> Vec<f64> {
        if self.rows() == 0 {
            return vec![0.0; self.cols()];
        }
        let scale = 1.0 / self.rows() as f64;
        self.column_sums().iter().map(|sum| sum * scale).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap()
    }

    fn b() -> Matrix {
        Matrix::from_rows(&[vec![7.0, 8.0, 9.0], vec![10.0, 11.0, 12.0]]).unwrap()
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let c = a().matmul(&b()).unwrap();
        let expected = Matrix::from_rows(&[
            vec![27.0, 30.0, 33.0],
            vec![61.0, 68.0, 75.0],
            vec![95.0, 106.0, 117.0],
        ])
        .unwrap();
        assert_eq!(c, expected);
    }

    #[test]
    fn matmul_shape_mismatch() {
        assert!(a().matmul(&a()).is_err());
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = a();
        assert_eq!(m.matmul(&Matrix::identity(2)).unwrap(), m);
    }

    #[test]
    fn transposed_products_agree_with_explicit_transpose() {
        let m = a();
        let n = b();
        // m (3x2), n (2x3): m · n == m.matmul_transpose_right(nᵀ)
        let direct = m.matmul(&n).unwrap();
        let via_tr = m.matmul_transpose_right(&n.transpose()).unwrap();
        assert!(direct.approx_eq(&via_tr, 1e-12));

        // mᵀ · m == m.matmul_transpose_left(m)
        let gram = m.transpose().matmul(&m).unwrap();
        let via_tl = m.matmul_transpose_left(&m).unwrap();
        assert!(gram.approx_eq(&via_tl, 1e-12));
    }

    #[test]
    fn transposed_products_shape_errors() {
        assert!(a().matmul_transpose_right(&b()).is_err());
        assert!(a().matmul_transpose_left(&b()).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let m = a();
        let sum = m.add(&m).unwrap();
        assert_eq!(sum[(2, 1)], 12.0);
        let diff = m.sub(&m).unwrap();
        assert_eq!(diff.sum(), 0.0);
        assert!(m.add(&b()).is_err());
    }

    #[test]
    fn scale_returns_new() {
        let m = a().scale(10.0);
        assert_eq!(m[(0, 1)], 20.0);
    }

    #[test]
    fn add_row_broadcast_adds_bias() {
        let m = a().add_row_broadcast(&[100.0, 200.0]).unwrap();
        assert_eq!(m[(0, 0)], 101.0);
        assert_eq!(m[(2, 1)], 206.0);
        assert!(a().add_row_broadcast(&[1.0]).is_err());
    }

    #[test]
    fn column_sums_and_means() {
        let m = a();
        assert_eq!(m.column_sums(), vec![9.0, 12.0]);
        assert_eq!(m.column_means(), vec![3.0, 4.0]);
        let empty = Matrix::zeros(0, 3);
        assert_eq!(empty.column_means(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn matmul_handles_sparse_left_operand() {
        let sparse = Matrix::from_rows(&[vec![0.0, 2.0], vec![3.0, 0.0]]).unwrap();
        let c = sparse.matmul(&b()).unwrap();
        let dense_equiv =
            Matrix::from_rows(&[vec![20.0, 22.0, 24.0], vec![21.0, 24.0, 27.0]]).unwrap();
        assert_eq!(c, dense_equiv);
    }

    #[test]
    fn matmul_propagates_nan_past_zero_entries() {
        // Regression: a `a_ip == 0.0 { continue; }` shortcut used to skip
        // `0.0 × NaN`, so a diverged weight matrix went undetected whenever
        // the left operand had zeros — the common case on binarized data.
        let mostly_zero = Matrix::from_rows(&[vec![0.0, 1.0], vec![0.0, 0.0]]).unwrap();
        let mut diverged = b();
        diverged[(0, 1)] = f64::NAN;
        let c = mostly_zero.matmul(&diverged).unwrap();
        // Row 0 multiplies the NaN row of `diverged` by 0.0: still NaN.
        assert!(c[(0, 1)].is_nan());
        assert!(c[(1, 1)].is_nan());
        assert!(!c.is_finite());

        // Same IEEE semantics for infinities: 0.0 × inf = NaN.
        let mut inf = b();
        inf[(0, 0)] = f64::INFINITY;
        let c = mostly_zero.matmul(&inf).unwrap();
        assert!(c[(1, 0)].is_nan());
    }

    #[test]
    fn transpose_left_propagates_nan_past_zero_entries() {
        // `matmul_transpose_left` skipped on zeros of the (transposed) left
        // operand; it must propagate NaN from the other operand.
        let left = Matrix::from_rows(&[vec![0.0, 1.0], vec![0.0, 2.0]]).unwrap();
        let mut right = Matrix::from_rows(&[vec![1.0], vec![f64::NAN]]).unwrap();
        let c = left.matmul_transpose_left(&right).unwrap();
        assert!(c[(0, 0)].is_nan(), "column of zeros × NaN row must be NaN");
        assert!(c[(1, 0)].is_nan());
        right[(1, 0)] = 1.0;
        assert!(left.matmul_transpose_left(&right).unwrap().is_finite());
    }
}
