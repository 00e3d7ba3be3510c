//! The raw tensor type: row-major f32 storage with shape metadata.

use std::fmt;

/// A dense row-major f32 tensor.
///
/// ```
/// use ascend_tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = a.transpose2();
/// assert_eq!(b.data(), &[1.0, 3.0, 2.0, 4.0]);
/// let c = a.matmul(&b);
/// assert_eq!(c.shape(), &[2, 2]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// All-zero tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor { data: vec![0.0; shape.iter().product()], shape: shape.to_vec() }
    }

    /// All-one tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor { data: vec![value; shape.iter().product()], shape: shape.to_vec() }
    }

    /// A 0-dimensional-like scalar, stored as shape `\[1\]`.
    pub fn scalar(value: f32) -> Self {
        Tensor { data: vec![value], shape: vec![1] }
    }

    /// Builds from data and shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape product.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor { data, shape: shape.to_vec() }
    }

    /// Shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Borrows the flat data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the flat data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes into the flat data.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Consumes into `(data, shape)` — the serialization-friendly raw parts.
    pub fn into_parts(self) -> (Vec<f32>, Vec<usize>) {
        (self.data, self.shape)
    }

    /// Rebuilds a tensor from raw parts without panicking, for
    /// deserializers that must surface malformed inputs as errors.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch if `data.len()` is not the
    /// shape product (computed with overflow checks).
    pub fn try_from_parts(data: Vec<f32>, shape: Vec<usize>) -> Result<Self, String> {
        let numel = shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| format!("shape {shape:?} overflows the element count"))?;
        if data.len() != numel {
            return Err(format!(
                "data length {} does not match shape {:?} ({} elements)",
                data.len(),
                shape,
                numel
            ));
        }
        Ok(Tensor { data, shape })
    }

    /// The single value of a one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() on tensor of shape {:?}", self.shape);
        self.data[0]
    }

    /// Reshapes (same element count).
    ///
    /// # Panics
    ///
    /// Panics if the element count differs.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        assert_eq!(
            self.numel(),
            shape.iter().product::<usize>(),
            "cannot reshape {:?} into {:?}",
            self.shape,
            shape
        );
        Tensor { data: self.data.clone(), shape: shape.to_vec() }
    }

    /// 2-D matrix product `[n,k]·[k,m] → [n,m]` (ikj loop order).
    ///
    /// # Panics
    ///
    /// Panics unless both operands are 2-D with matching inner dimension.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be 2-D, got {:?}", self.shape);
        assert_eq!(other.shape.len(), 2, "matmul rhs must be 2-D, got {:?}", other.shape);
        let (n, k) = (self.shape[0], self.shape[1]);
        let (k2, m) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");
        let mut out = vec![0.0f32; n * m];
        for i in 0..n {
            let arow = &self.data[i * k..(i + 1) * k];
            let orow = &mut out[i * m..(i + 1) * m];
            for (p, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[p * m..(p + 1) * m];
                for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                    *o += a * b;
                }
            }
        }
        Tensor { data: out, shape: vec![n, m] }
    }

    /// Batched matrix product `[b,n,k]·[b,k,m] → [b,n,m]`.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are 3-D with matching batch and inner
    /// dimensions.
    pub fn batched_matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 3, "batched matmul lhs must be 3-D");
        assert_eq!(other.shape.len(), 3, "batched matmul rhs must be 3-D");
        assert_eq!(self.shape[0], other.shape[0], "batch dims differ");
        let (b, n, k) = (self.shape[0], self.shape[1], self.shape[2]);
        let m = other.shape[2];
        assert_eq!(k, other.shape[1], "inner dimensions differ");
        let mut out = vec![0.0f32; b * n * m];
        for bi in 0..b {
            for i in 0..n {
                let arow = &self.data[bi * n * k + i * k..bi * n * k + (i + 1) * k];
                let orow = &mut out[bi * n * m + i * m..bi * n * m + (i + 1) * m];
                for (p, &a) in arow.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    let brow = &other.data[bi * k * m + p * m..bi * k * m + (p + 1) * m];
                    for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                        *o += a * bv;
                    }
                }
            }
        }
        Tensor { data: out, shape: vec![b, n, m] }
    }

    /// 2-D transpose.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is 2-D.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose2 needs a 2-D tensor");
        let (n, m) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; n * m];
        for i in 0..n {
            for j in 0..m {
                out[j * n + i] = self.data[i * m + j];
            }
        }
        Tensor { data: out, shape: vec![m, n] }
    }

    /// Swaps the last two axes of a 3-D tensor.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is 3-D.
    pub fn batched_transpose(&self) -> Tensor {
        assert_eq!(self.shape.len(), 3, "batched_transpose needs a 3-D tensor");
        let (b, n, m) = (self.shape[0], self.shape[1], self.shape[2]);
        let mut out = vec![0.0f32; b * n * m];
        for bi in 0..b {
            for i in 0..n {
                for j in 0..m {
                    out[bi * n * m + j * n + i] = self.data[bi * n * m + i * m + j];
                }
            }
        }
        Tensor { data: out, shape: vec![b, m, n] }
    }

    /// General axis permutation.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..rank`.
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        let rank = self.shape.len();
        assert_eq!(perm.len(), rank, "permutation length mismatch");
        let mut seen = vec![false; rank];
        for &p in perm {
            assert!(p < rank && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
        }
        let new_shape: Vec<usize> = perm.iter().map(|&p| self.shape[p]).collect();
        let old_strides = strides(&self.shape);
        let new_strides_in_old: Vec<usize> = perm.iter().map(|&p| old_strides[p]).collect();
        let mut out = vec![0.0f32; self.numel()];
        let mut idx = vec![0usize; rank];
        for o in out.iter_mut() {
            let mut src = 0;
            for (d, &i) in idx.iter().enumerate() {
                src += i * new_strides_in_old[d];
            }
            *o = self.data[src];
            // Increment the multi-index in new-shape order.
            for d in (0..rank).rev() {
                idx[d] += 1;
                if idx[d] < new_shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        Tensor { data: out, shape: new_shape }
    }

    /// Elementwise combine with another tensor of identical shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_map<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch in zip_map");
        Tensor {
            data: self.data.iter().zip(other.data.iter()).map(|(a, b)| f(*a, *b)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Elementwise map.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor { data: self.data.iter().map(|v| f(*v)).collect(), shape: self.shape.clone() }
    }

    /// Elementwise addition.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise multiplication.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Scalar multiply.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Sum of all elements.
    pub fn sum_all(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean_all(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum_all() / self.numel() as f32
        }
    }

    /// Column means of a 2-D tensor: `[n,m] → [m]`.
    ///
    /// # Panics
    ///
    /// Panics unless 2-D with at least one row.
    pub fn mean_axis0(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "mean_axis0 needs 2-D");
        let (n, m) = (self.shape[0], self.shape[1]);
        assert!(n > 0, "mean over zero rows");
        let mut out = vec![0.0f32; m];
        for i in 0..n {
            for j in 0..m {
                out[j] += self.data[i * m + j];
            }
        }
        for o in out.iter_mut() {
            *o /= n as f32;
        }
        Tensor { data: out, shape: vec![m] }
    }

    /// Row means of a 2-D tensor: `[n,m] → [n]`.
    ///
    /// # Panics
    ///
    /// Panics unless 2-D with at least one column.
    pub fn mean_axis1(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "mean_axis1 needs 2-D");
        let (n, m) = (self.shape[0], self.shape[1]);
        assert!(m > 0, "mean over zero columns");
        let out: Vec<f32> = (0..n)
            .map(|i| self.data[i * m..(i + 1) * m].iter().sum::<f32>() / m as f32)
            .collect();
        Tensor { data: out, shape: vec![n] }
    }

    /// Per-row argmax of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics unless 2-D with at least one column, or on a NaN entry.
    #[expect(
        clippy::expect_used,
        reason = "the asserts make every row non-empty; a NaN has no argmax and panics like the shape preconditions"
    )]
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape.len(), 2, "argmax_rows needs 2-D");
        let (n, m) = (self.shape[0], self.shape[1]);
        assert!(m > 0, "argmax over zero columns");
        (0..n)
            .map(|i| {
                let row = &self.data[i * m..(i + 1) * m];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                    .expect("non-empty row")
                    .0
            })
            .collect()
    }

    /// Extracts `x[:, index, :]` from a 3-D tensor → `[b, d]`.
    ///
    /// # Panics
    ///
    /// Panics unless 3-D and `index` in range.
    pub fn select_axis1(&self, index: usize) -> Tensor {
        assert_eq!(self.shape.len(), 3, "select_axis1 needs 3-D");
        let (b, s, d) = (self.shape[0], self.shape[1], self.shape[2]);
        assert!(index < s, "index {index} out of range for axis of {s}");
        let mut out = vec![0.0f32; b * d];
        for bi in 0..b {
            let src = bi * s * d + index * d;
            out[bi * d..(bi + 1) * d].copy_from_slice(&self.data[src..src + d]);
        }
        Tensor { data: out, shape: vec![b, d] }
    }

    /// Row-wise softmax over the last axis (any rank ≥ 1), numerically
    /// stable.
    pub fn softmax_last(&self) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "rank ≥ 1 is the documented precondition, like the asserts on every other op"
        )]
        let m = *self.shape.last().expect("rank ≥ 1");
        let rows = self.numel() / m;
        let mut out = vec![0.0f32; self.numel()];
        for i in 0..rows {
            let row = &self.data[i * m..(i + 1) * m];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for (o, &v) in out[i * m..(i + 1) * m].iter_mut().zip(row.iter()) {
                *o = (v - max).exp();
                sum += *o;
            }
            for o in out[i * m..(i + 1) * m].iter_mut() {
                *o /= sum;
            }
        }
        Tensor { data: out, shape: self.shape.clone() }
    }
}

/// Row-major strides for a shape.
pub fn strides(shape: &[usize]) -> Vec<usize> {
    let mut s = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        s[i] = s[i + 1] * shape[i + 1];
    }
    s
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.numel() <= 8 {
            write!(f, ", data={:?}", self.data)?;
        } else {
            write!(f, ", data=[{} elements]", self.numel())?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.numel(), 6);
        assert_eq!(Tensor::ones(&[3]).sum_all(), 3.0);
        assert_eq!(Tensor::scalar(5.0).item(), 5.0);
        assert_eq!(Tensor::full(&[2], 2.5).data(), &[2.5, 2.5]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_checks_length() {
        Tensor::from_vec(vec![1.0], &[2, 2]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], &[3, 3]);
        assert_eq!(a.matmul(&eye), a);
    }

    #[test]
    fn batched_matmul_matches_loop_of_matmuls() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[2, 2, 3]);
        let b = Tensor::from_vec((0..12).map(|v| (v as f32) * 0.5).collect(), &[2, 3, 2]);
        let c = a.batched_matmul(&b);
        for bi in 0..2 {
            let a2 = Tensor::from_vec(a.data()[bi * 6..(bi + 1) * 6].to_vec(), &[2, 3]);
            let b2 = Tensor::from_vec(b.data()[bi * 6..(bi + 1) * 6].to_vec(), &[3, 2]);
            let want = a2.matmul(&b2);
            assert_eq!(&c.data()[bi * 4..(bi + 1) * 4], want.data());
        }
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]);
        assert_eq!(a.transpose2().transpose2(), a);
        let b = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 4]);
        assert_eq!(b.batched_transpose().batched_transpose(), b);
    }

    #[test]
    fn permute_matches_specialized_transposes() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]);
        assert_eq!(a.permute(&[1, 0]), a.transpose2());
        let b = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 4]);
        assert_eq!(b.permute(&[0, 2, 1]), b.batched_transpose());
        // Identity permutation.
        assert_eq!(b.permute(&[0, 1, 2]), b);
    }

    #[test]
    fn permute_4d_head_split() {
        // [B,S,H,D] → [B,H,S,D], the attention reshape.
        let t = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[2, 2, 2, 2]);
        let p = t.permute(&[0, 2, 1, 3]);
        assert_eq!(p.shape(), &[2, 2, 2, 2]);
        // Element [b=0,s=1,h=0,d=1] (= index 0*8+1*4+0*2+1 = 5) must appear
        // at [b=0,h=0,s=1,d=1] (= index 0*8+0*4+1*2+1 = 3).
        assert_eq!(p.data()[3], t.data()[5]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.sum_all(), 10.0);
        assert_eq!(a.mean_all(), 2.5);
        assert_eq!(a.mean_axis0().data(), &[2.0, 3.0]);
        assert_eq!(a.mean_axis1().data(), &[1.5, 3.5]);
    }

    #[test]
    fn argmax_and_select() {
        let a = Tensor::from_vec(vec![0.1, 0.9, 0.8, 0.2], &[2, 2]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
        let b = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[2, 3, 2]);
        let cls = b.select_axis1(0);
        assert_eq!(cls.data(), &[0.0, 1.0, 6.0, 7.0]);
        assert_eq!(cls.shape(), &[2, 2]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_handle_extremes() {
        let a = Tensor::from_vec(vec![1000.0, 0.0, 1.0, 1.0], &[2, 2]);
        let s = a.softmax_last();
        assert!((s.data()[0] - 1.0).abs() < 1e-6);
        assert!((s.data()[2] - 0.5).abs() < 1e-6);
        for row in 0..2 {
            let sum: f32 = s.data()[row * 2..(row + 1) * 2].iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides(&[5]), vec![1]);
        assert!(strides(&[]).is_empty());
    }

    #[test]
    fn zip_map_and_scalar_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert_eq!(a.add(&b).data(), &[4.0, 6.0]);
        assert_eq!(b.sub(&a).data(), &[2.0, 2.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, 8.0]);
        assert_eq!(a.scale(-2.0).data(), &[-2.0, -4.0]);
    }

    #[test]
    fn parts_roundtrip_is_exact() {
        let a = Tensor::from_vec(vec![1.5, -2.25, 0.0, f32::MIN_POSITIVE], &[2, 2]);
        let (data, shape) = a.clone().into_parts();
        let b = Tensor::try_from_parts(data, shape).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn try_from_parts_rejects_mismatch_and_overflow() {
        assert!(Tensor::try_from_parts(vec![0.0; 3], vec![2, 2]).is_err());
        assert!(Tensor::try_from_parts(vec![], vec![usize::MAX, usize::MAX]).is_err());
    }
}
