//! 4-lane f64 building blocks for the fused activation passes.
//!
//! Stable Rust has no portable SIMD API, but LLVM autovectorises loops whose
//! iterations are independent. The fused bias + activation maps here are
//! unrolled [`LANES`] elements at a time, which is all the unrolling an
//! element-wise loop needs: it carries no dependency from one element to
//! the next, so the unrolling only shapes codegen and never the bits. No
//! nightly features and no new dependencies.
//!
//! The matrix products do not live here. `matmul`,
//! `matmul_transpose_left` and `matmul_transpose_right` all run on the
//! register-tiled micro-kernel (`kernel.rs`), which adds each element's
//! terms `a · b` in ascending shared index onto `+0.0`, one multiply and
//! one add per term. No path uses a fused multiply-add: it rounds once
//! where that order rounds twice, so the output bits would depend on the
//! host CPU.

/// Unroll width of the element-wise building blocks (the fused
/// bias+activation maps): four f64 lanes fill one AVX2 register (256 bits)
/// and two NEON/SSE2 registers, and element-wise loops carry no dependency
/// chain, so one register's width is all the unrolling they need.
pub const LANES: usize = 4;

/// Numerically stable logistic sigmoid `1 / (1 + e^{-x})`.
///
/// Lives here so the fused activation passes and the model layer share one
/// definition (the exponential itself is a scalar libm call; the SIMD win
/// in [`fused_bias_sigmoid`] is the vectorised bias add and the removal of
/// the per-element zip bookkeeping).
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Fused bias broadcast + sigmoid: `out[j] = sigmoid(pre[j] + bias[j])`.
///
/// The activation pass behind every `p(h|v)` / binary reconstruction in the
/// model layer.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn fused_bias_sigmoid(pre: &[f64], bias: &[f64], out: &mut [f64]) {
    assert_eq!(pre.len(), out.len(), "fused_bias_sigmoid: length mismatch");
    assert_eq!(bias.len(), out.len(), "fused_bias_sigmoid: length mismatch");
    let mut out_chunks = out.chunks_exact_mut(LANES);
    let mut pre_chunks = pre.chunks_exact(LANES);
    let mut bias_chunks = bias.chunks_exact(LANES);
    for ((oa, xa), ba) in out_chunks
        .by_ref()
        .zip(pre_chunks.by_ref())
        .zip(bias_chunks.by_ref())
    {
        // The adds vectorise; the four exps stay scalar libm calls.
        let t = [xa[0] + ba[0], xa[1] + ba[1], xa[2] + ba[2], xa[3] + ba[3]];
        oa[0] = sigmoid(t[0]);
        oa[1] = sigmoid(t[1]);
        oa[2] = sigmoid(t[2]);
        oa[3] = sigmoid(t[3]);
    }
    for ((o, x), b) in out_chunks
        .into_remainder()
        .iter_mut()
        .zip(pre_chunks.remainder())
        .zip(bias_chunks.remainder())
    {
        *o = sigmoid(x + b);
    }
}

/// Fused bias broadcast: `out[j] = pre[j] + bias[j]` — the Gaussian-visible
/// linear reconstruction pass.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn fused_bias_add(pre: &[f64], bias: &[f64], out: &mut [f64]) {
    assert_eq!(pre.len(), out.len(), "fused_bias_add: length mismatch");
    assert_eq!(bias.len(), out.len(), "fused_bias_add: length mismatch");
    let mut out_chunks = out.chunks_exact_mut(LANES);
    let mut pre_chunks = pre.chunks_exact(LANES);
    let mut bias_chunks = bias.chunks_exact(LANES);
    for ((oa, xa), ba) in out_chunks
        .by_ref()
        .zip(pre_chunks.by_ref())
        .zip(bias_chunks.by_ref())
    {
        oa[0] = xa[0] + ba[0];
        oa[1] = xa[1] + ba[1];
        oa[2] = xa[2] + ba[2];
        oa[3] = xa[3] + ba[3];
    }
    for ((o, x), b) in out_chunks
        .into_remainder()
        .iter_mut()
        .zip(pre_chunks.remainder())
        .zip(bias_chunks.remainder())
    {
        *o = x + b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn vecs(len: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = (0..len).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let b = (0..len).map(|_| rng.gen_range(-3.0..3.0)).collect();
        (a, b)
    }

    #[test]
    fn sigmoid_is_stable_and_symmetric() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(-800.0) >= 0.0);
        assert!(sigmoid(800.0) <= 1.0);
        for x in [-3.0, -0.5, 0.7, 2.2] {
            assert!((sigmoid(-x) - (1.0 - sigmoid(x))).abs() < 1e-12);
        }
    }

    #[test]
    fn fused_maps_arms_are_bitwise_identical() {
        // The unrolled fused maps against the plain element-wise loops.
        for len in [0, 1, 3, 4, 5, 8, 13] {
            let (pre, bias) = vecs(len, 300 + len as u64);
            let mut sig = vec![0.0; len];
            fused_bias_sigmoid(&pre, &bias, &mut sig);
            let mut add = vec![0.0; len];
            fused_bias_add(&pre, &bias, &mut add);
            for (j, (&x, &b)) in pre.iter().zip(&bias).enumerate() {
                assert_eq!(
                    sig[j].to_bits(),
                    sigmoid(x + b).to_bits(),
                    "sigmoid len = {len}"
                );
                assert_eq!(add[j].to_bits(), (x + b).to_bits(), "add len = {len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn fused_bias_sigmoid_length_mismatch_panics() {
        fused_bias_sigmoid(&[1.0], &[1.0], &mut [0.0, 0.0]);
    }
}
