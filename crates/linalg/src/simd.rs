//! 4-lane f64 building blocks for the kernel inner loops.
//!
//! Stable Rust has no portable SIMD API, but LLVM autovectorises loops whose
//! iterations are independent. The blockers in the old scalar kernels were
//! the *reductions*: a sequential `sum += a[i] * b[i]` carries a dependency
//! through every FP add (4–5 cycle latency each), so `dot` ran an order of
//! magnitude below what the load ports allow, and with it
//! `matmul_transpose_right`. This module restructures those loops into
//! **independent accumulators** ([`LANES`]-wide element-wise blocks,
//! [`DOT_ACCUMULATORS`] parallel chains for the dot reduction) — the manual
//! unrolling LLVM needs to emit packed adds/FMAs — with no nightly features
//! and no new dependencies.
//!
//! ## One canonical reduction order
//!
//! Splitting a sum into independent accumulators changes the floating-point
//! result, so the accumulator count and combine order are part of the
//! numeric contract. Every reduction here commits to one **canonical
//! order**:
//!
//! * element `i` of a complete [`DOT_ACCUMULATORS`]-chunk accumulates into
//!   lane `i % DOT_ACCUMULATORS`, in ascending `i` within each lane;
//! * lanes combine sequentially in ascending lane order, starting from
//!   `+0.0`;
//! * the ragged tail (`len % DOT_ACCUMULATORS` trailing elements) is added
//!   sequentially onto the combined sum, in ascending order.
//!
//! The unit tests check [`dot`], and each instruction-set arm of the
//! `matmul_transpose_right` dot loop built on it, bit for bit against a
//! plain scalar loop that performs the same operations in the same order,
//! across every tail length. For slices shorter than one chunk the
//! canonical order degenerates to the plain sequential sum.
//!
//! The element-wise passes (the fused bias+activation maps) have no
//! cross-element reduction at all, so their unrolling only shapes codegen.
//!
//! The matrix products commit to one order per element too:
//!
//! * `matmul` and `matmul_transpose_left` add their terms `a · b` in
//!   ascending shared index onto `+0.0`, one multiply and one add per term,
//!   on the register-tiled micro-kernel (`kernel.rs`) at every width.
//! * `matmul_transpose_right` is one [`dot`] per element. Below one
//!   [`DOT_ACCUMULATORS`] chunk that dot is the same ascending sum, so
//!   short products (CD's `H·Wᵀ`) run on the micro-kernel as well.
//!
//! No path uses a fused multiply-add: it rounds once where the order above
//! rounds twice, so the output bits would depend on the host CPU.

/// Unroll width of the element-wise building blocks (the fused
/// bias+activation maps): four f64 lanes fill one AVX2 register (256 bits)
/// and two NEON/SSE2 registers, and element-wise loops carry no dependency
/// chain, so one register's width is all the unrolling they need.
pub const LANES: usize = 4;

/// Number of independent accumulators in the dot-product reduction: 4
/// vector-register chains of [`LANES`] f64 lanes.
///
/// Unlike the element-wise passes, a reduction carries its dependency
/// through every FP add (~4-cycle latency on mainstream cores against a
/// 2-per-cycle add/FMA issue rate), so one vector accumulator leaves the
/// units ~8x idle. Four chains of four lanes cover the latency×throughput
/// product; measured on the bench workloads this roughly doubles `dot`
/// over a single-register 4-accumulator version and is what brings
/// `matmul_transpose_right` inside the roadmap's 1.4x-of-`matmul` envelope.
pub const DOT_ACCUMULATORS: usize = 4 * LANES;

/// Dot product in the canonical [`DOT_ACCUMULATORS`]-lane order.
///
/// Always inlined, so the AVX2 arm of the `matmul_transpose_right` dot loop
/// compiles it at that arm's vector width.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline(always)]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let mut acc = [0.0; DOT_ACCUMULATORS];
    let a_chunks = a.chunks_exact(DOT_ACCUMULATORS);
    let b_chunks = b.chunks_exact(DOT_ACCUMULATORS);
    let a_tail = a_chunks.remainder();
    let b_tail = b_chunks.remainder();
    for (xa, xb) in a_chunks.zip(b_chunks) {
        for lane in 0..DOT_ACCUMULATORS {
            acc[lane] += xa[lane] * xb[lane];
        }
    }
    let mut sum = 0.0;
    for lane_sum in acc {
        sum += lane_sum;
    }
    for (x, y) in a_tail.iter().zip(b_tail) {
        sum += x * y;
    }
    sum
}

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

    /// The canonical order written as one plain indexed loop over a rotating
    /// lane index: the reference the unrolled [`dot`] must reproduce bit for
    /// bit.
    fn dot_oracle(a: &[f64], b: &[f64]) -> f64 {
        let complete = a.len() - a.len() % DOT_ACCUMULATORS;
        let mut acc = [0.0; DOT_ACCUMULATORS];
        for i in 0..complete {
            acc[i % DOT_ACCUMULATORS] += a[i] * b[i];
        }
        let mut sum = 0.0;
        for lane_sum in acc {
            sum += lane_sum;
        }
        for i in complete..a.len() {
            sum += a[i] * b[i];
        }
        sum
    }

    /// The `matmul_transpose_right` dot loop's arms this CPU can run, by
    /// name.
    #[allow(clippy::type_complexity)]
    fn dot_loop_arms() -> Vec<(
        &'static str,
        fn(&[f64], &[f64], usize, usize, std::ops::Range<usize>, &mut [f64]),
    )> {
        #[allow(unused_mut)]
        let mut arms: Vec<(
            &'static str,
            fn(&[f64], &[f64], usize, usize, std::ops::Range<usize>, &mut [f64]),
        )> = vec![
            ("portable", crate::kernel::dot_rows_portable),
            ("dispatched", crate::kernel::dot_rows),
        ];
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            fn avx2(
                a: &[f64],
                b: &[f64],
                k: usize,
                tile: usize,
                rows: std::ops::Range<usize>,
                out: &mut [f64],
            ) {
                // SAFETY: only listed when the CPU supports AVX2.
                unsafe { crate::kernel::dot_rows_avx2(a, b, k, tile, rows, out) }
            }
            arms.push(("avx2", avx2));
        }
        arms
    }

    #[test]
    fn dot_arms_are_bitwise_identical_for_every_tail_length() {
        // The unrolled dot, and every arm of the dot loop over 3x5 pairs of
        // rows in j-tiles of 2, against the scalar oracle, for lengths
        // covering every ragged remainder 0..=15 over zero, one and two
        // complete chunks: the tail is the classic bug site.
        for len in 0..=50 {
            let (a, b) = vecs(len, len as u64);
            let unrolled = dot(&a, &b);
            let scalar = dot_oracle(&a, &b);
            assert_eq!(unrolled.to_bits(), scalar.to_bits(), "len = {len}");
            if len == 0 {
                continue; // the dot loop needs at least one column
            }
            let (left, right) = (vecs(3 * len, 500 + len as u64).0, vecs(5 * len, 0).1);
            let row = |m: &[f64], i: usize| m[i * len..(i + 1) * len].to_vec();
            let expected: Vec<u64> = (0..3)
                .flat_map(|i| (0..5).map(move |j| (i, j)))
                .map(|(i, j)| dot_oracle(&row(&left, i), &row(&right, j)).to_bits())
                .collect();
            for (arm, run) in dot_loop_arms() {
                let mut out = vec![f64::NAN; 3 * 5];
                run(&left, &right, len, 2, 0..3, &mut out);
                let got: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, expected, "{arm} arm, len = {len}");
            }
        }
    }

    #[test]
    fn dot_degenerates_to_sequential_sum_below_one_chunk() {
        for len in 0..DOT_ACCUMULATORS {
            let (a, b) = vecs(len, 100 + len as u64);
            // Explicit fold from +0.0: `Iterator::sum` starts floats at
            // -0.0, which is `==` but not bitwise-equal for empty input.
            let sequential: f64 = a.iter().zip(&b).fold(0.0, |s, (x, y)| s + x * y);
            let canonical = dot(&a, &b);
            assert_eq!(sequential.to_bits(), canonical.to_bits(), "len = {len}");
        }
    }

    #[test]
    fn dot_matches_exact_arithmetic_on_integers() {
        // Small integers are exact in f64 under any summation order.
        let a: Vec<f64> = (1..=11).map(f64::from).collect();
        let b: Vec<f64> = (1..=11).map(|i| f64::from(i) * 2.0).collect();
        let expected: f64 = (1..=11).map(|i| f64::from(i * i * 2)).sum();
        assert_eq!(dot(&a, &b), expected);
    }

    #[test]
    fn dot_propagates_nan_in_chunks_and_tail() {
        for nan_at in [0, 3, 15, 16, 20] {
            let (mut a, b) = vecs(21, 7);
            a[nan_at] = f64::NAN;
            assert!(dot(&a, &b).is_nan(), "idx {nan_at}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
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
