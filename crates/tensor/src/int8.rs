//! Int8 micro-kernels for the quantized inference path.
//!
//! The quantized engine (`ftclip_quant`) stores weights and activations as
//! `i8` and accumulates matrix products in `i32`. Unlike the `f32` kernels
//! behind [`crate::matmul()`], whose accumulation order is pinned
//! element-by-element to preserve bit-identity of the float path, integer
//! addition is exact and associative — these kernels are free to unroll and
//! re-associate, which is exactly what lets the int8 path autovectorize past
//! the float path's single-rounding-chain constraint. Every kernel below is still
//! deterministic: the same inputs always produce the same `i32` sums, in any
//! association order.
//!
//! Products are sign-extended before multiplying, so no intermediate can
//! overflow: `|i8·i8| ≤ 16384` and the reduction runs in `i32` (a dot product
//! would need `k > 2^17` same-sign maximal products to wrap, far beyond any
//! layer in the paper's models).

/// `out[m,n] = a[m,k] · b[n,k]ᵀ` over `i8` operands with `i32` accumulation
/// (dot-product form — both operands are walked contiguously).
///
/// The fully-connected kernel of the quantized engine: `a` holds the batch
/// activations, `b` the weight matrix in its natural
/// `[out_features, in_features]` layout — no transpose copy. (Convolutions
/// use [`matmul_i16_pairs_into`] instead, whose layout avoids the per-output
/// lane reduction this dot-product form pays.)
///
/// On x86-64 the kernel dispatches at runtime to an AVX-512 or AVX2 body
/// built on `vpmaddwd` (sign-extend both operands to `i16`, multiply, and
/// pair-sum into `i32` lanes — exact, since `|i8·i8| ≤ 16384` and a pair sum
/// fits `i16`-product headroom in `i32` trivially); integer re-association
/// keeps every path bit-identical to the scalar fallback.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with `(k, n)`.
pub fn matmul_i8_nt_into(a: &[i8], b: &[i8], out: &mut [i32], k: usize, n: usize) {
    assert!(n > 0, "matmul_i8_nt_into needs n > 0");
    assert_eq!(out.len() % n, 0, "output length {} not a multiple of n {}", out.len(), n);
    let m = out.len() / n;
    assert_eq!(a.len(), m * k, "lhs length mismatch");
    assert_eq!(b.len(), n * k, "rhs length mismatch");
    #[cfg(target_arch = "x86_64")]
    if let Some(isa) = crate::simd::Isa::detect() {
        isa.i8_nt(a, b, out, k, n);
        return;
    }
    nt_scalar(a, b, out, k, n);
}

/// Portable body of [`matmul_i8_nt_into`]: four independent accumulators per
/// dot product for instruction-level parallelism (exact re-association).
pub(crate) fn nt_scalar(a: &[i8], b: &[i8], out: &mut [i32], k: usize, n: usize) {
    for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (slot, b_row) in out_row.iter_mut().zip(b.chunks_exact(k)) {
            let mut acc = [0i32; 4];
            let mut kk = 0;
            while kk + 4 <= k {
                acc[0] += a_row[kk] as i32 * b_row[kk] as i32;
                acc[1] += a_row[kk + 1] as i32 * b_row[kk + 1] as i32;
                acc[2] += a_row[kk + 2] as i32 * b_row[kk + 2] as i32;
                acc[3] += a_row[kk + 3] as i32 * b_row[kk + 3] as i32;
                kk += 4;
            }
            let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
            while kk < k {
                sum += a_row[kk] as i32 * b_row[kk] as i32;
                kk += 1;
            }
            *slot = sum;
        }
    }
}

/// `out[m,n] = a[m,k] · B` where `a` holds **pre-widened** `i16` rows of an
/// even-padded width `k` and `b` holds the right-hand matrix in the
/// **pair-interleaved** layout produced by [`interleave_widen_pairs`]:
/// element `(kk, j)` lives at `b[(kk / 2) · 2n + 2j + (kk % 2)]`.
///
/// This is the convolution hot path, shaped around `vpmaddwd` with *no
/// horizontal reductions*: one 32-bit broadcast of an `a` tap pair against a
/// vector of interleaved `b` pairs yields 16 (AVX-512) or 8 (AVX2) finished
/// `i32` column partials per instruction, accumulated vertically and stored
/// straight into `out` — the dot-product-form kernels above pay a multi-µop
/// lane reduction per output element, which dominates at the small
/// `n = oh·ow` of the later conv stages. Both operands are pre-widened to
/// `i16` (the executor pads odd `c·k·k` with a zero tap), so the inner loop
/// has no `vpmovsxbw` port pressure either.
///
/// Exact for operands in the `i8` value range: each `vpmaddwd` pair-sum is
/// `≤ 2·16129` and the `i32` accumulation cannot wrap for any realistic `k`.
///
/// # Panics
///
/// Panics if `k` is odd or the slice lengths are inconsistent with `(k, n)`.
pub fn matmul_i16_pairs_into(a: &[i16], b: &[i16], out: &mut [i32], k: usize, n: usize) {
    assert!(n > 0, "matmul_i16_pairs_into needs n > 0");
    assert_eq!(k % 2, 0, "matmul_i16_pairs_into needs an even (padded) k, got {k}");
    assert_eq!(out.len() % n, 0, "output length {} not a multiple of n {}", out.len(), n);
    let m = out.len() / n;
    assert_eq!(a.len(), m * k, "lhs length mismatch");
    assert_eq!(b.len(), k * n, "rhs length mismatch");
    #[cfg(target_arch = "x86_64")]
    if let Some(isa) = crate::simd::Isa::detect() {
        isa.i16_pairs(a, b, out, k, n);
        return;
    }
    pairs_scalar(a, b, out, k, n);
}

/// Portable body of [`matmul_i16_pairs_into`].
pub(crate) fn pairs_scalar(a: &[i16], b: &[i16], out: &mut [i32], k: usize, n: usize) {
    for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (j, slot) in out_row.iter_mut().enumerate() {
            let mut sum = 0i32;
            for p in 0..k / 2 {
                let pair = &b[p * 2 * n + 2 * j..p * 2 * n + 2 * j + 2];
                sum += a_row[2 * p] as i32 * pair[0] as i32 + a_row[2 * p + 1] as i32 * pair[1] as i32;
            }
            *slot = sum;
        }
    }
}

/// Widens a row-major `[rows, l]` `i8` matrix into the pair-interleaved
/// `i16` layout of [`matmul_i16_pairs_into`]: rows `2p` and `2p + 1` become
/// pair-row `p` with their columns interleaved (`dst[p·2l + 2j + s] =
/// src[(2p + s)·l + j]`), and an odd row count gains a phantom all-zero
/// partner row.
///
/// This is the production path to the interleaved operand: build the plain
/// im2col matrix with [`crate::im2col_image_overwrite`] (long contiguous
/// `memcpy` runs), then transpose-widen pairs of rows here — the SIMD bodies
/// turn a pair of 32-byte row segments into two full-width interleaved
/// stores, where a direct strided gather pays a scalar store per element.
/// A single-pass strided gather, kept as a test twin, is its reference.
///
/// # Panics
///
/// Panics if `src` is not `rows · l` elements or `dst` is not
/// `(rows + (rows & 1)) · l` elements.
pub fn interleave_widen_pairs(src: &[i8], rows: usize, l: usize, dst: &mut [i16]) {
    let rows_pad = rows + (rows & 1);
    assert_eq!(src.len(), rows * l, "interleave_widen_pairs source size mismatch");
    assert_eq!(dst.len(), rows_pad * l, "interleave_widen_pairs destination size mismatch");
    for p in 0..rows / 2 {
        let r0 = &src[2 * p * l..2 * p * l + l];
        let r1 = &src[(2 * p + 1) * l..(2 * p + 1) * l + l];
        let d = &mut dst[p * 2 * l..(p + 1) * 2 * l];
        #[cfg(target_arch = "x86_64")]
        if let Some(isa) = crate::simd::Isa::detect() {
            isa.interleave(r0, r1, d);
            continue;
        }
        interleave_scalar(r0, r1, d);
    }
    if rows_pad != rows {
        let r0 = &src[(rows - 1) * l..];
        let d = &mut dst[(rows_pad / 2 - 1) * 2 * l..];
        for j in 0..l {
            d[2 * j] = r0[j] as i16;
            d[2 * j + 1] = 0;
        }
    }
}

/// Portable body of one row pair of [`interleave_widen_pairs`]:
/// `dst[2j] = r0[j]`, `dst[2j + 1] = r1[j]`, widened to `i16`.
pub(crate) fn interleave_scalar(r0: &[i8], r1: &[i8], dst: &mut [i16]) {
    for ((d, &x0), &x1) in dst.chunks_exact_mut(2).zip(r0).zip(r1) {
        d[0] = x0 as i16;
        d[1] = x1 as i16;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::im2col::{im2col_image_overwrite, Conv2dGeometry};

    /// `out[m,n] += a[m,k] · b[k,n]` over `i8` operands with `i32` accumulation.
    ///
    /// Row-major, like `crate::gemm_accumulate`; `m` is implied by
    /// `out.len() / n`. The inner loop processes four `k` taps per pass over the
    /// output row, re-associating freely (exact in integer arithmetic).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths are inconsistent with `(k, n)`.
    fn gemm_i8_accumulate(a: &[i8], b: &[i8], out: &mut [i32], k: usize, n: usize) {
        assert!(n > 0, "gemm_i8_accumulate needs n > 0");
        assert_eq!(out.len() % n, 0, "output length {} not a multiple of n {}", out.len(), n);
        let m = out.len() / n;
        assert_eq!(a.len(), m * k, "lhs length mismatch");
        assert_eq!(b.len(), k * n, "rhs length mismatch");
        for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
            let mut kk = 0;
            while kk + 4 <= k {
                let (a0, a1, a2, a3) =
                    (a_row[kk] as i32, a_row[kk + 1] as i32, a_row[kk + 2] as i32, a_row[kk + 3] as i32);
                let b0 = &b[kk * n..kk * n + n];
                let b1 = &b[(kk + 1) * n..(kk + 1) * n + n];
                let b2 = &b[(kk + 2) * n..(kk + 2) * n + n];
                let b3 = &b[(kk + 3) * n..(kk + 3) * n + n];
                for (j, slot) in out_row.iter_mut().enumerate() {
                    *slot += a0 * b0[j] as i32 + a1 * b1[j] as i32 + a2 * b2[j] as i32 + a3 * b3[j] as i32;
                }
                kk += 4;
            }
            while kk < k {
                let a_ik = a_row[kk] as i32;
                let b_row = &b[kk * n..kk * n + n];
                for (slot, &b_kj) in out_row.iter_mut().zip(b_row) {
                    *slot += a_ik * b_kj as i32;
                }
                kk += 1;
            }
        }
    }

    /// Unrolls one `i8` image (a `[c, h, w]` slice of a batch) into the
    /// **pair-interleaved** sign-extended `i16` matrix consumed by
    /// [`matmul_i16_pairs_into`], overwriting every element of `dst` (padding
    /// positions — and the phantom tap added when `c·k·k` is odd — are written
    /// as explicit `0`).
    ///
    /// Logical element `(kk, j)` of the plain `[c·k·k, oh·ow]` im2col matrix
    /// lands at `dst[(kk / 2) · 2l + 2j + (kk % 2)]` with `l = oh·ow`: each pair
    /// of adjacent taps is interleaved column-by-column, which is exactly the
    /// operand shape `vpmaddwd` wants opposite a broadcast tap pair. `dst` must
    /// be `(c·k·k rounded up to even) · oh·ow` elements.
    ///
    /// Like the f32 gather, each `(tap, oy)` row is one contiguous source run
    /// with zeroed edges — but written at stride 2, so the store stream stays
    /// sequential in cache lines while producing the interleaved layout in a
    /// single pass. Widening to `i16` happens here, during the gather, so the
    /// matmul's inner loops need no element conversions at all.
    ///
    /// # Panics
    ///
    /// Panics if `image` is not `c·h·w` elements or `dst` is not
    /// `(c·k·k + (c·k·k & 1)) × oh·ow` elements.
    fn im2col_i16_pairs_image_overwrite(
        image: &[i8],
        c: usize,
        h: usize,
        w: usize,
        geom: Conv2dGeometry,
        dst: &mut [i16],
    ) {
        let (oh, ow) = geom.output_size(h, w);
        let k = geom.kernel;
        let kk = c * k * k;
        let kk_pad = kk + (kk & 1);
        let l = oh * ow;
        assert_eq!(image.len(), c * h * w, "im2col_i16_pairs_image_overwrite image size mismatch");
        assert_eq!(dst.len(), kk_pad * l, "im2col_i16_pairs_image_overwrite destination size mismatch");
        let (stride, pad) = (geom.stride, geom.pad);
        for tap in 0..kk {
            let ci = tap / (k * k);
            let ky = (tap / k) % k;
            let kx = tap % k;
            let (p, s) = (tap / 2, tap % 2);
            for oy in 0..oh {
                let iy = (oy * stride + ky) as isize - pad as isize;
                // both interleave slots of this pair-row's `oy` stripe; writes
                // below touch only slot `s` at indices 2·ox + s
                let drow = &mut dst[p * 2 * l + 2 * oy * ow..p * 2 * l + 2 * (oy * ow + ow)];
                if iy < 0 || iy >= h as isize {
                    for ox in 0..ow {
                        drow[2 * ox + s] = 0;
                    }
                    continue;
                }
                let src_row = &image[(ci * h + iy as usize) * w..(ci * h + iy as usize + 1) * w];
                if stride == 1 {
                    // ix = ox + kx - pad: one contiguous source run, zero edges
                    let lo = pad.saturating_sub(kx).min(ow);
                    let hi = (w + pad).saturating_sub(kx).min(ow).max(lo);
                    for ox in 0..lo {
                        drow[2 * ox + s] = 0;
                    }
                    let src = &src_row[lo + kx - pad..hi + kx - pad];
                    for (ox, &v) in (lo..hi).zip(src) {
                        drow[2 * ox + s] = v as i16;
                    }
                    for ox in hi..ow {
                        drow[2 * ox + s] = 0;
                    }
                } else {
                    for ox in 0..ow {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        drow[2 * ox + s] =
                            if ix < 0 || ix >= w as isize { 0 } else { src_row[ix as usize] as i16 };
                    }
                }
            }
        }
        if kk_pad != kk {
            // phantom tap paired with the last real one: always zero, so the
            // even-width kernel contract holds without affecting any sum
            let base = (kk_pad / 2 - 1) * 2 * l + 1;
            for j in 0..l {
                dst[base + 2 * j] = 0;
            }
        }
    }

    fn pattern(len: usize, mul: usize, md: usize) -> Vec<i8> {
        (0..len).map(|i| (((i * mul) % md) as i32 - md as i32 / 2) as i8).collect()
    }

    fn naive_gemm(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
        let mut out = vec![0i32; m * n];
        for i in 0..m {
            for kk in 0..k {
                for j in 0..n {
                    out[i * n + j] += a[i * k + kk] as i32 * b[kk * n + j] as i32;
                }
            }
        }
        out
    }

    #[test]
    fn gemm_i8_matches_naive_across_remainder_shapes() {
        // exercise k % 4 == 0..=3 to cover both the unrolled body and tail
        for (m, k, n) in [(3, 8, 5), (2, 7, 4), (4, 6, 3), (1, 5, 9), (5, 1, 2)] {
            let a = pattern(m * k, 37, 255);
            let b = pattern(k * n, 29, 251);
            let mut out = vec![7i32; m * n]; // accumulate on top of garbage
            gemm_i8_accumulate(&a, &b, &mut out, k, n);
            let expect: Vec<i32> = naive_gemm(&a, &b, m, k, n).iter().map(|x| x + 7).collect();
            assert_eq!(out, expect, "shape ({m},{k},{n})");
        }
    }

    #[test]
    fn nt_form_matches_gemm_of_transpose() {
        for (m, k, n) in [(3, 9, 4), (2, 8, 6), (1, 3, 1)] {
            let a = pattern(m * k, 41, 253);
            let b_nt = pattern(n * k, 23, 249); // [n, k]
                                                // transpose to [k, n] and run the accumulating kernel
            let mut b_t = vec![0i8; k * n];
            for j in 0..n {
                for kk in 0..k {
                    b_t[kk * n + j] = b_nt[j * k + kk];
                }
            }
            let mut want = vec![0i32; m * n];
            gemm_i8_accumulate(&a, &b_t, &mut want, k, n);
            let mut got = vec![-1i32; m * n]; // overwrite semantics
            matmul_i8_nt_into(&a, &b_nt, &mut got, k, n);
            assert_eq!(got, want, "shape ({m},{k},{n})");
        }
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        // all -128 × all -128 over a long k: products are +16384 each
        let (m, k, n) = (1, 1024, 1);
        let a = vec![-128i8; m * k];
        let b = vec![-128i8; n * k];
        let mut out = vec![0i32; m * n];
        matmul_i8_nt_into(&a, &b, &mut out, k, n);
        assert_eq!(out[0], 16384 * k as i32);
    }

    #[test]
    fn simd_dispatch_matches_scalar_kernel() {
        // whatever body the runtime dispatch picks must agree with the
        // portable one on every tail class (k % 32 spanning 0, short, long)
        for (m, k, n) in [(5, 27, 7), (3, 16, 4), (2, 32, 3), (6, 33, 5), (4, 72, 2), (1, 3, 9)] {
            let a = pattern(m * k, 37, 255);
            let b = pattern(n * k, 29, 251);
            let mut want = vec![0i32; m * n];
            nt_scalar(&a, &b, &mut want, k, n);
            let mut got = vec![-7i32; m * n];
            matmul_i8_nt_into(&a, &b, &mut got, k, n);
            assert_eq!(got, want, "shape ({m},{k},{n})");
        }
    }

    /// Converts a `[n, k]` NT-form matrix into the pair-interleaved layout
    /// (`k` padded up to even with zero taps).
    fn to_pairs(b_nt: &[i8], k: usize, n: usize) -> (Vec<i16>, usize) {
        let k_pad = k + (k & 1);
        let mut out = vec![0i16; k_pad * n];
        for j in 0..n {
            for kk in 0..k {
                out[(kk / 2) * 2 * n + 2 * j + (kk % 2)] = b_nt[j * k + kk] as i16;
            }
        }
        (out, k_pad)
    }

    /// Widens `[m, k]` rows to `i16`, padding each to an even length.
    fn widen_pad(a: &[i8], m: usize, k: usize) -> Vec<i16> {
        let k_pad = k + (k & 1);
        let mut out = vec![0i16; m * k_pad];
        for (dst, src) in out.chunks_exact_mut(k_pad).zip(a.chunks_exact(k)) {
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = v as i16;
            }
        }
        out
    }

    #[test]
    fn pairs_dispatch_matches_scalar_kernel() {
        // column counts straddle every tile boundary of the SIMD bodies
        // (64/16/masked-tail on AVX-512, 32/8/scalar-tail on AVX2)
        for (m, k, n) in
            [(5, 28, 7), (3, 16, 64), (2, 32, 70), (6, 34, 33), (4, 72, 2), (1, 4, 9), (7, 28, 65)]
        {
            let a: Vec<i16> = pattern(m * k, 37, 255).iter().map(|&x| x as i16).collect();
            let (b, _) = to_pairs(&pattern(n * k, 29, 251), k, n);
            let mut want = vec![0i32; m * n];
            pairs_scalar(&a, &b, &mut want, k, n);
            let mut got = vec![-7i32; m * n];
            matmul_i16_pairs_into(&a, &b, &mut got, k, n);
            assert_eq!(got, want, "shape ({m},{k},{n})");
        }
    }

    #[test]
    fn pairs_kernel_agrees_with_the_i8_kernel() {
        // the interleaved layout plus zero-tap padding must reproduce the
        // dot-product kernel exactly, including for odd k
        for (m, k, n) in [(4, 27, 6), (2, 33, 3), (3, 72, 17), (1, 1, 5)] {
            let a8 = pattern(m * k, 37, 255);
            let b8 = pattern(n * k, 29, 251);
            let mut want = vec![0i32; m * n];
            matmul_i8_nt_into(&a8, &b8, &mut want, k, n);
            let a16 = widen_pad(&a8, m, k);
            let (b16, k_pad) = to_pairs(&b8, k, n);
            let mut got = vec![0i32; m * n];
            matmul_i16_pairs_into(&a16, &b16, &mut got, k_pad, n);
            assert_eq!(got, want, "shape ({m},{k},{n})");
        }
    }

    #[test]
    fn pairs_gather_is_the_interleaved_im2col() {
        for geom in [
            Conv2dGeometry::new(3, 1, 1),
            Conv2dGeometry::new(2, 2, 0),
            Conv2dGeometry::new(3, 2, 2),
            Conv2dGeometry::new(3, 1, 0),
        ] {
            let (c, h, w) = (3, 5, 4);
            let img = pattern(c * h * w, 31, 247);
            let (oh, ow) = geom.output_size(h, w);
            let kk = c * geom.kernel * geom.kernel;
            let kk_pad = kk + (kk & 1);
            let l = oh * ow;
            let mut cols = vec![99i8; kk * l];
            let mut pairs = vec![99i16; kk_pad * l];
            im2col_image_overwrite(&img, c, h, w, geom, &mut cols);
            im2col_i16_pairs_image_overwrite(&img, c, h, w, geom, &mut pairs);
            for tap in 0..kk {
                for j in 0..l {
                    assert_eq!(
                        pairs[(tap / 2) * 2 * l + 2 * j + (tap % 2)],
                        cols[tap * l + j] as i16,
                        "geom {geom:?} tap {tap} col {j}"
                    );
                }
            }
            if kk_pad != kk {
                // the phantom tap row must come out zero even on a dirty buffer
                for j in 0..l {
                    assert_eq!(pairs[(kk_pad / 2 - 1) * 2 * l + 2 * j + 1], 0, "geom {geom:?} col {j}");
                }
            }
        }
    }

    #[test]
    fn interleave_matches_the_reference_gather() {
        // the production two-pass path (i8 im2col, then widen-interleave)
        // must reproduce the single-pass reference layout exactly
        for geom in [
            Conv2dGeometry::new(3, 1, 1),
            Conv2dGeometry::new(2, 2, 0),
            Conv2dGeometry::new(3, 2, 2),
            Conv2dGeometry::new(3, 1, 0),
        ] {
            let (c, h, w) = (3, 5, 4);
            let img = pattern(c * h * w, 31, 247);
            let (oh, ow) = geom.output_size(h, w);
            let kk = c * geom.kernel * geom.kernel;
            let kk_pad = kk + (kk & 1);
            let l = oh * ow;
            let mut want = vec![99i16; kk_pad * l];
            im2col_i16_pairs_image_overwrite(&img, c, h, w, geom, &mut want);
            let mut cols = vec![99i8; kk * l];
            im2col_image_overwrite(&img, c, h, w, geom, &mut cols);
            let mut got = vec![-5i16; kk_pad * l];
            interleave_widen_pairs(&cols, kk, l, &mut got);
            assert_eq!(got, want, "geom {geom:?}");
        }
    }

    #[test]
    fn interleave_handles_every_tail_class() {
        // row lengths straddle the 32- and 16-column SIMD blocks and their
        // scalar tails, for both even and odd row counts
        for (rows, l) in [(2, 37), (4, 16), (3, 5), (2, 70), (5, 64), (1, 3)] {
            let src = pattern(rows * l, 37, 255);
            let rows_pad = rows + (rows & 1);
            let mut got = vec![-5i16; rows_pad * l];
            interleave_widen_pairs(&src, rows, l, &mut got);
            for r in 0..rows_pad {
                for j in 0..l {
                    let want = if r < rows { src[r * l + j] as i16 } else { 0 };
                    assert_eq!(got[(r / 2) * 2 * l + 2 * j + (r % 2)], want, "rows {rows} l {l} ({r},{j})");
                }
            }
        }
    }
}
