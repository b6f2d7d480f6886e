//! Runtime-dispatched x86-64 SIMD bodies of the `f32` and int8 kernels.
//!
//! The one sanctioned `unsafe` island in the workspace: `core::arch`
//! intrinsics are unsafe to call by construction, and the features they need
//! are only known at runtime. The exposure is kept minimal:
//!
//! * The only way to reach a body is through an [`Isa`] token, which this
//!   module mints only after `is_x86_feature_detected!` has confirmed the
//!   features of its level. Each safe entry point re-checks the slice lengths
//!   its body reads, so no caller can cause an out-of-bounds access.
//! * Every body has a portable scalar twin in its kernel's module, and the
//!   tests below pin **every** body the host supports (not only the one the
//!   dispatch picks) to that twin bit for bit.
//!
//! Two numeric rules keep the twins exact:
//!
//! * **`f32`: lanes are outputs, never FMA.** A vector lane is always a
//!   distinct output column; the reduction dimension `k` is walked one
//!   broadcast coefficient at a time in ascending order, and each step is a
//!   separate multiply and add (`vmulps` then `vaddps`, two roundings), so
//!   every element replays the scalar `acc += a · b` chain exactly. In
//!   accumulate mode a coefficient `== 0.0` is skipped per row, as the scalar
//!   kernel skips it; in no-skip mode it is multiplied through, so `0 · inf`
//!   still yields NaN.
//! * **int8: exact integers.** `i32` accumulation of `i8`/`i16` products is
//!   exact and associative, so those bodies re-associate freely.
#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m256i, _mm256_add_ps, _mm256_cmpgt_epi32, _mm256_maskload_ps, _mm256_maskstore_ps, _mm256_mul_ps,
    _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32, _mm256_setzero_ps, _mm512_add_ps,
    _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
};

/// Reduction rows per register-blocked pass of the `f32` bodies: each
/// output tile is loaded once, accumulated over this many `k` steps in
/// registers and stored once, while the `K_PANEL × 64`-column `B` block it
/// reads (32 KB) stays cache-resident across every row tile of the band.
const K_PANEL: usize = 128;

/// A SIMD level the host supports — proof, checked at construction, that the
/// level's target features are present.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Isa(Level);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Level {
    /// `avx512f` + `avx512bw` + `avx512vl`.
    Avx512,
    /// `avx2`.
    Avx2,
}

impl Level {
    fn available(self) -> bool {
        match self {
            Level::Avx512 => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512bw")
                    && is_x86_feature_detected!("avx512vl")
            }
            Level::Avx2 => is_x86_feature_detected!("avx2"),
        }
    }
}

impl Isa {
    /// The widest level the host supports, or `None` when the caller must
    /// run its scalar twin.
    pub(crate) fn detect() -> Option<Isa> {
        [Level::Avx512, Level::Avx2].into_iter().find(|l| l.available()).map(Isa)
    }

    /// Every level the host supports, widest first.
    #[cfg(test)]
    fn all_supported() -> Vec<Isa> {
        [Level::Avx512, Level::Avx2]
            .into_iter()
            .filter(|l| l.available())
            .map(Isa)
            .collect()
    }

    /// `band[r][j] (+)= Σ_k A[first_row + r, k] · B[k, b_col0 + j]` for one
    /// band of whole output rows `row_len` long, `B` rows `b_stride` apart —
    /// the vector twin of `matmul::accumulate_band_scalar`.
    ///
    /// With `SKIP_ZEROS` a coefficient `== 0.0` contributes nothing (the
    /// accumulate kernels' rule); without it every product is added (the
    /// `matmul_nt` chain, whose caller zero-fills `band` first).
    ///
    /// # Panics
    ///
    /// Panics if `band` is not whole rows or `a`/`b` are too short for them.
    pub(crate) fn gemm_band<const SKIP_ZEROS: bool>(
        self,
        a: &[f32],
        b: &[f32],
        band: &mut [f32],
        first_row: usize,
        k: usize,
        b_stride: usize,
        row_len: usize,
        b_col0: usize,
    ) {
        if row_len == 0 || k == 0 || band.is_empty() {
            return;
        }
        assert!(band.len().is_multiple_of(row_len), "gemm band is not whole rows");
        let rows = band.len() / row_len;
        let a_need = first_row.checked_add(rows).and_then(|r| r.checked_mul(k));
        assert!(a_need.is_some_and(|need| need <= a.len()), "gemm band A too short");
        let b_need = (k - 1)
            .checked_mul(b_stride)
            .and_then(|x| x.checked_add(b_col0))
            .and_then(|x| x.checked_add(row_len));
        assert!(b_need.is_some_and(|need| need <= b.len()), "gemm band B too short");
        let a = &a[first_row * k..];
        let b = &b[b_col0..];
        match self.0 {
            // SAFETY: `Level::Avx512` is only minted after `avx512f` was
            // detected; past the early return `k`, `row_len` and `band` are
            // non-empty, and the asserts bound every row of `a`, `b` and
            // `band` the body addresses.
            Level::Avx512 => unsafe { gemm_band_avx512::<SKIP_ZEROS>(a, b, band, k, b_stride, row_len) },
            // SAFETY: as above, for `avx2`.
            Level::Avx2 => unsafe { gemm_band_avx2::<SKIP_ZEROS>(a, b, band, k, b_stride, row_len) },
        }
    }

    /// `out[m,n] = a[m,k] · b[n,k]ᵀ` over `i8` with `i32` accumulation — the
    /// vector twin of `int8::nt_scalar`.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths are inconsistent with `(k, n)`.
    pub(crate) fn i8_nt(self, a: &[i8], b: &[i8], out: &mut [i32], k: usize, n: usize) {
        let m = out.len() / n;
        let sizes_match =
            out.len() == m * n && m.checked_mul(k) == Some(a.len()) && n.checked_mul(k) == Some(b.len());
        assert!(sizes_match, "i8 nt operand size mismatch");
        match self.0 {
            // SAFETY: `Level::Avx512` is only minted after `avx512f`,
            // `avx512bw` and `avx512vl` were detected; the assert above pins
            // every slice length the body reads.
            Level::Avx512 => unsafe { nt_avx512(a, b, out, k, n) },
            // SAFETY: as above, for `avx2`.
            Level::Avx2 => unsafe { nt_avx2(a, b, out, k, n) },
        }
    }

    /// `out[m,n] = a[m,k] · B` over pre-widened `i16` rows and a
    /// pair-interleaved `B` — the vector twin of `int8::pairs_scalar`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is odd or the slice lengths are inconsistent with `(k, n)`.
    pub(crate) fn i16_pairs(self, a: &[i16], b: &[i16], out: &mut [i32], k: usize, n: usize) {
        let m = out.len() / n;
        assert!(k.is_multiple_of(2), "pair kernel needs an even k");
        let sizes_match =
            out.len() == m * n && m.checked_mul(k) == Some(a.len()) && k.checked_mul(n) == Some(b.len());
        assert!(sizes_match, "pair operand size mismatch");
        match self.0 {
            // SAFETY: `Level::Avx512` is only minted after `avx512f` and
            // `avx512bw` were detected; the asserts above pin every slice
            // length the body reads.
            Level::Avx512 => unsafe { pairs_avx512(a, b, out, k, n) },
            // SAFETY: as above, for `avx2`.
            Level::Avx2 => unsafe { pairs_avx2(a, b, out, k, n) },
        }
    }

    /// Widens two `i8` rows into one interleaved `i16` row — the vector twin
    /// of `int8::interleave_scalar`.
    ///
    /// # Panics
    ///
    /// Panics unless `r0.len() == r1.len()` and `dst.len() == 2 · r0.len()`.
    pub(crate) fn interleave(self, r0: &[i8], r1: &[i8], dst: &mut [i16]) {
        assert!(r0.len() == r1.len() && dst.len() == 2 * r0.len(), "interleave operand size mismatch");
        match self.0 {
            // SAFETY: `Level::Avx512` is only minted after `avx512f` and
            // `avx512bw` were detected; the assert above pins the lengths.
            Level::Avx512 => unsafe { interleave_avx512(r0, r1, dst) },
            // SAFETY: as above, for `avx2`.
            Level::Avx2 => unsafe { interleave_avx2(r0, r1, dst) },
        }
    }
}

/// One `K_PANEL`-deep slice of an `f32` band as the tile bodies address it:
/// `a` at the panel's first coefficient of row 0, `b` at its first row.
#[derive(Clone, Copy)]
struct Panel {
    a: *const f32,
    lda: usize,
    b: *const f32,
    ldb: usize,
    c: *mut f32,
    ldc: usize,
    rows: usize,
    kn: usize,
}

impl Panel {
    /// The panel of `k` steps `k0 .. k0 + K_PANEL` of a band.
    ///
    /// # Safety
    ///
    /// `k0 < k` and the slice contract of [`gemm_band_avx512`] holds.
    unsafe fn new(
        a: &[f32],
        b: &[f32],
        band: &mut [f32],
        k: usize,
        b_stride: usize,
        row_len: usize,
        k0: usize,
    ) -> Panel {
        Panel {
            a: a.as_ptr().add(k0),
            lda: k,
            b: b.as_ptr().add(k0 * b_stride),
            ldb: b_stride,
            c: band.as_mut_ptr(),
            ldc: row_len,
            rows: band.len() / row_len,
            kn: (k - k0).min(K_PANEL),
        }
    }
}

/// AVX-512 body of [`Isa::gemm_band`]: `K_PANEL`-deep passes over tiles of
/// four rows × 64 columns (sixteen `zmm` accumulators, every `B` load shared
/// by four rows), then 16-column tiles, then one masked tail tile.
///
/// # Safety
///
/// Caller must ensure `avx512f` is available, `k > 0`, `row_len > 0`,
/// `band` is a non-empty multiple of `row_len`, `a` holds
/// `band.len() / row_len` rows of `k` and `b` holds
/// `(k - 1) · b_stride + row_len` elements.
#[target_feature(enable = "avx512f")]
unsafe fn gemm_band_avx512<const SKIP_ZEROS: bool>(
    a: &[f32],
    b: &[f32],
    band: &mut [f32],
    k: usize,
    b_stride: usize,
    row_len: usize,
) {
    let mut k0 = 0;
    while k0 < k {
        let p = Panel::new(a, b, band, k, b_stride, row_len, k0);
        let mut j = 0;
        while j + 64 <= row_len {
            block_avx512::<4, SKIP_ZEROS>(p, j, u16::MAX);
            j += 64;
        }
        while j + 16 <= row_len {
            block_avx512::<1, SKIP_ZEROS>(p, j, u16::MAX);
            j += 16;
        }
        if j < row_len {
            block_avx512::<1, SKIP_ZEROS>(p, j, (1u16 << (row_len - j)) - 1);
        }
        k0 += p.kn;
    }
}

/// Columns `j .. j + 16·V` of every row of the panel: four-row tiles, then
/// single rows.
///
/// # Safety
///
/// Caller must ensure `avx512f` is available and every live column is
/// inside the panel's rows.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn block_avx512<const V: usize, const SKIP_ZEROS: bool>(p: Panel, j: usize, mask: u16) {
    let mut i = 0;
    while i + 4 <= p.rows {
        tile_avx512::<4, V, SKIP_ZEROS>(p, i, j, mask);
        i += 4;
    }
    while i < p.rows {
        tile_avx512::<1, V, SKIP_ZEROS>(p, i, j, mask);
        i += 1;
    }
}

/// One `R`-row × `16·V`-column register tile at `(i, j)`, accumulated over
/// the panel's `kn` steps; `mask` selects the live columns of every vector.
///
/// # Safety
///
/// Caller must ensure `avx512f` is available, `i + R <= p.rows` and every
/// live column is inside the panel's rows.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn tile_avx512<const R: usize, const V: usize, const SKIP_ZEROS: bool>(
    p: Panel,
    i: usize,
    j: usize,
    mask: u16,
) {
    let (a, b, c) = (p.a.add(i * p.lda), p.b.add(j), p.c.add(i * p.ldc + j));
    let mut acc = [[_mm512_setzero_ps(); V]; R];
    for r in 0..R {
        for v in 0..V {
            acc[r][v] = _mm512_maskz_loadu_ps(mask, c.add(r * p.ldc + 16 * v));
        }
    }
    for kk in 0..p.kn {
        let b_row = b.add(kk * p.ldb);
        let mut vb = [_mm512_setzero_ps(); V];
        for v in 0..V {
            vb[v] = _mm512_maskz_loadu_ps(mask, b_row.add(16 * v));
        }
        for r in 0..R {
            let coef = *a.add(r * p.lda + kk);
            if SKIP_ZEROS && coef == 0.0 {
                continue;
            }
            let va = _mm512_set1_ps(coef);
            for v in 0..V {
                acc[r][v] = _mm512_add_ps(acc[r][v], _mm512_mul_ps(va, vb[v]));
            }
        }
    }
    for r in 0..R {
        for v in 0..V {
            _mm512_mask_storeu_ps(c.add(r * p.ldc + 16 * v), mask, acc[r][v]);
        }
    }
}

/// AVX2 body of [`Isa::gemm_band`]: the same panel walk over tiles of four
/// rows × 16 columns (eight `ymm` accumulators — the 16-register file caps
/// the tile), then 8-column tiles, then one `vmaskmovps` tail tile.
///
/// # Safety
///
/// Caller must ensure `avx2` is available and the slice contract of
/// [`gemm_band_avx512`] holds.
#[target_feature(enable = "avx2")]
unsafe fn gemm_band_avx2<const SKIP_ZEROS: bool>(
    a: &[f32],
    b: &[f32],
    band: &mut [f32],
    k: usize,
    b_stride: usize,
    row_len: usize,
) {
    let all = _mm256_set1_epi32(-1);
    let mut k0 = 0;
    while k0 < k {
        let p = Panel::new(a, b, band, k, b_stride, row_len, k0);
        let mut j = 0;
        while j + 16 <= row_len {
            block_avx2::<2, SKIP_ZEROS>(p, j, all);
            j += 16;
        }
        while j + 8 <= row_len {
            block_avx2::<1, SKIP_ZEROS>(p, j, all);
            j += 8;
        }
        if j < row_len {
            let live = _mm256_cmpgt_epi32(
                _mm256_set1_epi32((row_len - j) as i32),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            );
            block_avx2::<1, SKIP_ZEROS>(p, j, live);
        }
        k0 += p.kn;
    }
}

/// Columns `j .. j + 8·V` of every row of the panel: four-row tiles, then
/// single rows.
///
/// # Safety
///
/// Caller must ensure `avx2` is available and every live column is inside
/// the panel's rows.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn block_avx2<const V: usize, const SKIP_ZEROS: bool>(p: Panel, j: usize, mask: __m256i) {
    let mut i = 0;
    while i + 4 <= p.rows {
        tile_avx2::<4, V, SKIP_ZEROS>(p, i, j, mask);
        i += 4;
    }
    while i < p.rows {
        tile_avx2::<1, V, SKIP_ZEROS>(p, i, j, mask);
        i += 1;
    }
}

/// One `R`-row × `8·V`-column register tile of [`gemm_band_avx2`]; `mask`
/// (lanes with the sign bit set are live) selects the columns of every
/// vector.
///
/// # Safety
///
/// Caller must ensure `avx2` is available, `i + R <= p.rows` and every live
/// column is inside the panel's rows.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn tile_avx2<const R: usize, const V: usize, const SKIP_ZEROS: bool>(
    p: Panel,
    i: usize,
    j: usize,
    mask: __m256i,
) {
    let (a, b, c) = (p.a.add(i * p.lda), p.b.add(j), p.c.add(i * p.ldc + j));
    let mut acc = [[_mm256_setzero_ps(); V]; R];
    for r in 0..R {
        for v in 0..V {
            acc[r][v] = _mm256_maskload_ps(c.add(r * p.ldc + 8 * v), mask);
        }
    }
    for kk in 0..p.kn {
        let b_row = b.add(kk * p.ldb);
        let mut vb = [_mm256_setzero_ps(); V];
        for v in 0..V {
            vb[v] = _mm256_maskload_ps(b_row.add(8 * v), mask);
        }
        for r in 0..R {
            let coef = *a.add(r * p.lda + kk);
            if SKIP_ZEROS && coef == 0.0 {
                continue;
            }
            let va = _mm256_set1_ps(coef);
            for v in 0..V {
                acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(va, vb[v]));
            }
        }
    }
    for r in 0..R {
        for v in 0..V {
            _mm256_maskstore_ps(c.add(r * p.ldc + 8 * v), mask, acc[r][v]);
        }
    }
}

/// AVX-512 body of the pair-interleaved kernel: one `vpbroadcastd` of an
/// `a` tap pair against a full-width load of 16 interleaved `b` column
/// pairs per `vpmaddwd` — 32 MACs finishing 16 `i32` column partials,
/// accumulated vertically across `k` and stored without any lane
/// reduction. The main block tiles four output rows over 64 columns
/// (sixteen accumulators) so every `b` load is shared four ways — the
/// kernel re-streams `b` from L2 per row tile, so this quarters its
/// bandwidth demand. Leftover columns run 16-wide, then one masked tail.
///
/// # Safety
///
/// Caller must ensure `avx512f` and `avx512bw` are available and that
/// the slice lengths satisfy `matmul_i16_pairs_into`'s contract.
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn pairs_avx512(a: &[i16], b: &[i16], out: &mut [i32], k: usize, n: usize) {
    use std::arch::x86_64::{
        __m512i, _mm512_add_epi32, _mm512_loadu_si512, _mm512_madd_epi16, _mm512_mask_storeu_epi32,
        _mm512_maskz_loadu_epi16, _mm512_set1_epi32, _mm512_setzero_si512, _mm512_storeu_si512,
    };
    let m = out.len() / n;
    let pairs = k / 2;
    let (a_ptr, b_ptr, out_ptr) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let mut r0 = 0usize;
    while r0 < m {
        let rows = (m - r0).min(4);
        let mut j = 0usize;
        while j + 64 <= n {
            let mut acc = [[_mm512_setzero_si512(); 4]; 4];
            for p in 0..pairs {
                let base = b_ptr.add(p * 2 * n + 2 * j);
                let vb = [
                    _mm512_loadu_si512(base.cast::<__m512i>()),
                    _mm512_loadu_si512(base.add(32).cast::<__m512i>()),
                    _mm512_loadu_si512(base.add(64).cast::<__m512i>()),
                    _mm512_loadu_si512(base.add(96).cast::<__m512i>()),
                ];
                for (t, row_acc) in acc[..rows].iter_mut().enumerate() {
                    // both taps of the pair in one 32-bit broadcast —
                    // the row is even-length, so the read is in bounds
                    let va =
                        _mm512_set1_epi32(a_ptr.add((r0 + t) * k + 2 * p).cast::<i32>().read_unaligned());
                    for (slot, &vbu) in row_acc.iter_mut().zip(&vb) {
                        *slot = _mm512_add_epi32(*slot, _mm512_madd_epi16(va, vbu));
                    }
                }
            }
            for (t, row_acc) in acc[..rows].iter().enumerate() {
                let o_row = out_ptr.add((r0 + t) * n);
                for (u, &slot) in row_acc.iter().enumerate() {
                    _mm512_storeu_si512(o_row.add(j + 16 * u).cast::<__m512i>(), slot);
                }
            }
            j += 64;
        }
        for t in 0..rows {
            let a_row = a_ptr.add((r0 + t) * k);
            let o_row = out_ptr.add((r0 + t) * n);
            let mut jj = j;
            while jj + 16 <= n {
                let mut acc = _mm512_setzero_si512();
                for p in 0..pairs {
                    let va = _mm512_set1_epi32(a_row.add(2 * p).cast::<i32>().read_unaligned());
                    let vb = _mm512_loadu_si512(b_ptr.add(p * 2 * n + 2 * jj).cast::<__m512i>());
                    acc = _mm512_add_epi32(acc, _mm512_madd_epi16(va, vb));
                }
                _mm512_storeu_si512(o_row.add(jj).cast::<__m512i>(), acc);
                jj += 16;
            }
            if jj < n {
                let tail = n - jj;
                let load_mask: u32 = (1u32 << (2 * tail)) - 1;
                let store_mask: u16 = (1u16 << tail) - 1;
                let mut acc = _mm512_setzero_si512();
                for p in 0..pairs {
                    let va = _mm512_set1_epi32(a_row.add(2 * p).cast::<i32>().read_unaligned());
                    let vb = _mm512_maskz_loadu_epi16(load_mask, b_ptr.add(p * 2 * n + 2 * jj));
                    acc = _mm512_add_epi32(acc, _mm512_madd_epi16(va, vb));
                }
                _mm512_mask_storeu_epi32(o_row.add(jj), store_mask, acc);
            }
        }
        r0 += rows;
    }
}

/// AVX2 body of the pair-interleaved kernel: the same reduction-free
/// broadcast/`vpmaddwd` shape at 8 `i32` columns per vector, tiling two
/// output rows over 32 columns (eight accumulators — the 16-register
/// file caps the tile) so every `b` load is shared, with a scalar
/// column tail.
///
/// # Safety
///
/// Caller must ensure `avx2` is available and that the slice lengths
/// satisfy `matmul_i16_pairs_into`'s contract.
#[target_feature(enable = "avx2")]
unsafe fn pairs_avx2(a: &[i16], b: &[i16], out: &mut [i32], k: usize, n: usize) {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_set1_epi32,
        _mm256_setzero_si256, _mm256_storeu_si256,
    };
    let m = out.len() / n;
    let pairs = k / 2;
    let (a_ptr, b_ptr, out_ptr) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let mut r0 = 0usize;
    while r0 < m {
        let rows = (m - r0).min(2);
        let mut j = 0usize;
        while j + 32 <= n {
            let mut acc = [[_mm256_setzero_si256(); 4]; 2];
            for p in 0..pairs {
                let base = b_ptr.add(p * 2 * n + 2 * j);
                let vb = [
                    _mm256_loadu_si256(base.cast::<__m256i>()),
                    _mm256_loadu_si256(base.add(16).cast::<__m256i>()),
                    _mm256_loadu_si256(base.add(32).cast::<__m256i>()),
                    _mm256_loadu_si256(base.add(48).cast::<__m256i>()),
                ];
                for (t, row_acc) in acc[..rows].iter_mut().enumerate() {
                    let va =
                        _mm256_set1_epi32(a_ptr.add((r0 + t) * k + 2 * p).cast::<i32>().read_unaligned());
                    for (slot, &vbu) in row_acc.iter_mut().zip(&vb) {
                        *slot = _mm256_add_epi32(*slot, _mm256_madd_epi16(va, vbu));
                    }
                }
            }
            for (t, row_acc) in acc[..rows].iter().enumerate() {
                let o_row = out_ptr.add((r0 + t) * n);
                for (u, &slot) in row_acc.iter().enumerate() {
                    _mm256_storeu_si256(o_row.add(j + 8 * u).cast::<__m256i>(), slot);
                }
            }
            j += 32;
        }
        for t in 0..rows {
            let a_row = a_ptr.add((r0 + t) * k);
            let o_row = out_ptr.add((r0 + t) * n);
            let mut jj = j;
            while jj + 8 <= n {
                let mut acc = _mm256_setzero_si256();
                for p in 0..pairs {
                    let va = _mm256_set1_epi32(a_row.add(2 * p).cast::<i32>().read_unaligned());
                    let vb = _mm256_loadu_si256(b_ptr.add(p * 2 * n + 2 * jj).cast::<__m256i>());
                    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
                }
                _mm256_storeu_si256(o_row.add(jj).cast::<__m256i>(), acc);
                jj += 8;
            }
            while jj < n {
                let a_slice = std::slice::from_raw_parts(a_row, k);
                let mut sum = 0i32;
                for (p, pair) in a_slice.chunks_exact(2).enumerate() {
                    let bb = b_ptr.add(p * 2 * n + 2 * jj);
                    sum += pair[0] as i32 * bb.read() as i32 + pair[1] as i32 * bb.add(1).read() as i32;
                }
                *o_row.add(jj) = sum;
                jj += 1;
            }
        }
        r0 += rows;
    }
}

/// AVX-512 body of the widen-interleave pass: two 32-byte row segments
/// sign-extend to `i16` and one pair of `vpermt2w` shuffles interleaves
/// them into two full-width stores; scalar tail under 32 columns.
///
/// # Safety
///
/// Caller must ensure `avx512f` and `avx512bw` are available and that
/// `r0.len() == r1.len()` and `dst.len() == 2 · r0.len()`.
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn interleave_avx512(r0: &[i8], r1: &[i8], dst: &mut [i16]) {
    use std::arch::x86_64::{
        __m256i, __m512i, _mm256_loadu_si256, _mm512_cvtepi8_epi16, _mm512_loadu_si512,
        _mm512_permutex2var_epi16, _mm512_storeu_si512,
    };
    let l = r0.len();
    // `vpermt2w` index vectors: lane t of the low (high) result selects
    // element t/2 of the first (second) 16-column half from `a` when t is
    // even, from `b` (offset 32) when t is odd
    let mut idx = [[0i16; 32]; 2];
    for t in 0..16 {
        idx[0][2 * t] = t as i16;
        idx[0][2 * t + 1] = t as i16 + 32;
        idx[1][2 * t] = t as i16 + 16;
        idx[1][2 * t + 1] = t as i16 + 48;
    }
    let vi0 = _mm512_loadu_si512(idx[0].as_ptr().cast::<__m512i>());
    let vi1 = _mm512_loadu_si512(idx[1].as_ptr().cast::<__m512i>());
    let mut j = 0usize;
    while j + 32 <= l {
        let va = _mm512_cvtepi8_epi16(_mm256_loadu_si256(r0.as_ptr().add(j).cast::<__m256i>()));
        let vb = _mm512_cvtepi8_epi16(_mm256_loadu_si256(r1.as_ptr().add(j).cast::<__m256i>()));
        let lo = _mm512_permutex2var_epi16(va, vi0, vb);
        let hi = _mm512_permutex2var_epi16(va, vi1, vb);
        _mm512_storeu_si512(dst.as_mut_ptr().add(2 * j).cast::<__m512i>(), lo);
        _mm512_storeu_si512(dst.as_mut_ptr().add(2 * j + 32).cast::<__m512i>(), hi);
        j += 32;
    }
    for jj in j..l {
        dst[2 * jj] = r0[jj] as i16;
        dst[2 * jj + 1] = r1[jj] as i16;
    }
}

/// AVX2 body of the widen-interleave pass: in-lane `vpunpck` interleaves
/// with a cross-lane fixup permute; scalar tail under 16 columns.
///
/// # Safety
///
/// Caller must ensure `avx2` is available and that `r0.len() == r1.len()`
/// and `dst.len() == 2 · r0.len()`.
#[target_feature(enable = "avx2")]
unsafe fn interleave_avx2(r0: &[i8], r1: &[i8], dst: &mut [i16]) {
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_cvtepi8_epi16, _mm256_permute2x128_si256, _mm256_storeu_si256,
        _mm256_unpackhi_epi16, _mm256_unpacklo_epi16, _mm_loadu_si128,
    };
    let l = r0.len();
    let mut j = 0usize;
    while j + 16 <= l {
        let va = _mm256_cvtepi8_epi16(_mm_loadu_si128(r0.as_ptr().add(j).cast::<__m128i>()));
        let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(r1.as_ptr().add(j).cast::<__m128i>()));
        let lo = _mm256_unpacklo_epi16(va, vb);
        let hi = _mm256_unpackhi_epi16(va, vb);
        let out0 = _mm256_permute2x128_si256(lo, hi, 0x20);
        let out1 = _mm256_permute2x128_si256(lo, hi, 0x31);
        _mm256_storeu_si256(dst.as_mut_ptr().add(2 * j).cast::<__m256i>(), out0);
        _mm256_storeu_si256(dst.as_mut_ptr().add(2 * j + 16).cast::<__m256i>(), out1);
        j += 16;
    }
    for jj in j..l {
        dst[2 * jj] = r0[jj] as i16;
        dst[2 * jj + 1] = r1[jj] as i16;
    }
}

/// AVX-512 body: 32 `i8` taps per `vpmaddwd`, four `a` rows sharing
/// every `b`-row load, masked loads for the `k % 32` tail so short conv
/// patches (e.g. `ic·k·k = 27`) stay fully vectorized.
///
/// # Safety
///
/// Caller must ensure `avx512f`, `avx512bw` and `avx512vl` are available
/// and that the slice lengths satisfy [`matmul_i8_nt_into`]'s contract.
///
/// [`matmul_i8_nt_into`]: crate::matmul_i8_nt_into
#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
unsafe fn nt_avx512(a: &[i8], b: &[i8], out: &mut [i32], k: usize, n: usize) {
    use std::arch::x86_64::{
        __m256i, _mm256_loadu_si256, _mm256_maskz_loadu_epi8, _mm512_add_epi32, _mm512_cvtepi8_epi16,
        _mm512_madd_epi16, _mm512_reduce_add_epi32, _mm512_setzero_si512,
    };
    let m = out.len() / n;
    let tail = k % 32;
    let body = k - tail;
    let tail_mask: u32 = if tail == 0 { 0 } else { (1u32 << tail) - 1 };
    let (a_ptr, b_ptr) = (a.as_ptr(), b.as_ptr());
    let mut i0 = 0usize;
    while i0 < m {
        let rows = (m - i0).min(4);
        for j in 0..n {
            let bj = b_ptr.add(j * k);
            let mut acc = [_mm512_setzero_si512(); 4];
            let mut kk = 0usize;
            while kk < body {
                let vb = _mm512_cvtepi8_epi16(_mm256_loadu_si256(bj.add(kk).cast::<__m256i>()));
                for (t, slot) in acc[..rows].iter_mut().enumerate() {
                    let va = _mm512_cvtepi8_epi16(_mm256_loadu_si256(
                        a_ptr.add((i0 + t) * k + kk).cast::<__m256i>(),
                    ));
                    *slot = _mm512_add_epi32(*slot, _mm512_madd_epi16(va, vb));
                }
                kk += 32;
            }
            if tail != 0 {
                let vb = _mm512_cvtepi8_epi16(_mm256_maskz_loadu_epi8(tail_mask, bj.add(kk)));
                for (t, slot) in acc[..rows].iter_mut().enumerate() {
                    let va = _mm512_cvtepi8_epi16(_mm256_maskz_loadu_epi8(
                        tail_mask,
                        a_ptr.add((i0 + t) * k + kk),
                    ));
                    *slot = _mm512_add_epi32(*slot, _mm512_madd_epi16(va, vb));
                }
            }
            for (t, &slot) in acc[..rows].iter().enumerate() {
                out[(i0 + t) * n + j] = _mm512_reduce_add_epi32(slot);
            }
        }
        i0 += rows;
    }
}

/// AVX2 body: 16 `i8` taps per `vpmaddwd`, four `a` rows sharing every
/// `b`-row load, scalar `k % 16` tail.
///
/// # Safety
///
/// Caller must ensure `avx2` is available and that the slice lengths
/// satisfy [`matmul_i8_nt_into`]'s contract.
///
/// [`matmul_i8_nt_into`]: crate::matmul_i8_nt_into
#[target_feature(enable = "avx2")]
unsafe fn nt_avx2(a: &[i8], b: &[i8], out: &mut [i32], k: usize, n: usize) {
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi32, _mm256_castsi256_si128, _mm256_cvtepi8_epi16,
        _mm256_extracti128_si256, _mm256_madd_epi16, _mm256_setzero_si256, _mm_add_epi32, _mm_cvtsi128_si32,
        _mm_loadu_si128, _mm_shuffle_epi32,
    };
    /// Horizontal sum of the eight `i32` lanes.
    ///
    /// # Safety
    ///
    /// Caller must ensure `avx2` is available.
    #[target_feature(enable = "avx2")]
    unsafe fn hsum(v: __m256i) -> i32 {
        let s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_00_01));
        _mm_cvtsi128_si32(s)
    }
    let m = out.len() / n;
    let tail = k % 16;
    let body = k - tail;
    let (a_ptr, b_ptr) = (a.as_ptr(), b.as_ptr());
    let mut i0 = 0usize;
    while i0 < m {
        let rows = (m - i0).min(4);
        for j in 0..n {
            let bj = b_ptr.add(j * k);
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = [_mm256_setzero_si256(); 4];
            let mut kk = 0usize;
            while kk < body {
                let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(bj.add(kk).cast::<__m128i>()));
                for (t, slot) in acc[..rows].iter_mut().enumerate() {
                    let va =
                        _mm256_cvtepi8_epi16(_mm_loadu_si128(a_ptr.add((i0 + t) * k + kk).cast::<__m128i>()));
                    *slot = _mm256_add_epi32(*slot, _mm256_madd_epi16(va, vb));
                }
                kk += 16;
            }
            for (t, &slot) in acc[..rows].iter().enumerate() {
                let mut sum = hsum(slot);
                let a_row = &a[(i0 + t) * k..(i0 + t) * k + k];
                for kx in body..k {
                    sum += a_row[kx] as i32 * b_row[kx] as i32;
                }
                out[(i0 + t) * n + j] = sum;
            }
        }
        i0 += rows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::int8::{interleave_scalar, nt_scalar as i8_nt_scalar, pairs_scalar};
    use crate::matmul::{accumulate_band_scalar, nt_scalar, nt_simd};

    fn mix(seed: u64, i: usize) -> u64 {
        let mut z = seed.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Mixed-sign values with full mantissas, about one in eight an exact
    /// `0.0` or `-0.0`, and — with `non_finite` — `±inf` and NaN as well.
    fn f32_fill(len: usize, seed: u64, non_finite: bool) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = mix(seed, i);
                match x % 16 {
                    0 => 0.0,
                    1 => -0.0,
                    2 if non_finite => f32::INFINITY,
                    3 if non_finite => f32::NEG_INFINITY,
                    4 if non_finite => f32::NAN,
                    _ => {
                        let mag = 0.05 + ((x >> 16) & 0xffff) as f32 / 8191.0;
                        if x & 32 == 0 {
                            mag
                        } else {
                            -mag
                        }
                    }
                }
            })
            .collect()
    }

    fn i8_fill(len: usize, seed: u64) -> Vec<i8> {
        (0..len).map(|i| mix(seed, i) as i8).collect()
    }

    /// Bitwise equality, except that any NaN matches any NaN: which NaN
    /// payload an x86 add propagates follows operand order, which the
    /// compiler may commute freely in either twin.
    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {i}: {g:?} vs {w:?}"
            );
        }
    }

    #[test]
    fn every_f32_gemm_body_matches_the_scalar_twin() {
        // rows straddle the 4-row tile, columns the 8/16-lane vectors and
        // the 64-column tile, k the 64-step panel; zero and -0.0
        // coefficients, non-finite B and a seeded C (zeros included) pin the
        // skip rule; the offset case is the column-parallel call shape
        for isa in Isa::all_supported() {
            for m in [1, 3, 4, 5, 9] {
                for n in [1, 7, 8, 15, 16, 17, 63, 64, 65, 130] {
                    for k in [1, 27, 72, 432] {
                        for (first_row, b_col0, b_pad) in [(0, 0, 0), (2, 3, 5)] {
                            let b_stride = b_col0 + n + b_pad;
                            let a = f32_fill((first_row + m) * k, 1, false);
                            let b = f32_fill(k * b_stride, 2, true);
                            let seed = f32_fill(m * n, 3, false);
                            let mut want = seed.clone();
                            accumulate_band_scalar(&a, &b, &mut want, first_row, k, b_stride, n, b_col0);
                            let mut got = seed;
                            isa.gemm_band::<true>(&a, &b, &mut got, first_row, k, b_stride, n, b_col0);
                            let what = format!("{isa:?} [{m},{k}]x[{k},{n}] row {first_row} col {b_col0}");
                            assert_same_bits(&got, &want, &what);
                        }
                    }
                }
            }
            // no rows: nothing is read, even past the first k panel
            isa.gemm_band::<true>(&[], &f32_fill(300 * 8, 2, true), &mut [], 0, 300, 8, 8, 0);
        }
    }

    #[test]
    fn every_f32_nt_body_matches_the_scalar_twin() {
        // no-skip chain: zero coefficients against inf must still give NaN,
        // and recycled garbage in the output must be overwritten
        for isa in Isa::all_supported() {
            for m in [1, 4, 5, 9] {
                for n in [1, 7, 16, 17, 64, 65] {
                    for k in [1, 27, 72, 432] {
                        let a = f32_fill(m * k, 4, false);
                        let b = f32_fill(n * k, 5, true);
                        let mut want = vec![123.0f32; m * n];
                        nt_scalar(&a, &b, &mut want, k, n);
                        let mut got = vec![-7.0f32; m * n];
                        nt_simd(isa, &a, &b, &mut got, k, n);
                        assert_same_bits(&got, &want, &format!("{isa:?} [{m},{k}]·[{n},{k}]ᵀ"));
                    }
                }
            }
        }
    }

    #[test]
    fn every_i8_nt_body_matches_the_scalar_twin() {
        // k spans the 16/32-tap vectors and their tails, m the 4-row tile
        for isa in Isa::all_supported() {
            for m in [1, 4, 5, 6] {
                for n in [1, 7, 9] {
                    for k in [3, 16, 27, 32, 33, 72, 432] {
                        let a = i8_fill(m * k, 6);
                        let b = i8_fill(n * k, 7);
                        let mut want = vec![0i32; m * n];
                        i8_nt_scalar(&a, &b, &mut want, k, n);
                        let mut got = vec![-7i32; m * n];
                        isa.i8_nt(&a, &b, &mut got, k, n);
                        assert_eq!(got, want, "{isa:?} ({m},{k},{n})");
                    }
                }
            }
        }
    }

    #[test]
    fn every_i16_pairs_body_matches_the_scalar_twin() {
        // columns straddle 64/16/masked on AVX-512 and 32/8/scalar on AVX2,
        // rows the 4- and 2-row tiles
        for isa in Isa::all_supported() {
            for m in [1, 2, 3, 4, 5, 7] {
                for n in [2, 7, 8, 9, 16, 31, 33, 64, 65, 70] {
                    for k in [2, 28, 72, 432] {
                        let a: Vec<i16> = i8_fill(m * k, 8).into_iter().map(i16::from).collect();
                        let b: Vec<i16> = i8_fill(k * n, 9).into_iter().map(i16::from).collect();
                        let mut want = vec![0i32; m * n];
                        pairs_scalar(&a, &b, &mut want, k, n);
                        let mut got = vec![-7i32; m * n];
                        isa.i16_pairs(&a, &b, &mut got, k, n);
                        assert_eq!(got, want, "{isa:?} ({m},{k},{n})");
                    }
                }
            }
        }
    }

    #[test]
    fn every_interleave_body_matches_the_scalar_twin() {
        for isa in Isa::all_supported() {
            for l in [1, 3, 15, 16, 17, 31, 32, 33, 64, 70] {
                let (r0, r1) = (i8_fill(l, 10), i8_fill(l, 11));
                let mut want = vec![0i16; 2 * l];
                interleave_scalar(&r0, &r1, &mut want);
                let mut got = vec![-5i16; 2 * l];
                isa.interleave(&r0, &r1, &mut got);
                assert_eq!(got, want, "{isa:?} l {l}");
            }
        }
    }
}
