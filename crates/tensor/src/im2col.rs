//! Convolution lowering: `im2col` / `col2im`.
//!
//! `ftclip-nn`'s `Conv2d` computes a convolution as a single matrix product:
//! the input image is unrolled into a "column" matrix whose rows are the
//! receptive-field patches, then multiplied by the filter matrix. The reverse
//! scatter (`col2im`) accumulates patch gradients back into an image and is
//! used by the backward pass.

use crate::Tensor;

/// Static geometry of a 2-D convolution: kernel, stride and zero padding.
///
/// # Example
///
/// ```
/// use ftclip_tensor::Conv2dGeometry;
///
/// let g = Conv2dGeometry::new(3, 1, 1); // 3×3 kernel, stride 1, pad 1 ("same")
/// assert_eq!(g.output_size(32, 32), (32, 32));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Kernel height and width (square kernels only — all paper models use
    /// square kernels).
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding applied to each spatial border.
    pub pad: usize,
}

impl Conv2dGeometry {
    /// Creates a geometry description.
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0` or `stride == 0`.
    pub fn new(kernel: usize, stride: usize, pad: usize) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        assert!(stride > 0, "stride must be positive");
        Conv2dGeometry { kernel, stride, pad }
    }

    /// Output spatial size for an `h × w` input.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn output_size(&self, h: usize, w: usize) -> (usize, usize) {
        (
            conv_output_size(h, self.kernel, self.stride, self.pad),
            conv_output_size(w, self.kernel, self.stride, self.pad),
        )
    }
}

/// Output length of a 1-D convolution: `(input + 2·pad − kernel) / stride + 1`.
///
/// # Panics
///
/// Panics if the kernel is larger than the padded input.
pub fn conv_output_size(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    let padded = input + 2 * pad;
    assert!(padded >= kernel, "kernel {kernel} larger than padded input {padded}");
    (padded - kernel) / stride + 1
}

/// Unrolls one image `[c, h, w]` into a column matrix
/// `[c·k·k, oh·ow]` under geometry `geom`.
///
/// Column `(oy · ow + ox)` holds the receptive field of output pixel
/// `(oy, ox)` flattened channel-major; zero padding contributes zeros.
///
/// # Panics
///
/// Panics if `image` is not rank 3.
pub fn im2col(image: &Tensor, geom: Conv2dGeometry) -> Tensor {
    let dims = image.shape().dims();
    assert_eq!(dims.len(), 3, "im2col expects [c, h, w], got {}", image.shape());
    let (c, h, w) = (dims[0], dims[1], dims[2]);
    let (oh, ow) = geom.output_size(h, w);
    let k = geom.kernel;
    let rows = c * k * k;
    let cols = oh * ow;
    let mut out = Tensor::zeros(&[rows, cols]);
    let src = image.data();
    let dst = out.data_mut();
    for ci in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = (ci * k + ky) * k + kx;
                let row_base = row * cols;
                for oy in 0..oh {
                    // input y of this kernel tap, as isize to handle padding
                    let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue; // stays zero
                    }
                    let src_base = (ci * h + iy as usize) * w;
                    let dst_base = row_base + oy * ow;
                    for ox in 0..ow {
                        let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        dst[dst_base + ox] = src[src_base + ix as usize];
                    }
                }
            }
        }
    }
    out
}

/// Unrolls a whole batch `[n, c, h, w]` into one column matrix
/// `[c·k·k, n·oh·ow]`, where image `i`'s patches occupy columns
/// `i·oh·ow .. (i+1)·oh·ow`.
///
/// Batching the unroll lets a convolution over the batch run as a single
/// large matrix product, which parallelizes far better than one product per
/// image — the fault campaigns spend most of their time here.
///
/// # Panics
///
/// Panics if `images` is not rank 4.
pub fn im2col_batch(images: &Tensor, geom: Conv2dGeometry) -> Tensor {
    let (n, c, h, w) = images.shape().as_nchw();
    let (oh, ow) = geom.output_size(h, w);
    let k = geom.kernel;
    let rows = c * k * k;
    let total_cols = n * oh * ow;
    let mut out = Tensor::zeros(&[rows, total_cols]);
    im2col_batch_into(images, geom, out.data_mut());
    out
}

/// [`im2col_batch`] writing into caller-provided storage — the allocation-free
/// entry point used by the inference scratch arena.
///
/// Padding positions are left untouched (they must read as zero), so `dst`
/// **must be zero-filled** on entry; passing recycled storage without zeroing
/// it first produces garbage patches.
///
/// # Panics
///
/// Panics if `images` is not rank 4 or `dst` is not exactly
/// `c·k·k × n·oh·ow` elements.
pub fn im2col_batch_into(images: &Tensor, geom: Conv2dGeometry, dst: &mut [f32]) {
    let (n, c, h, w) = images.shape().as_nchw();
    let (oh, ow) = geom.output_size(h, w);
    let k = geom.kernel;
    let rows = c * k * k;
    let l = oh * ow;
    let total_cols = n * l;
    assert_eq!(dst.len(), rows * total_cols, "im2col_batch_into destination size mismatch");
    let src = images.data();
    let img_stride = c * h * w;
    for i in 0..n {
        let img_base = i * img_stride;
        let col_base = i * l;
        for ci in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let row = (ci * k + ky) * k + kx;
                    let row_base = row * total_cols + col_base;
                    for oy in 0..oh {
                        let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let src_base = img_base + (ci * h + iy as usize) * w;
                        let dst_base = row_base + oy * ow;
                        for ox in 0..ow {
                            let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            dst[dst_base + ox] = src[src_base + ix as usize];
                        }
                    }
                }
            }
        }
    }
}

/// Unrolls **one** image (a `[c, h, w]` slice of a batch) into a column
/// matrix `[c·k·k, oh·ow]`, **overwriting every element of `dst`** — padding
/// positions are written as `T::default()` (`0.0` for `f32`, `0` for the
/// int8 engine's zero-point-0 `i8`), so recycled storage needs no zero-fill
/// pass.
///
/// This is the gather step of both engines' im2col-elided convolution:
/// instead of materializing one batch-wide column matrix (`n·oh·ow`
/// columns, often tens of megabytes), the executor unrolls one image at a
/// time into a small cache-resident buffer that is reused across the whole
/// batch. The values written are exactly those of [`im2col_batch_into`] for
/// the corresponding image, so any kernel consuming them is bit-identical to
/// the batched path.
///
/// For stride-1 "same" geometry (`ow == w`, every conv in the paper's
/// models) source and destination share the row stride, so each tap's whole
/// in-bounds block is **one** contiguous copy at a constant offset; the
/// padding rows and the few wrapped-in elements at the row seams are zeroed
/// afterwards. Other stride-1 geometries copy one contiguous run per output
/// row; strided ones gather element by element.
///
/// # Panics
///
/// Panics if `image` is not `c·h·w` elements or `dst` is not
/// `c·k·k × oh·ow` elements.
pub fn im2col_image_overwrite<T: Copy + Default>(
    image: &[T],
    c: usize,
    h: usize,
    w: usize,
    geom: Conv2dGeometry,
    dst: &mut [T],
) {
    let (oh, ow) = geom.output_size(h, w);
    let k = geom.kernel;
    let l = oh * ow;
    assert_eq!(image.len(), c * h * w, "im2col_image_overwrite image size mismatch");
    assert_eq!(dst.len(), c * k * k * l, "im2col_image_overwrite destination size mismatch");
    let (stride, pad) = (geom.stride, geom.pad);
    let zero = T::default();
    for ci in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = (ci * k + ky) * k + kx;
                let tap = &mut dst[row * l..(row + 1) * l];
                // at stride 1 (ix = ox + kx - pad), output columns `lo..hi` read
                // inside the image
                let lo = pad.saturating_sub(kx).min(ow);
                let hi = (w + pad).saturating_sub(kx).min(ow).max(lo);
                if stride == 1 && ow == w {
                    // output index d reads input index d + (ky - pad)·w + (kx - pad):
                    // in-bounds rows `y0..y1` are one bulk move, which replaces
                    // `oh` short per-row copies whose dispatch overhead dominates
                    let y0 = pad.saturating_sub(ky).min(oh);
                    let y1 = (h + pad).saturating_sub(ky).min(oh).max(y0);
                    tap[..y0 * ow].fill(zero);
                    tap[y1 * ow..].fill(zero);
                    if y0 < y1 && lo < hi {
                        let dst_first = y0 * ow + lo;
                        let dst_last = (y1 - 1) * ow + hi;
                        let src_first = (ci * h + y0 + ky - pad) * w + lo + kx - pad;
                        tap[dst_first..dst_last]
                            .copy_from_slice(&image[src_first..src_first + (dst_last - dst_first)]);
                        for seam in tap[y0 * ow..y1 * ow].chunks_exact_mut(ow) {
                            // the bulk copy filled these (≤ `pad` each side) with
                            // wrapped neighbours; plain stores, since a `fill`
                            // of an `i8` run is a `memset` call per seam
                            for slot in &mut seam[..lo] {
                                *slot = zero;
                            }
                            for slot in &mut seam[hi..] {
                                *slot = zero;
                            }
                        }
                    } else {
                        tap[y0 * ow..y1 * ow].fill(zero);
                    }
                    continue;
                }
                for oy in 0..oh {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    let dst_row = &mut tap[oy * ow..oy * ow + ow];
                    if iy < 0 || iy >= h as isize {
                        dst_row.fill(zero);
                        continue;
                    }
                    let src_row = &image[(ci * h + iy as usize) * w..(ci * h + iy as usize + 1) * w];
                    if stride == 1 {
                        dst_row[..lo].fill(zero);
                        if lo < hi {
                            dst_row[lo..hi].copy_from_slice(&src_row[lo + kx - pad..hi + kx - pad]);
                        }
                        dst_row[hi..].fill(zero);
                    } else {
                        for (ox, slot) in dst_row.iter_mut().enumerate() {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            *slot = if ix < 0 || ix >= w as isize { zero } else { src_row[ix as usize] };
                        }
                    }
                }
            }
        }
    }
}

/// Scatters a column matrix `[c·k·k, oh·ow]` back into an image `[c, h, w]`,
/// **accumulating** overlapping contributions (the adjoint of [`im2col`]).
///
/// # Panics
///
/// Panics if `col` is not rank 2 or its shape is inconsistent with
/// `(c, h, w)` under `geom`.
pub fn col2im(col: &Tensor, c: usize, h: usize, w: usize, geom: Conv2dGeometry) -> Tensor {
    let (oh, ow) = geom.output_size(h, w);
    let k = geom.kernel;
    let (rows, cols) = col.shape().as_matrix();
    assert_eq!(rows, c * k * k, "col2im row count mismatch");
    assert_eq!(cols, oh * ow, "col2im column count mismatch");
    let mut out = Tensor::zeros(&[c, h, w]);
    let src = col.data();
    let dst = out.data_mut();
    for ci in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = (ci * k + ky) * k + kx;
                let row_base = row * cols;
                for oy in 0..oh {
                    let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let dst_base = (ci * h + iy as usize) * w;
                    let src_base = row_base + oy * ow;
                    for ox in 0..ow {
                        let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        dst[dst_base + ix as usize] += src[src_base + ox];
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_size_same_padding() {
        assert_eq!(conv_output_size(32, 3, 1, 1), 32);
        assert_eq!(conv_output_size(32, 2, 2, 0), 16);
        assert_eq!(conv_output_size(28, 5, 1, 0), 24);
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn output_size_rejects_oversized_kernel() {
        conv_output_size(2, 5, 1, 0);
    }

    #[test]
    fn im2col_identity_kernel1() {
        // 1×1 kernel stride 1: col matrix equals the flattened image.
        let img = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 2, 2]).unwrap();
        let col = im2col(&img, Conv2dGeometry::new(1, 1, 0));
        assert_eq!(col.shape().dims(), &[3, 4]);
        assert_eq!(col.data(), img.data());
    }

    #[test]
    fn im2col_known_patch() {
        // 1 channel, 3×3 image, 2×2 kernel, stride 1, no pad → 4 patches.
        let img = Tensor::from_vec((1..=9).map(|x| x as f32).collect(), &[1, 3, 3]).unwrap();
        let col = im2col(&img, Conv2dGeometry::new(2, 1, 0));
        assert_eq!(col.shape().dims(), &[4, 4]);
        // patch at output (0,0) = [1,2,4,5] read down the first column
        let first_patch: Vec<f32> = (0..4).map(|r| col.at2(r, 0)).collect();
        assert_eq!(first_patch, vec![1.0, 2.0, 4.0, 5.0]);
        // patch at output (1,1) = [5,6,8,9]
        let last_patch: Vec<f32> = (0..4).map(|r| col.at2(r, 3)).collect();
        assert_eq!(last_patch, vec![5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn im2col_pad_contributes_zeros() {
        let img = Tensor::ones(&[1, 2, 2]);
        let col = im2col(&img, Conv2dGeometry::new(3, 1, 1));
        // "same" conv: 4 output pixels; corner patch has 4 ones, 5 zeros
        assert_eq!(col.shape().dims(), &[9, 4]);
        let corner: Vec<f32> = (0..9).map(|r| col.at2(r, 0)).collect();
        assert_eq!(corner.iter().filter(|&&x| x == 1.0).count(), 4);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property the backward pass relies on.
        let geom = Conv2dGeometry::new(3, 2, 1);
        let (c, h, w) = (2, 5, 4);
        let x = Tensor::from_vec((0..c * h * w).map(|i| ((i * 37) % 11) as f32 - 5.0).collect(), &[c, h, w])
            .unwrap();
        let col = im2col(&x, geom);
        let (rows, cols) = col.shape().as_matrix();
        let y =
            Tensor::from_vec((0..rows * cols).map(|i| ((i * 13) % 7) as f32 - 3.0).collect(), &[rows, cols])
                .unwrap();
        let lhs: f32 = col.data().iter().zip(y.data()).map(|(&a, &b)| a * b).sum();
        let back = col2im(&y, c, h, w, geom);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(&a, &b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn geometry_output_size_helper() {
        let g = Conv2dGeometry::new(2, 2, 0);
        assert_eq!(g.output_size(8, 8), (4, 4));
    }

    #[test]
    fn im2col_image_overwrite_matches_batched_unroll_bitwise() {
        // dirty destination + every geometry class: stride-1 padded (the run
        // fast path incl. edges), strided unpadded, strided padded fallback
        for geom in [Conv2dGeometry::new(3, 1, 1), Conv2dGeometry::new(2, 2, 0), Conv2dGeometry::new(3, 2, 2)]
        {
            let (n, c, h, w) = (2, 3, 5, 4);
            let batch = Tensor::from_vec(
                (0..n * c * h * w).map(|i| ((i * 29) % 17) as f32 - 8.0).collect(),
                &[n, c, h, w],
            )
            .unwrap();
            let big = im2col_batch(&batch, geom);
            let (oh, ow) = geom.output_size(h, w);
            let l = oh * ow;
            let rows = c * geom.kernel * geom.kernel;
            let mut dst = vec![f32::NAN; rows * l]; // garbage must be fully overwritten
            for i in 0..n {
                im2col_image_overwrite(
                    &batch.data()[i * c * h * w..(i + 1) * c * h * w],
                    c,
                    h,
                    w,
                    geom,
                    &mut dst,
                );
                for r in 0..rows {
                    for j in 0..l {
                        assert_eq!(
                            dst[r * l + j].to_bits(),
                            big.at2(r, i * l + j).to_bits(),
                            "geom {geom:?} image {i} row {r} col {j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn im2col_batch_matches_per_image() {
        let geom = Conv2dGeometry::new(3, 2, 1);
        let (n, c, h, w) = (3, 2, 5, 4);
        let batch = Tensor::from_vec(
            (0..n * c * h * w).map(|i| ((i * 31) % 23) as f32 - 11.0).collect(),
            &[n, c, h, w],
        )
        .unwrap();
        let big = im2col_batch(&batch, geom);
        let (oh, ow) = geom.output_size(h, w);
        let l = oh * ow;
        let (rows, total_cols) = big.shape().as_matrix();
        assert_eq!(total_cols, n * l);
        for i in 0..n {
            let img = batch.slice_batch(i..i + 1).reshape(&[c, h, w]).unwrap();
            let single = im2col(&img, geom);
            for r in 0..rows {
                for j in 0..l {
                    assert_eq!(
                        big.at2(r, i * l + j),
                        single.at2(r, j),
                        "mismatch at image {i} row {r} col {j}"
                    );
                }
            }
        }
    }
}
