//! Max pooling over contiguous planes: the pool pass both inference engines
//! fuse behind their convolutions.

use crate::im2col::conv_output_size;

/// Max-pools `c` contiguous `h × w` planes into `dst` (`c` planes of
/// `oh × ow`, unpadded `kernel × kernel` windows at stride `stride`).
///
/// Every window is scanned exactly like `ftclip_nn::MaxPool2d::forward`:
/// starting from `−∞`, `ky` then `kx` ascending, replacing the best value
/// only on a strict `>`. So ties keep the first element (`+0` and `−0`
/// included), a NaN never wins, and an all-NaN window yields `−∞` — the
/// pooled bits cannot differ from the standalone layer's.
///
/// The 2×2/stride-2 pool of every reproduced network takes a row-pair
/// fast path that runs the same four-element scan as a branch-free select
/// chain the compiler can vectorize. Unpadded windows never cross the plane
/// edge, so an odd trailing row or column is simply never read.
///
/// # Panics
///
/// Panics if `src` is not `c·h·w` elements, `dst` is not `c·oh·ow`
/// elements, or the window does not fit in a plane.
pub fn max_pool_planes(
    src: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
    dst: &mut [f32],
) {
    let oh = conv_output_size(h, kernel, stride, 0);
    let ow = conv_output_size(w, kernel, stride, 0);
    assert_eq!(src.len(), c * h * w, "max_pool_planes source size mismatch");
    assert_eq!(dst.len(), c * oh * ow, "max_pool_planes destination size mismatch");
    if kernel == 2 && stride == 2 {
        for (plane, out) in src.chunks_exact(h * w).zip(dst.chunks_exact_mut(oh * ow)) {
            for (rows, out_row) in plane.chunks_exact(2 * w).zip(out.chunks_exact_mut(ow)) {
                let (top, bot) = rows.split_at(w);
                for ((slot, t), b) in out_row.iter_mut().zip(top.chunks_exact(2)).zip(bot.chunks_exact(2)) {
                    let mut best = f32::NEG_INFINITY;
                    for v in [t[0], t[1], b[0], b[1]] {
                        best = if v > best { v } else { best };
                    }
                    *slot = best;
                }
            }
        }
        return;
    }
    let mut o = 0usize;
    for plane in src.chunks_exact(h * w) {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                for ky in 0..kernel {
                    for kx in 0..kernel {
                        let v = plane[(oy * stride + ky) * w + ox * stride + kx];
                        if v > best {
                            best = v;
                        }
                    }
                }
                dst[o] = best;
                o += 1;
            }
        }
    }
}
