//! Property-based tests for the tensor substrate.

use ftclip_tensor::{
    col2im, gemm_accumulate, im2col, im2col_batch_into, im2col_image_overwrite, matmul, matmul_nt, matmul_tn,
    Conv2dGeometry, Tensor,
};
use proptest::prelude::*;

/// The reference the blocked kernel must replay bit-for-bit: a naive
/// `i-j-k` triple loop accumulating each element in ascending-`k` order.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape().as_matrix();
    let (_, n) = b.shape().as_matrix();
    let mut c = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a.at2(i, kk) * b.at2(kk, j);
            }
            c.data_mut()[i * n + j] = acc;
        }
    }
    c
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// Deterministic nonzero pseudo-random fill (the kernel's zero-skip makes
/// exact zeros follow a different — deliberately different — code path,
/// covered by `matmul_with_zero_coefficients_matches_skip_reference`).
fn nonzero_fill(dims: &[usize], seed: u64) -> Tensor {
    let vol: usize = dims.iter().product();
    let data = (0..vol)
        .map(|i| {
            let x = ((i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed) >> 33) as u32;
            let mag = 0.1 + (x % 1000) as f32 / 250.0;
            if x.is_multiple_of(2) {
                mag
            } else {
                -mag
            }
        })
        .collect();
    Tensor::from_vec(data, dims).unwrap()
}

/// [`nonzero_fill`] with about one element in five replaced by an exact
/// `0.0` or `-0.0` and, with `non_finite`, about one in ten by `±inf` or NaN.
fn special_fill(dims: &[usize], seed: u64, non_finite: bool) -> Tensor {
    let mut t = nonzero_fill(dims, seed);
    for (i, v) in t.data_mut().iter_mut().enumerate() {
        let x = ((i as u64).wrapping_mul(2862933555777941757).wrapping_add(seed ^ 0x5bd1) >> 29) % 40;
        *v = match x {
            0..=3 => 0.0,
            4..=7 => -0.0,
            8 | 9 if non_finite => f32::INFINITY,
            10 if non_finite => f32::NEG_INFINITY,
            11 | 12 if non_finite => f32::NAN,
            _ => *v,
        };
    }
    t
}

/// Bitwise equality, except that any NaN matches any NaN (IEEE 754 leaves
/// the propagated payload unspecified, and x86 picks it by operand order).
fn same_bits(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
}

/// The blocked kernel must be bit-identical to the naive triple loop on the
/// shapes its tiling finds awkward: degenerate, tall-skinny, wide-short and
/// sizes straddling the 512-column / 64-k tile boundaries.
#[test]
fn blocked_matmul_bitwise_on_odd_shapes() {
    for &(m, k, n) in &[
        (1usize, 1usize, 1usize), // degenerate
        (70, 3, 2),               // tall-skinny
        (2, 7, 4097),             // wide-short (column-parallel dispatch range)
        (5, 67, 513),             // one past the K_BLOCK=64 / J_TILE=512 edges
        (3, 128, 512),            // exact tile multiples
        (9, 65, 31),              // 4-wide unroll remainder (65 = 16·4 + 1)
    ] {
        let a = nonzero_fill(&[m, k], 11);
        let b = nonzero_fill(&[k, n], 23);
        assert_eq!(
            bits(&matmul(&a, &b)),
            bits(&naive_matmul(&a, &b)),
            "blocked kernel diverged from naive on [{m},{k}]x[{k},{n}]"
        );
    }
}

/// With exact-zero coefficients the kernel skips the multiply entirely; the
/// reference with the same skip rule must still match bit-for-bit.
#[test]
fn matmul_with_zero_coefficients_matches_skip_reference() {
    let (m, k, n) = (6usize, 70usize, 130usize);
    let mut a = nonzero_fill(&[m, k], 5);
    for i in 0..a.len() {
        if i % 3 == 0 {
            a.data_mut()[i] = 0.0;
        }
    }
    let b = nonzero_fill(&[k, n], 7);
    let mut expect = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for kk in 0..k {
            let a_ik = a.at2(i, kk);
            if a_ik == 0.0 {
                continue;
            }
            for j in 0..n {
                expect.data_mut()[i * n + j] += a_ik * b.at2(kk, j);
            }
        }
    }
    assert_eq!(bits(&matmul(&a, &b)), bits(&expect));
}

fn tensor_strategy(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |v| Tensor::from_vec(v, &[r, c]).unwrap())
    })
}

fn matrix_pair(max_dim: usize) -> impl Strategy<Value = (Tensor, Tensor)> {
    (1..=max_dim, 1..=max_dim, 1..=max_dim).prop_flat_map(|(m, k, n)| {
        let a = proptest::collection::vec(-5.0f32..5.0, m * k)
            .prop_map(move |v| Tensor::from_vec(v, &[m, k]).unwrap());
        let b = proptest::collection::vec(-5.0f32..5.0, k * n)
            .prop_map(move |v| Tensor::from_vec(v, &[k, n]).unwrap());
        (a, b)
    })
}

proptest! {
    #[test]
    fn add_commutes(t in tensor_strategy(8)) {
        let doubled = t.add(&t);
        let scaled = t.map(|x| 2.0 * x);
        prop_assert!(doubled.approx_eq(&scaled, 1e-5));
    }

    #[test]
    fn sub_self_is_zero(t in tensor_strategy(8)) {
        let z = t.sub(&t);
        prop_assert_eq!(z.sum(), 0.0);
    }

    #[test]
    fn reshape_preserves_sum(t in tensor_strategy(8)) {
        let flat = t.reshape(&[t.len()]).unwrap();
        prop_assert_eq!(t.sum(), flat.sum());
    }

    #[test]
    fn matmul_identity_left(t in tensor_strategy(8)) {
        let (rows, _) = t.shape().as_matrix();
        let prod = matmul(&Tensor::eye(rows), &t);
        prop_assert!(prod.approx_eq(&t, 1e-4));
    }

    #[test]
    fn matmul_distributes_over_addition((a, b) in matrix_pair(6), ) {
        // A·(B+B) == A·B + A·B
        let b2 = b.add(&b);
        let lhs = matmul(&a, &b2);
        let ab = matmul(&a, &b);
        let rhs = ab.add(&ab);
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn matmul_tn_consistent_with_matmul((a, b) in matrix_pair(6)) {
        // (Aᵀ)ᵀ·B via matmul_tn on the transposed operand must equal A·B.
        let (m, k) = a.shape().as_matrix();
        let mut at = Tensor::zeros(&[k, m]);
        for i in 0..m {
            for j in 0..k {
                at.data_mut()[j * m + i] = a.at2(i, j);
            }
        }
        let lhs = matmul_tn(&at, &b);
        let rhs = matmul(&a, &b);
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn matmul_nt_consistent_with_matmul((a, b) in matrix_pair(6)) {
        let (k, n) = b.shape().as_matrix();
        let mut bt = Tensor::zeros(&[n, k]);
        for i in 0..k {
            for j in 0..n {
                bt.data_mut()[j * k + i] = b.at2(i, j);
            }
        }
        let lhs = matmul_nt(&a, &bt);
        let rhs = matmul(&a, &b);
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn blocked_matmul_bitwise_matches_naive(
        m in 1usize..16, k in 1usize..140, n in 1usize..40,
        sa in 0u64..1000, sb in 0u64..1000,
    ) {
        // random shapes, nonzero data: the blocked/unrolled kernel must
        // replay the naive kernel's exact per-element rounding sequence
        let a = nonzero_fill(&[m, k], sa);
        let b = nonzero_fill(&[k, n], sb);
        prop_assert_eq!(bits(&matmul(&a, &b)), bits(&naive_matmul(&a, &b)));

        // the plan's slice entry point with exact-zero (and -0.0)
        // coefficients on top of a seeded output (zeros included): each
        // element must replay the skip reference — a zero coefficient adds
        // nothing, so a -0.0 output stays -0.0
        let a = special_fill(&[m, k], sa, false);
        let c0 = special_fill(&[m, n], sa ^ sb, false);
        let mut got = c0.data().to_vec();
        gemm_accumulate(a.data(), b.data(), &mut got, k, n);
        let mut want = c0.data().to_vec();
        for i in 0..m {
            for kk in 0..k {
                let a_ik = a.at2(i, kk);
                if a_ik == 0.0 {
                    continue;
                }
                for j in 0..n {
                    want[i * n + j] += a_ik * b.at2(kk, j);
                }
            }
        }
        prop_assert_eq!(got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        want.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
    }

    #[test]
    fn matmul_nt_bitwise_matches_the_dot_chain(
        m in 1usize..12, k in 1usize..140, n in 1usize..80,
        sa in 0u64..1000, sb in 0u64..1000,
    ) {
        // the linear kernel's chain starts at +0.0 and multiplies through
        // zero coefficients (no skip): 0·inf must still poison the element
        // with NaN, and a sum of -0.0 products must come out +0.0
        let a = special_fill(&[m, k], sa, false);
        let b = special_fill(&[n, k], sb, true);
        let got = matmul_nt(&a, &b);
        let mut want = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a.at2(i, kk) * b.at2(j, kk);
                }
                want[i * n + j] = acc;
            }
        }
        prop_assert!(same_bits(got.data(), &want), "matmul_nt diverged from the dot chain on [{},{}]·[{},{}]ᵀ", m, k, n, k);
    }

    #[test]
    fn argmax_rows_within_bounds(t in tensor_strategy(8)) {
        let (_, cols) = t.shape().as_matrix();
        for idx in t.argmax_rows() {
            prop_assert!(idx < cols);
        }
    }

    #[test]
    fn im2col_col2im_adjoint(
        c in 1usize..3, h in 3usize..8, w in 3usize..8,
        kernel in 1usize..4, stride in 1usize..3, pad in 0usize..2,
        seed in 0u64..1000,
    ) {
        prop_assume!(h + 2 * pad >= kernel && w + 2 * pad >= kernel);
        let geom = Conv2dGeometry::new(kernel, stride, pad);
        let vol = c * h * w;
        let x = Tensor::from_vec(
            (0..vol).map(|i| (((i as u64).wrapping_mul(seed + 1) % 17) as f32) - 8.0).collect(),
            &[c, h, w],
        ).unwrap();
        let col = im2col(&x, geom);
        let (rows, cols) = col.shape().as_matrix();
        let y = Tensor::from_vec(
            (0..rows * cols).map(|i| (((i as u64).wrapping_mul(seed + 3) % 13) as f32) - 6.0).collect(),
            &[rows, cols],
        ).unwrap();
        let lhs: f32 = col.data().iter().zip(y.data()).map(|(&p, &q)| p * q).sum();
        let back = col2im(&y, c, h, w, geom);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(&p, &q)| p * q).sum();
        prop_assert!((lhs - rhs).abs() <= 1e-2 * (1.0 + lhs.abs()), "adjoint mismatch {} vs {}", lhs, rhs);
    }

    #[test]
    fn stack_then_slice_roundtrip(t in tensor_strategy(6)) {
        let stacked = Tensor::stack(&[&t, &t]);
        let first = stacked.slice_batch(0..1);
        let expect = {
            let mut dims = vec![1usize];
            dims.extend_from_slice(t.shape().dims());
            t.reshape(&dims).unwrap()
        };
        prop_assert!(first.approx_eq(&expect, 0.0));
    }
}

/// The per-image gather both inference plans run, for `f32` and `i8`,
/// against the batched unroll, on every small geometry: pad ≥ extent, 1×1
/// images, kernel 1, strides 1–3, pad 0 and h ≠ w, so the stride-1 "same"
/// bulk copy, the per-row runs and the strided gather all meet their edge
/// cases. Destinations start dirty; every element must be overwritten.
#[test]
fn per_image_gather_matches_the_batched_unroll_on_every_small_geometry() {
    let (n, c) = (2, 2);
    for h in 1..=5 {
        for w in 1..=5 {
            for kernel in 1..=4 {
                for stride in 1..=3 {
                    for pad in 0..=5 {
                        if h + 2 * pad < kernel || w + 2 * pad < kernel {
                            continue;
                        }
                        let geom = Conv2dGeometry::new(kernel, stride, pad);
                        let seed = (h * 1000 + w * 100 + kernel * 10 + stride) as u64 * 31 + pad as u64;
                        let images = special_fill(&[n, c, h, w], seed, true);
                        let images_i8: Vec<i8> =
                            (0..n * c * h * w).map(|i| (i as u64 * 37 + seed) as u8 as i8).collect();
                        let widened =
                            Tensor::from_vec(images_i8.iter().map(|&v| v as f32).collect(), &[n, c, h, w])
                                .unwrap();
                        let (oh, ow) = geom.output_size(h, w);
                        let (rows, l) = (c * kernel * kernel, oh * ow);
                        let mut want = vec![0.0f32; rows * n * l];
                        let mut want_i8 = vec![0.0f32; rows * n * l];
                        im2col_batch_into(&images, geom, &mut want);
                        im2col_batch_into(&widened, geom, &mut want_i8);
                        let mut got = vec![f32::NAN; rows * l];
                        let mut got_i8 = vec![-77i8; rows * l];
                        let chw = c * h * w;
                        for i in 0..n {
                            im2col_image_overwrite(
                                &images.data()[i * chw..(i + 1) * chw],
                                c,
                                h,
                                w,
                                geom,
                                &mut got,
                            );
                            im2col_image_overwrite(
                                &images_i8[i * chw..(i + 1) * chw],
                                c,
                                h,
                                w,
                                geom,
                                &mut got_i8,
                            );
                            for r in 0..rows {
                                for j in 0..l {
                                    let at = r * n * l + i * l + j;
                                    let what = format!("h {h} w {w} {geom:?} image {i} row {r} col {j}");
                                    assert_eq!(got[r * l + j].to_bits(), want[at].to_bits(), "f32 {what}");
                                    assert_eq!(
                                        (got_i8[r * l + j] as f32).to_bits(),
                                        want_i8[at].to_bits(),
                                        "i8 {what}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
