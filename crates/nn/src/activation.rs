//! Activation functions, including the paper's clipped variants.
//!
//! The FT-ClipAct mitigation (paper §IV-A) replaces unbounded activations
//! with clipped versions that map **high-intensity (possibly faulty) values
//! to zero**:
//!
//! ```text
//! f(x) = x   if 0 ≤ x ≤ T
//!        0   otherwise
//! ```
//!
//! [`Activation::SaturatedRelu`] (clip *to* the threshold, ReLU6-style) is
//! also provided as an ablation: the paper argues mapping to zero is the
//! right choice because a saturated faulty value still carries maximal
//! (wrong) intensity, while zero is neutral.

use ftclip_tensor::Tensor;

/// An elementwise activation function.
///
/// # Example
///
/// ```
/// use ftclip_nn::Activation;
///
/// let clipped = Activation::ClippedRelu { threshold: 2.0 };
/// assert_eq!(clipped.apply_scalar(1.5), 1.5);
/// assert_eq!(clipped.apply_scalar(2.5), 0.0); // faulty high-intensity → 0
/// assert_eq!(clipped.apply_scalar(-1.0), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// The identity function (used where a computational layer should be
    /// followed by no non-linearity but the site must still exist).
    Identity,
    /// Standard rectified linear unit: `max(0, x)`.
    Relu,
    /// The paper's clipped ReLU: `x` on `[0, threshold]`, `0` elsewhere.
    ClippedRelu {
        /// The clipping threshold `T` (strictly positive, finite).
        threshold: f32,
    },
    /// Saturated ("ReLU6-style") variant: `min(max(0, x), threshold)`.
    /// Ablation only — not the paper's proposal.
    SaturatedRelu {
        /// The saturation threshold.
        threshold: f32,
    },
    /// Leaky ReLU: `x` for `x ≥ 0`, `slope·x` otherwise.
    LeakyRelu {
        /// Negative-side slope (typically 0.01).
        slope: f32,
    },
    /// Clipped Leaky ReLU (the generalization mentioned in paper §IV-A):
    /// `slope·x` for `x < 0`, `x` on `[0, threshold]`, `0` above.
    ClippedLeakyRelu {
        /// Negative-side slope.
        slope: f32,
        /// The clipping threshold `T`.
        threshold: f32,
    },
}

impl Activation {
    /// Applies the activation to a single value.
    pub fn apply_scalar(&self, x: f32) -> f32 {
        match *self {
            Activation::Identity => x,
            Activation::Relu => relu(x),
            Activation::ClippedRelu { threshold } => clipped_relu(x, threshold),
            Activation::SaturatedRelu { threshold } => saturated_relu(x, threshold),
            Activation::LeakyRelu { slope } => leaky_relu(x, slope),
            Activation::ClippedLeakyRelu { slope, threshold } => clipped_leaky_relu(x, slope, threshold),
        }
    }

    /// The fused bias + activation pass: `row[i] = act(row[i] + b_i)`, with
    /// `b_i` the `i`-th item of `bias` (`act = None` adds the bias only).
    ///
    /// Every inference epilogue runs through here: the `f32` plan's fused
    /// convolution (one broadcast bias per output-channel row) and linear
    /// (one bias per feature) nodes, the standalone activation layer, and
    /// the int8 plan after dequantization. The variant is matched **once per
    /// call**, so each arm is a straight loop the compiler can vectorize;
    /// each arm evaluates the same expression as [`Activation::apply_scalar`],
    /// so every output bit equals `apply_scalar(row[i] + b_i)`.
    ///
    /// # Example
    ///
    /// ```
    /// use ftclip_nn::Activation;
    ///
    /// let mut row = [0.5, 3.0, -1.0];
    /// Activation::bias_act(Some(Activation::ClippedRelu { threshold: 2.0 }), &mut row, [1.0; 3]);
    /// assert_eq!(row, [1.5, 0.0, 0.0]);
    /// ```
    pub fn bias_act(act: Option<Activation>, row: &mut [f32], bias: impl IntoIterator<Item = f32>) {
        #[inline(always)]
        fn pass(row: &mut [f32], bias: impl IntoIterator<Item = f32>, f: impl Fn(f32) -> f32) {
            for (v, b) in row.iter_mut().zip(bias) {
                *v = f(*v + b);
            }
        }
        match act {
            None | Some(Activation::Identity) => pass(row, bias, |x| x),
            Some(Activation::Relu) => pass(row, bias, relu),
            Some(Activation::ClippedRelu { threshold }) => pass(row, bias, |x| clipped_relu(x, threshold)),
            Some(Activation::SaturatedRelu { threshold }) => {
                pass(row, bias, |x| saturated_relu(x, threshold))
            }
            Some(Activation::LeakyRelu { slope }) => pass(row, bias, |x| leaky_relu(x, slope)),
            Some(Activation::ClippedLeakyRelu { slope, threshold }) => {
                pass(row, bias, |x| clipped_leaky_relu(x, slope, threshold))
            }
        }
    }

    /// Derivative with respect to the input, evaluated at pre-activation `x`.
    ///
    /// At the (measure-zero) kink points the subgradient `0` is used, matching
    /// common deep-learning practice.
    pub fn derivative(&self, x: f32) -> f32 {
        match *self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::ClippedRelu { threshold } => {
                if x > 0.0 && x < threshold {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::SaturatedRelu { threshold } => {
                if x > 0.0 && x < threshold {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu { slope } => {
                if x > 0.0 {
                    1.0
                } else {
                    slope
                }
            }
            Activation::ClippedLeakyRelu { slope, threshold } => {
                if x < 0.0 {
                    slope
                } else if x < threshold {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Applies the activation elementwise to a tensor.
    pub fn apply(&self, x: &Tensor) -> Tensor {
        x.map(|v| self.apply_scalar(v))
    }

    /// The clipping threshold, when this is a clipped/saturated variant.
    pub fn threshold(&self) -> Option<f32> {
        match *self {
            Activation::ClippedRelu { threshold }
            | Activation::SaturatedRelu { threshold }
            | Activation::ClippedLeakyRelu { threshold, .. } => Some(threshold),
            _ => None,
        }
    }

    /// Returns a copy of `self` with the threshold replaced, when this is a
    /// clipped/saturated variant; `None` otherwise.
    pub fn with_threshold(&self, threshold: f32) -> Option<Activation> {
        match *self {
            Activation::ClippedRelu { .. } => Some(Activation::ClippedRelu { threshold }),
            Activation::SaturatedRelu { .. } => Some(Activation::SaturatedRelu { threshold }),
            Activation::ClippedLeakyRelu { slope, .. } => {
                Some(Activation::ClippedLeakyRelu { slope, threshold })
            }
            _ => None,
        }
    }

    /// The clipped counterpart of an unbounded activation (paper Step 2).
    ///
    /// `Relu` becomes `ClippedRelu`, `LeakyRelu` becomes `ClippedLeakyRelu`;
    /// already-clipped variants get the new threshold; `Identity` is returned
    /// unchanged (it is bounded by construction of its surrounding layers and
    /// the paper never clips it).
    pub fn clipped(&self, threshold: f32) -> Activation {
        match *self {
            Activation::Identity => Activation::Identity,
            Activation::Relu | Activation::ClippedRelu { .. } => Activation::ClippedRelu { threshold },
            Activation::SaturatedRelu { .. } => Activation::SaturatedRelu { threshold },
            Activation::LeakyRelu { slope } | Activation::ClippedLeakyRelu { slope, .. } => {
                Activation::ClippedLeakyRelu { slope, threshold }
            }
        }
    }

    /// `true` for variants that bound their output range.
    pub fn is_clipped(&self) -> bool {
        self.threshold().is_some()
    }
}

// The scalar rule of each variant, shared by `apply_scalar` and the row pass
// of `bias_act` so the two cannot drift apart.

#[inline(always)]
fn relu(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

#[inline(always)]
fn clipped_relu(x: f32, threshold: f32) -> f32 {
    if x >= 0.0 && x <= threshold {
        x
    } else {
        0.0
    }
}

#[inline(always)]
fn saturated_relu(x: f32, threshold: f32) -> f32 {
    x.clamp(0.0, threshold)
}

#[inline(always)]
fn leaky_relu(x: f32, slope: f32) -> f32 {
    if x >= 0.0 {
        x
    } else {
        slope * x
    }
}

#[inline(always)]
fn clipped_leaky_relu(x: f32, slope: f32, threshold: f32) -> f32 {
    if x < 0.0 {
        slope * x
    } else if x <= threshold {
        x
    } else {
        0.0
    }
}

impl Default for Activation {
    /// Defaults to [`Activation::Relu`], the paper's baseline activation.
    fn default() -> Self {
        Activation::Relu
    }
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Activation::Identity => write!(f, "identity"),
            Activation::Relu => write!(f, "relu"),
            Activation::ClippedRelu { threshold } => write!(f, "clipped-relu(T={threshold})"),
            Activation::SaturatedRelu { threshold } => write!(f, "saturated-relu(T={threshold})"),
            Activation::LeakyRelu { slope } => write!(f, "leaky-relu({slope})"),
            Activation::ClippedLeakyRelu { slope, threshold } => {
                write!(f, "clipped-leaky-relu({slope},T={threshold})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_basic() {
        assert_eq!(Activation::Relu.apply_scalar(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply_scalar(3.0), 3.0);
    }

    #[test]
    fn clipped_relu_maps_high_values_to_zero() {
        let a = Activation::ClippedRelu { threshold: 4.0 };
        assert_eq!(a.apply_scalar(4.0), 4.0);
        assert_eq!(a.apply_scalar(4.0001), 0.0);
        assert_eq!(a.apply_scalar(1e30), 0.0);
        assert_eq!(a.apply_scalar(f32::INFINITY), 0.0);
    }

    #[test]
    fn clipped_relu_handles_nan_as_faulty() {
        // NaN fails both comparisons, so a NaN activation (produced by
        // inf − inf in a faulted dot product) is squashed to zero.
        let a = Activation::ClippedRelu { threshold: 4.0 };
        assert_eq!(a.apply_scalar(f32::NAN), 0.0);
    }

    #[test]
    fn saturated_relu_clamps_instead() {
        let a = Activation::SaturatedRelu { threshold: 4.0 };
        assert_eq!(a.apply_scalar(1e30), 4.0);
        assert_eq!(a.apply_scalar(-2.0), 0.0);
    }

    #[test]
    fn leaky_and_clipped_leaky() {
        let l = Activation::LeakyRelu { slope: 0.1 };
        assert!((l.apply_scalar(-2.0) + 0.2).abs() < 1e-6);
        let cl = Activation::ClippedLeakyRelu { slope: 0.1, threshold: 1.0 };
        assert!((cl.apply_scalar(-2.0) + 0.2).abs() < 1e-6);
        assert_eq!(cl.apply_scalar(0.5), 0.5);
        assert_eq!(cl.apply_scalar(2.0), 0.0);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let acts = [
            Activation::Relu,
            Activation::ClippedRelu { threshold: 2.0 },
            Activation::SaturatedRelu { threshold: 2.0 },
            Activation::LeakyRelu { slope: 0.05 },
            Activation::ClippedLeakyRelu { slope: 0.05, threshold: 2.0 },
            Activation::Identity,
        ];
        let eps = 1e-3f32;
        for a in acts {
            // probe away from kinks
            for &x in &[-1.5f32, -0.7, 0.3, 1.1, 1.7, 2.5, 3.5] {
                let num = (a.apply_scalar(x + eps) - a.apply_scalar(x - eps)) / (2.0 * eps);
                let ana = a.derivative(x);
                assert!(
                    (num - ana).abs() < 1e-2,
                    "{a}: derivative mismatch at {x}: numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn clipped_constructor_maps_families() {
        assert_eq!(Activation::Relu.clipped(3.0), Activation::ClippedRelu { threshold: 3.0 });
        assert_eq!(
            Activation::LeakyRelu { slope: 0.1 }.clipped(3.0),
            Activation::ClippedLeakyRelu { slope: 0.1, threshold: 3.0 }
        );
        assert_eq!(Activation::Identity.clipped(3.0), Activation::Identity);
    }

    #[test]
    fn with_threshold_updates_only_clipped() {
        assert_eq!(
            Activation::ClippedRelu { threshold: 1.0 }.with_threshold(9.0),
            Some(Activation::ClippedRelu { threshold: 9.0 })
        );
        assert_eq!(Activation::Relu.with_threshold(9.0), None);
    }

    #[test]
    fn apply_tensor_elementwise() {
        let a = Activation::ClippedRelu { threshold: 1.0 };
        let x = Tensor::from_slice(&[-1.0, 0.5, 2.0]);
        assert_eq!(a.apply(&x).data(), &[0.0, 0.5, 0.0]);
    }

    #[test]
    fn display_nonempty() {
        for a in [Activation::Relu, Activation::ClippedRelu { threshold: 1.0 }] {
            assert!(!a.to_string().is_empty());
        }
    }
}
