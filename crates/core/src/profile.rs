//! Step 1: activation profiling.
//!
//! The methodology's first step runs a subset of the validation set through
//! the pre-trained network and extracts, per activation site, the maximum
//! observed activation value `ACT_max` (paper §IV, Step-1). The same pass
//! also yields the activation distributions plotted in Fig. 3 (b–d, f–h,
//! j–l), so the profiler records a histogram alongside the scalar
//! statistics.

use ftclip_nn::{Scratch, Sequential, Span};
use ftclip_tensor::Tensor;

/// Histogram of activation values with linear bins.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationHistogram {
    lo: f32,
    hi: f32,
    counts: Vec<u64>,
}

impl ActivationHistogram {
    /// Builds a histogram of `values` with `bins` linear bins spanning
    /// `[lo, hi]`. Values outside the range clamp into the edge bins, which
    /// is what makes faulty high-intensity outliers visible in the top bin.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn build(values: impl Iterator<Item = f32>, lo: f32, hi: f32, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(lo < hi, "empty histogram range [{lo}, {hi}]");
        let mut counts = vec![0u64; bins];
        let width = (hi - lo) / bins as f32;
        for v in values {
            if v.is_nan() {
                continue;
            }
            let idx = (((v - lo) / width).floor() as i64).clamp(0, bins as i64 - 1) as usize;
            counts[idx] += 1;
        }
        ActivationHistogram { lo, hi, counts }
    }

    /// The bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// `(low_edge, high_edge)` of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= counts().len()`.
    pub fn bin_range(&self, i: usize) -> (f32, f32) {
        assert!(i < self.counts.len(), "bin {i} out of range");
        let width = (self.hi - self.lo) / self.counts.len() as f32;
        (self.lo + i as f32 * width, self.lo + (i + 1) as f32 * width)
    }

    /// Total number of counted values.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Profiling result for one activation site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteProfile {
    /// Layer index of the activation site within the network.
    pub site: usize,
    /// Paper-style name of the computational layer feeding this site
    /// (e.g. `"CONV-4"`).
    pub feeds_from: String,
    /// Layer index of the computational layer feeding this site — the layer
    /// [`feeds_from`](Self::feeds_from) names — or `None` if no
    /// computational layer precedes it.
    pub feeding_layer: Option<usize>,
    /// Maximum pre-activation value observed — the paper's `ACT_max`, the
    /// initial clipping threshold of Step 2 and the upper search bound of
    /// Step 3.
    pub act_max: f32,
    /// Minimum pre-activation value observed.
    pub act_min: f32,
    /// Mean pre-activation value.
    pub mean: f32,
    /// Distribution of pre-activation values.
    pub histogram: ActivationHistogram,
}

impl SiteProfile {
    /// The site's Step 2 clipping threshold: its `ACT_max`, or
    /// `f32::MIN_POSITIVE` for a dead site (`ACT_max` zero, negative or
    /// NaN), so the conversion stays valid. The one home of that rule.
    pub fn initial_threshold(&self) -> f32 {
        self.act_max.max(f32::MIN_POSITIVE)
    }
}

/// Profiles every activation site of `net` over `images` (paper Step 1).
///
/// The recorded quantity is the **input** of each activation site — the
/// output of the computational/pooling layer feeding it — because that is
/// the value the clipping threshold bounds.
///
/// Images are processed in batches of `batch_size`; `bins` controls the
/// histogram resolution.
///
/// # Panics
///
/// Panics if the network has no activation sites, `images` is not a valid
/// input batch tensor for the network, or `batch_size == 0`.
pub fn profile_network(
    net: &Sequential,
    images: &Tensor,
    batch_size: usize,
    bins: usize,
) -> Vec<SiteProfile> {
    assert!(batch_size > 0, "batch size must be positive");
    let sites = net.activation_sites();
    assert!(!sites.is_empty(), "network has no activation sites to profile");
    assert!(sites[0] > 0, "activation site at layer 0 has no feeding layer");
    let n = images.shape()[0];

    // map each activation site to the computational layer feeding it
    let comp_indices = net.computational_indices();
    let comp_names = net.computational_names();
    let feeder_of_site = |site: usize| comp_indices.iter().zip(&comp_names).rfind(|(&ci, _)| ci < site);

    // One scratch arena for the whole call; every batch walks the sites in
    // order, handing `visit` each site's input tensor.
    let mut scratch = Scratch::new();
    let mut for_each_site_input = |visit: &mut dyn FnMut(usize, &Tensor)| {
        let mut start = 0usize;
        while start < n {
            let end = (start + batch_size).min(n);
            let mut cur = images.slice_batch(start..end);
            let mut at = 0usize;
            for (si, &site) in sites.iter().enumerate() {
                let next = net.execute(&cur, Span::range(at, site), &mut scratch);
                scratch.recycle(std::mem::replace(&mut cur, next).into_vec());
                at = site;
                visit(si, &cur);
            }
            start = end;
        }
    };

    // pass 1: min / max / mean
    let mut mins = vec![f32::INFINITY; sites.len()];
    let mut maxs = vec![f32::NEG_INFINITY; sites.len()];
    let mut sums = vec![0.0f64; sites.len()];
    let mut counts = vec![0u64; sites.len()];
    for_each_site_input(&mut |si, input| {
        mins[si] = mins[si].min(input.min());
        maxs[si] = maxs[si].max(input.max());
        sums[si] += input.iter().map(|&v| v as f64).sum::<f64>();
        counts[si] += input.len() as u64;
    });

    // pass 2: histograms over the discovered ranges
    let mut histograms: Vec<ActivationHistogram> = mins
        .iter()
        .zip(&maxs)
        .map(|(&lo, &hi)| {
            let (lo, hi) = histogram_range(lo, hi);
            ActivationHistogram { lo, hi, counts: vec![0; bins.max(1)] }
        })
        .collect();
    for_each_site_input(&mut |si, input| {
        let h = &histograms[si];
        let merged = ActivationHistogram::build(input.iter().copied(), h.lo, h.hi, h.counts.len());
        for (acc, add) in histograms[si].counts.iter_mut().zip(merged.counts()) {
            *acc += add;
        }
    });

    sites
        .iter()
        .enumerate()
        .map(|(si, &site)| {
            let feeder = feeder_of_site(site);
            SiteProfile {
                site,
                feeds_from: feeder.map_or_else(|| "INPUT".to_string(), |(_, name)| name.clone()),
                feeding_layer: feeder.map(|(&ci, _)| ci),
                act_max: maxs[si],
                act_min: mins[si],
                mean: (sums[si] / counts[si] as f64) as f32,
                histogram: histograms[si].clone(),
            }
        })
        .collect()
}

/// A finite, non-empty histogram range covering the observed `[lo, hi]`.
/// A degenerate range (one repeated value) widens to `lo ± 0.5`, or to the
/// neighbouring floats once `lo` is so large that `± 0.5` is absorbed; a
/// site with no finite value (`lo = +inf`) falls back to `[-0.5, 0.5]`.
fn histogram_range(lo: f32, hi: f32) -> (f32, f32) {
    if lo < hi {
        (lo, hi)
    } else if !lo.is_finite() {
        (-0.5, 0.5)
    } else if lo - 0.5 < lo + 0.5 {
        (lo - 0.5, lo + 0.5)
    } else {
        (lo.next_down().max(f32::MIN), lo.next_up().min(f32::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclip_nn::Layer;

    fn net() -> Sequential {
        Sequential::new(vec![
            Layer::conv2d(1, 2, 3, 1, 1, 30),
            Layer::relu(),
            Layer::flatten(),
            Layer::linear(2 * 16, 4, 31),
            Layer::relu(),
        ])
    }

    #[test]
    fn profiles_every_site() {
        let n = net();
        let x = ftclip_tensor::uniform_init(&[6, 1, 4, 4], -1.0, 1.0, &mut rand_rng(1));
        let profiles = profile_network(&n, &x, 4, 16);
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].feeds_from, "CONV-1");
        assert_eq!(profiles[1].feeds_from, "FC-1");
        for p in &profiles {
            assert!(p.act_max >= p.act_min);
            assert!(p.act_max >= p.mean && p.mean >= p.act_min);
        }
    }

    #[test]
    fn act_max_matches_manual_forward() {
        let n = net();
        let x = ftclip_tensor::uniform_init(&[5, 1, 4, 4], -1.0, 1.0, &mut rand_rng(2));
        let profiles = profile_network(&n, &x, 2, 8);
        // manual: conv output max over the whole set
        let manual_max = n.execute(&x, Span::prefix(1), &mut Scratch::new()).max();
        assert!((profiles[0].act_max - manual_max).abs() < 1e-6);
    }

    #[test]
    fn batching_does_not_change_results() {
        let n = net();
        let x = ftclip_tensor::uniform_init(&[7, 1, 4, 4], -1.0, 1.0, &mut rand_rng(3));
        let a = profile_network(&n, &x, 1, 8);
        let b = profile_network(&n, &x, 7, 8);
        for (pa, pb) in a.iter().zip(&b) {
            assert!((pa.act_max - pb.act_max).abs() < 1e-6);
            assert!((pa.mean - pb.mean).abs() < 1e-5);
            assert_eq!(pa.histogram.counts(), pb.histogram.counts());
        }
    }

    #[test]
    fn a_site_of_one_large_constant_profiles_without_panicking() {
        // zero weights and bias 1e8: every value at the ReLU site is 1e8,
        // where `1e8 ± 0.5` rounds back to 1e8
        let mut n = Sequential::new(vec![Layer::linear(4, 2, 32), Layer::relu()]);
        n.visit_params_mut(&mut |_, kind, v, _| {
            let fill = if kind == ftclip_nn::ParamKind::Bias { 1e8 } else { 0.0 };
            v.data_mut().fill(fill);
        });
        let x = ftclip_tensor::uniform_init(&[3, 4], -1.0, 1.0, &mut rand_rng(4));
        let profiles = profile_network(&n, &x, 2, 8);
        assert_eq!(profiles[0].act_max, 1e8);
        assert_eq!(profiles[0].histogram.total(), 3 * 2);
    }

    #[test]
    fn a_site_without_finite_values_gets_a_finite_range() {
        assert_eq!(histogram_range(f32::INFINITY, f32::NEG_INFINITY), (-0.5, 0.5));
        assert_eq!(histogram_range(f32::INFINITY, f32::INFINITY), (-0.5, 0.5));
        assert_eq!(histogram_range(2.0, 2.0), (1.5, 2.5));
        let (lo, hi) = histogram_range(f32::MAX, f32::MAX);
        assert!(lo < hi && hi.is_finite());
    }

    #[test]
    fn feeding_layer_is_the_layer_feeds_from_names() {
        for (net, channels) in
            [(ftclip_models::alexnet_cifar(0.125, 10, 5), 3), (ftclip_models::lenet5(10, 5), 1)]
        {
            let x = ftclip_tensor::uniform_init(&[2, channels, 32, 32], -1.0, 1.0, &mut rand_rng(5));
            let profiles = profile_network(&net, &x, 2, 4);
            assert_eq!(profiles.len(), net.activation_sites().len());
            for p in &profiles {
                let layer = p.feeding_layer.unwrap_or_else(|| panic!("site {} has no feeder", p.site));
                assert_eq!(net.layer_index_by_name(&p.feeds_from), Some(layer), "site {}", p.site);
                assert!(layer < p.site);
            }
        }
    }

    #[test]
    fn initial_threshold_is_act_max_or_min_positive_for_a_dead_site() {
        let at = |act_max: f32| {
            SiteProfile {
                site: 1,
                feeds_from: "CONV-1".to_string(),
                feeding_layer: Some(0),
                act_max,
                act_min: 0.0,
                mean: 0.0,
                histogram: ActivationHistogram::build(std::iter::empty(), 0.0, 1.0, 1),
            }
            .initial_threshold()
        };
        assert_eq!(at(2.5), 2.5);
        for dead in [0.0, -0.0, -3.0, f32::NEG_INFINITY, f32::NAN] {
            assert_eq!(at(dead), f32::MIN_POSITIVE, "act_max {dead}");
        }
    }

    #[test]
    fn histogram_counts_everything() {
        let h = ActivationHistogram::build([0.0, 0.5, 1.0, 2.0, -1.0].into_iter(), 0.0, 1.0, 4);
        assert_eq!(h.total(), 5); // outliers clamp into edge bins
        assert_eq!(h.counts()[0], 2); // 0.0 and the clamped −1.0
        assert_eq!(h.counts()[3], 2); // 1.0 and the clamped 2.0
    }

    #[test]
    fn histogram_ignores_nan() {
        let h = ActivationHistogram::build([f32::NAN, 0.5].into_iter(), 0.0, 1.0, 2);
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn histogram_bin_ranges_tile_the_domain() {
        let h = ActivationHistogram::build(std::iter::empty(), 0.0, 2.0, 4);
        assert_eq!(h.bin_range(0), (0.0, 0.5));
        assert_eq!(h.bin_range(3), (1.5, 2.0));
    }

    fn rand_rng(seed: u64) -> rand::rngs::StdRng {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(seed)
    }
}
