//! Persistent, resumable campaign result store for the FT-ClipAct
//! reproduction.
//!
//! The paper's headline figures integrate large `(fault rate × repetition)`
//! injection grids that are expensive to recompute, yet fully deterministic:
//! every cell's result is a pure function of the model bits, the fault
//! configuration and the derived seed. This crate exploits that purity to
//! make campaigns *checkpointable*:
//!
//! * [`Fingerprint`]/[`CellKey`] — content-addresses a campaign scope by a
//!   stable 128-bit hash of its inputs (model digest, fault model, target,
//!   rate grid, seed, evaluation settings), independent of the order the
//!   fields are described in.
//! * [`model_digest`] — folds a network's architecture, exact weight bits
//!   and activation/protection configuration (clipping thresholds included)
//!   into the fingerprint, so a hardened network never aliases its
//!   unprotected twin.
//! * [`ResultStore`]/[`StoreSession`] — an append-only on-disk cache under
//!   `results/cache/` storing each cell's accuracy as raw IEEE-754 bits.
//!   A session implements [`ftclip_fault::CampaignCache`], so
//!   `Campaign::run` skips completed cells on resume —
//!   with results **bit-identical** to a fresh run at any thread count.
//! * [`campaign_fingerprint`] — the canonical fingerprint of a
//!   [`ftclip_fault::CampaignConfig`] bound to a network. Repetition count
//!   is deliberately *not* part of the key: cells are addressed by
//!   `(rate_index, repetition)`, so raising `--reps` extends a cached
//!   campaign instead of restarting it.
//!
//! # Example
//!
//! ```
//! use ftclip_fault::{Campaign, CampaignConfig, FaultModel, InjectionTarget};
//! use ftclip_nn::{Layer, Scratch, Sequential, Span};
//! use ftclip_store::{campaign_fingerprint, ResultStore};
//!
//! let net = Sequential::new(vec![Layer::linear(4, 2, 0)]);
//! let cfg = CampaignConfig {
//!     fault_rates: vec![1e-3, 1e-2],
//!     repetitions: 2,
//!     seed: 7,
//!     model: FaultModel::BitFlip,
//!     target: InjectionTarget::AllWeights,
//!     stopping: None,
//! };
//! let store = ResultStore::new(std::env::temp_dir().join("ftclip-doc-cache"));
//! let session = store.session(&campaign_fingerprint(&net, &cfg)).unwrap();
//! let campaign = Campaign::new(cfg);
//! let eval = |n: &Sequential| {
//!     let y = n.execute(&ftclip_tensor::Tensor::ones(&[1, 4]), Span::full(), &mut Scratch::new());
//!     y.iter().filter(|v| v.is_finite()).count() as f64 / y.len() as f64
//! };
//! let fresh = campaign.run(&net, 2, &session, eval);
//! // a second run is served entirely from the cache, bit for bit
//! let resumed = campaign.run(&net, 2, &session, eval);
//! assert_eq!(fresh.runs, resumed.runs);
//! # std::fs::remove_dir_all(session.dir()).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crc;
mod fingerprint;
mod store;

pub use crc::crc32;
pub use fingerprint::{model_digest, CellKey, Fingerprint};
pub use store::{
    resolve_cache_root, write_atomic, ResultStore, SessionSummary, StoreSession, CELLS_FILE, CLEAN_FILE,
    MANIFEST_FILE, QUARANTINE_FILE,
};

use ftclip_fault::CampaignConfig;
use ftclip_nn::Sequential;

/// The canonical fingerprint of a campaign: the model digest plus every
/// [`CampaignConfig`] field that determines cell results.
///
/// Three deliberate omissions, all safe by construction:
///
/// * `repetitions` — cells are addressed by `(rate_index, repetition)`
///   inside the session, so a 50-repetition run resumes the cells a
///   10-repetition run already paid for.
/// * `stopping` — the adaptive stopping rule only decides *which* cells
///   run, never what any cell computes, so adaptive and exhaustive runs
///   share cached cells: an adaptive campaign extends a fixed-reps
///   session and vice versa.
/// * the evaluation function — it is a closure the store cannot see.
///   Callers whose evaluation varies (subset size, eval seed, dataset)
///   **must** chain the distinguishing settings onto the returned
///   fingerprint, e.g. `.uint("eval_size", n)`, before opening a session.
pub fn campaign_fingerprint(net: &Sequential, config: &CampaignConfig) -> Fingerprint {
    Fingerprint::new("ftclip-campaign-v1")
        .uint("model", model_digest(net))
        .text("fault_model", &config.model.to_string())
        .text("target", &config.target.to_string())
        .uint("seed", config.seed)
        .float_list("fault_rates", &config.fault_rates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclip_fault::{FaultModel, InjectionTarget};
    use ftclip_nn::Layer;

    fn cfg(seed: u64) -> CampaignConfig {
        CampaignConfig {
            fault_rates: vec![1e-4, 1e-3],
            repetitions: 3,
            seed,
            model: FaultModel::BitFlip,
            target: InjectionTarget::AllWeights,
            stopping: None,
        }
    }

    #[test]
    fn repetitions_do_not_change_the_key() {
        let net = Sequential::new(vec![Layer::linear(4, 2, 0)]);
        let mut more_reps = cfg(1);
        more_reps.repetitions = 50;
        assert_eq!(campaign_fingerprint(&net, &cfg(1)).key(), campaign_fingerprint(&net, &more_reps).key());
    }

    #[test]
    fn stopping_rule_does_not_change_the_key() {
        // the rule decides which cells run, not what they compute — an
        // adaptive campaign must resume the exhaustive run's session
        let net = Sequential::new(vec![Layer::linear(4, 2, 0)]);
        let mut adaptive = cfg(1);
        adaptive.stopping =
            Some(ftclip_fault::StoppingRule { target_half_width: 0.02, min_reps: 2, max_reps: 50 });
        assert_eq!(campaign_fingerprint(&net, &cfg(1)).key(), campaign_fingerprint(&net, &adaptive).key());
    }

    #[test]
    fn every_result_determining_field_changes_the_key() {
        let net = Sequential::new(vec![Layer::linear(4, 2, 0)]);
        let base = campaign_fingerprint(&net, &cfg(1)).key();

        assert_ne!(base, campaign_fingerprint(&net, &cfg(2)).key(), "seed");
        let mut c = cfg(1);
        c.model = FaultModel::StuckAt1;
        assert_ne!(base, campaign_fingerprint(&net, &c).key(), "fault model");
        let mut c = cfg(1);
        c.target = InjectionTarget::Layer(0);
        assert_ne!(base, campaign_fingerprint(&net, &c).key(), "target");
        let mut c = cfg(1);
        c.fault_rates = vec![1e-4, 2e-3];
        assert_ne!(base, campaign_fingerprint(&net, &c).key(), "rates");
        let other_net = Sequential::new(vec![Layer::linear(4, 2, 1)]);
        assert_ne!(base, campaign_fingerprint(&other_net, &cfg(1)).key(), "model");
    }
}
