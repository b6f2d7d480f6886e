//! Pure [`ResultTable`] builders for the figure procedures.
//!
//! Each builder maps already-computed campaign data to the exact table a
//! figure publishes — no I/O, no evaluation — so the output format is
//! golden-snapshot-testable (`tests/golden.rs`) without training a model,
//! and figures themselves are pure consumers of (cached) campaign results.

use ftclip_core::{Comparison, ResultTable};
use ftclip_fault::{CampaignError, CampaignResult};

/// The Fig. 1b-style per-rate summary of one campaign: mean/min/max
/// accuracy per fault rate, labeled with both the paper-equivalent and the
/// memory-scaled actual rate.
///
/// # Errors
///
/// [`CampaignError::DegenerateSamples`] if any rate has no summarizable
/// accuracy samples (empty or all-NaN).
///
/// # Panics
///
/// Panics if `paper_rates` does not match the campaign grid length.
pub fn campaign_summary_table(
    name: &str,
    result: &CampaignResult,
    paper_rates: &[f64],
) -> Result<ResultTable, CampaignError> {
    assert_eq!(paper_rates.len(), result.fault_rates.len(), "paper-rate labels must match the grid");
    let mut table = ResultTable::new(name, &["paper_rate", "actual_rate", "mean_acc", "min_acc", "max_acc"]);
    for (i, summary) in result.summaries()?.iter().enumerate() {
        table.row([
            paper_rates[i].into(),
            result.fault_rates[i].into(),
            summary.mean.into(),
            summary.min.into(),
            summary.max.into(),
        ]);
    }
    Ok(table)
}

/// Panel (a) of Figs. 7/8: mean accuracy per rate, clipped vs unprotected.
///
/// # Panics
///
/// Panics if `paper_rates` does not match the comparison grid length.
pub fn resilience_mean_table(name: &str, comparison: &Comparison, paper_rates: &[f64]) -> ResultTable {
    assert_eq!(paper_rates.len(), comparison.fault_rates.len(), "paper-rate labels must match the grid");
    let mut table =
        ResultTable::new(name, &["paper_rate", "actual_rate", "clipped_mean", "unprotected_mean"]);
    for (i, &rate) in comparison.fault_rates.iter().enumerate() {
        table.row([
            paper_rates[i].into(),
            rate.into(),
            comparison.protected_mean[i].into(),
            comparison.unprotected_mean[i].into(),
        ]);
    }
    table
}

/// Panels (b)/(c) of Figs. 7/8: the per-rate accuracy distribution (box-plot
/// statistics) of one campaign.
///
/// # Errors
///
/// [`CampaignError::DegenerateSamples`] if any rate has no summarizable
/// accuracy samples (empty or all-NaN).
///
/// # Panics
///
/// Panics if `paper_rates` does not match the campaign grid length.
pub fn resilience_box_table(
    name: &str,
    result: &CampaignResult,
    paper_rates: &[f64],
) -> Result<ResultTable, CampaignError> {
    assert_eq!(paper_rates.len(), result.fault_rates.len(), "paper-rate labels must match the grid");
    let mut table = ResultTable::new(
        name,
        &["paper_rate", "actual_rate", "min", "q1", "median", "q3", "max", "mean", "std"],
    );
    for (i, s) in result.summaries()?.iter().enumerate() {
        table.row([
            paper_rates[i].into(),
            result.fault_rates[i].into(),
            s.min.into(),
            s.q1.into(),
            s.median.into(),
            s.q3.into(),
            s.max.into(),
            s.mean.into(),
            s.std.into(),
        ]);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclip_fault::RunRecord;

    fn toy_result() -> CampaignResult {
        let accuracies = vec![vec![0.8, 0.6], vec![0.4, 0.2]];
        let runs = accuracies
            .iter()
            .enumerate()
            .flat_map(|(i, per_rate)| {
                per_rate.iter().enumerate().map(move |(r, &accuracy)| RunRecord {
                    rate_index: i,
                    repetition: r,
                    fault_count: i + r,
                    accuracy,
                })
            })
            .collect();
        CampaignResult {
            fault_rates: vec![1e-6, 1e-5],
            accuracies,
            runs,
            clean_accuracy: 0.9,
            convergence: None,
        }
    }

    #[test]
    fn summary_table_has_one_row_per_rate() {
        let t = campaign_summary_table("t", &toy_result(), &[1e-7, 1e-6]).unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.to_csv().starts_with("paper_rate,actual_rate,mean_acc,min_acc,max_acc\n"));
    }

    #[test]
    fn tables_report_degenerate_samples_instead_of_panicking() {
        // the historical failure mode: a NaN-poisoned campaign used to
        // panic inside Summary::from_samples mid-figure-write
        let mut result = toy_result();
        result.accuracies[1] = vec![f64::NAN, f64::NAN];
        let err = campaign_summary_table("t", &result, &[1e-7, 1e-6]).unwrap_err();
        assert!(matches!(err, CampaignError::DegenerateSamples { rate_index: 1 }), "{err}");
        let err = resilience_box_table("t", &result, &[1e-7, 1e-6]).unwrap_err();
        assert!(matches!(err, CampaignError::DegenerateSamples { rate_index: 1 }), "{err}");
    }

    #[test]
    #[should_panic(expected = "paper-rate labels")]
    fn summary_table_rejects_mismatched_labels() {
        let _ = campaign_summary_table("t", &toy_result(), &[1e-7]);
    }

    #[test]
    fn box_table_matches_summaries() {
        let result = toy_result();
        let t = resilience_box_table("t", &result, &[1e-7, 1e-6]).unwrap();
        assert_eq!(t.len(), 2);
        let csv = t.to_csv();
        let first_row = csv.lines().nth(1).unwrap();
        assert!(first_row.starts_with("0.0000001,0.000001,0.6,"), "{first_row}");
    }
}
