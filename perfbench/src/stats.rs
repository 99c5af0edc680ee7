//! Order statistics over a run's samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks (the "type 7" estimator most tools default to).
/// `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`; `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The 90th percentile of `values`; `None` for an empty slice.
pub fn p90(values: &[f64]) -> Option<f64> {
    quantile(values, 0.9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_quantiles() {
        assert_eq!(median(&[]), None);
        assert_eq!(p90(&[]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
    }

    #[test]
    fn p90_interpolates_between_ranks() {
        let values: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(p90(&values), Some(10.0));
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((p90(&values).unwrap() - 9.1).abs() < 1e-12);
    }

    #[test]
    fn quantile_ends_are_min_and_max_and_order_is_irrelevant() {
        let values = [5.0, -1.0, 9.0, 2.0];
        assert_eq!(quantile(&values, 0.0), Some(-1.0));
        assert_eq!(quantile(&values, 1.0), Some(9.0));
        assert_eq!(quantile(&values, 2.0), Some(9.0));
        let mut reversed = values;
        reversed.reverse();
        assert_eq!(median(&values), median(&reversed));
    }
}
