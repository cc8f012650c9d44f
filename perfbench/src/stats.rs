//! Summary statistics and the result line.

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-th percentile (`0 < p < 100`) of `values`, or `None` unless at
/// least ten samples lie strictly beyond the rank it reads: a tail figure
/// resting on fewer samples than that is noise, not a measurement.
pub fn percentile_with_tail(values: &[f64], p: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank: the smallest value with at least p% of samples at or
    // below it.
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    let rank = rank.clamp(1, v.len().max(1));
    if v.len() < rank + 10 {
        return None;
    }
    Some(v[rank - 1])
}

/// Whether `name` may name a metric: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.chars().all(ok_char)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The last line of a run: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(valid_metric_name(m.name), "invalid metric name {:?}", m.name);
            assert!(m.value.is_finite(), "metric {} is not finite: {}", m.name, m.value);
            format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 99 samples: p90 reads rank 90, with only 9 beyond it.
        assert_eq!(percentile_with_tail(&samples(99), 90.0), None);
        // 100 samples: rank 90 with exactly 10 beyond.
        assert_eq!(percentile_with_tail(&samples(100), 90.0), Some(90.0));
        assert_eq!(percentile_with_tail(&samples(250), 90.0), Some(225.0));
        // The median of 20 samples has 10 beyond it; of 19, only 9.
        assert_eq!(percentile_with_tail(&samples(20), 50.0), Some(10.0));
        assert_eq!(percentile_with_tail(&samples(19), 50.0), None);
        assert_eq!(percentile_with_tail(&[], 90.0), None);
    }

    #[test]
    fn metric_names_are_validated() {
        for good in ["setup_s", "trace.decode_s", "spacewalk.db_hit_ratio", "p50-ms", "9lives"] {
            assert!(valid_metric_name(good), "{good}");
        }
        let too_long = "a".repeat(65);
        for bad in ["", "_lead", ".dot", "with space", "semi;colon", "quo\"te", "é", &too_long] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn result_line_refuses_a_bad_name() {
        result_line(true, 1, 0, &[Metric { name: "bad name", value: 1.0, unit: "s" }]);
    }

    #[test]
    fn median_and_result_line() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let line = result_line(true, 3, 0, &[Metric { name: "setup_s", value: 0.25, unit: "s" }]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
