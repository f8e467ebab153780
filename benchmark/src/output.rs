//! The result line a run prints last, and the reader `selfcheck` uses on it.

use std::collections::BTreeMap;

/// Measured values by metric name.
pub type Values = BTreeMap<String, f64>;

/// Renders the one-line JSON result.  `declared` is the `(name, unit)` list
/// the run must report — exactly: a missing, extra or non-finite value is an
/// error, so a run can never print a metric `BENCHMARK.json` does not
/// declare.  Values print with all their digits (shortest round-trip form).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    declared: &[(&str, &str)],
    values: &Values,
) -> Result<String, String> {
    if let Some(extra) = values
        .keys()
        .find(|k| !declared.iter().any(|(name, _)| name == k))
    {
        return Err(format!(
            "metric {extra:?} is not declared in BENCHMARK.json"
        ));
    }
    let mut metrics = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let value = values
            .get(*name)
            .ok_or_else(|| format!("declared metric {name:?} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name:?} measured {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

/// The number that follows `marker` in a result line.
fn number_after<T: std::str::FromStr>(line: &str, marker: &str) -> Option<T> {
    let after = line.split(marker).nth(1)?;
    after[..after.find([',', '}'])?].trim().parse().ok()
}

/// Reads one metric's value back out of a result line.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    number_after(line, &format!("\"{name}\": {{\"value\": "))
}

/// Reads a top-level integer field (`attempted`, `failed`) of a result line.
pub fn count_field(line: &str, field: &str) -> Option<u64> {
    number_after(line, &format!("\"{field}\": "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{END_TO_END, PER_LAYER};

    fn values(names: impl Iterator<Item = &'static str>) -> Values {
        names
            .enumerate()
            .map(|(i, n)| (n.to_string(), 1.5 + i as f64))
            .collect()
    }

    #[test]
    fn result_line_round_trips_and_keeps_all_digits() {
        let declared: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
        let mut v = values(END_TO_END.iter().map(|m| m.name));
        v.insert("verdict_s".to_string(), 2.034_567_891_234_5);
        let line = result_line(true, 12, 0, &declared, &v).unwrap();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, "));
        assert_eq!(metric_value(&line, "verdict_s"), Some(2.034_567_891_234_5));
        assert_eq!(metric_value(&line, "setup_s"), v.get("setup_s").copied());
        assert_eq!(metric_value(&line, "nope"), None);
        assert_eq!(count_field(&line, "attempted"), Some(12));
        assert_eq!(count_field(&line, "failed"), Some(0));
    }

    #[test]
    fn only_declared_metrics_and_all_of_them() {
        let declared: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        let full = values(PER_LAYER.iter().map(|m| m.name));
        let line = result_line(true, 1, 0, &declared, &full).unwrap();
        for m in PER_LAYER {
            assert!(metric_value(&line, m.name).is_some(), "{} printed", m.name);
        }
        let mut extra = full.clone();
        extra.insert("codec.made_up".to_string(), 1.0);
        assert!(result_line(true, 1, 0, &declared, &extra).is_err());
        let mut missing = full.clone();
        missing.remove("dist.merge_s");
        assert!(result_line(true, 1, 0, &declared, &missing).is_err());
        let mut nan = full;
        nan.insert("dist.merge_s".to_string(), f64::NAN);
        assert!(result_line(true, 1, 0, &declared, &nan).is_err());
    }
}
