//! Sample summaries and the result line.
//!
//! Timings are reported as a median plus, when the sample supports it,
//! one tail percentile. Below [`MIN_TAIL_SAMPLES`] samples only the
//! median is reported, and a tail percentile is reported only when at
//! least [`MIN_BEYOND`] samples lie beyond it: a p99 of 200 samples is
//! the second-largest value, not a tail.

use std::fmt::Write as _;

/// Fewest samples for which any tail percentile is reported.
pub const MIN_TAIL_SAMPLES: usize = 40;

/// Fewest samples that must lie strictly beyond a reported tail.
pub const MIN_BEYOND: usize = 10;

/// A sorted sample.
#[derive(Debug, Clone)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Sorts `values`; non-finite values are a bug in the caller.
    pub fn new(mut values: Vec<f64>) -> Sample {
        assert!(values.iter().all(|v| v.is_finite()), "sample holds a non-finite value");
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The median (mean of the two middle values for an even count).
    pub fn median(&self) -> Option<f64> {
        let n = self.sorted.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(self.sorted[n / 2]),
            _ => Some((self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0),
        }
    }

    /// The mean without the lowest and the highest value (the plain mean
    /// below four values): smoother than the median over a few sessions
    /// of different inputs, and still blind to one outlying session.
    pub fn trimmed_mean(&self) -> Option<f64> {
        let n = self.sorted.len();
        let kept = if n >= 4 { &self.sorted[1..n - 1] } else { &self.sorted[..] };
        (!kept.is_empty()).then(|| kept.iter().sum::<f64>() / kept.len() as f64)
    }

    /// Nearest-rank `q` quantile, only when the sample has at least
    /// [`MIN_TAIL_SAMPLES`] values and at least [`MIN_BEYOND`] of them
    /// lie beyond the reported rank.
    pub fn tail(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n < MIN_TAIL_SAMPLES || !(0.5..1.0).contains(&q) {
            return None;
        }
        // 1-based nearest rank: the smallest rank covering a share q.
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        (n - rank >= MIN_BEYOND).then(|| self.sorted[rank - 1])
    }
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Named, unit-tagged metric values in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records one metric.
    ///
    /// # Errors
    ///
    /// Refuses an invalid or repeated name and a non-finite value.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) -> Result<(), String> {
        if !valid_metric_name(name) {
            return Err(format!("invalid metric name `{name}`"));
        }
        if self.entries.iter().any(|(n, _, _)| n == name) {
            return Err(format!("metric `{name}` reported twice"));
        }
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not finite ({value})"));
        }
        self.entries.push((name.to_string(), value, unit));
        Ok(())
    }

    /// Records the median of `sample`.
    ///
    /// # Errors
    ///
    /// Fails on an empty sample, and as [`Metrics::push`].
    pub fn push_median(
        &mut self,
        name: &str,
        sample: &Sample,
        unit: &'static str,
    ) -> Result<(), String> {
        let value = sample.median().ok_or_else(|| format!("no samples for `{name}`"))?;
        self.push(name, value, unit)
    }

    /// Records the trimmed mean of `sample`.
    ///
    /// # Errors
    ///
    /// Fails on an empty sample, and as [`Metrics::push`].
    pub fn push_trimmed_mean(
        &mut self,
        name: &str,
        sample: &Sample,
        unit: &'static str,
    ) -> Result<(), String> {
        let value = sample.trimmed_mean().ok_or_else(|| format!("no samples for `{name}`"))?;
        self.push(name, value, unit)
    }

    /// One line per metric, for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.entries {
            let _ = writeln!(out, "  {name:<32} {value:>14.6} {unit}");
        }
        out
    }
}

/// The result of one benchmark run: operation tallies, the metrics of
/// the result line, and the figures only this workload has, which go to
/// standard error alone (the result line carries the same metrics on
/// every workload).
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The result line's metrics: the same names on every workload.
    pub metrics: Metrics,
    /// Figures of this workload alone, for people.
    pub notes: Metrics,
}

impl Report {
    /// The result line's metrics, then this workload's own figures.
    pub fn table(&self) -> String {
        format!(
            "{}  (this workload only, not in the result line)\n{}",
            self.metrics.table(),
            self.notes.table()
        )
    }

    /// The single JSON result line.
    pub fn json_line(&self, correct: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Sample {
        Sample::new((1..=n).map(|i| i as f64).collect())
    }

    #[test]
    fn median_alone_below_forty_samples() {
        let s = ramp(39);
        assert_eq!(s.median(), Some(20.0));
        assert_eq!(s.tail(0.9), None);
        assert_eq!(ramp(4).median(), Some(2.5));
        assert_eq!(Sample::new(Vec::new()).median(), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 40 samples: p75 has 10 beyond it, p90 only 4.
        let s = ramp(40);
        assert_eq!(s.tail(0.75), Some(30.0));
        assert_eq!(s.tail(0.9), None);
        // p99 needs 1,000 samples: rank 990 leaves exactly 10 beyond.
        assert_eq!(ramp(999).tail(0.99), None);
        assert_eq!(ramp(1000).tail(0.99), Some(990.0));
        assert_eq!(ramp(5000).tail(0.99), Some(4950.0));
    }

    #[test]
    fn trimmed_mean_drops_one_value_at_each_end() {
        assert_eq!(Sample::new(vec![1.0, 2.0, 3.0, 100.0]).trimmed_mean(), Some(2.5));
        assert_eq!(Sample::new(vec![4.0, 2.0]).trimmed_mean(), Some(3.0));
        assert_eq!(Sample::new(Vec::new()).trimmed_mean(), None);
    }

    #[test]
    fn metric_names_are_restricted() {
        for good in ["setup_s", "core.schedule_ms.full_one", "wal.fsyncs_per_decision", "p99-ms"] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in ["", "has space", "quote\"", "_lead", "a/b", "über", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        let mut metrics = Metrics::default();
        assert!(metrics.push("ok.name", 1.0, "ms").is_ok());
        assert!(metrics.push("ok.name", 2.0, "ms").is_err());
        assert!(metrics.push("bad name", 1.0, "ms").is_err());
        assert!(metrics.push("nan", f64::NAN, "ms").is_err());
    }

    #[test]
    fn json_line_carries_every_digit() {
        let mut report = Report { attempted: 3, failed: 0, ..Report::default() };
        report.metrics.push("latency_ms", 1.203_456_789, "ms").unwrap();
        report.metrics.push("count", 7.0, "count").unwrap();
        report.notes.push("only_here_ms", 2.0, "ms").unwrap();
        assert_eq!(
            report.json_line(true),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.203456789, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 7.0, \"unit\": \"count\"}}}"
        );
    }
}
