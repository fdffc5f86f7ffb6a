//! What one benchmark run reports.

use crate::json::Json;
use crate::outcome::Outcomes;
use crate::stats::Summary;

/// One run's metrics, extra detail and outcome tally.
#[derive(Debug, Default)]
pub struct Report {
    /// `(name, unit, value)` of every metric the result line carries.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Everything else worth keeping: sample counts, tail percentiles,
    /// counters, validity checks.
    pub details: Vec<(String, Json)>,
    /// Operations attempted and how they ended.
    pub outcomes: Outcomes,
}

impl Report {
    /// Add a result-line metric.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push((name, unit, value));
    }

    /// Add a detail.
    pub fn detail(&mut self, key: impl Into<String>, value: Json) {
        self.details.push((key.into(), value));
    }

    /// Record a timing series' median and tail as metrics `<p50>` and
    /// `<tail>` (both in `unit`, the series scaled by `scale`), and its
    /// sample count, tail percentile and tail windows as details.
    pub fn timing(
        &mut self,
        p50: &'static str,
        tail: &'static str,
        unit: &'static str,
        xs: &[f64],
        scale: f64,
    ) {
        let s = Summary::of(xs);
        self.metric(p50, unit, s.p50 * scale);
        self.metric(tail, unit, s.tail * scale);
        self.detail(format!("{tail}.percentile"), Json::Num(s.tail_pct));
        self.detail(format!("{tail}.windows"), Json::Int(s.windows as u64));
        self.detail(format!("{p50}.samples"), Json::Int(s.n as u64));
    }
}
