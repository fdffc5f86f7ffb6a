//! Order statistics for timings: medians and the tail percentile rule.
//!
//! A timing is reported as its median plus a "tail": the highest
//! percentile that still has at least [`TAIL_BEYOND`] samples beyond it.
//! With `n` samples sorted ascending, the `k`-th smallest (1-based) has
//! `n - k` samples above it, so the tail is the `(n - 10)`-th smallest and
//! its percentile is `100 (n - 10) / n`. Fewer than 11 samples have no
//! such percentile; the tail then falls back to the maximum.
//!
//! The rule is applied per window of [`TAIL_WINDOW`] consecutive samples
//! (so at p90), and the tail reported is the median over windows. On the
//! shared 2-vCPU virtual machine this benchmark was sized on, a few
//! multi-millisecond scheduler stalls arrive in bursts; over a whole
//! series they own any percentile past ~p93 and make the tail a count of
//! stalls in that run, while the median over windows holds still.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Consecutive samples per tail window; a shorter remainder joins the
/// window before it.
pub const TAIL_WINDOW: usize = 100;

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail order statistic of `n` samples: `(k, percentile)` with `k`
/// 1-based, or `None` when fewer than `TAIL_BEYOND + 1` samples exist.
pub fn tail_rank(n: usize) -> Option<(usize, f64)> {
    if n <= TAIL_BEYOND {
        return None;
    }
    let k = n - TAIL_BEYOND;
    Some((k, 100.0 * k as f64 / n as f64))
}

/// `(tail, percentile)` of one window by the rule.
fn window_tail(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    match tail_rank(s.len()) {
        Some((k, pct)) => (s[k - 1], pct),
        None => (s[s.len() - 1], 100.0),
    }
}

/// Median, tail and sample count of one timing series.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Median over windows of each window's tail.
    pub tail: f64,
    /// Median over windows of each window's tail percentile.
    pub tail_pct: f64,
    /// Windows the tail was taken over.
    pub windows: usize,
}

impl Summary {
    /// Summarise a non-empty series given in measurement order.
    pub fn of(xs: &[f64]) -> Summary {
        let windows = (xs.len() / TAIL_WINDOW).max(1);
        let tails: Vec<(f64, f64)> = (0..windows)
            .map(|w| {
                let end = if w + 1 == windows {
                    xs.len()
                } else {
                    (w + 1) * TAIL_WINDOW
                };
                window_tail(&xs[w * TAIL_WINDOW..end])
            })
            .collect();
        Summary {
            n: xs.len(),
            p50: median(xs),
            tail: median(&tails.iter().map(|t| t.0).collect::<Vec<_>>()),
            tail_pct: median(&tails.iter().map(|t| t.1).collect::<Vec<_>>()),
            windows,
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_rank(10), None);
        assert_eq!(tail_rank(11), Some((1, 100.0 / 11.0)));
        assert_eq!(tail_rank(20), Some((10, 50.0)));
        assert_eq!(tail_rank(100), Some((90, 90.0)));
        assert_eq!(tail_rank(199), Some((189, 100.0 * 189.0 / 199.0)));
        // 1..=100 shuffled: the 90th smallest is 90, with 91..=100 beyond.
        let xs: Vec<f64> = (1..=100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        let s = Summary::of(&xs);
        assert_eq!((s.n, s.tail, s.tail_pct, s.windows), (100, 90.0, 90.0, 1));
        assert_eq!(xs.iter().filter(|&&x| x > s.tail).count(), TAIL_BEYOND);
    }

    #[test]
    fn short_series_fall_back_to_the_maximum() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.p50, s.tail, s.tail_pct), (2.0, 3.0, 100.0));
    }

    #[test]
    fn a_burst_in_one_window_does_not_move_the_tail() {
        // Three windows of 1..=100; the middle one has 30 stalls of 1000.
        let mut xs: Vec<f64> = Vec::new();
        for w in 0..3 {
            xs.extend((1..=100).map(|i| {
                if w == 1 && i > 70 {
                    1000.0
                } else {
                    f64::from(i)
                }
            }));
        }
        let s = Summary::of(&xs);
        assert_eq!((s.windows, s.tail, s.tail_pct), (3, 90.0, 90.0));
        // Over the whole series the same rule lands inside the burst.
        assert_eq!(window_tail(&xs).0, 1000.0);
    }

    #[test]
    fn a_short_remainder_joins_the_last_window() {
        let xs: Vec<f64> = (1..=250).map(f64::from).collect();
        let s = Summary::of(&xs);
        // Windows 1..=100 and 101..=250: tails 90 and 240, median 165.
        assert_eq!((s.windows, s.tail), (2, 165.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
    }
}
