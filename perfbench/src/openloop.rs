//! Open-loop accounting: request schedules, latency from the scheduled
//! send time, generator lateness and backlog growth.
//!
//! An open loop sends on a schedule whatever the system does, so a stall
//! delays every request due during it. Timing each request from when it
//! was *due* (not from when the generator got round to sending it) charges
//! that wait to the system; the generator's own lateness (`sent - due`) is
//! reported beside the results so a slow generator cannot hide as a fast
//! system.

/// What a scheduled request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A fresh manifest (the `n`-th cold manifest of the run).
    Cold(usize),
    /// A resubmission of warm-pool entry `n`.
    Warm(usize),
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Due {
    /// Seconds from the start of the rung.
    pub at: f64,
    /// What to send.
    pub kind: Kind,
}

/// Evenly paced schedule at `rate` requests per second for `seconds`
/// seconds: every `warm_per_cold + 1`-th request is cold (numbered from
/// `first_cold`), the others draw warm-pool entries through `pick`.
pub fn schedule(
    rate: f64,
    seconds: f64,
    warm_per_cold: usize,
    first_cold: usize,
    mut pick: impl FnMut() -> usize,
) -> Vec<Due> {
    assert!(rate > 0.0 && seconds > 0.0, "empty schedule");
    let n = (rate * seconds).round() as usize;
    let mut cold = first_cold;
    (0..n)
        .map(|i| {
            let kind = if i % (warm_per_cold + 1) == 0 {
                cold += 1;
                Kind::Cold(cold - 1)
            } else {
                Kind::Warm(pick())
            };
            Due {
                at: i as f64 / rate,
                kind,
            }
        })
        .collect()
}

/// The timeline of one answered request, in seconds on one clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timeline {
    /// When the schedule said to send it.
    pub due: f64,
    /// When the generator actually sent it.
    pub sent: f64,
    /// When its result bytes had arrived.
    pub done: f64,
}

impl Timeline {
    /// Latency the user sees: result arrival minus scheduled send.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the generator sent it (never negative).
    pub fn late_ms(&self) -> f64 {
        ((self.sent - self.due) * 1e3).max(0.0)
    }
}

/// Outstanding cold requests (sent, not yet answered) as seen at each send
/// time, given every request's send and completion times.
pub fn backlog_at_sends(cold: &[Timeline]) -> Vec<usize> {
    cold.iter()
        .map(|t| {
            cold.iter()
                .filter(|o| o.sent <= t.sent && o.done > t.sent)
                .count()
        })
        .collect()
}

/// Whether the backlog grew over a rung: the mean backlog over the last
/// quarter of sends exceeds both `floor` and twice the mean over the first
/// quarter. A system keeping up holds a flat backlog; one past capacity
/// accumulates work and the later sends see more of it.
pub fn backlog_grows(backlog: &[usize], floor: f64) -> bool {
    let q = backlog.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |xs: &[usize]| xs.iter().sum::<usize>() as f64 / xs.len() as f64;
    let first = mean(&backlog[..q]);
    let last = mean(&backlog[backlog.len() - q..]);
    last > floor && last > 2.0 * first
}

/// The highest sustainable rate on a ladder, refined between rungs.
///
/// `rungs` are `(rate, tail_ms, backlog_grew)` in increasing rate order.
/// A rung passes when its tail stays under `limit_ms` and its backlog did
/// not grow. The answer is the highest rate before the first failing rung,
/// moved toward that rung by linear interpolation of the tail onto the
/// limit when the failure was a latency failure (a backlog-only failure
/// keeps the passing rate). Returns `(rate, censored)`: `censored` is true
/// when every rung passed (the true maximum lies above the ladder) or the
/// first rung failed (it lies below; the rate is then scaled down by the
/// tail's overshoot).
pub fn max_rate(rungs: &[(f64, f64, bool)], limit_ms: f64) -> (f64, bool) {
    assert!(!rungs.is_empty(), "empty ladder");
    let passes = |&(_, tail, grew): &(f64, f64, bool)| tail < limit_ms && !grew;
    let Some(fail) = rungs.iter().position(|r| !passes(r)) else {
        return (rungs[rungs.len() - 1].0, true);
    };
    let (f_rate, f_tail, f_grew) = rungs[fail];
    if fail == 0 {
        return (f_rate * (limit_ms / f_tail).min(1.0), true);
    }
    let (p_rate, p_tail, _) = rungs[fail - 1];
    if f_tail < limit_ms || (f_grew && f_tail <= p_tail) {
        return (p_rate, false);
    }
    let frac = ((limit_ms - p_tail) / (f_tail - p_tail)).clamp(0.0, 1.0);
    (p_rate + (f_rate - p_rate) * frac, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_interleaves_cold_and_warm_at_the_rate() {
        let mut next = 0;
        let s = schedule(8.0, 1.0, 3, 5, || {
            next += 1;
            next - 1
        });
        assert_eq!(s.len(), 8);
        assert_eq!(s[1].at, 0.125);
        let kinds: Vec<Kind> = s.iter().map(|d| d.kind).collect();
        use Kind::*;
        assert_eq!(
            kinds,
            [
                Cold(5),
                Warm(0),
                Warm(1),
                Warm(2),
                Cold(6),
                Warm(3),
                Warm(4),
                Warm(5)
            ]
        );
    }

    #[test]
    fn latency_counts_from_the_scheduled_send() {
        // A stalled generator sends 40 ms late; the 10 ms service then
        // shows as 50 ms of latency, and the lateness is reported apart.
        let t = Timeline {
            due: 1.0,
            sent: 1.04,
            done: 1.05,
        };
        assert!((t.latency_ms() - 50.0).abs() < 1e-9);
        assert!((t.late_ms() - 40.0).abs() < 1e-9);
        // Sending early is not negative lateness.
        let early = Timeline {
            due: 1.0,
            sent: 0.999,
            done: 1.01,
        };
        assert_eq!(early.late_ms(), 0.0);
    }

    #[test]
    fn backlog_counts_outstanding_requests_at_each_send() {
        let t = |sent: f64, done: f64| Timeline {
            due: sent,
            sent,
            done,
        };
        // Each request takes 2.5 intervals: the backlog settles at 3.
        let steady: Vec<Timeline> = (0..40).map(|i| t(i as f64, i as f64 + 2.5)).collect();
        let b = backlog_at_sends(&steady);
        assert_eq!(&b[..4], &[1, 2, 3, 3]);
        assert!(!backlog_grows(&b, 2.0));
        // Service slower than arrivals: completions fall further behind.
        let overloaded: Vec<Timeline> =
            (0..40).map(|i| t(i as f64, 1.5 * (i + 1) as f64)).collect();
        assert!(backlog_grows(&backlog_at_sends(&overloaded), 2.0));
    }

    #[test]
    fn max_rate_interpolates_onto_the_limit() {
        let limit = 100.0;
        // Passing at 20 (tail 60), failing at 40 (tail 160): the tail
        // meets 100 two fifths of the way, at 28.
        let (r, c) = max_rate(
            &[
                (10.0, 50.0, false),
                (20.0, 60.0, false),
                (40.0, 160.0, true),
            ],
            limit,
        );
        assert!((r - 28.0).abs() < 1e-9 && !c);
        // Backlog grew but the tail held: keep the passing rate.
        let (r, _) = max_rate(&[(10.0, 50.0, false), (20.0, 60.0, true)], limit);
        assert_eq!(r, 10.0);
        // Everything passes: censored at the top rung.
        assert_eq!(
            max_rate(&[(10.0, 50.0, false), (20.0, 60.0, false)], limit),
            (20.0, true)
        );
        // The first rung fails: scaled down, censored.
        assert_eq!(max_rate(&[(10.0, 200.0, false)], limit), (5.0, true));
    }
}
