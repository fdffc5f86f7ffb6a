//! Counting operations: every timed operation is attempted once and ends
//! answered-and-correct, failed, refused, or answered with wrong bytes.
//! `failed_share` is the three bad outcomes over the attempts. A wrong
//! answer is never timed as a success: callers record a latency only for
//! [`Outcomes::ok`] operations.

/// How one operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered with the reference bytes.
    Ok,
    /// The call returned an error.
    Failed,
    /// The system turned the request away (for example a full queue).
    Refused,
    /// Answered, but the bytes differ from the in-process reference.
    Wrong,
}

/// Running tally of outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that ended [`Outcome::Failed`].
    pub failed: u64,
    /// Operations that ended [`Outcome::Refused`].
    pub refused: u64,
    /// Operations that ended [`Outcome::Wrong`].
    pub wrong: u64,
}

impl Outcomes {
    /// Record one operation; returns whether it succeeded.
    pub fn record(&mut self, o: Outcome) -> bool {
        self.attempted += 1;
        match o {
            Outcome::Ok => return true,
            Outcome::Failed => self.failed += 1,
            Outcome::Refused => self.refused += 1,
            Outcome::Wrong => self.wrong += 1,
        }
        false
    }

    /// Record a check of answered bytes against the reference.
    pub fn check(&mut self, matches: bool) -> bool {
        self.record(if matches { Outcome::Ok } else { Outcome::Wrong })
    }

    /// Record an operation that either ran to an answer (`Some(matches)`)
    /// or failed before answering (`None`).
    pub fn check_answer(&mut self, answer: Option<bool>) -> bool {
        match answer {
            Some(matches) => self.check(matches),
            None => self.record(Outcome::Failed),
        }
    }

    /// Operations that did not succeed.
    pub fn bad(&self) -> u64 {
        self.failed + self.refused + self.wrong
    }

    /// `bad / attempted` (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.bad() as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_bad_outcome_counts_against_the_attempts() {
        let mut o = Outcomes::default();
        assert_eq!(o.failed_share(), 0.0);
        for _ in 0..6 {
            assert!(o.record(Outcome::Ok));
        }
        assert!(!o.record(Outcome::Failed));
        assert!(!o.record(Outcome::Refused));
        assert!(!o.check(false));
        assert!(o.check(true));
        assert_eq!((o.attempted, o.bad()), (10, 3));
        assert!((o.failed_share() - 0.3).abs() < 1e-12);
        assert!(!o.check_answer(None));
        assert!(!o.check_answer(Some(false)));
        assert!(o.check_answer(Some(true)));
        assert_eq!((o.attempted, o.failed, o.wrong), (13, 2, 2));
    }
}
