//! The layer ladder: one rung per layer, each rung running the same
//! manifests through one more layer than the rung it stands on.
//!
//! A layer's self time is its rung's time minus its parent rung's time.
//! Rungs form a tree rather than a line (the subprocess and TCP tiers both
//! stand on the in-process grid), so each rung names its parent. A
//! workload's own path is a chain of rungs from the engine up; summed over
//! that chain the self times telescope to the top rung's time, and
//! `trace.coverage` compares that sum with the untraced end-to-end time.

/// One measured rung.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Layer name (`engine`, `grid`, ...).
    pub name: &'static str,
    /// The rung this one adds a layer on top of (`None` for the engine).
    pub parent: Option<&'static str>,
    /// Time of one pass over the workload's manifests on this rung (s).
    pub seconds: f64,
}

/// Self time of every rung, in rung order: its time minus its parent's.
/// Panics if a parent is not an earlier rung (a wiring bug).
pub fn self_times(rungs: &[Rung]) -> Vec<(&'static str, f64)> {
    rungs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let below = r.parent.map_or(0.0, |p| {
                rungs[..i]
                    .iter()
                    .find(|q| q.name == p)
                    .unwrap_or_else(|| panic!("rung {} stands on unknown rung {p}", r.name))
                    .seconds
            });
            (r.name, r.seconds - below)
        })
        .collect()
}

/// Sum of the self times of the rungs named in `path`, over the untraced
/// end-to-end time of that path.
pub fn coverage(rungs: &[Rung], path: &[&str], untraced_seconds: f64) -> f64 {
    let selfs = self_times(rungs);
    let covered: f64 = path
        .iter()
        .map(|name| {
            selfs
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("path names unknown rung {name}"))
                .1
        })
        .sum();
    covered / untraced_seconds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(name: &'static str, parent: Option<&'static str>, seconds: f64) -> Rung {
        Rung {
            name,
            parent,
            seconds,
        }
    }

    #[test]
    fn self_time_subtracts_the_parent_rung() {
        let rungs = [
            rung("engine", None, 1.0),
            rung("grid", Some("engine"), 1.25),
            rung("sharded", Some("grid"), 1.75),
            rung("remote", Some("grid"), 2.0),
            rung("service", Some("remote"), 2.5),
        ];
        let s = self_times(&rungs);
        assert_eq!(
            s,
            [
                ("engine", 1.0),
                ("grid", 0.25),
                ("sharded", 0.5),
                ("remote", 0.75),
                ("service", 0.5)
            ]
        );
    }

    #[test]
    fn coverage_telescopes_along_the_path() {
        let rungs = [
            rung("engine", None, 1.0),
            rung("grid", Some("engine"), 1.25),
            rung("sharded", Some("grid"), 1.75),
            rung("remote", Some("grid"), 2.0),
            rung("service", Some("remote"), 2.5),
        ];
        // engine + grid + remote + service = the service rung's 2.5 s; the
        // off-path sharded rung does not count.
        let c = coverage(&rungs, &["engine", "grid", "remote", "service"], 2.0);
        assert!((c - 1.25).abs() < 1e-12);
        let c = coverage(&rungs, &["engine", "grid", "sharded"], 1.75);
        assert!((c - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "unknown rung")]
    fn a_parent_must_come_first() {
        self_times(&[rung("grid", Some("engine"), 1.0)]);
    }
}
