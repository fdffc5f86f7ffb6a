//! The two closed-loop sweep workloads: `fig14-inproc` and
//! `fig4-9-sharded`.
//!
//! One client asks for one complete figure at a time and asks again when
//! it arrives. Requests alternate between a repeat of the workload's base
//! figure ("warm": its inputs were answered before, at set-up) and a
//! figure on fresh seeds ("cold"). Neither path has a result cache, so
//! both are computed in full; warm and cold are reported apart so a later
//! cache or memoisation shows as a split between them.

use crate::json::Json;
use crate::paper::{self, PARALLELISM};
use crate::report::Report;
use crate::stats::{median, Summary};
use sim_runtime::{fleet_stats, telemetry, Exec};
use std::path::Path;
use std::time::Instant;

/// Set-ups measured per run when set-up spawns worker processes.
const SETUPS_SHARDED: usize = 9;

/// Latencies of a closed loop, split warm/cold, plus the work done.
#[derive(Debug, Default)]
struct ClosedLoop {
    warm: Vec<f64>,
    cold: Vec<f64>,
    events: u64,
}

impl ClosedLoop {
    fn report(&self, r: &mut Report) {
        let all: Vec<f64> = self.warm.iter().chain(&self.cold).copied().collect();
        let busy: f64 = all.iter().sum();
        r.metric("sweep_p50_s", "s", median(&all));
        r.metric("events_per_s", "1/s", self.events as f64 / busy);
        r.timing("cold_p50_ms", "cold_tail_ms", "ms", &self.cold, 1e3);
        r.timing("warm_p50_ms", "warm_tail_ms", "ms", &self.warm, 1e3);
        r.metric("max_rate_jobs_per_s", "1/s", all.len() as f64 / busy);
        let s = Summary::of(&all);
        r.detail("figures", Json::Int(s.n as u64));
        r.detail("sweep_tail_s", Json::Num(s.tail));
        r.detail("sweep_tail_s.percentile", Json::Num(s.tail_pct));
    }
}

/// Run a driver call. The drivers panic when a dispatch fails; that
/// counts as a failed operation instead of ending the run.
fn attempt<T>(f: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// Seed of the `i`-th figure of a run: even figures repeat the base
/// figure, odd ones are fresh.
pub(crate) fn figure_seed(seed: u64, i: u64) -> (bool, u64) {
    let cold = i % 2 == 1;
    (cold, paper::derive_seed(seed, if cold { i } else { 0 }))
}

fn engine_events() -> u64 {
    telemetry().counter("engine_events_total").get()
}

/// Fail loudly if the engine's event counter is not recording: the
/// firing counts behind `events_per_s` come from it.
fn require_event_counter(events: u64) -> Result<(), String> {
    if events == 0 {
        return Err(
            "engine_events_total stayed 0: telemetry is off (unset REPRO_TELEMETRY)".into(),
        );
    }
    Ok(())
}

/// `fig14-inproc`: the closed-workload node sweep on the in-process
/// runner at two threads.
pub fn fig14_inproc(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut r = Report::default();
    let exec = Exec::in_process(PARALLELISM);

    // Set-up is only a runner and one trivial job here (tens of
    // microseconds), so it is measured after every figure, sampling the
    // host's speed across the whole window rather than at one instant.
    let set_up = || {
        let t0 = Instant::now();
        trivial_node_job(&Exec::in_process(PARALLELISM));
        t0.elapsed().as_secs_f64()
    };
    let mut setups = vec![set_up()];

    // The reference: the base figure in-process, once.
    let (_, base_seed) = figure_seed(seed, 0);
    let ev0 = engine_events();
    let reference = paper::run_fig14(base_seed, &Exec::in_process(PARALLELISM));
    let expected = engine_events() - ev0;
    require_event_counter(expected)?;

    let mut lp = ClosedLoop::default();
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        let (cold, fig_seed) = figure_seed(seed, i);
        let ev0 = engine_events();
        let t0 = Instant::now();
        let sweep = attempt(|| paper::run_fig14(fig_seed, &exec));
        let dt = t0.elapsed().as_secs_f64();
        let events = engine_events() - ev0;
        // The closed model is deterministic: every seed gives the base
        // figure, firing for firing.
        let answer = sweep.map(|s| s == reference && events == expected);
        if r.outcomes.check_answer(answer) {
            lp.events += events;
            if cold { &mut lp.cold } else { &mut lp.warm }.push(dt);
        }
        i += 1;
        setups.push(set_up());
    }
    r.metric("setup_s", "s", median(&setups));
    lp.report(&mut r);
    r.metric("peak_rss_mb", "MB", crate::sys::peak_rss_mb_tree());
    let (_, oracle_seed) = figure_seed(paper::ORACLE_SEED, 0);
    r.metric(
        "rel_err_max",
        "ratio",
        paper::node_rel_err_max(&[paper::node_dispatch(
            paper::fig14_workload(),
            paper::FIG14_HORIZON,
            oracle_seed,
        )]),
    );
    r.detail("setups", Json::Int(setups.len() as u64));
    r.detail("events_per_figure", Json::Int(expected));
    Ok(r)
}

/// A one-slot node sweep at a one-second horizon: the "one trivial job
/// answered" that ends set-up.
fn trivial_node_job(exec: &Exec) {
    let sweep = wsn::experiments::node_energy::run_node_sweep(
        paper::fig14_workload(),
        &[0.1],
        &wsn::experiments::node_energy::NodeSweepConfig {
            horizon: 1.0,
            replications: 1,
            seed: 1,
            exec: exec.clone(),
            open_rule: None,
        },
    );
    std::hint::black_box(sweep);
}

/// `fig4-9-sharded`: the three CPU comparisons of Figs. 4-9 with the
/// adaptive rule, on two pooled `repro --worker` subprocesses.
pub fn fig4_9_sharded(seed: u64, seconds: f64, repro: &Path) -> Result<Report, String> {
    let mut r = Report::default();
    let worker_cmd = vec![repro.display().to_string(), "--worker".to_string()];
    let sharded = || Exec::sharded(1, PARALLELISM).with_worker_cmd(worker_cmd.clone());

    let pool = sim_runtime::fleet::pool::pool();
    let mut setups = Vec::new();
    let mut spawned = 0;
    for _ in 0..SETUPS_SHARDED {
        pool.drain();
        let before = fleet_stats().snapshot();
        let t0 = Instant::now();
        trivial_cpu_job(&sharded());
        setups.push(t0.elapsed().as_secs_f64());
        spawned = fleet_stats().snapshot().delta_since(&before).spawned;
    }
    r.metric("setup_s", "s", median(&setups));

    let exec = sharded();
    let in_process = Exec::in_process(PARALLELISM);
    let (_, base_seed) = figure_seed(seed, 0);
    let ev0 = engine_events();
    let reference = paper::run_fig4_9(base_seed, &in_process);
    let base_events = engine_events() - ev0;
    require_event_counter(base_events)?;

    let mut lp = ClosedLoop::default();
    let mut cold_runs = Vec::new();
    let fleet0 = fleet_stats().snapshot();
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        let (cold, fig_seed) = figure_seed(seed, i);
        let t0 = Instant::now();
        let figure = attempt(|| paper::run_fig4_9(fig_seed, &exec));
        let dt = t0.elapsed().as_secs_f64();
        if cold {
            // Checked after the window, against an in-process run.
            cold_runs.push((fig_seed, figure, dt));
        } else if r.outcomes.check_answer(figure.map(|f| f == reference)) {
            lp.events += base_events;
            lp.warm.push(dt);
        }
        i += 1;
    }
    let fleet = fleet_stats().snapshot().delta_since(&fleet0);
    let peak = crate::sys::peak_rss_mb_tree();
    for (fig_seed, figure, dt) in cold_runs {
        let ev0 = engine_events();
        let expected = paper::run_fig4_9(fig_seed, &in_process);
        let events = engine_events() - ev0;
        if r.outcomes.check_answer(figure.map(|f| f == expected)) {
            lp.events += events;
            lp.cold.push(dt);
        }
    }
    lp.report(&mut r);
    r.metric("peak_rss_mb", "MB", peak);
    let oracle = if seed == paper::ORACLE_SEED {
        reference.clone()
    } else {
        paper::run_fig4_9(figure_seed(paper::ORACLE_SEED, 0).1, &in_process)
    };
    r.metric("rel_err_max", "ratio", paper::cpu_rel_err_max(&oracle));
    r.detail("setups", Json::Int(setups.len() as u64));
    r.detail("setup_workers_spawned", Json::Int(spawned));
    r.detail(
        "window_fleet",
        Json::obj(fleet.fields().map(|(k, v)| (k, Json::Int(v)))),
    );
    r.detail(
        "base_figure_replications",
        Json::Int(
            reference
                .iter()
                .flat_map(|c| &c.points)
                .map(|p| p.replications)
                .sum(),
        ),
    );
    Ok(r)
}

/// A two-point, one-replication CPU comparison at a one-second horizon:
/// enough slots to reach both workers.
fn trivial_cpu_job(exec: &Exec) {
    let cmp = wsn::experiments::cpu_comparison::run_cpu_comparison(
        0.3,
        &[0.1, 0.2],
        &wsn::experiments::cpu_comparison::CpuComparisonConfig {
            horizon: 1.0,
            replications: 1,
            seed: 1,
            exec: exec.clone(),
            rule: None,
            ..Default::default()
        },
    );
    std::hint::black_box(cmp);
}
