//! Paired A/B measurement of the scalar stepping engines, on the shared
//! [`bench::ab`] harness: adjacent interleaved blocks, alternating order,
//! median of per-pair ratios — robust to the drift of noisy shared-CPU
//! hosts. Writes `BENCH_engine.json`-ready numbers to stdout.
//!
//! Nets: mm1, tandem lines of 4/16/64 stages, the Fig. 3 CPU net with the
//! reward set `wsn::simulate_cpu_model` registers for Figs. 4–9, and the
//! paper's node SCPN with its Fig. 14/15 rewards (closed at the fig14
//! defaults, open at the fig15 defaults, 900 s). One sweep per net:
//! `lowered vs reference` — the lowered engine behind `Simulator::run`
//! against the from-scratch reference engine it is tested against. Each
//! row also gives the lowered engine's ns per firing and `lower_us`, the
//! median set-up cost of one simulator: `Simulator::new` with the row's
//! rewards registered, plus building its lowered program. Work moved
//! from the event loop into the lowering shows up there.
//!
//! A last, unpaired row times `des::simulate_cpu`, the ground truth each
//! Figs. 4–9 slot runs beside the Fig. 3 net, at PUD 0.3 s, PDT 0.5 s and
//! 5000 s, in ns per processed event.
//!
//! ```text
//! cargo run --release -p bench --bin engine_ab [pairs_per_net]
//! ```

use des::{CpuSimParams, NodeSimParams, Workload};
use petri_core::prelude::*;
use std::time::Instant;

#[derive(Clone, Copy)]
enum Engine {
    Lowered,
    Reference,
}

fn mm1_net() -> Net {
    let mut b = NetBuilder::new("mm1");
    let q = b.place("q").build();
    b.transition("arrive", Timing::exponential(1.0))
        .output(q, 1)
        .build();
    b.transition("serve", Timing::exponential(2.0))
        .input(q, 1)
        .build();
    b.build().unwrap()
}

fn tandem_net(n: usize) -> Net {
    let mut b = NetBuilder::new("tandem");
    let places: Vec<_> = (0..n).map(|i| b.place(format!("p{i}")).build()).collect();
    b.transition("source", Timing::exponential(1.0))
        .output(places[0], 1)
        .build();
    for i in 0..n - 1 {
        b.transition(format!("t{i}"), Timing::exponential(2.0))
            .input(places[i], 1)
            .output(places[i + 1], 1)
            .build();
    }
    b.transition("sink", Timing::exponential(2.0))
        .input(places[n - 1], 1)
        .build();
    b.build().unwrap()
}

/// Time `runs` simulation runs, returning ns/run and a checksum of total
/// firings (keeps the optimizer honest and proves the engines agree).
fn time_block(sim: &Simulator<'_>, seed0: u64, runs: u64, engine: Engine) -> (f64, u64) {
    let t0 = Instant::now();
    let mut firings = 0u64;
    for i in 0..runs {
        let out = match engine {
            Engine::Lowered => sim.run(seed0 + i).unwrap(),
            Engine::Reference => sim.run_reference(seed0 + i).unwrap(),
        };
        firings += out.total_firings();
    }
    (t0.elapsed().as_nanos() as f64 / runs as f64, firings)
}

/// Median µs to make a simulator with `make` and lower it (the first
/// `lowers_dense` call builds the lowered program), over 201 builds.
fn lower_us<'n>(make: &impl Fn() -> Simulator<'n>) -> f64 {
    let mut us: Vec<f64> = (0..201)
        .map(|_| {
            let t0 = Instant::now();
            let sim = make();
            std::hint::black_box(sim.lowers_dense());
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    bench::ab::median(&mut us)
}

/// One paired sweep on the simulator `make` builds: the lowered engine
/// against the reference engine (speedup = reference / lowered).
fn sweep<'n>(label: &str, make: impl Fn() -> Simulator<'n>, runs_per_block: u64, pairs: usize) {
    let lower_us = lower_us(&make);
    let sim = &make();
    let block =
        |p: usize, engine| time_block(sim, (p as u64) * runs_per_block + 1, runs_per_block, engine);
    let stats = bench::ab::run_paired(
        pairs,
        |p| block(p, Engine::Lowered),
        |p| block(p, Engine::Reference),
    );
    let firings: u64 = (0..runs_per_block)
        .map(|i| sim.run(i + 1).unwrap().total_firings())
        .sum();
    println!(
        "{label:<20} lowered vs reference   base {:9.3} ms  new {:9.3} ms  median paired speedup {:5.2}x  lowered {:6.1} ns/event  lower_us {lower_us:7.1}",
        stats.b_ns / 1e6,
        stats.a_ns / 1e6,
        stats.speedup,
        stats.a_ns * runs_per_block as f64 / firings as f64,
    );
}

/// Median ns per processed event of `des::simulate_cpu` over `blocks`
/// blocks of `runs` seeds. The events counted are the live ones the
/// simulator pops: every arrival and service completion, plus one
/// wake-up completion and one power-down per wake-up.
fn des_cpu_row(label: &str, params: &CpuSimParams, runs: u64, blocks: usize) {
    let block = |b: usize| {
        let t0 = Instant::now();
        let mut events = 0u64;
        for i in 0..runs {
            let r = des::simulate_cpu(params, b as u64 * runs + i + 1);
            events += r.jobs_arrived + r.jobs_served + 2 * r.wakeups;
        }
        t0.elapsed().as_nanos() as f64 / events as f64
    };
    let _ = block(0);
    let mut ns: Vec<f64> = (0..blocks).map(block).collect();
    println!(
        "{label:<20} des::simulate_cpu      {:6.1} ns/event (median of {blocks} blocks, unpaired)",
        bench::ab::median(&mut ns),
    );
}

fn main() {
    let pairs: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(15);
    println!("paired A/B, {pairs} pairs per net (median of adjacent-block ratios)");

    let net = mm1_net();
    let make = || Simulator::new(&net, SimConfig::for_horizon(10_000.0));
    sweep("mm1/10k_seconds", make, 3, pairs);

    for n in [4usize, 16, 64] {
        let net = tandem_net(n);
        let make = || Simulator::new(&net, SimConfig::for_horizon(1000.0));
        sweep(
            &format!("tandem/{n}"),
            make,
            if n == 64 { 1 } else { 4 },
            pairs,
        );
    }

    // The Fig. 3 CPU net with `simulate_cpu_model`'s rewards: the four
    // power-state places, the queue, and the wake-up and service counts.
    let model = wsn::build_cpu_model(&wsn::CpuModelParams::paper_defaults(0.1, 0.3));
    let make = || {
        let mut sim = Simulator::new(&model.net, SimConfig::for_horizon(1000.0));
        let pl = &model.places;
        for p in [pl.stand_by, pl.powering_up, pl.idle, pl.active, pl.buffer] {
            sim.reward_place(p);
        }
        sim.reward_firings(model.transitions.t1);
        sim.reward_firings(model.transitions.service);
        sim
    };
    sweep("fig3_cpu_1000s", make, 6, pairs);

    // The paper's node SCPN (Figs. 12/13) with its Fig. 14/15 rewards:
    // closed workload at the fig14 defaults, open at the fig15 defaults.
    for (label, workload) in [
        ("node_closed_900s", Workload::Closed { interval: 1.0 }),
        ("node_open_900s", Workload::Open { rate: 1.0 }),
    ] {
        let mut params = NodeSimParams::paper_defaults(workload, 0.1);
        params.horizon = 900.0;
        let model = wsn::build_node_model(&params);
        sweep(
            label,
            || wsn::node_simulator(&model, params.horizon).0,
            2,
            pairs,
        );
    }

    let mut params = CpuSimParams::paper_defaults(0.5, 0.3);
    params.horizon = 5000.0;
    des_cpu_row("des_cpu_5000s", &params, 4, pairs);
}
