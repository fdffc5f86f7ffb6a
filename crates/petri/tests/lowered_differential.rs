//! Differential tests: the lowered engine behind `Simulator::run` must
//! reproduce the reference engine (`Simulator::run_reference`) **bit for
//! bit** — identical firing counts, reward values, final markings, traces,
//! and errors — for every seed, across every feature the lowering pass
//! handles: uncolored and colored nets, reducible and program-fallback
//! guards, inhibitors, immediate priorities and weights, all three memory
//! policies, the >32-transition heap-scheduler fallback, split colored
//! places, traces, and warm-up windows.
//!
//! Both engines share one RNG and are written to consume draws in the same
//! order, so any divergence is a real bug in the lowering pass or the
//! direct-threaded executor, not floating-point noise — hence whole-output
//! `assert_eq!` on `f64` values, not tolerances.

use petri_core::arc::ColorExpr;
use petri_core::prelude::*;
use petri_core::sim::RewardSpec;
use proptest::prelude::*;

const SEEDS: std::ops::Range<u64> = 0..25;

/// Run both engines on every seed and require identical results, errors
/// included.
fn assert_lowered_identical(sim: &Simulator<'_>, label: &str) {
    for seed in SEEDS {
        assert_eq!(
            sim.run(seed),
            sim.run_reference(seed),
            "{label} seed {seed}: lowered vs reference diverged"
        );
    }
}

// --- net shapes ---

#[test]
fn lowered_differential_mm1_with_traces() {
    let mut b = NetBuilder::new("mm1");
    let q = b.place("q").build();
    let arrive = b
        .transition("arrive", Timing::exponential(1.0))
        .output(q, 1)
        .build();
    b.transition("serve", Timing::exponential(2.0))
        .input(q, 1)
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(500.0).with_trace(64));
    sim.reward_place(q);
    sim.reward(RewardSpec::Throughput(arrive)).unwrap();
    assert_lowered_identical(&sim, "mm1");
}

#[test]
fn lowered_differential_colored_dvs_with_warmup() {
    let dvs1 = Color(1);
    let dvs2 = Color(2);
    let dvs3 = Color(3);
    let mut b = NetBuilder::new("dvs");
    let buffer = b.place("Buffer").build();
    let stage = b.place("Stage").build();
    let idle = b.place("Idle").tokens(1).build();
    let slept = b.place("Slept").build();
    let done = b.place("Done").build();
    b.transition("gen", Timing::exponential(0.8))
        .output_colored(
            buffer,
            1,
            ColorExpr::Choice(vec![(dvs1, 0.5), (dvs2, 0.3), (dvs3, 0.2)]),
        )
        .build();
    b.transition("dispatch", Timing::immediate())
        .input(buffer, 1)
        .output_colored(stage, 1, ColorExpr::Transfer { arc_index: 0 })
        .build();
    b.transition("exec1", Timing::exponential(10.0))
        .input_filtered(stage, 1, ColorFilter::Eq(dvs1))
        .output(done, 1)
        .build();
    b.transition("exec2", Timing::exponential(5.0))
        .input_filtered(stage, 1, ColorFilter::Eq(dvs2))
        .output(done, 1)
        .build();
    b.transition("exec3", Timing::exponential(2.5))
        .input_filtered(stage, 1, ColorFilter::Eq(dvs3))
        .output(done, 1)
        .build();
    b.transition("sleep", Timing::deterministic(0.7))
        .input(idle, 1)
        .output(slept, 1)
        .inhibitor(stage, 1)
        .guard(Expr::count(buffer).eq_c(0))
        .build();
    b.transition("wake", Timing::exponential(1.0))
        .input(slept, 1)
        .output(idle, 1)
        .build();
    b.transition("collect", Timing::deterministic(2.0))
        .input(done, 1)
        .guard(Expr::count(done).gt_c(0))
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(200.0).with_warmup(20.0));
    sim.reward_place(buffer);
    sim.reward_predicate(Expr::count_color(stage, dvs1).gt_c(0))
        .unwrap();
    assert_lowered_identical(&sim, "colored-dvs");
}

/// A guard the lowering pass cannot reduce to a count threshold
/// (`#a + #b <= 3` is not a single-place compare), forcing the
/// program-fallback tail op while the rest of the net stays dense.
#[test]
fn lowered_differential_unreducible_guard() {
    let mut b = NetBuilder::new("guard-fallback");
    let a = b.place("a").build();
    let z = b.place("z").build();
    b.transition("gen_a", Timing::exponential(2.0))
        .output(a, 1)
        .build();
    b.transition("gen_z", Timing::exponential(1.5))
        .output(z, 1)
        .build();
    b.transition("drain", Timing::exponential(3.0))
        .input(a, 1)
        .guard(Expr::count(a).add(Expr::count(z)).le_c(3))
        .build();
    b.transition("drain_z", Timing::exponential(2.0))
        .input(z, 1)
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(300.0));
    sim.reward_place(a);
    assert_lowered_identical(&sim, "guard-fallback");
}

fn memory_policy_net(policy: MemoryPolicy) -> Net {
    let mut b = NetBuilder::new("memory");
    let idle = b.place("idle").tokens(1).build();
    let buf = b.place("buf").build();
    let slept = b.place("slept").build();
    b.transition("arrive", Timing::exponential(1.4))
        .output(buf, 1)
        .build();
    b.transition("serve", Timing::exponential(6.0))
        .input(buf, 1)
        .build();
    b.transition("sleep", Timing::uniform(0.3, 1.1))
        .input(idle, 1)
        .output(slept, 1)
        .guard(Expr::count(buf).eq_c(0))
        .memory(policy)
        .build();
    b.transition("wake", Timing::erlang(3, 9.0))
        .input(slept, 1)
        .output(idle, 1)
        .build();
    b.build().unwrap()
}

#[test]
fn lowered_differential_memory_policies() {
    for policy in [
        MemoryPolicy::RaceEnable,
        MemoryPolicy::RaceAge,
        MemoryPolicy::Resample,
    ] {
        let net = memory_policy_net(policy);
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(300.0));
        sim.reward_place(net.place_by_name("slept").unwrap());
        assert_lowered_identical(&sim, &format!("memory-{policy:?}"));
    }
}

#[test]
fn lowered_differential_immediate_conflicts() {
    let mut b = NetBuilder::new("conflicts");
    let src = b.place("src").build();
    let a = b.place("a").build();
    let z = b.place("z").build();
    let gate = b.place("gate").tokens(1).build();
    b.transition("gen", Timing::exponential(3.0))
        .output(src, 1)
        .build();
    b.transition(
        "hi",
        Timing::Immediate {
            priority: 2,
            weight: 1.0,
        },
    )
    .input(src, 1)
    .output(a, 1)
    .inhibitor(a, 4)
    .build();
    b.transition(
        "lo1",
        Timing::Immediate {
            priority: 1,
            weight: 1.0,
        },
    )
    .input(src, 1)
    .output(z, 1)
    .build();
    b.transition(
        "lo2",
        Timing::Immediate {
            priority: 1,
            weight: 2.5,
        },
    )
    .input(src, 1)
    .output(z, 2)
    .build();
    b.transition("drain_a", Timing::deterministic(0.9))
        .input(a, 1)
        .guard(Expr::count(gate).gt_c(0))
        .build();
    b.transition("drain_z", Timing::exponential(4.0))
        .input(z, 1)
        .build();
    b.transition("flap", Timing::uniform(0.2, 0.6))
        .input(gate, 1)
        .output(gate, 1)
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(200.0));
    sim.reward_place(a);
    sim.reward_place(z);
    assert_lowered_identical(&sim, "immediate-conflicts");
}

/// A 40-stage tandem line: more than 32 transitions, so the lowered
/// engine falls back from the pending-clock scan to the lazy-deletion
/// heap — this keeps the heap instantiation under differential coverage.
#[test]
fn lowered_differential_wide_net_heap_scheduler() {
    const STAGES: usize = 40;
    let mut b = NetBuilder::new("wide-tandem");
    let places: Vec<_> = (0..STAGES)
        .map(|i| b.place(format!("p{i}")).build())
        .collect();
    b.transition("source", Timing::exponential(1.5))
        .output(places[0], 1)
        .build();
    for i in 0..STAGES - 1 {
        b.transition(format!("t{i}"), Timing::exponential(2.0 + (i % 3) as f64))
            .input(places[i], 1)
            .output(places[i + 1], 1)
            .build();
    }
    b.transition("sink", Timing::exponential(2.0))
        .input(places[STAGES - 1], 1)
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(60.0).with_trace(32));
    sim.reward_place(net.place_by_name("p0").unwrap());
    sim.reward_place(net.place_by_name("p20").unwrap());
    assert_lowered_identical(&sim, "wide-tandem-heap");
}

// --- the scan scheduler's pending clocks -----------------------------------

/// Whether a trace holds two firings at the same instant.
fn has_tie(trace: &[petri_core::sim::TraceEvent]) -> bool {
    trace.windows(2).any(|w| w[0].time == w[1].time)
}

/// Four deterministic clocks armed by one firing fall due at the same
/// instant, armed highest tid first (the generator's outputs run `a3`
/// to `a0`). They race for one `tok`: the lowest tid must win, and the
/// losers are cancelled by the immediate cascade that follows. A fifth
/// clock with a different delay, armed a quarter second later, ties with
/// them too.
#[test]
fn lowered_differential_pending_clock_ties_go_to_the_lowest_tid() {
    let mut b = NetBuilder::new("ties");
    let src = b.place("src").tokens(1).build();
    let tok = b.place("tok").build();
    let late = b.place("late").build();
    let a: Vec<PlaceId> = (0..4).map(|i| b.place(format!("a{i}")).build()).collect();
    let won: Vec<PlaceId> = (0..5).map(|i| b.place(format!("won{i}")).build()).collect();
    let mut gen = b
        .transition("gen", Timing::deterministic(1.0))
        .input(src, 1)
        .output(src, 1)
        .output(tok, 1);
    for &ai in a.iter().rev() {
        gen = gen.output(ai, 1);
    }
    gen.build();
    let wins: Vec<TransitionId> = (0..4)
        .map(|i| {
            b.transition(format!("d{i}"), Timing::deterministic(0.5))
                .input(a[i], 1)
                .input(tok, 1)
                .output(won[i], 1)
                .build()
        })
        .collect();
    b.transition("arm_late", Timing::deterministic(0.25))
        .input(a[3], 1)
        .output(a[3], 1)
        .output(late, 1)
        .inhibitor(late, 1)
        .build();
    b.transition("d_late", Timing::deterministic(0.25))
        .input(late, 1)
        .input(tok, 1)
        .output(won[4], 1)
        .build();
    for (i, &ai) in a.iter().enumerate() {
        b.transition(format!("reset{i}"), Timing::immediate())
            .input(ai, 1)
            .inhibitor(tok, 1)
            .build();
    }
    b.transition("reset_late", Timing::immediate())
        .input(late, 1)
        .inhibitor(tok, 1)
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(41.0).with_trace(4096));
    for &w in &won {
        sim.reward_place(w);
    }
    assert_lowered_identical(&sim, "pending-clock-ties");
    let out = sim.run(3).unwrap();
    assert!(has_tie(&out.trace), "no two clocks fell due together");
    // `d0` wins every race it joins; the others never fire.
    assert_eq!(out.firing_counts[wins[0].index()], 40);
    for &w in &wins[1..] {
        assert_eq!(out.firing_counts[w.index()], 0);
    }
}

/// RaceAge clocks frozen by a flapping gate and restored when it reopens,
/// on the scan scheduler: a frozen clock leaves the pending set and must
/// come back with its remaining delay.
#[test]
fn lowered_differential_pending_clocks_race_age_freeze_and_restore() {
    let mut b = NetBuilder::new("race-age");
    let gate = b.place("gate").tokens(1).build();
    let shut = b.place("shut").build();
    let jobs = b.place("jobs").tokens(2).build();
    let done = b.place("done").build();
    let close = b
        .transition("close", Timing::exponential(1.5))
        .input(gate, 1)
        .output(shut, 1)
        .build();
    b.transition("open", Timing::exponential(2.0))
        .input(shut, 1)
        .output(gate, 1)
        .build();
    let work = b
        .transition("work", Timing::deterministic(0.75))
        .input(jobs, 1)
        .output(done, 1)
        .guard(Expr::count(gate).gt_c(0))
        .memory(MemoryPolicy::RaceAge)
        .build();
    b.transition("work_u", Timing::uniform(0.2, 0.9))
        .input(jobs, 1)
        .output(done, 1)
        .inhibitor(shut, 1)
        .memory(MemoryPolicy::RaceAge)
        .build();
    b.transition("recycle", Timing::exponential(3.0))
        .input(done, 1)
        .output(jobs, 1)
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(200.0).with_trace(256));
    sim.reward_place(done);
    assert_lowered_identical(&sim, "race-age-freeze");
    let out = sim.run(1).unwrap();
    assert!(out.firing_counts[close.index()] > 0 && out.firing_counts[work.index()] > 0);
}

/// A Resample clock that stays enabled while the marking keeps changing:
/// the scan scheduler redraws it in place, without leaving the pending
/// set.
#[test]
fn lowered_differential_pending_clocks_resample_redraw() {
    let mut b = NetBuilder::new("resample");
    let q = b.place("q").build();
    let hold = b.place("hold").tokens(1).build();
    let fired = b.place("fired").build();
    b.transition("arrive", Timing::exponential(4.0))
        .output(q, 1)
        .build();
    b.transition("serve", Timing::exponential(5.0))
        .input(q, 1)
        .build();
    let slow = b
        .transition("slow", Timing::deterministic(0.6))
        .input(hold, 1)
        .output(fired, 1)
        .memory(MemoryPolicy::Resample)
        .build();
    b.transition("rs_exp", Timing::exponential(0.5))
        .input(hold, 1)
        .output(hold, 1)
        .memory(MemoryPolicy::Resample)
        .build();
    b.transition("back", Timing::exponential(1.0))
        .input(fired, 1)
        .output(hold, 1)
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(300.0).with_trace(128));
    sim.reward_place(q);
    sim.reward_place(fired);
    assert_lowered_identical(&sim, "resample-redraw");
    // Redraws keep pushing `slow` back: it fires, but rarely.
    let out = sim.run(2).unwrap();
    assert!(out.firing_counts[slow.index()] > 0);
}

/// One immediate cascade cancels a timed clock (`i1` takes its input)
/// and re-arms it (`i2` puts the token back) at the same instant: the
/// clock leaves the pending set and rejoins it with a fresh deadline.
#[test]
fn lowered_differential_pending_clocks_cancel_and_rearm_in_one_cascade() {
    let mut b = NetBuilder::new("rearm");
    let p = b.place("p").tokens(1).build();
    let x = b.place("x").build();
    let y = b.place("y").build();
    let out_p = b.place("out").build();
    b.transition("kick", Timing::exponential(1.2))
        .output(x, 1)
        .build();
    let i1 = b
        .transition("i1", Timing::immediate_pri(2))
        .input(p, 1)
        .input(x, 1)
        .output(y, 1)
        .build();
    b.transition("i2", Timing::immediate_pri(1))
        .input(y, 1)
        .output(p, 1)
        .build();
    let tick = b
        .transition("tick", Timing::deterministic(0.7))
        .input(p, 1)
        .output(p, 1)
        .output(out_p, 1)
        .build();
    b.transition("tick_exp", Timing::exponential(2.0))
        .input(p, 1)
        .output(p, 1)
        .build();
    b.transition("drain", Timing::exponential(3.0))
        .input(out_p, 1)
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(100.0).with_trace(256));
    sim.reward_place(out_p);
    assert_lowered_identical(&sim, "cancel-rearm");
    // Every kick restarts `tick`'s 0.7 s clock, so it fires less often
    // than an undisturbed clock would.
    let out = sim.run(4).unwrap();
    assert!(out.firing_counts[i1.index()] > 0);
    assert!(out.firing_counts[tick.index()] < (100.0 / 0.7) as u64);
}

/// A ring of `n` transitions with mixed delays and several tokens. At 32
/// transitions (the scan scheduler's ceiling) it runs the pending-clock
/// scan, at 33 the heap; both must match the reference engine, exact
/// deterministic ties included.
fn ring_net(n: usize) -> Net {
    let mut b = NetBuilder::new("ring");
    let places: Vec<PlaceId> = (0..n)
        .map(|i| {
            b.place(format!("p{i}"))
                .tokens((i % 3 == 0) as usize)
                .build()
        })
        .collect();
    for i in 0..n {
        let timing = match i % 4 {
            0 => Timing::deterministic(0.5),
            1 => Timing::exponential(2.0),
            2 => Timing::deterministic(0.25),
            _ => Timing::uniform(0.1, 0.4),
        };
        b.transition(format!("t{i}"), timing)
            .input(places[i], 1)
            .output(places[(i + 1) % n], 1)
            .build();
    }
    b.build().unwrap()
}

#[test]
fn lowered_differential_scan_ceiling_and_heap_fallback() {
    for n in [32, 33] {
        let net = ring_net(n);
        assert_eq!(net.num_transitions(), n);
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(50.0).with_trace(512));
        sim.reward_place(net.place_by_name("p0").unwrap());
        assert_lowered_identical(&sim, &format!("ring-{n}"));
        assert!(has_tie(&sim.run(0).unwrap().trace), "ring-{n} has no ties");
    }
}

// --- shared truth slots ----------------------------------------------------

/// Count conditions that share a truth slot, and near-misses that must
/// not: `dup` tests `#a >= 1` three times (input arc plus two guard
/// terms), so it is three watchers of one slot; `pair`'s input arc
/// `#b >= 2` and `lone`'s inhibitor `#b < 2` read the same place and
/// threshold but are distinct slots; `#c >= 1` is watched by the
/// immediate `take_c` and the timed `slow_c`.
#[test]
fn lowered_differential_shared_truth_slots() {
    let mut b = NetBuilder::new("shared-slots");
    let a = b.place("a").build();
    let bp = b.place("b").build();
    let c = b.place("c").build();
    let d = b.place("d").build();
    let sink = b.place("sink").build();
    b.transition("gen_a", Timing::exponential(2.0))
        .output(a, 1)
        .build();
    let dup = b
        .transition("dup", Timing::exponential(3.0))
        .input(a, 1)
        .output(sink, 1)
        .guard(Expr::count(a).gt_c(0).and(Expr::count(a).ge_c(1)))
        .build();
    b.transition("gen_b", Timing::exponential(2.5))
        .output(bp, 1)
        .build();
    let pair = b
        .transition("pair", Timing::deterministic(0.3))
        .input(bp, 2)
        .output(sink, 1)
        .build();
    let lone = b
        .transition("lone", Timing::exponential(1.0))
        .inhibitor(bp, 2)
        .output(d, 1)
        .build();
    b.transition("gen_c", Timing::exponential(1.5))
        .output(c, 1)
        .build();
    let take_c = b
        .transition("take_c", Timing::immediate())
        .input(c, 1)
        .input(d, 1)
        .output(sink, 1)
        .build();
    let slow_c = b
        .transition("slow_c", Timing::exponential(4.0))
        .input(c, 1)
        .output(sink, 1)
        .build();
    b.transition("drain", Timing::exponential(6.0))
        .input(sink, 1)
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(300.0).with_trace(128));
    sim.reward_place(a);
    sim.reward_place(bp);
    sim.reward_place(c);
    assert!(sim.lowers_dense());
    assert_lowered_identical(&sim, "shared-slots");
    let out = sim.run(5).unwrap();
    for t in [dup, pair, lone, take_c, slow_c] {
        assert!(out.firing_counts[t.index()] > 0, "{t:?} never fired");
    }
}

/// 300 transitions draw from one place with the same multiplicity: one
/// truth slot whose every flip fans out to 300 watchers (heap
/// scheduler).
#[test]
fn lowered_differential_condition_with_hundreds_of_watchers() {
    let mut b = NetBuilder::new("many-watchers");
    let q = b.place("q").build();
    b.transition("gen", Timing::exponential(5.0))
        .output(q, 1)
        .build();
    for i in 0..300 {
        b.transition(
            format!("take{i}"),
            Timing::exponential(0.01 * (1 + i % 7) as f64),
        )
        .input(q, 1)
        .build();
    }
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(20.0).with_trace(64));
    sim.reward_place(q);
    assert_lowered_identical(&sim, "many-watchers");
}

/// Error outcomes must match exactly too: an overflowing run trips the
/// same `TokenOverflow` (place, time, limit) on both engines.
#[test]
fn lowered_differential_token_overflow_errors() {
    let mut b = NetBuilder::new("boom");
    let q = b.place("q").build();
    b.transition("gen", Timing::exponential(5.0))
        .output(q, 1)
        .build();
    b.transition("serve", Timing::exponential(1.0))
        .input(q, 1)
        .build();
    let net = b.build().unwrap();
    let mut cfg = SimConfig::for_horizon(10_000.0);
    cfg.max_tokens_per_place = 40;
    let sim = Simulator::new(&net, cfg);
    assert_lowered_identical(&sim, "boom");
    let overflowed = SEEDS
        .filter(|&seed| matches!(sim.run(seed), Err(SimError::TokenOverflow { .. })))
        .count();
    assert!(
        overflowed > 0,
        "overflow net never overflowed (vacuous test)"
    );
}

// --- the Figs. 4-9 CPU net and the immediate cascade ------------------------

/// The Fig. 3 CPU net with `wsn::simulate_cpu_model`'s exact reward set:
/// five place rewards (the four power states and the queue) and the
/// wake-up and service firing counts. PUD and PDT each span the Figs. 4-9
/// sweep's extremes and middle.
#[test]
fn lowered_differential_fig3_cpu_reward_set() {
    for pud in [0.001, 0.3, 10.0] {
        for pdt in [0.001, 0.5, 1.0] {
            let model = wsn::build_cpu_model(&wsn::CpuModelParams::paper_defaults(pdt, pud));
            let mut sim = Simulator::new(&model.net, SimConfig::for_horizon(500.0));
            let pl = &model.places;
            for p in [pl.stand_by, pl.powering_up, pl.idle, pl.active, pl.buffer] {
                sim.reward_place(p);
            }
            sim.reward_firings(model.transitions.t1);
            sim.reward_firings(model.transitions.service);
            assert!(sim.lowers_dense());
            assert_lowered_identical(&sim, &format!("fig3 pud {pud} pdt {pdt}"));
        }
    }
}

/// The same net behind a warm-up window, with one reward of every
/// integration kind: a place count, a single-count threshold, a
/// sum-of-counts threshold, and a predicate left as a postfix program.
/// Every kind must clip its first interval at the warm-up boundary exactly
/// as the reference engine does.
#[test]
fn lowered_differential_fig3_cpu_warmup_predicates() {
    let model = wsn::build_cpu_model(&wsn::CpuModelParams::paper_defaults(0.05, 0.3));
    let pl = &model.places;
    let mut sim = Simulator::new(&model.net, SimConfig::for_horizon(300.0).with_warmup(37.5));
    sim.reward_place(pl.buffer);
    sim.reward_predicate(Expr::count(pl.buffer).gt_c(1))
        .unwrap();
    sim.reward_predicate(Expr::count(pl.idle).add(Expr::count(pl.active)).gt_c(0))
        .unwrap();
    sim.reward_predicate(Expr::count(pl.buffer).eq_c(2))
        .unwrap();
    sim.reward_firings(model.transitions.service);
    assert_lowered_identical(&sim, "fig3 warm-up predicates");
}

/// An immediate cascade that alternates its two kinds of step. Each
/// arrival enables exactly the weighted pair `left`/`right` (a draw
/// between two candidates); either one enables only `join` (a single
/// candidate, no draw), which empties the cascade again. The firing counts
/// prove both kinds of step ran: both sides of the draw won, and `join`
/// fired once per draw.
#[test]
fn lowered_differential_cascade_alternates_single_and_weighted_steps() {
    let mut b = NetBuilder::new("cascade");
    let src = b.place("src").build();
    let mid = b.place("mid").build();
    let out = b.place("out").build();
    let imm = |weight| Timing::Immediate {
        priority: 1,
        weight,
    };
    b.transition("arrive", Timing::exponential(2.0))
        .output(src, 1)
        .build();
    let left = b
        .transition("left", imm(1.0))
        .input(src, 1)
        .output(mid, 1)
        .build();
    let right = b
        .transition("right", imm(3.0))
        .input(src, 1)
        .output(mid, 2)
        .build();
    let join = b
        .transition("join", imm(1.0))
        .input(mid, 1)
        .output(out, 1)
        .build();
    b.transition("drain", Timing::exponential(5.0))
        .input(out, 1)
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(200.0).with_trace(32));
    sim.reward_place(out);
    sim.reward_firings(join);
    assert_lowered_identical(&sim, "cascade");
    for seed in SEEDS {
        let o = sim.run(seed).unwrap();
        let n = |t: TransitionId| o.firing_counts[t.index()];
        assert!(n(left) > 0 && n(right) > 0, "seed {seed}: a side never won");
        assert_eq!(n(join), n(left) + 2 * n(right), "seed {seed}");
    }
}

// --- colored-place splitting ----------------------------------------------

/// The paper's node SCPNs (Fig. 12 closed at the fig14 defaults, Fig. 13
/// open at the fig15 defaults) with their Fig. 14/15 rewards, across the
/// PDT extremes and the optimum: `Buffer` is split into per-color counts
/// and the Table XI guard into thresholds, and both engines must still
/// agree bit for bit, final-marking FIFO order included.
#[test]
fn lowered_differential_node_nets() {
    use des::{NodeSimParams, Workload};
    for workload in [
        Workload::Closed { interval: 1.0 },
        Workload::Open { rate: 1.0 },
    ] {
        for pdt in [1e-6, 0.00177, 0.1, 100.0] {
            let params = NodeSimParams::paper_defaults(workload, pdt);
            let model = wsn::build_node_model(&params);
            let (sim, _) = wsn::node_simulator(&model, 60.0);
            assert!(
                sim.lowers_dense(),
                "{} fell back to the generic loop",
                model.net.name
            );
            assert_lowered_identical(&sim, &format!("{} pdt {pdt}", model.net.name));
        }
    }
}

/// A split place that holds several colors at once: two constant-color
/// sources feed `q`, `Eq`-filtered servers drain it at different rates, a
/// single-color `In` filter withdraws like `Eq`, and a conjunctive guard
/// reads per-color counts. The final markings' FIFO order inside `q` is
/// the order record's job.
#[test]
fn lowered_differential_split_place_keeps_fifo_order() {
    let (red, blue, green) = (Color(1), Color(2), Color(7));
    let mut b = NetBuilder::new("split-fifo");
    let q = b
        .place("q")
        .token_colored(blue)
        .token_colored(red)
        .token_colored(blue)
        .build();
    let done = b.place("done").build();
    let gate = b.place("gate").tokens(1).build();
    b.transition("src_red", Timing::exponential(1.3))
        .output_colored(q, 1, ColorExpr::Const(red))
        .build();
    b.transition("src_blue", Timing::exponential(0.4))
        .output_colored(q, 2, ColorExpr::Const(blue))
        .build();
    b.transition("serve_red", Timing::exponential(1.1))
        .input_filtered(q, 1, ColorFilter::Eq(red))
        .output(done, 1)
        .build();
    b.transition("serve_blue", Timing::deterministic(0.8))
        .input_filtered(q, 1, ColorFilter::In(vec![blue, green]))
        .output(done, 1)
        .inhibitor_filtered(q, 6, ColorFilter::Eq(red))
        .guard(
            Expr::count_color(q, blue)
                .gt_c(1)
                .and(Expr::count(gate).ge_c(1)),
        )
        .build();
    b.transition("serve_never", Timing::exponential(5.0))
        .input_filtered(q, 1, ColorFilter::Eq(green))
        .build();
    b.transition("recolor", Timing::immediate())
        .input_filtered(q, 2, ColorFilter::Eq(red))
        .output_colored(q, 1, ColorExpr::Const(blue))
        .guard(Expr::count(q).ge_c(5))
        .build();
    b.transition("drain", Timing::exponential(4.0))
        .input(done, 1)
        .build();
    b.transition("flap", Timing::uniform(0.5, 1.5))
        .input(gate, 1)
        .output(gate, 1)
        .build();
    let net = b.build().unwrap();
    let mut cfg = SimConfig::for_horizon(120.0).with_trace(64);
    cfg.max_tokens_per_place = 60;
    let mut sim = Simulator::new(&net, cfg);
    sim.reward_place(q);
    sim.reward_predicate(Expr::count_color(q, red).gt_c(2))
        .unwrap();
    sim.reward_predicate(
        Expr::count_color(q, red)
            .gt_c(0)
            .or(Expr::count(done).gt_c(0)),
    )
    .unwrap();
    assert!(sim.lowers_dense(), "split-fifo should lower dense");
    assert_lowered_identical(&sim, "split-fifo");
    // The check is not vacuous: some run ends with mixed colors in `q`.
    let mixed = SEEDS.into_iter().any(|seed| {
        let m = sim.run(seed).map(|o| o.final_marking);
        m.is_ok_and(|m| {
            let colors: Vec<Color> = m.colors(q).collect();
            colors.contains(&red) && colors.contains(&blue)
        })
    });
    assert!(mixed, "no run ended with mixed colors in the split place");
}

/// Colored places the lowering must leave on the generic path: one fed by
/// `Transfer`, and one withdrawn with `Any` while it holds two colors.
#[test]
fn lowered_differential_ineligible_colored_places() {
    let mut b = NetBuilder::new("ineligible");
    let src = b.place("src").build();
    let mixed = b.place("mixed").build();
    let copied = b.place("copied").build();
    b.transition("gen", Timing::exponential(2.0))
        .output_colored(src, 1, ColorExpr::Const(Color(1)))
        .output_colored(mixed, 1, ColorExpr::Const(Color(2)))
        .build();
    b.transition("gen_mixed", Timing::exponential(1.0))
        .output_colored(mixed, 1, ColorExpr::Const(Color(3)))
        .build();
    b.transition("copy", Timing::exponential(3.0))
        .input_filtered(src, 1, ColorFilter::Eq(Color(1)))
        .output_colored(copied, 1, ColorExpr::Transfer { arc_index: 0 })
        .build();
    b.transition("take_any", Timing::exponential(2.5))
        .input(mixed, 1)
        .build();
    b.transition("take_copied", Timing::exponential(2.5))
        .input_filtered(copied, 1, ColorFilter::Eq(Color(1)))
        .guard(Expr::count_color(mixed, Color(2)).le_c(3))
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(150.0));
    sim.reward_place(mixed);
    sim.reward_predicate(Expr::count_color(copied, Color(1)).gt_c(0))
        .unwrap();
    assert!(!sim.lowers_dense(), "ineligible places must stay generic");
    assert_lowered_identical(&sim, "ineligible");
}

// --- randomized cross-engine agreement -------------------------------------

/// One random uncolored transition description.
#[derive(Debug, Clone)]
struct RandTransition {
    timing: u8,
    rate: f64,
    lo: f64,
    span: f64,
    k: u32,
    priority: u8,
    weight: f64,
    policy: u8,
    input: (usize, u32),
    output: Option<(usize, u32)>,
    inhibitor: Option<(usize, u32)>,
    guard: Option<(usize, i64)>,
}

fn arb_transition(places: usize) -> impl Strategy<Value = RandTransition> {
    (
        0u8..5,
        0.5f64..5.0,
        0.05f64..0.5,
        0.01f64..1.0,
        1u32..4,
        1u8..4,
        0.5f64..3.0,
        0u8..3,
        (0..places, 1u32..3),
        proptest::option::of((0..places, 1u32..3)),
        proptest::option::of((0..places, 1u32..4)),
        proptest::option::of((0..places, 0i64..4)),
    )
        .prop_map(
            |(
                timing,
                rate,
                lo,
                span,
                k,
                priority,
                weight,
                policy,
                input,
                output,
                inhibitor,
                guard,
            )| {
                RandTransition {
                    timing,
                    rate,
                    lo,
                    span,
                    k,
                    priority,
                    weight,
                    policy,
                    input,
                    output,
                    inhibitor,
                    guard,
                }
            },
        )
}

fn build_random_net(tokens: &[u32], transitions: &[RandTransition]) -> Net {
    let mut b = NetBuilder::new("random");
    let places: Vec<_> = tokens
        .iter()
        .enumerate()
        .map(|(i, &n)| b.place(format!("p{i}")).tokens(n as usize).build())
        .collect();
    for (i, t) in transitions.iter().enumerate() {
        let timing = match t.timing {
            0 => Timing::exponential(t.rate),
            1 => Timing::deterministic(t.lo),
            2 => Timing::uniform(t.lo, t.lo + t.span),
            3 => Timing::erlang(t.k, t.rate),
            _ => Timing::Immediate {
                priority: t.priority,
                weight: t.weight,
            },
        };
        let policy = match t.policy {
            0 => MemoryPolicy::RaceEnable,
            1 => MemoryPolicy::RaceAge,
            _ => MemoryPolicy::Resample,
        };
        let mut tb = b
            .transition(format!("t{i}"), timing)
            .input(places[t.input.0], t.input.1)
            .memory(policy);
        if let Some((p, m)) = t.output {
            tb = tb.output(places[p], m);
        }
        if let Some((p, th)) = t.inhibitor {
            tb = tb.inhibitor(places[p], th);
        }
        if let Some((p, c)) = t.guard {
            tb = tb.guard(Expr::count(places[p]).le_c(c));
        }
        tb.build();
    }
    b.build().unwrap()
}

/// One random colored transition description. The small integer codes
/// are chosen so that split-eligible places (constant deposits, `Eq`
/// withdrawals, per-color and conjunctive guards) and ineligible ones
/// (`Transfer`/`Choice` deposits, multi-color `Any`/`In`/`Ne` withdrawals,
/// unreducible guards) both come up.
#[derive(Debug, Clone)]
struct RandColored {
    timing: u8,
    rate: f64,
    priority: u8,
    /// (place, multiplicity, filter code, color).
    input: (usize, u32, u8, u32),
    /// (place, multiplicity, color-expression code, color, second color).
    output: Option<(usize, u32, u8, u32, u32)>,
    /// (place, threshold, filter code, color).
    inhibitor: Option<(usize, u32, u8, u32)>,
    /// (guard code, place, color, constant, second place).
    guard: Option<(u8, usize, u32, i64, usize)>,
}

fn arb_colored(places: usize) -> impl Strategy<Value = RandColored> {
    (
        0u8..4,
        0.5f64..5.0,
        1u8..4,
        (0..places, 1u32..3, 0u8..5, 0u32..4),
        proptest::option::of((0..places, 1u32..3, 0u8..5, 0u32..4, 0u32..4)),
        proptest::option::of((0..places, 1u32..4, 0u8..5, 0u32..4)),
        proptest::option::of((0u8..5, 0..places, 0u32..4, 0i64..3, 0..places)),
    )
        .prop_map(
            |(timing, rate, priority, input, output, inhibitor, guard)| RandColored {
                timing,
                rate,
                priority,
                input,
                output,
                inhibitor,
                guard,
            },
        )
}

fn rand_filter(code: u8, c: u32) -> ColorFilter {
    match code {
        0 => ColorFilter::Any,
        1 | 2 => ColorFilter::Eq(Color(c)),
        3 => ColorFilter::In(vec![Color(c), Color(c + 1)]),
        _ => ColorFilter::Ne(Color(c)),
    }
}

fn rand_guard(code: u8, p: PlaceId, c: u32, v: i64, p2: PlaceId) -> Expr {
    let c = Color(c);
    match code {
        0 => Expr::count_color(p, c).le_c(v),
        // The Table XI shape: `#p == 0 && #p2 > v`.
        1 => Expr::count(p).eq_c(0).and(Expr::count(p2).gt_c(v)),
        2 => Expr::count_color(p, c)
            .ge_c(v)
            .and(Expr::constant(v + 1).ge(Expr::count(p2)))
            .and(Expr::count_color(p2, c).lt_c(v + 2)),
        3 => Expr::count(p).add(Expr::count(p2)).le_c(v),
        _ => Expr::count(p).gt_c(0).or(Expr::count_color(p2, c).eq_c(0)),
    }
}

fn build_random_colored_net(tokens: &[(u32, u32)], transitions: &[RandColored]) -> Net {
    let mut b = NetBuilder::new("random-colored");
    let places: Vec<_> = tokens
        .iter()
        .enumerate()
        .map(|(i, &(n, c))| {
            let mut pb = b.place(format!("p{i}"));
            for _ in 0..n {
                pb = pb.token_colored(Color(c));
            }
            pb.build()
        })
        .collect();
    for (i, t) in transitions.iter().enumerate() {
        let timing = match t.timing {
            0 => Timing::exponential(t.rate),
            1 => Timing::deterministic(1.0 / t.rate),
            2 => Timing::uniform(0.1, 0.1 + 1.0 / t.rate),
            _ => Timing::Immediate {
                priority: t.priority,
                weight: t.rate,
            },
        };
        let (p, m, f, c) = t.input;
        let mut tb =
            b.transition(format!("t{i}"), timing)
                .input_filtered(places[p], m, rand_filter(f, c));
        if let Some((p, m, e, c, c2)) = t.output {
            let expr = match e {
                0..=2 => ColorExpr::Const(Color(c)),
                3 => ColorExpr::Transfer { arc_index: 0 },
                _ => ColorExpr::Choice(vec![(Color(c), 1.0), (Color(c2), 2.0)]),
            };
            tb = tb.output_colored(places[p], m, expr);
        }
        if let Some((p, th, f, c)) = t.inhibitor {
            tb = tb.inhibitor_filtered(places[p], th, rand_filter(f, c));
        }
        if let Some((g, p, c, v, p2)) = t.guard {
            tb = tb.guard(rand_guard(g, places[p], c, v, places[p2]));
        }
        tb.build();
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random small colored nets: the split analysis, per-color slots,
    /// order records, guard splitting and sum predicates must leave both
    /// engines in bit-for-bit agreement, final-marking FIFO order and error
    /// outcomes included.
    #[test]
    fn random_colored_nets_agree_across_all_engines(
        tokens in proptest::collection::vec((0u32..3, 0u32..4), 2..5),
        transitions in proptest::collection::vec(arb_colored(2), 2..6),
        seed in 0u64..10_000,
    ) {
        let np = tokens.len();
        let transitions: Vec<RandColored> = transitions
            .into_iter()
            .map(|mut t| {
                t.input.0 %= np;
                if let Some(o) = &mut t.output { o.0 %= np; }
                if let Some(i) = &mut t.inhibitor { i.0 %= np; }
                if let Some(g) = &mut t.guard { g.1 %= np; g.4 %= np; }
                t
            })
            .collect();
        let net = build_random_colored_net(&tokens, &transitions);
        let mut cfg = SimConfig::for_horizon(25.0);
        cfg.max_tokens_per_place = 200;
        let mut sim = Simulator::new(&net, cfg);
        let (p0, p1) = (PlaceId::from_index(0), PlaceId::from_index(1));
        sim.reward_place(p0);
        sim.reward_predicate(Expr::count(p0).gt_c(0).or(Expr::count(p1).gt_c(0))).unwrap();
        sim.reward_predicate(Expr::count(p0).add(Expr::count(p1)).ge_c(2)).unwrap();
        sim.reward_predicate(Expr::count_color(p1, Color(1)).gt_c(0)).unwrap();
        for s in [seed, seed + 1, seed + 2] {
            prop_assert_eq!(sim.run(s), sim.run_reference(s));
        }
    }

    /// Random small nets: both engines must agree bit-for-bit on the
    /// outcome, whether that outcome is a clean run, an immediate livelock,
    /// or a token overflow.
    #[test]
    fn random_nets_agree_across_all_engines(
        tokens in proptest::collection::vec(0u32..4, 2..5),
        transitions in proptest::collection::vec(arb_transition(2), 2..6),
        seed in 0u64..10_000,
    ) {
        // Arc place indices were drawn against the minimum place count;
        // clamp them into range for the actual vector length.
        let np = tokens.len();
        let transitions: Vec<RandTransition> = transitions
            .into_iter()
            .map(|mut t| {
                t.input.0 %= np;
                if let Some(o) = &mut t.output { o.0 %= np; }
                if let Some(i) = &mut t.inhibitor { i.0 %= np; }
                if let Some(g) = &mut t.guard { g.0 %= np; }
                t
            })
            .collect();
        let net = build_random_net(&tokens, &transitions);
        let mut cfg = SimConfig::for_horizon(25.0);
        cfg.max_tokens_per_place = 200;
        let mut sim = Simulator::new(&net, cfg);
        sim.reward_place(net.place_by_name("p0").unwrap());
        for s in [seed, seed + 1, seed + 2] {
            prop_assert_eq!(sim.run(s), sim.run_reference(s));
        }
    }
}
