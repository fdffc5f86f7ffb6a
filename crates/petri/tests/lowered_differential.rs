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
/// engine falls back from the stripe scan to the lazy-deletion heap —
/// this keeps the heap instantiation under differential coverage.
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
