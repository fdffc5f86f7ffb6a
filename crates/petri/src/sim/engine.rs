//! The simulation engine: enabling, scheduling, firing, reward integration.
//!
//! This is the *incremental* engine. All static structure is compiled once
//! per [`Simulator`] (see `CompiledSim`), and the per-event work is driven
//! by incrementally maintained dynamic state:
//!
//! * **Enabling** is tracked as a per-transition *unsatisfied-condition
//!   counter*. Every input arc, inhibitor arc, and guard is flattened into
//!   a condition record indexed (CSR adjacency) by the places it reads;
//!   when a firing moves tokens, only the conditions watching the touched
//!   places are re-evaluated, and a transition's enabled bit flips exactly
//!   when its counter crosses zero. `is_enabled` full rescans survive only
//!   as `debug_assert!` cross-checks.
//! * **Immediate selection** reads an incrementally maintained
//!   enabled-immediates index instead of rescanning every immediate
//!   transition per vanishing-loop iteration.
//! * **Guards** and predicate rewards run as flat postfix programs
//!   ([`crate::expr`]'s `CompiledExpr`) over the marking's dense count
//!   vector — no tree walking mid-simulation.
//! * **Firing** of fully-uncolored transitions follows a precompiled dense
//!   plan: straight `u32` add/sub on the count vector, with no color
//!   filters, consumed-token bookkeeping, or color-expression evaluation.
//! * **Scheduling re-checks** after a firing walk a per-transition list
//!   precompiled from the dependency index (the traversal is static), in
//!   exactly the reference engine's order — the order determines which
//!   transition consumes which RNG draw.
//! * **Reward counters** are bumped through a per-transition dispatch index
//!   built once per run, not a per-firing scan over all accumulators.
//! * **The event queue** is a flat 4-ary min-heap over `(time, tid, gen)`
//!   with O(1) lazy cancellation via generation counters (cancellation is
//!   far more frequent than firing in conflict-heavy nets, so O(log n)
//!   eager removal loses).
//!
//! The original engine is preserved verbatim in [`super::reference`];
//! [`Simulator::run_reference`] runs it. Both engines consume the RNG in
//! exactly the same order, so trajectories are **bit-identical** — the
//! differential test suite (`tests/differential.rs`) proves it per commit.

use super::rewards::{RewardId, RewardSpec, RewardSpecError};
use super::trace::{TraceBuffer, TraceEvent};
use crate::error::SimError;
use crate::expr::CompiledExpr;
use crate::ids::{PlaceId, TransitionId};
use crate::marking::Marking;
use crate::net::Net;
use crate::rng::SimRng;
use crate::timing::{MemoryPolicy, Timing};
use crate::token::{Color, ColorFilter};
use crate::transition::Transition;

/// Run-independent simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Simulated time horizon (seconds).
    pub end_time: f64,
    /// Rewards are only accumulated after this much simulated time
    /// (steady-state warm-up deletion). Default 0.
    pub warmup: f64,
    /// Abort with [`SimError::ImmediateLivelock`] after this many firings
    /// without time advancing. Default 100 000.
    pub max_zero_time_firings: u64,
    /// Abort with [`SimError::TokenOverflow`] if any place exceeds this
    /// token count. Default 1 000 000.
    pub max_tokens_per_place: usize,
    /// Record up to this many firings in the output trace. Default 0 (off).
    pub trace_capacity: usize,
}

impl SimConfig {
    /// Config with the given horizon and library defaults for everything
    /// else.
    pub fn for_horizon(end_time: f64) -> Self {
        SimConfig {
            end_time,
            warmup: 0.0,
            max_zero_time_firings: 100_000,
            max_tokens_per_place: 1_000_000,
            trace_capacity: 0,
        }
    }

    /// Builder-style: set the warm-up window.
    pub fn with_warmup(mut self, warmup: f64) -> Self {
        self.warmup = warmup;
        self
    }

    /// Builder-style: enable trace recording.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }
}

/// Token limit actually enforced by the engines: place counts are stored
/// as `u32` (saturating), so limits at or above `u32::MAX` are clamped to
/// keep the overflow guard effective.
pub(crate) fn effective_token_limit(cfg: &SimConfig) -> usize {
    cfg.max_tokens_per_place.min(u32::MAX as usize - 1)
}

/// Results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// The configured horizon actually simulated.
    pub end_time: f64,
    /// `end_time - warmup`: the window over which rewards were measured.
    pub observed_time: f64,
    /// One value per configured reward, in [`RewardId`] order.
    pub rewards: Vec<f64>,
    /// Total firings per transition over the whole run (including warm-up).
    pub firing_counts: Vec<u64>,
    /// Marking at the end of the run.
    pub final_marking: Marking,
    /// Recorded firings (empty unless `trace_capacity > 0`).
    pub trace: Vec<TraceEvent>,
    /// Firings not recorded because the trace buffer filled up.
    pub trace_dropped: u64,
}

impl SimOutput {
    /// Value of a configured reward.
    #[inline]
    pub fn reward(&self, id: RewardId) -> f64 {
        self.rewards[id.index()]
    }

    /// Total number of firings across all transitions.
    pub fn total_firings(&self) -> u64 {
        self.firing_counts.iter().sum()
    }
}

// ---------------------------------------------------------------------------
// Compiled static structure
// ---------------------------------------------------------------------------

/// Compressed sparse rows: `row(i)` is a contiguous `&[u32]` — one shared
/// allocation instead of a `Vec<Vec<u32>>`'s per-row pointer chase.
#[derive(Debug, Clone, Default)]
pub(super) struct Csr {
    off: Vec<u32>,
    dat: Vec<u32>,
}

impl Csr {
    fn from_rows(rows: &[Vec<u32>]) -> Csr {
        let mut off = Vec::with_capacity(rows.len() + 1);
        let mut dat = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        off.push(0);
        for row in rows {
            dat.extend_from_slice(row);
            off.push(dat.len() as u32);
        }
        Csr { off, dat }
    }

    #[inline]
    pub(super) fn row(&self, i: usize) -> &[u32] {
        &self.dat[self.off[i] as usize..self.off[i + 1] as usize]
    }
}

/// Timing discriminant, split out so the hot loop never matches on the full
/// [`Timing`] enum through the [`Transition`] struct (and its cold fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum TimingKind {
    Immediate,
    Deterministic,
    Exponential,
    Uniform,
    Erlang,
}

/// Dense per-transition scheduling scalars: everything `recheck_timed` and
/// `fire_immediates` need, packed away from the cold `Transition` fields
/// (name strings, arc vectors).
#[derive(Debug, Clone)]
pub(super) struct TransHot {
    pub(super) kind: TimingKind,
    pub(super) memory: MemoryPolicy,
    pub(super) priority: u8,
    pub(super) weight: f64,
    /// Deterministic delay / exponential rate / uniform low / Erlang rate.
    pub(super) a: f64,
    /// Uniform high.
    pub(super) b: f64,
    /// Erlang stage count.
    pub(super) k: u32,
}

impl TransHot {
    fn from_timing(timing: &Timing, memory: MemoryPolicy) -> Self {
        let (kind, priority, weight, a, b, k) = match *timing {
            Timing::Immediate { priority, weight } => {
                (TimingKind::Immediate, priority, weight, 0.0, 0.0, 0)
            }
            Timing::Deterministic { delay } => (TimingKind::Deterministic, 0, 0.0, delay, 0.0, 0),
            Timing::Exponential { rate } => (TimingKind::Exponential, 0, 0.0, rate, 0.0, 0),
            Timing::Uniform { low, high } => (TimingKind::Uniform, 0, 0.0, low, high, 0),
            Timing::Erlang { k, rate } => (TimingKind::Erlang, 0, 0.0, rate, 0.0, k),
        };
        TransHot {
            kind,
            memory,
            priority,
            weight,
            a,
            b,
            k,
        }
    }

    /// Sample a firing delay; must draw from the RNG exactly as
    /// [`Timing::sample_delay`] does (the reference engine relies on it).
    #[inline]
    pub(super) fn sample_delay(&self, rng: &mut SimRng) -> f64 {
        match self.kind {
            TimingKind::Immediate => 0.0,
            TimingKind::Deterministic => self.a,
            TimingKind::Exponential => rng.exp(self.a),
            TimingKind::Uniform => rng.uniform(self.a, self.b),
            TimingKind::Erlang => {
                let mut total = 0.0;
                for _ in 0..self.k {
                    total += rng.exp(self.a);
                }
                total
            }
        }
    }
}

// Condition kinds (SoA record, 16 bytes; filters/guards live in side
// tables referenced through `aux`).
pub(super) const COND_INPUT_ANY: u8 = 0;
pub(super) const COND_INHIB_ANY: u8 = 1;
pub(super) const COND_INPUT_FILTERED: u8 = 2;
pub(super) const COND_INHIB_FILTERED: u8 = 3;
pub(super) const COND_GUARD: u8 = 4;

/// One elementary enabling condition. A transition is enabled iff all of
/// its conditions hold; the engine tracks the number of currently-false
/// conditions per transition.
#[derive(Debug, Clone)]
pub(super) struct Cond {
    pub(super) tid: u32,
    pub(super) kind: u8,
    /// Watched place (arc conditions; unused for guards).
    pub(super) place: u32,
    /// Required token count (inputs) / inhibition threshold (inhibitors).
    pub(super) need: u32,
    /// Index into the filter or guard side table.
    pub(super) aux: u32,
}

/// Precompiled dense firing plan: valid when every input arc consumes
/// color-blind from a count-only place and every output arc deposits plain
/// tokens into one (and no Choice arc would need an RNG draw). Firing is
/// then pure `u32` arithmetic on the count vector.
#[derive(Debug, Clone, Copy)]
pub(super) struct DensePlan {
    /// Range of (place, multiplicity) input entries in `plan_dat`.
    pub(super) ins: (u32, u32),
    /// Range of (place, multiplicity) output entries in `plan_dat`.
    pub(super) outs: (u32, u32),
}

/// Everything the engine precomputes per [`Simulator`] — shared, immutable,
/// reused by every run.
#[derive(Debug, Clone)]
pub(crate) struct CompiledSim {
    pub(super) conds: Vec<Cond>,
    pub(super) filters: Vec<ColorFilter>,
    pub(super) guards: Vec<CompiledExpr>,
    /// Place → indices of conditions that read it (ascending tid).
    pub(super) place_conds: Csr,
    /// Conditions that folded to constant-false at compile time (an input
    /// arc whose filter can never match an uncolored place) keep their
    /// transition permanently disabled via this base count.
    pub(super) base_unsat: Vec<u32>,
    /// Transition → places whose token count changes when it fires
    /// (inputs then outputs, deduplicated, arc order preserved).
    pub(super) touched: Csr,
    /// Transition → timed transitions to re-schedule after it fires, in
    /// exactly the reference engine's traversal order (dependency index
    /// over touched places, then self, then Resample transitions).
    pub(super) recheck_timed: Csr,
    pub(super) hot: Vec<TransHot>,
    pub(super) immediates: Vec<TransitionId>,
    pub(super) plans: Vec<Option<DensePlan>>,
    pub(super) plan_dat: Vec<(u32, u32)>,
    /// Scratch capacity needed by the largest guard program.
    pub(super) guard_stack: usize,
}

impl CompiledSim {
    fn build(net: &Net) -> Self {
        let nt = net.num_transitions();
        let np = net.num_places();
        let mut conds: Vec<Cond> = Vec::new();
        let mut filters: Vec<ColorFilter> = Vec::new();
        let mut guards: Vec<CompiledExpr> = Vec::new();
        let mut place_cond_rows: Vec<Vec<u32>> = vec![Vec::new(); np];
        let mut base_unsat = vec![0u32; nt];
        let mut touched_rows: Vec<Vec<u32>> = Vec::with_capacity(nt);
        let mut hot = Vec::with_capacity(nt);
        let mut plans: Vec<Option<DensePlan>> = Vec::with_capacity(nt);
        let mut plan_dat: Vec<(u32, u32)> = Vec::new();
        let mut guard_stack = 0usize;
        let mut guard_places: Vec<PlaceId> = Vec::new();

        for (ti, t) in net.transitions().iter().enumerate() {
            let tid = ti as u32;
            hot.push(TransHot::from_timing(&t.timing, t.memory));

            // --- enabling conditions ---
            for arc in &t.inputs {
                let p = arc.place.index();
                let colored = net.place_may_hold_colors(arc.place);
                let cond = match (&arc.filter, colored) {
                    (ColorFilter::Any, _) => Some(Cond {
                        tid,
                        kind: COND_INPUT_ANY,
                        place: p as u32,
                        need: arc.multiplicity,
                        aux: 0,
                    }),
                    (f, true) => {
                        filters.push(f.clone());
                        Some(Cond {
                            tid,
                            kind: COND_INPUT_FILTERED,
                            place: p as u32,
                            need: arc.multiplicity,
                            aux: (filters.len() - 1) as u32,
                        })
                    }
                    (f, false) if f.matches(Color::NONE) => Some(Cond {
                        tid,
                        kind: COND_INPUT_ANY,
                        place: p as u32,
                        need: arc.multiplicity,
                        aux: 0,
                    }),
                    // An uncolored place can never satisfy this filter: the
                    // transition is structurally dead.
                    _ => None,
                };
                match cond {
                    Some(cond) => {
                        place_cond_rows[p].push(conds.len() as u32);
                        conds.push(cond);
                    }
                    None => base_unsat[ti] += 1,
                }
            }

            for inh in &t.inhibitors {
                let p = inh.place.index();
                let colored = net.place_may_hold_colors(inh.place);
                let cond = match (&inh.filter, colored) {
                    (ColorFilter::Any, _) => Some(Cond {
                        tid,
                        kind: COND_INHIB_ANY,
                        place: p as u32,
                        need: inh.threshold,
                        aux: 0,
                    }),
                    (f, true) => {
                        filters.push(f.clone());
                        Some(Cond {
                            tid,
                            kind: COND_INHIB_FILTERED,
                            place: p as u32,
                            need: inh.threshold,
                            aux: (filters.len() - 1) as u32,
                        })
                    }
                    (f, false) if f.matches(Color::NONE) => Some(Cond {
                        tid,
                        kind: COND_INHIB_ANY,
                        place: p as u32,
                        need: inh.threshold,
                        aux: 0,
                    }),
                    // The filter can never match: the inhibitor never trips.
                    _ => None,
                };
                if let Some(cond) = cond {
                    place_cond_rows[p].push(conds.len() as u32);
                    conds.push(cond);
                }
            }

            if let Some(g) = &t.guard {
                let prog = CompiledExpr::compile(g);
                guard_stack = guard_stack.max(prog.stack_needed());
                guards.push(prog);
                guard_places.clear();
                g.collect_places(&mut guard_places);
                guard_places.sort_unstable();
                guard_places.dedup();
                for gp in &guard_places {
                    place_cond_rows[gp.index()].push(conds.len() as u32);
                }
                conds.push(Cond {
                    tid,
                    kind: COND_GUARD,
                    place: 0,
                    need: 0,
                    aux: (guards.len() - 1) as u32,
                });
            }

            // --- touched places (inputs then outputs, dedup) ---
            let mut tp: Vec<u32> = Vec::with_capacity(t.inputs.len() + t.outputs.len());
            for place in t
                .inputs
                .iter()
                .map(|a| a.place)
                .chain(t.outputs.iter().map(|a| a.place))
            {
                let p = place.index() as u32;
                if !tp.contains(&p) {
                    tp.push(p);
                }
            }
            touched_rows.push(tp);

            // --- dense firing plan ---
            let dense_ok = t
                .inputs
                .iter()
                .all(|a| !net.place_may_hold_colors(a.place) && a.filter.matches(Color::NONE))
                && t.outputs.iter().all(|a| {
                    !net.place_may_hold_colors(a.place)
                        && match &a.color {
                            crate::arc::ColorExpr::Const(c) => *c == Color::NONE,
                            // Transfer from a count-only place always moves a
                            // plain token and draws no RNG.
                            crate::arc::ColorExpr::Transfer { arc_index } => {
                                !net.place_may_hold_colors(t.inputs[*arc_index].place)
                            }
                            // Choice may consume an RNG draw; keep the
                            // general path so the stream stays aligned.
                            crate::arc::ColorExpr::Choice(_) => false,
                        }
                });
            if dense_ok {
                let ins_start = plan_dat.len() as u32;
                plan_dat.extend(
                    t.inputs
                        .iter()
                        .map(|a| (a.place.index() as u32, a.multiplicity)),
                );
                let outs_start = plan_dat.len() as u32;
                plan_dat.extend(
                    t.outputs
                        .iter()
                        .map(|a| (a.place.index() as u32, a.multiplicity)),
                );
                plans.push(Some(DensePlan {
                    ins: (ins_start, outs_start),
                    outs: (outs_start, plan_dat.len() as u32),
                }));
            } else {
                plans.push(None);
            }
        }

        // --- static re-check lists, in the reference engine's order ---
        let resamplers: Vec<u32> = (0..nt)
            .filter(|&ti| {
                hot[ti].kind != TimingKind::Immediate && hot[ti].memory == MemoryPolicy::Resample
            })
            .map(|ti| ti as u32)
            .collect();
        let mut recheck_rows: Vec<Vec<u32>> = Vec::with_capacity(nt);
        let mut seen = vec![false; nt];
        for (ti, t) in net.transitions().iter().enumerate() {
            let mut row: Vec<u32> = Vec::new();
            let mark = |row: &mut Vec<u32>, seen: &mut Vec<bool>, tid: u32| {
                if !seen[tid as usize] {
                    seen[tid as usize] = true;
                    row.push(tid);
                }
            };
            for place in t
                .inputs
                .iter()
                .map(|a| a.place)
                .chain(t.outputs.iter().map(|a| a.place))
            {
                for &tid in net.affected_by(place) {
                    mark(&mut row, &mut seen, tid.0);
                }
            }
            // The fired transition's own clock was consumed by firing.
            mark(&mut row, &mut seen, ti as u32);
            // Resample-policy transitions re-sample on every marking change.
            for &r in &resamplers {
                mark(&mut row, &mut seen, r);
            }
            for &tid in &row {
                seen[tid as usize] = false;
            }
            // Only timed transitions are re-scheduled (the reference engine
            // skips immediates here too, drawing no RNG), so pre-filter.
            row.retain(|&tid| hot[tid as usize].kind != TimingKind::Immediate);
            recheck_rows.push(row);
        }

        let immediates = net
            .transition_ids()
            .filter(|t| net.transition(*t).timing.is_immediate())
            .collect();

        CompiledSim {
            conds,
            filters,
            guards,
            place_conds: Csr::from_rows(&place_cond_rows),
            base_unsat,
            touched: Csr::from_rows(&touched_rows),
            recheck_timed: Csr::from_rows(&recheck_rows),
            hot,
            immediates,
            plans,
            plan_dat,
            guard_stack,
        }
    }

    /// Evaluate one condition against a marking.
    #[inline(always)]
    pub(super) fn eval_cond(&self, marking: &Marking, scratch: &mut Vec<i64>, cond: &Cond) -> bool {
        match cond.kind {
            COND_INPUT_ANY => marking.count_raw(cond.place) >= cond.need,
            COND_INHIB_ANY => marking.count_raw(cond.place) < cond.need,
            COND_INPUT_FILTERED => {
                let filter = &self.filters[cond.aux as usize];
                marking.count_matching(PlaceId(cond.place), filter) >= cond.need as usize
            }
            COND_INHIB_FILTERED => {
                let filter = &self.filters[cond.aux as usize];
                marking.count_matching(PlaceId(cond.place), filter) < cond.need as usize
            }
            COND_GUARD => self.guards[cond.aux as usize].eval_bool(marking, scratch),
            _ => unreachable!("invalid condition kind"),
        }
    }
}

// ---------------------------------------------------------------------------
// Lazily invalidated event heap
// ---------------------------------------------------------------------------

/// One pending firing. Entries are never removed on cancellation — the
/// per-transition generation counter marks them stale, and the main loop
/// discards stale entries as they surface. Min-order on `(time, tid, gen)`:
/// ties at the same instant fire in definition order.
#[derive(Debug, Clone, Copy)]
pub(super) struct HeapEntry {
    pub(super) time: f64,
    pub(super) tid: u32,
    pub(super) gen: u64,
}

#[inline]
pub(super) fn heap_less(a: &HeapEntry, b: &HeapEntry) -> bool {
    match a.time.total_cmp(&b.time) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => (a.tid, a.gen) < (b.tid, b.gen),
    }
}

// ---------------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------------

/// Which execution engine [`Simulator::run`] (and the batched runners)
/// dispatch to. The trajectory is bit-identical either way — the choice
/// only affects speed — which the differential suites prove on every CI
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The incremental interpreter (`Engine` / `BatchEngine`): walks the
    /// compiled net's CSR tables per event, matching on distribution kind
    /// and memory policy as it goes.
    Interp,
    /// The lowered engine: executes a flat per-net micro-op program with
    /// monomorphized samplers and a feature-specialized hot loop (see
    /// [`super::lower`]). The default.
    Lowered,
}

impl EngineKind {
    /// Resolve the process-wide default: the `REPRO_ENGINE` environment
    /// variable (`interp` | `lowered`) if set, else [`EngineKind::Lowered`].
    pub fn from_env() -> Self {
        match std::env::var("REPRO_ENGINE").as_deref() {
            Ok("interp") => EngineKind::Interp,
            _ => EngineKind::Lowered,
        }
    }
}

/// A configured, reusable simulator for one net.
///
/// Static structure (flattened enabling conditions, compiled guard
/// programs, dense firing plans, per-transition timing scalars and re-check
/// lists) is built once here; immutable afterwards. [`Simulator::run`]
/// takes `&self`, so independent replications can run concurrently on
/// multiple threads.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    pub(super) net: &'a Net,
    pub(super) cfg: SimConfig,
    pub(super) rewards: Vec<RewardSpec>,
    /// Compiled predicate programs, parallel to `rewards` (None for
    /// non-predicate rewards).
    pub(super) pred_progs: Vec<Option<CompiledExpr>>,
    /// `firing_hooks[t]` = indices of counter rewards watching transition
    /// `t`; built here so runs share it instead of rebuilding per seed.
    pub(super) firing_hooks: Vec<Vec<u32>>,
    pub(super) compiled: CompiledSim,
    pub(super) engine: EngineKind,
    /// Lazily-built lowered program (net × rewards × config), shared by
    /// every run and every batch lane. Invalidated when a reward is added.
    pub(super) lowered: std::sync::OnceLock<super::lower::LoweredNet>,
    /// Debug builds shadow the first lowered run per simulator with the
    /// interpreter and assert identical output (cheap, once-per-net oracle
    /// on top of the differential suites).
    #[allow(dead_code)]
    pub(super) shadow_once: std::sync::OnceLock<()>,
}

impl<'a> Simulator<'a> {
    /// Create a simulator for `net` with the given configuration.
    pub fn new(net: &'a Net, cfg: SimConfig) -> Self {
        let firing_hooks = vec![Vec::new(); net.num_transitions()];
        Simulator {
            net,
            cfg,
            rewards: Vec::new(),
            pred_progs: Vec::new(),
            firing_hooks,
            compiled: CompiledSim::build(net),
            engine: EngineKind::from_env(),
            lowered: std::sync::OnceLock::new(),
            shadow_once: std::sync::OnceLock::new(),
        }
    }

    /// Select the execution engine for subsequent runs (builder style).
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// The engine [`Simulator::run`] currently dispatches to.
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// The lowered program for this simulator, building it on first use.
    pub(super) fn lowered_net(&self) -> &super::lower::LoweredNet {
        self.lowered
            .get_or_init(|| super::lower::LoweredNet::build(self))
    }

    /// Whether the lowered program runs the dense loop variant: every
    /// transition fires by count moves and every enabling condition is a
    /// count threshold, with no generic colored firing, filtered-condition
    /// scan or guard program left (the lowering pass's module docs say
    /// which colored places and guards qualify). A property of the net,
    /// decided once.
    pub fn lowers_dense(&self) -> bool {
        !self.lowered_net().colored
    }

    /// Register a reward measure; the returned id indexes
    /// [`SimOutput::rewards`]. Predicate expressions are compiled to flat
    /// programs here, at setup time.
    pub fn reward(&mut self, spec: RewardSpec) -> Result<RewardId, RewardSpecError> {
        spec.validate(self.net)?;
        let prog = match &spec {
            RewardSpec::Predicate(e) => Some(CompiledExpr::compile(e)),
            _ => None,
        };
        let id = RewardId(self.rewards.len());
        if let RewardSpec::Throughput(t) | RewardSpec::FiringCount(t) = &spec {
            self.firing_hooks[t.index()].push(id.0 as u32);
        }
        self.rewards.push(spec);
        self.pred_progs.push(prog);
        // The lowered program bakes the reward set in; rebuild on next run.
        self.lowered.take();
        Ok(id)
    }

    /// Convenience: time-average token count of a place.
    pub fn reward_place(&mut self, p: PlaceId) -> RewardId {
        self.reward(RewardSpec::PlaceTokens(p))
            .expect("place id from the same net")
    }

    /// Convenience: fraction of time a predicate holds.
    pub fn reward_predicate(&mut self, e: crate::expr::Expr) -> Result<RewardId, RewardSpecError> {
        self.reward(RewardSpec::Predicate(e))
    }

    /// Convenience: firing count of a transition.
    pub fn reward_firings(&mut self, t: TransitionId) -> RewardId {
        self.reward(RewardSpec::FiringCount(t))
            .expect("transition id from the same net")
    }

    /// The net this simulator runs.
    pub fn net(&self) -> &Net {
        self.net
    }

    /// Number of configured rewards.
    pub fn reward_count(&self) -> usize {
        self.rewards.len()
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Execute one independent run with the given seed, on the engine
    /// selected by [`Simulator::with_engine`] (default: lowered).
    pub fn run(&self, seed: u64) -> Result<SimOutput, SimError> {
        let out = match self.engine {
            EngineKind::Interp => self.run_interp(seed),
            EngineKind::Lowered => self.run_lowered(seed),
        };
        // Telemetry only (run counts and event throughput); recording
        // happens after the run and never touches seeding or results.
        if let Ok(o) = &out {
            let events = o.total_firings();
            let tele = sim_runtime::telemetry();
            tele.counter("engine_runs_total").inc();
            tele.counter("engine_events_total").add(events);
            tele.histogram("engine_run_events").record(events);
        }
        out
    }

    /// Execute one run on the **incremental interpreter**, regardless of
    /// the configured engine. Kept as a differential oracle and A/B
    /// baseline; same seed ⇒ bit-identical output to [`Simulator::run`].
    pub fn run_interp(&self, seed: u64) -> Result<SimOutput, SimError> {
        Engine::new(self, seed).run()
    }

    /// Execute one run on the **lowered engine**, regardless of the
    /// configured engine. Same seed ⇒ bit-identical output to
    /// [`Simulator::run_interp`] and [`Simulator::run_reference`].
    pub fn run_lowered(&self, seed: u64) -> Result<SimOutput, SimError> {
        let out = super::lowered::run_single(self, seed);
        #[cfg(debug_assertions)]
        if self.shadow_once.set(()).is_ok() {
            super::lowered::debug_assert_outputs_eq(&out, &self.run_interp(seed));
        }
        out
    }

    /// Execute one run on the **reference engine** — the original
    /// non-incremental core kept as an executable specification (see
    /// [`super::reference`]). Same seed ⇒ bit-identical output to
    /// [`Simulator::run`]; used by differential tests and benchmarks.
    pub fn run_reference(&self, seed: u64) -> Result<SimOutput, SimError> {
        super::reference::ReferenceEngine::new(self.net, &self.cfg, &self.rewards, seed).run()
    }

    /// Execute `seeds.len()` independent replications together on the
    /// **batched engine** (see [`super::batch::BatchSimulator`]): one
    /// structure-of-arrays pass that amortizes the compiled net across the
    /// batch. Each returned entry is bit-identical to `self.run(seed)` for
    /// the seed at the same index.
    pub fn run_batch(&self, seeds: &[u64]) -> Vec<Result<SimOutput, SimError>> {
        super::batch::BatchSimulator::new(self).run(seeds)
    }
}

// ---------------------------------------------------------------------------
// Engine internals
// ---------------------------------------------------------------------------

/// Per-reward accumulator. Counter rewards are bumped through the
/// per-transition `firing_hooks` dispatch index, never by scanning.
#[derive(Debug, Clone)]
pub(super) enum RewardAcc {
    /// Integral of token count over observed time.
    PlaceTokens { place: PlaceId, integral: f64 },
    /// Integral of the indicator over observed time; the program lives in
    /// `Engine::pred_progs`.
    Predicate { prog: usize, integral: f64 },
    /// Post-warmup firing counter, reported as rate.
    Throughput { count: u64 },
    /// Post-warmup firing counter, reported raw.
    FiringCount { count: u64 },
}

pub(super) const NOT_QUEUED: u32 = u32::MAX;

// Per-transition scheduling state byte: lets the post-firing re-check loop
// skip settled transitions on a single byte compare.
/// Transition is enabled (unsatisfied-condition counter is zero).
pub(super) const ST_ENABLED: u8 = 0b001;
/// Transition has a pending event in the heap.
pub(super) const ST_SCHEDULED: u8 = 0b010;
/// Transition has the Resample memory policy (static).
pub(super) const ST_RESAMPLE: u8 = 0b100;

struct Engine<'a> {
    net: &'a Net,
    cfg: &'a SimConfig,
    /// `cfg.max_tokens_per_place` clamped below the u32 count ceiling.
    max_tokens: usize,
    cs: &'a CompiledSim,
    pred_progs: &'a [Option<CompiledExpr>],
    rng: SimRng,
    now: f64,
    marking: Marking,
    heap: Vec<HeapEntry>,
    /// Pending firing time per transition; NaN = unscheduled.
    fire_at: Vec<f64>,
    /// Generation counter per transition; a heap entry is valid iff its gen
    /// matches. u64 like the reference engine's: wrap-around is
    /// unreachable, so a stale entry can never be revived.
    gen: Vec<u64>,
    /// Frozen remaining delay (RaceAge policy only); NaN = none.
    remaining: Vec<f64>,
    /// Packed (enabled, scheduled, resample) bits per transition; the
    /// re-check fast path reads only this.
    sched_state: Vec<u8>,
    /// Current truth of each flattened condition.
    cond_true: Vec<bool>,
    /// Firing epoch at which each condition was last re-evaluated; dedups
    /// conditions (guards especially) watching several touched places.
    cond_epoch: Vec<u64>,
    epoch: u64,
    /// Per-transition count of false conditions; 0 ⇔ enabled.
    unsat: Vec<u32>,
    /// Enabled immediate transitions (unordered; `imm_pos` locates members).
    enabled_imm: Vec<u32>,
    imm_pos: Vec<u32>,
    firing_counts: Vec<u64>,
    accs: Vec<RewardAcc>,
    /// `firing_hooks[t]` = indices of counter accumulators watching `t`
    /// (borrowed from the simulator; identical across runs).
    firing_hooks: &'a [Vec<u32>],
    /// Scratch stack for compiled guard/predicate programs.
    guard_scratch: Vec<i64>,
    /// Scratch: colors consumed by the current firing, grouped by arc.
    consumed: Vec<Color>,
    consumed_offsets: Vec<usize>,
    /// Scratch for immediate conflict resolution.
    candidates: Vec<u32>,
    weights: Vec<f64>,
    trace: TraceBuffer,
    zero_time_firings: u64,
}

impl<'a> Engine<'a> {
    fn new(sim: &'a Simulator<'a>, seed: u64) -> Self {
        let net = sim.net;
        let cs = &sim.compiled;
        let nt = net.num_transitions();
        let accs: Vec<RewardAcc> = sim
            .rewards
            .iter()
            .enumerate()
            .map(|(i, spec)| match spec {
                RewardSpec::PlaceTokens(p) => RewardAcc::PlaceTokens {
                    place: *p,
                    integral: 0.0,
                },
                RewardSpec::Predicate(_) => RewardAcc::Predicate {
                    prog: i,
                    integral: 0.0,
                },
                RewardSpec::Throughput(_) => RewardAcc::Throughput { count: 0 },
                RewardSpec::FiringCount(_) => RewardAcc::FiringCount { count: 0 },
            })
            .collect();
        let pred_stack = sim
            .pred_progs
            .iter()
            .flatten()
            .map(|p| p.stack_needed())
            .max()
            .unwrap_or(0);
        let mut engine = Engine {
            net,
            cfg: &sim.cfg,
            max_tokens: effective_token_limit(&sim.cfg),
            cs,
            pred_progs: &sim.pred_progs,
            rng: SimRng::seed_from_u64(seed),
            now: 0.0,
            marking: net.initial_marking(),
            heap: Vec::with_capacity(nt * 2),
            fire_at: vec![f64::NAN; nt],
            gen: vec![0; nt],
            remaining: vec![f64::NAN; nt],
            sched_state: {
                let mut st = vec![0u8; nt];
                for (ti, h) in cs.hot.iter().enumerate() {
                    if h.kind != TimingKind::Immediate && h.memory == MemoryPolicy::Resample {
                        st[ti] = ST_RESAMPLE;
                    }
                }
                st
            },
            cond_true: vec![false; cs.conds.len()],
            cond_epoch: vec![0; cs.conds.len()],
            epoch: 0,
            unsat: vec![0; nt],
            enabled_imm: Vec::with_capacity(cs.immediates.len()),
            imm_pos: vec![NOT_QUEUED; nt],
            firing_counts: vec![0; nt],
            accs,
            firing_hooks: &sim.firing_hooks,
            guard_scratch: Vec::with_capacity(cs.guard_stack.max(pred_stack)),
            consumed: Vec::with_capacity(8),
            consumed_offsets: Vec::with_capacity(8),
            candidates: Vec::with_capacity(4),
            weights: Vec::with_capacity(4),
            trace: TraceBuffer::new(sim.cfg.trace_capacity),
            zero_time_firings: 0,
        };
        engine.init_conditions();
        engine
    }

    // ---- incremental enabling ----

    /// Evaluate every condition from scratch and build the enabled sets
    /// (start of run only).
    fn init_conditions(&mut self) {
        let cs = self.cs;
        self.unsat.copy_from_slice(&cs.base_unsat);
        for (ci, cond) in cs.conds.iter().enumerate() {
            let t = cs.eval_cond(&self.marking, &mut self.guard_scratch, cond);
            self.cond_true[ci] = t;
            if !t {
                self.unsat[cond.tid as usize] += 1;
            }
        }
        for ti in 0..self.unsat.len() {
            if self.unsat[ti] == 0 {
                self.sched_state[ti] |= ST_ENABLED;
            }
        }
        for &tid in &cs.immediates {
            if self.unsat[tid.index()] == 0 {
                self.imm_insert(tid.0);
            }
        }
    }

    /// Re-evaluate the conditions watching place `p`, flipping enabled bits
    /// where the truth value changed.
    fn refresh_place(&mut self, p: u32) {
        let cs = self.cs;
        for &ci in cs.place_conds.row(p as usize) {
            if self.cond_epoch[ci as usize] == self.epoch {
                continue;
            }
            self.cond_epoch[ci as usize] = self.epoch;
            let cond = &cs.conds[ci as usize];
            let now_true = cs.eval_cond(&self.marking, &mut self.guard_scratch, cond);
            if now_true == self.cond_true[ci as usize] {
                continue;
            }
            self.cond_true[ci as usize] = now_true;
            let ti = cond.tid as usize;
            let is_imm = cs.hot[ti].kind == TimingKind::Immediate;
            if now_true {
                self.unsat[ti] -= 1;
                if self.unsat[ti] == 0 {
                    self.sched_state[ti] |= ST_ENABLED;
                    if is_imm {
                        self.imm_insert(cond.tid);
                    }
                }
            } else {
                if self.unsat[ti] == 0 {
                    self.sched_state[ti] &= !ST_ENABLED;
                    if is_imm {
                        self.imm_remove(cond.tid);
                    }
                }
                self.unsat[ti] += 1;
            }
        }
    }

    #[inline]
    fn imm_insert(&mut self, tid: u32) {
        debug_assert_eq!(self.imm_pos[tid as usize], NOT_QUEUED);
        self.imm_pos[tid as usize] = self.enabled_imm.len() as u32;
        self.enabled_imm.push(tid);
    }

    #[inline]
    fn imm_remove(&mut self, tid: u32) {
        let i = self.imm_pos[tid as usize];
        debug_assert_ne!(i, NOT_QUEUED);
        self.imm_pos[tid as usize] = NOT_QUEUED;
        self.enabled_imm.swap_remove(i as usize);
        if let Some(&moved) = self.enabled_imm.get(i as usize) {
            self.imm_pos[moved as usize] = i;
        }
    }

    /// The retired full-rescan enabling check, kept as the `debug_assert!`
    /// oracle for the incremental counters.
    #[cfg(debug_assertions)]
    fn is_enabled_slow(&self, t: &Transition) -> bool {
        t.inputs
            .iter()
            .all(|a| self.marking.count_matching(a.place, &a.filter) >= a.multiplicity as usize)
            && t.inhibitors
                .iter()
                .all(|a| self.marking.count_matching(a.place, &a.filter) < a.threshold as usize)
            && t.guard.as_ref().is_none_or(|g| g.eval_bool(&self.marking))
    }

    #[cfg(debug_assertions)]
    fn assert_enabled_consistent(&self, tid: TransitionId) {
        let slow = self.is_enabled_slow(self.net.transition(tid));
        debug_assert_eq!(
            self.unsat[tid.index()] == 0,
            slow,
            "incremental enabled bit diverged from rescan for {:?}",
            self.net.transition(tid).name
        );
    }

    #[cfg(not(debug_assertions))]
    #[inline]
    fn assert_enabled_consistent(&self, _tid: TransitionId) {}

    // ---- event heap (lazy invalidation) ----

    #[inline]
    fn heap_push(&mut self, e: HeapEntry) {
        // 4-ary min-heap, hole-based sift-up: half the depth of a binary
        // heap and one element move per level instead of a swap.
        let mut i = self.heap.len();
        self.heap.push(e);
        while i > 0 {
            let parent = (i - 1) / 4;
            if heap_less(&e, &self.heap[parent]) {
                self.heap[i] = self.heap[parent];
                i = parent;
            } else {
                break;
            }
        }
        self.heap[i] = e;
    }

    fn heap_pop(&mut self) -> Option<HeapEntry> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        let n = self.heap.len();
        if n == 0 {
            return Some(top);
        }
        // Sift the displaced last element down from the root (hole method).
        let mut i = 0;
        loop {
            let c0 = 4 * i + 1;
            if c0 >= n {
                break;
            }
            let mut smallest = c0;
            let cend = (c0 + 4).min(n);
            for c in c0 + 1..cend {
                if heap_less(&self.heap[c], &self.heap[smallest]) {
                    smallest = c;
                }
            }
            if heap_less(&self.heap[smallest], &last) {
                self.heap[i] = self.heap[smallest];
                i = smallest;
            } else {
                break;
            }
        }
        self.heap[i] = last;
        Some(top)
    }

    // ---- scheduling ----

    fn schedule(&mut self, tid: usize, at: f64) {
        self.gen[tid] += 1;
        self.fire_at[tid] = at;
        self.sched_state[tid] |= ST_SCHEDULED;
        self.heap_push(HeapEntry {
            time: at,
            tid: tid as u32,
            gen: self.gen[tid],
        });
    }

    /// O(1) cancellation: bump the generation so the heap entry dies stale.
    fn cancel(&mut self, tid: usize) -> f64 {
        debug_assert!(!self.fire_at[tid].is_nan());
        self.gen[tid] += 1;
        self.sched_state[tid] &= !ST_SCHEDULED;
        let at = self.fire_at[tid];
        self.fire_at[tid] = f64::NAN;
        at
    }

    /// Bring one timed transition's schedule in line with its enabling
    /// status.
    fn recheck_timed(&mut self, tid: TransitionId) {
        self.assert_enabled_consistent(tid);
        let ti = tid.index();
        let hot = &self.cs.hot[ti];
        debug_assert!(hot.kind != TimingKind::Immediate);
        let state = self.sched_state[ti];
        let enabled = state & ST_ENABLED != 0;
        let scheduled = state & ST_SCHEDULED != 0;
        debug_assert_eq!(enabled, self.unsat[ti] == 0);
        debug_assert_eq!(scheduled, !self.fire_at[ti].is_nan());
        match (enabled, scheduled) {
            (true, false) => {
                let delay = if hot.memory == MemoryPolicy::RaceAge && !self.remaining[ti].is_nan() {
                    let r = self.remaining[ti];
                    self.remaining[ti] = f64::NAN;
                    r
                } else {
                    hot.sample_delay(&mut self.rng)
                };
                self.schedule(ti, self.now + delay);
            }
            (true, true) => {
                if hot.memory == MemoryPolicy::Resample {
                    self.cancel(ti);
                    let delay = hot.sample_delay(&mut self.rng);
                    self.schedule(ti, self.now + delay);
                }
                // RaceEnable / RaceAge: clock keeps running.
            }
            (false, true) => {
                let fire_at = self.cancel(ti);
                if hot.memory == MemoryPolicy::RaceAge {
                    self.remaining[ti] = (fire_at - self.now).max(0.0);
                }
            }
            (false, false) => {}
        }
    }

    /// Re-schedule every timed transition whose enabling may have changed
    /// after `fired` moved tokens, walking the precompiled list (reference
    /// traversal order — it determines which transition consumes which RNG
    /// draw).
    fn update_schedules_after(&mut self, fired: TransitionId) {
        // Copy the `&CompiledSim` out of `self` so iterating its rows does
        // not conflict with the `&mut self` calls below (zero-cost: the
        // reference is Copy and outlives the engine's own borrow).
        let cs = self.cs;
        for &tid in cs.recheck_timed.row(fired.index()) {
            // Settled states need no action: enabled-and-scheduled without
            // Resample, or disabled-and-unscheduled. One byte decides.
            let s = self.sched_state[tid as usize];
            if s == ST_ENABLED | ST_SCHEDULED || s & (ST_ENABLED | ST_SCHEDULED) == 0 {
                self.assert_enabled_consistent(TransitionId(tid));
                continue;
            }
            self.recheck_timed(TransitionId(tid));
        }
    }

    // ---- firing ----

    fn fire(&mut self, tid: TransitionId) -> Result<(), SimError> {
        let ti = tid.index();
        // Copy the `&CompiledSim` out of `self` (see update_schedules_after).
        let cs = self.cs;
        if let Some(plan) = &cs.plans[ti] {
            // Dense path: pure count-vector arithmetic.
            let (i0, i1) = plan.ins;
            let (o0, o1) = plan.outs;
            for &(p, m) in &cs.plan_dat[i0 as usize..i1 as usize] {
                self.marking.sub_plain(p, m);
            }
            for &(p, m) in &cs.plan_dat[o0 as usize..o1 as usize] {
                let c = self.marking.add_plain(p, m);
                if c as usize > self.max_tokens {
                    return Err(SimError::TokenOverflow {
                        place: p as usize,
                        time: self.now,
                        limit: self.cfg.max_tokens_per_place,
                    });
                }
            }
        } else {
            let net = self.net;
            let t: &Transition = &net.transitions()[ti];
            self.consumed.clear();
            self.consumed_offsets.clear();
            for arc in &t.inputs {
                self.consumed_offsets.push(self.consumed.len());
                for _ in 0..arc.multiplicity {
                    let c = self
                        .marking
                        .withdraw(arc.place, &arc.filter)
                        .expect("transition fired while not enabled");
                    self.consumed.push(c);
                }
            }
            for arc in &t.outputs {
                for _ in 0..arc.multiplicity {
                    let c = arc
                        .color
                        .eval(&self.consumed, &self.consumed_offsets, &mut self.rng);
                    self.marking.deposit(arc.place, c);
                }
                if self.marking.count(arc.place) > self.max_tokens {
                    return Err(SimError::TokenOverflow {
                        place: arc.place.index(),
                        time: self.now,
                        limit: self.cfg.max_tokens_per_place,
                    });
                }
            }
        }
        // Incremental enabling maintenance: only conditions watching the
        // places this transition touches are re-evaluated (each at most
        // once, via the epoch stamp).
        self.epoch += 1;
        for &p in cs.touched.row(ti) {
            self.refresh_place(p);
        }
        self.firing_counts[ti] += 1;
        if self.cfg.trace_capacity > 0 {
            self.trace.record(self.now, tid);
        }
        if self.now >= self.cfg.warmup && !self.firing_hooks[ti].is_empty() {
            // Dispatch index: no scan over unrelated accumulators.
            for hi in 0..self.firing_hooks[ti].len() {
                let ai = self.firing_hooks[ti][hi] as usize;
                match &mut self.accs[ai] {
                    RewardAcc::Throughput { count } | RewardAcc::FiringCount { count } => {
                        *count += 1
                    }
                    _ => unreachable!("firing hook points at a counter reward"),
                }
            }
        }
        Ok(())
    }

    /// Fire enabled immediates (highest priority first, weighted conflicts)
    /// until none remain enabled — reading the incrementally maintained
    /// enabled-immediates index, not rescanning every immediate.
    fn fire_immediates(&mut self) -> Result<(), SimError> {
        loop {
            #[cfg(debug_assertions)]
            self.assert_imm_index_consistent();
            if self.enabled_imm.is_empty() {
                break;
            }
            // Highest priority wins; collect the tied set.
            self.candidates.clear();
            let mut best_pri = 0u8;
            for i in 0..self.enabled_imm.len() {
                let tid = self.enabled_imm[i];
                let pri = self.cs.hot[tid as usize].priority;
                if self.candidates.is_empty() || pri > best_pri {
                    best_pri = pri;
                    self.candidates.clear();
                    self.candidates.push(tid);
                } else if pri == best_pri {
                    self.candidates.push(tid);
                }
            }
            // The index is unordered; conflict resolution must see the
            // candidates in definition order (reference semantics).
            self.candidates.sort_unstable();
            let chosen = if self.candidates.len() == 1 {
                self.candidates[0]
            } else {
                self.weights.clear();
                for i in 0..self.candidates.len() {
                    self.weights
                        .push(self.cs.hot[self.candidates[i] as usize].weight);
                }
                self.candidates[self.rng.weighted_choice(&self.weights)]
            };
            let chosen = TransitionId(chosen);
            self.fire(chosen)?;
            self.update_schedules_after(chosen);
            self.bump_zero_time_counter()?;
        }
        Ok(())
    }

    /// Cross-check the enabled-immediates index against full rescans.
    #[cfg(debug_assertions)]
    fn assert_imm_index_consistent(&self) {
        for &tid in &self.cs.immediates {
            let in_index = self.imm_pos[tid.index()] != NOT_QUEUED;
            let enabled = self.is_enabled_slow(self.net.transition(tid));
            debug_assert_eq!(
                in_index,
                enabled,
                "enabled-immediates index diverged for {:?}",
                self.net.transition(tid).name
            );
        }
    }

    #[inline]
    fn bump_zero_time_counter(&mut self) -> Result<(), SimError> {
        self.zero_time_firings += 1;
        if self.zero_time_firings > self.cfg.max_zero_time_firings {
            return Err(SimError::ImmediateLivelock {
                time: self.now,
                limit: self.cfg.max_zero_time_firings,
            });
        }
        Ok(())
    }

    // ---- reward integration ----

    /// Integrate time-based rewards over `[self.now, until)`, clipping to
    /// the warm-up boundary.
    fn integrate_rewards(&mut self, until: f64) {
        if self.accs.is_empty() {
            return;
        }
        let from = self.now.max(self.cfg.warmup);
        let dt = until - from;
        if dt <= 0.0 {
            return;
        }
        for acc in &mut self.accs {
            match acc {
                RewardAcc::PlaceTokens { place, integral } => {
                    *integral += self.marking.count(*place) as f64 * dt;
                }
                RewardAcc::Predicate { prog, integral } => {
                    let prog = self.pred_progs[*prog]
                        .as_ref()
                        .expect("predicate reward has a compiled program");
                    if prog.eval_bool(&self.marking, &mut self.guard_scratch) {
                        *integral += dt;
                    }
                }
                RewardAcc::Throughput { .. } | RewardAcc::FiringCount { .. } => {}
            }
        }
    }

    // ---- main loop ----

    fn run(mut self) -> Result<SimOutput, SimError> {
        // Initial scheduling pass over all transitions.
        for tid in self.net.transition_ids() {
            if self.cs.hot[tid.index()].kind != TimingKind::Immediate {
                self.recheck_timed(tid);
            }
        }
        self.fire_immediates()?;

        loop {
            // Surface the next *valid* entry (stale ones die here).
            let next = loop {
                match self.heap.first() {
                    None => break None,
                    Some(e) => {
                        if e.gen == self.gen[e.tid as usize] {
                            break Some(*e);
                        }
                        self.heap_pop();
                    }
                }
            };

            match next {
                Some(e) if e.time < self.cfg.end_time => {
                    self.heap_pop();
                    let tid = TransitionId(e.tid);
                    self.integrate_rewards(e.time);
                    if e.time > self.now {
                        self.zero_time_firings = 0;
                    }
                    self.now = e.time;
                    // Consume the schedule entry.
                    self.fire_at[e.tid as usize] = f64::NAN;
                    self.sched_state[e.tid as usize] &= !ST_SCHEDULED;
                    self.gen[e.tid as usize] += 1;
                    self.fire(tid)?;
                    self.bump_zero_time_counter()?;
                    self.update_schedules_after(tid);
                    self.fire_immediates()?;
                }
                _ => {
                    // No more events before the horizon: integrate the tail
                    // and stop.
                    self.integrate_rewards(self.cfg.end_time);
                    self.now = self.cfg.end_time;
                    break;
                }
            }
        }

        let observed = (self.cfg.end_time - self.cfg.warmup).max(0.0);
        let rewards = self
            .accs
            .iter()
            .map(|acc| match acc {
                RewardAcc::PlaceTokens { integral, .. } | RewardAcc::Predicate { integral, .. } => {
                    if observed > 0.0 {
                        integral / observed
                    } else {
                        0.0
                    }
                }
                RewardAcc::Throughput { count } => {
                    if observed > 0.0 {
                        *count as f64 / observed
                    } else {
                        0.0
                    }
                }
                RewardAcc::FiringCount { count } => *count as f64,
            })
            .collect();

        Ok(SimOutput {
            end_time: self.cfg.end_time,
            observed_time: observed,
            rewards,
            firing_counts: self.firing_counts,
            final_marking: self.marking,
            trace_dropped: self.trace.dropped,
            trace: self.trace.into_events(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetBuilder;
    use crate::expr::Expr;
    use crate::timing::Timing;

    /// Single deterministic transition cycling one token: P -> T(1s) -> P.
    #[test]
    fn deterministic_clock_fires_once_per_second() {
        let mut b = NetBuilder::new("clock");
        let p = b.place("p").tokens(1).build();
        let t = b
            .transition("tick", Timing::deterministic(1.0))
            .input(p, 1)
            .output(p, 1)
            .build();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(10.5));
        let firings = sim.reward_firings(t);
        let out = sim.run(1).unwrap();
        // Fires at t = 1, 2, ..., 10.
        assert_eq!(out.reward(firings), 10.0);
    }

    /// Immediate transitions fire before any time passes.
    #[test]
    fn immediates_fire_at_time_zero() {
        let mut b = NetBuilder::new("imm");
        let a = b.place("a").tokens(3).build();
        let z = b.place("z").build();
        b.transition("move", Timing::immediate())
            .input(a, 1)
            .output(z, 1)
            .build();
        let net = b.build().unwrap();
        let sim = Simulator::new(&net, SimConfig::for_horizon(1.0));
        let out = sim.run(1).unwrap();
        assert_eq!(out.final_marking.count(z), 3);
        assert_eq!(out.final_marking.count(a), 0);
    }

    /// Higher-priority immediates win conflicts outright.
    #[test]
    fn immediate_priority_wins() {
        let mut b = NetBuilder::new("pri");
        let a = b.place("a").tokens(1).build();
        let hi = b.place("hi").build();
        let lo = b.place("lo").build();
        b.transition("to_lo", Timing::immediate_pri(1))
            .input(a, 1)
            .output(lo, 1)
            .build();
        b.transition("to_hi", Timing::immediate_pri(2))
            .input(a, 1)
            .output(hi, 1)
            .build();
        let net = b.build().unwrap();
        let sim = Simulator::new(&net, SimConfig::for_horizon(1.0));
        for seed in 0..20 {
            let out = sim.run(seed).unwrap();
            assert_eq!(out.final_marking.count(hi), 1, "seed {seed}");
            assert_eq!(out.final_marking.count(lo), 0, "seed {seed}");
        }
    }

    /// Equal-priority immediates split according to weight.
    #[test]
    fn immediate_weights_split_conflicts() {
        let mut b = NetBuilder::new("weights");
        let src = b.place("src").build();
        let left = b.place("left").build();
        let right = b.place("right").build();
        // Token generator: one token per second.
        b.transition("gen", Timing::deterministic(1.0))
            .output(src, 1)
            .build();
        b.transition(
            "to_left",
            Timing::Immediate {
                priority: 1,
                weight: 1.0,
            },
        )
        .input(src, 1)
        .output(left, 1)
        .build();
        b.transition(
            "to_right",
            Timing::Immediate {
                priority: 1,
                weight: 3.0,
            },
        )
        .input(src, 1)
        .output(right, 1)
        .build();
        let net = b.build().unwrap();
        let sim = Simulator::new(&net, SimConfig::for_horizon(4000.0));
        let out = sim.run(99).unwrap();
        let l = out.final_marking.count(left) as f64;
        let r = out.final_marking.count(right) as f64;
        let frac = r / (l + r);
        assert!((frac - 0.75).abs() < 0.03, "frac={frac}");
    }

    /// Time-average token count of a place fed at rate 1 and drained at
    /// rate 2 matches M/M/1 with rho = 0.5: E[N] = rho/(1-rho) = 1.
    #[test]
    fn mm1_queue_length() {
        let mut b = NetBuilder::new("mm1");
        let q = b.place("q").build();
        b.transition("arrive", Timing::exponential(1.0))
            .output(q, 1)
            .build();
        b.transition("serve", Timing::exponential(2.0))
            .input(q, 1)
            .build();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(60_000.0).with_warmup(1000.0));
        let n = sim.reward_place(q);
        let out = sim.run(7).unwrap();
        let avg = out.reward(n);
        assert!((avg - 1.0).abs() < 0.08, "E[N]={avg}");
    }

    /// Guards gate enabling: a transition whose guard is false never fires.
    #[test]
    fn guard_blocks_firing() {
        let mut b = NetBuilder::new("guard");
        let p = b.place("p").tokens(1).build();
        let gate = b.place("gate").build(); // stays empty
        let out_p = b.place("out").build();
        let t = b
            .transition("t", Timing::deterministic(0.1))
            .input(p, 1)
            .output(out_p, 1)
            .guard(Expr::count(gate).gt_c(0))
            .build();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(10.0));
        let f = sim.reward_firings(t);
        let out = sim.run(1).unwrap();
        assert_eq!(out.reward(f), 0.0);
        assert_eq!(out.final_marking.count(p), 1);
    }

    /// Inhibitor arcs disable while tokens are present.
    #[test]
    fn inhibitor_blocks_firing() {
        let mut b = NetBuilder::new("inh");
        let p = b.place("p").tokens(1).build();
        let blocker = b.place("blocker").tokens(1).build();
        let out_p = b.place("out").build();
        b.transition("t", Timing::deterministic(0.1))
            .input(p, 1)
            .output(out_p, 1)
            .inhibitor(blocker, 1)
            .build();
        // Drain the blocker at t = 5.
        b.transition("unblock", Timing::deterministic(5.0))
            .input(blocker, 1)
            .build();
        let net = b.build().unwrap();
        let sim = Simulator::new(&net, SimConfig::for_horizon(10.0));
        let out = sim.run(1).unwrap();
        assert_eq!(out.final_marking.count(out_p), 1);
        // Fired only after the blocker drained (t = 5.1), not at 0.1.
    }

    /// RaceEnable: disabling a deterministic transition discards its clock.
    /// A PDT-style timer that keeps getting interrupted never fires.
    #[test]
    fn race_enable_restarts_clock() {
        let mut b = NetBuilder::new("race");
        let idle = b.place("idle").tokens(1).build();
        let buf = b.place("buf").build();
        let slept = b.place("slept").build();
        // Job arrives every 0.5 s and is served instantly.
        b.transition("arrive", Timing::deterministic(0.5))
            .output(buf, 1)
            .build();
        b.transition("serve", Timing::immediate())
            .input(buf, 1)
            .build();
        // Sleep timer: 0.8 s of continuous idleness required; the guard
        // breaks every 0.5 s when a job lands.
        b.transition("sleep", Timing::deterministic(0.8))
            .input(idle, 1)
            .output(slept, 1)
            .guard(Expr::count(buf).eq_c(0))
            .build();
        let net = b.build().unwrap();
        let sim = Simulator::new(&net, SimConfig::for_horizon(100.0));
        let out = sim.run(1).unwrap();
        assert_eq!(
            out.final_marking.count(slept),
            0,
            "timer must restart on every interruption"
        );
    }

    /// RaceAge: the same interrupted timer accumulates age and eventually
    /// fires.
    #[test]
    fn race_age_accumulates() {
        let mut b = NetBuilder::new("age");
        let idle = b.place("idle").tokens(1).build();
        let buf = b.place("buf").build();
        let slept = b.place("slept").build();
        b.transition("arrive", Timing::deterministic(0.5))
            .output(buf, 1)
            .build();
        b.transition("serve", Timing::deterministic(0.1))
            .input(buf, 1)
            .build();
        b.transition("sleep", Timing::deterministic(0.8))
            .input(idle, 1)
            .output(slept, 1)
            .guard(Expr::count(buf).eq_c(0))
            .memory(MemoryPolicy::RaceAge)
            .build();
        let net = b.build().unwrap();
        let sim = Simulator::new(&net, SimConfig::for_horizon(100.0));
        let out = sim.run(1).unwrap();
        assert_eq!(
            out.final_marking.count(slept),
            1,
            "aged timer must eventually fire"
        );
    }

    /// Immediate livelock is detected, not spun on.
    #[test]
    fn immediate_livelock_detected() {
        let mut b = NetBuilder::new("livelock");
        let a = b.place("a").tokens(1).build();
        let z = b.place("z").build();
        b.transition("ab", Timing::immediate())
            .input(a, 1)
            .output(z, 1)
            .build();
        b.transition("ba", Timing::immediate())
            .input(z, 1)
            .output(a, 1)
            .build();
        let net = b.build().unwrap();
        let mut cfg = SimConfig::for_horizon(1.0);
        cfg.max_zero_time_firings = 1000;
        let sim = Simulator::new(&net, cfg);
        assert!(matches!(
            sim.run(1),
            Err(SimError::ImmediateLivelock { .. })
        ));
    }

    /// Unbounded generators trip the token-overflow guard instead of eating
    /// all memory.
    #[test]
    fn token_overflow_detected() {
        let mut b = NetBuilder::new("overflow");
        let q = b.place("q").build();
        b.transition("gen", Timing::deterministic(0.001))
            .output(q, 1)
            .build();
        let net = b.build().unwrap();
        let mut cfg = SimConfig::for_horizon(1e9);
        cfg.max_tokens_per_place = 500;
        let sim = Simulator::new(&net, cfg);
        assert!(matches!(sim.run(1), Err(SimError::TokenOverflow { .. })));
    }

    /// Same seed, same trajectory; different seed, different trajectory.
    #[test]
    fn reproducibility() {
        let mut b = NetBuilder::new("repro");
        let q = b.place("q").build();
        b.transition("arrive", Timing::exponential(1.0))
            .output(q, 1)
            .build();
        b.transition("serve", Timing::exponential(1.5))
            .input(q, 1)
            .build();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(500.0));
        let n = sim.reward_place(q);
        let a = sim.run(42).unwrap();
        let b2 = sim.run(42).unwrap();
        let c = sim.run(43).unwrap();
        assert_eq!(a.reward(n), b2.reward(n));
        assert_eq!(a.firing_counts, b2.firing_counts);
        assert_ne!(a.reward(n), c.reward(n));
    }

    /// Predicate rewards measure conjunction states.
    #[test]
    fn predicate_reward_measures_fraction() {
        let mut b = NetBuilder::new("pred");
        let p = b.place("p").tokens(1).build();
        let q = b.place("q").build();
        // Token oscillates: 1 s in p, 1 s in q.
        b.transition("pq", Timing::deterministic(1.0))
            .input(p, 1)
            .output(q, 1)
            .build();
        b.transition("qp", Timing::deterministic(1.0))
            .input(q, 1)
            .output(p, 1)
            .build();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(1000.0));
        let in_p = sim.reward_predicate(Expr::count(p).gt_c(0)).unwrap();
        let out = sim.run(1).unwrap();
        assert!((out.reward(in_p) - 0.5).abs() < 1e-9);
    }

    /// Warm-up deletion removes the initial transient from rewards.
    #[test]
    fn warmup_excluded_from_rewards() {
        let mut b = NetBuilder::new("warm");
        let p = b.place("p").tokens(1).build();
        let q = b.place("q").build();
        // One-shot move at t = 1: p empty afterwards.
        b.transition("move", Timing::deterministic(1.0))
            .input(p, 1)
            .output(q, 1)
            .build();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(11.0).with_warmup(1.0));
        let avg_p = sim.reward_place(p);
        let out = sim.run(1).unwrap();
        // After warm-up the token is always in q.
        assert_eq!(out.reward(avg_p), 0.0);
        assert_eq!(out.observed_time, 10.0);
    }

    /// Trace recording captures firings in time order.
    #[test]
    fn trace_records_firings() {
        let mut b = NetBuilder::new("trace");
        let p = b.place("p").tokens(1).build();
        let t = b
            .transition("tick", Timing::deterministic(2.0))
            .input(p, 1)
            .output(p, 1)
            .build();
        let net = b.build().unwrap();
        let sim = Simulator::new(&net, SimConfig::for_horizon(7.0).with_trace(10));
        let out = sim.run(1).unwrap();
        let times: Vec<f64> = out.trace.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![2.0, 4.0, 6.0]);
        assert!(out.trace.iter().all(|e| e.transition == t));
    }

    /// Simultaneous deterministic firings resolve in definition order.
    #[test]
    fn simultaneous_firings_use_definition_order() {
        let mut b = NetBuilder::new("tie");
        let a = b.place("a").tokens(1).build();
        let winner = b.place("winner").build();
        let loser = b.place("loser").build();
        // Both want the single token at exactly t = 1.0.
        b.transition("first", Timing::deterministic(1.0))
            .input(a, 1)
            .output(winner, 1)
            .build();
        b.transition("second", Timing::deterministic(1.0))
            .input(a, 1)
            .output(loser, 1)
            .build();
        let net = b.build().unwrap();
        let sim = Simulator::new(&net, SimConfig::for_horizon(2.0));
        for seed in 0..10 {
            let out = sim.run(seed).unwrap();
            assert_eq!(out.final_marking.count(winner), 1, "seed {seed}");
            assert_eq!(out.final_marking.count(loser), 0, "seed {seed}");
        }
    }

    /// Colored tokens flow through Transfer output arcs unchanged.
    #[test]
    fn color_transfer_pipeline() {
        use crate::arc::ColorExpr;
        use crate::token::{Color, ColorFilter};
        let mut b = NetBuilder::new("colors");
        let src = b
            .place("src")
            .token_colored(Color(1))
            .token_colored(Color(2))
            .build();
        let fast = b.place("fast").build();
        let slow = b.place("slow").build();
        let mid = b.place("mid").build();
        // Move everything to mid, preserving colors.
        b.transition("stage", Timing::immediate())
            .input(src, 1)
            .output_colored(mid, 1, ColorExpr::Transfer { arc_index: 0 })
            .build();
        // Color-filtered consumers.
        b.transition("take1", Timing::immediate())
            .input_filtered(mid, 1, ColorFilter::Eq(Color(1)))
            .output(fast, 1)
            .build();
        b.transition("take2", Timing::immediate())
            .input_filtered(mid, 1, ColorFilter::Eq(Color(2)))
            .output(slow, 1)
            .build();
        let net = b.build().unwrap();
        let sim = Simulator::new(&net, SimConfig::for_horizon(1.0));
        let out = sim.run(5).unwrap();
        assert_eq!(out.final_marking.count(fast), 1);
        assert_eq!(out.final_marking.count(slow), 1);
    }

    /// Throughput reward equals firings / observed time.
    #[test]
    fn throughput_reward() {
        let mut b = NetBuilder::new("thru");
        let p = b.place("p").tokens(1).build();
        let t = b
            .transition("tick", Timing::deterministic(0.25))
            .input(p, 1)
            .output(p, 1)
            .build();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(100.0));
        let thru = sim.reward(RewardSpec::Throughput(t)).unwrap();
        let out = sim.run(1).unwrap();
        assert!((out.reward(thru) - 4.0).abs() < 0.05);
    }

    /// Deterministic(0) transitions advance state without advancing time and
    /// do not livelock when they terminate.
    #[test]
    fn zero_delay_deterministic_ok() {
        let mut b = NetBuilder::new("zerodelay");
        let a = b.place("a").tokens(5).build();
        let z = b.place("z").build();
        b.transition("move", Timing::deterministic(0.0))
            .input(a, 1)
            .output(z, 1)
            .build();
        let net = b.build().unwrap();
        let sim = Simulator::new(&net, SimConfig::for_horizon(1.0));
        let out = sim.run(1).unwrap();
        assert_eq!(out.final_marking.count(z), 5);
    }

    /// A filtered input arc on a provably-uncolored place folds to
    /// constant-false: the transition is structurally dead, never fires,
    /// and never panics.
    #[test]
    fn impossible_filter_on_uncolored_place_is_dead() {
        use crate::token::{Color, ColorFilter};
        let mut b = NetBuilder::new("deadfilter");
        let p = b.place("p").tokens(2).build();
        let q = b.place("q").build();
        let t = b
            .transition("never", Timing::immediate())
            .input_filtered(p, 1, ColorFilter::Eq(Color(5)))
            .output(q, 1)
            .build();
        b.transition("drain", Timing::deterministic(1.0))
            .input(p, 1)
            .build();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(10.0));
        let f = sim.reward_firings(t);
        let out = sim.run(3).unwrap();
        assert_eq!(out.reward(f), 0.0);
        assert_eq!(out.final_marking.count(q), 0);
    }

    /// Token limits at or above the u32 count ceiling are clamped so the
    /// overflow guard stays effective (counts saturate, never wrap).
    #[test]
    fn token_limit_clamped_below_u32_ceiling() {
        let mut cfg = SimConfig::for_horizon(1.0);
        cfg.max_tokens_per_place = usize::MAX;
        assert_eq!(effective_token_limit(&cfg), u32::MAX as usize - 1);
        cfg.max_tokens_per_place = 500;
        assert_eq!(effective_token_limit(&cfg), 500);
    }

    /// Lazy heap invalidation: cancelled and rescheduled transitions
    /// never fire at their stale times, and ties at one instant resolve in
    /// definition order.
    #[test]
    fn stale_schedule_entries_are_ignored() {
        let mut b = NetBuilder::new("stale");
        let p = b.place("p").tokens(1).build();
        let gate = b.place("gate").tokens(1).build();
        let out = b.place("out").build();
        // `slow` keeps getting cancelled: `flap` empties the gate every
        // 0.3 s (disabling `slow` via its guard) and refills it instantly.
        b.transition("slow", Timing::deterministic(1.0))
            .input(p, 1)
            .output(out, 1)
            .guard(Expr::count(gate).gt_c(0))
            .build();
        let refill = b.place("refill").build();
        b.transition("flap", Timing::deterministic(0.3))
            .input(gate, 1)
            .output(refill, 1)
            .build();
        b.transition("restore", Timing::immediate())
            .input(refill, 1)
            .output(gate, 1)
            .build();
        let net = b.build().unwrap();
        let sim = Simulator::new(&net, SimConfig::for_horizon(10.0));
        let out_m = sim.run(3).unwrap();
        // RaceEnable: the 1.0 s timer restarts on every 0.3 s interruption
        // and can never elapse.
        assert_eq!(out_m.final_marking.count(out), 0);
        assert_eq!(out_m.final_marking.count(p), 1);
    }
}
