//! The lowering pass: compile one (net × rewards) into a flat micro-op
//! program that the lowered engine ([`super::lowered`]) executes directly.
//!
//! Walking the compiled net (`CompiledSim`) per event would mean matching
//! on the distribution kind and memory policy of every re-scheduled
//! transition, chasing CSR indirections, and re-dispatching on condition
//! kinds that are invariant for a given net. This module runs all of those
//! decisions **once per simulator** and serializes the result into one
//! contiguous `u32` arena:
//!
//! * Each transition gets a **fire section** — SUB/ADD count ops (or one
//!   generic-fire op for transitions that stay colored, see below)
//!   followed by inline condition re-evaluation ops and counter-reward
//!   hook ops. A count condition's op carries its count index, threshold,
//!   truth slot and watcher (the one watcher, or a mark sending the flip
//!   through the slot's watcher list); there is one per truth slot on
//!   each count the firing moves. Compiled conditions come from a
//!   precomputed first-touch row over the touched places, which replaces
//!   the reference engine's `cond_epoch` dedup.
//! * **Shared truth slots.** Every distinct count condition `(count index,
//!   inverted, threshold)` gets one truth slot, however many transitions
//!   test it (the node SCPN's `#Buffer == 0` is read by four guards), and
//!   a watcher list of the transitions whose unsatisfied-condition counter
//!   it feeds. A fire section re-evaluates each slot it can change once and
//!   fans a flip out to every watcher. A transition that tests the same
//!   term twice (an input arc and a guard term, say) is listed twice, so
//!   its counter still counts two false conditions. Compiled conditions
//!   (filters and guard programs on the colored path) keep one slot each.
//! * Each transition gets a **recheck section** — one op per timed
//!   transition whose clock may need attention after the firing, with the
//!   *(memory policy × distribution kind)* pair monomorphized into the
//!   opcode itself and the distribution parameters inlined as immediate
//!   words. The per-event `match` on `TimingKind`/`MemoryPolicy`
//!   disappears; an exponential RaceEnable re-check is a single opcode.
//! * A **startup program** replays the reference engine's initial scheduling
//!   pass (every timed transition re-checked in definition order).
//! * Time-based rewards become an integration program over dense
//!   accumulator stripes, one array per reward kind (place count,
//!   single-count threshold, sum-of-counts threshold, postfix predicate) so
//!   each kind integrates in a tight loop; counter rewards become hook ops.
//!
//! # Colored places, guards and predicates
//!
//! Colors are lowered away wherever the net allows, so that colored nets
//! such as the paper's node SCPN run the dense loop too:
//!
//! * **Split colored places.** A colored place whose deposits are all
//!   [`ColorExpr::Const`] has a finite color domain (those constants plus
//!   its initial colors). If every input arc withdraws one statically
//!   known color (`Eq`, or any filter once the domain has one color), every
//!   inhibitor reads one color or the total, and every transition moving
//!   its tokens is itself lowered, the place gets one hidden count slot
//!   per color, appended to the marking past the last place. `Const`
//!   deposits and `Eq` withdrawals become plain moves on the total plus
//!   the color's slot; `Eq`-filtered conditions become count records on
//!   the slot. The place's FIFO bag stays as its order record, kept in
//!   step by one tail op per move, so final markings keep the reference
//!   engine's token order. Places fed by `Transfer`/`Choice`, or withdrawn
//!   with `Any` while they hold several colors, keep the generic path, and
//!   so does every place a generic transition touches.
//! * **Conjunctive guards.** A guard that is an `and` of `count cmp const`
//!   terms (a count being a place total or a split place's color slot)
//!   becomes one count record per term, each with its own condition slot.
//! * **Sum predicates.** A predicate reward that is `sum of counts cmp
//!   const`, or an `or` of "count is positive" terms, becomes one
//!   sum-of-counts threshold instead of a postfix program.
//!
//! None of this rewrites the [`Net`]: transition ids, touched-place rows,
//! recheck order (hence RNG draw order) and public place indices are
//! unchanged. What stays colored — generic firing, a filtered condition
//! on an unsplit place, a guard program — selects the slow-path loop
//! variant; [`Simulator::lowers_dense`] reports which one a net gets.
//!
//! The program encodes *what the reference engine would do*, in the exact
//! same order, drawing from the RNG at the exact same points — the lowered
//! engine's outputs are bit-identical to the reference engine's, which
//! `tests/lowered_differential.rs` proves on every variant. Feature
//! specialization (scan-vs-heap scheduling, colored-vs-count-only firing)
//! is selected once per net and baked into const-generic instantiations of
//! the hot loop, so the per-event path has no dynamic dispatch left.

use super::engine::{
    CompiledSim, Simulator, TimingKind, COND_GUARD, COND_INHIB_ANY, COND_INHIB_FILTERED,
    COND_INPUT_ANY, COND_INPUT_FILTERED,
};
use super::rewards::RewardSpec;
use crate::arc::ColorExpr;
use crate::expr::{CmpOp, Expr};
use crate::ids::PlaceId;
use crate::marking::Marking;
use crate::net::Net;
use crate::timing::MemoryPolicy;
use crate::token::{Color, ColorFilter};

/// Reduce `x cmp v` over an integer `x` known to lie in `0..=max` to an
/// equivalent threshold: the boolean is `(x >= need) ^ lt` — i.e. `x >=
/// need` when `lt` is false, `x < need` when true. Every comparison
/// against a constant has such a form (including the always-true /
/// always-false degenerate ends, which come out as `need == 0`); only `==`
/// / `!=` against a constant strictly inside `1..=max` does not.
fn cmp_threshold(op: CmpOp, v: i64, max: i64) -> Option<(bool, i64)> {
    Some(match op {
        // `x >= v` / `x > v`: v at or below zero is always true (GE with
        // need 0), past the ceiling never true (LT 0).
        CmpOp::Ge if v <= 0 => (false, 0),
        CmpOp::Ge if v > max => (true, 0),
        CmpOp::Ge => (false, v),
        CmpOp::Gt if v < 0 => (false, 0),
        CmpOp::Gt if v >= max => (true, 0),
        CmpOp::Gt => (false, v + 1),
        // `x < v` / `x <= v`: mirrored.
        CmpOp::Lt if v <= 0 => (true, 0),
        CmpOp::Lt if v > max => (false, 0),
        CmpOp::Lt => (true, v),
        CmpOp::Le if v < 0 => (true, 0),
        CmpOp::Le if v >= max => (false, 0),
        CmpOp::Le => (true, v + 1),
        // Equality only reduces at the range ends.
        CmpOp::Eq if v == 0 => (true, 1),
        CmpOp::Eq if !(0..=max).contains(&v) => (true, 0),
        CmpOp::Ne if v == 0 => (false, 1),
        CmpOp::Ne if !(0..=max).contains(&v) => (false, 0),
        CmpOp::Eq | CmpOp::Ne => return None,
    })
}

/// [`cmp_threshold`] over one `u32` count.
fn count_cmp_threshold(op: CmpOp, v: i64) -> Option<(bool, u32)> {
    cmp_threshold(op, v, u32::MAX as i64).map(|(lt, need)| (lt, need as u32))
}

/// [`cmp_threshold`] over the sum of `n` `u32` counts.
fn sum_cmp_threshold(op: CmpOp, v: i64, n: usize) -> Option<(bool, u64)> {
    let max = (u32::MAX as i64).saturating_mul(n as i64);
    cmp_threshold(op, v, max).map(|(lt, need)| (lt, need as u64))
}

/// `a cmp b` rewritten with the operands swapped (`v < x` ⇔ `x > v`).
fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Ne => op,
    }
}

/// Split a comparison into `(operand, op, constant)` with the constant on
/// the right, if one side is a literal.
fn cmp_parts(e: &Expr) -> Option<(&Expr, CmpOp, i64)> {
    match e {
        Expr::Cmp(a, op, b) => match (&**a, &**b) {
            (x, Expr::Const(v)) => Some((x, *op, *v)),
            (Expr::Const(v), x) => Some((x, flip(*op), *v)),
            _ => None,
        },
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Colored-place splitting
// ---------------------------------------------------------------------------

/// Which count a color filter over a split place reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sel {
    /// The place total (the filter matches every color the place can hold).
    Total,
    /// The hidden per-color slot of this color.
    Color(Color),
}

/// Resolve `filter` over a place whose tokens are always drawn from
/// `domain`: a single matching color, every color (the total), or neither
/// (`None`: the matching count is a sum the lowering does not track).
fn resolve(domain: &[Color], filter: &ColorFilter) -> Option<Sel> {
    match filter {
        ColorFilter::Any => Some(Sel::Total),
        // A color outside the domain reads a slot that stays zero.
        ColorFilter::Eq(c) => Some(Sel::Color(*c)),
        _ => {
            let matching: Vec<Color> = domain
                .iter()
                .copied()
                .filter(|&c| filter.matches(c))
                .collect();
            match matching[..] {
                [_, ..] if matching.len() == domain.len() => Some(Sel::Total),
                [c] => Some(Sel::Color(c)),
                _ => None,
            }
        }
    }
}

/// The color an input arc with `filter` withdraws from a place whose
/// tokens are drawn from `domain`, if it is the same on every firing.
fn withdrawn_color(domain: &[Color], filter: &ColorFilter) -> Option<Color> {
    match resolve(domain, filter)? {
        Sel::Color(c) => Some(c),
        Sel::Total => match domain {
            [c] => Some(*c),
            _ => None,
        },
    }
}

/// The split decision for one net: which colored places get per-color
/// count slots, and the hidden slots allocated so far.
///
/// A colored place is split when every deposit into it is a
/// [`ColorExpr::Const`] (so its color domain is the finite set of those
/// constants plus its initial colors), every input arc withdraws one
/// statically known color (an `Eq` filter, or any filter once the domain
/// has a single color), every inhibitor reads one color or the total, and
/// every transition that moves its tokens is itself lowered to count moves
/// (a fixpoint: a transition left on the generic path un-splits every
/// place it touches, so generic firing never has to keep slots in step).
struct Split {
    np: u32,
    /// `domain[p]`: the colors split place `p` can hold; `None` when `p`
    /// is not split (count-only, or colored and left generic).
    domain: Vec<Option<Vec<Color>>>,
    /// Hidden slot `k` (raw count index `np + k`) counts color `.1` in
    /// place `.0`.
    slots: Vec<(u32, Color)>,
}

impl Split {
    fn analyze(net: &Net) -> Split {
        let np = net.num_places();
        let colored = |p: PlaceId| net.place_may_hold_colors(p);
        let mut domain: Vec<Option<Vec<Color>>> = (0..np)
            .map(|i| {
                let p = PlaceId::from_index(i);
                colored(p).then(|| {
                    let mut d: Vec<Color> = Vec::new();
                    for &c in &net.place(p).initial {
                        if !d.contains(&c) {
                            d.push(c);
                        }
                    }
                    d
                })
            })
            .collect();
        let ts = net.transitions();
        for t in ts {
            for a in &t.outputs {
                let p = a.place.index();
                match (&a.color, domain[p].as_mut()) {
                    (ColorExpr::Const(c), Some(d)) => {
                        if !d.contains(c) {
                            d.push(*c);
                        }
                    }
                    (_, Some(_)) => domain[p] = None,
                    (_, None) => {}
                }
            }
        }
        for t in ts {
            for a in &t.inputs {
                let p = a.place.index();
                if let Some(d) = &domain[p] {
                    if withdrawn_color(d, &a.filter).is_none() {
                        domain[p] = None;
                    }
                }
            }
            for a in &t.inhibitors {
                let p = a.place.index();
                if let Some(d) = &domain[p] {
                    if resolve(d, &a.filter).is_none() {
                        domain[p] = None;
                    }
                }
            }
        }
        // Fixpoint: un-split every place a generic transition moves tokens
        // through (removals only ever make more transitions generic).
        loop {
            let mut changed = false;
            for t in ts {
                if lowerable(net, t, &domain) {
                    continue;
                }
                let places = t.inputs.iter().map(|a| a.place);
                for p in places.chain(t.outputs.iter().map(|a| a.place)) {
                    changed |= domain[p.index()].take().is_some();
                }
            }
            if !changed {
                break;
            }
        }
        Split {
            np: np as u32,
            domain,
            slots: Vec::new(),
        }
    }

    fn domain(&self, p: u32) -> Option<&[Color]> {
        self.domain[p as usize].as_deref()
    }

    /// Raw count index of the hidden slot counting color `c` in split
    /// place `p`, allocating it on first use.
    fn slot(&mut self, p: u32, c: Color) -> u32 {
        let k = match self.slots.iter().position(|&s| s == (p, c)) {
            Some(k) => k,
            None => {
                self.slots.push((p, c));
                self.slots.len() - 1
            }
        };
        self.np + k as u32
    }

    /// Raw count index a filter over place `p` reads, for split places.
    fn filter_slot(&mut self, p: u32, filter: &ColorFilter) -> Option<u32> {
        match resolve(self.domain(p)?, filter)? {
            Sel::Total => Some(p),
            Sel::Color(c) => Some(self.slot(p, c)),
        }
    }

    /// Raw count index an expression operand reads: `#p` is the total of
    /// any place; `#p[c]` is a hidden slot of a split place, or the total
    /// of a count-only place when `c` is [`Color::NONE`].
    fn operand(&mut self, net: &Net, e: &Expr) -> Option<u32> {
        match e {
            Expr::Count(p, None) => Some(p.index() as u32),
            Expr::Count(p, Some(c)) => {
                let pi = p.index() as u32;
                if self.domain(pi).is_some() {
                    Some(self.slot(pi, *c))
                } else if !net.place_may_hold_colors(*p) && *c == Color::NONE {
                    Some(pi)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Collect the count indices of a sum of operands (`#a + #b + ...`).
    fn sum_operands(&mut self, net: &Net, e: &Expr, out: &mut Vec<u32>) -> bool {
        match e {
            Expr::Add(a, b) => self.sum_operands(net, a, out) && self.sum_operands(net, b, out),
            _ => match self.operand(net, e) {
                Some(i) => {
                    out.push(i);
                    true
                }
                None => false,
            },
        }
    }

    /// Split a guard into threshold records `(count index, lt, need)`, one
    /// per conjunct, if every conjunct is `operand cmp constant`.
    fn guard_terms(&mut self, net: &Net, e: &Expr, out: &mut Vec<(u32, bool, u32)>) -> bool {
        match e {
            Expr::And(a, b) => self.guard_terms(net, a, out) && self.guard_terms(net, b, out),
            _ => {
                let Some((x, op, v)) = cmp_parts(e) else {
                    return false;
                };
                match (self.operand(net, x), count_cmp_threshold(op, v)) {
                    (Some(i), Some((lt, need))) => {
                        out.push((i, lt, need));
                        true
                    }
                    _ => false,
                }
            }
        }
    }

    /// Reduce a predicate to one sum-of-counts threshold `(count indices,
    /// lt, need)`: `sum cmp constant`, or an `or` of terms that each say
    /// "some count is positive" (counts are non-negative, so that is
    /// `sum >= 1` over the union).
    fn sum_threshold(&mut self, net: &Net, e: &Expr) -> Option<(Vec<u32>, bool, u64)> {
        if let Expr::Or(a, b) = e {
            let (mut pa, lta, na) = self.sum_threshold(net, a)?;
            let (pb, ltb, nb) = self.sum_threshold(net, b)?;
            if (lta, na, ltb, nb) != (false, 1, false, 1) {
                return None;
            }
            pa.extend(pb);
            return Some((pa, false, 1));
        }
        let (x, op, v) = cmp_parts(e)?;
        let mut places = Vec::new();
        if !self.sum_operands(net, x, &mut places) {
            return None;
        }
        let (lt, need) = sum_cmp_threshold(op, v, places.len())?;
        Some((places, lt, need))
    }
}

/// Can transition `t` fire by count moves alone, given the split places?
fn lowerable(net: &Net, t: &crate::transition::Transition, domain: &[Option<Vec<Color>>]) -> bool {
    let colored = |p: PlaceId| net.place_may_hold_colors(p);
    let split = |p: PlaceId| domain[p.index()].is_some();
    t.inputs
        .iter()
        .all(|a| split(a.place) || (!colored(a.place) && a.filter.matches(Color::NONE)))
        && t.outputs.iter().all(|a| match &a.color {
            ColorExpr::Const(_) => split(a.place) || !colored(a.place),
            // Transfer between count-only places moves a plain token and
            // draws no RNG.
            ColorExpr::Transfer { arc_index } => {
                !colored(a.place) && !colored(t.inputs[*arc_index].place)
            }
            // Choice may consume an RNG draw; keep the generic path so the
            // stream stays aligned.
            ColorExpr::Choice(_) => false,
        })
}

/// Transition-count ceiling for the scan scheduler. Up to it, the next
/// event is found by scanning the pending clocks, which a run keeps in one
/// `u32` bit mask; above it, a lazy-deletion 4-ary heap takes over.
pub(super) const SCAN_MAX_TRANSITIONS: usize = 32;

// ---------------------------------------------------------------------------
// Op encoding
// ---------------------------------------------------------------------------
//
// A transition's **fire section** is segment-structured so the dense
// common case executes with *zero opcode dispatch*: one header word
// (segment counts + generic-fire flag), then `n_mov` two-word token moves,
// then `n_cnt` four-word count-condition records, then a variable
// dispatched tail that only carries the rare slow-path work (counter-
// reward hooks, filtered conditions, complex guard programs). Recheck
// sections use fixed-stride opcode records (see below); there the opcode
// *is* the monomorphized (policy × kind) pair.

/// Fire header: bits 0–15 = token-move count, bits 16–30 = count-condition
/// record count, bit 31 = generic colored fire (one trailing tid word).
pub(super) const HDR_GENERIC: u32 = 1 << 31;
/// Token-move place word, bit 31: add (with overflow check) instead of
/// subtract.
pub(super) const MOV_ADD: u32 = 1 << 31;
/// Count-condition place word, bit 31: the condition is `count < need`
/// instead of `count >= need`. Record layout: `[place|inv, need, slot,
/// watcher]`, `watcher` being the slot's one watcher word, or
/// [`MANY_WATCHERS`].
pub(super) const CNT_INV: u32 = 1 << 31;
/// Watcher word of a count record whose slot has several watchers: they
/// are listed in [`LoweredNet::watch`] from `watch_off[slot]` to
/// `watch_off[slot + 1]`.
pub(super) const MANY_WATCHERS: u32 = 1 << 30;

// Tail ops: opcode in the low 8 bits, a 24-bit argument in the high bits,
// trailing immediate words with length implied by the opcode.

/// Tail: bump counter accumulator `arg` if past warm-up.
pub(super) const OP_HOOK: u32 = 0;
/// Tail: filtered input condition in slot `arg`: `count_matching(word2,
/// filters[word1]) >= word3`; `word4` = tid|flags of its one watcher.
pub(super) const OP_C_FGE: u32 = 1;
/// Tail: filtered inhibitor condition (same layout as [`OP_C_FGE`],
/// comparison inverted).
pub(super) const OP_C_FLT: u32 = 2;
/// Tail: guard condition in slot `arg` evaluated via compiled program
/// `word1`; `word2` = tid|flags of its one watcher.
pub(super) const OP_C_GUARD: u32 = 3;
/// Tail: order record of split place `arg` — remove the oldest `word2`
/// tokens of color `word1` from its bag (counts already moved).
pub(super) const OP_BAG_TAKE: u32 = 4;
/// Tail: order record of split place `arg` — append `word2` tokens of
/// color `word1` to its bag (counts already moved).
pub(super) const OP_BAG_PUT: u32 = 5;

// Recheck ops: `arg` = the timed transition to re-check. The opcode fully
// determines (memory policy, distribution kind); parameters are inline.
// Layout: base + kind, policy blocks of 4 (RE, RA, RS). Unlike fire ops,
// every recheck record is padded to a fixed [`RECHECK_STRIDE`]-word
// stride: the executor's common path (clock already settled, nothing to
// do) then walks the section without any opcode dispatch, and parameters
// are only decoded when a clock actually changes.

/// RaceEnable × Exponential re-check: `word1..2` = rate.
pub(super) const OP_RE_EXP: u32 = 9;
/// RaceEnable × Deterministic: `word1..2` = delay (no RNG draw).
pub(super) const OP_RE_DET: u32 = 10;
/// RaceEnable × Uniform: `word1..2` = low, `word3..4` = high.
pub(super) const OP_RE_UNI: u32 = 11;
/// RaceEnable × Erlang: `word1..2` = rate, `word3` = stage count.
pub(super) const OP_RE_ERL: u32 = 12;
/// RaceAge × Exponential (frozen-remaining handling baked in).
pub(super) const OP_RA_EXP: u32 = 13;
/// RaceAge × Deterministic.
pub(super) const OP_RA_DET: u32 = 14;
/// RaceAge × Uniform.
pub(super) const OP_RA_UNI: u32 = 15;
/// RaceAge × Erlang.
pub(super) const OP_RA_ERL: u32 = 16;
/// Resample × Exponential (redraws while enabled-and-scheduled).
pub(super) const OP_RS_EXP: u32 = 17;
/// Resample × Deterministic.
pub(super) const OP_RS_DET: u32 = 18;
/// Resample × Uniform.
pub(super) const OP_RS_UNI: u32 = 19;
/// Resample × Erlang.
pub(super) const OP_RS_ERL: u32 = 20;

/// Bit 31 of a watcher (tid) word: the watching transition is immediate
/// (flips maintain the enabled-immediates index).
pub(super) const TID_IMMEDIATE: u32 = 1 << 31;

/// Fixed width of one recheck record (op word + up to two f64 parameters),
/// so the settled-skip walk needs no per-record length decoding.
pub(super) const RECHECK_STRIDE: usize = 5;

/// Split an `f64` into two immediate words (little end first).
fn push_f64(ops: &mut Vec<u32>, x: f64) {
    let b = x.to_bits();
    ops.push(b as u32);
    ops.push((b >> 32) as u32);
}

/// Reassemble an `f64` from two immediate words at `ops[i..i+2]`.
#[inline(always)]
pub(super) fn dec_f64(ops: &[u32], i: usize) -> f64 {
    f64::from_bits(ops[i] as u64 | (ops[i + 1] as u64) << 32)
}

// ---------------------------------------------------------------------------
// Reward lowering
// ---------------------------------------------------------------------------

/// A `count cmp const` predicate reward in threshold form: `acc_f[acc] +=
/// dt` when `(count(place) >= need) ^ lt` holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct PredCnt {
    /// Watched count (place or hidden slot, raw index).
    pub(super) place: u32,
    /// Threshold (see [`cmp_threshold`]).
    pub(super) need: u32,
    /// Invert the comparison (`count < need`).
    pub(super) lt: bool,
    /// Target slot in the run's `f64` accumulator stripe.
    pub(super) acc: u32,
}

/// A sum-of-counts predicate reward in threshold form: `acc_f[acc] += dt`
/// when `(sum >= need) ^ lt` holds, `sum` being the total of the counts
/// `Integ::sum_places[start..end]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct PredSum {
    /// Range of watched counts in [`Integ::sum_places`].
    pub(super) start: u32,
    /// End of the range.
    pub(super) end: u32,
    /// Threshold (see [`cmp_threshold`]).
    pub(super) need: u64,
    /// Invert the comparison (`sum < need`).
    pub(super) lt: bool,
    /// Target slot in the run's `f64` accumulator stripe.
    pub(super) acc: u32,
}

/// The reward integration program, run per time advance: one array per
/// kind of time-based reward, so each kind runs as a tight loop with no
/// per-reward dispatch. Every reward owns its accumulator, so splitting
/// by kind leaves each accumulator's sequence of additions unchanged.
#[derive(Debug, Clone, Default)]
pub(super) struct Integ {
    /// Place rewards `(place, acc)`: `acc_f[acc] += count(place) * dt`.
    pub(super) place: Vec<(u32, u32)>,
    /// Single-count predicate rewards.
    pub(super) pred_cnt: Vec<PredCnt>,
    /// Sum-of-counts predicate rewards.
    pub(super) pred_sum: Vec<PredSum>,
    /// Count indices summed by [`PredSum`] records.
    pub(super) sum_places: Vec<u32>,
    /// Predicate rewards left as postfix programs `(prog, acc)`:
    /// `acc_f[acc] += dt` when the simulator's predicate program `prog`
    /// holds.
    pub(super) pred: Vec<(u32, u32)>,
}

/// How one registered reward is reported at finalize, mapping the
/// [`super::rewards::RewardId`] order onto the dense accumulator stripes.
#[derive(Debug, Clone, Copy)]
pub(super) enum LoweredReward {
    /// Time integral in `acc_f[i]`, reported as average over observed time.
    Integral(u32),
    /// Counter in `acc_c[i]`, reported as rate over observed time.
    Rate(u32),
    /// Counter in `acc_c[i]`, reported raw.
    Count(u32),
}

/// How a lowered enabling condition is evaluated from scratch when a lane
/// starts (afterwards the fire sections keep it up to date).
#[derive(Debug, Clone, Copy)]
pub(super) enum CondInit {
    /// `(count(index) >= need) ^ lt` over a place or hidden slot.
    Count {
        /// Raw count index.
        index: u32,
        /// Invert the comparison.
        lt: bool,
        /// Threshold.
        need: u32,
    },
    /// Compiled condition `ci`, evaluated by `CompiledSim::eval_cond`.
    Compiled(u32),
}

// ---------------------------------------------------------------------------
// The lowered program
// ---------------------------------------------------------------------------

/// A complete lowered stepping program for one (net × rewards): one
/// contiguous op arena plus the section table, the startup program, the
/// reward integration program, and the feature-specialization flags that
/// select the hot-loop instantiation.
#[derive(Debug, Clone)]
pub(crate) struct LoweredNet {
    /// The op arena. Transition `ti`'s fire section is
    /// `ops[sec[2*ti]..sec[2*ti+1]]`, its recheck section
    /// `ops[sec[2*ti+1]..sec[2*ti+2]]`.
    pub(super) ops: Vec<u32>,
    /// Section offsets, length `2 * nt + 1`.
    pub(super) sec: Vec<u32>,
    /// Startup program: the initial scheduling pass (each timed transition
    /// re-checked once, in definition order), as recheck ops.
    pub(super) init_ops: Vec<u32>,
    /// Scan scheduling selected (`nt <= SCAN_MAX_TRANSITIONS`).
    pub(super) scan: bool,
    /// Colored/generic features present (generic fire, filtered
    /// conditions, or guard programs) — selects the hot-loop variant that
    /// carries the slow paths.
    pub(super) colored: bool,
    /// The lowered enabling conditions, `(watching transition, initial
    /// evaluation, truth slot)`. A conjunctive guard contributes one per
    /// conjunct, so this can be longer than the compiled condition table;
    /// conditions with the same count threshold share a slot.
    pub(super) conds: Vec<(u32, CondInit, u32)>,
    /// Number of truth slots (the length of a lane's `cond_true` stripe).
    pub(super) n_slots: usize,
    /// Watcher lists of the count-condition slots: slot `k`'s `tid |
    /// TID_IMMEDIATE` words are `watch[watch_off[k]..watch_off[k + 1]]`
    /// (empty for a compiled slot, whose tail op names its one watcher).
    pub(super) watch: Vec<u32>,
    /// Offsets of the watcher lists in `watch`, `n_slots + 1` of them.
    pub(super) watch_off: Vec<u32>,
    /// Hidden count slots appended to every lane's marking: slot `k` (raw
    /// index `num_places + k`) counts color `.1` in split place `.0`.
    pub(super) slots: Vec<(u32, Color)>,
    /// Reward integration program (time-based rewards only).
    pub(super) integ: Integ,
    /// Stride of the per-lane `f64` accumulator stripe.
    pub(super) n_integ: usize,
    /// Stride of the per-lane counter accumulator stripe.
    pub(super) n_count: usize,
    /// Per-reward finalize mapping, in registration order.
    pub(super) reward_map: Vec<LoweredReward>,
}

impl LoweredNet {
    /// Lower `sim`'s compiled net and reward set into a flat program.
    pub(crate) fn build(sim: &Simulator<'_>) -> Self {
        let net = sim.net;
        let cs = &sim.compiled;
        let nt = net.num_transitions();
        let nc = cs.conds.len();
        let np = net.num_places();
        assert!(nc < (1 << 24), "condition index must fit a 24-bit op arg");
        assert!(np < (1 << 24), "place index must fit a 24-bit op arg");
        assert!(nt < (1 << 24), "transition index must fit a 24-bit op arg");
        let mut split = Split::analyze(net);

        // --- rewards: dense accumulator slots + finalize mapping ---
        let mut integ = Integ::default();
        let mut reward_map = Vec::with_capacity(sim.rewards.len());
        let mut counter_idx = vec![u32::MAX; sim.rewards.len()];
        let (mut n_integ, mut n_count) = (0u32, 0u32);
        for (i, spec) in sim.rewards.iter().enumerate() {
            match spec {
                RewardSpec::PlaceTokens(p) => {
                    integ.place.push((p.index() as u32, n_integ));
                    reward_map.push(LoweredReward::Integral(n_integ));
                    n_integ += 1;
                }
                RewardSpec::Predicate(e) => {
                    let acc = n_integ;
                    match split.sum_threshold(net, e) {
                        Some((places, lt, need)) if places.len() == 1 => {
                            integ.pred_cnt.push(PredCnt {
                                place: places[0],
                                // A single count's threshold fits its width.
                                need: need as u32,
                                lt,
                                acc,
                            })
                        }
                        Some((places, lt, need)) => {
                            let start = integ.sum_places.len() as u32;
                            integ.sum_places.extend(places);
                            integ.pred_sum.push(PredSum {
                                start,
                                end: integ.sum_places.len() as u32,
                                need,
                                lt,
                                acc,
                            });
                        }
                        None => integ.pred.push((i as u32, acc)),
                    }
                    reward_map.push(LoweredReward::Integral(n_integ));
                    n_integ += 1;
                }
                RewardSpec::Throughput(_) => {
                    counter_idx[i] = n_count;
                    reward_map.push(LoweredReward::Rate(n_count));
                    n_count += 1;
                }
                RewardSpec::FiringCount(_) => {
                    counter_idx[i] = n_count;
                    reward_map.push(LoweredReward::Count(n_count));
                    n_count += 1;
                }
            }
        }
        assert!(n_integ < (1 << 24) && n_count < (1 << 24));

        // --- lowered conditions: one per compiled condition, except that a
        // conjunctive guard splits into one threshold per conjunct ---
        let mut colored = false;
        let mut conds: Vec<(u32, CondInit, u32)> = Vec::with_capacity(nc);
        let mut lcond_of: Vec<(u32, u32)> = Vec::with_capacity(nc);
        let mut terms: Vec<(u32, bool, u32)> = Vec::new();
        for (ci, cond) in cs.conds.iter().enumerate() {
            let start = conds.len() as u32;
            let count = |index: u32, lt: bool| CondInit::Count {
                index,
                lt,
                need: cond.need,
            };
            match cond.kind {
                COND_INPUT_ANY => conds.push((cond.tid, count(cond.place, false), 0)),
                COND_INHIB_ANY => conds.push((cond.tid, count(cond.place, true), 0)),
                COND_INPUT_FILTERED | COND_INHIB_FILTERED => {
                    let lt = cond.kind == COND_INHIB_FILTERED;
                    let filter = &cs.filters[cond.aux as usize];
                    let init = match split.filter_slot(cond.place, filter) {
                        Some(index) => count(index, lt),
                        None => {
                            colored = true;
                            CondInit::Compiled(ci as u32)
                        }
                    };
                    conds.push((cond.tid, init, 0));
                }
                COND_GUARD => {
                    let guard = net.transitions()[cond.tid as usize]
                        .guard
                        .as_ref()
                        .expect("guard condition of a guarded transition");
                    terms.clear();
                    if split.guard_terms(net, guard, &mut terms) {
                        for &(index, lt, need) in &terms {
                            conds.push((cond.tid, CondInit::Count { index, lt, need }, 0));
                        }
                    } else {
                        colored = true;
                        conds.push((cond.tid, CondInit::Compiled(ci as u32), 0));
                    }
                }
                _ => unreachable!("invalid condition kind"),
            }
            lcond_of.push((start, conds.len() as u32));
        }
        assert!(
            conds.len() < (1 << 24),
            "condition index must fit a 24-bit op arg"
        );
        assert!(
            nt < MANY_WATCHERS as usize,
            "a watcher word must not collide with MANY_WATCHERS"
        );
        let truth = TruthSlots::assign(&mut conds, cs, np + split.slots.len());
        let any_compiled = conds.iter().any(|c| matches!(c.1, CondInit::Compiled(_)));

        // --- per-transition fire + recheck sections ---
        // Room for every recheck record and a typical fire section, so the
        // arena seldom regrows while it is laid out.
        let rechecks: usize = (0..nt).map(|ti| cs.recheck_timed.row(ti).len()).sum();
        let mut ops: Vec<u32> =
            Vec::with_capacity(RECHECK_STRIDE * rechecks + 8 * nt + 4 * conds.len());
        let mut sec: Vec<u32> = Vec::with_capacity(2 * nt + 1);
        sec.push(0);
        let mut seen = vec![false; if any_compiled { nc } else { 0 }];
        let mut trow: Vec<u32> = Vec::new();
        let mut moved: Vec<u32> = Vec::new();
        let mut tail: Vec<u32> = Vec::new();
        for (ti, t) in net.transitions().iter().enumerate() {
            // Header slot (counts patched once the section is laid out).
            let hdr_at = ops.len();
            ops.push(0);
            let mut hdr = 0u32;
            // Token movement in arc order (inputs, then outputs): flagged
            // (count index, multiplicity) pairs — a split place moves its
            // total and its color's slot, and queues an order-record op —
            // or one generic-fire tid word.
            let mut n_mov = 0u32;
            // Order-record ops open the tail: guard programs read colors
            // through the bags.
            tail.clear();
            // The counts the firing changes: each move's count index, or
            // the touched places' totals for a generic fire (a place a
            // generic transition touches is never split).
            moved.clear();
            if lowerable(net, t, &split.domain) {
                for a in &t.inputs {
                    let p = a.place.index() as u32;
                    ops.extend([p, a.multiplicity]);
                    moved.push(p);
                    if let Some(d) = split.domain(p) {
                        let c =
                            withdrawn_color(d, &a.filter).expect("split places withdraw one color");
                        let k = split.slot(p, c);
                        ops.extend([k, a.multiplicity]);
                        moved.push(k);
                        tail.extend([OP_BAG_TAKE | p << 8, c.0, a.multiplicity]);
                    }
                }
                for a in &t.outputs {
                    let p = a.place.index() as u32;
                    ops.extend([p | MOV_ADD, a.multiplicity]);
                    moved.push(p);
                    if split.domain(p).is_some() {
                        let ColorExpr::Const(c) = a.color else {
                            unreachable!("split places only take constant colors")
                        };
                        let k = split.slot(p, c);
                        ops.extend([k | MOV_ADD, a.multiplicity]);
                        moved.push(k);
                        tail.extend([OP_BAG_PUT | p << 8, c.0, a.multiplicity]);
                    }
                }
                n_mov = moved.len() as u32;
            } else {
                colored = true;
                hdr |= HDR_GENERIC;
                ops.push(ti as u32);
                moved.extend_from_slice(cs.touched.row(ti));
            }
            assert!(n_mov < (1 << 16), "token moves must fit the header");
            // Count records: one per truth slot on each changed count, so
            // each slot is re-evaluated once and a flip reaches every
            // watcher. All token moves complete before any condition is
            // re-evaluated, and conditions never draw RNG and their flips
            // commute, so neither the record order nor the split into the
            // count segment and the dispatched tail changes the outputs.
            let mut n_cnt = 0u32;
            for (i, &x) in moved.iter().enumerate() {
                if !moved[..i].contains(&x) {
                    n_cnt += truth.emit_records(x, &mut ops);
                }
            }
            assert!(n_cnt < (1 << 15), "count conditions must fit the header");
            // Compiled conditions a touched place feeds, as tail ops, from
            // the first-touch row (the per-place walk + epoch dedup of the
            // reference engine, flattened).
            trow.clear();
            if any_compiled {
                for &p in cs.touched.row(ti) {
                    for &ci in cs.place_conds.row(p as usize) {
                        if !seen[ci as usize] {
                            seen[ci as usize] = true;
                            trow.push(ci);
                        }
                    }
                }
                for &ci in &trow {
                    seen[ci as usize] = false;
                }
            }
            for &ci in &trow {
                let (l0, l1) = lcond_of[ci as usize];
                for &(tid, init, slot) in &conds[l0 as usize..l1 as usize] {
                    let CondInit::Compiled(ci) = init else {
                        continue;
                    };
                    let cond = &cs.conds[ci as usize];
                    let tf = watcher_word(cs, tid);
                    match cond.kind {
                        COND_INPUT_FILTERED => {
                            tail.extend([OP_C_FGE | slot << 8, cond.aux, cond.place, cond.need, tf])
                        }
                        COND_INHIB_FILTERED => {
                            tail.extend([OP_C_FLT | slot << 8, cond.aux, cond.place, cond.need, tf])
                        }
                        COND_GUARD => tail.extend([OP_C_GUARD | slot << 8, cond.aux, tf]),
                        _ => unreachable!("count conditions always lower to records"),
                    }
                }
            }
            ops.extend_from_slice(&tail);
            // Counter-reward hooks (post-warmup increments).
            for &ri in &sim.firing_hooks[ti] {
                ops.push(OP_HOOK | counter_idx[ri as usize] << 8);
            }
            ops[hdr_at] = hdr | n_mov | n_cnt << 16;
            sec.push(ops.len() as u32);

            // Recheck section: monomorphized (policy × kind) ops over the
            // compiled recheck row (reference traversal order).
            for &t2 in cs.recheck_timed.row(ti) {
                emit_recheck(&mut ops, cs, t2);
            }
            sec.push(ops.len() as u32);
        }
        assert!(
            np + split.slots.len() < (1 << 30),
            "count indices must leave the op flag bits free"
        );

        // Startup program: the reference engine's initial pass re-checks every
        // timed transition in definition order.
        let mut init_ops = Vec::new();
        for t2 in 0..nt {
            if cs.hot[t2].kind != TimingKind::Immediate {
                emit_recheck(&mut init_ops, cs, t2 as u32);
            }
        }

        LoweredNet {
            ops,
            sec,
            init_ops,
            scan: nt <= SCAN_MAX_TRANSITIONS,
            colored,
            conds,
            n_slots: truth.key.len(),
            watch: truth.watch,
            watch_off: truth.watch_off,
            slots: split.slots,
            integ,
            n_integ: n_integ as usize,
            n_count: n_count as usize,
            reward_map,
        }
    }

    /// A lane's starting marking: the net's initial marking plus the
    /// hidden per-color slots of the split places.
    pub(super) fn initial_marking(&self, net: &Net) -> Marking {
        let mut m = net.initial_marking();
        for &(p, c) in &self.slots {
            let n = m.count_color(PlaceId(p), c) as u32;
            m.push_hidden(n);
        }
        m
    }
}

/// The watcher word of transition `tid`: its index, flagged when it is
/// immediate.
fn watcher_word(cs: &CompiledSim, tid: u32) -> u32 {
    if cs.hot[tid as usize].kind == TimingKind::Immediate {
        tid | TID_IMMEDIATE
    } else {
        tid
    }
}

/// The truth slots of the lowered conditions: one per distinct count
/// condition `(count index, inverted, threshold)`, one per compiled
/// condition.
struct TruthSlots {
    /// Per slot: `(inverted, threshold, previous slot on the same count)`;
    /// a compiled slot reads no count.
    key: Vec<(bool, u32, u32)>,
    /// `last[index]`: the newest slot on count `index` (the head of the
    /// chain of its slots).
    last: Vec<u32>,
    /// Watcher lists, each count slot's `tid | TID_IMMEDIATE` words in
    /// condition order (see [`LoweredNet::watch`]).
    watch: Vec<u32>,
    /// Slot `k`'s watchers are `watch[watch_off[k]..watch_off[k + 1]]`.
    watch_off: Vec<u32>,
}

/// End of a [`TruthSlots`] chain.
const NO_SLOT: u32 = u32::MAX;

impl TruthSlots {
    /// Give every distinct count condition one slot and every compiled
    /// condition a slot of its own, writing the slot into `conds`. Slots
    /// are numbered in order of first appearance; finding a key walks only
    /// the chain of thresholds on its own count (no hashing, no sort).
    fn assign(conds: &mut [(u32, CondInit, u32)], cs: &CompiledSim, n_counts: usize) -> Self {
        let mut last = vec![NO_SLOT; n_counts];
        let mut key: Vec<(bool, u32, u32)> = Vec::with_capacity(conds.len());
        for c in conds.iter_mut() {
            let CondInit::Count { index, lt, need } = c.1 else {
                c.2 = key.len() as u32;
                key.push((false, 0, NO_SLOT));
                continue;
            };
            let mut k = last[index as usize];
            while k != NO_SLOT {
                let (klt, kneed, prev) = key[k as usize];
                if (klt, kneed) == (lt, need) {
                    break;
                }
                k = prev;
            }
            if k == NO_SLOT {
                k = key.len() as u32;
                key.push((lt, need, last[index as usize]));
                last[index as usize] = k;
            }
            c.2 = k;
        }
        // Counting sort of the watchers by slot: count into `watch_off[k]`,
        // turn the counts into list ends, then fill back to front so each
        // `watch_off[k]` ends at its list's start.
        let mut watch_off = vec![0u32; key.len() + 1];
        for c in conds.iter() {
            if let CondInit::Count { .. } = c.1 {
                watch_off[c.2 as usize] += 1;
            }
        }
        let mut end = 0;
        for off in watch_off.iter_mut() {
            end += *off;
            *off = end;
        }
        let mut watch = vec![0; end as usize];
        for c in conds.iter().rev() {
            if let CondInit::Count { .. } = c.1 {
                let off = &mut watch_off[c.2 as usize];
                *off -= 1;
                watch[*off as usize] = watcher_word(cs, c.0);
            }
        }
        TruthSlots {
            key,
            last,
            watch,
            watch_off,
        }
    }

    /// Append one count record per slot on count `index` to `ops`,
    /// returning how many. A hidden slot opened while the moves are laid
    /// out lies past `last` and has no condition.
    fn emit_records(&self, index: u32, ops: &mut Vec<u32>) -> u32 {
        let mut n = 0;
        let mut k = self.last.get(index as usize).copied().unwrap_or(NO_SLOT);
        while k != NO_SLOT {
            let (lt, need, prev) = self.key[k as usize];
            let pw = index | if lt { CNT_INV } else { 0 };
            let (a, b) = (self.watch_off[k as usize], self.watch_off[k as usize + 1]);
            let tf = if b - a == 1 {
                self.watch[a as usize]
            } else {
                MANY_WATCHERS
            };
            ops.extend([pw, need, k, tf]);
            n += 1;
            k = prev;
        }
        n
    }
}

/// Emit the monomorphized re-check record for timed transition `t2`,
/// padded to [`RECHECK_STRIDE`] words.
fn emit_recheck(ops: &mut Vec<u32>, cs: &CompiledSim, t2: u32) {
    let hot = &cs.hot[t2 as usize];
    let kind = match hot.kind {
        TimingKind::Exponential => 0,
        TimingKind::Deterministic => 1,
        TimingKind::Uniform => 2,
        TimingKind::Erlang => 3,
        TimingKind::Immediate => unreachable!("immediates are never re-checked"),
    };
    let policy = match hot.memory {
        MemoryPolicy::RaceEnable => 0,
        MemoryPolicy::RaceAge => 1,
        MemoryPolicy::Resample => 2,
    };
    let start = ops.len();
    ops.push((OP_RE_EXP + 4 * policy + kind) | t2 << 8);
    match hot.kind {
        TimingKind::Exponential | TimingKind::Deterministic => push_f64(ops, hot.a),
        TimingKind::Uniform => {
            push_f64(ops, hot.a);
            push_f64(ops, hot.b);
        }
        TimingKind::Erlang => {
            push_f64(ops, hot.a);
            ops.push(hot.k);
        }
        TimingKind::Immediate => unreachable!(),
    }
    ops.resize(start + RECHECK_STRIDE, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetBuilder;
    use crate::ids::TransitionId;
    use crate::sim::SimConfig;
    use crate::timing::Timing;

    const RED: Color = Color(1);
    const BLUE: Color = Color(2);

    fn lowered(net: &Net, rewards: &[Expr]) -> LoweredNet {
        let mut sim = Simulator::new(net, SimConfig::for_horizon(10.0));
        for e in rewards {
            sim.reward_predicate(e.clone()).unwrap();
        }
        LoweredNet::build(&sim)
    }

    fn split_places(net: &Net) -> Vec<bool> {
        let split = Split::analyze(net);
        split.domain.iter().map(Option::is_some).collect()
    }

    #[test]
    fn constant_fed_eq_withdrawn_places_split() {
        // `q` takes two constant colors and gives them up by `Eq`; `one`
        // only ever holds one color, so even `Any` withdraws it.
        let mut b = NetBuilder::new("eligible");
        let q = b.place("q").token_colored(BLUE).build();
        let one = b.place("one").build();
        b.transition("put", Timing::exponential(1.0))
            .output_colored(q, 1, ColorExpr::Const(RED))
            .output_colored(one, 1, ColorExpr::Const(RED))
            .build();
        b.transition("take_red", Timing::exponential(1.0))
            .input_filtered(q, 1, ColorFilter::Eq(RED))
            .build();
        b.transition("take_blue", Timing::exponential(1.0))
            .input_filtered(q, 1, ColorFilter::Eq(BLUE))
            .input(one, 1)
            .build();
        let net = b.build().unwrap();
        assert_eq!(split_places(&net), vec![true, true]);
        let lw = lowered(&net, &[]);
        assert!(!lw.colored);
        // One hidden slot per (place, color) the program reads or moves.
        let mut slots = lw.slots.clone();
        slots.sort_by_key(|&(p, c)| (p, c.0));
        assert_eq!(slots, vec![(0, RED), (0, BLUE), (1, RED)]);
        // Hidden slots start from the initial marking.
        let m = lw.initial_marking(&net);
        let slot = |pc| 2 + lw.slots.iter().position(|&s| s == pc).unwrap() as u32;
        assert_eq!(m.count_raw(slot((0, BLUE))), 1);
        assert_eq!(m.count_raw(slot((0, RED))), 0);
        assert_eq!(m.num_places(), 2);
    }

    #[test]
    fn transfer_fed_places_stay_generic() {
        let mut b = NetBuilder::new("transfer");
        let src = b.place("src").build();
        let dst = b.place("dst").build();
        b.transition("gen", Timing::exponential(1.0))
            .output_colored(src, 1, ColorExpr::Const(RED))
            .build();
        b.transition("copy", Timing::exponential(1.0))
            .input_filtered(src, 1, ColorFilter::Eq(RED))
            .output_colored(dst, 1, ColorExpr::Transfer { arc_index: 0 })
            .build();
        b.transition("sink", Timing::exponential(1.0))
            .input_filtered(dst, 1, ColorFilter::Eq(RED))
            .build();
        let net = b.build().unwrap();
        // `dst` is fed by Transfer; `copy` therefore fires generically,
        // which un-splits `src` too (generic firing keeps no slots).
        assert_eq!(split_places(&net), vec![false, false]);
        assert!(lowered(&net, &[]).colored);
    }

    #[test]
    fn multi_colored_any_withdrawal_stays_generic() {
        let mut b = NetBuilder::new("any");
        let q = b.place("q").build();
        let other = b.place("other").build();
        b.transition("put", Timing::exponential(1.0))
            .output_colored(q, 1, ColorExpr::Const(RED))
            .output_colored(q, 1, ColorExpr::Const(BLUE))
            .output_colored(other, 1, ColorExpr::Const(BLUE))
            .build();
        b.transition("take", Timing::exponential(1.0))
            .input(q, 1)
            .build();
        b.transition("take_other", Timing::exponential(1.0))
            .input_filtered(other, 1, ColorFilter::Eq(BLUE))
            .build();
        let net = b.build().unwrap();
        // `q` holds two colors and `take` withdraws whichever is oldest;
        // `put` then fires generically and un-splits `other` as well.
        assert_eq!(split_places(&net), vec![false, false]);
        assert!(lowered(&net, &[]).colored);
    }

    #[test]
    fn choice_fed_places_stay_generic() {
        let mut b = NetBuilder::new("choice");
        let q = b.place("q").build();
        b.transition("gen", Timing::exponential(1.0))
            .output_colored(q, 1, ColorExpr::Choice(vec![(RED, 1.0), (BLUE, 1.0)]))
            .build();
        b.transition("take", Timing::exponential(1.0))
            .input_filtered(q, 1, ColorFilter::Eq(RED))
            .build();
        let net = b.build().unwrap();
        assert_eq!(split_places(&net), vec![false]);
    }

    /// The node SCPN's shape (Figs. 12/13): a colored `Buffer` fed by
    /// constant DVS colors and drained by `Eq`-filtered service, a CPU
    /// cycle guarded by Table XI's `#Buffer == 0 && #Idle > 0`. The real
    /// model lives in the `wsn` crate, whose tests pin it too.
    #[test]
    fn node_shaped_net_lowers_dense() {
        let mut b = NetBuilder::new("node-shape");
        let stage = b.place("Stage").tokens(1).build();
        let handle = b.place("Handle").build();
        let buffer = b.place("Buffer").build();
        let idle = b.place("Idle").tokens(1).build();
        let active = b.place("Active").build();
        let cpu_done = || Expr::count(buffer).eq_c(0).and(Expr::count(idle).gt_c(0));
        b.transition("rx", Timing::deterministic(0.1))
            .input(stage, 1)
            .output(handle, 1)
            .output_colored(buffer, 1, ColorExpr::Const(Color(3)))
            .build();
        b.transition("done", Timing::immediate())
            .input(handle, 1)
            .output(stage, 1)
            .guard(cpu_done())
            .build();
        b.transition("start", Timing::immediate())
            .input(idle, 1)
            .output(active, 1)
            .guard(Expr::count(buffer).gt_c(0))
            .build();
        b.transition("stop", Timing::immediate())
            .input(active, 1)
            .output(idle, 1)
            .guard(Expr::count(buffer).eq_c(0))
            .build();
        for level in 1..=3 {
            b.transition(format!("dvs{level}"), Timing::deterministic(0.01))
                .input(active, 1)
                .input_filtered(buffer, 1, ColorFilter::Eq(Color(level)))
                .output(active, 1)
                .build();
        }
        let net = b.build().unwrap();
        let active_expr = Expr::count(handle).add(Expr::count(active)).gt_c(0);
        let lw = lowered(&net, &[active_expr]);
        assert!(!lw.colored, "node-shaped net left the dense loop");
        assert!(matches!(
            lw.integ.pred_sum[..],
            [PredSum {
                need: 1,
                lt: false,
                ..
            }]
        ));
        assert!(lw.integ.place.is_empty() && lw.integ.pred_cnt.is_empty());
        assert!(lw.integ.pred.is_empty());
    }

    /// The count records of transition `ti`'s fire section, as `[place |
    /// inv, need, slot, watcher]` chunks.
    fn count_records(lw: &LoweredNet, ti: usize) -> Vec<[u32; 4]> {
        let ops = &lw.ops[lw.sec[2 * ti] as usize..lw.sec[2 * ti + 1] as usize];
        let n_mov = (ops[0] & 0xffff) as usize;
        let n_cnt = ((ops[0] >> 16) & 0x7fff) as usize;
        let start = 1 + usize::from(ops[0] & HDR_GENERIC != 0) + 2 * n_mov;
        ops[start..start + 4 * n_cnt]
            .chunks_exact(4)
            .map(|r| [r[0], r[1], r[2], r[3]])
            .collect()
    }

    /// The CPU half of the node SCPN (Fig. 12, `wsn::node`): Table XI's
    /// stage guards `#Buffer == 0 && #Cpu_Idle > 0` on T17, T19 and
    /// Wait_Begin, and the CPU's own `#Buffer > 0` / `#Buffer == 0`
    /// guards. `#Buffer == 0` is one slot with four watchers and
    /// `#Cpu_Idle > 0` one with five (three guard terms and two input
    /// arcs), and no fire section re-evaluates a slot twice.
    #[test]
    fn node_net_conditions_share_truth_slots() {
        let mut b = NetBuilder::new("node-cpu");
        let rx_handle = b.place("Rx_Handle").build();
        let comp_handle = b.place("Comp_Handle").build();
        let tx_start = b.place("Tx_Start").build();
        let tx_handle = b.place("Tx_Handle").build();
        let wait = b.place("Wait").tokens(1).build();
        let buffer = b.place("Buffer").build();
        let sleep = b.place("Cpu_Sleep").tokens(1).build();
        let wake = b.place("Cpu_Wake").build();
        let idle = b.place("Cpu_Idle").build();
        let active = b.place("Cpu_Active").build();
        let cpu_done = || Expr::count(buffer).eq_c(0).and(Expr::count(idle).gt_c(0));
        b.transition("T0", Timing::deterministic(1.0))
            .input(wait, 1)
            .output(rx_handle, 1)
            .output_colored(buffer, 1, ColorExpr::Const(Color(3)))
            .build();
        let t17 = b
            .transition("T17", Timing::immediate_pri(1))
            .input(rx_handle, 1)
            .output(comp_handle, 1)
            .output_colored(buffer, 1, ColorExpr::Const(Color(4)))
            .guard(cpu_done())
            .build();
        let t19 = b
            .transition("T19", Timing::immediate_pri(1))
            .input(comp_handle, 1)
            .output(tx_start, 1)
            .guard(cpu_done())
            .build();
        b.transition("Tx", Timing::deterministic(0.1))
            .input(tx_start, 1)
            .output(tx_handle, 1)
            .output_colored(buffer, 1, ColorExpr::Const(Color(3)))
            .build();
        let wait_begin = b
            .transition("Wait_Begin", Timing::immediate_pri(1))
            .input(tx_handle, 1)
            .output(wait, 1)
            .guard(cpu_done())
            .build();
        b.transition("Cpu_T1", Timing::immediate_pri(4))
            .input(sleep, 1)
            .output(wake, 1)
            .guard(Expr::count(buffer).gt_c(0))
            .build();
        b.transition("Power_Up_Delay", Timing::deterministic(0.3))
            .input(wake, 1)
            .output(idle, 1)
            .build();
        let t5 = b
            .transition("Cpu_T5", Timing::immediate_pri(2))
            .input(idle, 1)
            .output(active, 1)
            .guard(Expr::count(buffer).gt_c(0))
            .build();
        let t6 = b
            .transition("Cpu_T6", Timing::immediate_pri(3))
            .input(active, 1)
            .output(idle, 1)
            .guard(Expr::count(buffer).eq_c(0))
            .build();
        for level in [3, 4] {
            b.transition(format!("DVS_{level}"), Timing::deterministic(0.01))
                .input(active, 1)
                .input_filtered(buffer, 1, ColorFilter::Eq(Color(level)))
                .output(active, 1)
                .build();
        }
        let pdt = b
            .transition("Power_Down_Threshold", Timing::deterministic(0.1))
            .input(idle, 1)
            .output(sleep, 1)
            .build();
        let net = b.build().unwrap();
        let lw = lowered(&net, &[]);
        assert!(!lw.colored);
        // The slot every condition `(index, lt, need)` maps to, and the
        // watcher list of a slot whose fire records name several.
        let slot_of = |index: u32, lt: bool, need: u32| -> u32 {
            let slots: Vec<u32> = lw
                .conds
                .iter()
                .filter(|c| matches!(c.1, CondInit::Count { index: i, lt: l, need: n } if (i, l, n) == (index, lt, need)))
                .map(|c| c.2)
                .collect();
            assert!(
                slots.windows(2).all(|w| w[0] == w[1]),
                "key split over slots"
            );
            slots[0]
        };
        let watchers = |slot: u32| -> Vec<u32> {
            let rec = (0..net.num_transitions())
                .flat_map(|ti| count_records(&lw, ti))
                .find(|r| r[2] == slot)
                .expect("some fire section re-evaluates the slot");
            assert_eq!(rec[3], MANY_WATCHERS);
            let (a, b) = (lw.watch_off[slot as usize], lw.watch_off[slot as usize + 1]);
            let mut tids: Vec<u32> = lw.watch[a as usize..b as usize]
                .iter()
                .map(|&w| w & !TID_IMMEDIATE)
                .collect();
            tids.sort_unstable();
            tids
        };
        let buffer_empty = slot_of(buffer.0, true, 1);
        assert_eq!(watchers(buffer_empty), [t17.0, t19.0, wait_begin.0, t6.0]);
        let idle_ready = slot_of(idle.0, false, 1);
        assert_eq!(
            watchers(idle_ready),
            [t17.0, t19.0, wait_begin.0, t5.0, pdt.0]
        );
        // `#Buffer > 0` is the negation of `#Buffer == 0`, not the same key.
        assert_ne!(slot_of(buffer.0, false, 1), buffer_empty);
        for ti in 0..net.num_transitions() {
            let mut slots: Vec<u32> = count_records(&lw, ti).iter().map(|r| r[2]).collect();
            let n = slots.len();
            slots.sort_unstable();
            slots.dedup();
            assert_eq!(
                slots.len(),
                n,
                "{} re-evaluates a slot twice",
                net.transitions()[ti].name
            );
        }
        // Firing T0 moves Buffer, so it re-evaluates `#Buffer == 0`.
        assert!(count_records(&lw, 0).iter().any(|r| r[2] == buffer_empty));
    }

    #[test]
    fn conjunctive_guards_split_into_one_record_per_term() {
        let mut b = NetBuilder::new("guards");
        let a = b.place("a").build();
        let z = b.place("z").tokens(1).build();
        let q = b.place("q").build();
        b.transition("gen", Timing::exponential(1.0))
            .output(a, 1)
            .output_colored(q, 1, ColorExpr::Const(RED))
            .build();
        // `#a == 0 && #z > 0 && 2 >= #q[RED]`: three thresholds, one of
        // them on a hidden slot and one with the constant on the left.
        let both = b
            .transition("both", Timing::exponential(1.0))
            .input(z, 1)
            .output(z, 1)
            .guard(
                Expr::count(a)
                    .eq_c(0)
                    .and(Expr::count(z).gt_c(0))
                    .and(Expr::constant(2).ge(Expr::count_color(q, RED))),
            )
            .build();
        // A sum is not a conjunction of thresholds: one program record.
        let sum = b
            .transition("sum", Timing::exponential(1.0))
            .input(a, 1)
            .input_filtered(q, 1, ColorFilter::Eq(RED))
            .guard(Expr::count(a).add(Expr::count(z)).le_c(3))
            .build();
        let net = b.build().unwrap();
        let lw = lowered(&net, &[]);
        let conds_of = |t: TransitionId| -> Vec<CondInit> {
            lw.conds
                .iter()
                .filter(|c| c.0 == t.0)
                .map(|c| c.1)
                .collect()
        };
        let red = 3 + lw.slots.iter().position(|&s| s == (2, RED)).unwrap() as u32;
        let guard_terms: Vec<(u32, bool, u32)> = conds_of(both)
            .into_iter()
            .filter_map(|c| match c {
                CondInit::Count { index, lt, need } if index != z.0 || lt || need != 1 => {
                    Some((index, lt, need))
                }
                CondInit::Count { .. } => None, // the input arc on `z`
                CondInit::Compiled(_) => panic!("guard term left as a program"),
            })
            .collect();
        assert_eq!(guard_terms, vec![(0, true, 1), (red, true, 3)]);
        // `#z > 0` reduces to the same record as the input arc on `z`.
        assert_eq!(conds_of(both).len(), 4);
        assert!(matches!(conds_of(sum)[..], [_, _, CondInit::Compiled(_)]));
        assert!(lw.colored, "the program guard keeps the slow-path loop");
    }

    #[test]
    fn threshold_forms_agree_with_the_comparison_at_the_edges() {
        // For every operator and constant near both ends of the range,
        // the threshold form equals the comparison on every value near
        // both ends — the single-count and the sum-of-counts reductions.
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        for n in [1usize, 2, 6] {
            let max = u32::MAX as i64 * n as i64;
            let consts = [i64::MIN, -2, -1, 0, 1, 2, max - 1, max, max + 1, i64::MAX];
            let xs = [0, 1, 2, 3, max - 2, max - 1, max];
            for op in ops {
                for v in consts {
                    let form = if n == 1 {
                        count_cmp_threshold(op, v).map(|(lt, need)| (lt, need as u64))
                    } else {
                        sum_cmp_threshold(op, v, n)
                    };
                    let Some((lt, need)) = form else {
                        // Only an interior equality has no threshold form.
                        assert!(matches!(op, CmpOp::Eq | CmpOp::Ne) && 0 < v && v <= max);
                        continue;
                    };
                    for x in xs {
                        let want = match op {
                            CmpOp::Eq => x == v,
                            CmpOp::Ne => x != v,
                            CmpOp::Lt => x < v,
                            CmpOp::Le => x <= v,
                            CmpOp::Gt => x > v,
                            CmpOp::Ge => x >= v,
                        };
                        assert_eq!((x as u64 >= need) != lt, want, "n={n} {op} {v} at {x}");
                    }
                }
            }
        }
    }

    #[test]
    fn radio_predicates_reduce_to_sum_thresholds() {
        let mut b = NetBuilder::new("radio");
        let ps: Vec<PlaceId> = (0..4).map(|i| b.place(format!("p{i}")).build()).collect();
        b.transition("t", Timing::exponential(1.0))
            .input(ps[0], 1)
            .output(ps[1], 1)
            .build();
        let net = b.build().unwrap();
        let c = |i: usize| Expr::count(ps[i]);
        let lw = lowered(
            &net,
            &[
                // The two radio shapes of the node rewards.
                c(0).gt_c(0).or(c(1).gt_c(0)),
                c(0).add(c(1)).add(c(2)).gt_c(0),
                // Edges: always true, never true, a single count.
                c(0).add(c(1)).ge_c(-3),
                c(2).add(c(3)).gt_c(u32::MAX as i64 * 2),
                c(3).ne(Expr::constant(0)),
                // Not reducible: an interior equality, and an `or` whose
                // terms are not "count is positive".
                c(0).add(c(1)).eq_c(2),
                c(0).gt_c(1).or(c(1).gt_c(0)),
            ],
        );
        // Each reward lands in its kind's array, keyed by its accumulator.
        let sum = |acc: u32| {
            lw.integ.pred_sum.iter().find(|r| r.acc == acc).map(|r| {
                (
                    lw.integ.sum_places[r.start as usize..r.end as usize].to_vec(),
                    r.lt,
                    r.need,
                )
            })
        };
        assert_eq!(sum(0), Some((vec![0, 1], false, 1)));
        assert_eq!(sum(1), Some((vec![0, 1, 2], false, 1)));
        assert_eq!(sum(2), Some((vec![0, 1], false, 0)));
        assert_eq!(sum(3), Some((vec![2, 3], true, 0)));
        assert_eq!(lw.integ.pred_sum.len(), 4);
        assert_eq!(
            lw.integ.pred_cnt,
            [PredCnt {
                place: 3,
                need: 1,
                lt: false,
                acc: 4,
            }]
        );
        assert_eq!(lw.integ.pred, [(5, 5), (6, 6)]);
        assert!(lw.integ.place.is_empty());
    }

    #[test]
    fn f64_immediates_round_trip() {
        for x in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, 1e-300, -42.25] {
            let mut ops = Vec::new();
            push_f64(&mut ops, x);
            assert_eq!(dec_f64(&ops, 0).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn sections_are_contiguous_and_cover_the_arena() {
        let mut b = NetBuilder::new("mm1");
        let q = b.place("q").build();
        b.transition("arrive", Timing::exponential(0.8))
            .output(q, 1)
            .build();
        b.transition("serve", Timing::exponential(1.0))
            .input(q, 1)
            .build();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(10.0));
        sim.reward_place(crate::ids::PlaceId::from_index(0));
        let lw = LoweredNet::build(&sim);
        assert_eq!(lw.sec.len(), 2 * net.num_transitions() + 1);
        assert_eq!(lw.sec[0], 0);
        assert!(lw.sec.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*lw.sec.last().unwrap() as usize, lw.ops.len());
        assert!(lw.scan);
        assert!(!lw.colored);
        assert_eq!(lw.n_integ, 1);
        assert_eq!(lw.integ.place, [(0, 0)]);
        assert_eq!(lw.n_count, 0);
        // Two exponential RaceEnable transitions: the startup program is
        // two stride-padded OP_RE_EXP records with inline rates.
        assert_eq!(lw.init_ops.len(), 2 * RECHECK_STRIDE);
        assert_eq!(lw.init_ops[0] & 0xff, OP_RE_EXP);
        assert_eq!(dec_f64(&lw.init_ops, 1), 0.8);
        assert_eq!(lw.init_ops[RECHECK_STRIDE] & 0xff, OP_RE_EXP);
        assert_eq!(dec_f64(&lw.init_ops, RECHECK_STRIDE + 1), 1.0);
    }
}
