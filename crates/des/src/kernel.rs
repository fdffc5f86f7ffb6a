//! Generic discrete-event simulation kernel: a time-ordered event queue
//! with stable tie-breaking and O(1) lazy cancellation.
//!
//! Cancellation uses a generation slab rather than a set of cancelled ids.
//! Every pending event holds one slot of the slab, and the slot records the
//! generation of its holder: the event's scheduling sequence number, which
//! is never reused. Heap entries carry their (slot, generation) pair, so a
//! popped entry is live exactly when its slot still holds its generation.
//! Cancelling, or firing, an event vacates its slot and returns it to the
//! free list; a stale heap entry is dropped when it reaches the top. No
//! per-event hashing is left, and the slab never holds more slots than the
//! largest number of events pending at once.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Handle to a scheduled event, usable for cancellation: the event's slab
/// slot and its generation there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    gen: u64,
}

/// Generation of a slab slot that holds no pending event. Sequence numbers
/// count up from 0, so no event ever has it.
const VACANT: u64 = u64::MAX;

struct Entry<E> {
    time: f64,
    priority: u8,
    /// Scheduling order (FIFO tie-break), also the event's generation.
    seq: u64,
    slot: u32,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for min-heap behavior on BinaryHeap (max-heap):
        // earliest time first; lowest priority value first among equal
        // times; FIFO among equal (time, priority).
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.priority.cmp(&self.priority))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Pending-event set of a discrete-event simulation.
///
/// Events with equal timestamps pop in scheduling (FIFO) order, which makes
/// simultaneous-event semantics explicit and runs reproducible.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Generation held by each slot (`VACANT` when free).
    slots: Vec<u64>,
    /// Vacant slots, reused before the slab grows.
    free: Vec<u32>,
    seq: u64,
    now: f64,
}

impl<E> EventQueue<E> {
    /// Empty queue starting at time 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
            now: 0.0,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedule `payload` at absolute time `time` (must not be in the past)
    /// with default priority 0.
    pub fn schedule_at(&mut self, time: f64, payload: E) -> EventId {
        self.schedule_at_pri(time, 0, payload)
    }

    /// Schedule with an explicit simultaneity priority: among events with
    /// equal timestamps, *lower* priority values fire first.
    ///
    /// This is how threshold timers are made to lose exact ties against
    /// work-delivering events — the boundary semantics behind the paper's
    /// optimum sitting exactly at `PDT = 0.00177 s`.
    pub fn schedule_at_pri(&mut self, time: f64, priority: u8, payload: E) -> EventId {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {}",
            self.now
        );
        assert!(time.is_finite(), "event time must be finite");
        let gen = self.seq;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = gen;
                slot
            }
            None => {
                self.slots.push(gen);
                u32::try_from(self.slots.len() - 1).expect("too many pending events")
            }
        };
        self.heap.push(Entry {
            time,
            priority,
            seq: gen,
            slot,
            payload,
        });
        self.seq += 1;
        EventId { slot, gen }
    }

    /// Schedule `payload` after a non-negative delay (priority 0).
    pub fn schedule_in(&mut self, delay: f64, payload: E) -> EventId {
        assert!(delay >= 0.0, "negative delay");
        self.schedule_at(self.now + delay, payload)
    }

    /// Schedule after a delay with an explicit simultaneity priority.
    pub fn schedule_in_pri(&mut self, delay: f64, priority: u8, payload: E) -> EventId {
        assert!(delay >= 0.0, "negative delay");
        self.schedule_at_pri(self.now + delay, priority, payload)
    }

    /// Cancel a previously scheduled event. Cancelling an already-fired or
    /// already-cancelled event is a no-op: its slot no longer holds its
    /// generation.
    pub fn cancel(&mut self, id: EventId) {
        if self.slots[id.slot as usize] == id.gen {
            self.vacate(id.slot);
        }
    }

    #[inline]
    fn vacate(&mut self, slot: u32) {
        self.slots[slot as usize] = VACANT;
        self.free.push(slot);
    }

    /// Pop the next live event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.pop_before(f64::INFINITY)
    }

    /// Pop the next live event if its timestamp is before `limit`,
    /// advancing the clock to it. Otherwise (or if nothing is pending)
    /// return `None` and leave the queue and the clock as they are. Stale
    /// entries of cancelled events are discarded on the way.
    #[inline]
    pub fn pop_before(&mut self, limit: f64) -> Option<(f64, E)> {
        loop {
            let top = self.heap.peek()?;
            if self.slots[top.slot as usize] != top.seq {
                self.heap.pop();
                continue;
            }
            if top.time >= limit {
                return None;
            }
            let entry = self.heap.pop().expect("peeked");
            self.vacate(entry.slot);
            debug_assert!(entry.time >= self.now, "time went backwards");
            self.now = entry.time;
            return Some((entry.time, entry.payload));
        }
    }

    /// Number of live events still pending.
    pub fn pending(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(3.0, "c");
        q.schedule_at(1.0, "a");
        q.schedule_at(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), 3.0);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        q.schedule_at(1.0, "first");
        q.schedule_at(1.0, "second");
        q.schedule_at(1.0, "third");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(1.0, "a");
        q.schedule_at(2.0, "b");
        q.cancel(a);
        assert_eq!(q.pop(), Some((2.0, "b")));
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(1.0, "a");
        assert_eq!(q.pop(), Some((1.0, "a")));
        q.cancel(a); // already fired
        q.schedule_at(2.0, "b");
        assert_eq!(q.pop(), Some((2.0, "b")));
    }

    #[test]
    fn schedule_in_uses_current_time() {
        let mut q = EventQueue::new();
        q.schedule_at(5.0, "x");
        q.pop();
        q.schedule_in(1.5, "y");
        assert_eq!(q.pop(), Some((6.5, "y")));
    }

    #[test]
    fn pop_before_respects_cancellation_and_limit() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(1.0, "a");
        q.schedule_at(2.0, "b");
        q.cancel(a);
        assert_eq!(q.pending(), 1);
        // The next live event is at 2.0: not before 2.0, so it stays put
        // and the clock does not move.
        assert_eq!(q.pop_before(2.0), None);
        assert_eq!(q.now(), 0.0);
        assert_eq!(q.pending(), 1);
        assert_eq!(q.pop_before(2.5), Some((2.0, "b")));
        assert_eq!(q.pop_before(f64::INFINITY), None);
    }

    #[test]
    fn priority_breaks_ties_before_fifo() {
        let mut q = EventQueue::new();
        q.schedule_at_pri(1.0, 5, "timer"); // scheduled first...
        q.schedule_at_pri(1.0, 0, "work"); // ...but work outranks it
        assert_eq!(q.pop().unwrap().1, "work");
        assert_eq!(q.pop().unwrap().1, "timer");
    }

    #[test]
    fn priority_only_matters_at_equal_times() {
        let mut q = EventQueue::new();
        q.schedule_at_pri(1.0, 5, "early-low-pri");
        q.schedule_at_pri(2.0, 0, "late-high-pri");
        assert_eq!(q.pop().unwrap().1, "early-low-pri");
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn past_scheduling_rejected() {
        let mut q = EventQueue::new();
        q.schedule_at(5.0, "x");
        q.pop();
        q.schedule_at(1.0, "y");
    }

    #[test]
    #[should_panic(expected = "negative delay")]
    fn negative_delay_rejected() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.schedule_in(-0.1, "x");
    }

    #[test]
    fn pending_counts_live_events() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert_eq!(q.pending(), 0);
        assert_eq!(q.pop(), None);
        let a = q.schedule_at(1.0, 1);
        assert_eq!(q.pending(), 1);
        q.cancel(a);
        assert_eq!(q.pending(), 0);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_after_fire_leaves_no_state() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(1.0, 0u32);
        assert_eq!(q.pop(), Some((1.0, 0)));
        q.cancel(a); // already fired
        q.cancel(a); // and again
        let b = q.schedule_at(2.0, 1);
        q.cancel(b);
        q.cancel(b); // already cancelled
        for i in 2..10u32 {
            q.schedule_in(1.0, i);
            let (_, got) = q.pop().unwrap();
            assert_eq!(got, i);
            q.cancel(a);
            q.cancel(b);
        }
        assert_eq!(q.pop(), None);
        // Nothing pending, no heap entry, and the slab never grew past the
        // largest number of events pending at once (one).
        assert_eq!(q.pending(), 0);
        assert!(q.heap.is_empty());
        assert_eq!(q.slots, [VACANT]);
        assert_eq!(q.free, [0]);
    }

    #[test]
    fn reused_slot_does_not_resurrect_a_cancelled_event() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(1.0, "a");
        q.cancel(a);
        // `b` takes `a`'s slot; `a`'s stale entry must not fire as `b`,
        // and cancelling `a` again must not cancel `b`.
        q.schedule_at(2.0, "b");
        q.cancel(a);
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), None);
    }

    /// Reference model: the pending events as a plain list, popped by a
    /// linear scan for the least `(time, priority, seq)`.
    #[derive(Default)]
    struct Model {
        pending: Vec<(f64, u8, u64)>,
        now: f64,
    }

    impl Model {
        fn pop_before(&mut self, limit: f64) -> Option<(f64, u64)> {
            let i = (0..self.pending.len()).min_by(|&i, &j| {
                let (a, b) = (self.pending[i], self.pending[j]);
                a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
            })?;
            if self.pending[i].0 >= limit {
                return None;
            }
            let (time, _, tag) = self.pending.remove(i);
            self.now = time;
            Some((time, tag))
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of scheduling (absolute and relative, with
        /// priorities), bounded pops and cancellation of pending, fired and
        /// cancelled ids agree with the model on every pop. Delays come
        /// from a set of four exact binary fractions, so exact time ties
        /// are common.
        #[test]
        fn queue_matches_a_sorted_list_model(
            ops in proptest::collection::vec((0u8..4, 0usize..4, 0u8..3, 0usize..64), 1..80)
        ) {
            const DELAYS: [f64; 4] = [0.0, 0.25, 0.5, 1.0];
            let mut q = EventQueue::new();
            let mut m = Model::default();
            let mut ids: Vec<EventId> = Vec::new();
            for (kind, d, pri, pick) in ops {
                let tag = ids.len() as u64;
                match kind {
                    0 => {
                        let time = q.now() + DELAYS[d];
                        ids.push(q.schedule_at(time, tag));
                        m.pending.push((time, 0, tag));
                    }
                    1 => {
                        ids.push(q.schedule_in_pri(DELAYS[d], pri, tag));
                        m.pending.push((m.now + DELAYS[d], pri, tag));
                    }
                    2 => {
                        let limit = if d == 3 { f64::INFINITY } else { q.now() + DELAYS[d] };
                        prop_assert_eq!(q.pop_before(limit), m.pop_before(limit));
                    }
                    _ => {
                        if !ids.is_empty() {
                            let victim = pick % ids.len();
                            q.cancel(ids[victim]);
                            m.pending.retain(|e| e.2 != victim as u64);
                        }
                    }
                }
                prop_assert_eq!(q.now(), m.now);
                prop_assert_eq!(q.pending(), m.pending.len());
            }
            // Drain: everything left pops in model order.
            loop {
                let got = q.pop();
                prop_assert_eq!(got, m.pop_before(f64::INFINITY));
                if got.is_none() {
                    break;
                }
            }
            prop_assert!(q.heap.is_empty());
        }
    }
}
