//! Time-ordered pending-event queue with indexed O(log n) cancellation.
//!
//! The MAC simulator schedules events (backoff expiry, transmission end, ACK
//! timeout, …) and must be able to *cancel* them. The queue is an
//! **indexed 4-ary heap**: entries live in a flat array heap-ordered
//! by `(time, seq)`, and a generation-tagged slot slab maps every
//! [`EventToken`] to its current heap position. Cancellation removes the
//! entry in place (swap with the last entry, sift) — no tombstones
//! accumulate, no hashing happens anywhere on the hot path, and `len` /
//! `is_empty` count live entries in O(1). The 4-ary layout halves the tree
//! depth of a binary heap and keeps sift-down children in one cache line —
//! this queue is the MAC simulator's innermost structure.
//!
//! Determinism: events at equal timestamps pop in scheduling (FIFO) order
//! (`seq` breaks ties), so a simulation's behaviour is a pure function of
//! its inputs and RNG stream.
//!
//! Allocation discipline: the heap array, the slot slab and the free list
//! are the only allocations, they grow to the high-water mark and stay
//! there, and [`EventQueue::reset`] recycles all three — a simulator arena
//! can run millions of trials on one queue without touching the allocator.

use contention_core::time::Nanos;

/// Handle to a scheduled event; used to cancel it. Tokens are
/// generation-tagged: a token for an event that already fired (or was
/// cancelled) is detected as stale even after its slot is reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventToken {
    slot: u32,
    gen: u32,
}

/// Heap arity. Four keeps the tree shallow and sibling comparisons local.
const D: usize = 4;
/// Slab `pos` marker for "not in the heap" (free or fired).
const NOT_IN_HEAP: u32 = u32::MAX;

struct Entry<E> {
    at: Nanos,
    seq: u64,
    slot: u32,
    payload: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (Nanos, u64) {
        (self.at, self.seq)
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    gen: u32,
    /// Index into `heap`, or [`NOT_IN_HEAP`].
    pos: u32,
}

/// The queue. `E` is the event payload type.
pub struct EventQueue<E> {
    heap: Vec<Entry<E>>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    next_seq: u64,
    now: Nanos,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            now: Nanos::ZERO,
        }
    }

    /// Current simulated time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Live events pending. Exact and O(1): cancellation removes entries
    /// immediately, so there are no tombstones to see through.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no live events remain. Exact and O(1).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Clears the queue for a fresh trial, keeping every allocation (heap
    /// array, slot slab, free list) at its high-water capacity. All
    /// outstanding tokens are invalidated by a generation bump.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.free.clear();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            slot.gen = slot.gen.wrapping_add(1);
            slot.pos = NOT_IN_HEAP;
            self.free.push(i as u32);
        }
        self.next_seq = 0;
        self.now = Nanos::ZERO;
    }

    /// Schedule `payload` at absolute time `at`, which must not precede the
    /// current time (no time travel).
    pub fn schedule(&mut self, at: Nanos, payload: E) -> EventToken {
        assert!(
            at >= self.now,
            "scheduling into the past: {} < {}",
            at,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(Slot {
                    gen: 0,
                    pos: NOT_IN_HEAP,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let gen = self.slots[slot as usize].gen;
        let pos = self.heap.len();
        self.heap.push(Entry {
            at,
            seq,
            slot,
            payload,
        });
        self.slots[slot as usize].pos = pos as u32;
        self.sift_up(pos);
        EventToken { slot, gen }
    }

    /// Cancel a previously scheduled event, removing it from the heap in
    /// place (O(log n), no tombstone). Cancelling an already-fired or
    /// already-cancelled event is a no-op (returns `false`).
    pub fn cancel(&mut self, token: EventToken) -> bool {
        match self.live_pos(token) {
            Some(pos) => {
                self.retire(token.slot);
                self.remove_at(pos);
                true
            }
            None => false,
        }
    }

    /// Pop the earliest live event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        if self.heap.is_empty() {
            return None;
        }
        // Specialized root removal: the displaced tail entry can only move
        // down, so skip `remove_at`'s up-sift.
        let entry = self.heap.swap_remove(0);
        if !self.heap.is_empty() {
            self.sift_down(0); // writes the displaced entry's slab position
        }
        self.retire(entry.slot);
        debug_assert!(entry.at >= self.now, "heap yielded a past event");
        self.now = entry.at;
        Some((entry.at, entry.payload))
    }

    /// Heap position of a token's entry, if the event is still pending.
    #[inline]
    fn live_pos(&self, token: EventToken) -> Option<u32> {
        let slot = self.slots.get(token.slot as usize)?;
        (slot.gen == token.gen && slot.pos != NOT_IN_HEAP).then_some(slot.pos)
    }

    /// Invalidate a slot's tokens and put it back on the free list.
    #[inline]
    fn retire(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        s.pos = NOT_IN_HEAP;
        self.free.push(slot);
    }

    /// Remove and return the entry at `pos`, restoring the heap property.
    fn remove_at(&mut self, pos: u32) -> Entry<E> {
        let pos = pos as usize;
        let last = self.heap.len() - 1;
        self.heap.swap(pos, last);
        let entry = self.heap.pop().expect("heap is non-empty");
        if pos < self.heap.len() {
            // The displaced tail entry may need to move either way relative
            // to its new neighbourhood.
            self.slots[self.heap[pos].slot as usize].pos = pos as u32;
            self.sift_down(pos);
            self.sift_up(pos);
        }
        entry
    }

    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / D;
            if self.heap[pos].key() < self.heap[parent].key() {
                self.heap.swap(pos, parent);
                self.slots[self.heap[pos].slot as usize].pos = pos as u32;
                pos = parent;
            } else {
                break;
            }
        }
        self.slots[self.heap[pos].slot as usize].pos = pos as u32;
    }

    fn sift_down(&mut self, mut pos: usize) {
        let len = self.heap.len();
        loop {
            let first_child = pos * D + 1;
            if first_child >= len {
                break;
            }
            let mut best = first_child;
            let mut best_key = self.heap[best].key();
            for child in (first_child + 1)..(first_child + D).min(len) {
                let key = self.heap[child].key();
                if key < best_key {
                    best = child;
                    best_key = key;
                }
            }
            if best_key < self.heap[pos].key() {
                self.heap.swap(pos, best);
                self.slots[self.heap[pos].slot as usize].pos = pos as u32;
                pos = best;
            } else {
                break;
            }
        }
        self.slots[self.heap[pos].slot as usize].pos = pos as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(x: u64) -> Nanos {
        Nanos::from_micros(x)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(us(30), "c");
        q.schedule(us(10), "a");
        q.schedule(us(20), "b");
        assert_eq!(q.pop(), Some((us(10), "a")));
        assert_eq!(q.pop(), Some((us(20), "b")));
        assert_eq!(q.pop(), Some((us(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.schedule(us(5), 1);
        q.schedule(us(5), 2);
        q.schedule(us(5), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(us(10), ());
        assert_eq!(q.now(), Nanos::ZERO);
        q.pop();
        assert_eq!(q.now(), us(10));
        q.schedule(q.now() + us(5), ());
        assert_eq!(q.pop().unwrap().0, us(15));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_scheduling() {
        let mut q = EventQueue::new();
        q.schedule(us(10), ());
        q.pop();
        q.schedule(us(5), ());
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let t1 = q.schedule(us(10), "dropme");
        q.schedule(us(20), "keep");
        assert!(q.cancel(t1));
        assert_eq!(q.pop(), Some((us(20), "keep")));
    }

    #[test]
    fn double_cancel_and_cancel_after_fire() {
        let mut q = EventQueue::new();
        let t = q.schedule(us(10), ());
        assert!(q.cancel(t));
        assert!(!q.cancel(t), "second cancel must be a no-op");
        let t2 = q.schedule(us(20), ());
        q.pop();
        // t2 has fired; cancelling it afterwards must not poison later
        // events, even though its slot has been recycled (generation tag).
        assert!(!q.cancel(t2));
        q.schedule(us(30), ());
        assert!(q.pop().is_some());
    }

    #[test]
    fn len_and_is_empty_are_exact_after_cancellation() {
        // Satellite guarantee: cancelled-entry bookkeeping is O(1) because
        // there are no tombstones — `len` counts live entries the moment
        // `cancel` returns, and `is_empty` needs no draining (`&self`).
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        let tokens: Vec<EventToken> = (0..10).map(|i| q.schedule(us(10 + i), i as u32)).collect();
        assert_eq!(q.len(), 10);
        for (i, t) in tokens.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
            assert!(q.cancel(*t));
            assert_eq!(q.len(), 10 - i / 2 - 1);
        }
        assert_eq!(q.len(), 5);
        assert!(!q.is_empty());
        for t in &tokens {
            q.cancel(*t);
        }
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn reset_recycles_without_leaking_tokens() {
        let mut q = EventQueue::new();
        let stale = q.schedule(us(10), 1);
        q.schedule(us(20), 2);
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), Nanos::ZERO);
        // A token from before the reset must not cancel anything scheduled
        // after it, even though slots are reused.
        let fresh = q.schedule(us(5), 3);
        assert!(!q.cancel(stale));
        assert_eq!(q.len(), 1);
        assert!(q.cancel(fresh));
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_pop_cancel_stress() {
        let mut q = EventQueue::new();
        let mut tokens = Vec::new();
        for i in 0..100u64 {
            tokens.push(q.schedule(Nanos(i * 10), i));
        }
        // Cancel every third event.
        for (i, t) in tokens.iter().enumerate() {
            if i % 3 == 0 {
                q.cancel(*t);
            }
        }
        let mut seen = Vec::new();
        while let Some((_, i)) = q.pop() {
            seen.push(i);
        }
        let expected: Vec<u64> = (0..100).filter(|i| i % 3 != 0).collect();
        assert_eq!(seen, expected);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Reference model: a sorted-on-demand `Vec` of `(time, seq, id)` with
    /// linear-scan cancellation — obviously correct, O(n) per op.
    #[derive(Default)]
    struct NaiveQueue {
        pending: Vec<(u64, u64, usize)>,
        next_seq: u64,
        now: u64,
    }

    impl NaiveQueue {
        fn schedule(&mut self, at: u64, id: usize) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.pending.push((at, seq, id));
        }

        fn cancel(&mut self, id: usize) -> bool {
            match self.pending.iter().position(|&(_, _, i)| i == id) {
                Some(pos) => {
                    self.pending.remove(pos);
                    true
                }
                None => false,
            }
        }

        fn pop(&mut self) -> Option<(u64, usize)> {
            let best = self.pending.iter().enumerate().min_by_key(|(_, e)| **e)?;
            let (at, _, id) = *best.1;
            let pos = best.0;
            self.pending.remove(pos);
            self.now = at;
            Some((at, id))
        }
    }

    /// One scripted operation over both queues.
    #[derive(Debug, Clone)]
    enum Op {
        Schedule { delay: u64 },
        Cancel { pick: usize },
        Pop,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (1u64..500).prop_map(|delay| Op::Schedule { delay }),
            (0usize..64).prop_map(|pick| Op::Cancel { pick }),
            Just(Op::Pop),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The indexed heap agrees with the naive sorted-Vec model under
        /// arbitrary interleavings of schedule / cancel / pop —
        /// same pop sequence, same cancel outcomes, same clock, same len.
        #[test]
        fn matches_naive_reference_model(
            ops in prop::collection::vec(op_strategy(), 1..200),
        ) {
            let mut q = EventQueue::new();
            let mut model = NaiveQueue::default();
            // id -> token for events the *model* still considers pending.
            let mut live: Vec<(usize, EventToken)> = Vec::new();
            let mut next_id = 0usize;
            for op in ops {
                match op {
                    Op::Schedule { delay } => {
                        let at = model.now + delay;
                        let token = q.schedule(Nanos(at), next_id);
                        model.schedule(at, next_id);
                        live.push((next_id, token));
                        next_id += 1;
                    }
                    Op::Cancel { pick } => {
                        if live.is_empty() { continue; }
                        let (id, token) = live[pick % live.len()];
                        prop_assert_eq!(q.cancel(token), model.cancel(id));
                        live.retain(|&(i, _)| i != id);
                        // Cancelling again must be a no-op on both.
                        prop_assert!(!q.cancel(token));
                        prop_assert!(!model.cancel(id));
                    }
                    Op::Pop => {
                        let got = q.pop().map(|(at, id)| (at.as_nanos(), id));
                        let want = model.pop();
                        prop_assert_eq!(got, want);
                        if let Some((_, id)) = want {
                            live.retain(|&(i, _)| i != id);
                        }
                        prop_assert_eq!(q.now().as_nanos(), model.now);
                    }
                }
                prop_assert_eq!(q.len(), model.pending.len());
                prop_assert_eq!(q.is_empty(), model.pending.is_empty());
            }
            // Drain: remaining events agree in full.
            loop {
                let got = q.pop().map(|(at, id)| (at.as_nanos(), id));
                let want = model.pop();
                prop_assert_eq!(got, want);
                if want.is_none() { break; }
            }
        }

        /// The clock equals the last popped timestamp and never regresses
        /// under interleaved schedule/pop.
        #[test]
        fn clock_is_monotone(delays in prop::collection::vec(1u64..500, 1..60)) {
            let mut q = EventQueue::new();
            let mut last = Nanos::ZERO;
            for (i, &d) in delays.iter().enumerate() {
                q.schedule(q.now() + Nanos(d), i);
                let (at, _) = q.pop().expect("just scheduled");
                prop_assert!(at >= last);
                prop_assert_eq!(q.now(), at);
                last = at;
            }
        }
    }
}
