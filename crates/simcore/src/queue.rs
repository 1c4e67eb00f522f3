//! The pending-event set: a slab-backed event arena.
//!
//! A classic discrete-event simulator is a loop around a priority queue of
//! timestamped events. Two properties matter for reproducibility:
//!
//! 1. **Deterministic tie-breaking** — events scheduled for the same instant
//!    fire in scheduling order (FIFO), enforced with a monotone sequence
//!    number in the heap key `(SimTime, seq)`.
//! 2. **Cancellation** — models cancel timers (e.g. an autoscaler probe after
//!    shutdown) without scanning the heap.
//!
//! The implementation is built for the hot path (see DESIGN.md):
//!
//! * **Slab slots** — every pending event lives in a slot of one flat
//!   `Vec<Slot<E>>`. Fired and cancelled slots go on a free list and are
//!   reused, so a steady-state simulation performs no per-event heap
//!   allocation after warm-up.
//! * **Generation tags** — each slot carries a generation counter bumped on
//!   every release. An [`EventId`] is `(slot, generation)`, so a stale handle
//!   (the event already fired or was cancelled, even if the slot was reused)
//!   can never cancel the wrong event — `cancel` on it is a `false` no-op.
//! * **Indexed four-ary min-heap** — the heap stores slot indices and every
//!   slot remembers its heap position, so cancellation removes the entry in
//!   O(log n) with no tombstone `HashSet` and no skip loop on pop. Four-ary
//!   keeps the heap a level shallower than binary and sifts through
//!   cache-adjacent children.

use crate::time::SimTime;

/// Branching factor of the heap. Four children per node halves the depth of
/// a binary heap and keeps all children of a node in one or two cache lines.
const ARITY: usize = 4;

/// Identifies a scheduled event, for cancellation.
///
/// The id pairs the slot index with the slot's generation at scheduling
/// time, so ids stay unambiguous when slots are reused: once the event
/// fires or is cancelled the generation advances and the old id goes stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    slot: u32,
    generation: u32,
}

impl EventId {
    /// The id packed into one integer (generation in the high half), for
    /// logging and map keys.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        ((self.generation as u64) << 32) | self.slot as u64
    }
}

/// One arena slot. `payload` is `Some` while the event is pending; `time`,
/// `seq` and `heap_pos` are only meaningful then.
struct Slot<E> {
    generation: u32,
    heap_pos: u32,
    seq: u64,
    time: SimTime,
    payload: Option<E>,
}

/// A time-ordered queue of pending events with O(log n) push, pop and
/// cancellation, backed by a slab of reusable slots.
///
/// # Examples
///
/// ```
/// use elc_simcore::queue::EventQueue;
/// use elc_simcore::time::SimTime;
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.push(SimTime::from_secs(2), "later");
/// q.push(SimTime::from_secs(1), "sooner");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (SimTime::from_secs(1), "sooner"));
/// ```
pub struct EventQueue<E> {
    /// The slab: one slot per event that has ever been pending, reused via
    /// `free`.
    slots: Vec<Slot<E>>,
    /// Indices of released slots, ready for reuse (LIFO keeps hot slots hot).
    free: Vec<u32>,
    /// Four-ary min-heap of occupied slot indices, ordered by `(time, seq)`.
    heap: Vec<u32>,
    /// Next FIFO tie-break sequence number.
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            heap: Vec::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` pending events before
    /// any slab growth.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            heap: Vec::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Schedules `payload` at `time` and returns a handle for cancellation.
    #[inline]
    pub fn push(&mut self, time: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let pos = self.heap.len() as u32;
        // Fill the slot in one borrow: `heap_pos` is written and
        // `generation` read while the slot is already in hand, so the hot
        // loop touches `slots` exactly once per push.
        let (slot, generation) = match self.free.pop() {
            Some(i) => {
                let s = &mut self.slots[i as usize];
                s.time = time;
                s.seq = seq;
                s.heap_pos = pos;
                s.payload = Some(payload);
                (i, s.generation)
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("more than u32::MAX pending events");
                self.slots.push(Slot {
                    generation: 0,
                    heap_pos: pos,
                    seq,
                    time,
                    payload: Some(payload),
                });
                (i, 0)
            }
        };
        self.heap.push(slot);
        self.sift_up(pos as usize);
        EventId { slot, generation }
    }

    /// Schedules a batch of events in one call.
    ///
    /// Equivalent to pushing each `(time, payload)` in iteration order (so
    /// FIFO tie-breaking follows the iterator), but reserves heap and slab
    /// space up front — the entry point bursty arrival models use via
    /// `Simulation::schedule_batch`.
    pub fn push_batch<I>(&mut self, items: I)
    where
        I: IntoIterator<Item = (SimTime, E)>,
    {
        let items = items.into_iter();
        let (lower, _) = items.size_hint();
        let growth = lower.saturating_sub(self.free.len());
        self.slots.reserve(growth);
        self.heap.reserve(lower);
        for (time, payload) in items {
            let _ = self.push(time, payload);
        }
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending. Cancelling an already
    /// fired or already cancelled event — even one whose slot has since been
    /// reused by a newer event — returns `false` and is harmless.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get(id.slot as usize) {
            Some(s) if s.generation == id.generation && s.payload.is_some() => {
                let pos = s.heap_pos as usize;
                let slot = self.detach_at(pos);
                // Drop the payload in place — a cancelled event's handler
                // is never moved out of the arena.
                self.slots[slot as usize].payload = None;
                true
            }
            _ => false,
        }
    }

    /// True if the event behind `id` is still pending — not yet fired and
    /// not cancelled. A stale id (the slot was reused by a newer event)
    /// reports `false`, same as [`EventQueue::cancel`] on it would.
    #[must_use]
    pub fn contains(&self, id: EventId) -> bool {
        matches!(
            self.slots.get(id.slot as usize),
            Some(s) if s.generation == id.generation && s.payload.is_some()
        )
    }

    /// Removes and returns the earliest pending event.
    ///
    /// Ties fire in scheduling (FIFO) order.
    #[inline(always)]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.heap.is_empty() {
            None
        } else {
            let slot = self.detach_at(0);
            // The payload moves slot → caller here, in inlined code with no
            // intervening call site, so it is copied exactly once.
            let s = &mut self.slots[slot as usize];
            let payload = s.payload.take().expect("pending slot holds a payload");
            Some((s.time, payload))
        }
    }

    /// The timestamp of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap
            .first()
            .map(|&slot| self.slots[slot as usize].time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Detaches the heap entry at `pos`: removes it from the heap, bumps
    /// the slot generation and releases the slot index to the free list.
    /// Returns the slot; the *payload is left in the slot* for the caller
    /// to move out ([`EventQueue::pop`]) or drop in place
    /// ([`EventQueue::cancel`]). Keeping the payload out of this function
    /// means its one potentially allocating call (`free.push`) never has a
    /// live payload on the stack across it — the compiler then moves the
    /// payload slot → caller in a single copy. The caller guarantees `pos`
    /// is in bounds and must clear `payload` before the next push reuses
    /// the slot.
    #[inline(always)]
    fn detach_at(&mut self, pos: usize) -> u32 {
        let slot = self.heap[pos];
        let last = self.heap.pop().expect("heap entry exists at pos");
        if last != slot {
            // Move the former last element into the hole, then restore the
            // heap invariant around it.
            self.heap[pos] = last;
            self.slots[last as usize].heap_pos = pos as u32;
            if !self.sift_up(pos) {
                self.sift_down(pos);
            }
        }
        self.free.push(slot);
        self.slots[slot as usize].generation = self.slots[slot as usize].generation.wrapping_add(1);
        slot
    }

    /// True when the event in `slots[a]` fires before the one in `slots[b]`.
    #[inline]
    fn fires_before(&self, a: u32, b: u32) -> bool {
        let (sa, sb) = (&self.slots[a as usize], &self.slots[b as usize]);
        (sa.time, sa.seq) < (sb.time, sb.seq)
    }

    /// Moves the element at `pos` up while it beats its parent. Returns
    /// whether it moved.
    #[inline]
    fn sift_up(&mut self, mut pos: usize) -> bool {
        let mut moved = false;
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if !self.fires_before(self.heap[pos], self.heap[parent]) {
                break;
            }
            self.heap.swap(pos, parent);
            self.slots[self.heap[pos] as usize].heap_pos = pos as u32;
            self.slots[self.heap[parent] as usize].heap_pos = parent as u32;
            pos = parent;
            moved = true;
        }
        moved
    }

    /// Moves the element at `pos` down while any child beats it.
    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let first = ARITY * pos + 1;
            if first >= self.heap.len() {
                break;
            }
            let mut best = first;
            for child in first + 1..(first + ARITY).min(self.heap.len()) {
                if self.fires_before(self.heap[child], self.heap[best]) {
                    best = child;
                }
            }
            if !self.fires_before(self.heap[best], self.heap[pos]) {
                break;
            }
            self.heap.swap(pos, best);
            self.slots[self.heap[pos] as usize].heap_pos = pos as u32;
            self.slots[self.heap[best] as usize].heap_pos = best as u32;
            pos = best;
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("slots", &self.slots.len())
            .field("issued", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 'c');
        q.push(SimTime::from_secs(1), 'a');
        q.push(SimTime::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_fire_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn contains_reflects_pending_fired_and_reused_slots() {
        let mut q = EventQueue::new();
        let id = q.push(SimTime::from_secs(1), "first");
        assert!(q.contains(id));
        let _ = q.pop();
        assert!(!q.contains(id), "fired event is gone");
        // The slot is reused with a bumped generation: the old id must
        // not match the new occupant.
        let id2 = q.push(SimTime::from_secs(2), "second");
        assert!(!q.contains(id));
        assert!(q.contains(id2));
        assert!(q.cancel(id2));
        assert!(!q.contains(id2));
    }

    #[test]
    fn cancel_skips_event() {
        let mut q = EventQueue::new();
        let id = q.push(SimTime::from_secs(1), "cancel me");
        q.push(SimTime::from_secs(2), "keep me");
        assert!(q.cancel(id));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "keep me");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_twice_is_false() {
        let mut q = EventQueue::new();
        let id = q.push(SimTime::ZERO, ());
        assert!(q.cancel(id));
        assert!(!q.cancel(id));
    }

    #[test]
    fn cancel_after_fire_is_false() {
        let mut q = EventQueue::new();
        let id = q.push(SimTime::ZERO, ());
        assert!(q.pop().is_some());
        assert!(!q.cancel(id), "fired events cannot be cancelled");
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut donor = EventQueue::new();
        let foreign = donor.push(SimTime::from_secs(99), ());
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(foreign));
    }

    #[test]
    fn stale_id_does_not_cancel_reused_slot() {
        let mut q = EventQueue::new();
        let old = q.push(SimTime::from_secs(1), "first");
        assert!(q.cancel(old));
        // The slot is reused by a new event with a bumped generation.
        let new = q.push(SimTime::from_secs(2), "second");
        assert_eq!(q.len(), 1);
        assert!(!q.cancel(old), "stale id must be a no-op");
        assert_eq!(q.pop().unwrap().1, "second");
        assert!(!q.cancel(new));
    }

    #[test]
    fn event_ids_stay_unique_across_reuse() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::ZERO, 1);
        q.pop();
        let b = q.push(SimTime::ZERO, 2);
        assert_ne!(a, b);
        assert_ne!(a.as_u64(), b.as_u64());
    }

    #[test]
    fn peek_time_tracks_cancellations() {
        let mut q = EventQueue::new();
        let id = q.push(SimTime::from_secs(1), "x");
        q.push(SimTime::from_secs(5), "y");
        q.cancel(id);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), "late");
        q.push(SimTime::from_secs(1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.push(SimTime::from_secs(5), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    #[test]
    fn push_batch_keeps_fifo_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.push(t, 0);
        q.push_batch((1..5).map(|i| (t, i)));
        q.push(t, 5);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn slab_reuses_slots_instead_of_growing() {
        let mut q = EventQueue::new();
        for round in 0..100u32 {
            q.push(SimTime::from_secs(u64::from(round)), round);
            q.pop();
        }
        assert_eq!(q.slots.len(), 1, "steady-state churn must reuse one slot");
    }

    /// Randomised schedule/cancel interleavings against a naive reference
    /// model: every drain must come out in exact `(time, seq)` order with the
    /// cancelled events absent, and stale ids must never cancel anything.
    #[test]
    fn cancellation_stress_matches_reference() {
        let mut rng = SimRng::seed(0xE1C2);
        for round in 0..50 {
            let mut q = EventQueue::new();
            let mut live: Vec<(EventId, u64, u32)> = Vec::new(); // (id, time_s, tag)
            let mut stale: Vec<EventId> = Vec::new();
            let mut expected: Vec<(u64, u32)> = Vec::new();
            let mut tag = 0u32;

            for _ in 0..200 {
                match rng.next_below(4) {
                    // Schedule (heavier weight): random time in a small
                    // window so ties are common.
                    0 | 1 => {
                        let t = rng.next_below(16);
                        let id = q.push(SimTime::from_secs(t), tag);
                        live.push((id, t, tag));
                        tag += 1;
                    }
                    // Cancel a random live event.
                    2 if !live.is_empty() => {
                        let at = rng.next_below(live.len() as u64) as usize;
                        let (id, _, _) = live.swap_remove(at);
                        assert!(q.cancel(id), "round {round}: live cancel must hit");
                        stale.push(id);
                    }
                    // Replay a stale id: must be a no-op.
                    _ => {
                        if let Some(&id) = stale.last() {
                            let before = q.len();
                            assert!(!q.cancel(id), "round {round}: stale cancel must miss");
                            assert_eq!(q.len(), before);
                        }
                    }
                }
                assert_eq!(q.len(), live.len(), "round {round}: length drifted");
            }

            // Scheduling order within equal times == FIFO == tag order,
            // because tags increase monotonically with seq.
            live.sort_by_key(|&(_, t, tg)| (t, tg));
            expected.extend(live.iter().map(|&(_, t, tg)| (t, tg)));
            let mut drained = Vec::new();
            while let Some((t, tg)) = q.pop() {
                drained.push((t.as_nanos() / 1_000_000_000, tg));
            }
            assert_eq!(drained, expected, "round {round}: drain order diverged");

            // After a full drain every stale id is dead.
            for id in live.iter().map(|&(id, ..)| id).chain(stale) {
                assert!(!q.cancel(id), "round {round}: id survived drain");
            }
        }
    }

    #[test]
    fn with_capacity_preallocates() {
        let q: EventQueue<u8> = EventQueue::with_capacity(64);
        assert!(q.is_empty());
        assert!(q.slots.capacity() >= 64);
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<()> = EventQueue::new();
        assert!(format!("{q:?}").contains("EventQueue"));
    }
}
