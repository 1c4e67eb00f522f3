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
//! * **Sorted-run lane** — [`EventQueue::push_batch`] appends each batch
//!   event whose time is at or after the lane's last time to a FIFO ring
//!   of `(time, seq, payload)` instead of the heap. Seqs are issued in
//!   push order, so the lane is always sorted by `(time, seq)`, and
//!   [`EventQueue::pop`] merges it with the heap by comparing the lane
//!   front with the heap top on that same key: the drain order is exactly
//!   the one an all-heap queue gives. A batch event earlier than the
//!   lane's last time (an unsorted batch, or one overlapping a lane still
//!   pending) takes the ordinary heap push. A sorted burst of n arrivals
//!   therefore costs O(1) per event on both push and pop instead of two
//!   cache-missing sifts. Lane events get no [`EventId`] and cannot be
//!   cancelled. A ring popped to empty keeps its head offset, so the next
//!   batch rewinds it to the start first; each batch then fills the ring
//!   from the front instead of wrapping through its whole capacity.

use std::collections::VecDeque;

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
/// cancellation, backed by a slab of reusable slots, plus an O(1) lane
/// for sorted batches.
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
    /// Batch events in `(time, seq)` order, merged with the heap on pop.
    lane: VecDeque<(SimTime, u64, E)>,
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
            lane: VecDeque::new(),
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
            lane: VecDeque::new(),
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
    /// FIFO tie-breaking follows the iterator). Items at or after the
    /// lane's last time join the sorted-run lane at O(1) each; any other
    /// item takes the ordinary heap push. Batch events get no [`EventId`].
    /// The entry point bursty arrival models use via
    /// `Simulation::schedule_batch`.
    pub fn push_batch<I>(&mut self, items: I)
    where
        I: IntoIterator<Item = (SimTime, E)>,
    {
        if self.lane.is_empty() {
            // Rewind the ring: an emptied `VecDeque` keeps its head offset.
            self.lane.clear();
        }
        let items = items.into_iter();
        self.lane.reserve(items.size_hint().0);
        for (time, payload) in items {
            if self.lane.back().is_none_or(|&(last, ..)| time >= last) {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.lane.push_back((time, seq, payload));
            } else {
                let _ = self.push(time, payload);
            }
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

    /// Removes and returns the earliest pending event.
    ///
    /// Ties fire in scheduling (FIFO) order.
    #[inline(always)]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_lane().or_else(|| self.pop_heap())
    }

    /// Pops the lane front if it fires before the heap top. With an empty
    /// lane this is one `is_empty` test.
    ///
    /// [`EventQueue::pop`] is `pop_lane` then [`EventQueue::pop_heap`];
    /// the executive calls the two itself and dispatches each result in
    /// its own branch, so neither payload is merged through a shared stack
    /// temporary (which would cost a second copy).
    #[inline(always)]
    pub(crate) fn pop_lane(&mut self) -> Option<(SimTime, E)> {
        if self.lane.is_empty() || !self.lane_leads() {
            return None;
        }
        self.lane
            .pop_front()
            .map(|(time, _, payload)| (time, payload))
    }

    /// Pops the heap top. Only valid as the fallback after
    /// [`EventQueue::pop_lane`] returned `None`.
    #[inline(always)]
    pub(crate) fn pop_heap(&mut self) -> Option<(SimTime, E)> {
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
        let heap = self
            .heap
            .first()
            .map(|&slot| self.slots[slot as usize].time);
        match self.lane.front() {
            Some(&(time, ..)) => Some(heap.map_or(time, |h| h.min(time))),
            None => heap,
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// True if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }

    /// True when the lane front fires before the heap top (or the heap is
    /// empty). The caller guarantees the lane is non-empty.
    #[inline(always)]
    fn lane_leads(&self) -> bool {
        let &(time, seq, _) = self.lane.front().expect("lane is non-empty");
        self.heap.first().is_none_or(|&top| {
            let s = &self.slots[top as usize];
            (time, seq) < (s.time, s.seq)
        })
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

    /// Random mixes of sorted batches, unsorted batches, batches that
    /// overlap a lane still pending, singles, cancels and pops against a
    /// naive reference: every pop, and the final drain, must come out in
    /// exact `(time, seq)` order, and `len`/`peek_time` must be right after
    /// every step.
    #[test]
    fn lane_stress_matches_reference() {
        let mut rng = SimRng::seed(0x1A4E);
        for round in 0..50 {
            let mut q = EventQueue::new();
            // (time_s, tag, id for singles); tags grow with seq, so
            // `(time, tag)` order is `(time, seq)` order.
            let mut pending: Vec<(u64, u32, Option<EventId>)> = Vec::new();
            let mut tag = 0u32;
            // Times never precede the last pop, as in the executive.
            let mut floor = 0u64;

            for step in 0..300 {
                match rng.next_below(7) {
                    0 => {
                        let t = floor + rng.next_below(16);
                        let id = q.push(SimTime::from_secs(t), tag);
                        pending.push((t, tag, Some(id)));
                        tag += 1;
                    }
                    // Sorted batch; its start is random, so it often
                    // overlaps a lane that is still pending.
                    1 | 2 => {
                        let n = rng.next_below(12);
                        let mut times: Vec<u64> =
                            (0..n).map(|_| floor + rng.next_below(16)).collect();
                        times.sort_unstable();
                        let batch: Vec<_> = times
                            .iter()
                            .map(|&t| {
                                pending.push((t, tag, None));
                                tag += 1;
                                (SimTime::from_secs(t), tag - 1)
                            })
                            .collect();
                        q.push_batch(batch);
                    }
                    // Unsorted batch.
                    3 => {
                        let n = rng.next_below(12);
                        let batch: Vec<_> = (0..n)
                            .map(|_| {
                                let t = floor + rng.next_below(16);
                                pending.push((t, tag, None));
                                tag += 1;
                                (SimTime::from_secs(t), tag - 1)
                            })
                            .collect();
                        q.push_batch(batch);
                    }
                    4 => {
                        let singles: Vec<usize> = (0..pending.len())
                            .filter(|&i| pending[i].2.is_some())
                            .collect();
                        if !singles.is_empty() {
                            let at = singles[rng.next_below(singles.len() as u64) as usize];
                            let (_, _, id) = pending.swap_remove(at);
                            assert!(q.cancel(id.expect("single")), "round {round}");
                        }
                    }
                    _ => {
                        let next = pending
                            .iter()
                            .enumerate()
                            .min_by_key(|&(_, &(t, tg, _))| (t, tg))
                            .map(|(i, _)| i);
                        let popped = q.pop().map(|(t, tg)| (t.as_nanos() / 1_000_000_000, tg));
                        let expected = next.map(|i| {
                            let (t, tg, _) = pending.swap_remove(i);
                            (t, tg)
                        });
                        assert_eq!(popped, expected, "round {round} step {step}: pop");
                        if let Some((t, _)) = popped {
                            floor = t;
                        }
                    }
                }
                assert_eq!(q.len(), pending.len(), "round {round} step {step}: len");
                assert_eq!(q.is_empty(), pending.is_empty());
                let earliest = pending.iter().map(|&(t, ..)| t).min();
                assert_eq!(
                    q.peek_time(),
                    earliest.map(SimTime::from_secs),
                    "round {round} step {step}: peek_time"
                );
            }

            pending.sort_by_key(|&(t, tg, _)| (t, tg));
            let expected: Vec<(u64, u32)> = pending.iter().map(|&(t, tg, _)| (t, tg)).collect();
            let drained: Vec<(u64, u32)> =
                std::iter::from_fn(|| q.pop().map(|(t, tg)| (t.as_nanos() / 1_000_000_000, tg)))
                    .collect();
            assert_eq!(drained, expected, "round {round}: drain order diverged");
        }
    }

    #[test]
    fn sorted_batches_bypass_the_heap_and_stragglers_take_it() {
        let mut q = EventQueue::new();
        let s = SimTime::from_secs;
        q.push_batch([(s(1), 'a'), (s(3), 'c'), (s(3), 'd')]);
        assert!(q.heap.is_empty() && q.slots.is_empty());
        // Overlaps the pending lane: 2 s goes to the heap, 4 s joins the lane.
        q.push_batch([(s(2), 'b'), (s(4), 'e')]);
        assert_eq!((q.heap.len(), q.lane.len()), (1, 4));
        let order: String = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, "abcde");
    }

    /// An emptied ring is rewound before the next batch, so equal-size
    /// batches reuse the same ring from its start: the capacity stays
    /// flat and each batch is one contiguous run.
    #[test]
    fn lane_ring_rewinds_and_capacity_stays_flat() {
        let mut q = EventQueue::new();
        // A larger first batch leaves spare capacity for the head to drift
        // into if the ring were not rewound.
        q.push_batch((0..150u64).map(|i| (SimTime::from_nanos(i), i)));
        while q.pop().is_some() {}
        let capacity = q.lane.capacity();
        for _ in 0..1_000 {
            q.push_batch((0..100u64).map(|i| (SimTime::from_nanos(i), i)));
            assert!(q.lane.as_slices().1.is_empty(), "batch wrapped the ring");
            assert_eq!(q.lane.capacity(), capacity);
            while q.pop().is_some() {}
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
