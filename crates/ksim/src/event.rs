//! Cancellable, deterministic event queue.
//!
//! Events are ordered by `(time, sequence)`: two events scheduled for the
//! same instant fire in the order they were scheduled, which pins down the
//! behaviour of tie-heavy workloads (e.g. several disk interrupts completing
//! on the same clock edge) across runs and platforms.
//!
//! Payloads live in a slab indexed by [`EventId`] (slot plus generation
//! tag), so [`EventQueue::cancel`] is an O(1) slab lookup — no hashing, no
//! heap surgery. The heap holds only `(time, seq, slot, generation)` keys;
//! entries whose slot generation no longer matches are tombstones, skipped
//! on pop. Tombstones are *bounded*: when they outnumber live entries the
//! heap is compacted in place, so memory stays proportional to the live
//! event count even under heavy schedule/cancel churn (retry backoff,
//! itimer rearming), where the previous lazy-delete `BinaryHeap` +
//! `HashSet` pair grew without bound until the dead keys happened to reach
//! the top.
//!
//! The kernel keeps few events live at once (an apply or two, a device
//! interrupt, a dispatch, the traffic source's next arrival), so the
//! earliest 16 keys live in a small sorted *near set* beside the heap.
//! Every near key is earlier than every heap key: scheduling an event
//! that beats the heap top is a short insertion, and popping takes the
//! near set's earliest key without touching the heap. Order is exactly
//! `(time, sequence)` either way.
//!
//! A caller may also hold an [`EventKey`] *outside* the queue: it
//! reserves the key's sequence number with [`EventQueue::take_seq`] where
//! it would have called [`EventQueue::schedule`], compares the key with
//! [`EventQueue::peek_key`], and when its own key is earliest fires it
//! itself after [`EventQueue::advance_to`]. Sequence numbers come from
//! one counter, so keys held outside interleave with queued ones in the
//! same exact order as if they had been queued;
//! [`EventQueue::schedule_keyed`] queues such a key after all.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Handle to a scheduled event, usable to cancel it before it fires.
///
/// Packs a slab slot index and a generation tag; handles to already-fired
/// or cancelled events are recognized as stale in O(1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId(u64);

/// A firing position: the time, then the sequence number that breaks
/// ties in schedule order. Orders exactly as the queue pops.
pub type EventKey = (SimTime, u64);

impl EventId {
    fn new(slot: u32, generation: u32) -> Self {
        EventId((u64::from(generation) << 32) | u64::from(slot))
    }

    fn slot(self) -> usize {
        (self.0 & 0xffff_ffff) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

#[derive(PartialEq, Eq)]
struct Key {
    time: SimTime,
    seq: u64,
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct Entry {
    key: Key,
    id: EventId,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Entry {}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

const NIL: u32 = u32::MAX;

/// Most keys held in the near set; on overflow its latest key moves to
/// the heap.
const NEAR_CAP: usize = 16;

struct Slot<E> {
    generation: u32,
    next_free: u32,
    payload: Option<E>,
}

/// A priority queue of future events plus the simulation clock.
///
/// The clock (`now`) only advances when an event is popped or a key held
/// outside is fired ([`EventQueue::advance_to`]); scheduling in the past
/// is a harness bug and panics.
pub struct EventQueue<E> {
    /// The earliest keys, sorted latest-first so the next event is at the
    /// end. Every key here is earlier than every key in `heap`.
    near: Vec<Entry>,
    heap: BinaryHeap<Reverse<Entry>>,
    slots: Vec<Slot<E>>,
    free_head: u32,
    /// Scheduled-but-not-yet-fired, not-cancelled events.
    live: usize,
    now: SimTime,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at boot (t = 0).
    pub fn new() -> Self {
        EventQueue {
            near: Vec::with_capacity(NEAR_CAP + 1),
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free_head: NIL,
            live: 0,
            now: SimTime::ZERO,
            next_seq: 0,
        }
    }

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `ev` to fire at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule(&mut self, at: SimTime, ev: E) -> EventId {
        let seq = self.take_seq();
        self.schedule_keyed((at, seq), ev)
    }

    /// Reserves the next sequence number for a key the caller holds
    /// outside the queue (see the module docs).
    #[inline]
    pub fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Queues `ev` under a key whose sequence number was reserved with
    /// [`EventQueue::take_seq`]: it fires exactly where an event
    /// scheduled at the reservation would have.
    ///
    /// # Panics
    ///
    /// Panics if the key's time is earlier than the current time.
    pub fn schedule_keyed(&mut self, (at, seq): EventKey, ev: E) -> EventId {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        debug_assert!(seq < self.next_seq, "sequence {seq} was never reserved");
        let slot = if self.free_head != NIL {
            let slot = self.free_head;
            self.free_head = self.slots[slot as usize].next_free;
            self.slots[slot as usize].payload = Some(ev);
            slot
        } else {
            assert!(self.slots.len() < NIL as usize, "event slab exhausted");
            self.slots.push(Slot {
                generation: 0,
                next_free: NIL,
                payload: Some(ev),
            });
            (self.slots.len() - 1) as u32
        };
        let id = EventId::new(slot, self.slots[slot as usize].generation);
        self.live += 1;
        let entry = Entry {
            key: Key { time: at, seq },
            id,
        };
        if self
            .heap
            .peek()
            .is_some_and(|Reverse(top)| top.key < entry.key)
        {
            self.heap.push(Reverse(entry));
        } else {
            let pos = self.near.partition_point(|e| e.key > entry.key);
            self.near.insert(pos, entry);
            if self.near.len() > NEAR_CAP {
                // The near set's latest key is still earlier than the
                // whole heap, so it can become the new heap top.
                self.heap.push(Reverse(self.near.remove(0)));
            }
        }
        id
    }

    /// Advances the clock to `at`, where the caller fires a key it holds
    /// outside the queue.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    #[inline]
    pub fn advance_to(&mut self, at: SimTime) {
        assert!(at >= self.now, "clock moved backwards: {at} < {}", self.now);
        self.now = at;
    }

    /// Cancels a scheduled event. Returns `true` if the event had not yet
    /// fired (or been cancelled); cancelling twice or after firing is a
    /// no-op returning `false`.
    ///
    /// O(1) amortized: the payload is dropped and the slot recycled
    /// immediately; the queued key becomes a tombstone, reclaimed either on
    /// pop or by compaction once tombstones outnumber live entries.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self.release(id).is_none() {
            return false;
        }
        self.live -= 1;
        // Bound tombstone memory: drop dead keys once they dominate.
        if self.queued_len() > 64 && self.queued_len() > 2 * self.live {
            let slots = &self.slots;
            self.near.retain(|entry| is_live(slots, entry.id));
            self.heap.retain(|Reverse(entry)| is_live(slots, entry.id));
        }
        true
    }

    /// Removes and returns the next event, advancing the clock to its time.
    /// Returns `None` when no live events remain.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.near.pop().or_else(|| self.heap.pop().map(|r| r.0)) {
            if let Some(ev) = self.release(entry.id) {
                self.live -= 1;
                debug_assert!(entry.key.time >= self.now);
                self.now = entry.key.time;
                return Some((entry.key.time, ev));
            }
        }
        None
    }

    /// The key of the next live event, if any, without popping it.
    pub fn peek_key(&mut self) -> Option<EventKey> {
        while let Some(entry) = self.near.last() {
            if is_live(&self.slots, entry.id) {
                return Some((entry.key.time, entry.key.seq));
            }
            self.near.pop();
        }
        while let Some(Reverse(entry)) = self.heap.peek() {
            if is_live(&self.slots, entry.id) {
                return Some((entry.key.time, entry.key.seq));
            }
            self.heap.pop();
        }
        None
    }

    /// Number of live (not cancelled) events still queued.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keys currently held (near set and heap), *including*
    /// cancelled-entry tombstones not yet reclaimed. Compaction keeps this
    /// within a small constant factor of [`EventQueue::len`]; exposed so
    /// tests can pin that bound.
    pub fn queued_len(&self) -> usize {
        self.near.len() + self.heap.len()
    }

    /// If `id` is live, takes its payload and frees the slot (bumping the
    /// generation so outstanding handles and heap keys go stale).
    fn release(&mut self, id: EventId) -> Option<E> {
        let slot = id.slot();
        if slot >= self.slots.len() {
            return None;
        }
        let s = &mut self.slots[slot];
        if s.generation != id.generation() {
            return None;
        }
        let payload = s.payload.take()?;
        s.generation = s.generation.wrapping_add(1);
        s.next_free = self.free_head;
        self.free_head = slot as u32;
        Some(payload)
    }
}

/// True while `id`'s slot still holds the event it was issued for; queued
/// keys failing this are tombstones.
fn is_live<E>(slots: &[Slot<E>], id: EventId) -> bool {
    slots[id.slot()].generation == id.generation()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + Dur::from_us(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        q.schedule(t(5), 1);
        q.schedule(t(5), 2);
        q.schedule(t(5), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), t(42));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn cannot_schedule_into_past() {
        let mut q = EventQueue::new();
        q.schedule(t(10), ());
        q.pop();
        q.schedule(t(5), ());
    }

    #[test]
    fn cancel_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel must be a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.pop();
        assert!(!q.cancel(a));
    }

    #[test]
    fn stale_id_cannot_cancel_recycled_slot() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.pop();
        // The freed slot is recycled for "b"; the stale handle must miss.
        let b = q.schedule(t(2), "b");
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert!(q.cancel(b));
    }

    #[test]
    fn peek_key_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_key(), Some((t(2), 1)));
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn same_instant_rescheduling_allowed() {
        let mut q = EventQueue::new();
        q.schedule(t(1), 1);
        q.pop();
        // Scheduling exactly at `now` is legal (zero-latency kernel work).
        q.schedule(t(1), 2);
        assert_eq!(q.pop(), Some((t(1), 2)));
    }

    /// Fires the earliest of the queue top and the keys held outside,
    /// as a caller holding keys beside the queue does; returns the fired
    /// keys in order.
    fn fire_all(q: &mut EventQueue<u64>, mut held: Vec<EventKey>) -> Vec<EventKey> {
        let mut fired = Vec::new();
        loop {
            held.sort_unstable_by(|a, b| b.cmp(a));
            let outside = held.last().copied();
            let top = q.peek_key();
            if top.is_none() && outside.is_none() {
                return fired;
            }
            match top.filter(|k| outside.is_none_or(|o| *k < o)) {
                Some(top) => {
                    assert_eq!(q.pop(), Some(top), "payload is the reserved seq");
                    fired.push(top);
                }
                None => {
                    let o = held.pop().unwrap();
                    q.advance_to(o.0);
                    fired.push(o);
                }
            }
            assert_eq!(q.now(), fired.last().unwrap().0);
        }
    }

    #[test]
    fn held_keys_interleave_with_queued_keys_in_exact_order() {
        let mut q = EventQueue::new();
        let mut held = Vec::new();
        let mut all = Vec::new();
        // 40 keys, most at one instant (ties break by reservation order
        // across the two homes) and enough queued ones to overflow the
        // near set into the heap.
        for i in 0..40u64 {
            let at = if i % 5 == 4 { t(3 + i) } else { t(7) };
            if i % 3 == 0 {
                let key = (at, q.take_seq());
                held.push(key);
                all.push(key);
            } else {
                let seq = q.take_seq();
                q.schedule_keyed((at, seq), seq);
                all.push((at, seq));
            }
        }
        assert!(q.len() > NEAR_CAP, "the near set overflowed");
        all.sort_unstable();
        assert_eq!(fire_all(&mut q, held), all);
    }

    #[test]
    fn a_held_key_queued_late_keeps_its_reserved_place() {
        let mut q = EventQueue::new();
        let early = q.take_seq();
        for seq in 1..=20 {
            q.schedule(t(4), seq);
        }
        q.schedule_keyed((t(4), early), early);
        for seq in 0..=20 {
            assert_eq!(q.pop(), Some((t(4), seq)), "reservation order");
        }
    }

    #[test]
    #[should_panic(expected = "clock moved backwards")]
    fn advance_to_cannot_move_backwards() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(t(10));
        q.advance_to(t(9));
    }

    #[test]
    fn tombstones_stay_bounded_under_churn() {
        // Satellite regression: the historical lazy-delete queue kept every
        // cancelled key in the heap until it surfaced; a schedule/cancel
        // retry loop with one long-lived sentinel grew the heap without
        // bound. Compaction must keep heap keys within 2x live + slack.
        let mut q = EventQueue::new();
        q.schedule(t(1_000_000), u64::MAX);
        for i in 0..100_000u64 {
            let id = q.schedule(t(10 + i), i);
            assert!(q.cancel(id));
            assert!(
                q.queued_len() <= 2 * q.len() + 64,
                "heap grew to {} keys with only {} live events",
                q.queued_len(),
                q.len()
            );
        }
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(1_000_000), u64::MAX)));
    }
}
