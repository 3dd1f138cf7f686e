//! BSD-style callout list, backed by a hierarchical timing wheel.
//!
//! The paper's write side is driven off the Ultrix callout list: the read
//! completion handler "schedules a write by placing a reference to the write
//! handler at the head of the system callout list" (§5.2.1). The callout
//! list is serviced by `softclock` at every hardware clock tick (HZ per
//! second), so an entry queued with zero delay runs at the *next* tick —
//! this tick-granular batching is what decouples the source and destination
//! device access periods, and it matters for reproducing the measured
//! throughput and CPU-availability numbers.
//!
//! # Structure
//!
//! Entries live in a slab indexed by [`CalloutId`] (slot index plus a
//! generation tag, so a stale handle can never cancel a recycled slot).
//! Pending entries hang off a BSD `callwheel`-style hierarchical wheel:
//! `LEVELS` levels of `BUCKETS` buckets each, level `l` covering
//! `BUCKETS^(l+1)` ticks ahead of the wheel base, with entries past the
//! wheel horizon parked on a far list that is re-homed when the base
//! crosses a horizon boundary. Each bucket is an intrusive doubly-linked
//! list through the slab, and a per-level occupancy bitmap lets the wheel
//! skip empty buckets (and whole empty blocks) in O(1).
//!
//! This makes [`Callout::schedule`], [`Callout::schedule_head`] and
//! [`Callout::cancel`] O(1), and [`Callout::expire`] proportional to the
//! entries actually due (plus one bucket cascade per crossed boundary) —
//! the `untimeout()` full-table scan and the sort-every-tick `BTreeMap`
//! walk are gone.
//!
//! # Semantics (unchanged)
//!
//! Delivery order is identical to the original `BTreeMap` implementation,
//! which `BTreeCallout` preserves as an executable reference model (built
//! only for tests and the `props` feature):
//! every entry carries a signed order key (`schedule` counts up from 1,
//! `schedule_head` counts down from -1) and `expire` hands back *all* due
//! entries — across caught-up ticks — sorted by that key. Head entries
//! therefore run before tail entries (LIFO among themselves, mirroring
//! head-of-list insertion), tail entries run in global insertion order,
//! and `next_due_tick` still reports the earliest pending tick so the
//! kernel can skip idle ticks.

#[cfg(any(test, feature = "props"))]
use std::collections::BTreeMap;

/// Handle to a pending callout, usable with [`Callout::cancel`].
///
/// Packs a slab slot index and a generation tag; handles to already-fired
/// or cancelled entries are recognized as stale in O(1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CalloutId(u64);

impl CalloutId {
    fn new(slot: u32, generation: u32) -> Self {
        CalloutId((u64::from(generation) << 32) | u64::from(slot))
    }

    fn slot(self) -> usize {
        (self.0 & 0xffff_ffff) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Buckets per wheel level (one 64-bit occupancy word per level).
const BUCKETS: usize = 64;
/// log2([`BUCKETS`]): bits of the due tick consumed per level.
const LEVEL_BITS: u32 = 6;
/// Wheel levels; together they cover `2^(LEVELS * LEVEL_BITS)` ticks.
const LEVELS: usize = 4;
/// Ticks covered by the wheel proper; entries further out go to the far list.
const HORIZON_BITS: u32 = LEVEL_BITS * LEVELS as u32;

/// Sentinel slab index: end of an intrusive list.
const NIL: u32 = u32::MAX;
/// `Slot::bucket` code: entry is on the far list.
const FAR: u32 = u32::MAX - 1;
/// `Slot::bucket` code: slot is free.
const FREE: u32 = u32::MAX - 2;

struct Slot<C> {
    generation: u32,
    /// `level * BUCKETS + index`, or [`FAR`] / [`FREE`].
    bucket: u32,
    prev: u32,
    next: u32,
    /// Actual due tick as requested (may lag the wheel base when a
    /// `schedule_head` lands on the tick currently being serviced).
    due: u64,
    /// Global delivery order key: negative for head entries, positive for
    /// tail entries.
    order: i64,
    payload: Option<C>,
}

/// The callout table: pending timer-driven kernel work, tick-granular.
pub struct Callout<C> {
    slots: Vec<Slot<C>>,
    free_head: u32,
    /// Intrusive list heads, `buckets[level][index]`.
    buckets: [[u32; BUCKETS]; LEVELS],
    /// Per-level occupancy bitmaps: bit `i` set iff `buckets[level][i]`
    /// is non-empty.
    occupancy: [u64; LEVELS],
    far_head: u32,
    /// Next tick to be serviced: every pending entry's *effective* due
    /// tick is `>= base`.
    base: u64,
    pending: usize,
    next_order: i64,
    next_head_order: i64,
    /// Reused by `expire` so steady-state expiry does not allocate.
    scratch: Vec<(i64, C)>,
}

impl<C> Default for Callout<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C> Callout<C> {
    /// Creates an empty callout table.
    pub fn new() -> Self {
        Callout {
            slots: Vec::new(),
            free_head: NIL,
            buckets: [[NIL; BUCKETS]; LEVELS],
            occupancy: [0; LEVELS],
            far_head: NIL,
            base: 0,
            pending: 0,
            next_order: 1,
            next_head_order: -1,
            scratch: Vec::new(),
        }
    }

    /// Queues `payload` to run `delay_ticks` ticks after `current_tick`
    /// (0 means the next `expire` call), at the tail of that tick's list.
    /// This is the classic `timeout()` entry point.
    pub fn schedule(&mut self, current_tick: u64, delay_ticks: u64, payload: C) -> CalloutId {
        let order = self.next_order;
        self.next_order += 1;
        self.insert(current_tick + delay_ticks, order, payload)
    }

    /// Queues `payload` at the *head* of the next tick's list, the way the
    /// splice read handler queues the write handler (§5.2.1).
    pub fn schedule_head(&mut self, current_tick: u64, payload: C) -> CalloutId {
        let order = self.next_head_order;
        self.next_head_order -= 1;
        self.insert(current_tick, order, payload)
    }

    /// Cancels a pending callout (`untimeout()`). Returns the payload if it
    /// had not yet expired. O(1): slab lookup plus list unlink.
    pub fn cancel(&mut self, id: CalloutId) -> Option<C> {
        let slot = id.slot();
        if slot >= self.slots.len() {
            return None;
        }
        let s = &self.slots[slot];
        if s.generation != id.generation() || s.bucket == FREE {
            return None;
        }
        self.unlink(slot as u32);
        let payload = self.release(slot as u32);
        self.pending -= 1;
        payload
    }

    /// Removes and returns every payload due at or before `current_tick`,
    /// in service order. Called by `softclock` once per tick.
    pub fn expire(&mut self, current_tick: u64) -> Vec<C> {
        let mut out = Vec::new();
        self.expire_into(current_tick, &mut out);
        out
    }

    /// [`Callout::expire`] into a caller-owned vector (cleared first), so a
    /// hot loop can reuse one allocation across ticks.
    pub fn expire_into(&mut self, current_tick: u64, out: &mut Vec<C>) {
        out.clear();
        let target = current_tick + 1;
        if self.base >= target {
            return;
        }
        let mut due = std::mem::take(&mut self.scratch);
        self.advance(target, &mut due);
        due.sort_unstable_by_key(|&(order, _)| order);
        out.extend(due.drain(..).map(|(_, payload)| payload));
        self.scratch = due;
    }

    /// Number of pending callouts.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// The earliest tick with pending work, if any (lets the kernel skip
    /// idle ticks without simulating each one).
    pub fn next_due_tick(&self) -> Option<u64> {
        if self.pending == 0 {
            return None;
        }
        // The first non-empty bucket in effective-due order holds the
        // minimum actual due tick: entries whose actual due lags their
        // effective due were clamped to the then-current base, which is the
        // earliest effective position of all.
        let index = (self.base as usize) & (BUCKETS - 1);
        let live = self.occupancy[0] >> index;
        if live != 0 {
            let bucket = index + live.trailing_zeros() as usize;
            return Some(self.bucket_min_due(self.buckets[0][bucket]));
        }
        for level in 1..LEVELS {
            if self.occupancy[level] != 0 {
                let bucket = self.occupancy[level].trailing_zeros() as usize;
                return Some(self.bucket_min_due(self.buckets[level][bucket]));
            }
        }
        Some(self.bucket_min_due(self.far_head))
    }

    fn bucket_min_due(&self, head: u32) -> u64 {
        let mut min = u64::MAX;
        let mut cursor = head;
        while cursor != NIL {
            let s = &self.slots[cursor as usize];
            min = min.min(s.due);
            cursor = s.next;
        }
        min
    }

    /// Allocates a slab slot and links it into the wheel.
    fn insert(&mut self, due_tick: u64, order: i64, payload: C) -> CalloutId {
        let slot = if self.free_head != NIL {
            let slot = self.free_head;
            self.free_head = self.slots[slot as usize].next;
            let s = &mut self.slots[slot as usize];
            s.due = due_tick;
            s.order = order;
            s.payload = Some(payload);
            slot
        } else {
            assert!(self.slots.len() < FREE as usize, "callout slab exhausted");
            self.slots.push(Slot {
                generation: 0,
                bucket: FREE,
                prev: NIL,
                next: NIL,
                due: due_tick,
                order,
                payload: Some(payload),
            });
            (self.slots.len() - 1) as u32
        };
        self.link(slot, due_tick);
        self.pending += 1;
        CalloutId::new(slot, self.slots[slot as usize].generation)
    }

    /// Places `slot` into the bucket (or far list) for `due`, clamped to
    /// the wheel base.
    fn link(&mut self, slot: u32, due: u64) {
        let effective = due.max(self.base);
        let distance = effective ^ self.base;
        let head = if distance < (1 << HORIZON_BITS) {
            let level = if distance == 0 {
                0
            } else {
                ((63 - distance.leading_zeros()) / LEVEL_BITS) as usize
            };
            let index = ((effective >> (LEVEL_BITS * level as u32)) as usize) & (BUCKETS - 1);
            self.occupancy[level] |= 1 << index;
            self.slots[slot as usize].bucket = (level * BUCKETS + index) as u32;
            &mut self.buckets[level][index]
        } else {
            self.slots[slot as usize].bucket = FAR;
            &mut self.far_head
        };
        let old_head = *head;
        *head = slot;
        let s = &mut self.slots[slot as usize];
        s.prev = NIL;
        s.next = old_head;
        if old_head != NIL {
            self.slots[old_head as usize].prev = slot;
        }
    }

    /// Removes `slot` from its bucket list, clearing the occupancy bit if
    /// the bucket empties.
    fn unlink(&mut self, slot: u32) {
        let (bucket, prev, next) = {
            let s = &self.slots[slot as usize];
            (s.bucket, s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else if bucket == FAR {
            self.far_head = next;
        } else {
            let (level, index) = (bucket as usize / BUCKETS, bucket as usize % BUCKETS);
            self.buckets[level][index] = next;
            if next == NIL {
                self.occupancy[level] &= !(1 << index);
            }
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        }
    }

    /// Frees `slot` back to the slab, invalidating outstanding handles.
    fn release(&mut self, slot: u32) -> Option<C> {
        let s = &mut self.slots[slot as usize];
        s.generation = s.generation.wrapping_add(1);
        s.bucket = FREE;
        s.prev = NIL;
        s.next = self.free_head;
        self.free_head = slot;
        s.payload.take()
    }

    /// Advances the wheel base to `target`, draining every due entry into
    /// `due`. Work is proportional to entries delivered plus one cascade
    /// per crossed bucket boundary (empty 64-tick blocks are skipped
    /// whole via the occupancy bitmap).
    fn advance(&mut self, target: u64, due: &mut Vec<(i64, C)>) {
        loop {
            if self.pending == 0 {
                self.base = self.base.max(target);
                return;
            }
            if self.base >= target {
                return;
            }
            let block = self.base & !((BUCKETS as u64) - 1);
            let index = (self.base - block) as usize;
            let live = self.occupancy[0] >> index;
            if live != 0 {
                let tick = block + index as u64 + u64::from(live.trailing_zeros());
                if tick < target {
                    self.drain_level0(((tick as usize) & (BUCKETS - 1)) as u32, due);
                    self.step_base_to(tick + 1);
                    continue;
                }
            }
            // Nothing due in level 0 before `target` or the block boundary.
            self.step_base_to(target.min(block + BUCKETS as u64));
        }
    }

    /// Empties level-0 bucket `index` into `due`, freeing the slots.
    fn drain_level0(&mut self, index: u32, due: &mut Vec<(i64, C)>) {
        let mut cursor = self.buckets[0][index as usize];
        self.buckets[0][index as usize] = NIL;
        self.occupancy[0] &= !(1 << index);
        while cursor != NIL {
            let next = self.slots[cursor as usize].next;
            let order = self.slots[cursor as usize].order;
            if let Some(payload) = self.release(cursor) {
                due.push((order, payload));
            }
            self.pending -= 1;
            cursor = next;
        }
    }

    /// Moves the base forward to `new_base` (at most one block ahead),
    /// cascading higher-level buckets down at each crossed boundary.
    fn step_base_to(&mut self, new_base: u64) {
        let old = self.base;
        self.base = new_base;
        for level in 1..LEVELS {
            let shift = LEVEL_BITS * level as u32;
            if old >> shift == new_base >> shift {
                return;
            }
            let index = ((new_base >> shift) as usize) & (BUCKETS - 1);
            let mut cursor = self.buckets[level][index];
            self.buckets[level][index] = NIL;
            self.occupancy[level] &= !(1 << index);
            while cursor != NIL {
                let next = self.slots[cursor as usize].next;
                let entry_due = self.slots[cursor as usize].due;
                self.link(cursor, entry_due);
                cursor = next;
            }
        }
        if old >> HORIZON_BITS != new_base >> HORIZON_BITS {
            // Crossed a wheel-horizon boundary: re-home far entries that
            // are now within reach.
            let mut cursor = self.far_head;
            self.far_head = NIL;
            while cursor != NIL {
                let next = self.slots[cursor as usize].next;
                let entry_due = self.slots[cursor as usize].due;
                self.link(cursor, entry_due);
                cursor = next;
            }
        }
    }
}

/// The original `BTreeMap`-backed callout list, kept as the executable
/// reference model: the differential tests drive [`Callout`] and
/// `BTreeCallout` through identical operation sequences and assert
/// identical delivery. Built only for tests and the `props` feature.
#[cfg(any(test, feature = "props"))]
pub struct BTreeCallout<C> {
    // Tick → entries due at that tick.
    table: BTreeMap<u64, Vec<(CalloutId, i64, C)>>,
    next_id: u64,
    next_order: i64,
    next_head_order: i64,
    pending: usize,
}

#[cfg(any(test, feature = "props"))]
impl<C> Default for BTreeCallout<C> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(any(test, feature = "props"))]
impl<C> BTreeCallout<C> {
    /// Creates an empty reference callout table.
    pub fn new() -> Self {
        BTreeCallout {
            table: BTreeMap::new(),
            next_id: 0,
            next_order: 1,
            next_head_order: -1,
            pending: 0,
        }
    }

    fn insert(&mut self, due_tick: u64, order: i64, payload: C) -> CalloutId {
        let id = CalloutId(self.next_id);
        self.next_id += 1;
        self.table
            .entry(due_tick)
            .or_default()
            .push((id, order, payload));
        self.pending += 1;
        id
    }

    /// Reference [`Callout::schedule`].
    pub fn schedule(&mut self, current_tick: u64, delay_ticks: u64, payload: C) -> CalloutId {
        let order = self.next_order;
        self.next_order += 1;
        self.insert(current_tick + delay_ticks, order, payload)
    }

    /// Reference [`Callout::schedule_head`].
    pub fn schedule_head(&mut self, current_tick: u64, payload: C) -> CalloutId {
        let order = self.next_head_order;
        self.next_head_order -= 1;
        self.insert(current_tick, order, payload)
    }

    /// Reference [`Callout::cancel`]: the historical O(total-entries) scan.
    pub fn cancel(&mut self, id: CalloutId) -> Option<C> {
        for entries in self.table.values_mut() {
            if let Some(pos) = entries.iter().position(|e| e.0 == id) {
                let entry = entries.remove(pos);
                self.pending -= 1;
                return Some(entry.2);
            }
        }
        None
    }

    /// Reference [`Callout::expire`].
    pub fn expire(&mut self, current_tick: u64) -> Vec<C> {
        let mut due = Vec::new();
        let later = self.table.split_off(&(current_tick + 1));
        for (_, mut entries) in std::mem::replace(&mut self.table, later) {
            due.append(&mut entries);
        }
        self.pending -= due.len();
        due.sort_by_key(|e| e.1);
        due.into_iter().map(|e| e.2).collect()
    }

    /// Reference [`Callout::len`].
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Reference [`Callout::is_empty`].
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Reference [`Callout::next_due_tick`].
    pub fn next_due_tick(&self) -> Option<u64> {
        self.table
            .iter()
            .find(|(_, v)| !v.is_empty())
            .map(|(t, _)| *t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expires_in_tick_order() {
        let mut c = Callout::new();
        c.schedule(0, 2, "late");
        c.schedule(0, 0, "now");
        c.schedule(0, 1, "soon");
        assert_eq!(c.expire(0), vec!["now"]);
        assert_eq!(c.expire(1), vec!["soon"]);
        assert_eq!(c.expire(2), vec!["late"]);
        assert!(c.is_empty());
    }

    #[test]
    fn same_tick_fifo_order() {
        let mut c = Callout::new();
        c.schedule(0, 1, 1);
        c.schedule(0, 1, 2);
        c.schedule(0, 1, 3);
        assert_eq!(c.expire(1), vec![1, 2, 3]);
    }

    #[test]
    fn head_entries_run_first_lifo() {
        let mut c = Callout::new();
        c.schedule(0, 0, "tail1");
        c.schedule_head(0, "head1");
        c.schedule_head(0, "head2");
        c.schedule(0, 0, "tail2");
        // Head inserts are LIFO among themselves (list head insertion),
        // and all precede tail entries.
        assert_eq!(c.expire(0), vec!["head2", "head1", "tail1", "tail2"]);
    }

    #[test]
    fn expire_catches_up_missed_ticks() {
        let mut c = Callout::new();
        c.schedule(0, 1, "a");
        c.schedule(0, 3, "b");
        // Skipping directly to tick 5 delivers both, earliest tick first.
        assert_eq!(c.expire(5), vec!["a", "b"]);
    }

    #[test]
    fn cancel_removes_payload() {
        let mut c = Callout::new();
        let id = c.schedule(0, 1, "x");
        c.schedule(0, 1, "y");
        assert_eq!(c.cancel(id), Some("x"));
        assert_eq!(c.cancel(id), None);
        assert_eq!(c.expire(1), vec!["y"]);
    }

    #[test]
    fn next_due_tick_reports_earliest() {
        let mut c = Callout::new();
        assert_eq!(c.next_due_tick(), None);
        c.schedule(10, 5, ());
        c.schedule(10, 2, ());
        assert_eq!(c.next_due_tick(), Some(12));
    }

    #[test]
    fn len_tracks_pending() {
        let mut c = Callout::new();
        let a = c.schedule(0, 1, ());
        c.schedule(0, 2, ());
        assert_eq!(c.len(), 2);
        c.cancel(a);
        assert_eq!(c.len(), 1);
        c.expire(2);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn stale_id_cannot_cancel_recycled_slot() {
        let mut c = Callout::new();
        let a = c.schedule(0, 1, "a");
        assert_eq!(c.expire(1), vec!["a"]);
        // The freed slot is recycled for "b"; the stale handle must miss.
        let b = c.schedule(1, 1, "b");
        assert_eq!(c.cancel(a), None);
        assert_eq!(c.len(), 1);
        assert_eq!(c.cancel(b), Some("b"));
    }

    #[test]
    fn far_future_entries_cascade_back() {
        let mut c = Callout::new();
        // Beyond the wheel horizon (2^24 ticks): parked on the far list.
        let far_delay = 1u64 << 26;
        c.schedule(0, far_delay, "far");
        c.schedule(0, 1, "near");
        assert_eq!(c.next_due_tick(), Some(1));
        assert_eq!(c.expire(1), vec!["near"]);
        assert_eq!(c.next_due_tick(), Some(far_delay));
        assert_eq!(c.expire(far_delay), vec!["far"]);
        assert!(c.is_empty());
    }

    #[test]
    fn multi_level_cascade_preserves_order() {
        let mut c = Callout::new();
        // One entry per wheel level, scheduled out of delivery order.
        c.schedule(0, 70_000, "l3");
        c.schedule(0, 5_000, "l2");
        c.schedule(0, 100, "l1");
        c.schedule(0, 3, "l0");
        let mut got = Vec::new();
        let mut tick = 0;
        while !c.is_empty() {
            tick = c.next_due_tick().expect("pending entries have a due tick");
            got.extend(c.expire(tick));
        }
        assert_eq!(got, vec!["l0", "l1", "l2", "l3"]);
        assert_eq!(tick, 70_000);
    }

    #[test]
    fn head_after_expire_lands_on_next_tick() {
        let mut c = Callout::new();
        assert!(c.expire(10).is_empty());
        // schedule_head targets the tick just serviced — the base has
        // already moved past it, so it must fire on the next expire and
        // next_due_tick must still report the requested (past) tick.
        c.schedule_head(10, "w");
        assert_eq!(c.next_due_tick(), Some(10));
        assert_eq!(c.expire(11), vec!["w"]);
    }

    #[test]
    fn cancel_is_constant_time_at_100k_entries() {
        // Satellite regression: the historical implementation scanned the
        // whole table per cancel (~5e9 slot visits for this loop, minutes
        // even in release builds). The wheel unlinks in O(1): the full
        // schedule + cancel cycle over 100k entries finishes in well under
        // a second even unoptimized.
        let start = std::time::Instant::now();
        let mut c = Callout::new();
        let ids: Vec<_> = (0..100_000u64)
            .map(|i| c.schedule(0, 1 + i % 512, i))
            .collect();
        // Cancel in an order uncorrelated with insertion order.
        for k in 0..ids.len() {
            let slot = (k * 7919) % ids.len();
            assert!(c.cancel(ids[slot]).is_some());
        }
        assert!(c.is_empty());
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "cancel at 100k pending took {:?}: not O(1)",
            start.elapsed()
        );
    }

    #[test]
    fn wheel_matches_reference_on_mixed_sequence() {
        let mut wheel = Callout::new();
        let mut model = BTreeCallout::new();
        let mut tick = 0u64;
        let mut live = Vec::new();
        // Deterministic mixed workload: schedules at varied distances
        // (including cross-level and far-list), head inserts, cancels, and
        // periodic expiry with occasional skipped ticks.
        let mut x = 0x9e3779b97f4a7c15u64;
        for step in 0..5_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match x % 10 {
                0..=4 => {
                    let delay = (x >> 8) % [1, 7, 64, 900, 70_000][(x >> 32) as usize % 5];
                    live.push((
                        wheel.schedule(tick, delay, step),
                        model.schedule(tick, delay, step),
                    ));
                }
                5..=6 => {
                    live.push((
                        wheel.schedule_head(tick, step),
                        model.schedule_head(tick, step),
                    ));
                }
                7 => {
                    if !live.is_empty() {
                        let slot = (x >> 16) as usize % live.len();
                        let (wid, mid) = live.swap_remove(slot);
                        assert_eq!(wheel.cancel(wid), model.cancel(mid));
                    }
                }
                _ => {
                    tick += 1 + (x >> 24) % 3;
                    assert_eq!(wheel.expire(tick), model.expire(tick));
                    assert_eq!(wheel.next_due_tick(), model.next_due_tick());
                }
            }
            assert_eq!(wheel.len(), model.len());
        }
        tick += 1 << 20;
        assert_eq!(wheel.expire(tick), model.expire(tick));
        tick += 1 << 26;
        assert_eq!(wheel.expire(tick), model.expire(tick));
        assert_eq!(wheel.len(), model.len());
    }
}
