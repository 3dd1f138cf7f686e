//! SCSI disk model with on-drive read-ahead cache.
//!
//! The model captures what mattered for the paper's evaluation:
//!
//! * **Mechanics** — seek (concave in distance), average rotational
//!   latency, and media-rate transfer, per the RZ56/RZ58 figures in §6.1.
//! * **Read-ahead cache** — after servicing a read, the drive keeps reading
//!   sequentially into its cache (64 KB on the RZ56; 256 KB in 4 segments
//!   on the RZ58). Sequential reads that hit the cache transfer at bus
//!   speed; a sequential reader that outruns the fill waits for the media.
//! * **Pseudo-DMA host cost** — every transferred byte charges host CPU at
//!   the profile's `host_copy_bps`: the DECstation 5000/200 SCSI path moves
//!   data through a bounce buffer with a CPU copy, which the paper's §6.4
//!   (and its RZ56-vs-RZ58 CPU-availability gap) reflects.
//! * **Disksort service** — one request transfers at a time; requests
//!   that arrive while the drive is busy queue and are serviced in
//!   elevator order (`disksort`: ascending-sector sweep with wraparound),
//!   exactly like the BSD `strategy` queue. This matters for splice: the
//!   callout list dispatches a tick's write handlers in head-insertion
//!   (LIFO) order, and without disksort every other write would pay a
//!   full rotation.
//!
//! The disk carries real bytes (a [`SparseStore`]) so data integrity is
//! checked end to end. Transfers are whole medium blocks that move by
//! reference: a write carries the caller's [`Block`] into the medium, and
//! a completed read hands back the medium's block.

use ksim::{Dur, Hist, SimTime};

use crate::fault::{FaultDecision, FaultPlan};
use crate::profile::{DiskKind, DiskProfile, SECTOR_SIZE};
use crate::store::{Block, SparseStore};

/// Direction of a disk transfer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IoOp {
    /// Media/cache → host.
    Read,
    /// Host → media.
    Write,
}

/// A request newly put into service: schedule its completion interrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Started {
    /// Caller-supplied request token.
    pub token: u64,
    /// Time the completion interrupt fires.
    pub finish: SimTime,
}

/// A finished request, handed back at the completion interrupt.
#[derive(Debug)]
pub struct IoDone {
    /// Caller-supplied request token.
    pub token: u64,
    /// Host CPU consumed moving the data (pseudo-DMA bounce copy).
    pub host_cpu: Dur,
    /// The block read, shared with the medium (for [`IoOp::Read`]; `None`
    /// for writes and for reads that failed).
    pub data: Option<Block>,
    /// True if a read was served from the drive's read-ahead cache
    /// (possibly waiting for the fill to catch up) rather than by a
    /// mechanical access.
    pub cache_hit: bool,
    /// True if the request failed (injected fault): the `B_ERROR` the
    /// completion interrupt hands to `biodone`.
    pub error: bool,
}

struct Pending {
    token: u64,
    op: IoOp,
    sector: u64,
    len: usize,
    data: Option<Block>,
}

/// One read-ahead segment: a window of sequentially cached sectors.
#[derive(Clone, Copy, Debug)]
struct RaWindow {
    /// Lowest sector retained in the segment.
    lo: u64,
    /// Fill position at `fill_time`; grows at media rate afterwards.
    fill: u64,
    fill_time: SimTime,
    /// Fill stops here (request end + segment capacity).
    cap: u64,
    /// Monotone counter for LRU replacement.
    last_used: u64,
}

/// Cumulative per-disk counters, for tests and reports.
#[derive(Default, Clone, Copy, Debug)]
pub struct DiskStats {
    /// Requests serviced.
    pub requests: u64,
    /// Read requests served from the read-ahead cache.
    pub cache_hits: u64,
    /// Requests that required a mechanical access.
    pub mechanical: u64,
    /// Bytes transferred (both directions).
    pub bytes: u64,
}

/// A simulated SCSI disk (or, with a RAM profile, a zero-mechanics medium —
/// though the RAM disk normally uses [`crate::RamDisk`] instead).
pub struct Disk {
    profile: DiskProfile,
    store: SparseStore,
    /// The request currently transferring, with its completed result.
    active: Option<(SimTime, IoDone)>,
    /// Waiting requests (serviced in elevator order).
    queue: Vec<Pending>,
    /// Sector following the last transferred one (head position proxy and
    /// elevator sweep position).
    head: u64,
    windows: Vec<RaWindow>,
    use_clock: u64,
    stats: DiskStats,
    /// Total time the drive spent servicing requests (utilization
    /// accounting: busy / elapsed).
    busy: Dur,
    /// Per-request service-time distribution (ns), from service start
    /// to completion interrupt.
    service_hist: Hist,
    fault: Option<FaultPlan>,
}

impl Disk {
    /// Creates a zero-filled disk from a profile whose medium is held in
    /// `block_size`-byte blocks, the unit of every transfer.
    pub fn new(profile: DiskProfile, block_size: usize) -> Self {
        let store = SparseStore::new(profile.bytes(), block_size);
        Disk {
            profile,
            store,
            active: None,
            queue: Vec::new(),
            head: 0,
            windows: Vec::new(),
            use_clock: 0,
            stats: DiskStats::default(),
            busy: Dur::ZERO,
            service_hist: Hist::new(),
            fault: None,
        }
    }

    /// Installs (or clears) the fault plan consulted at service time.
    /// Direct store accessors bypass it.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// The installed fault plan, if any (to inspect `injected()`).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    fn decide_fault(&mut self, write: bool, sector: u64, nsec: u64) -> FaultDecision {
        match &mut self.fault {
            Some(plan) => plan.decide(write, sector, nsec),
            None => FaultDecision::CLEAN,
        }
    }

    /// Queued requests not yet in service (tests, reports).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The profile this disk was built from.
    pub fn profile(&self) -> &DiskProfile {
        &self.profile
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Total time spent servicing requests (for utilization = busy /
    /// elapsed).
    pub fn busy_time(&self) -> Dur {
        self.busy
    }

    /// Per-request service-time distribution (ns).
    pub fn service_hist(&self) -> &Hist {
        &self.service_hist
    }

    /// Direct medium access bypassing all timing — used by `mkfs` and by
    /// tests that need to inspect on-disk state.
    pub fn store(&self) -> &SparseStore {
        &self.store
    }

    /// Direct mutable medium access bypassing all timing (see [`Self::store`]).
    pub fn store_mut(&mut self) -> &mut SparseStore {
        &mut self.store
    }

    fn media_sectors_per_sec(&self) -> u64 {
        (self.profile.media_bps / SECTOR_SIZE as u64).max(1)
    }

    fn seg_capacity_sectors(&self) -> u64 {
        if self.profile.cache_bytes == 0 {
            return 0;
        }
        (self.profile.cache_bytes / self.profile.cache_segments.max(1) / SECTOR_SIZE) as u64
    }

    /// Sectors available in `w` at time `t` (fill grows at media rate).
    fn fill_at(&self, w: &RaWindow, t: SimTime) -> u64 {
        let grown = if t > w.fill_time {
            let ns = t.since(w.fill_time).as_ns();
            w.fill + (ns as u128 * self.media_sectors_per_sec() as u128 / 1_000_000_000) as u64
        } else {
            w.fill
        };
        grown.min(w.cap)
    }

    /// Instant at which the fill of `w` reaches `sector` (>= fill_time).
    fn time_fill_reaches(&self, w: &RaWindow, sector: u64) -> SimTime {
        if sector <= w.fill {
            return w.fill_time;
        }
        let need = sector - w.fill;
        let ns = need as u128 * 1_000_000_000 / self.media_sectors_per_sec() as u128;
        w.fill_time + Dur::from_ns(ns as u64)
    }

    /// Seek time for a head movement of `dist` sectors: zero for none,
    /// track-to-track for short hops, growing concavely (square root of
    /// normalized distance, classic disk-model shape) toward the average
    /// seek at one-third stroke.
    fn seek_time(&self, dist: u64) -> Dur {
        if dist == 0 || self.profile.kind == DiskKind::Ram {
            return Dur::ZERO;
        }
        let frac = (dist as f64 / self.profile.sectors as f64).min(1.0);
        // Average seek corresponds to a one-third-stroke move.
        let scale = (frac * 3.0).sqrt().min(1.5);
        let var = self
            .profile
            .avg_seek
            .saturating_sub(self.profile.track_seek);
        self.profile.track_seek + Dur::from_ns((var.as_ns() as f64 * scale) as u64)
    }

    /// Submits one request with a caller-chosen `token`. If the drive is
    /// idle the request enters service at once and [`Started`] names its
    /// completion time; otherwise it queues (elevator order) and starts
    /// when [`Disk::complete`] retires the active request.
    ///
    /// # Panics
    ///
    /// Panics if the request is not one whole, aligned medium block or
    /// runs off the end of the medium, or if a write is missing its block
    /// (or a read has one attached).
    pub fn submit(
        &mut self,
        now: SimTime,
        token: u64,
        op: IoOp,
        sector: u64,
        len: usize,
        data: Option<Block>,
    ) -> Option<Started> {
        let bs = self.store.block_size();
        assert!(
            len == bs && (sector * SECTOR_SIZE as u64).is_multiple_of(bs as u64),
            "unaligned request: {len} bytes at sector {sector} on {bs}-byte blocks"
        );
        let nsec = (len / SECTOR_SIZE) as u64;
        assert!(
            sector + nsec <= self.profile.sectors,
            "I/O past end of medium"
        );
        match op {
            IoOp::Write => assert!(
                data.as_ref().is_some_and(|d| d.len() == len),
                "write needs a {len}-byte block"
            ),
            IoOp::Read => assert!(data.is_none(), "read carries no data"),
        }
        self.stats.requests += 1;
        self.stats.bytes += len as u64;
        self.queue.push(Pending {
            token,
            op,
            sector,
            len,
            data,
        });
        if self.active.is_none() {
            self.start_next(now)
        } else {
            None
        }
    }

    /// Retires the active request at its completion interrupt, returning
    /// its result and, if another request was queued, the next one put
    /// into service.
    ///
    /// # Panics
    ///
    /// Panics if no request is active or the interrupt fired at the wrong
    /// time (kernel/driver bug).
    pub fn complete(&mut self, now: SimTime) -> (IoDone, Option<Started>) {
        let (finish, done) = self
            .active
            .take()
            .expect("completion without active request");
        assert_eq!(finish, now, "completion interrupt at the wrong time");
        let next = self.start_next(now);
        (done, next)
    }

    /// Picks the next queued request by `disksort`: the lowest sector at
    /// or beyond the sweep position, wrapping to the lowest overall.
    fn pick_next(&mut self) -> Option<Pending> {
        if self.queue.is_empty() {
            return None;
        }
        let sweep = self.head;
        let idx = self
            .queue
            .iter()
            .enumerate()
            .filter(|(_, p)| p.sector >= sweep)
            .min_by_key(|(_, p)| p.sector)
            .map(|(i, _)| i)
            .unwrap_or_else(|| {
                self.queue
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, p)| p.sector)
                    .map(|(i, _)| i)
                    .expect("queue is non-empty")
            });
        Some(self.queue.swap_remove(idx))
    }

    fn start_next(&mut self, now: SimTime) -> Option<Started> {
        let req = self.pick_next()?;
        self.use_clock += 1;
        let nsec = (req.len / SECTOR_SIZE) as u64;
        let done = match req.op {
            IoOp::Read => self.service_read(now, req.token, req.sector, nsec, req.len),
            IoOp::Write => self.service_write(
                now,
                req.token,
                req.sector,
                nsec,
                req.data.expect("write has data"),
            ),
        };
        self.head = req.sector + nsec;
        let svc = done.0.since(now);
        self.busy += svc;
        self.service_hist.record(svc.as_ns());
        let started = Started {
            token: req.token,
            finish: done.0,
        };
        self.active = Some((done.0, done.1));
        Some(started)
    }

    fn host_cpu(&self, len: usize) -> Dur {
        Dur::for_bytes(len as u64, self.profile.host_copy_bps)
    }

    fn service_read(
        &mut self,
        start: SimTime,
        token: u64,
        sector: u64,
        nsec: u64,
        len: usize,
    ) -> (SimTime, IoDone) {
        let end = sector + nsec;
        let use_clock = self.use_clock;
        let fd = self.decide_fault(false, sector, nsec);

        // Look for a read-ahead segment covering (or about to cover) the
        // range: the request start must be retained and inside the fill cap.
        let hit = self
            .windows
            .iter()
            .position(|w| sector >= w.lo && sector <= self.fill_at(w, start) && end <= w.cap);

        let (finish, cache_hit) = if let Some(i) = hit {
            // Served from cache; if the fill has not reached the end of the
            // range yet, wait for the media to catch up.
            let catch_up = self.time_fill_reaches(&self.windows[i], end);
            let ready = if catch_up > start { catch_up } else { start };
            let finish =
                ready + self.profile.per_request + Dur::for_bytes(len as u64, self.profile.bus_bps);
            let seg_cap = self.seg_capacity_sectors();
            let w = &mut self.windows[i];
            w.cap = (end + seg_cap).min(self.profile.sectors);
            w.lo = w.lo.max(end.saturating_sub(seg_cap));
            w.last_used = use_clock;
            self.stats.cache_hits += 1;
            (finish, true)
        } else {
            // Mechanical access: seek + rotation + media transfer.
            let dist = self.head.abs_diff(sector);
            let mech = self.seek_time(dist) + self.profile.avg_rotation;
            let finish = start
                + self.profile.per_request
                + mech
                + Dur::for_bytes(len as u64, self.profile.media_bps);
            self.stats.mechanical += 1;
            // The drive continues reading sequentially into a (new or LRU)
            // cache segment from the end of this request.
            if self.seg_capacity_sectors() > 0 {
                let w = RaWindow {
                    lo: end,
                    fill: end,
                    fill_time: finish,
                    cap: (end + self.seg_capacity_sectors()).min(self.profile.sectors),
                    last_used: use_clock,
                };
                if self.windows.len() < self.profile.cache_segments.max(1) {
                    self.windows.push(w);
                } else if let Some(victim) = self.windows.iter_mut().min_by_key(|w| w.last_used) {
                    *victim = w;
                }
            }
            (finish, false)
        };

        // A faulted read spent its service time (plus any spike) but
        // delivers no data: the interrupt reports B_ERROR instead.
        let data = (!fd.error).then(|| self.store.block(sector * SECTOR_SIZE as u64));
        (
            finish + fd.extra_latency,
            IoDone {
                token,
                host_cpu: self.host_cpu(len),
                data,
                cache_hit,
                error: fd.error,
            },
        )
    }

    fn service_write(
        &mut self,
        start: SimTime,
        token: u64,
        sector: u64,
        nsec: u64,
        data: Block,
    ) -> (SimTime, IoDone) {
        let len = data.len();
        // Sequential writes catch the next sector without seek or
        // rotational delay (track skew and drive write staging hide the
        // gap); any other write pays seek + rotation.
        let dist = self.head.abs_diff(sector);
        let sequential = dist == 0;
        let mech = if sequential {
            Dur::ZERO
        } else {
            self.seek_time(dist) + self.profile.avg_rotation
        };
        if !sequential {
            self.stats.mechanical += 1;
        }
        let finish = start
            + self.profile.per_request
            + mech
            + Dur::for_bytes(len as u64, self.profile.media_bps);

        // A write lands on the medium and invalidates any overlapping
        // read-ahead data. A faulted write persists only its torn-sector
        // prefix (possibly nothing) before the error.
        let fd = self.decide_fault(true, sector, nsec);
        let off = sector * SECTOR_SIZE as u64;
        if fd.error {
            let keep = fd.torn_sectors.unwrap_or(0) as usize * SECTOR_SIZE;
            if keep > 0 {
                self.store.write(off, &data[..keep]);
            }
        } else {
            self.store.put_block(off, data);
        }
        let end = sector + nsec;
        self.windows.retain(|w| end <= w.lo || sector >= w.cap);

        (
            finish + fd.extra_latency,
            IoDone {
                token,
                host_cpu: self.host_cpu(len),
                data: None,
                cache_hit: false,
                error: fd.error,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DiskProfile;
    use std::rc::Rc;

    const BLK: usize = 8192;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + Dur::from_ms(ms)
    }

    /// Runs one request to completion on an idle drive, returning
    /// `(finish, done)`.
    fn run_one(
        d: &mut Disk,
        now: SimTime,
        op: IoOp,
        sector: u64,
        data: Option<Block>,
    ) -> (SimTime, IoDone) {
        let started = d.submit(now, 1, op, sector, BLK, data).expect("idle drive");
        let (done, next) = d.complete(started.finish);
        assert!(next.is_none());
        (started.finish, done)
    }

    #[test]
    fn first_read_is_mechanical() {
        let mut d = Disk::new(DiskProfile::rz56(), BLK);
        let (finish, done) = run_one(&mut d, SimTime::ZERO, IoOp::Read, 1024, None);
        assert!(!done.cache_hit);
        let min = DiskProfile::rz56().avg_rotation
            + Dur::for_bytes(BLK as u64, DiskProfile::rz56().media_bps);
        assert!(finish.since(SimTime::ZERO) >= min);
    }

    #[test]
    fn sequential_read_hits_readahead_cache() {
        let mut d = Disk::new(DiskProfile::rz56(), BLK);
        let (f1, _) = run_one(&mut d, SimTime::ZERO, IoOp::Read, 0, None);
        let later = f1 + Dur::from_ms(50);
        let (f2, done) = run_one(&mut d, later, IoOp::Read, 16, None);
        assert!(done.cache_hit);
        assert!(f2.since(later) < DiskProfile::rz56().avg_rotation);
    }

    #[test]
    fn sequential_reader_throttled_by_media_rate() {
        let mut d = Disk::new(DiskProfile::rz56(), BLK);
        let mut now = SimTime::ZERO;
        let total_blocks = 64u64; // 512 KB, well past the 64 KB cache
        for i in 0..total_blocks {
            let (f, _) = run_one(&mut d, now, IoOp::Read, i * 16, None);
            now = f;
        }
        let elapsed = now.since(SimTime::ZERO).as_secs_f64();
        let rate = (total_blocks * BLK as u64) as f64 / elapsed;
        let media = DiskProfile::rz56().media_bps as f64;
        assert!(rate <= media * 1.05, "rate {rate} exceeds media {media}");
        assert!(rate >= media * 0.5, "rate {rate} implausibly slow");
    }

    #[test]
    fn random_reads_pay_seek_each_time() {
        let mut d = Disk::new(DiskProfile::rz56(), BLK);
        let (f1, _) = run_one(&mut d, SimTime::ZERO, IoOp::Read, 0, None);
        let (f2, done) = run_one(&mut d, f1, IoOp::Read, 1_000_000, None);
        assert!(!done.cache_hit);
        assert!(f2.since(f1) > DiskProfile::rz56().avg_rotation);
    }

    #[test]
    fn write_read_roundtrip_preserves_data() {
        let mut d = Disk::new(DiskProfile::rz58(), BLK);
        let data: Block = Rc::new((0..BLK).map(|i| (i % 251) as u8).collect());
        let (f1, _) = run_one(
            &mut d,
            SimTime::ZERO,
            IoOp::Write,
            64,
            Some(Rc::clone(&data)),
        );
        let (_, done) = run_one(&mut d, f1, IoOp::Read, 64, None);
        assert!(
            Rc::ptr_eq(&done.data.unwrap(), &data),
            "the block was copied on the host"
        );
    }

    #[test]
    fn sequential_writes_stream_without_rotation() {
        let mut d = Disk::new(DiskProfile::rz58(), BLK);
        let data = Rc::new(vec![0u8; BLK]);
        let (f1, _) = run_one(
            &mut d,
            SimTime::ZERO,
            IoOp::Write,
            0,
            Some(Rc::clone(&data)),
        );
        let (f2, _) = run_one(&mut d, f1, IoOp::Write, 16, Some(Rc::clone(&data)));
        let xfer = Dur::for_bytes(BLK as u64, DiskProfile::rz58().media_bps);
        assert!(f2.since(f1) < xfer + Dur::from_ms(2));
        // A later sequential continuation also streams (write staging
        // hides pacing gaps).
        let later = f2 + Dur::from_ms(20);
        let (f3, _) = run_one(&mut d, later, IoOp::Write, 32, Some(data));
        assert!(f3.since(later) < xfer + Dur::from_ms(2));
    }

    #[test]
    fn busy_drive_queues_and_completes_in_turn() {
        let mut d = Disk::new(DiskProfile::rz56(), BLK);
        let s1 = d
            .submit(SimTime::ZERO, 1, IoOp::Read, 0, BLK, None)
            .unwrap();
        // Second request queues while the first transfers.
        assert!(d
            .submit(SimTime::ZERO, 2, IoOp::Read, 1_000_000, BLK, None)
            .is_none());
        assert_eq!(d.queue_depth(), 1);
        let (done1, next) = d.complete(s1.finish);
        assert_eq!(done1.token, 1);
        let s2 = next.expect("queued request starts");
        assert_eq!(s2.token, 2);
        assert!(s2.finish > s1.finish);
        let (done2, next) = d.complete(s2.finish);
        assert_eq!(done2.token, 2);
        assert!(next.is_none());
    }

    #[test]
    fn disksort_orders_a_backwards_batch() {
        // Tokens 9..1 submitted in descending sector order while busy;
        // the elevator services them ascending, so consecutive-sector
        // writes stream without rotation.
        let mut d = Disk::new(DiskProfile::rz58(), BLK);
        let data = Rc::new(vec![0u8; BLK]);
        let s0 = d
            .submit(
                SimTime::ZERO,
                0,
                IoOp::Write,
                0,
                BLK,
                Some(Rc::clone(&data)),
            )
            .unwrap();
        for i in (1..=5u64).rev() {
            assert!(d
                .submit(
                    SimTime::ZERO,
                    i,
                    IoOp::Write,
                    i * 16,
                    BLK,
                    Some(Rc::clone(&data))
                )
                .is_none());
        }
        let mut order = Vec::new();
        let mut next = {
            let (_, n) = d.complete(s0.finish);
            n
        };
        while let Some(s) = next {
            order.push(s.token);
            let (done, n) = d.complete(s.finish);
            assert_eq!(done.token, s.token);
            next = n;
        }
        assert_eq!(order, vec![1, 2, 3, 4, 5], "elevator order");
        assert_eq!(
            d.stats().mechanical,
            0,
            "every write streams in elevator order"
        );
    }

    #[test]
    fn write_invalidates_overlapping_readahead() {
        let mut d = Disk::new(DiskProfile::rz56(), BLK);
        let (f1, _) = run_one(&mut d, SimTime::ZERO, IoOp::Read, 0, None);
        let later = f1 + Dur::from_ms(50);
        let data = Rc::new(vec![1u8; BLK]);
        let (f2, _) = run_one(&mut d, later, IoOp::Write, 16, Some(Rc::clone(&data)));
        let (_, done) = run_one(&mut d, f2, IoOp::Read, 16, None);
        assert_eq!(*done.data.unwrap(), *data);
    }

    #[test]
    fn host_cpu_charged_per_byte() {
        let mut d = Disk::new(DiskProfile::rz56(), BLK);
        let (_, done) = run_one(&mut d, SimTime::ZERO, IoOp::Read, 0, None);
        assert_eq!(
            done.host_cpu,
            Dur::for_bytes(BLK as u64, DiskProfile::rz56().host_copy_bps)
        );
    }

    #[test]
    fn rz58_multiple_segments_survive_interleaving() {
        let mut d = Disk::new(DiskProfile::rz58(), BLK);
        let s1 = 0u64;
        let s2 = 1_000_000u64;
        let (f1, _) = run_one(&mut d, t(0), IoOp::Read, s1, None);
        let (f2, _) = run_one(&mut d, f1, IoOp::Read, s2, None);
        let later = f2 + Dur::from_ms(100);
        let (f3, c) = run_one(&mut d, later, IoOp::Read, s1 + 16, None);
        let (_, e) = run_one(&mut d, f3, IoOp::Read, s2 + 16, None);
        assert!(c.cache_hit, "stream 1 lost its segment");
        assert!(e.cache_hit, "stream 2 lost its segment");
    }

    #[test]
    fn rz56_single_segment_thrashes_on_interleaving() {
        let mut d = Disk::new(DiskProfile::rz56(), BLK);
        let (f1, _) = run_one(&mut d, t(0), IoOp::Read, 0, None);
        let (f2, _) = run_one(&mut d, f1, IoOp::Read, 1_000_000, None);
        let later = f2 + Dur::from_ms(100);
        let (_, c) = run_one(&mut d, later, IoOp::Read, 16, None);
        assert!(!c.cache_hit, "single segment should have been replaced");
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_length_rejected() {
        let mut d = Disk::new(DiskProfile::rz56(), BLK);
        d.submit(SimTime::ZERO, 1, IoOp::Read, 0, 100, None);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_sector_rejected() {
        let mut d = Disk::new(DiskProfile::rz56(), BLK);
        d.submit(SimTime::ZERO, 1, IoOp::Read, 1000, BLK, None);
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn out_of_range_rejected() {
        let mut d = Disk::new(DiskProfile::rz56(), BLK);
        let spb = (BLK / SECTOR_SIZE) as u64;
        let last = DiskProfile::rz56().sectors / spb * spb;
        d.submit(SimTime::ZERO, 1, IoOp::Read, last, BLK, None);
    }

    #[test]
    #[should_panic(expected = "without active")]
    fn stray_completion_rejected() {
        let mut d = Disk::new(DiskProfile::rz56(), BLK);
        d.complete(SimTime::ZERO);
    }

    #[test]
    fn faulted_read_reports_error_without_data() {
        use crate::fault::{FaultOp, FaultPlan};
        let mut d = Disk::new(DiskProfile::rz56(), BLK);
        d.set_fault_plan(Some(FaultPlan::new(1).transient_eio_at(
            FaultOp::Read,
            0,
            1,
        )));
        let (_, done) = run_one(&mut d, SimTime::ZERO, IoOp::Read, 0, None);
        assert!(done.error);
        assert!(done.data.is_none());
        // The failed transfer is charged like a clean one.
        assert_eq!(done.host_cpu, d.host_cpu(BLK));
        assert_eq!(d.stats().requests, 1);
        assert_eq!(d.stats().bytes, BLK as u64);
        assert_eq!(d.service_hist().count(), 1);
        let (_, done) = run_one(&mut d, t(100), IoOp::Read, 0, None);
        assert!(!done.error, "transient fault clears on retry");
        assert!(done.data.is_some());
    }

    #[test]
    fn latency_spike_delays_completion() {
        use crate::fault::{FaultOp, FaultPlan};
        let mut clean = Disk::new(DiskProfile::rz56(), BLK);
        let (f0, _) = run_one(&mut clean, SimTime::ZERO, IoOp::Read, 0, None);
        let mut d = Disk::new(DiskProfile::rz56(), BLK);
        d.set_fault_plan(Some(FaultPlan::new(1).latency_spike(
            FaultOp::Read,
            1.0,
            Dur::from_ms(40),
        )));
        let (f1, done) = run_one(&mut d, SimTime::ZERO, IoOp::Read, 0, None);
        assert!(!done.error);
        assert_eq!(f1, f0 + Dur::from_ms(40));
    }

    #[test]
    fn torn_write_persists_prefix_then_errors() {
        use crate::fault::FaultPlan;
        let mut d = Disk::new(DiskProfile::rz58(), BLK);
        let base = vec![0xAAu8; BLK];
        let (f1, _) = run_one(&mut d, SimTime::ZERO, IoOp::Write, 0, Some(Rc::new(base)));
        d.set_fault_plan(Some(FaultPlan::new(1).torn_write(0, 4)));
        let (f2, done) = run_one(&mut d, f1, IoOp::Write, 0, Some(Rc::new(vec![0x55u8; BLK])));
        assert!(done.error);
        let on_disk = d.store().read_vec(0, BLK);
        assert_eq!(
            &on_disk[..4 * SECTOR_SIZE],
            &vec![0x55u8; 4 * SECTOR_SIZE][..]
        );
        assert_eq!(
            &on_disk[4 * SECTOR_SIZE..],
            &vec![0xAAu8; BLK - 4 * SECTOR_SIZE][..]
        );
        // The tear is one-shot: the retry lands cleanly.
        let (_, done) = run_one(&mut d, f2, IoOp::Write, 0, Some(Rc::new(vec![0x55u8; BLK])));
        assert!(!done.error);
        assert_eq!(d.store().read_vec(0, BLK), vec![0x55u8; BLK]);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = Disk::new(DiskProfile::rz56(), BLK);
        let (f1, _) = run_one(&mut d, SimTime::ZERO, IoOp::Read, 0, None);
        run_one(&mut d, f1 + Dur::from_ms(50), IoOp::Read, 16, None);
        let s = d.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.mechanical, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.bytes, 2 * BLK as u64);
    }

    #[test]
    fn busy_time_and_service_hist_track_service_windows() {
        let mut d = Disk::new(DiskProfile::rz56(), BLK);
        let (f1, _) = run_one(&mut d, SimTime::ZERO, IoOp::Read, 0, None);
        let gap = f1 + Dur::from_ms(50);
        let (f2, _) = run_one(&mut d, gap, IoOp::Read, 16, None);
        // Busy time is the sum of the two service windows, excluding
        // the idle gap between them.
        assert_eq!(d.busy_time(), f1.since(SimTime::ZERO) + f2.since(gap));
        assert_eq!(d.service_hist().count(), 2);
        assert_eq!(
            d.service_hist().max(),
            Some(f1.since(SimTime::ZERO).as_ns())
        );
    }
}
