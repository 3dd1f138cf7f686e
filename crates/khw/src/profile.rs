//! Machine and disk characteristic tables.
//!
//! Everything here is *data*: the paper's §6.1 hardware description turned
//! into numbers the simulator consumes. Experiments perturb copies of these
//! profiles (ablation benches), so nothing in the kernel reads a constant
//! that is not in a profile.
//!
//! # Calibration sources
//!
//! * Memory bandwidths: §6.1 — "cached memory read throughput is 21 MB/s,
//!   uncached CPU read rate is 10 MB/s, and partial-page write throughput
//!   is 20 MB/s". A `bcopy` both reads and writes, so its rate is the
//!   harmonic combination of a read and a write stream; streaming through
//!   a multi-megabyte region defeats the 64 KB data cache, which is why the
//!   driver-level copy rate sits near the uncached combination.
//! * RZ56/RZ58 mechanics: §6.1 and \[DEC92\] — rotational latency, seek, peak
//!   media rate, read-ahead cache size and segmentation.
//! * Kernel path costs (syscall, context switch, interrupt service, buffer
//!   cache bookkeeping): era-typical values for a 25 MHz R3000 running a
//!   4.2BSD-derived kernel; these are the calibration knobs used to land
//!   the Table 1/Table 2 shapes and are exercised by the ablation benches.

use ksim::Dur;

/// Device sector size in bytes (`DEV_BSIZE`).
pub const SECTOR_SIZE: usize = 512;

/// What kind of device a [`DiskProfile`] describes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiskKind {
    /// Mechanical SCSI disk with seek/rotation/media mechanics.
    Scsi,
    /// Kernel-memory RAM disk: transfers are CPU `bcopy`s.
    Ram,
}

/// Category of a modelled memory copy, for cost selection and accounting.
///
/// The whole point of splice is which of these happen and which do not, so
/// every byte moved in the simulation is tagged with one of these.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CopyKind {
    /// Kernel → user transfer (`copyout`), e.g. `read(2)` filling a user
    /// buffer.
    Copyout,
    /// User → kernel transfer (`copyin`), e.g. `write(2)` draining one.
    Copyin,
    /// Device driver data movement (RAM-disk `bcopy`, SCSI pseudo-DMA
    /// bounce-buffer copy).
    Driver,
    /// Kernel buffer to kernel buffer (what splice's shared data area
    /// avoids).
    CacheToCache,
    /// Network stack copy (socket buffer ↔ mbuf path).
    Net,
}

/// Per-disk characteristics.
#[derive(Clone, Debug)]
pub struct DiskProfile {
    /// Human-readable model name ("RZ56").
    pub name: &'static str,
    /// Mechanical vs RAM device.
    pub kind: DiskKind,
    /// Capacity in sectors.
    pub sectors: u64,
    /// Average seek time (used for long seeks).
    pub avg_seek: Dur,
    /// Track-to-track seek time (short seeks).
    pub track_seek: Dur,
    /// Average rotational latency (half a revolution).
    pub avg_rotation: Dur,
    /// Sustained to/from-media transfer rate, bytes/s.
    pub media_bps: u64,
    /// On-drive read-ahead cache size in bytes (0 = none).
    pub cache_bytes: usize,
    /// Number of independent read-ahead segments the cache is divided into.
    pub cache_segments: usize,
    /// Host transfer rate when the request is satisfied from the drive
    /// cache, bytes/s (SCSI bus / controller limited).
    pub bus_bps: u64,
    /// Fixed controller + command overhead per request.
    pub per_request: Dur,
    /// CPU cost per transferred byte on the host side, expressed as a
    /// bytes/s rate. On the DECstation 5000/200 the SCSI path moves data
    /// through a bounce buffer with a CPU copy (pseudo-DMA), so every disk
    /// transfer charges host CPU at this rate. For the RAM disk this *is*
    /// the transfer (driver `bcopy` of uncached kernel BSS).
    pub host_copy_bps: u64,
}

impl DiskProfile {
    /// Digital RZ56: 665 MB, 3600 rpm-class drive.
    ///
    /// §6.1: 8.3 ms average rotational latency, 16 ms average seek,
    /// 1.66 MB/s peak media rate, 64 KB read-ahead cache (one segment).
    pub fn rz56() -> Self {
        DiskProfile {
            name: "RZ56",
            kind: DiskKind::Scsi,
            sectors: 1_299_174, // 665 MB / 512
            avg_seek: Dur::from_us(16_000),
            track_seek: Dur::from_us(2_500),
            avg_rotation: Dur::from_us(8_300),
            media_bps: 1_660_000,
            cache_bytes: 64 * 1024,
            cache_segments: 1,
            bus_bps: 2_300_000,
            per_request: Dur::from_us(900),
            host_copy_bps: 10_000_000,
        }
    }

    /// Digital RZ58: 1.38 GB, 5400 rpm-class drive.
    ///
    /// §6.1: 5.6 ms average rotational latency, <12.5 ms average seek,
    /// ~2.6 MB/s media rate, 256 KB read-ahead cache in 4 segments.
    pub fn rz58() -> Self {
        DiskProfile {
            name: "RZ58",
            kind: DiskKind::Scsi,
            sectors: 2_698_061, // 1.38 GB / 512
            avg_seek: Dur::from_us(12_500),
            track_seek: Dur::from_us(2_000),
            avg_rotation: Dur::from_us(5_600),
            media_bps: 2_600_000,
            cache_bytes: 256 * 1024,
            cache_segments: 4,
            bus_bps: 3_500_000,
            per_request: Dur::from_us(700),
            host_copy_bps: 25_000_000,
        }
    }

    /// The paper's RAM disk: 16 MB of statically allocated kernel BSS with
    /// a block/character device interface (§6.1). Transfers are driver
    /// `bcopy`s at the uncached streaming rate; there are no mechanics.
    pub fn ramdisk() -> Self {
        DiskProfile {
            name: "RAM",
            kind: DiskKind::Ram,
            sectors: (16 * 1024 * 1024) / SECTOR_SIZE as u64,
            avg_seek: Dur::ZERO,
            track_seek: Dur::ZERO,
            avg_rotation: Dur::ZERO,
            media_bps: u64::MAX / 2,
            cache_bytes: 0,
            cache_segments: 1,
            bus_bps: u64::MAX / 2,
            per_request: Dur::ZERO,
            host_copy_bps: 10_000_000,
        }
    }

    /// Capacity in bytes.
    pub fn bytes(&self) -> u64 {
        self.sectors * SECTOR_SIZE as u64
    }
}

/// The machine-wide cost table.
#[derive(Clone, Debug)]
pub struct MachineProfile {
    /// Clock interrupt frequency (Ultrix on DECstations ran HZ = 256).
    pub hz: u64,
    /// `bcopy` rate for copies whose working set sits in the data cache
    /// (small, reused buffers), bytes/s.
    pub bcopy_cached_bps: u64,
    /// `bcopy` rate for streaming copies that miss the 64 KB data cache
    /// (multi-megabyte transfers), bytes/s.
    pub bcopy_uncached_bps: u64,
    /// Fixed CPU cost of entering and leaving the kernel for one system
    /// call (trap, dispatch, return).
    pub syscall: Dur,
    /// Fixed CPU cost of a full process context switch.
    pub ctx_switch: Dur,
    /// Fixed CPU cost of taking and dismissing one device interrupt.
    pub interrupt: Dur,
    /// CPU cost of one buffer-cache bookkeeping operation (hash lookup,
    /// free-list manipulation: the fixed part of `getblk`/`brelse`).
    pub buf_op: Dur,
    /// CPU cost of the hardclock handler, charged every tick.
    pub hardclock: Dur,
    /// CPU cost of dispatching one callout entry from softclock.
    pub callout_dispatch: Dur,
    /// CPU cost of one splice handler invocation (read handler, write
    /// handler, completion handler) excluding buffer-cache bookkeeping,
    /// which is charged separately per `buf_op`.
    pub splice_handler: Dur,
    /// Per-tick budget of *deferred kernel work* (splice handler chains,
    /// driver strategy calls made from completion context) that may run at
    /// kernel priority; work beyond the budget is deferred and only runs
    /// when no user process is runnable. This models the way timeshared
    /// kernels keep charge-free asynchronous kernel work from starving
    /// paying processes (the same discipline modern kernels implement with
    /// `ksoftirqd`), and is the mechanism behind the paper's observation
    /// that a splice leaves most of the CPU to user processes while still
    /// saturating the data path on an idle machine.
    pub softwork_budget_per_tick: Dur,
    /// Scheduling quantum for round-robin user scheduling.
    pub quantum: Dur,
    /// CPU cost of delivering a signal to a process.
    pub signal_delivery: Dur,
    /// Extra CPU per page of a user/kernel copy (`copyin`/`copyout`
    /// validity checks and page-boundary handling) on top of the raw
    /// `bcopy` bandwidth.
    pub user_copy_page_overhead: Dur,
    /// CPU cost of a page fault + mapping update (mmap-based baseline).
    pub page_fault: Dur,
    /// Page size (for the mmap baseline).
    pub page_size: usize,
    /// CPU cost of UDP/IP protocol processing per packet.
    pub udp_packet: Dur,
    /// Network copy rate (socket buffer ↔ mbuf), bytes/s.
    pub net_copy_bps: u64,
    /// CPU cost of validating and queueing one splice-ring submission
    /// entry (copyin of the SQE, descriptor checks) — charged per entry
    /// on top of the single `syscall` crossing for the whole batch.
    pub ring_submit_entry: Dur,
    /// CPU cost of copying one splice-ring completion entry out to the
    /// reaper — charged per entry on top of the single `syscall`
    /// crossing for the whole batch.
    pub ring_reap_entry: Dur,
}

impl MachineProfile {
    /// DECstation 5000/200 ("3MAX"): 25 MHz R3000, 32 MB memory,
    /// 64 KB I + 64 KB write-through D cache (§6.1).
    pub fn decstation_5000_200() -> Self {
        MachineProfile {
            hz: 256,
            // Read at 21 MB/s + write at 20 MB/s, harmonically combined.
            bcopy_cached_bps: 10_200_000,
            // Read at 10 MB/s (uncached) + write at 20 MB/s.
            bcopy_uncached_bps: 6_900_000,
            syscall: Dur::from_us(40),
            ctx_switch: Dur::from_us(120),
            interrupt: Dur::from_us(65),
            buf_op: Dur::from_us(18),
            hardclock: Dur::from_us(12),
            callout_dispatch: Dur::from_us(10),
            splice_handler: Dur::from_us(45),
            softwork_budget_per_tick: Dur::from_us(780), // ~20% of a 3.9 ms tick
            quantum: Dur::from_ms(40),
            signal_delivery: Dur::from_us(90),
            user_copy_page_overhead: Dur::from_us(230),
            page_fault: Dur::from_us(350),
            page_size: 4096,
            udp_packet: Dur::from_us(180),
            net_copy_bps: 10_200_000,
            // A fraction of the full crossing: no trap, just per-entry
            // copy + validation inside an already-entered kernel.
            ring_submit_entry: Dur::from_us(6),
            ring_reap_entry: Dur::from_us(3),
        }
    }

    /// Tick length implied by `hz`.
    pub fn tick(&self) -> Dur {
        Dur::from_ns(1_000_000_000 / self.hz)
    }

    /// CPU cost of copying `bytes` with semantics `kind`.
    ///
    /// User/kernel copies (`copyin`/`copyout`) stream through the cache;
    /// large transfers in this workload exceed the 64 KB data cache so we
    /// charge the cached rate only for the store side. Driver copies move
    /// uncached device/BSS memory. This is the single place copy costs are
    /// computed.
    pub fn copy_cost(&self, kind: CopyKind, bytes: usize) -> Dur {
        let bps = match kind {
            CopyKind::Copyin | CopyKind::Copyout => self.bcopy_cached_bps,
            CopyKind::Driver => self.bcopy_uncached_bps,
            CopyKind::CacheToCache => self.bcopy_cached_bps,
            CopyKind::Net => self.net_copy_bps,
        };
        let mut cost = Dur::for_bytes(bytes as u64, bps);
        if matches!(kind, CopyKind::Copyin | CopyKind::Copyout) {
            // Address validation and page-crossing handling per touched
            // page.
            let pages = bytes.div_ceil(self.page_size) as u64;
            cost += self.user_copy_page_overhead * pages;
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_matches_hz() {
        let p = MachineProfile::decstation_5000_200();
        assert_eq!(p.tick().as_ns(), 1_000_000_000 / 256);
    }

    #[test]
    fn copy_cost_scales_linearly() {
        let p = MachineProfile::decstation_5000_200();
        let one = p.copy_cost(CopyKind::Copyin, 8192);
        let two = p.copy_cost(CopyKind::Copyin, 16384);
        // Allow a nanosecond of rounding per call.
        assert!(two.as_ns() >= 2 * one.as_ns() - 2);
        assert!(two.as_ns() <= 2 * one.as_ns() + 2);
    }

    #[test]
    fn user_copies_pay_per_page_overhead() {
        let p = MachineProfile::decstation_5000_200();
        let raw = Dur::for_bytes(8192, p.bcopy_cached_bps);
        let pages = 8192u64 / p.page_size as u64;
        assert_eq!(
            p.copy_cost(CopyKind::Copyout, 8192),
            raw + p.user_copy_page_overhead * pages
        );
        // Driver copies pay no page overhead.
        assert_eq!(
            p.copy_cost(CopyKind::Driver, 8192),
            Dur::for_bytes(8192, p.bcopy_uncached_bps)
        );
    }

    #[test]
    fn disk_profiles_reflect_paper() {
        let rz56 = DiskProfile::rz56();
        let rz58 = DiskProfile::rz58();
        assert!(rz58.media_bps > rz56.media_bps);
        assert!(rz58.avg_seek < rz56.avg_seek);
        assert!(rz58.avg_rotation < rz56.avg_rotation);
        assert_eq!(rz56.cache_bytes, 64 * 1024);
        assert_eq!(rz58.cache_bytes, 256 * 1024);
        assert_eq!(rz58.cache_segments, 4);
    }

    #[test]
    fn ramdisk_is_16mb() {
        let ram = DiskProfile::ramdisk();
        assert_eq!(ram.bytes(), 16 * 1024 * 1024);
        assert_eq!(ram.kind, DiskKind::Ram);
    }
}
