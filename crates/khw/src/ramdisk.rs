//! The RAM disk driver (§6.1).
//!
//! "The ram disk driver uses 16 MB of statically allocated memory from the
//! kernel's BSS region." A transfer has no mechanics at all: it is a CPU
//! `bcopy` between the BSS region and the caller's buffer, charged at the
//! uncached streaming rate (16 MB does not fit the 64 KB data cache).
//!
//! The driver completes requests *synchronously in the caller's context* —
//! exactly like the real pseudo-disk: the strategy routine does the copy
//! and calls `biodone` before returning. Whose CPU that is depends on who
//! called strategy (a user process doing `read(2)`, or the splice engine's
//! deferred kernel work), which is what makes the RAM-disk rows of Table 1
//! come out differently for CP and SCP.
//!
//! On the host the "copy" moves a shared [`Block`] reference between the
//! medium and the caller (see [`crate::store`]); only its simulated cost,
//! [`RamDisk::copy_cost`], is charged.

use ksim::{Dur, Hist};

use crate::fault::{FaultDecision, FaultPlan};
use crate::profile::{DiskProfile, SECTOR_SIZE};
use crate::store::{Block, SparseStore};

/// Cumulative RAM-disk counters.
#[derive(Default, Clone, Copy, Debug)]
pub struct RamDiskStats {
    /// Requests serviced.
    pub requests: u64,
    /// Bytes copied in or out.
    pub bytes: u64,
}

/// The 16 MB kernel-memory disk.
pub struct RamDisk {
    profile: DiskProfile,
    store: SparseStore,
    stats: RamDiskStats,
    /// Accumulated `bcopy` CPU charged to callers (the RAM disk's
    /// "busy" time is exactly the host CPU it consumed).
    busy: Dur,
    /// Per-request copy-cost distribution (ns).
    service_hist: Hist,
    fault: Option<FaultPlan>,
}

impl RamDisk {
    /// Creates a RAM disk from a profile (normally [`DiskProfile::ramdisk`])
    /// whose medium is held in `block_size`-byte blocks, the unit of every
    /// transfer.
    ///
    /// # Panics
    ///
    /// Panics if the profile is not a RAM-kind profile.
    pub fn new(profile: DiskProfile, block_size: usize) -> Self {
        assert_eq!(
            profile.kind,
            crate::profile::DiskKind::Ram,
            "RamDisk requires a RAM profile"
        );
        let store = SparseStore::new(profile.bytes(), block_size);
        RamDisk {
            profile,
            store,
            stats: RamDiskStats::default(),
            busy: Dur::ZERO,
            service_hist: Hist::new(),
            fault: None,
        }
    }

    /// Installs (or clears) the fault plan consulted by
    /// [`RamDisk::read`] and [`RamDisk::write`]. The direct store
    /// accessors bypass it.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// The installed fault plan, if any (to inspect `injected()`).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// The profile this RAM disk was built from.
    pub fn profile(&self) -> &DiskProfile {
        &self.profile
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> RamDiskStats {
        self.stats
    }

    /// Accumulated driver `bcopy` time (the device's busy time).
    pub fn busy_time(&self) -> Dur {
        self.busy
    }

    /// Per-request copy-cost distribution (ns).
    pub fn service_hist(&self) -> &Hist {
        &self.service_hist
    }

    /// Direct medium access bypassing cost accounting (`mkfs`, tests).
    pub fn store(&self) -> &SparseStore {
        &self.store
    }

    /// Direct mutable medium access bypassing cost accounting.
    pub fn store_mut(&mut self) -> &mut SparseStore {
        &mut self.store
    }

    /// CPU cost of moving `len` bytes through the driver.
    pub fn copy_cost(&self, len: usize) -> Dur {
        Dur::for_bytes(len as u64, self.profile.host_copy_bps)
    }

    /// Charges one driver `bcopy` of `len` bytes: the request counter, the
    /// busy time and the service histogram.
    fn charge(&mut self, len: usize) -> Dur {
        self.stats.requests += 1;
        let cost = self.copy_cost(len);
        self.busy += cost;
        self.service_hist.record(cost.as_ns());
        cost
    }

    /// Reads the `len`-byte block at `sector`, consulting the installed
    /// [`FaultPlan`]. Returns the CPU cost of the driver `bcopy`
    /// (stretched by any latency spike) and the medium's block, shared
    /// rather than copied; `None` when the read failed, in which case the
    /// copy was still charged but nothing reaches the caller. Completion
    /// is immediate (synchronous).
    ///
    /// # Panics
    ///
    /// Panics unless the request is exactly one aligned medium block.
    pub fn read(&mut self, sector: u64, len: usize) -> (Dur, Option<Block>) {
        let d = self.decide(false, sector, len);
        let off = self.block_offset(sector, len);
        let block = (!d.error).then(|| self.store.block(off));
        self.stats.bytes += len as u64;
        (self.charge(len) + d.extra_latency, block)
    }

    /// Writes `block` at `sector`, consulting the installed [`FaultPlan`].
    /// The medium keeps the block itself (no copy). A torn write persists
    /// only the decided sector prefix before reporting the error. Returns
    /// the CPU cost of the driver `bcopy` (stretched by any latency spike;
    /// the extra latency is not device busy time) and whether the write
    /// failed. Completion is immediate (synchronous).
    ///
    /// # Panics
    ///
    /// Panics unless the request is exactly one aligned medium block.
    pub fn write(&mut self, sector: u64, block: Block) -> (Dur, bool) {
        let len = block.len();
        let d = self.decide(true, sector, len);
        let off = self.block_offset(sector, len);
        if d.error {
            let keep = d.torn_sectors.unwrap_or(0) as usize * SECTOR_SIZE;
            if keep > 0 {
                self.store.write(off, &block[..keep]);
            }
        } else {
            self.store.put_block(off, block);
            self.stats.bytes += len as u64;
        }
        (self.charge(len) + d.extra_latency, d.error)
    }

    /// Byte offset of the `len`-byte request at `sector`, which must be
    /// one whole medium block.
    fn block_offset(&self, sector: u64, len: usize) -> u64 {
        assert_eq!(
            len,
            self.store.block_size(),
            "RAM-disk transfer of {len} bytes is not one medium block"
        );
        sector * SECTOR_SIZE as u64
    }

    fn decide(&mut self, write: bool, sector: u64, len: usize) -> FaultDecision {
        match &mut self.fault {
            Some(plan) => plan.decide(write, sector, (len / SECTOR_SIZE) as u64),
            None => FaultDecision::CLEAN,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultOp, FaultPlan};
    use std::rc::Rc;

    const BS: usize = 8192;

    fn ramdisk() -> RamDisk {
        RamDisk::new(DiskProfile::ramdisk(), BS)
    }

    #[test]
    fn roundtrip_shares_the_block() {
        let mut rd = ramdisk();
        let data: Block = Rc::new((0..BS).map(|i| (i * 7 % 256) as u8).collect());
        rd.write(32, Rc::clone(&data));
        let (_, got) = rd.read(32, BS);
        assert!(
            Rc::ptr_eq(&got.unwrap(), &data),
            "the driver copied on the host"
        );
    }

    #[test]
    fn copy_cost_matches_profile_rate() {
        let rd = ramdisk();
        let cost = rd.copy_cost(8192);
        assert_eq!(
            cost,
            Dur::for_bytes(8192, DiskProfile::ramdisk().host_copy_bps)
        );
        // 8 KB at ~10 MB/s is most of a millisecond: the dominant
        // per-block cost in the RAM rows of the paper's tables.
        assert!(cost > Dur::from_us(600) && cost < Dur::from_us(1000));
    }

    #[test]
    fn stats_count_both_directions() {
        let mut rd = ramdisk();
        rd.write(0, Rc::new(vec![0u8; BS]));
        rd.read(0, BS);
        assert_eq!(rd.stats().requests, 2);
        assert_eq!(rd.stats().bytes, 2 * BS as u64);
    }

    #[test]
    fn busy_time_sums_copy_costs() {
        let mut rd = ramdisk();
        rd.write(0, Rc::new(vec![0u8; BS]));
        rd.read(0, BS);
        assert_eq!(rd.busy_time(), rd.copy_cost(BS) + rd.copy_cost(BS));
        assert_eq!(rd.service_hist().count(), 2);
    }

    #[test]
    #[should_panic(expected = "not one medium block")]
    fn partial_block_rejected() {
        ramdisk().read(0, 512);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_block_rejected() {
        ramdisk().read(1, BS);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let sectors = DiskProfile::ramdisk().sectors;
        ramdisk().read(sectors, BS);
    }

    #[test]
    #[should_panic(expected = "RAM profile")]
    fn scsi_profile_rejected() {
        RamDisk::new(DiskProfile::rz56(), BS);
    }

    /// A failed read charges exactly what a clean one does, hands back no
    /// block, and the retry succeeds.
    #[test]
    fn failed_read_charges_the_copy_but_delivers_nothing() {
        let mut rd = ramdisk();
        rd.set_fault_plan(Some(FaultPlan::new(3).transient_eio_at(
            FaultOp::Read,
            16,
            1,
        )));
        let data: Block = Rc::new(vec![7u8; BS]);
        rd.write(16, Rc::clone(&data));
        let (cost, got) = rd.read(16, BS);
        assert!(got.is_none(), "a failed read must not deliver");
        assert_eq!(cost, rd.copy_cost(BS));
        let (_, got) = rd.read(16, BS);
        assert!(Rc::ptr_eq(&got.unwrap(), &data));
        assert_eq!(rd.fault_plan().unwrap().injected(), 1);
        assert_eq!(rd.stats().requests, 3);
        assert_eq!(rd.stats().bytes, 3 * BS as u64);
        assert_eq!(rd.busy_time(), rd.copy_cost(BS) * 3);
        assert_eq!(rd.service_hist().count(), 3);
    }

    /// A torn write persists only its sector prefix, leaves a sharer of
    /// the old block untouched, and counts no bytes written.
    #[test]
    fn torn_write_persists_only_prefix() {
        let mut rd = ramdisk();
        rd.write(0, Rc::new(vec![0xAAu8; BS]));
        let (_, old) = rd.read(0, BS);
        let old = old.unwrap();
        rd.set_fault_plan(Some(FaultPlan::new(3).torn_write(0, 2)));
        let (cost, err) = rd.write(0, Rc::new(vec![0x55u8; BS]));
        assert!(err);
        assert_eq!(cost, rd.copy_cost(BS));
        assert_eq!(*old, vec![0xAAu8; BS], "the tear wrote through a sharer");
        let got = rd.store().read_vec(0, BS);
        assert_eq!(&got[..2 * SECTOR_SIZE], &vec![0x55u8; 2 * SECTOR_SIZE][..]);
        assert_eq!(
            &got[2 * SECTOR_SIZE..],
            &vec![0xAAu8; BS - 2 * SECTOR_SIZE][..]
        );
        assert_eq!(rd.stats().requests, 3);
        assert_eq!(rd.stats().bytes, 2 * BS as u64);
        assert_eq!(rd.busy_time(), rd.copy_cost(BS) * 3);
        assert_eq!(rd.service_hist().count(), 3);
    }
}
