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

use ksim::{Dur, Hist};

use crate::fault::{FaultDecision, FaultPlan};
use crate::profile::{DiskProfile, SECTOR_SIZE};
use crate::store::SparseStore;

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
    /// Creates a RAM disk from a profile (normally [`DiskProfile::ramdisk`]).
    ///
    /// # Panics
    ///
    /// Panics if the profile is not a RAM-kind profile.
    pub fn new(profile: DiskProfile) -> Self {
        assert_eq!(
            profile.kind,
            crate::profile::DiskKind::Ram,
            "RamDisk requires a RAM profile"
        );
        let store = SparseStore::new(profile.bytes());
        RamDisk {
            profile,
            store,
            stats: RamDiskStats::default(),
            busy: Dur::ZERO,
            service_hist: Hist::new(),
            fault: None,
        }
    }

    /// Installs (or clears) the fault plan consulted by the checked
    /// access paths. Plain [`RamDisk::read`]/[`RamDisk::write`] and the
    /// direct store accessors bypass it.
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

    /// Reads `len` bytes at `sector`, returning the data and the CPU cost
    /// of the driver `bcopy`. Completion is immediate (synchronous).
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-range requests.
    pub fn read(&mut self, sector: u64, len: usize) -> (Vec<u8>, Dur) {
        let mut data = vec![0; len];
        let cost = self.read_into(sector, &mut data);
        (data, cost)
    }

    /// Reads `out.len()` bytes at `sector` straight into `out`, returning
    /// the CPU cost of the driver `bcopy`. Completion is immediate
    /// (synchronous).
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-range requests.
    pub fn read_into(&mut self, sector: u64, out: &mut [u8]) -> Dur {
        let len = out.len();
        assert!(
            len > 0 && len.is_multiple_of(SECTOR_SIZE),
            "unaligned length {len}"
        );
        self.store.read(sector * SECTOR_SIZE as u64, out);
        self.stats.requests += 1;
        self.stats.bytes += len as u64;
        let cost = self.copy_cost(len);
        self.busy += cost;
        self.service_hist.record(cost.as_ns());
        cost
    }

    /// Writes `data` at `sector`, returning the CPU cost of the driver
    /// `bcopy`. Completion is immediate (synchronous).
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-range requests.
    pub fn write(&mut self, sector: u64, data: &[u8]) -> Dur {
        assert!(
            !data.is_empty() && data.len().is_multiple_of(SECTOR_SIZE),
            "unaligned length {}",
            data.len()
        );
        self.store.write(sector * SECTOR_SIZE as u64, data);
        self.stats.requests += 1;
        self.stats.bytes += data.len() as u64;
        let cost = self.copy_cost(data.len());
        self.busy += cost;
        self.service_hist.record(cost.as_ns());
        cost
    }

    /// Fault-aware read: like [`RamDisk::read_into`], but consults the
    /// installed [`FaultPlan`]. On error `out` is left untouched (the
    /// transfer never reached the caller's buffer) but the `bcopy` CPU
    /// was still spent; latency spikes stretch the returned cost.
    ///
    /// Returns `(cost, error)`.
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-range requests.
    pub fn read_into_checked(&mut self, sector: u64, out: &mut [u8]) -> (Dur, bool) {
        let d = self.decide(false, sector, out.len());
        let cost = if d.error {
            // The copy still runs and is charged, but into scratch.
            self.read(sector, out.len()).1
        } else {
            self.read_into(sector, out)
        };
        (cost + d.extra_latency, d.error)
    }

    /// Fault-aware write: like [`RamDisk::write`], but consults the
    /// installed [`FaultPlan`]. A torn write persists only the decided
    /// sector prefix before reporting the error.
    ///
    /// Returns `(cost, error)`.
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-range requests.
    pub fn write_checked(&mut self, sector: u64, data: &[u8]) -> (Dur, bool) {
        let d = self.decide(true, sector, data.len());
        if d.error {
            let keep = d.torn_sectors.unwrap_or(0) as usize * SECTOR_SIZE;
            if keep > 0 {
                self.store.write(sector * SECTOR_SIZE as u64, &data[..keep]);
            }
            self.stats.requests += 1;
            // The bcopy CPU was spent even though the write tore; the
            // injected extra latency is not device busy time.
            let cost = self.copy_cost(data.len());
            self.busy += cost;
            self.service_hist.record(cost.as_ns());
            (cost + d.extra_latency, true)
        } else {
            (self.write(sector, data) + d.extra_latency, false)
        }
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

    #[test]
    fn roundtrip() {
        let mut rd = RamDisk::new(DiskProfile::ramdisk());
        let data: Vec<u8> = (0..8192).map(|i| (i * 7 % 256) as u8).collect();
        rd.write(32, &data);
        let (got, _) = rd.read(32, 8192);
        assert_eq!(got, data);
    }

    #[test]
    fn copy_cost_matches_profile_rate() {
        let rd = RamDisk::new(DiskProfile::ramdisk());
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
        let mut rd = RamDisk::new(DiskProfile::ramdisk());
        rd.write(0, &vec![0u8; 512]);
        rd.read(0, 512);
        assert_eq!(rd.stats().requests, 2);
        assert_eq!(rd.stats().bytes, 1024);
    }

    #[test]
    fn busy_time_sums_copy_costs() {
        let mut rd = RamDisk::new(DiskProfile::ramdisk());
        rd.write(0, &vec![0u8; 8192]);
        rd.read(0, 8192);
        assert_eq!(rd.busy_time(), rd.copy_cost(8192) + rd.copy_cost(8192));
        assert_eq!(rd.service_hist().count(), 2);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_rejected() {
        let mut rd = RamDisk::new(DiskProfile::ramdisk());
        rd.read(0, 100);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let mut rd = RamDisk::new(DiskProfile::ramdisk());
        let sectors = DiskProfile::ramdisk().sectors;
        rd.read(sectors, 512);
    }

    #[test]
    #[should_panic(expected = "RAM profile")]
    fn scsi_profile_rejected() {
        RamDisk::new(DiskProfile::rz56());
    }

    #[test]
    fn checked_read_fails_then_recovers_per_plan() {
        use crate::fault::{FaultOp, FaultPlan};
        let mut rd = RamDisk::new(DiskProfile::ramdisk());
        rd.set_fault_plan(Some(FaultPlan::new(3).transient_eio_at(
            FaultOp::Read,
            16,
            1,
        )));
        rd.write(16, &vec![7u8; 8192]);
        let mut data = vec![1u8; 8192];
        let (_, err) = rd.read_into_checked(16, &mut data);
        assert!(err);
        assert_eq!(data, vec![1u8; 8192], "a failed read must not land");
        let (_, err) = rd.read_into_checked(16, &mut data);
        assert!(!err);
        assert_eq!(data, vec![7u8; 8192]);
        assert_eq!(rd.fault_plan().unwrap().injected(), 1);
        assert_eq!(rd.stats().requests, 3);
    }

    #[test]
    fn checked_torn_write_persists_only_prefix() {
        use crate::fault::FaultPlan;
        let mut rd = RamDisk::new(DiskProfile::ramdisk());
        rd.write(0, &vec![0xAAu8; 8192]);
        rd.set_fault_plan(Some(FaultPlan::new(3).torn_write(0, 2)));
        let (_, err) = rd.write_checked(0, &vec![0x55u8; 8192]);
        assert!(err);
        let (got, _) = rd.read(0, 8192);
        assert_eq!(&got[..2 * SECTOR_SIZE], &vec![0x55u8; 2 * SECTOR_SIZE][..]);
        assert_eq!(
            &got[2 * SECTOR_SIZE..],
            &vec![0xAAu8; 8192 - 2 * SECTOR_SIZE][..]
        );
    }
}
