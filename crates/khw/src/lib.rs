#![warn(missing_docs)]

//! Hardware models for the simulated DECstation 5000/200.
//!
//! This crate owns every *timing* and *capacity* fact about the simulated
//! machine, so the rest of the system can be written against mechanisms
//! rather than magic constants:
//!
//! * [`profile`] — the machine cost table ([`MachineProfile`]) built from
//!   the numbers the paper reports in §6.1 (memory bandwidths, clock rate)
//!   plus era-typical kernel path costs, and per-disk characteristic tables
//!   ([`DiskProfile`]) for the RZ56, RZ58 and the RAM disk.
//! * [`store`] — a sparse block store used as the persistent medium of every
//!   device; all devices carry real data so copies can be verified, and
//!   whole blocks move between medium and cache by shared reference.
//! * [`disk`] — the SCSI disk model: seek/rotation/media-rate mechanics,
//!   on-drive read-ahead cache (64 KB on the RZ56; 256 KB in 4 segments on
//!   the RZ58), FIFO service, and the *pseudo-DMA* CPU cost of the
//!   DECstation's bounce-buffer SCSI path (the paper itself flags its SCSI
//!   driver as a bottleneck, §6.4).
//! * [`ramdisk`] — the 16 MB RAM disk driver whose "transfer" is a CPU
//!   `bcopy` from statically allocated kernel memory.
//! * [`fault`] — deterministic, seedable fault injection ([`FaultPlan`]):
//!   transient EIO, permanent bad blocks, torn writes, latency spikes,
//!   keyed by (device, sector, op, occurrence) so failures replay.

pub mod disk;
pub mod fault;
pub mod profile;
pub mod ramdisk;
pub mod store;

pub use disk::{Disk, IoDone, IoOp};
pub use fault::{FaultDecision, FaultOp, FaultPlan};
pub use profile::{CopyKind, DiskKind, DiskProfile, MachineProfile, SECTOR_SIZE};
pub use ramdisk::RamDisk;
pub use store::{Block, SparseStore};
