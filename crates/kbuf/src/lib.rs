#![warn(missing_docs)]

//! The 4.2BSD-style buffer cache.
//!
//! This is the substrate the paper's splice implementation modifies (§5.1):
//! fixed-size cache buffers identified by `(device, physical block)`,
//! looked up through a hash table, recycled through an LRU free list, with
//! the classic entry points — [`Cache::bread`], [`Cache::getblk`],
//! [`Cache::bwrite`], [`Cache::bawrite`], [`Cache::bdwrite`],
//! [`Cache::brelse`], [`Cache::biodone`] — plus the completion-handler
//! mechanism (`B_CALL` / `b_iodone`) splice uses to chain I/O without a
//! process context, and the shared-data-area header allocation
//! ([`Cache::alloc_shared_header`]) that lets the write side reuse the read
//! side's data without a copy (§5.2.2).
//!
//! The cache is a pure state machine: operations mutate cache state and
//! return [`Effect`]s (start a device I/O, wake sleepers) for the kernel to
//! carry out. It never calls upward, which keeps it independently testable
//! and keeps the crate graph acyclic.

pub mod cache;
pub mod data;
pub mod flags;

pub use cache::{BreadOutcome, Cache, CacheEvent, CacheStats, Effect, GetblkOutcome, IoDir};
pub use data::BufData;
pub use flags::BufFlags;

/// Index of a buffer header (pool buffer or splice header).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BufId(pub u32);

/// A device as the buffer cache sees it: an opaque identity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct DevId(pub u32);

/// The splice bookkeeping the paper adds to the buffer header (§5.2.2):
/// "New fields in the buffer header structure indicate the splice
/// descriptor and logical block number a buffer's data is associated with."
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpliceRef {
    /// Splice descriptor identity.
    pub desc: u64,
    /// Logical block number within the spliced file.
    pub lblk: u64,
}
