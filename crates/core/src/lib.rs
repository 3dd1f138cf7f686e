#![warn(missing_docs)]

//! The paper's contribution: in-kernel data paths (`splice`) on a
//! simulated Ultrix-style kernel.
//!
//! This crate assembles the substrates (`ksim`, `khw`, `kbuf`, `kfs`,
//! `kproc`, `knet`, `kdev`) into a running uniprocessor kernel
//! ([`Kernel`]): a deterministic event loop with a hardclock, a softclock
//! draining the callout list, device interrupts, a round-robin scheduler,
//! and a UNIX-ish system-call layer. On top of that substrate it
//! implements the paper's `splice(2)` (module [`splice_engine`]):
//!
//! * splice descriptors snapshotting source/destination block maps (§5.2),
//! * non-blocking `bread`/`getblk` variants with `B_CALL` completion
//!   handlers (§5.2.1),
//! * the callout-driven write side sharing the read buffer's data area
//!   (§5.2.2),
//! * watermark-based rate flow control (§5.2.3),
//! * `FASYNC`/`SIGIO` asynchronous completion and bounded-size pacing
//!   (§3, §4),
//! * socket-to-socket (UDP), framebuffer-to-socket, file-to-device and
//!   file-to-socket splices (§5.1 plus the natural extension).
//!
//! The related-work baselines of §7 ([`baselines`]) are implemented for
//! comparison benches: the \[PCM91\] ioctl handle-passing scheme and an
//! mmap-style copy.
//!
//! See `DESIGN.md` at the repository root for the substitution argument
//! (real 1992 hardware → calibrated simulation) and the experiment index.
//!
//! # Example
//!
//! Boot a machine, put a file on one disk, and splice it to another:
//!
//! ```
//! use khw::DiskProfile;
//! use kproc::programs::Scp;
//! use splice::KernelBuilder;
//!
//! let mut k = KernelBuilder::new()
//!     .disk("d0", DiskProfile::ramdisk())
//!     .disk("d1", DiskProfile::ramdisk())
//!     .build();
//! k.setup_file("/d0/data", 64 * 1024, 7);
//! k.cold_cache();
//!
//! k.spawn(Box::new(Scp::new("/d0/data", "/d1/copy")));
//! let horizon = k.horizon(60);
//! k.run_to_exit(horizon);
//!
//! assert_eq!(k.verify_pattern_file("/d1/copy", 64 * 1024, 7), None);
//! // The point of the paper: no user-space copies happened.
//! let m = k.metrics();
//! assert_eq!(m.copy.copyout_bytes, 0);
//! assert_eq!(m.copy.copyin_bytes, 0);
//! ```
//!
//! Every measurement the kernel takes is reachable through that typed
//! [`metrics::MetricsSnapshot`] (and the live [`ksim::Kstat`] block via
//! [`Kernel::kstat`]); the time-ordered record is the typed trace ring
//! ([`Kernel::trace`], opt-in via [`KernelBuilder::trace`]), queryable
//! through [`ksim::TraceQuery`] and exportable as Chrome trace-event
//! JSON. See `DESIGN.md` § Observability.

pub mod baselines;
pub mod endpoint;
pub mod event;
pub mod harness;
pub mod kernel;
pub mod metrics;
pub mod objects;
pub mod profile;
pub mod splice_engine;
pub mod splice_ring;
pub mod syscalls;
mod traffic;

pub use endpoint::{caps, EndpointCaps, ObjClass};
pub use harness::{KernelBuilder, ServeScenario};
pub use kernel::{Kernel, KernelConfig};
pub use khw::{FaultOp, FaultPlan};
pub use ksim::{BlockSpan, PhaseMark, Trace, TraceEvent, TraceQuery, TraceRecord};
pub use metrics::{
    CacheMetrics, CopyMetrics, CpuMetrics, IoMetrics, LatencyMetrics, MetricsSnapshot, NetMetrics,
    SchedMetrics, SpliceMetrics, SpliceTotals,
};
pub use objects::{DiskUnitKind, FileId, FileObj};
pub use profile::{CacheOccupancy, CpuClassProfile, DeviceProfile, ProcProfile, ProfileSnapshot};
pub use splice_engine::{FlowControl, OutcomeStatus, SpliceOutcome, MAX_SPLICE_RETRIES};
pub use splice_ring::RING_MAX_DEPTH;
