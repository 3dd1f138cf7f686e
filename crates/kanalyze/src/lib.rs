//! Trace/profile analysis engine for the splice simulator.
//!
//! Seven PRs of telemetry — typed trace rings, per-stage histograms,
//! gauge samplers, tick-accurate accounting — record *what* happened.
//! This crate converts those records into *answers*:
//!
//! - [`decompose()`]: walks every stitched [`ksim::BlockSpan`] into an
//!   exhaustive, gap-free per-block latency breakdown (read queue, read
//!   service, read→write handoff, write service, with retry backoff as
//!   an overlapping sub-attribution), aggregates
//!   per workload into a ranked bottleneck table, and cross-checks the
//!   trace-derived total against the independently recorded
//!   `end_to_end` stage histogram.
//! - [`audit`]: queueing-law auditors that cross-validate the recorded
//!   data against itself — Little's law (exact occupancy integrals vs
//!   stage histograms), the utilization law (device busy time vs service-time
//!   digests), and exact byte conservation per splice descriptor — each
//!   with a stated tolerance so an accounting bug fails loudly instead
//!   of silently skewing a report.
//! - [`diff`]: cross-run regression gating — flattens two bench JSON
//!   documents into dotted metric paths and compares them under
//!   per-metric tolerance rules (integers exact, floats within a
//!   relative bound, host wall-clock metrics informational), refusing
//!   mismatched schema versions.
//!
//! The crate depends only on `ksim` (spans, histograms, JSON): callers
//! in `bench` glue a live [`Kernel`](../splice/struct.Kernel.html) to
//! these pure functions and serialize the results as `REPORT_*.json`.

#![warn(missing_docs)]

pub mod audit;
pub mod decompose;
pub mod diff;

pub use audit::{
    byte_conservation, littles_law, utilization_law, AuditOutcome, AuditReport, DeviceAccounting,
    Tolerance,
};
pub use decompose::{decompose, Decomposition, PhaseBreakdown, StageRow};
pub use diff::{compare, render_table, DeltaRow, DeltaStatus, DiffResult, DiffRules};
