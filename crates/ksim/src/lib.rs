#![warn(missing_docs)]

//! Discrete-event simulation engine for the in-kernel data path reproduction.
//!
//! This crate provides the deterministic substrate every other crate builds
//! on: a virtual clock ([`SimTime`], [`Dur`]), a cancellable event queue
//! ([`EventQueue`]), a BSD-style callout list ([`Callout`]) matching the
//! mechanism the paper uses to decouple the read and write sides of a
//! splice, structured spans/gauges, request records and latency digests
//! ([`kstat`]), shared immutable byte views for syscall and network
//! payloads ([`Bytes`]), a dependency-free JSON value ([`Json`]) for the bench
//! emitters, a deterministic hasher for id-keyed maps ([`IdMap`],
//! [`IdSet`]), a chunked array for dense id-indexed tables
//! ([`ChunkVec`]), and a typed trace ring ([`Trace`]) with structured
//! tracepoints ([`TraceEvent`]), causal per-block splice spans
//! ([`trace::BlockSpan`]), and Chrome trace-event export.
//!
//! Everything here is single-threaded on purpose: the simulated machine is
//! a uniprocessor DECstation 5000/200, and determinism (same inputs → same
//! event order → same measurements) is a correctness requirement for the
//! experiment harnesses.

pub mod bytes;
pub mod callout;
pub mod chunked;
pub mod event;
pub mod hash;
pub mod hist;
pub mod json;
pub mod kstat;
pub mod time;
pub mod trace;

pub use bytes::Bytes;
#[cfg(any(test, feature = "props"))]
pub use callout::BTreeCallout;
pub use callout::{Callout, CalloutId};
pub use chunked::ChunkVec;
pub use event::{EventId, EventKey, EventQueue};
pub use hash::{IdMap, IdSet};
pub use hist::{Exemplar, Hist};
pub use json::Json;
pub use kstat::{
    HistSummary, Kstat, Occupancy, ReqSpan, ReqSpans, SpanTally, SpliceSpan, SpliceSpans,
    StageHists, RECENT_SPANS,
};
pub use time::{Dur, SimTime};
pub use trace::{BlockSpan, PhaseMark, Trace, TraceEvent, TraceQuery, TraceRecord};
