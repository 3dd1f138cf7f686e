//! Structured kernel statistics (`kstat`): typed spans, gauges, and
//! latency distributions.
//!
//! Plain counters live as typed struct fields in the subsystem that
//! counts them. The paper's evaluation, however, is also about the
//! *shape* of a splice over time: when the first read was
//! issued, how far the write side lagged, how the watermark flow
//! control held pending work inside its bands, how long each `bread` /
//! `bwrite` took to come back through `biodone`. This module adds the
//! typed layer the kernel records that shape into:
//!
//! * [`SpliceSpan`] — one per splice descriptor: lifecycle timestamps
//!   (created → first read issued → first write issued → drained →
//!   completion delivered), cumulative counters, and the two
//!   pending-work [`Occupancy`] gauges flow control reads, each with its
//!   exact time integral.
//! * [`SpliceSpans`] — the per-kernel collection, indexable by splice
//!   descriptor id (`kstat.spans[desc]`) for live and recently
//!   completed splices; older completions are folded into a fixed-size
//!   [`SpanTally`], so the store stays proportional to live splices.
//! * [`ReqSpans`] — the same shape for served requests: one
//!   [`ReqSpan`] per open connection, the last [`RECENT_SPANS`] closed
//!   ones, and every closed request's latency in one [`Hist`].
//! * [`Kstat`] — the kernel-owned holder combining the spans with
//!   [`Hist`]-backed latency distributions for block I/O completion.
//! * [`HistSummary`] — a compact, serializable digest of a [`Hist`].

use std::collections::{BTreeMap, VecDeque};
use std::ops::Index;

use crate::hash::IdMap;
use crate::hist::Hist;
use crate::json::Json;
use crate::time::SimTime;

/// Completed splice spans and closed request records kept in full, most
/// recent last. Older ones survive only in [`SpliceSpans::retired`] and
/// the [`ReqSpans::latency`] histogram.
pub const RECENT_SPANS: usize = 64;

/// Failed per-span checks a [`SpanTally`] describes in words; later
/// failures are only counted.
pub const MAX_VIOLATION_DETAILS: usize = 8;

/// How many items a pipeline stage holds, and the exact time integral
/// of that count.
///
/// Every change is stamped with the instant it happens, and the area
/// (∫ count dt, in ns·items) is brought up to that instant before the
/// count moves, so the area is exact however the changes are spaced.
/// Little's law is then an identity: the area equals the summed
/// residence time of the items that passed through the stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Occupancy {
    count: u32,
    peak: u32,
    since: SimTime,
    area: u64,
}

impl Occupancy {
    /// Items in the stage now.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// The most items the stage ever held at once.
    pub fn peak(&self) -> u32 {
        self.peak
    }

    /// ∫ count dt from boot to `now` (not before the last change), in
    /// ns·items.
    pub fn area_at(&self, now: SimTime) -> u64 {
        self.area + u64::from(self.count) * now.since(self.since).as_ns()
    }

    /// One item enters the stage at `now`.
    pub fn enter(&mut self, now: SimTime) {
        self.settle(now);
        self.count += 1;
        self.peak = self.peak.max(self.count);
    }

    /// One item leaves the stage at `now`.
    pub fn leave(&mut self, now: SimTime) {
        self.settle(now);
        self.count -= 1;
    }

    fn settle(&mut self, now: SimTime) {
        self.area = self.area_at(now);
        self.since = now;
    }
}

/// Lifecycle and flow-control record for one splice descriptor.
///
/// Timestamps are `Option<SimTime>`: a field is `None` until the event
/// happens (a splice that dies early simply never fills the later
/// ones). The ordering invariant — created ≤ first read ≤ first write
/// ≤ drained ≤ completed, each when present — is asserted by the
/// observability integration test.
#[derive(Clone, Debug, Default)]
pub struct SpliceSpan {
    /// Splice descriptor id this span describes.
    pub id: u64,
    /// When `splice(2)` built the descriptor.
    pub created: Option<SimTime>,
    /// First read issued (or satisfied from cache) on the source.
    pub first_read: Option<SimTime>,
    /// First write issued on the sink.
    pub first_write: Option<SimTime>,
    /// All blocks/bytes moved; the write side has drained.
    pub drained: Option<SimTime>,
    /// Completion delivered to the process (SIGIO posted or the
    /// synchronous sleeper woken).
    pub completed: Option<SimTime>,

    /// Device reads issued.
    pub reads_issued: u64,
    /// Reads satisfied from the buffer cache.
    pub read_hits: u64,
    /// Writes issued.
    pub writes_issued: u64,
    /// Blocks (or pump chunks) fully completed.
    pub blocks_done: u64,
    /// Payload bytes moved end to end.
    pub bytes_moved: u64,
    /// Refill bursts: times the watermark logic restarted the read side.
    pub refill_bursts: u64,
    /// Backoffs: times issue was deferred by flow control or resource
    /// exhaustion (read-side watermark holds, write backpressure).
    pub backoffs: u64,

    /// Reads outstanding: device reads and stream pulls issued whose
    /// block has not yet arrived at the engine. Flow control reads this
    /// count; its area is the descriptor's Σ `read_service`.
    pub pending_reads: Occupancy,
    /// Writes outstanding: blocks arrived whose write has not yet
    /// completed. Its area is the descriptor's Σ (`read_to_write` +
    /// `write_service`).
    pub pending_writes: Occupancy,
}

impl SpliceSpan {
    fn new(id: u64, now: SimTime) -> SpliceSpan {
        SpliceSpan {
            id,
            created: Some(now),
            ..SpliceSpan::default()
        }
    }

    /// Records a device read issue.
    pub fn note_read_issued(&mut self, now: SimTime) {
        self.first_read.get_or_insert(now);
        self.reads_issued += 1;
    }

    /// Records a read satisfied from the buffer cache.
    pub fn note_read_hit(&mut self, now: SimTime) {
        self.first_read.get_or_insert(now);
        self.read_hits += 1;
    }

    /// Records a write issue.
    pub fn note_write_issued(&mut self, now: SimTime) {
        self.first_write.get_or_insert(now);
        self.writes_issued += 1;
    }

    /// Records a fully completed block (or pump chunk) of `bytes`.
    pub fn note_block_done(&mut self, bytes: u64) {
        self.blocks_done += 1;
        self.bytes_moved += bytes;
    }

    /// Records a watermark-triggered read-side refill burst.
    pub fn note_refill(&mut self) {
        self.refill_bursts += 1;
    }

    /// Records a flow-control or backpressure deferral.
    pub fn note_backoff(&mut self) {
        self.backoffs += 1;
    }

    /// Marks the transfer drained (all data moved).
    pub fn note_drained(&mut self, now: SimTime) {
        self.drained.get_or_insert(now);
    }

    /// Marks completion delivery (SIGIO posted / sleeper woken).
    pub fn note_completed(&mut self, now: SimTime) {
        self.completed.get_or_insert(now);
    }
}

/// Fixed-size account of finished splice spans: the totals every
/// reader of the whole span store needs, and the result of each
/// per-span check, run once as the span is folded in.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanTally {
    /// Descriptors folded in.
    pub descriptors: u64,
    /// Bytes the engine's outcomes reported moved. Each span's own
    /// block-by-block count must equal its outcome's; a mismatch is a
    /// violation.
    pub bytes_moved: u64,
    /// Blocks (or pump chunks) completed.
    pub blocks_done: u64,
    /// Device reads issued.
    pub reads_issued: u64,
    /// Reads satisfied from the buffer cache.
    pub read_hits: u64,
    /// Writes issued.
    pub writes_issued: u64,
    /// ∫ pending reads dt, in ns·blocks: by Little's law, the summed
    /// `read_service` of every block read.
    pub read_area: u128,
    /// ∫ pending writes dt, in ns·blocks: the summed `read_to_write` +
    /// `write_service` of every block written.
    pub write_area: u128,
    /// Per-span checks that failed.
    pub violations: u64,
    /// The first [`MAX_VIOLATION_DETAILS`] failures, in fold order.
    pub details: Vec<String>,
}

impl SpanTally {
    /// Folds in `span`, whose engine outcome reported `outcome_bytes`
    /// moved, checking that its lifecycle timestamps are in order
    /// (created ≤ first read ≤ first write ≤ drained ≤ completed, each
    /// when present), that its byte count equals the outcome's, and
    /// that no block completed without a read (or cache hit) and a
    /// write behind it.
    ///
    /// A completed span's occupancy areas run to its completion, a live
    /// one's to its last change.
    pub fn fold(&mut self, span: &SpliceSpan, outcome_bytes: u64) {
        self.descriptors += 1;
        self.bytes_moved += outcome_bytes;
        self.blocks_done += span.blocks_done;
        self.reads_issued += span.reads_issued;
        self.read_hits += span.read_hits;
        self.writes_issued += span.writes_issued;
        let area = |g: &Occupancy| u128::from(g.area_at(span.completed.unwrap_or(g.since)));
        self.read_area += area(&span.pending_reads);
        self.write_area += area(&span.pending_writes);
        let id = span.id;
        let stamps = [
            span.created,
            span.first_read,
            span.first_write,
            span.drained,
            span.completed,
        ];
        if !stamps.iter().flatten().is_sorted() {
            self.violation(format!("desc {id}: lifecycle timestamps out of order"));
        }
        if span.bytes_moved != outcome_bytes {
            self.violation(format!(
                "desc {id}: span {} ≠ outcome {outcome_bytes}",
                span.bytes_moved
            ));
        }
        if span.reads_issued + span.read_hits < span.blocks_done
            || span.writes_issued < span.blocks_done
        {
            self.violation(format!(
                "desc {id}: {} blocks done from {} reads + {} hits / {} writes",
                span.blocks_done, span.reads_issued, span.read_hits, span.writes_issued
            ));
        }
    }

    fn violation(&mut self, detail: String) {
        self.violations += 1;
        if self.details.len() < MAX_VIOLATION_DETAILS {
            self.details.push(detail);
        }
    }
}

/// The splice spans of one kernel, in memory proportional to the
/// splices in flight: live spans keyed by descriptor id, the last
/// [`RECENT_SPANS`] completed ones in full, and a [`SpanTally`] of
/// every completed one.
///
/// Indexable (`spans[desc]`) for ergonomic assertions; panics on an
/// id that is neither live nor recent, like a slice would.
#[derive(Clone, Debug, Default)]
pub struct SpliceSpans {
    live: BTreeMap<u64, SpliceSpan>,
    recent: VecDeque<SpliceSpan>,
    retired: SpanTally,
}

impl SpliceSpans {
    /// Creates an empty collection.
    pub fn new() -> SpliceSpans {
        SpliceSpans::default()
    }

    /// Starts a span for descriptor `id` at `now`. Keeps a live span
    /// already started under the same id (descriptor ids are never
    /// reused by the splice engine, so this only matters for defensive
    /// callers).
    pub fn start(&mut self, id: u64, now: SimTime) -> &mut SpliceSpan {
        self.live
            .entry(id)
            .or_insert_with(|| SpliceSpan::new(id, now))
    }

    /// Mutable access to a live span for the instrumentation sites;
    /// `None` for ids that never started a span or already retired.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut SpliceSpan> {
        self.live.get_mut(&id)
    }

    /// Live span `id`, whose pending-work gauges are the splice
    /// engine's flow-control counts.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live: the engine starts a span with each
    /// descriptor and retires it as the descriptor goes.
    pub fn live_mut(&mut self, id: u64) -> &mut SpliceSpan {
        self.live
            .get_mut(&id)
            .unwrap_or_else(|| panic!("no live splice span for descriptor {id}"))
    }

    /// Marks live span `id` completed at `now`, folds it into the
    /// [`SpanTally`] against its outcome's `outcome_bytes`, and moves
    /// it to the recent ring, dropping the oldest entry beyond
    /// [`RECENT_SPANS`]. A no-op for an id that is not live.
    pub fn retire(&mut self, id: u64, now: SimTime, outcome_bytes: u64) {
        let Some(mut span) = self.live.remove(&id) else {
            return;
        };
        span.note_completed(now);
        self.retired.fold(&span, outcome_bytes);
        if self.recent.len() == RECENT_SPANS {
            self.recent.pop_front();
        }
        self.recent.push_back(span);
    }

    /// Shared access to a live or recently completed span.
    pub fn get(&self, id: u64) -> Option<&SpliceSpan> {
        self.live
            .get(&id)
            .or_else(|| self.recent.iter().find(|s| s.id == id))
    }

    /// Spans kept in full: live plus recently completed.
    pub fn len(&self) -> usize {
        self.live.len() + self.recent.len()
    }

    /// True if no span is kept in full.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the spans kept in full in descriptor-id order.
    pub fn iter(&self) -> impl Iterator<Item = &SpliceSpan> + '_ {
        let mut all: Vec<&SpliceSpan> = self.recent.iter().chain(self.live.values()).collect();
        all.sort_unstable_by_key(|s| s.id);
        all.into_iter()
    }

    /// Spans still in flight, in descriptor-id order.
    pub fn live(&self) -> impl Iterator<Item = &SpliceSpan> + '_ {
        self.live.values()
    }

    /// The aggregate of every completed span.
    pub fn retired(&self) -> &SpanTally {
        &self.retired
    }

    /// Every span started, folded into one tally: the retired aggregate
    /// plus each live span against a zero outcome (an unfinished splice
    /// has conserved nothing yet, so it fails the byte check loudly).
    pub fn tally(&self) -> SpanTally {
        let mut t = self.retired.clone();
        for s in self.live() {
            t.fold(s, 0);
        }
        t
    }
}

impl Index<u64> for SpliceSpans {
    type Output = SpliceSpan;
    fn index(&self, id: u64) -> &SpliceSpan {
        self.get(id)
            .unwrap_or_else(|| panic!("no splice span for descriptor {id}"))
    }
}

/// One served request: the accept→close lifetime of a server-side
/// connection, with its outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReqSpan {
    /// Connection (socket) id.
    pub conn: u32,
    /// When the server accepted the connection.
    pub accepted: SimTime,
    /// When the connection closed (`accepted` while still open).
    pub closed: SimTime,
    /// End-to-end latency in nanoseconds (`closed - accepted`).
    pub latency_ns: u64,
    /// Payload bytes moved to the connection.
    pub bytes: u64,
    /// Errno name of the first failed transfer, if any.
    pub error: Option<&'static str>,
    /// Trace sequence number at accept: the exemplar link from a
    /// histogram bucket back into the trace ring.
    pub accept_seq: u64,
}

/// The request records of one kernel, in the same shape as
/// [`SpliceSpans`]: open requests keyed by connection, the last
/// [`RECENT_SPANS`] closed ones in full, and every closed request in a
/// latency [`Hist`] with exemplars. Recording costs no simulated time.
#[derive(Clone, Debug, Default)]
pub struct ReqSpans {
    live: IdMap<u32, ReqSpan>,
    recent: VecDeque<ReqSpan>,
    latency: Hist,
    errors: u64,
}

impl ReqSpans {
    /// Opens the record for a connection accepted at `now`;
    /// `accept_seq` is the trace sequence number at accept.
    pub fn accept(&mut self, now: SimTime, conn: u32, accept_seq: u64) {
        self.live.insert(
            conn,
            ReqSpan {
                conn,
                accepted: now,
                closed: now,
                latency_ns: 0,
                bytes: 0,
                error: None,
                accept_seq,
            },
        );
    }

    /// Adds a finished transfer to an open record: the bytes it moved
    /// and, if it failed, its errno. The first error wins. A no-op for
    /// a connection with no open record.
    pub fn transfer(&mut self, conn: u32, bytes: u64, error: Option<&'static str>) {
        if let Some(r) = self.live.get_mut(&conn) {
            r.bytes += bytes;
            r.error = r.error.or(error);
        }
    }

    /// Closes the record at `now`: records its latency and moves it to
    /// the recent ring, dropping the oldest entry beyond
    /// [`RECENT_SPANS`]. A no-op for a connection with no open record
    /// (client sockets, listeners).
    pub fn close(&mut self, now: SimTime, conn: u32) {
        let Some(mut r) = self.live.remove(&conn) else {
            return;
        };
        r.closed = now;
        r.latency_ns = now.since(r.accepted).as_ns();
        self.latency
            .record_with_exemplar(r.latency_ns, r.accept_seq, conn);
        self.errors += u64::from(r.error.is_some());
        if self.recent.len() == RECENT_SPANS {
            self.recent.pop_front();
        }
        self.recent.push_back(r);
    }

    /// Requests still open.
    pub fn live(&self) -> impl Iterator<Item = &ReqSpan> + '_ {
        self.live.values()
    }

    /// The last [`RECENT_SPANS`] closed requests, oldest first.
    pub fn recent(&self) -> impl Iterator<Item = &ReqSpan> + '_ {
        self.recent.iter()
    }

    /// End-to-end latency of every closed request, with exemplars.
    pub fn latency(&self) -> &Hist {
        &self.latency
    }

    /// Closed requests that failed.
    pub fn errors(&self) -> u64 {
        self.errors
    }
}

/// Compact digest of a [`Hist`], cheap to copy into snapshots and
/// serialize. All values are in the histogram's native unit
/// (nanoseconds for the kernel's latency histograms).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Arithmetic mean (0.0 when empty).
    pub mean: f64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median, to bucket granularity (0 when empty).
    pub p50: u64,
    /// 90th percentile, to bucket granularity (0 when empty).
    pub p90: u64,
    /// 99th percentile, to bucket granularity (0 when empty).
    pub p99: u64,
    /// 99.9th percentile, to bucket granularity (0 when empty).
    pub p999: u64,
}

impl From<&Hist> for HistSummary {
    fn from(h: &Hist) -> HistSummary {
        HistSummary {
            count: h.count(),
            min: h.min().unwrap_or(0),
            mean: h.mean().unwrap_or(0.0),
            max: h.max().unwrap_or(0),
            p50: h.p50().unwrap_or(0),
            p90: h.p90().unwrap_or(0),
            p99: h.p99().unwrap_or(0),
            p999: h.p999().unwrap_or(0),
        }
    }
}

impl HistSummary {
    /// Serializes the digest with the schema every `BENCH_*.json`
    /// consumer keys on (`count`/`min`/`mean`/`max`/`p50`/`p90`/`p99`/
    /// `p999`).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("count", Json::Num(self.count as f64))
            .with("min", Json::Num(self.min as f64))
            .with("mean", Json::Num(self.mean))
            .with("max", Json::Num(self.max as f64))
            .with("p50", Json::Num(self.p50 as f64))
            .with("p90", Json::Num(self.p90 as f64))
            .with("p99", Json::Num(self.p99 as f64))
            .with("p999", Json::Num(self.p999 as f64))
    }
}

/// Per-stage latency histograms for the splice pipeline, all in
/// nanoseconds of simulated time. One block contributes one sample to
/// each stage it passes through, so under error-free operation the
/// stage counts agree and `end_to_end ≈ read_service + read_to_write +
/// write_service` per block (queue-wait is measured at the device and
/// overlaps `read_service`).
#[derive(Clone, Debug, Default)]
pub struct StageHists {
    /// Submission-queue admission wait: how far into its
    /// `sys_ring_submit` crossing's CPU charge an SQE sat before the
    /// engine dispatched it. The simulated clock does not advance
    /// inside one crossing, so this is the *virtual* offset — later
    /// entries in a batch wait behind the admission and launch CPU of
    /// the entries ahead of them. Empty for workloads that never use
    /// an explicit ring (the legacy `splice(2)` path has no batch to
    /// wait in).
    pub sqe_wait: Hist,
    /// Time a buffer read spent queued at the device before service
    /// began (0 for requests that started immediately, and for the
    /// synchronous RAM-disk path).
    pub read_queue_wait: Hist,
    /// Splice read issue → block arrival at the engine (device queue +
    /// service + completion handler dispatch).
    pub read_service: Hist,
    /// Block arrival → sink write actually issued (the decoupling gap:
    /// deferred-work queueing plus any buffer-shortage backoff).
    pub read_to_write: Hist,
    /// Sink write issue → write completion observed by the engine.
    pub write_service: Hist,
    /// Backoff delays scheduled by the retry path (exponential, per
    /// attempt).
    pub retry_backoff: Hist,
    /// Read issue → write completion for one block (the paper's
    /// per-block "decoupled device access period").
    pub end_to_end: Hist,
}

impl StageHists {
    /// Iterates `(stage name, histogram)` in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Hist)> {
        [
            ("sqe_wait", &self.sqe_wait),
            ("read_queue_wait", &self.read_queue_wait),
            ("read_service", &self.read_service),
            ("read_to_write", &self.read_to_write),
            ("write_service", &self.write_service),
            ("retry_backoff", &self.retry_backoff),
            ("end_to_end", &self.end_to_end),
        ]
        .into_iter()
    }

    /// Serializes every stage digest keyed by stage name.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        for (name, h) in self.iter() {
            obj.set(name, h.to_json());
        }
        obj
    }
}

/// The kernel-owned structured-statistics block: splice spans, request
/// records, and latency distributions for the block-I/O completion path.
#[derive(Clone, Debug, Default)]
pub struct Kstat {
    /// Per-descriptor splice lifecycle spans.
    pub spans: SpliceSpans,
    /// Per-connection served-request records.
    pub requests: ReqSpans,
    /// `bread` issue → `biodone` latency (ns).
    pub bread_latency: Hist,
    /// `bwrite` issue → `biodone` latency (ns).
    pub bwrite_latency: Hist,
    /// Time a process spent asleep in `biowait` on the read path (ns).
    pub read_wait: Hist,
    /// Splice per-block latency: read issue → write completion (ns).
    pub splice_block_latency: Hist,
    /// Per-stage splice pipeline latency distributions.
    pub stages: StageHists,
}

impl Kstat {
    /// Creates an empty kstat block.
    pub fn new() -> Kstat {
        Kstat::default()
    }

    /// Resets all spans and histograms.
    pub fn clear(&mut self) {
        *self = Kstat::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + crate::time::Dur::from_us(us)
    }

    #[test]
    fn span_lifecycle_orders_timestamps() {
        let mut spans = SpliceSpans::new();
        spans.start(1, t(10));
        let s = spans.get_mut(1).unwrap();
        s.note_read_issued(t(11));
        s.note_write_issued(t(12));
        s.note_block_done(4096);
        s.note_drained(t(13));
        s.note_completed(t(14));

        let s = &spans[1];
        assert_eq!(s.created, Some(t(10)));
        assert_eq!(s.first_read, Some(t(11)));
        assert_eq!(s.first_write, Some(t(12)));
        assert_eq!(s.drained, Some(t(13)));
        assert_eq!(s.completed, Some(t(14)));
        assert_eq!(s.bytes_moved, 4096);
        assert_eq!(s.blocks_done, 1);
    }

    #[test]
    fn first_timestamps_are_sticky() {
        let mut spans = SpliceSpans::new();
        spans.start(7, t(1));
        let s = spans.get_mut(7).unwrap();
        s.note_read_issued(t(2));
        s.note_read_issued(t(5));
        assert_eq!(s.first_read, Some(t(2)));
        assert_eq!(s.reads_issued, 2);
    }

    #[test]
    fn occupancy_integrates_changes_at_distinct_instants() {
        let mut g = Occupancy::default();
        g.enter(t(10));
        g.enter(t(30));
        g.leave(t(40));
        g.leave(t(100));
        // One item over [10, 100) and a second over [30, 40): 90 + 10 µs.
        assert_eq!(g.area_at(t(100)), 100_000);
        assert_eq!((g.count(), g.peak(), g.since), (0, 2, t(100)));
        // Empty, the area stops growing.
        assert_eq!(g.area_at(t(500)), 100_000);
        // Held, it grows with the count until the next change.
        g.enter(t(200));
        assert_eq!(g.area_at(t(203)), 103_000);
    }

    #[test]
    fn occupancy_changes_at_one_instant_add_no_area() {
        let mut g = Occupancy::default();
        g.enter(t(5));
        g.leave(t(5));
        g.enter(t(5));
        assert_eq!(g.area_at(t(5)), 0);
        assert_eq!((g.count(), g.peak()), (1, 1));
        g.enter(t(7));
        g.leave(t(7));
        g.leave(t(7));
        assert_eq!(g.area_at(t(9)), 2_000, "one item over [5, 7)");
    }

    /// Starts span `id` at `t(id)` and completes one 4 KB block on it:
    /// read in flight 1 µs, write in flight 2 µs.
    fn one_block(spans: &mut SpliceSpans, id: u64) {
        let s = spans.start(id, t(id));
        s.pending_reads.enter(t(id));
        s.note_read_issued(t(id));
        s.pending_reads.leave(t(id + 1));
        s.pending_writes.enter(t(id + 1));
        s.note_write_issued(t(id + 1));
        s.pending_writes.leave(t(id + 3));
        s.note_block_done(4096);
        s.note_drained(t(id + 3));
    }

    #[test]
    fn retire_folds_the_occupancy_areas_into_the_tally() {
        let mut spans = SpliceSpans::new();
        one_block(&mut spans, 1);
        one_block(&mut spans, 2);
        // A block still in flight at retirement counts until then.
        spans.live_mut(2).pending_reads.enter(t(10));
        spans.retire(1, t(20), 4096);
        spans.retire(2, t(20), 4096);
        let r = spans.retired();
        assert_eq!((r.read_area, r.write_area), (1_000 + 1_000 + 10_000, 4_000));
    }

    #[test]
    fn tally_counts_a_live_span_to_its_last_change() {
        let mut spans = SpliceSpans::new();
        one_block(&mut spans, 1);
        spans.retire(1, t(4), 4096);
        spans.start(2, t(5));
        let live = spans.live_mut(2);
        live.pending_reads.enter(t(5));
        live.pending_reads.enter(t(8));
        let all = spans.tally();
        assert_eq!(all.descriptors, 2);
        assert_eq!((all.read_area, all.write_area), (1_000 + 3_000, 2_000));
        assert_eq!(spans.retired().read_area, 1_000, "tally leaves the store");
    }

    #[test]
    fn retired_spans_fold_into_the_tally_and_a_bounded_ring() {
        let mut spans = SpliceSpans::new();
        let n = RECENT_SPANS as u64 + 10;
        for id in 1..=n {
            one_block(&mut spans, id);
            spans.retire(id, t(id + 3), 4096);
        }
        assert_eq!(spans.live().count(), 0);
        assert_eq!(spans.len(), RECENT_SPANS);
        assert!(spans.get(10).is_none(), "the oldest completions left");
        assert_eq!(spans[n].completed, Some(t(n + 3)));
        let ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids, (11..=n).collect::<Vec<_>>());
        let r = spans.retired();
        assert_eq!(r.descriptors, n);
        assert_eq!(r.bytes_moved, n * 4096);
        assert_eq!((r.blocks_done, r.reads_issued, r.writes_issued), (n, n, n));
        assert_eq!(r.violations, 0, "{:?}", r.details);
        // Retiring twice is a no-op.
        spans.retire(n, t(n + 3), 4096);
        assert_eq!(spans.retired().descriptors, n);
    }

    #[test]
    fn iteration_merges_live_and_recent_in_descriptor_order() {
        let mut spans = SpliceSpans::new();
        for id in 1..=3 {
            one_block(&mut spans, id);
        }
        spans.retire(2, t(5), 4096);
        assert!(spans.get_mut(2).is_none(), "a retired span is read-only");
        let ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(spans.len(), 3);
        // The whole-store tally folds live spans against a zero outcome.
        let all = spans.tally();
        assert_eq!(all.descriptors, 3);
        assert_eq!(all.bytes_moved, 4096);
        assert_eq!(all.violations, 2, "{:?}", all.details);
        assert_eq!(spans.retired().descriptors, 1);
    }

    #[test]
    fn fold_checks_lifecycle_order_bytes_and_block_sources() {
        let mut spans = SpliceSpans::new();
        one_block(&mut spans, 1);
        let s = spans.get_mut(1).unwrap();
        s.first_read = Some(t(9));
        s.first_write = Some(t(2));
        spans.retire(1, t(10), 4096);
        assert_eq!(
            spans.retired().details,
            vec!["desc 1: lifecycle timestamps out of order".to_string()]
        );

        one_block(&mut spans, 2);
        spans.get_mut(2).unwrap().writes_issued = 0;
        spans.retire(2, t(10), 4095);
        let r = spans.retired();
        assert_eq!(r.violations, 3);
        assert_eq!(r.details[1], "desc 2: span 4096 ≠ outcome 4095");
        assert_eq!(
            r.details[2],
            "desc 2: 1 blocks done from 1 reads + 0 hits / 0 writes"
        );
    }

    #[test]
    fn request_record_opens_accumulates_and_closes() {
        let mut reqs = ReqSpans::default();
        reqs.accept(t(0), 7, 42);
        reqs.transfer(7, 4096, None);
        reqs.transfer(7, 4096, None);
        assert_eq!(reqs.recent().count(), 0, "nothing closes mid-flight");
        assert_eq!(reqs.live().count(), 1);
        reqs.close(t(1500), 7);
        assert_eq!(reqs.live().count(), 0);
        let r = *reqs.recent().next().unwrap();
        assert_eq!(
            (r.conn, r.bytes, r.latency_ns, r.accept_seq, r.error),
            (7, 8192, 1_500_000, 42, None)
        );
        assert_eq!((r.accepted, r.closed), (t(0), t(1500)));
        // The full hist saw it, with the exemplar pointing back.
        assert_eq!(reqs.latency().count(), 1);
        let e = reqs.latency().exemplar_at(0.999).unwrap();
        assert_eq!((e.conn, e.trace_seq), (7, 42));
    }

    #[test]
    fn first_request_error_wins() {
        let mut reqs = ReqSpans::default();
        reqs.accept(t(0), 1, 0);
        reqs.transfer(1, 100, Some("EIO"));
        reqs.transfer(1, 50, Some("EPIPE"));
        reqs.transfer(1, 50, None);
        reqs.close(t(5), 1);
        let r = reqs.recent().next().unwrap();
        assert_eq!((r.error, r.bytes), (Some("EIO"), 200));
        assert_eq!(reqs.errors(), 1);
    }

    #[test]
    fn unknown_connection_is_a_no_op() {
        let mut reqs = ReqSpans::default();
        reqs.transfer(9, 100, Some("EIO"));
        reqs.close(t(5), 9);
        assert_eq!(reqs.recent().count(), 0);
        assert_eq!((reqs.latency().count(), reqs.errors()), (0, 0));
        // Closing twice records the request once.
        reqs.accept(t(0), 3, 0);
        reqs.close(t(1), 3);
        reqs.close(t(2), 3);
        assert_eq!(reqs.latency().count(), 1);
    }

    #[test]
    fn request_ring_keeps_the_newest_closed_records() {
        let mut reqs = ReqSpans::default();
        let n = RECENT_SPANS as u32 + 10;
        for conn in 0..n {
            reqs.accept(t(conn as u64), conn, 0);
            reqs.close(t(conn as u64 + 1), conn);
        }
        assert_eq!(reqs.latency().count(), n as u64);
        let conns: Vec<u32> = reqs.recent().map(|r| r.conn).collect();
        assert_eq!(conns, (10..n).collect::<Vec<_>>());
    }

    #[test]
    fn hist_summary_digests() {
        let mut h = Hist::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let s = HistSummary::from(&h);
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 30);
        assert!((s.mean - 20.0).abs() < 1e-9);
        assert!(s.p50 <= s.p99);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = HistSummary::from(&Hist::new());
        assert_eq!(s, HistSummary::default());
    }

    #[test]
    #[should_panic(expected = "no splice span")]
    fn indexing_unknown_span_panics() {
        let spans = SpliceSpans::new();
        let _ = &spans[42];
    }
}
