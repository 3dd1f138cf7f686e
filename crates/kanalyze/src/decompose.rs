//! Critical-path decomposition: from stitched block spans to a ranked,
//! gap-free bottleneck table.
//!
//! Every spliced block leaves four phase marks in the trace (read
//! issue → read done → write issue → write done). The differences
//! between consecutive marks partition the block's end-to-end latency
//! **exactly** — read phase + handoff + write phase = total, with no
//! gaps and no overlaps, by arithmetic on the same timestamps. The
//! decomposition then refines the read phase with the separately
//! recorded device-queue wait, and attaches the *overlapping* retry
//! backoff as an informational row that never enters the closure sum.
//!
//! The closure check is the whole point: the trace-derived total is
//! compared against the `end_to_end` stage histogram, which the engine
//! records through an independent bookkeeping path (the descriptor's
//! per-block records vs the trace ring). If the two disagree beyond tolerance, either the trace
//! ring wrapped (partial spans — reported) or an accounting bug crept
//! in.

use ksim::{BlockSpan, Json, StageHists};

/// Sums of the three exact span phases plus span-health counters.
#[derive(Clone, Debug, Default)]
pub struct PhaseBreakdown {
    /// Spans with all four phase marks observed, in order.
    pub blocks: u64,
    /// Spans missing at least one phase (trace-ring wrap/truncation).
    pub partial_spans: u64,
    /// Spans whose observed phases violate pipeline order.
    pub unordered_spans: u64,
    /// Σ (read done − read issue) over complete spans, ns.
    pub read_ns: u128,
    /// Σ (write issue − read done) over complete spans, ns.
    pub handoff_ns: u128,
    /// Σ (write done − write issue) over complete spans, ns.
    pub write_ns: u128,
    /// Σ (write done − read issue) over complete spans, ns. Equals
    /// `read_ns + handoff_ns + write_ns` by construction.
    pub total_ns: u128,
}

impl PhaseBreakdown {
    /// Accumulates the exact phase sums over `spans`. Partial or
    /// unordered spans are counted and skipped — never panicked on —
    /// so the decomposition degrades gracefully on wrapped rings.
    pub fn from_spans(spans: &[BlockSpan]) -> Self {
        let mut b = PhaseBreakdown::default();
        for s in spans {
            if !s.complete() {
                b.partial_spans += 1;
                continue;
            }
            if !s.ordered() {
                b.unordered_spans += 1;
                continue;
            }
            let (ri, rd, wi, wd) = (
                s.read_issue.unwrap().at,
                s.read_done.unwrap().at,
                s.write_issue.unwrap().at,
                s.write_done.unwrap().at,
            );
            b.blocks += 1;
            b.read_ns += rd.since(ri).as_ns() as u128;
            b.handoff_ns += wi.since(rd).as_ns() as u128;
            b.write_ns += wd.since(wi).as_ns() as u128;
            b.total_ns += wd.since(ri).as_ns() as u128;
        }
        b
    }
}

/// One row of the ranked bottleneck table.
#[derive(Clone, Debug)]
pub struct StageRow {
    /// Stage name (`read_queue`, `read_service`, `handoff`,
    /// `write_service`, `retry_backoff`).
    pub stage: &'static str,
    /// Total nanoseconds attributed to this stage across all blocks.
    pub total_ns: u128,
    /// Samples behind the row (blocks for phase rows, histogram count
    /// for informational rows).
    pub count: u64,
    /// `total_ns / count`, or 0 when empty.
    pub mean_ns: f64,
    /// `total_ns` as a fraction of the end-to-end total.
    pub share: f64,
    /// True for overlapping sub-attributions (retry backoff) that are
    /// excluded from the gap-free closure sum.
    pub informational: bool,
}

impl StageRow {
    fn new(stage: &'static str, total_ns: u128, count: u64, e2e: u128, info: bool) -> Self {
        StageRow {
            stage,
            total_ns,
            count,
            mean_ns: if count == 0 {
                0.0
            } else {
                total_ns as f64 / count as f64
            },
            share: if e2e == 0 {
                0.0
            } else {
                total_ns as f64 / e2e as f64
            },
            informational: info,
        }
    }

    /// Serializes the row for `REPORT_*.json`.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("stage", Json::Str(self.stage.into()))
            .with("total_ns", Json::Num(self.total_ns as f64))
            .with("count", Json::Num(self.count as f64))
            .with("mean_ns", Json::Num(self.mean_ns))
            .with("share", Json::Num(self.share))
            .with("informational", Json::Bool(self.informational))
    }
}

/// The full per-workload decomposition: phase sums, ranked table,
/// dominant-stage verdict, and the closure cross-check.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// Exact phase sums and span-health counters.
    pub phases: PhaseBreakdown,
    /// Bottleneck table, ranked by `total_ns` descending (informational
    /// rows included, ranked with the rest but flagged).
    pub table: Vec<StageRow>,
    /// The non-informational stage with the largest total — where a
    /// block's time actually went.
    pub dominant: &'static str,
    /// Σ of the non-informational rows, ns. Equals `phases.total_ns`
    /// by construction (the gap-free property).
    pub components_ns: u128,
    /// The independently recorded `end_to_end` histogram sum, ns.
    pub kstat_end_to_end_ns: u128,
    /// Blocks the independent recorder saw (histogram count).
    pub kstat_blocks: u64,
    /// `|components_ns − kstat_end_to_end_ns| / kstat_end_to_end_ns`.
    pub closure_error: f64,
    /// True when `closure_error ≤ tolerance` (the acceptance gate).
    pub closure_pass: bool,
    /// The tolerance the closure was judged against.
    pub tolerance: f64,
}

/// Default closure tolerance: the decomposition must sum to the
/// measured end-to-end latency within 1%.
pub const CLOSURE_TOLERANCE: f64 = 0.01;

/// Decomposes `spans` against the per-stage histograms in `stages`.
///
/// The four component rows partition the trace-derived end-to-end time
/// exactly: `read_queue` is the device-queue portion of the read phase
/// (clamped to it — the queue-wait histogram also sees non-splice
/// reads), `read_service` is the remainder of the read phase,
/// `handoff` and `write_service` are the other two phases verbatim.
/// `retry_backoff` (waits between re-issues, overlapping the read
/// phase) is attached as an informational row.
pub fn decompose(spans: &[BlockSpan], stages: &StageHists, tolerance: f64) -> Decomposition {
    let phases = PhaseBreakdown::from_spans(spans);
    let e2e = phases.total_ns;
    let read_queue = stages.read_queue_wait.sum().min(phases.read_ns);
    let read_service = phases.read_ns - read_queue;
    let mut table = vec![
        StageRow::new("read_queue", read_queue, phases.blocks, e2e, false),
        StageRow::new("read_service", read_service, phases.blocks, e2e, false),
        StageRow::new("handoff", phases.handoff_ns, phases.blocks, e2e, false),
        StageRow::new("write_service", phases.write_ns, phases.blocks, e2e, false),
        StageRow::new(
            "retry_backoff",
            stages.retry_backoff.sum(),
            stages.retry_backoff.count(),
            e2e,
            true,
        ),
    ];
    table.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.stage.cmp(b.stage)));
    let dominant = table
        .iter()
        .find(|r| !r.informational)
        .map_or("none", |r| r.stage);
    let components_ns: u128 = table
        .iter()
        .filter(|r| !r.informational)
        .map(|r| r.total_ns)
        .sum();
    let kstat_end_to_end_ns = stages.end_to_end.sum();
    let closure_error = if kstat_end_to_end_ns == 0 {
        if components_ns == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (components_ns as f64 - kstat_end_to_end_ns as f64).abs() / kstat_end_to_end_ns as f64
    };
    Decomposition {
        phases,
        table,
        dominant,
        components_ns,
        kstat_end_to_end_ns,
        kstat_blocks: stages.end_to_end.count(),
        closure_error,
        closure_pass: closure_error <= tolerance,
        tolerance,
    }
}

impl Decomposition {
    /// Serializes the decomposition for `REPORT_*.json`: span-health
    /// counters, the ranked table, the verdict, and the closure check.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("blocks", Json::Num(self.phases.blocks as f64))
            .with("partial_spans", Json::Num(self.phases.partial_spans as f64))
            .with(
                "unordered_spans",
                Json::Num(self.phases.unordered_spans as f64),
            )
            .with(
                "table",
                Json::Arr(self.table.iter().map(StageRow::to_json).collect()),
            )
            .with("dominant", Json::Str(self.dominant.into()))
            .with(
                "closure",
                Json::obj()
                    .with("components_ns", Json::Num(self.components_ns as f64))
                    .with(
                        "kstat_end_to_end_ns",
                        Json::Num(self.kstat_end_to_end_ns as f64),
                    )
                    .with("kstat_blocks", Json::Num(self.kstat_blocks as f64))
                    .with("rel_error", Json::Num(self.closure_error))
                    .with("tolerance", Json::Num(self.tolerance))
                    .with("pass", Json::Bool(self.closure_pass)),
            )
    }

    /// Renders the ranked table as aligned text for terminal output.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<14} {:>14} {:>8} {:>12} {:>7}",
            "stage", "total_ns", "count", "mean_ns", "share"
        );
        for r in &self.table {
            let _ = writeln!(
                out,
                "  {:<14} {:>14} {:>8} {:>12.1} {:>6.1}%{}",
                r.stage,
                r.total_ns,
                r.count,
                r.mean_ns,
                r.share * 100.0,
                if r.informational { "  (info)" } else { "" }
            );
        }
        let _ = writeln!(
            out,
            "  dominant: {}  closure: {:.4}% (tol {:.1}%) {}",
            self.dominant,
            self.closure_error * 100.0,
            self.tolerance * 100.0,
            if self.closure_pass { "PASS" } else { "FAIL" }
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::{PhaseMark, SimTime};

    fn mark(seq: u64, us: u64) -> Option<PhaseMark> {
        Some(PhaseMark {
            seq,
            at: SimTime::ZERO + ksim::Dur::from_us(us),
        })
    }

    fn span(lblk: u64, t0: u64) -> BlockSpan {
        BlockSpan {
            desc: 1,
            lblk,
            read_issue: mark(t0, t0),
            read_done: mark(t0 + 1, t0 + 10),
            write_issue: mark(t0 + 2, t0 + 15),
            write_done: mark(t0 + 3, t0 + 40),
        }
    }

    fn stages_with_e2e(spans: &[BlockSpan]) -> StageHists {
        let mut st = StageHists::default();
        for s in spans {
            let ri = s.read_issue.unwrap().at;
            st.end_to_end
                .record(s.write_done.unwrap().at.since(ri).as_ns());
        }
        st
    }

    #[test]
    fn phases_partition_exactly() {
        let spans: Vec<BlockSpan> = (0..8).map(|i| span(i, i * 100)).collect();
        let b = PhaseBreakdown::from_spans(&spans);
        assert_eq!(b.blocks, 8);
        assert_eq!(b.read_ns + b.handoff_ns + b.write_ns, b.total_ns);
        assert_eq!(b.total_ns, 8 * 40_000); // 40 µs per block
    }

    #[test]
    fn decompose_closes_against_matching_kstat() {
        let spans: Vec<BlockSpan> = (0..4).map(|i| span(i, i * 100)).collect();
        let st = stages_with_e2e(&spans);
        let d = decompose(&spans, &st, CLOSURE_TOLERANCE);
        assert!(d.closure_pass, "rel error {}", d.closure_error);
        assert_eq!(d.components_ns, d.kstat_end_to_end_ns);
        // write phase (25 µs) dominates read (10) and handoff (5).
        assert_eq!(d.dominant, "write_service");
        assert_eq!(d.table[0].stage, "write_service");
        let sum: f64 = d
            .table
            .iter()
            .filter(|r| !r.informational)
            .map(|r| r.share)
            .sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn partial_and_unordered_spans_are_skipped_not_fatal() {
        let mut spans = vec![span(0, 0), span(1, 100)];
        spans[1].read_done = None; // truncated: later phases exist
        let mut tail = span(2, 200);
        tail.write_done = None; // wrapped tail: still ordered prefix
        spans.push(tail);
        let b = PhaseBreakdown::from_spans(&spans);
        assert_eq!(b.blocks, 1);
        assert_eq!(b.partial_spans, 2);
        let st = stages_with_e2e(&spans[..1]);
        let d = decompose(&spans, &st, CLOSURE_TOLERANCE);
        assert!(d.closure_pass);
    }

    #[test]
    fn closure_fails_when_recorders_diverge() {
        let spans = vec![span(0, 0)];
        let mut st = stages_with_e2e(&spans);
        st.end_to_end.record(1_000_000); // phantom block in kstat only
        let d = decompose(&spans, &st, CLOSURE_TOLERANCE);
        assert!(!d.closure_pass);
    }

    #[test]
    fn empty_input_is_benign() {
        let d = decompose(&[], &StageHists::default(), CLOSURE_TOLERANCE);
        assert!(d.closure_pass);
        assert_eq!(d.phases.blocks, 0);
        assert_eq!(d.dominant, "handoff"); // all-zero tie → name order
        assert!(d.to_json().get("closure").is_some());
    }
}
