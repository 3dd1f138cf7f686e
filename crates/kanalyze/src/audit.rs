//! Queueing-law auditors: the recorded telemetry cross-validated
//! against itself.
//!
//! Each auditor compares two numbers the simulator records through
//! *independent* bookkeeping paths, with a stated tolerance. When an
//! auditor fails, one of the two recorders is wrong — the laws
//! themselves hold in any work-conserving system — so a failure is an
//! accounting bug surfaced loudly, not a performance regression.
//!
//! - **Little's law** (`L = λW`): the exact time integral of a
//!   pipeline stage's occupancy (∫ count dt, kept by the splice
//!   engine's pending-work gauges) must equal the summed residence time
//!   the per-stage histograms recorded block by block. Over one window
//!   both sides divide by the same length, so the law is checked on the
//!   integrals themselves, exactly: each recorder stamps the same
//!   instants through a different path, and any difference is a block
//!   one of them missed or timed from the wrong instant.
//! - **Utilization law** (`U = X·S`): a device's busy time, accumulated
//!   request-by-request at the device model, must equal the sum of its
//!   service-time histogram — two paths through `khw` that can only
//!   diverge if one forgets a request.
//! - **Byte conservation**: exact — every descriptor's span byte count,
//!   its engine outcome, and the workload's expected total must agree
//!   to the byte, and blocks cannot complete more often than they were
//!   read or written. The per-descriptor checks run once, as the kernel
//!   folds each finished span into its fixed-size `ksim::SpanTally`.

use ksim::{Json, SpanTally};

/// Tolerance for one audit comparison: pass when
/// `|measured − predicted| ≤ max(abs, rel × |predicted|)`.
#[derive(Clone, Copy, Debug)]
pub struct Tolerance {
    /// Relative bound on the deviation.
    pub rel: f64,
    /// Absolute floor, in the quantity's native unit (ns·blocks for
    /// Little's law, nanoseconds for the utilization law, bytes for
    /// conservation).
    pub abs: f64,
}

impl Tolerance {
    /// The exactness tolerance (zero slack).
    pub const EXACT: Tolerance = Tolerance { rel: 0.0, abs: 0.0 };

    fn allows(&self, measured: f64, predicted: f64) -> bool {
        (measured - predicted).abs() <= self.abs.max(self.rel * predicted.abs())
    }
}

/// The verdict of one auditor run.
#[derive(Clone, Debug)]
pub struct AuditOutcome {
    /// Which law was checked, e.g. `little.read` or `utilization.d0`.
    pub law: String,
    /// The directly measured side of the comparison.
    pub measured: f64,
    /// The side predicted from the other recorder via the law.
    pub predicted: f64,
    /// The tolerance the comparison was judged against.
    pub tolerance: Tolerance,
    /// True when the deviation is within tolerance.
    pub pass: bool,
    /// Human-readable context (units, inputs).
    pub detail: String,
}

impl AuditOutcome {
    fn judge(law: String, measured: f64, predicted: f64, tol: Tolerance, detail: String) -> Self {
        AuditOutcome {
            pass: tol.allows(measured, predicted),
            law,
            measured,
            predicted,
            tolerance: tol,
            detail,
        }
    }

    /// Serializes the outcome for `REPORT_*.json`.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("law", Json::Str(self.law.clone()))
            .with("measured", Json::Num(self.measured))
            .with("predicted", Json::Num(self.predicted))
            .with(
                "tolerance",
                Json::obj()
                    .with("rel", Json::Num(self.tolerance.rel))
                    .with("abs", Json::Num(self.tolerance.abs)),
            )
            .with("pass", Json::Bool(self.pass))
            .with("detail", Json::Str(self.detail.clone()))
    }
}

/// A bundle of audit outcomes with an overall verdict.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// The individual law checks, in the order they ran.
    pub outcomes: Vec<AuditOutcome>,
}

impl AuditReport {
    /// True when every outcome passed.
    pub fn pass(&self) -> bool {
        self.outcomes.iter().all(|o| o.pass)
    }

    /// Serializes all outcomes plus the overall verdict.
    pub fn to_json(&self) -> Json {
        Json::obj().with("pass", Json::Bool(self.pass())).with(
            "outcomes",
            Json::Arr(self.outcomes.iter().map(AuditOutcome::to_json).collect()),
        )
    }

    /// Renders one line per outcome for terminal output.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for o in &self.outcomes {
            let _ = writeln!(
                out,
                "  {:<24} measured {:>14.3}  predicted {:>14.3}  {}  ({})",
                o.law,
                o.measured,
                o.predicted,
                if o.pass { "PASS" } else { "FAIL" },
                o.detail
            );
        }
        out
    }
}

/// Little's law: `occupancy_ns`, the exact ∫ count dt of a stage in
/// ns·blocks, vs `stage_ns`, the summed residence time of the
/// `intervals` blocks the stage's histograms recorded. Both are exact
/// integrals of the same intervals, so [`Tolerance::EXACT`] is the
/// law's statement.
pub fn littles_law(
    label: &str,
    occupancy_ns: u128,
    stage_ns: u128,
    intervals: u64,
    tol: Tolerance,
) -> AuditOutcome {
    AuditOutcome::judge(
        format!("little.{label}"),
        occupancy_ns as f64,
        stage_ns as f64,
        tol,
        format!("∫ occupancy dt vs Σ stage time over {intervals} intervals, ns·blocks"),
    )
}

/// Per-device accounting inputs for the utilization law, extracted
/// from the kernel by the caller so this crate stays `ksim`-only.
#[derive(Clone, Debug)]
pub struct DeviceAccounting {
    /// Mount/device name.
    pub name: String,
    /// Busy time accumulated at the device model, ns.
    pub busy_ns: u128,
    /// Sum of the device's service-time histogram, ns.
    pub service_sum_ns: u128,
    /// Requests counted by the device's completion counter.
    pub requests: u64,
    /// Samples in the service-time histogram.
    pub service_count: u64,
}

/// Utilization law: busy time vs service-time histogram sum (and the
/// matching request counts), per device.
pub fn utilization_law(dev: &DeviceAccounting, tol: Tolerance) -> AuditOutcome {
    let mut o = AuditOutcome::judge(
        format!("utilization.{}", dev.name),
        dev.busy_ns as f64,
        dev.service_sum_ns as f64,
        tol,
        format!(
            "busy vs Σ service over {} requests / {} samples",
            dev.requests, dev.service_count
        ),
    );
    // The two recorders must also agree on *how many* requests they
    // saw; equal sums over different counts would be a coincidence,
    // not an account.
    if dev.requests != dev.service_count {
        o.pass = false;
    }
    o
}

/// Byte conservation over a kernel's [`SpanTally`]
/// (`kstat().spans.tally()`): the bytes every descriptor's outcome
/// reported must sum exactly to the workload's expected count, and no
/// descriptor may have failed a per-span check — its span and outcome
/// byte counts agree, it completed no more blocks than it read or
/// wrote, and its lifecycle timestamps are in order.
pub fn byte_conservation(tally: &SpanTally, expected_total: u64) -> AuditOutcome {
    let detail = if tally.violations == 0 {
        format!(
            "{} descriptors, all span/outcome pairs exact",
            tally.descriptors
        )
    } else {
        let unlisted = tally.violations - tally.details.len() as u64;
        let mut d = tally.details.join("; ");
        if unlisted > 0 {
            d += &format!("; {unlisted} more");
        }
        d
    };
    let mut o = AuditOutcome::judge(
        "byte_conservation".into(),
        tally.bytes_moved as f64,
        expected_total as f64,
        Tolerance::EXACT,
        detail,
    );
    if tally.violations > 0 {
        o.pass = false;
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::SpliceSpan;

    #[test]
    fn littles_law_compares_the_integrals_exactly() {
        // 4 blocks, each 250 µs in the stage: 1 ms·block either way.
        let o = littles_law("read", 1_000_000, 4 * 250_000, 4, Tolerance::EXACT);
        assert!(o.pass, "{o:?}");
        assert_eq!((o.measured, o.predicted), (1e6, 1e6));
        // One nanosecond of one block is a divergence.
        assert!(!littles_law("read", 1_000_001, 1_000_000, 4, Tolerance::EXACT).pass);
        assert!(!littles_law("read", 0, 1_000_000, 4, Tolerance::EXACT).pass);
        // An idle stage holds nothing on either side.
        assert!(littles_law("write", 0, 0, 0, Tolerance::EXACT).pass);
    }

    #[test]
    fn utilization_law_catches_divergent_recorders() {
        let tol = Tolerance {
            rel: 0.01,
            abs: 0.0,
        };
        let good = DeviceAccounting {
            name: "d0".into(),
            busy_ns: 5_000_000,
            service_sum_ns: 5_000_000,
            requests: 128,
            service_count: 128,
        };
        assert!(utilization_law(&good, tol).pass);
        let skewed = DeviceAccounting {
            service_sum_ns: 5_200_000,
            ..good.clone()
        };
        assert!(!utilization_law(&skewed, tol).pass);
        let miscounted = DeviceAccounting {
            service_count: 127,
            ..good
        };
        assert!(!utilization_law(&miscounted, tol).pass, "count mismatch");
    }

    #[test]
    fn byte_conservation_is_exact() {
        let d = SpliceSpan {
            id: 1,
            bytes_moved: 1 << 20,
            blocks_done: 128,
            reads_issued: 128,
            writes_issued: 128,
            ..SpliceSpan::default()
        };
        let tally = |s: &SpliceSpan, outcome_bytes: u64| {
            let mut t = SpanTally::default();
            t.fold(s, outcome_bytes);
            t
        };
        let exact = byte_conservation(&tally(&d, 1 << 20), 1 << 20);
        assert!(exact.pass);
        assert_eq!(exact.detail, "1 descriptors, all span/outcome pairs exact");
        assert!(
            !byte_conservation(&tally(&d, 1 << 20), (1 << 20) + 1).pass,
            "off by one"
        );
        let torn = byte_conservation(&tally(&d, (1 << 20) - 1), (1 << 20) - 1);
        assert!(!torn.pass, "totals agree but the pair does not");
        assert_eq!(torn.detail, "desc 1: span 1048576 ≠ outcome 1048575");
        let impossible = SpliceSpan {
            reads_issued: 127,
            ..d.clone()
        };
        assert!(!byte_conservation(&tally(&impossible, 1 << 20), 1 << 20).pass);
        // A cache hit is a legitimate block source: hits make up for
        // reads that never reached the device.
        let hot = SpliceSpan {
            reads_issued: 0,
            read_hits: 128,
            ..d.clone()
        };
        assert!(byte_conservation(&tally(&hot, 1 << 20), 1 << 20).pass);
        // Failures past the kept details are still counted.
        let mut many = SpanTally::default();
        for _ in 0..ksim::kstat::MAX_VIOLATION_DETAILS + 2 {
            many.fold(&d, 0);
        }
        let o = byte_conservation(&many, 0);
        assert!(!o.pass);
        assert!(o.detail.ends_with("; 2 more"), "{}", o.detail);
    }

    #[test]
    fn report_aggregates_and_serializes() {
        let mut r = AuditReport::default();
        r.outcomes.push(littles_law(
            "read",
            1_000_000,
            1_000_000,
            1,
            Tolerance::EXACT,
        ));
        assert!(r.pass());
        r.outcomes.push(byte_conservation(&SpanTally::default(), 1));
        assert!(!r.pass());
        let j = r.to_json();
        assert_eq!(j.get("pass").and_then(Json::as_f64), None); // bool, not num
        assert!(r.render().contains("FAIL"));
    }
}
