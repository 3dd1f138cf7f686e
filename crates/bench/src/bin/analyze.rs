//! Trace-driven performance analysis: critical-path decomposition plus
//! queueing-law audits for every named workload.
//!
//! For each workload in [`bench::workloads::ALL`] this binary runs the
//! scenario with the trace ring enabled, then hands the recorded
//! telemetry to `kanalyze`:
//!
//! 1. **Decomposition** — every stitched block span is partitioned into
//!    read-queue / read-service / handoff / write-service components
//!    (gap-free by construction), ranked into a bottleneck table with a
//!    dominant-stage verdict, and closed against the independently
//!    recorded `end_to_end` stage histogram within 1%.
//! 2. **Audits** — Little's law (the pending-work gauges' exact
//!    occupancy integrals vs the stage histograms, to the nanosecond),
//!    the utilization law (device busy time vs service digests), and
//!    exact byte conservation per splice descriptor.
//!
//! Artifact: `REPORT_<workload>.json` per workload, carrying the shared
//! `schema_version` envelope, the workload's seed/byte provenance, and
//! its resource profile (per-PID CPU, kernel CPU by class, devices,
//! cache).
//! The process exits nonzero if any closure check or auditor fails or
//! any block span is left incomplete, so it is a hard gate on its own.

use bench::{bench_doc, littles_law_audit, workload_meta, workloads, write_bench_json};
use kanalyze::{
    byte_conservation, decompose, utilization_law, AuditReport, DeviceAccounting, Tolerance,
};
use splice::Kernel;

/// Closure tolerance for the decomposition (acceptance criterion: the
/// per-stage sums must reach measured end-to-end within 1%).
const CLOSURE_TOL: f64 = kanalyze::decompose::CLOSURE_TOLERANCE;

/// Utilization-law tolerance: busy time and the service histogram are
/// recorded side by side per request, so they must agree to 1%.
const UTIL_TOL: Tolerance = Tolerance {
    rel: 0.01,
    abs: 0.0,
};

/// Runs the audits for one finished kernel.
fn audit(k: &Kernel, expected_bytes: u64) -> AuditReport {
    // Little's law, read side and write side, exact.
    let mut report = littles_law_audit(k);

    // Utilization law, per mounted disk, through the one unified
    // accounting source on `DiskUnitKind`.
    for du in k.disks() {
        report.outcomes.push(utilization_law(
            &DeviceAccounting {
                name: du.name.clone(),
                busy_ns: du.kind.busy_time().as_ns() as u128,
                service_sum_ns: du.kind.service_hist().sum(),
                requests: du.kind.requests(),
                service_count: du.kind.service_hist().count(),
            },
            UTIL_TOL,
        ));
    }

    // Byte conservation: kstat spans vs engine outcomes vs the
    // workload's own expected byte count, exact. A splice that never
    // finished conserves nothing, so it fails the audit loudly.
    report
        .outcomes
        .push(byte_conservation(&k.kstat().spans.tally(), expected_bytes));
    report
}

/// Analyzes one workload; returns whether every gate passed.
fn analyze_one(name: &str) -> bool {
    let k = workloads::run(name);
    let meta = workloads::meta(name);
    let spans = k.trace().query().all_block_spans();
    let d = decompose(&spans, &k.kstat().stages, CLOSURE_TOL);
    let audits = audit(&k, meta.expected_bytes);

    println!("== {name} ==");
    print!("{}", d.render());
    print!("{}", audits.render());
    println!();

    let doc = bench_doc(&format!("report_{name}"))
        .with(
            "meta",
            workload_meta(name, &meta.seeds, meta.expected_bytes),
        )
        .with("decomposition", d.to_json())
        .with("audits", audits.to_json())
        .with("stages", k.kstat().stages.to_json())
        .with("profile", k.profile().to_json());
    write_bench_json(&format!("REPORT_{name}.json"), &doc);

    if d.phases.partial_spans != 0 {
        eprintln!(
            "{name}: {} block spans never completed",
            d.phases.partial_spans
        );
    }
    if !d.closure_pass {
        eprintln!(
            "{name}: decomposition closure FAILED: components {} ns vs end-to-end {} ns (rel {:.4} > {CLOSURE_TOL})",
            d.components_ns, d.kstat_end_to_end_ns, d.closure_error
        );
    }
    for o in audits.outcomes.iter().filter(|o| !o.pass) {
        eprintln!(
            "{name}: audit {} FAILED: measured {} vs predicted {} ({})",
            o.law, o.measured, o.predicted, o.detail
        );
    }
    d.phases.partial_spans == 0 && d.closure_pass && audits.pass()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = if args.is_empty() {
        workloads::ALL.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    let mut ok = true;
    for name in names {
        ok &= analyze_one(name);
    }
    assert!(ok, "analysis gates failed (see messages above)");
}
