//! Trace-driven performance analysis: critical-path decomposition plus
//! queueing-law audits for every named workload.
//!
//! For each workload in [`bench::workloads::ALL`] this binary runs the
//! scenario with the trace ring and gauge sampler enabled, then hands
//! the recorded telemetry to `kanalyze`:
//!
//! 1. **Decomposition** — every stitched block span is partitioned into
//!    read-queue / read-service / handoff / write-service components
//!    (gap-free by construction), ranked into a bottleneck table with a
//!    dominant-stage verdict, and closed against the independently
//!    recorded `end_to_end` stage histogram within 1%.
//! 2. **Audits** — Little's law (sampler gauges vs stage histograms),
//!    the utilization law (device busy time vs service digests), and
//!    exact byte conservation per splice descriptor.
//!
//! Artifact: `REPORT_<workload>.json` per workload, carrying the shared
//! `schema_version` envelope and the workload's seed/byte provenance.
//! The process exits nonzero if any closure check or auditor fails or
//! any block span is left incomplete, so it is a hard gate on its own.

use bench::{bench_doc, workload_meta, workloads, write_bench_json};
use kanalyze::{
    byte_conservation, decompose, littles_law, utilization_law, AuditReport, DeviceAccounting,
    Tolerance,
};
use ksim::{Dur, Json};
use splice::Kernel;

/// Gauge-sampler period: one scheduler tick on the paper machine, the
/// finest granularity the callout wheel can deliver.
const PERIOD: Dur = Dur::from_ms(10);
/// Sampler ring capacity: ample for every workload's run length.
const CAPACITY: usize = 1 << 16;

/// Closure tolerance for the decomposition (acceptance criterion: the
/// per-stage sums must reach measured end-to-end within 1%).
const CLOSURE_TOL: f64 = kanalyze::decompose::CLOSURE_TOLERANCE;

/// Little's-law tolerance: 25% relative, with an absolute floor of
/// half a block of occupancy. The auditor adds its own resolution
/// slack (`intervals / n_samples`) on top: the callout-driven gauge
/// samples unevenly under load and cannot see intervals shorter than
/// its achieved spacing, and that bound is part of the law's statement
/// (see `kanalyze::littles_law`).
const LITTLE_TOL: Tolerance = Tolerance {
    rel: 0.25,
    abs: 0.5,
};

/// Time-weighted mean of a gauge over `[0, window_ns]`: trapezoids
/// between samples (the gauge holds no meaning between readings, so
/// linear interpolation splits the difference), zero occupancy assumed
/// at boot, last reading held to the window end. A plain mean would
/// under-weight busy plateaus: the sampler callout fires late while
/// the CPU churns soft work, so samples bunch up in idle stretches.
fn time_weighted_mean(points: &[(u64, u64)], window_ns: u64) -> f64 {
    if window_ns == 0 {
        return 0.0;
    }
    let mut mass = 0.0;
    let (mut pt, mut po) = (0u64, 0.0f64);
    for &(t, occ) in points {
        let o = occ as f64;
        mass += 0.5 * (po + o) * t.saturating_sub(pt) as f64;
        (pt, po) = (t, o);
    }
    mass += po * window_ns.saturating_sub(pt) as f64;
    mass / window_ns as f64
}

/// Utilization-law tolerance: busy time and the service histogram are
/// recorded side by side per request, so they must agree to 1%.
const UTIL_TOL: Tolerance = Tolerance {
    rel: 0.01,
    abs: 0.0,
};

/// Runs the audits for one finished kernel.
fn audit(k: &Kernel, expected_bytes: u64) -> AuditReport {
    let stages = &k.kstat().stages;
    let mut report = AuditReport::default();

    // Little's law, read side and write side. The sampler window runs
    // from boot to now; the time-weighted mean of the gauge estimates
    // the time-averaged occupancy over the same window.
    let samples: Vec<_> = k.samples().collect();
    let window_ns = k.now().as_ns();
    if !samples.is_empty() && window_ns > 0 {
        let n_samples = samples.len() as u64;
        let reads: Vec<(u64, u64)> = samples
            .iter()
            .map(|s| (s.at.as_ns(), s.inflight_reads))
            .collect();
        let writes: Vec<(u64, u64)> = samples
            .iter()
            .map(|s| (s.at.as_ns(), s.inflight_writes))
            .collect();
        report.outcomes.push(littles_law(
            "inflight_reads",
            time_weighted_mean(&reads, window_ns),
            stages.read_service.sum(),
            stages.read_service.count(),
            n_samples,
            window_ns,
            LITTLE_TOL,
        ));
        report.outcomes.push(littles_law(
            "inflight_writes",
            time_weighted_mean(&writes, window_ns),
            stages.read_to_write.sum() + stages.write_service.sum(),
            stages.write_service.count(),
            n_samples,
            window_ns,
            LITTLE_TOL,
        ));
    }

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
    let k = workloads::run_sampled(name, PERIOD, CAPACITY);
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
        .with("sample_period_ns", Json::Num(PERIOD.as_ns() as f64))
        .with("decomposition", d.to_json())
        .with("audits", audits.to_json())
        .with("stages", k.kstat().stages.to_json());
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
