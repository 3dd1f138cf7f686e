//! Cross-crate integration: the trace-driven analysis engine.
//!
//! `kanalyze` has unit tests against synthetic spans; here the same
//! decomposition, auditors, and diff gate run against live kernels, so
//! the invariants they encode are checked end to end: the phase marks
//! in the trace partition measured latency exactly, the queueing laws
//! hold on the recorded telemetry, and the regression gate catches a
//! perturbed metric in a real report document.

use kanalyze::{
    byte_conservation, compare, decompose, littles_law, utilization_law, DeviceAccounting,
    DiffRules, Tolerance,
};
use kproc::programs::{RingScp, Scp};
use kproc::ProcState;
use ksim::Json;
use splice::{Kernel, KernelBuilder};

const MB: u64 = 1024 * 1024;

/// One cold-cache 2 MB disk→disk splice with the trace on.
fn scp_kernel() -> Kernel {
    let mut k = KernelBuilder::paper_machine_ram().trace(1 << 20).build();
    k.setup_file("/d0/src", 2 * MB, 5);
    k.cold_cache();
    let pid = k.spawn(Box::new(Scp::new("/d0/src", "/d1/dst")));
    let horizon = k.horizon(300);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
    k
}

/// A small batched-ring copy (8 one-block pairs, depth 4).
fn ring_kernel() -> Kernel {
    let mut k = KernelBuilder::paper_machine_ram().trace(1 << 20).build();
    for i in 0..8 {
        k.setup_file(&format!("/d0/f{i}"), 8 * 1024, 7 ^ i as u64);
    }
    k.cold_cache();
    let pid = k.spawn(Box::new(RingScp::new("/d0/f", "/d1/c", 8, 4)));
    let horizon = k.horizon(600);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
    k
}

/// Little's law on both pipeline sides, exact: each side's occupancy
/// integral over every descriptor equals the stage time its histograms
/// recorded, to the nanosecond.
fn assert_littles_law(k: &Kernel) {
    let stages = &k.kstat().stages;
    let tally = k.kstat().spans.tally();
    for o in [
        littles_law(
            "inflight_reads",
            tally.read_area,
            stages.read_service.sum(),
            stages.read_service.count(),
            Tolerance::EXACT,
        ),
        littles_law(
            "inflight_writes",
            tally.write_area,
            stages.read_to_write.sum() + stages.write_service.sum(),
            stages.write_service.count(),
            Tolerance::EXACT,
        ),
    ] {
        assert!(
            o.pass,
            "{}: measured {} vs predicted {} ({})",
            o.law, o.measured, o.predicted, o.detail
        );
    }
    assert!(tally.read_area > 0 && tally.write_area > 0, "idle pipeline");
}

#[test]
fn decomposition_closes_on_live_run() {
    let k = scp_kernel();
    let spans = k.trace().query().all_block_spans();
    assert_eq!(spans.len(), 256, "2 MB over 8 KB blocks");
    let d = decompose(
        &spans,
        &k.kstat().stages,
        kanalyze::decompose::CLOSURE_TOLERANCE,
    );

    // Every span survived the ring, and the trace-derived components
    // close against the independently recorded end-to-end histogram.
    assert_eq!(d.phases.blocks, 256);
    assert_eq!(d.phases.partial_spans, 0);
    assert_eq!(d.phases.unordered_spans, 0);
    assert!(d.closure_pass, "closure error {}", d.closure_error);
    assert_eq!(d.kstat_blocks, 256);

    // Gap-free by arithmetic: non-informational shares sum to 1.
    let share: f64 = d
        .table
        .iter()
        .filter(|r| !r.informational)
        .map(|r| r.share)
        .sum();
    assert!((share - 1.0).abs() < 1e-9, "shares sum to {share}");
    let dominant = d.table.iter().find(|r| r.stage == d.dominant).unwrap();
    assert!(!dominant.informational);
    assert!(dominant.total_ns > 0, "a 2 MB copy has a bottleneck");
}

#[test]
fn queueing_laws_hold_on_live_run() {
    let k = scp_kernel();
    assert_littles_law(&k);
    assert_littles_law(&ring_kernel());

    // Utilization law: busy time vs the service digest, recorded side
    // by side per request through the unified accounting source.
    for du in k.disks() {
        let o = utilization_law(
            &DeviceAccounting {
                name: du.name.clone(),
                busy_ns: du.kind.busy_time().as_ns() as u128,
                service_sum_ns: du.kind.service_hist().sum(),
                requests: du.kind.requests(),
                service_count: du.kind.service_hist().count(),
            },
            Tolerance {
                rel: 0.01,
                abs: 0.0,
            },
        );
        assert!(o.pass, "{}: {}", o.law, o.detail);
    }

    // Byte conservation, exact: kstat spans vs engine outcomes vs the
    // 2 MB the workload wrote.
    let o = byte_conservation(&k.kstat().spans.tally(), 2 * MB);
    assert!(o.pass, "{}: {}", o.law, o.detail);
}

#[test]
fn sqe_wait_is_informational_and_ring_only() {
    // The legacy splice(2) path records no submission-queue wait…
    let scp = scp_kernel();
    assert_eq!(scp.kstat().stages.sqe_wait.count(), 0);

    // …while the batched ring records one sample per admitted SQE, and
    // the decomposition attaches it as an informational row that never
    // breaks closure.
    let ring = ring_kernel();
    assert_eq!(ring.kstat().stages.sqe_wait.count(), 8);
    let spans = ring.trace().query().all_block_spans();
    let d = decompose(
        &spans,
        &ring.kstat().stages,
        kanalyze::decompose::CLOSURE_TOLERANCE,
    );
    assert!(d.closure_pass, "closure error {}", d.closure_error);
    let row = d.table.iter().find(|r| r.stage == "sqe_wait").unwrap();
    assert!(row.informational);
    assert_eq!(row.count, 8);
    assert!(row.total_ns > 0);
}

#[test]
fn diff_gate_catches_drift_in_live_report() {
    let k = scp_kernel();
    let spans = k.trace().query().all_block_spans();
    let d = decompose(
        &spans,
        &k.kstat().stages,
        kanalyze::decompose::CLOSURE_TOLERANCE,
    );
    let doc = Json::obj()
        .with("schema_version", Json::Num(1.0))
        .with("decomposition", d.to_json())
        .with("stages", k.kstat().stages.to_json());

    // Self-comparison passes; the simulator is deterministic, so an
    // identical rerun serializes the identical document.
    let r = compare(&doc, &doc.clone(), &DiffRules::default()).unwrap();
    assert!(r.pass(), "{:?}", r.failures);

    // Perturb one integral metric (a block count) in the rendered
    // document: the gate must name it.
    let text = doc.render_pretty();
    let drifted = text.replacen("\"blocks\": 256", "\"blocks\": 255", 1);
    assert_ne!(text, drifted, "perturbation must hit");
    let bad = Json::parse(&drifted).unwrap();
    let r = compare(&doc, &bad, &DiffRules::default()).unwrap();
    assert!(!r.pass(), "integer drift must fail");
    assert!(
        r.failures.iter().any(|f| f.contains("blocks")),
        "{:?}",
        r.failures
    );
}
