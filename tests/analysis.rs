//! Cross-crate integration: the trace-driven analysis engine.
//!
//! `kanalyze` has unit tests against synthetic spans; here the same
//! decomposition, auditors, and diff gate run against live kernels, so
//! the invariants they encode are checked end to end: the phase marks
//! in the trace partition measured latency exactly, the queueing laws
//! hold on the recorded telemetry, and the regression gate catches a
//! perturbed metric in a real report document.

use kanalyze::{
    byte_conservation, compare, decompose, utilization_law, DeviceAccounting, DiffRules, Tolerance,
};
use khw::{DiskProfile, FaultOp, FaultPlan, SECTOR_SIZE};
use kproc::programs::{Scp, ScpMode};
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

/// Four concurrent `FASYNC` copies of separate 64 KB files: their
/// splices share both pipeline sides.
fn concurrent_kernel() -> Kernel {
    let mut k = KernelBuilder::paper_machine_ram().trace(1 << 20).build();
    for i in 0..4 {
        k.setup_file(&format!("/d0/f{i}"), 64 * 1024, 7 ^ i);
    }
    k.cold_cache();
    let pids: Vec<_> = (0..4)
        .map(|i| {
            k.spawn(Box::new(Scp::with_options(
                &format!("/d0/f{i}"),
                &format!("/d1/c{i}"),
                ScpMode::Async,
                1,
            )))
        })
        .collect();
    let horizon = k.horizon(600);
    k.run_to_exit(horizon);
    for (i, pid) in pids.into_iter().enumerate() {
        assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
        let seed = 7 ^ i as u64;
        assert_eq!(
            k.verify_pattern_file(&format!("/d1/c{i}"), 64 * 1024, seed),
            None
        );
    }
    k
}

/// Little's law on both pipeline sides, exact: each side's occupancy
/// integral over every descriptor equals the stage time its histograms
/// recorded, to the nanosecond.
fn assert_littles_law(k: &Kernel) {
    let audit = bench::littles_law_audit(k);
    assert!(audit.pass(), "{}", audit.render());
    let tally = k.kstat().spans.tally();
    assert!(tally.read_area > 0 && tally.write_area > 0, "idle pipeline");
}

/// Little's law stays exact under device faults. A failed read attempt
/// holds its pending-read slot until the error lands, and a retried
/// write holds its pending-write slot across the backoff, for time no
/// stage histogram records; the tally's lost terms account for it. The
/// SCSI inputs take the interrupt-driven retry paths, and a permanent
/// bad block aborts the splice with its slots still held.
#[test]
fn queueing_laws_hold_exactly_under_faults() {
    // (disks, faulted disk, plan, whether the splice aborts)
    type Plan = fn(&Kernel) -> FaultPlan;
    let cases: [(DiskProfile, usize, Plan, bool); 5] = [
        (
            DiskProfile::ramdisk(),
            0,
            |_| FaultPlan::new(42).transient_eio(FaultOp::Read, 0.01),
            false,
        ),
        (
            DiskProfile::ramdisk(),
            1,
            |_| FaultPlan::new(42).transient_eio(FaultOp::Write, 0.05),
            false,
        ),
        (
            DiskProfile::rz58(),
            0,
            |_| FaultPlan::new(42).transient_eio(FaultOp::Read, 0.02),
            false,
        ),
        (
            DiskProfile::rz58(),
            1,
            |_| FaultPlan::new(42).transient_eio(FaultOp::Write, 0.05),
            false,
        ),
        (
            DiskProfile::rz58(),
            0,
            |k| {
                let fs = &k.disks()[0].fs;
                let ino = fs.lookup("/src").expect("source exists");
                let pblk = fs.bmap(ino, 40).expect("mapped block");
                FaultPlan::new(42).bad_block(FaultOp::Read, pblk * (8192 / SECTOR_SIZE as u64))
            },
            true,
        ),
    ];
    for (profile, disk, plan, aborts) in cases {
        let name = format!("{} d{disk}", profile.name);
        let mut k = KernelBuilder::paper_machine(profile).build();
        k.setup_file("/d0/src", MB, 7);
        k.cold_cache();
        let plan = plan(&k);
        k.set_fault_plan(disk, plan);
        let pid = k.spawn(Box::new(Scp::with_options(
            "/d0/src",
            "/d1/dst",
            ScpMode::Sync,
            1,
        )));
        let horizon = k.horizon(600);
        k.run_to_exit(horizon);
        let m = k.metrics();
        assert!(m.splice.retries > 0, "{name}: no retries");
        assert_eq!(m.splice.aborted, aborts as u64, "{name}");
        if aborts {
            assert!(matches!(k.procs().must(pid).state, ProcState::Exited(1)));
        } else {
            assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
            assert_eq!(k.verify_pattern_file("/d1/dst", MB, 7), None, "{name}");
        }
        assert_littles_law(&k);
        let tally = k.kstat().spans.tally();
        let lost = [tally.read_lost, tally.write_lost][disk];
        assert!(lost > 0, "{name}: the faults held no slot");
    }
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
    assert_littles_law(&concurrent_kernel());

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
