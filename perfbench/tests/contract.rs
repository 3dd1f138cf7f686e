//! The benchmark's own checks: `BENCHMARK.json` and the program agree on
//! every metric, simulated metrics repeat exactly for a seed, and an
//! injected bad block is counted as a failure rather than a panic.

use khw::{FaultOp, FaultPlan, SECTOR_SIZE};
use ksim::Json;
use perfbench::{
    end_to_end_defs, per_layer_defs, percentile, run_rep, Config, Measured, MetricDef, Seeds, Size,
    Tracing, Workload,
};
use splice::KernelBuilder;

fn config(workload: Workload, tracing: Tracing) -> Config {
    Config {
        workload,
        seeds: Seeds::from_seed(7),
        size: Size::SMALL,
        tracing,
        fault: None,
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(doc: &Json, key: &str, field: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
        .iter()
        .map(|m| m.get(field).and_then(Json::as_str).unwrap().to_string())
        .collect()
}

fn names_units(defs: &[MetricDef]) -> (Vec<String>, Vec<String>) {
    (
        defs.iter().map(|d| d.name.clone()).collect(),
        defs.iter().map(|d| d.unit.to_string()).collect(),
    )
}

#[test]
fn benchmark_json_matches_the_program() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed(&doc, "workloads", "name"), workloads);
    for (key, defs) in [
        ("end_to_end", end_to_end_defs()),
        ("per_layer", per_layer_defs()),
    ] {
        let (names, units) = names_units(&defs);
        assert_eq!(listed(&doc, key, "name"), names, "{key} names");
        assert_eq!(listed(&doc, key, "unit"), units, "{key} units");
    }
}

#[test]
fn every_metric_is_reported_for_every_workload() {
    for w in Workload::ALL {
        let m = Measured {
            plain: vec![run_rep(&config(w, Tracing::Off))],
            traced: vec![run_rep(&config(w, Tracing::Layers))],
            ring: vec![run_rep(&config(w, Tracing::Ring))],
        };
        for (defs, got) in [
            (end_to_end_defs(), m.end_to_end(1.0)),
            (per_layer_defs(), m.per_layer()),
        ] {
            assert_eq!(got.len(), defs.len());
            for ((d, v), want) in got.iter().zip(&defs) {
                assert_eq!((&d.name, d.unit), (&want.name, want.unit));
                // The cost of tracing is a difference of two host times:
                // on a small run, noise can put it below 0.
                let signed = d.name == "ksim.trace_overhead_pct";
                assert!(
                    v.is_finite() && (signed || *v >= 0.0),
                    "{}: {} = {v}",
                    w.name(),
                    d.name
                );
            }
        }
        let e2e = m.end_to_end(1.0);
        for (d, v) in &e2e {
            assert!(*v > 0.0, "{}: end-to-end {} is 0", w.name(), d.name);
        }
        let closure = m
            .per_layer()
            .into_iter()
            .find(|(d, _)| d.name == "splice.kanalyze.closure_err_pct")
            .unwrap()
            .1;
        assert!(closure <= 1.0, "{}: closure error {closure}%", w.name());
        assert!(m.plain[0].correct && m.plain[0].failed == 0);
    }
}

#[test]
fn simulated_metrics_repeat_for_a_fixed_seed() {
    for w in Workload::ALL {
        let a = run_rep(&config(w, Tracing::Off));
        let b = run_rep(&config(w, Tracing::Off));
        assert_eq!(a.values, b.values, "{}", w.name());
        assert_eq!(a.digest(), b.digest(), "{}", w.name());
        for tracing in [Tracing::Ring, Tracing::Layers] {
            assert_eq!(
                a.digest(),
                run_rep(&config(w, tracing)).digest(),
                "{}: {tracing:?} tracing moved the model",
                w.name()
            );
        }
        assert_eq!(a.events, b.events, "{}", w.name());
    }
    let other = Config {
        seeds: Seeds::from_seed(8),
        ..config(Workload::ServeLight, Tracing::Off)
    };
    assert_ne!(
        run_rep(&other).digest(),
        run_rep(&config(Workload::ServeLight, Tracing::Off)).digest(),
        "the seed must reach the arrival draw"
    );
}

#[test]
fn a_bad_block_counts_as_failures_not_a_panic() {
    let cfg = config(Workload::CopyRam, Tracing::Off);
    // Locate the source file's fifth block on a machine set up the same way.
    let mut k = KernelBuilder::paper_machine_ram().build();
    k.setup_file("/d0/src", cfg.size.copy_bytes, cfg.seeds.pattern);
    let fs = &k.disks()[0].fs;
    let ino = fs.lookup("/src").expect("source file");
    let sector = fs.bmap(ino, 4).expect("mapped block") * (8192 / SECTOR_SIZE as u64);

    let rep = run_rep(&Config {
        fault: Some(FaultPlan::new(1).bad_block(FaultOp::Read, sector)),
        ..cfg
    });
    // Both copy programs exit 0 after the EIO today, so it is the
    // byte-for-byte verification that turns the bad block into failures.
    assert!(rep.failed > 0, "a bad source block must fail copies");
    assert!(rep.get("check.fail_ratio") > 0.0);
    assert!(!rep.correct, "a failed copy makes the run incorrect");
    // A failed copy reports no throughput rather than a shortened time.
    assert_eq!(rep.get("splice_kb_per_s"), 0.0);
    assert_eq!(rep.get("cp_kb_per_s"), 0.0);
}

#[test]
fn p999_of_10k_samples_leaves_ten_beyond() {
    let v: Vec<u64> = (1..=10_000).collect();
    let p = percentile(&v, 0.999);
    assert_eq!(v.iter().filter(|&&x| x > p).count(), 10);
    assert_eq!(percentile(&v, 0.5), 5_000);
    assert_eq!(percentile(&[], 0.5), 0);
}
