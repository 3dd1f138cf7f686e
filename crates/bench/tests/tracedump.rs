//! Acceptance tests for the trace export path: each named workload must
//! produce a parseable Chrome trace with complete, ordered per-block
//! splice spans — the same artifacts `tracedump` writes to disk.

use std::collections::HashMap;

use bench::workloads;
use ksim::Json;

/// Runs one workload and checks the exported Chrome JSON end to end:
/// it re-parses, has events, and every (pid, tid) track is monotone.
fn check_workload(name: &str) -> splice::Kernel {
    let k = workloads::run(name);
    let trace = k.trace();
    assert!(trace.enabled(), "{name}: trace ring should be installed");
    assert!(!trace.is_empty(), "{name}: trace ring is empty");

    // The export must survive a render → parse round trip.
    let text = trace.to_chrome_json().render();
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: exported JSON invalid: {e}"));
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{name}: no traceEvents array"));
    assert!(!events.is_empty(), "{name}: traceEvents is empty");

    // Chrome/Perfetto tolerate out-of-order timestamps badly: within a
    // (pid, tid) track, ts must never go backwards.
    let mut last: HashMap<(u64, u64), f64> = HashMap::new();
    for ev in events {
        let pid = ev.get("pid").and_then(Json::as_u64).expect("event pid");
        let tid = ev.get("tid").and_then(Json::as_u64).expect("event tid");
        let ts = ev.get("ts").and_then(Json::as_f64).expect("event ts");
        let prev = last.entry((pid, tid)).or_insert(ts);
        assert!(
            ts >= *prev,
            "{name}: ts regressed on track ({pid},{tid}): {ts} < {prev}"
        );
        *prev = ts;
    }

    // Every stitched block span must have all four phases, in order:
    // read_issue < read_done < write_issue < write_done.
    let spans = trace.query().all_block_spans();
    assert!(!spans.is_empty(), "{name}: no block spans stitched");
    for s in &spans {
        assert!(
            s.complete(),
            "{name}: span (desc {}, lblk {}) is missing phases",
            s.desc,
            s.lblk
        );
        assert!(
            s.ordered(),
            "{name}: span (desc {}, lblk {}) has out-of-order phases",
            s.desc,
            s.lblk
        );
    }

    // Every splice that started also completed (the workloads run to
    // process exit, so nothing may be left dangling).
    let q = trace.query();
    let starts = q.named("splice.start").len();
    let completes = q.named("splice.complete").len();
    assert!(starts > 0, "{name}: no splice.start events");
    assert_eq!(
        starts, completes,
        "{name}: {starts} splices started but {completes} completed"
    );
    k
}

#[test]
fn scp_ram_trace_is_complete() {
    let k = check_workload("scp_ram");
    // 1 MB over 8 KB blocks: exactly 128 logical blocks, one span each,
    // all on the single descriptor of the single splice.
    let spans = k.trace().query().all_block_spans();
    assert_eq!(spans.len(), 128, "expected one span per logical block");
    let descs: Vec<u64> = spans.iter().map(|s| s.desc).collect();
    assert!(descs.windows(2).all(|w| w[0] == w[1]), "multiple descs");
    let mut lblks: Vec<u64> = spans.iter().map(|s| s.lblk).collect();
    lblks.sort_unstable();
    assert_eq!(lblks, (0..128).collect::<Vec<u64>>(), "missing lblks");
}

#[test]
fn spool_trace_is_complete() {
    check_workload("spool");
}

#[test]
fn movie_trace_is_complete() {
    check_workload("movie");
}

#[test]
fn server_trace_is_complete() {
    let k = check_workload("server");
    // 512 one-block fetches: one span per connection, each on its own
    // splice descriptor.
    let spans = k.trace().query().all_block_spans();
    assert_eq!(spans.len(), 512, "expected one span per connection");
    let mut descs: Vec<u64> = spans.iter().map(|s| s.desc).collect();
    descs.sort_unstable();
    descs.dedup();
    assert_eq!(descs.len(), 512, "expected one descriptor per connection");
}
