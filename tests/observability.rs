//! Cross-crate integration: the observability layer.
//!
//! A full splice run must leave a well-formed [`splice::MetricsSnapshot`]
//! behind — span lifecycle timestamps in order, flow-control gauges
//! within the configured watermarks — and the hand-rolled JSON emitter must
//! round-trip the snapshot through its own parser. The typed trace ring
//! must tell the same story event by event: every block walks the
//! read-issue → biodone → write → done pipeline in order, completions
//! fire exactly once, cold caches miss before they hit, and rejections
//! surface as typed events.

use std::collections::HashMap;

use kdev::Framebuffer;
use kproc::programs::{Cp, EndSpec, EndpointPair, Scp};
use kproc::{Errno, ProcState, SpliceLen, SyscallRet};
use ksim::Json;
use splice::{Kernel, KernelBuilder, KernelConfig, TraceEvent};

const MB: u64 = 1024 * 1024;

fn spliced_kernel() -> Kernel {
    spliced_kernel_inner(KernelBuilder::paper_machine_ram())
}

/// [`spliced_kernel`] with the typed trace ring installed.
fn traced_kernel() -> Kernel {
    spliced_kernel_inner(KernelBuilder::paper_machine_ram().trace(1 << 20))
}

fn spliced_kernel_inner(b: KernelBuilder) -> Kernel {
    let mut k = b.build();
    k.setup_file("/d0/src", 2 * MB, 5);
    k.cold_cache();
    let pid = k.spawn(Box::new(Scp::new("/d0/src", "/d1/dst")));
    let horizon = k.horizon(300);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
    k
}

#[test]
fn splice_span_lifecycle_is_monotonic() {
    let k = spliced_kernel();
    let m = k.metrics();
    assert_eq!(m.splice.started, 1);
    assert_eq!(m.splice.completed, 1);
    assert_eq!(m.splice.spans.len(), 1);

    let span = &m.splice[1];
    let created = span.created.expect("created");
    let first_read = span.first_read.expect("first_read");
    let first_write = span.first_write.expect("first_write");
    let drained = span.drained.expect("drained");
    let completed = span.completed.expect("completed");
    assert!(created <= first_read, "created after first read");
    assert!(first_read <= first_write, "read side must lead the writes");
    assert!(first_write <= drained, "drained before any write");
    assert!(drained <= completed, "completion delivered before drain");

    assert_eq!(span.bytes_moved, 2 * MB);
    assert_eq!(span.blocks_done, span.writes_issued);
    assert_eq!(
        (span.pending_reads.count(), span.pending_writes.count()),
        (0, 0),
        "a completed splice holds no work"
    );
}

#[test]
fn flow_gauges_respect_the_configured_watermarks() {
    let flow = KernelConfig::default().flow;
    let k = spliced_kernel();
    let span = &k.kstat().spans[1];

    // The read side never exceeds one refill batch in flight; the write
    // side is bounded by the drain watermark plus one batch arriving.
    assert!(
        span.pending_reads.peak() <= flow.batch,
        "reads over watermark"
    );
    assert!(
        span.pending_writes.peak() <= flow.lo_writes + flow.batch,
        "writes over watermark"
    );
}

#[test]
fn cp_runs_leave_no_spans_but_count_copies() {
    let mut k = KernelBuilder::paper_machine_ram().build();
    k.setup_file("/d0/src", MB, 9);
    k.cold_cache();
    let pid = k.spawn(Box::new(Cp::new("/d0/src", "/d1/dst")));
    let horizon = k.horizon(300);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
    let m = k.metrics();
    assert!(m.splice.spans.is_empty(), "cp must not open splice spans");
    assert_eq!(m.copy.copyin_bytes, MB);
    assert_eq!(m.copy.copyout_bytes, MB);
}

#[test]
fn snapshot_json_round_trips() {
    let k = spliced_kernel();
    let doc = k.metrics().to_json();

    let compact = Json::parse(&doc.render()).expect("compact form parses");
    assert_eq!(compact, doc);
    let pretty = Json::parse(&doc.render_pretty()).expect("pretty form parses");
    assert_eq!(pretty, doc);

    // Spot-check the schema the BENCH_*.json artifacts rely on.
    let splice_obj = doc.get("splice").expect("splice section");
    let spans = splice_obj
        .get("spans")
        .and_then(Json::as_arr)
        .expect("spans array");
    assert_eq!(spans.len(), 1);
    assert_eq!(
        spans[0].get("bytes_moved").and_then(Json::as_u64),
        Some(2 * MB)
    );
    assert_eq!(
        doc.get("copy")
            .and_then(|c| c.get("copyout_bytes"))
            .and_then(Json::as_u64),
        Some(0)
    );
}

// ---------------------------------------------------------------------------
// Trace loss and request records
// ---------------------------------------------------------------------------

#[test]
fn trace_wrap_is_counted_in_the_obs_section() {
    // A ring far smaller than the event stream must wrap — and the loss
    // must be *visible*: `trace.dropped` in the snapshot, with
    // `emitted = dropped + retained` exactly.
    let k = spliced_kernel_inner(KernelBuilder::paper_machine_ram().trace(64));
    let m = k.metrics();
    assert!(
        m.obs.trace_dropped > 0,
        "64-record ring cannot hold a 2 MB splice"
    );
    assert_eq!(
        m.obs.trace_emitted,
        m.obs.trace_dropped + k.trace().len() as u64
    );

    let doc = m.to_json();
    let obs = doc.get("obs").expect("obs section");
    assert_eq!(
        obs.get("trace.dropped").and_then(Json::as_u64),
        Some(m.obs.trace_dropped)
    );
    assert_eq!(
        obs.get("trace.emitted").and_then(Json::as_u64),
        Some(m.obs.trace_emitted)
    );
}

#[test]
fn served_requests_populate_records_and_exemplars() {
    use kproc::programs::ServeMode;
    use ksim::Dur;
    use splice::ServeScenario;

    let conns = 96usize;
    let sc = ServeScenario {
        window: Dur::from_ms(20),
        ..ServeScenario::new(conns, ServeMode::Splice, 13)
    };
    let (k, _) = sc.serve(KernelBuilder::paper_machine_ram().trace(1 << 16), "served");

    // Every served request left a record without any builder opt-in.
    let m = k.metrics();
    let reqs = &k.kstat().requests;
    assert_eq!(m.obs.spans_committed, conns as u64);
    assert_eq!(reqs.latency().count(), conns as u64);
    assert_eq!(reqs.live().count(), 0, "every record closed with its conn");
    assert_eq!(m.obs.errors, 0);

    // The p999 bucket carries an exemplar linking back into the trace:
    // its trace_seq is a real emitted sequence number, and its conn is
    // one of the served request sockets.
    let (conn, seq) = m.obs.p999_exemplar.expect("requests leave an exemplar");
    assert!(seq < m.obs.trace_emitted, "exemplar seq beyond the stream");
    let ex = reqs.latency().exemplar_at(0.999).unwrap();
    assert_eq!((ex.conn, ex.trace_seq), (conn, seq));
}

// ---------------------------------------------------------------------------
// Typed trace ring
// ---------------------------------------------------------------------------

#[test]
fn every_block_walks_the_pipeline_in_trace_order() {
    let k = traced_kernel();
    let q = k.trace().query();

    // The global firsts are ordered: a splice starts, issues its first
    // read, sees the biodone, schedules the callout write, finishes it,
    // and only then completes.
    q.assert_ordered(&[
        "splice.start",
        "splice.read_issue",
        "splice.read_done",
        "splice.write_issue",
        "splice.write_done",
        "splice.complete",
    ]);

    // Per block: 2 MB over 8 KB blocks is 256 spans, and each one holds
    // read_issue < read_done (biodone) < write_issue (callout) <
    // write_done in event order.
    let spans = q.all_block_spans();
    assert_eq!(spans.len(), 256, "one span per logical block");
    for s in &spans {
        assert!(s.complete(), "lblk {} is missing a phase", s.lblk);
        assert!(s.ordered(), "lblk {} ran out of order", s.lblk);
    }
    // Spot-check the single-span lookup agrees with the bulk stitcher.
    let desc = spans[0].desc;
    let one = q.span_of(desc, 17).expect("lblk 17 has a span");
    assert!(one.complete() && one.ordered());
}

#[test]
fn splice_complete_fires_exactly_once_per_descriptor() {
    let k = traced_kernel();
    let q = k.trace().query();

    let mut started: HashMap<u64, usize> = HashMap::new();
    let mut completed: HashMap<u64, usize> = HashMap::new();
    for r in k.trace().records() {
        match r.ev {
            TraceEvent::SpliceStart { desc, .. } => *started.entry(desc).or_default() += 1,
            TraceEvent::SpliceComplete { desc } => *completed.entry(desc).or_default() += 1,
            _ => {}
        }
    }
    assert!(!started.is_empty(), "no splice started");
    for (desc, n) in &started {
        assert_eq!(*n, 1, "descriptor {desc} started more than once");
        assert_eq!(
            completed.get(desc),
            Some(&1),
            "descriptor {desc} must complete exactly once"
        );
    }
    assert_eq!(started.len(), completed.len(), "stray completions");
    // Redundant with the maps, but pins the single-splice scenario.
    assert_eq!(q.named("splice.complete").len(), 1);
}

#[test]
fn cold_file_never_hits_before_its_first_miss() {
    // First pass cold (all misses on the source), second pass warm
    // (hits). The invariant: per (dev, blkno), the first cache event is
    // a miss — a hit before any miss would mean the "cold" cache wasn't.
    let mut k = traced_kernel();
    let pid = k.spawn(Box::new(Scp::new("/d0/src", "/d1/dst2")));
    let horizon = k.horizon(300);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));

    let mut first_miss: HashMap<(u32, u64), u64> = HashMap::new();
    let mut first_hit: HashMap<(u32, u64), u64> = HashMap::new();
    for r in k.trace().records() {
        match r.ev {
            TraceEvent::CacheMiss { dev, blkno } => {
                first_miss.entry((dev, blkno)).or_insert(r.seq);
            }
            TraceEvent::CacheHit { dev, blkno } => {
                first_hit.entry((dev, blkno)).or_insert(r.seq);
            }
            _ => {}
        }
    }
    assert!(!first_miss.is_empty(), "cold run produced no misses");
    assert!(!first_hit.is_empty(), "warm rerun produced no hits");
    for (key, hit_seq) in &first_hit {
        let miss_seq = first_miss
            .get(key)
            .unwrap_or_else(|| panic!("block {key:?} hit without ever missing"));
        assert!(
            miss_seq < hit_seq,
            "block {key:?}: hit #{hit_seq} precedes first miss #{miss_seq}"
        );
    }
}

#[test]
fn disabled_trace_records_nothing() {
    // Without the builder opt-in every tracepoint is one branch: the
    // ring stays empty — no records, no formatting, no allocation.
    let k = spliced_kernel();
    assert!(!k.trace().enabled());
    assert!(k.trace().is_empty(), "disabled trace must record nothing");
    assert_eq!(k.trace().query().all_block_spans().len(), 0);
}

#[test]
fn rejected_splice_emits_a_typed_reject_event() {
    // A framebuffer cannot be a splice sink; the rejection must flow
    // through the funnel and surface as a typed event with the errno.
    let mut k = KernelBuilder::paper_machine_ram()
        .framebuffer("/dev/fb", Framebuffer::new(1 << 20, 30))
        .trace(1 << 16)
        .build();
    k.setup_file("/d0/src", MB, 7);
    k.cold_cache();
    let (pair, result) = EndpointPair::new(
        EndSpec::read("/d0/src"),
        EndSpec::write("/dev/fb"),
        SpliceLen::Bytes(MB),
    );
    let pid = k.spawn(Box::new(pair));
    let horizon = k.horizon(120);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
    assert_eq!(
        result.borrow().clone(),
        Some(SyscallRet::Err(Errno::Enotsup))
    );

    let q = k.trace().query();
    let rejects = q.events_of(|e| matches!(e, TraceEvent::SpliceReject { .. }));
    assert_eq!(rejects.len(), 1, "exactly one typed rejection");
    match rejects[0].ev {
        TraceEvent::SpliceReject { errno } => assert_eq!(errno, "ENOTSUP"),
        _ => unreachable!(),
    }
    // The engine never started, so no splice lifecycle events exist.
    assert!(q.named("splice.start").is_empty());
    assert_eq!(k.metrics().splice.rejected, 1);
}
