//! Connection-layer scenario battery: the splice server programs from
//! `kproc::programs::server`, wired by [`splice::ServeScenario`] and
//! driven end to end through the kernel — no process per client,
//! backlog overflow accounting, connection lifecycle reclaim,
//! byte-exact service by `splice(2)` vs the user-space cp-relay, tail-latency monotonicity in connection count, and seeded
//! replay determinism of the scenario and its request records
//! (`SERVER_SEED` is randomized by `scripts/ci.sh`).

use kproc::programs::{ServeMode, SpliceServer};
use kproc::ProcState;
use ksim::{Dur, ReqSpan, RECENT_SPANS};
use splice::{KernelBuilder, MetricsSnapshot, OutcomeStatus, ServeScenario, SpliceOutcome};

const SEED: u64 = 0x5e12;

/// The `SERVER_SEED` replay seed (`scripts/ci.sh` randomizes it).
fn server_seed() -> u64 {
    std::env::var("SERVER_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(SEED)
}

/// Arrivals beyond the listen backlog while the server naps are dropped
/// and *counted* — and the drops allocate nothing: no server-side
/// connection socket, no receive-buffer bytes. A refused request ends
/// its fetch, so the run finishes like any other, and the accepted
/// connections are served in full.
#[test]
fn backlog_overflow_drops_are_counted_without_leaked_sockets() {
    let backlog = 8usize;
    let clients = 16usize;
    let sc = ServeScenario {
        window: Dur::from_ms(10),
        ..ServeScenario::new(clients, ServeMode::Splice, SEED)
    };
    let mut k = sc.boot(KernelBuilder::paper_machine_ram());
    let run = sc.spawn_with(&mut k, |stats| {
        SpliceServer::new(
            ServeScenario::PORT,
            ServeScenario::PATH,
            sc.file_bytes,
            backlog,
            backlog as u32,
            ServeMode::Splice,
            stats,
        )
        // Listen, then nap: every arrival lands on the backlog.
        .warmup(Dur::from_ms(50))
    });
    let horizon = k.horizon(600);
    k.run_until(horizon, |k| run.finished(k));
    assert!(run.finished(&k), "the run hung");

    assert!(matches!(
        k.procs().must(run.server).state,
        ProcState::Exited(0)
    ));
    let s = run.stats.borrow();
    assert_eq!(s.served, backlog as u64, "server must serve the backlog");
    assert_eq!(s.completed, backlog as u64);
    assert_eq!(s.mismatches, 0);
    assert_eq!(s.bytes_received, backlog as u64 * sc.file_bytes);

    let m = k.metrics().net;
    assert_eq!(
        m.dropped_backlog,
        (clients - backlog) as u64,
        "every overflow arrival is accounted as a backlog drop"
    );
    assert_eq!(m.conns_opened, backlog as u64, "drops never carve a conn");
    // The listener, every accepted conn, and every request socket —
    // served or refused — are gone, and no receive buffer holds bytes.
    assert_eq!(k.net().open_socks(), 0);
    assert_eq!(k.net().total_rcv_used(), 0);
}

/// The load comes from the traffic source at the link, not from
/// processes: from spawn to finish, the process table holds only the
/// server.
#[test]
fn a_served_run_holds_no_process_but_the_server() {
    let sc = ServeScenario::new(200, ServeMode::Splice, SEED);
    let mut k = sc.boot(KernelBuilder::paper_machine_ram());
    let run = sc.spawn(&mut k);
    let pids = |k: &splice::Kernel| k.procs().iter().map(|p| p.pid).collect::<Vec<_>>();
    assert_eq!(pids(&k), [run.server]);
    let horizon = k.horizon(600);
    k.run_until(horizon, |k| run.finished(k));
    sc.check(&k, &run, "one process");
    assert_eq!(pids(&k), [run.server]);
}

/// Serving a fleet and closing every connection returns the kernel to
/// its baseline: no sockets, no receive-buffer bytes, a rebindable
/// listening port, and of the fleet's splices and requests only the
/// recent rings kept in full — the rest live on as an exact, check-clean
/// aggregate and the request-latency histogram.
#[test]
fn connection_lifecycle_frees_port_and_buffers() {
    const FLEET: usize = 300;
    let sc = ServeScenario {
        window: Dur::from_ms(30),
        ..ServeScenario::new(FLEET, ServeMode::Splice, SEED)
    };
    let (mut k, _) = sc.serve(KernelBuilder::paper_machine_ram(), "lifecycle");
    assert_eq!(k.net().open_socks(), 0, "lifecycle leaked a socket");
    assert_eq!(k.net().total_rcv_used(), 0, "lifecycle leaked rcv bytes");

    let spans = &k.kstat().spans;
    assert_eq!(spans.live().count(), 0, "a finished splice stayed live");
    assert_eq!(
        spans.len(),
        RECENT_SPANS,
        "the kernel keeps only the recent ring of completed spans"
    );
    let retired = spans.retired();
    assert_eq!(retired.descriptors, FLEET as u64);
    assert_eq!(retired.descriptors, k.metrics().splice.started);
    assert_eq!(retired.bytes_moved, FLEET as u64 * sc.file_bytes);
    assert_eq!(retired.violations, 0, "{:?}", retired.details);

    let reqs = &k.kstat().requests;
    assert_eq!(reqs.live().count(), 0, "a closed request stayed open");
    assert_eq!(
        reqs.recent().count(),
        RECENT_SPANS,
        "the kernel keeps only the recent ring of request records"
    );
    let obs = k.metrics().obs;
    assert_eq!(obs.spans_committed, FLEET as u64, "one record per conn");
    assert_eq!(obs.request_latency.count, FLEET as u64);
    assert_eq!(obs.errors, 0);
    for r in reqs.recent() {
        assert_eq!((r.bytes, r.error), (sc.file_bytes, None), "{r:?}");
    }

    // The port is free again: a fresh socket can bind it.
    let again = k.net_mut().socket(ServeScenario::HOST);
    assert!(
        k.net_mut().bind(again, ServeScenario::PORT).is_ok(),
        "port {} still held after the listener closed",
        ServeScenario::PORT
    );
}

/// A served fleet runs one splice per connection, and the kernel keeps
/// the outcomes of only the last [`RECENT_SPANS`] of them: the newest
/// descriptor still reads its result, the first reads `Retired` (issued,
/// outcome no longer kept) and one never issued reads `Unknown`.
#[test]
fn splice_outcomes_stay_bounded_over_a_serve() {
    const FLEET: usize = 1000;
    let sc = ServeScenario::new(FLEET, ServeMode::Splice, SEED);
    let (k, _) = sc.serve(KernelBuilder::paper_machine_ram(), "outcomes");
    let last = k.metrics().splice.started;
    assert_eq!(last, FLEET as u64, "one splice per connection");
    let kept = (1..=last)
        .filter(|&d| k.splice_outcome(d).done().is_some())
        .count();
    assert!(kept <= RECENT_SPANS, "{kept} outcomes kept");
    assert_eq!(
        k.splice_outcome(last),
        OutcomeStatus::Done(SpliceOutcome {
            bytes_moved: sc.file_bytes,
            error: None,
        })
    );
    assert_eq!(k.splice_outcome(1), OutcomeStatus::Retired);
    assert_eq!(k.splice_outcome(last + 1), OutcomeStatus::Unknown);
}

/// Serves `conns` fetches from one server in `mode` at the default
/// 10k/s offered rate and returns the kernel's metrics. The serve
/// itself checks that every fetch pattern-verified the whole file.
fn serve_fleet(conns: usize, mode: ServeMode) -> MetricsSnapshot {
    let sc = ServeScenario::new(conns, mode, SEED);
    let (k, _) = sc.serve(KernelBuilder::paper_machine_ram(), format_args!("{mode:?}"));
    k.metrics()
}

/// `splice(2)` service and the user-space cp-relay deliver the
/// identical bytes to the identical fleet — the copy path changes
/// scheduling and cost, never data.
#[test]
fn splice_and_cp_relay_serve_byte_exact() {
    let conns = 128usize;
    let file_bytes = ServeScenario::FILE_BYTES;
    let sync = serve_fleet(conns, ServeMode::Splice);
    let relay = serve_fleet(conns, ServeMode::CpRelay);
    // The in-kernel path runs exactly one splice per connection.
    assert_eq!(sync.splice.started, conns as u64);
    // The relay runs none: it reads every byte out to user space and
    // sends it back in. Its send(2) copy is the only one on the socket
    // path: the traffic source receives without a copy.
    assert_eq!(relay.splice.started, 0);
    assert_eq!(sync.copy.copyout_bytes, 0);
    assert!(relay.copy.copyout_bytes >= conns as u64 * file_bytes);
    assert_eq!(sync.copy.net_bytes, 0);
    assert_eq!(relay.copy.net_bytes, conns as u64 * file_bytes);
}

/// Runs a `splice(2)`-served open-loop fleet and reports the p99 of
/// the arrival→last-byte latency histogram.
fn p99_at(conns: usize) -> u64 {
    let sc = ServeScenario::new(conns, ServeMode::Splice, SEED);
    let (_, run) = sc.serve(KernelBuilder::paper_machine_ram(), "p99");
    let p99 = run.stats.borrow().latency.p99().unwrap();
    p99
}

/// Under a constant offered rate, adding connections never *improves*
/// the tail: p99 at 1000 connections is at least p99 at 100.
#[test]
fn p99_is_monotone_in_connection_count() {
    let small = p99_at(100);
    let large = p99_at(1000);
    assert!(
        large >= small,
        "p99 fell from {small}ns at 100 conns to {large}ns at 1000 conns"
    );
}

/// The whole connection-scale scenario replays identically for a given
/// seed: sim end time, every net/sched counter, the latency histogram,
/// and the trace bytes. `scripts/ci.sh` randomizes `SERVER_SEED`; any
/// failure prints the seed to reproduce.
#[test]
fn server_scenario_replays_identically_under_seed() {
    let seed = server_seed();
    let sc = ServeScenario::new(400, ServeMode::Splice, seed);
    let run = || {
        let b = KernelBuilder::paper_machine_ram().trace(1 << 16);
        let (k, run) = sc.serve(b, format_args!("SERVER_SEED={seed}"));
        let s = run.stats.borrow();
        let m = k.metrics();
        (
            k.now().as_ns(),
            m.net.sent,
            m.net.delivered,
            m.net.conns_opened,
            m.net.snd_blocked,
            m.sched.ctx_switches,
            s.latency.sum(),
            (s.latency.min(), s.latency.max()),
            k.trace_dump(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "SERVER_SEED={seed}: replay diverged");
}

/// The kept request records and the request-latency digest replay
/// byte-identically for a given seed: the same last [`RECENT_SPANS`]
/// requests, record for record, and the same histogram digest and p999
/// exemplar.
#[test]
fn request_records_replay_identically() {
    let seed = server_seed();
    let sc = ServeScenario::new(256, ServeMode::Splice, seed);
    let run = || {
        let b = KernelBuilder::paper_machine_ram().trace(1 << 16);
        let (k, _) = sc.serve(b, format_args!("SERVER_SEED={seed}"));
        let reqs: Vec<ReqSpan> = k.kstat().requests.recent().copied().collect();
        assert_eq!(reqs.len(), RECENT_SPANS, "SERVER_SEED={seed}");
        let o = k.metrics().obs;
        (reqs, o.request_latency.to_json().render(), o.p999_exemplar)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "SERVER_SEED={seed}: request records diverged");
}
