//! Connection-layer scenario battery: the splice server programs from
//! `kproc::programs::server` driven end to end through the kernel —
//! backlog overflow accounting, connection lifecycle reclaim, byte-exact
//! service at depth 1 vs a depth-64 ring, tail-latency monotonicity in
//! connection count, and seeded replay determinism (`SERVER_SEED` is
//! randomized by `scripts/ci.sh`).

use std::rc::Rc;

use knet::LinkModel;
use kproc::programs::{open_loop_delays, scenario_stats, ServeMode, ServerClient, SpliceServer};
use kproc::{ProcState, SockAddr};
use ksim::{Dur, ObsConfig, ReqSpan, SloConfig, RECENT_SPANS};
use splice::{Kernel, KernelBuilder};

const FILE_BYTES: u64 = 8 * 1024;
const PORT: u16 = 80;
const SEED: u64 = 0x5e12;

fn addr() -> SockAddr {
    SockAddr {
        host: 1,
        port: PORT,
    }
}

/// Builds a kernel with the bench link model and the seeded file.
fn server_kernel(seed: u64, trace: usize) -> Kernel {
    server_kernel_obs(seed, trace, None)
}

/// [`server_kernel`] with an observability override (e.g. an unmeetable
/// SLO to provoke the flight recorder).
fn server_kernel_obs(seed: u64, trace: usize, obs: Option<ObsConfig>) -> Kernel {
    let b = KernelBuilder::paper_machine_ram();
    let b = if trace > 0 { b.trace(trace) } else { b };
    let b = if let Some(cfg) = obs {
        b.observe(cfg)
    } else {
        b
    };
    let mut k = b.build();
    k.net_mut().set_link_model(
        1,
        LinkModel {
            bps: 125_000_000,
            base_latency: Dur::from_us(200),
            jitter: Dur::from_us(100),
            loss_ppm: 0,
            seed,
        },
    );
    k.setup_file("/d0/file", FILE_BYTES, seed);
    k.cold_cache();
    k
}

/// Arrivals beyond the listen backlog while the server naps are dropped
/// and *counted* — and the drops allocate nothing: no server-side
/// connection socket, no receive-buffer bytes. The accepted fleet is
/// served in full.
#[test]
fn backlog_overflow_drops_are_counted_without_leaked_sockets() {
    let backlog = 8usize;
    let clients = 16usize;
    let mut k = server_kernel(SEED, 0);
    let stats = scenario_stats();
    let server = k.spawn(Box::new(
        SpliceServer::new(
            PORT,
            "/d0/file",
            FILE_BYTES,
            backlog,
            backlog as u32,
            ServeMode::Splice,
            Rc::clone(&stats),
        )
        // Listen, then nap: every arrival lands on the backlog.
        .warmup(Dur::from_ms(50)),
    ));
    for delay in open_loop_delays(clients, Dur::from_ms(10), SEED) {
        k.spawn(Box::new(ServerClient::new(
            addr(),
            FILE_BYTES,
            SEED,
            // Past the server's own socket/bind/listen syscalls.
            delay + Dur::from_ms(1),
            Rc::clone(&stats),
        )));
    }
    // The dropped clients hang in recv forever, so run by exit count,
    // not `run_to_exit`: the server plus every accepted client.
    let horizon = k.horizon(600);
    k.run_until(horizon, |k| {
        k.procs().iter().filter(|p| p.exited()).count() == 1 + backlog
    });

    assert!(matches!(k.procs().must(server).state, ProcState::Exited(0)));
    let s = stats.borrow();
    assert_eq!(s.served, backlog as u64, "server must serve the backlog");
    assert_eq!(s.completed, backlog as u64);
    assert_eq!(s.mismatches, 0);
    assert_eq!(s.bytes_received, backlog as u64 * FILE_BYTES);

    let m = k.metrics().net;
    assert_eq!(
        m.dropped_backlog,
        (clients - backlog) as u64,
        "every overflow arrival is accounted as a backlog drop"
    );
    assert_eq!(m.conns_opened, backlog as u64, "drops never carve a conn");
    // The only open sockets left belong to the hung clients themselves;
    // the listener, every accepted conn, and every served client socket
    // are gone, and no receive buffer holds bytes.
    assert_eq!(k.net().open_socks(), clients - backlog);
    assert_eq!(k.net().total_rcv_used(), 0);
}

/// Serving a fleet and closing every connection returns the kernel to
/// its baseline: no sockets, no receive-buffer bytes, a rebindable
/// listening port, and of the fleet's splices only the recent ring kept
/// in full — the rest live on as an exact, check-clean aggregate.
#[test]
fn connection_lifecycle_frees_port_and_buffers() {
    const FLEET: usize = 300;
    let mut k = server_kernel(SEED, 0);
    let stats = scenario_stats();
    let server = k.spawn(Box::new(SpliceServer::new(
        PORT,
        "/d0/file",
        FILE_BYTES,
        FLEET,
        FLEET as u32,
        ServeMode::Splice,
        Rc::clone(&stats),
    )));
    for delay in open_loop_delays(FLEET, Dur::from_ms(30), SEED) {
        k.spawn(Box::new(ServerClient::new(
            addr(),
            FILE_BYTES,
            SEED,
            // Past the server's own socket/bind/listen syscalls.
            delay + Dur::from_ms(1),
            Rc::clone(&stats),
        )));
    }
    let horizon = k.horizon(600);
    k.run_to_exit(horizon);

    assert!(matches!(k.procs().must(server).state, ProcState::Exited(0)));
    assert_eq!(stats.borrow().completed, FLEET as u64);
    assert_eq!(stats.borrow().mismatches, 0);
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
    assert_eq!(retired.bytes_moved, FLEET as u64 * FILE_BYTES);
    assert_eq!(retired.violations, 0, "{:?}", retired.details);

    // The port is free again: a fresh socket can bind it.
    let again = k.net_mut().socket(1);
    assert!(
        k.net_mut().bind(again, PORT).is_ok(),
        "port {PORT} still held after the listener closed"
    );
}

/// Runs `conns` clients against one server in `mode`; returns
/// (completed, bytes_received, splices started).
fn serve_fleet(conns: usize, mode: ServeMode, seed: u64) -> (u64, u64, u64) {
    let mut k = server_kernel(seed, 0);
    let stats = scenario_stats();
    let server = k.spawn(Box::new(SpliceServer::new(
        PORT,
        "/d0/file",
        FILE_BYTES,
        conns,
        conns as u32,
        mode,
        Rc::clone(&stats),
    )));
    // Constant offered rate (10k/s), as in the bench.
    let window = Dur::from_ns(conns as u64 * 100_000);
    for delay in open_loop_delays(conns, window, seed) {
        k.spawn(Box::new(ServerClient::new(
            addr(),
            FILE_BYTES,
            seed,
            delay,
            Rc::clone(&stats),
        )));
    }
    let horizon = k.horizon(600);
    k.run_to_exit(horizon);
    assert!(
        matches!(k.procs().must(server).state, ProcState::Exited(0)),
        "{mode:?}: server failed"
    );
    let s = stats.borrow();
    assert_eq!(s.mismatches, 0, "{mode:?}: payload corruption");
    (s.completed, s.bytes_received, k.metrics().splice.started)
}

/// One-at-a-time `splice(2)` service and depth-64 ring service deliver
/// the identical bytes to the identical fleet — the batching machinery
/// changes scheduling, never data.
#[test]
fn depth1_splice_and_ring64_serve_byte_exact() {
    let conns = 128usize;
    let (sync_done, sync_bytes, sync_splices) = serve_fleet(conns, ServeMode::Splice, SEED);
    let (ring_done, ring_bytes, ring_splices) =
        serve_fleet(conns, ServeMode::Ring { depth: 64 }, SEED);
    assert_eq!(sync_done, conns as u64);
    assert_eq!(ring_done, conns as u64);
    assert_eq!(sync_bytes, conns as u64 * FILE_BYTES);
    assert_eq!(ring_bytes, sync_bytes, "ring served different bytes");
    // Both in-kernel paths run exactly one splice per connection.
    assert_eq!(sync_splices, conns as u64);
    assert_eq!(ring_splices, conns as u64);
}

/// Runs a ring-served open-loop fleet and reports the p99 of the
/// request→last-byte latency histogram.
fn p99_at(conns: usize) -> u64 {
    let mut k = server_kernel(SEED, 0);
    let stats = scenario_stats();
    k.spawn(Box::new(SpliceServer::new(
        PORT,
        "/d0/file",
        FILE_BYTES,
        conns,
        conns as u32,
        ServeMode::Ring { depth: 64 },
        Rc::clone(&stats),
    )));
    let window = Dur::from_ns(conns as u64 * 100_000);
    for delay in open_loop_delays(conns, window, SEED) {
        k.spawn(Box::new(ServerClient::new(
            addr(),
            FILE_BYTES,
            SEED,
            delay,
            Rc::clone(&stats),
        )));
    }
    let horizon = k.horizon(600);
    k.run_to_exit(horizon);
    let s = stats.borrow();
    assert_eq!(s.completed, conns as u64);
    s.latency.p99().unwrap()
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
    let seed: u64 = std::env::var("SERVER_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(SEED);
    let conns = 400usize;
    let run = || {
        let mut k = server_kernel(seed, 1 << 16);
        let stats = scenario_stats();
        let server = k.spawn(Box::new(SpliceServer::new(
            PORT,
            "/d0/file",
            FILE_BYTES,
            conns,
            conns as u32,
            ServeMode::Ring { depth: 64 },
            Rc::clone(&stats),
        )));
        let window = Dur::from_ns(conns as u64 * 100_000);
        for delay in open_loop_delays(conns, window, seed) {
            k.spawn(Box::new(ServerClient::new(
                addr(),
                FILE_BYTES,
                seed,
                delay,
                Rc::clone(&stats),
            )));
        }
        let horizon = k.horizon(600);
        let end = k.run_to_exit(horizon);
        assert!(
            matches!(k.procs().must(server).state, ProcState::Exited(0)),
            "SERVER_SEED={seed}: server failed"
        );
        let s = stats.borrow();
        assert_eq!(s.completed, conns as u64, "SERVER_SEED={seed}: short");
        assert_eq!(s.mismatches, 0, "SERVER_SEED={seed}: corruption");
        let m = k.metrics();
        (
            end.as_ns(),
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

/// The flight recorder and the committed-span set replay byte-identically
/// for a given seed: an unmeetable SLO target turns every request into a
/// violation, the burn-rate monitor alerts at the same close on both
/// runs, the frozen trace window renders to the same JSON bytes, and
/// the committed spans match span for span.
#[test]
fn flight_dump_and_committed_spans_replay_identically() {
    let seed: u64 = std::env::var("SERVER_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(SEED);
    let conns = 256usize;
    let cfg = ObsConfig {
        slo: SloConfig {
            latency_target: Dur::from_us(1),
            ..SloConfig::default()
        },
        ..ObsConfig::on()
    };
    let run = || {
        let mut k = server_kernel_obs(seed, 1 << 16, Some(cfg));
        let stats = scenario_stats();
        let server = k.spawn(Box::new(SpliceServer::new(
            PORT,
            "/d0/file",
            FILE_BYTES,
            conns,
            conns as u32,
            ServeMode::Splice,
            Rc::clone(&stats),
        )));
        let window = Dur::from_ns(conns as u64 * 100_000);
        for delay in open_loop_delays(conns, window, seed) {
            k.spawn(Box::new(ServerClient::new(
                addr(),
                FILE_BYTES,
                seed,
                delay,
                Rc::clone(&stats),
            )));
        }
        let horizon = k.horizon(600);
        k.run_to_exit(horizon);
        assert!(
            matches!(k.procs().must(server).state, ProcState::Exited(0)),
            "SERVER_SEED={seed}: server failed"
        );
        let c = k.obs().counters();
        assert_eq!(
            c.violations, c.requests,
            "SERVER_SEED={seed}: a 1 µs target must make every request violate"
        );
        assert_eq!(
            c.committed, c.requests,
            "SERVER_SEED={seed}: every violation must commit a span"
        );
        assert!(c.alerts >= 1, "SERVER_SEED={seed}: no alert fired");
        let flight = k
            .flight_json("server")
            .expect("alert froze no flight dump")
            .render_pretty();
        let spans: Vec<ReqSpan> = k.obs().committed_spans().copied().collect();
        (flight, spans)
    };
    let (flight_a, spans_a) = run();
    let (flight_b, spans_b) = run();
    assert_eq!(
        flight_a, flight_b,
        "SERVER_SEED={seed}: flight dump bytes diverged"
    );
    assert_eq!(
        spans_a, spans_b,
        "SERVER_SEED={seed}: committed spans diverged"
    );
}
