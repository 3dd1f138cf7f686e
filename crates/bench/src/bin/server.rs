//! Connection-scale server bench: the splice server vs the user-space
//! cp-relay, swept over connection count.
//!
//! For each nominal connection count (1k, 10k, 100k, 1M) and each serve
//! mode — one `splice(2)` per connection, cp-relay — an open-loop traffic source with no CPU of its own (constant offered
//! rate, seeded arrivals) fetches one 8 KB file per arrival over a
//! modeled 1 Gb/s link, while the §6.2 fixed-work compute program
//! contends for the CPU. Reported per row: arrival→last-byte
//! p50/p99/p999 latency, drop and backpressure counters, and the compute
//! PID's CPU share — the paper's availability claim at connection scale.
//!
//! By default the sweep runs host-speed **smoke** counts (the larger
//! nominals are scaled down; the open-loop offered rate is what
//! matters, and it is preserved). `SERVER_FULL=1` runs every nominal at
//! face value; `SERVER_CONNS=<nominal>` runs just that row (the CI
//! determinism gate double-runs one row and byte-compares).
//!
//! Artifact: `BENCH_server.json`, schema-checked and tolerance-gated by
//! `benchdiff`.

use bench::{bench_doc, json_rows, print_table, test_program, write_table};
use kproc::programs::ServeMode;
use ksim::{Json, RECENT_SPANS};
use splice::{KernelBuilder, ServeScenario};

/// Pattern seed; the arrival and link seed is `SEED ^ nominal`.
const SEED: u64 = 0x5e12;

/// The sweep: nominal count and the host-speed smoke count it runs at
/// by default.
const SWEEP: [(u64, usize); 4] = [
    (1_000, 1_000),
    (10_000, 10_000),
    (100_000, 25_000),
    (1_000_000, 50_000),
];

/// One serve mode of the comparison.
#[derive(Clone, Copy)]
struct Mode {
    name: &'static str,
    mode: ServeMode,
}

const MODES: [Mode; 2] = [
    Mode {
        name: "splice",
        mode: ServeMode::Splice,
    },
    Mode {
        name: "cp-relay",
        mode: ServeMode::CpRelay,
    },
];

struct Row {
    nominal: u64,
    conns: usize,
    mode: &'static str,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    p99_ns: u64,
    completed: u64,
    dropped_backlog: u64,
    dropped_rcv_full: u64,
    lost_link: u64,
    snd_blocked: u64,
    compute_share: f64,
    elapsed_s: f64,
    /// Connections served while the compute program ran: the share
    /// measures serving only where this is not near 0.
    served_in_window: u64,
    /// Sockets still open after the drain (must be 0).
    open_socks: usize,
    /// Splice spans still kept in full after the drain (at most
    /// [`RECENT_SPANS`]).
    spans_kept: usize,
}

impl Row {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("nominal_conns", Json::Num(self.nominal as f64))
            .with("conns", Json::Num(self.conns as f64))
            .with("mode", Json::Str(self.mode.into()))
            .with("p50_ms", Json::Num(self.p50_ms))
            .with("p99_ms", Json::Num(self.p99_ms))
            .with("p999_ms", Json::Num(self.p999_ms))
            .with("completed", Json::Num(self.completed as f64))
            .with("dropped_backlog", Json::Num(self.dropped_backlog as f64))
            .with("dropped_rcv_full", Json::Num(self.dropped_rcv_full as f64))
            .with("lost_link", Json::Num(self.lost_link as f64))
            .with("snd_blocked", Json::Num(self.snd_blocked as f64))
            .with("compute_cpu_share", Json::Num(self.compute_share))
            .with("elapsed_s", Json::Num(self.elapsed_s))
            .with("served_in_window", Json::Num(self.served_in_window as f64))
    }
}

fn run(nominal: u64, conns: usize, mode: Mode) -> Row {
    let sc = ServeScenario {
        arrival_seed: SEED ^ nominal,
        ..ServeScenario::new(conns, mode.mode, SEED)
    };
    let mut k = sc.boot(KernelBuilder::paper_machine_ram());
    let t0 = k.now();
    let compute = k.spawn(Box::new(test_program()));
    let run = sc.spawn(&mut k);

    let horizon = k.horizon(4 * 3600);
    // Availability over the compute program's own lifetime (§6.2): every
    // cycle the serving path burns delays the compute exit.
    let t1 = k.run_until_exit_of(compute, horizon);
    let elapsed = t1.since(t0);
    let served_in_window = run.stats.borrow().served;
    // Then drain the run: every fetch must finish byte-exact.
    k.run_until(horizon, |k| run.finished(k));
    sc.check(&k, &run, format_args!("{} @ {nominal}", mode.name));
    // Kernel memory follows open connections: the drained run leaves
    // no socket behind, and of its splices only the recent ring is
    // kept in full.
    let open_socks = k.net().open_socks();
    let spans_kept = k.kstat().spans.len();
    assert_eq!(
        open_socks, 0,
        "{} @ {nominal}: sockets left open",
        mode.name
    );
    assert!(
        spans_kept <= RECENT_SPANS,
        "{} @ {nominal}: {spans_kept} splice spans kept",
        mode.name
    );

    let compute_cpu = k.procs().must(compute).acct.cpu_time();
    let compute_share = compute_cpu.as_ns() as f64 / elapsed.as_ns() as f64;
    let s = run.stats.borrow();
    let m = k.metrics();
    let p99_ns = s.latency.p99().unwrap();
    Row {
        nominal,
        conns,
        mode: mode.name,
        p50_ms: s.latency.p50().unwrap() as f64 / 1e6,
        p99_ms: p99_ns as f64 / 1e6,
        p999_ms: s.latency.p999().unwrap() as f64 / 1e6,
        p99_ns,
        completed: s.completed,
        dropped_backlog: m.net.dropped_backlog,
        dropped_rcv_full: m.net.dropped_rcv_full,
        lost_link: m.net.lost_link,
        snd_blocked: m.net.snd_blocked,
        compute_share,
        elapsed_s: elapsed.as_secs_f64(),
        served_in_window,
        open_socks,
        spans_kept,
    }
}

fn main() {
    let full = std::env::var("SERVER_FULL").is_ok_and(|v| v == "1");
    let only: Option<u64> = std::env::var("SERVER_CONNS")
        .ok()
        .map(|v| v.parse().expect("SERVER_CONNS must be a nominal count"));
    let sweep: Vec<(u64, usize)> = SWEEP
        .iter()
        .map(|&(nominal, smoke)| (nominal, if full { nominal as usize } else { smoke }))
        .filter(|&(nominal, _)| only.is_none_or(|o| o == nominal))
        .collect();
    assert!(!sweep.is_empty(), "SERVER_CONNS matches no sweep nominal");

    println!(
        "Server sweep: {} B file per connection, {} arrivals/s offered",
        ServeScenario::FILE_BYTES,
        ServeScenario::ARRIVALS_PER_SEC
    );
    println!();

    let mut rows: Vec<Row> = Vec::new();
    for &(nominal, conns) in &sweep {
        for mode in MODES {
            let t = std::time::Instant::now();
            let row = run(nominal, conns, mode);
            let host_s = t.elapsed().as_secs_f64();
            eprintln!(
                "[server] {} @ {nominal} ({conns} conns): {host_s:.1}s host, {:.1} µs/conn, \
                 {} sockets open, {} spans kept",
                mode.name,
                host_s * 1e6 / conns as f64,
                row.open_socks,
                row.spans_kept
            );
            rows.push(row);
        }
    }

    print_table(
        &[
            "conns", "mode", "p50 ms", "p99 ms", "p999 ms", "share", "window", "sndblk",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{} ({})", r.nominal, r.conns),
                    r.mode.into(),
                    format!("{:.3}", r.p50_ms),
                    format!("{:.3}", r.p99_ms),
                    format!("{:.3}", r.p999_ms),
                    format!("{:.3}", r.compute_share),
                    format!("{}", r.served_in_window),
                    format!("{}", r.snd_blocked),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // The paper's claim at connection scale: in-kernel serving leaves
    // strictly more CPU to the compute program than the user-space relay
    // at every count of 10k connections and up.
    for &(nominal, _) in sweep.iter().filter(|&&(n, _)| n >= 10_000) {
        let share = |m: &str| {
            rows.iter()
                .find(|r| r.nominal == nominal && r.mode == m)
                .map(|r| r.compute_share)
                .unwrap()
        };
        let (splice, relay) = (share("splice"), share("cp-relay"));
        assert!(
            splice > relay,
            "splice compute share {splice:.3} not above cp-relay {relay:.3} at {nominal}"
        );
    }
    // Tail latency must not improve as load is added.
    for mode in MODES {
        let p99s: Vec<(u64, u64)> = rows
            .iter()
            .filter(|r| r.mode == mode.name)
            .map(|r| (r.nominal, r.p99_ns))
            .collect();
        for pair in p99s.windows(2) {
            assert!(
                pair[1].1 >= pair[0].1,
                "{}: p99 fell from {}ns at {} conns to {}ns at {} conns",
                mode.name,
                pair[0].1,
                pair[0].0,
                pair[1].1,
                pair[1].0
            );
        }
    }

    let doc = bench_doc("server")
        .with("file_bytes", Json::Num(ServeScenario::FILE_BYTES as f64))
        .with(
            "arrivals_per_sec",
            Json::Num(ServeScenario::ARRIVALS_PER_SEC as f64),
        )
        .with("full", Json::Bool(full))
        .with("rows", json_rows(&rows, Row::to_json));
    write_table("server", &doc);
}
