//! Observability overhead bench: the splice server workload with the
//! request-observability pipeline off, head-sampled (the resident
//! 1-in-64 default), and full (every span committed).
//!
//! One open-loop fleet per mode fetches an 8 KB file each over a
//! modeled 1 Gb/s link while the §6.2 compute program contends for the
//! CPU. The pipeline's costs are explicit simulated CPU (stage at
//! accept, commit at close), so the throughput delta between modes is
//! the *measured* price of observing the workload at scale — and the
//! budget is asserted right here: head-sampled tracing must cost at
//! most [`OVERHEAD_BUDGET_PCT`] of the tracing-off throughput.
//!
//! The sampled-mode kernel is then cross-examined by the
//! `kanalyze::request_sampling` audit (sampled-span p99 vs the full
//! end-to-end histogram; lossless tail retention), and a final short
//! run under an impossible SLO drives the burn-rate monitor into an
//! alert, freezing the flight recorder into `FLIGHT_server.json`.
//!
//! Artifacts: `BENCH_obs.json` and `FLIGHT_server.json`. This binary
//! asserts the claims above; `benchdiff` gates their values against
//! `baselines/`.

use bench::{bench_doc, json_rows, print_table, test_program, write_bench_json, write_table};
use kanalyze::{request_sampling, AuditReport, Tolerance};
use kproc::programs::ServeMode;
use ksim::{Dur, Json, ObsConfig, SloConfig, TraceEvent};
use splice::{Kernel, KernelBuilder, ServeScenario};

/// Pattern + arrival + link seed.
const SEED: u64 = 0x0b5e12;
/// Connections per mode.
const CONNS: usize = 8_000;
/// The in-binary gate: head-sampled tracing may cost at most this
/// fraction of the tracing-off simulated throughput.
const OVERHEAD_BUDGET_PCT: f64 = 5.0;
/// Trace-ring capacity: every mode runs with the same ring installed so
/// events-per-request is comparable across rows.
const TRACE_CAP: usize = 65_536;
/// Head-sampled spans below this floor make the p99 audit vacuous.
const AUDIT_MIN_SAMPLED: u64 = 8;

/// One observability mode of the comparison.
#[derive(Clone, Copy)]
struct Mode {
    name: &'static str,
    cfg: fn() -> ObsConfig,
}

const MODES: [Mode; 3] = [
    Mode {
        name: "off",
        cfg: ObsConfig::off,
    },
    Mode {
        name: "sampled",
        cfg: ObsConfig::on,
    },
    Mode {
        name: "full",
        cfg: || ObsConfig {
            sample_period: 1,
            ..ObsConfig::on()
        },
    },
];

struct Row {
    mode: &'static str,
    sample_period: u32,
    requests: u64,
    spans_committed: u64,
    spans_head_sampled: u64,
    spans_tail_retained: u64,
    trace_emitted: u64,
    events_per_request: f64,
    elapsed_s: f64,
    throughput_rps: f64,
    overhead_pct: f64,
    compute_share: f64,
}

impl Row {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("mode", Json::Str(self.mode.into()))
            .with("sample_period", Json::Num(self.sample_period as f64))
            .with("requests", Json::Num(self.requests as f64))
            .with("spans_committed", Json::Num(self.spans_committed as f64))
            .with(
                "spans_head_sampled",
                Json::Num(self.spans_head_sampled as f64),
            )
            .with(
                "spans_tail_retained",
                Json::Num(self.spans_tail_retained as f64),
            )
            .with("trace_emitted", Json::Num(self.trace_emitted as f64))
            .with("events_per_request", Json::Num(self.events_per_request))
            .with("elapsed_s", Json::Num(self.elapsed_s))
            .with("throughput_rps", Json::Num(self.throughput_rps))
            .with("overhead_pct", Json::Num(self.overhead_pct))
            .with("compute_cpu_share", Json::Num(self.compute_share))
    }
}

/// Runs the server workload once under `cfg`; the kernel comes back so
/// the caller can audit the sampled mode's span population.
fn run(conns: usize, cfg: ObsConfig) -> (Row, Kernel) {
    let sc = ServeScenario::new(conns, ServeMode::Splice, SEED);
    let mut k = sc.boot(
        KernelBuilder::paper_machine_ram()
            .trace(TRACE_CAP)
            .observe(cfg),
    );
    let t0 = k.now();
    let compute = k.spawn(Box::new(test_program()));
    let run = sc.spawn(&mut k);

    let horizon = k.horizon(4 * 3600);
    let t_compute = k.run_until_exit_of(compute, horizon);
    // Throughput over the full drain: every request must finish, so the
    // pipeline's per-request cost shows up directly in the drain time.
    let t_done = k.run_to_exit(horizon);
    let elapsed = t_done.since(t0);
    sc.check(&k, &run, format_args!("{cfg:?}"));

    let compute_cpu = k.procs().must(compute).acct.cpu_time();
    let compute_share = compute_cpu.as_ns() as f64 / t_compute.since(t0).as_ns() as f64;
    let m = k.metrics();
    let requests = m.obs.requests.max(conns as u64);
    let row = Row {
        mode: "",
        sample_period: cfg.sample_period,
        requests: m.obs.requests,
        spans_committed: m.obs.spans_committed,
        spans_head_sampled: m.obs.spans_head_sampled,
        spans_tail_retained: m.obs.spans_tail_retained,
        trace_emitted: m.obs.trace_emitted,
        events_per_request: m.obs.trace_emitted as f64 / requests as f64,
        elapsed_s: elapsed.as_secs_f64(),
        throughput_rps: conns as f64 / elapsed.as_secs_f64(),
        overhead_pct: 0.0,
        compute_share,
    };
    (row, k)
}

/// A short run under an unmeetable SLO: every request violates, the
/// burn-rate monitor alerts, and the flight recorder freezes — the
/// deterministic `FLIGHT_server.json` artifact.
fn flight_run(conns: usize) -> Json {
    let cfg = ObsConfig {
        slo: SloConfig {
            latency_target: Dur::from_us(1),
            ..SloConfig::default()
        },
        ..ObsConfig::on()
    };
    let (_, k) = run(conns, cfg);
    let m = k.metrics();
    assert!(m.obs.alerts >= 1, "impossible SLO fired no alert");
    assert_eq!(
        m.obs.violations, m.obs.requests,
        "1 µs target: every request must violate"
    );
    let dump = k.obs().flight().expect("alert froze no flight dump");
    assert!(
        dump.records.windows(2).all(|w| w[0].seq <= w[1].seq),
        "flight records out of seq order"
    );
    assert!(
        dump.records
            .iter()
            .any(|r| matches!(r.ev, TraceEvent::SloAlert { .. })),
        "the alert itself must be inside its own flight window"
    );
    dump.to_json("server")
}

fn main() {
    println!(
        "Observability overhead: {CONNS} conns, {} B file, {} arrivals/s offered",
        ServeScenario::FILE_BYTES,
        ServeScenario::ARRIVALS_PER_SEC
    );
    println!();

    let mut rows: Vec<Row> = Vec::new();
    let mut sampled_kernel: Option<Kernel> = None;
    for mode in MODES {
        let t = std::time::Instant::now();
        let (mut row, k) = run(CONNS, (mode.cfg)());
        row.mode = mode.name;
        eprintln!(
            "[obs] {} ({CONNS} conns): {:.1}s host",
            mode.name,
            t.elapsed().as_secs_f64()
        );
        if mode.name == "sampled" {
            sampled_kernel = Some(k);
        }
        rows.push(row);
    }

    let thr_off = rows
        .iter()
        .find(|r| r.mode == "off")
        .map(|r| r.throughput_rps)
        .unwrap();
    for row in &mut rows {
        row.overhead_pct = 100.0 * (thr_off - row.throughput_rps) / thr_off;
    }

    print_table(
        &[
            "mode",
            "period",
            "req/s",
            "ovh %",
            "ev/req",
            "committed",
            "share",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.mode.into(),
                    format!("{}", r.sample_period),
                    format!("{:.0}", r.throughput_rps),
                    format!("{:.2}", r.overhead_pct),
                    format!("{:.1}", r.events_per_request),
                    format!("{}", r.spans_committed),
                    format!("{:.3}", r.compute_share),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // The tentpole gate: the resident head-sampled default must cost at
    // most the budget. (Full mode is reported, not gated — committing
    // every span is the opt-in price of total recall.)
    let sampled = rows.iter().find(|r| r.mode == "sampled").unwrap();
    assert!(
        sampled.overhead_pct <= OVERHEAD_BUDGET_PCT,
        "head-sampled overhead {:.2}% exceeds {OVERHEAD_BUDGET_PCT}% budget",
        sampled.overhead_pct
    );
    // Head sampling must actually sample: committed spans well below
    // requests, yet enough kept for the audit to bite.
    assert!(
        sampled.spans_committed < sampled.requests / 8,
        "sampled mode committed {} of {} spans — not sampling",
        sampled.spans_committed,
        sampled.requests
    );
    let full = rows.iter().find(|r| r.mode == "full").unwrap();
    assert_eq!(
        full.spans_committed, full.requests,
        "full mode must commit every request's span"
    );

    // Cross-examine the sampled population against the full histogram.
    let k = sampled_kernel.expect("sampled mode ran");
    let audit = AuditReport {
        outcomes: request_sampling(
            k.obs(),
            Tolerance {
                rel: 0.10,
                abs: 0.0,
            },
            AUDIT_MIN_SAMPLED,
        ),
    };
    println!();
    print!("{}", audit.render());
    assert!(audit.pass(), "request-sampling audit failed");

    // Provoke an alert and write the flight artifact.
    let flight = flight_run((CONNS / 16).max(256));
    write_bench_json("FLIGHT_server.json", &flight);

    let doc = bench_doc("obs")
        .with("file_bytes", Json::Num(ServeScenario::FILE_BYTES as f64))
        .with("conns", Json::Num(CONNS as f64))
        .with(
            "arrivals_per_sec",
            Json::Num(ServeScenario::ARRIVALS_PER_SEC as f64),
        )
        .with("overhead_budget_pct", Json::Num(OVERHEAD_BUDGET_PCT))
        .with("rows", json_rows(&rows, Row::to_json))
        .with("audit", audit.to_json());
    write_table("obs", &doc);
}
