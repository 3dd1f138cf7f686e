//! The repository's end-to-end benchmark.
//!
//! Three seeded workloads measure both claims the simulator makes: the
//! paper's claim about the simulated machine (splice copies faster and
//! leaves more CPU to a competing program than read/write copying) and
//! the simulator's own host cost. Every number is taken from outside the
//! program: host spans around public calls (`KernelBuilder::build`,
//! `setup_file`, `cold_cache`, `spawn`, `run_until`, `verify_pattern_file`,
//! `fsck_all`) and reads of the public snapshots (`metrics()`,
//! `profile()`, `trace()`).
//!
//! * `copy_ram` — the §6 procedure on the two-RAM-disk machine with an
//!   8 MB file (2.5× the 3.2 MB cache) and a cold cache: an SCP and a CP
//!   copy on an idle machine (Table 2), then the fixed-work compute
//!   program alone, beside a looping SCP and beside a looping CP
//!   (Table 1). The CPU is the bottleneck of both copy paths.
//! * `serve_light` — 10,000 open-loop clients fetch one 8 KB file each at
//!   20 req/s offered, below both serving modes' knees, with a compute
//!   program running throughout. Served once by `splice(2)` and once by
//!   the user-space cp-relay.
//! * `serve_overload` — the same fleet at 10,000 req/s offered: the
//!   accept backlog, parked sends and run queue fill, and CPU per
//!   request sets throughput.
//!
//! Every metric is reported for every workload; one a workload does not
//! exercise reads 0 (no connections on `copy_ram`, no copied blocks on
//! the serve workloads, no splice stages under cp-relay).
//!
//! * Units starting `sim_` are simulated time or rates: exact and
//!   repeatable for a seed. [`Rep::digest`] hashes every simulated metric
//!   so a host-only change can show the modelled machine unchanged.
//! * Host times (`s`, `ns`) are wall-clock spans of the benchmark's own
//!   calls: the median over the run's repetitions, each scaled to a
//!   reference host speed by a calibration loop timed around it
//!   (see [`CAL_REFERENCE`]).
//! * `req_*` are exact latencies, not histogram buckets: on the serve
//!   workloads from a request's intended arrival to its last byte (the
//!   splice-mode server); on `copy_ram`, the compute program's
//!   per-operation latency beside the SCP copy.
//! * Per-path metrics end in `.scp` (the SCP copy or the `splice(2)`
//!   server) or `.cp` (the CP copy or the cp-relay server). On
//!   `copy_ram`, scheduler counters come from the Table 1 runs and all
//!   other counters from the Table 2 runs.
//!
//! Traced repetitions turn the trace ring on ([`Tracing`]): one kind
//! charges the host time of each dispatched event to the layer of the
//! first trace record it emits ([`LayerClock`]), the other only runs with
//! the ring on, so the cost of tracing is measured without the cost of
//! the attribution. Their simulated metrics must equal the untraced ones.
//!
//! The workloads run fault-free, so any failed operation (a copy that
//! does not exit 0, fails the byte check or leaves `fsck` errors; a copier
//! that dies beside the compute program; a request that does not arrive
//! byte-exact) makes the repetition incorrect.

pub mod programs;

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::time::{Duration, Instant};

use khw::FaultPlan;
use knet::LinkModel;
use kproc::programs::{
    open_loop_delays, scenario_stats, Cp, CpuBound, Scp, ScpMode, ServeMode, SpliceServer,
};
use kproc::{Pid, ProcState, Program, SockAddr};
use ksim::{Dur, Hist, SimTime, TraceEvent};
use splice::{Kernel, KernelBuilder};

use programs::{OpenLoopClient, ReqLog, TimedCompute};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table 1 and Table 2 RAM-disk procedure.
    CopyRam,
    /// 10k open-loop clients at 20 req/s offered.
    ServeLight,
    /// 10k open-loop clients at 10,000 req/s offered.
    ServeOverload,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::CopyRam,
        Workload::ServeLight,
        Workload::ServeOverload,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CopyRam => "copy_ram",
            Workload::ServeLight => "serve_light",
            Workload::ServeOverload => "serve_overload",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seeds one run draws its inputs from, all derived from `--seed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seeds {
    /// Byte pattern of every source file.
    pub pattern: u64,
    /// Client arrival offsets, and the copier's start offset beside the
    /// compute program on `copy_ram`.
    pub arrival: u64,
    /// The link model's per-datagram jitter draw.
    pub link: u64,
}

impl Seeds {
    /// Derives the three seeds from one command-line seed.
    pub fn from_seed(seed: u64) -> Seeds {
        Seeds {
            pattern: splitmix64(seed ^ 0x7061_7474),
            arrival: splitmix64(seed ^ 0x6172_7276),
            link: splitmix64(seed ^ 0x6c69_6e6b),
        }
    }
}

/// Workload sizes.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Bytes of the `copy_ram` source file.
    pub copy_bytes: u64,
    /// Operations of the `copy_ram` compute program (1 ms each).
    pub compute_ops: u64,
    /// Clients of each serve run.
    pub clients: usize,
}

impl Size {
    /// The benchmark's sizes: 10k samples leave ten beyond p99.9.
    pub const FULL: Size = Size {
        copy_bytes: 8 << 20,
        compute_ops: 10_000,
        clients: 10_000,
    };
    /// Reduced sizes for the benchmark's own tests.
    pub const SMALL: Size = Size {
        copy_bytes: 1 << 20,
        compute_ops: 1_000,
        clients: 200,
    };
}

/// How a repetition traces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tracing {
    /// Trace ring off: the measured repetitions.
    Off,
    /// Trace ring on, plain `run_until` predicates: the cost of tracing.
    Ring,
    /// Trace ring on, and host time attributed by layer ([`LayerClock`]).
    Layers,
}

/// Everything one repetition of a workload needs.
#[derive(Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Input seeds.
    pub seeds: Seeds,
    /// Input sizes.
    pub size: Size,
    /// Whether the typed trace ring is on and host time attributed.
    pub tracing: Tracing,
    /// Fault plan installed on `/d0` after set-up (tests only inject
    /// faults; the benchmark's workloads run fault-free).
    pub fault: Option<FaultPlan>,
}

/// Bytes of the file each serve client fetches (one cached block).
const SERVE_FILE_BYTES: u64 = 8 * 1024;
const SERVE_PORT: u16 = 80;
/// Offered arrival rates of the two serve workloads, req/s.
const LIGHT_RATE: u64 = 20;
const OVERLOAD_RATE: u64 = 10_000;
/// Simulated time the serve fleet gets to arm its arrival timers: the
/// start-up syscalls of 10k clients take seconds of CPU, and arrivals
/// due before they finish would measure the harness, not the server.
const FLEET_START: Dur = Dur::from_secs(10);
/// Copies the looping copier makes beside the compute program: far more
/// than fit in its run.
const LOOPS: u32 = 10_000;
/// The copier starts this far (at most) after the compute program.
const COPIER_OFFSET_MAX: Dur = Dur::from_ms(100);
/// Trace ring for traced runs: holds a whole 8 MB `copy_ram` SCP copy.
const TRACE_CAP: usize = 1 << 18;
/// The paper's RAM-disk row: SCP and CP KB/s (Table 2), F_scp and F_cp
/// (Table 1).
const PAPER_RAM: [f64; 4] = [3343.0, 1884.0, 1.25, 2.00];

/// Layers a traced event is attributed to: the subsystem of the first
/// trace record it emits, or `none`.
pub const LAYERS: [&str; 9] = [
    "sched", "cache", "disk", "callout", "net", "splice", "ring", "obs", "none",
];

fn layer_of(ev: &TraceEvent) -> usize {
    let sub = ev.name().split('.').next().unwrap_or("");
    LAYERS[..8]
        .iter()
        .position(|l| *l == sub)
        // `slo.alert` is the observability pipeline's only tracepoint.
        .unwrap_or(7)
}

/// Host time and counts per layer, gathered in the `run_until`
/// predicate of a traced run.
#[derive(Clone, Debug, Default)]
pub struct LayerClock {
    /// Host ns of the events attributed to each layer.
    pub ns: [u128; 9],
    /// Events attributed to each layer.
    pub events: [u64; 9],
    /// `callout.fire` records seen.
    pub callout_fires: u64,
    /// Most callouts armed at once.
    pub pending_peak: u64,
    last: Option<Instant>,
    seen: u64,
}

impl LayerClock {
    fn start(&mut self, k: &Kernel) {
        self.last = None;
        self.seen = k.trace().emitted();
    }

    /// Charges the host time since the previous poll to the event that
    /// was just dispatched.
    fn poll(&mut self, k: &Kernel) {
        let now = Instant::now();
        let emitted = k.trace().emitted();
        let fresh = (emitted - self.seen) as usize;
        self.seen = emitted;
        let trace = k.trace();
        let mut layer = None;
        for r in trace.records().skip(trace.len().saturating_sub(fresh)) {
            layer.get_or_insert(layer_of(&r.ev));
            self.callout_fires += u64::from(matches!(r.ev, TraceEvent::CalloutFire { .. }));
        }
        let layer = layer.unwrap_or(8);
        if let Some(last) = self.last {
            self.ns[layer] += (now - last).as_nanos();
            self.events[layer] += 1;
        }
        self.pending_peak = self.pending_peak.max(k.pending_callouts() as u64);
        self.last = Some(Instant::now());
    }
}

/// Host time spent in each public call, over one repetition.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostSpans {
    /// `KernelBuilder::build`.
    pub build: Duration,
    /// `Kernel::setup_file`.
    pub setup_file: Duration,
    /// `Kernel::cold_cache`.
    pub cold_cache: Duration,
    /// `Kernel::spawn`.
    pub spawn: Duration,
    /// `Kernel::run_until`: the measured run loops.
    pub run: Duration,
    /// `verify_pattern_file`, `fsck_all` and the fleet's checks.
    pub verify: Duration,
}

impl HostSpans {
    /// The benchmark's set-up time: build, files, cold cache, spawns.
    pub fn setup(&self) -> Duration {
        self.build + self.setup_file + self.cold_cache + self.spawn
    }
}

/// The result of one repetition of a workload.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Simulated and deterministic values by metric name; metrics a
    /// workload does not exercise are absent and read as 0.
    pub values: BTreeMap<String, f64>,
    /// Host spans.
    pub host: HostSpans,
    /// `run_until` predicate polls (dispatched events plus one per call).
    pub events: u64,
    /// Host time of the run loops whose blocks `blocks` counts.
    pub block_run: Duration,
    /// 8 KB blocks moved by those run loops.
    pub blocks: u64,
    /// Connections served.
    pub conns: u64,
    /// Operations attempted and failed (copies, compute runs, requests).
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// False if any operation failed: the workloads run fault-free.
    pub correct: bool,
    /// Exact request (or compute operation) latency samples.
    pub req_samples: u64,
    /// Layer attribution, on [`Tracing::Layers`] repetitions.
    pub layers: Option<LayerClock>,
    /// Mean time [`calibrate`] took just before and just after this
    /// repetition.
    pub calibration: Duration,
}

impl Rep {
    /// The value of metric `name` (0 when the workload does not set it).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// FNV-1a over every simulated metric (kind [`Kind::Sim`]), in
    /// table order: equal digests mean an unchanged modelled machine.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for def in end_to_end_defs()
            .into_iter()
            .chain(per_layer_defs())
            .filter(|d| d.kind == Kind::Sim)
        {
            for b in def
                .name
                .bytes()
                .chain(self.get(&def.name).to_bits().to_le_bytes())
            {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }
}

/// Where a metric's value comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The modelled machine: exact and repeatable for a seed.
    Sim,
    /// Host time (scaled to the reference host speed) or memory.
    Host,
    /// From the traced repetitions.
    Traced,
}

/// One metric as `BENCHMARK.json` lists it.
#[derive(Clone, Debug)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Source.
    pub kind: Kind,
}

fn def(name: impl Into<String>, unit: &'static str, kind: Kind) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        kind,
    }
}

/// The end-to-end metrics, printed with `--trace 0`.
pub fn end_to_end_defs() -> Vec<MetricDef> {
    vec![
        def("splice_kb_per_s", "sim_KB/s", Kind::Sim),
        def("cp_kb_per_s", "sim_KB/s", Kind::Sim),
        def("splice_avail", "fraction", Kind::Sim),
        def("cp_avail", "fraction", Kind::Sim),
        def("req_p50_ms", "sim_ms", Kind::Sim),
        def("req_p999_ms", "sim_ms", Kind::Sim),
        def("host_s", "s", Kind::Host),
        def("setup_s", "s", Kind::Host),
        def("peak_rss_mb", "MB", Kind::Host),
    ]
}

/// The two data paths every per-path metric is reported for: the splice
/// path (SCP, or the `splice(2)` server) and the read/write path (CP, or
/// the cp-relay server).
pub const PATHS: [&str; 2] = ["scp", "cp"];

/// The per-layer metrics, printed with `--trace 1`.
pub fn per_layer_defs() -> Vec<MetricDef> {
    use Kind::*;
    let mut v = Vec::new();
    for span in [
        "build",
        "setup_file",
        "cold_cache",
        "spawn",
        "run",
        "verify",
    ] {
        v.push(def(format!("host.{span}_s"), "s", Host));
    }
    v.push(def("host.ns_per_block", "ns", Host));
    v.push(def("host.ns_per_conn", "ns", Host));
    for l in LAYERS {
        v.push(def(format!("host.ns_per_event.{l}"), "ns", Traced));
        v.push(def(format!("host.events.{l}"), "count", Traced));
    }
    v.push(def("ksim.events", "count", Host));
    v.push(def("ksim.host_ns_per_event", "ns", Host));
    v.push(def("ksim.callout_fires", "count", Traced));
    v.push(def("ksim.pending_callouts_peak", "count", Traced));
    v.push(def("ksim.trace_overhead_pct", "%", Traced));
    let per_path: [(&str, &'static str); 35] = [
        ("kproc.ctx_switches", "count"),
        ("kproc.preemptions", "count"),
        ("kproc.syscalls_per_mb", "1/MB"),
        ("kproc.copier_sys_s", "sim_s"),
        ("kproc.copier_user_s", "sim_s"),
        ("kproc.client_cpu_s", "sim_s"),
        ("kproc.gen_late_p99_ms", "sim_ms"),
        ("kproc.kernel_intr_s", "sim_s"),
        ("kproc.kernel_soft_s", "sim_s"),
        ("kbuf.hits", "count"),
        ("kbuf.misses", "count"),
        ("kbuf.hit_ratio", "ratio"),
        ("kbuf.evictions", "count"),
        ("kbuf.readaheads", "count"),
        ("kbuf.reclaim_flushes", "count"),
        ("kbuf.bread_p50_us", "sim_us"),
        ("kbuf.bwrite_p50_us", "sim_us"),
        ("khw.d0.busy_s", "sim_s"),
        ("khw.d1.busy_s", "sim_s"),
        ("khw.d0.requests", "count"),
        ("khw.d1.requests", "count"),
        ("khw.d0.service_p50_us", "sim_us"),
        ("khw.d1.service_p50_us", "sim_us"),
        ("khw.copy_bytes.copyin", "bytes"),
        ("khw.copy_bytes.copyout", "bytes"),
        ("khw.copy_bytes.driver", "bytes"),
        ("khw.copy_bytes.cache", "bytes"),
        ("khw.copy_bytes.net", "bytes"),
        ("knet.conns_opened", "count"),
        ("knet.bytes_delivered", "bytes"),
        ("knet.snd_blocked", "count"),
        ("knet.dropped_backlog", "count"),
        ("knet.dropped_rcv_full", "count"),
        ("knet.backlog_peak", "count"),
        ("knet.served_rps", "sim_req/s"),
    ];
    for (name, unit) in per_path {
        for p in PATHS {
            v.push(def(format!("{name}.{p}"), unit, Sim));
        }
    }
    for c in [
        "started",
        "completed",
        "rejected",
        "aborted",
        "retries",
        "read_backoffs",
        "write_backoffs",
        "shared_writes",
        "read_hits",
    ] {
        v.push(def(format!("splice.{c}"), "count", Sim));
    }
    for stage in [
        "read_service",
        "read_to_write",
        "write_service",
        "end_to_end",
    ] {
        for p in ["p50", "p99"] {
            v.push(def(format!("splice.stage.{stage}.{p}_us"), "sim_us", Sim));
        }
    }
    for share in ["read_share", "handoff_share", "write_share"] {
        v.push(def(format!("splice.kanalyze.{share}"), "fraction", Traced));
    }
    v.push(def("splice.kanalyze.closure_err_pct", "%", Traced));
    v.push(def("obs.spans_committed", "count", Sim));
    v.push(def("obs.request_latency_p99_ms", "sim_ms", Sim));
    v.push(def("obs.trace_emitted", "count", Traced));
    v.push(def("check.fail_ratio", "ratio", Sim));
    v.push(def("check.paper_err_pct", "%", Sim));
    v
}

/// Nearest-rank percentile of sorted `v`: at least `(1-p)·n` samples lie
/// at or above it, so p99.9 of 10k samples leaves ten beyond.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn hist_us(h: &Hist, p: f64) -> f64 {
    h.percentile(p).unwrap_or(0) as f64 / 1e3
}

fn secs(d: Dur) -> f64 {
    d.as_secs_f64()
}

/// [`calibrate`]'s time on a quiet reference host. Host times are
/// reported at that host's speed: each repetition's times are scaled by
/// `CAL_REFERENCE` / the calibration time measured around it. A shared
/// virtual machine's speed can swing by tens of percent over seconds to
/// minutes; the calibration loop swings with it, so scaled times stay
/// comparable between runs.
pub const CAL_REFERENCE: Duration = Duration::from_millis(50);

/// A fixed host workload that does not use the simulator: a pointer
/// chase through a 4 MB permutation and ordered- and hash-map churn, the
/// kinds of work the simulator's event loop does. Returns its wall time.
pub fn calibrate() -> Duration {
    let t = Instant::now();
    let n = 1u32 << 20;
    let mut next: Vec<u32> = (0..n).collect();
    let mut x = 0x1234_5678_9abc_def0u64;
    for i in (1..n as usize).rev() {
        x = splitmix64(x);
        next.swap(i, (x % (i as u64 + 1)) as usize);
    }
    let (mut at, mut acc) = (0usize, 0u64);
    for _ in 0..1_000_000 {
        at = next[at] as usize;
        acc = acc.wrapping_add(at as u64);
    }
    let mut tree = BTreeMap::new();
    let mut hash = HashMap::new();
    for i in 0..100_000u64 {
        x = splitmix64(x);
        tree.insert(x % 50_000, vec![i; 4]);
        hash.insert(x % 70_000, i);
        if i % 3 == 0 {
            tree.remove(&(x % 25_000));
        }
    }
    std::hint::black_box((acc, tree.len(), hash.len()));
    t.elapsed()
}

fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot += t.elapsed();
    out
}

/// One repetition in progress.
struct Bench {
    cfg: Config,
    rep: Rep,
}

impl Bench {
    fn put(&mut self, name: impl Into<String>, v: f64) {
        self.rep.values.insert(name.into(), v);
    }

    fn fail(&mut self, ok: bool) {
        self.rep.attempted += 1;
        self.rep.failed += u64::from(!ok);
    }

    fn boot(&mut self) -> Kernel {
        let mut b = KernelBuilder::paper_machine_ram();
        if self.cfg.tracing != Tracing::Off {
            b = b.trace(TRACE_CAP);
        }
        let mut k = timed(&mut self.rep.host.build, || b.build());
        if let Some(plan) = &self.cfg.fault {
            k.set_fault_plan(0, plan.clone());
        }
        k
    }

    fn setup_file(&mut self, k: &mut Kernel, path: &str, len: u64) {
        let seed = self.cfg.seeds.pattern;
        timed(&mut self.rep.host.setup_file, || {
            k.setup_file(path, len, seed)
        });
        timed(&mut self.rep.host.cold_cache, || k.cold_cache());
    }

    fn spawn(&mut self, k: &mut Kernel, p: Box<dyn Program>) -> Pid {
        timed(&mut self.rep.host.spawn, || k.spawn(p))
    }

    fn run_until(
        &mut self,
        k: &mut Kernel,
        horizon: SimTime,
        mut done: impl FnMut(&Kernel) -> bool,
    ) -> SimTime {
        let mut polls = 0u64;
        let t = Instant::now();
        let end = match self.rep.layers.as_mut() {
            None => k.run_until(horizon, |k| {
                polls += 1;
                done(k)
            }),
            Some(clock) => {
                clock.start(k);
                k.run_until(horizon, |k| {
                    polls += 1;
                    clock.poll(k);
                    done(k)
                })
            }
        };
        self.rep.host.run += t.elapsed();
        self.rep.events += polls;
        end
    }

    /// Runs until `pid` exits; `None` if it is still alive at `horizon`.
    fn run_to_exit_of(&mut self, k: &mut Kernel, pid: Pid, secs: u64) -> Option<SimTime> {
        let horizon = k.horizon(secs);
        let t = self.run_until(k, horizon, |k| k.procs().must(pid).exited());
        k.procs().must(pid).exited().then_some(t)
    }

    /// Buffer-cache, device, copy-path and splice-engine counters of
    /// `path`'s run.
    fn put_io_layers(&mut self, p: &str, k: &Kernel) {
        let m = k.metrics();
        let prof = k.profile();
        let c = &m.cache;
        self.put(format!("kbuf.hits.{p}"), c.hits as f64);
        self.put(format!("kbuf.misses.{p}"), c.misses as f64);
        let lookups = (c.hits + c.misses).max(1) as f64;
        self.put(format!("kbuf.hit_ratio.{p}"), c.hits as f64 / lookups);
        self.put(format!("kbuf.evictions.{p}"), c.evictions as f64);
        self.put(format!("kbuf.readaheads.{p}"), c.readaheads as f64);
        self.put(
            format!("kbuf.reclaim_flushes.{p}"),
            c.reclaim_flushes as f64,
        );
        self.put(
            format!("kbuf.bread_p50_us.{p}"),
            m.latency.bread.p50 as f64 / 1e3,
        );
        self.put(
            format!("kbuf.bwrite_p50_us.{p}"),
            m.latency.bwrite.p50 as f64 / 1e3,
        );
        for (i, d) in prof.devices.iter().enumerate().take(2) {
            self.put(format!("khw.d{i}.busy_s.{p}"), secs(d.busy_time));
            self.put(format!("khw.d{i}.requests.{p}"), d.requests as f64);
            self.put(
                format!("khw.d{i}.service_p50_us.{p}"),
                d.service.p50 as f64 / 1e3,
            );
        }
        let cb = &m.copy;
        for (kind, bytes) in [
            ("copyin", cb.copyin_bytes),
            ("copyout", cb.copyout_bytes),
            ("driver", cb.driver_bytes),
            ("cache", cb.cache_bytes),
            ("net", cb.net_bytes),
        ] {
            self.put(format!("khw.copy_bytes.{kind}.{p}"), bytes as f64);
        }
        let n = &m.net;
        for (name, v) in [
            ("conns_opened", n.conns_opened),
            ("bytes_delivered", n.bytes_delivered),
            ("snd_blocked", n.snd_blocked),
            ("dropped_backlog", n.dropped_backlog),
            ("dropped_rcv_full", n.dropped_rcv_full),
            ("backlog_peak", n.backlog_peak),
        ] {
            self.put(format!("knet.{name}.{p}"), v as f64);
        }
        if p != "scp" {
            return;
        }
        let s = &m.splice;
        for (name, v) in [
            ("started", s.started),
            ("completed", s.completed),
            ("rejected", s.rejected),
            ("aborted", s.aborted),
            ("retries", s.retries),
            ("read_backoffs", s.read_backoffs),
            ("write_backoffs", s.write_backoffs),
            ("shared_writes", s.shared_writes),
            ("read_hits", s.read_hits),
        ] {
            self.put(format!("splice.{name}"), v as f64);
        }
        let st = &k.kstat().stages;
        for (name, h) in [
            ("read_service", &st.read_service),
            ("read_to_write", &st.read_to_write),
            ("write_service", &st.write_service),
            ("end_to_end", &st.end_to_end),
        ] {
            self.put(format!("splice.stage.{name}.p50_us"), hist_us(h, 0.50));
            self.put(format!("splice.stage.{name}.p99_us"), hist_us(h, 0.99));
        }
    }

    /// Scheduler and CPU-accounting counters of `path`'s run; `copier`
    /// is the copy program or server.
    fn put_cpu_layers(&mut self, p: &str, k: &Kernel, copier: Pid) {
        let m = k.metrics();
        let prof = k.profile();
        self.put(
            format!("kproc.ctx_switches.{p}"),
            m.sched.ctx_switches as f64,
        );
        self.put(format!("kproc.preemptions.{p}"), m.sched.preemptions as f64);
        let acct = k.procs().must(copier).acct;
        self.put(format!("kproc.copier_sys_s.{p}"), secs(acct.sys_time));
        self.put(format!("kproc.copier_user_s.{p}"), secs(acct.user_time));
        self.put(
            format!("kproc.kernel_intr_s.{p}"),
            secs(prof.kernel_cpu.intr),
        );
        self.put(
            format!("kproc.kernel_soft_s.{p}"),
            secs(prof.kernel_cpu.soft + prof.kernel_cpu.idle_soft),
        );
    }

    fn syscalls_per_mb(&mut self, p: &str, k: &Kernel, copier: Pid, bytes: u64) {
        let calls = k.procs().must(copier).acct.syscalls as f64;
        self.put(
            format!("kproc.syscalls_per_mb.{p}"),
            calls / (bytes.max(1) as f64 / (1 << 20) as f64),
        );
    }

    fn copy_ram(&mut self) {
        let scp_kb = self.throughput("scp", Self::copier("scp", 1));
        let cp_kb = self.throughput("cp", Self::copier("cp", 1));
        self.put("splice_kb_per_s", scp_kb);
        self.put("cp_kb_per_s", cp_kb);

        let idle = self.availability(None);
        let scp_t = self.availability(Some(("scp", Self::copier("scp", LOOPS))));
        let cp_t = self.availability(Some(("cp", Self::copier("cp", LOOPS))));
        let avail = |t: Option<Dur>| match (idle, t) {
            (Some(i), Some(t)) => secs(i) / secs(t),
            _ => 0.0,
        };
        let (scp_avail, cp_avail) = (avail(scp_t), avail(cp_t));
        self.put("splice_avail", scp_avail);
        self.put("cp_avail", cp_avail);
        let got = [scp_kb, cp_kb, 1.0 / scp_avail, 1.0 / cp_avail];
        let err = got
            .iter()
            .zip(PAPER_RAM)
            .map(|(g, want)| (g / want - 1.0).abs() * 100.0)
            .fold(0.0, f64::max);
        self.put("check.paper_err_pct", err);
    }

    fn copier(p: &str, repeat: u32) -> Box<dyn Program> {
        match p {
            "scp" => Box::new(Scp::with_options(
                "/d0/src",
                "/d1/dst",
                ScpMode::Async,
                repeat,
            )),
            _ => Box::new(Cp::with_options("/d0/src", "/d1/dst", 8192, true, repeat)),
        }
    }

    /// Table 2: one copy by `prog` on an idle machine, verified; returns
    /// KB/s, or 0 if the copy failed.
    fn throughput(&mut self, p: &str, prog: Box<dyn Program>) -> f64 {
        let bytes = self.cfg.size.copy_bytes;
        let mut k = self.boot();
        self.setup_file(&mut k, "/d0/src", bytes);
        let t0 = k.now();
        let pid = self.spawn(&mut k, prog);
        let run0 = self.rep.host.run;
        let end = self.run_to_exit_of(&mut k, pid, 1200);
        if p == "scp" {
            self.rep.block_run += self.rep.host.run - run0;
            self.rep.blocks += bytes.div_ceil(8192);
        }
        let exited_ok = matches!(k.procs().must(pid).state, ProcState::Exited(0));
        let seed = self.cfg.seeds.pattern;
        // A copy that did not exit 0 fails unchecked: its destination
        // may not exist.
        let (wrong, fsck) = timed(&mut self.rep.host.verify, || {
            (
                !exited_ok || k.verify_pattern_file("/d1/dst", bytes, seed).is_some(),
                k.fsck_all(),
            )
        });
        let ok = !wrong && fsck.is_empty();
        self.fail(ok);
        self.put_io_layers(p, &k);
        self.syscalls_per_mb(p, &k, pid, bytes);
        if p == "scp" && self.cfg.tracing != Tracing::Off {
            self.decompose(&k);
        }
        match end {
            Some(t) if ok => bytes as f64 / 1024.0 / secs(t.since(t0)),
            _ => 0.0,
        }
    }

    /// Table 1: the compute program alone (`copier` = `None`) or beside
    /// the looping copy program of path `p`; returns its elapsed time,
    /// `None` if it never ended. The copier must still be copying when
    /// the compute program ends, or part of the run was not measured
    /// beside it.
    fn availability(&mut self, copier: Option<(&str, Box<dyn Program>)>) -> Option<Dur> {
        let mut k = self.boot();
        self.setup_file(&mut k, "/d0/src", self.cfg.size.copy_bytes);
        let t0 = k.now();
        let (prog, stamps) = TimedCompute::new(self.cfg.size.compute_ops, Dur::from_ms(1));
        let test = self.spawn(&mut k, Box::new(prog));
        let copier = copier.map(|(p, prog)| {
            // The copier starts at a seeded offset into the compute run.
            let offset = splitmix64(self.cfg.seeds.arrival) % COPIER_OFFSET_MAX.as_ns();
            let until = t0 + Dur::from_ns(offset);
            self.run_until(&mut k, until, |_| false);
            (p, self.spawn(&mut k, prog))
        });
        let end = self.run_to_exit_of(&mut k, test, 3600);
        self.fail(end.is_some());
        if let Some((p, copier)) = copier {
            self.fail(!k.procs().must(copier).exited());
            self.put_cpu_layers(p, &k, copier);
            if p == "scp" {
                let stamps = stamps.borrow();
                let mut lat: Vec<u64> = stamps
                    .windows(2)
                    .map(|w| w[1].since(w[0]).as_ns())
                    .collect();
                self.put_latencies(&mut lat);
            }
        }
        end.map(|t| t.since(t0))
    }

    fn put_latencies(&mut self, lat: &mut [u64]) {
        lat.sort_unstable();
        self.rep.req_samples = lat.len() as u64;
        self.put("req_p50_ms", percentile(lat, 0.50) as f64 / 1e6);
        self.put("req_p999_ms", percentile(lat, 0.999) as f64 / 1e6);
    }

    /// `kanalyze`'s critical-path decomposition of the traced SCP copy.
    fn decompose(&mut self, k: &Kernel) {
        let spans = k.trace().query().all_block_spans();
        let d = kanalyze::decompose(
            &spans,
            &k.kstat().stages,
            kanalyze::decompose::CLOSURE_TOLERANCE,
        );
        let total = d.phases.total_ns.max(1) as f64;
        self.put(
            "splice.kanalyze.read_share",
            d.phases.read_ns as f64 / total,
        );
        self.put(
            "splice.kanalyze.handoff_share",
            d.phases.handoff_ns as f64 / total,
        );
        self.put(
            "splice.kanalyze.write_share",
            d.phases.write_ns as f64 / total,
        );
        self.put("splice.kanalyze.closure_err_pct", d.closure_error * 100.0);
    }

    fn serve(&mut self, rate: u64) {
        let (scp_kb, scp_avail) = self.serve_mode("scp", ServeMode::Splice, rate);
        let (cp_kb, cp_avail) = self.serve_mode("cp", ServeMode::CpRelay, rate);
        self.put("splice_kb_per_s", scp_kb);
        self.put("cp_kb_per_s", cp_kb);
        self.put("splice_avail", scp_avail);
        self.put("cp_avail", cp_avail);
    }

    /// One serve run: `clients` open-loop fetches at `rate` req/s beside
    /// a compute program that runs throughout. Returns the delivered
    /// KB/s and the compute program's CPU share.
    fn serve_mode(&mut self, p: &str, mode: ServeMode, rate: u64) -> (f64, f64) {
        let n = self.cfg.size.clients;
        let seeds = self.cfg.seeds;
        let mut k = self.boot();
        k.net_mut().set_link_model(
            1,
            LinkModel {
                bps: 125_000_000,
                base_latency: Dur::from_us(200),
                jitter: Dur::from_us(100),
                loss_ppm: 0,
                seed: seeds.link,
            },
        );
        self.setup_file(&mut k, "/d0/file", SERVE_FILE_BYTES);
        let t0 = k.now();
        let log = Rc::new(RefCell::new(ReqLog::default()));
        let window = Dur::from_ns(n as u64 * 1_000_000_000 / rate);
        let addr = SockAddr {
            host: 1,
            port: SERVE_PORT,
        };
        let open = t0 + FLEET_START;
        let (compute, server) = timed(&mut self.rep.host.spawn, || {
            let compute = k.spawn(Box::new(CpuBound::new(u64::MAX, Dur::from_ms(1))));
            let server = k.spawn(Box::new(SpliceServer::new(
                SERVE_PORT,
                "/d0/file",
                SERVE_FILE_BYTES,
                n,
                n as u32,
                mode,
                scenario_stats(),
            )));
            for d in open_loop_delays(n, window, seeds.arrival) {
                let at = open + d;
                let log = Rc::clone(&log);
                k.spawn(Box::new(OpenLoopClient::new(
                    addr,
                    SERVE_FILE_BYTES,
                    seeds.pattern,
                    at,
                    log,
                )));
            }
            (compute, server)
        });
        // The fleet arms its arrival timers before the serving window
        // opens; compute share and throughput count from the opening.
        self.run_until(&mut k, open, |_| false);
        let cpu_at_open = k.procs().must(compute).acct.cpu_time();
        let horizon = k.horizon(4 * 3600);
        let end = self.run_until(&mut k, horizon, |k| {
            log.borrow().finished() == n as u64 && k.procs().must(server).exited()
        });
        let server_ok = matches!(k.procs().must(server).state, ProcState::Exited(0));

        let mut log = timed(&mut self.rep.host.verify, || log.take());
        let expect_bytes = log.completed * SERVE_FILE_BYTES;
        if log.mismatches > 0 || log.bytes < expect_bytes {
            self.rep.correct = false;
        }
        self.rep.attempted += n as u64;
        self.rep.failed += n as u64 - log.completed;
        if !server_ok {
            self.rep.attempted += 1;
            self.rep.failed += 1;
        }
        self.rep.conns += n as u64;

        let makespan = secs(log.last_done.saturating_since(open)).max(1e-9);
        let compute_cpu = k.procs().must(compute).acct.cpu_time() - cpu_at_open;
        let share = secs(compute_cpu) / secs(end.since(open)).max(1e-9);
        self.put(
            format!("knet.served_rps.{p}"),
            log.completed as f64 / makespan,
        );
        let client_cpu: Dur = k
            .procs()
            .iter()
            .filter(|proc| proc.pid != compute && proc.pid != server)
            .map(|proc| proc.acct.cpu_time())
            .fold(Dur::ZERO, |a, b| a + b);
        self.put(format!("kproc.client_cpu_s.{p}"), secs(client_cpu));
        log.late_ns.sort_unstable();
        self.put(
            format!("kproc.gen_late_p99_ms.{p}"),
            percentile(&log.late_ns, 0.99) as f64 / 1e6,
        );
        self.put_cpu_layers(p, &k, server);
        self.put_io_layers(p, &k);
        self.syscalls_per_mb(p, &k, server, expect_bytes);
        if p == "scp" {
            self.put_latencies(&mut log.latency_ns);
            let m = k.metrics();
            self.put("obs.spans_committed", m.obs.spans_committed as f64);
            self.put(
                "obs.request_latency_p99_ms",
                m.obs.request_latency.p99 as f64 / 1e6,
            );
            self.put("obs.trace_emitted", m.obs.trace_emitted as f64);
        }
        let kb = expect_bytes as f64 / 1024.0 / makespan;
        (kb, share)
    }
}

impl Bench {
    fn new(cfg: &Config) -> Bench {
        Bench {
            cfg: cfg.clone(),
            rep: Rep {
                correct: true,
                layers: (cfg.tracing == Tracing::Layers).then(LayerClock::default),
                ..Rep::default()
            },
        }
    }

    fn finish(mut self) -> Rep {
        let ratio = self.rep.failed as f64 / self.rep.attempted.max(1) as f64;
        self.put("check.fail_ratio", ratio);
        self.rep.correct &= self.rep.failed == 0;
        self.rep
    }
}

/// Runs one repetition of `cfg.workload`.
pub fn run_rep(cfg: &Config) -> Rep {
    let before = calibrate();
    let mut b = Bench::new(cfg);
    match cfg.workload {
        Workload::CopyRam => b.copy_ram(),
        Workload::ServeLight => b.serve(LIGHT_RATE),
        Workload::ServeOverload => b.serve(OVERLOAD_RATE),
    }
    let mut rep = b.finish();
    rep.calibration = (before + calibrate()) / 2;
    rep
}

/// The repetitions of one benchmark run.
pub struct Measured {
    /// Untraced repetitions (the warm-up is not among them).
    pub plain: Vec<Rep>,
    /// [`Tracing::Layers`] repetitions (`--trace 1` only).
    pub traced: Vec<Rep>,
    /// [`Tracing::Ring`] repetitions (`--trace 1` only).
    pub ring: Vec<Rep>,
}

/// Median of `v`; 0 when empty.
fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

/// The median over `reps` of a host time, each scaled to the reference
/// host speed by the calibration loop timed around it.
fn host_median(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    let reference = CAL_REFERENCE.as_secs_f64();
    median(
        reps.iter()
            .map(|r| f(r) * reference / r.calibration.as_secs_f64())
            .collect(),
    )
}

impl Measured {
    fn host(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        host_median(&self.plain, f)
    }

    /// The end-to-end metrics: simulated values from the first
    /// repetition, host times as calibrated medians.
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Vec<(MetricDef, f64)> {
        end_to_end_defs()
            .into_iter()
            .map(|d| {
                let v = match d.name.as_str() {
                    "host_s" => self.host(|r| r.host.run.as_secs_f64()),
                    "setup_s" => self.host(|r| r.host.setup().as_secs_f64()),
                    "peak_rss_mb" => peak_rss_mb,
                    name => self.plain[0].get(name),
                };
                (d, v)
            })
            .collect()
    }

    /// The per-layer metrics: host spans from the untraced repetitions,
    /// layer attribution from the attributed ones, the cost of tracing
    /// from the ring-only ones.
    pub fn per_layer(&self) -> Vec<(MetricDef, f64)> {
        let (plain, traced) = (&self.plain, &self.traced);
        let span = |f: fn(&HostSpans) -> Duration| self.host(|r| f(&r.host).as_secs_f64());
        let ns_per = |run: Duration, n: u64| run.as_nanos() as f64 / n.max(1) as f64;
        let clock = |r: &Rep| r.layers.clone().expect("traced repetition");
        let layer = |i: usize, ns: bool| {
            if ns {
                host_median(traced, |r| {
                    let c = clock(r);
                    c.ns[i] as f64 / c.events[i].max(1) as f64
                })
            } else {
                clock(&traced[0]).events[i] as f64
            }
        };
        per_layer_defs()
            .into_iter()
            .map(|d| {
                let name = d.name.as_str();
                let v = match name {
                    "host.build_s" => span(|h| h.build),
                    "host.setup_file_s" => span(|h| h.setup_file),
                    "host.cold_cache_s" => span(|h| h.cold_cache),
                    "host.spawn_s" => span(|h| h.spawn),
                    "host.run_s" => span(|h| h.run),
                    "host.verify_s" => span(|h| h.verify),
                    "host.ns_per_block" => self.host(|r| ns_per(r.block_run, r.blocks)),
                    "host.ns_per_conn" if plain[0].conns > 0 => {
                        self.host(|r| ns_per(r.host.run, r.conns))
                    }
                    "ksim.events" => plain[0].events as f64,
                    "ksim.host_ns_per_event" => self.host(|r| ns_per(r.host.run, r.events)),
                    "ksim.callout_fires" => clock(&traced[0]).callout_fires as f64,
                    "ksim.pending_callouts_peak" => clock(&traced[0]).pending_peak as f64,
                    "ksim.trace_overhead_pct" => {
                        let on = host_median(&self.ring, |r| r.host.run.as_secs_f64());
                        (on / span(|h| h.run) - 1.0) * 100.0
                    }
                    _ => match name
                        .strip_prefix("host.ns_per_event.")
                        .map(|l| (l, true))
                        .or_else(|| name.strip_prefix("host.events.").map(|l| (l, false)))
                    {
                        Some((l, ns)) => layer(LAYERS.iter().position(|x| *x == l).unwrap(), ns),
                        None if d.kind == Kind::Traced => traced[0].get(name),
                        None => plain[0].get(name),
                    },
                };
                (d, v)
            })
            .collect()
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kproc::{Step, UserCtx};

    /// A copier that gives up at once.
    struct ExitOne;

    impl Program for ExitOne {
        fn step(&mut self, _: &mut UserCtx) -> Step {
            Step::Exit(1)
        }
    }

    fn bench() -> Bench {
        Bench::new(&Config {
            workload: Workload::CopyRam,
            seeds: Seeds::from_seed(7),
            size: Size::SMALL,
            tracing: Tracing::Off,
            fault: None,
        })
    }

    #[test]
    fn a_copy_that_exits_1_reports_no_throughput_and_fails_the_run() {
        let mut b = bench();
        assert_eq!(b.throughput("scp", Box::new(ExitOne)), 0.0);
        let rep = b.finish();
        assert_eq!((rep.attempted, rep.failed), (1, 1));
        assert!(!rep.correct);
    }

    #[test]
    fn a_copier_that_dies_beside_the_compute_program_fails_the_run() {
        let mut b = bench();
        assert!(b.availability(Some(("scp", Box::new(ExitOne)))).is_some());
        let rep = b.finish();
        assert_eq!((rep.attempted, rep.failed), (2, 1));
        assert!(!rep.correct);
    }
}
