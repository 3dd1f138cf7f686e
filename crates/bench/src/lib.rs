//! Experiment library: the measurement procedures behind every table,
//! sweep, and ablation binary.
//!
//! The procedures follow §6 of the paper:
//!
//! * **Throughput** ([`throughput`]) — create the source file, cold-start
//!   the buffer cache, run one copy on an otherwise idle machine, report
//!   `bytes / elapsed` in KB/s. CP's `fsync` is inside the measured
//!   window ("we ensured write-through behavior for the cache … by
//!   calling fsync() on the destination file for CP"); SCP's asynchronous
//!   writes finish before `SIGIO`, so its window also covers all device
//!   writes.
//! * **CPU availability** ([`availability`]) — run the CPU-bound test
//!   program with a fixed operation count alone (IDLE) and then
//!   concurrently with a looping copy (CP or SCP environments), and
//!   report the slowdown factor `F = T_env / T_idle`.
//!
//! Every run verifies the copied bytes and `fsck`s the filesystems; a
//! performance number from a corrupted run would be meaningless.

pub mod json_out;
pub mod simspeed;
pub mod workloads;

pub use json_out::{
    bench_doc, json_rows, workload_meta, write_bench_json, write_table, SCHEMA_VERSION,
};

use khw::DiskProfile;
use kproc::programs::{Cp, CpuBound, Scp, ScpMode};
use kproc::{Pid, ProcState, Program};
use ksim::{Dur, Json};
use splice::baselines::{HandleCopy, MmapCopy};
use splice::{Kernel, KernelBuilder, KernelConfig, MetricsSnapshot};

/// Which copy mechanism an experiment exercises.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Method {
    /// `cp`: read/write through a user buffer (the paper's CP).
    Cp,
    /// `scp`: asynchronous splice (the paper's SCP).
    Scp,
    /// `scp` with a synchronous splice (ablation).
    ScpSync,
    /// \[PCM91\] ioctl handle passing (related-work baseline).
    Handle,
    /// Memory-mapped copy (related-work baseline).
    Mmap,
}

impl Method {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Method::Cp => "CP",
            Method::Scp => "SCP",
            Method::ScpSync => "SCP(sync)",
            Method::Handle => "HANDLE",
            Method::Mmap => "MMAP",
        }
    }

    /// All methods the paper compares plus the related-work baselines.
    pub fn all() -> [Method; 5] {
        [
            Method::Cp,
            Method::Scp,
            Method::ScpSync,
            Method::Handle,
            Method::Mmap,
        ]
    }
}

/// Which disk row of the paper's tables.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiskRow {
    /// The 16 MB kernel-memory RAM disk.
    Ram,
    /// Digital RZ56.
    Rz56,
    /// Digital RZ58.
    Rz58,
}

impl DiskRow {
    /// Profile for this row.
    pub fn profile(self) -> DiskProfile {
        match self {
            DiskRow::Ram => DiskProfile::ramdisk(),
            DiskRow::Rz56 => DiskProfile::rz56(),
            DiskRow::Rz58 => DiskProfile::rz58(),
        }
    }

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            DiskRow::Ram => "RAM",
            DiskRow::Rz56 => "RZ56",
            DiskRow::Rz58 => "RZ58",
        }
    }

    /// The paper's three rows.
    pub fn all() -> [DiskRow; 3] {
        [DiskRow::Ram, DiskRow::Rz56, DiskRow::Rz58]
    }
}

/// Common experiment parameters.
#[derive(Clone)]
pub struct Experiment {
    /// Disk row.
    pub disk: DiskRow,
    /// File size (the paper's representative case: 8 MB).
    pub file_bytes: u64,
    /// Kernel configuration (ablations mutate this).
    pub config: KernelConfig,
    /// Pattern seed for the source file.
    pub seed: u64,
}

impl Experiment {
    /// The paper's configuration for a disk row.
    pub fn paper(disk: DiskRow) -> Experiment {
        Experiment {
            disk,
            file_bytes: 8 * 1024 * 1024,
            config: KernelConfig::default(),
            seed: 0x51ce ^ 1993,
        }
    }

    /// Builds the two-disk machine with the source file in place and a
    /// cold cache.
    pub fn boot(&self) -> Kernel {
        let mut k = KernelBuilder::paper_machine(self.disk.profile())
            .config(self.config.clone())
            .build();
        k.setup_file("/d0/src", self.file_bytes, self.seed);
        k.cold_cache();
        k
    }

    /// The copy program for `method` with `repeat` back-to-back passes.
    pub fn copier(&self, method: Method, repeat: u32) -> Box<dyn Program> {
        let memcpy_per_block = self
            .config
            .machine
            .copy_cost(khw::CopyKind::Copyin, self.config.block_size as usize);
        match method {
            Method::Cp => Box::new(Cp::with_options("/d0/src", "/d1/dst", 8192, true, repeat)),
            Method::Scp => Box::new(Scp::with_options(
                "/d0/src",
                "/d1/dst",
                ScpMode::Async,
                repeat,
            )),
            Method::ScpSync => Box::new(Scp::with_options(
                "/d0/src",
                "/d1/dst",
                ScpMode::Sync,
                repeat,
            )),
            Method::Handle => Box::new(kproc::programs::Repeat::new(repeat, || {
                Box::new(HandleCopy::new("/d0/src", "/d1/dst"))
            })),
            Method::Mmap => {
                let bs = self.config.block_size as usize;
                Box::new(kproc::programs::Repeat::new(repeat, move || {
                    Box::new(MmapCopy::new("/d0/src", "/d1/dst", bs, memcpy_per_block))
                }))
            }
        }
    }
}

/// Outcome of one throughput run.
#[derive(Clone, Debug)]
pub struct ThroughputResult {
    /// KB/s over the copy (KB = 1024 bytes, as in the paper).
    pub kb_per_s: f64,
    /// Elapsed simulated seconds.
    pub elapsed_s: f64,
    /// Kernel metrics at the end of the run (data verified, fsck clean).
    pub snapshot: MetricsSnapshot,
}

impl ThroughputResult {
    /// JSON form: the throughput numbers plus the full snapshot.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("kb_per_s", Json::Num(self.kb_per_s))
            .with("elapsed_s", Json::Num(self.elapsed_s))
            .with("metrics", self.snapshot.to_json())
    }
}

/// Measures copy throughput on an otherwise idle machine (§6.3).
///
/// # Panics
///
/// Panics if the copy fails, corrupts data, or leaves the filesystems
/// inconsistent.
pub fn throughput(exp: &Experiment, method: Method) -> ThroughputResult {
    let mut k = exp.boot();
    let t0 = k.now();
    let pid = k.spawn(exp.copier(method, 1));
    let horizon = k.horizon(1200);
    let t1 = k.run_to_exit(horizon);
    assert!(
        matches!(k.procs().must(pid).state, ProcState::Exited(0)),
        "{} copy failed on {}",
        method.label(),
        exp.disk.label()
    );
    assert_eq!(
        k.verify_pattern_file("/d1/dst", exp.file_bytes, exp.seed),
        None,
        "{} copy corrupted data on {}",
        method.label(),
        exp.disk.label()
    );
    let errors = k.fsck_all();
    assert!(
        errors.is_empty(),
        "fsck after {}: {errors:?}",
        method.label()
    );
    let snapshot = k.metrics();
    if std::env::var("BENCH_STATS").is_ok() {
        println!(
            "--- metrics after {} on {} ---",
            method.label(),
            exp.disk.label()
        );
        println!("{}", snapshot.to_json().render_pretty());
        for d in k.disks() {
            if !d.kind.is_ram() {
                println!(
                    "  disk {}: requests={} busy={:?}",
                    d.name,
                    d.kind.requests(),
                    d.kind.busy_time()
                );
            }
        }
        println!("  cache: {:?}", k.cache().stats());
    }
    let elapsed = t1.since(t0).as_secs_f64();
    ThroughputResult {
        kb_per_s: exp.file_bytes as f64 / 1024.0 / elapsed,
        elapsed_s: elapsed,
        snapshot,
    }
}

/// Outcome of the availability procedure for one environment.
#[derive(Clone, Debug)]
pub struct AvailabilityResult {
    /// Slowdown factor `F = T_env / T_idle`.
    pub slowdown: f64,
    /// Test-program speed as a fraction of idle (1/F).
    pub speed_fraction: f64,
    /// Elapsed seconds for the fixed operation set.
    pub elapsed_s: f64,
    /// Kernel metrics when the test program exited.
    pub snapshot: MetricsSnapshot,
}

impl AvailabilityResult {
    /// JSON form: the availability numbers plus the full snapshot.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("slowdown", Json::Num(self.slowdown))
            .with("speed_fraction", Json::Num(self.speed_fraction))
            .with("elapsed_s", Json::Num(self.elapsed_s))
            .with("metrics", self.snapshot.to_json())
    }
}

/// The test program's fixed workload: 8 s of user CPU in 1 ms operations.
pub fn test_program() -> CpuBound {
    CpuBound::new(8_000, Dur::from_ms(1))
}

fn run_test_program(k: &mut Kernel, with_copy: Option<Box<dyn Program>>) -> (Pid, f64) {
    let t0 = k.now();
    let test = k.spawn(Box::new(test_program()));
    if let Some(copier) = with_copy {
        k.spawn(copier);
    }
    let horizon = k.horizon(3600);
    let t1 = k.run_until_exit_of(test, horizon);
    (test, t1.since(t0).as_secs_f64())
}

/// Measures the IDLE baseline: the test program alone (§6.2).
pub fn idle_baseline(exp: &Experiment) -> f64 {
    let mut k = exp.boot();
    let (_, elapsed) = run_test_program(&mut k, None);
    elapsed
}

/// Measures one contended environment: the test program beside a looping
/// copy (§6.2's CP/SCP environments). `idle_elapsed` comes from
/// [`idle_baseline`].
pub fn availability(exp: &Experiment, method: Method, idle_elapsed: f64) -> AvailabilityResult {
    let mut k = exp.boot();
    // Enough passes to outlast the test program in any environment.
    let copier = exp.copier(method, 10_000);
    let (_, elapsed) = run_test_program(&mut k, Some(copier));
    let snapshot = k.metrics();
    if std::env::var("BENCH_STATS").is_ok() {
        println!(
            "--- availability diagnostics: {} on {} ---",
            method.label(),
            exp.disk.label()
        );
        for p in k.procs().iter() {
            println!(
                "  {:?} {} state={:?} user={} sys={} vcsw={} icsw={} syscalls={}",
                p.pid,
                p.program.name(),
                p.state,
                p.acct.user_time,
                p.acct.sys_time,
                p.acct.vcsw,
                p.acct.icsw,
                p.acct.syscalls
            );
        }
        println!("{}", snapshot.to_json().render_pretty());
    }
    let slowdown = elapsed / idle_elapsed;
    AvailabilityResult {
        slowdown,
        speed_fraction: 1.0 / slowdown,
        elapsed_s: elapsed,
        snapshot,
    }
}

/// One row of Table 1.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Disk row.
    pub disk: DiskRow,
    /// The CP environment (F_cp is `cp.slowdown`).
    pub cp: AvailabilityResult,
    /// The SCP environment (F_scp is `scp.slowdown`).
    pub scp: AvailabilityResult,
    /// Improvement factor F_cp / F_scp.
    pub improvement: f64,
    /// Percentage execution-speed improvement, (F_cp/F_scp − 1) × 100.
    pub pct: f64,
}

impl Table1Row {
    /// JSON form, including both environments' metrics snapshots.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("disk", Json::Str(self.disk.label().into()))
            .with("f_cp", Json::Num(self.cp.slowdown))
            .with("f_scp", Json::Num(self.scp.slowdown))
            .with("improvement", Json::Num(self.improvement))
            .with("pct", Json::Num(self.pct))
            .with("cp", self.cp.to_json())
            .with("scp", self.scp.to_json())
    }
}

/// Reproduces one row of Table 1.
pub fn table1_row(disk: DiskRow) -> Table1Row {
    let exp = Experiment::paper(disk);
    let idle = idle_baseline(&exp);
    let cp = availability(&exp, Method::Cp, idle);
    let scp = availability(&exp, Method::Scp, idle);
    let improvement = cp.slowdown / scp.slowdown;
    Table1Row {
        disk,
        improvement,
        pct: (improvement - 1.0) * 100.0,
        cp,
        scp,
    }
}

/// One row of Table 2.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Disk row.
    pub disk: DiskRow,
    /// The SCP run (throughput is `scp.kb_per_s`).
    pub scp: ThroughputResult,
    /// The CP run (throughput is `cp.kb_per_s`).
    pub cp: ThroughputResult,
    /// Percentage improvement of SCP over CP.
    pub pct: f64,
}

impl Table2Row {
    /// JSON form, including both runs' metrics snapshots.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("disk", Json::Str(self.disk.label().into()))
            .with("scp_kb_per_s", Json::Num(self.scp.kb_per_s))
            .with("cp_kb_per_s", Json::Num(self.cp.kb_per_s))
            .with("pct", Json::Num(self.pct))
            .with("scp", self.scp.to_json())
            .with("cp", self.cp.to_json())
    }
}

/// Reproduces one row of Table 2.
pub fn table2_row(disk: DiskRow) -> Table2Row {
    let exp = Experiment::paper(disk);
    let scp = throughput(&exp, Method::Scp);
    let cp = throughput(&exp, Method::Cp);
    let pct = (scp.kb_per_s / cp.kb_per_s - 1.0) * 100.0;
    Table2Row { disk, scp, cp, pct }
}

/// Renders a markdown-ish table to stdout.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
            .collect();
        println!("  {}", joined.join("  "));
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}
