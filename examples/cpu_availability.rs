//! A miniature of the paper's §6.2 CPU-availability experiment, on the
//! RAM disk: run a CPU-bound test program alone, beside `cp`, and beside
//! `scp`. Slowdown factors come from wall clock (Table 1's definition);
//! the per-PID view comes from [`Kernel::profile`]'s tick accounting,
//! which shows *where* the lost CPU actually went.
//!
//! ```sh
//! cargo run --release --example cpu_availability
//! ```

use khw::DiskProfile;
use kproc::programs::{Cp, CpuBound, Scp, ScpMode};
use ksim::Dur;
use splice::{Kernel, KernelBuilder};

const MB: u64 = 1024 * 1024;

fn boot() -> Kernel {
    let mut k = KernelBuilder::new()
        .disk("d0", DiskProfile::ramdisk())
        .disk("d1", DiskProfile::ramdisk())
        .build();
    k.setup_file("/d0/src", 4 * MB, 5);
    k.cold_cache();
    k
}

struct Run {
    elapsed: f64,
    /// Test-program CPU share of the run, from the tick accounting.
    test_share: f64,
}

fn run(env: &str, copier: Option<Box<dyn kproc::Program>>) -> Run {
    let mut k = boot();
    let t0 = k.now();
    let test = k.spawn(Box::new(CpuBound::new(4_000, Dur::from_ms(1))));
    if let Some(c) = copier {
        k.spawn(c);
    }
    let horizon = k.horizon(600);
    let t1 = k.run_until_exit_of(test, horizon);
    let elapsed = t1.since(t0).as_secs_f64();

    // Per-PID accounting: the test program's CPU ticks over the window,
    // plus kernel time by class (charged to no PID — the asymmetry the
    // paper exploits).
    let prof = k.profile();
    let tp = prof.proc(test.0).expect("test program profiled");
    let test_share = tp.cpu_time().as_ns() as f64 / t1.since(t0).as_ns() as f64;
    println!(
        "  {env:<5} test finished in {elapsed:.3}s; accounted CPU: test {:.0}%, kernel {:.3}s",
        100.0 * test_share,
        prof.kernel_cpu.total().as_secs_f64(),
    );
    let e2e = &k.kstat().stages.end_to_end;
    if let Some(p99) = e2e.p99() {
        println!(
            "        splice block latency p99 ~ {:.0} us over {} blocks",
            p99 as f64 / 1000.0,
            e2e.count(),
        );
    }
    Run {
        elapsed,
        test_share,
    }
}

fn main() {
    println!("CPU availability on the RAM disk (4s of test-program CPU):");
    let idle = run("IDLE", None);
    let cp = run(
        "CP",
        Some(Box::new(Cp::with_options(
            "/d0/src", "/d1/dst", 8192, true, 10_000,
        ))),
    );
    let scp = run(
        "SCP",
        Some(Box::new(Scp::with_options(
            "/d0/src",
            "/d1/dst",
            ScpMode::Async,
            10_000,
        ))),
    );
    println!();
    println!(
        "  F_cp  = {:.2}  (test at {:.0}% of idle speed; accounted share {:.0}%)",
        cp.elapsed / idle.elapsed,
        100.0 * idle.elapsed / cp.elapsed,
        100.0 * cp.test_share,
    );
    println!(
        "  F_scp = {:.2}  (test at {:.0}% of idle speed; accounted share {:.0}%)",
        scp.elapsed / idle.elapsed,
        100.0 * idle.elapsed / scp.elapsed,
        100.0 * scp.test_share,
    );
    println!("  improvement factor = {:.2}", cp.elapsed / scp.elapsed);
    println!();
    println!("paper (Table 1, RAM row): F_cp 2.00, F_scp 1.25, factor 1.6");
}
