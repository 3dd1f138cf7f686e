//! Kernel heap bytes per waiting process, measured by a counting
//! allocator.
//!
//! perfbench's serving workloads spawn one client process per request,
//! and each client waits for its arrival time the way a BSD process
//! would: it catches `SIGALRM`, arms an interval timer and calls
//! `pause(2)`. This binary spawns 10k and then 50k such clients, runs the
//! kernel until every one of them is asleep, and checks that the live
//! heap the kernel adds for a client's wait stays small per process and
//! flat as the count grows. The process record itself is allocated at
//! spawn and is not counted here; `process_layout_stays_small` in `kproc`
//! pins its size.
//!
//! It first checks that no kernel state outlives its kernel: a RAM-disk
//! machine that copies a 1 MB file with `scp` returns every heap byte
//! when it is dropped.
//!
//! It is its own test binary with a single test, so nothing else
//! allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use kproc::programs::{util::pattern_check, Scp};
use kproc::{ProcState, Program, Sig, Step, SyscallReq, UserCtx};
use ksim::Dur;
use splice::KernelBuilder;

/// Live heap bytes: the system allocator plus a running total.
struct Counting;

/// A statistic only: it publishes no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` contract is the one this impl must meet; the
// counter only reads sizes and never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            LIVE.fetch_add(new_size, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Live heap bytes a RAM-disk machine leaves behind once it has copied a
/// 1 MB file with `scp` and been dropped.
fn heap_left_after_teardown() -> isize {
    // The two per-thread blocks that outlive a kernel on purpose: the
    // pattern memo at its largest size, and the empty payload's block.
    let warm = pattern_check(1, 0, &vec![0; 64 * 1024]);
    drop((warm, ksim::Bytes::new()));
    let before = LIVE.load(Ordering::Relaxed);
    let mut k = KernelBuilder::paper_machine_ram().build();
    k.setup_file("/d0/src", 1 << 20, 7);
    k.cold_cache();
    let pid = k.spawn(Box::new(Scp::new("/d0/src", "/d1/dst")));
    let horizon = k.horizon(60);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
    assert_eq!(k.verify_pattern_file("/d1/dst", 1 << 20, 7), None);
    drop(k);
    LIVE.load(Ordering::Relaxed) as isize - before as isize
}

/// perfbench's open-loop client up to its wait: catch `SIGALRM`, arm
/// the timer at the arrival time (here beyond the run), `pause(2)`.
struct Waiter {
    st: u8,
}

impl Program for Waiter {
    fn step(&mut self, _ctx: &mut UserCtx) -> Step {
        self.st += 1;
        match self.st {
            1 => Step::Syscall(SyscallReq::Sigaction {
                sig: Sig::Alrm,
                catch: true,
            }),
            2 => Step::Syscall(SyscallReq::SetItimer {
                interval: Dur::from_secs(3600),
            }),
            3 => Step::Syscall(SyscallReq::Pause),
            _ => Step::Exit(0),
        }
    }
}

/// Live heap bytes per process that the kernel gains between spawning
/// `n` clients and all of them waiting in `pause(2)`.
fn bytes_per_waiting_process(n: usize) -> f64 {
    let mut k = KernelBuilder::new().build();
    for _ in 0..n {
        k.spawn(Box::new(Waiter { st: 0 }));
    }
    let before = LIVE.load(Ordering::Relaxed);
    // Every client is runnable until it sleeps in `pause(2)`.
    let horizon = k.horizon(60);
    k.run_until(horizon, |k| !k.procs().any_user_demand());
    let after = LIVE.load(Ordering::Relaxed);
    assert!(
        !k.procs().any_user_demand(),
        "clients still running at {}",
        k.now()
    );
    // The update daemon's callout plus one timer per client.
    assert_eq!(k.pending_callouts(), n + 1);
    (after - before) as f64 / n as f64
}

/// Measured on x86-64: 120.9 B at 10k and 120.2 B at 50k, a 32-byte
/// continuation slot and an 88-byte callout slot for the timer. The gate
/// allows 9 B more; a sleep-index entry per paused process (a hash
/// bucket plus a one-pid `Vec`) costs far more than that.
const MAX_BYTES_PER_WAITER: f64 = 130.0;

#[test]
fn waiting_process_footprint_is_small_and_flat() {
    // First, before anything prints into the captured output.
    let left = heap_left_after_teardown();
    assert_eq!(left, 0, "a dropped kernel left {left} heap bytes behind");
    let small = bytes_per_waiting_process(10_000);
    let large = bytes_per_waiting_process(50_000);
    eprintln!("kernel heap per waiting process: {small:.1} B at 10k, {large:.1} B at 50k");
    for (n, b) in [(10_000, small), (50_000, large)] {
        assert!(
            b <= MAX_BYTES_PER_WAITER,
            "{b:.1} B per waiting process at {n}"
        );
    }
    let spread = (small - large).abs() / small.min(large);
    assert!(
        spread <= 0.10,
        "per-process bytes not flat: {small:.1} B at 10k vs {large:.1} B at 50k"
    );
}
