//! Simulator-speed measurement procedures.
//!
//! These measure *host* events-per-second of the simulator itself — the
//! quantity the timing-wheel callout, the slab event queue and its near
//! set, the kernel's chunk and hardclock registers, and copy-on-write
//! buffer areas exist to improve. The `simspeed`
//! binary pins their numbers into `BENCH_simspeed.json`.
//!
//! The churn loops keep a large pending population (the regime where the
//! pre-wheel `BTreeMap` callout degraded) and then drive a steady
//! schedule/cancel/expire mix through it. Rates count every mutation
//! (schedule, cancel, and the amortised expire) so the numbers compare
//! directly with the recorded pre-refactor baseline.

use std::time::Instant;

use ksim::{Callout, Dur, EventQueue, SimTime};

/// One measured loop: operation count over wall-clock seconds.
#[derive(Clone, Copy, Debug)]
pub struct Rate {
    /// Operations performed: mutations (schedule + cancel + expire
    /// passes) in the churn loops, run-loop iterations in
    /// [`cpu_bound_e2e`].
    pub ops: u64,
    /// Wall-clock seconds for the measured window.
    pub secs: f64,
}

impl Rate {
    /// Operations per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.secs
    }

    /// Host nanoseconds per operation.
    pub fn ns_per_op(&self) -> f64 {
        self.secs * 1e9 / self.ops as f64
    }
}

/// Churn rate of the hierarchical timing wheel: schedule/cancel/expire
/// against a standing population of `pending` callouts with delays
/// spread over 512 ticks. Each iteration schedules one callout, cancels
/// a pseudo-random standing one, and every 64 iterations advances the
/// clock one tick and expires it.
pub fn callout_churn_wheel(pending: usize, ops: u64) -> Rate {
    let mut co = Callout::new();
    let mut ids = Vec::with_capacity(pending);
    for i in 0..pending as u64 {
        ids.push(co.schedule(0, 1 + i % 512, i));
    }
    let start = Instant::now();
    let mut tick = 0u64;
    for i in 0..ops {
        let id = co.schedule(tick, 1 + i % 512, i);
        let slot = (i as usize * 7919) % ids.len();
        co.cancel(ids[slot]);
        ids[slot] = id;
        if i % 64 == 0 {
            tick += 1;
            std::hint::black_box(co.expire(tick).len());
        }
    }
    Rate {
        ops: 3 * ops,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// Schedule/cancel/pop churn against a standing population of `pending`
/// events spread over 4096 µs of virtual time.
pub fn event_churn(pending: usize, ops: u64) -> Rate {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut ids = Vec::with_capacity(pending);
    for i in 0..pending as u64 {
        ids.push(q.schedule(SimTime::ZERO + Dur::from_us(1 + i % 4096), i));
    }
    let start = Instant::now();
    for i in 0..ops {
        let at = q.now() + Dur::from_us(1 + i % 4096);
        let id = q.schedule(at, i);
        let slot = (i as usize * 7919) % ids.len();
        q.cancel(ids[slot]);
        ids[slot] = id;
        if i % 4 == 0 {
            if let Some((_, v)) = q.pop() {
                std::hint::black_box(v);
            }
        }
    }
    Rate {
        ops: 3 * ops,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// Live events [`event_mix`] peaks at: a chunk completion, the clock
/// tick and up to four applies.
pub const EVENT_MIX_PEAK: usize = 6;

/// A small-population queue mix: a periodic 1 ms event that queues 0–4
/// short apply events behind it, and a periodic 3.906 ms (256 Hz) event,
/// so 2–6 events are live at once. It exercises the near set alone; it
/// is not the kernel's queue shape, since the kernel holds its chunk
/// completions and hardclock in registers beside the queue (see
/// [`cpu_bound_e2e`]). Runs until `pops` events have fired; every pop
/// and every schedule counts as one op.
pub fn event_mix(pops: u64) -> Rate {
    #[derive(Clone, Copy)]
    enum Ev {
        Chunk,
        Tick,
        Apply,
    }
    let chunk = Dur::from_us(1000);
    let tick = Dur::from_ns(3_906_250);
    let mut q = EventQueue::new();
    q.schedule(SimTime::ZERO + chunk, Ev::Chunk);
    q.schedule(SimTime::ZERO + tick, Ev::Tick);
    let mut ops = 2;
    let mut chunks = 0u64;
    let start = Instant::now();
    for _ in 0..pops {
        let (now, ev) = q.pop().expect("the chunk and tick events re-arm");
        ops += 1;
        match std::hint::black_box(ev) {
            Ev::Chunk => {
                q.schedule(now + chunk, Ev::Chunk);
                let applies = chunks % (EVENT_MIX_PEAK as u64 - 1);
                for k in 1..=applies {
                    q.schedule(now + Dur::from_us(50 * k), Ev::Apply);
                }
                ops += 1 + applies;
                chunks += 1;
            }
            Ev::Tick => {
                q.schedule(now + tick, Ev::Tick);
                ops += 1;
            }
            Ev::Apply => {}
        }
    }
    Rate {
        ops,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// A [`kproc::programs::CpuBound`] running alone for `sim_secs` of
/// simulated CPU in 1 ms operations on the paper's RAM-disk machine:
/// chunk completions, their hardclock re-arms and ticks, the events the
/// kernel fires from its registers rather than its queue. Counts
/// run-loop iterations (`run_until` predicate polls: every fired event
/// plus one per call).
///
/// # Panics
///
/// Panics if the program fails to exit cleanly.
pub fn cpu_bound_e2e(sim_secs: u64) -> Rate {
    let mut k = splice::KernelBuilder::paper_machine_ram().build();
    let pid = k.spawn(Box::new(kproc::programs::CpuBound::with_total(
        Dur::from_secs(sim_secs),
    )));
    let horizon = k.horizon(2 * sim_secs);
    let mut iters = 0u64;
    let start = Instant::now();
    k.run_until(horizon, |k| {
        iters += 1;
        k.procs().all_exited()
    });
    let secs = start.elapsed().as_secs_f64();
    assert!(
        matches!(k.procs().must(pid).state, kproc::ProcState::Exited(0)),
        "CPU-bound speed run failed to exit cleanly"
    );
    Rate { ops: iters, secs }
}

/// One end-to-end measurement: simulated blocks copied per wall-clock
/// second.
#[derive(Clone, Copy, Debug)]
pub struct E2eRate {
    /// Simulated 8 KB blocks copied across all measured runs.
    pub blocks: u64,
    /// Wall-clock seconds for the measured runs.
    pub secs: f64,
}

impl E2eRate {
    /// Simulated blocks copied per wall-clock second.
    pub fn blocks_per_sec(&self) -> f64 {
        self.blocks as f64 / self.secs
    }
}

/// One cold-cache copy of a `bytes`-sized file across the RAM-disk
/// machine by the program `copy` builds. Returns the number of 8 KB
/// blocks copied.
///
/// # Panics
///
/// Panics if the copy fails to exit cleanly.
fn ram_copy_run(bytes: u64, copy: fn(&str, &str) -> Box<dyn kproc::Program>) -> u64 {
    let mut k = splice::KernelBuilder::paper_machine_ram().build();
    k.setup_file("/d0/src", bytes, 5);
    k.cold_cache();
    let pid = k.spawn(copy("/d0/src", "/d1/dst"));
    let horizon = k.horizon(300);
    k.run_to_exit(horizon);
    assert!(
        matches!(k.procs().must(pid).state, kproc::ProcState::Exited(0)),
        "RAM-disk copy speed run failed to exit cleanly"
    );
    bytes / 8192
}

/// `warmup` unmeasured runs (to warm the allocator and fault in
/// code), then `runs` measured cold-cache copies of `bytes` each.
fn ram_copy_e2e(
    warmup: u32,
    runs: u32,
    bytes: u64,
    copy: fn(&str, &str) -> Box<dyn kproc::Program>,
) -> E2eRate {
    for _ in 0..warmup {
        std::hint::black_box(ram_copy_run(bytes, copy));
    }
    let start = Instant::now();
    let mut blocks = 0u64;
    for _ in 0..runs {
        blocks += ram_copy_run(bytes, copy);
    }
    E2eRate {
        blocks,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// End-to-end simulator speed of the splice path: `warmup` unmeasured
/// runs (to warm the allocator and fault in code), then `runs`
/// measured cold-cache `scp` copies of `bytes` each.
pub fn scp_ram_e2e(warmup: u32, runs: u32, bytes: u64) -> E2eRate {
    ram_copy_e2e(warmup, runs, bytes, |src, dst| {
        Box::new(kproc::programs::Scp::new(src, dst))
    })
}

/// End-to-end simulator speed of the read/write path, measured like
/// [`scp_ram_e2e`] with `cp` copies: every block crosses the modelled
/// user boundary twice.
pub fn cp_ram_e2e(warmup: u32, runs: u32, bytes: u64) -> E2eRate {
    ram_copy_e2e(warmup, runs, bytes, |src, dst| {
        Box::new(kproc::programs::Cp::new(src, dst))
    })
}
