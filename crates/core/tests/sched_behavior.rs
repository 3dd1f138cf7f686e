//! Scheduler and CPU-engine behaviour at the kernel level: fairness,
//! wakeup preemption, priority decay, and the softwork budget.

use khw::DiskProfile;
use kproc::programs::{Cp, CpuBound, Scp};
use kproc::{Fd, Pid, Program, Sig, SockAddr, Step, SyscallReq, UserCtx};
use ksim::Dur;
use splice::{Kernel, KernelBuilder};

fn elapsed_of(k: &Kernel, pid: Pid) -> f64 {
    let p = k.procs().must(pid);
    p.ended
        .expect("process finished")
        .since(p.started)
        .as_secs_f64()
}

#[test]
fn two_cpu_bound_processes_share_fairly() {
    let mut k = KernelBuilder::new().build();
    let a = k.spawn(Box::new(CpuBound::new(1_000, Dur::from_ms(1))));
    let b = k.spawn(Box::new(CpuBound::new(1_000, Dur::from_ms(1))));
    let horizon = k.horizon(60);
    k.run_to_exit(horizon);
    let (ta, tb) = (elapsed_of(&k, a), elapsed_of(&k, b));
    // Both need 1 s of CPU; sharing one CPU they finish around 2 s,
    // within a quantum of each other.
    assert!((ta - tb).abs() < 0.1, "unfair split: {ta:.3} vs {tb:.3}");
    assert!(ta > 1.9 && ta < 2.2, "elapsed {ta:.3}");
    // Quantum preemptions happened.
    assert!(k.procs().must(a).acct.icsw > 10);
}

#[test]
fn single_process_pays_only_clock_overhead() {
    let mut k = KernelBuilder::new().build();
    let a = k.spawn(Box::new(CpuBound::new(2_000, Dur::from_ms(1))));
    let horizon = k.horizon(60);
    k.run_to_exit(horizon);
    let t = elapsed_of(&k, a);
    // 2 s of work; hardclock at HZ=256 costs 12 us per 3.9 ms ≈ 0.3 %.
    assert!(t > 2.0 && t < 2.02, "elapsed {t:.4}");
}

#[test]
fn io_bound_process_preempts_a_fresh_cpu_hog() {
    // An I/O-bound process with low decayed CPU usage should make
    // progress at its natural I/O rate even next to a CPU hog.
    let mut k = KernelBuilder::paper_machine(DiskProfile::rz58()).build();
    k.setup_file("/d0/src", 1024 * 1024, 1);
    k.cold_cache();
    let cp = k.spawn(Box::new(Cp::new("/d0/src", "/d1/dst")));
    k.spawn(Box::new(CpuBound::new(20_000, Dur::from_ms(1))));
    let horizon = k.horizon(120);
    k.run_until_exit_of(cp, horizon);
    let t = elapsed_of(&k, cp);
    // Alone the copy takes ~0.5 s; with the hog it must still finish in a
    // few seconds (preemption working), not at one block per quantum
    // (which would be ~128 * 40 ms ≈ 5+ s of pure queueing delays on
    // reads alone).
    assert!(t < 4.0, "cp starved: {t:.2}s");
    assert!(k.metrics().sched.preemptions > 0, "no wakeup preemption");
}

#[test]
fn splice_defers_to_user_demand_but_uses_idle_cpu() {
    // Contended: splice throughput collapses to roughly the budget share.
    let contended = {
        let mut k = KernelBuilder::paper_machine(DiskProfile::ramdisk()).build();
        k.setup_file("/d0/src", 2 * 1024 * 1024, 2);
        k.cold_cache();
        let scp = k.spawn(Box::new(Scp::new("/d0/src", "/d1/dst")));
        k.spawn(Box::new(CpuBound::new(30_000, Dur::from_ms(1))));
        let horizon = k.horizon(600);
        k.run_until_exit_of(scp, horizon);
        elapsed_of(&k, scp)
    };
    // Idle: the same splice gets the whole CPU.
    let idle = {
        let mut k = KernelBuilder::paper_machine(DiskProfile::ramdisk()).build();
        k.setup_file("/d0/src", 2 * 1024 * 1024, 2);
        k.cold_cache();
        let scp = k.spawn(Box::new(Scp::new("/d0/src", "/d1/dst")));
        let horizon = k.horizon(600);
        k.run_until_exit_of(scp, horizon);
        elapsed_of(&k, scp)
    };
    assert!(
        contended > idle * 2.5,
        "budgeted splice must slow under contention: idle {idle:.2}s vs contended {contended:.2}s"
    );
}

#[test]
fn interrupt_load_extends_user_chunks() {
    // A CPU-bound process beside a SCSI copy finishes late by roughly the
    // interrupt + pseudo-DMA time the copy generated.
    let mut k = KernelBuilder::paper_machine(DiskProfile::rz58()).build();
    k.setup_file("/d0/src", 2 * 1024 * 1024, 3);
    k.cold_cache();
    let test = k.spawn(Box::new(CpuBound::new(3_000, Dur::from_ms(1))));
    k.spawn(Box::new(Scp::new("/d0/src", "/d1/dst")));
    let horizon = k.horizon(120);
    k.run_until_exit_of(test, horizon);
    let t = elapsed_of(&k, test);
    assert!(t > 3.05, "interrupt load must be visible: {t:.3}");
    assert!(t < 4.5, "but bounded: {t:.3}");
}

#[test]
fn accounting_adds_up() {
    let mut k = KernelBuilder::paper_machine(DiskProfile::ramdisk()).build();
    k.setup_file("/d0/src", 1024 * 1024, 4);
    k.cold_cache();
    let cp = k.spawn(Box::new(Cp::new("/d0/src", "/d1/dst")));
    let horizon = k.horizon(120);
    k.run_to_exit(horizon);
    let acct = k.procs().must(cp).acct;
    // cp's time is almost all system time (copies run in the kernel).
    assert!(acct.sys_time > Dur::from_ms(100));
    assert!(acct.user_time < acct.sys_time);
    assert!(acct.syscalls >= 128 * 2, "a read+write per block");
    // And the wall clock covers both.
    let t = elapsed_of(&k, cp);
    assert!(t >= (acct.sys_time + acct.user_time).as_secs_f64());
}

#[test]
fn update_daemon_flushes_delayed_writes() {
    // A partial (delayed) write with no fsync becomes durable once the
    // update daemon has run.
    let mut k = KernelBuilder::new()
        .disk("d", DiskProfile::ramdisk())
        .tune(|cfg| cfg.update_interval = Some(Dur::from_secs(5)))
        .build();
    // Create the file durably first (Writer fsyncs)…
    let w = k.spawn(Box::new(kproc::programs::Writer::new(
        "/d/f", 1000, 1000, 7,
    )));
    let horizon = k.horizon(60);
    k.run_until_exit_of(w, horizon);
    // …then dirty a block through a program that never fsyncs.

    struct DirtyWrite {
        st: u32,
    }
    impl kproc::Program for DirtyWrite {
        fn step(&mut self, ctx: &mut kproc::UserCtx) -> kproc::Step {
            use kproc::{OpenFlags, Step, SyscallReq};
            // Open (no trunc), partial write, exit: leaves a delayed
            // write behind, with no fsync to flush it.
            self.st += 1;
            match self.st {
                1 => Step::Syscall(SyscallReq::Open {
                    path: "/d/f".into(),
                    flags: OpenFlags {
                        read: false,
                        write: true,
                        create: false,
                        trunc: false,
                    },
                }),
                2 => {
                    let fd = ctx.take_ret().as_fd().unwrap();
                    Step::Syscall(SyscallReq::Write {
                        fd,
                        data: vec![0xEE; 100].into(),
                    })
                }
                3 => {
                    ctx.take_ret();
                    Step::Exit(0)
                }
                _ => Step::Exit(0),
            }
        }
    }
    let d = k.spawn(Box::new(DirtyWrite { st: 0 }));
    k.run_until_exit_of(d, k.horizon(60));
    // Run past one update period without any process demanding flushes.
    let target = k.horizon(12);
    k.run_until(target, |_| false);
    assert!(
        k.metrics().update_flushes > 0,
        "update daemon never flushed"
    );
    // The partial write is now on the medium.
    let got = k.dump_file("/d/f");
    assert_eq!(&got[..100], &[0xEE; 100]);
}

/// Plays a fixed list of steps, ignoring what each returns, then exits.
struct Steps(std::vec::IntoIter<Step>);

impl Program for Steps {
    fn step(&mut self, _ctx: &mut UserCtx) -> Step {
        self.0.next().unwrap_or(Step::Exit(0))
    }
}

fn steps(v: Vec<Step>) -> Box<dyn Program> {
    Box::new(Steps(v.into_iter()))
}

#[test]
fn an_exiting_process_takes_its_interval_timer_with_it() {
    // A process exits with a 4 ms periodic timer armed while the
    // receive soft work of its sibling's flood of a bound loopback socket
    // still fills every tick's budget, so a timer expiry waits in the
    // deferred queue past the exit: it must not re-arm the timer for the
    // dead pid.
    let mut k = KernelBuilder::new().build();
    let quiescent = k.pending_callouts();
    let mut flood = vec![
        Step::Syscall(SyscallReq::Socket),
        Step::Syscall(SyscallReq::Bind { fd: Fd(3), port: 7 }),
        Step::Syscall(SyscallReq::Socket),
        Step::Syscall(SyscallReq::Connect {
            fd: Fd(4),
            addr: SockAddr { host: 1, port: 7 },
        }),
    ];
    flood.extend((0..400).map(|_| {
        Step::Syscall(SyscallReq::Send {
            fd: Fd(4),
            data: vec![0; 512],
        })
    }));
    k.spawn(steps(flood));
    let timer = k.spawn(steps(vec![
        Step::Syscall(SyscallReq::Sigaction {
            sig: Sig::Alrm,
            catch: true,
        }),
        Step::Syscall(SyscallReq::SetItimer {
            interval: Dur::from_ms(4),
        }),
        Step::Compute(Dur::from_ms(30)),
    ]));
    let horizon = k.horizon(10);
    k.run_to_exit(horizon);
    assert!(
        k.procs().must(timer).itimer.is_none(),
        "exit left the timer armed"
    );
    for _ in 0..2 {
        let later = k.horizon(30);
        k.run_until(later, |_| false);
        assert_eq!(
            k.pending_callouts(),
            quiescent,
            "a dead process's timer is still armed at {}",
            k.now()
        );
    }
}
