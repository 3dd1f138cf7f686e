//! Benchmark-owned user programs. They stamp simulated time themselves
//! (`UserCtx::now`, the program's `gettimeofday`), so every latency the
//! benchmark reports is exact per sample rather than a power-of-two
//! histogram bucket.

use std::cell::RefCell;
use std::rc::Rc;

use kproc::programs::util::pattern_check;
use kproc::{Fd, Program, Sig, SockAddr, Step, SyscallReq, SyscallRet, UserCtx};
use ksim::{Dur, SimTime};

/// What the open-loop fleet of one server run observed.
#[derive(Default)]
pub struct ReqLog {
    /// Intended arrival → last byte received, per completed request (ns).
    pub latency_ns: Vec<u64>,
    /// Intended arrival → `connect` issued, per client that connected (ns).
    pub late_ns: Vec<u64>,
    /// Clients that received their whole file byte-exact.
    pub completed: u64,
    /// Clients that ended any other way (errno, short read, mismatch).
    pub failed: u64,
    /// Clients whose bytes failed the pattern check.
    pub mismatches: u64,
    /// Payload bytes received by all clients.
    pub bytes: u64,
    /// Time the last request completed.
    pub last_done: SimTime,
}

impl ReqLog {
    /// Clients that have finished, successfully or not.
    pub fn finished(&self) -> u64 {
        self.completed + self.failed
    }
}

/// Shared handle to one run's [`ReqLog`].
pub type SharedLog = Rc<RefCell<ReqLog>>;

/// One open-loop client: waits for its intended arrival time, connects,
/// sends a zero-byte request, receives `file_bytes` of pattern `seed`,
/// and logs its latency counted from the intended arrival, so time the
/// client spent waiting for the CPU counts against the server.
pub struct OpenLoopClient {
    server: SockAddr,
    file_bytes: u64,
    seed: u64,
    arrival: SimTime,
    log: SharedLog,
    st: u8,
    fd: Option<Fd>,
    got: u64,
}

impl OpenLoopClient {
    /// A client whose request is due at simulated time `arrival`.
    pub fn new(
        server: SockAddr,
        file_bytes: u64,
        seed: u64,
        arrival: SimTime,
        log: SharedLog,
    ) -> OpenLoopClient {
        OpenLoopClient {
            server,
            file_bytes,
            seed,
            arrival,
            log,
            st: 0,
            fd: None,
            got: 0,
        }
    }

    fn fail(&mut self, mismatch: bool) -> Step {
        let mut log = self.log.borrow_mut();
        log.failed += 1;
        log.mismatches += u64::from(mismatch);
        Step::Exit(1)
    }

    fn recv(&self) -> Step {
        Step::Syscall(SyscallReq::Recv {
            fd: self.fd.expect("connected socket"),
            max_len: 64 * 1024,
        })
    }
}

impl Program for OpenLoopClient {
    fn step(&mut self, ctx: &mut UserCtx) -> Step {
        let ret = ctx.ret.take();
        self.st += 1;
        match self.st {
            1 => Step::Syscall(SyscallReq::Sigaction {
                sig: Sig::Alrm,
                catch: true,
            }),
            // Aim the timer at the absolute arrival time: the start-up
            // syscalls of a large fleet must not push arrivals back.
            2 => Step::Syscall(SyscallReq::SetItimer {
                interval: Dur::from_ns(
                    self.arrival
                        .as_ns()
                        .saturating_sub(ctx.now.as_ns())
                        .max(1_000),
                ),
            }),
            3 => Step::Syscall(SyscallReq::Pause),
            4 => Step::Syscall(SyscallReq::SetItimer {
                interval: Dur::ZERO,
            }),
            5 => Step::Syscall(SyscallReq::Socket),
            6 => {
                let Some(fd) = ret.and_then(|r| r.as_fd()) else {
                    return self.fail(false);
                };
                self.fd = Some(fd);
                let late = ctx.now.as_ns().saturating_sub(self.arrival.as_ns());
                self.log.borrow_mut().late_ns.push(late);
                Step::Syscall(SyscallReq::Connect {
                    fd,
                    addr: self.server,
                })
            }
            7 => {
                if ret != Some(SyscallRet::Val(0)) {
                    return self.fail(false);
                }
                Step::Syscall(SyscallReq::Send {
                    fd: self.fd.expect("connected socket"),
                    data: Vec::new(),
                })
            }
            8 => self.recv(),
            _ => {
                // Stay in the receive state for every later datagram.
                self.st = 8;
                let Some(SyscallRet::Data(d)) = ret else {
                    return self.fail(false);
                };
                self.log.borrow_mut().bytes += d.len() as u64;
                if d.is_empty() || pattern_check(self.seed, self.got, &d).is_some() {
                    return self.fail(!d.is_empty());
                }
                self.got += d.len() as u64;
                if self.got < self.file_bytes {
                    return self.recv();
                }
                let mut log = self.log.borrow_mut();
                log.completed += 1;
                log.latency_ns
                    .push(ctx.now.as_ns().saturating_sub(self.arrival.as_ns()));
                log.last_done = log.last_done.max(ctx.now);
                Step::Exit(0)
            }
        }
    }

    fn name(&self) -> &str {
        "openloop-client"
    }
}

/// The §6.2 fixed-work test program (`ops` operations of `op` user CPU
/// each) that also stamps the moment each operation completes.
pub struct TimedCompute {
    ops: u64,
    op: Dur,
    stamps: Rc<RefCell<Vec<SimTime>>>,
}

impl TimedCompute {
    /// The program and the handle its completion stamps appear in (the
    /// first stamp is the program's first step).
    pub fn new(ops: u64, op: Dur) -> (TimedCompute, Rc<RefCell<Vec<SimTime>>>) {
        let stamps = Rc::new(RefCell::new(Vec::with_capacity(ops as usize + 1)));
        let p = TimedCompute {
            ops,
            op,
            stamps: Rc::clone(&stamps),
        };
        (p, stamps)
    }
}

impl Program for TimedCompute {
    fn step(&mut self, ctx: &mut UserCtx) -> Step {
        let mut stamps = self.stamps.borrow_mut();
        stamps.push(ctx.now);
        if (stamps.len() as u64) <= self.ops {
            Step::Compute(self.op)
        } else {
            Step::Exit(0)
        }
    }

    fn name(&self) -> &str {
        "timed-compute"
    }
}
