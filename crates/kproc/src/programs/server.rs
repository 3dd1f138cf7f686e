//! The million-connection server scenario: a listening splice server
//! that serves one file per connection, and the shared pieces of the
//! open-loop load offered to it.
//!
//! Two serving modes reproduce the paper's comparison at connection
//! scale: one `splice(2)` per connection (a 1993 `sendfile`), and a
//! user-space `cp`-relay baseline (`read` into a user buffer, `write`
//! back out to the connection — the double-copy path splice exists to
//! remove).
//!
//! The load is **open-loop** ([`open_loop_delays`]: seeded arrivals
//! that never depend on how fast the server answers). No process plays
//! the clients: the kernel's traffic source (`splice::ServeScenario`)
//! offers the load at the link and tallies each fetch into a
//! [`ScenarioStats`] that the server shares.

use std::cell::RefCell;
use std::rc::Rc;

use ksim::{Dur, Hist};

use crate::program::{Program, Step, UserCtx};
use crate::types::{Fd, OpenFlags, Sig, SpliceReq, SyscallReq, SyscallRet};

/// Aggregated results of one server scenario run, shared by the server
/// and the load (single-threaded simulation: `Rc<RefCell>` is the idiom
/// the endpoint pairs already use for result sharing).
#[derive(Default)]
pub struct ScenarioStats {
    /// Fetches that received their whole file, byte-exact.
    pub completed: u64,
    /// Connections the server finished serving.
    pub served: u64,
    /// Reply payload bytes received (counted even when the datagram
    /// then fails the pattern check, so lossy-run byte accounting stays
    /// exact).
    pub bytes_received: u64,
    /// Fetches that saw a pattern mismatch (a bug on a loss-free link;
    /// an expected truncation artifact when the link drops datagrams).
    pub mismatches: u64,
    /// Arrival→last-byte response latency, nanoseconds.
    pub latency: Hist,
}

/// Shared handle to a run's [`ScenarioStats`].
pub type SharedScenario = Rc<RefCell<ScenarioStats>>;

/// A fresh stats block for one scenario run.
pub fn scenario_stats() -> SharedScenario {
    Rc::new(RefCell::new(ScenarioStats::default()))
}

/// splitmix64, for the arrival draw (same generator as the link model).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws `n` arrival offsets uniformly over `window`, from `seed`.
/// Deterministic and ≥ 1 µs each (a process that sleeps to its arrival
/// on an interval timer would disarm the timer with a zero interval).
pub fn open_loop_delays(n: usize, window: Dur, seed: u64) -> Vec<Dur> {
    let span = window.as_ns().max(1);
    (0..n as u64)
        .map(|i| {
            let draw = splitmix64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            Dur::from_ns((draw % span).max(1_000))
        })
        .collect()
}

/// How the server moves file bytes onto each connection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServeMode {
    /// One synchronous `splice(2)` per connection.
    Splice,
    /// User-space baseline: `read` 8 KB into a user buffer, `write` it to
    /// the connection (`send` without flags) — two copies per block.
    CpRelay,
}

/// Chunk the cp-relay baseline reads and sends.
const RELAY_CHUNK: usize = 8 * 1024;

/// The file server: listen, then serve exactly `n_conns` connections
/// with `file_bytes` of `path` each, via the configured [`ServeMode`].
/// Exit code 0 when all connections served; 2 on an unexpected syscall
/// failure.
pub struct SpliceServer {
    port: u16,
    path: String,
    file_bytes: u64,
    n_conns: usize,
    backlog: u32,
    mode: ServeMode,
    /// Optional pause between `listen` and the first `accept` (lets the
    /// backlog-overflow scenario pile requests onto the backlog).
    warmup: Option<Dur>,
    stats: SharedScenario,
    st: u32,
    lfd: Option<Fd>,
    ffd: Option<Fd>,
    conn: Option<Fd>,
    served: usize,
    sent: u64,
}

impl SpliceServer {
    /// Builds a server for `n_conns` connections on `port`.
    pub fn new(
        port: u16,
        path: &str,
        file_bytes: u64,
        n_conns: usize,
        backlog: u32,
        mode: ServeMode,
        stats: SharedScenario,
    ) -> SpliceServer {
        SpliceServer {
            port,
            path: path.to_string(),
            file_bytes,
            n_conns,
            backlog,
            mode,
            warmup: None,
            stats,
            st: 0,
            lfd: None,
            ffd: None,
            conn: None,
            served: 0,
            sent: 0,
        }
    }

    /// Delays the first `accept` by `d` after `listen`.
    pub fn warmup(mut self, d: Dur) -> SpliceServer {
        self.warmup = Some(d);
        self
    }

    /// Opens the served file (one descriptor, rewound per connection).
    fn open_phase(&mut self) -> Step {
        self.st = 10;
        Step::Syscall(SyscallReq::Open {
            path: self.path.clone(),
            flags: OpenFlags::RDONLY,
        })
    }

    /// One connection finished: count it, then accept the next or wind
    /// down.
    fn conn_done(&mut self) -> Step {
        self.served += 1;
        self.stats.borrow_mut().served += 1;
        if self.served < self.n_conns {
            self.st = 11;
            Step::Syscall(SyscallReq::Accept {
                fd: self.lfd.unwrap(),
            })
        } else {
            self.st = 15;
            Step::Syscall(SyscallReq::Close(self.lfd.unwrap()))
        }
    }
}

impl Program for SpliceServer {
    fn step(&mut self, ctx: &mut UserCtx) -> Step {
        match self.st {
            0 => {
                self.st = 1;
                Step::Syscall(SyscallReq::Socket)
            }
            1 => {
                self.lfd = ctx.take_ret().as_fd();
                self.st = 2;
                Step::Syscall(SyscallReq::Bind {
                    fd: self.lfd.unwrap(),
                    port: self.port,
                })
            }
            2 => {
                ctx.take_ret();
                self.st = 3;
                Step::Syscall(SyscallReq::Listen {
                    fd: self.lfd.unwrap(),
                    backlog: self.backlog,
                })
            }
            3 => {
                if ctx.take_ret() != SyscallRet::Val(0) {
                    return Step::Exit(2);
                }
                if self.warmup.is_some() {
                    self.st = 4;
                    Step::Syscall(SyscallReq::Sigaction {
                        sig: Sig::Alrm,
                        catch: true,
                    })
                } else {
                    self.open_phase()
                }
            }
            4 => {
                ctx.take_ret();
                self.st = 5;
                Step::Syscall(SyscallReq::SetItimer {
                    interval: self.warmup.unwrap(),
                })
            }
            5 => {
                ctx.take_ret();
                self.st = 6;
                Step::Syscall(SyscallReq::Pause)
            }
            6 => {
                ctx.take_ret();
                self.st = 7;
                Step::Syscall(SyscallReq::SetItimer {
                    interval: Dur::ZERO,
                })
            }
            7 => {
                ctx.take_ret();
                self.open_phase()
            }

            // ---- one connection at a time ------------------------------
            10 => {
                self.ffd = ctx.take_ret().as_fd();
                if self.n_conns == 0 {
                    self.st = 15;
                    return Step::Syscall(SyscallReq::Close(self.lfd.unwrap()));
                }
                self.st = 11;
                Step::Syscall(SyscallReq::Accept {
                    fd: self.lfd.unwrap(),
                })
            }
            11 => {
                self.conn = ctx.take_ret().as_fd();
                if self.conn.is_none() {
                    return Step::Exit(2);
                }
                // The file fd is reused: rewind it for this connection.
                self.st = if self.mode == ServeMode::Splice {
                    12
                } else {
                    20
                };
                Step::Syscall(SyscallReq::Lseek {
                    fd: self.ffd.unwrap(),
                    pos: 0,
                })
            }
            12 => {
                ctx.take_ret();
                self.st = 13;
                Step::Syscall(
                    SpliceReq::new(self.ffd.unwrap(), self.conn.unwrap())
                        .bytes(self.file_bytes)
                        .req(),
                )
            }
            13 => {
                if ctx.take_ret() != SyscallRet::Val(self.file_bytes as i64) {
                    return Step::Exit(2);
                }
                self.st = 14;
                Step::Syscall(SyscallReq::Close(self.conn.unwrap()))
            }
            14 => {
                ctx.take_ret();
                self.conn_done()
            }
            15 => {
                ctx.take_ret();
                Step::Exit(0)
            }

            // ---- cp-relay inner loop ----------------------------------
            20 => {
                ctx.take_ret();
                self.sent = 0;
                self.st = 21;
                Step::Syscall(SyscallReq::Read {
                    fd: self.ffd.unwrap(),
                    len: RELAY_CHUNK,
                })
            }
            21 => {
                let SyscallRet::Data(d) = ctx.take_ret() else {
                    return Step::Exit(2);
                };
                if d.is_empty() {
                    // EOF before file_bytes: short file, still a served
                    // connection.
                    self.st = 14;
                    return Step::Syscall(SyscallReq::Close(self.conn.unwrap()));
                }
                self.sent += d.len() as u64;
                self.st = 22;
                Step::Syscall(SyscallReq::Write {
                    fd: self.conn.unwrap(),
                    data: d,
                })
            }
            22 => {
                ctx.take_ret();
                if self.sent >= self.file_bytes {
                    self.st = 14;
                    Step::Syscall(SyscallReq::Close(self.conn.unwrap()))
                } else {
                    self.st = 21;
                    Step::Syscall(SyscallReq::Read {
                        fd: self.ffd.unwrap(),
                        len: RELAY_CHUNK,
                    })
                }
            }

            _ => unreachable!("server state {}", self.st),
        }
    }
}

#[cfg(test)]
mod tests {
    use ksim::SimTime;

    use crate::types::SigSet;

    use super::*;

    fn ctx_with(ret: SyscallRet) -> UserCtx {
        UserCtx {
            ret: Some(ret),
            signals: SigSet::EMPTY,
            now: SimTime::ZERO,
        }
    }

    #[test]
    fn delays_are_deterministic_positive_and_bounded() {
        let w = Dur::from_ms(100);
        let a = open_loop_delays(1000, w, 7);
        let b = open_loop_delays(1000, w, 7);
        assert_eq!(a, b);
        assert_ne!(a, open_loop_delays(1000, w, 8));
        assert!(a.iter().all(|d| !d.is_zero() && *d <= w));
        // Spread: not all in one half of the window.
        let half = a.iter().filter(|d| d.as_ns() < w.as_ns() / 2).count();
        assert!(half > 250 && half < 750, "poorly spread: {half}/1000");
    }

    #[test]
    fn server_listens_then_serves_one_splice_conn() {
        let stats = scenario_stats();
        let mut s = SpliceServer::new(
            80,
            "/d0/f",
            8192,
            1,
            8,
            ServeMode::Splice,
            Rc::clone(&stats),
        );
        let mut ctx = UserCtx {
            ret: None,
            signals: SigSet::EMPTY,
            now: SimTime::ZERO,
        };
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Socket)
        ));
        ctx.ret = Some(SyscallRet::NewFd(Fd(3)));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Bind {
                fd: Fd(3),
                port: 80
            })
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Listen {
                fd: Fd(3),
                backlog: 8
            })
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Open { .. })
        ));
        ctx.ret = Some(SyscallRet::NewFd(Fd(4)));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Accept { fd: Fd(3) })
        ));
        ctx.ret = Some(SyscallRet::NewFd(Fd(5)));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Lseek { fd: Fd(4), pos: 0 })
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        let sp = s.step(&mut ctx);
        assert!(
            matches!(
                sp,
                Step::Syscall(SyscallReq::Splice { req })
                    if req.src == Fd(4) && req.dst == Fd(5)
            ),
            "got {sp:?}"
        );
        ctx.ret = Some(SyscallRet::Val(8192));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Close(Fd(5)))
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        // Last connection served: close the listener, exit clean.
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Close(Fd(3)))
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        assert!(matches!(s.step(&mut ctx), Step::Exit(0)));
        assert_eq!(stats.borrow().served, 1);
    }

    #[test]
    fn cp_relay_reads_then_writes() {
        let stats = scenario_stats();
        let mut s = SpliceServer::new(
            80,
            "/d0/f",
            16384,
            1,
            4,
            ServeMode::CpRelay,
            Rc::clone(&stats),
        );
        let mut ctx = ctx_with(SyscallRet::Val(0));
        ctx.ret = None;
        s.step(&mut ctx); // Socket
        ctx.ret = Some(SyscallRet::NewFd(Fd(3)));
        s.step(&mut ctx); // Bind
        ctx.ret = Some(SyscallRet::Val(0));
        s.step(&mut ctx); // Listen
        ctx.ret = Some(SyscallRet::Val(0));
        s.step(&mut ctx); // Open
        ctx.ret = Some(SyscallRet::NewFd(Fd(4)));
        s.step(&mut ctx); // Accept
        ctx.ret = Some(SyscallRet::NewFd(Fd(5)));
        s.step(&mut ctx); // Lseek
        ctx.ret = Some(SyscallRet::Val(0));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Read {
                fd: Fd(4),
                len: RELAY_CHUNK
            })
        ));
        ctx.ret = Some(SyscallRet::Data(vec![1; RELAY_CHUNK].into()));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Write { fd: Fd(5), .. })
        ));
        ctx.ret = Some(SyscallRet::Val(RELAY_CHUNK as i64));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Read { .. })
        ));
        ctx.ret = Some(SyscallRet::Data(vec![1; RELAY_CHUNK].into()));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Write { .. })
        ));
        ctx.ret = Some(SyscallRet::Val(RELAY_CHUNK as i64));
        // 16384 bytes moved: close the connection.
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Close(Fd(5)))
        ));
    }
}
