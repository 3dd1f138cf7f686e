//! `ring_scp`: batched splice copies over a splice ring.
//!
//! Copies `n` source files to `n` destinations. In ring mode (depth ≥ 1)
//! the program opens every descriptor pair up front, creates one ring,
//! and then moves the whole set in waves: up to `depth` submissions per
//! `ring_submit` crossing, one `ring_reap` crossing per wave. In legacy
//! mode (depth 0) it performs the one-at-a-time baseline instead —
//! open/open/splice/close/close per pair, five crossings each — so a
//! bench can compare crossings-per-byte across the two APIs with the
//! same workload.

use crate::program::{Program, Step, UserCtx};
use crate::types::{Fd, OpenFlags, SpliceReq, SyscallReq, SyscallRet};

#[derive(Debug)]
enum St {
    Start,
    // Ring mode.
    OpenSrc(usize),
    OpenDst(usize),
    CreateRing,
    Submit,
    Reap,
    Close(usize),
    // Legacy one-at-a-time mode.
    LOpenSrc(usize),
    LOpenDst(usize),
    LSplice(usize),
    LCloseSrc(usize),
    LCloseDst(usize),
    Done,
    Failed,
}

/// Batched splice copier: `n` file pairs through one splice ring.
pub struct RingScp {
    src_prefix: String,
    dst_prefix: String,
    n: usize,
    depth: u32,
    st: St,
    ring: u64,
    src_fds: Vec<Fd>,
    dst_fds: Vec<Fd>,
    submitted: usize,
    reaped: usize,
    wave: u32,
    bytes_copied: u64,
}

impl RingScp {
    /// Copies `{src_prefix}{i}` → `{dst_prefix}{i}` for `i` in `0..n`.
    /// `depth` ≥ 1 selects ring mode with that ring depth; `depth` 0
    /// selects the legacy sequential-splice baseline.
    pub fn new(src_prefix: &str, dst_prefix: &str, n: usize, depth: u32) -> RingScp {
        assert!(n > 0);
        RingScp {
            src_prefix: src_prefix.to_string(),
            dst_prefix: dst_prefix.to_string(),
            n,
            depth,
            st: St::Start,
            ring: 0,
            src_fds: Vec::new(),
            dst_fds: Vec::new(),
            submitted: 0,
            reaped: 0,
            wave: 0,
            bytes_copied: 0,
        }
    }

    /// Bytes reported moved across all completions.
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied
    }

    /// Completed file copies.
    pub fn copies_done(&self) -> usize {
        self.reaped
    }

    fn fail(&mut self) -> Step {
        self.st = St::Failed;
        Step::Exit(1)
    }

    fn open(&self, src: bool, i: usize) -> Step {
        let (prefix, flags) = if src {
            (&self.src_prefix, OpenFlags::RDONLY)
        } else {
            (&self.dst_prefix, OpenFlags::CREATE)
        };
        Step::Syscall(SyscallReq::Open {
            path: format!("{prefix}{i}"),
            flags,
        })
    }

    /// The next wave of submissions: up to `depth` pairs.
    fn submit_wave(&mut self) -> Step {
        let end = (self.submitted + self.depth as usize).min(self.n);
        let sqes = (self.submitted..end)
            .map(|i| SpliceReq::new(self.src_fds[i], self.dst_fds[i]).sqe(i as u64))
            .collect::<Vec<_>>();
        self.wave = sqes.len() as u32;
        self.st = St::Submit;
        Step::Syscall(SyscallReq::RingSubmit {
            ring: self.ring,
            sqes,
        })
    }
}

impl Program for RingScp {
    fn step(&mut self, ctx: &mut UserCtx) -> Step {
        match self.st {
            St::Start => {
                if self.depth == 0 {
                    self.st = St::LOpenSrc(0);
                    return self.open(true, 0);
                }
                self.st = St::OpenSrc(0);
                self.open(true, 0)
            }

            // ----- ring mode ------------------------------------------------
            St::OpenSrc(i) => {
                match ctx.take_ret() {
                    SyscallRet::NewFd(fd) => self.src_fds.push(fd),
                    _ => return self.fail(),
                }
                self.st = St::OpenDst(i);
                self.open(false, i)
            }
            St::OpenDst(i) => {
                match ctx.take_ret() {
                    SyscallRet::NewFd(fd) => self.dst_fds.push(fd),
                    _ => return self.fail(),
                }
                if i + 1 < self.n {
                    self.st = St::OpenSrc(i + 1);
                    return self.open(true, i + 1);
                }
                self.st = St::CreateRing;
                Step::Syscall(SyscallReq::RingCreate {
                    depth: self.depth,
                    sigio: false,
                })
            }
            St::CreateRing => {
                match ctx.take_ret() {
                    SyscallRet::Val(id) if id > 0 => self.ring = id as u64,
                    _ => return self.fail(),
                }
                self.submit_wave()
            }
            St::Submit => {
                match ctx.take_ret() {
                    SyscallRet::Val(accepted) if accepted as u32 == self.wave => {
                        self.submitted += accepted as usize;
                    }
                    _ => return self.fail(),
                }
                self.st = St::Reap;
                Step::Syscall(SyscallReq::RingReap {
                    ring: self.ring,
                    min: self.wave,
                })
            }
            St::Reap => {
                match ctx.take_ret() {
                    SyscallRet::Cqes(cqes) => {
                        for cqe in &cqes {
                            if cqe.outcome.error.is_some() {
                                return self.fail();
                            }
                            self.bytes_copied += cqe.outcome.bytes_moved;
                        }
                        self.reaped += cqes.len();
                    }
                    _ => return self.fail(),
                }
                if self.submitted < self.n {
                    return self.submit_wave();
                }
                self.st = St::Close(0);
                Step::Syscall(SyscallReq::Close(self.src_fds[0]))
            }
            St::Close(i) => {
                ctx.take_ret();
                // Closes interleave src then dst for each pair.
                let next = i + 1;
                if next < 2 * self.n {
                    self.st = St::Close(next);
                    let fd = if next % 2 == 0 {
                        self.src_fds[next / 2]
                    } else {
                        self.dst_fds[next / 2]
                    };
                    return Step::Syscall(SyscallReq::Close(fd));
                }
                self.st = St::Done;
                Step::Exit(0)
            }

            // ----- legacy one-at-a-time mode --------------------------------
            St::LOpenSrc(i) => {
                match ctx.take_ret() {
                    SyscallRet::NewFd(fd) => self.src_fds.push(fd),
                    _ => return self.fail(),
                }
                self.st = St::LOpenDst(i);
                self.open(false, i)
            }
            St::LOpenDst(i) => {
                match ctx.take_ret() {
                    SyscallRet::NewFd(fd) => self.dst_fds.push(fd),
                    _ => return self.fail(),
                }
                self.st = St::LSplice(i);
                Step::splice(SpliceReq::new(self.src_fds[i], self.dst_fds[i]))
            }
            St::LSplice(i) => {
                match ctx.take_ret() {
                    SyscallRet::Val(n) if n >= 0 => self.bytes_copied += n as u64,
                    _ => return self.fail(),
                }
                self.st = St::LCloseSrc(i);
                Step::Syscall(SyscallReq::Close(self.src_fds[i]))
            }
            St::LCloseSrc(i) => {
                ctx.take_ret();
                self.st = St::LCloseDst(i);
                Step::Syscall(SyscallReq::Close(self.dst_fds[i]))
            }
            St::LCloseDst(i) => {
                ctx.take_ret();
                self.reaped += 1;
                if i + 1 < self.n {
                    self.st = St::LOpenSrc(i + 1);
                    return self.open(true, i + 1);
                }
                self.st = St::Done;
                Step::Exit(0)
            }

            St::Done => Step::Exit(0),
            St::Failed => Step::Exit(1),
        }
    }

    fn name(&self) -> &str {
        "ring_scp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{SpliceCqe, SpliceOutcome};

    #[test]
    fn ring_mode_batches_submissions() {
        let mut p = RingScp::new("/d0/f", "/d1/c", 3, 2);
        let mut ctx = UserCtx::default();
        // Six opens.
        for fd in 3..9 {
            let s = p.step(&mut ctx);
            assert!(matches!(s, Step::Syscall(SyscallReq::Open { .. })));
            ctx.ret = Some(SyscallRet::NewFd(Fd(fd)));
        }
        // Ring create.
        let s = p.step(&mut ctx);
        assert!(matches!(
            s,
            Step::Syscall(SyscallReq::RingCreate {
                depth: 2,
                sigio: false
            })
        ));
        ctx.ret = Some(SyscallRet::Val(1));
        // First wave: two SQEs.
        let s = p.step(&mut ctx);
        match s {
            Step::Syscall(SyscallReq::RingSubmit { ring: 1, ref sqes }) => {
                assert_eq!(sqes.len(), 2);
                assert_eq!(sqes[0].user_data, 0);
                assert_eq!(sqes[1].user_data, 1);
            }
            other => panic!("expected submit, got {other:?}"),
        }
        ctx.ret = Some(SyscallRet::Val(2));
        let s = p.step(&mut ctx);
        assert!(matches!(
            s,
            Step::Syscall(SyscallReq::RingReap { ring: 1, min: 2 })
        ));
        let cqe = |ud| SpliceCqe {
            user_data: ud,
            outcome: SpliceOutcome {
                bytes_moved: 100,
                error: None,
            },
        };
        ctx.ret = Some(SyscallRet::Cqes(vec![cqe(0), cqe(1)]));
        // Second wave: the remaining pair.
        let s = p.step(&mut ctx);
        match s {
            Step::Syscall(SyscallReq::RingSubmit { ring: 1, ref sqes }) => {
                assert_eq!(sqes.len(), 1)
            }
            other => panic!("expected submit, got {other:?}"),
        }
        ctx.ret = Some(SyscallRet::Val(1));
        let s = p.step(&mut ctx);
        assert!(matches!(
            s,
            Step::Syscall(SyscallReq::RingReap { ring: 1, min: 1 })
        ));
        ctx.ret = Some(SyscallRet::Cqes(vec![cqe(2)]));
        // Six closes, then exit.
        for _ in 0..6 {
            let s = p.step(&mut ctx);
            assert!(matches!(s, Step::Syscall(SyscallReq::Close(_))));
            ctx.ret = Some(SyscallRet::Val(0));
        }
        assert_eq!(p.step(&mut ctx), Step::Exit(0));
        assert_eq!(p.bytes_copied(), 300);
        assert_eq!(p.copies_done(), 3);
    }

    #[test]
    fn legacy_mode_is_one_at_a_time() {
        let mut p = RingScp::new("/d0/f", "/d1/c", 2, 0);
        let mut ctx = UserCtx::default();
        for _ in 0..2 {
            let s = p.step(&mut ctx);
            assert!(matches!(s, Step::Syscall(SyscallReq::Open { .. })));
            ctx.ret = Some(SyscallRet::NewFd(Fd(3)));
            let s = p.step(&mut ctx);
            assert!(matches!(s, Step::Syscall(SyscallReq::Open { .. })));
            ctx.ret = Some(SyscallRet::NewFd(Fd(4)));
            let s = p.step(&mut ctx);
            assert!(matches!(s, Step::Syscall(SyscallReq::Splice { .. })));
            ctx.ret = Some(SyscallRet::Val(50));
            let s = p.step(&mut ctx);
            assert!(matches!(s, Step::Syscall(SyscallReq::Close(_))));
            ctx.ret = Some(SyscallRet::Val(0));
            let s = p.step(&mut ctx);
            assert!(matches!(s, Step::Syscall(SyscallReq::Close(_))));
            ctx.ret = Some(SyscallRet::Val(0));
        }
        assert_eq!(p.step(&mut ctx), Step::Exit(0));
        assert_eq!(p.bytes_copied(), 100);
    }
}
