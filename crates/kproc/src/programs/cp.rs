//! `cp`: the read/write baseline copy program (the CP environment, §6.1).
//!
//! A faithful copy loop: `open`, `open|creat|trunc`, then `read`/`write`
//! through a user buffer in `bufsize` chunks until EOF, `fsync` the
//! destination (the experiment "ensured write-through behavior … by
//! calling fsync() on the destination file for CP"), close both. Every
//! byte passes through user space twice — that is the copy splice removes.

use ksim::{Bytes, Dur};

use crate::program::{Program, Step, UserCtx};
use crate::types::{Fd, OpenFlags, SyscallReq, SyscallRet};

#[derive(Debug)]
enum St {
    Start,
    OpenSrc,
    OpenDst,
    Read,
    Write,
    Fsync,
    CloseSrc,
    CloseDst,
    Done,
    Failed,
}

/// The read/write copy program.
pub struct Cp {
    src: String,
    dst: String,
    bufsize: usize,
    do_fsync: bool,
    /// Copies to perform back-to-back (sustained-contention runs).
    repeat: u32,
    /// Small user-mode cost per loop iteration (buffer management in cp
    /// itself).
    loop_overhead: Dur,
    st: St,
    src_fd: Option<Fd>,
    dst_fd: Option<Fd>,
    pending: Option<Bytes>,
    copies_done: u32,
    bytes_copied: u64,
}

impl Cp {
    /// A single copy with an 8 KB buffer and fsync, like the experiment.
    pub fn new(src: &str, dst: &str) -> Cp {
        Cp::with_options(src, dst, 8192, true, 1)
    }

    /// Full control over buffer size, fsync, and repetition count.
    pub fn with_options(src: &str, dst: &str, bufsize: usize, do_fsync: bool, repeat: u32) -> Cp {
        assert!(bufsize > 0 && repeat > 0);
        Cp {
            src: src.to_string(),
            dst: dst.to_string(),
            bufsize,
            do_fsync,
            repeat,
            loop_overhead: Dur::from_us(20),
            st: St::Start,
            src_fd: None,
            dst_fd: None,
            pending: None,
            copies_done: 0,
            bytes_copied: 0,
        }
    }

    /// Total bytes moved across all completed copies.
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied
    }

    /// Completed copy passes.
    pub fn copies_done(&self) -> u32 {
        self.copies_done
    }

    fn fail(&mut self) -> Step {
        self.st = St::Failed;
        Step::Exit(1)
    }
}

impl Program for Cp {
    fn step(&mut self, ctx: &mut UserCtx) -> Step {
        match self.st {
            St::Start => {
                self.st = St::OpenSrc;
                Step::Syscall(SyscallReq::Open {
                    path: self.src.clone(),
                    flags: OpenFlags::RDONLY,
                })
            }
            St::OpenSrc => {
                match ctx.take_ret() {
                    SyscallRet::NewFd(fd) => self.src_fd = Some(fd),
                    _ => return self.fail(),
                }
                self.st = St::OpenDst;
                Step::Syscall(SyscallReq::Open {
                    path: self.dst.clone(),
                    flags: OpenFlags::CREATE,
                })
            }
            St::OpenDst => {
                match ctx.take_ret() {
                    SyscallRet::NewFd(fd) => self.dst_fd = Some(fd),
                    _ => return self.fail(),
                }
                self.st = St::Read;
                Step::Syscall(SyscallReq::Read {
                    fd: self.src_fd.unwrap(),
                    len: self.bufsize,
                })
            }
            St::Read => match ctx.take_ret() {
                SyscallRet::Data(d) if d.is_empty() => {
                    if self.do_fsync {
                        self.st = St::Fsync;
                        Step::Syscall(SyscallReq::Fsync(self.dst_fd.unwrap()))
                    } else {
                        self.st = St::CloseSrc;
                        Step::Syscall(SyscallReq::Close(self.src_fd.take().unwrap()))
                    }
                }
                SyscallRet::Data(d) => {
                    self.bytes_copied += d.len() as u64;
                    self.pending = Some(d);
                    self.st = St::Write;
                    // User-mode buffer management cost between the read
                    // completing and the write being issued; the next step
                    // (with `pending` set) issues the write itself.
                    Step::Compute(self.loop_overhead)
                }
                _ => self.fail(),
            },
            St::Write => {
                // Entered twice: once after the overhead compute (no ret),
                // once after the write completes.
                if let Some(data) = self.pending.take() {
                    return Step::Syscall(SyscallReq::Write {
                        fd: self.dst_fd.unwrap(),
                        data,
                    });
                }
                match ctx.take_ret() {
                    SyscallRet::Val(n) if n > 0 => {
                        self.st = St::Read;
                        Step::Syscall(SyscallReq::Read {
                            fd: self.src_fd.unwrap(),
                            len: self.bufsize,
                        })
                    }
                    _ => self.fail(),
                }
            }
            St::Fsync => {
                match ctx.take_ret() {
                    SyscallRet::Val(_) => {}
                    _ => return self.fail(),
                }
                self.st = St::CloseSrc;
                Step::Syscall(SyscallReq::Close(self.src_fd.take().unwrap()))
            }
            St::CloseSrc => {
                ctx.take_ret();
                self.st = St::CloseDst;
                Step::Syscall(SyscallReq::Close(self.dst_fd.take().unwrap()))
            }
            St::CloseDst => {
                ctx.take_ret();
                self.copies_done += 1;
                if self.copies_done < self.repeat {
                    self.st = St::Start;
                    // Re-enter immediately; the next step reopens.
                    self.step(ctx)
                } else {
                    self.st = St::Done;
                    Step::Exit(0)
                }
            }
            St::Done => Step::Exit(0),
            St::Failed => Step::Exit(1),
        }
    }

    fn name(&self) -> &str {
        "cp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the program with canned kernel responses, checking the
    /// syscall sequence of one whole copy.
    #[test]
    fn issues_classic_copy_sequence() {
        let mut cp = Cp::new("/src", "/dst");
        let mut ctx = UserCtx::default();

        let s = cp.step(&mut ctx);
        assert!(matches!(s, Step::Syscall(SyscallReq::Open { ref path, .. }) if path == "/src"));
        ctx.ret = Some(SyscallRet::NewFd(Fd(3)));

        let s = cp.step(&mut ctx);
        assert!(
            matches!(s, Step::Syscall(SyscallReq::Open { ref path, flags }) if path == "/dst" && flags.create)
        );
        ctx.ret = Some(SyscallRet::NewFd(Fd(4)));

        let s = cp.step(&mut ctx);
        assert!(matches!(
            s,
            Step::Syscall(SyscallReq::Read {
                fd: Fd(3),
                len: 8192
            })
        ));

        // One block, then EOF.
        ctx.ret = Some(SyscallRet::Data(vec![9u8; 8192].into()));
        let s = cp.step(&mut ctx);
        assert!(matches!(s, Step::Compute(_)), "loop overhead after read");
        let s = cp.step(&mut ctx);
        let Step::Syscall(SyscallReq::Write { fd: Fd(4), data }) = s else {
            panic!("expected write, got {s:?}")
        };
        assert_eq!(data.len(), 8192);

        ctx.ret = Some(SyscallRet::Val(8192));
        let s = cp.step(&mut ctx);
        assert!(matches!(s, Step::Syscall(SyscallReq::Read { .. })));

        ctx.ret = Some(SyscallRet::Data(Bytes::new())); // EOF
        let s = cp.step(&mut ctx);
        assert!(matches!(s, Step::Syscall(SyscallReq::Fsync(Fd(4)))));

        ctx.ret = Some(SyscallRet::Val(0));
        let s = cp.step(&mut ctx);
        assert!(matches!(s, Step::Syscall(SyscallReq::Close(Fd(3)))));
        ctx.ret = Some(SyscallRet::Val(0));
        let s = cp.step(&mut ctx);
        assert!(matches!(s, Step::Syscall(SyscallReq::Close(Fd(4)))));
        ctx.ret = Some(SyscallRet::Val(0));
        assert_eq!(cp.step(&mut ctx), Step::Exit(0));
        assert_eq!(cp.bytes_copied(), 8192);
        assert_eq!(cp.copies_done(), 1);
    }

    #[test]
    fn open_failure_exits_nonzero() {
        let mut cp = Cp::new("/missing", "/dst");
        let mut ctx = UserCtx::default();
        cp.step(&mut ctx);
        ctx.ret = Some(SyscallRet::Err(crate::types::Errno::Enoent));
        assert_eq!(cp.step(&mut ctx), Step::Exit(1));
    }

    #[test]
    fn repeat_reopens() {
        let mut cp = Cp::with_options("/s", "/d", 4096, false, 2);
        let mut ctx = UserCtx::default();
        // Copy 1: open, open, read -> EOF immediately, close, close.
        cp.step(&mut ctx);
        ctx.ret = Some(SyscallRet::NewFd(Fd(3)));
        cp.step(&mut ctx);
        ctx.ret = Some(SyscallRet::NewFd(Fd(4)));
        cp.step(&mut ctx);
        ctx.ret = Some(SyscallRet::Data(Bytes::new()));
        cp.step(&mut ctx); // close src
        ctx.ret = Some(SyscallRet::Val(0));
        cp.step(&mut ctx); // close dst
        ctx.ret = Some(SyscallRet::Val(0));
        // Second copy begins with a fresh open of the source.
        let s = cp.step(&mut ctx);
        assert!(matches!(s, Step::Syscall(SyscallReq::Open { ref path, .. }) if path == "/s"));
    }
}
