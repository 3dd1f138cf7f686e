//! `scp`: the splice-based copy program (the SCP environment, §6.1).
//!
//! Opens source and destination, then moves the whole file with a single
//! `splice(src, dst, SPLICE_EOF)`. Two completion disciplines exist, per
//! §3: a *synchronous* splice blocks the caller until EOF; with `FASYNC`
//! set on a descriptor the call returns immediately and completion is
//! announced with `SIGIO`, which the program waits for in `pause()`.

use crate::program::{Program, Step, UserCtx};
use crate::types::{FcntlCmd, Fd, OpenFlags, Sig, SpliceReq, SyscallReq, SyscallRet};

/// How `scp` waits for the transfer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScpMode {
    /// Synchronous splice: the process sleeps inside the system call.
    Sync,
    /// `FASYNC` + `SIGIO`: the call returns immediately; the process
    /// pauses until the completion signal (the paper's headline mode).
    Async,
}

#[derive(Debug)]
enum St {
    Start,
    OpenSrc,
    OpenDst,
    Sigaction,
    Fcntl,
    Splice,
    Pause,
    CloseSrc,
    CloseDst,
    Done,
    Failed,
}

/// The splice copy program.
pub struct Scp {
    src: String,
    dst: String,
    mode: ScpMode,
    repeat: u32,
    st: St,
    src_fd: Option<Fd>,
    dst_fd: Option<Fd>,
    copies_done: u32,
    bytes_copied: u64,
}

impl Scp {
    /// A single asynchronous splice copy (the paper's configuration).
    pub fn new(src: &str, dst: &str) -> Scp {
        Scp::with_options(src, dst, ScpMode::Async, 1)
    }

    /// Full control of mode and repetition.
    pub fn with_options(src: &str, dst: &str, mode: ScpMode, repeat: u32) -> Scp {
        assert!(repeat > 0);
        Scp {
            src: src.to_string(),
            dst: dst.to_string(),
            mode,
            repeat,
            st: St::Start,
            src_fd: None,
            dst_fd: None,
            copies_done: 0,
            bytes_copied: 0,
        }
    }

    /// Bytes reported moved across completed copies.
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

impl Program for Scp {
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
                match self.mode {
                    ScpMode::Sync => {
                        self.st = St::Splice;
                        Step::splice(SpliceReq::new(self.src_fd.unwrap(), self.dst_fd.unwrap()))
                    }
                    ScpMode::Async => {
                        self.st = St::Sigaction;
                        Step::Syscall(SyscallReq::Sigaction {
                            sig: Sig::Io,
                            catch: true,
                        })
                    }
                }
            }
            St::Sigaction => {
                ctx.take_ret();
                self.st = St::Fcntl;
                Step::Syscall(SyscallReq::Fcntl {
                    fd: self.src_fd.unwrap(),
                    cmd: FcntlCmd::SetAsync(true),
                })
            }
            St::Fcntl => {
                ctx.take_ret();
                self.st = St::Splice;
                Step::splice(SpliceReq::new(self.src_fd.unwrap(), self.dst_fd.unwrap()))
            }
            St::Splice => match ctx.take_ret() {
                SyscallRet::Val(n) if n >= 0 => match self.mode {
                    ScpMode::Sync => {
                        self.bytes_copied += n as u64;
                        self.st = St::CloseSrc;
                        Step::Syscall(SyscallReq::Close(self.src_fd.take().unwrap()))
                    }
                    ScpMode::Async => {
                        // Async splice returns immediately; wait for SIGIO.
                        if ctx.got_signal(Sig::Io) {
                            // Completion raced ahead of us.
                            self.st = St::CloseSrc;
                            return Step::Syscall(SyscallReq::Close(self.src_fd.take().unwrap()));
                        }
                        self.st = St::Pause;
                        Step::Syscall(SyscallReq::Pause)
                    }
                },
                _ => self.fail(),
            },
            St::Pause => {
                ctx.take_ret();
                if !ctx.got_signal(Sig::Io) {
                    // Some other signal woke us; pause again.
                    return Step::Syscall(SyscallReq::Pause);
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
        "scp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SpliceLen;

    #[test]
    fn sync_mode_single_splice() {
        let mut scp = Scp::with_options("/s", "/d", ScpMode::Sync, 1);
        let mut ctx = UserCtx::default();
        scp.step(&mut ctx);
        ctx.ret = Some(SyscallRet::NewFd(Fd(3)));
        scp.step(&mut ctx);
        ctx.ret = Some(SyscallRet::NewFd(Fd(4)));
        let s = scp.step(&mut ctx);
        assert!(matches!(
            s,
            Step::Syscall(SyscallReq::Splice {
                req: SpliceReq {
                    src: Fd(3),
                    dst: Fd(4),
                    len: SpliceLen::Eof,
                    ..
                }
            })
        ));
        ctx.ret = Some(SyscallRet::Val(8 << 20));
        let s = scp.step(&mut ctx);
        assert!(matches!(s, Step::Syscall(SyscallReq::Close(Fd(3)))));
        ctx.ret = Some(SyscallRet::Val(0));
        scp.step(&mut ctx);
        ctx.ret = Some(SyscallRet::Val(0));
        assert_eq!(scp.step(&mut ctx), Step::Exit(0));
        assert_eq!(scp.bytes_copied(), 8 << 20);
    }

    #[test]
    fn async_mode_sets_fasync_and_pauses() {
        let mut scp = Scp::new("/s", "/d");
        let mut ctx = UserCtx::default();
        scp.step(&mut ctx);
        ctx.ret = Some(SyscallRet::NewFd(Fd(3)));
        scp.step(&mut ctx);
        ctx.ret = Some(SyscallRet::NewFd(Fd(4)));
        let s = scp.step(&mut ctx);
        assert!(matches!(
            s,
            Step::Syscall(SyscallReq::Sigaction {
                sig: Sig::Io,
                catch: true
            })
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        let s = scp.step(&mut ctx);
        assert!(matches!(
            s,
            Step::Syscall(SyscallReq::Fcntl {
                fd: Fd(3),
                cmd: FcntlCmd::SetAsync(true)
            })
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        let s = scp.step(&mut ctx);
        assert!(matches!(s, Step::Syscall(SyscallReq::Splice { .. })));
        // Returns immediately (0), program pauses.
        ctx.ret = Some(SyscallRet::Val(0));
        let s = scp.step(&mut ctx);
        assert!(matches!(s, Step::Syscall(SyscallReq::Pause)));
        // SIGIO arrives: pause returns, program closes down.
        ctx.ret = Some(SyscallRet::Val(0));
        ctx.signals = Sig::Io.into();
        let s = scp.step(&mut ctx);
        assert!(matches!(s, Step::Syscall(SyscallReq::Close(_))));
    }

    #[test]
    fn spurious_wakeup_pauses_again() {
        let mut scp = Scp::new("/s", "/d");
        let mut ctx = UserCtx::default();
        scp.step(&mut ctx);
        ctx.ret = Some(SyscallRet::NewFd(Fd(3)));
        scp.step(&mut ctx);
        ctx.ret = Some(SyscallRet::NewFd(Fd(4)));
        scp.step(&mut ctx);
        ctx.ret = Some(SyscallRet::Val(0));
        scp.step(&mut ctx);
        ctx.ret = Some(SyscallRet::Val(0));
        scp.step(&mut ctx);
        ctx.ret = Some(SyscallRet::Val(0));
        scp.step(&mut ctx); // pause
                            // Woken by SIGALRM instead of SIGIO.
        ctx.ret = Some(SyscallRet::Val(0));
        ctx.signals = Sig::Alrm.into();
        let s = scp.step(&mut ctx);
        assert!(matches!(s, Step::Syscall(SyscallReq::Pause)));
    }
}
