//! A file writer: creates a file through the normal `write(2)` path.
//!
//! Exercises block allocation, copyin, and delayed writes — used by tests
//! and by harnesses that want the source file produced "the hard way"
//! rather than with the setup-only direct store access.

use crate::program::{Program, Step, UserCtx};
use crate::programs::util::pattern_bytes;
use crate::types::{Fd, OpenFlags, SyscallReq, SyscallRet};

/// Writes `total` pattern bytes to `path` in `chunk`-byte writes, then
/// fsyncs and closes.
pub struct Writer {
    path: String,
    total: u64,
    chunk: usize,
    seed: u64,
    st: u32,
    fd: Option<Fd>,
    written: u64,
}

impl Writer {
    /// A pattern writer.
    pub fn new(path: &str, total: u64, chunk: usize, seed: u64) -> Writer {
        assert!(chunk > 0);
        Writer {
            path: path.to_string(),
            total,
            chunk,
            seed,
            st: 0,
            fd: None,
            written: 0,
        }
    }

    /// Bytes written so far.
    pub fn written(&self) -> u64 {
        self.written
    }
}

impl Program for Writer {
    fn step(&mut self, ctx: &mut UserCtx) -> Step {
        match self.st {
            0 => {
                self.st = 1;
                Step::Syscall(SyscallReq::Open {
                    path: self.path.clone(),
                    flags: OpenFlags::CREATE,
                })
            }
            1 => {
                self.fd = ctx.take_ret().as_fd();
                if self.fd.is_none() {
                    return Step::Exit(1);
                }
                self.st = 2;
                self.step(ctx)
            }
            2 => {
                if self.written >= self.total {
                    self.st = 3;
                    return Step::Syscall(SyscallReq::Fsync(self.fd.unwrap()));
                }
                let n = self.chunk.min((self.total - self.written) as usize);
                let data = pattern_bytes(self.seed, self.written, n).into();
                self.st = 4;
                Step::Syscall(SyscallReq::Write {
                    fd: self.fd.unwrap(),
                    data,
                })
            }
            4 => {
                match ctx.take_ret() {
                    SyscallRet::Val(n) if n > 0 => self.written += n as u64,
                    _ => return Step::Exit(1),
                }
                self.st = 2;
                self.step(ctx)
            }
            3 => {
                ctx.take_ret();
                self.st = 5;
                Step::Syscall(SyscallReq::Close(self.fd.take().unwrap()))
            }
            5 => {
                ctx.take_ret();
                Step::Exit(0)
            }
            _ => Step::Exit(0),
        }
    }

    fn name(&self) -> &str {
        "writer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_in_chunks_then_fsyncs() {
        let mut w = Writer::new("/f", 10_000, 4096, 1);
        let mut ctx = UserCtx::default();
        w.step(&mut ctx);
        ctx.ret = Some(SyscallRet::NewFd(Fd(3)));
        // 4096 + 4096 + 1808.
        let s = w.step(&mut ctx);
        let Step::Syscall(SyscallReq::Write { data, .. }) = s else {
            panic!()
        };
        assert_eq!(data.len(), 4096);
        ctx.ret = Some(SyscallRet::Val(4096));
        let s = w.step(&mut ctx);
        let Step::Syscall(SyscallReq::Write { data, .. }) = s else {
            panic!()
        };
        assert_eq!(data.len(), 4096);
        ctx.ret = Some(SyscallRet::Val(4096));
        let s = w.step(&mut ctx);
        let Step::Syscall(SyscallReq::Write { data, .. }) = s else {
            panic!()
        };
        assert_eq!(data.len(), 1808);
        ctx.ret = Some(SyscallRet::Val(1808));
        let s = w.step(&mut ctx);
        assert!(matches!(s, Step::Syscall(SyscallReq::Fsync(_))));
        ctx.ret = Some(SyscallRet::Val(0));
        let s = w.step(&mut ctx);
        assert!(matches!(s, Step::Syscall(SyscallReq::Close(_))));
        ctx.ret = Some(SyscallRet::Val(0));
        assert_eq!(w.step(&mut ctx), Step::Exit(0));
        assert_eq!(w.written(), 10_000);
    }

    #[test]
    fn pattern_is_position_correct() {
        let mut w = Writer::new("/f", 8192, 4096, 9);
        let mut ctx = UserCtx::default();
        w.step(&mut ctx);
        ctx.ret = Some(SyscallRet::NewFd(Fd(3)));
        let Step::Syscall(SyscallReq::Write { data: d1, .. }) = w.step(&mut ctx) else {
            panic!()
        };
        ctx.ret = Some(SyscallRet::Val(4096));
        let Step::Syscall(SyscallReq::Write { data: d2, .. }) = w.step(&mut ctx) else {
            panic!()
        };
        assert_eq!(d1, pattern_bytes(9, 0, 4096));
        assert_eq!(d2, pattern_bytes(9, 4096, 4096));
    }
}
