//! Related-work baselines (§7 of the paper), for comparison benches.
//!
//! * **\[PCM91\] ioctl handle passing** — "Pasieka et al. suggest the UNIX
//!   ioctl be used to pass handles between source and destination devices,
//!   referring to kernel-level data objects. Their scheme decouples data
//!   movement from the application but requires user process execution to
//!   effect a data transfer between devices." Implemented as a pair of
//!   system calls: `HandleRead` pins one block's data in a kernel handle
//!   (no `copyout`), `HandleWrite` writes a handle to the destination (no
//!   `copyin`). The user process drives every block, so syscall and
//!   scheduling overhead remain even though the copies are gone.
//! * **Memory-mapped copy** — the shared-memory school (Govindan &
//!   Anderson's memory-mapped streams; Forin et al.'s mapped devices):
//!   both files are mapped and the process `memcpy`s between the mappings.
//!   No per-block system calls, but every untouched page costs a fault
//!   (kernel entry + cache fill) and the copy itself runs on the user's
//!   clock. `MmapFault` models the kernel half (faults + cache traffic);
//!   the program charges the user-mode `memcpy` as compute.
//!
//! Both baselines run against the same filesystem/cache/disk substrate as
//! `cp` and `scp`, so the benches compare data-path structure, not
//! substrate luck.

use kbuf::BufId;
use kproc::{Errno, Fd, OpenFlags, Program, Step, SyscallReq, SyscallRet, UserCtx};
use ksim::Dur;

use crate::kernel::{IoCtx, Kernel};
use crate::objects::{FileId, FileObj};
use crate::syscalls::{BlockRead, Cont, SyscallOutcome, WriteCont};

impl Kernel {
    /// `HandleRead`: pin the next block at the descriptor's offset in a
    /// kernel handle. Returns the handle (> 0), 0 at EOF. `held` is the
    /// buffer kept across a biowait, on resume.
    pub(crate) fn do_handle_read_resume(
        &mut self,
        fid: FileId,
        held: Option<BufId>,
        base: Dur,
    ) -> SyscallOutcome {
        let m = self.cfg.machine.clone();
        let bs = self.cfg.block_size as usize;
        let Some(of) = self.files.get(fid) else {
            return SyscallOutcome::Done {
                cpu: base,
                ret: SyscallRet::Err(Errno::Ebadf),
            };
        };
        let FileObj::File { disk, ino } = of.obj else {
            return SyscallOutcome::Done {
                cpu: base,
                ret: SyscallRet::Err(Errno::Enotsup),
            };
        };
        let offset = of.offset;
        let size = self.disks[disk].fs.size(ino);
        if offset >= size {
            return SyscallOutcome::Done {
                cpu: base,
                ret: SyscallRet::Val(0),
            };
        }
        let lblk = offset / bs as u64;
        let boff = (offset % bs as u64) as usize;
        let take = (bs - boff).min((size - offset) as usize);
        let mut cpu = base;
        let read = match held {
            Some(buf) => self.biowait_end(buf, &mut cpu).map(BlockRead::Held),
            None => {
                let Some(pblk) = self.disks[disk].fs.bmap(ino, lblk) else {
                    return SyscallOutcome::Done {
                        cpu: base,
                        ret: SyscallRet::Err(Errno::Einval),
                    };
                };
                cpu += m.buf_op;
                self.read_block(self.disks[disk].dev, pblk, &mut cpu)
            }
        };
        let buf = match read {
            Ok(BlockRead::Held(buf)) => buf,
            Ok(BlockRead::Sleep { chan, hold }) => {
                let cont = Cont::HandleRead {
                    fid,
                    wait_buf: hold,
                };
                return SyscallOutcome::Block { cpu, chan, cont };
            }
            Err(e) => {
                return SyscallOutcome::Done {
                    cpu,
                    ret: SyscallRet::Err(e),
                }
            }
        };
        // The whole point: the data stays in the kernel. A small
        // bookkeeping cost, no copyout.
        let data = self.cache.data(buf).view(boff, take);
        cpu += m.buf_op;
        let mut fx = Vec::new();
        self.cache.brelse(buf, &mut fx);
        cpu += self.apply_cache_effects(fx, IoCtx::Process);
        let handle = self.next_handle;
        self.next_handle += 1;
        self.handles.insert(handle, data);
        self.files.get_mut(fid).unwrap().offset += take as u64;
        SyscallOutcome::Done {
            cpu,
            ret: SyscallRet::Val(handle),
        }
    }

    /// `HandleWrite`: write a handle's data at the descriptor's offset,
    /// without a `copyin`.
    pub(crate) fn do_handle_write(
        &mut self,
        fid: FileId,
        handle: i64,
        base: Dur,
    ) -> SyscallOutcome {
        let Some(data) = self.handles.remove(&handle) else {
            return SyscallOutcome::Done {
                cpu: base,
                ret: SyscallRet::Err(Errno::Einval),
            };
        };
        let cont = WriteCont {
            fid,
            data,
            done: 0,
            rmw_buf: None,
            kernel_data: true,
        };
        self.do_write(cont, base)
    }

    /// `MmapFault`: the kernel half of copying `len` mapped bytes — page
    /// faults on both mappings plus the cache traffic they imply. The
    /// data lands in the destination cache blocks here (the user `memcpy`
    /// "through the mapping"); its CPU time is charged by the program as
    /// compute. `held` is the source buffer kept across a biowait, on
    /// resume.
    pub(crate) fn do_mmap_fault_resume(
        &mut self,
        src_fid: FileId,
        dst_fid: FileId,
        len: usize,
        held: Option<BufId>,
    ) -> SyscallOutcome {
        let m = self.cfg.machine.clone();
        let bs = self.cfg.block_size as usize;
        let len = len.min(bs);
        // Fault entry instead of syscall entry.
        let pages = len.div_ceil(m.page_size) as u64;
        let base = m.page_fault * pages * 2;

        // Read the source block through the cache (a major fault).
        let (sdisk, sino) = match self.files.get(src_fid).map(|f| f.obj) {
            Some(FileObj::File { disk, ino }) => (disk, ino),
            _ => {
                return SyscallOutcome::Done {
                    cpu: m.page_fault,
                    ret: SyscallRet::Err(Errno::Ebadf),
                }
            }
        };
        let offset = self.files.get(src_fid).unwrap().offset;
        let size = self.disks[sdisk].fs.size(sino);
        if offset >= size {
            return SyscallOutcome::Done {
                cpu: m.page_fault,
                ret: SyscallRet::Val(0),
            };
        }
        let take = len.min((size - offset) as usize);
        let lblk = offset / bs as u64;
        let mut cpu = base;
        let read = match held {
            Some(buf) => self.biowait_end(buf, &mut cpu).map(BlockRead::Held),
            None => {
                let Some(pblk) = self.disks[sdisk].fs.bmap(sino, lblk) else {
                    return SyscallOutcome::Done {
                        cpu: base,
                        ret: SyscallRet::Err(Errno::Einval),
                    };
                };
                self.read_block(self.disks[sdisk].dev, pblk, &mut cpu)
            }
        };
        let buf = match read {
            Ok(BlockRead::Held(buf)) => buf,
            Ok(BlockRead::Sleep { chan, hold }) => {
                let cont = Cont::MmapFault {
                    src_fid,
                    dst_fid,
                    len,
                    wait_buf: hold,
                };
                return SyscallOutcome::Block { cpu, chan, cont };
            }
            Err(e) => {
                return SyscallOutcome::Done {
                    cpu,
                    ret: SyscallRet::Err(e),
                }
            }
        };
        let data = self.cache.data(buf).view(0, take);
        let mut fx = Vec::new();
        self.cache.brelse(buf, &mut fx);
        cpu += self.apply_cache_effects(fx, IoCtx::Process);
        self.files.get_mut(src_fid).unwrap().offset += take as u64;

        // The destination side: a copy-on-write fault materialises the
        // block; the data arrives via the user's memcpy (kernel_data).
        let cont = WriteCont {
            fid: dst_fid,
            data,
            done: 0,
            rmw_buf: None,
            kernel_data: true,
        };
        let mut out = self.do_write(cont, Dur::ZERO);
        match &mut out {
            SyscallOutcome::Done { cpu: c, ret } => {
                *c += cpu;
                if let SyscallRet::Val(n) = ret {
                    *n = take as i64;
                }
            }
            SyscallOutcome::DoneAt { cpu: c, .. }
            | SyscallOutcome::Block { cpu: c, .. }
            | SyscallOutcome::BlockUntil { cpu: c, .. } => *c += cpu,
        }
        out
    }
}

// --------------------------------------------------------------------------
// Baseline user programs.
// --------------------------------------------------------------------------

/// The \[PCM91\] handle-passing copy program: user-driven, copy-free.
pub struct HandleCopy {
    src: String,
    dst: String,
    st: u32,
    src_fd: Option<Fd>,
    dst_fd: Option<Fd>,
    bytes: u64,
}

impl HandleCopy {
    /// A handle-passing copy from `src` to `dst`.
    pub fn new(src: &str, dst: &str) -> HandleCopy {
        HandleCopy {
            src: src.to_string(),
            dst: dst.to_string(),
            st: 0,
            src_fd: None,
            dst_fd: None,
            bytes: 0,
        }
    }

    /// Bytes moved.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Program for HandleCopy {
    fn step(&mut self, ctx: &mut UserCtx) -> Step {
        match self.st {
            0 => {
                self.st = 1;
                Step::Syscall(SyscallReq::Open {
                    path: self.src.clone(),
                    flags: OpenFlags::RDONLY,
                })
            }
            1 => {
                self.src_fd = ctx.take_ret().as_fd();
                if self.src_fd.is_none() {
                    return Step::Exit(1);
                }
                self.st = 2;
                Step::Syscall(SyscallReq::Open {
                    path: self.dst.clone(),
                    flags: OpenFlags::CREATE,
                })
            }
            2 => {
                self.dst_fd = ctx.take_ret().as_fd();
                if self.dst_fd.is_none() {
                    return Step::Exit(1);
                }
                self.st = 3;
                Step::Syscall(SyscallReq::HandleRead {
                    fd: self.src_fd.unwrap(),
                })
            }
            3 => match ctx.take_ret() {
                SyscallRet::Val(0) => {
                    self.st = 5;
                    Step::Syscall(SyscallReq::Fsync(self.dst_fd.unwrap()))
                }
                SyscallRet::Val(handle) if handle > 0 => {
                    self.st = 4;
                    Step::Syscall(SyscallReq::HandleWrite {
                        fd: self.dst_fd.unwrap(),
                        handle,
                    })
                }
                _ => Step::Exit(1),
            },
            4 => match ctx.take_ret() {
                SyscallRet::Val(n) if n > 0 => {
                    self.bytes += n as u64;
                    self.st = 3;
                    Step::Syscall(SyscallReq::HandleRead {
                        fd: self.src_fd.unwrap(),
                    })
                }
                _ => Step::Exit(1),
            },
            5 => {
                ctx.take_ret();
                self.st = 6;
                Step::Syscall(SyscallReq::Close(self.src_fd.take().unwrap()))
            }
            6 => {
                ctx.take_ret();
                self.st = 7;
                Step::Syscall(SyscallReq::Close(self.dst_fd.take().unwrap()))
            }
            7 => {
                ctx.take_ret();
                Step::Exit(0)
            }
            _ => Step::Exit(0),
        }
    }

    fn name(&self) -> &str {
        "handle_copy"
    }
}

/// The mmap-style copy program: fault-driven kernel work plus a user-mode
/// `memcpy` per window.
pub struct MmapCopy {
    src: String,
    dst: String,
    window: usize,
    /// User-mode memcpy cost per window (from the machine profile; the
    /// program cannot see kernel configuration).
    memcpy_cost: Dur,
    st: u32,
    src_fd: Option<Fd>,
    dst_fd: Option<Fd>,
    bytes: u64,
}

impl MmapCopy {
    /// A mapped copy moving `window` bytes per fault round; the caller
    /// supplies the user-mode copy cost per window.
    pub fn new(src: &str, dst: &str, window: usize, memcpy_cost: Dur) -> MmapCopy {
        MmapCopy {
            src: src.to_string(),
            dst: dst.to_string(),
            window,
            memcpy_cost,
            st: 0,
            src_fd: None,
            dst_fd: None,
            bytes: 0,
        }
    }

    /// Bytes moved.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Program for MmapCopy {
    fn step(&mut self, ctx: &mut UserCtx) -> Step {
        match self.st {
            0 => {
                self.st = 1;
                Step::Syscall(SyscallReq::Open {
                    path: self.src.clone(),
                    flags: OpenFlags::RDONLY,
                })
            }
            1 => {
                self.src_fd = ctx.take_ret().as_fd();
                if self.src_fd.is_none() {
                    return Step::Exit(1);
                }
                self.st = 2;
                Step::Syscall(SyscallReq::Open {
                    path: self.dst.clone(),
                    flags: OpenFlags::CREATE,
                })
            }
            2 => {
                self.dst_fd = ctx.take_ret().as_fd();
                if self.dst_fd.is_none() {
                    return Step::Exit(1);
                }
                self.st = 3;
                Step::Syscall(SyscallReq::MmapFault {
                    src: self.src_fd.unwrap(),
                    dst: self.dst_fd.unwrap(),
                    len: self.window,
                })
            }
            3 => match ctx.take_ret() {
                SyscallRet::Val(0) => {
                    self.st = 5;
                    Step::Syscall(SyscallReq::Fsync(self.dst_fd.unwrap()))
                }
                SyscallRet::Val(n) if n > 0 => {
                    self.bytes += n as u64;
                    self.st = 4;
                    // The user-mode memcpy through the mappings.
                    Step::Compute(self.memcpy_cost)
                }
                _ => Step::Exit(1),
            },
            4 => {
                self.st = 3;
                Step::Syscall(SyscallReq::MmapFault {
                    src: self.src_fd.unwrap(),
                    dst: self.dst_fd.unwrap(),
                    len: self.window,
                })
            }
            5 => {
                ctx.take_ret();
                self.st = 6;
                Step::Syscall(SyscallReq::Close(self.src_fd.take().unwrap()))
            }
            6 => {
                ctx.take_ret();
                self.st = 7;
                Step::Syscall(SyscallReq::Close(self.dst_fd.take().unwrap()))
            }
            7 => {
                ctx.take_ret();
                Step::Exit(0)
            }
            _ => Step::Exit(0),
        }
    }

    fn name(&self) -> &str {
        "mmap_copy"
    }
}
