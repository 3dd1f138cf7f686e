//! System-call execution.
//!
//! Calls run in the calling process's context: their CPU cost becomes a
//! `SyscallCpu` chunk, and a call that must wait returns the `Cont`
//! that resumes it with the channel or instant it sleeps until (metadata
//! I/O, device pacing). Every block a call reads comes through one
//! process-context read, `Kernel::read_block`. The read/write paths
//! move real bytes through the buffer cache, charging `copyin`/`copyout`
//! at the machine profile's rates — the costs splice exists to remove.
//! On the host a whole block crosses the boundary by reference: a read
//! that returns one whole cached block hands the program a view of it,
//! and a write of such a view installs it in the destination buffer.
//! Partial, unaligned and multi-block transfers copy.

use kbuf::{BreadOutcome, BufData, BufFlags, BufId, DevId, GetblkOutcome};
use kfs::{FileKind, FsError, Ino};
use khw::CopyKind;
use knet::{Datagram, NetErr, SockId};
use kproc::{Chan, ChanSpace, Errno, FcntlCmd, Fd, OpenFlags, Pid, Sig, SyscallReq, SyscallRet};
use ksim::{Bytes, Dur, SimTime, TraceEvent};

use crate::kernel::{IoCtx, Kernel};
use crate::objects::{CharDev, FileId, FileObj, OpenFile, NO_LBLK};

/// Result of executing (part of) a system call. A call that waits
/// carries the continuation that resumes it;
/// [`Kernel::apply_syscall_outcome`] stores it.
pub(crate) enum SyscallOutcome {
    /// Finished: charge `cpu`, then deliver `ret`.
    Done { cpu: Dur, ret: SyscallRet },
    /// Finished, but the caller sleeps until `until` (device time it
    /// waits out, as in fsync's metadata writeback) before it sees `ret`.
    DoneAt {
        cpu: Dur,
        until: SimTime,
        ret: SyscallRet,
    },
    /// Charge `cpu`, then sleep on `chan`; `cont` resumes the call.
    Block { cpu: Dur, chan: Chan, cont: Cont },
    /// Charge `cpu`, then sleep until `until`; `cont` resumes the call.
    BlockUntil {
        cpu: Dur,
        until: SimTime,
        cont: Cont,
    },
}

/// Where a process goes when the syscall-CPU chunk of its current call
/// finishes. A finished call's return value is already in the
/// program's context, and a waiting call's continuation in
/// `Kernel::conts`.
pub(crate) enum AfterCpu {
    /// Keep running: resume the continuation, or step the program.
    Run,
    /// Sleep on a channel.
    Sleep(Chan),
    /// Sleep until an instant.
    SleepUntil(SimTime),
    /// The channel this call was about to sleep on was woken while the
    /// call's CPU chunk was still running (the classic lost-wakeup race,
    /// which real kernels close with `splbio`): re-run the continuation
    /// instead of sleeping.
    Retry,
}

/// Continuations for blocked system calls.
///
/// Every blocked process holds one, so the variants stay small: the
/// read and write states are boxed, and a blocked `recv`, `accept` or
/// `pause` stores no more than its few words.
pub(crate) enum Cont {
    /// `read(2)` in progress.
    Read(Box<ReadCont>),
    /// `write(2)` in progress.
    Write(Box<WriteCont>),
    /// `fsync(2)` waiting for in-flight writes.
    Fsync { fid: FileId },
    /// Synchronous `splice(2)` waiting for its descriptor to complete.
    SpliceSync { desc: u64 },
    /// `pause(2)`.
    Pause,
    /// `recv` waiting for a datagram.
    Recv { fid: FileId, max_len: usize },
    /// `accept` waiting for a connection to be carved.
    Accept { fid: FileId },
    /// `send` that hit send-buffer backpressure, parked until the link
    /// drains.
    Send { sock: SockId, data: Bytes },
    /// [PCM91] handle read in progress.
    HandleRead {
        fid: FileId,
        /// Buffer held across a biowait (resume uses it directly).
        wait_buf: Option<BufId>,
    },
    /// Mmap-copy fault window in progress.
    MmapFault {
        src_fid: FileId,
        dst_fid: FileId,
        len: usize,
        /// Buffer held across a biowait (resume uses it directly).
        wait_buf: Option<BufId>,
    },
}

/// In-progress read state.
pub(crate) struct ReadCont {
    pub fid: FileId,
    pub want: usize,
    pub got: Bytes,
    /// Set when blocked in `biowait`: the held buffer plus the slice of it
    /// we were after.
    pub wait_buf: Option<(BufId, usize, usize)>,
    /// When the blocking read was issued (latency accounting).
    pub issued_at: Option<SimTime>,
}

impl ReadCont {
    /// Gathers `take` bytes at `boff` of a cached block (a modelled
    /// copyout; the caller charges it). A read's first block, taken
    /// whole, is a view of the cached block; anything more is copied.
    fn gather(&mut self, area: &BufData, boff: usize, take: usize) {
        if self.got.is_empty() && boff == 0 && take == area.len() {
            self.got = area.view(0, take);
        } else {
            self.extend(|v| v.extend_from_slice(&area.bytes()[boff..boff + take]));
        }
    }

    /// Appends to the gathered bytes through `f`, copying them out of a
    /// block view first.
    fn extend(&mut self, f: impl FnOnce(&mut Vec<u8>)) {
        let mut v = std::mem::take(&mut self.got).into_vec();
        f(&mut v);
        self.got = v.into();
    }
}

/// In-progress write state.
pub(crate) struct WriteCont {
    pub fid: FileId,
    pub data: Bytes,
    pub done: usize,
    /// Set when blocked reading an existing block for a partial
    /// overwrite.
    pub rmw_buf: Option<(BufId, usize, usize)>,
    /// Data already lives in the kernel (handle/mmap baselines): skip the
    /// `copyin` charge.
    pub kernel_data: bool,
}

/// Where a process-context block read ([`Kernel::read_block`]) left its
/// caller.
pub(crate) enum BlockRead {
    /// The block's buffer, held, with valid data.
    Held(BufId),
    /// Sleep on `chan`, then resume the call. `hold` is the caller's own
    /// buffer with its device read in flight: the continuation keeps it
    /// across `biowait` and hands it to [`Kernel::biowait_end`] on
    /// resume (reading it again would wait on itself). Without one (a
    /// busy buffer, or no free buffers) the resumed call reads again.
    Sleep { chan: Chan, hold: Option<BufId> },
}

use crate::splice_engine::fs_errno;

fn net_errno(e: NetErr) -> Errno {
    match e {
        NetErr::BadSocket => Errno::Ebadf,
        NetErr::PortInUse => Errno::Eaddrinuse,
        NetErr::NotConnected => Errno::Enotconn,
        NetErr::MsgTooBig => Errno::Emsgsize,
        NetErr::NotBound => Errno::Einval,
        NetErr::WouldBlock => Errno::Eagain,
    }
}

impl Kernel {
    fn err(&self, e: Errno) -> SyscallOutcome {
        SyscallOutcome::Done {
            cpu: self.cfg.machine.syscall,
            ret: SyscallRet::Err(e),
        }
    }

    fn fid_of(&self, pid: Pid, fd: Fd) -> Option<FileId> {
        self.files.resolve(pid, fd)
    }

    /// Executes a fresh system call for `pid` at the current time.
    pub(crate) fn exec_syscall(&mut self, pid: Pid, req: SyscallReq) -> SyscallOutcome {
        let base = self.cfg.machine.syscall;
        match req {
            SyscallReq::Open { path, flags } => self.sys_open(pid, &path, flags),
            SyscallReq::Close(fd) => {
                if self.close_fd(pid, fd) {
                    SyscallOutcome::Done {
                        cpu: base,
                        ret: SyscallRet::Val(0),
                    }
                } else {
                    self.err(Errno::Ebadf)
                }
            }
            SyscallReq::Read { fd, len } => {
                let Some(fid) = self.fid_of(pid, fd) else {
                    return self.err(Errno::Ebadf);
                };
                let cont = ReadCont {
                    fid,
                    want: len,
                    got: Bytes::new(),
                    wait_buf: None,
                    issued_at: None,
                };
                self.do_read(cont, base)
            }
            SyscallReq::Write { fd, data } => {
                let Some(fid) = self.fid_of(pid, fd) else {
                    return self.err(Errno::Ebadf);
                };
                let cont = WriteCont {
                    fid,
                    data,
                    done: 0,
                    rmw_buf: None,
                    kernel_data: false,
                };
                self.do_write(cont, base)
            }
            SyscallReq::Lseek { fd, pos } => {
                let Some(fid) = self.fid_of(pid, fd) else {
                    return self.err(Errno::Ebadf);
                };
                let of = self.files.get_mut(fid).unwrap();
                of.offset = pos;
                of.last_lblk = NO_LBLK;
                SyscallOutcome::Done {
                    cpu: base,
                    ret: SyscallRet::Val(pos as i64),
                }
            }
            SyscallReq::Splice { req } => {
                let (Some(sfid), Some(dfid)) =
                    (self.fid_of(pid, req.src), self.fid_of(pid, req.dst))
                else {
                    // Same consolidated rejection path as endpoint
                    // resolution: counted under splice.rejected.
                    return self.splice_reject(Errno::Ebadf);
                };
                self.sys_splice(pid, sfid, dfid, req.len, req.retry_limit)
            }
            SyscallReq::Fsync(fd) => {
                let Some(fid) = self.fid_of(pid, fd) else {
                    return self.err(Errno::Ebadf);
                };
                self.do_fsync(fid, base)
            }
            SyscallReq::Fcntl { fd, cmd } => {
                let Some(fid) = self.fid_of(pid, fd) else {
                    return self.err(Errno::Ebadf);
                };
                match cmd {
                    FcntlCmd::SetAsync(on) => {
                        self.files.get_mut(fid).unwrap().fasync = on;
                    }
                }
                SyscallOutcome::Done {
                    cpu: base,
                    ret: SyscallRet::Val(0),
                }
            }
            SyscallReq::Unlink { path } => self.sys_unlink(&path),
            SyscallReq::Link { existing, new } => {
                let (Some((da, pa)), Some((db, pb))) = (
                    self.resolve_disk_path(&existing),
                    self.resolve_disk_path(&new),
                ) else {
                    return self.err(Errno::Enoent);
                };
                if da != db {
                    // Hard links cannot cross filesystems.
                    return self.err(Errno::Einval);
                }
                match self.disks[da].fs.link(&pa, &pb) {
                    Ok(()) => SyscallOutcome::Done {
                        cpu: base + self.cfg.machine.buf_op * 2,
                        ret: SyscallRet::Val(0),
                    },
                    Err(e) => self.err(fs_errno(e)),
                }
            }
            SyscallReq::SetItimer { interval } => {
                if let Some(t) = self.procs.must_mut(pid).itimer.take() {
                    self.callout.cancel(t.callout);
                }
                if !interval.is_zero() {
                    self.arm_itimer(pid, interval);
                }
                SyscallOutcome::Done {
                    cpu: base,
                    ret: SyscallRet::Val(0),
                }
            }
            SyscallReq::Pause => {
                if !self.procs.must(pid).pending_sigs.is_empty() {
                    // A signal is already pending: return at once (the
                    // signals reach the program with this step's context).
                    return SyscallOutcome::Done {
                        cpu: base,
                        ret: SyscallRet::Val(0),
                    };
                }
                SyscallOutcome::Block {
                    cpu: base,
                    chan: Chan::new(ChanSpace::Pause, pid.0 as u64),
                    cont: Cont::Pause,
                }
            }
            SyscallReq::Sigaction { sig, catch } => {
                self.procs.must_mut(pid).set_catch(sig, catch);
                SyscallOutcome::Done {
                    cpu: base,
                    ret: SyscallRet::Val(0),
                }
            }
            SyscallReq::GetTime => SyscallOutcome::Done {
                cpu: base,
                ret: SyscallRet::Time(self.q.now()),
            },
            SyscallReq::Socket => {
                let sock = self.net.socket(1);
                let (fd, _) = self.files.open(
                    pid,
                    OpenFile {
                        obj: FileObj::Sock { sock },
                        offset: 0,
                        fasync: false,
                        readable: true,
                        writable: true,
                        refs: 1,
                        last_lblk: NO_LBLK,
                        wb_err: 0,
                    },
                );
                SyscallOutcome::Done {
                    cpu: base,
                    ret: SyscallRet::NewFd(fd),
                }
            }
            SyscallReq::Bind { fd, port } => {
                let Some(sock) = self.sock_of(pid, fd) else {
                    return self.err(Errno::Ebadf);
                };
                match self.net.bind(sock, port) {
                    Ok(()) => SyscallOutcome::Done {
                        cpu: base,
                        ret: SyscallRet::Val(0),
                    },
                    Err(e) => self.err(net_errno(e)),
                }
            }
            SyscallReq::Connect { fd, addr } => {
                let Some(sock) = self.sock_of(pid, fd) else {
                    return self.err(Errno::Ebadf);
                };
                match self.net.connect(
                    sock,
                    knet::NetAddr {
                        host: addr.host,
                        port: addr.port,
                    },
                ) {
                    Ok(()) => SyscallOutcome::Done {
                        cpu: base,
                        ret: SyscallRet::Val(0),
                    },
                    Err(e) => self.err(net_errno(e)),
                }
            }
            SyscallReq::Listen { fd, backlog } => {
                let Some(sock) = self.sock_of(pid, fd) else {
                    return self.err(Errno::Ebadf);
                };
                match self.net.listen(sock, backlog) {
                    Ok(()) => SyscallOutcome::Done {
                        cpu: base,
                        ret: SyscallRet::Val(0),
                    },
                    Err(e) => self.err(net_errno(e)),
                }
            }
            SyscallReq::Accept { fd } => {
                let Some(fid) = self.fid_of(pid, fd) else {
                    return self.err(Errno::Ebadf);
                };
                self.do_accept(pid, fid, base)
            }
            SyscallReq::Send { fd, data } => {
                let Some(sock) = self.sock_of(pid, fd) else {
                    return self.err(Errno::Ebadf);
                };
                self.do_send(sock, data.into(), base)
            }
            SyscallReq::Recv { fd, max_len } => {
                let Some(fid) = self.fid_of(pid, fd) else {
                    return self.err(Errno::Ebadf);
                };
                self.do_recv(fid, max_len, base)
            }
            SyscallReq::Fstat(fd) => {
                let Some(fid) = self.fid_of(pid, fd) else {
                    return self.err(Errno::Ebadf);
                };
                match self.files.get(fid).unwrap().obj {
                    FileObj::File { disk, ino } => SyscallOutcome::Done {
                        cpu: base,
                        ret: SyscallRet::Val(self.disks[disk].fs.size(ino) as i64),
                    },
                    _ => SyscallOutcome::Done {
                        cpu: base,
                        ret: SyscallRet::Val(0),
                    },
                }
            }
            SyscallReq::HandleRead { fd } => {
                let Some(fid) = self.fid_of(pid, fd) else {
                    return self.err(Errno::Ebadf);
                };
                self.do_handle_read_resume(fid, None, base)
            }
            SyscallReq::HandleWrite { fd, handle } => {
                let Some(fid) = self.fid_of(pid, fd) else {
                    return self.err(Errno::Ebadf);
                };
                self.do_handle_write(fid, handle, base)
            }
            SyscallReq::MmapFault { src, dst, len } => {
                let (Some(sfid), Some(dfid)) = (self.fid_of(pid, src), self.fid_of(pid, dst))
                else {
                    return self.err(Errno::Ebadf);
                };
                self.do_mmap_fault_resume(sfid, dfid, len, None)
            }
        }
    }

    fn sock_of(&self, pid: Pid, fd: Fd) -> Option<SockId> {
        let fid = self.fid_of(pid, fd)?;
        match self.files.get(fid)?.obj {
            FileObj::Sock { sock } => Some(sock),
            _ => None,
        }
    }

    /// Resumes a blocked call after a wakeup.
    pub(crate) fn resume_cont(&mut self, pid: Pid, cont: Cont) -> SyscallOutcome {
        match cont {
            Cont::Read(c) => self.do_read(*c, Dur::ZERO),
            Cont::Write(c) => self.do_write(*c, Dur::ZERO),
            Cont::Fsync { fid } => self.do_fsync(fid, Dur::ZERO),
            Cont::SpliceSync { desc } => self.resume_splice_sync(desc),
            Cont::Pause => SyscallOutcome::Done {
                cpu: self.cfg.machine.buf_op,
                ret: SyscallRet::Val(0),
            },
            Cont::Recv { fid, max_len } => self.do_recv(fid, max_len, Dur::ZERO),
            Cont::Accept { fid } => self.do_accept(pid, fid, Dur::ZERO),
            Cont::Send { sock, data } => self.do_send(sock, data, Dur::ZERO),
            Cont::HandleRead { fid, wait_buf } => {
                self.do_handle_read_resume(fid, wait_buf, Dur::ZERO)
            }
            Cont::MmapFault {
                src_fid,
                dst_fid,
                len,
                wait_buf,
            } => self.do_mmap_fault_resume(src_fid, dst_fid, len, wait_buf),
        }
    }

    // ----- open / close / unlink -------------------------------------------

    /// Resolves a path to its disk index; the remainder is an fs path.
    pub(crate) fn resolve_disk_path(&self, path: &str) -> Option<(usize, String)> {
        let rest = path.strip_prefix('/')?;
        let (disk_name, sub) = match rest.split_once('/') {
            Some((d, s)) => (d, s),
            None => (rest, ""),
        };
        let idx = self.disks.iter().position(|d| d.name == disk_name)?;
        Some((idx, format!("/{sub}")))
    }

    fn sys_open(&mut self, pid: Pid, path: &str, flags: OpenFlags) -> SyscallOutcome {
        let base = self.cfg.machine.syscall;
        let namei = self.cfg.machine.buf_op * (path.matches('/').count() as u64 + 1);

        // Device namespace.
        if path.starts_with("/dev/") {
            let Some(cdev) = self.cdevs.iter().position(|c| c.path == path) else {
                return self.err(Errno::Enoent);
            };
            let (fd, _) = self.files.open(
                pid,
                OpenFile {
                    obj: FileObj::Chr { cdev },
                    offset: 0,
                    fasync: false,
                    readable: flags.read || !flags.write,
                    writable: flags.write,
                    refs: 1,
                    last_lblk: NO_LBLK,
                    wb_err: 0,
                },
            );
            return SyscallOutcome::Done {
                cpu: base + namei,
                ret: SyscallRet::NewFd(fd),
            };
        }

        let Some((disk, sub)) = self.resolve_disk_path(path) else {
            return self.err(Errno::Enoent);
        };
        let ino = match self.disks[disk].fs.lookup(&sub) {
            Ok(ino) => {
                if self.disks[disk].fs.stat(ino).map(|s| s.0) == Some(FileKind::Dir) {
                    return self.err(Errno::Eisdir);
                }
                if flags.trunc && flags.write {
                    self.truncate_with_purge(disk, ino);
                }
                ino
            }
            Err(FsError::NotFound) if flags.create => match self.disks[disk].fs.create(&sub) {
                Ok(ino) => ino,
                Err(e) => return self.err(fs_errno(e)),
            },
            Err(e) => return self.err(fs_errno(e)),
        };
        let (fd, _) = self.files.open(
            pid,
            OpenFile {
                obj: FileObj::File { disk, ino },
                offset: 0,
                fasync: false,
                readable: flags.read || !flags.write,
                writable: flags.write,
                refs: 1,
                last_lblk: NO_LBLK,
                wb_err: self.disks[disk].wb_err,
            },
        );
        SyscallOutcome::Done {
            cpu: base + namei,
            ret: SyscallRet::NewFd(fd),
        }
    }

    /// Frees a file's blocks, first dropping their cached copies. Dirty
    /// copies are discarded with the file; busy ones (in-flight I/O or a
    /// concurrent splice) are detached and die on release.
    pub(crate) fn truncate_with_purge(&mut self, disk: usize, ino: Ino) {
        let blocks: Vec<u64> = self.disks[disk]
            .fs
            .block_map(ino)
            .into_iter()
            .flatten()
            .collect();
        let dev = self.disks[disk].dev;
        let (purged, detached) = self.cache.purge_blocks(dev, blocks.into_iter());
        self.ctr.trunc_purged += purged as u64;
        self.ctr.trunc_detached += detached as u64;
        self.disks[disk].fs.truncate(ino).expect("inode exists");
    }

    fn sys_unlink(&mut self, path: &str) -> SyscallOutcome {
        let Some((disk, sub)) = self.resolve_disk_path(path) else {
            return self.err(Errno::Enoent);
        };
        let ino = match self.disks[disk].fs.lookup(&sub) {
            Ok(ino) => ino,
            Err(e) => return self.err(fs_errno(e)),
        };
        if self.disks[disk].fs.stat(ino).map(|s| s.0) == Some(FileKind::File) {
            self.truncate_with_purge(disk, ino);
        }
        match self.disks[disk].fs.unlink(&sub) {
            Ok(()) => SyscallOutcome::Done {
                cpu: self.cfg.machine.syscall + self.cfg.machine.buf_op * 2,
                ret: SyscallRet::Val(0),
            },
            Err(e) => self.err(fs_errno(e)),
        }
    }

    /// Releases a descriptor; used by `close(2)` and by exit cleanup.
    /// Returns false for a bad fd.
    pub(crate) fn close_fd(&mut self, pid: Pid, fd: Fd) -> bool {
        let Some(last) = self.files.close(pid, fd) else {
            return false;
        };
        if let Some(FileObj::Sock { sock }) = last.map(|of| of.obj) {
            // Closing the source of an active splice is its EOF, and
            // the splice completion lands its outcome on the request
            // record before the record closes.
            self.splice_sock_eof(sock);
            self.kstat.requests.close(self.q.now(), sock.0);
            let _ = self.net.close(sock);
        }
        true
    }

    // ----- read -----------------------------------------------------------------

    fn do_read(&mut self, c: ReadCont, base: Dur) -> SyscallOutcome {
        let mut cpu = base;
        let Some(of) = self.files.get(c.fid) else {
            return self.err(Errno::Ebadf);
        };
        if !of.readable {
            return self.err(Errno::Ebadf);
        }
        match of.obj {
            FileObj::File { disk, ino } => self.file_read(c, cpu, disk, ino),
            FileObj::Chr { cdev } => {
                let now = self.q.now();
                match &mut self.cdevs[cdev].dev {
                    CharDev::Fb(fb) => {
                        let data = fb.read(now, c.want);
                        cpu += self.cfg.machine.copy_cost(CopyKind::Copyout, c.want);
                        self.ctr.copy.copyout_bytes += c.want as u64;
                        SyscallOutcome::Done {
                            cpu,
                            ret: SyscallRet::Data(data.into()),
                        }
                    }
                    _ => self.err(Errno::Enotsup),
                }
            }
            FileObj::Sock { .. } => self.do_recv(c.fid, c.want, cpu),
        }
    }

    fn file_read(
        &mut self,
        mut c: ReadCont,
        mut cpu: Dur,
        disk: usize,
        ino: Ino,
    ) -> SyscallOutcome {
        let bs = self.cfg.block_size as usize;
        let dev = self.disks[disk].dev;
        let m = self.cfg.machine.clone();

        loop {
            let (read, boff, take) = if let Some((buf, boff, take)) = c.wait_buf.take() {
                // Resumed from biowait: finish the block we waited for.
                if let Some(at) = c.issued_at.take() {
                    self.kstat.read_wait.record(self.q.now().since(at).as_ns());
                }
                let read = self.biowait_end(buf, &mut cpu).map(BlockRead::Held);
                (read, boff, take)
            } else {
                let of = self.files.get(c.fid).unwrap();
                let offset = of.offset;
                let size = self.disks[disk].fs.size(ino);
                if c.got.len() >= c.want || offset >= size {
                    return SyscallOutcome::Done {
                        cpu,
                        ret: SyscallRet::Data(std::mem::take(&mut c.got)),
                    };
                }
                let lblk = offset / bs as u64;
                let boff = (offset % bs as u64) as usize;
                let take = (bs - boff)
                    .min(c.want - c.got.len())
                    .min((size - offset) as usize);

                let Some(pblk) = self.disks[disk].fs.bmap(ino, lblk) else {
                    // Hole: zeros, no device traffic.
                    c.extend(|v| v.resize(v.len() + take, 0));
                    cpu += m.copy_cost(CopyKind::Copyout, take);
                    self.ctr.copy.copyout_bytes += take as u64;
                    let of = self.files.get_mut(c.fid).unwrap();
                    of.offset += take as u64;
                    of.last_lblk = lblk;
                    continue;
                };

                // Sequential read-ahead (SCSI only; the RAM disk has no
                // latency to hide and read-ahead would only mis-attribute
                // its copy cost).
                let sequential =
                    lblk == 0 || of.last_lblk.wrapping_add(1) == lblk || of.last_lblk == lblk;
                if sequential && !self.disks[disk].kind.is_ram() {
                    if let Some(ra_pblk) = self.disks[disk].fs.bmap(ino, lblk + 1) {
                        let mut fx = Vec::new();
                        if self
                            .cache
                            .start_readahead(dev, ra_pblk, bs, &mut fx)
                            .is_some()
                        {
                            cpu += m.buf_op;
                            self.ctr.io.readaheads += 1;
                        }
                        self.apply_cache_effects(fx, IoCtx::Kernel);
                    }
                }

                cpu += m.buf_op;
                let read = self.read_block(dev, pblk, &mut cpu);
                // A busy buffer or a full cache has read nothing yet.
                if !matches!(read, Ok(BlockRead::Sleep { hold: None, .. })) {
                    self.files.get_mut(c.fid).unwrap().last_lblk = lblk;
                }
                (read, boff, take)
            };
            let buf = match read {
                Ok(BlockRead::Held(buf)) => buf,
                Ok(BlockRead::Sleep { chan, hold }) => {
                    if let Some(buf) = hold {
                        c.wait_buf = Some((buf, boff, take));
                        c.issued_at = Some(self.q.now());
                    }
                    let cont = Cont::Read(Box::new(c));
                    return SyscallOutcome::Block { cpu, chan, cont };
                }
                Err(e) => {
                    return SyscallOutcome::Done {
                        cpu,
                        ret: SyscallRet::Err(e),
                    }
                }
            };
            c.gather(&self.cache.data(buf), boff, take);
            cpu += m.copy_cost(CopyKind::Copyout, take);
            self.ctr.copy.copyout_bytes += take as u64;
            let mut fx = Vec::new();
            self.cache.brelse(buf, &mut fx);
            cpu += self.apply_cache_effects(fx, IoCtx::Process);
            self.files.get_mut(c.fid).unwrap().offset += take as u64;
        }
    }

    /// Reads block `pblk` of `dev` in process context: `bread` and its
    /// cache effects (a RAM disk's read runs here, on the caller's CPU).
    /// A read that completed at once goes through
    /// [`Kernel::biowait_end`].
    pub(crate) fn read_block(
        &mut self,
        dev: DevId,
        pblk: u64,
        cpu: &mut Dur,
    ) -> Result<BlockRead, Errno> {
        let mut fx = Vec::new();
        let bs = self.cfg.block_size as usize;
        let out = self.cache.bread(dev, pblk, bs, &mut fx);
        *cpu += self.apply_cache_effects(fx, IoCtx::Process);
        let on_buf = |buf: BufId| Chan::new(ChanSpace::Buf, buf.0 as u64);
        Ok(match out {
            BreadOutcome::Hit(buf) => BlockRead::Held(buf),
            BreadOutcome::Miss(buf) if self.cache.io_done(buf) => {
                BlockRead::Held(self.biowait_end(buf, cpu)?)
            }
            BreadOutcome::Miss(buf) => BlockRead::Sleep {
                chan: on_buf(buf),
                hold: Some(buf),
            },
            BreadOutcome::Busy(buf) => BlockRead::Sleep {
                chan: on_buf(buf),
                hold: None,
            },
            BreadOutcome::NoBuffers => BlockRead::Sleep {
                chan: Chan::new(ChanSpace::AnyBuf, 0),
                hold: None,
            },
        })
    }

    /// `biowait` returned: the device read into the held `buf` is done.
    /// A read that completed with `B_ERROR` releases the buffer (brelse
    /// discards it, so the next read re-reads the device) and fails the
    /// call with EIO, as BSD `biowait` does.
    pub(crate) fn biowait_end(&mut self, buf: BufId, cpu: &mut Dur) -> Result<BufId, Errno> {
        debug_assert!(self.cache.io_done(buf), "woken before I/O completed");
        if !self.cache.flags(buf).contains(BufFlags::ERROR) {
            return Ok(buf);
        }
        let mut fx = Vec::new();
        self.cache.brelse(buf, &mut fx);
        *cpu += self.apply_cache_effects(fx, IoCtx::Process);
        Err(Errno::Eio)
    }

    // ----- write -----------------------------------------------------------------

    pub(crate) fn do_write(&mut self, c: WriteCont, base: Dur) -> SyscallOutcome {
        let Some(of) = self.files.get(c.fid) else {
            return self.err(Errno::Ebadf);
        };
        if !of.writable {
            return self.err(Errno::Ebadf);
        }
        match of.obj {
            FileObj::File { disk, ino } => self.file_write(c, base, disk, ino),
            FileObj::Chr { cdev } => self.cdev_write(c, base, cdev),
            FileObj::Sock { sock } => self.do_send(sock, c.data, base),
        }
    }

    fn file_write(
        &mut self,
        mut c: WriteCont,
        mut cpu: Dur,
        disk: usize,
        ino: Ino,
    ) -> SyscallOutcome {
        let bs = self.cfg.block_size as usize;
        let dev = self.disks[disk].dev;
        let m = self.cfg.machine.clone();

        loop {
            let (read, boff, take) = if let Some((buf, boff, take)) = c.rmw_buf.take() {
                // Resumed from a read-modify-write biowait.
                let read = self.biowait_end(buf, &mut cpu).map(BlockRead::Held);
                (read, boff, take)
            } else {
                if c.done >= c.data.len() {
                    return SyscallOutcome::Done {
                        cpu,
                        ret: SyscallRet::Val(c.done as i64),
                    };
                }
                let of = self.files.get(c.fid).unwrap();
                let offset = of.offset;
                let lblk = offset / bs as u64;
                let boff = (offset % bs as u64) as usize;
                let take = (bs - boff).min(c.data.len() - c.done);

                let existed = self.disks[disk].fs.bmap(ino, lblk).is_some();
                let pblk = match self.disks[disk].fs.bmap_alloc(ino, lblk) {
                    Ok(p) => p,
                    Err(e) => {
                        return if c.done > 0 {
                            SyscallOutcome::Done {
                                cpu,
                                ret: SyscallRet::Val(c.done as i64),
                            }
                        } else {
                            self.err(fs_errno(e))
                        };
                    }
                };
                cpu += m.buf_op;
                let full = boff == 0 && take == bs;

                if !full && existed {
                    // Partial overwrite of existing data: read-modify-write.
                    cpu += m.buf_op;
                    (self.read_block(dev, pblk, &mut cpu), boff, take)
                } else {
                    // Full block, or a fresh block (zero-filled in memory;
                    // the allocating bmap skipped the on-disk zero-fill,
                    // §5.2).
                    let mut fx = Vec::new();
                    let out = self.cache.getblk(dev, pblk, bs, &mut fx);
                    cpu += self.apply_cache_effects(fx, IoCtx::Process);
                    let chan = match out {
                        GetblkOutcome::Held(buf) => {
                            if !full {
                                // Fresh partial block: clear the buffer
                                // before the partial copyin.
                                self.cache.data(buf).zero();
                            }
                            cpu += self.finish_block_write(&mut c, buf, boff, take, disk, ino);
                            continue;
                        }
                        GetblkOutcome::Busy(buf) => Chan::new(ChanSpace::Buf, buf.0 as u64),
                        GetblkOutcome::NoBuffers => Chan::new(ChanSpace::AnyBuf, 0),
                    };
                    let cont = Cont::Write(Box::new(c));
                    return SyscallOutcome::Block { cpu, chan, cont };
                }
            };
            match read {
                Ok(BlockRead::Held(buf)) => {
                    cpu += self.finish_block_write(&mut c, buf, boff, take, disk, ino);
                }
                Ok(BlockRead::Sleep { chan, hold }) => {
                    c.rmw_buf = hold.map(|buf| (buf, boff, take));
                    let cont = Cont::Write(Box::new(c));
                    return SyscallOutcome::Block { cpu, chan, cont };
                }
                // The block's old bytes are lost to a device error: report
                // what was written, as a failed allocation does.
                Err(e) => {
                    let ret = if c.done > 0 {
                        SyscallRet::Val(c.done as i64)
                    } else {
                        SyscallRet::Err(e)
                    };
                    return SyscallOutcome::Done { cpu, ret };
                }
            }
        }
    }

    /// Copies the user data into a held buffer and writes it out (async
    /// for full sequential blocks, delayed otherwise). A view of a whole
    /// block is installed rather than copied. Returns the CPU charged.
    fn finish_block_write(
        &mut self,
        c: &mut WriteCont,
        buf: BufId,
        boff: usize,
        take: usize,
        disk: usize,
        ino: Ino,
    ) -> Dur {
        let m = self.cfg.machine.clone();
        let mut cpu = if c.kernel_data {
            // Handle/mmap baselines: the data never visited user space.
            m.buf_op
        } else {
            self.ctr.copy.copyin_bytes += take as u64;
            m.copy_cost(CopyKind::Copyin, take)
        };
        self.cache
            .data(buf)
            .write_bytes(boff, &c.data.slice(c.done, take));
        let full = boff == 0 && take == self.cfg.block_size as usize;
        let mut fx = Vec::new();
        if full {
            // Write-behind: full blocks go to the device asynchronously.
            self.cache.bawrite(buf, &mut fx);
        } else {
            self.cache.bdwrite(buf, &mut fx);
        }
        cpu += self.apply_cache_effects(fx, IoCtx::Process);

        c.done += take;
        let of = self.files.get_mut(c.fid).unwrap();
        of.offset += take as u64;
        let new_size = of.offset;
        let fs = &mut self.disks[disk].fs;
        if new_size > fs.size(ino) {
            fs.set_size(ino, new_size);
        }
        cpu
    }

    fn cdev_write(&mut self, mut c: WriteCont, base: Dur, cdev: usize) -> SyscallOutcome {
        let now = self.q.now();
        let len = c.data.len() - c.done;
        let copy = self.cfg.machine.copy_cost(CopyKind::Copyin, len);
        match &mut self.cdevs[cdev].dev {
            CharDev::Audio(dac) => {
                let took = dac.write_some(now, len);
                if took > 0 {
                    self.ctr.copy.copyin_bytes += took as u64;
                    c.done += took;
                }
                let copied = self.cfg.machine.copy_cost(CopyKind::Copyin, took.max(1));
                if c.done == c.data.len() {
                    SyscallOutcome::Done {
                        cpu: base + copied,
                        ret: SyscallRet::Val(c.done as i64),
                    }
                } else {
                    let CharDev::Audio(dac) = &mut self.cdevs[cdev].dev else {
                        unreachable!()
                    };
                    let at = dac.time_for_space(now, c.data.len() - c.done);
                    SyscallOutcome::BlockUntil {
                        cpu: base + copied,
                        until: at,
                        cont: Cont::Write(Box::new(c)),
                    }
                }
            }
            CharDev::Video(v) => {
                v.write(now, len);
                self.ctr.copy.copyin_bytes += len as u64;
                c.done += len;
                SyscallOutcome::Done {
                    cpu: base + copy,
                    ret: SyscallRet::Val(c.done as i64),
                }
            }
            CharDev::Fb(_) => self.err(Errno::Enotsup),
        }
    }

    // ----- fsync -----------------------------------------------------------------

    fn do_fsync(&mut self, fid: FileId, base: Dur) -> SyscallOutcome {
        let Some(of) = self.files.get(fid) else {
            return self.err(Errno::Ebadf);
        };
        let FileObj::File { disk, ino } = of.obj else {
            return self.err(Errno::Einval);
        };
        let mut cpu = base;
        let m = self.cfg.machine.clone();
        let dev = self.disks[disk].dev;

        // Phase 1: push every dirty block of this device to the medium.
        let dirty = self.cache.dirty_bufs(dev);
        for buf in dirty {
            if !self.cache.claim_for_flush(buf) {
                continue;
            }
            let mut fx = Vec::new();
            self.cache.bawrite(buf, &mut fx);
            cpu += self.apply_cache_effects(fx, IoCtx::Process) + m.buf_op;
        }
        if self.disks[disk].write_inflight > 0 {
            return SyscallOutcome::Block {
                cpu,
                chan: Chan::new(ChanSpace::Fsync, disk as u64),
                cont: Cont::Fsync { fid },
            };
        }
        // A write-behind write failed since this descriptor last looked:
        // report it once, and skip the metadata writeback.
        let wb_err = self.disks[disk].wb_err;
        let of = self.files.get_mut(fid).expect("checked above");
        if of.wb_err != wb_err {
            of.wb_err = wb_err;
            return SyscallOutcome::Done {
                cpu,
                ret: SyscallRet::Err(Errno::Eio),
            };
        }

        // Phase 2: metadata writeback, charged as timed device traffic.
        let unit = &mut self.disks[disk];
        let io = {
            let (kind, fs) = (&mut unit.kind, &mut unit.fs);
            fs.sync_inode(kind.store_mut(), ino)
        };
        let meta = self.meta_io_time(disk, io);
        if self.disks[disk].kind.is_ram() {
            // RAM-disk metadata is a CPU copy in the caller's context.
            SyscallOutcome::Done {
                cpu: cpu + meta,
                ret: SyscallRet::Val(0),
            }
        } else if meta.is_zero() {
            SyscallOutcome::Done {
                cpu,
                ret: SyscallRet::Val(0),
            }
        } else {
            SyscallOutcome::DoneAt {
                cpu,
                until: self.q.now() + meta,
                ret: SyscallRet::Val(0),
            }
        }
    }

    // ----- sockets ----------------------------------------------------------------

    fn do_send(&mut self, sock: SockId, data: Bytes, base: Dur) -> SyscallOutcome {
        let len = data.len();
        match self.transmit(sock, data) {
            Ok(()) => {
                self.ctr.copy.net_bytes += len as u64;
                // A user-space relay serves its connection with send(2):
                // accepted bytes land on the open request record.
                self.kstat.requests.transfer(sock.0, len as u64, None);
                SyscallOutcome::Done {
                    cpu: base
                        + self.cfg.machine.udp_packet
                        + self.cfg.machine.copy_cost(CopyKind::Net, len),
                    ret: SyscallRet::Val(len as i64),
                }
            }
            // Send buffer full: park the caller until the link drains
            // enough to fit the datagram, then re-run the send.
            Err((NetErr::WouldBlock, data)) => {
                let now = self.q.now();
                let ready = self.net.link_ready_at(now, sock, len);
                let until = ready.max(now + Dur::from_us(1));
                SyscallOutcome::BlockUntil {
                    cpu: base,
                    until,
                    cont: Cont::Send { sock, data },
                }
            }
            Err((e, _)) => self.err(net_errno(e)),
        }
    }

    fn do_accept(&mut self, pid: Pid, fid: FileId, base: Dur) -> SyscallOutcome {
        let Some(of) = self.files.get(fid) else {
            return self.err(Errno::Ebadf);
        };
        let FileObj::Sock { sock } = of.obj else {
            return self.err(Errno::Ebadf);
        };
        match self.net.accept(sock) {
            Ok(Some(conn)) => {
                let (fd, _) = self.files.open(
                    pid,
                    OpenFile {
                        obj: FileObj::Sock { sock: conn },
                        offset: 0,
                        fasync: false,
                        readable: true,
                        writable: true,
                        refs: 1,
                        last_lblk: NO_LBLK,
                        wb_err: 0,
                    },
                );
                // Open the request record: accept is its birth, and the
                // current trace seq is its exemplar link.
                let seq = self.trace.emitted();
                self.kstat.requests.accept(self.q.now(), conn.0, seq);
                SyscallOutcome::Done {
                    cpu: base + self.cfg.machine.udp_packet,
                    ret: SyscallRet::NewFd(fd),
                }
            }
            Ok(None) => SyscallOutcome::Block {
                cpu: base,
                chan: Chan::new(ChanSpace::Accept, sock.0 as u64),
                cont: Cont::Accept { fid },
            },
            Err(e) => self.err(net_errno(e)),
        }
    }

    fn do_recv(&mut self, fid: FileId, max_len: usize, base: Dur) -> SyscallOutcome {
        let Some(of) = self.files.get(fid) else {
            return self.err(Errno::Ebadf);
        };
        let FileObj::Sock { sock } = of.obj else {
            return self.err(Errno::Ebadf);
        };
        if self.net.rcv_ready(sock) {
            let mut data = self
                .net
                .recv(sock)
                .expect("socket exists")
                .expect("rcv_ready means a datagram is queued")
                .data;
            let n = data.len().min(max_len);
            data.truncate(n);
            let cpu =
                base + self.cfg.machine.udp_packet + self.cfg.machine.copy_cost(CopyKind::Net, n);
            self.ctr.copy.net_bytes += n as u64;
            return SyscallOutcome::Done {
                cpu,
                ret: SyscallRet::Data(data),
            };
        }
        SyscallOutcome::Block {
            cpu: base,
            chan: Chan::new(ChanSpace::SockRecv, sock.0 as u64),
            cont: Cont::Recv { fid, max_len },
        }
    }

    /// Bottom half of datagram arrival: enqueue into the socket, then
    /// either feed a socket-sourced splice or wake sleeping receivers.
    pub(crate) fn net_rx(&mut self, dst: SockId, dgram: Datagram) {
        let now = self.q.now();
        let len = dgram.data.len() as u32;
        let from = dgram.src_sock;
        match self.net.deliver(dst, dgram) {
            knet::DeliverOutcome::Queued { sock } => {
                self.trace
                    .emit(now, || TraceEvent::NetDeliver { sock: sock.0, len });
                if !self.splice_sock_feed(sock) {
                    self.wakeup(Chan::new(ChanSpace::SockRecv, sock.0 as u64));
                }
            }
            knet::DeliverOutcome::NewConn { sock } => {
                self.trace
                    .emit(now, || TraceEvent::NetDeliver { sock: sock.0, len });
                self.wakeup(Chan::new(ChanSpace::Accept, dst.0 as u64));
            }
            knet::DeliverOutcome::Dropped { .. } => {
                self.ctr.rx_dropped += 1;
                self.trace
                    .emit(now, || TraceEvent::NetDrop { sock: dst.0, len });
                self.source_refused(from);
            }
        }
    }

    /// Posts `SIGIO` to a process (splice completion).
    pub(crate) fn post_sigio(&mut self, pid: Pid) {
        self.post_signal(pid, Sig::Io);
    }
}

#[cfg(test)]
mod tests {
    use super::Cont;

    #[test]
    fn continuation_stays_small() {
        // A blocked recv, accept or pause stores one `Cont` per process:
        // the boxed read and write states keep it at four words.
        let size = std::mem::size_of::<Cont>();
        assert!(size <= 32, "Cont is {size} bytes");
    }
}
