//! System-call execution.
//!
//! Calls run in the calling process's context: their CPU cost becomes a
//! `SyscallCpu` chunk, and calls that must wait either sleep on a channel
//! (with a `Cont` recording how to resume) or sleep until a known
//! instant (metadata I/O, device pacing). The read/write paths move real
//! bytes through the buffer cache, charging `copyin`/`copyout` at the
//! machine profile's rates — the costs splice exists to remove.

use kbuf::{BreadOutcome, BufFlags, BufId, GetblkOutcome};
#[allow(unused_imports)]
use kfs as _kfs_reexport_guard;
use kfs::{FileKind, FsError, Ino};
use khw::CopyKind;
use knet::{Datagram, NetErr, SockId};
use kproc::{Chan, ChanSpace, Errno, FcntlCmd, Fd, OpenFlags, Pid, Sig, SyscallReq, SyscallRet};
use ksim::{Dur, SimTime, TraceEvent};

use crate::event::{Event, KWork};
use crate::kernel::{IoCtx, Kernel};
use crate::objects::{CharDev, FileId, FileObj, OpenFile};

/// Result of executing (part of) a system call.
pub(crate) enum SyscallOutcome {
    /// Finished: charge `cpu`, then deliver `ret`.
    Done { cpu: Dur, ret: SyscallRet },
    /// Charge `cpu`, then sleep on `chan`; a [`Cont`] stored by the caller
    /// resumes the call.
    Block { cpu: Dur, chan: Chan },
    /// Charge `cpu`, then sleep until `until`, then perform `then`.
    BlockUntil {
        cpu: Dur,
        until: SimTime,
        then: WakeAction,
    },
}

/// What happens when a timed sleep expires.
pub(crate) enum WakeAction {
    /// Deliver a return value to the program.
    Deliver(SyscallRet),
    /// Resume the system call from this continuation.
    Resume(Cont),
}

/// What happens when the syscall-CPU chunk of the current call finishes.
pub(crate) enum AfterCpu {
    /// Deliver the return value and keep running.
    Deliver(SyscallRet),
    /// Sleep on a channel.
    Sleep(Chan),
    /// Sleep until an instant.
    SleepUntil { until: SimTime, then: WakeAction },
    /// The channel this call was about to sleep on was woken while the
    /// call's CPU chunk was still running (the classic lost-wakeup race,
    /// which real kernels close with `splbio`): re-run the continuation
    /// instead of sleeping.
    Retry,
}

/// Continuations for blocked system calls.
pub(crate) enum Cont {
    /// `read(2)` in progress.
    Read(ReadCont),
    /// `write(2)` in progress.
    Write(WriteCont),
    /// `fsync(2)` waiting for in-flight writes.
    Fsync { fid: FileId },
    /// Synchronous `splice(2)` waiting for its depth-1 legacy-ring entry
    /// to complete.
    SpliceSync { ring: u64, desc: u64 },
    /// `sys_ring_reap` waiting for `min` completions.
    RingReap { ring: u64, min: u32 },
    /// `pause(2)`.
    Pause,
    /// `recv` waiting for a datagram.
    Recv { fid: FileId, max_len: usize },
    /// `accept` waiting for a connection to be carved.
    Accept { fid: FileId },
    /// `send` that hit send-buffer backpressure, parked until the link
    /// drains.
    Send { sock: SockId, data: Vec<u8> },
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
    pub got: Vec<u8>,
    /// Set when blocked in `biowait`: the held buffer plus the slice of it
    /// we were after.
    pub wait_buf: Option<(BufId, usize, usize)>,
    /// When the blocking read was issued (latency accounting).
    pub issued_at: Option<SimTime>,
}

/// In-progress write state.
pub(crate) struct WriteCont {
    pub fid: FileId,
    pub data: Vec<u8>,
    pub done: usize,
    /// Set when blocked reading an existing block for a partial
    /// overwrite.
    pub rmw_buf: Option<(BufId, usize, usize)>,
    /// Data already lives in the kernel (handle/mmap baselines): skip the
    /// `copyin` charge.
    pub kernel_data: bool,
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
                if let Some(extra) = self.close_fd(pid, fd) {
                    SyscallOutcome::Done {
                        cpu: base + extra,
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
                    got: Vec::new(),
                    wait_buf: None,
                    issued_at: None,
                };
                self.do_read(pid, cont, base)
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
                self.do_write(pid, cont, base)
            }
            SyscallReq::Lseek { fd, pos } => {
                let Some(fid) = self.fid_of(pid, fd) else {
                    return self.err(Errno::Ebadf);
                };
                let of = self.files.get_mut(fid).unwrap();
                of.offset = pos;
                of.last_lblk = None;
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
            SyscallReq::RingCreate { depth, sigio } => self.sys_ring_create(pid, depth, sigio),
            SyscallReq::RingSubmit { ring, sqes } => self.sys_ring_submit(pid, ring, sqes),
            SyscallReq::RingReap { ring, min } => self.sys_ring_reap(pid, ring, min),
            SyscallReq::Fsync(fd) => {
                let Some(fid) = self.fid_of(pid, fd) else {
                    return self.err(Errno::Ebadf);
                };
                self.do_fsync(pid, fid, base)
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
                if let Some(id) = self.itimer_callouts.remove(&pid) {
                    self.callout.cancel(id);
                }
                if interval.is_zero() {
                    self.procs.must_mut(pid).itimer = None;
                } else {
                    self.procs.must_mut(pid).itimer = Some(interval);
                    let ticks = self.dur_to_ticks(interval);
                    let id = self
                        .callout
                        .schedule(self.tick, ticks, KWork::ItimerFire { pid });
                    self.itimer_callouts.insert(pid, id);
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
                self.conts.insert(pid, Cont::Pause);
                SyscallOutcome::Block {
                    cpu: base,
                    chan: Chan::new(ChanSpace::Pause, pid.0 as u64),
                }
            }
            SyscallReq::Sigaction { sig, catch } => {
                let p = self.procs.must_mut(pid);
                p.catches.retain(|s| *s != sig);
                if catch {
                    p.catches.push(sig);
                }
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
                        last_lblk: None,
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
                self.do_send(sock, data, base)
            }
            SyscallReq::Recv { fd, max_len } => {
                let Some(fid) = self.fid_of(pid, fd) else {
                    return self.err(Errno::Ebadf);
                };
                self.do_recv(pid, fid, max_len, base)
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
                self.do_handle_read(pid, fid, base)
            }
            SyscallReq::HandleWrite { fd, handle } => {
                let Some(fid) = self.fid_of(pid, fd) else {
                    return self.err(Errno::Ebadf);
                };
                self.do_handle_write(pid, fid, handle, base)
            }
            SyscallReq::MmapFault { src, dst, len } => {
                let (Some(sfid), Some(dfid)) = (self.fid_of(pid, src), self.fid_of(pid, dst))
                else {
                    return self.err(Errno::Ebadf);
                };
                self.do_mmap_fault(pid, sfid, dfid, len)
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
            Cont::Read(c) => self.do_read(pid, c, Dur::ZERO),
            Cont::Write(c) => self.do_write(pid, c, Dur::ZERO),
            Cont::Fsync { fid } => self.do_fsync(pid, fid, Dur::ZERO),
            Cont::SpliceSync { ring, desc } => self.resume_splice_sync(pid, ring, desc),
            Cont::RingReap { ring, min } => self.resume_ring_reap(pid, ring, min),
            Cont::Pause => SyscallOutcome::Done {
                cpu: self.cfg.machine.buf_op,
                ret: SyscallRet::Val(0),
            },
            Cont::Recv { fid, max_len } => self.do_recv(pid, fid, max_len, Dur::ZERO),
            Cont::Accept { fid } => self.do_accept(pid, fid, Dur::ZERO),
            Cont::Send { sock, data } => self.do_send(sock, data, Dur::ZERO),
            Cont::HandleRead { fid, wait_buf } => {
                self.do_handle_read_resume(pid, fid, wait_buf, Dur::ZERO)
            }
            Cont::MmapFault {
                src_fid,
                dst_fid,
                len,
                wait_buf,
            } => self.do_mmap_fault_resume(pid, src_fid, dst_fid, len, wait_buf),
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
                    last_lblk: None,
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
                last_lblk: None,
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
    /// Returns `None` for a bad fd, otherwise the extra simulated CPU
    /// the close incurred (the observability span commit, on the last
    /// reference to a server-side connection socket).
    pub(crate) fn close_fd(&mut self, pid: Pid, fd: Fd) -> Option<Dur> {
        match self.files.close(pid, fd) {
            None => None,
            Some(None) => Some(Dur::ZERO),
            Some(Some(of)) => {
                let mut extra = Dur::ZERO;
                if let FileObj::Sock { sock } = of.obj {
                    // Closing the source of an active splice is its EOF:
                    // the ring in-flight table completes the descriptor so
                    // every entry path hears about it (sync wakeup, SIGIO,
                    // or CQE). The splice completion lands its outcome on
                    // the staged span before the span closes.
                    self.splice_sock_eof(sock);
                    extra = self.obs_close(sock.0);
                    let _ = self.net.close(sock);
                }
                Some(extra)
            }
        }
    }

    // ----- read -----------------------------------------------------------------

    fn do_read(&mut self, pid: Pid, c: ReadCont, base: Dur) -> SyscallOutcome {
        let mut cpu = base;
        let Some(of) = self.files.get(c.fid) else {
            return self.err(Errno::Ebadf);
        };
        if !of.readable {
            return self.err(Errno::Ebadf);
        }
        match of.obj {
            FileObj::File { disk, ino } => self.file_read(pid, c, cpu, disk, ino),
            FileObj::Chr { cdev } => {
                let now = self.q.now();
                match &mut self.cdevs[cdev].dev {
                    CharDev::Fb(fb) => {
                        let data = fb.read(now, c.want);
                        cpu += self.cfg.machine.copy_cost(CopyKind::Copyout, c.want);
                        self.ctr.copy.copyout_bytes += c.want as u64;
                        SyscallOutcome::Done {
                            cpu,
                            ret: SyscallRet::Data(data),
                        }
                    }
                    _ => self.err(Errno::Enotsup),
                }
            }
            FileObj::Sock { .. } => self.do_recv(pid, c.fid, c.want, cpu),
        }
    }

    fn file_read(
        &mut self,
        pid: Pid,
        mut c: ReadCont,
        mut cpu: Dur,
        disk: usize,
        ino: Ino,
    ) -> SyscallOutcome {
        let bs = self.cfg.block_size as usize;
        let dev = self.disks[disk].dev;
        let m = self.cfg.machine.clone();

        // Resumed from biowait? Finish the block we were waiting for.
        if let Some((buf, boff, take)) = c.wait_buf.take() {
            debug_assert!(self.cache.io_done(buf), "woken before I/O completed");
            if let Some(at) = c.issued_at.take() {
                self.kstat.read_wait.record(self.q.now().since(at).as_ns());
            }
            if self.cache.flags(buf).contains(BufFlags::ERROR) {
                return self.read_failed(buf, cpu);
            }
            let data = self.cache.data(buf);
            c.got.extend_from_slice(&data.bytes()[boff..boff + take]);
            cpu += m.copy_cost(CopyKind::Copyout, take);
            self.ctr.copy.copyout_bytes += take as u64;
            let mut fx = Vec::new();
            self.cache.brelse(buf, &mut fx);
            let sync = self.apply_cache_effects(fx, IoCtx::Process);
            cpu += sync;
            let of = self.files.get_mut(c.fid).unwrap();
            of.offset += take as u64;
        }

        loop {
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
                c.got.extend(std::iter::repeat_n(0, take));
                cpu += m.copy_cost(CopyKind::Copyout, take);
                self.ctr.copy.copyout_bytes += take as u64;
                let of = self.files.get_mut(c.fid).unwrap();
                of.offset += take as u64;
                of.last_lblk = Some(lblk);
                continue;
            };

            // Sequential read-ahead (SCSI only; the RAM disk has no
            // latency to hide and read-ahead would only mis-attribute its
            // copy cost).
            let sequential =
                lblk == 0 || of.last_lblk == Some(lblk - 1) || of.last_lblk == Some(lblk);
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

            let mut fx = Vec::new();
            let out = self.cache.bread(dev, pblk, bs, &mut fx);
            let sync = self.apply_cache_effects(fx, IoCtx::Process);
            cpu += sync + m.buf_op;
            match out {
                BreadOutcome::Hit(buf) => {
                    let data = self.cache.data(buf);
                    c.got.extend_from_slice(&data.bytes()[boff..boff + take]);
                    drop(data);
                    cpu += m.copy_cost(CopyKind::Copyout, take);
                    self.ctr.copy.copyout_bytes += take as u64;
                    let mut fx = Vec::new();
                    self.cache.brelse(buf, &mut fx);
                    cpu += self.apply_cache_effects(fx, IoCtx::Process);
                    let of = self.files.get_mut(c.fid).unwrap();
                    of.offset += take as u64;
                    of.last_lblk = Some(lblk);
                }
                BreadOutcome::Miss(buf) => {
                    self.files.get_mut(c.fid).unwrap().last_lblk = Some(lblk);
                    if self.cache.io_done(buf) {
                        // RAM disk completed synchronously; use it now.
                        if self.cache.flags(buf).contains(BufFlags::ERROR) {
                            return self.read_failed(buf, cpu);
                        }
                        let data = self.cache.data(buf);
                        c.got.extend_from_slice(&data.bytes()[boff..boff + take]);
                        drop(data);
                        cpu += m.copy_cost(CopyKind::Copyout, take);
                        self.ctr.copy.copyout_bytes += take as u64;
                        let mut fx = Vec::new();
                        self.cache.brelse(buf, &mut fx);
                        cpu += self.apply_cache_effects(fx, IoCtx::Process);
                        let of = self.files.get_mut(c.fid).unwrap();
                        of.offset += take as u64;
                    } else {
                        // biowait: sleep until the interrupt side wakes us.
                        c.wait_buf = Some((buf, boff, take));
                        c.issued_at = Some(self.q.now());
                        let chan = Chan::new(ChanSpace::Buf, buf.0 as u64);
                        self.conts.insert(pid, Cont::Read(c));
                        return SyscallOutcome::Block { cpu, chan };
                    }
                }
                BreadOutcome::Busy(buf) => {
                    let chan = Chan::new(ChanSpace::Buf, buf.0 as u64);
                    self.conts.insert(pid, Cont::Read(c));
                    return SyscallOutcome::Block { cpu, chan };
                }
                BreadOutcome::NoBuffers => {
                    self.conts.insert(pid, Cont::Read(c));
                    return SyscallOutcome::Block {
                        cpu,
                        chan: Chan::new(ChanSpace::AnyBuf, 0),
                    };
                }
            }
        }
    }

    /// A block read completed with `B_ERROR`: release the buffer (brelse
    /// discards it, so the next read re-reads the device) and fail the
    /// call with EIO, as BSD `biowait` does.
    fn read_failed(&mut self, buf: BufId, mut cpu: Dur) -> SyscallOutcome {
        let mut fx = Vec::new();
        self.cache.brelse(buf, &mut fx);
        cpu += self.apply_cache_effects(fx, IoCtx::Process);
        SyscallOutcome::Done {
            cpu,
            ret: SyscallRet::Err(Errno::Eio),
        }
    }

    // ----- write -----------------------------------------------------------------

    pub(crate) fn do_write(&mut self, pid: Pid, c: WriteCont, base: Dur) -> SyscallOutcome {
        let Some(of) = self.files.get(c.fid) else {
            return self.err(Errno::Ebadf);
        };
        if !of.writable {
            return self.err(Errno::Ebadf);
        }
        match of.obj {
            FileObj::File { disk, ino } => self.file_write(pid, c, base, disk, ino),
            FileObj::Chr { cdev } => self.cdev_write(pid, c, base, cdev),
            FileObj::Sock { sock } => self.do_send(sock, c.data, base),
        }
    }

    fn file_write(
        &mut self,
        pid: Pid,
        mut c: WriteCont,
        mut cpu: Dur,
        disk: usize,
        ino: Ino,
    ) -> SyscallOutcome {
        let bs = self.cfg.block_size as usize;
        let dev = self.disks[disk].dev;
        let m = self.cfg.machine.clone();

        // Resumed from a read-modify-write biowait?
        if let Some((buf, boff, take)) = c.rmw_buf.take() {
            debug_assert!(self.cache.io_done(buf));
            cpu += self.finish_block_write(&mut c, buf, boff, take, disk, ino);
        }

        loop {
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
                let mut fx = Vec::new();
                let out = self.cache.bread(dev, pblk, bs, &mut fx);
                cpu += self.apply_cache_effects(fx, IoCtx::Process) + m.buf_op;
                match out {
                    BreadOutcome::Hit(buf) => {
                        cpu += self.finish_block_write(&mut c, buf, boff, take, disk, ino);
                    }
                    BreadOutcome::Miss(buf) => {
                        if self.cache.io_done(buf) {
                            cpu += self.finish_block_write(&mut c, buf, boff, take, disk, ino);
                        } else {
                            c.rmw_buf = Some((buf, boff, take));
                            let chan = Chan::new(ChanSpace::Buf, buf.0 as u64);
                            self.conts.insert(pid, Cont::Write(c));
                            return SyscallOutcome::Block { cpu, chan };
                        }
                    }
                    BreadOutcome::Busy(buf) => {
                        let chan = Chan::new(ChanSpace::Buf, buf.0 as u64);
                        self.conts.insert(pid, Cont::Write(c));
                        return SyscallOutcome::Block { cpu, chan };
                    }
                    BreadOutcome::NoBuffers => {
                        self.conts.insert(pid, Cont::Write(c));
                        return SyscallOutcome::Block {
                            cpu,
                            chan: Chan::new(ChanSpace::AnyBuf, 0),
                        };
                    }
                }
                continue;
            }

            // Full block, or a fresh block (zero-filled in memory; the
            // allocating bmap skipped the on-disk zero-fill, §5.2).
            let mut fx = Vec::new();
            let out = self.cache.getblk(dev, pblk, bs, &mut fx);
            cpu += self.apply_cache_effects(fx, IoCtx::Process);
            match out {
                GetblkOutcome::Held(buf) => {
                    if !full {
                        // Fresh partial block: clear the buffer before the
                        // partial copyin.
                        self.cache.data(buf).bytes_mut().fill(0);
                    }
                    cpu += self.finish_block_write(&mut c, buf, boff, take, disk, ino);
                }
                GetblkOutcome::Busy(buf) => {
                    let chan = Chan::new(ChanSpace::Buf, buf.0 as u64);
                    self.conts.insert(pid, Cont::Write(c));
                    return SyscallOutcome::Block { cpu, chan };
                }
                GetblkOutcome::NoBuffers => {
                    self.conts.insert(pid, Cont::Write(c));
                    return SyscallOutcome::Block {
                        cpu,
                        chan: Chan::new(ChanSpace::AnyBuf, 0),
                    };
                }
            }
        }
    }

    /// Copies the user data into a held buffer and writes it out (async
    /// for full sequential blocks, delayed otherwise). Returns the CPU
    /// charged.
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
        {
            let data = self.cache.data(buf);
            let mut bytes = data.bytes_mut();
            bytes[boff..boff + take].copy_from_slice(&c.data[c.done..c.done + take]);
        }
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

    fn cdev_write(
        &mut self,
        _pid: Pid,
        mut c: WriteCont,
        base: Dur,
        cdev: usize,
    ) -> SyscallOutcome {
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
                        then: WakeAction::Resume(Cont::Write(c)),
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

    fn do_fsync(&mut self, pid: Pid, fid: FileId, base: Dur) -> SyscallOutcome {
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
            self.conts.insert(pid, Cont::Fsync { fid });
            return SyscallOutcome::Block {
                cpu,
                chan: Chan::new(ChanSpace::Fsync, disk as u64),
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
            SyscallOutcome::BlockUntil {
                cpu,
                until: self.q.now() + meta,
                then: WakeAction::Deliver(SyscallRet::Val(0)),
            }
        }
    }

    // ----- sockets ----------------------------------------------------------------

    fn do_send(&mut self, sock: SockId, data: Vec<u8>, base: Dur) -> SyscallOutcome {
        let now = self.q.now();
        let len = data.len();
        match self.net.send(now, sock, len) {
            Ok(tx) => {
                let cpu = base
                    + self.cfg.machine.udp_packet
                    + self.cfg.machine.copy_cost(CopyKind::Net, len);
                self.ctr.copy.net_bytes += len as u64;
                // A user-space relay serves its connection with send(2):
                // accepted bytes land on the staged request span.
                self.obs.note_transfer(sock.0, len as u64, None);
                if let Some(dst) = tx.dst {
                    self.trace.emit(now, || TraceEvent::NetSend {
                        sock: sock.0,
                        len: len as u32,
                    });
                    let src = self.net.source_addr(sock).expect("socket exists");
                    self.q.schedule(
                        tx.arrival.max(now),
                        Event::NetDeliver {
                            dst,
                            dgram: Datagram {
                                src,
                                src_sock: sock,
                                data,
                            },
                        },
                    );
                } else {
                    self.trace.emit(now, || TraceEvent::NetDrop {
                        sock: sock.0,
                        len: len as u32,
                    });
                }
                SyscallOutcome::Done {
                    cpu,
                    ret: SyscallRet::Val(len as i64),
                }
            }
            // Send buffer full: park the caller until the link drains
            // enough to fit the datagram, then re-run the send.
            Err(NetErr::WouldBlock) => {
                let ready = self.net.link_ready_at(now, sock, len);
                let until = ready.max(now + Dur::from_us(1));
                SyscallOutcome::BlockUntil {
                    cpu: base,
                    until,
                    then: WakeAction::Resume(Cont::Send { sock, data }),
                }
            }
            Err(e) => self.err(net_errno(e)),
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
                        last_lblk: None,
                    },
                );
                // Stage the request span: accept is the span's birth,
                // and the current trace seq is its exemplar link.
                let seq = self.trace.emitted();
                let obs_cost = self.obs.note_accept(self.q.now(), conn.0, seq);
                SyscallOutcome::Done {
                    cpu: base + self.cfg.machine.udp_packet + obs_cost,
                    ret: SyscallRet::NewFd(fd),
                }
            }
            Ok(None) => {
                self.conts.insert(pid, Cont::Accept { fid });
                SyscallOutcome::Block {
                    cpu: base,
                    chan: Chan::new(ChanSpace::Accept, sock.0 as u64),
                }
            }
            Err(e) => self.err(net_errno(e)),
        }
    }

    fn do_recv(&mut self, pid: Pid, fid: FileId, max_len: usize, base: Dur) -> SyscallOutcome {
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
        self.conts.insert(pid, Cont::Recv { fid, max_len });
        SyscallOutcome::Block {
            cpu: base,
            chan: Chan::new(ChanSpace::SockRecv, sock.0 as u64),
        }
    }

    /// Bottom half of datagram arrival: enqueue into the socket, then
    /// either feed a socket-sourced splice or wake sleeping receivers.
    pub(crate) fn net_rx(&mut self, dst: SockId, dgram: Datagram) {
        let now = self.q.now();
        let len = dgram.data.len() as u32;
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
            }
        }
    }

    /// Posts `SIGIO` to a process (splice completion).
    pub(crate) fn post_sigio(&mut self, pid: Pid) {
        self.post_signal(pid, Sig::Io);
    }
}
