//! Identifiers, syscall vocabulary, and error numbers.

use ksim::{Bytes, ChunkVec, Dur, SimTime};

/// Process identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Pid(pub u32);

/// File descriptor (per-process index).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Fd(pub i32);

/// Signals the simulation models.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Sig {
    /// Asynchronous I/O completion (`SIGIO`) — how a process learns that an
    /// async splice finished (§3).
    Io,
    /// Interval timer expiry (`SIGALRM`) — the §4 movie player's pacing.
    Alrm,
}

/// A set of signals, one bit per [`Sig`]: a process's caught and pending
/// signals, and the signals a program is told about at a step. A signal
/// delivered twice before it is taken is pending once, as in UNIX.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct SigSet(u8);

impl SigSet {
    /// The empty set.
    pub const EMPTY: SigSet = SigSet(0);

    fn bit(sig: Sig) -> u8 {
        1 << sig as u8
    }

    /// True if `sig` is in the set.
    pub fn contains(self, sig: Sig) -> bool {
        self.0 & SigSet::bit(sig) != 0
    }

    /// True if no signal is in the set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Adds `sig`.
    pub fn insert(&mut self, sig: Sig) {
        self.0 |= SigSet::bit(sig);
    }

    /// Removes `sig`.
    pub fn remove(&mut self, sig: Sig) {
        self.0 &= !SigSet::bit(sig);
    }
}

impl From<Sig> for SigSet {
    fn from(sig: Sig) -> SigSet {
        SigSet(SigSet::bit(sig))
    }
}

/// Namespaces for sleep/wakeup channels. The kernel maps kernel objects
/// into `(space, id)` pairs; `kproc` treats them as opaque.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ChanSpace {
    /// A specific buffer-cache buffer (biowait / getblk collision).
    Buf,
    /// "Any buffer freed" (cache exhaustion).
    AnyBuf,
    /// A splice descriptor (synchronous splice completion).
    Splice,
    /// A socket's receive side.
    SockRecv,
    /// A socket's send side (buffer space).
    SockSend,
    /// A character device queue (audio/video DAC).
    Dev,
    /// `pause(2)`, one channel per pid — woken only by signal delivery,
    /// never by `wakeup` (see [`Chan::is_private`]).
    Pause,
    /// A timed sleep, one channel per pid — woken only by its timer,
    /// never by `wakeup` (see [`Chan::is_private`]).
    Timed,
    /// Per-process fsync completion.
    Fsync,
    /// A listener's accept backlog (acceptors sleep here; a carved
    /// connection is the wakeup).
    Accept,
}

/// A sleep/wakeup channel (BSD `tsleep`/`wakeup` address analogue).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Chan {
    /// Which namespace the id lives in.
    pub space: ChanSpace,
    /// Object identity within the namespace.
    pub id: u64,
}

impl Chan {
    /// Builds a channel.
    pub fn new(space: ChanSpace, id: u64) -> Chan {
        Chan { space, id }
    }

    /// True for a channel private to one process (`pause(2)` and timed
    /// sleeps, keyed by pid). `wakeup` never names one: the kernel wakes
    /// its sleeper through the pid, so the sleep index leaves it out.
    pub fn is_private(self) -> bool {
        matches!(self.space, ChanSpace::Pause | ChanSpace::Timed)
    }
}

/// One optional `T` per pid, in a slot indexed by the pid itself. Pids
/// are handed out densely from 1 and never reused, so a lookup is a
/// bounds-checked index rather than a hash, and the table grows with the
/// number of processes ever spawned, like the process table.
pub struct PidMap<T> {
    slots: ChunkVec<Option<T>>,
}

impl<T> Default for PidMap<T> {
    fn default() -> PidMap<T> {
        PidMap {
            slots: ChunkVec::new(),
        }
    }
}

impl<T> PidMap<T> {
    /// Stores `v` for `pid`, returning what was there.
    #[inline]
    pub fn insert(&mut self, pid: Pid, v: T) -> Option<T> {
        let i = pid.0 as usize;
        while self.slots.len() <= i {
            self.slots.push(None);
        }
        self.slots[i].replace(v)
    }

    /// Takes `pid`'s value out.
    #[inline]
    pub fn remove(&mut self, pid: Pid) -> Option<T> {
        self.slots.get_mut(pid.0 as usize)?.take()
    }
}

/// `open(2)` flags.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct OpenFlags {
    /// Open for reading.
    pub read: bool,
    /// Open for writing.
    pub write: bool,
    /// Create if absent.
    pub create: bool,
    /// Truncate to zero length.
    pub trunc: bool,
}

impl OpenFlags {
    /// `O_RDONLY`.
    pub const RDONLY: OpenFlags = OpenFlags {
        read: true,
        write: false,
        create: false,
        trunc: false,
    };
    /// `O_WRONLY`.
    pub const WRONLY: OpenFlags = OpenFlags {
        read: false,
        write: true,
        create: false,
        trunc: false,
    };
    /// `O_WRONLY | O_CREAT | O_TRUNC`.
    pub const CREATE: OpenFlags = OpenFlags {
        read: false,
        write: true,
        create: true,
        trunc: true,
    };
}

/// `fcntl(2)` commands the simulation models.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FcntlCmd {
    /// Set or clear `FASYNC` on the descriptor (§3: "the splice operates
    /// asynchronously if either of the file descriptors have the FASYNC
    /// flag enabled").
    SetAsync(bool),
}

/// The `size` argument of `splice(2)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpliceLen {
    /// Move exactly this many bytes (clamped to EOF).
    Bytes(u64),
    /// "A special value indicates the splice should execute until an end
    /// of file condition is reached" (§3) — `SPLICE_EOF`.
    Eof,
}

/// The unified splice request: endpoint pair, transfer size, and the
/// fault/retry policy, as a typed builder.
///
/// Both splice entry paths — the synchronous `splice(2)` call and the
/// `FASYNC`/`SIGIO` descriptor path — carry one of these; the kernel has
/// exactly one code path from a `SpliceReq` to a [`SpliceOutcome`].
///
/// ```
/// use kproc::{Fd, SpliceLen, SpliceReq, SyscallReq};
///
/// let whole_file = SpliceReq::new(Fd(3), Fd(4));
/// assert_eq!(whole_file.len, SpliceLen::Eof);
/// let one_frame = SpliceReq::new(Fd(3), Fd(4)).bytes(64 * 1024);
/// let req: SyscallReq = one_frame.req();
/// assert!(matches!(req, SyscallReq::Splice { .. }));
/// ```
///
/// There is no flags word: per §3 the asynchronous-completion choice
/// rides on the *descriptor* (`FASYNC` via [`FcntlCmd::SetAsync`]), not
/// on the call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpliceReq {
    /// Source descriptor.
    pub src: Fd,
    /// Destination descriptor.
    pub dst: Fd,
    /// Transfer size; defaults to [`SpliceLen::Eof`].
    pub len: SpliceLen,
    /// Per-block retry budget for transient device errors; defaults to
    /// [`SpliceReq::DEFAULT_RETRIES`]. A block still failing after this
    /// many attempts aborts the transfer with `EIO`.
    pub retry_limit: u32,
}

impl SpliceReq {
    /// Default per-block retry budget (1, 2, 4, 8, 16 tick backoffs).
    pub const DEFAULT_RETRIES: u32 = 5;

    /// A whole-source splice (`SPLICE_EOF`), the common case.
    pub fn new(src: Fd, dst: Fd) -> SpliceReq {
        SpliceReq {
            src,
            dst,
            len: SpliceLen::Eof,
            retry_limit: SpliceReq::DEFAULT_RETRIES,
        }
    }

    /// Limits the transfer to `n` bytes.
    pub fn bytes(mut self, n: u64) -> SpliceReq {
        self.len = SpliceLen::Bytes(n);
        self
    }

    /// Sets the transfer size from an existing [`SpliceLen`].
    pub fn len(mut self, len: SpliceLen) -> SpliceReq {
        self.len = len;
        self
    }

    /// Overrides the per-block retry budget (0 = abort on first error).
    pub fn retries(mut self, n: u32) -> SpliceReq {
        self.retry_limit = n;
        self
    }

    /// The syscall request these arguments describe.
    pub fn req(self) -> SyscallReq {
        SyscallReq::Splice { req: self }
    }
}

impl From<SpliceReq> for SyscallReq {
    fn from(req: SpliceReq) -> SyscallReq {
        req.req()
    }
}

/// How a finished splice ended: how many bytes actually moved, and the
/// errno if it aborted. Retained after the descriptor itself is torn
/// down so tests and post-mortem tooling can audit partial transfers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpliceOutcome {
    /// Bytes fully written to the destination before completion/abort.
    pub bytes_moved: u64,
    /// `None` for a clean completion, the typed errno for an abort.
    pub error: Option<Errno>,
}

/// A UDP endpoint (host, port) in the simulated network.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SockAddr {
    /// Host identifier.
    pub host: u32,
    /// UDP port.
    pub port: u16,
}

/// System call requests a program can issue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyscallReq {
    /// Open a path (filesystem or device namespace).
    Open {
        /// Absolute path, e.g. `/movie.audio` or `/dev/speaker`.
        path: String,
        /// Access flags.
        flags: OpenFlags,
    },
    /// Close a descriptor.
    Close(Fd),
    /// Read up to `len` bytes at the descriptor's offset.
    Read {
        /// Source descriptor.
        fd: Fd,
        /// Maximum bytes.
        len: usize,
    },
    /// Write bytes at the descriptor's offset.
    Write {
        /// Destination descriptor.
        fd: Fd,
        /// The bytes (moved through copyin in the kernel). A view of a
        /// whole block, written at a block boundary, is installed in the
        /// buffer cache without a host copy.
        data: Bytes,
    },
    /// Reposition the descriptor offset.
    Lseek {
        /// Descriptor.
        fd: Fd,
        /// New absolute offset.
        pos: u64,
    },
    /// The paper's contribution: move bytes from source to destination
    /// inside the kernel.
    Splice {
        /// The unified request (endpoints, size, retry policy).
        req: SpliceReq,
    },
    /// Flush a file's dirty blocks (and metadata) to the device.
    Fsync(Fd),
    /// Descriptor control.
    Fcntl {
        /// Descriptor.
        fd: Fd,
        /// Command.
        cmd: FcntlCmd,
    },
    /// Remove a name.
    Unlink {
        /// Absolute path.
        path: String,
    },
    /// Add a hard link (`link(2)`): `new` becomes another name for
    /// `existing`.
    Link {
        /// Existing file.
        existing: String,
        /// New name (same filesystem).
        new: String,
    },
    /// Arm a repeating real-time interval timer delivering [`Sig::Alrm`].
    SetItimer {
        /// Interval (zero disarms).
        interval: Dur,
    },
    /// Sleep until a signal is delivered (returns immediately if one is
    /// already pending — see the movie-player discussion in the docs).
    Pause,
    /// Ask to catch (or ignore) a signal.
    Sigaction {
        /// Signal.
        sig: Sig,
        /// Catch (true) or default-ignore (false).
        catch: bool,
    },
    /// Read the clock.
    GetTime,
    /// Create a UDP socket.
    Socket,
    /// Bind a socket to a local port.
    Bind {
        /// Socket descriptor.
        fd: Fd,
        /// Local port.
        port: u16,
    },
    /// Set the default destination of a socket.
    Connect {
        /// Socket descriptor.
        fd: Fd,
        /// Peer address.
        addr: SockAddr,
    },
    /// Mark a bound socket as a listener with a bounded accept backlog.
    Listen {
        /// Socket descriptor (must be bound).
        fd: Fd,
        /// Maximum carved-but-unaccepted connections.
        backlog: u32,
    },
    /// Take the oldest pending connection off a listener, as a new
    /// socket descriptor. Blocks until a connection arrives.
    Accept {
        /// Listening socket descriptor.
        fd: Fd,
    },
    /// Send a datagram to the connected peer.
    Send {
        /// Socket descriptor.
        fd: Fd,
        /// Payload (the kernel wraps it as a [`ksim::Bytes`] without
        /// copying it).
        data: Vec<u8>,
    },
    /// Receive one datagram (blocks until one arrives).
    Recv {
        /// Socket descriptor.
        fd: Fd,
        /// Maximum payload accepted.
        max_len: usize,
    },
    /// File size query (`fstat`, size field only).
    Fstat(Fd),
    /// \[PCM91\] ioctl-handle baseline (§7): read the next block at the
    /// descriptor's offset into a kernel-held handle — data stays in the
    /// kernel, no `copyout`. Returns the handle.
    HandleRead {
        /// Source descriptor.
        fd: Fd,
    },
    /// \[PCM91\] ioctl-handle baseline: write a kernel handle's data at the
    /// descriptor's offset — no `copyin`. Consumes the handle.
    HandleWrite {
        /// Destination descriptor.
        fd: Fd,
        /// Handle from [`SyscallReq::HandleRead`].
        handle: i64,
    },
    /// Memory-mapped-copy baseline (§7's shared-memory approaches): the
    /// kernel-side work of touching `len` mapped bytes at both files'
    /// offsets — page faults plus the cache traffic they imply. The
    /// user-mode `memcpy` itself is a separate [`crate::Step::Compute`].
    /// There is no per-call trap cost: entry is by page fault.
    MmapFault {
        /// Source descriptor.
        src: Fd,
        /// Destination descriptor.
        dst: Fd,
        /// Window length in bytes.
        len: usize,
    },
}

/// System call return values delivered to the program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyscallRet {
    /// Success with a count/status value (read/write/splice byte counts).
    Val(i64),
    /// A new descriptor.
    NewFd(Fd),
    /// Data read: a view of the cached block when the read returned
    /// exactly one whole block, the copied bytes otherwise.
    Data(Bytes),
    /// Current simulated time.
    Time(SimTime),
    /// Failure.
    Err(Errno),
}

impl SyscallRet {
    /// The numeric value, for programs that only care about counts.
    /// Errors map to -1 as in UNIX.
    pub fn as_val(&self) -> i64 {
        match self {
            SyscallRet::Val(v) => *v,
            SyscallRet::NewFd(fd) => fd.0 as i64,
            SyscallRet::Data(d) => d.len() as i64,
            SyscallRet::Time(_) => 0,
            SyscallRet::Err(_) => -1,
        }
    }

    /// The descriptor, if this was a descriptor-returning call.
    pub fn as_fd(&self) -> Option<Fd> {
        match self {
            SyscallRet::NewFd(fd) => Some(*fd),
            _ => None,
        }
    }
}

/// Error numbers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Errno {
    /// No such file or directory.
    Enoent,
    /// File exists.
    Eexist,
    /// Bad file descriptor.
    Ebadf,
    /// Invalid argument.
    Einval,
    /// Resource temporarily unavailable (a send that would block).
    Eagain,
    /// No space left on device.
    Enospc,
    /// Is a directory.
    Eisdir,
    /// Not a directory.
    Enotdir,
    /// Directory not empty.
    Enotempty,
    /// I/O error.
    Eio,
    /// Operation not supported on this object.
    Enotsup,
    /// File too large.
    Efbig,
    /// Interrupted (signal).
    Eintr,
    /// Address already in use.
    Eaddrinuse,
    /// Socket not connected.
    Enotconn,
    /// Message too long for the protocol.
    Emsgsize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syscall_ret_values() {
        assert_eq!(SyscallRet::Val(42).as_val(), 42);
        assert_eq!(SyscallRet::NewFd(Fd(3)).as_val(), 3);
        assert_eq!(SyscallRet::Data(vec![1, 2, 3].into()).as_val(), 3);
        assert_eq!(SyscallRet::Err(Errno::Enoent).as_val(), -1);
        assert_eq!(SyscallRet::NewFd(Fd(3)).as_fd(), Some(Fd(3)));
        assert_eq!(SyscallRet::Val(0).as_fd(), None);
    }

    #[test]
    fn open_flag_presets() {
        // Spelled through locals so the (deliberate) tautology does not
        // trip the constant-assertion lint.
        let ro = OpenFlags::RDONLY;
        let cr = OpenFlags::CREATE;
        assert!(ro.read && !ro.write);
        assert!(cr.create && cr.trunc);
    }

    #[test]
    fn sig_set_holds_each_signal_once() {
        let mut s = SigSet::EMPTY;
        assert!(s.is_empty());
        s.insert(Sig::Alrm);
        s.insert(Sig::Alrm);
        assert!(s.contains(Sig::Alrm) && !s.contains(Sig::Io));
        s.insert(Sig::Io);
        s.remove(Sig::Alrm);
        assert_eq!(s, SigSet::from(Sig::Io));
        s.remove(Sig::Io);
        assert!(s.is_empty());
    }

    #[test]
    fn pid_map_slots_are_independent() {
        let mut m = PidMap::default();
        assert_eq!(m.remove(Pid(3)), None);
        assert_eq!(m.insert(Pid(3), 'c'), None);
        assert_eq!(m.insert(Pid(1), 'a'), None);
        assert_eq!(m.insert(Pid(3), 'C'), Some('c'));
        assert_eq!(m.remove(Pid(2)), None);
        assert_eq!(m.remove(Pid(3)), Some('C'));
        assert_eq!(m.remove(Pid(3)), None);
        assert_eq!(m.remove(Pid(1)), Some('a'));
        assert_eq!(m.remove(Pid(u32::MAX)), None);
    }

    #[test]
    fn only_pid_keyed_channels_are_private() {
        assert!(Chan::new(ChanSpace::Pause, 1).is_private());
        assert!(Chan::new(ChanSpace::Timed, 1).is_private());
        for space in [ChanSpace::Buf, ChanSpace::SockRecv, ChanSpace::Fsync] {
            assert!(!Chan::new(space, 1).is_private());
        }
    }

    #[test]
    fn chan_equality() {
        let a = Chan::new(ChanSpace::Buf, 7);
        let b = Chan::new(ChanSpace::Buf, 7);
        let c = Chan::new(ChanSpace::AnyBuf, 7);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
