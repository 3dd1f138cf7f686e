//! Identifiers, syscall vocabulary, and error numbers.

use ksim::{Dur, SimTime};

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
    /// A splice ring's completion queue (reapers sleep here; the queue
    /// going non-empty is the wakeup).
    Ring,
    /// A socket's receive side.
    SockRecv,
    /// A socket's send side (buffer space).
    SockSend,
    /// A character device queue (audio/video DAC).
    Dev,
    /// `pause(2)` — woken only by signal delivery.
    Pause,
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
/// Every splice entry path — the synchronous `splice(2)` call, the
/// `FASYNC`/`SIGIO` descriptor path, and batched ring submissions
/// ([`SpliceSqe`]) — carries one of these; the kernel has exactly one
/// code path from a `SpliceReq` to a [`SpliceOutcome`].
///
/// ```
/// use kproc::{Fd, SpliceLen, SpliceReq, SyscallReq};
///
/// let whole_file = SpliceReq::new(Fd(3), Fd(4));
/// assert_eq!(whole_file.len, SpliceLen::Eof);
/// let one_frame = SpliceReq::new(Fd(3), Fd(4)).bytes(64 * 1024);
/// let req: SyscallReq = one_frame.req();
/// assert!(matches!(req, SyscallReq::Splice { .. }));
/// let sqe = SpliceReq::new(Fd(3), Fd(4)).bytes(8192).sqe(7);
/// assert_eq!(sqe.user_data, 7);
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

    /// Runs until end of file (the default).
    pub fn to_eof(mut self) -> SpliceReq {
        self.len = SpliceLen::Eof;
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

    /// Wraps the request as a ring submission tagged `user_data`.
    pub fn sqe(self, user_data: u64) -> SpliceSqe {
        SpliceSqe {
            user_data,
            req: self,
        }
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

/// One splice-ring submission: a [`SpliceReq`] plus an opaque tag the
/// completion ([`SpliceCqe`]) echoes back, io_uring style.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpliceSqe {
    /// Caller-chosen tag; the matching CQE carries the same value.
    pub user_data: u64,
    /// The transfer to perform.
    pub req: SpliceReq,
}

/// One splice-ring completion: the submission's tag and its outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpliceCqe {
    /// The tag of the [`SpliceSqe`] this completes.
    pub user_data: u64,
    /// How the transfer ended.
    pub outcome: SpliceOutcome,
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
        /// The bytes (moved through copyin in the kernel).
        data: Vec<u8>,
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
    /// Create a splice ring: a bounded submission/completion queue pair
    /// through which many splices are posted and reaped in single
    /// crossings. Returns the ring id as `Val`.
    RingCreate {
        /// Maximum entries in flight + unreaped completions. Zero is
        /// `EINVAL`.
        depth: u32,
        /// Deliver `SIGIO` when the completion queue goes non-empty.
        sigio: bool,
    },
    /// Post a batch of submissions in **one** syscall crossing. Returns
    /// `Val(accepted)`; fewer than `sqes.len()` when the ring fills
    /// mid-batch, `EAGAIN` when no entry fits at all.
    RingSubmit {
        /// Ring id from [`SyscallReq::RingCreate`].
        ring: u64,
        /// The submissions, in order.
        sqes: Vec<SpliceSqe>,
    },
    /// Reap queued completions in **one** crossing. Blocks until at
    /// least `min` CQEs are available (clamped to what can still
    /// arrive); `min = 0` polls. Returns [`SyscallRet::Cqes`] in
    /// completion order.
    RingReap {
        /// Ring id from [`SyscallReq::RingCreate`].
        ring: u64,
        /// Minimum completions to wait for.
        min: u32,
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
        /// Payload.
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
    /// Data read.
    Data(Vec<u8>),
    /// Current simulated time.
    Time(SimTime),
    /// Reaped ring completions, in completion order.
    Cqes(Vec<SpliceCqe>),
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
            SyscallRet::Cqes(c) => c.len() as i64,
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
    /// Resource temporarily unavailable (a full submission queue).
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
        assert_eq!(SyscallRet::Data(vec![1, 2, 3]).as_val(), 3);
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
    fn chan_equality() {
        let a = Chan::new(ChanSpace::Buf, 7);
        let b = Chan::new(ChanSpace::Buf, 7);
        let c = Chan::new(ChanSpace::AnyBuf, 7);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
