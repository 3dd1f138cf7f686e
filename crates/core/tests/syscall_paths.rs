//! Syscall-layer behaviour: error paths, offsets, partial writes,
//! namespace operations — driven through small scripted programs.

use khw::DiskProfile;
use kproc::programs::util::pattern_bytes;
use kproc::programs::Cp;
use kproc::{
    Errno, Fd, OpenFlags, ProcState, Program, SpliceLen, SpliceReq, Step, SyscallReq, SyscallRet,
    UserCtx,
};
use splice::{Kernel, KernelBuilder};

/// Runs a fixed list of syscalls, recording every return value.
struct Script {
    calls: Vec<SyscallReq>,
    next: usize,
    results: std::rc::Rc<std::cell::RefCell<Vec<SyscallRet>>>,
    started: bool,
}

impl Script {
    fn new(calls: Vec<SyscallReq>) -> (Script, std::rc::Rc<std::cell::RefCell<Vec<SyscallRet>>>) {
        let results = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        (
            Script {
                calls,
                next: 0,
                results: results.clone(),
                started: false,
            },
            results,
        )
    }
}

impl Program for Script {
    fn step(&mut self, ctx: &mut UserCtx) -> Step {
        if self.started {
            self.results.borrow_mut().push(ctx.take_ret());
        }
        self.started = true;
        if self.next >= self.calls.len() {
            return Step::Exit(0);
        }
        let call = self.calls[self.next].clone();
        self.next += 1;
        Step::Syscall(call)
    }

    fn name(&self) -> &str {
        "script"
    }
}

fn ram_kernel() -> Kernel {
    KernelBuilder::new()
        .disk("d", DiskProfile::ramdisk())
        .build()
}

fn run_script(k: &mut Kernel, calls: Vec<SyscallReq>) -> Vec<SyscallRet> {
    let (script, results) = Script::new(calls);
    let pid = k.spawn(Box::new(script));
    let horizon = k.horizon(120);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
    let out = results.borrow().clone();
    out
}

#[test]
fn open_errors() {
    let mut k = ram_kernel();
    let r = run_script(
        &mut k,
        vec![
            SyscallReq::Open {
                path: "/d/missing".into(),
                flags: OpenFlags::RDONLY,
            },
            SyscallReq::Open {
                path: "/nodisk/x".into(),
                flags: OpenFlags::RDONLY,
            },
            SyscallReq::Open {
                path: "/dev/nonexistent".into(),
                flags: OpenFlags::WRONLY,
            },
        ],
    );
    assert_eq!(r[0], SyscallRet::Err(Errno::Enoent));
    assert_eq!(r[1], SyscallRet::Err(Errno::Enoent));
    assert_eq!(r[2], SyscallRet::Err(Errno::Enoent));
}

#[test]
fn bad_descriptor_errors() {
    let mut k = ram_kernel();
    let r = run_script(
        &mut k,
        vec![
            SyscallReq::Read { fd: Fd(9), len: 10 },
            SyscallReq::Write {
                fd: Fd(9),
                data: vec![1].into(),
            },
            SyscallReq::Close(Fd(9)),
            SyscallReq::Fsync(Fd(9)),
        ],
    );
    for ret in &r {
        assert_eq!(*ret, SyscallRet::Err(Errno::Ebadf), "{ret:?}");
    }
}

#[test]
fn write_then_read_back_with_lseek() {
    let mut k = ram_kernel();
    let data = pattern_bytes(9, 0, 10_000);
    let r = run_script(
        &mut k,
        vec![
            SyscallReq::Open {
                path: "/d/f".into(),
                flags: OpenFlags::CREATE,
            },
            SyscallReq::Write {
                fd: Fd(3),
                data: data.clone().into(),
            },
            SyscallReq::Fstat(Fd(3)),
            SyscallReq::Close(Fd(3)),
            SyscallReq::Open {
                path: "/d/f".into(),
                flags: OpenFlags::RDONLY,
            },
            SyscallReq::Lseek {
                fd: Fd(3),
                pos: 5_000,
            },
            SyscallReq::Read {
                fd: Fd(3),
                len: 5_000,
            },
            // Reading past EOF returns empty.
            SyscallReq::Read {
                fd: Fd(3),
                len: 100,
            },
        ],
    );
    assert_eq!(r[1], SyscallRet::Val(10_000));
    assert_eq!(r[2], SyscallRet::Val(10_000), "fstat size");
    assert_eq!(r[6], SyscallRet::Data(data[5_000..].to_vec().into()));
    assert_eq!(r[7], SyscallRet::Data(Vec::new().into()));
}

#[test]
fn partial_overwrite_read_modify_write() {
    let mut k = ram_kernel();
    k.setup_file("/d/f", 20_000, 4);
    k.cold_cache();
    // Overwrite 100 bytes in the middle of block 1 through the write
    // syscall (forces the read-modify-write path).
    let r = run_script(
        &mut k,
        vec![
            SyscallReq::Open {
                path: "/d/f".into(),
                flags: OpenFlags::WRONLY,
            },
            SyscallReq::Lseek {
                fd: Fd(3),
                pos: 9_000,
            },
            SyscallReq::Write {
                fd: Fd(3),
                data: vec![0xAA; 100].into(),
            },
            SyscallReq::Fsync(Fd(3)),
            SyscallReq::Close(Fd(3)),
        ],
    );
    assert_eq!(r[2], SyscallRet::Val(100));
    let got = k.dump_file("/d/f");
    let mut want = pattern_bytes(4, 0, 20_000);
    want[9_000..9_100].fill(0xAA);
    assert_eq!(got, want, "surrounding bytes must survive the overwrite");
    assert!(k.fsck_all().is_empty());
}

/// The medium and the cache share a block after it is read or written;
/// a delayed write that modifies the cached block again must leave the
/// medium unchanged until the block is written back.
#[test]
fn delayed_write_leaves_the_medium_unchanged_until_written() {
    let mut k = KernelBuilder::new()
        .disk("d", DiskProfile::ramdisk())
        .tune(|cfg| cfg.update_interval = None)
        .build();
    k.setup_file("/d/f", 20_000, 6);
    k.cold_cache();
    let mut want = pattern_bytes(6, 0, 20_000);
    let write_at = |k: &mut Kernel, pos: u64, byte: u8, fsync: bool| {
        let mut calls = vec![
            SyscallReq::Open {
                path: "/d/f".into(),
                flags: OpenFlags::WRONLY,
            },
            SyscallReq::Lseek { fd: Fd(3), pos },
            SyscallReq::Write {
                fd: Fd(3),
                data: vec![byte; 10].into(),
            },
        ];
        if fsync {
            calls.push(SyscallReq::Fsync(Fd(3)));
        }
        calls.push(SyscallReq::Close(Fd(3)));
        let r = run_script(k, calls);
        assert_eq!(r[2], SyscallRet::Val(10));
    };

    // Read-modify-write of block 1, left delayed: the medium still holds
    // the block the cache read.
    write_at(&mut k, 9_000, 0xAA, false);
    assert_eq!(
        k.dump_file("/d/f"),
        want,
        "a delayed write reached the medium"
    );
    // Written back: now the medium and the cache share the new block.
    write_at(&mut k, 9_000, 0xAA, true);
    want[9_000..9_010].fill(0xAA);
    assert_eq!(k.dump_file("/d/f"), want);
    // Modified again in the cache (a hit), delayed: the medium is
    // unchanged until the next write-back.
    write_at(&mut k, 9_005, 0xBB, false);
    assert_eq!(
        k.dump_file("/d/f"),
        want,
        "the cache wrote through a shared block"
    );
    write_at(&mut k, 9_005, 0xBB, true);
    want[9_005..9_015].fill(0xBB);
    assert_eq!(k.dump_file("/d/f"), want);
    assert!(k.fsck_all().is_empty());
}

#[test]
fn truncate_on_reopen_discards_old_contents() {
    let mut k = ram_kernel();
    k.setup_file("/d/f", 30_000, 5);
    k.cold_cache();
    let r = run_script(
        &mut k,
        vec![
            SyscallReq::Open {
                path: "/d/f".into(),
                flags: OpenFlags::CREATE, // O_CREAT|O_TRUNC|O_WRONLY
            },
            SyscallReq::Write {
                fd: Fd(3),
                data: vec![7u8; 100].into(),
            },
            SyscallReq::Fsync(Fd(3)),
            SyscallReq::Close(Fd(3)),
        ],
    );
    assert_eq!(r[1], SyscallRet::Val(100));
    assert_eq!(k.file_size("/d/f"), 100);
    assert_eq!(k.dump_file("/d/f"), vec![7u8; 100]);
    assert!(k.fsck_all().is_empty());
}

#[test]
fn unlink_and_enoent_after() {
    let mut k = ram_kernel();
    k.setup_file("/d/f", 5_000, 6);
    k.cold_cache();
    let r = run_script(
        &mut k,
        vec![
            SyscallReq::Unlink {
                path: "/d/f".into(),
            },
            SyscallReq::Open {
                path: "/d/f".into(),
                flags: OpenFlags::RDONLY,
            },
            SyscallReq::Unlink {
                path: "/d/f".into(),
            },
        ],
    );
    assert_eq!(r[0], SyscallRet::Val(0));
    assert_eq!(r[1], SyscallRet::Err(Errno::Enoent));
    assert_eq!(r[2], SyscallRet::Err(Errno::Enoent));
    assert!(k.fsck_all().is_empty());
}

#[test]
fn read_from_writeonly_fd_fails() {
    let mut k = ram_kernel();
    k.setup_file("/d/f", 1_000, 8);
    k.cold_cache();
    let r = run_script(
        &mut k,
        vec![
            SyscallReq::Open {
                path: "/d/f".into(),
                flags: OpenFlags::WRONLY,
            },
            SyscallReq::Read { fd: Fd(3), len: 10 },
        ],
    );
    assert_eq!(r[1], SyscallRet::Err(Errno::Ebadf));
}

#[test]
fn gettime_advances() {
    let mut k = ram_kernel();
    let r = run_script(&mut k, vec![SyscallReq::GetTime, SyscallReq::GetTime]);
    let (SyscallRet::Time(a), SyscallRet::Time(b)) = (&r[0], &r[1]) else {
        panic!("{r:?}")
    };
    assert!(b > a, "syscalls take time");
}

#[test]
fn socket_errors() {
    let mut k = ram_kernel();
    let r = run_script(
        &mut k,
        vec![
            SyscallReq::Socket,
            SyscallReq::Send {
                fd: Fd(3),
                data: vec![0; 10],
            }, // not connected
            SyscallReq::Socket,
            SyscallReq::Bind {
                fd: Fd(4),
                port: 80,
            },
            SyscallReq::Bind {
                fd: Fd(3),
                port: 80,
            }, // port in use
        ],
    );
    assert_eq!(r[1], SyscallRet::Err(Errno::Enotconn));
    assert_eq!(r[4], SyscallRet::Err(Errno::Eaddrinuse));
}

#[test]
fn hard_link_via_syscall_and_splice_from_either_name() {
    let mut k = ram_kernel();
    k.setup_file("/d/orig", 20_000, 12);
    k.cold_cache();
    let r = run_script(
        &mut k,
        vec![
            SyscallReq::Link {
                existing: "/d/orig".into(),
                new: "/d/alias".into(),
            },
            // Cross-filesystem links are refused.
            SyscallReq::Link {
                existing: "/d/orig".into(),
                new: "/dev/speaker".into(),
            },
        ],
    );
    assert_eq!(r[0], SyscallRet::Val(0));
    assert_eq!(r[1], SyscallRet::Err(Errno::Enoent));
    // The alias reads identically…
    assert_eq!(k.dump_file("/d/alias"), k.dump_file("/d/orig"));
    // …and splicing from it produces the same bytes.
    let pid = k.spawn(Box::new(kproc::programs::Scp::new("/d/alias", "/d/copy")));
    let horizon = k.horizon(120);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
    assert_eq!(k.verify_pattern_file("/d/copy", 20_000, 12), None);
    assert!(k.fsck_all().is_empty());
}

#[test]
fn truncate_over_dirty_blocks_discards_them() {
    // Regression: cp WITHOUT fsync leaves the partial final block as a
    // delayed write; re-opening the destination with O_TRUNC must discard
    // it, not panic or write it back into a freed block.
    let mut k = KernelBuilder::paper_machine_ram().build();
    k.setup_file("/d0/src", 100_000, 21); // unaligned: partial last block
    k.cold_cache();
    let pid = k.spawn(Box::new(kproc::programs::Cp::with_options(
        "/d0/src", "/d1/dst", 8192, false, 3,
    )));
    let horizon = k.horizon(300);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
    assert!(k.metrics().cache.trunc_purged > 0);
    // Without fsync the last (partial) block is not durable until the
    // cache flushes; flush, then verify.
    k.cold_cache();
    assert_eq!(k.verify_pattern_file("/d1/dst", 100_000, 21), None);
    assert!(k.fsck_all().is_empty());
}

#[test]
fn closing_spliced_socket_source_completes_the_splice() {
    // Regression: a synchronous splice from a socket must not sleep
    // forever when another descriptor... here, the owner's own close path
    // is exercised via FASYNC: the splice is async, the owner closes the
    // source socket before all bytes arrived, and must still get SIGIO.
    use kproc::Sig;
    let mut k = ram_kernel();
    struct P {
        st: u32,
        sock: Option<Fd>,
        file: Option<Fd>,
    }
    impl Program for P {
        fn step(&mut self, ctx: &mut UserCtx) -> Step {
            match self.st {
                0 => {
                    self.st = 1;
                    Step::Syscall(SyscallReq::Socket)
                }
                1 => {
                    self.sock = ctx.take_ret().as_fd();
                    self.st = 2;
                    Step::Syscall(SyscallReq::Bind {
                        fd: self.sock.unwrap(),
                        port: 9,
                    })
                }
                2 => {
                    ctx.take_ret();
                    self.st = 3;
                    Step::Syscall(SyscallReq::Open {
                        path: "/d/out".into(),
                        flags: OpenFlags::CREATE,
                    })
                }
                3 => {
                    self.file = ctx.take_ret().as_fd();
                    self.st = 4;
                    Step::Syscall(SyscallReq::Sigaction {
                        sig: Sig::Io,
                        catch: true,
                    })
                }
                4 => {
                    ctx.take_ret();
                    self.st = 5;
                    Step::Syscall(SyscallReq::Fcntl {
                        fd: self.sock.unwrap(),
                        cmd: kproc::FcntlCmd::SetAsync(true),
                    })
                }
                5 => {
                    ctx.take_ret();
                    self.st = 6;
                    // Far more than will arrive.
                    Step::splice(
                        SpliceReq::new(self.sock.unwrap(), self.file.unwrap())
                            .len(SpliceLen::Bytes(1 << 20)),
                    )
                }
                6 => {
                    ctx.take_ret();
                    // Close the source immediately: EOF for the splice.
                    self.st = 7;
                    Step::Syscall(SyscallReq::Close(self.sock.take().unwrap()))
                }
                7 | 8 => {
                    ctx.take_ret();
                    self.st = 8;
                    // The SIGIO may land during the close itself (the
                    // classic pause() race the §4 example lives with), so
                    // check at every step.
                    if ctx.got_signal(Sig::Io) {
                        Step::Exit(0)
                    } else {
                        Step::Syscall(SyscallReq::Pause)
                    }
                }
                _ => Step::Exit(0),
            }
        }
    }
    let pid = k.spawn(Box::new(P {
        st: 0,
        sock: None,
        file: None,
    }));
    let horizon = k.horizon(60);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
}

// ----- copy-on-write isolation of zero-copy user I/O ------------------------

/// `O_RDWR`.
const RDWR: OpenFlags = OpenFlags {
    read: true,
    write: true,
    create: false,
    trunc: false,
};

/// A read that returns one whole cached block hands the program a view
/// of that block. The view is a snapshot: rewriting part of the block
/// afterwards, whether the medium still shares it or only the cache
/// holds it, copies the block first.
#[test]
fn read_views_keep_their_bytes_after_the_block_is_rewritten() {
    let mut k = KernelBuilder::new()
        .disk("d", DiskProfile::ramdisk())
        .tune(|cfg| cfg.update_interval = None)
        .build();
    k.setup_file("/d/f", 16_384, 6);
    k.cold_cache();
    let r = run_script(
        &mut k,
        vec![
            SyscallReq::Open {
                path: "/d/f".into(),
                flags: RDWR,
            },
            // The medium, the cache and this view share block 0.
            SyscallReq::Read {
                fd: Fd(3),
                len: 8192,
            },
            SyscallReq::Lseek {
                fd: Fd(3),
                pos: 100,
            },
            SyscallReq::Write {
                fd: Fd(3),
                data: vec![0xAA; 10].into(),
            },
            // Now only the cache holds the delayed block, and this view.
            SyscallReq::Lseek { fd: Fd(3), pos: 0 },
            SyscallReq::Read {
                fd: Fd(3),
                len: 8192,
            },
            SyscallReq::Lseek {
                fd: Fd(3),
                pos: 200,
            },
            SyscallReq::Write {
                fd: Fd(3),
                data: vec![0xBB; 10].into(),
            },
            SyscallReq::Fsync(Fd(3)),
            SyscallReq::Close(Fd(3)),
        ],
    );
    let mut want = pattern_bytes(6, 0, 16_384);
    assert_eq!(r[1], SyscallRet::Data(want[..8192].to_vec().into()));
    want[100..110].fill(0xAA);
    assert_eq!(
        r[5],
        SyscallRet::Data(want[..8192].to_vec().into()),
        "a read view saw a later write"
    );
    want[200..210].fill(0xBB);
    assert_eq!(k.dump_file("/d/f"), want);
    assert!(k.fsck_all().is_empty());
}

/// A read view outlives its buffer: after the buffer is evicted and
/// reused for other blocks, and the file's block is rewritten whole and
/// in part, the view still holds what was read.
#[test]
fn read_views_survive_eviction_and_buffer_reuse() {
    let mut k = KernelBuilder::new()
        .disk("d", DiskProfile::ramdisk())
        .tune(|cfg| cfg.cache_bytes = 8 * 8192)
        .build();
    k.setup_file("/d/f", 16_384, 6);
    k.setup_file("/d/g", 32 * 8192, 7);
    k.cold_cache();
    let mut calls = vec![
        SyscallReq::Open {
            path: "/d/f".into(),
            flags: RDWR,
        },
        SyscallReq::Read {
            fd: Fd(3),
            len: 8192,
        },
        SyscallReq::Open {
            path: "/d/g".into(),
            flags: OpenFlags::RDONLY,
        },
    ];
    // Four times the cache: every buffer is evicted and reused.
    calls.extend((0..32).map(|_| SyscallReq::Read {
        fd: Fd(4),
        len: 8192,
    }));
    calls.extend([
        SyscallReq::Lseek { fd: Fd(3), pos: 0 },
        SyscallReq::Write {
            fd: Fd(3),
            data: vec![0x5A; 8192].into(),
        },
        SyscallReq::Lseek {
            fd: Fd(3),
            pos: 100,
        },
        SyscallReq::Write {
            fd: Fd(3),
            data: vec![0xA5; 10].into(),
        },
        SyscallReq::Fsync(Fd(3)),
    ]);
    let r = run_script(&mut k, calls);
    let original = pattern_bytes(6, 0, 8192);
    assert_eq!(r[1], SyscallRet::Data(original.into()), "the view changed");
    let mut want = vec![0x5A; 8192];
    want[100..110].fill(0xA5);
    want.extend_from_slice(&pattern_bytes(6, 8192, 8192));
    assert_eq!(k.dump_file("/d/f"), want);
    assert_eq!(k.verify_pattern_file("/d/g", 32 * 8192, 7), None);
    assert!(k.fsck_all().is_empty());
}

/// A read/write copy moves whole blocks by reference, so the copy's
/// medium blocks are the source's own. A later partial write into the
/// copy must copy its block first and leave the source untouched.
#[test]
fn partial_write_into_a_copied_block_leaves_the_source_intact() {
    let mut k = KernelBuilder::new()
        .disk("d0", DiskProfile::ramdisk())
        .disk("d1", DiskProfile::ramdisk())
        .build();
    let len = 4 * 8192;
    k.setup_file("/d0/src", len, 9);
    k.cold_cache();
    let pid = k.spawn(Box::new(Cp::new("/d0/src", "/d1/dst")));
    let horizon = k.horizon(60);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
    k.cold_cache();
    let medium_block = |k: &Kernel, disk: usize, path: &str| {
        let unit = &k.disks()[disk];
        let ino = unit.fs.lookup(path).expect("file exists");
        let pblk = unit.fs.bmap(ino, 1).expect("mapped block");
        unit.kind.store().block(pblk * 8192)
    };
    assert!(
        std::rc::Rc::ptr_eq(&medium_block(&k, 0, "/src"), &medium_block(&k, 1, "/dst")),
        "the copy's block 1 is not the source's"
    );
    let r = run_script(
        &mut k,
        vec![
            SyscallReq::Open {
                path: "/d1/dst".into(),
                flags: OpenFlags::WRONLY,
            },
            SyscallReq::Lseek {
                fd: Fd(3),
                pos: 8192 + 100,
            },
            SyscallReq::Write {
                fd: Fd(3),
                data: vec![0xC3; 10].into(),
            },
            SyscallReq::Fsync(Fd(3)),
            SyscallReq::Close(Fd(3)),
        ],
    );
    assert_eq!(r[2], SyscallRet::Val(10));
    assert_eq!(
        k.verify_pattern_file("/d0/src", len, 9),
        None,
        "the partial write reached the source medium"
    );
    let mut want = pattern_bytes(9, 0, len as usize);
    want[8292..8302].fill(0xC3);
    assert_eq!(k.dump_file("/d1/dst"), want);
    assert!(k.fsck_all().is_empty());
}
