//! End-to-end smoke tests: boot the kernel, run real programs, verify
//! data integrity and basic sanity of the measurements.

use khw::DiskProfile;
use kproc::programs::util::pattern_bytes;
use kproc::programs::{Cp, Scp};
use kproc::{Fd, OpenFlags, ProcState, Program, Step, SyscallReq, UserCtx};
use splice::KernelBuilder;

const MB: u64 = 1024 * 1024;

#[test]
fn cp_copies_a_file_on_the_ram_disk() {
    let mut k = KernelBuilder::new()
        .disk("ram", DiskProfile::ramdisk())
        .build();
    k.setup_file("/ram/src", MB, 42);
    k.cold_cache();

    let pid = k.spawn(Box::new(Cp::new("/ram/src", "/ram/dst")));
    let horizon = k.horizon(120);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
    assert_eq!(k.verify_pattern_file("/ram/dst", MB, 42), None);
    // cp moves every byte through user space, twice.
    let m = k.metrics();
    assert_eq!(m.copy.copyout_bytes, MB);
    assert_eq!(m.copy.copyin_bytes, MB);
    assert!(k.fsck_all().is_empty());
}

#[test]
fn scp_splices_a_file_on_the_ram_disk() {
    let mut k = KernelBuilder::new()
        .disk("ram", DiskProfile::ramdisk())
        .build();
    k.setup_file("/ram/src", MB, 7);
    k.cold_cache();

    let pid = k.spawn(Box::new(Scp::new("/ram/src", "/ram/dst")));
    let horizon = k.horizon(120);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
    assert_eq!(k.verify_pattern_file("/ram/dst", MB, 7), None);
    // The whole point: zero user-space copies.
    let m = k.metrics();
    assert_eq!(m.copy.copyout_bytes, 0);
    assert_eq!(m.copy.copyin_bytes, 0);
    assert!(m.splice.shared_writes >= MB / 8192);
    assert!(k.fsck_all().is_empty());
}

#[test]
fn cp_and_scp_work_across_scsi_disks() {
    for make in [
        Box::new(|| Box::new(Cp::new("/d0/src", "/d1/dst")) as Box<dyn kproc::Program>)
            as Box<dyn Fn() -> Box<dyn kproc::Program>>,
        Box::new(|| Box::new(Scp::new("/d0/src", "/d1/dst")) as Box<dyn kproc::Program>),
    ] {
        let mut k = KernelBuilder::paper_machine(DiskProfile::rz56()).build();
        k.setup_file("/d0/src", MB, 3);
        k.cold_cache();
        let pid = k.spawn(make());
        let horizon = k.horizon(300);
        k.run_to_exit(horizon);
        assert!(
            matches!(k.procs().must(pid).state, ProcState::Exited(0)),
            "copy program failed"
        );
        assert_eq!(k.verify_pattern_file("/d1/dst", MB, 3), None);
        assert!(k.fsck_all().is_empty());
    }
}

#[test]
fn splice_is_faster_than_cp_on_the_ram_disk() {
    let run = |splice: bool| -> f64 {
        let mut k = KernelBuilder::new()
            .disk("ram", DiskProfile::ramdisk())
            .build();
        k.setup_file("/ram/src", 4 * MB, 9);
        k.cold_cache();
        let t0 = k.now();
        if splice {
            k.spawn(Box::new(Scp::new("/ram/src", "/ram/dst")));
        } else {
            k.spawn(Box::new(Cp::new("/ram/src", "/ram/dst")));
        }
        let horizon = k.horizon(600);
        let t1 = k.run_to_exit(horizon);
        t1.since(t0).as_secs_f64()
    };
    let t_cp = run(false);
    let t_scp = run(true);
    assert!(
        t_scp < t_cp * 0.8,
        "splice ({t_scp:.3}s) should clearly beat cp ({t_cp:.3}s) on the RAM disk"
    );
}

/// Overwrites one byte of a file through the write system call.
struct Poke {
    path: &'static str,
    at: u64,
    byte: u8,
    calls: usize,
}

impl Program for Poke {
    fn step(&mut self, _ctx: &mut UserCtx) -> Step {
        self.calls += 1;
        Step::Syscall(match self.calls {
            1 => SyscallReq::Open {
                path: self.path.into(),
                flags: OpenFlags::WRONLY,
            },
            2 => SyscallReq::Lseek {
                fd: Fd(3),
                pos: self.at,
            },
            3 => SyscallReq::Write {
                fd: Fd(3),
                data: vec![self.byte].into(),
            },
            4 => SyscallReq::Close(Fd(3)),
            _ => return Step::Exit(0),
        })
    }
}

#[test]
fn verify_pattern_file_reports_missing_short_and_flipped_files() {
    let mut k = KernelBuilder::new()
        .disk("ram", DiskProfile::ramdisk())
        .build();
    assert_eq!(k.verify_pattern_file("/ram/missing", MB, 1), Some(0));

    k.setup_file("/ram/short", 1000, 1);
    assert_eq!(k.verify_pattern_file("/ram/short", MB, 1), Some(1000));
    assert_eq!(k.verify_pattern_file("/ram/short", 10, 1), Some(10));
    assert_eq!(k.verify_pattern_file("/ram/short", 1000, 1), None);

    // A single flipped byte past several verification chunks is found
    // at its exact offset.
    let at = 5 * MB + 3;
    k.setup_file("/ram/f", 8 * MB, 2);
    assert_eq!(k.verify_pattern_file("/ram/f", 8 * MB, 2), None);
    let byte = !pattern_bytes(2, at, 1)[0];
    let pid = k.spawn(Box::new(Poke {
        path: "/ram/f",
        at,
        byte,
        calls: 0,
    }));
    let horizon = k.horizon(120);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
    k.cold_cache();
    assert_eq!(k.verify_pattern_file("/ram/f", 8 * MB, 2), Some(at));
}
