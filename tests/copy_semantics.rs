//! Cross-crate integration: semantic equivalence of every copy path.
//!
//! Whatever the mechanism — read/write, synchronous splice, asynchronous
//! splice, handle passing, mmap — the destination must be byte-identical
//! to the source, the filesystems must check clean, and splice must do it
//! without user-space copies.

use khw::DiskProfile;
use kproc::programs::{Cp, Scp, ScpMode};
use kproc::{ProcState, Program};
use splice::baselines::{HandleCopy, MmapCopy};
use splice::{Kernel, KernelBuilder};

const MB: u64 = 1024 * 1024;

type ProgramMaker = Box<dyn Fn() -> Box<dyn Program>>;

fn machine(profile: DiskProfile) -> Kernel {
    KernelBuilder::paper_machine(profile).build()
}

fn run_copy(k: &mut Kernel, prog: Box<dyn Program>) {
    let pid = k.spawn(prog);
    let horizon = k.horizon(600);
    k.run_to_exit(horizon);
    assert!(
        matches!(k.procs().must(pid).state, ProcState::Exited(0)),
        "copy program failed"
    );
}

fn assert_copied(k: &mut Kernel, len: u64, seed: u64) {
    assert_eq!(k.verify_pattern_file("/d1/dst", len, seed), None);
    let errors = k.fsck_all();
    assert!(errors.is_empty(), "{errors:?}");
}

#[test]
fn all_methods_copy_identically_on_ram() {
    let len = 2 * MB + 12_345; // deliberately unaligned size
    let makers: Vec<(&str, ProgramMaker)> = vec![
        ("cp", Box::new(|| Box::new(Cp::new("/d0/src", "/d1/dst")))),
        (
            "scp-async",
            Box::new(|| Box::new(Scp::new("/d0/src", "/d1/dst"))),
        ),
        (
            "scp-sync",
            Box::new(|| Box::new(Scp::with_options("/d0/src", "/d1/dst", ScpMode::Sync, 1))),
        ),
        (
            "handle",
            Box::new(|| Box::new(HandleCopy::new("/d0/src", "/d1/dst"))),
        ),
        (
            "mmap",
            Box::new(|| {
                Box::new(MmapCopy::new(
                    "/d0/src",
                    "/d1/dst",
                    8192,
                    ksim::Dur::from_us(800),
                ))
            }),
        ),
    ];
    for (name, make) in makers {
        let mut k = machine(DiskProfile::ramdisk());
        k.setup_file("/d0/src", len, 42);
        k.cold_cache();
        run_copy(&mut k, make());
        assert_copied(&mut k, len, 42);
        println!("{name}: ok");
    }
}

#[test]
fn splice_moves_zero_user_bytes() {
    let mut k = machine(DiskProfile::rz58());
    k.setup_file("/d0/src", MB, 3);
    k.cold_cache();
    run_copy(&mut k, Box::new(Scp::new("/d0/src", "/d1/dst")));
    assert_copied(&mut k, MB, 3);
    let m = k.metrics();
    assert_eq!(m.copy.copyin_bytes, 0);
    assert_eq!(m.copy.copyout_bytes, 0);
    assert_eq!(m.copy.cache_bytes, 0, "shared header, no cache copy");
}

/// How many of `/d1/dst`'s medium blocks are the very block (same
/// allocation, not equal bytes) that `/d0/src` holds at the same offset.
fn dst_blocks_shared_with_src(k: &Kernel, len: u64) -> usize {
    let bs = k.disks()[0].kind.store().block_size() as u64;
    let blocks = |disk: usize, path: &str| -> Vec<khw::Block> {
        let unit = &k.disks()[disk];
        let ino = unit.fs.lookup(path).expect("file exists");
        (0..len.div_ceil(bs))
            .map(|lblk| {
                let pblk = unit.fs.bmap(ino, lblk).expect("mapped block");
                unit.kind.store().block(pblk * bs)
            })
            .collect()
    };
    let (src, dst) = (blocks(0, "/src"), blocks(1, "/dst"));
    src.iter()
        .zip(&dst)
        .filter(|(s, d)| std::rc::Rc::ptr_eq(s, d))
        .count()
}

/// Whole blocks move by reference on every path. A splice moves each
/// block from the source medium to the destination medium inside the
/// kernel; a read/write copy hands the program a view of each cached
/// block and installs that view in the destination buffer. Either way
/// every destination block is the source's own. The simulated machine
/// still copies through user space for cp: its copyout and copyin each
/// carry the whole file, and the splice's carry nothing.
#[test]
fn scp_and_cp_share_every_medium_block() {
    let len = MB;
    for (name, prog, user_bytes) in [
        (
            "scp",
            Box::new(Scp::new("/d0/src", "/d1/dst")) as Box<dyn Program>,
            0,
        ),
        ("cp", Box::new(Cp::new("/d0/src", "/d1/dst")), len),
    ] {
        let mut k = machine(DiskProfile::ramdisk());
        k.setup_file("/d0/src", len, 8);
        k.cold_cache();
        run_copy(&mut k, prog);
        k.cold_cache();
        assert_copied(&mut k, len, 8);
        assert_eq!(
            dst_blocks_shared_with_src(&k, len),
            (len / 8192) as usize,
            "{name}"
        );
        let copy = k.metrics().copy;
        assert_eq!(copy.copyout_bytes, user_bytes, "{name}");
        assert_eq!(copy.copyin_bytes, user_bytes, "{name}");
        assert_eq!(copy.cache_bytes, 0, "{name}");
    }
}

#[test]
fn repeated_splices_reuse_the_destination() {
    let mut k = machine(DiskProfile::ramdisk());
    k.setup_file("/d0/src", MB, 5);
    k.cold_cache();
    run_copy(
        &mut k,
        Box::new(Scp::with_options("/d0/src", "/d1/dst", ScpMode::Async, 4)),
    );
    assert_copied(&mut k, MB, 5);
    assert_eq!(k.metrics().splice.completed, 4);
}

#[test]
fn splice_of_empty_file_returns_zero() {
    let mut k = machine(DiskProfile::ramdisk());
    k.setup_file("/d0/src", 0, 1);
    k.cold_cache();
    run_copy(
        &mut k,
        Box::new(Scp::with_options("/d0/src", "/d1/dst", ScpMode::Sync, 1)),
    );
    assert_eq!(k.file_size("/d1/dst"), 0);
}

#[test]
fn concurrent_splices_on_separate_files() {
    let mut k = machine(DiskProfile::ramdisk());
    k.setup_file("/d0/a", MB, 11);
    k.setup_file("/d0/b", MB, 22);
    k.cold_cache();
    let p1 = k.spawn(Box::new(Scp::new("/d0/a", "/d1/a")));
    let p2 = k.spawn(Box::new(Scp::new("/d0/b", "/d1/b")));
    let horizon = k.horizon(600);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(p1).state, ProcState::Exited(0)));
    assert!(matches!(k.procs().must(p2).state, ProcState::Exited(0)));
    assert_eq!(k.verify_pattern_file("/d1/a", MB, 11), None);
    assert_eq!(k.verify_pattern_file("/d1/b", MB, 22), None);
    assert!(k.fsck_all().is_empty());
}

#[test]
fn cp_and_scp_interleave_safely() {
    // A read/write copy and a splice of different files at once, sharing
    // the cache and both disks.
    let mut k = machine(DiskProfile::rz58());
    k.setup_file("/d0/a", MB, 31);
    k.setup_file("/d0/b", MB, 32);
    k.cold_cache();
    k.spawn(Box::new(Cp::new("/d0/a", "/d1/a")));
    k.spawn(Box::new(Scp::new("/d0/b", "/d1/b")));
    let horizon = k.horizon(600);
    k.run_to_exit(horizon);
    assert_eq!(k.verify_pattern_file("/d1/a", MB, 31), None);
    assert_eq!(k.verify_pattern_file("/d1/b", MB, 32), None);
    assert!(k.fsck_all().is_empty());
}

#[test]
fn warm_cache_splice_uses_read_hits() {
    let mut k = machine(DiskProfile::ramdisk());
    k.setup_file("/d0/src", MB, 17);
    k.cold_cache();
    // First copy warms the cache with the source blocks.
    run_copy(&mut k, Box::new(Cp::new("/d0/src", "/d1/w")));
    // The splice should now find them in the cache.
    run_copy(&mut k, Box::new(Scp::new("/d0/src", "/d1/dst")));
    assert_copied(&mut k, MB, 17);
    assert!(
        k.metrics().splice.read_hits > 0,
        "warm source blocks must be cache hits"
    );
}

#[test]
fn sync_and_async_splice_agree_on_bytes_moved() {
    for mode in [ScpMode::Sync, ScpMode::Async] {
        let mut k = machine(DiskProfile::ramdisk());
        k.setup_file("/d0/src", MB + 4096, 8);
        k.cold_cache();
        run_copy(
            &mut k,
            Box::new(Scp::with_options("/d0/src", "/d1/dst", mode, 1)),
        );
        assert_copied(&mut k, MB + 4096, 8);
    }
}

#[test]
fn large_file_through_indirect_blocks() {
    // 12 MB source: well past the direct pointers and into the single
    // indirect range on both source and destination.
    let mut k = KernelBuilder::paper_machine(DiskProfile::rz58()).build();
    k.setup_file("/d0/src", 12 * MB, 77);
    k.cold_cache();
    run_copy(&mut k, Box::new(Scp::new("/d0/src", "/d1/dst")));
    assert_copied(&mut k, 12 * MB, 77);
}
