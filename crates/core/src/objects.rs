//! Kernel object tables: mounted disks, character devices, the system
//! open-file table and per-process descriptor tables.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use kbuf::DevId;
use kdev::{AudioDac, Framebuffer, VideoDac};
use kfs::{Fs, Ino};
use khw::{Disk, RamDisk, SparseStore};
use knet::SockId;
use kproc::{Fd, Pid};
use ksim::{Dur, Hist};

/// Index into the system open-file table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FileId(pub u32);

/// The medium behind a mounted filesystem.
pub enum DiskUnitKind {
    /// A mechanical SCSI disk with full timing.
    Scsi(Disk),
    /// The kernel-memory RAM disk.
    Ram(RamDisk),
}

impl DiskUnitKind {
    /// The raw medium (setup/verification access).
    pub fn store(&self) -> &SparseStore {
        match self {
            DiskUnitKind::Scsi(d) => d.store(),
            DiskUnitKind::Ram(d) => d.store(),
        }
    }

    /// Mutable raw medium access.
    pub fn store_mut(&mut self) -> &mut SparseStore {
        match self {
            DiskUnitKind::Scsi(d) => d.store_mut(),
            DiskUnitKind::Ram(d) => d.store_mut(),
        }
    }

    /// True for the RAM disk (synchronous, CPU-copied transfers).
    pub fn is_ram(&self) -> bool {
        matches!(self, DiskUnitKind::Ram(_))
    }

    /// Total time this device spent servicing requests. This is the
    /// **one** busy-time accounting source: the profiler snapshot and
    /// every bench/analysis export must read it
    /// through here so the utilization auditor compares one number
    /// against the service digest, never two divergent recomputations.
    pub fn busy_time(&self) -> Dur {
        match self {
            DiskUnitKind::Scsi(d) => d.busy_time(),
            DiskUnitKind::Ram(d) => d.busy_time(),
        }
    }

    /// Requests completed by this device.
    pub fn requests(&self) -> u64 {
        match self {
            DiskUnitKind::Scsi(d) => d.stats().requests,
            DiskUnitKind::Ram(d) => d.stats().requests,
        }
    }

    /// Requests currently queued or in flight. The RAM disk transfers
    /// synchronously in the caller's context, so its queue is always
    /// empty by construction.
    pub fn queue_depth(&self) -> u64 {
        match self {
            DiskUnitKind::Scsi(d) => d.queue_depth() as u64,
            DiskUnitKind::Ram(_) => 0,
        }
    }

    /// Per-request service-time histogram (nanoseconds).
    pub fn service_hist(&self) -> &Hist {
        match self {
            DiskUnitKind::Scsi(d) => d.service_hist(),
            DiskUnitKind::Ram(d) => d.service_hist(),
        }
    }
}

/// A mounted disk: the device model, its filesystem, and I/O bookkeeping.
pub struct DiskUnit {
    /// Mount name: files live under `/<name>/...`.
    pub name: String,
    /// The device model.
    pub kind: DiskUnitKind,
    /// The mounted filesystem.
    pub fs: Fs,
    /// Identity used in the buffer cache.
    pub dev: DevId,
    /// Asynchronous writes in flight to this device (fsync waits on 0).
    pub write_inflight: u32,
    /// Failed write-behind writes to this device so far, errseq-style
    /// and per disk (Linux's per-superblock `s_wb_err`, not its
    /// per-inode `mapping->wb_err`): every open file samples it, and its
    /// next `fsync` returns `EIO` once for every failure since.
    pub wb_err: u64,
}

/// A character device instance.
pub enum CharDev {
    /// `/dev/speaker`-style self-pacing audio output.
    Audio(AudioDac),
    /// `/dev/video_dac` frame output.
    Video(VideoDac),
    /// Framebuffer frame source.
    Fb(Framebuffer),
}

/// A named character device.
pub struct CharDevUnit {
    /// Device path, e.g. `/dev/speaker`.
    pub path: String,
    /// The device.
    pub dev: CharDev,
    /// Injected fault: after this many more accepted bytes, the next
    /// splice delivery to this device fails with `EIO`. `None` = never.
    pub write_fail_after: Option<u64>,
}

/// What an open file descriptor refers to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FileObj {
    /// A regular file on a mounted disk.
    File {
        /// Index into the kernel's disk table.
        disk: usize,
        /// The file's inode.
        ino: Ino,
    },
    /// A character device.
    Chr {
        /// Index into the kernel's character-device table.
        cdev: usize,
    },
    /// A UDP socket.
    Sock {
        /// The socket.
        sock: SockId,
    },
}

/// [`OpenFile::last_lblk`] of a file not yet read sequentially.
pub const NO_LBLK: u64 = u64::MAX;

/// A system open-file table entry (shared offset semantics like UNIX).
pub struct OpenFile {
    /// What it refers to.
    pub obj: FileObj,
    /// Byte offset for files.
    pub offset: u64,
    /// `FASYNC` set via `fcntl`.
    pub fasync: bool,
    /// Readable.
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Descriptor references (close drops; entry dies at zero).
    pub refs: u32,
    /// Last logical block read (sequential-access detection for
    /// read-ahead); [`NO_LBLK`] before the first read and after a seek.
    /// A plain `u64` keeps the entry at 48 bytes with [`Self::wb_err`]:
    /// ten thousand open sockets hold one each.
    pub last_lblk: u64,
    /// The file's disk's [`DiskUnit::wb_err`] as this descriptor last
    /// saw it (sampled at open; 0 for non-files).
    pub wb_err: u64,
}

/// The open-file table plus per-process descriptor tables.
///
/// Every per-connection operation is O(1) or O(descriptors of one
/// process), never O(open files): freed open-file slots wait on a
/// min-heap, so `open` takes the lowest free slot without a scan, and
/// descriptor tables are indexed by pid (pids are dense) and then by fd.
#[derive(Default)]
pub struct FileTable {
    files: Vec<Option<OpenFile>>,
    /// Exactly the `None` slots of `files`: a slot empties only in
    /// `close`, which pushes it here, and `open` pops the lowest.
    free: BinaryHeap<Reverse<u32>>,
    /// Descriptor table of pid `p` at index `p`, each indexed by fd.
    /// Trailing empty entries are trimmed, so a process with no open
    /// descriptors holds no allocation.
    fds: Vec<Vec<Option<FileId>>>,
}

impl FileTable {
    /// Empty tables.
    pub fn new() -> FileTable {
        FileTable::default()
    }

    /// Installs an open file and assigns the lowest free descriptor ≥ 3
    /// for `pid` (0-2 are reserved as in UNIX).
    pub fn open(&mut self, pid: Pid, file: OpenFile) -> (Fd, FileId) {
        let fid = match self.free.pop() {
            Some(Reverse(i)) => {
                self.files[i as usize] = Some(file);
                FileId(i)
            }
            None => {
                self.files.push(Some(file));
                FileId((self.files.len() - 1) as u32)
            }
        };
        let p = pid.0 as usize;
        if self.fds.len() <= p {
            self.fds.resize_with(p + 1, Vec::new);
        }
        let table = &mut self.fds[p];
        let fd = match table.iter().skip(3).position(Option::is_none) {
            Some(i) => i + 3,
            None => table.len().max(3),
        };
        if fd >= table.len() {
            table.resize(fd + 1, None);
        }
        table[fd] = Some(fid);
        (Fd(fd as i32), fid)
    }

    /// Resolves a descriptor for `pid`.
    pub fn resolve(&self, pid: Pid, fd: Fd) -> Option<FileId> {
        let table = self.fds.get(pid.0 as usize)?;
        *table.get(usize::try_from(fd.0).ok()?)?
    }

    /// The open file behind `fid`.
    pub fn get(&self, fid: FileId) -> Option<&OpenFile> {
        self.files.get(fid.0 as usize)?.as_ref()
    }

    /// Mutable open file access.
    pub fn get_mut(&mut self, fid: FileId) -> Option<&mut OpenFile> {
        self.files.get_mut(fid.0 as usize)?.as_mut()
    }

    /// Closes `fd` for `pid`; returns the open file if this was the last
    /// reference (so the kernel can release the underlying object).
    pub fn close(&mut self, pid: Pid, fd: Fd) -> Option<Option<OpenFile>> {
        let table = self.fds.get_mut(pid.0 as usize)?;
        let fid = table.get_mut(usize::try_from(fd.0).ok()?)?.take()?;
        while table.last() == Some(&None) {
            table.pop();
        }
        if table.is_empty() {
            *table = Vec::new();
        }
        let slot = self.files.get_mut(fid.0 as usize)?;
        let f = slot.as_mut()?;
        f.refs -= 1;
        if f.refs == 0 {
            self.free.push(Reverse(fid.0));
            Some(slot.take())
        } else {
            Some(None)
        }
    }

    /// Every descriptor of `pid` (for exit cleanup), in order.
    pub fn fds_of(&self, pid: Pid) -> Vec<Fd> {
        self.fds
            .get(pid.0 as usize)
            .map(|t| {
                t.iter()
                    .enumerate()
                    .filter_map(|(fd, fid)| fid.map(|_| Fd(fd as i32)))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Number of live open-file entries.
    pub fn live(&self) -> usize {
        self.files.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// The original table, kept as the reference model: a linear scan
    /// for the lowest free slot and nested ordered maps for descriptors.
    #[derive(Default)]
    struct RefTable {
        files: Vec<Option<OpenFile>>,
        fds: BTreeMap<Pid, BTreeMap<Fd, FileId>>,
    }

    impl RefTable {
        fn open(&mut self, pid: Pid, file: OpenFile) -> (Fd, FileId) {
            let fid = if let Some(i) = self.files.iter().position(Option::is_none) {
                self.files[i] = Some(file);
                FileId(i as u32)
            } else {
                self.files.push(Some(file));
                FileId((self.files.len() - 1) as u32)
            };
            let table = self.fds.entry(pid).or_default();
            let mut fd = 3;
            while table.contains_key(&Fd(fd)) {
                fd += 1;
            }
            table.insert(Fd(fd), fid);
            (Fd(fd), fid)
        }

        fn resolve(&self, pid: Pid, fd: Fd) -> Option<FileId> {
            self.fds.get(&pid)?.get(&fd).copied()
        }

        fn close(&mut self, pid: Pid, fd: Fd) -> Option<Option<OpenFile>> {
            let fid = self.fds.get_mut(&pid)?.remove(&fd)?;
            let slot = self.files.get_mut(fid.0 as usize)?;
            let f = slot.as_mut()?;
            f.refs -= 1;
            if f.refs == 0 {
                Some(slot.take())
            } else {
                Some(None)
            }
        }

        fn fds_of(&self, pid: Pid) -> Vec<Fd> {
            self.fds
                .get(&pid)
                .map(|t| t.keys().copied().collect())
                .unwrap_or_default()
        }

        fn live(&self) -> usize {
            self.files.iter().filter(|f| f.is_some()).count()
        }
    }

    fn file() -> OpenFile {
        OpenFile {
            obj: FileObj::File {
                disk: 0,
                ino: Ino(2),
            },
            offset: 0,
            fasync: false,
            readable: true,
            writable: false,
            refs: 1,
            last_lblk: NO_LBLK,
            wb_err: 0,
        }
    }

    #[test]
    fn fds_start_at_three_and_fill_gaps() {
        let mut t = FileTable::new();
        let (fd1, _) = t.open(Pid(1), file());
        let (fd2, _) = t.open(Pid(1), file());
        assert_eq!(fd1, Fd(3));
        assert_eq!(fd2, Fd(4));
        t.close(Pid(1), fd1).unwrap();
        let (fd3, _) = t.open(Pid(1), file());
        assert_eq!(fd3, Fd(3), "lowest free descriptor is reused");
    }

    #[test]
    fn per_process_namespaces() {
        let mut t = FileTable::new();
        let (fd_a, fid_a) = t.open(Pid(1), file());
        let (fd_b, fid_b) = t.open(Pid(2), file());
        assert_eq!(fd_a, fd_b, "descriptor numbers are per-process");
        assert_ne!(fid_a, fid_b);
        assert_eq!(t.resolve(Pid(1), fd_a), Some(fid_a));
        assert_eq!(t.resolve(Pid(2), fd_a), Some(fid_b));
        assert_eq!(t.resolve(Pid(3), fd_a), None);
    }

    #[test]
    fn close_releases_entry_at_zero_refs() {
        let mut t = FileTable::new();
        let (fd, fid) = t.open(Pid(1), file());
        assert_eq!(t.live(), 1);
        let released = t.close(Pid(1), fd).unwrap();
        assert!(released.is_some(), "last close yields the object");
        assert_eq!(t.live(), 0);
        assert!(t.get(fid).is_none());
        assert!(t.close(Pid(1), fd).is_none(), "double close fails");
    }

    #[test]
    fn exit_cleanup_list() {
        let mut t = FileTable::new();
        t.open(Pid(1), file());
        t.open(Pid(1), file());
        assert_eq!(t.fds_of(Pid(1)), vec![Fd(3), Fd(4)]);
        assert!(t.fds_of(Pid(9)).is_empty());
    }

    /// Compares every observable of the two tables for `pids`.
    fn assert_same(t: &FileTable, r: &RefTable, pids: u32) {
        assert_eq!(t.live(), r.live());
        for p in 0..=pids + 1 {
            let pid = Pid(p);
            assert_eq!(t.fds_of(pid), r.fds_of(pid), "fds_of({pid:?})");
            for fd in (-2..40).chain([i32::MAX, i32::MIN]) {
                assert_eq!(
                    t.resolve(pid, Fd(fd)),
                    r.resolve(pid, Fd(fd)),
                    "{pid:?} {fd}"
                );
            }
        }
    }

    #[test]
    fn matches_the_reference_model_on_random_sequences() {
        for seed in 1..=16u64 {
            let mut rng = seed;
            let mut next = |bound: u64| {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (rng >> 33) % bound
            };
            let pids = 1 + next(50) as u32;
            let (mut t, mut r) = (FileTable::new(), RefTable::default());
            for _ in 0..300 {
                let pid = Pid(1 + next(pids as u64) as u32);
                match next(10) {
                    0..=4 => assert_eq!(t.open(pid, file()), r.open(pid, file())),
                    5..=8 => {
                        let fd = Fd(next(12) as i32 + 1);
                        let (a, b) = (t.close(pid, fd), r.close(pid, fd));
                        assert_eq!(a.map(|f| f.is_some()), b.map(|f| f.is_some()));
                    }
                    _ => {
                        let fds = t.fds_of(pid);
                        assert_eq!(fds, r.fds_of(pid));
                        for fd in fds {
                            let (a, b) = (t.close(pid, fd), r.close(pid, fd));
                            assert_eq!(a.map(|f| f.is_some()), b.map(|f| f.is_some()));
                        }
                    }
                }
                assert_same(&t, &r, pids);
            }
        }
    }

    #[test]
    fn out_of_range_descriptors_and_unknown_pids_resolve_to_none() {
        let mut t = FileTable::new();
        t.open(Pid(2), file());
        for fd in [-1, 0, 2, 5, i32::MAX, i32::MIN] {
            assert_eq!(t.resolve(Pid(2), Fd(fd)), None, "fd {fd}");
            assert!(t.close(Pid(2), Fd(fd)).is_none(), "fd {fd}");
        }
        for pid in [Pid(0), Pid(1), Pid(3), Pid(u32::MAX)] {
            assert_eq!(t.resolve(pid, Fd(3)), None);
            assert!(t.close(pid, Fd(3)).is_none());
            assert!(t.fds_of(pid).is_empty());
        }
        assert_eq!(t.live(), 1);
    }
}
