//! The mounted filesystem: namespace, inode table, allocator, `bmap`.
//!
//! See the crate docs for the metadata-in-core design. Every operation
//! that implies device traffic reports it in an [`FsIo`] so the kernel can
//! charge time; data-block traffic itself is *not* initiated here — the
//! kernel moves data blocks through the buffer cache using the physical
//! block numbers `bmap`/`bmap_alloc` return.

use std::collections::{BTreeMap, HashSet};

use khw::SparseStore;

use crate::alloc::Bitmap;
use crate::dir::DirContents;
use crate::inode::{FileKind, Ino, Inode};
use crate::layout::{RawInode, Superblock, INODE_SIZE, NDADDR};

/// Filesystem errors surfaced to the syscall layer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FsError {
    /// Path component does not exist.
    NotFound,
    /// Target name already exists.
    Exists,
    /// A non-final path component is not a directory.
    NotDir,
    /// Operation needs a file but found a directory.
    IsDir,
    /// No free data blocks (or inodes).
    NoSpace,
    /// File would exceed the double-indirect limit.
    FileTooBig,
    /// Empty name, embedded '/', or otherwise invalid.
    BadName,
    /// Directory still has entries.
    NotEmpty,
}

/// Result alias for filesystem operations.
pub type FsResult<T> = Result<T, FsError>;

/// Device traffic implied by a metadata operation, for the kernel to
/// charge.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct FsIo {
    /// Bytes read from the device.
    pub read: u64,
    /// Bytes written to the device.
    pub written: u64,
    /// Discrete device requests implied.
    pub ops: u32,
}

impl FsIo {
    /// Accumulates another operation's traffic.
    pub fn add(&mut self, other: FsIo) {
        self.read += other.read;
        self.written += other.written;
        self.ops += other.ops;
    }
}

/// A mounted filesystem instance.
pub struct Fs {
    sb: Superblock,
    bitmap: Bitmap,
    inodes: BTreeMap<Ino, Inode>,
    dirs: BTreeMap<Ino, DirContents>,
    dead_inodes: HashSet<Ino>,
    dirty_dirs: HashSet<Ino>,
    bitmap_dirty: bool,
}

impl Fs {
    // ----- construction ----------------------------------------------------

    /// Formats `store` and returns the freshly mounted filesystem.
    pub fn mkfs(store: &mut SparseStore, block_size: u32, ninodes: u32) -> Fs {
        let sb = Superblock::for_device(store.len(), block_size, ninodes);
        let mut bitmap = Bitmap::new(sb.total_blocks);
        for b in 0..sb.data_start {
            bitmap.reserve(b);
        }
        let mut fs = Fs {
            sb,
            bitmap,
            inodes: BTreeMap::new(),
            dirs: BTreeMap::new(),
            dead_inodes: HashSet::new(),
            dirty_dirs: HashSet::new(),
            bitmap_dirty: true,
        };
        // Root directory.
        let root = Ino(sb.root_ino);
        let mut ino = Inode::new(root, FileKind::Dir);
        ino.nlink = 2;
        fs.inodes.insert(root, ino);
        fs.dirs.insert(root, DirContents::new());
        fs.dirty_dirs.insert(root);
        // Zero the inode table region so unused slots parse as free.
        let itab_bytes = sb.itab_blocks * block_size as u64;
        store.write(
            sb.itab_start * block_size as u64,
            &vec![0u8; itab_bytes as usize],
        );
        store.write(0, &sb.encode());
        fs.sync(store);
        fs
    }

    /// Mounts an existing filesystem, loading all metadata into core.
    /// Returns `None` if the superblock is unrecognisable.
    pub fn mount(store: &SparseStore) -> Option<(Fs, FsIo)> {
        let mut io = FsIo::default();
        let sb_bytes = store.read_vec(0, 64);
        io.read += 64;
        io.ops += 1;
        let sb = Superblock::decode(&sb_bytes)?;
        let bs = sb.block_size as u64;

        // Bitmap.
        let bitmap_bytes = store.read_vec(sb.bitmap_start * bs, (sb.bitmap_blocks * bs) as usize);
        io.read += sb.bitmap_blocks * bs;
        io.ops += 1;
        let bitmap = Bitmap::from_bytes(sb.total_blocks, &bitmap_bytes);

        let mut fs = Fs {
            sb,
            bitmap,
            inodes: BTreeMap::new(),
            dirs: BTreeMap::new(),
            dead_inodes: HashSet::new(),
            dirty_dirs: HashSet::new(),
            bitmap_dirty: false,
        };

        // Inode table (and indirect pointer blocks).
        for i in 1..sb.ninodes {
            let raw_bytes = store.read_vec(sb.inode_offset(i), INODE_SIZE);
            let raw = RawInode::decode(&raw_bytes);
            let Some(kind) = FileKind::from_raw(raw.kind) else {
                continue;
            };
            io.read += INODE_SIZE as u64;
            let mut inode = Inode::new(Ino(i), kind);
            inode.nlink = raw.nlink;
            inode.size = raw.size;
            inode.dirty = false;
            for (l, &p) in raw.direct.iter().enumerate() {
                if p != 0 {
                    inode.set_map(l as u64, p);
                }
            }
            let p = sb.ptrs_per_block();
            if raw.indirect != 0 {
                inode.indirect = Some(raw.indirect);
                let ptrs = read_ptr_block(store, &sb, raw.indirect);
                io.read += bs;
                io.ops += 1;
                for (j, &pb) in ptrs.iter().enumerate() {
                    if pb != 0 {
                        inode.set_map(NDADDR as u64 + j as u64, pb);
                    }
                }
            }
            if raw.dindirect != 0 {
                inode.dindirect = Some(raw.dindirect);
                let l1ptrs = read_ptr_block(store, &sb, raw.dindirect);
                io.read += bs;
                io.ops += 1;
                for (k, &l1) in l1ptrs.iter().enumerate() {
                    if k >= inode.dind_l1.len() {
                        inode.dind_l1.resize(k + 1, None);
                    }
                    if l1 == 0 {
                        continue;
                    }
                    inode.dind_l1[k] = Some(l1);
                    let ptrs = read_ptr_block(store, &sb, l1);
                    io.read += bs;
                    io.ops += 1;
                    let base = NDADDR as u64 + p + k as u64 * p;
                    for (j, &pb) in ptrs.iter().enumerate() {
                        if pb != 0 {
                            inode.set_map(base + j as u64, pb);
                        }
                    }
                }
            }
            inode.dirty = false;
            fs.inodes.insert(Ino(i), inode);
        }

        // Directory contents.
        let dir_inos: Vec<Ino> = fs
            .inodes
            .values()
            .filter(|i| i.kind == FileKind::Dir)
            .map(|i| i.ino)
            .collect();
        for ino in dir_inos {
            let data = fs.read_file_raw(store, ino);
            io.read += data.len() as u64;
            io.ops += 1;
            let contents = DirContents::decode(&data)?;
            fs.dirs.insert(ino, contents);
        }

        Some((fs, io))
    }

    // ----- introspection ---------------------------------------------------

    /// The superblock.
    pub fn superblock(&self) -> &Superblock {
        &self.sb
    }

    /// Filesystem block size in bytes.
    pub fn block_size(&self) -> usize {
        self.sb.block_size as usize
    }

    /// Free data blocks remaining.
    pub fn free_blocks(&self) -> u64 {
        self.bitmap.free()
    }

    /// File kind and size, if the inode exists.
    pub fn stat(&self, ino: Ino) -> Option<(FileKind, u64)> {
        self.inodes.get(&ino).map(|i| (i.kind, i.size))
    }

    /// File size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if the inode does not exist.
    pub fn size(&self, ino: Ino) -> u64 {
        self.inodes[&ino].size
    }

    /// Number of blocks needed to hold `size` bytes.
    pub fn blocks_for(&self, size: u64) -> u64 {
        size.div_ceil(self.sb.block_size as u64)
    }

    // ----- namespace -------------------------------------------------------

    fn split_path(path: &str) -> FsResult<Vec<&str>> {
        if !path.starts_with('/') {
            return Err(FsError::BadName);
        }
        let comps: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
        if comps
            .iter()
            .any(|c| c.len() > 255 || *c == "." || *c == "..")
        {
            return Err(FsError::BadName);
        }
        Ok(comps)
    }

    fn walk_parent(&self, comps: &[&str]) -> FsResult<Ino> {
        let mut cur = Ino(self.sb.root_ino);
        for c in comps {
            let dir = self.dirs.get(&cur).ok_or(FsError::NotDir)?;
            cur = dir.get(c).ok_or(FsError::NotFound)?;
            if self.inodes[&cur].kind != FileKind::Dir {
                return Err(FsError::NotDir);
            }
        }
        Ok(cur)
    }

    /// Resolves an absolute path to an inode.
    pub fn lookup(&self, path: &str) -> FsResult<Ino> {
        let comps = Self::split_path(path)?;
        if comps.is_empty() {
            return Ok(Ino(self.sb.root_ino));
        }
        let parent = self.walk_parent(&comps[..comps.len() - 1])?;
        let dir = self.dirs.get(&parent).ok_or(FsError::NotDir)?;
        dir.get(comps[comps.len() - 1]).ok_or(FsError::NotFound)
    }

    fn alloc_ino(&mut self) -> FsResult<Ino> {
        for i in 1..self.sb.ninodes {
            let ino = Ino(i);
            if !self.inodes.contains_key(&ino) {
                self.dead_inodes.remove(&ino);
                return Ok(ino);
            }
        }
        Err(FsError::NoSpace)
    }

    fn create_node(&mut self, path: &str, kind: FileKind) -> FsResult<Ino> {
        let comps = Self::split_path(path)?;
        let Some((&name, parents)) = comps.split_last() else {
            return Err(FsError::Exists); // root already exists
        };
        let parent = self.walk_parent(parents)?;
        if self.dirs[&parent].get(name).is_some() {
            return Err(FsError::Exists);
        }
        let ino = self.alloc_ino()?;
        let node = Inode::new(ino, kind);
        self.inodes.insert(ino, node);
        if kind == FileKind::Dir {
            self.dirs.insert(ino, DirContents::new());
            self.dirty_dirs.insert(ino);
        }
        self.dirs.get_mut(&parent).unwrap().insert(name, ino);
        self.dirty_dirs.insert(parent);
        Ok(ino)
    }

    /// Creates an empty regular file.
    pub fn create(&mut self, path: &str) -> FsResult<Ino> {
        self.create_node(path, FileKind::File)
    }

    /// Creates an empty directory.
    pub fn mkdir(&mut self, path: &str) -> FsResult<Ino> {
        self.create_node(path, FileKind::Dir)
    }

    /// Adds a hard link: `new` becomes another name for the file at
    /// `existing`. Directories cannot be linked.
    pub fn link(&mut self, existing: &str, new: &str) -> FsResult<()> {
        let ino = self.lookup(existing)?;
        if self.inodes[&ino].kind == FileKind::Dir {
            return Err(FsError::IsDir);
        }
        let comps = Self::split_path(new)?;
        let Some((&name, parents)) = comps.split_last() else {
            return Err(FsError::Exists);
        };
        let parent = self.walk_parent(parents)?;
        if self.dirs[&parent].get(name).is_some() {
            return Err(FsError::Exists);
        }
        self.dirs.get_mut(&parent).unwrap().insert(name, ino);
        self.dirty_dirs.insert(parent);
        let inode = self.inodes.get_mut(&ino).unwrap();
        inode.nlink += 1;
        inode.dirty = true;
        Ok(())
    }

    /// Removes a name. The file's blocks are freed only when its last
    /// link goes (empty directories are removed directly).
    pub fn unlink(&mut self, path: &str) -> FsResult<()> {
        let comps = Self::split_path(path)?;
        let Some((&name, parents)) = comps.split_last() else {
            return Err(FsError::IsDir);
        };
        let parent = self.walk_parent(parents)?;
        let ino = self.dirs[&parent].get(name).ok_or(FsError::NotFound)?;
        if self.inodes[&ino].kind == FileKind::Dir && !self.dirs[&ino].is_empty() {
            return Err(FsError::NotEmpty);
        }
        self.dirs.get_mut(&parent).unwrap().remove(name);
        self.dirty_dirs.insert(parent);
        {
            let inode = self.inodes.get_mut(&ino).unwrap();
            inode.dirty = true;
            if inode.kind == FileKind::File && inode.nlink > 1 {
                // Other names remain; just drop this reference.
                inode.nlink -= 1;
                return Ok(());
            }
        }
        self.truncate(ino).expect("inode exists");
        self.inodes.remove(&ino);
        self.dirs.remove(&ino);
        self.dirty_dirs.remove(&ino);
        self.dead_inodes.insert(ino);
        Ok(())
    }

    // ----- block mapping ---------------------------------------------------

    /// `bmap()`: logical block → physical block, `None` for holes/past-EOF.
    pub fn bmap(&self, ino: Ino, lblk: u64) -> Option<u64> {
        self.inodes.get(&ino)?.bmap(lblk)
    }

    /// Snapshot of the whole block map — what the splice descriptor stores
    /// ("the entire list of all physical block numbers comprising the
    /// source file is determined by successive calls to bmap()", §5.2).
    pub fn block_map(&self, ino: Ino) -> Vec<Option<u64>> {
        let inode = &self.inodes[&ino];
        let n = self.blocks_for(inode.size) as usize;
        (0..n as u64).map(|l| inode.bmap(l)).collect()
    }

    /// The allocating `bmap` used by write paths and by the splice
    /// destination mapping (§5.2's "special version of bmap() … which
    /// avoids delayed-writes of freshly allocated, zero-filled blocks"):
    /// returns the physical block for `lblk`, allocating one near the
    /// file's previous block if unmapped. The fresh block is *not*
    /// zero-filled through the cache — the caller promises to overwrite it
    /// entirely.
    pub fn bmap_alloc(&mut self, ino: Ino, lblk: u64) -> FsResult<u64> {
        let p = self.sb.ptrs_per_block();
        if lblk >= self.sb.max_file_blocks() {
            return Err(FsError::FileTooBig);
        }
        let inode = self.inodes.get_mut(&ino).ok_or(FsError::NotFound)?;
        if let Some(pb) = inode.bmap(lblk) {
            return Ok(pb);
        }
        // Allocate near the previous mapped block for contiguity.
        let near = lblk
            .checked_sub(1)
            .and_then(|l| inode.bmap(l))
            .map(|pb| pb + 1)
            .or(Some(self.sb.data_start));
        let pb = self.bitmap.alloc(near).ok_or(FsError::NoSpace)?;
        self.bitmap_dirty = true;
        let inode = self.inodes.get_mut(&ino).unwrap();
        inode.set_map(lblk, pb);

        // Make sure the pointer-block spine exists for this range. Spine
        // slots are identified first, then allocated, to keep the borrows
        // of `self.inodes` and `self.bitmap` disjoint.
        #[derive(Clone, Copy)]
        enum Spine {
            Indirect,
            Dindirect,
            DindL1(usize),
        }
        let mut needed: Vec<Spine> = Vec::new();
        if lblk >= NDADDR as u64 {
            if lblk < NDADDR as u64 + p {
                if inode.indirect.is_none() {
                    needed.push(Spine::Indirect);
                }
            } else {
                let k = ((lblk - NDADDR as u64 - p) / p) as usize;
                if inode.dindirect.is_none() {
                    needed.push(Spine::Dindirect);
                }
                if k >= inode.dind_l1.len() {
                    inode.dind_l1.resize(k + 1, None);
                }
                if inode.dind_l1[k].is_none() {
                    needed.push(Spine::DindL1(k));
                }
            }
        }
        for slot in needed {
            let blk = self.bitmap.alloc(None).ok_or(FsError::NoSpace)?;
            let inode = self.inodes.get_mut(&ino).unwrap();
            match slot {
                Spine::Indirect => inode.indirect = Some(blk),
                Spine::Dindirect => inode.dindirect = Some(blk),
                Spine::DindL1(k) => inode.dind_l1[k] = Some(blk),
            }
        }
        Ok(pb)
    }

    /// Sets the file size (write paths extend; truncation frees nothing —
    /// use [`Fs::truncate`] for that).
    pub fn set_size(&mut self, ino: Ino, size: u64) {
        let inode = self.inodes.get_mut(&ino).expect("inode exists");
        inode.size = size;
        inode.dirty = true;
    }

    /// Truncates a file to zero length, freeing all its blocks.
    pub fn truncate(&mut self, ino: Ino) -> FsResult<()> {
        let inode = self.inodes.get_mut(&ino).ok_or(FsError::NotFound)?;
        let blocks: Vec<u64> = inode.map.iter().flatten().copied().collect();
        let spine: Vec<u64> = inode
            .indirect
            .iter()
            .chain(inode.dindirect.iter())
            .chain(inode.dind_l1.iter().flatten())
            .copied()
            .collect();
        inode.map.clear();
        inode.indirect = None;
        inode.dindirect = None;
        inode.dind_l1.clear();
        inode.size = 0;
        inode.dirty = true;
        for b in blocks.into_iter().chain(spine) {
            self.bitmap.dealloc(b);
        }
        self.bitmap_dirty = true;
        Ok(())
    }

    // ----- metadata writeback ----------------------------------------------

    /// Writes back one inode (and its pointer blocks). The fsync path.
    pub fn sync_inode(&mut self, store: &mut SparseStore, ino: Ino) -> FsIo {
        let mut io = FsIo::default();
        if self.dirty_dirs.contains(&ino) {
            io.add(self.sync_dir(store, ino));
        }
        let bs = self.sb.block_size as u64;
        let Some(inode) = self.inodes.get(&ino) else {
            return io;
        };
        if !inode.dirty {
            return io;
        }
        let p = self.sb.ptrs_per_block();
        // Pointer blocks.
        if let Some(iblk) = inode.indirect {
            let mut ptrs = vec![0u64; p as usize];
            for (j, slot) in ptrs.iter_mut().enumerate() {
                if let Some(Some(pb)) = inode.map.get(NDADDR + j) {
                    *slot = *pb;
                }
            }
            write_ptr_block(store, &self.sb, iblk, &ptrs);
            io.written += bs;
            io.ops += 1;
        }
        if let Some(dblk) = inode.dindirect {
            let mut l1ptrs = vec![0u64; p as usize];
            for (k, l1) in inode.dind_l1.iter().enumerate() {
                let Some(l1blk) = l1 else { continue };
                l1ptrs[k] = *l1blk;
                let mut ptrs = vec![0u64; p as usize];
                let base = NDADDR as u64 + p + k as u64 * p;
                for (j, slot) in ptrs.iter_mut().enumerate() {
                    if let Some(Some(pb)) = inode.map.get(base as usize + j) {
                        *slot = *pb;
                    }
                }
                write_ptr_block(store, &self.sb, *l1blk, &ptrs);
                io.written += bs;
                io.ops += 1;
            }
            write_ptr_block(store, &self.sb, dblk, &l1ptrs);
            io.written += bs;
            io.ops += 1;
        }
        // The inode itself.
        let raw = inode.to_raw();
        store.write(self.sb.inode_offset(ino.0), &raw.encode());
        io.written += INODE_SIZE as u64;
        io.ops += 1;
        self.inodes.get_mut(&ino).unwrap().dirty = false;
        io
    }

    fn sync_dir(&mut self, store: &mut SparseStore, ino: Ino) -> FsIo {
        let mut io = FsIo::default();
        let Some(dir) = self.dirs.get(&ino) else {
            return io;
        };
        let data = dir.encode();
        self.write_direct(store, ino, 0, &data)
            .expect("directory writeback");
        // write_direct marks size; count the traffic.
        io.written += data.len() as u64;
        io.ops += 1;
        self.dirty_dirs.remove(&ino);
        io
    }

    /// Writes back all dirty metadata: bitmap, directories, inodes, freed
    /// inode slots, superblock.
    pub fn sync(&mut self, store: &mut SparseStore) -> FsIo {
        let mut io = FsIo::default();
        let bs = self.sb.block_size as u64;
        let dirty_dirs: Vec<Ino> = self.dirty_dirs.iter().copied().collect();
        for ino in dirty_dirs {
            io.add(self.sync_dir(store, ino));
        }
        let dirty_inos: Vec<Ino> = self
            .inodes
            .values()
            .filter(|i| i.dirty)
            .map(|i| i.ino)
            .collect();
        for ino in dirty_inos {
            io.add(self.sync_inode(store, ino));
        }
        for ino in std::mem::take(&mut self.dead_inodes) {
            store.write(self.sb.inode_offset(ino.0), &RawInode::free().encode());
            io.written += INODE_SIZE as u64;
            io.ops += 1;
        }
        if self.bitmap_dirty {
            store.write(self.sb.bitmap_start * bs, self.bitmap.to_bytes());
            io.written += self.sb.bitmap_blocks * bs;
            io.ops += 1;
            self.bitmap_dirty = false;
        }
        io
    }

    // ----- direct data access (setup & verification only) -------------------

    fn read_file_raw(&self, store: &SparseStore, ino: Ino) -> Vec<u8> {
        let size = self.inodes[&ino].size;
        self.read_direct(store, ino, 0, size as usize)
    }

    /// Reads file data straight from the medium, bypassing cache and
    /// timing. For experiment setup and test verification only.
    pub fn read_direct(&self, store: &SparseStore, ino: Ino, offset: u64, len: usize) -> Vec<u8> {
        let inode = &self.inodes[&ino];
        let bs = self.sb.block_size as u64;
        let len = len.min(inode.size.saturating_sub(offset) as usize);
        let mut out = vec![0u8; len];
        let mut pos = 0usize;
        while pos < len {
            let abs = offset + pos as u64;
            let lblk = abs / bs;
            let boff = (abs % bs) as usize;
            let n = ((bs as usize) - boff).min(len - pos);
            if let Some(pb) = inode.bmap(lblk) {
                store.read(pb * bs + boff as u64, &mut out[pos..pos + n]);
            }
            pos += n;
        }
        out
    }

    /// Writes file data straight to the medium, allocating blocks as
    /// needed and bypassing cache and timing. For experiment setup only.
    pub fn write_direct(
        &mut self,
        store: &mut SparseStore,
        ino: Ino,
        offset: u64,
        data: &[u8],
    ) -> FsResult<()> {
        let bs = self.sb.block_size as u64;
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = offset + pos as u64;
            let lblk = abs / bs;
            let boff = (abs % bs) as usize;
            let n = ((bs as usize) - boff).min(data.len() - pos);
            let existed = self.bmap(ino, lblk).is_some();
            let pb = self.bmap_alloc(ino, lblk)?;
            if !existed && n < bs as usize {
                // A freshly allocated block may be a recycled one with a
                // previous owner's bytes; a partial write must not expose
                // them.
                store.write(pb * bs, &vec![0u8; bs as usize]);
            }
            store.write(pb * bs + boff as u64, &data[pos..pos + n]);
            pos += n;
        }
        let end = offset + data.len() as u64;
        if end > self.inodes[&ino].size {
            self.set_size(ino, end);
        }
        Ok(())
    }
}

fn read_ptr_block(store: &SparseStore, sb: &Superblock, blk: u64) -> Vec<u64> {
    let bs = sb.block_size as u64;
    let bytes = store.read_vec(blk * bs, bs as usize);
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn write_ptr_block(store: &mut SparseStore, sb: &Superblock, blk: u64, ptrs: &[u64]) {
    let bs = sb.block_size as u64;
    let mut bytes = Vec::with_capacity(bs as usize);
    for p in ptrs {
        bytes.extend_from_slice(&p.to_le_bytes());
    }
    bytes.resize(bs as usize, 0);
    store.write(blk * bs, &bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> (SparseStore, Fs) {
        let mut store = SparseStore::new(64 * 1024 * 1024, 8192);
        let fs = Fs::mkfs(&mut store, 8192, 256);
        (store, fs)
    }

    #[test]
    fn mkfs_mount_roundtrip() {
        let (mut store, mut fs) = fresh();
        fs.create("/hello").unwrap();
        fs.sync(&mut store);
        let (fs2, io) = Fs::mount(&store).expect("mountable");
        assert!(io.read > 0);
        assert!(fs2.lookup("/hello").is_ok());
    }

    #[test]
    fn create_lookup_unlink() {
        let (_store, mut fs) = fresh();
        let ino = fs.create("/a").unwrap();
        assert_eq!(fs.lookup("/a"), Ok(ino));
        assert_eq!(fs.create("/a"), Err(FsError::Exists));
        fs.unlink("/a").unwrap();
        assert_eq!(fs.lookup("/a"), Err(FsError::NotFound));
        assert_eq!(fs.unlink("/a"), Err(FsError::NotFound));
    }

    #[test]
    fn nested_directories() {
        let (_store, mut fs) = fresh();
        fs.mkdir("/d").unwrap();
        fs.mkdir("/d/e").unwrap();
        let f = fs.create("/d/e/file").unwrap();
        assert_eq!(fs.lookup("/d/e/file"), Ok(f));
        assert_eq!(fs.lookup("/d/x/file"), Err(FsError::NotFound));
        assert_eq!(fs.mkdir("/nope/sub"), Err(FsError::NotFound));
        assert_eq!(fs.unlink("/d"), Err(FsError::NotEmpty));
    }

    #[test]
    fn path_validation() {
        let (_store, mut fs) = fresh();
        assert_eq!(fs.create("relative"), Err(FsError::BadName));
        assert_eq!(fs.create("/x/../y"), Err(FsError::BadName));
        assert_eq!(fs.lookup("/"), Ok(Ino(1)));
    }

    #[test]
    fn bmap_alloc_is_contiguous_for_sequential_writes() {
        let (_store, mut fs) = fresh();
        let ino = fs.create("/f").unwrap();
        let a = fs.bmap_alloc(ino, 0).unwrap();
        let b = fs.bmap_alloc(ino, 1).unwrap();
        let c = fs.bmap_alloc(ino, 2).unwrap();
        assert_eq!(b, a + 1);
        assert_eq!(c, b + 1);
        // Idempotent.
        assert_eq!(fs.bmap_alloc(ino, 1).unwrap(), b);
        assert_eq!(fs.bmap(ino, 1), Some(b));
        assert_eq!(fs.bmap(ino, 3), None);
    }

    #[test]
    fn write_read_direct_roundtrip() {
        let (mut store, mut fs) = fresh();
        let ino = fs.create("/f").unwrap();
        let data: Vec<u8> = (0..100_000).map(|i| (i % 253) as u8).collect();
        fs.write_direct(&mut store, ino, 0, &data).unwrap();
        assert_eq!(fs.size(ino), 100_000);
        assert_eq!(fs.read_direct(&store, ino, 0, 100_000), data);
        // Unaligned slice.
        assert_eq!(
            fs.read_direct(&store, ino, 12_345, 4_321),
            data[12_345..12_345 + 4_321].to_vec()
        );
    }

    #[test]
    fn large_file_uses_indirect_blocks_and_survives_remount() {
        let (mut store, mut fs) = fresh();
        let ino = fs.create("/big").unwrap();
        // 20 blocks: past the 12 direct pointers.
        let data: Vec<u8> = (0..20 * 8192).map(|i| (i % 251) as u8).collect();
        fs.write_direct(&mut store, ino, 0, &data).unwrap();
        fs.sync(&mut store);
        let (fs2, _) = Fs::mount(&store).unwrap();
        let ino2 = fs2.lookup("/big").unwrap();
        assert_eq!(fs2.read_direct(&store, ino2, 0, data.len()), data);
    }

    #[test]
    fn double_indirect_file_survives_remount() {
        let (mut store, mut fs) = fresh();
        let ino = fs.create("/huge").unwrap();
        let p = fs.superblock().ptrs_per_block();
        // A couple of blocks past the single-indirect limit, written
        // sparsely to keep the test fast.
        let lblk = NDADDR as u64 + p + 3;
        let pb = fs.bmap_alloc(ino, lblk).unwrap();
        let bs = fs.block_size() as u64;
        store.write(pb * bs, b"deep block");
        fs.set_size(ino, (lblk + 1) * bs);
        fs.sync(&mut store);
        let (fs2, _) = Fs::mount(&store).unwrap();
        let ino2 = fs2.lookup("/huge").unwrap();
        assert_eq!(fs2.bmap(ino2, lblk), Some(pb));
        let got = fs2.read_direct(&store, ino2, lblk * bs, 10);
        assert_eq!(&got, b"deep block");
    }

    #[test]
    fn holes_read_as_zeros() {
        let (mut store, mut fs) = fresh();
        let ino = fs.create("/sparse").unwrap();
        fs.write_direct(&mut store, ino, 3 * 8192, b"tail").unwrap();
        let hole = fs.read_direct(&store, ino, 0, 16);
        assert_eq!(hole, vec![0u8; 16]);
    }

    #[test]
    fn truncate_frees_blocks() {
        let (mut store, mut fs) = fresh();
        let free0 = fs.free_blocks();
        let ino = fs.create("/f").unwrap();
        fs.write_direct(&mut store, ino, 0, &vec![1u8; 20 * 8192])
            .unwrap();
        assert!(fs.free_blocks() < free0);
        fs.truncate(ino).unwrap();
        assert_eq!(fs.free_blocks(), free0);
        assert_eq!(fs.size(ino), 0);
    }

    #[test]
    fn unlink_frees_blocks_and_inode_slot() {
        let (mut store, mut fs) = fresh();
        let free0 = fs.free_blocks();
        let ino = fs.create("/f").unwrap();
        fs.write_direct(&mut store, ino, 0, &vec![1u8; 5 * 8192])
            .unwrap();
        fs.unlink("/f").unwrap();
        assert_eq!(fs.free_blocks(), free0);
        fs.sync(&mut store);
        let (fs2, _) = Fs::mount(&store).unwrap();
        assert_eq!(fs2.lookup("/f"), Err(FsError::NotFound));
        // The inode slot is reusable.
        let ino2 = fs2.stat(ino);
        assert!(ino2.is_none());
    }

    #[test]
    fn block_map_snapshot_matches_bmap() {
        let (mut store, mut fs) = fresh();
        let ino = fs.create("/f").unwrap();
        fs.write_direct(&mut store, ino, 0, &vec![7u8; 5 * 8192 + 100])
            .unwrap();
        let map = fs.block_map(ino);
        assert_eq!(map.len(), 6);
        for (l, pb) in map.iter().enumerate() {
            assert_eq!(*pb, fs.bmap(ino, l as u64));
            assert!(pb.is_some());
        }
    }

    #[test]
    fn hard_links_share_the_inode_until_the_last_name_goes() {
        let (mut store, mut fs) = fresh();
        let ino = fs.create("/a").unwrap();
        fs.write_direct(&mut store, ino, 0, b"shared").unwrap();
        fs.link("/a", "/b").unwrap();
        assert_eq!(fs.lookup("/b"), Ok(ino));
        assert_eq!(fs.link("/a", "/b"), Err(FsError::Exists));
        assert_eq!(fs.link("/", "/c"), Err(FsError::IsDir));
        // Writes through one name are visible through the other.
        fs.write_direct(&mut store, ino, 0, b"SHARED").unwrap();
        let ino_b = fs.lookup("/b").unwrap();
        assert_eq!(fs.read_direct(&store, ino_b, 0, 6), b"SHARED");
        // Dropping one name keeps the file.
        let free_before = fs.free_blocks();
        fs.unlink("/a").unwrap();
        assert_eq!(fs.lookup("/a"), Err(FsError::NotFound));
        assert_eq!(fs.lookup("/b"), Ok(ino));
        assert_eq!(fs.free_blocks(), free_before, "blocks survive");
        // Dropping the last name frees everything.
        fs.unlink("/b").unwrap();
        assert!(fs.free_blocks() > free_before);
        // And the image stays consistent across a remount.
        fs.sync(&mut store);
        let (fs2, _) = Fs::mount(&store).unwrap();
        assert_eq!(fs2.lookup("/b"), Err(FsError::NotFound));
    }

    #[test]
    fn linked_file_survives_remount_with_both_names() {
        let (mut store, mut fs) = fresh();
        let ino = fs.create("/x").unwrap();
        fs.write_direct(&mut store, ino, 0, b"data").unwrap();
        fs.link("/x", "/y").unwrap();
        fs.sync(&mut store);
        assert!(crate::fsck::fsck(&store).clean());
        let (fs2, _) = Fs::mount(&store).unwrap();
        assert_eq!(fs2.lookup("/x"), fs2.lookup("/y"));
    }

    #[test]
    fn no_space_surfaces() {
        let mut store = SparseStore::new(1024 * 1024, 8192); // 128 blocks total
        let mut fs = Fs::mkfs(&mut store, 8192, 16);
        let ino = fs.create("/f").unwrap();
        let mut err = None;
        for l in 0..200 {
            if let Err(e) = fs.bmap_alloc(ino, l) {
                err = Some(e);
                break;
            }
        }
        assert_eq!(err, Some(FsError::NoSpace));
    }

    #[test]
    fn file_too_big_surfaces() {
        let (_store, mut fs) = fresh();
        let ino = fs.create("/f").unwrap();
        let max = fs.superblock().max_file_blocks();
        assert_eq!(fs.bmap_alloc(ino, max), Err(FsError::FileTooBig));
    }
}
