//! `fsck`-style consistency checker.
//!
//! Reads the raw on-disk structures back — independently of the `Fs`
//! implementation — and cross-checks them. This is the oracle behind the
//! filesystem property tests: after any sequence of operations plus a
//! `sync`, the image must check clean.

use std::collections::{HashMap, HashSet, VecDeque};

use khw::SparseStore;

use crate::dir::DirContents;
use crate::inode::{FileKind, Ino};
use crate::layout::{RawInode, Superblock, INODE_SIZE, NDADDR};

/// Outcome of a check: inventory plus any inconsistencies found.
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Regular files found.
    pub files: u32,
    /// Directories found.
    pub dirs: u32,
    /// Data blocks referenced by files (including pointer blocks).
    pub referenced_blocks: u64,
    /// Problems found; empty means the image is consistent.
    pub errors: Vec<String>,
}

impl FsckReport {
    /// True when no inconsistencies were found.
    pub fn clean(&self) -> bool {
        self.errors.is_empty()
    }
}

fn read_ptrs(store: &SparseStore, sb: &Superblock, blk: u64) -> Vec<u64> {
    let bs = sb.block_size as u64;
    store
        .read_vec(blk * bs, bs as usize)
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Checks the filesystem image in `store`.
pub fn fsck(store: &SparseStore) -> FsckReport {
    let mut rep = FsckReport::default();
    let Some(sb) = Superblock::decode(&store.read_vec(0, 64)) else {
        rep.errors.push("bad superblock magic".into());
        return rep;
    };
    let bs = sb.block_size as u64;

    let mut refs: HashMap<u64, String> = HashMap::new();
    let mut claim = |rep: &mut FsckReport, blk: u64, what: String| {
        if blk < sb.data_start || blk >= sb.total_blocks {
            rep.errors
                .push(format!("{what}: block {blk} out of data range"));
            return;
        }
        if let Some(prev) = refs.insert(blk, what.clone()) {
            rep.errors
                .push(format!("block {blk} doubly referenced: {prev} and {what}"));
        }
    };

    // Pass 1: inodes and their block trees.
    let mut kinds: HashMap<Ino, FileKind> = HashMap::new();
    let mut sizes: HashMap<Ino, u64> = HashMap::new();
    let mut nlinks: HashMap<Ino, u16> = HashMap::new();
    for i in 1..sb.ninodes {
        let raw = RawInode::decode(&store.read_vec(sb.inode_offset(i), INODE_SIZE));
        let Some(kind) = FileKind::from_raw(raw.kind) else {
            if raw.kind != 0 {
                rep.errors.push(format!("inode {i}: bad kind {}", raw.kind));
            }
            continue;
        };
        let ino = Ino(i);
        kinds.insert(ino, kind);
        sizes.insert(ino, raw.size);
        nlinks.insert(ino, raw.nlink);
        match kind {
            FileKind::File => rep.files += 1,
            FileKind::Dir => rep.dirs += 1,
        }

        let mut mapped_blocks = 0u64;
        for &d in raw.direct.iter().filter(|&&d| d != 0) {
            claim(&mut rep, d, format!("inode {i} direct"));
            mapped_blocks += 1;
        }
        if raw.indirect != 0 {
            claim(&mut rep, raw.indirect, format!("inode {i} indirect"));
            for &pb in read_ptrs(store, &sb, raw.indirect)
                .iter()
                .filter(|&&b| b != 0)
            {
                claim(&mut rep, pb, format!("inode {i} ind data"));
                mapped_blocks += 1;
            }
        }
        if raw.dindirect != 0 {
            claim(&mut rep, raw.dindirect, format!("inode {i} dindirect"));
            for &l1 in read_ptrs(store, &sb, raw.dindirect)
                .iter()
                .filter(|&&b| b != 0)
            {
                claim(&mut rep, l1, format!("inode {i} dind l1"));
                for &pb in read_ptrs(store, &sb, l1).iter().filter(|&&b| b != 0) {
                    claim(&mut rep, pb, format!("inode {i} dind data"));
                    mapped_blocks += 1;
                }
            }
        }
        // Size sanity: a file cannot be larger than the address space, and
        // cannot have data blocks entirely past its size (trailing holes
        // are fine, trailing *blocks* are a leak).
        let max_bytes = sb.max_file_blocks() * bs;
        if raw.size > max_bytes {
            rep.errors
                .push(format!("inode {i}: size {} too large", raw.size));
        }
        let size_blocks = raw.size.div_ceil(bs);
        if mapped_blocks > size_blocks {
            rep.errors.push(format!(
                "inode {i}: {mapped_blocks} blocks mapped but size covers {size_blocks}"
            ));
        }
    }
    rep.referenced_blocks = refs.len() as u64;

    // Pass 2: bitmap agreement.
    let bitmap = store.read_vec(sb.bitmap_start * bs, (sb.bitmap_blocks * bs) as usize);
    let used = |blk: u64| bitmap[(blk / 8) as usize] & (1 << (blk % 8)) != 0;
    for b in 0..sb.data_start {
        if !used(b) {
            rep.errors
                .push(format!("metadata block {b} not marked used"));
        }
    }
    for (&blk, what) in &refs {
        if !used(blk) {
            rep.errors
                .push(format!("referenced block {blk} ({what}) marked free"));
        }
    }
    for b in sb.data_start..sb.total_blocks {
        if used(b) && !refs.contains_key(&b) {
            rep.errors
                .push(format!("block {b} marked used but unreferenced"));
        }
    }

    // Pass 3: namespace reachability and link counts.
    let root = Ino(sb.root_ino);
    if kinds.get(&root) != Some(&FileKind::Dir) {
        rep.errors.push("root inode is not a directory".into());
        return rep;
    }
    let mut reachable: HashSet<Ino> = HashSet::new();
    let mut dir_refs: HashMap<Ino, u16> = HashMap::new();
    let mut queue = VecDeque::from([root]);
    reachable.insert(root);
    while let Some(d) = queue.pop_front() {
        // Read directory data via its raw block tree.
        let raw = RawInode::decode(&store.read_vec(sb.inode_offset(d.0), INODE_SIZE));
        let mut data = Vec::with_capacity(raw.size as usize);
        let mut lblk = 0u64;
        while (lblk * bs) < raw.size {
            let pb = if (lblk as usize) < NDADDR {
                raw.direct[lblk as usize]
            } else if raw.indirect != 0 {
                read_ptrs(store, &sb, raw.indirect)
                    .get(lblk as usize - NDADDR)
                    .copied()
                    .unwrap_or(0)
            } else {
                0
            };
            let want = ((raw.size - lblk * bs) as usize).min(bs as usize);
            if pb != 0 {
                data.extend_from_slice(&store.read_vec(pb * bs, want));
            } else {
                data.extend(std::iter::repeat_n(0, want));
            }
            lblk += 1;
        }
        let Some(contents) = DirContents::decode(&data) else {
            rep.errors.push(format!("directory {} unparseable", d.0));
            continue;
        };
        for (name, ino) in contents.iter() {
            let Some(kind) = kinds.get(&ino) else {
                rep.errors.push(format!(
                    "dir {} entry '{name}' -> free inode {}",
                    d.0, ino.0
                ));
                continue;
            };
            *dir_refs.entry(ino).or_insert(0) += 1;
            if reachable.insert(ino) {
                if *kind == FileKind::Dir {
                    queue.push_back(ino);
                }
            } else if *kind == FileKind::Dir {
                rep.errors
                    .push(format!("directory {} referenced more than once", ino.0));
            }
        }
    }
    for (&ino, &kind) in &kinds {
        if !reachable.contains(&ino) {
            rep.errors.push(format!("inode {} unreachable", ino.0));
        }
        if kind == FileKind::File {
            let refs = dir_refs.get(&ino).copied().unwrap_or(0);
            let nlink = nlinks[&ino];
            if refs != nlink {
                rep.errors.push(format!(
                    "inode {}: nlink {nlink} but {refs} directory references",
                    ino.0
                ));
            }
        }
    }

    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::Fs;

    fn image() -> (SparseStore, Fs) {
        let mut store = SparseStore::new(32 * 1024 * 1024, 8192);
        let fs = Fs::mkfs(&mut store, 8192, 128);
        (store, fs)
    }

    #[test]
    fn fresh_image_checks_clean() {
        let (mut store, mut fs) = image();
        fs.sync(&mut store);
        let rep = fsck(&store);
        assert!(rep.clean(), "{:?}", rep.errors);
        assert_eq!(rep.dirs, 1);
        assert_eq!(rep.files, 0);
    }

    #[test]
    fn populated_image_checks_clean() {
        let (mut store, mut fs) = image();
        fs.mkdir("/d").unwrap();
        for name in ["/a", "/d/b", "/d/c"] {
            let ino = fs.create(name).unwrap();
            fs.write_direct(&mut store, ino, 0, &vec![3u8; 30_000])
                .unwrap();
        }
        let ino = fs.create("/big").unwrap();
        fs.write_direct(&mut store, ino, 0, &vec![4u8; 20 * 8192])
            .unwrap();
        fs.unlink("/d/c").unwrap();
        fs.sync(&mut store);
        let rep = fsck(&store);
        assert!(rep.clean(), "{:?}", rep.errors);
        assert_eq!(rep.files, 3);
        assert_eq!(rep.dirs, 2);
    }

    #[test]
    fn detects_double_reference() {
        let (mut store, mut fs) = image();
        let a = fs.create("/a").unwrap();
        let b = fs.create("/b").unwrap();
        fs.write_direct(&mut store, a, 0, &vec![1u8; 8192]).unwrap();
        fs.write_direct(&mut store, b, 0, &vec![2u8; 8192]).unwrap();
        fs.sync(&mut store);
        // Corrupt: point b's first direct block at a's.
        let sb = *fs.superblock();
        let mut raw_b = RawInode::decode(&store.read_vec(sb.inode_offset(b.0), INODE_SIZE));
        let raw_a = RawInode::decode(&store.read_vec(sb.inode_offset(a.0), INODE_SIZE));
        raw_b.direct[0] = raw_a.direct[0];
        store.write(sb.inode_offset(b.0), &raw_b.encode());
        let rep = fsck(&store);
        assert!(rep.errors.iter().any(|e| e.contains("doubly referenced")));
    }

    #[test]
    fn detects_free_block_in_use() {
        let (mut store, mut fs) = image();
        let a = fs.create("/a").unwrap();
        fs.write_direct(&mut store, a, 0, &vec![1u8; 8192]).unwrap();
        fs.sync(&mut store);
        // Corrupt: clear the data block's bitmap bit.
        let sb = *fs.superblock();
        let raw = RawInode::decode(&store.read_vec(sb.inode_offset(a.0), INODE_SIZE));
        let blk = raw.direct[0];
        let bs = sb.block_size as u64;
        let byte_off = sb.bitmap_start * bs + blk / 8;
        let mut byte = store.read_vec(byte_off, 1);
        byte[0] &= !(1 << (blk % 8));
        store.write(byte_off, &byte);
        let rep = fsck(&store);
        assert!(rep.errors.iter().any(|e| e.contains("marked free")));
    }

    #[test]
    fn detects_leaked_block() {
        let (mut store, mut fs) = image();
        fs.sync(&mut store);
        let sb = *fs.superblock();
        let bs = sb.block_size as u64;
        // Corrupt: set a random data block's bit with no referent.
        let blk = sb.data_start + 5;
        let byte_off = sb.bitmap_start * bs + blk / 8;
        let mut byte = store.read_vec(byte_off, 1);
        byte[0] |= 1 << (blk % 8);
        store.write(byte_off, &byte);
        let rep = fsck(&store);
        assert!(rep.errors.iter().any(|e| e.contains("unreferenced")));
    }

    #[test]
    fn detects_dangling_dirent() {
        let (mut store, mut fs) = image();
        let a = fs.create("/ghost").unwrap();
        fs.sync(&mut store);
        // Corrupt: free the inode but leave the directory entry.
        let sb = *fs.superblock();
        store.write(sb.inode_offset(a.0), &RawInode::free().encode());
        let rep = fsck(&store);
        assert!(rep.errors.iter().any(|e| e.contains("free inode")));
    }

    #[test]
    fn detects_bad_superblock() {
        let store = SparseStore::new(1024 * 1024, 8192);
        let rep = fsck(&store);
        assert!(!rep.clean());
    }
}
