//! Sparse block store: the persistent medium behind every simulated device.
//!
//! Devices in this reproduction carry *real data* so that every copy path
//! (read/write, splice, network) can be verified byte-for-byte. A disk can
//! be hundreds of simulated megabytes, so storage is a map of fixed-size
//! blocks allocated lazily; unwritten regions read back as zeros, like a
//! freshly formatted medium.
//!
//! # Shared, copy-on-write blocks
//!
//! Each block is a reference-counted [`Block`]. Its size is the file
//! system's block size, fixed when the kernel adds the disk, so every
//! buffer-cache transfer covers exactly one block. Whole-block transfers
//! move the reference, not the bytes: [`SparseStore::block`] hands out the
//! medium's block (a driver read) and [`SparseStore::put_block`] installs
//! one (a driver write). A simulated driver `bcopy` therefore costs no host
//! memcpy; the driver charges its simulated cost separately.
//!
//! Byte-range access ([`SparseStore::read`], [`SparseStore::write`]) serves
//! `mkfs`, file-system metadata and torn-write prefixes. A byte-range write
//! into a block that a cache buffer or an in-flight I/O still holds copies
//! that block first (`Rc::make_mut`), so a holder never sees the medium
//! change under it.

use std::rc::Rc;

use ksim::IdMap;

/// One medium block, shared copy-on-write between the medium, cache data
/// areas and in-flight I/O.
pub type Block = Rc<Vec<u8>>;

/// A lazily-allocated, zero-initialised byte array addressed by offset and
/// stored as shared blocks.
#[derive(Clone)]
pub struct SparseStore {
    blocks: IdMap<u64, Block>,
    block_size: usize,
    /// What an unwritten block reads as.
    zero: Block,
    len: u64,
}

impl SparseStore {
    /// Creates a store of `len` addressable bytes, all zero, held in
    /// `block_size`-byte blocks.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(len: u64, block_size: usize) -> Self {
        assert!(block_size > 0, "zero block size");
        SparseStore {
            blocks: IdMap::default(),
            block_size,
            zero: Rc::new(vec![0; block_size]),
            len,
        }
    }

    /// Addressable size in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the store has zero addressable bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Block granularity in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of blocks actually materialised (for memory-use assertions).
    pub fn resident_blocks(&self) -> usize {
        self.blocks.len()
    }

    fn check_range(&self, off: u64, n: usize) {
        assert!(
            off.checked_add(n as u64).is_some_and(|end| end <= self.len),
            "store access out of range: off={off} len={n} size={}",
            self.len
        );
    }

    /// Index of the whole block starting at byte `off`.
    fn block_index(&self, off: u64) -> u64 {
        self.check_range(off, self.block_size);
        assert!(
            off.is_multiple_of(self.block_size as u64),
            "block access at unaligned offset {off}"
        );
        off / self.block_size as u64
    }

    /// The whole block starting at byte `off`, shared with the medium
    /// (unwritten blocks read as a shared zero block).
    ///
    /// # Panics
    ///
    /// Panics if `off` is not block-aligned or the block runs past the end.
    pub fn block(&self, off: u64) -> Block {
        let bi = self.block_index(off);
        Rc::clone(self.blocks.get(&bi).unwrap_or(&self.zero))
    }

    /// Installs `block` as the whole block starting at byte `off`.
    ///
    /// # Panics
    ///
    /// Panics if `off` is not block-aligned, the block runs past the end,
    /// or `block` is not exactly one block long.
    pub fn put_block(&mut self, off: u64, block: Block) {
        let bi = self.block_index(off);
        assert_eq!(block.len(), self.block_size, "partial block installed");
        self.blocks.insert(bi, block);
    }

    /// Reads `buf.len()` bytes starting at `off`.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of the store.
    pub fn read(&self, off: u64, buf: &mut [u8]) {
        self.check_range(off, buf.len());
        let bs = self.block_size as u64;
        let mut pos = 0usize;
        while pos < buf.len() {
            let abs = off + pos as u64;
            let bo = (abs % bs) as usize;
            let n = (self.block_size - bo).min(buf.len() - pos);
            match self.blocks.get(&(abs / bs)) {
                Some(block) => buf[pos..pos + n].copy_from_slice(&block[bo..bo + n]),
                None => buf[pos..pos + n].fill(0),
            }
            pos += n;
        }
    }

    /// Convenience: reads `n` bytes at `off` into a fresh vector.
    pub fn read_vec(&self, off: u64, n: usize) -> Vec<u8> {
        let mut v = vec![0u8; n];
        self.read(off, &mut v);
        v
    }

    /// Writes `data` starting at `off`. A whole block is replaced; a
    /// partial one is written in place, after copying it if it is still
    /// shared.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of the store.
    pub fn write(&mut self, off: u64, data: &[u8]) {
        self.check_range(off, data.len());
        let bs = self.block_size as u64;
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = off + pos as u64;
            let bo = (abs % bs) as usize;
            let n = (self.block_size - bo).min(data.len() - pos);
            let src = &data[pos..pos + n];
            if n == self.block_size {
                self.blocks.insert(abs / bs, Rc::new(src.to_vec()));
            } else {
                let block = self
                    .blocks
                    .entry(abs / bs)
                    .or_insert_with(|| Rc::clone(&self.zero));
                Rc::make_mut(block)[bo..bo + n].copy_from_slice(src);
            }
            pos += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BS: usize = 8192;

    #[test]
    fn unwritten_reads_zero() {
        let s = SparseStore::new(1 << 20, BS);
        assert_eq!(s.read_vec(12345, 16), vec![0u8; 16]);
        assert_eq!(*s.block(BS as u64), vec![0u8; BS]);
        assert_eq!(s.resident_blocks(), 0);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut s = SparseStore::new(1 << 20, BS);
        let data: Vec<u8> = (0..=255).collect();
        s.write(1000, &data);
        assert_eq!(s.read_vec(1000, 256), data);
    }

    #[test]
    fn crossing_block_boundary() {
        let mut s = SparseStore::new(1 << 20, BS);
        let off = BS as u64 - 100;
        let data: Vec<u8> = (0..200).map(|i| i as u8).collect();
        s.write(off, &data);
        assert_eq!(s.read_vec(off, 200), data);
        assert_eq!(s.resident_blocks(), 2);
    }

    #[test]
    fn partial_overwrite_preserves_rest() {
        let mut s = SparseStore::new(1 << 20, BS);
        s.write(0, &[1u8; 32]);
        s.write(8, &[2u8; 8]);
        let got = s.read_vec(0, 32);
        assert_eq!(&got[0..8], &[1u8; 8]);
        assert_eq!(&got[8..16], &[2u8; 8]);
        assert_eq!(&got[16..32], &[1u8; 16]);
    }

    #[test]
    fn whole_blocks_move_by_reference() {
        let mut s = SparseStore::new(1 << 20, BS);
        let b: Block = Rc::new(vec![7u8; BS]);
        s.put_block(2 * BS as u64, Rc::clone(&b));
        assert!(Rc::ptr_eq(&s.block(2 * BS as u64), &b));
        assert_eq!(s.read_vec(2 * BS as u64 + 5, 3), vec![7u8; 3]);
    }

    #[test]
    fn partial_write_to_a_shared_block_copies_it() {
        let mut s = SparseStore::new(1 << 20, BS);
        s.write(0, &[1u8; BS]);
        let held = s.block(0);
        s.write(10, &[9u8; 4]);
        assert_eq!(*held, vec![1u8; BS], "a holder saw the medium change");
        assert_eq!(s.read_vec(8, 8), vec![1, 1, 9, 9, 9, 9, 1, 1]);
        assert!(!Rc::ptr_eq(&s.block(0), &held));
        // An unshared block is written in place.
        drop(held);
        let before = Rc::as_ptr(&s.block(0));
        s.write(0, &[3u8; 2]);
        assert_eq!(Rc::as_ptr(&s.block(0)), before);
    }

    #[test]
    fn whole_block_write_replaces_a_shared_block() {
        let mut s = SparseStore::new(1 << 20, BS);
        s.write(0, &[1u8; BS]);
        let held = s.block(0);
        s.write(0, &[2u8; BS]);
        assert_eq!(*held, vec![1u8; BS]);
        assert_eq!(*s.block(0), vec![2u8; BS]);
    }

    #[test]
    fn writes_never_touch_the_shared_zero_block() {
        let mut s = SparseStore::new(1 << 20, BS);
        let zero = s.block(0);
        s.write(0, &[5u8; 4]);
        assert_eq!(*zero, vec![0u8; BS]);
        assert_eq!(*s.block(BS as u64), vec![0u8; BS]);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_block_access_panics() {
        SparseStore::new(1 << 20, BS).block(512);
    }

    #[test]
    #[should_panic(expected = "partial block")]
    fn short_block_install_panics() {
        SparseStore::new(1 << 20, BS).put_block(0, Rc::new(vec![0u8; 512]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_past_end_panics() {
        let s = SparseStore::new(64, BS);
        let mut buf = [0u8; 16];
        s.read(60, &mut buf);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn write_past_end_panics() {
        let mut s = SparseStore::new(64, BS);
        s.write(63, &[0, 0]);
    }

    #[test]
    fn boundary_write_at_exact_end_ok() {
        let mut s = SparseStore::new(64, BS);
        s.write(48, &[7u8; 16]);
        assert_eq!(s.read_vec(48, 16), vec![7u8; 16]);
    }

    #[test]
    fn sparse_usage_stays_sparse() {
        let mut s = SparseStore::new(1 << 30, BS); // 1 GB address space
        s.write(1 << 29, b"hello");
        assert_eq!(s.resident_blocks(), 1);
        assert_eq!(s.read_vec(1 << 29, 5), b"hello".to_vec());
    }
}
