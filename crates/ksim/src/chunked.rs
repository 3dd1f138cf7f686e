//! A growable array kept in fixed-size chunks.
//!
//! Tables that hold one entry per waiting process (per-pid slots, the
//! callout slab) grow one element at a time to tens of thousands of
//! entries. A `Vec` doubles its capacity when full, so at 10k elements it
//! can hold 16,384 slots, and the heap per element depends on where the
//! count falls between two powers of two. [`ChunkVec`] allocates `CHUNK`
//! elements at a time instead and never moves an element, so it holds
//! fewer than `CHUNK` unused slots whatever its length, and the heap per
//! element stays flat as the table grows.

use std::ops::{Index, IndexMut};

/// log2 of the elements per chunk.
const CHUNK_BITS: u32 = 8;
/// Elements per chunk.
const CHUNK: usize = 1 << CHUNK_BITS;

/// A growable array stored in chunks of `CHUNK` (256) elements. Indexing
/// is a shift and a mask into a two-level table.
pub struct ChunkVec<T> {
    /// Every chunk but the last is full; each holds at most `CHUNK`.
    chunks: Vec<Vec<T>>,
    len: usize,
}

impl<T> Default for ChunkVec<T> {
    fn default() -> ChunkVec<T> {
        ChunkVec {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T> ChunkVec<T> {
    /// An empty array; it allocates nothing until the first push.
    pub fn new() -> ChunkVec<T> {
        ChunkVec::default()
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `v` at index `len()`.
    pub fn push(&mut self, v: T) {
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        self.chunks.last_mut().expect("a chunk with room").push(v);
        self.len += 1;
    }

    /// The element at `i` mutably, if `i < len()`.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        self.chunks
            .get_mut(i >> CHUNK_BITS)?
            .get_mut(i & (CHUNK - 1))
    }
}

impl<T> Index<usize> for ChunkVec<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.chunks[i >> CHUNK_BITS][i & (CHUNK - 1)]
    }
}

impl<T> IndexMut<usize> for ChunkVec<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.chunks[i >> CHUNK_BITS][i & (CHUNK - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_like_a_vec_across_chunk_edges() {
        let mut c = ChunkVec::new();
        let mut v = Vec::new();
        assert!(c.is_empty() && c.get_mut(0).is_none());
        for i in 0..(3 * CHUNK + 5) {
            c.push(i * 7);
            v.push(i * 7);
        }
        assert_eq!(c.len(), v.len());
        for i in [0, 1, CHUNK - 1, CHUNK, 2 * CHUNK, v.len() - 1] {
            assert_eq!(c[i], v[i]);
            assert_eq!(c.get_mut(i), Some(&mut v[i]));
        }
        assert_eq!(c.get_mut(v.len()), None);
        c[CHUNK] = 1;
        *c.get_mut(2 * CHUNK).unwrap() = 2;
        v[CHUNK] = 1;
        v[2 * CHUNK] = 2;
        assert!((0..v.len()).all(|i| c[i] == v[i]));
    }

    #[test]
    fn reserves_at_most_one_chunk_ahead() {
        let mut c = ChunkVec::new();
        for i in 0..(CHUNK + 1) {
            c.push(i as u8);
        }
        let capacity: usize = c.chunks.iter().map(Vec::capacity).sum();
        assert_eq!(capacity, 2 * CHUNK);
    }
}
