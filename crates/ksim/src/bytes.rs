//! Shared, immutable byte views: the payload type of the syscall
//! boundary and the network stack.
//!
//! A [`Bytes`] is a window (offset and length) onto a reference-counted
//! block, the same `Rc<Vec<u8>>` representation a device medium and the
//! buffer cache share copy-on-write. Handing a program a whole cached
//! block, or a socket a served block, therefore clones a reference, not
//! the bytes: the simulated `copyout`/`copyin` is still charged by the
//! kernel, but costs no host memcpy. Nothing writes through a view, and
//! every writer of a block copies it first while another holder shares
//! it, so a view never changes.
//!
//! ```
//! use ksim::Bytes;
//!
//! let b = Bytes::from(vec![1, 2, 3, 4]);
//! let tail = b.slice(1, 3);
//! assert_eq!(&tail[..], &[2, 3, 4]);
//! assert!(b.whole_block().is_some(), "a wrapped Vec is its own block");
//! assert!(tail.whole_block().is_none());
//! ```

use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

thread_local! {
    /// The block every empty view points at, so an empty payload (an
    /// EOF read, a request datagram) allocates nothing. It outlives every
    /// kernel on purpose: it holds no bytes, so no run can see another's,
    /// and it costs one fixed allocation per thread.
    static EMPTY: Rc<Vec<u8>> = Rc::new(Vec::new());
}

/// An immutable view of `len` bytes at `off` within a shared block.
#[derive(Clone)]
pub struct Bytes {
    block: Rc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty view.
    pub fn new() -> Bytes {
        Bytes {
            block: EMPTY.with(Rc::clone),
            off: 0,
            len: 0,
        }
    }

    /// A view of `len` bytes at `off` within `block`, sharing it.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the block.
    pub fn view(block: Rc<Vec<u8>>, off: usize, len: usize) -> Bytes {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= block.len()),
            "view {off}+{len} past a {}-byte block",
            block.len()
        );
        Bytes { block, off, len }
    }

    /// The sub-view of `len` bytes at `off` within this view, sharing
    /// the same block.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the view.
    pub fn slice(&self, off: usize, len: usize) -> Bytes {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= self.len),
            "slice {off}+{len} past a {}-byte view",
            self.len
        );
        Bytes {
            block: Rc::clone(&self.block),
            off: self.off + off,
            len,
        }
    }

    /// Shortens the view to `len` bytes; no-op if it is already shorter.
    pub fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }

    /// The viewed bytes as an owned vector: moved out without a copy
    /// when this view is the only holder of a whole block, copied
    /// otherwise.
    pub fn into_vec(self) -> Vec<u8> {
        if self.whole_block().is_some() {
            match Rc::try_unwrap(self.block) {
                Ok(v) => v,
                Err(block) => block.to_vec(),
            }
        } else {
            self.to_vec()
        }
    }

    /// The shared block, when the view covers all of it: the case a
    /// whole-block write installs without copying.
    pub fn whole_block(&self) -> Option<&Rc<Vec<u8>>> {
        (self.off == 0 && self.len == self.block.len() && self.len > 0).then_some(&self.block)
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Wraps the vector as a one-block view, without copying it.
    fn from(v: Vec<u8>) -> Bytes {
        if v.is_empty() {
            return Bytes::new();
        }
        let len = v.len();
        Bytes {
            block: Rc::new(v),
            off: 0,
            len,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.block[self.off..self.off + self.len]
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_larger_than_a_vec() {
        assert_eq!(std::mem::size_of::<Bytes>(), std::mem::size_of::<Vec<u8>>());
        assert_eq!(
            std::mem::size_of::<Option<Bytes>>(),
            std::mem::size_of::<Bytes>()
        );
    }

    #[test]
    fn wrapping_a_vec_moves_it() {
        let v = vec![5u8; 64];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr, "From<Vec> copied");
        assert_eq!(b.len(), 64);
    }

    #[test]
    fn into_vec_moves_a_sole_whole_block() {
        let v = vec![3u8; 32];
        let ptr = v.as_ptr();
        let back = Bytes::from(v).into_vec();
        assert_eq!(back.as_ptr(), ptr, "sole holder copied");
        let shared = Bytes::from(vec![4u8; 8]);
        let other = shared.clone();
        assert_eq!(shared.into_vec(), vec![4u8; 8]);
        assert_eq!(other.slice(2, 3).into_vec(), vec![4u8; 3]);
        assert!(Bytes::new().into_vec().is_empty());
    }

    #[test]
    fn views_share_their_block() {
        let block = Rc::new((0..=255).collect::<Vec<u8>>());
        let whole = Bytes::view(Rc::clone(&block), 0, 256);
        let part = Bytes::view(Rc::clone(&block), 10, 4);
        assert_eq!(Rc::strong_count(&block), 3);
        assert_eq!(&part[..], &[10, 11, 12, 13]);
        assert!(Rc::ptr_eq(whole.whole_block().unwrap(), &block));
        assert!(part.whole_block().is_none());
        assert_eq!(part.slice(1, 2), vec![11, 12]);
        assert_eq!(whole.slice(0, 256).whole_block(), Some(&block));
    }

    #[test]
    fn truncate_and_equality_are_by_content() {
        let mut a = Bytes::from(vec![1, 2, 3]);
        a.truncate(2);
        a.truncate(9);
        assert_eq!(a, Bytes::view(Rc::new(vec![0, 1, 2]), 1, 2));
        assert_eq!(a, vec![1, 2]);
        assert_eq!(format!("{a:?}"), "[1, 2]");
        assert!(a.whole_block().is_none(), "a truncated view is partial");
    }

    #[test]
    fn empty_views_share_one_block() {
        let a = Bytes::new();
        let b = Bytes::from(Vec::new());
        assert!(a.is_empty() && b.is_empty());
        assert!(Rc::ptr_eq(&a.block, &b.block));
        assert!(a.whole_block().is_none());
    }

    #[test]
    #[should_panic(expected = "past a 4-byte block")]
    fn view_past_the_block_panics() {
        Bytes::view(Rc::new(vec![0; 4]), 2, 3);
    }
}
