//! Buffer data areas: aliased data pointers over copy-on-write blocks.
//!
//! The key trick of the paper's write side (§5.2.2): "The data pointer in
//! the new buffer header is saved and altered to point to the same address
//! the data pointer in the read-side buffer does, so both buffers share a
//! common data area. We thus avoid copying between cache buffers."
//!
//! # Aliasing and copy-on-write
//!
//! [`BufData`] models that data pointer in two layers.
//!
//! * **Aliasing (outer).** A `BufData` is a cheaply clonable handle to one
//!   data area. Clones are the *same* area: a write through one is seen
//!   through all. This is the paper's shared data pointer — a splice write
//!   header clones the read-side buffer's handle — and it is what
//!   [`BufData::shares_with`] and [`BufData::sharers`] report, which lets
//!   tests assert that a splice moved data without a cache-to-cache copy
//!   while a read/write copy did not.
//! * **Copy-on-write (inner).** An area's bytes are a reference-counted
//!   block that other holders of the same bytes share: a disk medium's
//!   block or an in-flight device transfer. A device read installs the
//!   medium's block ([`BufData::install`]) and a device write hands the
//!   medium a [`BufData::snapshot`], so the simulated driver `bcopy` costs
//!   no host memcpy (the caller charges its simulated cost). The user
//!   boundary works the same way: a read hands the program a
//!   [`BufData::view`] of the block, and a write of a whole block's view
//!   installs it ([`BufData::write_bytes`]), so a modelled `copyout` or
//!   `copyin` of a whole block moves no host bytes either. Writing
//!   through [`BufData::bytes_mut`] copies the block only while another
//!   holder still shares it, so a medium never changes before the area is
//!   written back and a snapshot never changes at all. Writes that cover
//!   the whole area ([`BufData::fill_from`], [`BufData::write_at`]) and
//!   [`BufData::zero`] replace a shared block instead of copying it first.
//!
//! # Fresh areas
//!
//! A fresh area starts over a zero block its creator owns
//! ([`BufData::over`]); the buffer cache keeps one of its buffer size.
//! Starting a buffer writes no bytes and allocates only the area's
//! handle: the first write through the area copies the block, as for any
//! shared block, so the zero block itself never changes. The property suite in
//! `tests/props.rs` checks this against a model that copies everything.

use std::cell::{Ref, RefCell, RefMut};
use std::rc::Rc;

use ksim::Bytes;

/// A buffer's data pointer: an aliased handle to a copy-on-write block.
#[derive(Clone)]
pub struct BufData(Rc<RefCell<Rc<Vec<u8>>>>);

impl BufData {
    /// A new area whose contents are `block`, shared copy-on-write: the
    /// first write through the area copies it, so `block` never changes.
    pub fn over(block: Rc<Vec<u8>>) -> Self {
        BufData(Rc::new(RefCell::new(block)))
    }

    /// Wraps existing bytes.
    pub fn from_vec(v: Vec<u8>) -> Self {
        BufData::over(Rc::new(v))
    }

    /// Length of the data area.
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// True when the data area is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Immutable view of the bytes.
    pub fn bytes(&self) -> Ref<'_, Vec<u8>> {
        Ref::map(self.0.borrow(), |block| &**block)
    }

    /// Mutable view of the bytes, copying the block first if a medium or
    /// an in-flight transfer still shares it.
    pub fn bytes_mut(&self) -> RefMut<'_, Vec<u8>> {
        RefMut::map(self.0.borrow_mut(), Rc::make_mut)
    }

    /// Replaces the contents with `src` (a modelled `bcopy` target — the
    /// caller is responsible for charging the copy cost). A shared block
    /// is replaced, not copied and overwritten.
    pub fn fill_from(&self, src: &[u8]) {
        let mut block = self.0.borrow_mut();
        match Rc::get_mut(&mut block) {
            Some(own) => {
                own.clear();
                own.extend_from_slice(src);
            }
            None => *block = Rc::new(src.to_vec()),
        }
    }

    /// Copies `src` into the area at byte `off` (a modelled copyin; the
    /// caller charges it). A write covering the whole area is a
    /// [`BufData::fill_from`].
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the area.
    pub fn write_at(&self, off: usize, src: &[u8]) {
        if off == 0 && src.len() == self.len() {
            self.fill_from(src);
        } else {
            self.bytes_mut()[off..off + src.len()].copy_from_slice(src);
        }
    }

    /// Zero-fills the area; a shared block is swapped for a fresh zero
    /// block rather than copied just to be cleared.
    pub fn zero(&self) {
        let mut block = self.0.borrow_mut();
        let len = block.len();
        match Rc::get_mut(&mut block) {
            Some(own) => own.fill(0),
            None => *block = Rc::new(vec![0; len]),
        }
    }

    /// The area's current block, shared: later writes through the area
    /// copy it first, so the snapshot never changes.
    pub fn snapshot(&self) -> Rc<Vec<u8>> {
        Rc::clone(&self.0.borrow())
    }

    /// Makes `block` the area's contents without copying it (a device
    /// read landing). Every alias of the area sees the new contents.
    pub fn install(&self, block: Rc<Vec<u8>>) {
        *self.0.borrow_mut() = block;
    }

    /// `len` bytes at `off`, as a view of the area's current block (a
    /// modelled copyout; the caller charges it). Like a
    /// [`BufData::snapshot`], the view never changes: later writes
    /// through the area copy the block first.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the area.
    pub fn view(&self, off: usize, len: usize) -> Bytes {
        Bytes::view(self.snapshot(), off, len)
    }

    /// Writes `src` into the area at `off` (a modelled copyin; the
    /// caller charges it). A view of a whole block that covers the whole
    /// area is installed without copying, as a device read is; any other
    /// write copies the bytes.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the area.
    pub fn write_bytes(&self, off: usize, src: &Bytes) {
        match src.whole_block() {
            Some(block) if off == 0 && block.len() == self.len() => self.install(Rc::clone(block)),
            _ => self.write_at(off, src),
        }
    }

    /// True if `self` and `other` are the *same* data area — i.e. the
    /// splice shared-pointer case.
    pub fn shares_with(&self, other: &BufData) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
    }

    /// Number of headers currently sharing this area.
    pub fn sharers(&self) -> usize {
        Rc::strong_count(&self.0)
    }
}

impl std::fmt::Debug for BufData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BufData(len={}, sharers={})", self.len(), self.sharers())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_areas_copy_their_zero_block_on_first_write() {
        let zero = Rc::new(vec![0u8; 16]);
        let a = BufData::over(Rc::clone(&zero));
        let b = BufData::over(Rc::clone(&zero));
        assert!(!a.shares_with(&b), "two fresh areas alias");
        assert!(Rc::ptr_eq(&a.snapshot(), &zero), "a fresh area copied");
        a.bytes_mut()[3] = 7;
        b.zero();
        assert_eq!(a.bytes()[3], 7);
        assert_eq!(*zero, vec![0u8; 16], "a write reached the zero block");
    }

    #[test]
    fn shared_areas_are_not_recycled_while_alive() {
        let zero = Rc::new(vec![0u8; 4096]);
        let a = BufData::over(Rc::clone(&zero));
        let b = a.clone();
        drop(a);
        // `b` still holds the area: a fresh area must not alias it.
        b.bytes_mut()[0] = 7;
        let c = BufData::over(Rc::clone(&zero));
        assert!(!c.shares_with(&b));
        assert_eq!(b.bytes()[0], 7);
    }

    #[test]
    fn sharing_is_aliasing() {
        let a = BufData::from_vec(vec![1, 2, 3]);
        let b = a.clone();
        assert!(a.shares_with(&b));
        b.bytes_mut()[0] = 9;
        assert_eq!(a.bytes()[0], 9, "shared areas alias");
        assert_eq!(a.sharers(), 2);
    }

    #[test]
    fn distinct_areas_do_not_share() {
        let a = BufData::from_vec(vec![1]);
        let b = BufData::from_vec(vec![1]);
        assert!(!a.shares_with(&b));
    }

    #[test]
    fn fill_from_replaces() {
        let d = BufData::from_vec(vec![0; 4]);
        d.fill_from(&[7, 8]);
        assert_eq!(*d.bytes(), vec![7, 8]);
    }

    #[test]
    fn writes_copy_a_shared_block_once() {
        let medium = Rc::new(vec![1u8; 4096]);
        let a = BufData::from_vec(vec![0; 4096]);
        let alias = a.clone();
        a.install(Rc::clone(&medium));
        assert!(Rc::ptr_eq(&a.snapshot(), &medium), "install copied");
        a.bytes_mut()[3] = 9;
        assert_eq!(*medium, vec![1u8; 4096], "a write reached the medium");
        assert_eq!(alias.bytes()[3], 9, "aliases must see the write");
        let own = a.snapshot();
        drop(own);
        let before = Rc::as_ptr(&a.snapshot());
        a.bytes_mut()[4] = 9;
        assert_eq!(Rc::as_ptr(&a.snapshot()), before, "unshared block copied");
    }

    #[test]
    fn whole_area_writes_and_zeroing_replace_a_shared_block() {
        let medium = Rc::new(vec![1u8; 4096]);
        let a = BufData::from_vec(vec![0; 4096]);
        a.install(Rc::clone(&medium));
        a.write_at(0, &[2u8; 4096]);
        assert_eq!(*a.bytes(), vec![2u8; 4096]);
        a.install(Rc::clone(&medium));
        a.write_at(10, &[3u8; 2]);
        assert_eq!(&a.bytes()[9..13], &[1, 3, 3, 1]);
        a.install(Rc::clone(&medium));
        a.zero();
        assert!(a.bytes().iter().all(|&x| x == 0));
        assert_eq!(*medium, vec![1u8; 4096]);
    }

    #[test]
    fn views_are_snapshots_and_whole_blocks_install() {
        let medium = Rc::new(vec![1u8; 4096]);
        let a = BufData::from_vec(vec![0; 4096]);
        a.install(Rc::clone(&medium));
        let whole = a.view(0, 4096);
        let part = a.view(8, 4);
        assert!(
            Rc::ptr_eq(whole.whole_block().unwrap(), &medium),
            "view copied"
        );
        a.write_at(8, &[7u8; 2]);
        assert_eq!(whole, vec![1u8; 4096], "a view saw a later write");
        assert_eq!(part, vec![1u8; 4]);

        let dst = BufData::from_vec(vec![0; 4096]);
        dst.write_bytes(0, &whole);
        assert!(Rc::ptr_eq(&dst.snapshot(), &medium), "whole block copied");
        dst.write_bytes(0, &part);
        assert_eq!(&dst.bytes()[..6], &[1, 1, 1, 1, 1, 1]);
        assert!(
            !Rc::ptr_eq(&dst.snapshot(), &medium),
            "partial write reused"
        );
        assert_eq!(
            *medium,
            vec![1u8; 4096],
            "a partial write reached the source"
        );
    }
}
