//! The buffer cache proper: hash lookup, LRU recycling, and the classic
//! BSD entry points plus the paper's splice-specific variants.
//!
//! All operations are synchronous state transitions; anything that needs
//! the outside world (starting device I/O, waking a sleeping process) is
//! returned as an [`Effect`] for the kernel to perform. "Blocking" is
//! expressed as an outcome (`Busy`, `NoBuffers`) that tells the caller to
//! sleep and retry — processes via the scheduler, splice via a callout.

use std::rc::Rc;

use ksim::IdMap;

use crate::data::BufData;
use crate::flags::BufFlags;
use crate::{BufId, DevId, SpliceRef};

/// Direction of a device transfer requested by the cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IoDir {
    /// Device → buffer.
    Read,
    /// Buffer → device.
    Write,
}

/// Side effects the kernel must carry out after a cache operation.
#[derive(Debug, PartialEq, Eq)]
pub enum Effect {
    /// Start a device transfer for `buf` (the buffer is busy for the
    /// duration; call [`Cache::biodone`] when the device completes).
    StartIo {
        /// Buffer involved.
        buf: BufId,
        /// Device to address.
        dev: DevId,
        /// Physical block number (in units of the cache block size).
        blkno: u64,
        /// Transfer length in bytes.
        len: usize,
        /// Direction.
        dir: IoDir,
    },
    /// Wake every context sleeping on `buf` (getblk collisions, biowait).
    Wakeup {
        /// Buffer whose sleepers should run.
        buf: BufId,
    },
    /// The free list went from empty to non-empty: wake contexts sleeping
    /// for *any* buffer.
    BuffersAvailable,
}

/// Result of [`Cache::getblk`].
#[derive(Debug, PartialEq, Eq)]
pub enum GetblkOutcome {
    /// The buffer is checked out to the caller ([`BufFlags::BUSY`] set).
    /// Check [`BufFlags::DONE`] to know whether the contents are valid.
    Held(BufId),
    /// The block exists but is checked out elsewhere; sleep on it and
    /// retry ([`BufFlags::WANTED`] has been set).
    Busy(BufId),
    /// Every buffer is checked out; sleep until [`Effect::BuffersAvailable`].
    NoBuffers,
}

/// Result of [`Cache::bread`] and variants.
#[derive(Debug, PartialEq, Eq)]
pub enum BreadOutcome {
    /// Valid data already cached; buffer checked out to the caller.
    Hit(BufId),
    /// A read was started (see the returned effects); the caller must wait
    /// for completion (`biowait`, or a `B_CALL` handler for splice).
    Miss(BufId),
    /// Block is checked out elsewhere; sleep and retry.
    Busy(BufId),
    /// No buffers available; sleep and retry.
    NoBuffers,
}

/// Cumulative cache counters.
#[derive(Default, Clone, Copy, Debug)]
pub struct CacheStats {
    /// `bread` served from cache.
    pub hits: u64,
    /// `bread` that had to go to the device.
    pub misses: u64,
    /// Delayed-write buffers flushed to reclaim space.
    pub reclaim_flushes: u64,
    /// Read-ahead transfers started.
    pub readaheads: u64,
    /// Valid blocks evicted to recycle their buffer.
    pub evictions: u64,
    /// `biodone` completions routed to a `B_CALL` handler (the splice
    /// engine's asynchronous read/write completion path, §5.2.1).
    pub bcall_completions: u64,
}

struct Buf {
    dev: Option<DevId>,
    blkno: u64,
    bcount: usize,
    flags: BufFlags,
    data: BufData,
    splice: Option<SpliceRef>,
    /// True for the fixed pool buffers that own real cache memory; false
    /// for splice write headers, which share another buffer's data area.
    pool: bool,
    /// Non-pool headers that have been destroyed await reuse.
    dead: bool,
    /// Intrusive LRU free-list links (slab indices; [`LRU_NIL`] = end).
    lru_prev: u32,
    lru_next: u32,
    /// True while this buffer is linked on the free list.
    on_free: bool,
}

/// Sentinel slab index: end of the intrusive LRU free list.
const LRU_NIL: u32 = u32::MAX;

/// One cache occurrence for the kernel's typed trace.
///
/// The cache is a pure state machine with no clock, so it cannot stamp
/// trace records itself; instead it appends to an opt-in event log that
/// the kernel drains (and timestamps) after each dispatched event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheEvent {
    /// `bread` served `(dev, blkno)` from the cache.
    Hit {
        /// Device the block lives on.
        dev: DevId,
        /// Physical block number.
        blkno: u64,
    },
    /// `bread` had to start a device read for `(dev, blkno)`.
    Miss {
        /// Device the block lives on.
        dev: DevId,
        /// Physical block number.
        blkno: u64,
    },
    /// A valid block was evicted to recycle its buffer.
    Evict {
        /// Device the block lived on.
        dev: DevId,
        /// Physical block number.
        blkno: u64,
    },
}

/// The buffer cache. See the crate docs for the overall contract.
pub struct Cache {
    bufs: Vec<Buf>,
    hash: IdMap<(DevId, u64), BufId>,
    /// LRU free list of pool buffers (front = next victim), threaded
    /// through the buffers' intrusive `lru_prev`/`lru_next` links so
    /// removing a specific buffer (getblk hit, flush claim, purge) is
    /// O(1) instead of a positional scan.
    lru_head: u32,
    lru_tail: u32,
    free_len: usize,
    /// Recycled non-pool header slots.
    free_headers: Vec<BufId>,
    /// One buffer's worth of zeros: every fresh data area starts over it
    /// and copies it on first write, so it stays zero and sets the
    /// buffer size.
    zero: Rc<Vec<u8>>,
    /// The empty area every dead splice header points at, so releasing
    /// a header drops its alias without allocating.
    dead_area: BufData,
    pool_size: usize,
    stats: CacheStats,
    /// Opt-in trace event log; empty and untouched unless enabled.
    log: Vec<CacheEvent>,
    logging: bool,
}

impl Cache {
    /// Creates a cache of `nbufs` buffers of `bufsize` bytes each.
    ///
    /// The paper's configuration is a 3.2 MB cache of 8 KB buffers: 400
    /// buffers.
    pub fn new(nbufs: usize, bufsize: usize) -> Self {
        assert!(nbufs > 0 && bufsize > 0);
        let zero = Rc::new(vec![0; bufsize]);
        let mut bufs = Vec::with_capacity(nbufs);
        for i in 0..nbufs {
            bufs.push(Buf {
                dev: None,
                blkno: 0,
                bcount: bufsize,
                flags: BufFlags::empty(),
                data: BufData::over(Rc::clone(&zero)),
                splice: None,
                pool: true,
                dead: false,
                // Boot order doubles as the initial LRU order.
                lru_prev: if i == 0 { LRU_NIL } else { (i - 1) as u32 },
                lru_next: if i + 1 == nbufs {
                    LRU_NIL
                } else {
                    (i + 1) as u32
                },
                on_free: true,
            });
        }
        Cache {
            bufs,
            hash: IdMap::default(),
            lru_head: 0,
            lru_tail: (nbufs - 1) as u32,
            free_len: nbufs,
            free_headers: Vec::new(),
            zero,
            dead_area: BufData::from_vec(Vec::new()),
            pool_size: nbufs,
            stats: CacheStats::default(),
            log: Vec::new(),
            logging: false,
        }
    }

    /// Enables (or disables) the trace event log. While enabled, hits,
    /// misses, and evictions accumulate until [`Cache::take_events`].
    pub fn set_event_log(&mut self, on: bool) {
        self.logging = on;
        if !on {
            self.log.clear();
        }
    }

    /// Drains the accumulated trace events (oldest first).
    pub fn take_events(&mut self) -> Vec<CacheEvent> {
        std::mem::take(&mut self.log)
    }

    /// The configured buffer size in bytes.
    pub fn bufsize(&self) -> usize {
        self.zero.len()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of buffers on the free list.
    pub fn free_count(&self) -> usize {
        self.free_len
    }

    // ----- intrusive LRU free list ----------------------------------------

    /// Links `id` at the front of the free list (next victim).
    fn free_push_front(&mut self, id: BufId) {
        let b = &mut self.bufs[id.0 as usize];
        debug_assert!(!b.on_free, "{id:?} already on free list");
        b.on_free = true;
        b.lru_prev = LRU_NIL;
        b.lru_next = self.lru_head;
        if self.lru_head != LRU_NIL {
            self.bufs[self.lru_head as usize].lru_prev = id.0;
        } else {
            self.lru_tail = id.0;
        }
        self.lru_head = id.0;
        self.free_len += 1;
    }

    /// Links `id` at the back of the free list (survives longest).
    fn free_push_back(&mut self, id: BufId) {
        let b = &mut self.bufs[id.0 as usize];
        debug_assert!(!b.on_free, "{id:?} already on free list");
        b.on_free = true;
        b.lru_next = LRU_NIL;
        b.lru_prev = self.lru_tail;
        if self.lru_tail != LRU_NIL {
            self.bufs[self.lru_tail as usize].lru_next = id.0;
        } else {
            self.lru_head = id.0;
        }
        self.lru_tail = id.0;
        self.free_len += 1;
    }

    /// Unlinks and returns the front of the free list (LRU victim).
    fn free_pop_front(&mut self) -> Option<BufId> {
        if self.lru_head == LRU_NIL {
            return None;
        }
        let id = BufId(self.lru_head);
        self.free_unlink(id, "free list head must be on free list");
        Some(id)
    }

    /// Unlinks a specific buffer from the free list in O(1).
    ///
    /// # Panics
    ///
    /// Panics with `msg` if `id` is not on the free list.
    fn free_unlink(&mut self, id: BufId, msg: &str) {
        let (prev, next) = {
            let b = &mut self.bufs[id.0 as usize];
            assert!(b.on_free, "{msg}");
            b.on_free = false;
            (b.lru_prev, b.lru_next)
        };
        if prev != LRU_NIL {
            self.bufs[prev as usize].lru_next = next;
        } else {
            self.lru_head = next;
        }
        if next != LRU_NIL {
            self.bufs[next as usize].lru_prev = prev;
        } else {
            self.lru_tail = prev;
        }
        self.free_len -= 1;
    }

    /// Number of pool buffers configured at construction.
    pub fn pool_size(&self) -> usize {
        self.pool_size
    }

    /// Number of cached block identities currently resident — the
    /// occupancy gauge the profiler samples (`resident / pool_size`
    /// is the cache fill fraction).
    pub fn resident_count(&self) -> usize {
        self.hash.len()
    }

    /// Number of pool buffers holding delayed-write (dirty) data.
    pub fn dirty_count(&self) -> usize {
        (0..self.pool_size)
            .filter(|&i| self.bufs[i].flags.contains(BufFlags::DELWRI))
            .count()
    }

    fn buf(&self, id: BufId) -> &Buf {
        let b = &self.bufs[id.0 as usize];
        assert!(!b.dead, "access to destroyed buffer {id:?}");
        b
    }

    fn buf_mut(&mut self, id: BufId) -> &mut Buf {
        let b = &mut self.bufs[id.0 as usize];
        assert!(!b.dead, "access to destroyed buffer {id:?}");
        b
    }

    // ----- accessors used by the kernel and tests ------------------------

    /// Current flags of `id`.
    pub fn flags(&self, id: BufId) -> BufFlags {
        self.buf(id).flags
    }

    /// Shared handle to the buffer's data area.
    pub fn data(&self, id: BufId) -> BufData {
        self.buf(id).data.clone()
    }

    /// The `(dev, blkno)` identity, if the buffer has one.
    pub fn identity(&self, id: BufId) -> Option<(DevId, u64)> {
        let b = self.buf(id);
        b.dev.map(|d| (d, b.blkno))
    }

    /// Valid byte count of the buffer.
    pub fn bcount(&self, id: BufId) -> usize {
        self.buf(id).bcount
    }

    /// The splice descriptor/logical-block fields (§5.2.2).
    pub fn splice_ref(&self, id: BufId) -> Option<SpliceRef> {
        self.buf(id).splice
    }

    /// True if the block is present in the cache with valid contents.
    pub fn incore(&self, dev: DevId, blkno: u64) -> bool {
        self.hash
            .get(&(dev, blkno))
            .is_some_and(|&b| !self.buf(b).flags.contains(BufFlags::INVAL))
    }

    // ----- getblk / bread -------------------------------------------------

    /// Checks out the buffer for `(dev, blkno)`, recycling an LRU buffer on
    /// a miss. May emit flush I/O for dirty victims.
    pub fn getblk(
        &mut self,
        dev: DevId,
        blkno: u64,
        len: usize,
        effects: &mut Vec<Effect>,
    ) -> GetblkOutcome {
        assert!(len > 0 && len <= self.bufsize(), "bad block length {len}");
        if let Some(&id) = self.hash.get(&(dev, blkno)) {
            let b = self.buf_mut(id);
            if b.flags.contains(BufFlags::BUSY) {
                b.flags.insert(BufFlags::WANTED);
                return GetblkOutcome::Busy(id);
            }
            b.flags.insert(BufFlags::BUSY);
            if b.bcount != len {
                // Reallocation to a different size invalidates contents.
                b.bcount = len;
                b.flags.remove(BufFlags::DONE);
            }
            // Remove from the free list.
            self.free_unlink(id, "non-busy cached buffer must be on free list");
            return GetblkOutcome::Held(id);
        }

        // Miss: recycle from the LRU free list, flushing dirty victims.
        loop {
            let Some(victim) = self.free_pop_front() else {
                return GetblkOutcome::NoBuffers;
            };
            if self.buf(victim).flags.contains(BufFlags::DELWRI) {
                // Write it back asynchronously and keep looking.
                self.stats.reclaim_flushes += 1;
                let (vdev, vblk, vlen) = {
                    let b = self.buf_mut(victim);
                    b.flags.remove(BufFlags::DELWRI);
                    b.flags.insert(BufFlags::BUSY | BufFlags::ASYNC);
                    (b.dev.expect("dirty buffer has identity"), b.blkno, b.bcount)
                };
                effects.push(Effect::StartIo {
                    buf: victim,
                    dev: vdev,
                    blkno: vblk,
                    len: vlen,
                    dir: IoDir::Write,
                });
                continue;
            }
            // Clean victim: evict and take over.
            let old = {
                let b = self.buf(victim);
                b.dev.map(|d| (d, b.blkno))
            };
            if let Some((edev, eblk)) = old {
                self.hash.remove(&(edev, eblk));
                self.stats.evictions += 1;
                if self.logging {
                    self.log.push(CacheEvent::Evict {
                        dev: edev,
                        blkno: eblk,
                    });
                }
            }
            let b = &mut self.bufs[victim.0 as usize];
            if b.data.sharers() > 1 {
                // The old data area is still aliased by a splice header;
                // give this buffer a private area instead of clobbering it.
                b.data = BufData::over(Rc::clone(&self.zero));
            }
            b.dev = Some(dev);
            b.blkno = blkno;
            b.bcount = len;
            b.flags = BufFlags::BUSY;
            b.splice = None;
            self.hash.insert((dev, blkno), victim);
            return GetblkOutcome::Held(victim);
        }
    }

    /// Reads block `(dev, blkno)`: cache hit checks the buffer out with
    /// valid data; a miss starts the device read (caller must `biowait`).
    pub fn bread(
        &mut self,
        dev: DevId,
        blkno: u64,
        len: usize,
        effects: &mut Vec<Effect>,
    ) -> BreadOutcome {
        match self.getblk(dev, blkno, len, effects) {
            GetblkOutcome::Held(id) => {
                let flags = self.buf(id).flags;
                if flags.contains(BufFlags::DONE) && !flags.contains(BufFlags::INVAL) {
                    self.stats.hits += 1;
                    if self.logging {
                        self.log.push(CacheEvent::Hit { dev, blkno });
                    }
                    BreadOutcome::Hit(id)
                } else {
                    self.stats.misses += 1;
                    if self.logging {
                        self.log.push(CacheEvent::Miss { dev, blkno });
                    }
                    self.buf_mut(id).flags.insert(BufFlags::READ);
                    effects.push(Effect::StartIo {
                        buf: id,
                        dev,
                        blkno,
                        len,
                        dir: IoDir::Read,
                    });
                    BreadOutcome::Miss(id)
                }
            }
            GetblkOutcome::Busy(id) => BreadOutcome::Busy(id),
            GetblkOutcome::NoBuffers => BreadOutcome::NoBuffers,
        }
    }

    /// The paper's modified `bread` (§5.2.1): like [`Cache::bread`] but the
    /// completion hands `sref` to the kernel's read handler instead of
    /// waking a sleeping process — "a call to the new `bread()` will
    /// schedule a read request and return immediately, instead of blocking
    /// in `biowait()`".
    pub fn bread_call(
        &mut self,
        dev: DevId,
        blkno: u64,
        len: usize,
        sref: SpliceRef,
        effects: &mut Vec<Effect>,
    ) -> BreadOutcome {
        let out = self.bread(dev, blkno, len, effects);
        if let BreadOutcome::Miss(id) | BreadOutcome::Hit(id) = out {
            let b = self.buf_mut(id);
            b.splice = Some(sref);
            if matches!(out, BreadOutcome::Miss(_)) {
                b.flags.insert(BufFlags::CALL);
            }
        }
        out
    }

    /// Starts an asynchronous read-ahead of `(dev, blkno)` if it is not
    /// already cached and a buffer is free (the `breada` side path used by
    /// the `read(2)` fast path). Returns the buffer if a transfer started.
    pub fn start_readahead(
        &mut self,
        dev: DevId,
        blkno: u64,
        len: usize,
        effects: &mut Vec<Effect>,
    ) -> Option<BufId> {
        if self.incore(dev, blkno) || self.free_len == 0 {
            return None;
        }
        match self.getblk(dev, blkno, len, effects) {
            GetblkOutcome::Held(id) => {
                if self.buf(id).flags.contains(BufFlags::DONE) {
                    // Raced into validity; just release it.
                    self.brelse(id, effects);
                    return None;
                }
                self.stats.readaheads += 1;
                self.buf_mut(id)
                    .flags
                    .insert(BufFlags::READ | BufFlags::ASYNC);
                effects.push(Effect::StartIo {
                    buf: id,
                    dev,
                    blkno,
                    len,
                    dir: IoDir::Read,
                });
                Some(id)
            }
            _ => None,
        }
    }

    // ----- write paths ----------------------------------------------------

    /// Synchronous write: starts the transfer; the caller must `biowait`
    /// and then release the buffer.
    pub fn bwrite(&mut self, id: BufId, effects: &mut Vec<Effect>) {
        let (dev, blkno, len) = self.write_common(id);
        effects.push(Effect::StartIo {
            buf: id,
            dev,
            blkno,
            len,
            dir: IoDir::Write,
        });
    }

    /// Asynchronous write (`bawrite`): starts the transfer and releases the
    /// buffer automatically at completion.
    pub fn bawrite(&mut self, id: BufId, effects: &mut Vec<Effect>) {
        self.buf_mut(id).flags.insert(BufFlags::ASYNC);
        let (dev, blkno, len) = self.write_common(id);
        effects.push(Effect::StartIo {
            buf: id,
            dev,
            blkno,
            len,
            dir: IoDir::Write,
        });
    }

    /// Asynchronous write whose completion runs the kernel's write handler
    /// for the header's splice ref (the splice write side: `b_iodone`
    /// assigned, then `bawrite`, §5.2.2).
    pub fn bawrite_call(&mut self, id: BufId, effects: &mut Vec<Effect>) {
        self.buf_mut(id).flags.insert(BufFlags::CALL);
        let (dev, blkno, len) = self.write_common(id);
        effects.push(Effect::StartIo {
            buf: id,
            dev,
            blkno,
            len,
            dir: IoDir::Write,
        });
    }

    /// Delayed write (`bdwrite`): mark dirty and release without I/O; the
    /// data goes to the device when the buffer is reclaimed or flushed.
    pub fn bdwrite(&mut self, id: BufId, effects: &mut Vec<Effect>) {
        {
            let b = self.buf_mut(id);
            assert!(b.pool, "cannot delay-write a shared splice header");
            b.flags.insert(BufFlags::DELWRI | BufFlags::DONE);
        }
        self.brelse(id, effects);
    }

    fn write_common(&mut self, id: BufId) -> (DevId, u64, usize) {
        let b = self.buf_mut(id);
        assert!(b.flags.contains(BufFlags::BUSY), "write of unheld buffer");
        b.flags
            .remove(BufFlags::DELWRI | BufFlags::DONE | BufFlags::READ);
        (
            b.dev.expect("write needs a device identity"),
            b.blkno,
            b.bcount,
        )
    }

    // ----- release / completion -------------------------------------------

    /// Releases a held buffer back to the cache (`brelse`).
    pub fn brelse(&mut self, id: BufId, effects: &mut Vec<Effect>) {
        let was_empty = self.free_len == 0;
        let b = &mut self.bufs[id.0 as usize];
        assert!(!b.dead, "double release of {id:?}");
        assert!(b.flags.contains(BufFlags::BUSY), "release of unheld buffer");
        if b.flags.contains(BufFlags::WANTED) {
            effects.push(Effect::Wakeup { buf: id });
        }
        b.flags
            .remove(BufFlags::BUSY | BufFlags::WANTED | BufFlags::ASYNC | BufFlags::CALL);

        if !b.pool {
            // Splice write header: restore of the saved data pointer means
            // the header owns nothing; destroy it.
            let key = b.dev.map(|d| (d, b.blkno));
            b.dead = true;
            b.dev = None;
            b.splice = None;
            b.data = self.dead_area.clone();
            if let Some(key) = key {
                if self.hash.get(&key) == Some(&id) {
                    self.hash.remove(&key);
                }
            }
            self.free_headers.push(id);
            return;
        }

        let invalid = b.flags.contains(BufFlags::INVAL)
            || b.flags.contains(BufFlags::ERROR)
            || !b.flags.contains(BufFlags::DONE);
        if invalid {
            // Useless contents: forget identity, recycle first.
            let key = b.dev.map(|d| (d, b.blkno));
            b.dev = None;
            b.flags = BufFlags::empty();
            b.splice = None;
            if let Some(key) = key {
                if self.hash.get(&key) == Some(&id) {
                    self.hash.remove(&key);
                }
            }
            self.free_push_front(id);
        } else {
            b.splice = None;
            self.free_push_back(id);
        }
        if was_empty && self.free_len > 0 {
            effects.push(Effect::BuffersAvailable);
        }
    }

    /// Marks the buffer's I/O complete (`biodone`). If `B_CALL` was set,
    /// returns the buffer's splice ref — the kernel must run the handler
    /// for that block, and the buffer stays checked out for it. Otherwise
    /// async buffers are released and sleepers woken.
    pub fn biodone(
        &mut self,
        id: BufId,
        error: bool,
        effects: &mut Vec<Effect>,
    ) -> Option<SpliceRef> {
        let call = {
            let b = self.buf_mut(id);
            assert!(b.flags.contains(BufFlags::BUSY), "biodone on idle buffer");
            b.flags.insert(BufFlags::DONE);
            b.flags.remove(BufFlags::READ);
            if error {
                b.flags.insert(BufFlags::ERROR);
            }
            b.flags.contains(BufFlags::CALL)
        };
        if call {
            self.stats.bcall_completions += 1;
            let b = self.buf_mut(id);
            b.flags.remove(BufFlags::CALL);
            return Some(b.splice.expect("B_CALL buffer without splice ref"));
        }
        if self.buf(id).flags.contains(BufFlags::ASYNC) {
            self.brelse(id, effects);
            return None;
        }
        // Synchronous I/O: wake the biowait sleeper(s).
        self.buf_mut(id).flags.remove(BufFlags::WANTED);
        effects.push(Effect::Wakeup { buf: id });
        None
    }

    /// True once the buffer's pending I/O has completed (`biowait` test).
    pub fn io_done(&self, id: BufId) -> bool {
        self.buf(id).flags.contains(BufFlags::DONE)
    }

    // ----- splice write headers -------------------------------------------

    /// The paper's modified `getblk` (§5.2.2): allocates a buffer *header*
    /// for the destination block without allocating data memory; the
    /// header's data pointer aliases `data` (the read-side buffer's area).
    ///
    /// Returns `None` if the destination block is currently checked out
    /// (the splice must retry); any clean cached copy of the destination
    /// block is invalidated so the cache never serves stale data.
    pub fn alloc_shared_header(
        &mut self,
        dev: DevId,
        blkno: u64,
        data: BufData,
        len: usize,
        sref: SpliceRef,
    ) -> Option<BufId> {
        if let Some(&existing) = self.hash.get(&(dev, blkno)) {
            let b = self.buf(existing);
            if b.flags.contains(BufFlags::BUSY) {
                return None;
            }
            // Invalidate the stale cached copy (it is about to be
            // overwritten on disk by the splice).
            self.free_unlink(existing, "non-busy cached buffer must be on free list");
            self.free_push_front(existing);
            let b = &mut self.bufs[existing.0 as usize];
            b.dev = None;
            b.flags = BufFlags::empty();
            self.hash.remove(&(dev, blkno));
        }

        let id = if let Some(id) = self.free_headers.pop() {
            id
        } else {
            self.bufs.push(Buf {
                dev: None,
                blkno: 0,
                bcount: 0,
                flags: BufFlags::empty(),
                data: self.dead_area.clone(),
                splice: None,
                pool: false,
                dead: true,
                lru_prev: LRU_NIL,
                lru_next: LRU_NIL,
                on_free: false,
            });
            BufId((self.bufs.len() - 1) as u32)
        };
        let b = &mut self.bufs[id.0 as usize];
        b.dead = false;
        b.dev = Some(dev);
        b.blkno = blkno;
        b.bcount = len;
        b.flags = BufFlags::BUSY;
        b.data = data;
        b.splice = Some(sref);
        self.hash.insert((dev, blkno), id);
        Some(id)
    }

    // ----- maintenance -----------------------------------------------------

    /// All dirty (delayed-write), not-busy buffers of `dev` — the `fsync` /
    /// `update` work list.
    pub fn dirty_bufs(&self, dev: DevId) -> Vec<BufId> {
        (0..self.pool_size)
            .map(|i| BufId(i as u32))
            .filter(|&id| {
                let b = &self.bufs[id.0 as usize];
                b.dev == Some(dev)
                    && b.flags.contains(BufFlags::DELWRI)
                    && !b.flags.contains(BufFlags::BUSY)
            })
            .collect()
    }

    /// Checks out a specific dirty buffer for flushing (fsync path).
    /// Returns false if it is busy or no longer dirty.
    pub fn claim_for_flush(&mut self, id: BufId) -> bool {
        let b = self.buf_mut(id);
        if b.flags.contains(BufFlags::BUSY) || !b.flags.contains(BufFlags::DELWRI) {
            return false;
        }
        b.flags.insert(BufFlags::BUSY);
        self.free_unlink(id, "non-busy buffer must be on free list");
        true
    }

    /// Drops the cached copies of specific blocks — the truncate/unlink
    /// path: when a file's blocks are freed, their cached contents must
    /// not survive to alias a future owner of the same physical blocks.
    ///
    /// * Clean idle buffers are recycled immediately.
    /// * Dirty buffers are *discarded* — the file's data is being thrown
    ///   away, so writing it back would be wasted (and wrong once the
    ///   block is reallocated).
    /// * Busy buffers (I/O in flight, or held by a splice) are marked
    ///   invalid and lose their identity now; they die when released.
    ///   Any in-flight write lands on a freed block, which is harmless
    ///   unless that block is reallocated and rewritten within the same
    ///   request window — the classic UNIX truncate-during-I/O hazard.
    ///
    /// Returns `(purged, detached_busy)` counts.
    pub fn purge_blocks(
        &mut self,
        dev: DevId,
        blknos: impl Iterator<Item = u64>,
    ) -> (usize, usize) {
        let mut purged = 0;
        let mut detached = 0;
        for blkno in blknos {
            let Some(&id) = self.hash.get(&(dev, blkno)) else {
                continue;
            };
            let b = &mut self.bufs[id.0 as usize];
            if b.flags.contains(BufFlags::BUSY) {
                // Detach: the holder finishes with a buffer that no longer
                // names a live block; release discards it.
                b.flags.insert(BufFlags::INVAL);
                self.hash.remove(&(dev, blkno));
                detached += 1;
                continue;
            }
            b.dev = None;
            b.flags = BufFlags::empty();
            b.splice = None;
            self.hash.remove(&(dev, blkno));
            // Move to the head of the free list for quick reuse.
            self.free_unlink(id, "non-busy buffer must be on free list");
            self.free_push_front(id);
            purged += 1;
        }
        (purged, detached)
    }

    /// Drops every clean cached block (cold-cache reset between
    /// experiments, §6.1's "read cache cold start").
    ///
    /// # Panics
    ///
    /// Panics if any buffer is busy or dirty — sync first.
    pub fn invalidate_all(&mut self) {
        for i in 0..self.pool_size {
            let b = &mut self.bufs[i];
            assert!(
                !b.flags.contains(BufFlags::BUSY),
                "invalidate_all with busy buffer {i}"
            );
            assert!(
                !b.flags.contains(BufFlags::DELWRI),
                "invalidate_all with dirty buffer {i}"
            );
            b.dev = None;
            b.flags = BufFlags::empty();
            b.splice = None;
        }
        self.hash.clear();
    }

    /// Structural invariants; called by tests after every operation
    /// sequence.
    ///
    /// # Panics
    ///
    /// Panics (with a description) on the first violated invariant.
    pub fn check_invariants(&self) {
        // Free list: unique, pool-only, not busy, links intact.
        let mut seen = std::collections::HashSet::new();
        let mut cursor = self.lru_head;
        let mut prev = LRU_NIL;
        while cursor != LRU_NIL {
            let id = BufId(cursor);
            assert!(seen.insert(id), "duplicate {id:?} on free list");
            let b = &self.bufs[id.0 as usize];
            assert!(b.on_free, "linked {id:?} not marked on_free");
            assert_eq!(b.lru_prev, prev, "broken lru_prev link at {id:?}");
            assert!(b.pool, "non-pool {id:?} on free list");
            assert!(!b.dead, "dead {id:?} on free list");
            assert!(
                !b.flags.contains(BufFlags::BUSY),
                "busy {id:?} on free list"
            );
            prev = cursor;
            cursor = b.lru_next;
        }
        assert_eq!(self.lru_tail, prev, "lru_tail does not match list walk");
        assert_eq!(self.free_len, seen.len(), "free_len does not match list");
        // Every live pool buffer is busy xor free.
        for i in 0..self.pool_size {
            let id = BufId(i as u32);
            let b = &self.bufs[i];
            let on_free = seen.contains(&id);
            assert_eq!(b.on_free, on_free, "on_free flag mismatch for {id:?}");
            let busy = b.flags.contains(BufFlags::BUSY);
            assert!(
                on_free != busy,
                "pool {id:?} busy={busy} on_free={on_free} (must be exactly one)"
            );
        }
        // Hash entries point at buffers with matching identity.
        for (&(dev, blkno), &id) in &self.hash {
            let b = &self.bufs[id.0 as usize];
            assert!(!b.dead, "hash points at dead {id:?}");
            assert_eq!(b.dev, Some(dev), "hash dev mismatch for {id:?}");
            assert_eq!(b.blkno, blkno, "hash blkno mismatch for {id:?}");
        }
        // Live non-pool headers are always busy (they exist only while a
        // splice write is in flight).
        for (i, b) in self.bufs.iter().enumerate().skip(self.pool_size) {
            if !b.dead {
                assert!(
                    b.flags.contains(BufFlags::BUSY),
                    "idle live splice header {i}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEV: DevId = DevId(1);
    const BS: usize = 8192;

    fn take_start_io(effects: &[Effect]) -> Vec<(BufId, IoDir, u64)> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::StartIo {
                    buf, dir, blkno, ..
                } => Some((*buf, *dir, *blkno)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn miss_then_hit() {
        let mut c = Cache::new(8, BS);
        let mut fx = Vec::new();
        let out = c.bread(DEV, 5, BS, &mut fx);
        let BreadOutcome::Miss(id) = out else {
            panic!("expected miss")
        };
        assert_eq!(take_start_io(&fx), vec![(id, IoDir::Read, 5)]);
        // Device completes; no handler, sync read → wakeup.
        fx.clear();
        assert_eq!(c.biodone(id, false, &mut fx), None);
        assert!(c.io_done(id));
        c.brelse(id, &mut fx);
        // Second read hits.
        fx.clear();
        let out = c.bread(DEV, 5, BS, &mut fx);
        assert!(matches!(out, BreadOutcome::Hit(_)));
        assert!(take_start_io(&fx).is_empty());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        c.check_invariants();
    }

    #[test]
    fn busy_collision_sets_wanted() {
        let mut c = Cache::new(8, BS);
        let mut fx = Vec::new();
        let BreadOutcome::Miss(id) = c.bread(DEV, 5, BS, &mut fx) else {
            panic!()
        };
        let out = c.bread(DEV, 5, BS, &mut fx);
        assert_eq!(out, BreadOutcome::Busy(id));
        assert!(c.flags(id).contains(BufFlags::WANTED));
        // Completion wakes the sleeper.
        fx.clear();
        c.biodone(id, false, &mut fx);
        assert!(fx.contains(&Effect::Wakeup { buf: id }));
        c.check_invariants();
    }

    #[test]
    fn cache_exhaustion_reports_no_buffers() {
        let mut c = Cache::new(2, BS);
        let mut fx = Vec::new();
        let a = c.bread(DEV, 0, BS, &mut fx);
        let b = c.bread(DEV, 1, BS, &mut fx);
        assert!(matches!(a, BreadOutcome::Miss(_)));
        assert!(matches!(b, BreadOutcome::Miss(_)));
        assert_eq!(c.bread(DEV, 2, BS, &mut fx), BreadOutcome::NoBuffers);
        c.check_invariants();
    }

    #[test]
    fn release_makes_buffers_available() {
        let mut c = Cache::new(1, BS);
        let mut fx = Vec::new();
        let BreadOutcome::Miss(id) = c.bread(DEV, 0, BS, &mut fx) else {
            panic!()
        };
        c.biodone(id, false, &mut fx);
        fx.clear();
        c.brelse(id, &mut fx);
        assert!(fx.contains(&Effect::BuffersAvailable));
        c.check_invariants();
    }

    #[test]
    fn lru_evicts_oldest_clean_block() {
        let mut c = Cache::new(2, BS);
        let mut fx = Vec::new();
        for blk in 0..2u64 {
            let BreadOutcome::Miss(id) = c.bread(DEV, blk, BS, &mut fx) else {
                panic!()
            };
            c.biodone(id, false, &mut fx);
            c.brelse(id, &mut fx);
        }
        // Touch block 0 so block 1 becomes LRU.
        let BreadOutcome::Hit(id) = c.bread(DEV, 0, BS, &mut fx) else {
            panic!()
        };
        c.brelse(id, &mut fx);
        // A new block must evict block 1, keeping 0.
        let BreadOutcome::Miss(id) = c.bread(DEV, 9, BS, &mut fx) else {
            panic!()
        };
        c.biodone(id, false, &mut fx);
        c.brelse(id, &mut fx);
        assert!(c.incore(DEV, 0));
        assert!(!c.incore(DEV, 1));
        c.check_invariants();
    }

    #[test]
    fn dirty_victim_is_flushed_not_lost() {
        let mut c = Cache::new(1, BS);
        let mut fx = Vec::new();
        let BreadOutcome::Miss(id) = c.bread(DEV, 0, BS, &mut fx) else {
            panic!()
        };
        c.biodone(id, false, &mut fx);
        c.data(id).bytes_mut()[0] = 42;
        c.bdwrite(id, &mut fx);
        // Reusing the only buffer forces the flush first.
        fx.clear();
        let out = c.bread(DEV, 7, BS, &mut fx);
        assert_eq!(out, BreadOutcome::NoBuffers, "victim busy flushing");
        let ios = take_start_io(&fx);
        assert_eq!(ios, vec![(id, IoDir::Write, 0)]);
        assert_eq!(c.stats().reclaim_flushes, 1);
        // Flush completes (ASYNC → auto-release), then the retry succeeds.
        fx.clear();
        assert_eq!(c.biodone(id, false, &mut fx), None);
        assert!(fx.contains(&Effect::BuffersAvailable));
        let out = c.bread(DEV, 7, BS, &mut fx);
        assert!(matches!(out, BreadOutcome::Miss(_)));
        c.check_invariants();
    }

    #[test]
    fn bdwrite_keeps_data_valid_in_cache() {
        let mut c = Cache::new(4, BS);
        let mut fx = Vec::new();
        let BreadOutcome::Miss(id) = c.bread(DEV, 3, BS, &mut fx) else {
            panic!()
        };
        c.biodone(id, false, &mut fx);
        c.data(id).bytes_mut()[7] = 9;
        c.bdwrite(id, &mut fx);
        let BreadOutcome::Hit(id2) = c.bread(DEV, 3, BS, &mut fx) else {
            panic!("dirty block must still hit")
        };
        assert_eq!(c.data(id2).bytes()[7], 9);
        c.check_invariants();
    }

    #[test]
    fn bread_call_miss_returns_splice_ref_on_completion() {
        let mut c = Cache::new(4, BS);
        let mut fx = Vec::new();
        let sref = SpliceRef { desc: 1, lblk: 4 };
        let BreadOutcome::Miss(id) = c.bread_call(DEV, 10, BS, sref, &mut fx) else {
            panic!()
        };
        assert_eq!(c.splice_ref(id), Some(sref));
        fx.clear();
        assert_eq!(c.biodone(id, false, &mut fx), Some(sref));
        // Buffer stays busy for the handler.
        assert!(c.flags(id).contains(BufFlags::BUSY));
        assert_eq!(c.stats().bcall_completions, 1);
        c.check_invariants();
    }

    #[test]
    fn bcall_buffer_purged_mid_transfer_keeps_its_splice_ref() {
        let mut c = Cache::new(4, BS);
        let mut fx = Vec::new();
        let sref = SpliceRef { desc: 2, lblk: 7 };
        let BreadOutcome::Miss(id) = c.bread_call(DEV, 3, BS, sref, &mut fx) else {
            panic!()
        };
        // The source file's blocks are freed while the read is in flight.
        assert_eq!(c.purge_blocks(DEV, [3u64].into_iter()), (0, 1));
        // The detached buffer still names its block: the handler runs.
        assert_eq!(c.biodone(id, false, &mut fx), Some(sref));
        assert!(c.flags(id).contains(BufFlags::INVAL));
        c.brelse(id, &mut fx);
        assert!(!c.incore(DEV, 3));
        c.check_invariants();
    }

    #[test]
    fn shared_header_aliases_data_and_dies_on_release() {
        let mut c = Cache::new(4, BS);
        let mut fx = Vec::new();
        let BreadOutcome::Miss(src) = c.bread(DEV, 0, BS, &mut fx) else {
            panic!()
        };
        c.biodone(src, false, &mut fx);
        let data = c.data(src);
        let dst_dev = DevId(2);
        let sref = SpliceRef { desc: 1, lblk: 0 };
        let hdr = c
            .alloc_shared_header(dst_dev, 99, data.clone(), BS, sref)
            .expect("fresh destination block");
        assert!(c.data(hdr).shares_with(&data), "no copy between buffers");
        // Async write with completion handler.
        c.bawrite_call(hdr, &mut fx);
        assert_eq!(c.biodone(hdr, false, &mut fx), Some(sref));
        // Handler frees both.
        c.brelse(hdr, &mut fx);
        c.brelse(src, &mut fx);
        assert!(!c.incore(dst_dev, 99), "splice header must not linger");
        c.check_invariants();
    }

    #[test]
    fn recycled_victim_gets_a_fresh_area_over_the_zero_block() {
        let mut c = Cache::new(2, BS);
        let mut fx = Vec::new();
        let BreadOutcome::Miss(src) = c.bread(DEV, 0, BS, &mut fx) else {
            panic!()
        };
        c.data(src).install(Rc::new(vec![7u8; BS]));
        c.biodone(src, false, &mut fx);
        let sref = SpliceRef { desc: 1, lblk: 0 };
        let hdr = c
            .alloc_shared_header(DevId(2), 99, c.data(src), BS, sref)
            .expect("fresh destination block");
        c.brelse(src, &mut fx);
        // The write header still aliases the victim's old area.
        let GetblkOutcome::Held(id) = c.getblk(DEV, 1, BS, &mut fx) else {
            panic!()
        };
        let GetblkOutcome::Held(victim) = c.getblk(DEV, 2, BS, &mut fx) else {
            panic!()
        };
        assert_eq!(victim, src, "LRU order");
        assert!(!c.data(victim).shares_with(&c.data(hdr)));
        assert!(
            Rc::ptr_eq(&c.data(victim).snapshot(), &c.data(id).snapshot()),
            "a fresh area starts over the cache's zero block"
        );
        c.data(victim).write_at(0, &[1u8; 16]);
        assert_eq!(*c.data(hdr).bytes(), vec![7u8; BS], "header clobbered");
        assert_eq!(*c.data(id).bytes(), vec![0u8; BS], "zero block written");
        c.check_invariants();
    }

    #[test]
    fn shared_header_invalidates_stale_cached_destination() {
        let mut c = Cache::new(4, BS);
        let mut fx = Vec::new();
        // Destination block cached with old contents.
        let BreadOutcome::Miss(old) = c.bread(DEV, 50, BS, &mut fx) else {
            panic!()
        };
        c.biodone(old, false, &mut fx);
        c.brelse(old, &mut fx);
        assert!(c.incore(DEV, 50));
        // Splice claims the destination.
        let data = BufData::from_vec(vec![1u8; BS]);
        let hdr = c
            .alloc_shared_header(DEV, 50, data, BS, SpliceRef { desc: 0, lblk: 0 })
            .unwrap();
        // Old copy is gone; the header owns the identity.
        assert_eq!(c.identity(hdr), Some((DEV, 50)));
        c.check_invariants();
    }

    #[test]
    fn shared_header_defers_when_destination_busy() {
        let mut c = Cache::new(4, BS);
        let mut fx = Vec::new();
        let BreadOutcome::Miss(_) = c.bread(DEV, 50, BS, &mut fx) else {
            panic!()
        };
        // Still busy (no biodone yet).
        let data = BufData::from_vec(vec![1u8; BS]);
        assert!(c
            .alloc_shared_header(DEV, 50, data, BS, SpliceRef { desc: 0, lblk: 0 })
            .is_none());
        c.check_invariants();
    }

    #[test]
    fn readahead_populates_cache_asynchronously() {
        let mut c = Cache::new(4, BS);
        let mut fx = Vec::new();
        let ra = c.start_readahead(DEV, 8, BS, &mut fx).expect("started");
        assert_eq!(take_start_io(&fx), vec![(ra, IoDir::Read, 8)]);
        // Async completion releases it with valid contents.
        fx.clear();
        assert_eq!(c.biodone(ra, false, &mut fx), None);
        assert!(c.incore(DEV, 8));
        let out = c.bread(DEV, 8, BS, &mut fx);
        assert!(matches!(out, BreadOutcome::Hit(_)));
        assert_eq!(c.stats().readaheads, 1);
        c.check_invariants();
    }

    #[test]
    fn readahead_skips_cached_and_exhausted() {
        let mut c = Cache::new(1, BS);
        let mut fx = Vec::new();
        let BreadOutcome::Miss(id) = c.bread(DEV, 0, BS, &mut fx) else {
            panic!()
        };
        // No free buffer: no read-ahead.
        assert!(c.start_readahead(DEV, 1, BS, &mut fx).is_none());
        c.biodone(id, false, &mut fx);
        c.brelse(id, &mut fx);
        // Cached: no read-ahead.
        assert!(c.start_readahead(DEV, 0, BS, &mut fx).is_none());
        c.check_invariants();
    }

    #[test]
    fn error_io_discards_buffer() {
        let mut c = Cache::new(2, BS);
        let mut fx = Vec::new();
        let BreadOutcome::Miss(id) = c.bread(DEV, 0, BS, &mut fx) else {
            panic!()
        };
        c.biodone(id, true, &mut fx);
        c.brelse(id, &mut fx);
        assert!(!c.incore(DEV, 0), "errored block must not be cached");
        c.check_invariants();
    }

    #[test]
    fn fsync_worklist_and_claim() {
        let mut c = Cache::new(4, BS);
        let mut fx = Vec::new();
        for blk in [1u64, 2] {
            let BreadOutcome::Miss(id) = c.bread(DEV, blk, BS, &mut fx) else {
                panic!()
            };
            c.biodone(id, false, &mut fx);
            c.bdwrite(id, &mut fx);
        }
        let dirty = c.dirty_bufs(DEV);
        assert_eq!(dirty.len(), 2);
        assert!(c.claim_for_flush(dirty[0]));
        assert!(!c.claim_for_flush(dirty[0]), "already claimed");
        c.check_invariants();
    }

    #[test]
    fn invalidate_all_resets_clean_cache() {
        let mut c = Cache::new(2, BS);
        let mut fx = Vec::new();
        let BreadOutcome::Miss(id) = c.bread(DEV, 0, BS, &mut fx) else {
            panic!()
        };
        c.biodone(id, false, &mut fx);
        c.brelse(id, &mut fx);
        c.invalidate_all();
        assert!(!c.incore(DEV, 0));
        c.check_invariants();
    }

    #[test]
    #[should_panic(expected = "dirty buffer")]
    fn invalidate_all_rejects_dirty() {
        let mut c = Cache::new(2, BS);
        let mut fx = Vec::new();
        let BreadOutcome::Miss(id) = c.bread(DEV, 0, BS, &mut fx) else {
            panic!()
        };
        c.biodone(id, false, &mut fx);
        c.bdwrite(id, &mut fx);
        c.invalidate_all();
    }

    #[test]
    fn getblk_resize_invalidates_contents() {
        let mut c = Cache::new(2, BS);
        let mut fx = Vec::new();
        let BreadOutcome::Miss(id) = c.bread(DEV, 0, BS, &mut fx) else {
            panic!()
        };
        c.biodone(id, false, &mut fx);
        c.brelse(id, &mut fx);
        let GetblkOutcome::Held(id2) = c.getblk(DEV, 0, 4096, &mut fx) else {
            panic!()
        };
        assert_eq!(id, id2);
        assert!(!c.flags(id2).contains(BufFlags::DONE));
        assert_eq!(c.bcount(id2), 4096);
        c.check_invariants();
    }

    #[test]
    fn purge_blocks_forgets_clean_blocks() {
        let mut c = Cache::new(4, BS);
        let mut fx = Vec::new();
        for blk in [3u64, 4] {
            let BreadOutcome::Miss(id) = c.bread(DEV, blk, BS, &mut fx) else {
                panic!()
            };
            c.biodone(id, false, &mut fx);
            c.brelse(id, &mut fx);
        }
        assert_eq!(c.purge_blocks(DEV, [3u64, 4, 5].into_iter()), (2, 0));
        assert!(!c.incore(DEV, 3));
        assert!(!c.incore(DEV, 4));
        c.check_invariants();
    }

    #[test]
    fn purge_blocks_discards_dirty_data() {
        let mut c = Cache::new(4, BS);
        let mut fx = Vec::new();
        let BreadOutcome::Miss(id) = c.bread(DEV, 3, BS, &mut fx) else {
            panic!()
        };
        c.biodone(id, false, &mut fx);
        c.bdwrite(id, &mut fx);
        // The file is being truncated: the dirty data goes with it, with
        // no write-back.
        assert_eq!(c.purge_blocks(DEV, [3u64].into_iter()), (1, 0));
        assert!(!c.incore(DEV, 3));
        assert!(c.dirty_bufs(DEV).is_empty(), "no zombie delayed write");
        c.check_invariants();
    }

    #[test]
    fn purge_blocks_detaches_busy_buffers() {
        let mut c = Cache::new(4, BS);
        let mut fx = Vec::new();
        // A read in flight when its block is freed.
        let BreadOutcome::Miss(id) = c.bread(DEV, 3, BS, &mut fx) else {
            panic!()
        };
        assert_eq!(c.purge_blocks(DEV, [3u64].into_iter()), (0, 1));
        // Completion + release discard it; nothing lingers in the hash.
        c.biodone(id, false, &mut fx);
        c.brelse(id, &mut fx);
        assert!(!c.incore(DEV, 3));
        c.check_invariants();
    }
}
