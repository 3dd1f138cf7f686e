//! Deterministic test-data generation shared by programs and harnesses.

use std::cell::RefCell;

// Byte `o` of stream `seed` is the top byte of `o·K1 + seed·K2`
// (wrapping): a cheap mix with full-byte diffusion, not a PRNG, just a
// position-dependent fingerprint. Since `(o + 1)·K1 = o·K1 + K1` in
// wrapping arithmetic, consecutive bytes advance one 64-bit state by
// `K1`, exactly, for every offset including those that wrap past
// `u64::MAX`.
const K1: u64 = 0x9E37_79B9_7F4A_7C15;
const K2: u64 = 0xD1B5_4A32_D192_ED03;

/// Verification compares this many bytes before testing for a mismatch.
const CHECK_CHUNK: usize = 64;

/// Longest expected slice [`pattern_check`] memoizes; longer checks
/// (whole-file verification chunks) run in place instead.
const MEMO_CAP: usize = 64 * 1024;

/// The last expected slice [`pattern_check`] generated: `bytes` is the
/// stream `seed` from offset `offset`.
#[derive(Default)]
struct Memo {
    seed: u64,
    offset: u64,
    bytes: Vec<u8>,
}

thread_local! {
    /// Outlives every kernel on purpose: its bytes are a pure function of
    /// `(seed, offset)`, so no run can see another's, and callers outside
    /// any kernel share it (perfbench's open-loop client checks each reply
    /// itself, about 20k times per serve repetition). On a 2-core x86-64
    /// host a check in place costs about 2.2 µs per 8 KB against 0.1 µs
    /// for the memo's slice compare, so dropping the memo, or moving it
    /// into the kernel's traffic source, would add roughly 40 ms to a
    /// serve run's 80–130 ms of host time.
    static MEMO: RefCell<Memo> = RefCell::new(Memo::default());
}

fn state(seed: u64, offset: u64) -> u64 {
    offset.wrapping_mul(K1).wrapping_add(seed.wrapping_mul(K2))
}

/// Writes the pattern stream `seed` from absolute offset `offset` into
/// `out`. Any slice of the stream can be regenerated independently,
/// which lets integrity checks verify huge copies without holding both
/// sides in memory.
pub fn pattern_fill(seed: u64, offset: u64, out: &mut [u8]) {
    let mut x = state(seed, offset);
    for b in out {
        *b = (x >> 56) as u8;
        x = x.wrapping_add(K1);
    }
}

/// Produces `len` bytes of the pattern stream `seed` at `offset`
/// (see [`pattern_fill`]).
pub fn pattern_bytes(seed: u64, offset: u64, len: usize) -> Vec<u8> {
    let mut out = vec![0; len];
    pattern_fill(seed, offset, &mut out);
    out
}

/// Verifies that `data` equals the pattern stream `seed` at `offset`.
/// Returns the index of the first mismatch, if any.
///
/// Checks of up to 64 KiB compare against a one-entry, per-thread memo of
/// the last expected slice: servers hand every client the same bytes, so
/// repeated checks are a plain slice compare, and a miss regenerates the
/// memo first. Longer checks run in place.
pub fn pattern_check(seed: u64, offset: u64, data: &[u8]) -> Option<usize> {
    if data.len() > MEMO_CAP {
        return pattern_check_in_place(seed, offset, data);
    }
    MEMO.with(|m| {
        let mut m = m.borrow_mut();
        // Offsets wrap like the stream itself, so a slice that straddles
        // `u64::MAX` still lands inside the memo it was generated into.
        let mut at = offset.wrapping_sub(m.offset);
        let hit = m.seed == seed
            && m.bytes.len() >= data.len()
            && at <= (m.bytes.len() - data.len()) as u64;
        if !hit {
            m.seed = seed;
            m.offset = offset;
            m.bytes.resize(data.len(), 0);
            pattern_fill(seed, offset, &mut m.bytes);
            at = 0;
        }
        let want = &m.bytes[at as usize..at as usize + data.len()];
        if data == want {
            return None;
        }
        data.iter().zip(want).position(|(a, b)| a != b)
    })
}

/// [`pattern_check`] without the memo: regenerates the stream as it goes.
fn pattern_check_in_place(seed: u64, offset: u64, data: &[u8]) -> Option<usize> {
    // Differences are OR-accumulated over a whole chunk, which keeps the
    // loop branch-free; only a chunk that differs is searched for its
    // first mismatching byte.
    let mut x = state(seed, offset);
    for (c, chunk) in data.chunks(CHECK_CHUNK).enumerate() {
        let start = x;
        let mut diff = 0u8;
        for &b in chunk {
            diff |= b ^ (x >> 56) as u8;
            x = x.wrapping_add(K1);
        }
        if diff != 0 {
            let mut x = start;
            let i = chunk.iter().position(|&b| {
                let want = (x >> 56) as u8;
                x = x.wrapping_add(K1);
                b != want
            });
            return i.map(|i| c * CHECK_CHUNK + i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_compose() {
        let whole = pattern_bytes(7, 0, 100);
        let a = pattern_bytes(7, 0, 40);
        let b = pattern_bytes(7, 40, 60);
        assert_eq!(whole[..40], a[..]);
        assert_eq!(whole[40..], b[..]);
    }

    #[test]
    fn seeds_differ() {
        assert_ne!(pattern_bytes(1, 0, 64), pattern_bytes(2, 0, 64));
    }

    #[test]
    fn check_detects_corruption() {
        let mut d = pattern_bytes(3, 100, 32);
        assert_eq!(pattern_check(3, 100, &d), None);
        d[17] ^= 1;
        assert_eq!(pattern_check(3, 100, &d), Some(17));
    }

    #[test]
    fn memoized_checks_match_in_place_checks() {
        let whole = pattern_bytes(9, 4096, 8192);
        assert_eq!(pattern_check(9, 4096, &whole), None);
        // Repeats and sub-ranges of the memoized slice are hits.
        assert_eq!(pattern_check(9, 4096, &whole), None);
        let mut part = whole[1000..3000].to_vec();
        assert_eq!(pattern_check(9, 5096, &part), None);
        part[123] ^= 0x40;
        assert_eq!(pattern_check(9, 5096, &part), Some(123));
        assert_eq!(pattern_check_in_place(9, 5096, &part), Some(123));
        // Another seed at the same offset must not reuse the memo.
        assert_eq!(pattern_check(10, 5096, &whole[1000..3000]), Some(0));
    }

    #[test]
    fn bytes_are_not_constant() {
        let d = pattern_bytes(0, 0, 256);
        let first = d[0];
        assert!(d.iter().any(|&b| b != first), "pattern must vary");
    }
}
