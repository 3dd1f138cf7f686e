//! Deterministic test-data generation shared by programs and harnesses.

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

/// Verifies that `data` equals the pattern stream `seed` at `offset`,
/// in place. Returns the index of the first mismatch, if any.
pub fn pattern_check(seed: u64, offset: u64, data: &[u8]) -> Option<usize> {
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
    fn bytes_are_not_constant() {
        let d = pattern_bytes(0, 0, 256);
        let first = d[0];
        assert!(d.iter().any(|&b| b != first), "pattern must vary");
    }
}
