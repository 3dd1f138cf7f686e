//! A fast, deterministic hasher for maps keyed by simulator-assigned ids.
//!
//! Every key hashed here (`Pid`, socket ids, descriptors, tags, buffer
//! ids, addresses, sleep channels) is a value the simulator itself
//! hands out; none comes from outside the program. The default SipHash
//! guards against keys crafted to collide, a threat these maps do not
//! face, and costs several times more per lookup on the run loop's hot
//! path. [`IdHasher`] is the Fx multiply-rotate hash: one rotate, xor
//! and multiply per word. Its fixed seed also fixes iteration order,
//! which no simulated result depends on.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Fx multiply-rotate hasher for simulator-internal ids. Not
/// collision-resistant: never key it by input from outside the program.
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    // Signed and narrow writes default to these through `as` casts or
    // their native-endian bytes.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `HashMap` keyed by a simulator-assigned id.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// `HashSet` of simulator-assigned ids.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(v)
    }

    #[test]
    fn same_inserts_iterate_in_same_order() {
        let build = || {
            let mut m = IdMap::default();
            for k in (0u64..5_000).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
                m.insert(k, k / 3);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn dense_integer_keys_hash_distinct() {
        const N: u32 = 1_000_000;
        let mut seen: Vec<u64> = (0..N).map(hash_of::<u32>).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), N as usize, "u32 collisions");
        let mut seen: Vec<u64> = (0..u64::from(N)).map(hash_of::<u64>).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), N as usize, "u64 collisions");
    }

    #[test]
    fn derived_hash_key_round_trips() {
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        enum Space {
            Proc,
            Sock,
        }
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        struct Key(Space, u64);

        let mut m: IdMap<Key, u64> = IdMap::default();
        for i in 0..1_000 {
            m.insert(Key(Space::Proc, i), i);
            m.insert(Key(Space::Sock, i), i + 1);
        }
        assert_eq!(m.len(), 2_000);
        assert_eq!(m.get(&Key(Space::Proc, 7)), Some(&7));
        assert_eq!(m.get(&Key(Space::Sock, 7)), Some(&8));
        assert_eq!(m.remove(&Key(Space::Sock, 7)), Some(8));
        assert_eq!(m.get(&Key(Space::Sock, 7)), None);
        assert_eq!(m.get(&Key(Space::Proc, 7)), Some(&7));
        assert_eq!(m.len(), 1_999);
    }
}
