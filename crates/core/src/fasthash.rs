//! A multiply-rotate hasher (the `FxHasher` construction) for the maps
//! inside a planning round.
//!
//! Every key hashed there is a dense change id, a build sequence number
//! or a [`crate::BuildKey`] made of them: nothing an outside party
//! chooses, so SipHash's flood resistance buys nothing, and it cost about
//! a quarter of `run_simulation`'s wall time. Results never depend on a
//! map's iteration order (they did not under `RandomState` either, where
//! the order changed from process to process).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x517c_c1b7_2722_0a95;

#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(SEED);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
pub(crate) type FastSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn dense_ids_spread_over_buckets_and_control_bytes() {
        // hashbrown takes the bucket from the low bits and its control
        // byte from the top seven: both must differ between neighbours.
        let low: HashSet<u64> = (0..1024u64).map(|i| hash_of(&i) & 1023).collect();
        assert_eq!(low.len(), 1024);
        let top: HashSet<u64> = (0..1024u64).map(|i| hash_of(&i) >> 57).collect();
        assert_eq!(top.len(), 128);
    }

    #[test]
    fn byte_strings_hash_by_content_and_length() {
        assert_eq!(hash_of(&"abc"), hash_of(&String::from("abc")));
        assert_ne!(hash_of(&"abc"), hash_of(&"abd"));
        assert_ne!(hash_of(&[1u64, 2][..]), hash_of(&[1u64, 2, 0][..]));
    }
}
