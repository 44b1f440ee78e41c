//! FNV-1a content hashing: the one hasher behind every content key in
//! the workspace (DESIGN.md §2g).
//!
//! [`Fnv128`] runs two FNV-1a64 streams over the same bytes: stream `a`
//! is standard FNV-1a64, stream `b` starts from another offset basis and
//! steps with the prime plus two. As a [`Hasher`] it writes `u32`, `u64`
//! and `u128` little-endian and `usize`/`isize` as 64 bits, so a derived
//! `Hash` digest depends on neither byte order nor pointer width. Persisted
//! values — [`fnv128_bytes`] in zoo manifests, stream `a` in conformance
//! trace sidecars — are pinned by the tests below.

use std::hash::Hasher;

/// The FNV-1a64 prime; stream `b` uses it plus two.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 128-bit FNV-1a accumulator: two 64-bit streams over the same input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv128 {
    a: u64,
    b: u64,
}

impl Fnv128 {
    /// A fresh accumulator.
    #[inline]
    pub fn new() -> Self {
        Fnv128 { a: 0xcbf2_9ce4_8422_2325, b: 0x6c62_272e_07bb_0142 }
    }

    /// One FNV step per stream on a whole word: `a` absorbs `w[0]`, `b`
    /// absorbs `w[1]`.
    #[inline]
    pub fn write_words(&mut self, w: [u64; 2]) {
        self.a = (self.a ^ w[0]).wrapping_mul(PRIME);
        self.b = (self.b ^ w[1]).wrapping_mul(PRIME.wrapping_add(2));
    }

    /// Both streams, `[a, b]`.
    #[inline]
    pub fn finish128(&self) -> [u64; 2] {
        [self.a, self.b]
    }
}

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128::new()
    }
}

impl Hasher for Fnv128 {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &x in bytes {
            self.write_words([x as u64; 2]);
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.write_u64(i as i64 as u64);
    }

    /// Stream `a`: plain FNV-1a64.
    #[inline]
    fn finish(&self) -> u64 {
        self.a
    }
}

/// [`Fnv128`] over raw bytes: zoo weight hashes.
pub fn fnv128_bytes(bytes: &[u8]) -> [u64; 2] {
    let mut h = Fnv128::new();
    h.write(bytes);
    h.finish128()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn fnv64(bytes: &[u8]) -> u64 {
        let mut h = Fnv128::new();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn stream_a_is_standard_fnv1a64() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn persisted_byte_hash_is_pinned() {
        // Zoo manifests store this digest; a change here orphans them.
        assert_eq!(fnv128_bytes(b"foobar"), [0x8594_4171_f739_67e8, 0x8553_083c_9b73_2e31]);
    }

    #[test]
    fn str_hash_is_the_bytes_then_a_0xff_terminator() {
        let mut derived = Fnv128::new();
        "foobar".hash(&mut derived);
        let mut spelled = Fnv128::new();
        spelled.write(b"foobar");
        spelled.write_u8(0xFF);
        assert_eq!(derived, spelled);
    }

    #[test]
    fn word_sized_integers_are_little_endian_u64() {
        let mut u = Fnv128::new();
        u.write_usize(0x0102);
        let mut i = Fnv128::new();
        i.write_isize(-2);
        let mut bytes = Fnv128::new();
        bytes.write(&0x0102u64.to_le_bytes());
        assert_eq!(u, bytes);
        let mut bytes = Fnv128::new();
        bytes.write(&(-2i64).to_le_bytes());
        assert_eq!(i, bytes);
    }
}
