//! Packed bit vectors.
//!
//! PUF responses are 65 536-bit rows and the NIST suite consumes
//! million-bit streams; [`BitVec`] stores them packed (64 bits per word)
//! with the operations the analysis needs: Hamming weight/distance,
//! slicing into blocks, and iteration.

use std::fmt;
use std::ops::Index;

/// A growable, packed vector of bits.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bit vector.
    pub fn new() -> Self {
        BitVec::default()
    }

    /// Creates a bit vector of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a bit vector with reserved capacity.
    pub fn with_capacity(bits: usize) -> Self {
        BitVec {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// Builds from a slice of bools, packing one 64-bit word per chunk
    /// (branch-free, vectorizable) instead of a per-bit [`BitVec::push`].
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut words = Vec::with_capacity(bools.len().div_ceil(64));
        for chunk in bools.chunks(64) {
            let mut w = 0u64;
            for (off, &b) in chunk.iter().enumerate() {
                w |= (b as u64) << off;
            }
            words.push(w);
        }
        BitVec {
            words,
            len: bools.len(),
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        let off = self.len % 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << off;
        }
        self.len += 1;
    }

    /// Appends all bits of another vector.
    pub fn extend_from(&mut self, other: &BitVec) {
        for bit in other.iter() {
            self.push(bit);
        }
    }

    /// Returns the bit at `index`, or `None` past the end.
    pub fn get(&self, index: usize) -> Option<bool> {
        if index >= self.len {
            return None;
        }
        Some((self.words[index / 64] >> (index % 64)) & 1 == 1)
    }

    /// Sets the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn set(&mut self, index: usize, bit: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let mask = 1u64 << (index % 64);
        if bit {
            self.words[index / 64] |= mask;
        } else {
            self.words[index / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of set bits (the *Hamming weight* in PUF terminology).
    ///
    /// Returns 0.0 for an empty vector.
    pub fn hamming_weight(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.count_ones() as f64 / self.len as f64
    }

    /// Number of differing bits between two equal-length vectors.
    ///
    /// # Panics
    ///
    /// Panics when the lengths differ.
    pub fn hamming_distance(&self, other: &BitVec) -> usize {
        assert_eq!(self.len, other.len, "hamming distance needs equal lengths");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Iterates over the bits.
    pub fn iter(&self) -> Iter<'_> {
        Iter { vec: self, pos: 0 }
    }

    /// Copies a bit range into a new vector.
    ///
    /// # Panics
    ///
    /// Panics when the range exceeds the vector.
    pub fn slice(&self, start: usize, len: usize) -> BitVec {
        assert!(start + len <= self.len, "slice out of range");
        let mut words: Vec<u64> = (0..len.div_ceil(64))
            .map(|w| self.word_at(start + 64 * w))
            .collect();
        if let Some(last) = words.last_mut() {
            if !len.is_multiple_of(64) {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        BitVec { words, len }
    }

    /// The 64 bits starting at `start`: bit k of the result is bit
    /// `start + k`, and positions past the end read as zero.
    ///
    /// # Panics
    ///
    /// Panics when `start` is past the end.
    pub(crate) fn word_at(&self, start: usize) -> u64 {
        assert!(
            start < self.len,
            "word start {start} out of range {}",
            self.len
        );
        let (q, r) = (start / 64, start % 64);
        let lo = self.words[q] >> r;
        match self.words.get(q + 1) {
            Some(&hi) if r != 0 => lo | (hi << (64 - r)),
            _ => lo,
        }
    }

    /// Converts to a vector of bools.
    pub fn to_bools(&self) -> Vec<bool> {
        self.iter().collect()
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        for bit in self.iter().take(64) {
            write!(f, "{}", if bit { '1' } else { '0' })?;
        }
        if self.len > 64 {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl Index<usize> for BitVec {
    type Output = bool;

    fn index(&self, index: usize) -> &bool {
        if self.get(index).expect("bit index out of range") {
            &true
        } else {
            &false
        }
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut v = BitVec::new();
        for bit in iter {
            v.push(bit);
        }
        v
    }
}

impl Extend<bool> for BitVec {
    fn extend<T: IntoIterator<Item = bool>>(&mut self, iter: T) {
        for bit in iter {
            self.push(bit);
        }
    }
}

impl From<&[bool]> for BitVec {
    fn from(bools: &[bool]) -> Self {
        BitVec::from_bools(bools)
    }
}

/// Iterator over the bits of a [`BitVec`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    vec: &'a BitVec,
    pos: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        let bit = self.vec.get(self.pos)?;
        self.pos += 1;
        Some(bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.vec.len - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip() {
        let mut v = BitVec::new();
        let pattern: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        for &b in &pattern {
            v.push(b);
        }
        assert_eq!(v.len(), 200);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(v.get(i), Some(b), "bit {i}");
        }
        assert_eq!(v.get(200), None);
    }

    #[test]
    fn set_overwrites() {
        let mut v = BitVec::zeros(100);
        v.set(63, true);
        v.set(64, true);
        assert!(v[63] && v[64] && !v[62]);
        v.set(63, false);
        assert!(!v[63]);
    }

    #[test]
    fn count_ones_and_weight() {
        let v = BitVec::from_bools(&[true, false, true, true]);
        assert_eq!(v.count_ones(), 3);
        assert!((v.hamming_weight() - 0.75).abs() < 1e-12);
        assert_eq!(BitVec::new().hamming_weight(), 0.0);
    }

    #[test]
    fn hamming_distance_counts_diffs() {
        let a = BitVec::from_bools(&[true, false, true, false, true]);
        let b = BitVec::from_bools(&[true, true, true, false, false]);
        assert_eq!(a.hamming_distance(&b), 2);
        assert_eq!(a.hamming_distance(&a), 0);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn hamming_distance_length_mismatch_panics() {
        let a = BitVec::zeros(4);
        let b = BitVec::zeros(5);
        let _ = a.hamming_distance(&b);
    }

    #[test]
    fn slice_extracts_range() {
        let v: BitVec = (0..130).map(|i| i % 2 == 0).collect();
        let s = v.slice(63, 4);
        assert_eq!(s.to_bools(), vec![false, true, false, true]);
    }

    #[test]
    fn slice_matches_per_bit_copy_at_unaligned_ranges() {
        let v: BitVec = (0..700u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61) & 1 == 1)
            .collect();
        for start in [0, 1, 5, 63, 64, 65, 127, 130] {
            for len in [0, 1, 63, 64, 65, 500] {
                let mut want = BitVec::with_capacity(len);
                for i in start..start + len {
                    want.push(v.get(i).unwrap());
                }
                let got = v.slice(start, len);
                // Equality compares words, so it also checks the tail mask.
                assert_eq!(got, want, "start {start}, len {len}");
            }
        }
        let tail = v.slice(650, 50);
        assert_eq!(tail.to_bools(), v.to_bools()[650..].to_vec());
    }

    #[test]
    fn iterator_is_exact_size() {
        let v = BitVec::zeros(10);
        let it = v.iter();
        assert_eq!(it.len(), 10);
        assert_eq!(it.count(), 10);
    }

    #[test]
    fn extend_and_from_iterator() {
        let mut v: BitVec = [true, false].into_iter().collect();
        v.extend([true]);
        assert_eq!(v.to_bools(), vec![true, false, true]);
        let w = BitVec::from_bools(&[false, false]);
        v.extend_from(&w);
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn debug_truncates() {
        let v = BitVec::zeros(100);
        let s = format!("{v:?}");
        assert!(s.contains("BitVec[100;"));
        assert!(s.contains('…'));
    }

    #[test]
    fn zeros_has_correct_length_across_word_boundary() {
        for n in [0, 1, 63, 64, 65, 128, 129] {
            let v = BitVec::zeros(n);
            assert_eq!(v.len(), n);
            assert_eq!(v.count_ones(), 0);
        }
    }
}
