//! Sparse suffix and LCP arrays (paper, Section VI, Step 2).
//!
//! Round `i` of Approximate-Top-K samples the positions `i + r·s` of `S`
//! and builds an index of just those suffixes: the sparse suffix array
//! `SSA_i` (sampled suffixes in lexicographic order) and the sparse LCP
//! array `SLCP_i` (longest common prefixes of adjacent sampled suffixes).
//! Both are driven entirely by an [`LceOracle`]: sorting compares two
//! suffixes with one LCE query plus one letter comparison, and `SLCP` is
//! one LCE query per adjacent pair.
//!
//! The paper sorts with in-place mergesort to avoid extra space; we use
//! `slice::sort_unstable_by` (in-place pattern-defeating quicksort), which
//! has the same no-allocation property and better constants.

use crate::lce::LceOracle;
use usi_strings::HeapSize;

/// A sparse index over a sample of text positions: the sorted sample and
/// the LCPs of adjacent sampled suffixes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseIndex {
    /// Sampled positions in lexicographic suffix order (`SSA_i`).
    pub ssa: Vec<u32>,
    /// `slcp[0] = 0`; `slcp[j]` = LCE of `ssa[j−1]` and `ssa[j]` (`SLCP_i`).
    pub slcp: Vec<u32>,
}

impl SparseIndex {
    /// Number of sampled suffixes.
    #[inline]
    pub fn len(&self) -> usize {
        self.ssa.len()
    }

    /// Whether the sample is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ssa.is_empty()
    }
}

impl HeapSize for SparseIndex {
    fn heap_bytes(&self) -> usize {
        self.ssa.heap_bytes() + self.slcp.heap_bytes()
    }
}

/// Sorts `positions` into suffix order and computes the sparse LCP array,
/// using `oracle` for all string comparisons.
///
/// `O((n/s) log(n/s))` comparisons, each one LCE query.
pub fn sparse_suffix_array(
    text: &[u8],
    mut positions: Vec<u32>,
    oracle: &impl LceOracle,
) -> SparseIndex {
    debug_assert!(positions.iter().all(|&p| (p as usize) < text.len() || text.is_empty()));
    positions.sort_unstable_by(|&a, &b| oracle.compare_suffixes(text, a as usize, b as usize));
    let mut slcp = Vec::with_capacity(positions.len());
    if !positions.is_empty() {
        slcp.push(0);
        for w in positions.windows(2) {
            slcp.push(oracle.lce(w[0] as usize, w[1] as usize) as u32);
        }
    }
    SparseIndex { ssa: positions, slcp }
}

/// The arithmetic sample `{offset + r·step : r ≥ 0} ∩ [0, n)` used by
/// round `offset` of Approximate-Top-K.
pub fn arithmetic_sample(n: usize, offset: usize, step: usize) -> Vec<u32> {
    debug_assert!(step > 0);
    (offset..n).step_by(step).map(|p| p as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lce::{FingerprintLce, NaiveLce};
    use crate::naive::lce_naive;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use usi_strings::Fingerprinter;

    fn check(text: &[u8], positions: Vec<u32>) {
        let naive = NaiveLce::new(text);
        let got = sparse_suffix_array(text, positions.clone(), &naive);
        // expected: direct suffix sort
        let mut want = positions.clone();
        want.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
        assert_eq!(got.ssa, want, "{text:?} {positions:?}");
        for j in 1..got.ssa.len() {
            assert_eq!(
                got.slcp[j] as usize,
                lce_naive(text, got.ssa[j - 1] as usize, got.ssa[j] as usize)
            );
        }
        // both oracles agree
        let fp = FingerprintLce::new(text, Fingerprinter::with_base(99));
        assert_eq!(sparse_suffix_array(text, positions, &fp), got);
    }

    #[test]
    fn full_sample_equals_suffix_array() {
        let text = b"mississippi";
        let all: Vec<u32> = (0..text.len() as u32).collect();
        let idx = sparse_suffix_array(text, all, &NaiveLce::new(text));
        assert_eq!(idx.ssa, crate::sais::suffix_array(text));
        assert_eq!(idx.slcp, crate::lcp::lcp_array(text, &idx.ssa));
    }

    #[test]
    fn arithmetic_samples_partition_text() {
        let n = 17;
        let s = 4;
        let mut all: Vec<u32> = Vec::new();
        for off in 0..s {
            all.extend(arithmetic_sample(n, off, s));
        }
        all.sort_unstable();
        assert_eq!(all, (0..n as u32).collect::<Vec<_>>());
    }

    #[test]
    fn sparse_samples_random() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..20 {
            let n = rng.gen_range(2..120);
            let text: Vec<u8> = (0..n).map(|_| b'a' + rng.gen_range(0..3u8)).collect();
            let step = rng.gen_range(1..6usize);
            let off = rng.gen_range(0..step);
            check(&text, arithmetic_sample(n, off, step));
        }
    }

    #[test]
    fn empty_sample() {
        let idx = sparse_suffix_array(b"abc", vec![], &NaiveLce::new(b"abc"));
        assert!(idx.is_empty());
        assert!(idx.slcp.is_empty());
    }

    #[test]
    fn unary_text_sample() {
        // all suffixes are prefixes of each other: order by decreasing start
        let text = b"aaaaaa";
        check(text, vec![0, 2, 4]);
    }
}
