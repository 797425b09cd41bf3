//! Kasai's linear-time LCP array construction.
//!
//! `LCP[0] = 0` and, for `j > 0`, `LCP[j]` is the length of the longest
//! common prefix of the suffixes starting at `SA[j−1]` and `SA[j]`
//! (paper, Section III, \[30\]).

/// Computes the LCP array of `text` given its suffix array, in `O(n)`.
///
/// ```
/// use usi_suffix::{suffix_array, lcp_array};
/// let text = b"banana";
/// let sa = suffix_array(text);
/// assert_eq!(lcp_array(text, &sa), vec![0, 1, 3, 0, 0, 2]);
/// ```
pub fn lcp_array(text: &[u8], sa: &[u32]) -> Vec<u32> {
    let n = text.len();
    assert_eq!(sa.len(), n, "suffix array length must match text length");
    let mut lcp = vec![0u32; n];
    if n == 0 {
        return lcp;
    }
    let rank = inverse(sa);
    let mut h = 0usize;
    for i in 0..n {
        let r = rank[i] as usize;
        if r > 0 {
            let j = sa[r - 1] as usize;
            while i + h < n && j + h < n && text[i + h] == text[j + h] {
                h += 1;
            }
            lcp[r] = h as u32;
            h = h.saturating_sub(1);
        } else {
            h = 0;
        }
    }
    lcp
}

/// [`lcp_array`] chunked over up to `threads` scoped workers, with
/// output identical to the serial pass for every input and thread count.
///
/// Kasai's invariant is per *text position*: `PLCP[i]` (the LCP of
/// suffix `i` with its suffix-array predecessor) never drops by more
/// than one from `PLCP[i − 1]`, which the serial algorithm exploits by
/// carrying the matched length `h` from one position to the next. The
/// carry is only a lower-bound hint, so each worker can restart it at
/// zero on its own text block and still compute the exact values; the
/// only cost is one un-amortised re-scan per block boundary. Per-block
/// `PLCP` slices are disjoint (`chunks_mut`), and a final `O(n)` pass
/// permutes `PLCP` into SA order.
pub fn lcp_array_threads(text: &[u8], sa: &[u32], threads: usize) -> Vec<u32> {
    /// Below this length the pass is microseconds; spawning loses.
    const PARALLEL_MIN_LEN: usize = 1 << 14;
    let n = text.len();
    assert_eq!(sa.len(), n, "suffix array length must match text length");
    if threads <= 1 || n < PARALLEL_MIN_LEN {
        return lcp_array(text, sa);
    }
    let threads = threads.min(n);
    let rank = inverse(sa);
    let mut plcp = vec![0u32; n];
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for (ci, slice) in plcp.chunks_mut(chunk).enumerate() {
            let rank = &rank;
            scope.spawn(move || {
                let lo = ci * chunk;
                let mut h = 0usize;
                for (off, out) in slice.iter_mut().enumerate() {
                    let i = lo + off;
                    let r = rank[i] as usize;
                    if r == 0 {
                        h = 0;
                        *out = 0;
                        continue;
                    }
                    let j = sa[r - 1] as usize;
                    while i + h < n && j + h < n && text[i + h] == text[j + h] {
                        h += 1;
                    }
                    *out = h as u32;
                    h = h.saturating_sub(1);
                }
            });
        }
    });
    let mut lcp = vec![0u32; n];
    for (i, &v) in plcp.iter().enumerate() {
        lcp[rank[i] as usize] = v;
    }
    lcp
}

/// The inverse suffix array: `rank[sa[r]] = r`.
fn inverse(sa: &[u32]) -> Vec<u32> {
    let mut rank = vec![0u32; sa.len()];
    for (r, &p) in sa.iter().enumerate() {
        rank[p as usize] = r as u32;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{lcp_array_naive, suffix_array_naive};
    use crate::sais::suffix_array;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check(text: &[u8]) {
        let sa = suffix_array(text);
        assert_eq!(lcp_array(text, &sa), lcp_array_naive(text, &sa), "text {text:?}");
    }

    #[test]
    fn fixtures() {
        check(b"");
        check(b"a");
        check(b"aaaa");
        check(b"banana");
        check(b"mississippi");
        check(&b"ab".repeat(20));
    }

    #[test]
    fn random_texts() {
        let mut rng = StdRng::seed_from_u64(99);
        for sigma in [2usize, 4, 26] {
            for len in [5usize, 64, 500] {
                let text: Vec<u8> =
                    (0..len).map(|_| b'a' + rng.gen_range(0..sigma) as u8).collect();
                check(&text);
            }
        }
    }

    #[test]
    fn threaded_kasai_matches_serial() {
        let mut rng = StdRng::seed_from_u64(101);
        let mut texts: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"a".to_vec(),
            vec![b'a'; 300],
            b"ab".repeat(100),
            b"mississippi".repeat(30),
        ];
        // 20_000 crosses the parallel gate; the rest pin the fallback
        for len in [10usize, 257, 5000, 20_000] {
            texts.push((0..len).map(|_| b'a' + rng.gen_range(0..3u8)).collect());
        }
        // an equal-byte run spanning chunk boundaries at the gate size
        texts.push(vec![b'a'; 20_000]);
        for text in &texts {
            let sa = suffix_array(text);
            let want = lcp_array(text, &sa);
            for threads in [1usize, 2, 3, 8, 64] {
                assert_eq!(lcp_array_threads(text, &sa, threads), want, "threads {threads}");
            }
        }
    }

    #[test]
    fn rank_is_inverse() {
        let text = b"abracadabra";
        let sa = suffix_array_naive(text);
        let rank = inverse(&sa);
        for (r, &p) in sa.iter().enumerate() {
            assert_eq!(rank[p as usize] as usize, r);
        }
    }
}
