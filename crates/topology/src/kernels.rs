//! Sub-word intersection kernels for crossing-mask probes.
//!
//! The phase-1 sweep's exclusion test reduces to "do these two `u64` block
//! slices share a set bit?" ([`LinkBitSet::intersects_words`]
//! [`crate::LinkBitSet::intersects_words`]). PR 3 made that a scalar
//! word-at-a-time AND loop; this module pushes it below word level with
//! two interchangeable kernels selected by [`MaskKernel`]:
//!
//! * [`MaskKernel::Scalar`] — one word per iteration, the PR 3 baseline;
//! * [`MaskKernel::Batched`] — 4×u64 unrolled chunks whose per-chunk
//!   OR-of-ANDs reduction has no cross-iteration dependency, so the
//!   optimizer can keep four lanes in flight (and auto-vectorize) on
//!   stable Rust with no `unsafe`.
//!
//! Both are semantically identical; tests in this module pin
//! scalar ≡ batched on slices straddling every lane boundary.

/// Words per batched lane: one 256-bit vector register holds 4×u64.
const LANE_WORDS: usize = 4;

/// Strategy for the word-AND intersection probe over two `u64` slices.
///
/// The default is the batched kernel, which the recorded `BENCH_eval.json`
/// sweep columns show to be no slower than scalar on every Table II
/// topology (see DESIGN.md §9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaskKernel {
    /// One word at a time (the PR 3 baseline).
    Scalar,
    /// Portable 4×u64 unrolled chunks; auto-vectorizable, no `unsafe`.
    #[default]
    Batched,
}

/// Returns true when `a` and `b` share a set bit within their common
/// prefix, using the selected kernel. Trailing words of the longer slice
/// are ignored, matching
/// [`LinkBitSet::intersects_words`](crate::LinkBitSet::intersects_words).
#[inline]
pub fn intersect_any(kernel: MaskKernel, a: &[u64], b: &[u64]) -> bool {
    match kernel {
        MaskKernel::Scalar => intersect_any_scalar(a, b),
        MaskKernel::Batched => intersect_any_batched(a, b),
    }
}

/// Scalar reference kernel: one word-AND per iteration.
#[inline]
pub fn intersect_any_scalar(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// Portable batched kernel: 4×u64 chunks reduced as an OR of ANDs.
///
/// Each chunk's four ANDs are independent, so the loop carries a single
/// OR-accumulator per chunk instead of a data-dependent early exit per
/// word — the shape LLVM vectorizes to 256-bit operations where available.
/// The sub-chunk tail falls back to the scalar kernel.
#[inline]
pub fn intersect_any_batched(a: &[u64], b: &[u64]) -> bool {
    let n = a.len().min(b.len());
    let (Some(a), Some(b)) = (a.get(..n), b.get(..n)) else {
        return false;
    };
    let mut ca = a.chunks_exact(LANE_WORDS);
    let mut cb = b.chunks_exact(LANE_WORDS);
    for (ax, bx) in ca.by_ref().zip(cb.by_ref()) {
        if let ([a0, a1, a2, a3], [b0, b1, b2, b3]) = (ax, bx) {
            if (a0 & b0) | (a1 & b1) | (a2 & b2) | (a3 & b3) != 0 {
                return true;
            }
        }
    }
    intersect_any_scalar(ca.remainder(), cb.remainder())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kernel, for exhaustive comparison.
    fn all_kernels() -> Vec<MaskKernel> {
        vec![MaskKernel::Scalar, MaskKernel::Batched]
    }

    #[test]
    fn kernels_agree_on_fixed_cases() {
        let cases: &[(&[u64], &[u64])] = &[
            (&[], &[]),
            (&[1], &[]),
            (&[1], &[1]),
            (&[1], &[2]),
            (&[0, 0, 0, 0, 1], &[0, 0, 0, 0, 1]),
            (&[0, 0, 0, 0, 1], &[0, 0, 0, 0, 2]),
            (&[u64::MAX; 7], &[0; 7]),
            (&[0, 0, 0, 1 << 63], &[0, 0, 0, 1 << 63]),
            // Mismatched lengths: the trailing words are ignored.
            (&[0, 0], &[0, 0, u64::MAX]),
            (&[0, 0, u64::MAX], &[0, 0]),
        ];
        for (a, b) in cases {
            let want = intersect_any_scalar(a, b);
            for k in all_kernels() {
                assert_eq!(intersect_any(k, a, b), want, "{k:?} on {a:?} ∩ {b:?}");
            }
        }
    }

    #[test]
    fn default_kernel_is_batched() {
        assert_eq!(MaskKernel::default(), MaskKernel::Batched);
    }

    /// Batched vs scalar on every length straddling the 4-word lane boundary
    /// (satellite requirement: 0, 1, 3, 4, 5 words), with the hit placed at
    /// each word position in turn.
    #[test]
    fn lane_boundary_lengths_match_scalar() {
        for len in [0usize, 1, 3, 4, 5, 7, 8, 9] {
            let zeros = vec![0u64; len];
            for k in all_kernels() {
                assert!(!intersect_any(k, &zeros, &zeros), "{k:?} len {len}");
            }
            for hit in 0..len {
                let mut a = vec![0u64; len];
                let mut b = vec![0u64; len];
                if let (Some(x), Some(y)) = (a.get_mut(hit), b.get_mut(hit)) {
                    *x = 1 << (hit % 64);
                    *y = 1 << (hit % 64);
                }
                for k in all_kernels() {
                    assert!(intersect_any(k, &a, &b), "{k:?} len {len} hit {hit}");
                }
            }
        }
    }
}
