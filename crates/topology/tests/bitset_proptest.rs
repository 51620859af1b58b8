//! Property-based tests pinning [`LinkBitSet`] to a plain `Vec<LinkId>`
//! reference model: word-parallel membership must be observationally
//! identical to the linear scans it replaced.

use proptest::prelude::*;
use rtr_topology::{LinkBitSet, LinkId, MaskKernel};

/// Every mask kernel.
fn all_kernels() -> Vec<MaskKernel> {
    vec![MaskKernel::Scalar, MaskKernel::Batched]
}

/// The reference model: sorted, deduplicated ids (LinkBitSet iterates
/// ascending by construction).
fn model(ids: &[u32]) -> Vec<LinkId> {
    let mut v: Vec<LinkId> = ids.iter().copied().map(LinkId).collect();
    v.sort_unstable();
    v.dedup();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Insert/contains/len/iter agree with the Vec reference on arbitrary
    /// id sequences, including duplicates and out-of-capacity ids.
    #[test]
    fn matches_vec_reference(ids in proptest::collection::vec(0u32..500, 0..80)) {
        let mut set = LinkBitSet::new();
        let mut seen: Vec<LinkId> = Vec::new();
        for &id in &ids {
            let l = LinkId(id);
            let fresh = set.insert(l);
            prop_assert_eq!(fresh, !seen.contains(&l), "insert return for {:?}", l);
            if fresh {
                seen.push(l);
            }
        }
        let reference = model(&ids);
        prop_assert_eq!(set.len(), reference.len());
        prop_assert_eq!(set.is_empty(), reference.is_empty());
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), reference.clone());
        // Membership agrees everywhere, probed past the populated range.
        for id in 0..600u32 {
            prop_assert_eq!(set.contains(LinkId(id)), reference.contains(&LinkId(id)));
        }
    }

    /// Word-parallel intersection agrees with the quadratic reference.
    #[test]
    fn intersects_matches_reference(
        a in proptest::collection::vec(0u32..300, 0..40),
        b in proptest::collection::vec(0u32..300, 0..40),
    ) {
        let sa: LinkBitSet = a.iter().map(|&i| LinkId(i)).collect();
        let sb: LinkBitSet = b.iter().map(|&i| LinkId(i)).collect();
        let expect = model(&a).iter().any(|l| model(&b).contains(l));
        prop_assert_eq!(sa.intersects(&sb), expect);
        prop_assert_eq!(sb.intersects(&sa), expect);
        prop_assert_eq!(sa.intersects_words(sb.words()), expect);
    }

    /// Batched (and, when compiled in, AVX2) mask kernels agree with the
    /// scalar baseline on raw word slices whose lengths straddle the 4-word
    /// lane boundary: 0, 1, 3, 4, 5 words and beyond, independently per
    /// side so mismatched lengths are exercised too.
    #[test]
    fn mask_kernels_match_scalar_on_lane_boundaries(
        a in proptest::collection::vec(0u64..u64::MAX, 0..10),
        b in proptest::collection::vec(0u64..u64::MAX, 0..10),
        sparse_bit in 0usize..320,
    ) {
        let expect = a.iter().zip(&b).any(|(x, y)| x & y != 0);
        let sa: LinkBitSet = a
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| {
                (0..64).filter(move |i| word >> i & 1 == 1).map(move |i| LinkId((w * 64 + i) as u32))
            })
            .collect();
        for k in all_kernels() {
            prop_assert_eq!(
                rtr_topology::kernels::intersect_any(k, &a, &b),
                expect,
                "{:?} on {} x {} words", k, a.len(), b.len()
            );
            prop_assert_eq!(sa.intersects_words_with(k, &b), expect, "{:?} via LinkBitSet", k);
        }

        // Random dense words rarely miss; pin the all-zero-but-one case so
        // the "no intersection until the very last lane" path is covered.
        let mut lone = vec![0u64; sparse_bit / 64 + 1];
        if let Some(w) = lone.get_mut(sparse_bit / 64) {
            *w = 1 << (sparse_bit % 64);
        }
        for k in all_kernels() {
            prop_assert!(rtr_topology::kernels::intersect_any(k, &lone, &lone));
            prop_assert!(!rtr_topology::kernels::intersect_any(k, &lone, &[]));
        }
    }

    /// Union equals the merged reference; pre-sized and grown sets with
    /// the same members are equal (capacity is not observable).
    #[test]
    fn union_and_capacity_semantics(
        a in proptest::collection::vec(0u32..300, 0..40),
        b in proptest::collection::vec(0u32..300, 0..40),
        cap in 0usize..600,
    ) {
        let mut sa: LinkBitSet = a.iter().map(|&i| LinkId(i)).collect();
        let sb: LinkBitSet = b.iter().map(|&i| LinkId(i)).collect();
        sa.union_with(&sb);
        let mut merged = a.clone();
        merged.extend_from_slice(&b);
        prop_assert_eq!(sa.iter().collect::<Vec<_>>(), model(&merged));

        let mut pre = LinkBitSet::with_link_capacity(cap);
        for &i in &merged {
            pre.insert(LinkId(i));
        }
        prop_assert_eq!(&pre, &sa, "equality ignores trailing capacity");

        pre.clear();
        prop_assert!(pre.is_empty());
        prop_assert_eq!(pre.iter().count(), 0);
    }
}
