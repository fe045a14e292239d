//! One-dimensional block decomposition of an index range over processors.
//!
//! Both test problems of the paper decompose the unknowns "vertically" into
//! contiguous blocks, one per processor (Section 4.3). [`Partition`] encodes
//! such a decomposition and answers the two questions the runtime keeps
//! asking: *which indices do I own?* and *who owns index `j`?*

use serde::{Deserialize, Serialize};

/// A contiguous block decomposition of `0..n` into `p` parts whose sizes
/// differ by at most one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    n: usize,
    /// `offsets[i]..offsets[i+1]` is the range owned by block `i`.
    offsets: Vec<usize>,
}

impl Partition {
    /// Builds a balanced partition of `0..n` into `parts` blocks.
    ///
    /// The first `n % parts` blocks receive one extra element, so block sizes
    /// differ by at most one.
    ///
    /// # Panics
    /// Panics if `parts == 0`.
    pub fn balanced(n: usize, parts: usize) -> Self {
        assert!(parts > 0, "Partition::balanced: parts must be > 0");
        let base = n / parts;
        let extra = n % parts;
        let mut offsets = Vec::with_capacity(parts + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for i in 0..parts {
            acc += base + usize::from(i < extra);
            offsets.push(acc);
        }
        debug_assert_eq!(acc, n);
        Self { n, offsets }
    }

    /// Builds a partition from explicit block sizes.
    ///
    /// # Panics
    /// Panics if `sizes` is empty.
    pub fn from_sizes(sizes: &[usize]) -> Self {
        assert!(!sizes.is_empty(), "Partition::from_sizes: empty sizes");
        let mut offsets = Vec::with_capacity(sizes.len() + 1);
        offsets.push(0);
        let mut acc = 0usize;
        for &s in sizes {
            acc += s;
            offsets.push(acc);
        }
        Self { n: acc, offsets }
    }

    /// Builds a weighted partition of `0..n`: block `i` receives a share of
    /// the indices proportional to `weights[i]`.
    ///
    /// This mirrors the static load balancing one would apply on the paper's
    /// heterogeneous clusters (faster machines get larger strips). Every block
    /// is guaranteed at least one element when `n >= weights.len()`.
    ///
    /// # Panics
    /// Panics if `weights` is empty or if any weight is non-positive.
    pub fn weighted(n: usize, weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "Partition::weighted: empty weights");
        assert!(
            weights.iter().all(|w| *w > 0.0),
            "Partition::weighted: weights must be positive"
        );
        let parts = weights.len();
        let total: f64 = weights.iter().sum();
        let mut sizes: Vec<usize> = weights
            .iter()
            .map(|w| ((w / total) * n as f64).floor() as usize)
            .collect();
        // Guarantee non-empty blocks when possible, then distribute the
        // remainder to the largest-weight blocks.
        if n >= parts {
            for s in sizes.iter_mut() {
                if *s == 0 {
                    *s = 1;
                }
            }
        }
        let mut assigned: usize = sizes.iter().sum();
        // Remove excess introduced by the non-empty guarantee.
        while assigned > n {
            if let Some((idx, _)) = sizes
                .iter()
                .enumerate()
                .filter(|(_, s)| **s > 1)
                .max_by_key(|(_, s)| **s)
            {
                sizes[idx] -= 1;
                assigned -= 1;
            } else {
                break;
            }
        }
        let mut order: Vec<usize> = (0..parts).collect();
        order.sort_by(|&a, &b| weights[b].partial_cmp(&weights[a]).unwrap());
        let mut k = 0;
        while assigned < n {
            sizes[order[k % parts]] += 1;
            assigned += 1;
            k += 1;
        }
        Self::from_sizes(&sizes)
    }

    /// Total number of indices partitioned.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the partition covers an empty index range.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of blocks.
    pub fn parts(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The index range `[start, end)` owned by block `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.parts()`.
    pub fn range(&self, i: usize) -> std::ops::Range<usize> {
        assert!(i < self.parts(), "Partition::range: block out of range");
        self.offsets[i]..self.offsets[i + 1]
    }

    /// Size of block `i`.
    pub fn size(&self, i: usize) -> usize {
        self.range(i).len()
    }

    /// First index owned by block `i`.
    pub fn start(&self, i: usize) -> usize {
        self.range(i).start
    }

    /// The block owning global index `j`.
    ///
    /// # Panics
    /// Panics if `j >= self.len()`.
    pub fn owner(&self, j: usize) -> usize {
        assert!(j < self.n, "Partition::owner: index out of range");
        // offsets is sorted; binary search for the block whose range contains j.
        match self.offsets.binary_search(&j) {
            Ok(pos) => {
                // j is exactly the start of block `pos` unless that block is
                // empty, in which case ownership falls to the next non-empty
                // block starting at the same offset.
                let mut b = pos;
                while b + 1 < self.offsets.len() && self.offsets[b + 1] == j {
                    b += 1;
                }
                b.min(self.parts() - 1)
            }
            Err(pos) => pos - 1,
        }
    }

    /// The owners of ascending indices, found by one forward walk over the
    /// block boundaries: O(indices + blocks), where [`Partition::owner`]
    /// binary-searches each index.
    ///
    /// # Panics
    /// Panics if an index is out of range, or (in debug builds) if the
    /// indices descend.
    pub fn owners_ascending<'a>(
        &'a self,
        indices: impl IntoIterator<Item = usize> + 'a,
    ) -> impl Iterator<Item = usize> + 'a {
        let mut block = 0;
        indices.into_iter().map(move |j| {
            assert!(
                j < self.n,
                "Partition::owners_ascending: index out of range"
            );
            debug_assert!(self.offsets[block] <= j, "indices must ascend");
            while self.offsets[block + 1] <= j {
                block += 1;
            }
            block
        })
    }

    /// Converts a global index into `(owner, local index within the owner)`.
    pub fn to_local(&self, j: usize) -> (usize, usize) {
        let owner = self.owner(j);
        (owner, j - self.offsets[owner])
    }

    /// Converts a block-local index back to the global index space.
    pub fn to_global(&self, block: usize, local: usize) -> usize {
        let r = self.range(block);
        assert!(
            local < r.len(),
            "Partition::to_global: local index out of range"
        );
        r.start + local
    }

    /// Iterator over `(block, range)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> + '_ {
        (0..self.parts()).map(move |i| (i, self.range(i)))
    }

    /// The block sizes as a vector.
    pub fn sizes(&self) -> Vec<usize> {
        (0..self.parts()).map(|i| self.size(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn balanced_partition_covers_range_without_gaps() {
        let p = Partition::balanced(10, 3);
        assert_eq!(p.parts(), 3);
        assert_eq!(p.range(0), 0..4);
        assert_eq!(p.range(1), 4..7);
        assert_eq!(p.range(2), 7..10);
        assert_eq!(p.sizes(), vec![4, 3, 3]);
    }

    #[test]
    fn balanced_partition_with_more_parts_than_elements() {
        let p = Partition::balanced(2, 4);
        assert_eq!(p.sizes(), vec![1, 1, 0, 0]);
        assert_eq!(p.owner(0), 0);
        assert_eq!(p.owner(1), 1);
    }

    #[test]
    fn owner_is_consistent_with_range() {
        let p = Partition::balanced(17, 5);
        for b in 0..p.parts() {
            for j in p.range(b) {
                assert_eq!(p.owner(j), b, "index {j}");
            }
        }
    }

    #[test]
    fn to_local_and_to_global_roundtrip() {
        let p = Partition::balanced(23, 4);
        for j in 0..23 {
            let (b, l) = p.to_local(j);
            assert_eq!(p.to_global(b, l), j);
        }
    }

    #[test]
    fn from_sizes_respects_explicit_sizes() {
        let p = Partition::from_sizes(&[2, 0, 3]);
        assert_eq!(p.len(), 5);
        assert_eq!(p.size(1), 0);
        assert_eq!(p.range(2), 2..5);
    }

    #[test]
    fn weighted_partition_gives_larger_blocks_to_larger_weights() {
        let p = Partition::weighted(100, &[1.0, 2.0, 1.0]);
        assert_eq!(p.len(), 100);
        assert!(p.size(1) > p.size(0));
        assert!(p.size(1) > p.size(2));
    }

    #[test]
    fn weighted_partition_keeps_blocks_non_empty() {
        let p = Partition::weighted(5, &[1.0, 100.0, 1.0, 1.0]);
        assert_eq!(p.len(), 5);
        for i in 0..4 {
            assert!(p.size(i) >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "parts must be > 0")]
    fn balanced_rejects_zero_parts() {
        Partition::balanced(10, 0);
    }

    proptest! {
        #[test]
        fn prop_balanced_covers_and_is_disjoint(n in 0usize..500, parts in 1usize..32) {
            let p = Partition::balanced(n, parts);
            prop_assert_eq!(p.parts(), parts);
            prop_assert_eq!(p.sizes().iter().sum::<usize>(), n);
            // sizes differ by at most one
            let sizes = p.sizes();
            let min = sizes.iter().min().unwrap();
            let max = sizes.iter().max().unwrap();
            prop_assert!(max - min <= 1);
            // ownership is consistent
            for j in 0..n {
                let owner = p.owner(j);
                prop_assert!(p.range(owner).contains(&j));
            }
        }

        /// The forward walk finds the same owners as the binary search, also
        /// across empty blocks.
        #[test]
        fn prop_owners_ascending_matches_owner(
            sizes in proptest::collection::vec(0usize..6, 1..12),
            stride in 1usize..4,
        ) {
            let p = Partition::from_sizes(&sizes);
            let indices: Vec<usize> = (0..p.len()).step_by(stride).collect();
            let walked: Vec<usize> = p.owners_ascending(indices.iter().copied()).collect();
            let searched: Vec<usize> = indices.iter().map(|&j| p.owner(j)).collect();
            prop_assert_eq!(walked, searched);
        }

        #[test]
        fn prop_weighted_covers_everything(n in 1usize..300, k in 1usize..8) {
            let weights: Vec<f64> = (0..k).map(|i| 1.0 + i as f64).collect();
            let p = Partition::weighted(n, &weights);
            prop_assert_eq!(p.len(), n);
            prop_assert_eq!(p.sizes().iter().sum::<usize>(), n);
        }
    }
}
