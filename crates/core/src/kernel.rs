//! The [`IterativeKernel`] trait — how a problem is presented to the runtime.
//!
//! Following the block formulation of Section 1 of the paper, a problem is a
//! fixed-point iteration `X_{k+1} = G(X_k)` whose unknown vector is split into
//! `m` block-components, one per processor. The runtime only needs to know:
//!
//! * how many blocks there are and how long each one is;
//! * which other blocks each block depends on (the dependency graph) — the
//!   [`DependencyView`] a block is updated from holds one slot per
//!   dependency, so a block it did not declare reads as absent;
//! * how to update one block given the current local values and whatever
//!   versions of the dependency blocks happen to be available — this is the
//!   `G_i` of Algorithm 1, and the fact that the "whatever versions" may be
//!   stale is precisely what makes the iteration asynchronous;
//! * (for the simulated runtime only) how expensive one local update is and
//!   how many bytes a data message carries.
//!
//! Both benchmark problems of the paper implement this trait in
//! `aiac-solvers`, and the test-suite adds several synthetic kernels.

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A block iterate as it travels through the data plane.
///
/// Payloads are immutable and reference-counted: publishing one on a
/// dependency edge, storing it in a [`DependencyView`] or handing it to a
/// consumer clones the `Arc` (a refcount bump), never the `f64` data. The
/// only places a payload's numbers are ever copied are the one-time
/// conversion of the final block values into the assembled solution and the
/// compatibility fallback of [`IterativeKernel::update_block_into`] — both
/// tracked by the `payload_clones` / `bytes_copied` counters of
/// [`crate::report::RunReport`].
pub type Payload = Arc<[f64]>;

/// The most recent block values a processor has received from the blocks it
/// depends on (plus, trivially, its own block).
///
/// A view holds **one slot per tracked block** — the paper's processor keeps
/// only the blocks in its dependency list (Section 1.1). The view a runtime
/// gives a block tracks that block's declared dependencies and the block
/// itself: a sorted id list with a parallel list of payload slots, looked up
/// by binary search, so a block's state costs O(its dependencies) however
/// many blocks the problem has. A view over *all* blocks ([`Self::new`],
/// [`Self::from_initial`]) keeps position == id and needs no id list.
///
/// Reading a block the view does not track gives `None`, exactly as a
/// tracked block without data does; writing one is a bug in the kernel's
/// [`IterativeKernel::dependencies`] declaration and panics. The entries are
/// shared [`Payload`]s: replacing one drops a reference, it does not copy or
/// free the data other processors may still be reading.
#[derive(Debug, Clone)]
pub struct DependencyView {
    /// Sorted ids of the tracked blocks, parallel to `slots`; `None` when the
    /// view tracks every block, where a slot's position is its block id.
    tracked: Option<Box<[usize]>>,
    slots: Vec<Option<Payload>>,
    num_blocks: usize,
}

impl DependencyView {
    /// Creates a view over all `num_blocks` blocks with no data yet.
    pub fn new(num_blocks: usize) -> Self {
        Self {
            tracked: None,
            slots: vec![None; num_blocks],
            num_blocks,
        }
    }

    /// Creates a view over all blocks, pre-filled with every block's initial
    /// values — the state every processor starts from ("only the first
    /// iteration begins at the same time on all the processors").
    pub fn from_initial(kernel: &dyn IterativeKernel) -> Self {
        let mut view = Self::new(kernel.num_blocks());
        for b in 0..kernel.num_blocks() {
            view.set(b, kernel.initial_block(b));
        }
        view
    }

    /// Creates a view of a `num_blocks`-block problem that tracks only the
    /// blocks in `tracked` (sorted, without duplicates), each slot pre-filled
    /// with `initial(block)`.
    pub(crate) fn tracking(
        num_blocks: usize,
        tracked: Vec<usize>,
        initial: impl FnMut(usize) -> Payload,
    ) -> Self {
        debug_assert!(tracked.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
        assert!(
            tracked.last().is_none_or(|&b| b < num_blocks),
            "DependencyView::tracking: block out of range"
        );
        Self {
            slots: tracked.iter().copied().map(initial).map(Some).collect(),
            tracked: Some(tracked.into()),
            num_blocks,
        }
    }

    /// Number of blocks of the problem the view belongs to.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Number of blocks the view holds a slot for.
    pub fn num_tracked(&self) -> usize {
        self.slots.len()
    }

    /// The slot position of block `id`, `None` when the view does not track
    /// it.
    pub(crate) fn position(&self, id: usize) -> Option<usize> {
        match &self.tracked {
            None => (id < self.slots.len()).then_some(id),
            Some(tracked) => tracked.binary_search(&id).ok(),
        }
    }

    /// Like [`Self::position`], for a block that is about to be written.
    ///
    /// # Panics
    /// Panics if the view does not track `id`.
    pub(crate) fn position_for_write(&self, id: usize) -> usize {
        assert!(
            id < self.num_blocks,
            "DependencyView::set: block out of range"
        );
        self.position(id).unwrap_or_else(|| {
            panic!(
                "DependencyView::set: block {id} is not tracked by this view \
                 (is it missing from the kernel's dependencies() declaration?)"
            )
        })
    }

    /// Stores `values` in the slot at `position`.
    pub(crate) fn set_at(&mut self, position: usize, values: Payload) {
        self.slots[position] = Some(values);
    }

    /// Replaces the data of every tracked block `b` by `latest(b)` — one
    /// Jacobi sweep's delivery, without a lookup per block. `latest` hands
    /// over a reference to the producer's front buffer, not a copy.
    pub(crate) fn refresh_from(&mut self, mut latest: impl FnMut(usize) -> Payload) {
        for (position, slot) in self.slots.iter_mut().enumerate() {
            let block = self.tracked.as_ref().map_or(position, |t| t[position]);
            *slot = Some(latest(block));
        }
    }

    /// The shared payload in the slot at `position`, if any.
    pub(crate) fn payload_at(&self, position: usize) -> Option<&Payload> {
        self.slots[position].as_ref()
    }

    /// Stores the latest values of block `id`. Accepts an existing
    /// [`Payload`] (stored by reference, zero copy) or a `Vec<f64>`
    /// (converted into a fresh payload).
    ///
    /// # Panics
    /// Panics if `id` is out of range, or if the view does not track it: a
    /// runtime only delivers a block to the blocks that declared it in
    /// [`IterativeKernel::dependencies`].
    pub fn set(&mut self, id: usize, values: impl Into<Payload>) {
        let position = self.position_for_write(id);
        self.set_at(position, values.into());
    }

    /// The latest values of block `id`, if the view tracks it and any version
    /// has been stored.
    pub fn get(&self, id: usize) -> Option<&[f64]> {
        self.slots[self.position(id)?].as_deref()
    }

    /// The latest values of block `id`.
    ///
    /// # Panics
    /// Panics if no version of that block is available; kernels should only
    /// request blocks they declared as dependencies (which the runtimes always
    /// pre-fill with the initial values).
    pub fn expect(&self, id: usize) -> &[f64] {
        self.get(id)
            .unwrap_or_else(|| panic!("no data available for block {id}"))
    }

    /// True when at least one version of block `id` is available.
    pub fn has(&self, id: usize) -> bool {
        self.get(id).is_some()
    }
}

/// The result of one local block update.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockUpdate {
    /// The new values of the block.
    pub values: Vec<f64>,
    /// The local residual `||X_i^t − X_i^{t−1}||_∞` used by the convergence
    /// detection (Section 1.2).
    pub residual: f64,
}

/// The result of one *in-place* local block update
/// (see [`IterativeKernel::update_block_into`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InPlaceUpdate {
    /// The local residual `||X_i^t − X_i^{t−1}||_∞`.
    pub residual: f64,
    /// True when the kernel fell back to the allocating
    /// [`IterativeKernel::update_block`] path and the new values were deep
    /// copied into the output buffer; false when the kernel wrote them
    /// directly. The runtimes surface this through the `payload_clones`
    /// counter so the zero-copy property is observable (and gateable).
    pub copied: bool,
}

/// A block-decomposed fixed-point problem.
pub trait IterativeKernel: Send + Sync {
    /// Number of block-components `m` (one per processor).
    fn num_blocks(&self) -> usize;

    /// Length (number of scalar unknowns) of block `block`.
    fn block_len(&self, block: usize) -> usize;

    /// Initial values `X_i^0` of block `block`.
    fn initial_block(&self, block: usize) -> Vec<f64>;

    /// The blocks whose data block `block` needs to compute its update
    /// (in-neighbours of `block` in the dependency graph, excluding itself).
    fn dependencies(&self, block: usize) -> Vec<usize>;

    /// Computes `G_i` for block `block`: one local iteration from the current
    /// local values and the latest available dependency data.
    fn update_block(&self, block: usize, local: &[f64], others: &DependencyView) -> BlockUpdate;

    /// Computes `G_i` for block `block` directly into `out` (which the
    /// runtimes hand over as the back buffer of the double-buffered block
    /// state), returning the residual.
    ///
    /// The default implementation calls [`IterativeKernel::update_block`] and
    /// copies the resulting vector — correct for every kernel, but it is a
    /// deep copy on the hot path and is reported as such via
    /// [`InPlaceUpdate::copied`]. Kernels on the benchmark path override this
    /// to write `out` directly (and should keep `update_block` delegating to
    /// it so both entry points stay bit-identical).
    ///
    /// # Panics
    /// Panics if `out.len() != block_len(block)` (the runtimes always size
    /// the buffer correctly).
    fn update_block_into(
        &self,
        block: usize,
        local: &[f64],
        others: &DependencyView,
        out: &mut [f64],
    ) -> InPlaceUpdate {
        let update = self.update_block(block, local, others);
        assert_eq!(
            out.len(),
            update.values.len(),
            "update_block_into: output buffer length mismatch"
        );
        out.copy_from_slice(&update.values);
        InPlaceUpdate {
            residual: update.residual,
            copied: true,
        }
    }

    /// Estimated cost of one local update of `block`, in seconds on the
    /// reference machine. Only the *relative* magnitudes matter; the simulated
    /// runtime multiplies this by the host speed factor. The default assumes
    /// one microsecond per unknown.
    fn iteration_cost(&self, block: usize) -> f64 {
        self.block_len(block) as f64 * 1e-6
    }

    /// Payload size, in bytes, of a data message from block `from` to block
    /// `to`. The default sends the whole block as f64 values, which is what
    /// the paper's implementations do for the values the destination depends
    /// on.
    fn message_bytes(&self, from: usize, to: usize) -> u64 {
        let _ = to;
        (self.block_len(from) * std::mem::size_of::<f64>()) as u64
    }

    /// Distance between two versions of a block, in the same units as the
    /// residual returned by [`IterativeKernel::update_block`].
    ///
    /// The default is the max norm of the difference; kernels whose residual
    /// is scaled (e.g. the chemical problem, which weights its two species by
    /// their 10⁶ / 10¹² magnitudes) must override it consistently, because
    /// the asynchronous runtimes compare this distance against the same ε as
    /// the residual when tracking local convergence.
    fn residual_between(&self, block: usize, a: &[f64], b: &[f64]) -> f64 {
        let _ = block;
        aiac_linalg::norms::max_norm_diff(a, b)
    }

    /// Number of synchronisation points (global collective exchanges) one
    /// iteration of the *synchronous* version of the algorithm requires.
    ///
    /// Most fixed-point kernels need exactly one (the end-of-iteration
    /// exchange plus convergence test). The paper's synchronous baseline for
    /// the non-linear problem, however, applies Newton to the *entire*
    /// system and synchronises inside the parallel linear solver at every
    /// inner iteration; kernels can override this to let the simulated SISC
    /// runtime charge those extra collectives.
    fn sync_collectives_per_iteration(&self) -> usize {
        1
    }

    /// Total problem size (sum of the block lengths).
    fn total_len(&self) -> usize {
        (0..self.num_blocks()).map(|b| self.block_len(b)).sum()
    }

    /// Assembles a full solution vector from per-block values, in block order.
    fn assemble(&self, blocks: &[Vec<f64>]) -> Vec<f64> {
        assert_eq!(
            blocks.len(),
            self.num_blocks(),
            "assemble: block count mismatch"
        );
        let mut out = Vec::with_capacity(self.total_len());
        for (b, values) in blocks.iter().enumerate() {
            assert_eq!(
                values.len(),
                self.block_len(b),
                "assemble: block {b} length mismatch"
            );
            out.extend_from_slice(values);
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod test_kernels {
    //! Small synthetic kernels shared by the runtime tests.

    use super::*;

    /// A linear contraction `x ← a·x_left + b·x_self + c·x_right + d`
    /// distributed over `blocks` scalar blocks arranged in a ring. With
    /// `|a| + |b| + |c| < 1` it converges from any starting point, both
    /// synchronously and asynchronously.
    #[derive(Debug, Clone)]
    pub struct RingContraction {
        pub blocks: usize,
        pub a: f64,
        pub b: f64,
        pub c: f64,
        pub d: f64,
        /// Virtual cost of one local iteration on the reference machine, in
        /// seconds. Kept comparable to (or larger than) wide-area message
        /// latencies so asynchronous runs keep receiving fresh data, as in the
        /// paper's compute-bound workloads.
        pub cost_secs: f64,
        /// Artificial CPU work per real (threaded) iteration, so real-thread
        /// tests also run in a regime where communication keeps up with
        /// computation.
        pub spin: usize,
    }

    impl RingContraction {
        pub fn new(blocks: usize) -> Self {
            Self {
                blocks,
                a: 0.2,
                b: 0.3,
                c: 0.2,
                d: 1.0,
                cost_secs: 0.02,
                spin: 2000,
            }
        }

        /// The exact fixed point: every component equals d / (1 - a - b - c).
        pub fn fixed_point(&self) -> f64 {
            self.d / (1.0 - self.a - self.b - self.c)
        }
    }

    impl IterativeKernel for RingContraction {
        fn num_blocks(&self) -> usize {
            self.blocks
        }

        fn block_len(&self, _block: usize) -> usize {
            1
        }

        fn initial_block(&self, _block: usize) -> Vec<f64> {
            vec![0.0]
        }

        fn dependencies(&self, block: usize) -> Vec<usize> {
            if self.blocks == 1 {
                return Vec::new();
            }
            let left = (block + self.blocks - 1) % self.blocks;
            let right = (block + 1) % self.blocks;
            if left == right {
                vec![left]
            } else {
                vec![left, right]
            }
        }

        fn update_block(
            &self,
            block: usize,
            local: &[f64],
            others: &DependencyView,
        ) -> BlockUpdate {
            let mut values = vec![0.0; local.len()];
            let update = self.update_block_into(block, local, others, &mut values);
            BlockUpdate {
                values,
                residual: update.residual,
            }
        }

        fn update_block_into(
            &self,
            block: usize,
            local: &[f64],
            others: &DependencyView,
            out: &mut [f64],
        ) -> InPlaceUpdate {
            let left = (block + self.blocks - 1) % self.blocks;
            let right = (block + 1) % self.blocks;
            let xl = others.get(left).map_or(0.0, |v| v[0]);
            let xr = others.get(right).map_or(0.0, |v| v[0]);
            // Burn a controlled amount of CPU so real-thread iterations are
            // slower than channel deliveries (keeps the AIAC tests in the
            // compute-bound regime the paper studies).
            let mut noise = 0.0f64;
            for k in 0..self.spin {
                noise += (k as f64 * 1e-3).sin();
            }
            let new = self.a * xl + self.b * local[0] + self.c * xr + self.d + noise * 0.0;
            out[0] = new;
            InPlaceUpdate {
                residual: (new - local[0]).abs(),
                copied: false,
            }
        }

        fn iteration_cost(&self, _block: usize) -> f64 {
            self.cost_secs
        }
    }

    /// A deliberately non-convergent kernel (expansion by a factor 2) used to
    /// exercise the iteration limits.
    #[derive(Debug, Clone)]
    pub struct Diverging {
        pub blocks: usize,
    }

    impl IterativeKernel for Diverging {
        fn num_blocks(&self) -> usize {
            self.blocks
        }

        fn block_len(&self, _block: usize) -> usize {
            1
        }

        fn initial_block(&self, _block: usize) -> Vec<f64> {
            vec![1.0]
        }

        fn dependencies(&self, _block: usize) -> Vec<usize> {
            Vec::new()
        }

        fn update_block(
            &self,
            _block: usize,
            local: &[f64],
            _others: &DependencyView,
        ) -> BlockUpdate {
            let new = local[0] * 2.0;
            BlockUpdate {
                residual: (new - local[0]).abs(),
                values: vec![new],
            }
        }
    }

    /// A ring outside the contraction AIAC theory assumes:
    /// `x_i = a·(x_{i+1} − x_{i−1}) + c_i`, block `i` holding 4 unknowns
    /// coupled component by component. Over 6 blocks the Jacobi matrix has
    /// ρ(M) = a√3 and ρ(|M|) = 2a, so with a = 0.7 even the synchronous
    /// sweep diverges: its iterates overflow to inf and then NaN.
    #[derive(Debug, Clone)]
    pub struct SkewRing {
        pub blocks: usize,
        pub a: f64,
    }

    impl SkewRing {
        const UNKNOWNS: usize = 4;
    }

    impl IterativeKernel for SkewRing {
        fn num_blocks(&self) -> usize {
            self.blocks
        }

        fn block_len(&self, _block: usize) -> usize {
            Self::UNKNOWNS
        }

        fn initial_block(&self, _block: usize) -> Vec<f64> {
            vec![0.0; Self::UNKNOWNS]
        }

        fn dependencies(&self, block: usize) -> Vec<usize> {
            let mut deps = vec![
                (block + self.blocks - 1) % self.blocks,
                (block + 1) % self.blocks,
            ];
            deps.sort_unstable();
            deps.dedup();
            deps
        }

        fn update_block(
            &self,
            block: usize,
            local: &[f64],
            others: &DependencyView,
        ) -> BlockUpdate {
            let mut values = vec![0.0; local.len()];
            let update = self.update_block_into(block, local, others, &mut values);
            BlockUpdate {
                values,
                residual: update.residual,
            }
        }

        fn update_block_into(
            &self,
            block: usize,
            local: &[f64],
            others: &DependencyView,
            out: &mut [f64],
        ) -> InPlaceUpdate {
            let left = others.expect((block + self.blocks - 1) % self.blocks);
            let right = others.expect((block + 1) % self.blocks);
            let mut residual = 0.0f64;
            for j in 0..Self::UNKNOWNS {
                let c = (block + 1) as f64 + 0.5 * j as f64;
                out[j] = self.a * (right[j] - left[j]) + c;
                // The block's own residual keeps a NaN, so only the
                // runtime's fold can lose it.
                residual = aiac_linalg::norms::nan_max(residual, (out[j] - local[j]).abs());
            }
            InPlaceUpdate {
                residual,
                copied: false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_kernels::*;
    use super::*;

    #[test]
    fn dependency_view_stores_and_returns_blocks() {
        let mut view = DependencyView::new(3);
        assert!(!view.has(1));
        view.set(1, vec![1.0, 2.0]);
        assert!(view.has(1));
        assert_eq!(view.expect(1), &[1.0, 2.0]);
        assert_eq!(view.get(0), None);
        assert_eq!(view.num_blocks(), 3);
    }

    #[test]
    #[should_panic(expected = "no data available")]
    fn expect_panics_on_missing_block() {
        DependencyView::new(2).expect(0);
    }

    #[test]
    fn from_initial_prefills_every_block() {
        let kernel = RingContraction::new(4);
        let view = DependencyView::from_initial(&kernel);
        for b in 0..4 {
            assert_eq!(view.expect(b), &[0.0]);
        }
    }

    #[test]
    fn a_view_over_all_blocks_keeps_position_equal_to_id() {
        let view = DependencyView::from_initial(&RingContraction::new(5));
        assert_eq!(view.num_tracked(), 5);
        for b in 0..5 {
            assert_eq!(view.position(b), Some(b));
        }
        assert_eq!(view.position(5), None);
        assert_eq!(view.get(5), None);
    }

    #[test]
    fn a_tracking_view_holds_one_slot_per_tracked_block() {
        let mut view = DependencyView::tracking(100, vec![7, 40, 99], |b| vec![b as f64].into());
        assert_eq!(view.num_blocks(), 100);
        assert_eq!(view.num_tracked(), 3);
        assert_eq!(view.expect(7), &[7.0]);
        assert_eq!(view.expect(40), &[40.0]);
        assert_eq!(view.expect(99), &[99.0]);
        // an untracked block reads like a block without data
        assert_eq!(view.get(8), None);
        assert!(!view.has(0));
        assert_eq!(view.get(100), None);
        view.set(40, vec![1.5]);
        assert_eq!(view.expect(40), &[1.5]);
        assert_eq!(view.expect(7), &[7.0]);
    }

    #[test]
    #[should_panic(
        expected = "block 8 is not tracked by this view (is it missing from the kernel's dependencies() declaration?)"
    )]
    fn set_on_an_untracked_block_panics_naming_the_block() {
        let mut view = DependencyView::tracking(100, vec![7, 40], |_| vec![0.0].into());
        view.set(8, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "block out of range")]
    fn set_past_the_last_block_panics() {
        DependencyView::new(3).set(3, vec![1.0]);
    }

    #[test]
    fn ring_contraction_dependencies_are_neighbours() {
        let kernel = RingContraction::new(5);
        assert_eq!(kernel.dependencies(0), vec![4, 1]);
        assert_eq!(kernel.dependencies(2), vec![1, 3]);
        let two = RingContraction::new(2);
        assert_eq!(two.dependencies(0), vec![1]);
    }

    #[test]
    fn ring_contraction_converges_sequentially_to_fixed_point() {
        let kernel = RingContraction::new(4);
        let mut view = DependencyView::from_initial(&kernel);
        let mut blocks: Vec<Vec<f64>> = (0..4).map(|b| kernel.initial_block(b)).collect();
        for _ in 0..200 {
            for (b, block) in blocks.iter_mut().enumerate() {
                let update = kernel.update_block(b, block, &view);
                *block = update.values.clone();
                view.set(b, update.values);
            }
        }
        let expected = kernel.fixed_point();
        for block in &blocks {
            assert!((block[0] - expected).abs() < 1e-10);
        }
    }

    #[test]
    fn default_cost_and_message_size_scale_with_block_length() {
        let kernel = RingContraction::new(3);
        assert_eq!(kernel.block_len(0), 1);
        assert_eq!(kernel.message_bytes(0, 1), 8);
        assert!(kernel.iteration_cost(0) > 0.0);
        assert_eq!(kernel.total_len(), 3);
    }

    #[test]
    fn assemble_concatenates_blocks_in_order() {
        let kernel = RingContraction::new(3);
        let full = kernel.assemble(&[vec![1.0], vec![2.0], vec![3.0]]);
        assert_eq!(full, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn diverging_kernel_grows_without_bound() {
        let kernel = Diverging { blocks: 1 };
        let view = DependencyView::from_initial(&kernel);
        let mut x = kernel.initial_block(0);
        for _ in 0..10 {
            x = kernel.update_block(0, &x, &view).values;
        }
        assert!(x[0] > 1000.0);
    }
}
