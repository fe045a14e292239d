//! Per-processor block state.
//!
//! [`BlockState`] bundles everything one processor tracks while iterating:
//! its own current values, the freshest version of every dependency block it
//! has received so far (with the iteration tag it was produced at, i.e. the
//! `s_j^i(t)` of the asynchronous model in Section 1.2), its iteration
//! counter and its last residual. All three runtimes use it, which keeps
//! their iteration logic symmetrical.
//!
//! The state costs O(the block's dependencies), not O(blocks): the view and
//! the iteration tags hold **one slot per dependency** (plus the block's
//! own), as the paper's processor keeps only its dependency list (Section
//! 1.1). A runtime builds every block's initial values once per run
//! (`BlockState::for_run`) and each view starts as `Arc` clones of them, so
//! a run starts from O(blocks) payloads and O(edges) references.
//!
//! Since the zero-copy data plane, the current values are a shared
//! [`Payload`] (`Arc<[f64]>`) and the state is *double-buffered*: the kernel
//! writes the next iterate into a private back buffer while the front buffer
//! stays readable by anyone still holding a reference (the mailbox, a
//! neighbour's dependency view). When the back buffer is uniquely owned it is
//! reused in place; otherwise a fresh allocation replaces it — either way no
//! payload bytes are copied on the native in-place path.

use crate::depgraph::DependencyGraph;
use crate::kernel::{DependencyView, IterativeKernel, Payload};
use aiac_linalg::norms::max_norm_diff;
use std::sync::Arc;

/// The mutable state of one block (one simulated or real processor).
#[derive(Debug, Clone)]
pub struct BlockState {
    /// Block index.
    pub id: usize,
    /// Current local values `X_i^t` (the front buffer). Shared by reference:
    /// publishing or snapshotting this payload bumps a refcount, never copies.
    pub values: Payload,
    /// Latest received versions of the blocks this one depends on, and of the
    /// block itself: one slot per dependency, not one per block.
    pub view: DependencyView,
    /// Iteration tag of the latest received version in each slot of `view`
    /// (`None` = still the initial values), indexed by view position.
    received_iteration: Vec<Option<u64>>,
    /// Position of the block's own slot in `view`.
    own_position: usize,
    /// Number of local iterations performed.
    pub iteration: u64,
    /// Residual of the last local iteration.
    pub residual: f64,
    /// Number of data messages incorporated so far.
    pub messages_incorporated: u64,
    /// Times a kernel fell back to the copying `update_block` path
    /// (i.e. `update_block_into` reported `copied == true`).
    pub payload_clones: u64,
    /// Payload bytes copied by those fallbacks.
    pub bytes_copied: u64,
    /// Back buffer the next iterate is written into before the front/back
    /// swap. Reused in place whenever it is uniquely owned.
    back: Payload,
    /// Snapshot of the values at the start of the current local-convergence
    /// observation window (see [`BlockState::drift_from_anchor`]).
    anchor: Vec<f64>,
}

impl BlockState {
    /// Initialises the state of block `id` on its own, from the kernel's
    /// initial values of the block and of its declared dependencies (all
    /// processors start the first iteration from the same global state).
    ///
    /// The runtimes, which need every block's state, use
    /// `BlockState::for_run`: it asks the kernel for each block once.
    pub fn new(kernel: &dyn IterativeKernel, id: usize) -> Self {
        assert!(id < kernel.num_blocks(), "block id out of range");
        let mut tracked = kernel.dependencies(id);
        tracked.push(id);
        tracked.sort_unstable();
        tracked.dedup();
        Self::from_view(
            id,
            DependencyView::tracking(kernel.num_blocks(), tracked, |b| {
                kernel.initial_block(b).into()
            }),
        )
    }

    /// Initialises the state of every block of a run, in block order.
    ///
    /// The kernel is asked for each block's initial values once; every view
    /// starts as references to that one set of payloads. `graph` is the
    /// kernel's dependency graph: block `b` tracks `graph.in_neighbours(b)`
    /// (sorted, unique, without `b`) and itself.
    pub(crate) fn for_run(kernel: &dyn IterativeKernel, graph: &DependencyGraph) -> Vec<Self> {
        let num_blocks = kernel.num_blocks();
        let initial: Vec<Payload> = (0..num_blocks)
            .map(|b| kernel.initial_block(b).into())
            .collect();
        (0..num_blocks)
            .map(|id| {
                let dependencies = graph.in_neighbours(id);
                let mut tracked = Vec::with_capacity(dependencies.len() + 1);
                tracked.extend_from_slice(dependencies);
                tracked.insert(tracked.partition_point(|&d| d < id), id);
                // copy: refcount bump — every view shares the run's one set of initial payloads
                let view = DependencyView::tracking(num_blocks, tracked, |b| initial[b].clone());
                Self::from_view(id, view)
            })
            .collect()
    }

    fn from_view(id: usize, view: DependencyView) -> Self {
        let own_position = view
            .position(id)
            .expect("a block's view tracks the block itself");
        // copy: refcount bump — the front buffer starts as the view's own slot
        let values = view
            .payload_at(own_position)
            .expect("every tracked slot is pre-filled")
            .clone();
        Self {
            id,
            anchor: values.to_vec(),
            back: vec![0.0; values.len()].into(),
            values,
            received_iteration: vec![None; view.num_tracked()],
            own_position,
            view,
            iteration: 0,
            residual: f64::INFINITY,
            messages_incorporated: 0,
            payload_clones: 0,
            bytes_copied: 0,
        }
    }

    /// Total change of the block values since the anchor snapshot was last
    /// reset, `||X_i^t − X_i^anchor||_∞`.
    ///
    /// The asynchronous runtimes use this *cumulative* drift — rather than
    /// the per-iteration residual — as the quantity compared against ε for
    /// local convergence: when a round of dependency updates arrives spread
    /// over many cheap iterations, each individual iteration only moves the
    /// block a little, and a per-iteration measure would under-estimate how
    /// much the block is still changing.
    pub fn drift_from_anchor(&self) -> f64 {
        max_norm_diff(&self.values, &self.anchor)
    }

    /// Resets the anchor snapshot to the current values (called whenever the
    /// drift exceeded ε, i.e. the observation window restarts).
    pub fn reset_anchor(&mut self) {
        self.anchor.copy_from_slice(&self.values);
    }

    /// The anchor snapshot itself, for kernels that measure the drift in
    /// their own (e.g. scaled) units.
    pub fn anchor(&self) -> &[f64] {
        &self.anchor
    }

    /// Incorporates a received data message from block `from`, produced at the
    /// sender's iteration `iteration`.
    ///
    /// Stale messages (older than what is already stored) are ignored, which
    /// mirrors the paper's implementations where the newest received values
    /// overwrite previous ones. Accepts either an owned `Vec<f64>` or an
    /// already-shared [`Payload`]; the latter is stored by reference.
    ///
    /// # Panics
    /// Panics if `from` is not one of the block's declared dependencies (the
    /// view has no slot for it).
    pub fn incorporate(&mut self, from: usize, iteration: u64, values: impl Into<Payload>) -> bool {
        let position = self.view.position_for_write(from);
        if let Some(prev) = self.received_iteration[position] {
            if iteration < prev {
                return false;
            }
        }
        self.view.set_at(position, values.into());
        self.received_iteration[position] = Some(iteration);
        self.messages_incorporated += 1;
        true
    }

    /// Runs one local iteration through the kernel and stores the result.
    /// Returns the residual of the update.
    ///
    /// The kernel writes into the back buffer, then front and back swap: the
    /// old front buffer (possibly still referenced by the mailbox or a
    /// neighbour's view) becomes the new back buffer and is only mutated once
    /// every other reference to it has been dropped.
    pub fn iterate(&mut self, kernel: &dyn IterativeKernel) -> f64 {
        let mut back = std::mem::take(&mut self.back);
        let len = self.values.len();
        let out = match Arc::get_mut(&mut back) {
            Some(slice) if slice.len() == len => slice,
            _ => {
                // Someone still reads the old back buffer (or the block size
                // changed): retire it and start a fresh allocation. This is
                // an allocation, not a payload copy.
                back = vec![0.0; len].into();
                Arc::get_mut(&mut back).expect("freshly allocated Arc is unique")
            }
        };
        let update = kernel.update_block_into(self.id, &self.values, &self.view, out);
        if update.copied {
            self.payload_clones += 1;
            self.bytes_copied += (len * std::mem::size_of::<f64>()) as u64;
        }
        self.residual = update.residual;
        self.iteration += 1;
        self.back = std::mem::replace(&mut self.values, back);
        // A processor always has the freshest version of its own block.
        // copy: refcount bump — the view's own slot shares the new front buffer
        self.view.set_at(self.own_position, self.values.clone());
        self.residual
    }

    /// The delay (in sender iterations) of the stored version of block `from`
    /// relative to `latest`, i.e. how stale the data is. Returns `None` when
    /// nothing has been received yet (or `from` is not a dependency).
    pub fn staleness(&self, from: usize, latest: u64) -> Option<u64> {
        let tag = self.received_iteration[self.view.position(from)?]?;
        Some(latest.saturating_sub(tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::test_kernels::RingContraction;

    #[test]
    fn new_block_starts_from_kernel_initial_values() {
        let kernel = RingContraction::new(3);
        let st = BlockState::new(&kernel, 1);
        assert_eq!(&*st.values, &[0.0]);
        assert_eq!(st.iteration, 0);
        assert!(st.view.has(0) && st.view.has(2));
    }

    #[test]
    fn a_block_of_a_large_ring_tracks_its_two_neighbours_and_itself() {
        let kernel = RingContraction::new(2048);
        let st = BlockState::new(&kernel, 1000);
        assert_eq!(st.view.num_tracked(), 3);
        assert_eq!(st.view.num_blocks(), 2048);
        assert!(st.view.has(999) && st.view.has(1000) && st.view.has(1001));
        assert_eq!(st.view.get(0), None, "not a dependency: no slot");
        // the wrap-around block sorts its own id first
        let first = BlockState::new(&kernel, 0);
        assert_eq!(first.view.num_tracked(), 3);
        assert!(first.view.has(2047) && first.view.has(0) && first.view.has(1));
    }

    #[test]
    fn tracked_slots_sum_to_edges_plus_blocks() {
        for blocks in [1, 2, 3, 64] {
            let kernel = RingContraction::new(blocks);
            let graph = DependencyGraph::from_kernel(&kernel);
            let tracked = |states: Vec<BlockState>| -> usize {
                states.iter().map(|s| s.view.num_tracked()).sum()
            };
            let shared = tracked(BlockState::for_run(&kernel, &graph));
            let alone = tracked((0..blocks).map(|b| BlockState::new(&kernel, b)).collect());
            assert_eq!(shared, graph.num_edges() + blocks, "{blocks} blocks");
            assert_eq!(alone, shared, "{blocks} blocks");
        }
    }

    #[test]
    fn the_states_of_a_run_reference_one_set_of_initial_payloads() {
        let kernel = RingContraction::new(8);
        let states = BlockState::for_run(&kernel, &DependencyGraph::from_kernel(&kernel));
        // block 3's payload: its own front buffer and view slot, and one slot
        // in each neighbour's view
        assert_eq!(Arc::strong_count(&states[3].values), 4);
        for neighbour in [2, 4] {
            let slot = states[neighbour].view.position(3).unwrap();
            let held = states[neighbour].view.payload_at(slot).unwrap();
            assert!(Arc::ptr_eq(held, &states[3].values));
        }
    }

    #[test]
    fn stale_messages_are_rejected_where_position_differs_from_id() {
        let kernel = RingContraction::new(2048);
        let mut st = BlockState::new(&kernel, 1000);
        assert_eq!(st.staleness(1001, 10), None);
        assert!(st.incorporate(1001, 7, vec![7.0]));
        assert!(!st.incorporate(1001, 6, vec![6.0]), "older than stored");
        assert_eq!(st.view.expect(1001), &[7.0]);
        assert_eq!(st.staleness(1001, 10), Some(3));
        // the other neighbour's tag is untouched, an undeclared block has none
        assert_eq!(st.staleness(999, 10), None);
        assert_eq!(st.staleness(5, 10), None);
        assert!(st.incorporate(999, 0, vec![0.5]));
        assert_eq!(st.staleness(999, 10), Some(10));
        assert_eq!(st.messages_incorporated, 2);
    }

    #[test]
    #[should_panic(expected = "block 5 is not tracked by this view")]
    fn incorporating_an_undeclared_block_panics_naming_it() {
        let kernel = RingContraction::new(2048);
        BlockState::new(&kernel, 1000).incorporate(5, 1, vec![1.0]);
    }

    #[test]
    fn iterate_updates_values_and_counters() {
        let kernel = RingContraction::new(3);
        let mut st = BlockState::new(&kernel, 0);
        let r = st.iterate(&kernel);
        assert_eq!(st.iteration, 1);
        assert_eq!(&*st.values, &[1.0]); // 0.2*0 + 0.3*0 + 0.2*0 + 1.0
        assert_eq!(r, 1.0);
        assert_eq!(st.view.expect(0), &[1.0]);
    }

    #[test]
    fn incorporate_keeps_newest_version() {
        let kernel = RingContraction::new(3);
        let mut st = BlockState::new(&kernel, 0);
        assert!(st.incorporate(1, 5, vec![5.0]));
        assert_eq!(st.view.expect(1), &[5.0]);
        // an older message is discarded
        assert!(!st.incorporate(1, 3, vec![3.0]));
        assert_eq!(st.view.expect(1), &[5.0]);
        // an equal-or-newer message replaces the data
        assert!(st.incorporate(1, 5, vec![6.0]));
        assert_eq!(st.view.expect(1), &[6.0]);
        assert_eq!(st.messages_incorporated, 2);
    }

    #[test]
    fn drift_accumulates_across_iterations_until_reset() {
        let kernel = RingContraction::new(2);
        let mut st = BlockState::new(&kernel, 0);
        assert_eq!(st.drift_from_anchor(), 0.0);
        st.iterate(&kernel); // 0 -> 1.0
        let d1 = st.drift_from_anchor();
        assert!(d1 > 0.0);
        st.iterate(&kernel); // keeps moving towards the fixed point
        assert!(st.drift_from_anchor() > d1, "drift is cumulative");
        st.reset_anchor();
        assert_eq!(st.drift_from_anchor(), 0.0);
    }

    #[test]
    fn staleness_tracks_received_iteration_tags() {
        let kernel = RingContraction::new(2);
        let mut st = BlockState::new(&kernel, 0);
        assert_eq!(st.staleness(1, 10), None);
        st.incorporate(1, 7, vec![1.0]);
        assert_eq!(st.staleness(1, 10), Some(3));
        assert_eq!(st.staleness(1, 7), Some(0));
    }

    #[test]
    fn repeated_iterations_converge_with_fresh_neighbour_data() {
        let kernel = RingContraction::new(2);
        let mut a = BlockState::new(&kernel, 0);
        let mut b = BlockState::new(&kernel, 1);
        for _ in 0..200 {
            a.iterate(&kernel);
            b.iterate(&kernel);
            let av = a.values.clone();
            let bv = b.values.clone();
            a.incorporate(1, b.iteration, bv);
            b.incorporate(0, a.iteration, av);
        }
        // fixed point of x = 0.2 x_other + 0.3 x + 0.2 x_other + 1 is
        // symmetric: x = 1 / (1 - 0.7)
        let fp = kernel.fixed_point();
        assert!((a.values[0] - fp).abs() < 1e-9);
        assert!((b.values[0] - fp).abs() < 1e-9);
    }

    #[test]
    fn native_in_place_kernels_never_copy_payload_bytes() {
        // RingContraction overrides update_block_into, so iterating through
        // the double buffer must not count any payload clones — even while a
        // neighbour's view still holds the previous front buffer.
        let kernel = RingContraction::new(2);
        let mut st = BlockState::new(&kernel, 0);
        let mut leaked: Vec<Payload> = Vec::new();
        for _ in 0..8 {
            leaked.push(st.values.clone()); // keep every front buffer alive
            st.iterate(&kernel);
        }
        assert_eq!(st.payload_clones, 0);
        assert_eq!(st.bytes_copied, 0);
        assert_eq!(st.iteration, 8);
    }
}
