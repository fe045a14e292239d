//! Newest-wins coalescing mailboxes: the data plane of the threaded
//! executor's asynchronous pool. (Synchronous supersteps hand each block's
//! front buffer over by reference and never use them.)
//!
//! The AIAC model (Section 1.2 of the paper) only ever consumes the *newest*
//! available version of a dependency block: whenever several updates of the
//! same block are pending at a receiver, all but the latest are dead weight
//! that [`crate::block::BlockState::incorporate`] would overwrite anyway.
//! Shipping every iterate through an unbounded queue therefore lets a fast
//! producer grow a slow consumer's inbox without bound.
//!
//! [`CoalescingMailboxes`] exploits the model instead of fighting it: each
//! directed dependency edge `(src, dst)` owns exactly **one** slot holding
//! the latest published iterate. A publish into an occupied slot *coalesces*
//! — the stale envelope is dropped — so the total in-flight data storage is
//! bounded by the number of edges of the dependency graph, independent of
//! how far producers run ahead of consumers.
//!
//! The data plane is **zero-copy and lock-free**: payloads are shared
//! [`Payload`]s (`Arc<[f64]>`), so a publish clones a refcount, never the
//! data, and each slot is a cache-line-aligned `AtomicPtr<Envelope>` swapped
//! with a single atomic instruction on both the publish and the take path.
//! This works because the executor guarantees *at most one worker runs a
//! given block at a time*, which makes every edge single-producer
//! single-consumer: the only contention on a slot is one writer racing one
//! reader, and a `swap` resolves it without a lock in either direction.
//! Occupancy and coalescing counters are tracked so runs can report (and
//! tests can assert) the O(edges) bound.

// The only unsafe code in the crate: every `unsafe` block below reclaims a
// `Box<Envelope>` previously leaked into a slot with `Box::into_raw`, after an
// atomic swap (or `&mut self` in `Drop`) has made that pointer unreachable to
// every other thread. The CI sanitizer job runs these paths under
// ThreadSanitizer and Miri.
#![allow(unsafe_code)]

use crate::depgraph::DependencyGraph;
use crate::kernel::Payload;
// Atomics come from the sync facade, never from std directly: under
// `--cfg aiac_check` they resolve to the bounded model checker's
// instrumented types (enforced by `cargo xtask analyze`).
use crate::runtime::sync::{AtomicI64, AtomicPtr, AtomicU64, Ordering};
use std::ptr;

/// The latest iterate published on one dependency edge.
struct Envelope {
    /// Sender-side iteration number the values were produced at.
    iteration: u64,
    /// The block values, shared by refcount with the producer's front buffer.
    values: Payload,
}

/// One lock-free newest-wins cell. Padded to a cache line so two slots never
/// share one: a publish on edge `(a, b)` must not invalidate the line a take
/// on the unrelated edge `(c, d)` is spinning on (false sharing).
#[repr(align(64))]
struct Slot {
    /// Null = empty. Non-null = a `Box<Envelope>` leaked into the slot,
    /// owned by whichever side swaps it out next (or by `Drop` at teardown).
    ptr: AtomicPtr<Envelope>,
}

impl Slot {
    fn empty() -> Self {
        Self {
            ptr: AtomicPtr::new(ptr::null_mut()),
        }
    }
}

/// One slot per dependency edge, holding only the newest iterate.
pub struct CoalescingMailboxes {
    /// `slots[dst][k]` is the slot of the edge `in_neighbours(dst)[k] → dst`.
    slots: Vec<Vec<Slot>>,
    /// `sources[dst][k]` = the source block of `slots[dst][k]`.
    sources: Vec<Vec<usize>>,
    /// `routes[src]` = every `(dst, k)` such that `slots[dst][k]` carries
    /// data from `src` (the out-edges of `src`, resolved to slot indices).
    routes: Vec<Vec<(usize, usize)>>,
    /// Total number of publishes (one per out-edge per publishing iterate).
    publishes: AtomicU64,
    /// Publishes that replaced a not-yet-consumed payload (newest wins).
    coalesced: AtomicU64,
    /// Number of currently occupied slots, maintained so it *lags the true
    /// count from below*: a publisher increments only **after** filling an
    /// empty slot, and the consumer decrements **before** its emptying swap
    /// (see `take_for`). At every instant `occupancy ≤ #occupied slots ≤
    /// capacity` — the bounded model checker verifies this exhaustively.
    /// Signed defensively: if the discipline were ever broken (e.g. a take
    /// racing a slot it does not own), an unsigned counter would wrap and
    /// poison the peak forever; a signed one just reads as "in flux".
    occupancy: AtomicI64,
    /// High-water mark of `occupancy`, updated only on the publish side.
    /// Because `occupancy` never overcounts (see above), the recorded peak
    /// can never exceed the edge-count capacity. (An earlier scheme
    /// decremented *after* the consumer's swap; the model checker found the
    /// two-op window in which a racing publish then inflates the peak past
    /// the capacity — exactly the schedule the seeded proptests never hit.)
    peak_occupancy: AtomicU64,
}

/// Counters of a [`CoalescingMailboxes`] instance, snapshot at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MailboxStats {
    /// Total number of per-edge publishes.
    pub publishes: u64,
    /// Publishes that overwrote an unconsumed payload.
    pub coalesced: u64,
    /// Number of slots occupied right now.
    pub occupancy: u64,
    /// Highest number of simultaneously occupied slots observed.
    pub peak_occupancy: u64,
    /// Number of slots in existence — the dependency-edge count, and the hard
    /// bound every occupancy value stays under.
    pub capacity: u64,
}

impl CoalescingMailboxes {
    /// Creates one empty slot per directed edge of the dependency graph.
    pub fn new(graph: &DependencyGraph) -> Self {
        let m = graph.num_blocks();
        let mut slots = Vec::with_capacity(m);
        let mut sources = Vec::with_capacity(m);
        let mut routes = vec![Vec::new(); m];
        for dst in 0..m {
            let deps = graph.in_neighbours(dst);
            for (k, &src) in deps.iter().enumerate() {
                routes[src].push((dst, k));
            }
            slots.push(deps.iter().map(|_| Slot::empty()).collect());
            // copy: construction-time edge-list copy, never on a publish/take path
            sources.push(deps.to_vec());
        }
        Self {
            slots,
            sources,
            routes,
            publishes: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            occupancy: AtomicI64::new(0),
            peak_occupancy: AtomicU64::new(0),
        }
    }

    /// Number of slots (= directed dependency edges).
    pub fn capacity(&self) -> u64 {
        self.slots.iter().map(|s| s.len() as u64).sum()
    }

    /// Records that a previously empty slot became occupied.
    fn note_occupied(&self) {
        // ord: stat counter — occupancy is advisory telemetry, read at quiescence
        let now = self.occupancy.fetch_add(1, Ordering::Relaxed) + 1;
        if now > 0 {
            // ord: stat counter — peak high-water mark, never synchronizes data
            self.peak_occupancy.fetch_max(now as u64, Ordering::Relaxed);
        }
    }

    /// Publishes `values` (produced at the sender's `iteration`) on every
    /// out-edge of `src`, then calls `on_deliver(dst)` for each destination
    /// so the caller can wake it. Each edge receives a refcounted clone of
    /// the payload — no data is copied. An older iterate already sitting in
    /// a slot is dropped (newest wins); a *newer* one — possible only with
    /// out-of-order publishers, which real workers never are — is kept.
    pub fn publish_from(
        &self,
        src: usize,
        iteration: u64,
        values: &Payload,
        mut on_deliver: impl FnMut(usize),
    ) {
        for &(dst, k) in &self.routes[src] {
            // ord: stat counter — publish count is telemetry only
            self.publishes.fetch_add(1, Ordering::Relaxed);
            let slot = &self.slots[dst][k];
            let fresh = Box::into_raw(Box::new(Envelope {
                iteration,
                // copy: refcount bump on the shared payload, not a data copy
                values: values.clone(),
            }));
            // ord: AcqRel — Release publishes our envelope's contents to the
            // consumer; Acquire pairs with the previous publisher's Release so
            // the displaced envelope is fully visible before we free it.
            let displaced = slot.ptr.swap(fresh, Ordering::AcqRel);
            if displaced.is_null() {
                self.note_occupied();
            } else {
                // ord: stat counter — coalesce count is telemetry only
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                // SAFETY: a non-null pointer swapped out of a slot is a
                // `Box::into_raw` that no other thread can reach any more
                // (the swap removed the only shared path to it).
                let displaced = unsafe { Box::from_raw(displaced) };
                if displaced.iteration > iteration {
                    // Out-of-order publish: the slot held something newer, so
                    // put it back. Under the single-producer-per-edge
                    // invariant nobody else can publish on this edge
                    // concurrently, so the second swap only races the
                    // consumer's take.
                    // ord: AcqRel — same pairing as the first swap: Release
                    // republishes the newer envelope, Acquire lets us free
                    // whatever we displaced.
                    let ours = slot.ptr.swap(Box::into_raw(displaced), Ordering::AcqRel);
                    if ours.is_null() {
                        // The consumer drained the slot between our two
                        // swaps; re-filling it re-occupies the slot.
                        self.note_occupied();
                    } else {
                        // SAFETY: same ownership argument as above.
                        drop(unsafe { Box::from_raw(ours) });
                    }
                }
            }
            on_deliver(dst);
        }
    }

    /// Drains every occupied in-edge slot of `dst`, handing each payload to
    /// `consume(src, iteration, values)` (newest version only, by
    /// construction). The payload is the producer's shared [`Payload`] —
    /// moved out of the slot, never copied; the consumer typically stores it
    /// in its dependency view with a refcount bump.
    pub fn take_for(&self, dst: usize, mut consume: impl FnMut(usize, u64, Payload)) {
        for (k, slot) in self.slots[dst].iter().enumerate() {
            // ord: Acquire — peek pairs with the publisher's Release. A null
            // peek skips the slot with a plain load, keeping the common
            // empty-poll path free of read-modify-write traffic.
            if slot.ptr.load(Ordering::Acquire).is_null() {
                continue;
            }
            // ord: stat counter — decrement *before* the emptying swap, so
            // occupancy lags the true occupied count from below and the
            // publish-side peak can never record a value above capacity.
            // Sound because only this consumer empties the slot: between the
            // non-null peek and the swap the slot stays occupied.
            self.occupancy.fetch_sub(1, Ordering::Relaxed);
            // ord: Acquire — pairs with the publisher's Release so the
            // envelope's contents are visible before we read them; the write
            // side only installs null, which publishes nothing.
            let taken = slot.ptr.swap(ptr::null_mut(), Ordering::Acquire);
            if taken.is_null() {
                // Unreachable under the single-consumer-per-destination
                // invariant (publishers never empty a slot); restore the
                // counter defensively rather than assume it.
                // ord: stat counter — undo the advance decrement
                self.occupancy.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // SAFETY: non-null pointers in a slot are leaked boxes, and
            // the swap made this one unreachable to every other thread.
            let env = unsafe { Box::from_raw(taken) };
            consume(self.sources[dst][k], env.iteration, env.values);
        }
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> MailboxStats {
        MailboxStats {
            // ord: stat counter — snapshot reads of telemetry counters
            publishes: self.publishes.load(Ordering::Relaxed),
            // ord: stat counter — snapshot read
            coalesced: self.coalesced.load(Ordering::Relaxed),
            // ord: stat counter — snapshot read; may transiently undercount
            occupancy: self.occupancy.load(Ordering::Relaxed).max(0) as u64,
            // ord: stat counter — snapshot read
            peak_occupancy: self.peak_occupancy.load(Ordering::Relaxed),
            capacity: self.capacity(),
        }
    }
}

impl Drop for CoalescingMailboxes {
    fn drop(&mut self) {
        for row in &mut self.slots {
            for slot in row {
                let p = *slot.ptr.get_mut();
                if !p.is_null() {
                    // SAFETY: `&mut self` proves no other thread holds the
                    // mailboxes; any leftover pointer is a leaked box whose
                    // ownership reverts to us.
                    drop(unsafe { Box::from_raw(p) });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::test_kernels::RingContraction;
    use std::sync::Arc;

    fn ring(blocks: usize) -> CoalescingMailboxes {
        CoalescingMailboxes::new(&DependencyGraph::from_kernel(&RingContraction::new(blocks)))
    }

    fn payload(values: &[f64]) -> Payload {
        values.to_vec().into()
    }

    #[test]
    fn capacity_equals_the_edge_count() {
        let boxes = ring(5);
        assert_eq!(boxes.capacity(), 10); // 2 out-neighbours per block
        assert_eq!(boxes.stats().capacity, 10);
        assert_eq!(ring(1).capacity(), 0);
    }

    #[test]
    fn publish_reaches_every_out_neighbour() {
        let boxes = ring(4);
        let mut delivered = Vec::new();
        boxes.publish_from(0, 1, &payload(&[7.0]), |dst| delivered.push(dst));
        delivered.sort_unstable();
        assert_eq!(delivered, vec![1, 3]);

        let mut received = Vec::new();
        boxes.take_for(1, |src, iter, values| {
            received.push((src, iter, values.to_vec()));
        });
        assert_eq!(received, vec![(0, 1, vec![7.0])]);
    }

    #[test]
    fn take_hands_back_the_published_allocation_without_copying() {
        let boxes = ring(3);
        let sent = payload(&[1.0, 2.0]);
        boxes.publish_from(0, 1, &sent, |_| {});
        let mut seen = 0;
        boxes.take_for(1, |_, _, values| {
            assert!(
                Arc::ptr_eq(&sent, &values),
                "the consumer must receive the producer's allocation"
            );
            seen += 1;
        });
        assert_eq!(seen, 1);
    }

    #[test]
    fn newest_wins_and_memory_stays_bounded() {
        let boxes = ring(3);
        // Block 0 runs five iterations ahead of its consumers; only the last
        // iterate survives and the occupancy never exceeds its two out-edges.
        for iteration in 1..=5 {
            boxes.publish_from(0, iteration, &payload(&[iteration as f64]), |_| {});
        }
        let stats = boxes.stats();
        assert_eq!(stats.publishes, 10);
        assert_eq!(stats.coalesced, 8, "4 of 5 publishes coalesce, per edge");
        assert_eq!(stats.occupancy, 2);
        assert_eq!(stats.peak_occupancy, 2);
        assert!(stats.peak_occupancy <= stats.capacity);

        let mut received = Vec::new();
        boxes.take_for(1, |src, iter, values| {
            received.push((src, iter, values.to_vec()));
        });
        assert_eq!(received, vec![(0, 5, vec![5.0])]);
    }

    #[test]
    fn out_of_order_publish_keeps_the_newer_iterate() {
        let boxes = ring(3);
        boxes.publish_from(0, 9, &payload(&[9.0]), |_| {});
        boxes.publish_from(0, 4, &payload(&[4.0]), |_| {});
        let mut received = Vec::new();
        boxes.take_for(1, |_, iter, values| received.push((iter, values.to_vec())));
        assert_eq!(received, vec![(9, vec![9.0])]);
    }

    #[test]
    fn take_empties_the_slots_and_occupancy_returns_to_zero() {
        let boxes = ring(4);
        for b in 0..4 {
            boxes.publish_from(b, 1, &payload(&[b as f64]), |_| {});
        }
        assert_eq!(boxes.stats().occupancy, 8);
        for b in 0..4 {
            boxes.take_for(b, |_, _, _| {});
        }
        let stats = boxes.stats();
        assert_eq!(stats.occupancy, 0);
        assert_eq!(stats.peak_occupancy, 8);
        // a second drain finds nothing
        let mut count = 0;
        boxes.take_for(0, |_, _, _| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn dropping_with_unconsumed_envelopes_frees_them() {
        // Leaves the slots of block 2 occupied; `Drop` must reclaim the
        // leaked boxes (Miri/LeakSanitizer would flag them otherwise).
        let boxes = ring(3);
        boxes.publish_from(0, 3, &payload(&[0.5; 16]), |_| {});
        boxes.publish_from(1, 2, &payload(&[0.25; 16]), |_| {});
        drop(boxes);
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Seeded-schedule check of the lock-free slot swap: one writer
        /// publishes constant-fill payloads `[i, i, …]` for iterations
        /// `1..=iters` with seed-derived pauses while the reader drains the
        /// edge with its own seed-derived backoff. No interleaving may
        /// produce a torn payload (mixed fills), a non-monotone iteration
        /// sequence (newest-wins), or an occupancy above the edge count.
        #[test]
        #[cfg_attr(miri, ignore)] // real-thread schedule fuzzing is far too slow under miri
        fn prop_concurrent_publish_and_take_never_tear_payloads(
            seed in 0u64..u64::MAX,
            len in 1usize..9,
            iters in 8u64..48,
        ) {
            let boxes = Arc::new(ring(3));
            let writer = {
                let boxes = Arc::clone(&boxes);
                let mut rng = seed;
                std::thread::spawn(move || {
                    for iteration in 1..=iters {
                        let p = payload(&vec![iteration as f64; len]);
                        boxes.publish_from(0, iteration, &p, |_| {});
                        for _ in 0..(splitmix64(&mut rng) % 64) {
                            std::hint::spin_loop();
                        }
                    }
                })
            };

            let mut rng = seed ^ 0xD6E8_FEB8_6659_FD93;
            let mut last_seen = 0u64;
            loop {
                let mut reached_final = false;
                boxes.take_for(1, |src, iteration, values| {
                    assert_eq!(src, 0);
                    assert!(
                        iteration > last_seen,
                        "newest-wins must hand out strictly newer iterates \
                         (got {iteration} after {last_seen})"
                    );
                    last_seen = iteration;
                    assert_eq!(values.len(), len);
                    assert!(
                        values.iter().all(|&v| v == iteration as f64),
                        "torn payload at iteration {iteration}: {values:?}"
                    );
                    reached_final = iteration == iters;
                });
                let stats = boxes.stats();
                assert!(stats.occupancy <= stats.capacity);
                assert!(stats.peak_occupancy <= stats.capacity);
                if reached_final {
                    break;
                }
                if splitmix64(&mut rng).is_multiple_of(3) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            writer.join().unwrap();
            // The edge 0 → 2 was never drained: `Drop` reclaims it.
        }
    }
}
