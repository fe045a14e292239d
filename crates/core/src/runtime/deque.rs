//! A bounded, lock-free work-stealing deque.
//!
//! One end belongs to an owner that pushes and pops in LIFO order (newest
//! work is cache-hottest); any thread may *steal* from the other end in
//! FIFO order (oldest work has the least locality left to lose). Its
//! production user is `aiac-service`, whose dispatcher pushes job tokens
//! under the service's state lock and whose workers steal them. The
//! threaded executor does not schedule on it: block iterations want FIFO
//! order across the whole pool, which one shared queue gives directly
//! (see [`super::threaded`]).
//!
//! [`StealDeque`] is a bounded Chase–Lev-style deque:
//!
//! * **Elements are plain `usize` tokens**, so the buffer can be a slice
//!   of `AtomicUsize` slots — every access is an atomic load or store and
//!   the whole module stays inside the crate's `deny(unsafe_code)` rule
//!   with **no** scoped allow (unlike the mailbox, which has to juggle
//!   `Box::into_raw`). A racy slot read is *harmless* here, not UB: the
//!   value only becomes the thief's when the `top` CAS that guards it
//!   succeeds, and the CAS fails whenever the slot could have been reused.
//! * **Bounded capacity, no growth.** [`StealDeque::new`] rounds the
//!   requested capacity up to a power of two and [`StealDeque::push`]
//!   reports [`PushError::Full`] instead of reallocating — the caller keeps
//!   the item and retries later, and the push path stays allocation-free.
//! * **All-`SeqCst` memory ordering.** The classic Chase–Lev algorithm
//!   threads a `SeqCst` fence between the owner's `bottom` update and its
//!   `top` read; using sequentially consistent accesses throughout buys the
//!   same Dekker-style guarantee (owner and thief cannot both miss each
//!   other on the last element) at a cost that is irrelevant next to the
//!   work an element stands for, and it keeps the proof — and the TSan/Miri
//!   runs in CI — straightforward.
//!
//! Ownership discipline: exactly one thread (the owner) calls
//! [`StealDeque::push`] / [`StealDeque::pop`]; any thread may call
//! [`StealDeque::steal`]. The discipline is a *performance* contract, not a
//! safety one — every slot access is atomic, so even a misuse cannot tear —
//! but the single-owner invariant is what makes the last-element race the
//! only race (the service upholds it by pushing only under its state
//! lock). The owner may also `steal` from its own deque: the thread that
//! pushed a token is often the one that takes it from the FIFO end.

// Atomics come from the sync facade so the bounded model checker can
// instrument them under `--cfg aiac_check` (enforced by `cargo xtask
// analyze`).
// ord: SeqCst — single all-SeqCst import by design; see the module docs for
// why sequential consistency replaces the classic Chase–Lev fence.
use crate::runtime::sync::{AtomicIsize, AtomicUsize, Ordering::SeqCst};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The deque already holds `capacity` entries; the caller must route the
    /// item elsewhere or retry once a taker has made room.
    Full,
}

/// The result of a steal attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal {
    /// The deque was observed empty.
    Empty,
    /// Another thread (the owner, or a competing thief) won the race for the
    /// observed element; the caller may retry.
    Retry,
    /// One element, taken from the FIFO (oldest) end.
    Success(usize),
}

/// A bounded lock-free work-stealing deque of `usize` tokens.
///
/// Owner end: [`push`](Self::push) / [`pop`](Self::pop) (LIFO). Thief end:
/// [`steal`](Self::steal) (FIFO). See the module docs for the discipline.
pub struct StealDeque {
    /// Next slot the owner writes (grows on push, shrinks on pop).
    bottom: AtomicIsize,
    /// Oldest live slot (grows on steal). `top > bottom` never holds for
    /// longer than the owner's transient decrement inside `pop`.
    top: AtomicIsize,
    /// Power-of-two ring buffer; `index & mask` maps a counter to a slot.
    buffer: Box<[AtomicUsize]>,
    mask: usize,
}

impl StealDeque {
    /// A deque that can hold at least `capacity` elements (rounded up to a
    /// power of two, minimum 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1).next_power_of_two();
        Self {
            bottom: AtomicIsize::new(0),
            top: AtomicIsize::new(0),
            buffer: (0..cap).map(|_| AtomicUsize::new(0)).collect(),
            mask: cap - 1,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.buffer.len()
    }

    /// Snapshot of the current length (exact when quiescent, a hint under
    /// concurrency).
    pub fn len(&self) -> usize {
        let b = self.bottom.load(SeqCst);
        let t = self.top.load(SeqCst);
        b.saturating_sub(t).max(0) as usize
    }

    /// True when the deque is observed empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Owner-only: pushes `item` onto the LIFO end.
    pub fn push(&self, item: usize) -> Result<(), PushError> {
        let b = self.bottom.load(SeqCst);
        let t = self.top.load(SeqCst);
        if b.wrapping_sub(t) >= self.buffer.len() as isize {
            return Err(PushError::Full);
        }
        self.buffer[(b as usize) & self.mask].store(item, SeqCst);
        self.bottom.store(b.wrapping_add(1), SeqCst);
        Ok(())
    }

    /// Owner-only: pops the most recently pushed element (LIFO), racing
    /// thieves only when a single element remains.
    pub fn pop(&self) -> Option<usize> {
        let b = self.bottom.load(SeqCst).wrapping_sub(1);
        // Reserve the bottom slot first; thieves that read the decremented
        // value will treat the deque as one element shorter.
        self.bottom.store(b, SeqCst);
        let t = self.top.load(SeqCst);
        if t > b {
            // Already empty: undo the reservation.
            self.bottom.store(b.wrapping_add(1), SeqCst);
            return None;
        }
        let item = self.buffer[(b as usize) & self.mask].load(SeqCst);
        if t == b {
            // Last element: whoever moves `top` first owns it.
            let won = self
                .top
                .compare_exchange(t, t.wrapping_add(1), SeqCst, SeqCst)
                .is_ok();
            self.bottom.store(b.wrapping_add(1), SeqCst);
            return won.then_some(item);
        }
        Some(item)
    }

    /// Any thread: tries to take the oldest element (FIFO end).
    ///
    /// The slot is read *before* the claiming CAS, which is what makes the
    /// atomic-slot representation load-bearing: if the owner wrapped around
    /// and reused the slot in the meantime, `top` must have moved too, the
    /// CAS fails, and the stale read is discarded.
    pub fn steal(&self) -> Steal {
        let t = self.top.load(SeqCst);
        let b = self.bottom.load(SeqCst);
        if b.wrapping_sub(t) <= 0 {
            return Steal::Empty;
        }
        let item = self.buffer[(t as usize) & self.mask].load(SeqCst);
        match self
            .top
            .compare_exchange(t, t.wrapping_add(1), SeqCst, SeqCst)
        {
            Ok(_) => Steal::Success(item),
            Err(_) => Steal::Retry,
        }
    }
}

impl std::fmt::Debug for StealDeque {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StealDeque")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    #[test]
    fn owner_pop_is_lifo() {
        let dq = StealDeque::new(8);
        for i in 0..5 {
            dq.push(i).unwrap();
        }
        assert_eq!(dq.len(), 5);
        for i in (0..5).rev() {
            assert_eq!(dq.pop(), Some(i));
        }
        assert_eq!(dq.pop(), None);
        assert!(dq.is_empty());
    }

    #[test]
    fn steal_is_fifo() {
        let dq = StealDeque::new(8);
        for i in 10..14 {
            dq.push(i).unwrap();
        }
        assert_eq!(dq.steal(), Steal::Success(10));
        assert_eq!(dq.steal(), Steal::Success(11));
        assert_eq!(dq.pop(), Some(13));
        assert_eq!(dq.steal(), Steal::Success(12));
        assert_eq!(dq.steal(), Steal::Empty);
        assert_eq!(dq.pop(), None);
    }

    #[test]
    fn capacity_rounds_up_and_push_reports_full() {
        let dq = StealDeque::new(3);
        assert_eq!(dq.capacity(), 4);
        for i in 0..4 {
            dq.push(i).unwrap();
        }
        assert_eq!(dq.push(99), Err(PushError::Full));
        // draining one slot re-opens the deque, wrapping the ring
        assert_eq!(dq.steal(), Steal::Success(0));
        dq.push(99).unwrap();
        assert_eq!(dq.pop(), Some(99));
    }

    #[test]
    fn zero_capacity_still_holds_one_element() {
        let dq = StealDeque::new(0);
        assert_eq!(dq.capacity(), 1);
        dq.push(7).unwrap();
        assert_eq!(dq.push(8), Err(PushError::Full));
        assert_eq!(dq.pop(), Some(7));
    }

    /// Two threads contend for a single element: exactly one side wins.
    /// Small and deterministic enough to run under Miri, covering the
    /// last-element CAS race from both ends.
    #[test]
    fn last_element_goes_to_exactly_one_side() {
        for _round in 0..16 {
            let dq = Arc::new(StealDeque::new(2));
            dq.push(42).unwrap();
            let thief = {
                let dq = Arc::clone(&dq);
                std::thread::spawn(move || match dq.steal() {
                    Steal::Success(v) => Some(v),
                    _ => None,
                })
            };
            let popped = dq.pop();
            let stolen = thief.join().unwrap();
            match (popped, stolen) {
                (Some(42), None) | (None, Some(42)) => {}
                other => panic!("the element must go to exactly one side, got {other:?}"),
            }
            assert_eq!(dq.pop(), None);
            assert_eq!(dq.steal(), Steal::Empty);
        }
    }

    /// The owner may take from its *own* deque's FIFO end — an owner-side
    /// `steal`, legal Chase–Lev usage, and what a service worker does when
    /// it refills the deque and then steals. Deterministic two-thread version
    /// of the model-checked harness (`crates/check/tests/deque_model.rs`),
    /// small enough for Miri's weak-memory exploration: owner-steal,
    /// thief-steal, and owner-pop must hand out every element exactly once.
    #[test]
    fn owner_side_steal_vs_thief() {
        for _round in 0..8 {
            let dq = Arc::new(StealDeque::new(4));
            for i in 0..3 {
                dq.push(i).unwrap();
            }
            let thief = {
                let dq = Arc::clone(&dq);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    for _ in 0..3 {
                        if let Steal::Success(v) = dq.steal() {
                            got.push(v);
                        }
                    }
                    got
                })
            };
            let mut kept = Vec::new();
            // The owner takes from its own FIFO end.
            if let Steal::Success(v) = dq.steal() {
                kept.push(v);
            }
            // Then LIFO pops.
            while let Some(v) = dq.pop() {
                kept.push(v);
            }
            let mut all: Vec<usize> = kept.into_iter().chain(thief.join().unwrap()).collect();
            while let Some(v) = dq.pop() {
                all.push(v);
            }
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2], "an element was lost or duplicated");
            assert!(dq.is_empty());
            assert_eq!(dq.steal(), Steal::Empty);
        }
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

        /// Seeded-schedule check mirroring the mailbox's concurrency
        /// property: the owner pushes `0..items` (popping some back with
        /// seed-derived pauses) while `thieves` threads steal with their own
        /// seed-derived backoff. Across every interleaving the union of
        /// popped and stolen elements must be exactly `{0, …, items−1}` —
        /// nothing lost, nothing duplicated — and the deque must end empty.
        #[test]
        #[cfg_attr(miri, ignore)] // real-thread schedule fuzzing is far too slow under miri
        fn prop_no_element_is_lost_or_duplicated(
            seed in 0u64..u64::MAX,
            items in 16usize..128,
            thieves in 1usize..4,
        ) {
            let dq = Arc::new(StealDeque::new(items));
            let done = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..thieves)
                .map(|thief| {
                    let dq = Arc::clone(&dq);
                    let done = Arc::clone(&done);
                    let mut rng = seed ^ (thief as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
                    std::thread::spawn(move || {
                        let mut got = Vec::new();
                        loop {
                            match dq.steal() {
                                Steal::Success(v) => got.push(v),
                                Steal::Retry => std::hint::spin_loop(),
                                Steal::Empty => {
                                    if done.load(SeqCst) == 1 && dq.is_empty() {
                                        break;
                                    }
                                    std::thread::yield_now();
                                }
                            }
                            for _ in 0..(splitmix64(&mut rng) % 32) {
                                std::hint::spin_loop();
                            }
                        }
                        got
                    })
                })
                .collect();

            let mut rng = seed;
            let mut kept = Vec::new();
            for item in 0..items {
                dq.push(item).unwrap();
                let roll = splitmix64(&mut rng);
                if roll.is_multiple_of(3) {
                    if let Some(v) = dq.pop() {
                        kept.push(v);
                    }
                }
                for _ in 0..(roll % 16) {
                    std::hint::spin_loop();
                }
            }
            while let Some(v) = dq.pop() {
                kept.push(v);
            }
            done.store(1, SeqCst);

            let mut seen: Vec<usize> = kept;
            for handle in handles {
                seen.extend(handle.join().unwrap());
            }
            prop_assert_eq!(seen.len(), items, "an element was lost or duplicated");
            let unique: BTreeSet<usize> = seen.iter().copied().collect();
            prop_assert_eq!(unique.len(), items, "a duplicate element was observed");
            prop_assert!(seen.iter().all(|&v| v < items));
            prop_assert!(dq.is_empty());
        }
    }
}
