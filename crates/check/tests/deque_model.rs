//! Bounded model checking of the real `aiac-core` work-stealing deque.
//!
//! Only built under `RUSTFLAGS="--cfg aiac_check"` — the flag routes the
//! deque's all-`SeqCst` atomics through the instrumented facade so every
//! `top`/`bottom`/slot access is a scheduling point.
//!
//! Properties verified exhaustively (within the preemption bound):
//! * no element is ever lost or duplicated across owner pushes/pops racing
//!   concurrent thieves — the union of everything popped, stolen, and
//!   drained is exactly the multiset pushed;
//! * the last-element race (owner's `pop` CAS vs a thief's `steal` CAS)
//!   resolves to exactly one winner in every interleaving;
//! * the owner taking from its *own* deque's FIFO end (an owner-side
//!   `steal`, what a service worker does after refilling the deque)
//!   preserves exactly-once delivery while a foreign thief contends for
//!   the same elements;
//! * a deque observed empty from both ends stays empty (no resurrection).
#![cfg(aiac_check)]

use aiac_check::{thread, Builder};
use aiac_core::runtime::{Steal, StealDeque};
use std::sync::Arc;

/// Collects every element the union of takers observed and asserts it is
/// exactly `0..expected` — nothing lost, nothing duplicated.
fn assert_exactly_once(mut all: Vec<usize>, expected: usize) {
    all.sort_unstable();
    let want: Vec<usize> = (0..expected).collect();
    assert_eq!(all, want, "an element was lost or duplicated");
}

/// Owner pushes and pops (LIFO) while a thief runs a bounded burst of
/// steals (FIFO): across every interleaving the four elements are delivered
/// exactly once, covering the last-element CAS race from both ends many
/// times over. This is the `steal`/`pop` harness the correctness toolchain
/// pins at >10k explored states.
#[test]
fn owner_pop_vs_concurrent_steal_is_exactly_once() {
    let report = Builder {
        max_preemptions: 4,
        ..Builder::default()
    }
    .check(|| {
        let dq = Arc::new(StealDeque::new(4));
        // Seed the FIFO end so the thief has work from its first attempt.
        dq.push(0).unwrap();
        dq.push(1).unwrap();
        let thief = {
            let dq = Arc::clone(&dq);
            thread::spawn(move || {
                let mut got = Vec::new();
                for _ in 0..4 {
                    if let Steal::Success(v) = dq.steal() {
                        got.push(v);
                    }
                }
                got
            })
        };
        let mut kept = Vec::new();
        for item in 2..4 {
            dq.push(item).unwrap();
            if let Some(v) = dq.pop() {
                kept.push(v);
            }
        }
        let stolen = thief.join();
        // Quiescent drain: whatever neither side won during the race is
        // still sitting in the deque, exactly once.
        while let Some(v) = dq.pop() {
            kept.push(v);
        }
        assert!(dq.is_empty(), "drained deque reports residual length");
        assert_eq!(
            dq.steal(),
            Steal::Empty,
            "an element resurrected after the drain"
        );
        assert_exactly_once(kept.into_iter().chain(stolen).collect(), 4);
    });
    assert!(report.complete, "exploration did not finish: {report}");
    assert!(
        report.states > 10_000,
        "harness too small to be meaningful: {report}"
    );
    println!("steal/pop harness: {report}");
}

/// The owner takes from its own deque's FIFO end via an owner-side `steal`
/// (legal Chase–Lev usage) instead of popping LIFO. Model that take racing
/// a foreign thief: owner-steal, thief-steal, and owner-pop must still hand
/// out every element exactly once.
#[test]
fn owner_side_steal_is_exactly_once() {
    let report = Builder {
        max_preemptions: 4,
        ..Builder::default()
    }
    .check(|| {
        let dq = Arc::new(StealDeque::new(4));
        for item in 0..3 {
            dq.push(item).unwrap();
        }
        let thief = {
            let dq = Arc::clone(&dq);
            thread::spawn(move || {
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
        // Then LIFO pops until the deque is observed empty.
        while let Some(v) = dq.pop() {
            kept.push(v);
        }
        let stolen = thief.join();
        while let Some(v) = dq.pop() {
            kept.push(v);
        }
        assert!(dq.is_empty());
        assert_eq!(dq.steal(), Steal::Empty);
        assert_exactly_once(kept.into_iter().chain(stolen).collect(), 3);
    });
    assert!(report.complete, "exploration did not finish: {report}");
    assert!(
        report.states > 10_000,
        "harness too small to be meaningful: {report}"
    );
    println!("owner-side-steal harness: {report}");
}

/// Three threads — the owner and two competing thieves — fight over two
/// elements. Every element goes to exactly one taker in every interleaving,
/// and the losing thief always observes `Retry` or `Empty`, never a
/// duplicated value.
#[test]
fn two_thieves_and_the_owner_never_duplicate() {
    let report = Builder {
        max_preemptions: 3,
        ..Builder::default()
    }
    .check(|| {
        let dq = Arc::new(StealDeque::new(2));
        dq.push(0).unwrap();
        dq.push(1).unwrap();
        let spawn_thief = |dq: Arc<StealDeque>| {
            thread::spawn(move || {
                let mut got = Vec::new();
                for _ in 0..2 {
                    if let Steal::Success(v) = dq.steal() {
                        got.push(v);
                    }
                }
                got
            })
        };
        let t1 = spawn_thief(Arc::clone(&dq));
        let t2 = spawn_thief(Arc::clone(&dq));
        let mut kept = Vec::new();
        if let Some(v) = dq.pop() {
            kept.push(v);
        }
        let (got1, got2) = (t1.join(), t2.join());
        while let Some(v) = dq.pop() {
            kept.push(v);
        }
        assert!(dq.is_empty());
        assert_eq!(dq.steal(), Steal::Empty);
        assert_exactly_once(kept.into_iter().chain(got1).chain(got2).collect(), 2);
    });
    assert!(report.complete, "exploration did not finish: {report}");
    println!("two-thief harness: {report}");
}
