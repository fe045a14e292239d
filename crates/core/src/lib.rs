//! `aiac-core` — the AIAC runtime.
//!
//! This crate is the reproduction of the paper's primary contribution: a
//! runtime for **Asynchronous Iterations, Asynchronous Communications**
//! parallel iterative algorithms, together with the synchronous (SISC)
//! baseline it is compared against.
//!
//! The runtime is organised around a small number of concepts:
//!
//! * a problem is expressed as an [`kernel::IterativeKernel`]: a block-decomposed
//!   fixed-point iteration where each block can be updated from (possibly
//!   stale) copies of the other blocks;
//! * [`config::RunConfig`] selects the execution mode
//!   ([`config::ExecutionMode::Synchronous`] or
//!   [`config::ExecutionMode::Asynchronous`]), the convergence threshold, the
//!   local-convergence streak length and the iteration limits — the knobs the
//!   paper describes in Section 4.3;
//! * [`convergence`] implements the per-block residual tracking and the
//!   centralized global convergence detection / halting procedure;
//! * [`placement`] decides which host every block runs on when blocks
//!   outnumber machines (round-robin, site-packed or speed-weighted), which
//!   the simulated runtime combines with per-host CPU scheduling to model
//!   oversubscribed runs honestly;
//! * [`runtime::threaded`] executes the kernel with real OS threads — a
//!   fixed-size worker pool multiplexing all blocks, with newest-wins
//!   coalescing mailboxes ([`runtime::mailbox`]) for the asynchronous
//!   exchanges — this is what a downstream user runs on a multicore machine;
//! * [`runtime::simulated`] executes the kernel in virtual time over
//!   `aiac-netsim` grids and `aiac-envs` environment models — this is what the
//!   benchmark harness uses to reproduce the paper's grid experiments;
//! * [`runtime::sequential`] runs the same kernel as a plain sequential
//!   fixed-point loop, providing the reference solutions used by tests;
//! * [`report::RunReport`] collects execution time, per-processor iteration
//!   counts, message counts and the residual history of a run.

// Deny rather than forbid: the lock-free mailbox data plane
// (`runtime::mailbox`) owns the crate's only `unsafe` blocks — the
// box-leak/box-reclaim pair around its atomic slot swap — and scopes its own
// allow with the safety argument. Everything else stays safe code, and the CI
// sanitizer job (ThreadSanitizer + Miri) checks the exception.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod cancel;
pub mod config;
pub mod convergence;
pub mod depgraph;
pub mod kernel;
pub mod message;
pub mod placement;
pub mod report;
pub mod runtime;

pub use cancel::CancelToken;
pub use config::{ConfigError, ExecutionMode, RunConfig};
pub use kernel::{BlockUpdate, IterativeKernel};
pub use placement::{Placement, PlacementPolicy};
pub use report::{RunError, RunReport};
