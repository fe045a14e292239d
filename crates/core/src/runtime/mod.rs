//! Execution back-ends.
//!
//! Three back-ends run the same [`crate::kernel::IterativeKernel`]:
//!
//! * [`sequential`] — a single-threaded fixed-point loop used as the
//!   correctness reference;
//! * [`threaded`] — a fixed-size worker pool multiplexing all blocks, with
//!   newest-wins [`mailbox`] slots (one per dependency edge) for the data
//!   exchanges; the synchronous mode runs barrier-separated supersteps
//!   (SISC), the asynchronous mode lets every block run at its own pace
//!   (AIAC), scheduled through one shared FIFO queue. This back-end is what
//!   a downstream user runs on a multicore machine.
//! * [`simulated`] — a virtual-time execution over an `aiac-netsim` grid and
//!   an `aiac-envs` environment model; this is the back-end the benchmark
//!   harness uses to reproduce the paper's grid experiments, since 40
//!   heterogeneous machines behind 10 Mb Ethernet and ADSL links cannot be
//!   conjured on a development box.
//!
//! [`deque`] is not part of any back-end: it is the bounded work-stealing
//! deque `aiac-service` hands job tokens to its workers through, kept here
//! beside the [`sync`] facade its model-check harness instruments.

pub mod deque;
pub mod mailbox;
pub mod sequential;
pub mod simulated;
pub mod sync;
pub mod threaded;

pub use deque::{PushError, Steal, StealDeque};
pub use mailbox::{CoalescingMailboxes, MailboxStats};
pub use sequential::SequentialRuntime;
pub use simulated::{SimulatedRuntime, SimulationOutcome};
pub use threaded::ThreadedRuntime;
