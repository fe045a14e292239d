//! `aiac-netsim` — a deterministic discrete-event simulator of heterogeneous
//! computing grids.
//!
//! The AIAC paper evaluates its algorithms on three physical platforms none
//! of which exist anymore (and none of which fit on a single development
//! machine): a 3-site grid over 10 Mb Ethernet, a 4-site grid with consumer
//! ADSL links, and a local heterogeneous cluster of Duron 800 MHz /
//! Pentium IV 1.7 GHz / Pentium IV 2.4 GHz boxes on 100 Mb Ethernet. This
//! crate simulates those platforms:
//!
//! * [`host`] — machines with relative CPU speeds, grouped into sites;
//! * [`link`] — point-to-point links with latency and (possibly asymmetric)
//!   bandwidth, e.g. the 512 kb/s down / 128 kb/s up ADSL line of the paper;
//! * [`topology`] — ready-made grid presets matching the paper's testbeds
//!   plus a builder for custom grids;
//! * [`network`] — the transfer-time model (latency + size/bandwidth with
//!   per-link FIFO contention);
//! * [`sched`] — per-host CPU scheduling: hosts have finitely many cores, so
//!   co-located compute phases and receptions queue FIFO instead of all
//!   running at full speed;
//! * [`event`] / [`sim`] — a classic discrete-event kernel (virtual clock,
//!   ordered event queue) that the simulated AIAC runtime drives.
//!
//! Per-host timelines (the execution-flow pictures of Figures 1 and 2) are
//! not recorded here: the simulated runtime emits them as `aiac-obs` spans
//! on the virtual clock, and `aiac_obs::text_timeline` draws them.
//!
//! Everything is deterministic: two runs with the same topology, workload and
//! seed produce bit-identical results, which the benchmark harness relies on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod host;
pub mod link;
pub mod network;
pub mod sched;
pub mod sim;
pub mod time;
pub mod topology;

pub use event::{Event, EventQueue};
pub use host::{Host, HostId, SiteId};
pub use link::{Link, LinkDirection};
pub use network::Network;
pub use sched::{CpuScheduler, HostLoad, HostScheduler, Slot};
pub use sim::Simulator;
pub use time::SimTime;
pub use topology::GridTopology;
