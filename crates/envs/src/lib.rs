//! `aiac-envs` — models of the parallel programming environments compared in
//! the AIAC paper.
//!
//! The paper implements the same two AIAC algorithms with three middleware
//! stacks — PM2, MPICH/Madeleine and OmniORB 4 — plus a synchronous MPI
//! baseline, and concludes that the performance differences between them come
//! from their communication overheads and thread-management schemes rather
//! than from the algorithms. This crate encodes those published
//! characteristics as *environment models* behind a single [`env::Environment`]
//! trait:
//!
//! * [`mpi_sync`] — the classical single-threaded MPI used for the SISC
//!   baseline (blocking receives localised in the program sequence);
//! * [`mpi_mad`] — MPICH/Madeleine: thread-safe MPI with Marcel threads,
//!   dedicated receiving threads, explicit message passing;
//! * [`pm2`] — PM2: RPC-style communication with explicit data packing and
//!   Marcel threads, receiving handlers activated on demand;
//! * [`omniorb`] — OmniORB 4: CORBA object invocations, per-request dispatch
//!   threads, IIOP marshalling overhead and a naming-service lookup at
//!   deployment time;
//! * [`threads`] — the per-problem thread configurations of Table 4;
//! * [`deploy`] — connection-graph / portability constraints discussed in the
//!   "ease of deployment" comparison (Section 5.3);
//! * [`profile`] — the five named environment profiles
//!   ([`profile::EnvProfile`]) the benchmark harness sweeps: the synchronous
//!   MPI baseline, the three asynchronous grid environments and the
//!   shared-memory threads execution.
//!
//! The models are intentionally simple — per-message CPU costs, per-message
//! protocol bytes, and a threading discipline — because those are exactly the
//! quantities the paper identifies as the differentiators between the
//! environments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deploy;
pub mod env;
pub mod mpi_mad;
pub mod mpi_sync;
pub mod omniorb;
pub mod pm2;
pub mod profile;
pub mod threads;

pub use deploy::{ConnectionGraph, DeploymentProfile};
pub use env::{CommStyle, EnvKind, Environment, MessageCost};
pub use mpi_mad::MpiMadeleine;
pub use mpi_sync::MpiSync;
pub use omniorb::OmniOrb;
pub use pm2::Pm2;
pub use profile::{EnvProfile, ServiceKnobs};
pub use threads::{ReceiveDiscipline, ThreadConfig};
