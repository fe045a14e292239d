//! Numerical substrate for the `aiac-rs` workspace.
//!
//! This crate provides every linear-algebra building block needed by the two
//! benchmark problems of Bahi, Contassot-Vivier and Couturier's AIAC study:
//!
//! * dense vectors and the max / Euclidean norms used as stopping criteria
//!   ([`vector`], [`norms`]);
//! * compressed-sparse-row matrices with the dependency analysis needed to
//!   build the communication graph of a block-decomposed iterative solver
//!   ([`csr`]);
//! * a generator of banded matrices with a controlled Jacobi spectral radius,
//!   matching the paper's "sparse matrix designed to have a spectral radius
//!   less than one" ([`banded`]);
//! * small dense matrices, and the LU factorisation on compressed rows that
//!   factors the block-diagonal blocks in O(nnz + fill) ([`dense`]);
//! * a restarted GMRES solver, the sequential inner solver of the
//!   multi-splitting Newton method ([`gmres`]);
//! * block-Jacobi preconditioning utilities ([`jacobi`]);
//! * one-dimensional block decompositions of index ranges over processors
//!   ([`decomp`]).
//!
//! Everything is pure, deterministic Rust with no external BLAS dependency so
//! the same code runs inside both the real threaded runtime and the
//! discrete-event grid simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod banded;
pub mod csr;
pub mod decomp;
pub mod dense;
pub mod gmres;
pub mod jacobi;
pub mod norms;
pub mod operator;
pub mod vector;

pub use banded::{BandedSpec, ScatteredDiagonalsSpec};
pub use csr::CsrMatrix;
pub use decomp::Partition;
pub use dense::DenseMatrix;
pub use gmres::{Gmres, GmresOutcome, GmresParams};
pub use jacobi::BlockJacobi;
pub use norms::{l2_norm, max_norm, max_norm_diff};
pub use operator::LinearOperator;
