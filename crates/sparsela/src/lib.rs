//! # sparsela — sparse and dense linear algebra substrate
//!
//! A small, dependency-free linear algebra layer purpose-built for the
//! ActiveIter reproduction (ICDE 2019, "Meta Diagram based Active Social
//! Networks Alignment"). Everything the paper's pipeline needs is here:
//!
//! * [`CooMatrix`] — triplet builder used when extracting typed adjacency
//!   matrices from heterogeneous networks;
//! * [`CsrMatrix`] — compressed sparse row storage with the operations the
//!   meta-path/meta-diagram count engine relies on: [`spgemm()`] (Gustavson
//!   sparse × sparse product) and [`spgemm_lowrank`] (the `L·ΔA·R` anchor
//!   update), [`CsrMatrix::hadamard`] (the stacking operator of meta
//!   diagrams), transposition, and row/column reductions;
//! * [`fused_rows`] — a list of same-shape products and Hadamard products
//!   over them, computed one output row at a time with their margins (the
//!   meta-diagram catalog count);
//! * [`fan_out`] over [`balanced_ranges`] — the one parallel runner every
//!   threaded kernel here uses, sized by the [`Threading`] knob — and
//!   [`map_claimed`], the one claimed-index fan-out built on it;
//! * [`DenseMatrix`] / dense vectors — the per-candidate feature matrix `X`;
//! * [`CholeskyFactor`] and [`RidgeSolver`] — the paper's closed-form inner
//!   update `w = c (I + c XᵀX)⁻¹ Xᵀ y` (Section III-D, step 1-1).
//!
//! * [`codec`] — the repo's one byte format: the little-endian
//!   [`codec::Writer`] / [`codec::Reader`] primitives and [`codec::crc32`]
//!   that every snapshot, journal, wire frame and manifest is built from,
//!   plus the encode/decode of matrices and margins.
//!
//! The crate is deliberately free of `unsafe` and uses no other crate at
//! run time. Correctness is
//! established by unit tests in every module plus property tests against
//! naive dense references.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chol;
pub mod codec;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod error;
pub mod fused;
pub mod ops;
pub mod par;
pub mod ridge;
pub mod spgemm;
pub mod sums;

pub use chol::CholeskyFactor;
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::{Result, SparseError};
pub use fused::{fused_rows, RowStep};
pub use par::{balanced_ranges, fan_out, map_claimed, Threading};
pub use ridge::RidgeSolver;
pub use spgemm::{spgemm, spgemm_lowrank};
pub use sums::MarginSums;
