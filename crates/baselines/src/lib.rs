//! # eov-baselines
//!
//! The comparison systems of the paper's evaluation, all implementing one common
//! [`api::ConcurrencyControl`] trait so the simulator and the benchmark harness can swap them
//! freely:
//!
//! * [`fabric`] — vanilla Hyperledger Fabric v1.3 (FIFO ordering, MVCC validation at peers).
//! * [`fabricpp`] — Fabric++ (early abort of cross-block reads + within-block reordering).
//! * [`focc_s`] — Focc-s: standard serializable OCC (concurrent-ww / dangerous-structure
//!   aborts at arrival).
//! * [`focc_l`] — Focc-l: sort-based greedy batch reordering at block formation.
//! * [`sharp`] — the trait implementation for FabricSharp (`fabricsharp-core`).
//! * [`chain`] — `SimpleChain`, a synchronous single-node EOV pipeline for examples and tests.

#![forbid(unsafe_code)]

pub mod api;
pub mod chain;
pub mod fabric;
pub mod fabricpp;
pub mod focc_l;
pub mod focc_s;
pub mod sharp;

pub use api::{
    apply_without_validation, commit_block, count_anti_rw_commits, mvcc_validate_and_apply,
    ConcurrencyControl, SystemKind,
};
pub use chain::{BlockReport, SimpleChain};
pub use fabric::FabricCC;
pub use fabricpp::FabricPlusPlusCC;
pub use focc_l::FoccLightCC;
pub use focc_s::FoccSerializableCC;
