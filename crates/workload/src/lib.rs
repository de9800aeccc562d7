//! # eov-workload
//!
//! The benchmark workloads of the paper's evaluation:
//!
//! * [`zipf`] — a Zipfian index sampler (inverse-CDF over `1/i^θ` weights), used by the
//!   Figure 1 motivation experiment and the Figure 15 mixed workload.
//! * [`contracts`] — the smart-contract abstraction plus the no-op and single-key-update
//!   contracts of Figure 1.
//! * [`smallbank`] — the Smallbank contract family: the original operation mix used in
//!   Section 5.4 and the modified 4-read/4-write transaction of Section 5.2.
//! * [`generator`] — workload generators parameterised exactly like Table 2 (hot ratios,
//!   client delay, read interval, request rate) and Section 5.4 (Create-Account and mixed
//!   workloads with Zipfian skew).
//! * [`templates`] — the key families and stable template names the static analysis works
//!   over.
//! * [`conflict`] — Vandevoort-style template-robustness analysis at key granularity:
//!   symbolic per-template key-expression footprints with functional constraints, a static
//!   template×template conflict matrix, and template- and **instance-level** safe
//!   classification (provably cycle-free transactions feed the orderer's
//!   `template_fastpath` knob; e.g. YCSB-B read transactions whose sampled keys provably
//!   miss the write partition are rescued).

#![forbid(unsafe_code)]

pub mod conflict;
pub mod contracts;
pub mod generator;
pub mod smallbank;
pub mod templates;
pub mod ycsb;
pub mod zipf;

pub use conflict::{ConflictAnalyzer, ConflictMatrix, KeyExpr, ParamDomain, TemplateFootprint};
pub use contracts::{KvUpdateContract, NoOpContract, SmartContract};
pub use generator::{TxnTemplate, WorkloadGenerator, WorkloadKind};
pub use smallbank::{SmallbankContract, SmallbankOp};
pub use ycsb::{YcsbOp, YcsbProfile, YcsbTxn};
pub use zipf::Zipfian;
