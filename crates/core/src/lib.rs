//! # fabricsharp-core
//!
//! The paper's primary contribution: FabricSharp's fine-grained, orderer-side concurrency
//! control for execute-order-validate blockchains.
//!
//! * [`endorser`] — Algorithm 1: snapshot-consistent contract simulation (the execute phase).
//! * [`dependency`] — Section 4.3: dependency resolution of an incoming transaction against
//!   the committed (CW/CR) and pending (PW/PR) indices.
//! * [`arrival`] — Algorithm 2: the reorderability test; unserializable transactions are
//!   dropped before ordering (Theorem 2).
//! * [`formation`] — Algorithm 3 + Algorithm 5: abort-free reordering at block formation and
//!   restoration of the deliberately-ignored pending c-ww dependencies.
//! * [`orderer_cc`] — [`orderer_cc::FabricSharpCC`], the controller that ties the above
//!   together and is plugged into the ordering service (Figure 8).
//! * [`commit`] — the serial reference committer: MVCC validation and block application in
//!   strict block order, defining the bit-exact store/ledger state every other commit path
//!   must reproduce.
//! * [`scheduler`] — the dependency-graph-driven parallel commit scheduler
//!   ([`scheduler::CommitScheduler`]): Block-STM-style wave execution of the committed order
//!   on a worker pool, widened by the static conflict matrix, bit-identical to [`commit`] at
//!   every `CcConfig::execution_threads`.
//! * [`theory`] — executable forms of the paper's definitions and the Figure 2a / Figure 3a
//!   fixtures shared by tests, examples and the Table 1 harness.
//! * [`serializability`] — an independent offline oracle (multi-version serialization graph)
//!   used to verify end-to-end that everything FabricSharp commits is serializable.
//! * [`stats`] — the per-phase latency and abort statistics reported in Figures 11–14.

#![forbid(unsafe_code)]

pub mod arrival;
pub mod commit;
pub mod dependency;
pub mod endorser;
pub mod formation;
pub mod orderer_cc;
pub mod recovery;
pub mod scheduler;
pub mod serializability;
pub mod stats;
pub mod theory;

pub use commit::{
    apply_without_validation, commit_block, count_anti_rw_commits, mvcc_validate_and_apply,
    CommitOutcome,
};
pub use dependency::{resolve_dependencies, resolve_sharded, ResolvedDeps, ShardedResolution};
pub use endorser::{SimulationContext, SnapshotEndorser, TxnEffects};
pub use orderer_cc::FabricSharpCC;
pub use recovery::{
    recover_from_disk, recover_from_ledger, ColdRecovery, RecoveryError, RecoveryReport,
};
pub use scheduler::{plan_waves, CommitScheduler, WavePlan, WaveStats, WideningTable};
pub use serializability::{is_serializable, is_strongly_serializable, serialization_order};
pub use stats::CcStats;
