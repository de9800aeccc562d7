//! The common interface every evaluated system implements, plus the shared peer-side MVCC
//! validation routine.
//!
//! The paper compares five systems that differ only in their concurrency control: vanilla
//! Fabric, Fabric++, FabricSharp, Focc-s and Focc-l. The simulator and the `SimpleChain`
//! facade drive all of them through this trait, so every experiment exercises exactly the same
//! pipeline with only the CC swapped out — mirroring how the paper implemented each variant
//! inside the same Fabric codebase.

use eov_common::abort::AbortReason;
use eov_common::config::CcConfig;
use eov_common::txn::{CommitDecision, Transaction, TxnStatus};
use std::time::Duration;

// The shared commit semantics moved to `fabricsharp_core::commit` (so the parallel commit
// scheduler and the serial reference live side by side); re-exported here because every
// baseline and the chain facade import them through this module.
pub use fabricsharp_core::commit::{
    apply_without_validation, commit_block, count_anti_rw_commits, mvcc_validate_and_apply,
};

/// Which of the paper's five systems a concurrency control implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Vanilla Hyperledger Fabric v1.3: no orderer-side logic, MVCC validation at the peers.
    Fabric,
    /// Fabric++ (Sharma et al.): early abort of cross-block reads plus within-block reordering.
    FabricPlusPlus,
    /// FabricSharp — the paper's contribution.
    FabricSharp,
    /// Focc-s: the standard serializable-OCC approach (Cahill et al.) — abort on concurrent
    /// write-write conflicts or dangerous rw structures at arrival.
    FoccS,
    /// Focc-l: Ding et al.'s sort-based greedy batch reordering at block formation.
    FoccL,
}

impl SystemKind {
    /// Display name matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::Fabric => "Fabric",
            SystemKind::FabricPlusPlus => "Fabric++",
            SystemKind::FabricSharp => "Fabric#",
            SystemKind::FoccS => "Focc-s",
            SystemKind::FoccL => "Focc-l",
        }
    }

    /// All five systems, in the order the paper's legends list them.
    pub fn all() -> [SystemKind; 5] {
        [
            SystemKind::Fabric,
            SystemKind::FabricPlusPlus,
            SystemKind::FabricSharp,
            SystemKind::FoccS,
            SystemKind::FoccL,
        ]
    }

    /// Builds a boxed concurrency-control instance for this system.
    pub fn build(self, cc_config: CcConfig) -> Box<dyn ConcurrencyControl> {
        match self {
            SystemKind::Fabric => Box::new(crate::fabric::FabricCC::new()),
            SystemKind::FabricPlusPlus => Box::new(crate::fabricpp::FabricPlusPlusCC::new()),
            SystemKind::FabricSharp => Box::new(fabricsharp_core::FabricSharpCC::new(cc_config)),
            SystemKind::FoccS => Box::new(crate::focc_s::FoccSerializableCC::new()),
            SystemKind::FoccL => Box::new(crate::focc_l::FoccLightCC::new()),
        }
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The orderer/peer-side concurrency-control interface shared by all five systems.
pub trait ConcurrencyControl: Send {
    /// Which system this is.
    fn kind(&self) -> SystemKind;

    /// Peer-side early-abort decision taken when the endorsement result is about to be
    /// submitted. `latest_block` is the height of the last block committed at that moment;
    /// Fabric++ uses it to abort simulations that read across blocks.
    fn on_endorsement(&mut self, _txn: &Transaction, _latest_block: u64) -> CommitDecision {
        CommitDecision::Accept
    }

    /// Orderer-side decision when the transaction is delivered by consensus.
    fn on_arrival(&mut self, txn: Transaction) -> CommitDecision;

    /// Number of transactions accepted and waiting for the next block.
    fn pending_len(&self) -> usize;

    /// Forms the next block: returns the transactions in final commit order with `end_ts`
    /// assigned, advancing the internal block counter. An empty return means nothing was
    /// pending.
    fn cut_block(&mut self) -> Vec<Transaction>;

    /// Whether peers must still run MVCC validation on delivered blocks. FabricSharp returns
    /// `false` — its ordering guarantees serializability.
    fn needs_peer_validation(&self) -> bool {
        true
    }

    /// Notifies the CC of the validation outcome of a delivered block so it can track the
    /// latest committed versions (used by the baselines for staleness checks).
    fn on_block_committed(&mut self, _block_no: u64, _outcome: &[(Transaction, TxnStatus)]) {}

    /// Early aborts performed by this CC so far, grouped by reason.
    fn early_aborts(&self) -> Vec<(AbortReason, u64)> {
        Vec::new()
    }

    /// Cumulative time spent reordering at block formation (Figure 11 right).
    fn reorder_time(&self) -> Duration {
        Duration::ZERO
    }

    /// Cumulative time spent processing arrivals (Figure 12 right).
    fn arrival_time(&self) -> Duration {
        Duration::ZERO
    }

    /// Mean dependency-graph hops per arrival (Figure 13 right); zero for systems that do not
    /// maintain a graph.
    fn avg_hops(&self) -> f64 {
        0.0
    }

    /// How many accepted transactions rode the template fast path (skipping the dependency
    /// graph); zero for systems without the knob. The simulator exports this so the static
    /// conflict analyzer's predicted safe count can be checked against runtime behaviour.
    fn fastpath_accepted(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::rwset::{Key, Value};
    use eov_common::version::SeqNo;
    use eov_vstore::MultiVersionStore;

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    fn seeded_store() -> MultiVersionStore {
        let mut store = MultiVersionStore::new();
        store.seed_genesis([(k("A"), Value::from_i64(1)), (k("B"), Value::from_i64(2))]);
        store
    }

    #[test]
    fn labels_and_enumeration() {
        assert_eq!(SystemKind::FabricSharp.label(), "Fabric#");
        assert_eq!(SystemKind::all().len(), 5);
        assert_eq!(SystemKind::FoccS.to_string(), "Focc-s");
    }

    #[test]
    fn every_system_can_be_built() {
        for kind in SystemKind::all() {
            let cc = kind.build(CcConfig::default());
            assert_eq!(cc.kind(), kind);
            assert_eq!(cc.pending_len(), 0);
            // FabricSharp is the only system that skips peer validation.
            assert_eq!(cc.needs_peer_validation(), kind != SystemKind::FabricSharp);
        }
    }

    #[test]
    fn mvcc_validation_rejects_stale_reads_and_applies_fresh_ones() {
        let mut store = seeded_store();
        // txn1 read A at its genesis version (0,1) — valid. txn2 read A at a wrong version.
        let fresh = Transaction::from_parts(
            1,
            0,
            [(k("A"), SeqNo::new(0, 1))],
            [(k("A"), Value::from_i64(10))],
        );
        let stale = Transaction::from_parts(
            2,
            0,
            [(k("A"), SeqNo::new(0, 1))], // now stale: txn1 just rewrote A in this block
            [(k("B"), Value::from_i64(20))],
        );
        let statuses = mvcc_validate_and_apply(&mut store, 1, &[fresh, stale]);
        assert_eq!(statuses[0], TxnStatus::Committed);
        assert_eq!(statuses[1], TxnStatus::Aborted(AbortReason::StaleRead));
        assert_eq!(store.latest_value(&k("A")).unwrap().as_i64(), Some(10));
        assert_eq!(store.latest_value(&k("B")).unwrap().as_i64(), Some(2));
        assert_eq!(store.last_block(), 1);
    }

    #[test]
    fn validation_of_missing_key_reads() {
        let mut store = seeded_store();
        // Reading a key that does not exist is recorded at version (0,0); it stays valid as
        // long as nobody creates the key first.
        let reader = Transaction::from_parts(
            1,
            0,
            [(k("new"), SeqNo::zero())],
            [(k("C"), Value::from_i64(1))],
        );
        let statuses = mvcc_validate_and_apply(&mut store, 1, &[reader]);
        assert_eq!(statuses[0], TxnStatus::Committed);
    }

    #[test]
    fn anti_rw_commits_count_stale_reads_and_in_block_overwrites() {
        let mut store = seeded_store();
        // fresh reads A at its current version; stale read A at a version that never existed;
        // in_block reads B which the first transaction overwrites within the block.
        let fresh = Transaction::from_parts(
            1,
            0,
            [(k("A"), SeqNo::new(0, 1))],
            [(k("B"), Value::from_i64(9))],
        );
        let stale = Transaction::from_parts(2, 0, [(k("A"), SeqNo::new(5, 5))], []);
        let in_block = Transaction::from_parts(3, 0, [(k("B"), SeqNo::new(0, 2))], []);
        assert_eq!(
            count_anti_rw_commits(&store, &[fresh.clone(), stale.clone(), in_block.clone()]),
            2
        );
        // commit_block without validation applies everything and reports the same count.
        let outcome = commit_block(&mut store, 1, &[fresh, stale, in_block], false);
        assert_eq!(outcome.anti_rw_commits, 2);
        assert_eq!(outcome.statuses, vec![TxnStatus::Committed; 3]);
        assert_eq!(store.last_block(), 1);
    }

    #[test]
    fn apply_without_validation_commits_everything() {
        let mut store = seeded_store();
        let t1 = Transaction::from_parts(
            1,
            0,
            [(k("A"), SeqNo::new(9, 9))],
            [(k("A"), Value::from_i64(5))],
        );
        let statuses = apply_without_validation(&mut store, 1, &[t1]);
        assert_eq!(statuses, vec![TxnStatus::Committed]);
        assert_eq!(store.latest_value(&k("A")).unwrap().as_i64(), Some(5));
    }
}
