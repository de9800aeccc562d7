//! `FabricSharpCC`: the orderer-side fine-grained concurrency control (Section 3.4 / Figure 8).
//!
//! This struct owns everything the FabricSharp ordering service adds to a vanilla orderer:
//!
//! * the transaction dependency graph `G` with bloom-filter reachability,
//! * the committed-transaction indices CW / CR and the pending indices PW / PR,
//! * the accepted-but-not-yet-blocked transactions (the pending set `P`),
//! * the statistics the evaluation section reports.
//!
//! The two entry points mirror Figure 8: [`FabricSharpCC::on_arrival`] (Algorithm 2, called
//! for every transaction delivered by consensus, in order) and [`FabricSharpCC::cut_block`]
//! (Algorithm 3, called when the block-formation condition fires). Peers running FabricSharp
//! skip the per-transaction concurrency validation entirely — every transaction placed in a
//! block is guaranteed serializable, which is checked end-to-end by the property tests against
//! the offline oracle in [`crate::serializability`].

use crate::stats::CcStats;
use eov_common::config::CcConfig;
use eov_common::shard::ShardRouter;
use eov_common::txn::{Transaction, TxnId};
use eov_depgraph::GraphEngine;
use eov_vstore::ShardedIndices;
use std::collections::HashMap;

/// The FabricSharp orderer-side concurrency control.
///
/// Since the key-space sharding refactor the graph and the CW/CR/PW/PR indices live behind
/// the [`GraphEngine`] / [`ShardedIndices`] dispatch: `CcConfig::store_shards == 0` selects
/// the unsharded reference engine, `S >= 1` selects `S` per-shard graphs and index partitions
/// behind the cross-shard coordinator. Every algorithm below is written once against that
/// surface, and both configurations produce bit-identical decisions (asserted end to end by
/// `tests/determinism_lattice.rs`).
#[derive(Debug)]
pub struct FabricSharpCC {
    pub(crate) config: CcConfig,
    pub(crate) graph: GraphEngine,
    pub(crate) indices: ShardedIndices,
    /// Accepted transactions waiting for the next block, keyed by id.
    pub(crate) pending_txns: HashMap<u64, Transaction>,
    /// Number of the block currently being assembled (the first block is 1).
    pub(crate) next_block: u64,
    /// Monotone acceptance counter: every accepted transaction (graph-tracked or fast-path)
    /// takes the next value. Mirrors the graph's pending-list slot order, so the template
    /// fast path can splice untracked transactions back into the commit order at exactly the
    /// position the reference topo sort would have given them.
    pub(crate) arrival_seq: u64,
    /// Acceptance sequence of every pending transaction, keyed by id.
    pub(crate) pending_seq: HashMap<u64, u64>,
    /// Pending transactions that took the template fast path (never graph-inserted), in
    /// acceptance order.
    pub(crate) safe_pending: Vec<TxnId>,
    pub(crate) stats: CcStats,
}

impl FabricSharpCC {
    /// Creates a controller with the given configuration, starting at block 1.
    pub fn new(config: CcConfig) -> Self {
        let router = if config.store_shards == 0 {
            ShardRouter::unsharded()
        } else {
            ShardRouter::hash(config.store_shards)
        };
        FabricSharpCC {
            graph: GraphEngine::new(config),
            indices: ShardedIndices::new(router),
            config,
            pending_txns: HashMap::new(),
            next_block: 1,
            arrival_seq: 0,
            pending_seq: HashMap::new(),
            safe_pending: Vec::new(),
            stats: CcStats::default(),
        }
    }

    /// Creates a controller with the default configuration (`max_span = 10`, 4096-bit blooms).
    pub fn with_defaults() -> Self {
        Self::new(CcConfig::default())
    }

    /// The configuration in use.
    pub fn config(&self) -> &CcConfig {
        &self.config
    }

    /// The number of the block currently being assembled.
    pub fn next_block(&self) -> u64 {
        self.next_block
    }

    /// Number of transactions accepted and waiting for the next block.
    pub fn pending_len(&self) -> usize {
        self.pending_txns.len()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &CcStats {
        &self.stats
    }

    /// Read access to the dependency-graph engine (tests, diagnostics, benches).
    pub fn graph(&self) -> &GraphEngine {
        &self.graph
    }

    /// Read access to the sharded CW/CR/PW/PR indices (tests and diagnostics).
    pub fn indices(&self) -> &ShardedIndices {
        &self.indices
    }

    /// Looks up an accepted pending transaction.
    pub fn pending_txn(&self, id: TxnId) -> Option<&Transaction> {
        self.pending_txns.get(&id.0)
    }

    /// Bootstrap / recovery: registers a transaction that committed *outside* this controller
    /// (e.g. in blocks formed before the orderer joined, or blocks replayed from the ledger).
    /// The transaction's dependencies are resolved against the current indices, it is inserted
    /// into the graph as a committed node, and the committed-read/-write indices are updated so
    /// future arrivals see its conflicts. Transactions already known to the controller (i.e.
    /// ones it cut itself) are ignored, as are transactions without a commit slot.
    pub fn register_committed(&mut self, txn: &Transaction) {
        let Some(slot) = txn.end_ts else { return };
        // `knows` also covers transactions this controller committed via the template fast
        // path: they were never graph-inserted, but the untracked-commit log remembers them,
        // so a replayed delivery of the block must not re-register them.
        if self.graph.knows(txn.id) {
            return;
        }
        // Template fast path: a statically safe transaction never participates in any
        // dependency, so replaying it needs no graph node and no committed-index entries —
        // nothing ever resolves against its keys. Log it so future replays and arrivals see
        // it as known, exactly like a committed graph node until it ages out.
        if self.config.template_fastpath && txn.template_class.is_safe() {
            self.graph.note_untracked_commit(txn.id, slot.block);
            self.next_block = self.next_block.max(slot.block + 1);
            return;
        }
        let resolved = crate::dependency::resolve_sharded(txn, &self.indices);
        let spec = eov_depgraph::PendingTxnSpec {
            id: txn.id,
            start_ts: txn.start_ts(),
            read_keys: txn.read_set.keys().cloned().collect(),
            write_keys: txn.write_set.keys().cloned().collect(),
        };
        self.graph.insert_pending(
            spec,
            &resolved.global.predecessors,
            &resolved.global.successors,
            &resolved.per_shard,
            slot.block,
        );
        self.graph.mark_committed(txn.id, slot);
        for read in txn.read_set.iter() {
            self.indices.record_cr(read.key.clone(), slot, txn.id);
        }
        for write in txn.write_set.iter() {
            self.indices.record_cw(write.key.clone(), slot, txn.id);
            self.indices.drop_stale_readers(&write.key, slot);
        }
        self.next_block = self.next_block.max(slot.block + 1);
    }

    /// Drops an accepted pending transaction (used by adversarial scenarios and tests only;
    /// the normal pipeline never un-accepts a transaction).
    pub fn withdraw(&mut self, id: TxnId) -> Option<Transaction> {
        let txn = self.pending_txns.remove(&id.0)?;
        self.graph.remove(id);
        self.indices.remove_pending_txn(id);
        self.pending_seq.remove(&id.0);
        self.safe_pending.retain(|s| *s != id);
        Some(txn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::rwset::{Key, Value};
    use eov_common::version::SeqNo;

    #[test]
    fn construction_defaults() {
        let cc = FabricSharpCC::with_defaults();
        assert_eq!(cc.next_block(), 1);
        assert_eq!(cc.pending_len(), 0);
        assert_eq!(cc.config().max_span, 10);
        assert_eq!(cc.stats().arrivals, 0);
        assert!(cc.graph().is_empty());
    }

    #[test]
    fn withdraw_removes_all_traces() {
        let mut cc = FabricSharpCC::with_defaults();
        let txn = Transaction::from_parts(
            1,
            0,
            [(Key::new("A"), SeqNo::new(0, 1))],
            [(Key::new("B"), Value::from_i64(1))],
        );
        assert!(cc.on_arrival(txn).is_accept());
        assert_eq!(cc.pending_len(), 1);
        assert!(cc.pending_txn(TxnId(1)).is_some());

        let withdrawn = cc.withdraw(TxnId(1)).unwrap();
        assert_eq!(withdrawn.id, TxnId(1));
        assert_eq!(cc.pending_len(), 0);
        assert!(!cc.graph().contains(TxnId(1)));
        assert!(cc.withdraw(TxnId(1)).is_none());
    }
}
