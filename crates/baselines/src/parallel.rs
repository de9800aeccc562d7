//! `ParallelChain`: a single-process EOV blockchain whose execute and validate phases run on
//! the concurrent stage executor of `fabricsharp_core::pipeline`.
//!
//! [`crate::chain::SimpleChain`] drives the execute-order-validate workflow synchronously on
//! one thread; `ParallelChain` keeps the same workflow and the same deterministic outcomes but
//! fans endorsement out over `N` sharded [`EndorserPool`] workers and runs validation/commit
//! on the dedicated [`CommitWorker`] thread. Determinism comes from the two ordered merge
//! points: endorsement results are collected *in submission order* (not completion order)
//! before they enter the concurrency control, and commit jobs are consumed strictly in block
//! order. For identical inputs, `ParallelChain` therefore produces block-for-block the same
//! ledger as `SimpleChain` — which the cross-facade determinism tests assert.

use crate::api::{ConcurrencyControl, SystemKind};
use crate::chain::BlockReport;
use eov_common::abort::AbortReason;
use eov_common::config::CcConfig;
use eov_common::rwset::{Key, Value};
use eov_common::txn::{CommitDecision, Transaction, TxnId, TxnStatus};
use eov_ledger::{Block, Ledger};
use eov_vstore::{
    into_shared_backend, SharedStore, SnapshotManager, StateRead, StateStore, StoreBackend,
};
use fabricsharp_core::endorser::SnapshotEndorser;
use fabricsharp_core::pipeline::{CommitWorker, EndorseJob, EndorseLogic, EndorserPool};
use fabricsharp_core::scheduler::{CommitScheduler, WaveStats};
use std::sync::{Arc, Mutex};

/// A single-node EOV blockchain whose endorsement and commit stages run on worker threads.
pub struct ParallelChain {
    kind: SystemKind,
    store: SharedStore,
    ledger: Ledger,
    cc: Box<dyn ConcurrencyControl>,
    endorsers: EndorserPool,
    committer: CommitWorker,
    /// The wave-execution commit scheduler, shared with the committer thread's block jobs
    /// (only ever locked by one job at a time — the committer is a single-lane stage).
    scheduler: Arc<Mutex<CommitScheduler>>,
    next_txn_id: u64,
    committed_history: Vec<Transaction>,
    early_aborted: Vec<(TxnId, AbortReason)>,
    snapshots: SnapshotManager,
}

impl ParallelChain {
    /// Creates a chain running `kind` with default concurrency-control settings and
    /// `endorser_shards` endorsement workers (clamped to at least one).
    pub fn new(kind: SystemKind, endorser_shards: usize) -> Self {
        Self::with_cc_config(kind, CcConfig::default(), endorser_shards)
    }

    /// Creates a chain whose state store, indices and dependency graph are partitioned across
    /// `store_shards` key-space shards (`0` = the unsharded reference), on top of the
    /// `endorser_shards` worker threads. Ledger outcomes are bit-identical for every
    /// combination of the two shard knobs.
    pub fn with_store_shards(
        kind: SystemKind,
        endorser_shards: usize,
        store_shards: usize,
    ) -> Self {
        Self::with_cc_config(
            kind,
            CcConfig {
                store_shards,
                ..CcConfig::default()
            },
            endorser_shards,
        )
    }

    /// Creates a chain committing delivered blocks through the parallel wave scheduler with
    /// `execution_threads` workers (`0` = the inline serial reference), on top of
    /// `endorser_shards` endorsement workers and `store_shards` key-space shards. Ledger
    /// outcomes are bit-identical at every `(endorser_shards, store_shards,
    /// execution_threads)` combination.
    pub fn with_execution_threads(
        kind: SystemKind,
        endorser_shards: usize,
        store_shards: usize,
        execution_threads: usize,
    ) -> Self {
        Self::with_cc_config(
            kind,
            CcConfig {
                store_shards,
                execution_threads,
                ..CcConfig::default()
            },
            endorser_shards,
        )
    }

    /// Creates a chain with an explicit concurrency-control configuration
    /// (`cc_config.store_shards` also selects the state-store backend;
    /// `cc_config.execution_threads` sizes the parallel commit scheduler).
    pub fn with_cc_config(kind: SystemKind, cc_config: CcConfig, endorser_shards: usize) -> Self {
        let store = into_shared_backend(StoreBackend::for_shards(cc_config.store_shards));
        let snapshots = SnapshotManager::new();
        let endorser = SnapshotEndorser::new(snapshots.clone());
        let scheduler = Arc::new(Mutex::new(CommitScheduler::new(
            cc_config.execution_threads,
        )));
        ParallelChain {
            scheduler,
            kind,
            endorsers: EndorserPool::spawn(endorser_shards, SharedStore::clone(&store), endorser),
            committer: CommitWorker::spawn(SharedStore::clone(&store)),
            store,
            ledger: Ledger::new(),
            cc: kind.build(cc_config),
            next_txn_id: 1,
            committed_history: Vec::new(),
            early_aborted: Vec::new(),
            snapshots,
        }
    }

    /// Which system this chain runs.
    pub fn kind(&self) -> SystemKind {
        self.kind
    }

    /// Number of endorser shards.
    pub fn endorser_shards(&self) -> usize {
        self.endorsers.shard_count()
    }

    /// Seeds the genesis state (block 0).
    pub fn seed(&mut self, entries: impl IntoIterator<Item = (Key, Value)>) {
        self.store.write().seed_genesis(entries);
        self.snapshots.register_block(0);
    }

    /// Execute + order for a whole batch: endorses every contract invocation concurrently on
    /// the sharded pool (all against the current latest snapshot), then submits the results to
    /// the concurrency control *in batch order* — the deterministic merge that makes the
    /// concurrent facade equivalent to driving [`crate::chain::SimpleChain`] sequentially.
    /// Returns each transaction's id and its early (endorsement/arrival) decision.
    pub fn submit_batch(
        &mut self,
        batch: impl IntoIterator<Item = EndorseLogic>,
    ) -> Vec<(TxnId, CommitDecision)> {
        let snapshot_block = self.store.read().last_block();
        let mut request_nos = Vec::new();
        for logic in batch {
            let request_no = self.next_txn_id;
            self.next_txn_id += 1;
            request_nos.push(request_no);
            self.endorsers.dispatch(EndorseJob {
                request_no,
                snapshot_block,
                logic,
            });
        }

        let mut decisions = Vec::with_capacity(request_nos.len());
        for request_no in request_nos {
            let txn = self.endorsers.collect(request_no);
            let id = txn.id;
            let decision = self.submit(txn);
            decisions.push((id, decision));
        }
        decisions
    }

    /// Order phase for an already-endorsed transaction (mirrors `SimpleChain::submit`).
    pub fn submit(&mut self, txn: Transaction) -> CommitDecision {
        let id = txn.id;
        let latest = self.store.read().last_block();
        let endorse = self.cc.on_endorsement(&txn, latest);
        if let CommitDecision::Reject(reason) = endorse {
            self.early_aborted.push((id, reason));
            return endorse;
        }
        let arrival = self.cc.on_arrival(txn);
        if let CommitDecision::Reject(reason) = arrival {
            self.early_aborted.push((id, reason));
        }
        arrival
    }

    /// Validate phase: cuts a block from everything pending, ships it to the committer thread
    /// (which validates if the system requires it and applies the committed writes under the
    /// store's write lock), and appends the block to the hash-chained ledger.
    pub fn seal_block(&mut self) -> BlockReport {
        let ordered = self.cc.cut_block();
        if ordered.is_empty() {
            return BlockReport::default();
        }
        let block_no = self.ledger.height() + 1;
        let needs_validation = self.cc.needs_peer_validation();
        let job_txns = Arc::new(ordered.clone());
        let scheduler = Arc::clone(&self.scheduler);
        self.committer.begin(
            block_no,
            Box::new(move |store| {
                scheduler
                    .lock()
                    .expect("commit scheduler poisoned")
                    .commit_block(store, block_no, &job_txns, needs_validation)
            }),
        );
        let outcome = self.committer.finish(block_no);

        let mut block = Block::build(block_no, self.ledger.tip_hash(), ordered);
        let mut report = BlockReport {
            block_number: Some(block_no),
            ..BlockReport::default()
        };
        let mut committed: Vec<(Transaction, TxnStatus)> = Vec::with_capacity(block.entries.len());
        for (entry, status) in block.entries.iter_mut().zip(outcome.statuses) {
            entry.status = status;
            match status {
                TxnStatus::Committed => {
                    report.committed.push(entry.txn.id);
                    self.committed_history.push(entry.txn.clone());
                }
                TxnStatus::Aborted(reason) => report.aborted.push((entry.txn.id, reason)),
                TxnStatus::Pending => unreachable!("validation assigns a final status"),
            }
            committed.push((entry.txn.clone(), status));
        }
        self.ledger
            .append(block)
            .expect("locally built blocks always chain correctly");
        self.snapshots.register_block(block_no);
        self.cc.on_block_committed(block_no, &committed);
        report
    }

    /// The latest committed value of `key`, if any.
    pub fn latest(&self, key: &Key) -> Option<Value> {
        self.store.read().latest_value(key).cloned()
    }

    /// The underlying hash-chained ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The concurrency control driving this chain (for stats inspection).
    pub fn cc(&self) -> &dyn ConcurrencyControl {
        self.cc.as_ref()
    }

    /// Every committed transaction so far, in commit order.
    pub fn committed_history(&self) -> &[Transaction] {
        &self.committed_history
    }

    /// Early aborts recorded at submission time (endorsement or arrival).
    pub fn early_aborted(&self) -> &[(TxnId, AbortReason)] {
        &self.early_aborted
    }

    /// Cumulative wave statistics of the parallel commit scheduler (all zero when
    /// `execution_threads == 0` — the inline reference schedules no waves).
    pub fn wave_stats(&self) -> WaveStats {
        self.scheduler
            .lock()
            .expect("commit scheduler poisoned")
            .stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabricsharp_core::serializability::is_serializable;

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    fn transfer_logic(from: Key, to: Key, amount: i64) -> EndorseLogic {
        Box::new(move |ctx| {
            let f = ctx.read_balance(&from);
            let t = ctx.read_balance(&to);
            ctx.write(from.clone(), Value::from_i64(f - amount));
            ctx.write(to.clone(), Value::from_i64(t + amount));
        })
    }

    #[test]
    fn batch_transfer_commits_on_every_system_and_shard_count() {
        for kind in SystemKind::all() {
            for shards in [1usize, 3] {
                let mut chain = ParallelChain::new(kind, shards);
                chain.seed([
                    (k("alice"), Value::from_i64(100)),
                    (k("bob"), Value::from_i64(50)),
                ]);
                let decisions = chain.submit_batch([transfer_logic(k("alice"), k("bob"), 10)]);
                assert!(decisions[0].1.is_accept(), "{kind}/{shards}");
                let report = chain.seal_block();
                assert_eq!(report.committed.len(), 1, "{kind}/{shards}");
                assert_eq!(
                    chain.latest(&k("bob")).unwrap().as_i64(),
                    Some(60),
                    "{kind}/{shards}"
                );
                assert!(chain.ledger().verify_integrity().is_ok(), "{kind}/{shards}");
            }
        }
    }

    #[test]
    fn seal_with_nothing_pending_appends_no_block() {
        let mut chain = ParallelChain::new(SystemKind::FabricSharp, 1);
        chain.seed([(k("alice"), Value::from_i64(100))]);
        let report = chain.seal_block();
        assert_eq!(report.block_number, None);
        assert_eq!(chain.ledger().height(), 0);
    }

    #[test]
    fn fabricsharp_batches_stay_serializable_across_blocks() {
        let mut chain = ParallelChain::new(SystemKind::FabricSharp, 4);
        let keys: Vec<Key> = (0..6).map(|i| k(&format!("acct{i}"))).collect();
        chain.seed(keys.iter().map(|key| (key.clone(), Value::from_i64(100))));

        for round in 0..5u64 {
            let batch: Vec<EndorseLogic> = (0..4usize)
                .map(|i| {
                    let from = keys[i].clone();
                    let to = keys[(i + round as usize + 1) % keys.len()].clone();
                    transfer_logic(from, to, 1)
                })
                .collect();
            chain.submit_batch(batch);
            chain.seal_block();
        }
        assert!(is_serializable(chain.committed_history()));
        assert!(chain.ledger().verify_integrity().is_ok());
        assert!(chain.ledger().committed_txn_count() > 0);
    }
}
